"""Faulty-world environment layers wrapped around collision resolution.

Every scenario the engine could express before this module assumed a
perfectly reliable synchronous radio: each round, the protocol's transmit
mask goes straight into the collision model and the resolved deliveries go
straight back to the protocol.  An :class:`Environment` perturbs that round
*around* the collision model without touching protocol or resolver code:

1. :meth:`~Environment.begin_round` — advance per-round stochastic state
   (e.g. the Gilbert–Elliott burst-loss chains) and fire schedule events
   (churn crash/recover);
2. :meth:`~Environment.gate_transmit_flat` — remove transmissions of nodes
   whose radio is off (crashed, not yet awake).  Gated transmissions are
   **not** energy-charged: the node never keyed its transmitter;
3. :meth:`~Environment.perturb_transmissions` — drop transmissions on the
   air (i.i.d. transmitter-side loss).  These *are* charged: energy was
   spent, the packet died in flight — the difference between a dead radio
   and a lossy channel;
4. the collision model resolves the surviving transmissions (loss before
   resolution changes the collision structure, deliberately);
5. :meth:`~Environment.filter_deliveries` — drop deliveries after
   resolution (receiver-side i.i.d. loss, burst-state receivers, jammed
   channels, deliveries to crashed/asleep nodes).

Hooks act on ``R`` stacked trials of :class:`~repro.radio.batch.BatchEngine`
at once, on flat node ids (``trial * n + node``) and per-trial masks.
Every stochastic layer draws per-trial blocks in trial order through the
:class:`~repro.radio.batch.BatchRandomSource` helpers, so in exact rng mode
a trial's draws do not depend on who shares its batch.  The engine bypasses
listener interest trimming whenever an environment is active; a **null**
environment (:attr:`~Environment.is_null`) costs nothing — the engine skips
every hook and keeps its fast paths.

Crash semantics are "radio dead, clock alive": a down node's protocol
state still advances with the global round counter, but its transmissions
are gated (uncharged) and deliveries to it are dropped.  Crash-recovery
retains state across the outage; crash-stop simply never recovers (the
``success`` metric records the failure).

Fault bookkeeping feeds the ``recovery_rounds`` / ``work_wasted`` metrics:
each layer tracks the last round it perturbed anything
(``last_fault_round``, 1-based like ``completion_round``), how many
charged transmissions it lost, how many deliveries it dropped, and how
many transmissions it gated while a radio was down.

Environments are built from JSON-clean **spec dicts** (``{"name": ...,
"params": {...}}``) via :func:`build_environment`, so a spec can ride
inside a :class:`~repro.experiments.runner.Job`, a scenario grid, or a
store key unchanged.  :func:`parse_environment_option` turns the CLI's compact
``--env loss=0.1,churn=0.2@5:40`` form into a spec.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import telemetry
from repro._util.validation import (
    check_node_index,
    check_positive_int,
    check_probability,
    check_sorted_nondecreasing,
)

__all__ = [
    "Environment",
    "NullEnvironment",
    "IidLossEnvironment",
    "BurstLossEnvironment",
    "ChurnEnvironment",
    "JamEnvironment",
    "WakeupEnvironment",
    "ComposedEnvironment",
    "ENVIRONMENT_FAMILIES",
    "build_environment",
    "validate_environment_spec",
    "parse_environment_option",
]


# --------------------------------------------------------------------------- #
# Spec validation helpers
# --------------------------------------------------------------------------- #
def _check_round(value, name: str) -> int:
    return check_positive_int(value, name, minimum=0)


def _check_node_list(values, name: str) -> List[int]:
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise TypeError(f"{name} must be a list of node ids, got {type(values).__name__}")
    out = []
    for v in values:
        out.append(check_positive_int(v, f"{name} entry", minimum=0))
    return out


def _normalise_churn_events(events) -> List[Dict[str, object]]:
    """Validate and normalise a churn schedule into plain JSON events."""
    if not isinstance(events, (list, tuple)):
        raise TypeError(
            f"churn events must be a list of event dicts, got {type(events).__name__}"
        )
    normalised: List[Dict[str, object]] = []
    for event in events:
        if not isinstance(event, Mapping):
            raise TypeError(
                f"each churn event must be a dict, got {type(event).__name__}"
            )
        unknown = set(event) - {"round", "crash", "recover", "crash_fraction", "recover_all"}
        if unknown:
            raise ValueError(
                f"unknown churn event key(s) {sorted(unknown)}; known: "
                "round, crash, recover, crash_fraction, recover_all"
            )
        if "round" not in event:
            raise ValueError("every churn event needs a 'round'")
        out: Dict[str, object] = {"round": _check_round(event["round"], "churn event round")}
        if "crash" in event:
            out["crash"] = _check_node_list(event["crash"], "churn crash list")
        if "crash_fraction" in event:
            out["crash_fraction"] = check_probability(
                event["crash_fraction"], "churn crash_fraction"
            )
        if "recover" in event:
            out["recover"] = _check_node_list(event["recover"], "churn recover list")
        if "recover_all" in event:
            out["recover_all"] = bool(event["recover_all"])
        if len(out) == 1:
            raise ValueError(
                "a churn event needs at least one action "
                "(crash, crash_fraction, recover or recover_all)"
            )
        normalised.append(out)
    check_sorted_nondecreasing(
        [e["round"] for e in normalised], "churn event rounds"
    )
    return normalised


# --------------------------------------------------------------------------- #
# Environments
# --------------------------------------------------------------------------- #
class Environment:
    """Base class: per-trial fault bookkeeping plus identity (no-op) hooks.

    Hooks operate on flat ids (``trial * n + node``) and per-trial masks,
    like :class:`~repro.radio.collision.BatchCollisionModel`.  Subclasses
    override the hooks they need.  Stochastic hooks draw per-trial blocks
    in trial order through the :class:`~repro.radio.batch.BatchRandomSource`
    helpers, and a stopped trial (absent from ``running`` / the transmit
    set) draws nothing.
    """

    name = "environment"

    def __init__(self) -> None:
        self._trials = 0
        self._n = 0
        self._rng = None

    @property
    def is_null(self) -> bool:
        """True when the environment can never perturb anything — the
        engine then skips every hook (and keeps its fast paths)."""
        return False

    def bind(self, batch, rng_source) -> None:
        """Prepare for one batched run (clears all per-trial fault state)."""
        self._trials = int(batch.trials)
        self._n = int(batch.n)
        self._rng = rng_source
        self._last_fault = np.zeros(self._trials, dtype=np.int64)
        self._fault_events = np.zeros(self._trials, dtype=np.int64)
        self._lost_tx = np.zeros(self._trials, dtype=np.int64)
        self._lost_rx = np.zeros(self._trials, dtype=np.int64)
        self._suppressed = np.zeros(self._trials, dtype=np.int64)
        self._bind()

    def _bind(self) -> None:  # pragma: no cover - trivial default
        pass

    # -- per-round hooks ------------------------------------------------- #
    def begin_round(self, round_index: int, running: np.ndarray) -> None:
        """Advance stochastic state / fire schedule events for this round."""

    def gate_transmit_flat(
        self, round_index: int, tx_flat: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        """Remove transmissions of down radios (rng-free, not charged)."""
        return tx_flat

    def perturb_transmissions(
        self, round_index: int, tx_flat: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        """Drop charged transmissions on the air (before resolution)."""
        return tx_flat

    def filter_deliveries(self, round_index: int, outcome, running: np.ndarray):
        """Drop deliveries after resolution."""
        return outcome

    def doomed_trials(self, round_index: int) -> Optional[np.ndarray]:
        """Per-trial bool: the trial can never progress again, or ``None``.

        Consulted after round ``round_index``'s events fired.  The engine
        retires a doomed trial immediately instead of spinning it to the
        round cap; only environments that can prove doom (churn with every
        radio down and no recovery scheduled) override this.  ``None`` (the
        default, and the cheap common case) means no trial is provably
        doomed.
        """
        return None

    # -- compaction -------------------------------------------------------- #
    def select_rows(self, keep: np.ndarray, rng_source=None) -> None:
        """Shrink all per-trial state to the trials where ``keep`` is True.

        The continuous engine's compaction repack: surviving trials keep
        their relative order, matching the row selection applied to the
        stacked CSR, the protocol state and the rng source.  ``rng_source``
        is the *compacted* random source: the environment draws per-trial
        blocks by row, so it must swap to the new source alongside the
        protocol or a surviving trial would consume a retired trial's
        generator (silently corrupting the exact-mode stream).
        """
        keep = np.asarray(keep, dtype=bool)
        if rng_source is not None:
            self._rng = rng_source
        self._last_fault = self._last_fault[keep].copy()
        self._fault_events = self._fault_events[keep].copy()
        self._lost_tx = self._lost_tx[keep].copy()
        self._lost_rx = self._lost_rx[keep].copy()
        self._suppressed = self._suppressed[keep].copy()
        self._trials = int(self._last_fault.size)
        self._select_rows(keep)

    def _select_rows(self, keep: np.ndarray) -> None:
        """Subclass hook: row-select any additional per-trial state."""

    # -- bookkeeping ------------------------------------------------------ #
    def _mark_fault(self, round_index: int, trials_mask: np.ndarray) -> None:
        self._fault_events[trials_mask] += 1
        self._last_fault[trials_mask] = round_index + 1
        if telemetry.enabled():
            mask = np.asarray(trials_mask)
            faulted = mask.sum() if mask.dtype == np.bool_ else mask.size
            telemetry.counter_inc("environment.fault_events", int(faulted))

    def trial_report(self, trial: int) -> Dict[str, object]:
        """Trial ``trial``'s JSON-clean fault summary (trace metadata)."""
        return {
            "spec": self.spec(),
            "fault_events": int(self._fault_events[trial]),
            "last_fault_round": int(self._last_fault[trial]),
            "lost_transmissions": int(self._lost_tx[trial]),
            "lost_deliveries": int(self._lost_rx[trial]),
            "suppressed_transmissions": int(self._suppressed[trial]),
        }

    def spec(self) -> Dict[str, object]:
        """The normalised spec dict this environment was built from."""
        raise NotImplementedError

    # -- shared delivery surgery ----------------------------------------- #
    def _drop_deliveries(self, round_index: int, outcome, keep: np.ndarray):
        """Shrink the outcome to ``keep`` (like the erasure model, senders
        are materialised *before* the receiver set changes)."""
        if keep.all():
            return outcome
        dropped = outcome.receiver_flat[~keep]
        drop_counts = np.bincount(dropped // self._n, minlength=self._trials)
        self._lost_rx += drop_counts
        self._mark_fault(round_index, drop_counts > 0)
        senders = outcome.sender_flat
        outcome.receiver_flat = outcome.receiver_flat[keep]
        outcome.sender_flat = senders[keep]
        outcome.receiver_counts = np.bincount(
            outcome.receiver_flat // self._n, minlength=self._trials
        )
        return outcome


class NullEnvironment(Environment):
    """The do-nothing environment (useful for overhead measurement)."""

    name = "null"

    @property
    def is_null(self) -> bool:
        return True

    def spec(self) -> Dict[str, object]:
        return {"name": "null", "params": {}}


class IidLossEnvironment(Environment):
    """Per-round i.i.d. message loss on transmissions and/or deliveries.

    ``tx_loss`` kills a transmission on the air (charged but lost — it no
    longer participates in collision resolution); ``rx_loss`` kills an
    otherwise successful delivery (like the erasure collision model, but
    composable with every other fault family).
    """

    name = "iid_loss"

    def __init__(self, tx_loss: float = 0.0, rx_loss: float = 0.0) -> None:
        super().__init__()
        self.tx_loss = check_probability(tx_loss, "tx_loss")
        self.rx_loss = check_probability(rx_loss, "rx_loss")

    @property
    def is_null(self) -> bool:
        return self.tx_loss == 0.0 and self.rx_loss == 0.0

    def spec(self) -> Dict[str, object]:
        return {
            "name": "iid_loss",
            "params": {"tx_loss": self.tx_loss, "rx_loss": self.rx_loss},
        }

    def perturb_transmissions(self, round_index, tx_flat, running):
        if self.tx_loss <= 0.0 or tx_flat.size == 0:
            return tx_flat
        counts = np.bincount(tx_flat // self._n, minlength=self._trials)
        keep = self._rng.uniforms_for_counts(counts) >= self.tx_loss
        if keep.all():
            return tx_flat
        lost_counts = np.bincount(tx_flat[~keep] // self._n, minlength=self._trials)
        self._lost_tx += lost_counts
        self._mark_fault(round_index, lost_counts > 0)
        return tx_flat[keep]

    def filter_deliveries(self, round_index, outcome, running):
        if self.rx_loss <= 0.0 or outcome.receiver_flat.size == 0:
            return outcome
        keep = self._rng.uniforms_for_counts(outcome.receiver_counts) >= self.rx_loss
        return self._drop_deliveries(round_index, outcome, keep)


class BurstLossEnvironment(Environment):
    """Gilbert–Elliott burst loss: a two-state chain per receiver node.

    Each node is Good or Bad; per round a Good node turns Bad with
    probability ``p_bad`` and a Bad node turns Good with probability
    ``p_good`` (one uniform per node per round serves both transitions).
    Deliveries to a node currently in the Bad state are dropped, so losses
    arrive in bursts of mean length ``1 / p_good``.  All nodes start Good.
    """

    name = "burst_loss"

    def __init__(self, p_bad: float, p_good: float = 0.5) -> None:
        super().__init__()
        self.p_bad = check_probability(p_bad, "p_bad")
        self.p_good = check_probability(p_good, "p_good")

    @property
    def is_null(self) -> bool:
        return self.p_bad == 0.0

    def spec(self) -> Dict[str, object]:
        return {
            "name": "burst_loss",
            "params": {"p_bad": self.p_bad, "p_good": self.p_good},
        }

    def _bind(self) -> None:
        self._bad = np.zeros((self._trials, self._n), dtype=bool)

    def _select_rows(self, keep: np.ndarray) -> None:
        self._bad = np.ascontiguousarray(self._bad[keep])

    def begin_round(self, round_index, running):
        # One uniform per node per round, running trials only — a stopped
        # trial's chain freezes where its run ended.
        u = self._rng.uniform_rows(running, self._n)
        rows = np.flatnonzero(running)
        bad = self._bad[rows]
        flip = (~bad & (u < self.p_bad)) | (bad & (u < self.p_good))
        self._bad[rows] ^= flip

    def filter_deliveries(self, round_index, outcome, running):
        if outcome.receiver_flat.size == 0:
            return outcome
        keep = ~self._bad.reshape(-1)[outcome.receiver_flat]
        return self._drop_deliveries(round_index, outcome, keep)


class ChurnEnvironment(Environment):
    """Deterministic crash-stop / crash-recovery schedule.

    ``events`` is a round-sorted list of ``{"round": r, ...}`` dicts with
    any of ``crash`` (node list), ``crash_fraction`` (the highest-numbered
    ``round(f * n)`` nodes — deterministic, and it spares node 0, the
    conventional broadcast source, for every ``f < 1``), ``recover`` (node
    list) and ``recover_all``.  A down node's radio is off: its
    transmissions are gated (uncharged) and deliveries to it are dropped;
    its protocol state keeps advancing, so a recovered node resumes from
    where it crashed.  With no recover events this is crash-stop.
    """

    name = "churn"

    def __init__(self, events: Sequence[Mapping[str, object]]) -> None:
        super().__init__()
        self.events = _normalise_churn_events(events)

    @property
    def is_null(self) -> bool:
        return not self.events

    def spec(self) -> Dict[str, object]:
        return {"name": "churn", "params": {"events": [dict(e) for e in self.events]}}

    def _bind(self) -> None:
        self._down = np.zeros((self._trials, self._n), dtype=bool)
        self._last_recovery_round = max(
            (
                int(e["round"])
                for e in self.events
                if "recover" in e or e.get("recover_all")
            ),
            default=-1,
        )
        self._schedule: Dict[int, List[Dict[str, object]]] = {}
        for event in self.events:
            resolved = dict(event)
            for key in ("crash", "recover"):
                if key in resolved:
                    for node in resolved[key]:
                        check_node_index(node, self._n, f"churn {key} node")
                    resolved[key] = np.asarray(resolved[key], dtype=np.int64)
            if "crash_fraction" in resolved:
                count = int(round(float(resolved.pop("crash_fraction")) * self._n))
                resolved["crash"] = np.concatenate(
                    [
                        resolved.get("crash", np.empty(0, dtype=np.int64)),
                        np.arange(self._n - count, self._n, dtype=np.int64),
                    ]
                )
            self._schedule.setdefault(int(resolved["round"]), []).append(resolved)

    def begin_round(self, round_index, running):
        actions = self._schedule.get(round_index)
        if actions is None:
            return
        # Events only fire for running trials: a stopped trial's run has
        # already ended, so its counters (and state) must freeze.
        for action in actions:
            crash = action.get("crash")
            if crash is not None and crash.size:
                self._down[np.ix_(running, crash)] = True
            if action.get("recover_all"):
                self._down[running] = False
            recover = action.get("recover")
            if recover is not None and recover.size:
                self._down[np.ix_(running, recover)] = False
            self._mark_fault(round_index, running)

    def gate_transmit_flat(self, round_index, tx_flat, running):
        if tx_flat.size == 0 or not self._down.any():
            return tx_flat
        blocked = self._down.reshape(-1)[tx_flat]
        if not blocked.any():
            return tx_flat
        counts = np.bincount(tx_flat[blocked] // self._n, minlength=self._trials)
        self._suppressed += counts
        self._mark_fault(round_index, counts > 0)
        return tx_flat[~blocked]

    def filter_deliveries(self, round_index, outcome, running):
        if outcome.receiver_flat.size == 0 or not self._down.any():
            return outcome
        keep = ~self._down.reshape(-1)[outcome.receiver_flat]
        return self._drop_deliveries(round_index, outcome, keep)

    def _select_rows(self, keep: np.ndarray) -> None:
        self._down = np.ascontiguousarray(self._down[keep])

    def doomed_trials(self, round_index: int) -> Optional[np.ndarray]:
        if round_index < self._last_recovery_round or not self._down.any():
            return None
        return self._down.all(axis=1)


class JamEnvironment(Environment):
    """Adversarial jamming of the ``k`` loudest (or fixed target) channels.

    Each round inside the ``[start, stop)`` window the adversary destroys
    every delivery to the ``k`` nodes hearing the most transmissions this
    round (ties broken toward the lowest node id), or to a fixed
    ``targets`` set.  Jamming is rng-free: the adversary reacts to the
    realised channel activity.  The jam budget must fit the network
    (``k <= n``, checked when the environment binds to a batch).
    """

    name = "jam"

    def __init__(
        self,
        k: Optional[int] = None,
        targets: Optional[Sequence[int]] = None,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        super().__init__()
        if k is not None and targets is not None:
            raise ValueError("jam takes either k (loudest channels) or targets, not both")
        if k is None and targets is None:
            k = 1
        self.k = check_positive_int(k, "jam budget k", minimum=0) if k is not None else None
        self.targets = _check_node_list(targets, "jam targets") if targets is not None else None
        self.start = _check_round(start, "jam window start")
        self.stop = _check_round(stop, "jam window stop") if stop is not None else None
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(
                f"jam window stop must be > start, got [{self.start}, {self.stop})"
            )

    @property
    def is_null(self) -> bool:
        if self.targets is not None:
            return not self.targets
        return self.k == 0

    def spec(self) -> Dict[str, object]:
        params: Dict[str, object] = {"start": self.start, "stop": self.stop}
        if self.targets is not None:
            params["targets"] = list(self.targets)
        else:
            params["k"] = self.k
        return {"name": "jam", "params": params}

    def _bind(self) -> None:
        if self.k is not None and self.k > self._n:
            raise ValueError(
                f"jam budget k={self.k} exceeds the number of channels (n={self._n})"
            )
        self._target_mask = None
        if self.targets is not None:
            self._target_mask = np.zeros(self._n, dtype=bool)
            for node in self.targets:
                self._target_mask[check_node_index(node, self._n, "jam target")] = True

    def filter_deliveries(self, round_index, outcome, running):
        if round_index < self.start or (
            self.stop is not None and round_index >= self.stop
        ):
            return outcome
        if outcome.receiver_flat.size == 0:
            return outcome
        if self._target_mask is not None:
            jam_flat = np.tile(self._target_mask, self._trials)
        else:
            counts = outcome.hear_counts  # dense (R, n), pre-erasure
            # Stable argsort of -counts == loudest first, ties toward the
            # lowest node id.
            order = np.argsort(-counts, axis=1, kind="stable")[:, : self.k]
            valid = np.take_along_axis(counts, order, axis=1) > 0
            jam = np.zeros((self._trials, self._n), dtype=bool)
            jam[np.arange(self._trials)[:, None], order] = valid
            jam_flat = jam.reshape(-1)
        keep = ~jam_flat[outcome.receiver_flat]
        return self._drop_deliveries(round_index, outcome, keep)


class WakeupEnvironment(Environment):
    """Wake-up asynchrony: staggered node start rounds.

    Node ``v`` is asleep (radio off, like a crashed node) until its start
    round: either an explicit per-node ``delays`` list, or the
    deterministic ramp ``start[v] = v * max_delay // (n - 1)`` (node 0
    wakes immediately, the last node after ``max_delay`` rounds).
    """

    name = "wakeup"

    def __init__(
        self,
        max_delay: Optional[int] = None,
        delays: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        if (max_delay is None) == (delays is None):
            raise ValueError("wakeup takes exactly one of max_delay / delays")
        self.max_delay = (
            _check_round(max_delay, "wakeup max_delay") if max_delay is not None else None
        )
        self.delays = (
            [_check_round(d, "wakeup delay") for d in delays]
            if delays is not None
            else None
        )

    @property
    def is_null(self) -> bool:
        if self.delays is not None:
            return not any(self.delays)
        return self.max_delay == 0

    def spec(self) -> Dict[str, object]:
        params: Dict[str, object] = {}
        if self.delays is not None:
            params["delays"] = list(self.delays)
        else:
            params["max_delay"] = self.max_delay
        return {"name": "wakeup", "params": params}

    def _bind(self) -> None:
        if self.delays is not None:
            if len(self.delays) != self._n:
                raise ValueError(
                    f"wakeup delays must list one delay per node "
                    f"(n={self._n}), got {len(self.delays)}"
                )
            self._start = np.asarray(self.delays, dtype=np.int64)
        else:
            ramp = np.arange(self._n, dtype=np.int64) * self.max_delay
            self._start = ramp // max(self._n - 1, 1)
        self._horizon = int(self._start.max()) if self._n else 0

    def _asleep(self, round_index: int) -> Optional[np.ndarray]:
        if round_index >= self._horizon:
            return None
        return self._start > round_index

    def gate_transmit_flat(self, round_index, tx_flat, running):
        asleep = self._asleep(round_index)
        if asleep is None or tx_flat.size == 0:
            return tx_flat
        blocked = asleep[tx_flat % self._n]
        if not blocked.any():
            return tx_flat
        counts = np.bincount(tx_flat[blocked] // self._n, minlength=self._trials)
        self._suppressed += counts
        self._mark_fault(round_index, counts > 0)
        return tx_flat[~blocked]

    def filter_deliveries(self, round_index, outcome, running):
        asleep = self._asleep(round_index)
        if asleep is None or outcome.receiver_flat.size == 0:
            return outcome
        keep = ~asleep[outcome.receiver_flat % self._n]
        return self._drop_deliveries(round_index, outcome, keep)


class ComposedEnvironment(Environment):
    """Ordered composition: each hook chains through the layers in order.

    Transmit gates AND together; stochastic layers draw in layer order on
    both the transmit and the delivery side.  Reported counters are summed
    over the layers and ``last_fault_round`` is the max.
    """

    name = "compose"

    def __init__(self, layers: Sequence[Environment]) -> None:
        super().__init__()
        self.layers = list(layers)

    @property
    def is_null(self) -> bool:
        return all(layer.is_null for layer in self.layers)

    def spec(self) -> Dict[str, object]:
        return {
            "name": "compose",
            "params": {"layers": [layer.spec() for layer in self.layers]},
        }

    def bind(self, batch, rng_source) -> None:
        self._trials = int(batch.trials)
        self._n = int(batch.n)
        for layer in self.layers:
            layer.bind(batch, rng_source)

    def begin_round(self, round_index, running):
        for layer in self.layers:
            layer.begin_round(round_index, running)

    def gate_transmit_flat(self, round_index, tx_flat, running):
        for layer in self.layers:
            tx_flat = layer.gate_transmit_flat(round_index, tx_flat, running)
        return tx_flat

    def perturb_transmissions(self, round_index, tx_flat, running):
        for layer in self.layers:
            tx_flat = layer.perturb_transmissions(round_index, tx_flat, running)
        return tx_flat

    def filter_deliveries(self, round_index, outcome, running):
        for layer in self.layers:
            outcome = layer.filter_deliveries(round_index, outcome, running)
        return outcome

    def doomed_trials(self, round_index: int) -> Optional[np.ndarray]:
        doomed = None
        for layer in self.layers:
            layer_doomed = layer.doomed_trials(round_index)
            if layer_doomed is None:
                continue
            doomed = layer_doomed if doomed is None else doomed | layer_doomed
        return doomed

    def select_rows(self, keep: np.ndarray, rng_source=None) -> None:
        # bind() above never creates the base per-trial fault arrays (each
        # layer owns its own), so this is a full override, not a hook.
        keep = np.asarray(keep, dtype=bool)
        self._trials = int(keep.sum())
        for layer in self.layers:
            layer.select_rows(keep, rng_source)

    def trial_report(self, trial: int) -> Dict[str, object]:
        reports = [layer.trial_report(trial) for layer in self.layers]
        return {
            "spec": self.spec(),
            "fault_events": sum(r["fault_events"] for r in reports),
            "last_fault_round": max(
                [r["last_fault_round"] for r in reports], default=0
            ),
            "lost_transmissions": sum(r["lost_transmissions"] for r in reports),
            "lost_deliveries": sum(r["lost_deliveries"] for r in reports),
            "suppressed_transmissions": sum(
                r["suppressed_transmissions"] for r in reports
            ),
        }


# --------------------------------------------------------------------------- #
# Spec dicts <-> environments
# --------------------------------------------------------------------------- #
#: Environment family -> (class, allowed param names).
ENVIRONMENT_FAMILIES: Dict[str, tuple] = {
    "null": (NullEnvironment, frozenset()),
    "iid_loss": (IidLossEnvironment, frozenset({"tx_loss", "rx_loss"})),
    "burst_loss": (BurstLossEnvironment, frozenset({"p_bad", "p_good"})),
    "churn": (ChurnEnvironment, frozenset({"events"})),
    "jam": (JamEnvironment, frozenset({"k", "targets", "start", "stop"})),
    "wakeup": (WakeupEnvironment, frozenset({"max_delay", "delays"})),
    "compose": (ComposedEnvironment, frozenset({"layers"})),
}


def _split_spec(spec) -> tuple:
    if not isinstance(spec, Mapping):
        raise TypeError(
            f"an environment spec must be a dict with 'name'/'params', "
            f"got {type(spec).__name__}"
        )
    name = spec.get("name")
    if name not in ENVIRONMENT_FAMILIES:
        known = ", ".join(sorted(ENVIRONMENT_FAMILIES))
        raise ValueError(f"unknown environment family {name!r}; known: {known}")
    params = spec.get("params", {}) or {}
    if not isinstance(params, Mapping):
        raise TypeError(
            f"environment params must be a dict, got {type(params).__name__}"
        )
    allowed = ENVIRONMENT_FAMILIES[name][1]
    unknown = set(params) - allowed
    if unknown:
        known = ", ".join(sorted(allowed)) or "(none)"
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for environment "
            f"{name!r}; known: {known}"
        )
    return name, dict(params)


def build_environment(spec) -> Optional[Environment]:
    """Build the environment for ``spec`` (``None``/``{}`` -> None).

    Constructors validate every parameter (probabilities in [0, 1], sorted
    churn schedules, …); anything network-dependent (node ids, jam budget
    vs ``n``, delay-list length) is checked at :meth:`Environment.bind`.
    """
    if not spec:  # None or {} — explicit "no environment"
        return None
    name, params = _split_spec(spec)
    cls = ENVIRONMENT_FAMILIES[name][0]
    if name == "compose":
        layers = params.get("layers", [])
        if not isinstance(layers, (list, tuple)):
            raise TypeError(
                f"compose layers must be a list of specs, got {type(layers).__name__}"
            )
        return cls([build_environment(layer) for layer in layers])
    return cls(**params)


def validate_environment_spec(spec) -> Optional[Dict[str, object]]:
    """Validate ``spec`` and return its normalised (canonical) form.

    The normalised spec carries every parameter explicitly (defaults filled
    in), so two spellings of the same environment produce the same store
    digest.  Returns ``None`` for ``None``/``{}``.
    """
    environment = build_environment(spec)
    return None if environment is None else environment.spec()


# --------------------------------------------------------------------------- #
# CLI option parsing
# --------------------------------------------------------------------------- #
def parse_environment_option(text: Optional[str]) -> Optional[Dict[str, object]]:
    """Parse the CLI's compact ``--env`` string into a normalised spec.

    Comma-separated ``key=value`` entries; the recognised keys:

    ========================== ==============================================
    ``loss=P`` / ``rx_loss=P`` i.i.d. delivery loss with probability ``P``
    ``tx_loss=P``              i.i.d. transmission loss (charged but lost)
    ``burst=PB:PG``            Gilbert–Elliott chain (good->bad ``PB``,
                               bad->good ``PG``)
    ``churn=F@A`` or ``F@A:B`` crash fraction ``F`` at round ``A``
                               (crash-stop), recovering at round ``B``
    ``jam=K``                  jam the ``K`` loudest channels every round
    ``jam_targets=3+7+11``     jam a fixed node set instead
    ``jam_window=A:B``         restrict jamming to rounds ``[A, B)``
    ``wake=D``                 staggered wake-up over ``D`` rounds
    ========================== ==============================================

    Multiple keys compose into one layered environment.
    """
    if text is None or text.strip().lower() in ("", "none", "off"):
        return None
    iid: Dict[str, object] = {}
    jam: Dict[str, object] = {}
    layers: List[Dict[str, object]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"malformed --env entry {part!r}: expected key=value"
            )
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("loss", "rx_loss"):
            iid["rx_loss"] = float(value)
        elif key == "tx_loss":
            iid["tx_loss"] = float(value)
        elif key == "burst":
            p_bad, _, p_good = value.partition(":")
            if not p_good:
                raise ValueError(
                    f"--env burst takes PB:PG (good->bad and bad->good "
                    f"probabilities), got {value!r}"
                )
            layers.append(
                {
                    "name": "burst_loss",
                    "params": {"p_bad": float(p_bad), "p_good": float(p_good)},
                }
            )
        elif key == "churn":
            fraction, _, when = value.partition("@")
            if not when:
                raise ValueError(
                    f"--env churn takes FRACTION@CRASH_ROUND[:RECOVER_ROUND], "
                    f"got {value!r}"
                )
            crash_round, _, recover_round = when.partition(":")
            events: List[Dict[str, object]] = [
                {"round": int(crash_round), "crash_fraction": float(fraction)}
            ]
            if recover_round:
                events.append({"round": int(recover_round), "recover_all": True})
            layers.append({"name": "churn", "params": {"events": events}})
        elif key == "jam":
            jam["k"] = int(value)
        elif key == "jam_targets":
            jam["targets"] = [int(v) for v in value.split("+") if v]
        elif key == "jam_window":
            start, _, stop = value.partition(":")
            jam["start"] = int(start)
            if stop:
                jam["stop"] = int(stop)
        elif key in ("wake", "wakeup"):
            layers.append({"name": "wakeup", "params": {"max_delay": int(value)}})
        else:
            raise ValueError(
                f"unknown --env key {key!r}; known: loss, rx_loss, tx_loss, "
                "burst, churn, jam, jam_targets, jam_window, wake"
            )
    if iid:
        layers.insert(0, {"name": "iid_loss", "params": iid})
    if jam:
        layers.append({"name": "jam", "params": jam})
    if not layers:
        return None
    if len(layers) == 1:
        return validate_environment_spec(layers[0])
    return validate_environment_spec({"name": "compose", "params": {"layers": layers}})
