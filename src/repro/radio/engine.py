"""The synchronous round engine.

The engine owns the round loop; the protocol owns the per-node decision rule;
the collision model owns the receive semantics.  One round is:

1. ask the protocol for its transmit mask,
2. resolve collisions (vectorised CSR gather + ``bincount``),
3. feed the outcome back to the protocol,
4. account energy and (optionally) record a per-round trace entry.

The loop stops when the protocol reports completion or the round horizon is
reached.  The horizon exists only as a safety net — every experiment sets it
comfortably above the bound it is trying to measure so a correct protocol
never hits it.

This is the single-run API and the tests' reference: every experiment trial
runs on :class:`~repro.radio.batch.BatchEngine`, bit-identical in exact mode.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro._util.validation import check_positive_int
from repro.radio.collision import CollisionModel, StandardCollisionModel
from repro.radio.energy import EnergyAccountant
from repro.radio.environment import Environment, build_environment
from repro.radio.network import RadioNetwork
from repro.radio.protocol import BroadcastProtocol, GossipProtocol, Protocol
from repro.radio.trace import RoundRecord, RunResultTrace

__all__ = ["SimulationEngine", "run_protocol"]


class SimulationEngine:
    """Runs protocols on radio networks under a collision model.

    Parameters
    ----------
    collision_model:
        Receive semantics; defaults to the paper's
        :class:`~repro.radio.collision.StandardCollisionModel`.
    record_rounds:
        Keep a :class:`~repro.radio.trace.RoundRecord` per round (needed by
        the phase-growth and lower-bound experiments; costs a little memory).
    keep_arrays:
        Keep per-node arrays (transmission counts, informed rounds) on the
        result.
    retire_dead:
        Stop a run the round it goes *dead* — quiescent without completing
        (the transmission schedule ran dry), or environment-doomed (crashed
        forever with no recovery scheduled) — instead of spinning to
        ``max_rounds``.  The outcome of a dead run can never change, so
        this only shortens ``rounds_executed``.  On by default; mirrors
        :class:`~repro.radio.batch.BatchEngine` so exact-mode equivalence
        holds round for round.
    environment:
        Optional faulty-world layer (an
        :class:`~repro.radio.environment.Environment` or a spec dict) that
        perturbs each round around collision resolution: crashed/asleep
        radios are gated before energy accounting, transmitter-side loss is
        applied after it (charged but lost), deliveries are filtered after
        resolution.  A null environment is skipped entirely.
    """

    def __init__(
        self,
        collision_model: Optional[CollisionModel] = None,
        *,
        record_rounds: bool = False,
        keep_arrays: bool = False,
        run_to_quiescence: bool = False,
        retire_dead: bool = True,
        environment=None,
    ):
        self.collision_model = collision_model or StandardCollisionModel()
        self.record_rounds = bool(record_rounds)
        self.keep_arrays = bool(keep_arrays)
        self.run_to_quiescence = bool(run_to_quiescence)
        self.retire_dead = bool(retire_dead)
        if environment is not None and not isinstance(environment, Environment):
            if not isinstance(environment, Mapping):
                raise TypeError(
                    "environment must be an Environment or a spec dict, "
                    f"got {type(environment).__name__}"
                )
            environment = build_environment(environment)
        self.environment = environment

    def run(
        self,
        network: RadioNetwork,
        protocol: Protocol,
        *,
        rng: SeedLike = None,
        max_rounds: Optional[int] = None,
    ) -> RunResultTrace:
        """Run ``protocol`` on ``network`` until completion or ``max_rounds``.

        Returns
        -------
        RunResultTrace
            The run summary.  ``completed`` is False when the horizon was hit
            before the protocol's objective was reached.
        """
        generator = as_generator(rng)
        protocol.bind(network, generator)
        if max_rounds is None:
            max_rounds = protocol.suggested_max_rounds()
        max_rounds = check_positive_int(max_rounds, "max_rounds")

        environment = self.environment
        env_active = environment is not None and not environment.is_null
        if env_active:
            environment.reset(network)

        accountant = EnergyAccountant(network.n)
        rounds: list = []
        completed = protocol.is_complete()
        completion_round = 0
        rounds_executed = 0

        # Same per-class gate as the batch engine: the base ``is_quiescent``
        # just mirrors ``is_complete``, so probing it buys nothing.
        retire_dead = (
            self.retire_dead
            and not self.run_to_quiescence
            and type(protocol).is_quiescent is not Protocol.is_quiescent
        )

        if not (completed and not self.run_to_quiescence):
            for round_index in range(max_rounds):
                mask = np.asarray(protocol.transmit_mask(round_index), dtype=bool)
                if env_active:
                    environment.begin_round(round_index, generator)
                    # Gated radios (crashed/asleep) never key the transmitter,
                    # so gate *before* energy accounting...
                    mask = environment.gate_transmitters(round_index, mask)
                transmitters = accountant.record_round(mask)
                air_mask = mask
                if env_active:
                    # ...while in-flight loss is charged-but-lost: perturb
                    # *after* accounting, and the protocol still believes it
                    # transmitted (``observe`` sees the pre-loss mask).
                    air_mask = environment.perturb_transmissions(
                        round_index, mask, generator
                    )
                outcome = self.collision_model.resolve(network, air_mask, generator)
                if env_active:
                    outcome = environment.filter_deliveries(
                        round_index, outcome, generator
                    )

                informed_before = _informed_count(protocol)
                protocol.observe(round_index, mask, outcome)
                informed_after = _informed_count(protocol)
                rounds_executed = round_index + 1

                if self.record_rounds:
                    rounds.append(
                        RoundRecord(
                            round_index=round_index,
                            transmitters=transmitters,
                            deliveries=int(outcome.receivers.size),
                            newly_informed=(
                                informed_after - informed_before
                                if informed_after is not None and informed_before is not None
                                else int(outcome.receivers.size)
                            ),
                            informed_after=(
                                informed_after if informed_after is not None else -1
                            ),
                        )
                    )

                if protocol.is_complete():
                    if not completed:
                        completed = True
                        completion_round = rounds_executed
                    if not self.run_to_quiescence or protocol.is_quiescent(
                        round_index + 1
                    ):
                        break
                elif (self.run_to_quiescence or retire_dead) and (
                    protocol.is_quiescent(round_index + 1)
                ):
                    # The schedule is exhausted without reaching the objective
                    # (a failed run); nothing more will ever be transmitted.
                    break
                if env_active and self.retire_dead and environment.is_doomed(
                    round_index
                ):
                    # Crashed forever (e.g. churn with every radio down and
                    # no recovery scheduled): the outcome can never change.
                    break
        if not completed:
            completion_round = rounds_executed

        result = RunResultTrace(
            protocol_name=protocol.name,
            network_name=network.name,
            n=network.n,
            completed=completed,
            completion_round=completion_round,
            rounds_executed=rounds_executed,
            energy=accountant.report(),
            informed_count=_informed_count(protocol),
            rounds=rounds,
            metadata=dict(getattr(protocol, "run_metadata", {}) or {}),
        )
        if env_active:
            result.metadata["environment"] = environment.report()
        if self.keep_arrays:
            result.per_node_transmissions = accountant.per_node()
            if isinstance(protocol, BroadcastProtocol):
                result.informed_round = protocol.informed_round.copy()
        return result


def run_protocol(
    network: RadioNetwork,
    protocol: Protocol,
    *,
    rng: SeedLike = None,
    max_rounds: Optional[int] = None,
    collision_model: Optional[CollisionModel] = None,
    record_rounds: bool = False,
    keep_arrays: bool = False,
    run_to_quiescence: bool = False,
    retire_dead: bool = True,
    environment=None,
) -> RunResultTrace:
    """Convenience wrapper: build an engine and run once.

    Examples
    --------
    >>> from repro.graphs import random_digraph
    >>> from repro.core import EnergyEfficientBroadcast
    >>> net = random_digraph(256, 0.05, rng=1)
    >>> result = run_protocol(net, EnergyEfficientBroadcast(source=0), rng=2)
    >>> result.energy.max_per_node <= 1
    True
    """
    engine = SimulationEngine(
        collision_model,
        record_rounds=record_rounds,
        keep_arrays=keep_arrays,
        run_to_quiescence=run_to_quiescence,
        retire_dead=retire_dead,
        environment=environment,
    )
    return engine.run(network, protocol, rng=rng, max_rounds=max_rounds)


def _informed_count(protocol: Protocol) -> Optional[int]:
    """Progress metric: informed nodes (broadcast) or min rumours known (gossip)."""
    if isinstance(protocol, BroadcastProtocol):
        return protocol.informed_count()
    if isinstance(protocol, GossipProtocol):
        return int(protocol.rumours_known().min())
    return None
