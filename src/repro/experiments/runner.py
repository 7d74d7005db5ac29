"""Unified job execution: one pipeline composing batching and process fan-out.

A :class:`Job` is a fully declarative description of one protocol run
(topology spec + protocol spec + seed + engine options).  The per-job seed
fully determines both the topology sample and the protocol's randomness, so
results are independent of scheduling.  :func:`execute_job` runs one job as
a one-trial exact-mode :class:`~repro.radio.batch.BatchEngine` call, which
gives the same trace as the job run inside an exact-mode sweep.

Repetition sweeps (the workload behind every experiment E1–E17) go through an
:class:`ExecutionPlan`, which composes two execution axes:

* **batching** — every protocol in ``PROTOCOL_FACTORIES`` runs ``R``
  repetitions together through the
  :class:`~repro.radio.batch.BatchEngine` on stacked ``(R, n)`` state;
* **process fan-out** — ``processes=K`` shards the ``R`` per-trial seeds into
  ``K`` contiguous chunks, each worker running its chunk as its own
  :class:`~repro.radio.batch.NetworkBatch` (batching *within* each worker).

Per-trial seeds are spawned identically on every path, so the sampled
topologies — and, in ``batch_mode="exact"``, the full traces bit for bit —
are independent of how the sweep was scheduled.

Sweeps are **resumable**: when a :class:`~repro.store.ResultStore` is
attached (per call, or process-wide via :func:`configure_execution`, or the
CLI's ``--resume`` / ``--cache-dir`` flags), every per-trial result is
checkpointed under a canonical content digest as its shard completes, and
:func:`repeat_job` consults the store first — only the missing trials are
enqueued.  In ``batch_mode="exact"`` a resumed sweep is
bit-identical to an uninterrupted one, because each trial's bits are a pure
function of its job spec and seed.  Work is dispatched through the
:class:`~repro.jobs.JobQueue` abstraction (in-process or a process pool with
retry-on-worker-death), so later backends can slot in without touching the
planner.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro._util.rng import spawn_generators
from repro.analysis.statistics import summarize
from repro.experiments.protocols import (
    PROTOCOL_FACTORIES,
    ProtocolSpec,
    build_protocol,
)
from repro.graphs.builders import GraphSpec, build_network, spec_is_deterministic
from repro.jobs import JobQueue
from repro.radio.batch import BatchEngine, NetworkBatch, PendingTrial
from repro.radio.network import RadioNetwork
from repro.radio.collision import (
    BatchCollisionModel,
    BatchErasureCollisionModel,
    BatchStandardCollisionModel,
    BatchWithCollisionDetectionModel,
)
from repro.radio.environment import build_environment, validate_environment_spec
from repro.radio.trace import RunResultTrace
from repro.store import SEED_SLOT, ResultStore, canonicalize, seeded_digests

__all__ = [
    "Job",
    "ExecutionPlan",
    "build_repetition_plan",
    "configure_execution",
    "execute_job",
    "aggregate_runs",
    "repeat_job",
    "job_store_key",
]

_COLLISION_MODELS = {
    "standard": BatchStandardCollisionModel,
    "collision_detection": BatchWithCollisionDetectionModel,
}


@dataclass(frozen=True)
class Job:
    """One fully specified protocol run."""

    graph: GraphSpec
    protocol: ProtocolSpec
    seed: int
    run_to_quiescence: bool = False
    record_rounds: bool = False
    keep_arrays: bool = False
    max_rounds: Optional[int] = None
    collision_model: str = "standard"
    erasure_probability: float = 0.0
    environment: Optional[Dict[str, object]] = None
    label: str = ""

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "graph": self.graph.as_dict(),
            "protocol": self.protocol.as_dict(),
            "seed": self.seed,
            "run_to_quiescence": self.run_to_quiescence,
            "record_rounds": self.record_rounds,
            "keep_arrays": self.keep_arrays,
            "max_rounds": self.max_rounds,
            "collision_model": self.collision_model,
            "erasure_probability": self.erasure_probability,
            "label": self.label,
        }
        # Only faulty-world jobs carry the key, so every digest computed
        # before the environment axis existed stays valid.
        if self.environment is not None:
            out["environment"] = dict(self.environment)
        return out


def execute_job(job: Job) -> RunResultTrace:
    """Build the network and protocol from the job's specs and run once.

    Two independent generator streams are spawned from the job seed: one for
    the topology sample, one for the protocol/engine randomness — so e.g.
    comparing two protocols with the same seed uses the *same* sampled
    network.  The run is one exact-mode trial of the batch engine.
    """
    network, protocol_rng = next(_trial_inputs([job], None))
    result = _batch_engine_for(job).run(
        [network],
        build_protocol(job.protocol),
        rngs=[protocol_rng],
        max_rounds=job.max_rounds,
    )[0]
    return _decorate(job, result)


def _worker_count(processes: Optional[int], task_count: int) -> int:
    """Resolve a ``processes`` argument into an actual worker count."""
    if processes is None:
        return 1
    workers = processes if processes > 0 else (os.cpu_count() or 1)
    return max(1, min(workers, task_count))


# --------------------------------------------------------------------------- #
# Result-store plumbing
# --------------------------------------------------------------------------- #
#: Per-completion callback used to checkpoint results: ``sink(index, trace)``.
_ResultSink = Callable[[int, RunResultTrace], None]


def _key_template(job: Job, context: Dict[str, object]) -> Dict[str, object]:
    """The store-key body of every job sharing ``job``'s specs and options:
    :func:`job_store_key`'s payload with the seed left as a slot."""
    payload = job.as_dict()
    payload.pop("label", None)
    payload["seed"] = SEED_SLOT
    return {"job": payload, "context": dict(context)}


def job_store_key(job: Job, context: Dict[str, object]) -> str:
    """The content digest a job's result is stored under.

    ``context`` carries the execution facts that affect the result bits on
    top of the job spec itself — the randomness policy (``batch_mode``) and,
    in fast mode, the cohort entropy (see :meth:`ExecutionPlan.cache_context`).  The job's ``label`` is
    display metadata and deliberately excluded, so relabelled sweeps still
    dedup.
    """
    return seeded_digests(_key_template(job, context), (job.seed,))[0]


def _trace_store_payload(trace: RunResultTrace) -> dict:
    """What the store records for a trial: the full-fidelity payload minus
    the requesting job's display metadata (re-attached on rehydration)."""
    payload = trace.to_payload()
    metadata = dict(payload.get("metadata", {}))
    metadata.pop("job", None)
    metadata.pop("label", None)
    payload["metadata"] = metadata
    return canonicalize(payload)


def _rehydrate_trace(payload: dict, job: Job) -> RunResultTrace:
    """Rebuild a cached trial and re-attach the requesting job's metadata."""
    trace = RunResultTrace.from_payload(payload)
    trace.metadata["job"] = job.as_dict()
    if job.label:
        trace.metadata["label"] = job.label
    return trace


def _resolve_store(store) -> Optional[ResultStore]:
    """Resolve a ``store`` argument: ``None`` means the process-wide default
    (:func:`configure_execution`), ``False`` disables caching explicitly, a
    path opens a :class:`~repro.store.ResultStore` there."""
    if store is None:
        return _EXECUTION_DEFAULTS.store
    if store is False:
        return None
    if isinstance(store, (str, Path)):
        return ResultStore(store)
    return store


@dataclass(frozen=True)
class _ExecutionDefaults:
    """Process-wide defaults for the batch axis of :class:`ExecutionPlan`."""

    batch_mode: str = "fast"
    store: Optional[ResultStore] = None
    environment: Optional[Dict[str, object]] = None


_EXECUTION_DEFAULTS = _ExecutionDefaults()

#: Sentinel distinguishing "leave unchanged" from "set to None (disable)".
_UNSET = object()

#: Occupancy fraction of ``capacity`` below which a continuous sweep
#: compacts its live batch and refills it (see :class:`ExecutionPlan`).
_REFILL_WATERMARK = 0.75


def configure_execution(
    *,
    batch: Optional[bool] = None,
    batch_mode: Optional[str] = None,
    state_backend: Optional[str] = None,
    kernel: Optional[str] = None,
    store=_UNSET,
    environment=_UNSET,
    compaction: Optional[str] = None,
    watermark: Optional[float] = None,
) -> None:
    """Set process-wide execution defaults (the CLI's ``--batch-mode`` /
    ``--env`` / cache flags land here).

    ``repeat_job`` / :class:`ExecutionPlan` use these whenever the caller
    does not pass ``batch_mode`` explicitly, so the whole experiment suite
    can be switched to exact mode without threading flags through every
    experiment module.

    ``store`` installs the process-wide content-addressed result store the
    sweeps consult (a :class:`~repro.store.ResultStore`, a cache-dir path,
    or ``None`` to disable caching); omit the argument to leave the current
    store unchanged.

    ``environment`` installs a process-wide faulty-world environment spec
    (the CLI's ``--env`` flag lands here): every job built without its own
    ``environment`` job option then runs under it.  Pass ``None`` to
    disable; omit the argument to leave the current default unchanged.

    The remaining keywords name choices the code makes itself and accept
    only their automatic value: ``batch=True`` (every sweep runs on the
    batch engine), ``compaction="auto"`` (when rows move follows from the
    batch mode), ``watermark=0.75`` (continuous sweeps refill at a fixed
    occupancy), ``state_backend="auto"`` (node-set state has one dense
    representation) and ``kernel="auto"`` (there is one collision rule).
    """
    global _EXECUTION_DEFAULTS
    updates: Dict[str, object] = {}
    for name, value, accepted, reason in (
        ("batch", batch, True, "every sweep runs on the batch engine"),
        ("compaction", compaction, "auto", "it follows from the batch mode"),
        ("watermark", watermark, _REFILL_WATERMARK, "the refill point is fixed"),
        ("state_backend", state_backend, "auto", "node-set state is dense"),
        ("kernel", kernel, "auto", "there is one collision rule"),
    ):
        if value not in (None, accepted):
            raise ValueError(
                f"{name} is not configurable ({reason}); only "
                f"{name}={accepted!r} is accepted, got {value!r}"
            )
    if batch_mode is not None:
        updates["batch_mode"] = batch_mode
    if store is not _UNSET:
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        updates["store"] = store
    if environment is not _UNSET:
        updates["environment"] = validate_environment_spec(environment)
    _EXECUTION_DEFAULTS = replace(_EXECUTION_DEFAULTS, **updates)


@dataclass(frozen=True)
class _BatchShard:
    """One worker's contiguous slice of a batched repetition sweep."""

    jobs: Tuple[Job, ...]
    mode: str
    fast_seed: Optional[np.random.SeedSequence]
    #: Plan-level topology cache: for deterministic graph families every
    #: job's sample is the same network, so the plan builds it once and every
    #: shard (and every trial within a shard) shares the object instead of
    #: rebuilding it per job.  ``None`` for random families, whose per-trial
    #: samples are (deliberately) distinct.
    shared_network: Optional[RadioNetwork] = None
    #: Stacked-CSR reuse on top of the topology cache: in-process plans also
    #: share the *tiled* :class:`NetworkBatch` across equally-sized shards,
    #: so a 64-shard resumable sweep builds the block-diagonal CSR once
    #: instead of 64 times.  ``None`` when fan-out would have to pickle the
    #: stacked arrays to worker processes (rebuilding there is cheaper).
    shared_batch: Optional[NetworkBatch] = None
    #: Telemetry/diagnostic name (``shard[k]:<cell digest prefix>``) set by
    #: the plan; doubles as the queue task label and the shard span name.
    label: str = ""


def _execute_batch_shard(
    shard: _BatchShard, result_sink: Optional[_ResultSink] = None
) -> List[RunResultTrace]:
    """Run one shard's jobs as a single :class:`NetworkBatch` through the
    batch engine.  Runs in the parent (single shard) or a worker process
    (sharded fan-out); everything it needs is picklable.

    ``result_sink`` streams each trial's trace (with its job metadata
    attached) out as results are assembled; the return value is then empty
    and the shard never materialises its full trace list.
    """
    if not telemetry.enabled():
        return _execute_batch_shard_impl(shard, result_sink)
    with telemetry.span(
        "shard",
        shard.label or "shard",
        trials=len(shard.jobs),
        mode=shard.mode,
    ):
        return _execute_batch_shard_impl(shard, result_sink)


def _execute_batch_shard_traced(shard: _BatchShard):
    """Process-fan-out wrapper: run the shard under a telemetry capture and
    return ``(results, telemetry_payload)``.

    Workers cannot reach the parent's sink, so their spans/events/counters
    buffer in-process and ride home on the existing per-completion result
    channel; the parent's ``on_result`` callback ingests the payload tagged
    with the shard's cell-digest label (see :meth:`ExecutionPlan._run`).
    Only dispatched when the parent had telemetry enabled.
    """
    with telemetry.capture(shard.label or "shard") as captured:
        results = _execute_batch_shard(shard)
    return results, captured.payload()


def _trial_inputs(
    jobs: Sequence[Job], shared_network: Optional[RadioNetwork]
) -> Iterator[Tuple[RadioNetwork, np.random.Generator]]:
    """``(network, protocol_rng)`` per job, in job order — the one place a
    batched sweep turns job seeds into engine inputs.

    The graph stream is spawned even when the cached topology makes it
    unused, so the protocol stream stays identical on every path.
    """
    for job in jobs:
        graph_rng, protocol_rng = spawn_generators(job.seed, 2)
        network = (
            shared_network
            if shared_network is not None
            else build_network(job.graph, rng=graph_rng)
        )
        yield network, protocol_rng


def _batch_engine_for(job: Job) -> BatchEngine:
    """The batch engine a sweep of jobs like ``job`` runs on."""
    return BatchEngine(
        _collision_model_for(job),
        record_rounds=job.record_rounds,
        keep_arrays=job.keep_arrays,
        run_to_quiescence=job.run_to_quiescence,
        environment=build_environment(job.environment),
    )


def _decorate(job: Job, result: RunResultTrace) -> RunResultTrace:
    """Attach the job's spec (and label) to its trace's metadata."""
    result.metadata.setdefault("job", job.as_dict())
    if job.label:
        result.metadata["label"] = job.label
    return result


def _execute_batch_shard_impl(
    shard: _BatchShard, result_sink: Optional[_ResultSink] = None
) -> List[RunResultTrace]:
    jobs = shard.jobs
    template = jobs[0]
    networks, protocol_rngs = zip(*_trial_inputs(jobs, shard.shared_network))
    engine = _batch_engine_for(template)
    if shard.mode == "exact":
        randomness = {"rngs": protocol_rngs}
    else:
        randomness = {"rng": np.random.default_rng(shard.fast_seed)}

    engine_sink: Optional[_ResultSink] = None
    if result_sink is not None:

        def engine_sink(trial: int, result: RunResultTrace) -> None:
            result_sink(trial, _decorate(jobs[trial], result))

    results = engine.run(
        shard.shared_batch if shard.shared_batch is not None else networks,
        build_protocol(template.protocol),
        max_rounds=template.max_rounds,
        result_sink=engine_sink,
        **randomness,
    )
    return [_decorate(job, result) for job, result in zip(jobs, results)]


def _collision_model_for(job: Job) -> BatchCollisionModel:
    if job.erasure_probability > 0.0:
        return BatchErasureCollisionModel(job.erasure_probability)
    try:
        return _COLLISION_MODELS[job.collision_model]()
    except KeyError:
        known = ", ".join(sorted(_COLLISION_MODELS))
        raise ValueError(
            f"unknown collision model {job.collision_model!r}; known: {known}"
        )


#: The :class:`Job` fields every job of a plan shares: all but seed and label.
_SWEEP_FIELDS = tuple(
    field.name for field in fields(Job) if field.name not in ("seed", "label")
)
_sweep_signature = operator.attrgetter(*_SWEEP_FIELDS)


@dataclass(frozen=True)
class ExecutionPlan:
    """How a homogeneous repetition sweep is executed.

    Every sweep runs on the :class:`~repro.radio.batch.BatchEngine`; the
    plan composes batching with process fan-out:

    ============= ======================================================
    ``processes`` execution
    ============= ======================================================
    ``None``      one :class:`~repro.radio.batch.NetworkBatch` of all
                  ``R`` trials, in process (exact mode: one continuous
                  stream, see below)
    ``K``         ``R`` seeds sharded into ``K`` contiguous chunks; each
                  worker runs its chunk as its own batch
    ============= ======================================================

    An unknown protocol or collision model raises ``ValueError`` when the
    plan is constructed.

    ``batch_mode`` selects the randomness policy: ``"fast"`` (one shared
    generator per shard, vectorised draws — statistically identical to
    exact mode) or ``"exact"`` (one child generator per trial —
    bit-identical to :func:`execute_job`, regardless of sharding).

    Deterministic graph families (paths, grids, the lower-bound gadgets …)
    sample to the same network under every seed, so the plan builds that
    topology **once** and hands every shard a shared view instead of
    rebuilding it per job; random families keep their per-trial samples.

    ``store`` attaches a content-addressed result store: cached trials are
    returned without touching the engine, missing trials are executed and
    checkpointed shard by shard as they complete (so an interrupted sweep
    resumes where it died).  In exact mode each trial's bits are a pure
    function of its job spec + seed, making resumption bit-identical to an
    uninterrupted run; in fast mode the rng streams are cohort-wide, so the
    cache is all-or-nothing (a partial hit recomputes the whole sweep rather
    than silently changing the draws).

    ``queue`` overrides the :class:`~repro.jobs.JobQueue` shards are
    dispatched through (default: in-process for one worker, a process pool
    with retry-on-worker-death otherwise), and ``shard_count`` decouples the
    number of shards from the worker count — more shards mean finer resume
    checkpoints and better load balancing at a small per-shard overhead.

    An in-process exact-mode sweep without ``record_rounds`` runs as one
    continuous stream (:meth:`~repro.radio.batch.BatchEngine.run_continuous`):
    completed and dead trials retire the round they stop, the live batch is
    compacted when occupancy drops below ``0.75 * capacity``, and freed
    rows refill with pending trials — so a sweep whose completion rounds
    vary widely stops being billed for its slowest trial's horizon.  Every
    trial is bit-identical to the per-shard path, so this never changes
    store digests.  Every other batched sweep runs each shard as one wave
    (:meth:`~repro.radio.batch.BatchEngine.run`): fast-mode draws come
    from one shared generator per shard, and a shard's rows never move.

    The jobs must be a homogeneous sweep: same specs and engine options,
    differing only in seed/label (what :func:`repeat_job` builds).  The
    sweep runs every job with the first job's protocol and engine options,
    so a mixed plan raises ``ValueError`` when constructed.
    """

    jobs: Tuple[Job, ...]
    processes: Optional[int] = None
    batch_mode: str = "fast"
    fast_seed: Optional[np.random.SeedSequence] = None
    store: Optional[ResultStore] = None
    queue: Optional[JobQueue] = None
    shard_count: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("ExecutionPlan needs at least one job")
        template = self.jobs[0]
        signature = _sweep_signature(template)
        for index, job in enumerate(self.jobs):
            # Tuple comparison tries ``is`` before ``==`` per field, so the
            # shared spec objects of a built repetition plan compare cheaply.
            if _sweep_signature(job) != signature:
                differing = [
                    name
                    for name, ours, theirs in zip(
                        _SWEEP_FIELDS, _sweep_signature(job), signature
                    )
                    if ours != theirs
                ]
                raise ValueError(
                    "an ExecutionPlan's jobs may differ only in seed and "
                    f"label; job {index} differs from job 0 in "
                    f"{', '.join(differing)}"
                )
        if template.protocol.name not in PROTOCOL_FACTORIES:
            known = ", ".join(sorted(PROTOCOL_FACTORIES))
            raise ValueError(
                f"unknown protocol {template.protocol.name!r}; "
                f"known protocols: {known}"
            )
        # Building the model validates its name and erasure probability.
        _collision_model_for(template)
        if self.batch_mode not in ("fast", "exact"):
            raise ValueError(
                f"batch_mode must be 'fast' or 'exact', got {self.batch_mode!r}"
            )
        if self.shard_count is not None and self.shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )

    # ------------------------------------------------------------------ #
    def shared_topology(self) -> Optional[RadioNetwork]:
        """The plan-wide topology cache entry, if the sweep admits one.

        Deterministic graph families ignore their sampling rng, so all jobs
        of the sweep run on the same network: build it once here (the sample
        is seed-independent, so any job's spec works) and let every shard —
        and every trial inside a shard — share the object.
        """
        template = self.jobs[0]
        if not spec_is_deterministic(template.graph):
            return None
        return build_network(template.graph)

    def _fast_seed_or_derived(self) -> np.random.SeedSequence:
        """The fast-mode root seed (derived from the job seeds if unset)."""
        if self.fast_seed is not None:
            return self.fast_seed
        # A plan built without a fast seed still has to be reproducible:
        # derive one from the (deterministic) job seeds.
        return np.random.SeedSequence([job.seed for job in self.jobs])

    def _shard_total(self) -> int:
        """How many batch shards the plan splits into."""
        workers = _worker_count(self.processes, len(self.jobs))
        count = self.shard_count if self.shard_count is not None else workers
        return max(1, min(count, len(self.jobs)))

    def _shard_bounds(self) -> np.ndarray:
        """Job-index boundaries of the plan's contiguous shards."""
        return np.linspace(0, len(self.jobs), self._shard_total() + 1).astype(int)

    def shards(self) -> List[_BatchShard]:
        """The batch shards this plan would execute (one per worker unless
        ``shard_count`` says otherwise)."""
        jobs = self.jobs
        count = self._shard_total()
        bounds = self._shard_bounds()
        shared_network = self.shared_topology()
        if self.batch_mode == "exact":
            fast_seeds: List[Optional[np.random.SeedSequence]] = [None] * count
        else:
            fast_seed = self._fast_seed_or_derived()
            if count == 1:
                # Unsharded fast mode keeps the historical single-generator seed.
                fast_seeds = [fast_seed]
            else:
                # The children ``fast_seed.spawn(count)`` returns on its first
                # call, built without advancing ``fast_seed``: running the
                # plan again must draw the cohorts its store keys name.
                fast_seeds = [
                    np.random.SeedSequence(
                        fast_seed.entropy,
                        spawn_key=(*fast_seed.spawn_key, k),
                        pool_size=fast_seed.pool_size,
                    )
                    for k in range(count)
                ]
        # Stacked-CSR reuse: an in-process shared-topology plan tiles the
        # block-diagonal batch once per distinct shard size and every shard
        # of that size shares the arrays.  Skipped under process fan-out,
        # where the shard would have to pickle the stacked CSR to its worker
        # (rebuilding from the n-node network there is cheaper than the
        # IPC).
        shared_batches: Dict[int, NetworkBatch] = {}
        if (
            shared_network is not None
            and _worker_count(self.processes, len(jobs)) == 1
        ):
            for size in {
                int(bounds[k + 1] - bounds[k])
                for k in range(count)
                if bounds[k] < bounds[k + 1]
            }:
                shared_batches[size] = NetworkBatch.shared(shared_network, size)
        return [
            _BatchShard(
                jobs=jobs[bounds[k] : bounds[k + 1]],
                mode=self.batch_mode,
                fast_seed=fast_seeds[k],
                shared_network=shared_network,
                shared_batch=shared_batches.get(int(bounds[k + 1] - bounds[k])),
            )
            for k in range(count)
            if bounds[k] < bounds[k + 1]
        ]

    # ------------------------------------------------------------------ #
    # Continuous batching
    # ------------------------------------------------------------------ #
    def _run_stream(self, queue: JobQueue, sink: _ResultSink) -> None:
        """Execute the sweep through one engine's
        :meth:`~repro.radio.batch.BatchEngine.run_continuous` loop.

        The pending stream pulls jobs lazily in job order — the in-process
        analogue of shard work-stealing: a row freed by a retired trial is
        refilled with what would have been a later shard's work, so
        occupancy stays near ``capacity`` (the largest shard) for the whole
        sweep instead of draining once per shard.  Traces stream out one
        trial at a time (finer checkpoints than a per-shard sink).
        """
        jobs = self.jobs
        template = jobs[0]
        capacity = int(np.diff(self._shard_bounds()).max())
        engine = _batch_engine_for(template)
        pending = (
            PendingTrial(network, rng=protocol_rng, tag=index)
            for index, (network, protocol_rng) in enumerate(
                _trial_inputs(jobs, self.shared_topology())
            )
        )

        def consume(index: int, trace: RunResultTrace) -> None:
            sink(index, _decorate(jobs[index], trace))

        label = (
            f"continuous:{job_store_key(template, self.cache_context())[:16]}"
        )

        def run_task(_task) -> None:
            engine.run_continuous(
                pending,
                lambda: build_protocol(template.protocol),
                capacity=capacity,
                watermark=_REFILL_WATERMARK,
                max_rounds=template.max_rounds,
                result_sink=consume,
            )

        # The single continuous task still goes through the queue so its
        # dispatch shows up in queue stats/labels like any shard would.
        if telemetry.enabled():
            with telemetry.span(
                "shard",
                label,
                trials=len(jobs),
                mode=self.batch_mode,
                capacity=capacity,
            ):
                queue.run(run_task, [0], collect=False, task_labels=[label])
        else:
            queue.run(run_task, [0], collect=False, task_labels=[label])

    # ------------------------------------------------------------------ #
    # Result-store integration
    # ------------------------------------------------------------------ #
    def cache_context(self) -> Dict[str, object]:
        """The execution facts baked into this sweep's store keys.

        Exact-mode trials are pure functions of their job spec, so their
        context is just the mode.  Fast mode draws from cohort-wide streams —
        one shared generator per shard — so its context additionally pins
        the cohort (fast-seed entropy, shard layout): a fast key can only
        hit when the *whole sweep* is identical, never bit-mixing draws
        across differently shaped runs.
        """
        context: Dict[str, object] = {
            "batch_mode": self.batch_mode,
            # A constant since node-set state stopped having backends; it
            # keeps existing store and aggregation digests valid.
            "state_backend": "auto",
        }
        if self.batch_mode == "fast":
            fast_seed = self._fast_seed_or_derived()
            context["fast_cohort"] = {
                "entropy": fast_seed.entropy,
                "spawn_key": list(fast_seed.spawn_key),
                "shards": self._shard_total(),
            }
        return context

    def job_keys(self) -> List[str]:
        """One store digest per job, in job order: :func:`job_store_key` of
        each job, spliced from one key template (the jobs differ only in
        seed and label)."""
        template = _key_template(self.jobs[0], self.cache_context())
        return seeded_digests(template, [job.seed for job in self.jobs])

    def execute(self) -> List[RunResultTrace]:
        """Run the sweep; returns one trace per job, in job order.

        The collecting form of :meth:`execute_streaming`: the same store
        consultation, checkpointing and counters.
        """
        traces: Dict[int, RunResultTrace] = {}
        self.execute_streaming(traces.__setitem__)
        return [traces[index] for index in range(len(self.jobs))]

    def execute_streaming(
        self,
        consume: _ResultSink,
        *,
        skip_indices: Sequence[int] = (),
    ) -> Dict[str, int]:
        """Run the sweep feeding ``consume(index, trace)`` exactly once per
        job, **without materialising the result list** — the memory-flat
        path behind the streaming aggregation layer.

        Trials already in the attached ``store`` are streamed from it
        (payloads are loaded one at a time and dropped after consumption);
        missing trials execute and are checkpointed + consumed as their
        shard completes.  ``skip_indices`` names jobs the caller has already
        reduced (a resumed aggregation): they are neither executed nor read
        back — their traces are simply not needed any more.

        In exact mode every trial is its own pure function, so any subset
        can be served/skipped independently.  Fast-mode draws are
        cohort-wide: the store can only serve the sweep all-or-nothing, and
        a caller resuming a fast-mode aggregation must pass either a
        complete ``skip_indices`` or none (partial fast-mode state cannot
        be extended bit-faithfully; the scenario runtime discards it).

        Returns counters: ``{"total", "skipped", "served", "executed"}``.
        """
        skip = set(skip_indices)
        counts = {
            "total": len(self.jobs),
            "skipped": len(skip),
            "served": 0,
            "executed": 0,
        }
        candidates = [i for i in range(len(self.jobs)) if i not in skip]
        store = self.store
        context = self.cache_context()
        if context["batch_mode"] == "fast" and skip and candidates:
            # Checked store or no store: running the remaining jobs as a
            # sub-plan would draw from a different cohort layout than the
            # sweep the skipped trials came from.
            raise ValueError(
                "a fast-mode sweep cannot resume from a partial aggregation: "
                "its rng streams are cohort-wide (skip all trials or none)"
            )

        def run_missing(missing: List[int]) -> None:
            if not missing:
                return
            sub = replace(
                self, jobs=tuple(self.jobs[i] for i in missing), store=None
            )

            def sink(sub_index: int, trace: RunResultTrace) -> None:
                index = missing[sub_index]
                if store is not None:
                    store.put(keys[index], _trace_store_payload(trace))
                consume(index, trace)

            sub._run(sink)
            counts["executed"] = len(missing)

        if store is None:
            run_missing(candidates)
            return counts

        keys = self.job_keys()
        if context["batch_mode"] == "fast" and not all(
            keys[i] in store for i in candidates
        ):
            # All-or-nothing: a partial fast-mode hit set cannot be extended
            # bit-faithfully, so everything recomputes (and the counters
            # report misses, not discarded probes).
            store.misses += len(candidates)
            telemetry.counter_inc("store.misses", len(candidates))
            run_missing(candidates)
            return counts
        missing: List[int] = []
        for index in candidates:
            payload = store.get(keys[index])
            if payload is None:
                missing.append(index)
                continue
            consume(index, _rehydrate_trace(payload, self.jobs[index]))
            counts["served"] += 1
        run_missing(missing)
        return counts

    def _run(self, sink: _ResultSink) -> None:
        """Execute every job of the plan (no store consultation), feeding
        each completed trace to ``sink(index, trace)``.

        Nothing is retained: a 10⁵-trial sweep's memory stays bounded by one
        shard, not by R.
        """
        queue = self.queue
        if queue is None:
            workers = _worker_count(self.processes, len(self.jobs))
            queue = JobQueue.for_workers(min(workers, self._shard_total()))
        if (
            queue.in_process
            and self.batch_mode == "exact"
            and not self.jobs[0].record_rounds
        ):
            self._run_stream(queue, sink)
            return

        # One wave per shard.  Name each shard by its first trial's cell
        # digest, so a poisoned shard is identifiable (WorkerPoolError),
        # reproducible straight from the error message, and attributable in
        # the telemetry stream (the label is also the shard span's name and
        # the tag relayed events carry home from workers).
        context = self.cache_context()
        shards = [
            replace(
                shard,
                label=f"shard[{k}]:{job_store_key(shard.jobs[0], context)[:16]}",
            )
            for k, shard in enumerate(self.shards())
        ]
        labels = [shard.label for shard in shards]
        starts = np.concatenate(
            [[0], np.cumsum([len(shard.jobs) for shard in shards])]
        )
        if queue.in_process:
            # Hand the sink through to the engine so traces flow out one
            # trial at a time and not even one shard's trace list is ever
            # materialised.  (Process fan-out keeps the per-shard list — the
            # traces cross the IPC boundary as a batch anyway.)
            def run_streaming(item) -> None:
                index, shard = item
                base = int(starts[index])
                _execute_batch_shard(
                    shard, result_sink=lambda t, trace: sink(base + t, trace)
                )

            queue.run(
                run_streaming,
                list(enumerate(shards)),
                collect=False,
                task_labels=labels,
            )
            return

        # Worker processes buffer their telemetry and ship it back with the
        # shard results (the parent cannot see their pipelines).
        traced = telemetry.enabled()

        def on_shard(shard_index: int, shard_result) -> None:
            if traced:
                shard_result, payload = shard_result
                telemetry.ingest(payload, shard=labels[shard_index])
            base = int(starts[shard_index])
            for offset, trace in enumerate(shard_result):
                sink(base + offset, trace)

        queue.run(
            _execute_batch_shard_traced if traced else _execute_batch_shard,
            shards,
            on_result=on_shard,
            collect=False,
            task_labels=labels,
        )


def build_repetition_plan(
    graph: GraphSpec,
    protocol: ProtocolSpec,
    *,
    repetitions: int,
    seed: int = 0,
    processes: Optional[int] = None,
    batch_mode: Optional[str] = None,
    store=None,
    queue: Optional[JobQueue] = None,
    shards: Optional[int] = None,
    **job_options,
) -> ExecutionPlan:
    """The :class:`ExecutionPlan` behind :func:`repeat_job`, unexecuted.

    This is the single place per-trial seeds are spawned for a repetition
    sweep — :func:`repeat_job` and the scenario compiler
    (:mod:`repro.scenarios`) both build their plans here, so a scenario
    cell's trials are bit-identical (exact mode) to a direct ``repeat_job``
    call with the same parameters, whichever path executes them.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if batch_mode is None:
        batch_mode = _EXECUTION_DEFAULTS.batch_mode
    if "environment" not in job_options:
        if _EXECUTION_DEFAULTS.environment is not None:
            job_options["environment"] = _EXECUTION_DEFAULTS.environment
    else:
        # Normalise to canonical form here so all spellings of the same
        # environment share one store digest.
        job_options["environment"] = validate_environment_spec(
            job_options["environment"]
        )
    base = np.random.SeedSequence(seed)
    # The extra child seeds the fast-mode batch generator; the first
    # ``repetitions`` children are the per-trial seeds.
    children = base.spawn(repetitions + 1)
    seeds = [int(s.generate_state(1)[0]) for s in children[:repetitions]]
    jobs = tuple(
        Job(graph=graph, protocol=protocol, seed=s, **job_options) for s in seeds
    )
    return ExecutionPlan(
        jobs=jobs,
        processes=processes,
        batch_mode=batch_mode,
        fast_seed=children[-1],
        store=_resolve_store(store),
        queue=queue,
        shard_count=shards,
    )


def repeat_job(
    graph: GraphSpec,
    protocol: ProtocolSpec,
    *,
    repetitions: int,
    seed: int = 0,
    processes: Optional[int] = None,
    batch_mode: Optional[str] = None,
    store=None,
    queue: Optional[JobQueue] = None,
    shards: Optional[int] = None,
    **job_options,
) -> List[RunResultTrace]:
    """Run the same (graph, protocol) pair under ``repetitions`` different seeds.

    Builds an :class:`ExecutionPlan` and executes it: all repetitions run
    through the :class:`~repro.radio.batch.BatchEngine` on stacked
    ``(R, n)`` state (one topology sample per trial), sharded across
    ``processes`` workers when fan-out is requested.  Per-trial seeds do not
    depend on the sharding, so the sampled topologies are identical and
    aggregates are statistically interchangeable across every execution
    strategy.

    ``batch_mode`` defaults to the process-wide setting of
    :func:`configure_execution` (out of the box ``"fast"``).

    * ``batch_mode="fast"``: one shared generator per shard with vectorised
      draws — statistically identical to exact mode, not bit-identical.
    * ``batch_mode="exact"``: one child generator per trial — each trace is
      bit-identical to :func:`execute_job` on the same job (the golden
      corpus pins both), regardless of sharding.

    ``store`` selects the content-addressed result store (``None``: the
    process-wide default installed by :func:`configure_execution`,
    ``False``: disabled, or an explicit :class:`~repro.store.ResultStore` /
    cache-dir path).  With a store attached the sweep is *incremental*:
    trials already recorded — from an earlier run, an interrupted run, or a
    smaller ``repetitions`` at the same seed (seed spawning is
    prefix-stable) — are served from the store and only the missing ones
    execute.  ``queue`` / ``shards`` override the dispatch queue and the
    shard granularity (see :class:`ExecutionPlan`).
    """
    plan = build_repetition_plan(
        graph,
        protocol,
        repetitions=repetitions,
        seed=seed,
        processes=processes,
        batch_mode=batch_mode,
        store=store,
        queue=queue,
        shards=shards,
        **job_options,
    )
    return plan.execute()


def aggregate_runs(runs: Sequence[RunResultTrace]) -> Dict[str, object]:
    """Aggregate repeated runs into the quantities the theorems bound.

    Returns a dict with success rate, completion-round statistics
    (successful runs only), and energy statistics (all runs).

    This is the *materialising* reduction: it needs every trace in memory at
    once.  The experiment suite itself now streams per-trial metrics through
    :class:`repro.analysis.streaming.MetricAccumulator` as shards complete
    (see :mod:`repro.scenarios`), which keeps 10⁵⁺-trial sweeps memory-flat;
    this helper remains for callers that already hold a list of traces.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    successes = [r for r in runs if r.completed]
    out: Dict[str, object] = {
        "runs": len(runs),
        "successes": len(successes),
        "success_rate": len(successes) / len(runs),
        "n": runs[0].n,
    }
    if successes:
        out["completion_rounds"] = summarize([r.completion_round for r in successes])
    out["total_transmissions"] = summarize(
        [r.energy.total_transmissions for r in runs]
    )
    out["max_tx_per_node"] = summarize([r.energy.max_per_node for r in runs])
    out["mean_tx_per_node"] = summarize([r.energy.mean_per_node for r in runs])
    return out
