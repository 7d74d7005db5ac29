"""Scenario execution: compile cells to plans, stream trials into accumulators.

This is the seam where the declarative layer meets the PR 2–4 execution
stack.  Each **jobs** cell compiles — through
:func:`repro.experiments.runner.build_repetition_plan`, the same seed
spawning ``repeat_job`` uses — to an
:class:`~repro.experiments.runner.ExecutionPlan`, and executes through
:meth:`~repro.experiments.runner.ExecutionPlan.execute_streaming`: every
completed trial is reduced into the cell's
:class:`~repro.analysis.streaming.AccumulatorSet` the moment its shard (or
store lookup) delivers it, and the trace is dropped.  **Probe** cells
generate their per-trial samples directly.  Nothing holds more than one
shard of traces at a time, which is what makes 10⁵⁺-trial sweeps
memory-flat in the trial count.

When a result store is attached the running aggregation is *itself*
checkpointed (per cell, under a content digest of cell + seed + execution
context + metric set — the cell's store-key prefix recipe) into the store's
:class:`~repro.store.AggregateStore`.  A resumed sweep reloads the state,
skips every trial already folded in **without re-reading its trace**, and
continues aggregating the rest.  Exact-mode trials are pure functions of
their job spec, so a resumed aggregation is bit-identical to an
uninterrupted one; fast-mode state is only reusable whole (cohort-wide rng),
so partial fast-mode checkpoints are discarded rather than extended.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro import telemetry
from repro.analysis.statistics import SummaryStatistics
from repro.analysis.streaming import AccumulatorSet
from repro.experiments.runner import (
    ExecutionPlan,
    _resolve_store,
    _TopologyTable,
    build_repetition_plan,
)
from repro.graphs.builders import spec_is_deterministic
from repro.scenarios.metrics import extract_sample, resolve_metrics
from repro.scenarios.probes import get_probe
from repro.scenarios.spec import ScenarioSpec, SweepCell, SweepGrid
from repro.store import trial_digest

__all__ = [
    "CellResult",
    "run_cell",
    "run_grid",
    "run_scenario",
    "results_table",
]

#: Floor on the default shard size: below this many trials per shard the
#: per-shard fixed overhead (batch assembly, round-loop startup) dominates
#: tiny-n cells.  ``shards`` overrides per call.
DEFAULT_SHARD_TRIALS = 1024

#: Target stacked-state cells (trials x nodes) per shard.  The default shard
#: size adapts to the cell's node count — small-n cells take many more
#: trials per shard (the round loop's Python overhead is paid per shard, not
#: per trial), large-n cells fewer — subject to the floor above and the
#: trial ceiling below.  The budget is deliberately modest: each shard
#: materialises its trials' networks and stacked CSR, so the shard size is
#: exactly what keeps the streaming path's peak memory flat in R (the
#: aggregation bench pins the sweep-attributable RSS at a fraction of the
#: materialised path's) while still amortising the per-shard fixed costs.
SHARD_CELL_BUDGET = 1 << 16

#: Hard ceiling on the default trials-per-shard, whatever the node count —
#: bounds peak memory and the resume-checkpoint granularity for tiny-n cells.
MAX_SHARD_TRIALS = 4096

#: Checkpoint the running aggregation every this many freshly consumed
#: trials (plus once at the end of every cell).
_CHECKPOINT_EVERY = 64

#: Without a store there is no checkpoint boundary forcing ingest flushes,
#: so buffered samples are folded into the accumulators in chunks of this
#: size (vectorised ``observe_many``) instead of one ``observe`` per trial.
_INGEST_BUFFER_TRIALS = 256

#: Emit a telemetry ``progress`` event every this many consumed trials
#: (served or executed) — the live progress reporter's heartbeat.
_PROGRESS_EVERY = 256


def _shard_trials_for(n: object) -> int:
    """The default trials-per-shard for a cell of ``n``-node graphs.

    When the budget-derived size is clamped (the floor for large ``n``,
    the ceiling for tiny ``n``) a ``scenario.shard_size`` selection event
    records the decision — silent capping would otherwise be invisible
    exactly where it matters (a large-``n`` cell quietly running shards
    far above its stacked-cell budget).
    """
    if not isinstance(n, int) or n < 1:
        return DEFAULT_SHARD_TRIALS
    budget = SHARD_CELL_BUDGET // n
    size = min(MAX_SHARD_TRIALS, max(DEFAULT_SHARD_TRIALS, budget))
    if size != budget and telemetry.enabled():
        telemetry.event(
            "scenario.shard_size",
            n=n,
            chosen=size,
            budget_trials=budget,
            cell_budget=SHARD_CELL_BUDGET,
            reason="floor" if budget < DEFAULT_SHARD_TRIALS else "ceiling",
        )
    return size


@dataclass
class CellResult:
    """One cell's reduced outcome: its accumulators plus execution counters."""

    cell: SweepCell
    accumulators: AccumulatorSet
    counts: Dict[str, int] = field(default_factory=dict)
    aggregation_key: Optional[str] = None

    # ------------------------------------------------------------------ #
    @property
    def coords(self) -> Dict[str, object]:
        return self.cell.coords

    @property
    def trials(self) -> int:
        return self.accumulators.trials

    def summary(self, name: str) -> Optional[SummaryStatistics]:
        return self.accumulators.summary_or_none(name)

    def mean(self, name: str) -> Optional[float]:
        return self.accumulators.mean(name)

    def maximum(self, name: str) -> Optional[float]:
        accumulator = self.accumulators.metrics.get(name)
        if accumulator is None or accumulator.count == 0:
            return None
        return accumulator.maximum

    def minimum(self, name: str) -> Optional[float]:
        accumulator = self.accumulators.metrics.get(name)
        if accumulator is None or accumulator.count == 0:
            return None
        return accumulator.minimum

    def count(self, name: str) -> int:
        accumulator = self.accumulators.metrics.get(name)
        return accumulator.count if accumulator is not None else 0

    @property
    def success_rate(self) -> Optional[float]:
        return self.mean("success")


# --------------------------------------------------------------------------- #
# Aggregation checkpoints
# --------------------------------------------------------------------------- #
def _aggregation_key(
    cell: SweepCell,
    seed: int,
    context: Dict[str, object],
    metrics,
    sketch_capacity: int,
) -> str:
    """The content digest a cell's running aggregation is checkpointed
    under — the same recipe as the per-trial store keys, so the aggregate
    state lives under the cell's key prefix in content-address space.

    ``sketch_capacity`` is part of the digest because it changes the
    reduction's *fidelity*: resuming a 1024-centroid checkpoint into a
    sweep that asked for 65536-centroid quantiles would silently keep the
    coarser (possibly already lossy) sketch.
    """
    return trial_digest(
        {
            "aggregation": {
                "cell": cell.as_dict(),
                "seed": seed,
                "context": dict(context),
                "metrics": sorted(metrics),
                "sketch_capacity": sketch_capacity,
            }
        }
    )


def _mask_to_indices(mask: int) -> List[int]:
    """The positions of ``mask``'s set bits, in increasing order."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _load_checkpoint(
    store, key: str, metric_names, total_trials: int
):
    """A compatible ``(AccumulatorSet, done_mask)`` checkpoint, if any.

    ``done_mask`` has bit ``i`` set for every trial ``i`` folded into the
    accumulators."""
    if store is None:
        return None
    state = store.aggregates.load(key)
    if state is None:
        return None
    if sorted(state.get("metrics", [])) != sorted(metric_names):
        return None
    if int(state.get("trials_total", -1)) != total_trials:
        return None
    mask_hex = state.get("done_mask", "0")
    # Bits past the last trial name no trial; they are dropped.
    done_mask = int(mask_hex or "0", 16) & ((1 << total_trials) - 1)
    accumulators = AccumulatorSet.from_state(state.get("accumulators", {}))
    if accumulators.trials != done_mask.bit_count():
        return None
    return accumulators, done_mask


def _save_checkpoint(
    store,
    key: str,
    *,
    cell: SweepCell,
    seed: int,
    metric_names,
    total_trials: int,
    done_mask: int,
    accumulators: AccumulatorSet,
) -> None:
    store.aggregates.save(
        key,
        {
            "cell": cell.as_dict(),
            "seed": seed,
            "metrics": sorted(metric_names),
            "trials_total": total_trials,
            "done_mask": format(done_mask, "x"),
            "accumulators": accumulators.state_dict(),
        },
    )


# --------------------------------------------------------------------------- #
# Cell execution
# --------------------------------------------------------------------------- #
def run_cell(cell: SweepCell, **options) -> CellResult:
    """Execute one sweep cell, streaming its trials into fresh accumulators.

    ``store`` follows :func:`~repro.experiments.runner.repeat_job`'s
    convention (``None``: process-wide default, ``False``: disabled, or an
    explicit store/path); with a store attached, both the per-trial results
    *and* the running aggregation are checkpointed, and a rerun resumes the
    aggregation without re-reading stored traces.

    With telemetry enabled the cell runs under a ``cell`` span (named by
    the cell label, annotated with the execution counters on exit) and
    emits a ``progress`` event every :data:`_PROGRESS_EVERY` consumed
    trials — see :func:`_run_cell_impl` for the keyword options.
    """
    if not telemetry.enabled():
        return _run_cell_impl(cell, **options)
    with telemetry.span(
        "cell", cell.label(), kind=cell.kind, trials=cell.repetitions
    ) as cell_span:
        result = _run_cell_impl(cell, **options)
        cell_span.annotate(**result.counts)
        return result


def _cell_plan(
    cell: SweepCell,
    *,
    seed: int = 0,
    processes: Optional[int] = None,
    store=None,
    batch_mode: Optional[str] = None,
    shards: Optional[int] = None,
) -> ExecutionPlan:
    """The execution plan of a jobs cell."""
    if shards is None:
        per_shard = _shard_trials_for(cell.graph.params.get("n"))
        if cell.repetitions > per_shard:
            shards = -(-cell.repetitions // per_shard)
    return build_repetition_plan(
        cell.graph,
        cell.protocol,
        repetitions=cell.repetitions,
        seed=cell.seed if cell.seed is not None else seed,
        processes=processes,
        batch_mode=batch_mode,
        store=store,
        shards=shards,
        **cell.job_options,
    )


def _run_cell_impl(
    cell: SweepCell,
    *,
    seed: int = 0,
    metrics=(),
    processes: Optional[int] = None,
    store=None,
    batch_mode: Optional[str] = None,
    shards: Optional[int] = None,
    sketch_capacity: int = 1024,
    _plan: Optional[ExecutionPlan] = None,
) -> CellResult:
    metric_names = tuple(cell.metrics if cell.metrics is not None else metrics)
    if not metric_names:
        raise ValueError(f"cell {cell.label()} has an empty metric set")
    cell_seed = cell.seed if cell.seed is not None else seed
    accumulators = AccumulatorSet(metric_names, sketch_capacity=sketch_capacity)

    if cell.kind == "probe":
        # Probe metric names are the keys of the samples the probe yields —
        # they need no registered trace extractor.
        return _run_probe_cell(
            cell,
            accumulators,
            seed=cell_seed,
            metric_names=metric_names,
            store=_resolve_store(store),
            sketch_capacity=sketch_capacity,
        )
    extractors = resolve_metrics(metric_names)

    # ``run_grid`` passes the plan it built before any cell ran.
    plan = _plan
    if plan is None:
        plan = _cell_plan(
            cell,
            seed=seed,
            processes=processes,
            store=store,
            batch_mode=batch_mode,
            shards=shards,
        )
    context = plan.cache_context()
    key = _aggregation_key(cell, cell_seed, context, metric_names, sketch_capacity)
    # Bit ``i`` is set once trial ``i`` is consumed: updated per trial, so a
    # checkpoint formats it without walking the done set.
    done_mask = 0
    checkpoint = _load_checkpoint(plan.store, key, metric_names, len(plan.jobs))
    if checkpoint is not None:
        restored, restored_mask = checkpoint
        partial = restored.trials < len(plan.jobs)
        if partial and context.get("batch_mode") == "fast":
            # Cohort-wide draws: a partial fast-mode aggregation cannot be
            # extended bit-faithfully, so start the reduction over.
            pass
        else:
            accumulators = restored
            done_mask = restored_mask
    done = _mask_to_indices(done_mask)

    completed = len(done)
    fresh = 0
    # Samples are buffered and folded in chunks (``observe_many`` — bit
    # identical to per-sample ``observe``, see the streaming layer's
    # contract) so the per-trial Python cost of the reduction is one dict
    # append, not a full accumulator update.
    buffered: List[Dict[str, object]] = []
    tel = telemetry.enabled()
    total_trials = len(plan.jobs)
    primary_metric = metric_names[0]

    def flush() -> None:
        if buffered:
            accumulators.observe_many(buffered)
            buffered.clear()

    def emit_progress() -> None:
        # Flush first so the reported running mean/CI reflects every
        # consumed trial (the buffer is an ingest optimisation, not part
        # of the reduction's semantics).
        flush()
        attrs: Dict[str, object] = {
            "completed": completed,
            "total": total_trials,
        }
        store_obj = plan.store
        if store_obj is not None and (store_obj.hits or store_obj.misses):
            attrs["cache_hit_ratio"] = store_obj.hits / (
                store_obj.hits + store_obj.misses
            )
        summary = accumulators.metrics[primary_metric].summary_or_none()
        if summary is not None:
            attrs["metric"] = primary_metric
            attrs["mean"] = summary.mean
            attrs["ci_width"] = summary.ci_high - summary.ci_low
        telemetry.event("progress", **attrs)

    def consume(index: int, trace) -> None:
        nonlocal completed, done_mask, fresh
        buffered.append(extract_sample(extractors, trace, cell))
        done_mask |= 1 << index
        completed += 1
        fresh += 1
        if tel and completed % _PROGRESS_EVERY == 0:
            emit_progress()
        if plan.store is not None:
            if fresh % _CHECKPOINT_EVERY == 0:
                # Flush before checkpointing: the saved done-mask must never
                # claim trials the accumulators have not folded in yet.
                flush()
                _save_checkpoint(
                    plan.store,
                    key,
                    cell=cell,
                    seed=cell_seed,
                    metric_names=metric_names,
                    total_trials=len(plan.jobs),
                    done_mask=done_mask,
                    accumulators=accumulators,
                )
        elif len(buffered) >= _INGEST_BUFFER_TRIALS:
            flush()

    counts = plan.execute_streaming(consume, skip_indices=done)
    flush()
    if plan.store is not None and fresh:
        _save_checkpoint(
            plan.store,
            key,
            cell=cell,
            seed=cell_seed,
            metric_names=metric_names,
            total_trials=len(plan.jobs),
            done_mask=done_mask,
            accumulators=accumulators,
        )
    return CellResult(
        cell=cell, accumulators=accumulators, counts=counts, aggregation_key=key
    )


def _run_probe_cell(
    cell: SweepCell,
    accumulators: AccumulatorSet,
    *,
    seed: int,
    metric_names,
    store,
    sketch_capacity: int,
) -> CellResult:
    """Run a probe cell, streaming each yielded sample into the reduction.

    Probe trials are not individually content-addressed, so the aggregation
    checkpoint is reused only when it covers the *whole* cell (a completed
    earlier run, flagged ``probe_completed``); anything partial recomputes
    from scratch.  A probe may legitimately discard repetitions (e.g.
    disconnected graph samples), so the observed-trial count can be below
    ``cell.repetitions`` in a complete checkpoint.
    """
    key = _aggregation_key(
        cell, seed, {"kind": "probe"}, metric_names, sketch_capacity
    )
    if store is not None:
        state = store.aggregates.load(key)
        if (
            state is not None
            and state.get("probe_completed")
            and sorted(state.get("metrics", [])) == sorted(metric_names)
            and int(state.get("trials_total", -1)) == cell.repetitions
        ):
            counts = {
                "total": cell.repetitions,
                "skipped": cell.repetitions,
                "served": 0,
                "executed": 0,
            }
            return CellResult(
                cell=cell,
                accumulators=AccumulatorSet.from_state(
                    state.get("accumulators", {})
                ),
                counts=counts,
                aggregation_key=key,
            )
    probe = get_probe(cell.probe)
    executed = 0
    for sample in probe(dict(cell.params), seed, cell.repetitions):
        accumulators.observe(sample)
        executed += 1
    if store is not None:
        store.aggregates.save(
            key,
            {
                "cell": cell.as_dict(),
                "seed": seed,
                "metrics": sorted(metric_names),
                "trials_total": cell.repetitions,
                "probe_completed": True,
                "accumulators": accumulators.state_dict(),
            },
        )
    # ``total`` is the *requested* repetition count on both the cold and the
    # cached path; a probe that discards samples shows executed < total.
    counts = {
        "total": cell.repetitions,
        "skipped": 0,
        "served": 0,
        "executed": executed,
    }
    return CellResult(
        cell=cell, accumulators=accumulators, counts=counts, aggregation_key=key
    )


# --------------------------------------------------------------------------- #
# Grid / scenario execution
# --------------------------------------------------------------------------- #
def run_grid(
    grid: SweepGrid,
    *,
    seed: int = 0,
    metrics=(),
    processes: Optional[int] = None,
    store=None,
    batch_mode: Optional[str] = None,
    shards: Optional[int] = None,
    sketch_capacity: int = 1024,
    telemetry_label: Optional[str] = None,
) -> List[CellResult]:
    """Execute every cell of ``grid`` in order (streaming reduction each).

    With telemetry enabled the whole grid runs under one ``sweep`` span
    (named ``telemetry_label`` or the grid's content digest) so per-cell
    and per-shard spans nest under it in the trace.

    Cells on the same random graph spec and cell seed sample the same
    networks.  The plans of the jobs cells on random graph families are
    built before the first cell runs and share one
    :class:`~repro.experiments.runner._TopologyTable`, which builds each
    repeated network once and drops it after its last use; the table is
    emptied when the grid returns or raises.
    """
    cells = list(grid)

    def run_all() -> List[CellResult]:
        plans = {
            index: _cell_plan(
                cell,
                seed=seed,
                processes=processes,
                store=store,
                batch_mode=batch_mode,
                shards=shards,
            )
            for index, cell in enumerate(cells)
            if cell.kind == "jobs" and not spec_is_deterministic(cell.graph)
        }
        topologies = _TopologyTable(plans.values())
        if topologies:
            plans = {
                index: replace(plan, _topologies=topologies)
                for index, plan in plans.items()
            }
        results = []
        try:
            for index, cell in enumerate(cells):
                results.append(
                    run_cell(
                        cell,
                        seed=seed,
                        metrics=metrics,
                        processes=processes,
                        store=store,
                        batch_mode=batch_mode,
                        shards=shards,
                        sketch_capacity=sketch_capacity,
                        # A plan (and a store it opened from a path) lives
                        # only as long as its cell runs.
                        _plan=plans.pop(index, None),
                    )
                )
        finally:
            topologies.clear()
        return results

    if not telemetry.enabled():
        return run_all()
    with telemetry.span(
        "sweep",
        telemetry_label or f"grid:{grid.digest()[:12]}",
        cells=len(cells),
        trials=grid.total_trials,
    ):
        return run_all()


#: The per-metric statistics columns shared by every accumulator table
#: (``repro sweep --grid`` and ``repro report --accumulators``).
METRIC_SUMMARY_COLUMNS = ["metric", "count", "mean", "std", "min", "median", "max"]


def metric_summary_rows(prefix, accumulators: AccumulatorSet, *, sort=False):
    """One row per metric of ``accumulators``: ``prefix`` cells followed by
    the :data:`METRIC_SUMMARY_COLUMNS` statistics (``None``-padded for
    metrics that never observed a value)."""
    names = sorted(accumulators.metrics) if sort else list(accumulators.metrics)
    rows = []
    for name in names:
        summary = accumulators.metrics[name].summary_or_none()
        if summary is None:
            rows.append(list(prefix) + [name, 0] + [None] * 5)
            continue
        rows.append(
            list(prefix)
            + [
                name,
                summary.count,
                summary.mean,
                summary.std,
                summary.minimum,
                summary.median,
                summary.maximum,
            ]
        )
    return rows


def results_table(results) -> tuple:
    """A generic ``(columns, rows)`` summary of cell results — one row per
    (cell, metric) with the accumulator's reduced statistics.  This is what
    ``repro sweep --grid`` prints for ad-hoc grids, which have no
    experiment-specific derived columns."""
    columns = ["cell", "trials"] + METRIC_SUMMARY_COLUMNS
    rows = []
    for result in results:
        rows.extend(
            metric_summary_rows(
                [result.cell.label(), result.trials], result.accumulators
            )
        )
    return columns, rows


def run_scenario(
    spec: ScenarioSpec,
    *,
    processes: Optional[int] = None,
    store=None,
    batch_mode: Optional[str] = None,
    shards: Optional[int] = None,
    sketch_capacity: int = 1024,
) -> List[CellResult]:
    """Execute a scenario: its grid, under its seed and metric set.

    Execution knobs left at ``None`` fall back to the process-wide defaults
    (:func:`~repro.experiments.runner.configure_execution`), exactly like
    ``repeat_job`` — so the CLI's ``--batch-mode`` / ``--env`` /
    cache flags govern scenario sweeps too.
    """
    return run_grid(
        spec.grid,
        seed=spec.seed,
        metrics=spec.metrics,
        processes=processes,
        store=store,
        batch_mode=batch_mode,
        shards=shards,
        sketch_capacity=sketch_capacity,
        telemetry_label=spec.scenario_id,
    )
