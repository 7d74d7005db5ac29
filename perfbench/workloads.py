"""The three benchmark workloads, each a ``load`` / ``setup`` / ``run`` triple.

Every workload calls only the public library API — the same calls the
``repro run`` and ``repro sweep`` commands make — and checks its outputs.
The checks use only the returned tables and accumulators, never store
digests.

* ``suite_quick`` — all experiments at quick scale, exactly the work of
  ``repro run all --scale quick --no-cache``.  The only workload with probe
  cells, so the only one that runs the serial ``SimulationEngine``.
* ``gnp_fresh`` — an exact-mode ``run_grid`` sweep on a cold store over
  Algorithm 1 and Decay on fresh G(n, p) samples at the Theorem 2.1
  threshold p = 4 ln n / n.  Every trial samples its own graph, so topology
  sampling and CSR construction dominate.
* ``shared_stream`` — an exact-mode streaming sweep over deterministic
  topologies that are built once per cell, so the batched round loop, the
  store and the streaming aggregation dominate.  A cold pass writes every
  trial to the store; a warm pass with one extra metric then re-reads every
  trial from it.

This module imports only the standard library at import time: each
workload's ``load`` performs its library imports, so the child process can
time them on their own.
"""

from __future__ import annotations

import math

#: Metrics accumulated by the two sweep workloads.
SWEEP_METRICS = ("success", "completion_round", "total_tx", "max_tx_per_node")

#: The extra metric of the warm ``shared_stream`` pass.  A different metric
#: set gives the pass a different aggregation checkpoint key, so it cannot
#: skip trials through a checkpoint and must read each one from the store.
WARM_EXTRA_METRIC = "mean_tx_per_node"


class Checks:
    """Output checks made and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.made = 0
        self.failures = []

    def expect(self, ok: bool, message: str) -> None:
        self.made += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _bits(value):
    """``value`` with every float replaced by its exact hex form, so two
    accumulator states compare equal only when they agree bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


# --------------------------------------------------------------------------- #
# suite_quick
# --------------------------------------------------------------------------- #
class SuiteQuick:
    """Every registered experiment at quick scale, store off, fast mode."""

    name = "suite_quick"

    def load(self) -> None:
        from repro.experiments.registry import all_experiments, run_experiment
        from repro.experiments.runner import configure_execution

        self._run_experiment = run_experiment
        self._configure = configure_execution
        # Registry discovery imports every experiment module.
        self.modules = all_experiments()

    def setup(self, seed: int, workdir) -> None:
        # The execution defaults ``repro run all --no-cache`` installs.
        self._configure(
            batch=True,
            batch_mode="fast",
            state_backend="auto",
            kernel="auto",
            store=None,
            compaction="auto",
            watermark=0.75,
        )
        self.seed = seed
        self.specs = {
            module.EXPERIMENT_ID: module.scenario("quick", seed)
            for module in self.modules
        }
        self.trials = sum(spec.grid.total_trials for spec in self.specs.values())

    def run(self) -> None:
        self.results = [
            self._run_experiment(experiment_id, scale="quick", seed=self.seed)
            for experiment_id in self.specs
        ]

    def check(self, checks: Checks) -> None:
        for result in self.results:
            label = result.experiment_id
            checks.expect(bool(result.rows), f"{label}: empty table")
            checks.expect(_table_is_finite(result), f"{label}: non-finite entry")
            if label == "E1":
                column = result.columns.index("max tx/node (worst run)")
                worst = max(row[column] for row in result.rows)
                checks.expect(
                    worst <= 1, f"E1: a node transmitted {worst} times (Theorem 2.1)"
                )


def _table_is_finite(result) -> bool:
    """Every row is full, holds a number, and no number is infinite.

    ``None`` marks a cell that does not apply (rendered as ``-``).  A mean
    over zero successful runs is undefined, so NaN is allowed only in a row
    whose success column reads 0.
    """
    success = next(
        (i for i, name in enumerate(result.columns) if name.startswith("success")),
        None,
    )
    for row in result.rows:
        if len(row) != len(result.columns):
            return False
        numbers = [
            value
            for value in row
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        if not numbers or any(math.isinf(value) for value in numbers):
            return False
        undefined_ok = success is not None and row[success] == 0
        if not undefined_ok and any(math.isnan(value) for value in numbers):
            return False
    return True


# --------------------------------------------------------------------------- #
# Sweep workloads
# --------------------------------------------------------------------------- #
class _SweepWorkload:
    """Shared plumbing of the two ``run_grid`` workloads: a fresh result
    store per run, exact mode, no process fan-out."""

    def load(self) -> None:
        from repro.experiments.common import threshold_p
        from repro.experiments.protocols import ProtocolSpec
        from repro.graphs.builders import GraphSpec
        from repro.scenarios import SweepCell, SweepGrid, run_grid
        from repro.store import ResultStore

        self.threshold_p = threshold_p
        self.ProtocolSpec = ProtocolSpec
        self.GraphSpec = GraphSpec
        self.SweepCell = SweepCell
        self.SweepGrid = SweepGrid
        self.run_grid = run_grid
        self.ResultStore = ResultStore

    def setup(self, seed: int, workdir) -> None:
        self.seed = seed
        self.grid = self.SweepGrid(tuple(self.cells()))
        self.store = self.ResultStore(workdir / "store")

    def sweep(self, metrics):
        return self.run_grid(
            self.grid,
            seed=self.seed,
            metrics=metrics,
            store=self.store,
            batch_mode="exact",
        )


class GnpFresh(_SweepWorkload):
    """Algorithm 1 and Decay on a fresh G(n, p) sample per trial."""

    name = "gnp_fresh"
    SIZES = (2048, 4096, 8192)
    REPETITIONS = 6

    def cells(self):
        for n in self.SIZES:
            p = self.threshold_p(n)
            graph = self.GraphSpec("gnp", {"n": n, "p": p})
            # Run to quiescence, as E1 does, so the energy count covers
            # every transmission Algorithm 1 schedules.
            yield self.SweepCell(
                coords={"n": n, "protocol": "algorithm1"},
                graph=graph,
                protocol=self.ProtocolSpec("algorithm1", {"p": p}),
                repetitions=self.REPETITIONS,
                job_options={"run_to_quiescence": True},
            )
            yield self.SweepCell(
                coords={"n": n, "protocol": "decay"},
                graph=graph,
                protocol=self.ProtocolSpec("decay", {}),
                repetitions=self.REPETITIONS,
            )

    def setup(self, seed: int, workdir) -> None:
        super().setup(seed, workdir)
        self.trials = self.grid.total_trials

    def run(self) -> None:
        self.results = self.sweep(SWEEP_METRICS)

    def check(self, checks: Checks) -> None:
        for result in self.results:
            label = result.cell.label()
            reps = result.cell.repetitions
            checks.expect(
                result.trials == reps and result.counts.get("executed") == reps,
                f"{label}: {result.trials} trials aggregated, "
                f"{result.counts.get('executed')} executed, expected {reps}",
            )
            if result.cell.protocol.name == "algorithm1":
                worst = result.maximum("max_tx_per_node")
                checks.expect(
                    worst is not None and worst <= 1,
                    f"{label}: a node transmitted {worst} times (Theorem 2.1)",
                )


class SharedStream(_SweepWorkload):
    """Deterministic topologies built once; cold pass, then warm re-read."""

    name = "shared_stream"

    def cells(self):
        # Decay on a 32x32 grid: ~1200 rounds per trial, round-loop bound.
        yield self.SweepCell(
            coords={"cell": "grid32_decay"},
            graph=self.GraphSpec("grid", {"rows": 32, "cols": 32}),
            protocol=self.ProtocolSpec("decay", {}),
            repetitions=128,
        )
        # Flooding through 32-node cliques: bound by collision gathers.
        yield self.SweepCell(
            coords={"cell": "cliques16x32_flood"},
            graph=self.GraphSpec(
                "path_of_cliques", {"num_cliques": 16, "clique_size": 32}
            ),
            protocol=self.ProtocolSpec("deterministic_flood", {}),
            repetitions=256,
        )
        # 10^4 short trials: per-trial overhead and one store put each.
        yield self.SweepCell(
            coords={"cell": "cliques4x6_decay"},
            graph=self.GraphSpec(
                "path_of_cliques", {"num_cliques": 4, "clique_size": 6}
            ),
            protocol=self.ProtocolSpec("decay", {}),
            repetitions=10_000,
        )

    def setup(self, seed: int, workdir) -> None:
        super().setup(seed, workdir)
        # Both passes deliver every trial to the aggregation.
        self.trials = 2 * self.grid.total_trials

    def run(self) -> None:
        self.cold = self.sweep(SWEEP_METRICS)
        self.warm = self.sweep(SWEEP_METRICS + (WARM_EXTRA_METRIC,))

    def check(self, checks: Checks) -> None:
        for cold, warm in zip(self.cold, self.warm):
            label = cold.cell.label()
            reps = cold.cell.repetitions
            checks.expect(
                cold.trials == reps and cold.counts.get("executed") == reps,
                f"{label}: cold pass aggregated {cold.trials}, "
                f"executed {cold.counts.get('executed')}, expected {reps}",
            )
            checks.expect(
                warm.counts.get("served") == reps
                and warm.counts.get("executed") == 0,
                f"{label}: warm pass served {warm.counts.get('served')} and "
                f"executed {warm.counts.get('executed')} of {reps}",
            )
            same = all(
                _bits(warm.accumulators[name].state_dict())
                == _bits(cold.accumulators[name].state_dict())
                for name in SWEEP_METRICS
            )
            checks.expect(same, f"{label}: warm accumulators differ from cold")


WORKLOADS = {
    workload.name: workload for workload in (SuiteQuick, GnpFresh, SharedStream)
}
