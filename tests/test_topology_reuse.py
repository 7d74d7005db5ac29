"""Cells of one sweep grid that share a random topology.

Two job cells on the same ``G(n, p)`` spec and cell seed draw the same
per-trial seeds (seed spawning is prefix-stable), so their trials run on the
same sampled networks.  Whatever the grid does with that, each cell's
per-trial traces and its accumulators must be exactly those of the cell run
alone through :func:`run_cell`: in fast mode, in exact mode (one continuous
stream), under process fan-out and on a warm store pass.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.protocols import ProtocolSpec
from repro.graphs.builders import GraphSpec
from repro.scenarios import SweepCell, SweepGrid, run_cell, run_grid
from repro.scenarios import runtime
from repro.store import ResultStore, canonical_dumps

GRAPH = GraphSpec("gnp", {"n": 64, "p": 0.15})
METRICS = ("success", "completion_round", "total_tx", "max_tx_per_node")
#: Served trials are read back from the store: a metric set other than the
#: cold pass's gets another aggregation checkpoint key, so nothing is skipped.
WARM_METRICS = METRICS + ("mean_tx_per_node",)

CELLS = (
    SweepCell(
        coords={"protocol": "algorithm1"},
        graph=GRAPH,
        protocol=ProtocolSpec("algorithm1", {"p": 0.15}),
        repetitions=5,
        job_options={"run_to_quiescence": True},
    ),
    SweepCell(
        coords={"protocol": "decay"},
        graph=GRAPH,
        protocol=ProtocolSpec("decay", {}),
        repetitions=3,
    ),
)

MODES = {
    "fast": {"batch_mode": "fast"},
    "exact": {"batch_mode": "exact"},
    "exact-processes2": {"batch_mode": "exact", "processes": 2},
}


@pytest.fixture
def trace_digests(monkeypatch):
    """Records ``{(cell label, job seed): payload digest}`` for every trial
    a cell reduces."""
    seen = {}
    extract = runtime.extract_sample

    def recording(extractors, trace, cell):
        payload = canonical_dumps(trace.to_payload()).encode()
        key = (cell.label(), trace.metadata["job"]["seed"])
        assert key not in seen, "a trial was reduced twice"
        seen[key] = hashlib.sha256(payload).hexdigest()
        return extract(extractors, trace, cell)

    monkeypatch.setattr(runtime, "extract_sample", recording)
    return seen


def _state(result):
    return canonical_dumps(result.accumulators.state_dict())


def _alone(trace_digests, metrics=METRICS, **options):
    """Each cell run on its own: ``(digests, accumulator states)``."""
    trace_digests.clear()
    states = [
        _state(run_cell(cell, seed=0, metrics=metrics, **options))
        for cell in CELLS
    ]
    digests = dict(trace_digests)
    trace_digests.clear()
    return digests, states


class TestSharedTopologyCells:
    def test_cells_share_their_seeds(self):
        from repro.experiments.runner import build_repetition_plan

        seeds = [
            [job.seed for job in build_repetition_plan(
                cell.graph, cell.protocol, repetitions=cell.repetitions, seed=0
            ).jobs]
            for cell in CELLS
        ]
        assert seeds[1] == seeds[0][: len(seeds[1])]

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_grid_matches_cells_run_alone(self, trace_digests, mode):
        options = dict(MODES[mode], store=False)
        want_digests, want_states = _alone(trace_digests, **options)
        results = run_grid(SweepGrid(CELLS), seed=0, metrics=METRICS, **options)
        assert [_state(r) for r in results] == want_states
        assert trace_digests == want_digests
        assert len(want_digests) == sum(cell.repetitions for cell in CELLS)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_warm_pass_matches_cells_run_alone(self, tmp_path, trace_digests, mode):
        options = MODES[mode]
        want_digests, want_states = _alone(
            trace_digests, metrics=WARM_METRICS, store=False, **options
        )
        store = ResultStore(tmp_path / "store")
        grid = SweepGrid(CELLS)
        run_grid(grid, seed=0, metrics=METRICS, store=store, **options)
        trace_digests.clear()
        hits = store.hits
        results = run_grid(grid, seed=0, metrics=WARM_METRICS, store=store, **options)
        assert store.hits - hits == sum(cell.repetitions for cell in CELLS)
        assert [_state(r) for r in results] == want_states
        assert trace_digests == want_digests


# --------------------------------------------------------------------------- #
# One build per (spec, seed) key per grid; nothing outlives the grid
# --------------------------------------------------------------------------- #
@pytest.fixture
def builds(monkeypatch):
    """Counts the networks the runner samples in this process."""
    from repro.experiments import runner

    counted = {"networks": 0}
    build = runner.build_network

    def counting(spec, *, rng=None):
        counted["networks"] += 1
        return build(spec, rng=rng)

    monkeypatch.setattr(runner, "build_network", counting)
    return counted


@pytest.fixture
def tables(monkeypatch):
    """Every topology table a grid makes, with the keys it still counted
    and the networks it still held when the grid emptied it."""
    made = []

    class Recording(runtime._TopologyTable):
        def __init__(self, plans):
            super().__init__(plans)
            self.at_clear = None
            made.append(self)

        def clear(self):
            self.at_clear = (len(self), len(self._held))
            super().clear()

    monkeypatch.setattr(runtime, "_TopologyTable", Recording)
    return made


#: The two cells share the decay cell's three seeds: 5 + 3 trials, 5 samples.
DISTINCT = 5


class TestGridBuildsEachSampleOnce:
    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_in_process_grid_builds_each_key_once(self, builds, tables, mode):
        run_grid(SweepGrid(CELLS), seed=0, metrics=METRICS, store=False, **MODES[mode])
        assert builds["networks"] == DISTINCT
        (table,) = tables
        assert table.at_clear == (0, 0)
        assert len(table) == 0

    def test_cells_alone_build_every_trial(self, builds):
        for cell in CELLS:
            run_cell(cell, seed=0, metrics=METRICS, store=False, batch_mode="exact")
        assert builds["networks"] == sum(cell.repetitions for cell in CELLS)

    def test_process_fan_out_shares_nothing(self, builds, tables):
        run_grid(
            SweepGrid(CELLS), seed=0, metrics=METRICS, store=False,
            **MODES["exact-processes2"],
        )
        # Workers sample their own networks; the parent builds none and
        # gives every use back.
        assert builds["networks"] == 0
        assert tables[0].at_clear == (0, 0)

    def test_deterministic_and_single_use_keys_make_no_table_entries(self, tables):
        grid = SweepGrid(
            (
                CELLS[0],
                SweepCell(
                    coords={"protocol": "decay", "graph": "grid"},
                    graph=GraphSpec("grid", {"rows": 4, "cols": 4}),
                    protocol=ProtocolSpec("decay", {}),
                    repetitions=3,
                ),
            )
        )
        run_grid(grid, seed=0, metrics=METRICS, store=False)
        assert len(tables[0]) == 0 and tables[0].at_clear == (0, 0)

    def test_table_is_emptied_when_a_cell_raises(self, monkeypatch, tables):
        extract = runtime.extract_sample

        def failing(extractors, trace, cell):
            if cell is CELLS[0]:
                raise RuntimeError("metric failed")
            return extract(extractors, trace, cell)

        monkeypatch.setattr(runtime, "extract_sample", failing)
        with pytest.raises(RuntimeError, match="metric failed"):
            run_grid(
                SweepGrid(CELLS), seed=0, metrics=METRICS, store=False,
                batch_mode="exact",
            )
        (table,) = tables
        # The first cell died after sampling its networks, so the three the
        # decay cell was to reuse were held.
        assert table.at_clear == (3, 3)
        assert len(table) == 0 and not table._held

    def test_served_and_skipped_trials_give_their_uses_back(
        self, tmp_path, builds, tables
    ):
        store = ResultStore(tmp_path / "store")
        # The decay cell's trials are stored before the grid runs: the grid
        # builds the Algorithm 1 samples only and holds none past its cell.
        run_cell(CELLS[1], seed=0, metrics=METRICS, store=store, batch_mode="exact")
        builds["networks"] = 0
        grid = SweepGrid(CELLS)
        run_grid(grid, seed=0, metrics=WARM_METRICS, store=store, batch_mode="exact")
        assert builds["networks"] == CELLS[0].repetitions
        assert tables[-1].at_clear == (0, 0)
        # A warm pass with the same metrics skips every trial through the
        # aggregation checkpoints and builds nothing.
        run_grid(grid, seed=0, metrics=WARM_METRICS, store=store, batch_mode="exact")
        assert builds["networks"] == CELLS[0].repetitions
        assert tables[-1].at_clear == (0, 0)
