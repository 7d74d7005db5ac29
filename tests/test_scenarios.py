"""The declarative scenario layer: specs, grids, probes, and the ports of
all seventeen experiment modules onto them."""

import json

import pytest

from repro.experiments.protocols import ProtocolSpec
from repro.experiments.registry import all_experiments
from repro.graphs.builders import GraphSpec
from repro.scenarios import (
    ScenarioSpec,
    SweepCell,
    SweepGrid,
    metric_names,
    probe_names,
    register_metric,
    register_probe,
    run_cell,
    run_scenario,
)
from repro.scenarios.runtime import results_table
from repro.store import AggregateStore, ResultStore


def _jobs_cell(n=48, repetitions=3, **kwargs):
    return SweepCell(
        coords={"n": n},
        graph=GraphSpec("gnp", {"n": n, "p": 0.15}),
        protocol=ProtocolSpec("algorithm1", {"p": 0.15}),
        repetitions=repetitions,
        **kwargs,
    )


class TestSweepCell:
    def test_jobs_cell_requires_specs(self):
        with pytest.raises(ValueError, match="graph and a protocol"):
            SweepCell(kind="jobs")

    def test_probe_cell_requires_name(self):
        with pytest.raises(ValueError, match="probe name"):
            SweepCell(kind="probe")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SweepCell(kind="mystery")

    def test_unknown_job_option_rejected(self):
        with pytest.raises(ValueError, match="unknown job options"):
            _jobs_cell(job_options={"turbo": True})

    def test_roundtrip(self):
        cell = _jobs_cell(job_options={"run_to_quiescence": True}, seed=4)
        back = SweepCell.from_dict(json.loads(json.dumps(cell.as_dict())))
        assert back == cell

    def test_probe_roundtrip(self):
        cell = SweepCell(
            coords={"q": 0.1},
            kind="probe",
            probe="e7.relay_transmissions",
            params={"n": 32, "q": 0.1},
            repetitions=2,
            metrics=("success", "relay_tx"),
        )
        back = SweepCell.from_dict(json.loads(json.dumps(cell.as_dict())))
        assert back == cell


class TestSweepGrid:
    def test_from_axes_expands_product_in_order(self):
        grid = SweepGrid.from_axes(
            {"a": [1, 2], "b": ["x", "y"]},
            lambda coords: _jobs_cell().__class__(
                coords=coords,
                graph=GraphSpec("gnp", {"n": 32, "p": 0.2}),
                protocol=ProtocolSpec("decay", {}),
            ),
        )
        assert [cell.coords for cell in grid] == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_from_axes_skips_none(self):
        grid = SweepGrid.from_axes(
            {"a": [1, 2, 3]},
            lambda coords: None if coords["a"] == 2 else _jobs_cell(),
        )
        assert len(grid) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(cells=())

    def test_digest_stable_and_content_sensitive(self):
        grid_a = SweepGrid(cells=(_jobs_cell(),))
        grid_b = SweepGrid.from_dict(json.loads(json.dumps(grid_a.as_dict())))
        assert grid_a.digest() == grid_b.digest()
        grid_c = SweepGrid(cells=(_jobs_cell(repetitions=4),))
        assert grid_a.digest() != grid_c.digest()


class TestScenarioSpec:
    def _spec(self, **overrides):
        base = dict(
            scenario_id="demo",
            grid=SweepGrid(cells=(_jobs_cell(),)),
            metrics=("success", "total_tx"),
            seed=3,
            title="a title",
            claim="a claim",
            parameters={"scale": "quick"},
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_roundtrip_preserves_digest(self):
        spec = self._spec()
        back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert back == spec
        assert back.digest() == spec.digest()

    def test_digest_ignores_display_metadata(self):
        assert self._spec().digest() == self._spec(
            title="renamed", parameters={"scale": "full"}
        ).digest()

    def test_digest_tracks_functional_fields(self):
        spec = self._spec()
        assert spec.digest() != self._spec(seed=4).digest()
        assert spec.digest() != self._spec(metrics=("success",)).digest()


class TestRegistries:
    def test_builtin_metrics_present(self):
        assert {
            "success",
            "completion_round",
            "total_tx",
            "max_tx_per_node",
            "mean_tx_per_node",
            "informed_fraction",
        } <= set(metric_names())

    def test_metric_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_metric("success", lambda trace, cell: 1.0)

    def test_probe_collision_rejected(self):
        name = "test.collision_probe"

        @register_probe(name)
        def probe(params, seed, repetitions):
            yield {}

        with pytest.raises(ValueError, match="already registered"):
            register_probe(name, lambda params, seed, repetitions: iter(()))

    def test_experiment_probes_registered_by_discovery(self):
        all_experiments()  # imports every module (registers its probes)
        assert {
            "e2.phase_growth",
            "e3.eccentricity",
            "e7.relay_transmissions",
            "e8.time_invariant_frontier",
            "e10.linear_budget",
            "e13.geometric_comparison",
            "e14.phone_call_push_broadcast",
            "e16.phone_call_push_gossip",
        } <= set(probe_names())


class TestRegistryAutoDiscovery:
    def test_discovered_id_set_is_pinned(self):
        """Module-scan discovery must find exactly E1..E16, in order."""
        ids = [module.EXPERIMENT_ID for module in all_experiments()]
        assert ids == [f"E{i}" for i in range(1, 18)]

    def test_every_module_exposes_a_scenario(self):
        for module in all_experiments():
            assert callable(getattr(module, "scenario", None)), module.__name__

    def test_every_scenario_spec_serialises_with_stable_digest(self):
        for module in all_experiments():
            spec = module.scenario(scale="quick", seed=0)
            assert spec.scenario_id == module.EXPERIMENT_ID
            back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
            assert back.digest() == spec.digest(), module.__name__
            assert spec.grid.total_trials >= 1


class TestRunScenario:
    def test_probe_cell_streams_samples(self):
        name = "test.counting_probe"

        @register_probe(name)
        def probe(params, seed, repetitions):
            for rep in range(repetitions):
                yield {"value": float(params["base"] + rep + seed)}

        cell = SweepCell(
            kind="probe", probe=name, params={"base": 10}, repetitions=4
        )
        result = run_cell(cell, seed=2, metrics=("value",))
        assert result.trials == 4
        assert result.accumulators["value"].count == 4
        assert result.mean("value") == (12 + 13 + 14 + 15) / 4

    def test_unknown_metric_fails_fast(self):
        with pytest.raises(ValueError, match="unknown metric"):
            run_cell(_jobs_cell(), metrics=("no_such_metric",), store=False)

    def test_empty_metric_set_rejected(self):
        with pytest.raises(ValueError, match="empty metric set"):
            run_cell(_jobs_cell(), metrics=(), store=False)

    def test_results_table_shape(self):
        spec = ScenarioSpec(
            scenario_id="demo",
            grid=SweepGrid(cells=(_jobs_cell(repetitions=2),)),
            metrics=("success", "total_tx"),
            seed=0,
        )
        results = run_scenario(spec, store=False)
        columns, rows = results_table(results)
        assert len(rows) == 2  # one per metric
        assert all(len(row) == len(columns) for row in rows)


class TestAggregationKeyPins:
    """The checkpoint key of a cell's running aggregation is a pure function
    of cell, seed, execution context, metric set and sketch capacity.  A
    moved key orphans every persisted checkpoint: bump ENGINE_VERSION
    instead of accepting a new value here."""

    CELL = SweepCell(
        coords={"n": 24},
        graph=GraphSpec("gnp", {"n": 24, "p": 0.3}),
        protocol=ProtocolSpec("algorithm1", {"p": 0.3}),
        repetitions=3,
    )

    @pytest.mark.parametrize(
        "batch_mode,key",
        [
            (
                "exact",
                "8fb324f1e99314cc49a926ae5aa64845"
                "a4fd20ff4d3a55560b100623069405b9",
            ),
            (
                "fast",
                "158475b38225c704784c20515cb9aa3c"
                "4601a2b8a021bab3bf913a91c564d3fa",
            ),
        ],
    )
    def test_pinned_aggregation_key(self, batch_mode, key):
        result = run_cell(
            self.CELL,
            seed=4,
            metrics=("success", "total_tx"),
            store=False,
            batch_mode=batch_mode,
        )
        assert result.aggregation_key == key


class TestStoreOffsetIndex:
    """Satellite: the shard index holds offsets, not payloads."""

    def test_index_is_payload_free(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, {"big": list(range(50))})
        store.put("ab" + "1" * 62, {"big": list(range(50))})
        index = store._shards["ab"]
        assert all(isinstance(offset, int) for offset in index.values())

    def test_contains_does_not_load_payloads(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, {"x": 1})
        fresh = ResultStore(tmp_path)
        assert key in fresh
        assert fresh.hits == 0 and fresh.misses == 0
        assert fresh.get(key) == {"x": 1}
        assert fresh.hits == 1

    def test_lazy_load_after_reopen(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"ef{i:062d}" for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        fresh = ResultStore(tmp_path)
        assert fresh.get(keys[3]) == {"i": 3}
        assert fresh.get("ef" + "9" * 62) is None

    def test_stale_offset_triggers_rescan(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "aa" + "0" * 62
        store.put(key, {"v": 1})
        # An external writer rewrites the shard (e.g. a prune by another
        # process): the cached offset goes stale and get() must recover.
        path = store._shard_path(key)
        line = path.read_text()
        path.write_text("\n\n" + line)
        assert store.get(key) == {"v": 1}


class TestAggregateStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = AggregateStore(tmp_path / "agg")
        key = "ab" + "0" * 62
        store.save(key, {"trials_total": 3, "done_mask": "7"})
        state = store.load(key)
        assert state["trials_total"] == 3
        assert key in store.keys()

    def test_rejects_non_hex_keys(self, tmp_path):
        store = AggregateStore(tmp_path)
        with pytest.raises(ValueError):
            store.save("../escape", {})

    def test_version_mismatch_reads_as_missing(self, tmp_path):
        store = AggregateStore(tmp_path)
        key = "cd" + "0" * 62
        store.save(key, {"x": 1})
        path = store._path(key)
        state = json.loads(path.read_text())
        state["engine_version"] = "0.0"
        path.write_text(json.dumps(state))
        assert store.load(key) is None

    def test_corrupt_file_reads_as_missing(self, tmp_path):
        store = AggregateStore(tmp_path)
        key = "ef" + "0" * 62
        store.save(key, {"x": 1})
        store._path(key).write_text("{not json")
        assert store.load(key) is None

    def test_clear_and_delete(self, tmp_path):
        store = AggregateStore(tmp_path)
        key = "0a" + "0" * 62
        store.save(key, {})
        assert store.delete(key) is True
        assert store.delete(key) is False
        store.save(key, {})
        assert store.clear() == 1
        assert store.keys() == []

    def test_result_store_clear_drops_checkpoints(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, {"x": 1})
        store.aggregates.save("ab" + "1" * 62, {"y": 2})
        assert store.stats()["aggregate_checkpoints"] == 1
        store.clear()
        assert store.aggregates.keys() == []
