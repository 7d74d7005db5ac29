"""Tests for the experiment registry and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import all_experiments, get_experiment, run_experiment


class TestRegistry:
    def test_all_experiments_listed(self):
        ids = [m.EXPERIMENT_ID for m in all_experiments()]
        assert ids == [f"E{i}" for i in range(1, 18)]

    def test_every_module_has_metadata(self):
        for module in all_experiments():
            assert isinstance(module.TITLE, str) and module.TITLE
            assert isinstance(module.CLAIM, str) and module.CLAIM
            assert callable(module.run)

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("e3") is get_experiment("E3")

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment("E99")

    def test_run_experiment_deterministic_table(self):
        # E9 is deterministic and cheap: same seed -> same rows.
        a = run_experiment("E9", scale="quick", seed=0)
        b = run_experiment("E9", scale="quick", seed=0)
        assert a.rows == b.rows
        assert a.experiment_id == "E9"

    def test_invalid_scale_propagates(self):
        with pytest.raises(ValueError):
            run_experiment("E9", scale="huge")


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E9", "--scale", "quick"])
        assert args.command == "run" and args.experiment == "E9"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E14" in out

    def test_run_command_prints_table(self, capsys):
        assert main(["run", "E9"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "alpha" in out

    def test_run_command_writes_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "result.json"
        csv_path = tmp_path / "result.csv"
        code = main(["run", "E9", "--json", str(json_path), "--csv", str(csv_path)])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["experiment_id"] == "E9"
        assert csv_path.read_text().startswith("n,")

    def test_chart_command(self, capsys):
        assert main(["chart", "E9"]) == 0
        out = capsys.readouterr().out
        assert "alpha probabilities" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "E9", "--watermark", "0"], "watermark"),
            (["run", "E9", "--watermark", "1.5"], "watermark"),
            (["run", "E9", "--env", "bogus"], "malformed --env entry"),
            (["run", "E9", "--env", "loss=2"], "rx_loss"),
            (["run", "E99"], "unknown experiment 'E99'"),
            (["sweep", "E99"], "unknown experiment 'E99'"),
            (["chart", "E99"], "unknown experiment 'E99'"),
            (["report", "--experiments", "E99"], "unknown experiment 'E99'"),
            (["sweep", "--grid", "missing.json"], "missing.json"),
        ],
        ids=[
            "watermark-0",
            "watermark-1.5",
            "env-bogus",
            "env-loss-2",
            "run-unknown-id",
            "sweep-unknown-id",
            "chart-unknown-id",
            "report-unknown-id",
            "sweep-missing-grid",
        ],
    )
    def test_bad_execution_values_are_usage_errors(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        # Nothing may be written on the way to the usage error.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert list(tmp_path.iterdir()) == []
        assert "Traceback" not in err


class TestGridCli:
    """``repro sweep --grid`` and ``repro report --accumulators``."""

    def _write_grid(self, tmp_path):
        from repro.experiments.protocols import ProtocolSpec
        from repro.graphs.builders import GraphSpec
        from repro.scenarios import ScenarioSpec, SweepCell, SweepGrid

        spec = ScenarioSpec(
            scenario_id="cli-demo",
            grid=SweepGrid(
                cells=(
                    SweepCell(
                        coords={"n": 32},
                        graph=GraphSpec("gnp", {"n": 32, "p": 0.2}),
                        protocol=ProtocolSpec("algorithm1", {"p": 0.2}),
                        repetitions=3,
                    ),
                )
            ),
            metrics=("success", "total_tx"),
            seed=1,
        )
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec.as_dict()))
        return path

    def test_sweep_grid_runs_and_prints_summary(self, tmp_path, capsys):
        grid = self._write_grid(tmp_path)
        cache = tmp_path / "cache"
        code = main(
            ["sweep", "--grid", str(grid), "--cache-dir", str(cache)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario cli-demo" in out
        assert "total_tx" in out
        assert "3 trials executed" in out

    def test_sweep_grid_warm_rerun_skips_aggregated_trials(self, tmp_path, capsys):
        grid = self._write_grid(tmp_path)
        cache = tmp_path / "cache"
        assert main(["sweep", "--grid", str(grid), "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--grid", str(grid), "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "3 already aggregated" in out

    def test_sweep_without_experiment_or_grid_errors(self):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_report_accumulators(self, tmp_path, capsys):
        grid = self._write_grid(tmp_path)
        cache = tmp_path / "cache"
        assert main(["sweep", "--grid", str(grid), "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        code = main(["report", "--accumulators", "--cache-dir", str(cache)])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregation checkpoint" in out
        assert "total_tx" in out

    def test_report_accumulators_empty_store(self, tmp_path, capsys):
        code = main(
            ["report", "--accumulators", "--cache-dir", str(tmp_path / "empty")]
        )
        assert code == 0
        assert "no aggregation checkpoints" in capsys.readouterr().out

    def test_cache_stats_reports_checkpoints(self, tmp_path, capsys):
        grid = self._write_grid(tmp_path)
        cache = tmp_path / "cache"
        assert main(["sweep", "--grid", str(grid), "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "1 checkpoint(s)" in out
