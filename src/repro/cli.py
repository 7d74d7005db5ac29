"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands
-----------

``repro list``
    List the available experiments with their claims.

``repro run E5 [--scale full] [--seed 3] [--processes 4] [--json out.json]``
    Run one experiment (or ``all``) and print its result table; optionally
    write the JSON result file and/or a CSV of the table.

``repro chart E6``
    Run an experiment and render its series as ASCII charts.

``repro sweep E1 [--scale full] [--processes 4]``
    Run an experiment through the sweep service: the content-addressed
    result store is on by default (``.repro_cache`` or ``$REPRO_CACHE_DIR``)
    and the randomness policy defaults to ``exact``, so an interrupted sweep
    resumes bit-identically and a warm re-run executes zero engine rounds.

``repro sweep --grid grid.json``
    Run a serialised scenario/sweep grid (a ``ScenarioSpec.as_dict()`` or
    bare ``SweepGrid.as_dict()`` JSON file) through the streaming
    aggregation pipeline: per-trial results are reduced into running
    accumulators as shards complete — no trace list is ever materialised —
    and the generic per-cell statistics table is printed.

``repro report --accumulators``
    Render the streaming-aggregation checkpoints persisted in the result
    store (running per-cell statistics of current or interrupted sweeps)
    without loading any traces or re-running anything.

``repro cache stats|clear|prune [--cache-dir DIR]``
    Inspect or empty the result store (``prune`` drops records written under
    older engine versions; ``clear`` also drops aggregation checkpoints).

``repro telemetry summarize trace.jsonl [--json]``
    Fold a telemetry trace (written by ``--telemetry PATH`` on any execution
    command) into a per-layer time/throughput report: seconds and trial
    counts per layer (sweep / cell / shard / round-phase / engine), event
    and counter totals, and the span tree.

Execution flags (``run`` / ``chart`` / ``report`` / ``sweep``)
--------------------------------------------------------------

Repetition sweeps run on the batched execution pipeline (all seeds of a
sweep advance together through the vectorised
:class:`~repro.radio.batch.BatchEngine`; ``--processes K`` shards them into
``K`` per-worker batches).  ``--batch-mode exact`` makes batched runs
bit-identical to the serial engine (one rng stream per trial) instead of
the default vectorised ``fast`` mode.  The engine picks the node-set state
backend per workload (:mod:`repro.radio.nodesets`) and runs the compiled
collision kernel when numba is importable, the bit-identical numpy path
otherwise (:mod:`repro.radio.kernels`).  In-process exact-mode sweeps run
as one continuous batch (live-trial retirement, batch compaction and
refill); ``--watermark FRAC`` sets the occupancy below which it refills.
An unknown experiment id, a missing ``--grid`` file or a bad
``--watermark`` / ``--env`` value is a usage error.

Caching flags: ``--resume`` turns the result store on for ``run`` / ``chart``
/ ``report`` (they default to uncached), ``--cache-dir DIR`` picks the store
location (and implies ``--resume``), ``--no-cache`` forces caching off
(including for ``sweep``).

Observability flags: ``--telemetry PATH`` records a structured JSONL trace
(hierarchical spans + metrics, :mod:`repro.telemetry`) of the whole
invocation; ``--progress`` / ``--no-progress`` force the live sweep progress
reporter on or off (default: on exactly when a telemetry trace is being
recorded and stderr is not a pipe).  Telemetry never changes any result bit
or store digest.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.figures import ascii_chart
from repro.experiments.registry import (
    all_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.runner import configure_execution
from repro.radio.environment import parse_environment_option
from repro.store import ResultStore

__all__ = ["main", "build_parser"]

#: Default result-store location when caching is enabled without an explicit
#: ``--cache-dir`` (overridable via the ``REPRO_CACHE_DIR`` environment
#: variable).  The directory is .gitignore'd.
DEFAULT_CACHE_DIR = ".repro_cache"


def _add_execution_flags(
    parser: argparse.ArgumentParser, *, batch_mode_default: str = "fast"
) -> None:
    """Flags controlling the batched execution pipeline (shared by
    run/chart/report/sweep)."""
    parser.add_argument(
        "--batch-mode",
        choices=["fast", "exact"],
        default=batch_mode_default,
        help="randomness policy of the batched pipeline: 'fast' (vectorised, "
        "statistically identical to the serial engine) or 'exact' "
        "(bit-identical to it) "
        f"[default: {batch_mode_default}]",
    )
    parser.add_argument(
        "--watermark",
        type=float,
        default=0.75,
        metavar="FRAC",
        help="occupancy fraction below which the continuous batch of an "
        "in-process exact-mode sweep compacts and refills, in (0, 1] "
        "[default: 0.75]",
    )
    parser.add_argument(
        "--env",
        metavar="SPEC",
        default=None,
        help="faulty-world environment applied to every run: comma-separated "
        "key=value entries — loss=P (delivery loss), tx_loss=P (charged "
        "transmitter-side loss), burst=PB:PG (Gilbert-Elliott), "
        "churn=F@A[:B] (crash fraction F at round A, recover at B), "
        "jam=K / jam_targets=3+7 / jam_window=A:B, wake=D (staggered "
        "start); e.g. --env loss=0.1,churn=0.2@5:40 "
        "[default: perfectly reliable radio]",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="location of the content-addressed result store (enables "
        "caching; default when enabled: $REPRO_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="consult the result store before executing and checkpoint "
        "fresh trials into it (on by default for 'sweep')",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result store entirely (overrides --resume / "
        "--cache-dir and the 'sweep' default)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        type=Path,
        default=None,
        help="record a structured JSONL telemetry trace (hierarchical "
        "spans sweep>cell>shard>round-phase + metrics registry) of this "
        "invocation to PATH; fold it with 'repro telemetry summarize'",
    )
    parser.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="show live sweep progress (completed/total trials, cache-hit "
        "ratio, running metric mean, ETA) on stderr [default: on when "
        "--telemetry is given and stderr is a terminal]",
    )
    parser.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="suppress the live progress reporter",
    )


def _default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR)


def _store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    """Resolve the caching flags into a result store (or None = uncached).

    ``run`` / ``chart`` / ``report`` cache only when asked (``--resume`` /
    ``--cache-dir``); ``sweep`` caches by default; ``--no-cache`` wins over
    everything.
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    wants_cache = (
        cache_dir is not None
        or getattr(args, "resume", False)
        or args.command == "sweep"
    )
    if not wants_cache:
        return None
    return ResultStore(cache_dir if cache_dir is not None else _default_cache_dir())


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Energy efficient randomised communication "
            "in unknown AdHoc networks' (Berenbrink, Cooper, Hu)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id (e.g. E1) or 'all'")
    run_parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="fan repetitions out over this many worker processes",
    )
    run_parser.add_argument("--json", type=Path, default=None, help="write JSON result here")
    run_parser.add_argument("--csv", type=Path, default=None, help="write the table as CSV here")
    _add_execution_flags(run_parser)

    chart_parser = sub.add_parser("chart", help="run an experiment and render its series")
    chart_parser.add_argument("experiment", help="experiment id (e.g. E6)")
    chart_parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    chart_parser.add_argument("--seed", type=int, default=0)
    chart_parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="fan repetitions out over this many worker processes",
    )
    _add_execution_flags(chart_parser)

    report_parser = sub.add_parser(
        "report", help="run experiments and write a Markdown report + JSON archive"
    )
    report_parser.add_argument(
        "--output", type=Path, default=Path("results"), help="output directory"
    )
    report_parser.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        help="experiment ids to include (default: all)",
    )
    report_parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument("--processes", type=int, default=None)
    report_parser.add_argument(
        "--accumulators",
        action="store_true",
        help="render the streaming-aggregation checkpoints persisted in the "
        "result store instead of running experiments",
    )
    _add_execution_flags(report_parser)

    sweep_parser = sub.add_parser(
        "sweep",
        help="run an experiment (or 'all') through the resumable sweep "
        "service: result store on, exact randomness by default",
    )
    sweep_parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (e.g. E1) or 'all' (omit when using --grid)",
    )
    sweep_parser.add_argument(
        "--grid",
        type=Path,
        default=None,
        help="run a serialised scenario / sweep grid JSON file through the "
        "streaming aggregation pipeline instead of a registered experiment",
    )
    sweep_parser.add_argument(
        "--metrics",
        nargs="*",
        default=None,
        help="metric names to accumulate when --grid points at a bare "
        "SweepGrid file (a ScenarioSpec file carries its own)",
    )
    sweep_parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="fan repetitions out over this many worker processes",
    )
    sweep_parser.add_argument("--json", type=Path, default=None, help="write JSON result here")
    _add_execution_flags(sweep_parser, batch_mode_default="exact")

    cache_parser = sub.add_parser(
        "cache", help="inspect or empty the content-addressed result store"
    )
    cache_parser.add_argument(
        "action",
        choices=["stats", "clear", "prune"],
        help="stats: entry/size counts; clear: delete everything; "
        "prune: drop records from older engine versions",
    )
    cache_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="store location (default: $REPRO_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )

    telemetry_parser = sub.add_parser(
        "telemetry", help="work with recorded telemetry traces"
    )
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_action", required=True
    )
    summarize_parser = telemetry_sub.add_parser(
        "summarize",
        help="fold a JSONL trace into a per-layer time/throughput report",
    )
    summarize_parser.add_argument(
        "trace", type=Path, help="trace file written by --telemetry PATH"
    )
    summarize_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the folded summary as JSON instead of the rendered report",
    )

    return parser


def _command_list() -> int:
    for module in all_experiments():
        print(f"{module.EXPERIMENT_ID:>4}  {module.TITLE}")
        print(f"      {module.CLAIM}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    targets = (
        [m.EXPERIMENT_ID for m in all_experiments()]
        if args.experiment.lower() == "all"
        else [args.experiment]
    )
    exit_code = 0
    for target in targets:
        result = run_experiment(
            target, scale=args.scale, seed=args.seed, processes=args.processes
        )
        print(result.render())
        print()
        if args.json is not None:
            path = args.json
            if len(targets) > 1:
                path = path.with_name(f"{path.stem}_{result.experiment_id}{path.suffix}")
            result.save(path)
            print(f"[written] {path}")
        if args.csv is not None:
            path = args.csv
            if len(targets) > 1:
                path = path.with_name(f"{path.stem}_{result.experiment_id}{path.suffix}")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(result.to_csv())
            print(f"[written] {path}")
    return exit_code


def _command_chart(args: argparse.Namespace) -> int:
    result = run_experiment(
        args.experiment,
        scale=args.scale,
        seed=args.seed,
        processes=args.processes,
    )
    if not result.series:
        print(f"{result.experiment_id} produced no series to chart")
        return 1
    for series in result.series:
        print(ascii_chart(series))
        print()
    return 0


def _command_sweep_grid(args: argparse.Namespace, store: Optional[ResultStore]) -> int:
    """Run a serialised scenario / grid file through the streaming pipeline."""
    import json

    from repro.analysis.tables import format_table
    from repro.scenarios import ScenarioSpec, SweepGrid, run_grid, run_scenario
    from repro.scenarios.runtime import results_table

    # Grid files may reference experiment-registered probes/metrics
    # ("e7.relay_transmissions", ...); registry discovery is lazy, so import
    # the experiment modules here to populate those registries.
    all_experiments()

    payload = json.loads(Path(args.grid).read_text())
    if "scenario_id" in payload:
        spec = ScenarioSpec.from_dict(payload)
        print(f"[grid] scenario {spec.scenario_id} ({spec.digest()[:12]}…), "
              f"{len(spec.grid)} cells / {spec.grid.total_trials} trials")
        results = run_scenario(spec, processes=args.processes, store=store)
    else:
        grid = SweepGrid.from_dict(payload)
        print(f"[grid] {len(grid)} cells / {grid.total_trials} trials "
              f"({grid.digest()[:12]}…)")
        metrics = tuple(getattr(args, "metrics", None) or ())
        if not metrics and any(cell.metrics is None for cell in grid):
            raise SystemExit(
                "a bare grid file carries no metric set; wrap it in a "
                "ScenarioSpec (with 'metrics'), give every cell its own, "
                "or pass --metrics"
            )
        results = run_grid(
            grid, seed=args.seed, metrics=metrics,
            processes=args.processes, store=store,
        )
    columns, rows = results_table(results)
    print(format_table(columns, rows))
    served = sum(r.counts.get("served", 0) for r in results)
    skipped = sum(r.counts.get("skipped", 0) for r in results)
    executed = sum(r.counts.get("executed", 0) for r in results)
    print(
        f"[aggregation] {executed} trials executed, {served} served from the "
        f"store, {skipped} already aggregated (skipped without re-reading)"
    )
    return 0


def _cache_summary(store: ResultStore) -> str:
    """End-of-run result-store line: hits/misses/puts plus checkpoint count."""
    total = store.hits + store.misses
    line = (
        f"[cache] {store.hits}/{total} trials served from "
        f"{store.root} ({store.misses} missed, {store.puts} stored"
    )
    checkpoints = len(store.aggregates.keys())
    if checkpoints:
        line += f", {checkpoints} aggregation checkpoint(s)"
    return line + ")"


def _command_sweep(args: argparse.Namespace, store: Optional[ResultStore]) -> int:
    if args.grid is not None:
        code = _command_sweep_grid(args, store)
        if store is not None:
            print(_cache_summary(store))
        return code
    if args.experiment is None:
        raise SystemExit("repro sweep needs an experiment id or --grid FILE")
    targets = (
        [m.EXPERIMENT_ID for m in all_experiments()]
        if args.experiment.lower() == "all"
        else [args.experiment]
    )
    for target in targets:
        result = run_experiment(
            target, scale=args.scale, seed=args.seed, processes=args.processes
        )
        print(result.render())
        print()
        if args.json is not None:
            path = args.json
            if len(targets) > 1:
                path = path.with_name(f"{path.stem}_{result.experiment_id}{path.suffix}")
            result.save(path)
            print(f"[written] {path}")
    if store is not None:
        print(_cache_summary(store))
    else:
        print("[cache] disabled (--no-cache)")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir if args.cache_dir is not None else _default_cache_dir()
    store = ResultStore(cache_dir)
    if args.action == "stats":
        stats = store.stats()
        print(f"store:          {stats['path']}")
        print(f"engine version: {stats['engine_version']}")
        print(f"entries:        {stats['entries']} ({stats['stale_entries']} stale)")
        print(f"shard files:    {stats['shard_files']}")
        print(f"bytes:          {stats['bytes']}")
        print(f"aggregations:   {stats['aggregate_checkpoints']} checkpoint(s)")
        if stats["stale_entries"]:
            print(
                f"[hint] {stats['stale_entries']} entries were written under "
                "older engine versions and can never be hit; "
                "'repro cache prune' reclaims them"
            )
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"[cache] removed {removed} entries from {store.root}")
        return 0
    removed = store.prune()
    print(f"[cache] pruned {removed} stale entries from {store.root}")
    return 0


def _command_telemetry(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import fold_trace, load_trace, render_summary

    try:
        records = load_trace(args.trace)
    except OSError as exc:
        print(f"[telemetry] cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"[telemetry] no records in {args.trace}", file=sys.stderr)
        return 1
    summary = fold_trace(records)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _telemetry_from_args(args: argparse.Namespace) -> bool:
    """Install the telemetry pipeline requested by --telemetry/--progress.

    Returns True when a pipeline was configured (the caller owns shutdown).
    The progress reporter defaults to on exactly when a trace is being
    recorded and stderr is a terminal — a redirected stderr gets per-cell
    lines instead of a live rewrite, and a bare ``--progress`` works
    without a trace file (reporter-only pipeline).
    """
    trace_path = getattr(args, "telemetry", None)
    progress = getattr(args, "progress", None)
    if trace_path is None and not progress:
        return False
    from repro.telemetry import FileSink, ProgressReporter, configure_telemetry

    sinks: list = []
    if trace_path is not None:
        sinks.append(FileSink(trace_path))
    if progress is None:
        progress = sys.stderr.isatty()
    if progress:
        sinks.append(ProgressReporter())
    configure_telemetry(sinks=sinks)
    return True


def _command_report(args: argparse.Namespace, store: Optional[ResultStore]) -> int:
    from repro.experiments.report import accumulators_report, generate_report

    if args.accumulators:
        if store is None:
            store = ResultStore(_default_cache_dir())
        print(accumulators_report(store))
        return 0

    paths = generate_report(
        args.output,
        experiment_ids=args.experiments,
        scale=args.scale,
        seed=args.seed,
        processes=args.processes,
    )
    print(f"[written] {paths.report}")
    for path in paths.json_files:
        print(f"[written] {path}")
    return 0


def _check_targets(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject unknown experiment ids and a missing grid file as usage errors,
    before any work starts."""
    ids = list(getattr(args, "experiments", None) or [])
    experiment = getattr(args, "experiment", None)
    # ``run`` and ``sweep`` also take ``all``; ``chart`` needs one id.
    if experiment and (args.command == "chart" or experiment.lower() != "all"):
        ids.append(experiment)
    for experiment_id in ids:
        try:
            get_experiment(experiment_id)
        except ValueError as exc:
            parser.error(str(exc))
    grid = getattr(args, "grid", None)
    if grid is not None and not grid.is_file():
        parser.error(f"grid file {str(grid)!r} does not exist")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_targets(parser, args)
    store: Optional[ResultStore] = None
    if hasattr(args, "batch_mode"):
        store = _store_from_args(args)
        execution_kwargs = dict(
            batch_mode=args.batch_mode,
            store=store,
            watermark=args.watermark,
        )
        try:
            if args.env is not None:
                execution_kwargs["environment"] = parse_environment_option(
                    args.env
                )
            configure_execution(**execution_kwargs)
        except (ValueError, TypeError) as exc:
            parser.error(str(exc))
    telemetry_active = _telemetry_from_args(args)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(args)
        if args.command == "chart":
            return _command_chart(args)
        if args.command == "report":
            return _command_report(args, store)
        if args.command == "sweep":
            return _command_sweep(args, store)
        if args.command == "cache":
            return _command_cache(args)
        if args.command == "telemetry":
            return _command_telemetry(args)
    finally:
        if telemetry_active:
            from repro.telemetry import telemetry_shutdown

            telemetry_shutdown()
            trace_path = getattr(args, "telemetry", None)
            if trace_path is not None:
                print(f"[telemetry] trace written to {trace_path}")
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
