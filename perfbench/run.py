"""End-to-end benchmark driver: ``python3 perfbench/run.py --workload NAME``.

Usage::

    python3 perfbench/run.py --workload suite_quick --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  The parent imports only the standard library
and measures nothing itself: every sample comes from a fresh child
interpreter (``child.py``) with a fixed environment — ``PYTHONHASHSEED=0``,
one BLAS/OpenMP thread, no ``REPRO_CACHE_DIR``, telemetry off, no
address-space randomisation — and its own scratch directory and result
store, deleted afterwards.  One run:

1. a warm-up child that imports and sets up, discarded, so ``.pyc`` files
   and the page cache are warm;
2. set-up-only children, for more ``setup_s`` samples;
3. measured children, one workload iteration each, each on its own inputs
   (``iteration_seed``), until the next one would overrun ``--seconds``;
4. with ``--trace 1``, one more child with every layer's entry points
   wrapped (``tracing.py``), for the per-layer split.

It prints each metric with its unit, a ``record`` line carrying the samples
and provenance, and as its last line the JSON result: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  ``attempted`` / ``failed`` count the output checks made
and failed.  Every timing is the median over the run's children.
"""

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = list(workloads.WORKLOADS)

#: Set-up-only children per run, on top of one sample per measured child.
SETUP_CHILDREN = 5
#: A traced iteration's cost relative to an untraced one, for planning.
TRACE_COST = 1.5
#: Children are killed once the run has used ``DEADLINE_PER_S`` times
#: ``--seconds`` plus ``DEADLINE_ALLOWANCE_S`` (warm-up, set-up children and
#: the traced child): 170 s at the default 40 measuring seconds.
DEADLINE_PER_S = 2.0
DEADLINE_ALLOWANCE_S = 90.0
#: ``personality(2)`` flag that disables address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


class ChildFailed(RuntimeError):
    pass


def fixed_address_layout() -> None:
    """Turn off address-space randomisation for the child about to exec
    (what ``setarch -R`` does).  With a randomised layout the same inputs
    reach peak RSS values up to ~15% apart from run to run."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def child_env(workdir: Path) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key not in ("PYTHONPATH", "PYTHONHASHSEED")
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(workdir),
    )
    return env


class Runner:
    """Spawns the children of one run, each in its own scratch directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(workdir)
        self.deadline = time.monotonic() + DEADLINE_PER_S * seconds + DEADLINE_ALLOWANCE_S
        self.spawned = 0

    def child(self, mode: str, seed: int) -> dict:
        self.spawned += 1
        scratch = self.workdir / f"{mode}-{self.spawned}"
        scratch.mkdir()
        out = scratch / "record.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run deadline reached")
        command = [
            sys.executable, str(CHILD),
            "--workload", self.workload,
            "--seed", str(seed),
            "--mode", mode,
            "--workdir", str(scratch),
            "--out", str(out),
            "--spawned", repr(time.monotonic()),
        ]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
                preexec_fn=fixed_address_layout,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child exceeded the run deadline")
        if proc.returncode != 0:
            raise ChildFailed(
                f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        record = json.loads(out.read_text())
        shutil.rmtree(scratch)
        return record


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def iteration_seed(seed: int, index: int) -> int:
    """The input seed of a run's ``index``-th measured iteration.

    Each iteration draws its own inputs, so a run's medians span several
    inputs: peak RSS depends on where the allocator places the exact array
    sizes of one input, and moves ~7% from one input to the next.
    """
    return seed * 1_000_000 + index


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    runner.child("setup", runner.seed)  # warm-up, discarded
    began = time.monotonic()
    setups = [runner.child("setup", runner.seed) for _ in range(SETUP_CHILDREN)]
    iterations, costs = [], []
    while True:
        start = time.monotonic()
        iterations.append(runner.child("measure", iteration_seed(runner.seed, len(iterations))))
        costs.append(time.monotonic() - start)
        estimate = statistics.median(costs)
        planned = estimate * (1 + (TRACE_COST if trace else 0))
        if time.monotonic() - began + planned > seconds:
            break
    traced = runner.child("trace", iteration_seed(runner.seed, 0)) if trace else None
    return {"setups": setups, "iterations": iterations, "traced": traced}


def end_to_end(samples: dict) -> dict:
    iterations = samples["iterations"]
    setup = [s["setup_s"] for s in samples["setups"] + iterations]
    wall = statistics.median(it["wall_s"] for it in iterations)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "trials_per_s": iterations[0]["trials"] / wall,
        "peak_rss_mib": statistics.median(it["peak_rss_mib"] for it in iterations),
    }


def per_layer(samples: dict) -> dict:
    traced = samples["traced"]
    untraced = statistics.median(it["wall_s"] for it in samples["iterations"])
    layers = dict(traced["layers"])
    layers["imports.s"] = traced["imports_s"]
    layers["traced.wall_s"] = traced["wall_s"]
    layers["tracing_overhead_s"] = traced["wall_s"] - untraced
    return layers


def run_workload(workload: str, args, spec: dict) -> int:
    """One run of ``workload``: measure, report, print the result line."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(workload, args.seed, workdir, seconds)
    try:
        samples = measure(runner, seconds, bool(args.trace))
    except ChildFailed as error:
        print(f"error: {workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer(samples) if args.trace else end_to_end(samples)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    iterations = samples["iterations"]
    checked = iterations + ([samples["traced"]] if samples["traced"] else [])
    made = sum(it["checks_made"] for it in checked)
    failed = sum(it["checks_failed"] for it in checked)
    trials = sum(it["trials"] for it in checked)
    for it in checked:
        for failure in it["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)

    print(f"{workload} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} measured iteration(s), {trials} trials run, "
          f"{made} output checks made, {failed} failed")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    record = {
        "workload": workload,
        "trace": args.trace,
        "run_seconds": seconds,
        "provenance": {**provenance(args.seed), **iterations[0]["versions"]},
        "setup_s_samples": [s["setup_s"] for s in samples["setups"] + iterations],
        "wall_s_samples": [it["wall_s"] for it in iterations],
        "peak_rss_mib_samples": [it["peak_rss_mib"] for it in iterations],
        "trials_run": trials,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": made,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="workload to run; 'all' runs each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time [default: run_seconds of BENCHMARK.json]")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run_workload(name, args, spec) for name in names)


if __name__ == "__main__":
    sys.exit(main())
