"""One measured process: import, set up, optionally run one workload.

Started by ``run.py`` in a fresh interpreter with a fixed environment; it
writes one JSON record to ``--out`` and exits.  Modes:

* ``setup`` — import and set up, then stop (set-up time samples, warm-up);
* ``measure`` — also run the workload untraced and check its outputs;
* ``trace`` — the same with every layer's entry points wrapped.

``--spawned`` is the parent's ``time.monotonic()`` just before the spawn;
on Linux the monotonic clock is shared by all processes, so set-up time
covers interpreter start as well as imports and building specs and store.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import workloads


def peak_rss_mib() -> float:
    """This process's own resident high-water mark (VmHWM).

    The kernel resets VmHWM on exec, so unlike ``ru_maxrss`` it does not
    carry over the spawning parent's peak.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def versions() -> dict:
    import importlib.util

    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    start = time.monotonic()
    workload.load()
    imports_s = time.monotonic() - start
    workload.setup(args.seed, args.workdir)
    record = {"setup_s": time.monotonic() - args.spawned, "imports_s": imports_s}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.install(getattr(workload, "modules", ()))
        start = time.perf_counter()
        workload.run()
        wall_s = time.perf_counter() - start
        checks = workloads.Checks()
        workload.check(checks)
        record.update(
            wall_s=wall_s,
            trials=workload.trials,
            checks_made=checks.made,
            checks_failed=checks.failed,
            failures=checks.failures[:5],
            peak_rss_mib=peak_rss_mib(),
            versions=versions(),
        )
        if tracer is not None:
            record["layers"] = tracer.fold(wall_s)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
