"""Steadiness check: two independent sets of benchmark runs, compared.

Usage::

    python3 perfbench/steady.py [--out perfbench/steadiness.json]

Run from the repository root.  Each of the two sets runs ``perfbench/run.py``
ten times per workload, each time with another seed, at the ``run_seconds``
of ``BENCHMARK.json``.  For each set it prints every end-to-end metric's
median and its spread — the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — next to
the metric's bound.  Then it says whether the sets agree: whether set 2's
median differs from set 1's, in either direction, by no more than the bound.
``--out`` writes every value to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Runs per workload in each set; each set uses its own ten seeds.
RUNS = 10
SET_SEEDS = (range(1, RUNS + 1), range(1001, 1001 + RUNS))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed\n{proc.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {w: [] for w in workloads}  # workload -> per set -> metric -> values
    agree = True
    for set_index, seeds in enumerate(SET_SEEDS):
        for workload in workloads:
            runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
            values[workload].append(
                {m["name"]: [run[m["name"]] for run in runs] for m in metrics}
            )
            print(f"set {set_index + 1} {workload}")
            for m in metrics:
                series = values[workload][-1][m["name"]]
                share = spread(series)
                verdict = "ok" if share <= m["bound"] else "TOO NOISY"
                # setup_s times under a second of interpreter start and
                # imports, where a little scheduling delay is a large share,
                # so it is held to the set agreement below, not to a spread.
                if m["name"] != "setup_s" and share > m["bound"]:
                    agree = False
                print(f"  {m['name']:<14} median {statistics.median(series):<12.6g}"
                      f" spread {share:7.2%}  bound {m['bound']:.0%}  {verdict}")
    print("agreement of set 2 with set 1 (medians differ by at most the bound)")
    for workload in workloads:
        first, second = values[workload]
        for m in metrics:
            before = statistics.median(first[m["name"]])
            after = statistics.median(second[m["name"]])
            change = (after - before) / before
            ok = abs(change) <= m["bound"]
            agree = agree and ok
            print(f"  {workload:<14} {m['name']:<14} {change:+7.2%}  "
                  f"{'agree' if ok else 'DISAGREE'}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "runs": RUNS, "values": values},
            indent=1,
        ) + "\n")
    print("sets agree within every bound" if agree else "NOT steady within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
