"""Condense a pytest-benchmark JSON into the tracked BENCH_engine.json.

Keeps one entry per benchmark (min/mean seconds plus any ``extra_info`` the
benchmark recorded — notably the batch-vs-one-trial speedups) so the file
stays small enough to diff across PRs.

Usage: python benchmarks/summarize_engine_bench.py raw.json BENCH_engine.json
"""

from __future__ import annotations

import json
import sys


def summarize(raw_path: str, out_path: str) -> dict:
    with open(raw_path) as handle:
        raw = json.load(handle)

    benches = {}
    for bench in raw.get("benchmarks", []):
        entry = {
            "min_seconds": bench["stats"]["min"],
            "mean_seconds": bench["stats"]["mean"],
            "rounds": bench["stats"]["rounds"],
        }
        extra = bench.get("extra_info")
        if extra:
            entry["extra_info"] = extra
        benches[bench["name"]] = entry

    summary = {
        "machine_info": {
            key: raw.get("machine_info", {}).get(key)
            for key in ("node", "processor", "python_version")
        },
        "datetime": raw.get("datetime"),
        "benchmarks": benches,
    }
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    result = summarize(sys.argv[1], sys.argv[2])
    for name, entry in sorted(result["benchmarks"].items()):
        extra = entry.get("extra_info", {})
        speed = f"  speedup={extra['speedup']:.1f}x" if "speedup" in extra else ""
        if "environment_overhead_ratio" in extra:
            speed += f"  null-env overhead={extra['environment_overhead_ratio']:.3f}x"
        if "telemetry_overhead_ratio" in extra:
            speed += f"  telemetry overhead={extra['telemetry_overhead_ratio']:.3f}x"
        if "aggregation_throughput_ratio" in extra:
            speed += (
                "  streaming/materialised="
                f"{extra['aggregation_throughput_ratio']:.2f}x"
            )
        if "compaction_speedup" in extra:
            speed += (
                f"  continuous/sharded={extra['compaction_speedup']:.2f}x"
                f" trials/s"
            )
        if "compaction_uniform_ratio" in extra:
            speed += (
                f"  uniform-cell ratio={extra['compaction_uniform_ratio']:.2f}x"
            )
        print(f"{name}: min={entry['min_seconds'] * 1e3:.1f} ms{speed}")
