"""Smoke test of the benchmark harness's tracer against the package.

``perfbench/tracing.py`` wraps library entry points by name (the engines,
the protocol and collision-model classes, the graph generators, the store
and aggregation layers).  A rename in the package would only surface in a
``perfbench/run.py --trace 1`` run, which the default benchmark run never
makes.  This test installs the tracer in a fresh interpreter, runs one
single-run call and one ``repeat_job`` sweep, and checks that the spans
land on the expected layers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys, time
sys.path.insert(0, "perfbench")
import tracing

tracer = tracing.install()
start = time.perf_counter()

from repro.core import EnergyEfficientBroadcast
from repro.experiments.protocols import ProtocolSpec
from repro.experiments.runner import repeat_job
from repro.graphs import random_digraph
from repro.graphs.builders import GraphSpec
from repro.radio import run_protocol

run_protocol(random_digraph(64, 0.15, rng=1), EnergyEfficientBroadcast(0.15), rng=2)
repeat_job(
    GraphSpec("gnp", {"n": 48, "p": 0.2}),
    ProtocolSpec("decay", {}),
    repetitions=3,
    seed=1,
    store=False,
)
print(json.dumps(tracer.fold(time.perf_counter() - start)))
"""


def test_tracer_installs_and_attributes_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(proc.stdout.strip().splitlines()[-1])
    # The single-run façade is still wrapped as the serial entry point, and
    # it runs on the batch engine underneath.
    assert totals["serial.runs"] == 1
    assert totals["batch.trial_rounds"] > 0
    assert totals["collision.resolves"] > 0
    assert totals["protocol.transmit_s"] > 0
    # One sampled topology for the single run, three for the sweep.
    assert totals["graphs.samples"] == 4
    assert totals["queue.self_s"] > 0
    assert totals["trace.spans"] > 0
