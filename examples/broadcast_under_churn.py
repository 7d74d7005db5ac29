#!/usr/bin/env python
"""Broadcast through faulty worlds: loss, churn and jamming.

The paper's guarantees (Theorems 1.1–1.3) assume a perfectly reliable
synchronous radio network.  This example wraps the batched engine in the
:mod:`repro.radio.environment` layer and re-runs the paper's Algorithm 1
next to a redundancy-heavy Bernoulli flood while the world misbehaves:

* ``loss``  — every delivery is destroyed i.i.d. with probability 20%;
* ``churn`` — a quarter of the nodes crash early on and recover later
  (their radios go dark but their clocks keep ticking);
* ``jam``   — an adversary silences the two loudest channels each round.

For each world we report the success rate across trials, the mean
completion round, the energy bill, and the two robustness metrics the
environment layer tracks: ``recovery rounds`` (rounds from the last fault
to completion) and ``work wasted`` (charged transmissions destroyed in
flight plus deliveries the environment erased).

Run:  python examples/broadcast_under_churn.py [n] [trials] [seed]
"""

from __future__ import annotations

import sys

from repro.analysis.tables import format_table
from repro.experiments.common import threshold_p
from repro.experiments.protocols import PROTOCOL_FACTORIES
from repro.graphs.random_digraph import random_digraph
from repro.radio import parse_environment_option, run_protocol_batch

WORLDS = [
    ("reliable", None),
    ("loss 20%", "loss=0.2"),
    ("churn 25%", "churn=0.25@6:30"),
    ("jam k=2", "jam=2"),
]


def main(n: int = 128, trials: int = 8, seed: int = 7) -> None:
    network = random_digraph(n, threshold_p(n), rng=seed)
    protocols = {
        "algorithm1": lambda: PROTOCOL_FACTORIES["algorithm1"](
            p=threshold_p(n)
        ),
        "bernoulli_flood": lambda: PROTOCOL_FACTORIES["bernoulli_flood"](
            q=0.1
        ),
    }

    print(
        f"Broadcast on G({n}, p) at the connectivity threshold, "
        f"{trials} trials per world (--env syntax shown per row)\n"
    )

    rows = []
    for label, make_protocol in protocols.items():
        for world, option in WORLDS:
            traces = run_protocol_batch(
                network,
                make_protocol(),
                trials=trials,
                rng=seed + 1,
                max_rounds=800,
                environment=parse_environment_option(option),
            )
            done = [t for t in traces if t.completed]
            success = len(done) / len(traces)
            rounds = (
                sum(t.completion_round for t in done) / len(done)
                if done
                else float("nan")
            )
            energy = sum(
                t.energy.total_transmissions for t in traces
            ) / len(traces)
            recovery = wasted = 0.0
            reports = [t.metadata.get("environment") for t in traces]
            if any(reports):
                wasted = sum(
                    r["lost_transmissions"] + r["lost_deliveries"]
                    for r in reports
                ) / len(traces)
                spans = [
                    t.completion_round - r["last_fault_round"]
                    for t, r in zip(traces, reports)
                    if t.completed and r["last_fault_round"] > 0
                ]
                recovery = (
                    sum(max(0, s) for s in spans) / len(spans) if spans else 0.0
                )
            rows.append(
                [
                    label,
                    world,
                    f"{success * 100:.0f}%",
                    f"{rounds:.1f}" if done else "—",
                    f"{energy:.0f}",
                    f"{recovery:.1f}",
                    f"{wasted:.0f}",
                ]
            )

    print(
        format_table(
            [
                "protocol",
                "world",
                "success",
                "rounds",
                "total tx",
                "recovery rounds",
                "work wasted",
            ],
            rows,
            title="Robustness vs energy under faulty worlds",
        )
    )
    print(
        "\nThe energy-optimal schedule degrades first; flooding survives by "
        "burning transmissions the environment then destroys."
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 7
    main(n, trials, seed)
