"""E2 — Lemmas 2.3–2.5: phase-wise growth of the active set in Algorithm 1.

Claims checked:

* Phase 1 rounds multiply the active set by ``Θ(d)`` (Lemma 2.3) — we report
  the geometric mean of the per-round growth factor divided by ``d``;
* after Phase 1 the active set is ``Θ(d^T)`` (Lemma 2.4) — we report
  ``|U_{T+1}| / d^T``;
* after Phase 2 (sparse regime) a constant fraction of all nodes is informed
  (Lemma 2.5) — we report the informed fraction right after Phase 2.

The measurement needs Algorithm 1's *internal* phase history (the
``active_history`` the protocol object records), which no declarative job
can expose — so the sweep runs as a probe cell per ``(regime, n)``
coordinate, streaming one sample of growth/ratio metrics per repetition.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro._util.rng import spawn_generators
from repro.analysis.concentration import check_phase1_growth
from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.experiments.common import pick, sparse_p, threshold_p
from repro.experiments.results import ExperimentResult
from repro.graphs.random_digraph import random_digraph
from repro.radio.batch import BatchEngine
from repro.scenarios import ScenarioSpec, SweepCell, SweepGrid, register_probe, run_scenario

EXPERIMENT_ID = "E2"
TITLE = "Algorithm 1 phase growth (Lemmas 2.3-2.5)"
CLAIM = (
    "Lemma 2.3: in Phase 1 the active set grows by a factor Theta(d) per round; "
    "Lemma 2.4: after Phase 1 it has size Theta(d^T); "
    "Lemma 2.5: after Phase 2 a constant fraction of the n nodes is informed."
)

_REGIMES = {"threshold (4 log n / n)": threshold_p, "sparse (n^-0.6)": sparse_p}

METRICS = ("success", "log_growth", "phase1_ratio", "phase2_fraction", "T")


@register_probe("e2.phase_growth")
def _phase_growth_probe(params, seed, repetitions) -> Iterator[dict]:
    """Run Algorithm 1 with per-round tracing; yield phase metrics per trial."""
    n = params["n"]
    p = params["p"]
    generators = spawn_generators(seed, 2 * repetitions)
    engine = BatchEngine(record_rounds=True)
    for rep in range(repetitions):
        # One trial per run: stacking the n-node samples raises peak memory.
        network = random_digraph(n, p, rng=generators[2 * rep])
        protocol = EnergyEfficientBroadcast(p)
        (trace,) = engine.run([network], protocol, rngs=[generators[2 * rep + 1]])
        # The protocol's schedule and this trial's phase history.
        meta = trace.metadata
        check = check_phase1_growth(meta["active_history"], meta["T"], meta["d"])
        sample: Dict[str, object] = {
            "success": float(trace.completed),
            "log_growth": [
                math.log(g) for g in check.normalized_growth.tolist() if g > 0
            ],
            "phase1_ratio": float(check.phase1_ratio),
            "T": float(meta["T"]),
        }
        # Informed fraction right after Phase 2 (or after Phase 1 when
        # Phase 2 is skipped): use the per-round informed curve.
        curve = trace.informed_curve()
        phase2_round = meta["phase2_round"]
        boundary = phase2_round + 1 if phase2_round is not None else meta["T"]
        boundary = min(boundary, curve.size) - 1
        sample["phase2_fraction"] = (
            float(curve[boundary]) / n if boundary >= 0 else None
        )
        yield sample


def scenario(scale: str = "quick", seed: int = 0) -> ScenarioSpec:
    """The E2 probe grid: regime × n."""
    # n = 8192 is the smallest size where T = 2 Phase-1 rounds are exercised
    # robustly (d^T well below n); below that the threshold regime has T = 1.
    sizes = pick(scale, quick=[1024, 8192], full=[1024, 4096, 8192, 16384])
    repetitions = pick(scale, quick=5, full=20)

    def bind(coords: Dict[str, object]) -> SweepCell:
        n = coords["n"]
        p = _REGIMES[coords["regime"]](n)
        return SweepCell(
            coords={**coords, "p": p, "d": n * p},
            kind="probe",
            probe="e2.phase_growth",
            params={"n": n, "p": p},
            repetitions=repetitions,
        )

    grid = SweepGrid.from_axes({"regime": list(_REGIMES), "n": sizes}, bind)
    return ScenarioSpec(
        scenario_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        grid=grid,
        metrics=METRICS,
        seed=seed,
        parameters={
            "scale": scale,
            "sizes": sizes,
            "repetitions": repetitions,
            "seed": seed,
        },
    )


def run(
    scale: str = "quick", seed: int = 0, processes: Optional[int] = None
) -> ExperimentResult:
    """Run Algorithm 1 with per-round tracing and summarise the phase growth."""
    spec = scenario(scale, seed)
    cells = run_scenario(spec, processes=processes)

    columns = [
        "n",
        "regime",
        "d",
        "T",
        "growth factor / d (geo-mean)",
        "|U_{T+1}| / d^T (mean)",
        "informed fraction after phase 2 (mean)",
        "success_rate",
    ]
    rows: List[List[object]] = []
    for cell in cells:
        log_growth_mean = cell.mean("log_growth")
        geo_mean_growth = (
            float(np.exp(log_growth_mean))
            if log_growth_mean is not None
            else float("nan")
        )
        t_mean = cell.mean("T")
        rows.append(
            [
                cell.coords["n"],
                cell.coords["regime"],
                cell.coords["d"],
                int(t_mean) if t_mean is not None else None,
                geo_mean_growth,
                cell.mean("phase1_ratio"),
                cell.mean("phase2_fraction"),
                cell.success_rate,
            ]
        )

    notes = [
        "Growth factor / d should be a constant in (1/16, 2) per Lemma 2.3; "
        "|U_{T+1}|/d^T should be a constant (Lemma 2.4); the post-Phase-2 informed "
        "fraction should be a constant fraction of n (Lemma 2.5)."
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=columns,
        rows=rows,
        notes=notes,
        parameters=dict(spec.parameters),
    )
