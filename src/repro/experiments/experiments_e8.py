"""E8 — Theorem 4.4 (Fig. 2): per-node energy lower bound for fast oblivious broadcast.

Claim: on the layered star-and-path network of Fig. 2 (parameter ``n``,
diameter ``D``), any oblivious algorithm with a *time-invariant* distribution
that finishes in ``c·D·log(n/D)`` rounds w.h.p. must spend an expected
``Ω(log² n / log(n/D))`` transmissions per node.  The mechanism: the star
cascade forces nodes to stay active ``≈ ln² n`` rounds (some star level is hit
with probability only ``1/ln n`` per round), while the path forces the
distribution's mean ``µ`` to be ``≥ 1/(2c·log(n/D))`` — energy is the product.

Experiment: we sweep the constant per-round probability ``q`` (the
distribution's mean µ = q) of the time-invariant protocol on the Theorem-4.4
network and record, for each q, the completion time and the per-node
transmissions of the star-leaf nodes.  The resulting (time, energy) frontier
shows the forced tradeoff; the Algorithm-3 point (which is *not*
time-invariant and exploits knowledge of D) is added for reference.

Both measurements need the star-leaf node indices of the construction, so
they run as probe cells (one per swept ``q``, one for the reference point).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

import numpy as np

from repro._util.rng import spawn_generators
from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.core.oblivious import TimeInvariantBroadcast
from repro.experiments.common import gadget_broadcast_samples, pick
from repro.experiments.results import ExperimentResult, Series
from repro.graphs.lowerbound import theorem44_network
from repro.scenarios import ScenarioSpec, SweepCell, SweepGrid, register_probe, run_scenario

EXPERIMENT_ID = "E8"
TITLE = "Theorem 4.4: time vs per-node energy frontier on the Fig. 2 network"
CLAIM = (
    "Theorem 4.4: on the layered lower-bound network, any oblivious algorithm "
    "with a time-invariant distribution finishing in c*D*log(n/D) rounds needs "
    "an expected log^2 n / (max{4c,8} log(n/D)) transmissions per node."
)

METRICS = ("success", "rounds", "leaf_tx")


def _network_parameters(n_param: int):
    log_n = max(1.0, math.log2(n_param))
    diameter = int(math.ceil(4 * log_n)) + 2 * int(math.floor(log_n)) + 2
    return log_n, diameter


@register_probe("e8.time_invariant_frontier")
def _frontier_probe(params, seed, repetitions) -> Iterator[dict]:
    """Fixed-q time-invariant broadcast on the Fig. 2 gadget."""
    n_param = params["n"]
    q = params["q"]
    log_n, diameter = _network_parameters(n_param)
    network, structure = theorem44_network(n_param, diameter, return_structure=True)
    horizon = int(math.ceil(80.0 * log_n / max(q, 1e-6))) + 8 * diameter
    return gadget_broadcast_samples(
        network,
        TimeInvariantBroadcast(q, source=structure.source),
        spawn_generators(seed, repetitions),
        metric="leaf_tx",
        nodes=np.concatenate(structure.star_leaves),
        reduce=np.mean,
        max_rounds=horizon,
    )


@register_probe("e8.algorithm3_reference")
def _reference_probe(params, seed, repetitions) -> Iterator[dict]:
    """Algorithm 3 (knows D, not time-invariant) on the same gadget."""
    n_param = params["n"]
    _, diameter = _network_parameters(n_param)
    network, structure = theorem44_network(n_param, diameter, return_structure=True)
    return gadget_broadcast_samples(
        network,
        KnownDiameterBroadcast(diameter, source=structure.source),
        spawn_generators(seed + 1, repetitions),
        metric="leaf_tx",
        nodes=np.concatenate(structure.star_leaves),
        reduce=np.mean,
        run_to_quiescence=True,
    )


def scenario(scale: str = "quick", seed: int = 0) -> ScenarioSpec:
    """The E8 grid: a q axis of frontier probes plus the reference point."""
    n_param = pick(scale, quick=64, full=256)
    repetitions = pick(scale, quick=5, full=15)
    q_values = pick(
        scale,
        quick=[0.5, 0.25, 0.1, 0.05],
        full=[0.5, 0.35, 0.25, 0.15, 0.1, 0.05, 0.025, 0.0125],
    )

    cells: List[SweepCell] = [
        SweepCell(
            coords={"protocol": "time-invariant", "q": q},
            kind="probe",
            probe="e8.time_invariant_frontier",
            params={"n": n_param, "q": q},
            repetitions=repetitions,
        )
        for q in q_values
    ]
    cells.append(
        SweepCell(
            coords={"protocol": "algorithm3 (reference)", "q": None},
            kind="probe",
            probe="e8.algorithm3_reference",
            params={"n": n_param},
            repetitions=repetitions,
        )
    )

    _, diameter = _network_parameters(n_param)
    return ScenarioSpec(
        scenario_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        grid=SweepGrid(cells=tuple(cells)),
        metrics=METRICS,
        seed=seed,
        parameters={
            "scale": scale,
            "n": n_param,
            "diameter": diameter,
            "q_values": q_values,
            "repetitions": repetitions,
            "seed": seed,
        },
    )


def run(
    scale: str = "quick", seed: int = 0, processes: Optional[int] = None
) -> ExperimentResult:
    """Trace the (time, per-node energy) frontier of time-invariant protocols."""
    spec = scenario(scale, seed)
    cells = run_scenario(spec, processes=processes)

    n_param = spec.parameters["n"]
    diameter = spec.parameters["diameter"]
    log_n = max(1.0, math.log2(n_param))
    lam = max(1.0, math.log2(n_param / diameter))

    columns = [
        "protocol",
        "q (per-round prob)",
        "success_rate",
        "rounds (mean)",
        "leaf tx/node (mean)",
        "rounds x energy / log^2 n",
    ]
    rows: List[List[object]] = []
    frontier = Series(
        name="time vs per-node energy (time-invariant protocols)",
        x=[],
        y=[],
        x_label="completion rounds",
        y_label="leaf transmissions per node",
    )

    for cell in cells:
        protocol = cell.coords["protocol"]
        q = cell.coords["q"]
        completed = cell.count("rounds") > 0
        mean_time = cell.mean("rounds")
        mean_energy = cell.mean("leaf_tx")
        if mean_time is None:
            mean_time = float("nan")
            mean_energy = float("nan")
        if protocol == "time-invariant":
            rows.append(
                [
                    protocol,
                    q,
                    cell.success_rate,
                    mean_time,
                    mean_energy,
                    (mean_time * q) / (log_n**2) if completed else None,
                ]
            )
            if completed:
                frontier.x.append(mean_time)
                frontier.y.append(mean_energy)
        else:
            rows.append(
                [protocol, None, cell.success_rate, mean_time, mean_energy, None]
            )

    # The probe builds the same construction; report its size for the notes.
    network, _ = theorem44_network(n_param, diameter, return_structure=True)
    notes = [
        f"network: Theorem 4.4 construction with n={n_param}, D={diameter}, "
        f"log(n/D)={lam:.2f}, {network.n} nodes",
        "For the time-invariant family the product (rounds x per-round "
        "probability) stays Ω(log^2 n): making q larger shortens the path "
        "traversal but multiplies per-node energy, making q smaller saves "
        "energy but blows up the star-cascade time — the frontier never "
        "enters the fast-and-cheap corner, which is the Theorem 4.4 statement.",
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=columns,
        rows=rows,
        series=[frontier],
        notes=notes,
        parameters=dict(spec.parameters),
    )
