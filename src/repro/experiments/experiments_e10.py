"""E10 — Corollary 4.5: the ``D = Θ(n)`` corner of the lower bound.

Claim: there is a network with ``O(n)`` nodes such that any oblivious
algorithm finishing broadcast in ``c·n`` rounds w.h.p. needs an expected
``Ω(log² n)`` transmissions (per node).  This is Theorem 4.4 specialised to
``D = Θ(n)`` (``log(n/D) = Θ(1)``).

Experiment: same machinery as E8 but on the Theorem-4.4 network built with a
diameter proportional to ``n``; for each per-round probability ``q`` we
check whether the run finishes within the ``c·n`` budget and what the
per-node energy of the star leaves is; the cheapest successful ``q`` is
compared against ``log² n``.  Like E8, the leaf-energy measurement needs the
construction's node indices, so each swept ``q`` is a probe cell.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

import numpy as np

from repro._util.rng import spawn_generators
from repro.core.oblivious import TimeInvariantBroadcast
from repro.experiments.common import gadget_broadcast_samples, pick
from repro.experiments.results import ExperimentResult
from repro.graphs.lowerbound import theorem44_network
from repro.scenarios import ScenarioSpec, SweepCell, SweepGrid, register_probe, run_scenario

EXPERIMENT_ID = "E10"
TITLE = "Corollary 4.5: Omega(log^2 n) transmissions when the time budget is c*n"
CLAIM = (
    "Corollary 4.5: there is an O(n)-node network on which any oblivious "
    "broadcasting algorithm finishing in c*n rounds with probability 1-1/n "
    "needs an expected Omega(log^2 n) transmissions."
)

# The budget is c * (number of nodes); c must leave the path (length ~ D)
# traversable at the energy-optimal q ~ 1/log n, i.e. c >= a few, while
# still being a linear-time budget.
_TIME_BUDGET_CONSTANT = 8.0

METRICS = ("success", "rounds", "leaf_tx")


def _network_parameters(n_param: int):
    log_n = max(1.0, math.log2(n_param))
    diameter = 2 * int(math.floor(log_n)) + n_param  # D = Θ(n): long path
    return log_n, diameter


@register_probe("e10.linear_budget")
def _linear_budget_probe(params, seed, repetitions) -> Iterator[dict]:
    """Fixed-q time-invariant broadcast under the c*n round budget."""
    n_param = params["n"]
    q = params["q"]
    _, diameter = _network_parameters(n_param)
    network, structure = theorem44_network(n_param, diameter, return_structure=True)
    budget = int(math.ceil(_TIME_BUDGET_CONSTANT * network.n))
    return gadget_broadcast_samples(
        network,
        TimeInvariantBroadcast(q, source=structure.source),
        spawn_generators(seed + int(q * 10_000), repetitions),
        metric="leaf_tx",
        nodes=np.concatenate(structure.star_leaves),
        reduce=np.mean,
        max_rounds=budget,
    )


def scenario(scale: str = "quick", seed: int = 0) -> ScenarioSpec:
    """The E10 probe grid: a q axis under the linear time budget."""
    n_param = pick(scale, quick=64, full=128)
    repetitions = pick(scale, quick=5, full=15)
    q_values = pick(
        scale,
        quick=[0.3, 0.15, 0.1, 0.05, 0.02],
        full=[0.5, 0.3, 0.2, 0.15, 0.1, 0.075, 0.05, 0.02, 0.01],
    )

    cells = [
        SweepCell(
            coords={"q": q},
            kind="probe",
            probe="e10.linear_budget",
            params={"n": n_param, "q": q},
            repetitions=repetitions,
        )
        for q in q_values
    ]
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
    """Check the energy floor under a linear time budget."""
    spec = scenario(scale, seed)
    cells = run_scenario(spec, processes=processes)

    n_param = spec.parameters["n"]
    diameter = spec.parameters["diameter"]
    log_n = max(1.0, math.log2(n_param))
    network, _ = theorem44_network(n_param, diameter, return_structure=True)
    budget = int(math.ceil(_TIME_BUDGET_CONSTANT * network.n))

    columns = [
        "q",
        "success rate within c*n rounds",
        "rounds (mean, successful)",
        "leaf tx/node (mean, successful)",
        "leaf tx/node / log2^2 n",
    ]
    rows: List[List[object]] = []
    cheapest_successful: Optional[float] = None

    for cell in cells:
        q = cell.coords["q"]
        success_rate = cell.success_rate
        completed = cell.count("leaf_tx") > 0
        mean_energy = cell.mean("leaf_tx")
        rows.append(
            [
                q,
                success_rate,
                cell.mean("rounds"),
                mean_energy,
                mean_energy / (log_n**2) if completed else None,
            ]
        )
        if success_rate >= 0.8 and completed:
            if cheapest_successful is None or mean_energy < cheapest_successful:
                cheapest_successful = mean_energy

    notes = [
        f"network: Theorem 4.4 construction with n={n_param}, D={diameter} "
        f"({network.n} nodes); time budget = {budget} rounds (c = {_TIME_BUDGET_CONSTANT}).",
    ]
    if cheapest_successful is not None:
        notes.append(
            "cheapest reliably-successful time-invariant protocol spends "
            f"{cheapest_successful:.1f} leaf transmissions per node = "
            f"{cheapest_successful / log_n**2:.2f} x log2^2 n — the Corollary 4.5 floor "
            "is Ω(log^2 n) up to its constant."
        )
    else:
        notes.append(
            "no swept q completed reliably within the budget — the energy floor "
            "is trivially respected for this sweep."
        )

    parameters = dict(spec.parameters)
    parameters["time_budget"] = budget
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=columns,
        rows=rows,
        notes=notes,
        parameters=parameters,
    )
