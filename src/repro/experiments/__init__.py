"""Experiment harness: one module per theorem/figure reproduced.

Every experiment module exposes

* ``EXPERIMENT_ID`` — e.g. ``"E1"``;
* ``TITLE`` and ``CLAIM`` — what the paper states;
* ``run(scale="quick", seed=0, processes=None) -> ExperimentResult`` — run
  the workload and return the table the paper's claim is checked against.

``scale`` selects the sweep size: ``"quick"`` keeps wall-clock in seconds
(used by the benchmarks and CI), ``"full"`` runs the sweep reported in
EXPERIMENTS.md.

The registry (:mod:`repro.experiments.registry`) maps experiment ids to
modules; the CLI (``python -m repro``) and the benchmark suite both go
through it.
"""

from repro.experiments.protocols import ProtocolSpec, build_protocol
from repro.experiments.registry import all_experiments, get_experiment, run_experiment
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import Job, aggregate_runs, execute_job

__all__ = [
    "ExperimentResult",
    "ProtocolSpec",
    "build_protocol",
    "Job",
    "execute_job",
    "aggregate_runs",
    "all_experiments",
    "get_experiment",
    "run_experiment",
]
