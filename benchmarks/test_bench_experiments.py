"""Benchmarks E1–E16: each experiment once, at quick scale with seed 0.

Each case regenerates one experiment's table (run with ``-s`` to see it)
through the ``experiment_runner`` fixture, which times the run with the
result store off.  The case ids name the experiment and its subject.
"""

import pytest

EXPERIMENTS = {
    "E1": "e1_broadcast_random",  # Theorem 2.1 on G(n, p)
    "E2": "e2_phase_growth",  # Lemmas 2.3-2.5: Algorithm 1's active set
    "E3": "e3_diameter",  # Lemma 3.1: diameter of directed G(n, p)
    "E4": "e4_gossip",  # Theorem 3.2: Algorithm 2 gossip
    "E5": "e5_general_broadcast",  # Theorem 4.1: Algorithm 3 vs Czumaj-Rytter
    "E6": "e6_tradeoff",  # Theorem 4.2: the time/energy tradeoff
    "E7": "e7_lowerbound_total",  # Observation 4.3 on the relay network
    "E8": "e8_lowerbound_tradeoff",  # Theorem 4.4 / Fig. 2
    "E9": "e9_distributions",  # Fig. 1: the alpha vs alpha' distributions
    "E10": "e10_corollary45",  # Corollary 4.5 under a c*n time budget
    "E11": "e11_ablation_phase2",  # Phase 2 of Algorithm 1
    "E12": "e12_ablation_beta",  # the beta constants of Algorithms 1 and 3
    "E13": "e13_geometric",  # random geometric (sensor-field) networks
    "E14": "e14_protocol_comparison",  # every protocol side by side
    "E15": "e15_erasure_robustness",  # erasure (fading) ablation
    "E16": "e16_gossip_baselines",  # Algorithm 2 vs composed gossip
}


@pytest.mark.parametrize(
    "experiment_id", list(EXPERIMENTS), ids=list(EXPERIMENTS.values())
)
def test_bench_experiment(benchmark, experiment_runner, experiment_id):
    result = experiment_runner(benchmark, experiment_id)
    assert result.rows
