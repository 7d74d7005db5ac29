"""Tests for the single-run API: the batch engine with one trial."""

import numpy as np
import pytest

from repro.baselines.flooding import DeterministicFlood
from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.radio.batch import BatchBroadcastProtocol
from repro.radio.engine import SimulationEngine, run_protocol


class CountdownBroadcast(BatchBroadcastProtocol):
    """Informs everything via flooding on a path; used to test traces."""

    name = "test-countdown"

    def transmit_masks(self, round_index, running):
        return self.informed.copy()


class TestEngineBasics:
    def test_flood_completes_on_path(self, small_path):
        result = run_protocol(small_path, CountdownBroadcast(source=0), rng=1)
        assert result.completed
        # On a path, flooding needs exactly n-1 rounds from an endpoint.
        assert result.completion_round == small_path.n - 1
        assert result.informed_count == small_path.n

    def test_flood_stalls_on_star_like_collisions(self, tiny_network):
        # Nodes 1 and 2 both feed 3: deterministic flooding collides forever.
        result = run_protocol(
            tiny_network, CountdownBroadcast(source=0), rng=1, max_rounds=30
        )
        assert not result.completed
        assert result.informed_count == 3

    def test_max_rounds_respected(self, small_path):
        result = run_protocol(
            small_path, CountdownBroadcast(source=0), rng=1, max_rounds=3
        )
        assert not result.completed
        assert result.rounds_executed == 3
        assert result.completion_round == 3

    def test_record_rounds(self, small_path):
        result = run_protocol(
            small_path, CountdownBroadcast(source=0), rng=1, record_rounds=True
        )
        assert len(result.rounds) == result.rounds_executed
        curve = result.informed_curve()
        assert curve[-1] == small_path.n
        assert (np.diff(curve) >= 0).all()
        assert result.transmitter_curve()[0] == 1

    def test_keep_arrays(self, small_path):
        result = run_protocol(
            small_path, CountdownBroadcast(source=0), rng=1, keep_arrays=True
        )
        assert result.per_node_transmissions is not None
        assert result.per_node_transmissions.shape == (small_path.n,)
        assert result.informed_round is not None
        assert result.informed_round[0] == 0

    def test_energy_matches_trace(self, small_path):
        result = run_protocol(
            small_path,
            CountdownBroadcast(source=0),
            rng=1,
            keep_arrays=True,
            record_rounds=True,
        )
        assert result.energy.total_transmissions == result.per_node_transmissions.sum()
        assert result.energy.total_transmissions == sum(
            r.transmitters for r in result.rounds
        )

    def test_invalid_max_rounds(self, small_path):
        with pytest.raises(ValueError):
            run_protocol(small_path, CountdownBroadcast(), rng=1, max_rounds=0)

    def test_metadata_carried(self, small_path):
        protocol = DeterministicFlood(source=0)
        result = run_protocol(small_path, protocol, rng=1)
        assert "max_transmissions_per_node" in result.metadata


class TestQuiescenceMode:
    def test_quiescence_keeps_counting_energy(self, small_cliques):
        diameter = 2 * 6 - 1
        stop_at_complete = run_protocol(
            small_cliques, KnownDiameterBroadcast(diameter), rng=5
        )
        to_quiescence = run_protocol(
            small_cliques,
            KnownDiameterBroadcast(diameter),
            rng=5,
            run_to_quiescence=True,
        )
        assert to_quiescence.completed
        assert (
            to_quiescence.energy.total_transmissions
            >= stop_at_complete.energy.total_transmissions
        )
        assert to_quiescence.rounds_executed >= stop_at_complete.rounds_executed

    def test_completion_round_is_first_completion(self, small_cliques):
        diameter = 2 * 6 - 1
        result = run_protocol(
            small_cliques,
            KnownDiameterBroadcast(diameter),
            rng=5,
            run_to_quiescence=True,
        )
        assert result.completed
        assert result.completion_round <= result.rounds_executed

    def test_engine_reuse(self, small_path):
        engine = SimulationEngine()
        r1 = engine.run(small_path, CountdownBroadcast(source=0), rng=1)
        r2 = engine.run(small_path, CountdownBroadcast(source=0), rng=2)
        assert r1.completed and r2.completed


class TestFacade:
    def test_protocol_stays_bound_to_its_one_trial_batch(self, small_path):
        protocol = CountdownBroadcast(source=0)
        result = run_protocol(small_path, protocol, rng=1)
        assert protocol.trials == 1
        assert protocol.informed.shape == (1, small_path.n)
        assert int(protocol.informed_counts()[0]) == result.informed_count

    def test_environment_spec_accepted(self, small_path):
        result = run_protocol(
            small_path,
            CountdownBroadcast(source=0),
            rng=1,
            environment={"name": "iid_loss", "params": {"rx_loss": 0.5}},
        )
        assert result.metadata["environment"]["spec"]["name"] == "iid_loss"

    def test_bad_environment_rejected(self, small_path):
        with pytest.raises(TypeError, match="Environment or a spec dict"):
            SimulationEngine(environment="iid_loss")


class TestDeterminism:
    def test_same_seed_same_result(self, small_gnp):
        a = run_protocol(small_gnp, KnownDiameterBroadcast(4), rng=11)
        b = run_protocol(small_gnp, KnownDiameterBroadcast(4), rng=11)
        assert a.completion_round == b.completion_round
        assert a.energy.total_transmissions == b.energy.total_transmissions

    def test_different_seed_usually_differs(self, small_gnp):
        a = run_protocol(small_gnp, KnownDiameterBroadcast(4), rng=11)
        b = run_protocol(small_gnp, KnownDiameterBroadcast(4), rng=12)
        # They may coincide by chance in completion round, but the full energy
        # footprint matching exactly would be astronomically unlikely.
        assert (
            a.energy.total_transmissions != b.energy.total_transmissions
            or a.completion_round != b.completion_round
        )
