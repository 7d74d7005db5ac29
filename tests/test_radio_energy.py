"""Tests for energy accounting."""

import numpy as np
import pytest

from repro.radio.energy import BatchEnergyAccountant


class TestBatchEnergyAccountant:
    def test_initial_state(self):
        acc = BatchEnergyAccountant(2, 4)
        assert acc.per_node().sum() == 0
        assert acc.rounds_recorded == 0
        assert (acc.trials, acc.n) == (2, 4)

    def test_record_flat_counts(self):
        acc = BatchEnergyAccountant(2, 4)
        acc.record_flat(np.array([0, 2, 5]))
        assert acc.per_node(0).tolist() == [1, 0, 1, 0]
        assert acc.per_node(1).tolist() == [0, 1, 0, 0]

    def test_accumulation(self):
        acc = BatchEnergyAccountant(1, 3)
        acc.record_flat(np.array([0, 1]))
        acc.record_flat(np.array([0]))
        assert acc.per_node(0).tolist() == [2, 1, 0]
        assert acc.rounds_recorded == 2

    def test_report_fields(self):
        acc = BatchEnergyAccountant(1, 4)
        acc.record_flat(np.array([0, 1, 2]))
        acc.record_flat(np.array([0]))
        (report,) = acc.reports_for([0])
        assert report.total_transmissions == 4
        assert report.max_per_node == 2
        assert report.mean_per_node == pytest.approx(1.0)
        assert report.transmitting_nodes == 3
        assert report.n == 4

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 21])
    def test_vectorised_reports_match_numpy_statistics(self, n):
        counts = np.random.default_rng(n).integers(0, 7, size=(3, n))
        acc = BatchEnergyAccountant(3, n)
        acc.record_flat(np.flatnonzero(counts.reshape(-1) > 0))
        acc._per_node[:] = counts
        for trial, report in zip([2, 0], acc.reports_for([2, 0])):
            row = counts[trial]
            assert report.median_per_node == float(np.median(row))
            assert report.p95_per_node == float(np.percentile(row, 95))
            assert report.total_transmissions == int(row.sum())

    def test_report_as_dict(self):
        acc = BatchEnergyAccountant(1, 2)
        acc.record_flat(np.array([0]))
        d = acc.reports_for([0])[0].as_dict()
        assert d["total_transmissions"] == 1
        assert set(d) >= {"max_per_node", "mean_per_node", "median_per_node"}

    def test_select_rows(self):
        acc = BatchEnergyAccountant(3, 2)
        acc.record_flat(np.array([0, 3, 5]))
        acc.select_rows(np.array([False, True, True]))
        assert acc.trials == 2
        assert acc.per_node().tolist() == [[0, 1], [0, 1]]

    @pytest.mark.parametrize("trials,n", [(0, 3), (2, 0)])
    def test_invalid_shape(self, trials, n):
        with pytest.raises(ValueError):
            BatchEnergyAccountant(trials, n)

    def test_per_node_is_copy(self):
        acc = BatchEnergyAccountant(1, 2)
        acc.record_flat(np.array([0]))
        snapshot = acc.per_node(0)
        snapshot[0] = 99
        assert acc.per_node(0)[0] == 1

    def test_repr(self):
        assert "BatchEnergyAccountant" in repr(BatchEnergyAccountant(1, 2))
