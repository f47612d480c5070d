"""Unit tests for ordering-sensitivity statistics."""

import pytest

from repro.analysis.sensitivity import (
    heuristic_percentile,
    ordering_sensitivity,
)
from repro.core import run_fs
from repro.errors import DimensionError
from repro.functions import achilles_heel, parity, threshold
from repro.truth_table import TruthTable


class TestExhaustive:
    def test_achilles_extremes(self):
        report = ordering_sensitivity(achilles_heel(3))
        assert report.exhaustive
        assert report.orderings_examined == 720
        assert report.minimum == 6   # figure 1 good order, internal nodes
        assert report.maximum == 14  # figure 1 bad order

    def test_symmetric_functions_are_insensitive(self):
        for table in (parity(5), threshold(5, 2)):
            report = ordering_sensitivity(table)
            assert report.spread == 1.0
            assert report.stddev == 0.0

    def test_minimum_equals_fs_optimum(self):
        table = TruthTable.random(5, seed=1)
        report = ordering_sensitivity(table)
        assert report.minimum == run_fs(table).mincost

    def test_large_n_rejected(self):
        with pytest.raises(DimensionError):
            ordering_sensitivity(TruthTable.random(9, seed=0))

    def test_zero_vars_rejected(self):
        with pytest.raises(DimensionError):
            ordering_sensitivity(TruthTable(0, [1]))


class TestSampled:
    def test_sampled_brackets_truth(self):
        table = TruthTable.random(6, seed=2)
        exhaustive = ordering_sensitivity(table)
        sampled = ordering_sensitivity(table, sample=100, seed=0)
        assert not sampled.exhaustive
        assert exhaustive.minimum <= sampled.minimum
        assert sampled.maximum <= exhaustive.maximum

    def test_sample_includes_natural_order(self):
        from repro.truth_table import count_subfunctions

        table = achilles_heel(3)  # natural order is optimal
        sampled = ordering_sensitivity(table, sample=1, seed=3)
        assert sampled.minimum == sum(
            count_subfunctions(table, list(range(6)))
        )

    def test_sample_validation(self):
        with pytest.raises(DimensionError):
            ordering_sensitivity(TruthTable.random(4, seed=0), sample=0)

    def test_reproducible(self):
        table = TruthTable.random(7, seed=4)
        a = ordering_sensitivity(table, sample=30, seed=5)
        b = ordering_sensitivity(table, sample=30, seed=5)
        assert (a.minimum, a.maximum, a.mean) == (b.minimum, b.maximum, b.mean)


class TestPercentile:
    def test_optimum_beats_everything(self):
        table = achilles_heel(3)
        optimum = run_fs(table).mincost
        assert heuristic_percentile(table, optimum, sample=50, seed=0) == 1.0

    def test_terrible_result_beats_nothing(self):
        table = achilles_heel(3)
        assert heuristic_percentile(table, 10 ** 6, sample=50, seed=0) == 0.0

    def test_monotone_in_size(self):
        table = TruthTable.random(6, seed=6)
        p_small = heuristic_percentile(table, 10, sample=80, seed=7)
        p_large = heuristic_percentile(table, 30, sample=80, seed=7)
        assert p_small >= p_large
