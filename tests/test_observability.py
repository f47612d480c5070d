"""Tests for :mod:`repro.observability` (profiler + frontier accounting)."""

import json

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    FrontierPolicy, ReductionRule, run_fs, run_fs_shared,
)
from repro.observability import LayerProfile, Profiler
from repro.truth_table import TruthTable


class TestProfiler:
    def test_phases_accumulate(self):
        profiler = Profiler()
        with profiler.phase("work"):
            pass
        first = profiler.phases["work"]
        with profiler.phase("work"):
            pass
        assert profiler.phases["work"] > first

    def test_record_layer_tracks_peak(self):
        profiler = Profiler()
        profiler.record_layer(1, 4, 0.1, 4, 1000)
        profiler.record_layer(2, 6, 0.2, 6, 5000)
        profiler.record_layer(3, 4, 0.1, 4, 2000)
        assert profiler.peak_frontier_bytes == 5000
        assert profiler.total_layer_seconds == pytest.approx(0.4)
        assert [layer.k for layer in profiler.layers] == [1, 2, 3]

    def test_to_dict_and_json_roundtrip(self):
        profiler = Profiler(meta={"n": 4})
        profiler.record_layer(1, 4, 0.1, 4, 1000, {"table_cells": 32})
        data = json.loads(profiler.to_json())
        assert data["meta"] == {"n": 4}
        assert data["peak_frontier_bytes"] == 1000
        assert data["layers"][0]["counters"] == {"table_cells": 32}

    def test_write(self, tmp_path):
        profiler = Profiler()
        profiler.record_layer(1, 1, 0.0, 1, 10)
        path = tmp_path / "profile.json"
        profiler.write(str(path))
        assert json.loads(path.read_text())["layers"][0]["frontier_bytes"] == 10

    def test_layer_profile_to_dict(self):
        layer = LayerProfile(2, 6, 0.5, 6, 4096, {"compactions": 12})
        data = layer.to_dict()
        assert data == {
            "k": 2,
            "subsets": 6,
            "wall_seconds": 0.5,
            "frontier_states": 6,
            "frontier_bytes": 4096,
            "counters": {"compactions": 12},
        }


class TestEngineIntegration:
    def test_run_fs_records_one_layer_per_cardinality(self):
        tt = TruthTable.random(6, seed=6)
        profiler = Profiler()
        run_fs(tt, profiler=profiler)
        assert [layer.k for layer in profiler.layers] == list(range(1, 7))
        assert [layer.subsets for layer in profiler.layers] == [
            6, 15, 20, 15, 6, 1
        ]
        assert profiler.meta["n"] == 6
        assert profiler.meta["kernel"] == "numpy"
        assert "prepare" in profiler.phases

    @pytest.mark.parametrize("n, rule, itemsize", [
        (7, ReductionRule.BDD, 1),
        (7, ReductionRule.CBDD, 2),
        (8, ReductionRule.BDD, 2),
    ])
    def test_layer_bytes_are_exact(self, n, rule, itemsize):
        # int64 masks and mincosts per row, plus (under FULL, and always
        # in the last layer) 2^(n-k) cells at the narrowest unsigned
        # dtype holding num_terminals + 2^n, doubled for CBDD edges.
        tt = TruthTable.random(n, seed=n)
        for policy in FrontierPolicy:
            profiler = Profiler()
            run_fs(tt, rule=rule, frontier=policy, profiler=profiler)
            for layer in profiler.layers:
                full = policy is FrontierPolicy.FULL or layer.k == n
                cells = (1 << (n - layer.k)) * itemsize if full else 0
                assert layer.frontier_bytes == layer.subsets * (16 + cells)

    def test_layer_counters_are_cumulative_snapshots(self):
        from repro.analysis.complexity import fs_table_cells

        tt = TruthTable.random(5, seed=5)
        profiler = Profiler()
        run_fs(tt, profiler=profiler)
        cells = [layer.counters["table_cells"] for layer in profiler.layers]
        assert cells == sorted(cells)
        assert cells[-1] == fs_table_cells(5)

    def test_shared_run_profiles_too(self):
        tables = [TruthTable.random(4, seed=s) for s in (1, 2)]
        profiler = Profiler()
        run_fs_shared(tables, profiler=profiler)
        assert len(profiler.layers) == 4
        assert profiler.peak_frontier_bytes > 0

    def test_counters_diff_matches_layer_deltas(self):
        before = OperationCounters()
        after = OperationCounters()
        after.table_cells = 10
        after.compactions = 2
        after.add_extra("recompute_cells", 7)
        assert after.diff(before) == {
            "table_cells": 10,
            "compactions": 2,
            "recompute_cells": 7,
        }
        assert before.copy() == before
