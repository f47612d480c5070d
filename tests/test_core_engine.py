"""Tests for the shared execution engine (:mod:`repro.core.engine`).

The engine owns the subset-cardinality sweep for every FS-family DP, so
these tests pin the properties the refactor promises: configuration
validation, bit-identical results and counters under layer parallelism,
and result invariance under the mincost-only frontier policy.
"""

import pytest

from repro._bitops import popcount
from repro.analysis.counters import OperationCounters
from repro.core import (
    EngineConfig,
    FrontierPolicy,
    compact,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    run_layered_sweep,
    window_sweep,
)
from repro.core import engine as engine_module
from repro.core.fs import initial_state
from repro.core.fs_star import fs_star_levels
from repro.functions import achilles_heel, hidden_weighted_bit, majority
from repro.observability import Profiler
from repro.truth_table import TruthTable


def families_n_le_8():
    """Small benchmark families exercising distinct DP shapes."""
    return [
        TruthTable.random(6, seed=1),
        TruthTable.random(8, seed=8),
        achilles_heel(3),          # n=6, huge ordering gap
        hidden_weighted_bit(6),
        majority(7),
    ]


class TestEngineConfig:
    def test_config_rejects_bad_values(self):
        with pytest.raises(TypeError, match="kernel"):
            EngineConfig(kernel="numpy")
        with pytest.raises(TypeError, match="frontier_store"):
            EngineConfig(frontier_store="dict")
        with pytest.raises(ValueError):
            EngineConfig(jobs=0)
        with pytest.raises(ValueError):
            EngineConfig(frontier="sometimes")

    def test_config_coerces_policy_string(self):
        assert EngineConfig(frontier="mincost").frontier is (
            FrontierPolicy.MINCOST_ONLY
        )


class TestLayerParallelism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_run_fs_bit_identical_across_jobs(self, jobs):
        for table in families_n_le_8():
            seq = run_fs(table)
            par = run_fs(table, jobs=jobs)
            assert par.order == seq.order
            assert par.pi == seq.pi
            assert par.mincost == seq.mincost
            assert par.mincost_by_subset == seq.mincost_by_subset
            assert par.best_last == seq.best_last
            assert par.level_cost_by_choice == seq.level_cost_by_choice

    def test_counters_identical_jobs_1_vs_4(self):
        # The deterministic-merge regression: per-worker counters merged
        # in chunk order must tally exactly like the sequential run.
        for table in families_n_le_8():
            seq = run_fs(table, counters=OperationCounters(), jobs=1)
            par = run_fs(table, counters=OperationCounters(), jobs=4)
            assert par.counters == seq.counters
            assert par.counters.snapshot() == seq.counters.snapshot()

    def test_shared_identical_across_jobs(self):
        tables = [TruthTable.random(5, seed=s) for s in (1, 2, 3)]
        seq = run_fs_shared(tables)
        par = run_fs_shared(tables, jobs=3)
        assert par.order == seq.order
        assert par.mincost == seq.mincost
        assert par.mincost_by_subset == seq.mincost_by_subset
        assert par.counters == seq.counters

    def test_constrained_identical_across_jobs(self):
        tt = TruthTable.random(6, seed=9)
        precedence = [(0, 3), (1, 4)]
        seq = run_fs_constrained(tt, precedence)
        par = run_fs_constrained(tt, precedence, jobs=4)
        assert par.order == seq.order
        assert par.mincost == seq.mincost
        assert par.feasible_subsets == seq.feasible_subsets
        assert par.counters == seq.counters

    def test_fs_star_identical_across_jobs(self):
        tt = TruthTable.random(6, seed=11)
        base = initial_state(tt)
        seq_counters = OperationCounters()
        par_counters = OperationCounters()
        seq = fs_star_levels(base, 0b111011, counters=seq_counters, upto=3)
        par = fs_star_levels(
            base, 0b111011, counters=par_counters, upto=3,
            config=EngineConfig(jobs=4),
        )
        assert seq.keys() == par.keys()
        for kmask in seq:
            assert seq[kmask].mincost == par[kmask].mincost
            assert seq[kmask].pi == par[kmask].pi
        assert seq_counters == par_counters


class TestFrontierPolicy:
    def test_optimal_orderings_unchanged_under_mincost_only(self):
        for table in families_n_le_8():
            full = run_fs(table)
            lean = run_fs(table, frontier="mincost")
            assert lean.order == full.order
            assert lean.mincost == full.mincost
            assert lean.mincost_by_subset == full.mincost_by_subset
            assert lean.level_cost_by_choice == full.level_cost_by_choice
            assert lean.optimal_orderings() == full.optimal_orderings()

    def test_paper_counter_law_intact_under_recompute(self):
        # Replay work must live in extra counters only: table_cells keeps
        # the exact n * 3^(n-1) law of Theorem 5.
        from repro.analysis.complexity import fs_table_cells

        tt = TruthTable.random(6, seed=6)
        lean = run_fs(tt, frontier="mincost")
        assert lean.counters.table_cells == fs_table_cells(6)
        assert lean.counters.extra["recompute_compactions"] > 0

    def test_mincost_only_shrinks_peak_frontier(self):
        tt = TruthTable.random(8, seed=8)
        full_profile, lean_profile = Profiler(), Profiler()
        run_fs(tt, profiler=full_profile)
        run_fs(tt, frontier="mincost", profiler=lean_profile)
        assert lean_profile.peak_frontier_bytes < full_profile.peak_frontier_bytes

    def test_mincost_only_with_jobs_still_deterministic(self):
        tt = TruthTable.random(7, seed=7)
        seq = run_fs(tt, frontier="mincost")
        par = run_fs(tt, frontier="mincost", jobs=4)
        assert par.mincost_by_subset == seq.mincost_by_subset
        assert par.counters == seq.counters

    def test_final_layer_materialized_for_fs_star(self):
        # Partial sweeps hand their frontier to further compaction
        # (divide & conquer preprocessing), so even the lean policy must
        # return real tables at the cut.
        tt = TruthTable.random(6, seed=13)
        base = initial_state(tt)
        levels = fs_star_levels(
            base, 0b111111, upto=2,
            config=EngineConfig(frontier="mincost"),
        )
        for state in levels.values():
            assert state.table is not None
            assert state.table.shape == (1 << 4,)

    def test_window_sweep_with_engine_config(self):
        tt = TruthTable.random(6, seed=21)
        default = window_sweep(tt, width=3)
        configured = window_sweep(
            tt, width=3, config=EngineConfig(jobs=2)
        )
        assert configured.order == default.order
        assert configured.size == default.size


class TestSweepContract:
    def test_no_hand_rolled_sweeps_outside_engine(self):
        # The refactor's structural claim: the engine owns the layer
        # sweep; no DP module enumerates subsets_of_size itself anymore.
        import pathlib

        core = pathlib.Path(engine_module.__file__).parent
        for name in ("fs", "shared", "constrained", "window", "fs_star"):
            source = (core / f"{name}.py").read_text()
            assert "subsets_of_size" not in source, (
                f"core/{name}.py re-grew a hand-rolled subset sweep"
            )

    def test_sweep_outcome_universe_relative_masks(self):
        tt = TruthTable.random(5, seed=19)
        state = initial_state(tt)
        outcome = run_layered_sweep(state, (1 << 5) - 1)
        assert set(outcome.frontier) == {(1 << 5) - 1}
        assert 0 in outcome.mincost_by_subset
        assert outcome.subsets_processed == (1 << 5) - 1

    def test_overlapping_universe_rejected(self):
        from repro.errors import DimensionError

        tt = TruthTable.random(4, seed=23)
        placed = compact(initial_state(tt), 1)
        with pytest.raises(DimensionError):
            run_layered_sweep(placed, 0b0010)

    def test_filter_emptying_a_layer_is_an_ordering_error(self):
        from repro.errors import OrderingError

        state = initial_state(TruthTable.random(4, seed=1))
        with pytest.raises(OrderingError, match="size 2"):
            run_layered_sweep(state, 0b1111,
                              subset_filter=lambda mask: popcount(mask) != 2)

    def test_upto_zero_returns_base(self):
        tt = TruthTable.random(4, seed=29)
        state = initial_state(tt)
        outcome = run_layered_sweep(state, 0b1111, upto=0)
        assert outcome.frontier == {0: state}
        assert outcome.subsets_processed == 0
