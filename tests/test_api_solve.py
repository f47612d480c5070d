"""Tests for the unified front door (:mod:`repro.api`).

``repro.solve()`` must dispatch to all five DP entry points, return one
:class:`~repro.api.OrderingSolution` shape whose fields agree with the
native ``run_*`` results, pass engine knobs through uniformly, and fail
loudly (naming the offender) on unknown methods or keyword arguments —
while the five ``run_*`` functions stay importable and untouched.
"""

import pytest

import repro
from repro import OrderingSolution, parse, solve
from repro.analysis.counters import OperationCounters
from repro.core import (
    initial_state,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    run_fs_star,
    window_sweep,
)
from repro.core.fs import FSResult, terminal_values
from repro.core.spec import ReductionRule
from repro.core.window import WindowResult
from repro.observability import Profiler
from repro.truth_table import TruthTable


TABLE = TruthTable.random(6, seed=13)


class TestSolveDispatch:
    def test_fs_matches_run_fs(self):
        direct = run_fs(TABLE)
        sol = solve(TABLE)
        assert isinstance(sol, OrderingSolution)
        assert sol.method == "fs"
        assert sol.exact is True
        assert sol.mincost == direct.mincost
        assert sol.order == direct.order
        assert sol.n == TABLE.n
        assert sol.rule == ReductionRule.BDD
        assert sol.num_terminals == direct.num_terminals
        assert sol.size == direct.mincost + direct.num_terminals
        assert isinstance(sol.result, FSResult)

    def test_fs_accepts_expressions(self):
        from repro.expr import to_truth_table

        sol = solve(parse("x0 & x1 | x2 & x3"))
        assert sol.mincost == run_fs(
            to_truth_table(parse("x0 & x1 | x2 & x3"))).mincost

    def test_shared_matches_run_fs_shared(self):
        tables = [TruthTable.random(5, seed=s) for s in (1, 2)]
        direct = run_fs_shared(tables)
        sol = solve(tables, method="shared")
        assert sol.method == "shared"
        assert sol.exact is True
        assert sol.mincost == direct.mincost
        assert sol.order == direct.order

    def test_constrained_matches_run_fs_constrained(self):
        precedence = [(0, 2), (1, 3)]
        direct = run_fs_constrained(TABLE, precedence)
        sol = solve(TABLE, method="constrained", precedence=precedence)
        assert sol.method == "constrained"
        assert sol.exact is True
        assert sol.mincost == direct.mincost
        assert sol.order == direct.order

    def test_constrained_requires_precedence(self):
        with pytest.raises(TypeError, match="precedence"):
            solve(TABLE, method="constrained")

    def test_window_matches_window_sweep(self):
        direct = window_sweep(TABLE, width=3)
        sol = solve(TABLE, method="window", width=3)
        assert sol.method == "window"
        assert sol.exact is False  # locally exact, globally heuristic
        assert sol.mincost == direct.size
        assert sol.order == direct.order
        assert isinstance(sol.result, WindowResult)
        assert sol.num_terminals == len(
            terminal_values(TABLE, ReductionRule.BDD))

    def test_window_respects_initial_order_and_width(self):
        initial = tuple(reversed(range(TABLE.n)))
        direct = window_sweep(TABLE, initial_order=initial, width=4,
                              max_rounds=2)
        sol = solve(TABLE, method="window", initial_order=initial,
                    width=4, max_rounds=2)
        assert sol.order == direct.order
        assert sol.mincost == direct.size

    def test_fs_star_matches_run_fs_star(self):
        base = initial_state(TruthTable.random(5, seed=7))
        direct = run_fs_star(base, 0b11111)
        sol = solve(base, method="fs_star", j_mask=0b11111)
        assert sol.method == "fs_star"
        assert sol.exact is True
        assert sol.mincost == direct.mincost
        assert sol.order == tuple(reversed(direct.pi))
        assert sol.result.pi == direct.pi

    def test_fs_star_requires_fsstate_and_j_mask(self):
        with pytest.raises(TypeError, match="FSState"):
            solve(TABLE, method="fs_star", j_mask=0b1)
        base = initial_state(TruthTable.random(4, seed=1))
        with pytest.raises(TypeError, match="j_mask"):
            solve(base, method="fs_star")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="teleport"):
            solve(TABLE, method="teleport")


class TestSolveEngineKwargs:
    def test_unknown_kwarg_named_in_error(self):
        with pytest.raises(TypeError, match="turbo"):
            solve(TABLE, turbo=True)

    @pytest.mark.parametrize("strategy", ["exact", "fallback", "portfolio"])
    def test_frontier_store_kwarg_is_gone(self, strategy):
        with pytest.raises(TypeError, match="frontier_store"):
            solve(TABLE, strategy=strategy, frontier_store="dict")

    def test_backend_and_jobs_pass_through(self):
        baseline = solve(TABLE)
        for method_kwargs in (
            {"backend": "serial"},
            {"backend": "thread", "jobs": 4},
            {"backend": "process", "jobs": 2},
        ):
            sol = solve(TABLE, **method_kwargs)
            assert sol.mincost == baseline.mincost
            assert sol.order == baseline.order

    def test_engine_kwargs_reach_window_config(self):
        direct = window_sweep(TABLE, width=3)
        sol = solve(TABLE, method="window", width=3, backend="serial",
                    jobs=1)
        assert sol.mincost == direct.size

    def test_profiler_attached_and_returned(self):
        profiler = Profiler()
        sol = solve(TABLE, profiler=profiler)
        assert sol.profile is profiler
        assert profiler.layers  # the sweep actually recorded into it

    def test_counters_sink_used(self):
        counters = OperationCounters()
        sol = solve(TABLE, counters=counters)
        assert counters.subsets_processed > 0
        assert sol.counters.snapshot() == counters.snapshot()


class TestEntryPointsStayPublic:
    def test_run_functions_importable_from_top_level(self):
        for name in ("run_fs", "run_fs_shared", "run_fs_star",
                     "window_sweep", "find_optimal_ordering",
                     "solve", "OrderingSolution"):
            assert hasattr(repro, name)

    def test_methods_tuple_is_the_contract(self):
        from repro.api import METHODS

        assert METHODS == ("fs", "shared", "constrained", "window",
                           "fs_star")
