"""Tests for the heuristic strategy portfolio (:mod:`repro.portfolio`)
and the ``solve(strategy=...)`` API redesign.

The contract under test: every registered strategy runs standalone or
raced; the portfolio winner (and the merged counters) is bit-identical
across ``jobs`` counts and backends; a starved member degrades to its
honestly-rescored best-so-far instead of failing the race; stochastic
members reproduce exactly from a seed; and the swap-level sifter runs
on the shared schedule driver.
"""

import numpy as np
import pytest

import repro
from repro import solve
from repro.analysis.counters import OperationCounters
from repro.core import run_fs
from repro.core.budget import (
    Budget,
    parse_ladder,
    run_ladder,
)
from repro.core.checkpoint import FaultInjector, InjectedFault
from repro.core.engine import EngineConfig
from repro.errors import BudgetExceeded, OrderingError
from repro.portfolio import (
    PortfolioResult,
    StrategyResult,
    available_strategies,
    get_strategy,
    run_portfolio,
    run_strategy,
)
from repro.truth_table import TruthTable, obdd_size

TABLE = TruthTable.random(6, seed=21)


def fake_clock(step=0.5):
    """A monotonic clock advancing ``step`` seconds per reading."""
    ticks = [0.0]

    def clock():
        ticks[0] += step
        return ticks[0]

    return clock


class TestRegistry:
    def test_builtin_strategies_registered(self):
        names = available_strategies()
        assert names == tuple(sorted(names))
        for expected in ("sift", "sift_group", "sift_symmetric",
                         "sift_swap", "window3", "window4", "anneal",
                         "influence", "entropy"):
            assert expected in names

    def test_get_strategy_unknown_names_valid_ones(self):
        with pytest.raises(OrderingError, match="sift"):
            get_strategy("teleport")


class TestStrategyResults:
    def test_every_strategy_standalone(self):
        optimum = run_fs(TABLE).mincost + run_fs(TABLE).num_terminals
        for name in available_strategies():
            result = run_strategy(name, TABLE)
            assert isinstance(result, StrategyResult)
            assert result.status == "ok"
            assert result.exact is False
            assert sorted(result.order) == list(range(TABLE.n))
            # Honest size: the reported total matches an independent
            # evaluation of the returned ordering.
            assert result.size == obdd_size(TABLE, list(result.order))
            assert result.size >= optimum

    @pytest.mark.parametrize("name", available_strategies())
    @pytest.mark.parametrize("n, seed", [(5, 2), (5, 3), (6, 7), (7, 0)])
    def test_reported_size_is_the_returned_orders_size(self, name, n, seed):
        # On (5, 2), (6, 7) and (7, 0) sift_group parks a block between
        # two members of another block, which must not desync the size.
        values = np.random.default_rng(seed).integers(0, 2, 1 << n)
        table = TruthTable(n, values)
        result = run_strategy(name, table)
        assert result.size == obdd_size(table, list(result.order))

    def test_anneal_seed_reproducible(self):
        a = run_strategy("anneal", TABLE, seed=5)
        b = run_strategy("anneal", TABLE, seed=5)
        assert a.order == b.order
        assert a.size == b.size
        assert a.evaluations == b.evaluations
        assert a.counters.snapshot() == b.counters.snapshot()

    def test_anneal_seed_changes_search(self):
        runs = {tuple(run_strategy("anneal", TABLE, seed=s).trajectory)
                for s in range(4)}
        assert len(runs) > 1  # different seeds explore differently


class TestDeterminismMatrix:
    def test_same_winner_across_jobs_and_backends(self):
        baseline = None
        for jobs, backend in [(1, "serial"), (4, "serial")]:
            counters = OperationCounters()
            result = run_portfolio(
                TABLE, counters=counters, seed=3,
                config=EngineConfig(jobs=jobs, backend=backend),
            )
            key = (result.winner, result.order, result.size,
                   counters.snapshot())
            if baseline is None:
                baseline = key
            else:
                assert key == baseline, (jobs, backend)

    def test_solve_portfolio_deterministic(self):
        a = solve(TABLE, strategy="portfolio", jobs=1)
        b = solve(TABLE, strategy="portfolio", jobs=4)
        assert a.order == b.order
        assert a.rung == b.rung
        assert a.counters.snapshot() == b.counters.snapshot()

    def test_winner_is_min_size_then_name(self):
        result = run_portfolio(TABLE, seed=3)
        assert isinstance(result, PortfolioResult)
        best = min(result.results, key=lambda r: (r.size, r.name))
        assert result.winner == best.name
        assert result.order == best.order
        # Rows come back sorted by the same deterministic key.
        keys = [(r.size, r.name) for r in result.results]
        assert keys == sorted(keys)


class TestBudgets:
    def test_starved_member_returns_best_so_far(self):
        budget = Budget(deadline=1.0, clock=fake_clock(0.6))
        result = run_strategy("sift", TABLE, budget=budget)
        assert result.status == "budget_exceeded"
        assert result.budget_reason == "deadline"
        assert sorted(result.order) == list(range(TABLE.n))
        # The best-so-far is honestly rescored, not trusted.
        assert result.size == obdd_size(TABLE, list(result.order))

    def test_starved_portfolio_still_returns_winner(self):
        budget = Budget(deadline=1.0, clock=fake_clock(0.5))
        result = run_portfolio(TABLE, budget=budget, seed=3)
        assert sorted(result.order) == list(range(TABLE.n))
        assert result.size == obdd_size(TABLE, list(result.order))
        assert any(r.status == "budget_exceeded" for r in result.results)

    def test_cancellation_propagates(self):
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as excinfo:
            run_strategy("sift", TABLE, budget=budget)
        assert excinfo.value.reason == "cancelled"
        with pytest.raises(BudgetExceeded):
            run_portfolio(TABLE, budget=budget)


class TestSolveStrategyAPI:
    def test_default_strategy_is_exact(self):
        sol = solve(TABLE)
        assert sol.strategy == "exact"
        assert sol.rung is None
        assert sol.exact is True

    def test_named_strategy_solution_shape(self):
        sol = solve(TABLE, strategy="sift")
        assert sol.method == "fs"
        assert sol.strategy == "sift"
        assert sol.rung == "sift"
        assert sol.exact is False
        assert sol.from_cache is False
        assert sol.size == obdd_size(TABLE, list(sol.order))
        wire = sol.to_wire()
        assert wire["strategy"] == "sift"
        assert wire["rung"] == "sift"
        assert wire["exact"] is False

    def test_portfolio_solution_shape(self):
        sol = solve(TABLE, strategy="portfolio", seed=3)
        assert sol.strategy == "portfolio"
        assert sol.rung == sol.result.winner
        assert sol.exact is False
        assert isinstance(sol.result, PortfolioResult)

    def test_fallback_strategy_subsumes_ladder(self):
        sol = solve(TABLE, strategy="fallback")
        assert sol.strategy == "fallback"
        assert sol.rung == "fs"
        assert sol.exact is True
        direct = run_fs(TABLE)
        assert sol.order == direct.order

    def test_fallback_rungs_accepts_strategy_names(self):
        sol = solve(TABLE, strategy="fallback",
                    fallback_rungs="entropy,sift")
        assert sol.rung == "entropy"
        assert sol.exact is False
        assert sol.size == obdd_size(TABLE, list(sol.order))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(OrderingError, match="teleport"):
            solve(TABLE, strategy="teleport")

    def test_strategy_kwarg_cross_validation(self):
        with pytest.raises(TypeError, match="strategies"):
            solve(TABLE, strategies=("sift",))
        with pytest.raises(TypeError, match="fallback_rungs"):
            solve(TABLE, fallback_rungs="fs,sift")
        with pytest.raises(TypeError, match="strategies"):
            solve(TABLE, strategy="sift", strategies=("sift",))
        with pytest.raises(TypeError, match="method"):
            solve(TABLE, strategy="portfolio", method="window")

    def test_engine_kwargs_reach_the_fs_rung(self, tmp_path):
        # Every engine option reaches the ladder's fs rung; the heuristic
        # strategies run no checkpointed sweep for it to act on.
        with pytest.raises(InjectedFault):
            solve(TABLE, strategy="fallback",
                  checkpoint_dir=str(tmp_path / "ck"),
                  fault_injector=FaultInjector(kill_after_layer=2))
        injector = FaultInjector(kill_after_layer=2)
        sol = solve(TABLE, strategy="window3",
                    checkpoint_dir=str(tmp_path / "unused"),
                    fault_injector=injector)
        assert sol.exact is False
        assert injector.commits_seen == 0
        assert not (tmp_path / "unused").exists()
        with pytest.raises(TypeError, match="teleport"):
            solve(TABLE, strategy="sift", teleport=1)


class TestLadderRegistry:
    def test_parse_ladder_accepts_strategy_names(self):
        assert parse_ladder("fs,entropy,anneal") == ("fs", "entropy",
                                                     "anneal")
        with pytest.raises(OrderingError, match="teleport"):
            parse_ladder("fs,teleport")

    def test_run_ladder_strategy_rung_degrades_with_seed(self):
        # First rung (a strategy) starves; its best-so-far seeds the
        # final rung exactly like the built-in rungs do.
        budget = Budget(deadline=1.0, clock=fake_clock(0.6))
        result = run_ladder(
            TABLE, budget=budget, ladder=("anneal", "entropy"),
        )
        assert result.rung == "entropy"
        assert [a.rung for a in result.attempts] == ["anneal", "entropy"]
        assert result.counters.extra.get("fallback_used") == 1

    def test_run_ladder_unknown_rung_rejected_up_front(self):
        with pytest.raises(OrderingError, match="teleport"):
            run_ladder(TABLE, ladder=("fs", "teleport"))


class TestSharedSiftDriver:
    def test_swap_sift_matches_shared_driver(self):
        from repro.bdd.swap import ReorderingBDD

        table = TruthTable.random(5, seed=9)
        manager = ReorderingBDD(5)
        manager.from_truth_table(table)
        before = manager.size()
        order, size = manager.sift()
        assert sorted(order) == list(range(5))
        assert size == obdd_size(table, order)
        assert size <= before


class TestPackageSurface:
    def test_top_level_exports(self):
        for name in ("run_portfolio", "run_strategy",
                     "available_strategies",
                     "PortfolioResult", "StrategyResult", "SearchResult",
                     "sift_search", "window_permutation_search"):
            assert hasattr(repro, name)

    def test_portfolio_vs_exact_sanity(self):
        exact = run_fs(TABLE)
        result = run_portfolio(TABLE, seed=3)
        assert result.size >= exact.mincost + exact.num_terminals
        assert result.exact is False
