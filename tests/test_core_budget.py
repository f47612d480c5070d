"""Resource-governance tests: budgets, cancellation, degradation.

The contract under test (ISSUE acceptance criteria): every DP entry
point on the shared execution engine aborts *at a layer boundary* —
never mid-kernel — when its :class:`~repro.core.budget.Budget` trips,
deterministically for any ``jobs`` value; the raised
:class:`~repro.errors.BudgetExceeded` records progress (layers
completed, best-so-far bound, last committed checkpoint); an aborted
checkpointed run resumed with a bigger (or no) budget reproduces the
unbudgeted result bit-identically in results and counters; and the
degradation ladder always yields an ordering, honestly tagged with the
rung that produced it.
"""

import threading

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    Budget,
    DEFAULT_LADDER,
    EngineConfig,
    FallbackResult,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    handle_signals,
    initial_state,
    parse_ladder,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    run_fs_star,
    run_ladder,
    window_sweep,
)
from repro.core.spec import ReductionRule
from repro.errors import BudgetExceeded, OrderingError
from repro.observability import Profiler
from repro.truth_table import TruthTable, obdd_size


def fake_clock(step=0.5):
    """A monotonic clock advancing ``step`` seconds per reading."""
    ticks = [0.0]

    def clock():
        ticks[0] += step
        return ticks[0]

    return clock


def assert_same_result(resumed, clean):
    assert resumed.order == clean.order
    assert resumed.pi == clean.pi
    assert resumed.mincost == clean.mincost
    assert resumed.counters == clean.counters


# ----------------------------------------------------------------------
# the Budget object itself
# ----------------------------------------------------------------------

class TestBudgetUnit:
    def test_default_budget_never_trips(self):
        budget = Budget()
        budget.arm()
        budget.check(frontier_entries=10**9, frontier_bytes=10**12)
        assert budget.remaining() is None
        assert not budget.cancelled()

    def test_deadline_with_fake_clock(self):
        budget = Budget(deadline=1.0, clock=fake_clock(0.4))
        assert budget.elapsed() == 0.0  # not armed yet
        budget.arm()
        assert budget.exceeded_reason() is None  # elapsed 0.4
        assert budget.exceeded_reason() is None  # elapsed 0.8
        verdict = budget.exceeded_reason()       # elapsed 1.2
        assert verdict is not None and verdict[0] == "deadline"

    def test_arm_is_idempotent(self):
        clock = fake_clock(1.0)
        budget = Budget(deadline=10.0, clock=clock)
        budget.arm()
        first = budget.elapsed()
        budget.arm()  # must not restart the clock
        assert budget.elapsed() > first

    def test_priority_cancelled_over_deadline_over_caps(self):
        budget = Budget(deadline=0.0, max_frontier_entries=1,
                        max_frontier_bytes=1, clock=fake_clock())
        budget.arm()
        assert budget.exceeded_reason(99, 99)[0] == "deadline"
        budget.cancel.set()
        assert budget.exceeded_reason(99, 99)[0] == "cancelled"

    def test_frontier_caps_order(self):
        budget = Budget(max_frontier_entries=5, max_frontier_bytes=100)
        budget.arm()
        assert budget.exceeded_reason(6, 50)[0] == "frontier_entries"
        assert budget.exceeded_reason(5, 101)[0] == "frontier_bytes"
        assert budget.exceeded_reason(5, 100) is None

    def test_check_raises_with_progress_and_tallies_once(self):
        counters = OperationCounters()
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as info:
            budget.check(counters=counters, layers_completed=3,
                         best_bound=17, best_order=(2, 0, 1),
                         checkpoint_path="/tmp/x.json", where="test site")
        exc = info.value
        assert exc.reason == "cancelled"
        assert exc.layers_completed == 3
        assert exc.best_bound == 17
        assert exc.best_order == (2, 0, 1)
        assert exc.checkpoint_path == "/tmp/x.json"
        assert exc.where == "test site"
        assert counters.extra["budget_aborts"] == 1

    def test_subbudget_shares_cancel_and_caps(self):
        parent = Budget(deadline=100.0, max_frontier_entries=7)
        child = parent.subbudget(1.0)
        assert child.deadline == 1.0
        assert child.max_frontier_entries == 7
        parent.cancel.set()
        assert child.cancelled()

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)
        with pytest.raises(ValueError):
            Budget(max_frontier_entries=0)
        with pytest.raises(ValueError):
            Budget(max_frontier_bytes=0)


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(max_retries=3, base_delay=0.1,
                             sleep=sleeps.append)
        calls = [0]

        def flaky():
            calls[0] += 1
            if calls[0] <= 2:
                raise OSError("blip")
            return "done"

        assert policy.run(flaky) == "done"
        assert calls[0] == 3
        assert policy.retries_used == 2
        assert sleeps == [0.1, 0.2]  # exponential backoff

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_retries=1, sleep=lambda s: None)
        with pytest.raises(OSError):
            policy.run(lambda: (_ for _ in ()).throw(OSError("always")))
        assert policy.retries_used == 1

    def test_non_retryable_propagates_immediately(self):
        policy = RetryPolicy(max_retries=5, sleep=lambda s: None)
        calls = [0]

        def bad():
            calls[0] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.run(bad)
        assert calls[0] == 1


# ----------------------------------------------------------------------
# engine-level aborts: deterministic, at layer boundaries, resumable
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 4])
class TestEngineAborts:
    def test_deadline_abort_at_layer_boundary(self, jobs):
        table = TruthTable.random(6, seed=1)
        counters = OperationCounters()
        budget = Budget(deadline=1.0, clock=fake_clock(0.2))
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, counters=counters, jobs=jobs, budget=budget)
        exc = info.value
        assert exc.reason == "deadline"
        assert "layer boundary" in exc.where
        assert exc.layers_completed is not None
        assert exc.best_bound is not None
        assert counters.extra["budget_aborts"] == 1

    def test_abort_layer_independent_of_jobs(self, jobs):
        # Checks run only from the coordinator thread, so with identical
        # (fake) clocks the abort point is the same for every jobs value.
        table = TruthTable.random(6, seed=2)

        def aborted_layer(j):
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, jobs=j, budget=Budget(
                    deadline=1.0, clock=fake_clock(0.25)))
            return info.value.layers_completed, info.value.where

        assert aborted_layer(jobs) == aborted_layer(1)

    def test_frontier_entries_cap(self, jobs):
        table = TruthTable.random(7, seed=3)
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, jobs=jobs, budget=Budget(max_frontier_entries=10))
        exc = info.value
        # C(7, k) first exceeds 10 at k=2 (21 subsets).
        assert exc.reason == "frontier_entries"
        assert exc.layers_completed == 2
        assert "after k=2" in exc.where

    def test_frontier_bytes_cap(self, jobs):
        table = TruthTable.random(7, seed=3)
        profiler = Profiler()
        run_fs(table, profiler=profiler)
        # A cap one byte below the largest exact layer (masks, mincosts
        # and the uint8 table matrix) aborts after exactly that layer.
        peak = max(profiler.layers, key=lambda layer: layer.frontier_bytes)
        assert peak.frontier_bytes == peak.subsets * (16 + (1 << (7 - peak.k)))
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, jobs=jobs, budget=Budget(
                max_frontier_bytes=peak.frontier_bytes - 1))
        assert info.value.reason == "frontier_bytes"
        assert info.value.layers_completed == peak.k

    def test_cancellation_abort(self, jobs):
        table = TruthTable.random(6, seed=4)
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, jobs=jobs, budget=budget)
        assert info.value.reason == "cancelled"
        assert info.value.layers_completed == 0

    def test_abort_names_checkpoint_and_resume_is_bit_identical(
            self, jobs, tmp_path):
        table = TruthTable.random(6, seed=5)
        clean = run_fs(table, counters=OperationCounters(), jobs=jobs)
        ckpt = str(tmp_path / "gov")
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, counters=OperationCounters(), jobs=jobs,
                   checkpoint_dir=ckpt,
                   budget=Budget(deadline=1.0, clock=fake_clock(0.3)))
        exc = info.value
        assert exc.layers_completed >= 1
        assert exc.checkpoint_path is not None  # the committed layer
        resumed = run_fs(table, counters=OperationCounters(), jobs=jobs,
                         checkpoint_dir=ckpt, resume=True)
        assert_same_result(resumed, clean)

    def test_resume_with_bigger_budget_is_bit_identical(self, jobs, tmp_path):
        table = TruthTable.random(6, seed=6)
        clean = run_fs(table, counters=OperationCounters(), jobs=jobs)
        ckpt = str(tmp_path / "gov2")
        with pytest.raises(BudgetExceeded):
            run_fs(table, counters=OperationCounters(), jobs=jobs,
                   checkpoint_dir=ckpt,
                   budget=Budget(deadline=1.0, clock=fake_clock(0.3)))
        resumed = run_fs(table, counters=OperationCounters(), jobs=jobs,
                         checkpoint_dir=ckpt, resume=True,
                         budget=Budget(deadline=3600.0))
        assert_same_result(resumed, clean)


@pytest.mark.parametrize("jobs", [1, 4])
class TestFaultAndBudgetMatrix:
    """FaultInjector kills + budget governance composed: every kill
    point resumes bit-identically even when the resumed run itself is
    governed by a (generous) deadline."""

    def test_kill_at_every_layer_then_resume_under_deadline(
            self, jobs, tmp_path):
        table = TruthTable.random(5, seed=7)
        clean = run_fs(table, counters=OperationCounters(), jobs=jobs)
        for k in range(1, 5):
            ckpt = str(tmp_path / f"k{k}")
            with pytest.raises(InjectedFault):
                run_fs(table, counters=OperationCounters(), jobs=jobs,
                       checkpoint_dir=ckpt,
                       budget=Budget(deadline=3600.0),
                       fault_injector=FaultInjector(kill_after_layer=k))
            resumed = run_fs(table, counters=OperationCounters(), jobs=jobs,
                             checkpoint_dir=ckpt, resume=True,
                             budget=Budget(deadline=3600.0))
            assert_same_result(resumed, clean)

    def test_resume_already_over_budget_aborts_before_any_layer(
            self, jobs, tmp_path):
        table = TruthTable.random(5, seed=8)
        ckpt = str(tmp_path / "over")
        with pytest.raises(InjectedFault):
            run_fs(table, counters=OperationCounters(), jobs=jobs,
                   checkpoint_dir=ckpt,
                   fault_injector=FaultInjector(kill_after_layer=2))
        exhausted = Budget(deadline=0.0, clock=fake_clock())
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, counters=OperationCounters(), jobs=jobs,
                   checkpoint_dir=ckpt, resume=True, budget=exhausted)
        exc = info.value
        # The pre-layer check fires before k=3 touches any kernel, and
        # still names the restored checkpoint for the next resume.
        assert exc.layers_completed == 2
        assert "before k=3" in exc.where
        assert exc.checkpoint_path is not None


# ----------------------------------------------------------------------
# every other engine-backed entry point honors the budget
# ----------------------------------------------------------------------

class TestEntryPointCoverage:
    def test_run_fs_shared(self):
        tables = [TruthTable.random(5, seed=s) for s in (1, 2)]
        with pytest.raises(BudgetExceeded) as info:
            run_fs_shared(tables, budget=Budget(
                deadline=1.0, clock=fake_clock(0.4)))
        assert info.value.reason == "deadline"
        assert "layer boundary" in info.value.where

    def test_run_fs_constrained(self):
        table = TruthTable.random(5, seed=3)
        with pytest.raises(BudgetExceeded) as info:
            run_fs_constrained(table, [(0, 1)], budget=Budget(
                deadline=1.0, clock=fake_clock(0.4)))
        assert info.value.reason == "deadline"

    def test_run_fs_star_entry_check(self):
        table = TruthTable.random(5, seed=4)
        base = initial_state(table, ReductionRule.BDD)
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as info:
            run_fs_star(base, (1 << 5) - 1, config=EngineConfig(budget=budget))
        assert info.value.reason == "cancelled"

    def test_window_sweep_carries_sweep_progress(self):
        table = TruthTable.random(6, seed=5)
        budget = Budget(deadline=2.0, clock=fake_clock(0.3))
        counters = OperationCounters()
        with pytest.raises(BudgetExceeded) as info:
            window_sweep(table, width=3, counters=counters,
                         config=EngineConfig(budget=budget))
        exc = info.value
        # Whatever tripped (the window boundary or an inner FS* layer),
        # the surfaced progress is the sweep's: a full valid ordering
        # and the total size it achieves.
        assert sorted(exc.best_order) == list(range(6))
        assert exc.best_bound >= 1

    def test_budget_check_runs_under_profiler_phase(self):
        table = TruthTable.random(5, seed=6)
        profiler = Profiler()
        with pytest.raises(BudgetExceeded):
            run_fs(table, profiler=profiler,
                   budget=Budget(deadline=1.0, clock=fake_clock(0.3)))
        assert "budget_check" in profiler.phases


# ----------------------------------------------------------------------
# the degradation ladder
# ----------------------------------------------------------------------

class TestFallbackLadder:
    def test_no_pressure_exact_rung_matches_run_fs(self):
        table = TruthTable.random(6, seed=10)
        clean = run_fs(table)
        fb = run_ladder(table)
        assert isinstance(fb, FallbackResult)
        assert fb.exact and fb.rung == "fs"
        assert fb.order == clean.order
        assert fb.mincost == clean.mincost
        assert [a.rung for a in fb.attempts] == ["fs"]
        assert "fallback_used" not in fb.counters.extra

    def test_deadline_degrades_to_sift_and_tags_result(self):
        table = TruthTable.random(7, seed=11)
        budget = Budget(deadline=1.0, clock=fake_clock(0.6))
        fb = run_ladder(table, budget=budget)
        assert not fb.exact
        assert fb.rung == "sift"
        assert [a.rung for a in fb.attempts] == ["fs", "window", "sift"]
        assert [a.status for a in fb.attempts] == [
            "budget_exceeded", "budget_exceeded", "ok"]
        assert fb.counters.extra["fallback_used"] == 1
        assert fb.counters.extra["budget_aborts"] >= 2
        # The reported size is the honest cost of the returned ordering.
        assert sorted(fb.order) == list(range(7))
        assert fb.size == obdd_size(table, fb.order)

    def test_last_rung_ignores_deadline_so_ladder_is_total(self):
        table = TruthTable.random(6, seed=12)
        budget = Budget(deadline=0.5, clock=fake_clock(0.6))  # instantly over
        fb = run_ladder(table, budget=budget, ladder=("fs", "window"))
        assert fb.rung == "window"
        assert fb.result.name == "window3"  # the registered strategy
        assert not fb.exact
        assert fb.size == obdd_size(table, fb.order)

    def test_sift_rung_above_the_last_honours_its_share(self):
        table = TruthTable.random(7, seed=18)
        budget = Budget(deadline=1.0, clock=fake_clock(0.2))
        fb = run_ladder(table, budget=budget, ladder=("sift", "window"))
        assert fb.rung == "window"
        assert [(a.rung, a.status) for a in fb.attempts] == [
            ("sift", "budget_exceeded"), ("window", "ok")]
        assert fb.size == obdd_size(table, fb.order)

    def test_window_rung_bound_is_at_least_optimal(self):
        table = TruthTable.random(6, seed=13)
        clean = run_fs(table)
        budget = Budget(deadline=0.5, clock=fake_clock(0.6))
        fb = run_ladder(table, budget=budget)
        assert fb.mincost >= clean.mincost  # an upper bound, never below

    def test_cancellation_propagates_out_of_the_ladder(self):
        table = TruthTable.random(6, seed=14)
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as info:
            run_ladder(table, budget=budget)
        assert info.value.reason == "cancelled"

    def test_single_exact_rung_over_budget_raises(self):
        table = TruthTable.random(7, seed=15)
        budget = Budget(max_frontier_entries=5)
        with pytest.raises(BudgetExceeded) as info:
            run_ladder(table, budget=budget, ladder=("fs",))
        assert info.value.reason == "frontier_entries"

    def test_parse_ladder(self):
        assert parse_ladder(None) == DEFAULT_LADDER
        assert parse_ladder("window , sift") == ("window", "sift")
        assert parse_ladder(["fs"]) == ("fs",)
        with pytest.raises(OrderingError):
            parse_ladder("fs,teleport")
        with pytest.raises(OrderingError):
            parse_ladder("")

    def test_unknown_rung_rejected_up_front(self):
        for ladder in (("fs", "nope"), "fs,nope", ""):
            budget = Budget()
            with pytest.raises(OrderingError):
                run_ladder(TruthTable.random(4, seed=1), budget=budget,
                           ladder=ladder)
            assert not budget.armed


class TestSignalHandling:
    def test_sigint_sets_cancel_and_aborts_at_boundary(self):
        import os
        import signal

        table = TruthTable.random(6, seed=20)
        budget = Budget()
        before = signal.getsignal(signal.SIGINT)
        with handle_signals(budget) as installed:
            assert installed
            assert signal.getsignal(signal.SIGINT) is not before
            os.kill(os.getpid(), signal.SIGINT)
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, budget=budget)
            assert info.value.reason == "cancelled"
        # Handlers restored afterwards.
        assert signal.getsignal(signal.SIGINT) is before

    def test_noop_off_main_thread(self):
        import signal
        import warnings

        budget = Budget()
        seen = []
        caught = []
        before = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )

        def worker():
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                with handle_signals(budget) as installed:
                    seen.append(installed)
                caught.extend(log)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == [False]
        # The no-op is loud: a RuntimeWarning names the asyncio-correct
        # alternative, and the process handlers were never touched.
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "no-op off the main thread" in str(w.message)
            for w in caught
        )
        assert (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        ) == before


class TestStaleRearm:
    """A Budget's clock arms once; re-arming an exhausted one is loud."""

    def test_rearm_exhausted_budget_warns(self):
        clock = iter([0.0, 10.0, 10.0, 10.0, 10.0]).__next__
        budget = Budget(deadline=1.0, clock=clock)
        budget.arm()
        # 10s elapsed on a 1s deadline: the next arm() is the stale-clock
        # footgun (every run under this budget aborts immediately).
        with pytest.warns(RuntimeWarning, match="re-arming an exhausted"):
            budget.arm()
        # The clock kept its original start: still exhausted.
        assert budget.remaining() == 0.0

    def test_rearm_live_budget_is_silent(self):
        import warnings

        budget = Budget(deadline=60.0)
        budget.arm()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            budget.arm()  # plenty of deadline left: not the footgun

    def test_ensure_armed_is_always_silent(self):
        import warnings

        clock = iter([0.0, 10.0, 10.0, 10.0]).__next__
        budget = Budget(deadline=1.0, clock=clock)
        budget.arm()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The internal engine idiom: exhausted or not, ensure_armed
            # never warns — exhaustion surfaces as BudgetExceeded at the
            # next layer boundary instead.
            assert budget.ensure_armed() is budget

    def test_subbudget_gets_a_fresh_clock(self):
        budget = Budget(deadline=0.5)
        budget.arm()
        child = budget.subbudget(60.0)
        child.arm()
        assert child.remaining() > 1.0
        assert child.cancel is budget.cancel


# ----------------------------------------------------------------------
# ISSUE acceptance: n=14, 100ms wall-clock, prompt abort, exact resume
# ----------------------------------------------------------------------

class TestAcceptanceN14:
    def test_prompt_abort_and_bit_identical_resume(self, tmp_path):
        table = TruthTable.random(14, seed=42)
        ckpt = str(tmp_path / "n14")
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, counters=OperationCounters(),
                   checkpoint_dir=ckpt, budget=Budget(deadline=0.1))
        exc = info.value
        assert exc.reason == "deadline"
        # Prompt: the overshoot is bounded by one (early, cheap) layer.
        assert exc.elapsed_seconds < 2.0
        assert exc.layers_completed is not None and exc.layers_completed >= 0
        clean = run_fs(table, counters=OperationCounters())
        resumed = run_fs(table, counters=OperationCounters(),
                         checkpoint_dir=ckpt, resume=True)
        assert_same_result(resumed, clean)
