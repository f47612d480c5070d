"""Batch-hardening tests: per-item isolation, timeouts, retry, signals.

The contract under test (ISSUE acceptance criteria): a batch over a
corpus containing malformed and over-budget items returns a per-item
status (``ok``/``fallback``/``error``) for every input without losing
any other item's result; worker futures are drained, never abandoned;
transient disk-store failures are retried with exponential backoff; and
SIGINT/SIGTERM turn into cooperative cancellation at layer boundaries.
"""

import itertools
import os
import signal
import time

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    BatchError,
    BatchItem,
    Budget,
    FallbackResult,
    ResultCache,
    RetryPolicy,
    optimize_many,
    run_fs,
)
from repro.truth_table import TruthTable


def fake_clock(step=0.5):
    ticks = [0.0]

    def clock():
        ticks[0] += step
        return ticks[0]

    return clock


def multi_valued_table(n=4):
    """Rejected by every Boolean rule's initial_state (DimensionError)."""
    return TruthTable(n, [v % 4 for v in range(1 << n)])


# ----------------------------------------------------------------------
# failure isolation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 4])
class TestFailureIsolation:
    def test_malformed_item_does_not_poison_the_batch(self, jobs):
        good = [TruthTable.random(5, seed=s) for s in (1, 2, 3)]
        batch = [good[0], multi_valued_table(), good[1], good[2]]
        outcome = optimize_many(batch, jobs=jobs)
        assert [item.status for item in outcome.items] == [
            "ok", "error", "ok", "ok"]
        assert len(outcome.results) == 3
        assert len(outcome.errors) == 1
        error = outcome.errors[0]
        assert isinstance(error, BatchError)
        assert error.index == 1
        assert error.stage == "solve"
        assert error.error_type == "DimensionError"
        # The healthy items' results are the real optima.
        for item, table in zip(
                [outcome.items[0], outcome.items[2], outcome.items[3]],
                good):
            assert item.result.mincost == run_fs(table).mincost

    def test_items_align_with_inputs_and_results_stay_compact(self, jobs):
        batch = [multi_valued_table(), TruthTable.random(4, seed=9)]
        outcome = optimize_many(batch, jobs=jobs)
        assert [item.index for item in outcome.items] == [0, 1]
        assert isinstance(outcome.items[1], BatchItem)
        assert outcome.items[0].result is None
        assert outcome.items[1].error is None
        assert len(outcome.results) == 1

    def test_duplicate_of_failed_item_reports_without_resolving(self, jobs):
        batch = [multi_valued_table(), multi_valued_table()]
        outcome = optimize_many(batch, jobs=jobs)
        assert [item.status for item in outcome.items] == ["error", "error"]
        assert "duplicate of failed item 0" in outcome.errors[1].message

    def test_all_success_batch_keeps_legacy_shape(self, jobs):
        tables = [TruthTable.random(4, seed=s) for s in (1, 2)]
        outcome = optimize_many(tables, jobs=jobs)
        assert len(outcome.results) == len(tables)
        assert outcome.errors == []
        assert all(item.status == "ok" for item in outcome.items)


# ----------------------------------------------------------------------
# per-item budgets and the fallback ladder
# ----------------------------------------------------------------------

class TestBatchGovernance:
    def test_per_item_timeout_fails_only_the_slow_item(self):
        # A clock ticking 5 ms per reading turns the 50 ms share into ten
        # readings at any kernel speed: the n=3 solve reads the clock 8
        # times, the n=10 solve 22 times, so only n=10 runs out of time.
        batch = [TruthTable.random(10, seed=1), TruthTable.random(3, seed=2)]
        outcome = optimize_many(batch, per_item_timeout=0.05,
                                budget=Budget(clock=fake_clock(0.005)))
        assert outcome.items[0].status == "error"
        assert outcome.items[0].error.error_type == "BudgetExceeded"
        assert outcome.items[1].status == "ok"

    def test_per_item_timeout_with_fallback_degrades_instead(self):
        # The exact rung gets a third of the 50 ms share; at 1 ms per
        # clock reading that is 16 readings, past the n=3 solve's 8 and
        # short of the n=10 solve's 22, at any kernel speed.
        batch = [TruthTable.random(10, seed=1), TruthTable.random(3, seed=2)]
        outcome = optimize_many(batch, per_item_timeout=0.05,
                                fallback="fs,window,sift",
                                budget=Budget(clock=fake_clock(0.001)))
        slow = outcome.items[0]
        assert slow.status == "fallback"
        assert isinstance(slow.result, FallbackResult)
        assert not slow.result.exact
        assert slow.result.rung in ("window", "sift")
        assert sorted(slow.result.order) == list(range(10))
        fast = outcome.items[1]
        assert fast.status == "ok"
        assert fast.result.exact and fast.result.rung == "fs"

    def test_batch_budget_deadline_caps_item_shares(self):
        # The batch budget is already exhausted: every item must abort
        # promptly rather than run to completion.
        budget = Budget(deadline=1.0, clock=fake_clock(0.6))
        batch = [TruthTable.random(5, seed=s) for s in (1, 2)]
        outcome = optimize_many(batch, budget=budget)
        assert all(item.status == "error" for item in outcome.items)
        assert all(e.error_type == "BudgetExceeded" for e in outcome.errors)

    def test_cancellation_stops_every_item(self):
        budget = Budget()
        budget.cancel.set()
        batch = [TruthTable.random(5, seed=s) for s in (1, 2, 3)]
        outcome = optimize_many(batch, budget=budget, jobs=2)
        assert all(item.status == "error" for item in outcome.items)
        assert all("cancel" in e.message for e in outcome.errors)

    def test_invalid_ladder_rejected_up_front(self):
        from repro.errors import OrderingError

        with pytest.raises(OrderingError):
            optimize_many([TruthTable.random(3, seed=1)],
                          fallback="fs,teleport")


# ----------------------------------------------------------------------
# future draining
# ----------------------------------------------------------------------

class TestFutureDraining:
    def test_every_future_resolves_even_with_early_failures(self):
        # The poisoned item is a *representative* that fails at solve
        # time while later representatives are still queued/running; all
        # of them must still land in the outcome.
        batch = [multi_valued_table()] + [
            TruthTable.random(5, seed=s) for s in range(1, 8)
        ]
        outcome = optimize_many(batch, jobs=4)
        assert len(outcome.items) == len(batch)
        assert outcome.items[0].status == "error"
        assert all(item.status == "ok" for item in outcome.items[1:])
        assert len(outcome.results) == len(batch) - 1

    def test_jobs_invariance_with_failures(self):
        batch = [
            TruthTable.random(5, seed=1),
            multi_valued_table(),
            TruthTable.random(5, seed=2),
        ]
        sequential = optimize_many(batch, jobs=1)
        parallel = optimize_many(batch, jobs=4)
        assert ([i.status for i in sequential.items]
                == [i.status for i in parallel.items])
        assert ([r.order for r in sequential.results]
                == [r.order for r in parallel.results])


# ----------------------------------------------------------------------
# flaky-filesystem retry
# ----------------------------------------------------------------------

class TestDiskRetry:
    def test_cache_store_retries_transient_oserror(self, tmp_path,
                                                   monkeypatch):
        real_replace = os.replace
        failures = {"left": 2}

        def flaky_replace(src, dst):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient NFS blip")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        cache = ResultCache(directory=str(tmp_path),
                            retry=RetryPolicy(sleep=lambda s: None))
        cache.store("deadbeef", {"kind": "ordering", "order": [0],
                                 "widths": [1], "mincost": 1})
        assert cache.stats.retries == 2
        monkeypatch.setattr(os, "replace", real_replace)
        assert cache.lookup("deadbeef") is not None

    def test_cache_store_without_policy_fails_fast(self, tmp_path,
                                                   monkeypatch):
        def always_fail(src, dst):
            raise OSError("permanently broken")

        monkeypatch.setattr(os, "replace", always_fail)
        cache = ResultCache(directory=str(tmp_path))
        with pytest.raises(OSError):
            cache.store("cafe", {"kind": "ordering"})

    def test_exhausted_retries_reraise(self, tmp_path, monkeypatch):
        def always_fail(src, dst):
            raise OSError("permanently broken")

        monkeypatch.setattr(os, "replace", always_fail)
        cache = ResultCache(directory=str(tmp_path),
                            retry=RetryPolicy(max_retries=2,
                                              sleep=lambda s: None))
        with pytest.raises(OSError):
            cache.store("cafe", {"kind": "ordering"})
        assert cache.stats.retries == 2

    def test_engine_checkpoint_write_retries_and_tallies(self, tmp_path,
                                                         monkeypatch):
        real_replace = os.replace
        failures = {"left": 1}

        def flaky_replace(src, dst):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient blip")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        counters = OperationCounters()
        result = run_fs(TruthTable.random(4, seed=5), counters=counters,
                        checkpoint_dir=str(tmp_path / "ck"),
                        io_retry=RetryPolicy(sleep=lambda s: None))
        assert counters.extra["retries"] == 1
        monkeypatch.setattr(os, "replace", real_replace)
        assert result.mincost == run_fs(TruthTable.random(4, seed=5)).mincost

    def test_optimize_many_wires_io_retry_into_the_cache(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        policy = RetryPolicy(sleep=lambda s: None)
        optimize_many([TruthTable.random(3, seed=1)], cache=cache,
                      io_retry=policy)
        assert cache.retry is policy


# ----------------------------------------------------------------------
# signal handling
# ----------------------------------------------------------------------

class TestBatchSignals:
    def test_sigint_cancels_batch_cooperatively(self):
        # Deliver SIGINT while the batch runs; items then finish as
        # BudgetExceeded(cancelled) errors, already-complete results are
        # kept, and no traceback escapes.  The batch budget's clock is
        # read once before the first sweep and once as each sweep arms,
        # so its third reading falls inside the first n=10 sweep: the
        # signal sent there lands mid-batch at any kernel speed.
        before = signal.getsignal(signal.SIGINT)
        batch = (
            [TruthTable.random(3, seed=1)]
            + [TruthTable.random(10, seed=s) for s in range(2, 8)]
        )
        readings = itertools.count(1)

        def clock():
            if next(readings) == 3:
                os.kill(os.getpid(), signal.SIGINT)
            return time.monotonic()

        outcome = optimize_many(batch, install_signal_handlers=True,
                                budget=Budget(clock=clock))
        assert signal.getsignal(signal.SIGINT) is before
        statuses = [item.status for item in outcome.items]
        assert len(statuses) == len(batch)
        # The tiny first item finishes before the signal; the n=10
        # solves run into the cancellation.
        assert statuses[0] == "ok"
        assert "error" in statuses
        cancelled = [e for e in outcome.errors if "cancel" in e.message]
        assert cancelled, "expected at least one cooperative cancellation"

    def test_handlers_not_installed_when_not_requested(self):
        before = signal.getsignal(signal.SIGINT)
        optimize_many([TruthTable.random(3, seed=1)])
        assert signal.getsignal(signal.SIGINT) is before
