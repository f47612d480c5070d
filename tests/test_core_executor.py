"""Tests for running DP layers (:mod:`repro.core.executor`).

A backend is a name, ``serial`` or ``thread``.  Both run the *same*
chunk loop over the same kernel and merge in the *same* fixed order, so
results AND whole operation-counter snapshots are bit-identical for
every ``backend x jobs`` cell (drawn in ``tests/test_sweep_conformance``).
Under ``thread`` a layer splits into ``min(jobs, candidate cells //
_BATCH_CELLS)`` chunks, at least one, and the sweep starts its pool at
its first split layer and shuts it down when it ends.  Budgets
(deadline + cooperative cancellation, including SIGINT) must reach
pooled chunks, a layer abandoned mid-way must be discarded whole, and
checkpoint/resume must behave identically under every backend.

Tests whose subject is pooled chunks shrink ``_BATCH_CELLS`` (the split
reads it at call time), so small inputs split their layers.
"""

import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    BACKENDS,
    Budget,
    EngineConfig,
    FaultInjector,
    handle_signals,
    initial_state,
    optimize_many,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    run_fs_star,
    run_ladder,
    run_layered_sweep,
    window_sweep,
)
from repro.core import engine as engine_module
from repro.core import executor as executor_module
from repro.core.executor import check_backend, split_chunks
from repro.errors import BudgetExceeded, OrderingError
from repro.serve import OrderingServer, ServeConfig
from repro.truth_table import TruthTable
from tests.test_core_budget import fake_clock


class SigintAfterLayer(FaultInjector):
    """Sends this process SIGINT once layer ``k`` has committed."""

    def __init__(self, k):
        super().__init__()
        self.k = k

    def on_layer_committed(self, k, path):
        super().on_layer_committed(k, path)
        if k == self.k:
            os.kill(os.getpid(), signal.SIGINT)


@pytest.fixture
def small_batches(monkeypatch):
    """One successor per batch, so every layer of more than one row
    splits."""
    monkeypatch.setattr(executor_module, "_BATCH_CELLS", 1)


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every pool a sweep starts, in order."""
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", RecordingPool)
    return started


def sweep_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-sweep")]


# ----------------------------------------------------------------------
# backend names + config plumbing
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_builtins_registered(self):
        assert BACKENDS == ("serial", "thread")
        assert [check_backend(name) for name in BACKENDS] == list(BACKENDS)

    def test_unknown_backend_raises_with_choices(self):
        """An unknown name, the deleted ``process`` backend or any
        object is a ``ValueError`` naming both backends, at every entry
        point that takes ``backend=``."""
        table = TruthTable.random(3, seed=0)
        for backend in ("gpu", "process", object(), None):
            for reject in (
                lambda: check_backend(backend),
                lambda: EngineConfig(backend=backend),
                lambda: run_fs(table, backend=backend),
                lambda: optimize_many([table], backend=backend),
                lambda: run_ladder(table, ladder=("sift",), backend=backend),
                lambda: OrderingServer(ServeConfig(backend=backend)),
            ):
                with pytest.raises(ValueError, match="serial.*thread"):
                    reject()

    def test_config_validates_backend(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="nope")
        with pytest.raises(ValueError):
            EngineConfig(backend=42)
        assert EngineConfig(backend="serial").backend == "serial"
        assert EngineConfig(backend="thread").backend == "thread"

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            EngineConfig("numpy")  # positional args no longer accepted

    def test_deprecated_fs_engine_shim_removed(self):
        # The deprecation cycle is over: the shim is gone.
        from repro.core import fs as fs_module

        assert not hasattr(fs_module, "_engine")


# ----------------------------------------------------------------------
# the split rule (the backend x jobs parity matrix itself is drawn in
# tests/test_sweep_conformance.py)
# ----------------------------------------------------------------------

class TestParityMatrix:
    TABLE = TruthTable.random(6, seed=13)

    def test_thread_jobs1_never_starts_a_pool(self, small_batches, pools):
        """One thread means one chunk, even where one successor per
        batch would split every layer."""
        run_fs(self.TABLE, backend="thread", jobs=1)
        assert pools == []  # every layer ran inline

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8])
    def test_split_rule(self, monkeypatch, pools, jobs):
        """A layer splits into ``min(jobs, cells // _BATCH_CELLS)``
        chunks, at least one: never more than ``jobs``, fewer than
        ``jobs`` below ``jobs x _BATCH_CELLS`` candidate cells, and one
        below two batches, so a sweep whose layers all hold fewer cells
        starts no pool at any ``jobs``.  A sweep that splits starts one
        pool of ``jobs`` threads, and the serial backend never splits."""
        batch = executor_module._BATCH_CELLS
        layers = []
        run_layer = engine_module.run_layer

        def spy(chunks, previous, out, *args):
            rows, width = out.tables.shape
            layers.append((rows * int(out.masks[0]).bit_count() * width,
                           len(chunks)))
            return run_layer(chunks, previous, out, *args)

        monkeypatch.setattr(engine_module, "run_layer", spy)
        small = TruthTable.random(10, seed=10)
        run_fs(small, backend="thread", jobs=jobs)
        assert max(cells for cells, _ in layers) < 2 * batch
        assert {chunks for _, chunks in layers} == {1}
        assert pools == []

        layers.clear()
        large = TruthTable.random(12, seed=12)
        assert run_fs(large, backend="serial", jobs=jobs).mincost == 715
        assert {chunks for _, chunks in layers} == {1}
        assert pools == []

        layers.clear()
        assert run_fs(large, backend="thread", jobs=jobs).mincost == 715
        for cells, chunks in layers:
            assert chunks == max(1, min(jobs, cells // batch))
            assert chunks <= jobs
            if cells < jobs * batch:
                assert chunks < jobs or chunks == 1
            if cells < 2 * batch:
                assert chunks == 1
        split = any(chunks > 1 for _, chunks in layers)
        assert split == (jobs > 1)
        assert pools == ([jobs] if split else [])

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        """Eight pooled chunks write disjoint rows of one layer while the
        interpreter switches threads every microsecond: the outcome and
        the whole counter snapshot stay those of the serial run."""
        table = TruthTable.random(11, seed=5)
        clean = run_fs(table)
        monkeypatch.setattr(executor_module, "_BATCH_CELLS", 1 << 10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_fs(table, backend="thread", jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert (result.order, result.mincost, result.mincost_by_subset,
                result.best_last, result.level_cost_by_choice) == (
            clean.order, clean.mincost, clean.mincost_by_subset,
            clean.best_last, clean.level_cost_by_choice)
        assert result.counters.snapshot() == clean.counters.snapshot()

    def test_split_chunks_shapes(self):
        assert split_chunks(10, 1) == [slice(0, 10)]
        chunks = split_chunks(10, 4)
        assert [row for chunk in chunks
                for row in range(chunk.start, chunk.stop)] == list(range(10))
        assert len(chunks) <= 4
        assert split_chunks(2, 4) == [slice(0, 1), slice(1, 2)]


# ----------------------------------------------------------------------
# every DP entry point, pooled chunks
# ----------------------------------------------------------------------

@pytest.mark.usefixtures("small_batches")
class TestThreadBackendAcrossEntryPoints:
    def test_shared(self):
        tables = [TruthTable.random(5, seed=s) for s in (1, 2)]
        serial = run_fs_shared(tables, counters=OperationCounters(),
                               backend="serial")
        counters = OperationCounters()
        par = run_fs_shared(tables, counters=counters,
                            backend="thread", jobs=4)
        assert par.mincost == serial.mincost
        assert par.order == serial.order
        assert counters.snapshot() == serial.counters.snapshot()

    def test_constrained(self):
        table = TruthTable.random(6, seed=3)
        precedence = [(0, 2), (1, 3)]
        serial = run_fs_constrained(table, precedence, backend="serial")
        par = run_fs_constrained(table, precedence,
                                 backend="thread", jobs=4)
        assert par.mincost == serial.mincost
        assert par.order == serial.order
        assert par.counters.snapshot() == serial.counters.snapshot()

    def test_window(self):
        table = TruthTable.random(7, seed=7)
        serial = window_sweep(table, width=4,
                              config=EngineConfig(backend="serial"))
        par = window_sweep(table, width=4,
                           config=EngineConfig(backend="thread", jobs=4))
        assert par.size == serial.size
        assert par.order == serial.order

    def test_fs_star(self):
        base = initial_state(TruthTable.random(6, seed=11))
        j_mask = 0b111111
        serial_counters = OperationCounters()
        serial = run_fs_star(base, j_mask, counters=serial_counters,
                             config=EngineConfig(backend="serial"))
        par_counters = OperationCounters()
        par = run_fs_star(base, j_mask, counters=par_counters,
                          config=EngineConfig(backend="thread", jobs=4))
        assert par.mincost == serial.mincost
        assert par.pi == serial.pi
        assert par_counters.snapshot() == serial_counters.snapshot()

    def test_filter_orphaned_subset_is_an_ordering_error(self, pools):
        """A feasible subset the filter left without a feasible
        predecessor is an OrderingError on both backends, also where a
        pooled chunk raises it while its sibling runs."""
        state = initial_state(TruthTable.random(3, seed=1))
        for backend in BACKENDS:
            with pytest.raises(OrderingError,
                               match="no feasible chain reaches subset 0x6"):
                run_layered_sweep(
                    state, 0b111, upto=2,
                    subset_filter=lambda mask: mask in (1, 3, 6),
                    config=EngineConfig(backend=backend, jobs=2),
                )
        assert pools == [2]  # layer 2 ran on the thread backend's pool
        assert sweep_threads() == []


# ----------------------------------------------------------------------
# budget propagation into pooled chunks
# ----------------------------------------------------------------------

class TestThreadBudget:
    def test_deadline_aborts_at_committed_boundary(self, tmp_path):
        # 20 ms per clock reading: the 50 ms deadline trips within the
        # first layers at any kernel speed.
        table = TruthTable.random(12, seed=42)
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, backend="thread", jobs=4,
                   checkpoint_dir=str(tmp_path / "ck"),
                   budget=Budget(deadline=0.05, clock=fake_clock(0.02)))
        exc = info.value
        assert exc.reason == "deadline"
        assert exc.layers_completed is not None and exc.layers_completed >= 0

    def test_pre_cancelled_budget_aborts_promptly(self):
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as info:
            run_fs(TruthTable.random(8, seed=5), backend="thread",
                   jobs=4, budget=budget)
        assert info.value.reason == "cancelled"

    def test_pool_survives_abort(self, small_batches, pools):
        """A sweep's pool ends with it, aborted or not: no sweep thread
        outlives either sweep, and the sweep after the abort starts a
        pool of its own and answers like the serial run."""
        table = TruthTable.random(6, seed=13)
        budget = Budget()

        class CancelAfterLayer2(FaultInjector):
            def on_layer_committed(self, k, path):
                super().on_layer_committed(k, path)
                if k == 2:
                    budget.cancel.set()

        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, backend="thread", jobs=4, budget=budget,
                   fault_injector=CancelAfterLayer2())
        assert info.value.layers_completed == 2
        assert sweep_threads() == []
        result = run_fs(table, backend="thread", jobs=4)
        assert sweep_threads() == []
        assert pools == [4, 4]
        assert result.mincost == run_fs(table, backend="serial").mincost

    def test_sigint_cancels_cooperatively(self):
        """SIGINT lands on the main thread, sets the budget's event and
        the sweep stops; nothing is raised inside a pool thread."""
        table = TruthTable.random(11, seed=9)
        budget = Budget()
        with handle_signals(budget) as installed:
            if not installed:
                pytest.skip("not on the main thread")
            # Signal once layer 2 has run: the sweep is still going at
            # any kernel speed.
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, backend="thread", jobs=4, budget=budget,
                       fault_injector=SigintAfterLayer(2))
        assert info.value.reason == "cancelled"

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        table = TruthTable.random(10, seed=21)
        ckpt = str(tmp_path / "resume")
        with pytest.raises(BudgetExceeded):
            run_fs(table, counters=OperationCounters(),
                   backend="thread", jobs=4, checkpoint_dir=ckpt,
                   budget=Budget(deadline=0.05, clock=fake_clock(0.02)))
        clean = run_fs(table, counters=OperationCounters(), backend="serial")
        resumed_counters = OperationCounters()
        resumed = run_fs(table, counters=resumed_counters,
                         backend="thread", jobs=4,
                         checkpoint_dir=ckpt, resume=True)
        assert resumed.mincost == clean.mincost
        assert resumed.order == clean.order
        assert resumed.pi == clean.pi
        assert resumed_counters.snapshot() == clean.counters.snapshot()

    def test_mid_layer_cancel_discards_the_layer_and_resumes(self, tmp_path):
        """Pooled chunks that see the budget cancelled stop mid-layer;
        the engine discards the whole layer and names the last committed
        one, and a resume from its checkpoint is bit-identical.  The
        cancel fires inside the first batch of layer 4's first chunk, on
        a pool thread; with one successor per batch every chunk polls
        the budget again before it finishes."""
        table = TruthTable.random(9, seed=8)
        ckpt = str(tmp_path / "ck")
        budget = Budget()
        fired = []
        settle_batch = executor_module.settle_batch

        def cancel_in_layer_4(previous, masks, *args):
            # Layer 4's first row is 0b1111, so only the first batch of
            # its first chunk fires, whatever the threads' interleaving.
            if int(masks[0]) == 0b1111:
                fired.append(threading.current_thread().name)
                budget.cancel.set()
            return settle_batch(previous, masks, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(executor_module, "settle_batch", cancel_in_layer_4)
            patch.setattr(executor_module, "_BATCH_CELLS", 1)
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, backend="thread", jobs=2, budget=budget,
                       checkpoint_dir=ckpt)
        assert len(fired) == 1 and fired[0].startswith("repro-sweep")
        exc = info.value
        assert exc.reason == "cancelled"
        assert exc.where == "mid-layer cancellation (during k=4)"
        assert exc.layers_completed == 3
        assert exc.checkpoint_path.endswith("_layer_0003.json")
        assert not any(name.endswith("_layer_0004.json")
                       for name in os.listdir(ckpt))

        clean = run_fs(table)
        resumed = run_fs(table, backend="thread", jobs=2,
                         checkpoint_dir=ckpt, resume=True)
        assert (resumed.order, resumed.mincost, resumed.mincost_by_subset,
                resumed.best_last, resumed.level_cost_by_choice) == (
            clean.order, clean.mincost, clean.mincost_by_subset,
            clean.best_last, clean.level_cost_by_choice)
        assert resumed.counters.snapshot() == clean.counters.snapshot()


class TestConcurrentSweeps:
    """Sweeps running at once in one process share nothing: each splits
    its layers over a pool of its own (the serve daemon's request
    workers, a portfolio's racing members and ``optimize_many``'s item
    threads are this shape)."""

    def test_concurrent_sweeps_stay_correct(self, small_batches, pools):
        tables = [TruthTable.random(6, seed=s) for s in (61, 62, 63, 64)]
        expected = [run_fs(tt) for tt in tables]
        results = [None] * len(tables)
        errors = []

        def worker(index):
            try:
                results[index] = run_fs(tables[index], backend="thread",
                                        jobs=2)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(tables))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert [(r.order, r.mincost, r.counters.snapshot())
                for r in results] == [
            (r.order, r.mincost, r.counters.snapshot()) for r in expected]
        assert pools == [2] * len(tables)
        assert sweep_threads() == []
