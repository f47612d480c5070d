"""Tests for the execution backends (:mod:`repro.core.executor`).

The backends' contract: ``serial`` and ``thread`` run the *same*
chunks through the *same* kernel and merge in the *same* fixed order,
so results AND whole operation-counter snapshots are bit-identical for
every ``backend x jobs`` cell (drawn in ``tests/test_sweep_conformance``).
Budgets (deadline + cooperative cancellation, including SIGINT) must
reach pooled chunks, a layer abandoned mid-way must be discarded whole,
and checkpoint/resume must behave identically under every backend.

Thread-backed tests share one module-scoped ``ThreadBackend`` so its
pool is reused across tests, as the serve daemon reuses it.
"""

import os
import signal
import sys
import threading

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    BACKENDS,
    Budget,
    EngineConfig,
    FaultInjector,
    SerialBackend,
    ThreadBackend,
    create_backend,
    handle_signals,
    initial_state,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    run_fs_star,
    run_layered_sweep,
    window_sweep,
)
from repro.core import executor as executor_module
from repro.core.executor import resolve_backend, shared_backend, split_chunks
from repro.errors import BudgetExceeded, OrderingError
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


@pytest.fixture(scope="module")
def thread_pool():
    """One warm thread backend for the whole module."""
    backend = ThreadBackend(jobs=4)
    yield backend
    backend.close()


# ----------------------------------------------------------------------
# backend names + config plumbing
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_builtins_registered(self):
        assert set(BACKENDS) == {"serial", "thread"}

    def test_get_backend_resolves_classes(self):
        assert BACKENDS["serial"] is SerialBackend
        assert BACKENDS["thread"] is ThreadBackend
        assert isinstance(create_backend("serial"), SerialBackend)
        with create_backend("thread", jobs=2) as backend:
            assert isinstance(backend, ThreadBackend)

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="serial"):
            create_backend("gpu")
        with pytest.raises(ValueError):
            run_fs(TruthTable.random(2, seed=0), backend="gpu")
        # The process backend is gone; its name is an error naming both.
        for reject in (lambda: create_backend("process"),
                       lambda: EngineConfig(backend="process")):
            with pytest.raises(ValueError, match="serial.*thread"):
                reject()

    def test_config_validates_backend(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="nope")
        with pytest.raises(ValueError):
            EngineConfig(backend=42)
        assert EngineConfig(backend="serial").backend == "serial"
        inst = SerialBackend()
        assert EngineConfig(backend=inst).backend is inst

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            EngineConfig("numpy")  # positional args no longer accepted

    def test_custom_backend_instance_runs_sweeps(self):
        class TracingBackend(SerialBackend):
            name = "tracing"
            calls = []

            def run_layer(self, layer, *args):
                type(self).calls.append(layer)
                return super().run_layer(layer, *args)

        tt = TruthTable.random(4, seed=4)
        result = run_fs(tt, backend=TracingBackend())
        assert result.mincost == run_fs(tt, backend="serial").mincost
        assert TracingBackend.calls == [1, 2, 3, 4]

    def test_resolve_backend_ownership(self):
        owned, engine_owns = resolve_backend("serial")
        assert isinstance(owned, SerialBackend) and engine_owns
        inst = SerialBackend(jobs=2)
        try:
            same, engine_owns = resolve_backend(inst)
            assert same is inst and not engine_owns
        finally:
            inst.close()

    def test_shared_backend_pins_one_instance(self):
        config = EngineConfig(backend="serial")
        with shared_backend(config) as pinned:
            assert isinstance(pinned.backend, SerialBackend)
        # None and instance-carrying configs pass through untouched.
        with shared_backend(None) as passthrough:
            assert passthrough is None

    def test_deprecated_fs_engine_shim_removed(self):
        # The deprecation cycle is over: the shim is gone.
        from repro.core import fs as fs_module

        assert not hasattr(fs_module, "_engine")


# ----------------------------------------------------------------------
# chunking (the backend x jobs parity matrix itself is drawn in
# tests/test_sweep_conformance.py)
# ----------------------------------------------------------------------

class TestParityMatrix:
    TABLE = TruthTable.random(6, seed=13)

    def test_thread_jobs1_never_starts_a_pool(self):
        backend = ThreadBackend()
        try:
            run_fs(self.TABLE, backend=backend, jobs=1)
            assert backend._pool is None  # every layer ran inline
        finally:
            backend.close()

    def test_more_threads_than_cores_under_fast_switching(self):
        """Eight pooled chunks write disjoint rows of one layer while the
        interpreter switches threads every microsecond: the outcome and
        the whole counter snapshot stay those of the serial run."""
        table = TruthTable.random(11, seed=5)
        clean = run_fs(table)
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
# every DP entry point, thread backend
# ----------------------------------------------------------------------

class TestThreadBackendAcrossEntryPoints:
    def test_shared(self, thread_pool):
        tables = [TruthTable.random(5, seed=s) for s in (1, 2)]
        serial = run_fs_shared(tables, counters=OperationCounters(),
                               backend="serial")
        counters = OperationCounters()
        par = run_fs_shared(tables, counters=counters,
                            backend=thread_pool, jobs=4)
        assert par.mincost == serial.mincost
        assert par.order == serial.order
        assert counters.snapshot() == serial.counters.snapshot()

    def test_constrained(self, thread_pool):
        table = TruthTable.random(6, seed=3)
        precedence = [(0, 2), (1, 3)]
        serial = run_fs_constrained(table, precedence, backend="serial")
        par = run_fs_constrained(table, precedence,
                                 backend=thread_pool, jobs=4)
        assert par.mincost == serial.mincost
        assert par.order == serial.order
        assert par.counters.snapshot() == serial.counters.snapshot()

    def test_window(self, thread_pool):
        table = TruthTable.random(7, seed=7)
        serial = window_sweep(table, width=4,
                              config=EngineConfig(backend="serial"))
        par = window_sweep(table, width=4,
                           config=EngineConfig(backend=thread_pool, jobs=4))
        assert par.size == serial.size
        assert par.order == serial.order

    def test_fs_star(self, thread_pool):
        base = initial_state(TruthTable.random(6, seed=11))
        j_mask = 0b111111
        serial_counters = OperationCounters()
        serial = run_fs_star(base, j_mask, counters=serial_counters,
                             config=EngineConfig(backend="serial"))
        par_counters = OperationCounters()
        par = run_fs_star(base, j_mask, counters=par_counters,
                          config=EngineConfig(backend=thread_pool, jobs=4))
        assert par.mincost == serial.mincost
        assert par.pi == serial.pi
        assert par_counters.snapshot() == serial_counters.snapshot()

    def test_filter_orphaned_subset_is_an_ordering_error(self, thread_pool):
        """A feasible subset the filter left without a feasible
        predecessor is an OrderingError on both backends, also where a
        pooled chunk raises it while its sibling runs."""
        state = initial_state(TruthTable.random(3, seed=1))
        for backend in ("serial", thread_pool):
            with pytest.raises(OrderingError,
                               match="no feasible chain reaches subset 0x6"):
                run_layered_sweep(
                    state, 0b111, upto=2,
                    subset_filter=lambda mask: mask in (1, 3, 6),
                    config=EngineConfig(backend=backend, jobs=2),
                )


# ----------------------------------------------------------------------
# budget propagation into pooled chunks
# ----------------------------------------------------------------------

class CancelDuringLayer(ThreadBackend):
    """Cancels ``budget`` as layer ``layer`` starts: after the engine's
    pre-layer boundary check, before any pooled chunk's first batch."""

    def __init__(self, layer, budget):
        super().__init__(jobs=2)
        self.layer, self.budget = layer, budget

    def run_layer(self, layer, *args):
        if layer == self.layer:
            self.budget.cancel.set()
        return super().run_layer(layer, *args)


class TestThreadBudget:
    def test_deadline_aborts_at_committed_boundary(self, thread_pool,
                                                   tmp_path):
        # 20 ms per clock reading: the 50 ms deadline trips within the
        # first layers at any kernel speed.
        table = TruthTable.random(12, seed=42)
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, backend=thread_pool, jobs=4,
                   checkpoint_dir=str(tmp_path / "ck"),
                   budget=Budget(deadline=0.05, clock=fake_clock(0.02)))
        exc = info.value
        assert exc.reason == "deadline"
        assert exc.layers_completed is not None and exc.layers_completed >= 0

    def test_pre_cancelled_budget_aborts_promptly(self, thread_pool):
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as info:
            run_fs(TruthTable.random(8, seed=5), backend=thread_pool,
                   jobs=4, budget=budget)
        assert info.value.reason == "cancelled"

    def test_pool_survives_abort(self, thread_pool):
        """The shared pool stays usable after a budget abort."""
        result = run_fs(TruthTable.random(6, seed=13),
                        backend=thread_pool, jobs=4)
        assert result.mincost == run_fs(TruthTable.random(6, seed=13),
                                        backend="serial").mincost

    def test_sigint_cancels_cooperatively(self, thread_pool):
        """SIGINT lands on the main thread, sets the budget's event and
        the sweep stops; nothing is raised inside a pool thread."""
        table = TruthTable.random(11, seed=9)
        budget = Budget()
        with handle_signals(budget) as installed:
            if not installed:
                pytest.skip("not on the main thread")
            # Signal once layer 2 has run on the pool: the sweep is still
            # going at any kernel speed.
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, backend=thread_pool, jobs=4, budget=budget,
                       fault_injector=SigintAfterLayer(2))
        assert info.value.reason == "cancelled"

    def test_checkpoint_resume_bit_identical(self, thread_pool, tmp_path):
        table = TruthTable.random(10, seed=21)
        ckpt = str(tmp_path / "resume")
        with pytest.raises(BudgetExceeded):
            run_fs(table, counters=OperationCounters(),
                   backend=thread_pool, jobs=4, checkpoint_dir=ckpt,
                   budget=Budget(deadline=0.05, clock=fake_clock(0.02)))
        clean = run_fs(table, counters=OperationCounters(), backend="serial")
        resumed_counters = OperationCounters()
        resumed = run_fs(table, counters=resumed_counters,
                         backend=thread_pool, jobs=4,
                         checkpoint_dir=ckpt, resume=True)
        assert resumed.mincost == clean.mincost
        assert resumed.order == clean.order
        assert resumed.pi == clean.pi
        assert resumed_counters.snapshot() == clean.counters.snapshot()

    def test_mid_layer_cancel_discards_the_layer_and_resumes(self, tmp_path):
        """Pooled chunks that see the budget cancelled stop mid-layer;
        the engine discards the whole layer and names the last committed
        one, and a resume from its checkpoint is bit-identical."""
        table = TruthTable.random(9, seed=8)
        ckpt = str(tmp_path / "ck")
        budget = Budget()
        backend = CancelDuringLayer(4, budget)
        try:
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, backend=backend, jobs=2, budget=budget,
                       checkpoint_dir=ckpt)
        finally:
            backend.close()
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


class TestSweepMutex:
    """One warm backend instance serves many sweeps — but one at a time.

    Before the mutex, concurrent sweeps silently overwrote each other's
    ``_context``, corrupting both results; the serve daemon's request
    workers are exactly that shape."""

    def test_concurrent_sweeps_on_one_backend_stay_correct(self):
        backend = ThreadBackend(jobs=2)
        tables = [TruthTable.random(6, seed=s) for s in (61, 62, 63, 64)]
        expected = [run_fs(tt).mincost for tt in tables]
        results = [None] * len(tables)
        errors = []

        def worker(index):
            try:
                results[index] = run_fs(
                    tables[index], backend=backend, jobs=2
                ).mincost
            except Exception as exc:  # pragma: no cover - the old bug
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(tables))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            backend.close()
        assert errors == []
        assert results == expected

    def test_nested_sweep_on_same_backend_raises(self):
        backend = SerialBackend()
        tt = TruthTable.random(4, seed=65)
        try:
            run_fs(tt, backend=backend)  # warm it; lock must be released
            context = _sweep_context_for(tt)
            backend.begin_sweep(context)
            try:
                with pytest.raises(OrderingError, match="mid-sweep"):
                    backend.begin_sweep(context)
            finally:
                backend.end_sweep()
            # The lock released cleanly: the backend is reusable.
            assert run_fs(tt, backend=backend).mincost == run_fs(tt).mincost
        finally:
            backend.close()

    def test_end_sweep_without_begin_is_harmless(self):
        backend = SerialBackend()
        backend.end_sweep()  # a close() path may do this on shutdown
        backend.close()


class TestSharedBackendMasking:
    """A broken close() must never mask the body's own exception."""

    class _ExplodingClose(ThreadBackend):
        def __init__(self, jobs=None):
            super().__init__(jobs=jobs)
            self.close_calls = 0

        def close(self):
            self.close_calls += 1
            raise RuntimeError("pool teardown exploded")

    def _register(self, monkeypatch, name):
        monkeypatch.setitem(
            executor_module.BACKENDS, name, self._ExplodingClose
        )
        return name

    def test_body_exception_wins(self, monkeypatch):
        name = self._register(monkeypatch, "exploding-close")
        with pytest.raises(ValueError, match="body failed"):
            with shared_backend(EngineConfig(backend=name)):
                raise ValueError("body failed")

    def test_clean_exit_close_error_still_propagates(self, monkeypatch):
        name = self._register(monkeypatch, "exploding-close")
        with pytest.raises(RuntimeError, match="teardown exploded"):
            with shared_backend(EngineConfig(backend=name)):
                pass


def _sweep_context_for(table):
    """A minimal valid SweepContext for handshake-level tests."""
    from repro.core.executor import SweepContext
    from repro.core.spec import ReductionRule

    return SweepContext(
        base=initial_state(table, ReductionRule.BDD),
        rule=ReductionRule.BDD,
        jobs=1,
    )
