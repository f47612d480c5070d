"""Tests for the execution backends (:mod:`repro.core.executor`).

The backends' contract: ``serial`` and ``process`` run the *same*
chunks through the *same* kernels and merge in the *same* fixed order,
so results AND operation counters are bit-identical for every
``backend x jobs`` cell.  The one sanctioned exception: the process
backend's ``tasks_shipped`` / ``bytes_shipped`` transport tallies, which
the serial backend never emits.  Budgets (deadline + cooperative
cancellation, including SIGINT) must propagate across the process
boundary, and checkpoint/resume must behave identically under every
backend.

Process-backed tests share one module-scoped ``ProcessBackend`` so the
interpreter-spawn cost is paid once, not per test.
"""

import os
import signal
import threading

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    BACKENDS,
    Budget,
    EngineConfig,
    FaultInjector,
    ProcessBackend,
    SerialBackend,
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


def paper_counters(counters):
    """Counter snapshot minus the process backend's transport tallies.

    ``tasks_shipped`` / ``bytes_shipped`` are coordinator-side transport
    accounting that the serial backend never emits; everything else must
    be bit-identical across backends.
    """
    snap = counters.snapshot()
    snap.pop("tasks_shipped", None)
    snap.pop("bytes_shipped", None)
    return snap


@pytest.fixture(scope="module")
def process_pool():
    """One spawned pool for the whole module (spawn cost is seconds)."""
    backend = ProcessBackend(jobs=4)
    yield backend
    backend.close()


# ----------------------------------------------------------------------
# backend names + config plumbing
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_builtins_registered(self):
        assert set(BACKENDS) == {"serial", "process"}

    def test_get_backend_resolves_classes(self):
        assert BACKENDS["serial"] is SerialBackend
        assert BACKENDS["process"] is ProcessBackend
        assert isinstance(create_backend("serial"), SerialBackend)
        with create_backend("process", jobs=2) as backend:
            assert isinstance(backend, ProcessBackend)

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="serial"):
            create_backend("gpu")
        with pytest.raises(ValueError):
            run_fs(TruthTable.random(2, seed=0), backend="gpu")

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

            def run_layer(self, layer, chunks, previous):
                type(self).calls.append(layer)
                return super().run_layer(layer, chunks, previous)

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
# bit-identical parity matrix: backend x jobs
# ----------------------------------------------------------------------

class TestParityMatrix:
    TABLE = TruthTable.random(6, seed=13)

    _REFERENCE = []

    @classmethod
    def reference(cls):
        """Serial jobs=1 baseline: the result and its counter snapshot."""
        if not cls._REFERENCE:
            counters = OperationCounters()
            result = run_fs(cls.TABLE, counters=counters, backend="serial",
                            jobs=1)
            cls._REFERENCE.append((result, counters.snapshot()))
        return cls._REFERENCE[0]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_serial_backend_bit_identical(self, jobs):
        ref, ref_counters = self.reference()
        counters = OperationCounters()
        result = run_fs(self.TABLE, counters=counters, backend="serial",
                        jobs=jobs)
        assert result.mincost == ref.mincost
        assert result.order == ref.order
        assert result.pi == ref.pi
        # The serial backend ships nothing: exact snapshot equality.
        assert counters.snapshot() == ref_counters

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_process_backend_bit_identical(self, jobs, process_pool):
        ref, ref_counters = self.reference()
        backend = process_pool if jobs > 1 else "process"
        counters = OperationCounters()
        result = run_fs(self.TABLE, counters=counters, backend=backend,
                        jobs=jobs)
        assert result.mincost == ref.mincost
        assert result.order == ref.order
        assert result.pi == ref.pi
        assert paper_counters(counters) == ref_counters

    def test_process_jobs1_never_spawns(self):
        backend = ProcessBackend()
        try:
            run_fs(self.TABLE, backend=backend, jobs=1)
            assert backend._pool is None  # every layer ran inline
        finally:
            backend.close()

    def test_split_chunks_shapes(self):
        masks = list(range(10))
        assert split_chunks(masks, 1) == [masks]
        chunks = split_chunks(masks, 4)
        assert [m for chunk in chunks for m in chunk] == masks
        assert len(chunks) <= 4


# ----------------------------------------------------------------------
# every DP entry point, process backend
# ----------------------------------------------------------------------

class TestProcessBackendAcrossEntryPoints:
    def test_shared(self, process_pool):
        tables = [TruthTable.random(5, seed=s) for s in (1, 2)]
        serial = run_fs_shared(tables, counters=OperationCounters(),
                               backend="serial")
        counters = OperationCounters()
        par = run_fs_shared(tables, counters=counters,
                            backend=process_pool, jobs=4)
        assert par.mincost == serial.mincost
        assert par.order == serial.order
        assert paper_counters(counters) == paper_counters(serial.counters)

    def test_constrained(self, process_pool):
        table = TruthTable.random(6, seed=3)
        precedence = [(0, 2), (1, 3)]
        serial = run_fs_constrained(table, precedence, backend="serial")
        par = run_fs_constrained(table, precedence,
                                 backend=process_pool, jobs=4)
        assert par.mincost == serial.mincost
        assert par.order == serial.order
        assert (paper_counters(par.counters)
                == paper_counters(serial.counters))

    def test_window(self, process_pool):
        table = TruthTable.random(7, seed=7)
        serial = window_sweep(table, width=4,
                              config=EngineConfig(backend="serial"))
        par = window_sweep(table, width=4,
                           config=EngineConfig(backend=process_pool, jobs=4))
        assert par.size == serial.size
        assert par.order == serial.order

    def test_fs_star(self, process_pool):
        base = initial_state(TruthTable.random(6, seed=11))
        j_mask = 0b111111
        serial_counters = OperationCounters()
        serial = run_fs_star(base, j_mask, counters=serial_counters,
                             config=EngineConfig(backend="serial"))
        par_counters = OperationCounters()
        par = run_fs_star(base, j_mask, counters=par_counters,
                          config=EngineConfig(backend=process_pool, jobs=4))
        assert par.mincost == serial.mincost
        assert par.pi == serial.pi
        assert paper_counters(par_counters) == paper_counters(serial_counters)

    def test_filter_orphaned_subset_is_an_ordering_error(self, process_pool):
        """A feasible subset the filter left without a feasible
        predecessor is an OrderingError on both backends, also where a
        worker receives its chunk with no predecessor rows at all."""
        state = initial_state(TruthTable.random(3, seed=1))
        for backend in ("serial", process_pool):
            with pytest.raises(OrderingError,
                               match="no feasible chain reaches subset 0x6"):
                run_layered_sweep(
                    state, 0b111, upto=2,
                    subset_filter=lambda mask: mask in (1, 3, 6),
                    config=EngineConfig(backend=backend, jobs=2),
                )


# ----------------------------------------------------------------------
# budget propagation across the process boundary
# ----------------------------------------------------------------------

class TestProcessBudget:
    def test_deadline_aborts_at_committed_boundary(self, process_pool,
                                                   tmp_path):
        # 20 ms per clock reading: the 50 ms deadline trips within the
        # first layers at any kernel speed.
        table = TruthTable.random(12, seed=42)
        with pytest.raises(BudgetExceeded) as info:
            run_fs(table, backend=process_pool, jobs=4,
                   checkpoint_dir=str(tmp_path / "ck"),
                   budget=Budget(deadline=0.05, clock=fake_clock(0.02)))
        exc = info.value
        assert exc.reason == "deadline"
        assert exc.layers_completed is not None and exc.layers_completed >= 0

    def test_pre_cancelled_budget_aborts_promptly(self, process_pool):
        budget = Budget()
        budget.cancel.set()
        with pytest.raises(BudgetExceeded) as info:
            run_fs(TruthTable.random(8, seed=5), backend=process_pool,
                   jobs=4, budget=budget)
        assert info.value.reason == "cancelled"

    def test_pool_survives_abort(self, process_pool):
        """The shared pool stays usable after a budget abort."""
        result = run_fs(TruthTable.random(6, seed=13),
                        backend=process_pool, jobs=4)
        assert result.mincost == run_fs(TruthTable.random(6, seed=13),
                                        backend="serial").mincost

    def test_sigint_routed_to_coordinator_not_workers(self, process_pool):
        """SIGINT cancels cooperatively; workers ignore the signal."""
        table = TruthTable.random(11, seed=9)
        budget = Budget()
        with handle_signals(budget) as installed:
            if not installed:
                pytest.skip("not on the main thread")
            # Signal once layer 2 has run on the pool: the sweep is still
            # going at any kernel speed.
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, backend=process_pool, jobs=4, budget=budget,
                       fault_injector=SigintAfterLayer(2))
        assert info.value.reason == "cancelled"

    def test_checkpoint_resume_bit_identical(self, process_pool, tmp_path):
        table = TruthTable.random(10, seed=21)
        ckpt = str(tmp_path / "resume")
        with pytest.raises(BudgetExceeded):
            run_fs(table, counters=OperationCounters(),
                   backend=process_pool, jobs=4, checkpoint_dir=ckpt,
                   budget=Budget(deadline=0.05, clock=fake_clock(0.02)))
        clean = run_fs(table, counters=OperationCounters(), backend="serial")
        resumed_counters = OperationCounters()
        resumed = run_fs(table, counters=resumed_counters,
                         backend=process_pool, jobs=4,
                         checkpoint_dir=ckpt, resume=True)
        assert resumed.mincost == clean.mincost
        assert resumed.order == clean.order
        assert resumed.pi == clean.pi
        # Transport tallies differ (the resumed run re-ships the base
        # table); every paper-facing counter must match exactly.
        assert paper_counters(resumed_counters) == paper_counters(
            clean.counters)


# ----------------------------------------------------------------------
# observability: transport phases + tallies
# ----------------------------------------------------------------------

class TestTransportObservability:
    def test_process_backend_records_ipc_phases_and_tallies(
            self, process_pool):
        from repro.observability import Profiler

        profiler = Profiler()
        counters = OperationCounters()
        run_fs(TruthTable.random(6, seed=13), counters=counters,
               backend=process_pool, jobs=4, profiler=profiler)
        assert "ipc_submit" in profiler.phases
        assert "ipc_merge" in profiler.phases
        assert counters.extra["tasks_shipped"] > 0
        assert counters.extra["bytes_shipped"] > 0

    def test_in_process_backends_ship_nothing(self):
        counters = OperationCounters()
        run_fs(TruthTable.random(6, seed=13), counters=counters,
               backend="serial", jobs=4)
        assert "tasks_shipped" not in counters.extra
        assert "bytes_shipped" not in counters.extra


class TestSweepMutex:
    """One warm backend instance serves many sweeps — but one at a time.

    Before the mutex, concurrent sweeps silently overwrote each other's
    ``_context``/``_kernel``, corrupting both results; the serve daemon's
    request workers are exactly that shape."""

    def test_concurrent_sweeps_on_one_backend_stay_correct(self):
        backend = SerialBackend(jobs=2)
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
        from repro.errors import OrderingError

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
        backend.end_sweep()  # ProcessBackend.close() does this on shutdown
        backend.close()


def _sweep_context_for(table):
    """A minimal valid SweepContext for handshake-level tests."""
    from repro.core.executor import SweepContext
    from repro.core.spec import ReductionRule

    return SweepContext(
        base=initial_state(table, ReductionRule.BDD),
        rule=ReductionRule.BDD,
        jobs=1,
        counters=OperationCounters(),
    )
