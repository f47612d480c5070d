"""Chaos tests: the process backend survives SIGKILLed workers.

The robustness contract under test: a worker killed before or during any
chunk of any layer costs the sweep one pool rebuild and the unmerged
chunks of that layer — never the run, and never bit-identity.  Results
AND operation counters of a crashed-and-healed sweep must equal the
serial baseline exactly, the sanctioned transport/healing gauges aside
(``tasks_shipped`` / ``bytes_shipped`` / ``pool_rebuilds`` /
``chunks_retried``).  When the healing budget runs out the failure mode
is :class:`~repro.errors.ExecutorBrokenError` carrying the last
committed checkpoint path, and a crash must never leak a ``/dev/shm``
segment.

Kills are injected deterministically via
:class:`~repro.core.checkpoint.FaultInjector` — the coordinator arms a
one-shot ``kill_self`` flag on a specific chunk's task, the worker
SIGKILLs itself (uncatchable, no cleanup: the OOM-killer scenario), and
the *healed* resubmission of the same chunk runs clean, which is what
makes recovery assertable.
"""

import os

import pytest

from repro.core import (
    EngineConfig,
    ProcessBackend,
    run_fs,
)
from repro.core import executor as executor_module
from repro.core.checkpoint import FaultInjector
from repro.core.executor import shared_backend
from repro.errors import ExecutorBrokenError
from repro.truth_table import TruthTable

N = 5
TABLE = TruthTable.random(N, seed=1729)

# Gauges sanctioned to differ between a crashed-and-healed run and any
# clean run: transport volume (re-shipping the base table and retried
# chunks adds bytes) and the healing tallies themselves.
TRANSPORT_AND_HEALING = (
    "tasks_shipped",
    "bytes_shipped",
    "pool_rebuilds",
    "chunks_retried",
)


def chaos_counters(counters):
    snap = counters.snapshot()
    for extra in TRANSPORT_AND_HEALING:
        snap.pop(extra, None)
    return snap


def injector(layer, chunk=0, phase="before", kills=1):
    return FaultInjector(
        kill_worker_layer=layer,
        kill_worker_chunk=chunk,
        kill_worker_phase=phase,
        worker_kills=kills,
    )


@pytest.fixture(scope="module")
def healing_pool():
    """One self-healing pool for the whole module; rebuilt pools are the
    point of the tests, so cells deliberately share the instance."""
    backend = ProcessBackend(jobs=4, max_pool_rebuilds=2)
    yield backend
    backend.close()


def serial_baseline():
    return run_fs(TABLE, jobs=4, backend="serial")


class TestKillEveryLayer:
    """SIGKILL at every pooled layer x {before, during} the chunk."""

    @pytest.mark.parametrize("phase", ["before", "during"])
    @pytest.mark.parametrize("layer", [1, 2, 3, 4])
    def test_bit_identical_after_heal(self, healing_pool, phase, layer):
        base = serial_baseline()
        fi = injector(layer, phase=phase)
        result = run_fs(
            TABLE, jobs=4, backend=healing_pool, fault_injector=fi
        )
        assert fi.worker_kills_injected == 1
        assert result.order == base.order
        assert result.mincost == base.mincost
        assert chaos_counters(result.counters) == chaos_counters(
            base.counters
        )
        extras = dict(result.counters.extra)
        assert extras["pool_rebuilds"] == 1
        assert extras["chunks_retried"] >= 1

    def test_late_chunk_kill(self, healing_pool):
        """Killing a non-zero chunk index exercises the slot merge: the
        already-merged earlier chunks must not be re-run."""
        base = serial_baseline()
        fi = injector(2, chunk=2, phase="during")
        result = run_fs(
            TABLE, jobs=4, backend=healing_pool, fault_injector=fi
        )
        assert fi.worker_kills_injected == 1
        assert result.order == base.order
        assert result.mincost == base.mincost
        assert chaos_counters(result.counters) == chaos_counters(
            base.counters
        )


class TestKillMatrix:
    """Cells at one fixed kill site: full layers healed, and jobs=1."""

    # The sweep retains full layers only; the cell keeps the id it had
    # when the frontier policy was an axis of this matrix.
    @pytest.mark.parametrize(
        "jobs", [pytest.param(4, id="FrontierPolicy.FULL")]
    )
    def test_policy_cells(self, healing_pool, jobs):
        base = serial_baseline()
        fi = injector(2, phase="during")
        result = run_fs(
            TABLE, jobs=jobs, backend=healing_pool, fault_injector=fi
        )
        assert fi.worker_kills_injected == 1
        assert result.order == base.order
        assert result.mincost == base.mincost
        # Every retained layer survives the heal, not just the winner.
        assert result.mincost_by_subset == base.mincost_by_subset
        assert result.best_last == base.best_last
        assert result.level_cost_by_choice == base.level_cost_by_choice
        assert chaos_counters(result.counters) == chaos_counters(
            base.counters
        )
        assert dict(result.counters.extra)["pool_rebuilds"] == 1

    def test_jobs1_runs_inline_and_clean(self):
        """jobs=1 layers are single-chunk and run on the coordinator —
        there is no worker to kill, so an armed injector stays unspent
        and the run completes clean.  This pins the inline fast path."""
        base = serial_baseline()
        fi = injector(2, phase="before")
        backend = ProcessBackend(jobs=1, max_pool_rebuilds=2)
        try:
            result = run_fs(
                TABLE, jobs=1, backend=backend, fault_injector=fi
            )
        finally:
            backend.close()
        assert fi.worker_kills_injected == 0
        assert result.order == base.order
        assert result.mincost == base.mincost
        extras = dict(result.counters.extra)
        assert "pool_rebuilds" not in extras


class TestHealingExhausted:
    """More kills than rebuilds: fail loudly, point at the checkpoint."""

    def test_raises_executor_broken(self):
        backend = ProcessBackend(jobs=4, max_pool_rebuilds=1)
        try:
            fi = injector(2, phase="before", kills=5)
            with pytest.raises(ExecutorBrokenError) as excinfo:
                run_fs(TABLE, jobs=4, backend=backend, fault_injector=fi)
        finally:
            backend.close()
        err = excinfo.value
        assert err.layer == 2
        assert err.pool_rebuilds == 1
        assert err.checkpoint_path is None  # no checkpoint_dir configured
        assert "max_pool_rebuilds" in str(err)

    def test_zero_budget_fails_on_first_death(self):
        backend = ProcessBackend(jobs=4, max_pool_rebuilds=0)
        try:
            fi = injector(1, phase="before")
            with pytest.raises(ExecutorBrokenError) as excinfo:
                run_fs(TABLE, jobs=4, backend=backend, fault_injector=fi)
        finally:
            backend.close()
        assert excinfo.value.pool_rebuilds == 0

    def test_error_carries_last_checkpoint(self, tmp_path):
        """With checkpointing on, the error names the resume point: the
        last layer committed before the pool died for good."""
        backend = ProcessBackend(jobs=4, max_pool_rebuilds=0)
        try:
            fi = injector(3, phase="before", kills=5)
            with pytest.raises(ExecutorBrokenError) as excinfo:
                run_fs(
                    TABLE,
                    jobs=4,
                    backend=backend,
                    checkpoint_dir=str(tmp_path),
                    fault_injector=fi,
                )
        finally:
            backend.close()
        path = excinfo.value.checkpoint_path
        assert path is not None
        assert os.path.exists(path)
        # The run died at layer 3, so the checkpoint is an earlier layer.
        assert excinfo.value.layer == 3

    def test_resume_from_named_checkpoint(self, tmp_path):
        """The advertised recovery actually works: resume from the
        directory the error points into and finish bit-identically."""
        base = serial_baseline()
        backend = ProcessBackend(jobs=4, max_pool_rebuilds=0)
        try:
            fi = injector(3, phase="before", kills=5)
            with pytest.raises(ExecutorBrokenError):
                run_fs(
                    TABLE,
                    jobs=4,
                    backend=backend,
                    checkpoint_dir=str(tmp_path),
                    fault_injector=fi,
                )
        finally:
            backend.close()
        resumed = run_fs(
            TABLE,
            jobs=4,
            backend="process",
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert resumed.order == base.order
        assert resumed.mincost == base.mincost


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a /dev/shm tmpfs"
)
class TestNoShmLeak:
    """Crash paths must not strand shared-memory segments."""

    @staticmethod
    def _segments():
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }

    def test_exhausted_healing_leaves_no_segment(self):
        before = self._segments()
        backend = ProcessBackend(jobs=4, max_pool_rebuilds=0)
        try:
            fi = injector(2, phase="before")
            with pytest.raises(ExecutorBrokenError):
                run_fs(TABLE, jobs=4, backend=backend, fault_injector=fi)
        finally:
            backend.close()
        assert self._segments() - before == set()
        assert executor_module._LIVE_SEGMENTS == {}

    def test_healed_sweep_leaves_no_segment(self, healing_pool):
        before = self._segments()
        fi = injector(1, phase="before")
        run_fs(TABLE, jobs=4, backend=healing_pool, fault_injector=fi)
        assert self._segments() - before == set()
        assert executor_module._LIVE_SEGMENTS == {}

    def test_atexit_sweeper_unlinks_registered_segments(self):
        """The atexit hook is the backstop for coordinators that die
        between creating a segment and reaching end_sweep."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=64)
        name = shm.name
        executor_module._register_segment(shm)
        assert name in executor_module._LIVE_SEGMENTS
        executor_module._unlink_leaked_segments()
        assert executor_module._LIVE_SEGMENTS == {}
        assert not os.path.exists(f"/dev/shm/{name}")


class TestSharedBackendMasking:
    """A broken close() must never mask the body's own exception."""

    class _ExplodingClose(ProcessBackend):
        def __init__(self, jobs=None, max_pool_rebuilds=None):
            super().__init__(
                jobs=jobs, max_pool_rebuilds=max_pool_rebuilds
            )
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
