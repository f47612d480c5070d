"""Execution backends for the layered sweep.

The engine (:func:`repro.core.engine.run_layered_sweep`) splits every DP
layer into contiguous chunks of disjoint masks and hands them to an
:class:`ExecutorBackend`; the backend decides *where* the chunks run.
Two implementations ship, named in :data:`BACKENDS`:

* ``serial`` (the default) — chunks run inline on the coordinator, one
  after another.
* ``process`` — chunks fan out over a spawn-context
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Read-only base data
  (the root table's bytes) is shipped once per sweep through
  :mod:`multiprocessing.shared_memory`; per-layer work travels as a
  picklable :class:`ChunkTask` / :class:`ChunkResult` envelope.  This is
  the backend where ``jobs=4`` means four cores.  A pool spawned for
  one solve costs more than it saves on small sweeps; a warm pool (the
  serve daemon, :func:`shared_backend`) is where it pays.

Determinism contract: every backend executes the *same* chunks (the
split depends only on ``jobs``), runs each chunk through the same
:func:`sweep_chunk` routine with a fresh
:class:`~repro.analysis.counters.OperationCounters`, and the engine
merges chunk results in fixed chunk order — so results *and counters*
are bit-identical across ``serial``/``process`` and any ``jobs`` value.
The only exception is transport accounting: the process backend tallies
``tasks_shipped`` / ``bytes_shipped`` extra counters (deterministic for
a given run shape, but zero inline), which are excluded from the
cross-backend parity guarantee.

Budget propagation: the process backend mirrors the coordinator's
:class:`~repro.core.budget.Budget` — its cooperative-cancellation event
and its deadline — into a shared :class:`multiprocessing.Event` via a
watcher thread; workers poll it between batches and stop early.  A chunk
stopped that way comes back flagged ``cancelled`` and the engine
discards the whole partial layer, so the
:class:`~repro.errors.BudgetExceeded` it raises always describes the
last *committed* layer boundary (checkpoint/resume semantics unchanged).
Workers ignore ``SIGINT``; route signals through
:func:`repro.core.budget.handle_signals` on the coordinator and they
reach the workers through the mirrored event.

Fault tolerance: a worker SIGKILLed mid-layer (OOM killer, segfault)
marks the whole :class:`~concurrent.futures.ProcessPoolExecutor` broken.
The process backend heals in place — it tears the pool down, re-creates
and re-ships the shared-memory base table under a fresh sweep token, and
re-submits *only the chunks whose results were not yet merged*, with
exponential backoff between rebuilds (a :class:`~repro.core.checkpoint.
RetryPolicy` over ``BrokenExecutor``).  Chunk results merge in fixed
chunk order regardless of which pool produced them, so a healed layer is
bit-identical to an uncrashed one; the only trace is in the sanctioned
gauges ``pool_rebuilds`` / ``chunks_retried`` (and extra transport
volume for the re-shipped chunks, already excluded from parity like all
``tasks_shipped``/``bytes_shipped`` accounting).  After
``max_pool_rebuilds`` consecutive rebuilds of one layer the backend
raises :class:`~repro.errors.ExecutorBrokenError`; the engine stamps it
with the last committed checkpoint path so a retry resumes at the layer
boundary.

Cache lookups stay coordinator-only: workers never see a
:class:`~repro.core.cache.ResultCache`, so disk stores are not written
from multiple processes.

Lifecycle: passing a backend *name* to
:class:`~repro.core.engine.EngineConfig` makes the engine create the
backend for one sweep and close it afterwards.  Passing an *instance*
leaves ownership with the caller (``begin_sweep``/``end_sweep`` still
run per sweep) so one pool can serve many sweeps — a window sweep's
inner FS* solves, or a whole :func:`~repro.core.cache.optimize_many`
batch.  Pools are created lazily, on the first layer that actually has
more than one chunk; ``jobs=1`` runs (and tiny sweeps) never pay pool
startup.
"""

from __future__ import annotations

import abc
import atexit
import os
import signal
import threading
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional,
    Sequence, Tuple, Type, Union,
)

import numpy as np

from .._bitops import bits_of
from ..analysis.counters import OperationCounters
from ..errors import ExecutorBrokenError, OrderingError
from .checkpoint import RetryPolicy
from .compaction import compact_table
from .frontier import Layer
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..observability import Profiler
    from .budget import Budget
    from .checkpoint import FaultInjector

_WATCHER_POLL_SECONDS = 0.05

# New table cells one batch of candidate compactions holds: enough that
# the chunk loop's numpy work per batch vanishes, few enough that a
# batch's scratch arrays stay a few megabytes.
_BATCH_CELLS = 1 << 16


def _phase(profiler: Optional["Profiler"], name: str):
    return profiler.phase(name) if profiler is not None else nullcontext()


# ----------------------------------------------------------------------
# the unit of work: chunk in, chunk result out
# ----------------------------------------------------------------------

@dataclass
class ChunkResult:
    """What one executed chunk reports back to the coordinator.

    Row ``r`` of the arrays is row ``r`` of the chunk's successor masks.
    The engine concatenates these strictly in chunk order, and counter
    merge order is fixed, so the outcome is independent of scheduling
    (worker processes or inline).
    """

    mincost: np.ndarray
    best_last: np.ndarray
    tables: np.ndarray
    """The winners' tables as a row block."""

    counters: OperationCounters

    index: int = 0
    """Position of the chunk within its layer's chunk list."""

    level_cost: Tuple[np.ndarray, ...] = ()
    """``Cost_i`` of every candidate the chunk evaluated, as three
    aligned arrays: the predecessor's absolute mask, the placed variable
    and the nodes its compaction created.  The engine turns them into
    ``level_cost_by_choice`` entries."""

    cancelled: bool = False
    """True when the executing worker observed the mirrored cancellation
    event and stopped early; the engine discards the whole layer."""


def split_chunks(items: Sequence[int], jobs: int) -> List[Sequence[int]]:
    """Contiguous, deterministic near-equal split of a layer's masks."""
    jobs = min(jobs, len(items))
    out: List[Sequence[int]] = []
    start = 0
    for j in range(jobs):
        stop = start + (len(items) - start) // (jobs - j)
        out.append(items[start:stop])
        start = stop
    return [chunk for chunk in out if len(chunk)]


def sweep_chunk(
    masks: np.ndarray,
    previous: Layer,
    base: FSState,
    rule: ReductionRule,
    counters: OperationCounters,
    should_stop: Optional[Callable[[int], bool]] = None,
) -> ChunkResult:
    """Finalize a contiguous range of one layer's rows (runs wherever
    the backend says).

    Reads ``previous`` without mutating it; writes only into its own
    result, which the coordinator merges in deterministic order.  This
    routine is the bit-identity anchor: every backend routes every chunk
    through it, so where a chunk ran can never change what it computed.

    The successor ``masks`` are taken in batches of consecutive rows
    holding about ``_BATCH_CELLS`` new table cells.  A batch's
    candidates — one per member ``i`` of each successor whose
    predecessor is in ``previous`` — read their predecessor rows
    straight out of the layer matrix in one
    :func:`~repro.core.compaction.compact_table` call, each at its own
    cofactor position; each successor then takes its first cheapest
    candidate in ``bits_of`` order.

    ``should_stop`` (the process workers' view of the mirrored
    cancellation event) is polled before each batch with the row count
    the batch would finish the chunk at; a stopped chunk returns with
    ``cancelled=True`` and partial rows the engine discards.
    """
    k = int(masks[0]).bit_count()
    cells = base.num_roots << (base.n - base.placed - k)
    out = ChunkResult(
        np.empty(len(masks), np.int64), np.empty(len(masks), np.int64),
        np.empty((len(masks), cells), previous.tables.dtype), counters,
    )
    level_costs = []
    step = -(-_BATCH_CELLS // (k * cells))
    for start in range(0, len(masks), step):
        stop = min(start + step, len(masks))
        if should_stop is not None and should_stop(stop):
            out.cancelled = True
            return out
        level_costs.append(_settle_batch(
            masks, start, stop, previous, base, rule, out
        ))
    out.level_cost = tuple(map(np.concatenate, zip(*level_costs)))
    counters.subsets_processed += len(masks)
    return out


def _settle_batch(
    chunk: np.ndarray,
    start: int,
    stop: int,
    previous: Layer,
    base: FSState,
    rule: ReductionRule,
    out: ChunkResult,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact one batch of successors in one kernel call and record
    each successor's winner in rows ``start:stop`` of ``out``.  Returns
    the batch's candidates' ``(absolute predecessor mask, variable,
    nodes created)``."""
    masks = chunk[start:stop]
    k = int(masks[0]).bit_count()
    members = bits_of(int(np.bitwise_or.reduce(masks)))
    bits = np.array([1 << i for i in members])
    member = (masks[:, None] & bits) != 0
    # Candidates successor-major, members ascending (bits_of order): one
    # per member i of each successor whose predecessor is in `previous`.
    succ, slot = member.nonzero()
    pred = masks[succ] ^ bits[slot]
    row = previous.rows_of(pred)
    var = np.array(members)[slot]
    # i's rank among the predecessor's free variables: the base's free
    # variables below i, less the successor's other members below i.
    free_below = np.array(
        [i - (base.mask & ((1 << i) - 1)).bit_count() for i in members]
    )
    position = free_below[slot] + 1 - member.cumsum(axis=1)[member]
    starts = np.arange(0, len(succ), k)
    if (row < 0).any():  # a subset filter dropped some predecessors
        keep = row >= 0
        succ, var, pred, row, position = (
            succ[keep], var[keep], pred[keep], row[keep], position[keep]
        )
        per_successor = np.bincount(succ, minlength=len(masks))
        if not per_successor.all():
            raise OrderingError(
                f"no feasible chain reaches subset "
                f"{int(masks[np.argmin(per_successor)]):#x}"
            )
        starts = np.cumsum(per_successor) - per_successor

    created = np.empty(len(succ), np.int64)
    tables = np.empty((len(succ), out.tables.shape[1]), out.tables.dtype)
    prev_cost = previous.mincost[row]
    compact_table(
        previous.tables, row, position, base.num_terminals + prev_cost, rule,
        tables, created, counters=out.counters,
    )

    # A stable sort by (successor, cost) keeps bits_of order among equal
    # costs, so each successor's first cheapest candidate wins.
    cost = prev_cost + created
    winners = np.lexsort((cost, succ))[starts]
    out.mincost[start:stop] = cost[winners]
    out.best_last[start:stop] = var[winners]
    out.tables[start:stop] = tables[winners]
    return base.mask | pred, var, created


# ----------------------------------------------------------------------
# backend protocol
# ----------------------------------------------------------------------

@dataclass
class SweepContext:
    """Everything a backend needs to know about the sweep it executes.

    ``counters`` is the *coordinator's* tally — backends only write
    transport accounting (``tasks_shipped`` / ``bytes_shipped``) into
    it; all kernel work lands in per-chunk counters the engine merges."""

    base: FSState
    rule: ReductionRule
    jobs: int
    counters: OperationCounters
    budget: Optional["Budget"] = None
    profiler: Optional["Profiler"] = None
    fault_injector: Optional["FaultInjector"] = None
    """Deterministic fault injection (tests/CI): the process backend
    consults :meth:`~repro.core.checkpoint.FaultInjector.take_worker_kill`
    while building each chunk's task and flags the doomed envelope.
    The serial backend ignores it — it has no worker to lose."""


class ExecutorBackend(abc.ABC):
    """Where the engine's layer chunks execute.

    The engine only ever calls the four lifecycle methods below, so an
    instance of any subclass may be passed as
    ``EngineConfig(backend=...)``.  A backend instance serves one sweep
    at a time (``begin_sweep``/``end_sweep`` bracket each sweep) but may
    serve many sweeps over its life; :meth:`close` releases long-lived
    resources such as worker pools.

    One-sweep-at-a-time is *enforced*, not assumed: ``begin_sweep``
    takes an internal mutex that ``end_sweep`` releases, so when several
    threads share one warm instance (the :mod:`repro.serve` daemon's
    request workers, a caller-owned pool handed to concurrent solves)
    their sweeps serialize instead of silently overwriting each other's
    context mid-layer.  A *nested* sweep on the thread that already owns
    the instance raises :class:`~repro.errors.OrderingError` — that is a
    programming error, and blocking on it would deadlock.
    """

    name: str = "custom"

    def __init__(self) -> None:
        self._context: Optional[SweepContext] = None
        self._sweep_lock = threading.Lock()
        self._sweep_owner: Optional[int] = None

    def begin_sweep(self, context: SweepContext) -> None:
        """Adopt a sweep (blocking while another thread's sweep runs)."""
        if self._sweep_owner == threading.get_ident():
            raise OrderingError(
                f"backend {self.name!r} is already mid-sweep on this "
                "thread; a sweep cannot nest another sweep on the same "
                "backend instance — pass a separate backend (or a name, "
                "which creates a fresh one) for the inner run"
            )
        self._sweep_lock.acquire()
        self._sweep_owner = threading.get_ident()
        self._context = context

    @abc.abstractmethod
    def run_layer(
        self,
        layer: int,
        chunks: Sequence[np.ndarray],
        previous: Layer,
    ) -> List[ChunkResult]:
        """Execute one layer's chunks; return results in chunk order."""

    def end_sweep(self) -> None:
        """Release per-sweep resources (shared memory, watcher threads);
        the backend stays usable for the next ``begin_sweep``.  Safe to
        call without an open sweep (``close`` paths do): only the thread
        that owns the sweep releases the mutex."""
        self._context = None
        if self._sweep_owner == threading.get_ident():
            self._sweep_owner = None
            self._sweep_lock.release()

    def close(self) -> None:
        """Release everything, worker pools included."""

    def healthy(self) -> bool:
        """Liveness probe for supervisors (the serve daemon's ``health``
        op): ``False`` when the backend's execution substrate is known
        broken — a dead process pool — and the next sweep would have to
        heal or fail.  The serial backend is always healthy, and so is
        a backend whose pool has not been created yet."""
        return True

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # Shared by serial execution and every backend's single-chunk
    # fast path: same fresh-counters-per-chunk structure as the pooled
    # paths, so where a chunk ran never shows in the numbers.
    def _run_inline(
        self,
        chunks: Sequence[np.ndarray],
        previous: Layer,
    ) -> List[ChunkResult]:
        context = self._context
        assert context is not None, (
            "run_layer called outside begin_sweep/end_sweep"
        )
        results: List[ChunkResult] = []
        for index, chunk in enumerate(chunks):
            part = sweep_chunk(
                chunk, previous, context.base, context.rule,
                OperationCounters(),
            )
            part.index = index
            results.append(part)
        return results


def create_backend(
    name: str,
    jobs: Optional[int] = None,
    max_pool_rebuilds: Optional[int] = None,
) -> ExecutorBackend:
    """Instantiate the backend :data:`BACKENDS` names ``name`` (``jobs``
    caps its pool width; defaults to each sweep's ``EngineConfig.jobs``).
    ``max_pool_rebuilds`` caps the process backend's self-healing budget
    (``None`` keeps its default); ``ValueError`` on unknown names."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        )
    return BACKENDS[name](jobs=jobs, max_pool_rebuilds=max_pool_rebuilds)


def resolve_backend(
    spec: Union[str, ExecutorBackend],
    max_pool_rebuilds: Optional[int] = None,
) -> Tuple[ExecutorBackend, bool]:
    """``(backend, engine_owned)`` for an ``EngineConfig.backend`` value.

    A string creates a fresh engine-owned backend (closed after the
    sweep); an instance stays caller-owned (only ``begin_sweep`` /
    ``end_sweep`` run), which is how one pool serves many sweeps — and
    how it keeps whatever ``max_pool_rebuilds`` its creator configured.
    """
    if isinstance(spec, ExecutorBackend):
        return spec, False
    return create_backend(spec, max_pool_rebuilds=max_pool_rebuilds), True


@contextmanager
def shared_backend(config: Any) -> Iterator[Any]:
    """Pin ``config.backend`` to one live instance for a whole block.

    Entry points that run *many* sweeps per call (a window sweep's inner
    FS* solves, a fallback ladder) use this so a string backend spec
    costs one pool, not one pool per sweep.  Yields ``config`` itself
    when it is ``None`` or already carries an instance.

    ``close()`` can itself fail when the pool died inside the block.
    When the body is already unwinding an exception, a close-time
    failure is swallowed so it can never mask the original error (the
    broken pool is being discarded either way); a close failure on a
    clean exit still propagates.
    """
    if config is None or isinstance(config.backend, ExecutorBackend):
        yield config
        return
    backend = create_backend(
        config.backend,
        max_pool_rebuilds=getattr(config, "max_pool_rebuilds", None),
    )
    try:
        yield replace(config, backend=backend)
    except BaseException:
        try:
            backend.close()
        except Exception:
            pass
        raise
    else:
        backend.close()


# ----------------------------------------------------------------------
# serial backend
# ----------------------------------------------------------------------

class SerialBackend(ExecutorBackend):
    """Chunks run inline on the coordinator — the reference executor."""

    name = "serial"

    def __init__(
        self,
        jobs: Optional[int] = None,
        max_pool_rebuilds: Optional[int] = None,
    ) -> None:
        super().__init__()
        # Both accepted for interface symmetry; neither applies inline.
        self._jobs = jobs
        self._max_pool_rebuilds = max_pool_rebuilds

    def run_layer(
        self,
        layer: int,
        chunks: Sequence[np.ndarray],
        previous: Layer,
    ) -> List[ChunkResult]:
        return self._run_inline(chunks, previous)


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------

@dataclass
class ChunkTask:
    """Picklable envelope carrying one chunk to a worker process.

    The base table travels *once per sweep* through shared memory
    (``shm_name`` + ``base_spec`` let every worker rebuild the base
    state and cache it under ``token``); the task itself carries only
    the chunk's successor masks and :meth:`~repro.core.frontier.Layer.take`
    of the predecessor rows those masks read, as numpy arrays.
    """

    token: str
    shm_name: str
    base_spec: Dict[str, Any]
    rule_value: str
    layer: int
    index: int
    masks: np.ndarray
    previous: Optional[Layer]
    """``None`` for the first layer, whose one predecessor is the base
    state the worker already holds in shared memory."""

    payload_bytes: int = 0

    kill_self: Optional[str] = None
    """Injected process-level fault (tests/CI only): ``"before"`` makes
    the executing worker SIGKILL itself as the task starts, ``"during"``
    in the batch that takes the chunk past its halfway row.  Set by the
    coordinator from
    :class:`~repro.core.checkpoint.FaultInjector.take_worker_kill`, which
    consumes the kill *before* shipping — the healed pool's re-submission
    of the same chunk carries ``None``."""


# Worker-process globals (populated by the pool initializer and the
# first task of each sweep; one sweep's base is cached per worker).
_WORKER_CANCEL: Optional[Any] = None
_WORKER_SWEEP: Optional[Tuple[str, Any, FSState, ReductionRule]] = None


def _worker_initializer(cancel_event: Any) -> None:
    """Runs once in every spawned worker: keep Ctrl-C cooperative.

    SIGINT is ignored so a terminal interrupt hits only the coordinator,
    whose :func:`~repro.core.budget.handle_signals` turns it into the
    cancellation event the workers actually poll."""
    global _WORKER_CANCEL
    _WORKER_CANCEL = cancel_event
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _worker_bind_sweep(task: ChunkTask) -> Tuple[str, Any, FSState, ReductionRule]:
    """Attach this worker to the task's sweep (cached per token).

    The previous sweep's shared-memory attachment is closed when a new
    token arrives, so long-lived pools (batch mode) hold at most one
    base mapping per worker.
    """
    global _WORKER_SWEEP
    if _WORKER_SWEEP is not None and _WORKER_SWEEP[0] == task.token:
        return _WORKER_SWEEP
    if _WORKER_SWEEP is not None:
        try:
            _WORKER_SWEEP[1].close()
        except OSError:  # pragma: no cover - already gone
            pass
        _WORKER_SWEEP = None
    from multiprocessing import shared_memory

    # The coordinator owns the segment's lifetime; a worker attachment
    # must not register it with the (shared) resource tracker, whose
    # name cache is a set — duplicate registrations collapse, so any
    # worker-side entry would unbalance the coordinator's own
    # register/unregister pair and spew KeyErrors at unlink time.
    try:
        shm = shared_memory.SharedMemory(name=task.shm_name, track=False)
    except TypeError:  # Python < 3.13: no track=; suppress registration
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            shm = shared_memory.SharedMemory(name=task.shm_name)
        finally:
            resource_tracker.register = original_register
    spec = task.base_spec
    cells = np.ndarray(
        (int(spec["cells"]),), dtype=np.dtype(spec["dtype"]), buffer=shm.buf
    )
    cells.flags.writeable = False
    base = FSState(
        n=int(spec["n"]),
        mask=int(spec["mask"]),
        pi=tuple(int(v) for v in spec["pi"]),
        mincost=int(spec["mincost"]),
        table=cells,
        num_terminals=int(spec["num_terminals"]),
        num_roots=int(spec["num_roots"]),
    )
    _WORKER_SWEEP = (task.token, shm, base, ReductionRule(task.rule_value))
    return _WORKER_SWEEP


def _suicide_midway(
    total: int, inner: Optional[Callable[[int], bool]]
) -> Callable[[int], bool]:
    """``should_stop`` wrapper realizing the ``"during"`` kill phase.

    The chunk loop polls ``should_stop`` before each batch with the row
    count the batch would finish at, so the SIGKILL lands in the batch
    that crosses the chunk's halfway row — after the earlier batches'
    work has been done and really lost, which is the point of the phase.
    A chunk of a single batch has no halfway; there the kill fires on
    the first poll (degenerating to ``"before"``) rather than silently
    not at all."""

    def poll(stop: int) -> bool:
        if stop > total // 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return inner(stop) if inner is not None else False

    return poll


def _run_chunk_task(task: ChunkTask) -> ChunkResult:
    """Worker entry point: execute one shipped chunk."""
    if task.kill_self == "before":
        # SIGKILL, not an exception: uncatchable, no cleanup, exactly
        # what the OOM killer delivers.  The pool goes BrokenProcessPool.
        os.kill(os.getpid(), signal.SIGKILL)
    _, _, base, rule = _worker_bind_sweep(task)
    previous = task.previous
    if previous is None:
        previous = Layer.of_base(base, rule)
    cancel = _WORKER_CANCEL
    should_stop = None
    if cancel is not None:
        should_stop = lambda stop: cancel.is_set()  # noqa: E731
    if task.kill_self == "during":
        should_stop = _suicide_midway(len(task.masks), should_stop)
    out = sweep_chunk(
        task.masks, previous, base, rule, OperationCounters(),
        should_stop=should_stop,
    )
    out.index = task.index
    return out


# Coordinator-side ledger of live shared-memory segments.  end_sweep is
# the normal unlink path (the engine reaches it through try/finally even
# when run_layer raises), but a coordinator that dies *between* creating
# the segment and that finally — or an embedder that never calls close()
# — would leak a /dev/shm file until reboot.  The atexit hook sweeps up
# whatever is still registered at interpreter shutdown.
_LIVE_SEGMENTS: Dict[str, Any] = {}
_LIVE_SEGMENTS_LOCK = threading.Lock()


def _register_segment(shm: Any) -> None:
    with _LIVE_SEGMENTS_LOCK:
        _LIVE_SEGMENTS[shm.name] = shm


def _forget_segment(shm: Any) -> None:
    with _LIVE_SEGMENTS_LOCK:
        _LIVE_SEGMENTS.pop(shm.name, None)


@atexit.register
def _unlink_leaked_segments() -> None:
    with _LIVE_SEGMENTS_LOCK:
        leaked = list(_LIVE_SEGMENTS.values())
        _LIVE_SEGMENTS.clear()
    for shm in leaked:
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - racing
            pass


class ProcessBackend(ExecutorBackend):
    """Chunks fan out over a spawn-context process pool.

    Per sweep, the base table is copied once into a
    :class:`multiprocessing.shared_memory.SharedMemory` segment; per
    layer, each chunk ships only its masks plus the predecessor rows it
    reads (see :class:`ChunkTask`).  Shipping volume is tallied in
    the ``tasks_shipped`` / ``bytes_shipped`` extra counters and the
    submit/collect wall-clock under the ``ipc_submit`` / ``ipc_merge``
    profiler phases.

    The coordinator's budget is mirrored into the workers by a watcher
    thread that sets a shared :class:`multiprocessing.Event` when the
    budget is cancelled or its deadline expires; workers poll it between
    batches.  Single-chunk layers run inline — no pool, no shipping — so
    ``jobs=1`` process runs are exactly serial runs.
    """

    name = "process"

    #: Default self-healing budget: two pool rebuilds per layer covers a
    #: transient kill plus one recurrence before the run is declared
    #: unrecoverable (``max_pool_rebuilds=0`` disables healing).
    DEFAULT_MAX_POOL_REBUILDS = 2
    #: First-rebuild backoff; doubles per rebuild (RetryPolicy semantics).
    REBUILD_BASE_DELAY = 0.05
    REBUILD_MAX_DELAY = 2.0

    def __init__(
        self,
        jobs: Optional[int] = None,
        max_pool_rebuilds: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._jobs = jobs
        self._max_pool_rebuilds = (
            self.DEFAULT_MAX_POOL_REBUILDS
            if max_pool_rebuilds is None
            else max_pool_rebuilds
        )
        self._pool: Optional[Any] = None
        self._cancel_event: Optional[Any] = None
        self._token_seq = 0
        self._sweep_token: Optional[str] = None
        self._shm: Optional[Any] = None
        self._base_spec: Optional[Dict[str, Any]] = None
        self._watcher: Optional[Tuple[threading.Thread, threading.Event]] = None

    # -- lifecycle -----------------------------------------------------

    def begin_sweep(self, context: SweepContext) -> None:
        super().begin_sweep(context)
        if self._cancel_event is not None:
            budget = context.budget
            if budget is None or not budget.cancelled():
                # A previous sweep's abort must not poison this one.
                self._cancel_event.clear()

    def end_sweep(self) -> None:
        # Nested finally, not straight-line code: whatever the watcher
        # join or the segment unlink throws, the shared memory must be
        # released and the sweep mutex must come back — the crash paths
        # are exactly where leaking either would hurt most.
        try:
            try:
                self._stop_watcher()
            finally:
                self._release_segment()
        finally:
            self._sweep_token = None
            self._base_spec = None
            super().end_sweep()

    def close(self) -> None:
        try:
            self.end_sweep()
        finally:
            self._teardown_pool(wait=True)
            self._cancel_event = None

    def healthy(self) -> bool:
        pool = self._pool
        if pool is None:
            return True  # lazily created; nothing to be broken yet
        return not bool(getattr(pool, "_broken", False))

    # -- execution -----------------------------------------------------

    def run_layer(
        self,
        layer: int,
        chunks: Sequence[np.ndarray],
        previous: Layer,
    ) -> List[ChunkResult]:
        if len(chunks) <= 1:
            return self._run_inline(chunks, previous)
        context = self._context
        assert context is not None
        # Results slot in by chunk index; a pool death between attempts
        # only ever refills the None slots, so the merged layer is the
        # same fixed-chunk-order list an uncrashed run produces.
        results: List[Optional[ChunkResult]] = [None] * len(chunks)
        policy = RetryPolicy(
            max_retries=self._max_pool_rebuilds,
            base_delay=self.REBUILD_BASE_DELAY,
            max_delay=self.REBUILD_MAX_DELAY,
            retryable=(BrokenExecutor,),
        )

        def heal(attempt: int, exc: BaseException) -> None:
            context.counters.add_extra("pool_rebuilds")
            context.counters.add_extra(
                "chunks_retried", sum(1 for part in results if part is None)
            )
            self._heal_pool()

        try:
            policy.run(
                lambda: self._attempt_layer(layer, chunks, previous, results),
                describe=f"layer {layer} chunk fan-out",
                on_retry=heal,
            )
        except BrokenExecutor as exc:
            # Healing budget exhausted; drop the dead pool so a caller
            # holding this instance is not left pinning corpses, and
            # surface where the run stood.  The engine stamps the last
            # committed checkpoint path onto the error on its way out.
            self._teardown_pool(wait=True)
            raise ExecutorBrokenError(
                f"process pool died executing layer {layer} and stayed "
                f"broken after {policy.retries_used} rebuild(s); resume "
                "from the last committed checkpoint, or raise "
                "max_pool_rebuilds if the deaths are transient",
                layer=layer,
                pool_rebuilds=policy.retries_used,
            ) from exc
        assert all(part is not None for part in results)
        return results  # type: ignore[return-value]

    def _attempt_layer(
        self,
        layer: int,
        chunks: Sequence[np.ndarray],
        previous: Layer,
        results: List[Optional[ChunkResult]],
    ) -> None:
        """One submit/collect pass over the chunks still missing results.

        Raises ``BrokenExecutor`` (letting the retry policy heal and
        call back) after harvesting every future that *did* complete —
        a dead worker invalidates only work the pool never finished, so
        completed chunks merge exactly once and are never re-run.
        """
        context = self._context
        assert context is not None
        self._ensure_pool(context)
        self._ensure_sweep_shipped(context)
        profiler = context.profiler
        pending = [i for i, part in enumerate(results) if part is None]
        futures: Dict[int, Any] = {}
        try:
            with _phase(profiler, "ipc_submit"):
                tasks = [
                    self._make_task(layer, index, chunks[index], previous)
                    for index in pending
                ]
                for index, task in zip(pending, tasks):
                    futures[index] = self._pool.submit(_run_chunk_task, task)
                context.counters.add_extra("tasks_shipped", len(tasks))
                context.counters.add_extra(
                    "bytes_shipped", sum(t.payload_bytes for t in tasks)
                )
            with _phase(profiler, "ipc_merge"):
                for index in pending:
                    results[index] = futures[index].result()
        except BrokenExecutor:
            for index, future in futures.items():
                if results[index] is not None or not future.done():
                    continue
                try:
                    results[index] = future.result()
                except BaseException:
                    pass  # this chunk died with the pool; retry covers it
            raise

    def _make_task(
        self,
        layer: int,
        index: int,
        chunk: np.ndarray,
        previous: Layer,
    ) -> ChunkTask:
        context = self._context
        assert context is not None and self._base_spec is not None
        assert self._sweep_token is not None and self._shm is not None
        # Predecessor rows this chunk actually reads (the first layer's
        # one predecessor, the base, never ships: it lives in shared
        # memory).
        shipped: Optional[Layer] = None
        payload = chunk.nbytes
        if layer > 1:
            members = bits_of(int(np.bitwise_or.reduce(chunk)))
            shipped = previous.take(np.unique(np.concatenate([
                chunk[((chunk >> i) & 1) == 1] ^ (1 << i) for i in members
            ])))
            payload += shipped.nbytes
        kill_self: Optional[str] = None
        if context.fault_injector is not None:
            kill_self = context.fault_injector.take_worker_kill(layer, index)
        return ChunkTask(
            token=self._sweep_token,
            shm_name=self._shm.name,
            base_spec=self._base_spec,
            rule_value=context.rule.value,
            layer=layer,
            index=index,
            masks=chunk,
            previous=shipped,
            payload_bytes=payload,
            kill_self=kill_self,
        )

    # -- plumbing ------------------------------------------------------

    def _ensure_pool(self, context: SweepContext) -> None:
        if self._pool is not None:
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        mp = multiprocessing.get_context("spawn")
        if self._cancel_event is None:
            # Survives pool rebuilds: the budget watcher thread holds a
            # reference to this event, and a healed pool's workers must
            # see the same cancellation state the broken pool's did.
            self._cancel_event = mp.Event()
        self._pool = ProcessPoolExecutor(
            max_workers=self._jobs or context.jobs,
            mp_context=mp,
            initializer=_worker_initializer,
            initargs=(self._cancel_event,),
        )

    def _teardown_pool(self, wait: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def _heal_pool(self) -> None:
        """Replace a broken pool (and its shipped sweep) in place.

        The fresh pool's workers know nothing, so the base table ships
        again under a *new* token — the old token's worker-side cache
        entries die with the old workers, and a straggler from the old
        pool could never cross-talk with the new sweep state.  The
        budget watcher (if any) keeps running: it only touches the
        cancellation event, which survives the rebuild.
        """
        self._teardown_pool(wait=True)
        self._release_segment()
        self._sweep_token = None
        self._base_spec = None

    def _release_segment(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        _forget_segment(shm)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass

    def _ensure_sweep_shipped(self, context: SweepContext) -> None:
        if self._sweep_token is not None:
            return
        from multiprocessing import shared_memory

        self._token_seq += 1
        self._sweep_token = f"{os.getpid()}-{id(self):x}-{self._token_seq}"
        table = np.ascontiguousarray(context.base.table)
        shm = shared_memory.SharedMemory(create=True, size=max(1, table.nbytes))
        _register_segment(shm)
        view = np.ndarray(table.shape, dtype=table.dtype, buffer=shm.buf)
        np.copyto(view, table)
        self._shm = shm
        base = context.base
        self._base_spec = {
            "n": base.n,
            "mask": base.mask,
            "pi": [int(v) for v in base.pi],
            "mincost": base.mincost,
            "num_terminals": base.num_terminals,
            "num_roots": base.num_roots,
            "cells": int(table.shape[0]),
            "dtype": str(table.dtype),
        }
        context.counters.add_extra("bytes_shipped", int(table.nbytes))
        if context.budget is not None:
            self._start_watcher(context.budget)

    def _start_watcher(self, budget: "Budget") -> None:
        if self._watcher is not None or self._cancel_event is None:
            return
        stop = threading.Event()
        cancel_event = self._cancel_event

        def watch() -> None:
            while not stop.wait(_WATCHER_POLL_SECONDS):
                if budget.cancelled():
                    cancel_event.set()
                    return
                remaining = budget.remaining()
                if remaining is not None and remaining <= 0:
                    cancel_event.set()
                    return

        thread = threading.Thread(
            target=watch, name="repro-budget-mirror", daemon=True
        )
        thread.start()
        self._watcher = (thread, stop)

    def _stop_watcher(self) -> None:
        if self._watcher is None:
            return
        thread, stop = self._watcher
        stop.set()
        thread.join(timeout=1.0)
        self._watcher = None


#: The backends ``EngineConfig(backend=...)``, :func:`create_backend`
#: and the CLI ``--backend`` flag accept, by name.
BACKENDS: Dict[str, Type[ExecutorBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}
