"""Pluggable execution backends for the layered sweep.

The engine (:func:`repro.core.engine.run_layered_sweep`) splits every DP
layer into contiguous chunks of disjoint masks and hands them to an
:class:`ExecutorBackend`; the backend decides *where* the chunks run.
Three implementations ship:

* ``serial`` — chunks run inline on the coordinator, one after another.
* ``thread`` — chunks fan out over a lazily created
  :class:`~concurrent.futures.ThreadPoolExecutor` (the historical
  ``jobs>1`` behavior).  Cheap to start, but the chunk loop gains little
  under the GIL.
* ``process`` — chunks fan out over a spawn-context
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Read-only base data
  (the root table's bytes) is shipped once per sweep through
  :mod:`multiprocessing.shared_memory`; per-layer work travels as a
  picklable :class:`ChunkTask` / :class:`ChunkResult` envelope.  This is
  the backend where ``jobs=4`` means four cores.

Determinism contract: every backend executes the *same* chunks (the
split depends only on ``jobs``), runs each chunk through the same
:func:`sweep_chunk` routine with a fresh
:class:`~repro.analysis.counters.OperationCounters`, and the engine
merges chunk results in fixed chunk order — so results *and counters*
are bit-identical across ``serial``/``thread``/``process`` and any
``jobs`` value.  The only exception is transport accounting: the process
backend tallies ``tasks_shipped`` / ``bytes_shipped`` extra counters
(deterministic for a given run shape, but zero on the in-process
backends), which are excluded from the cross-backend parity guarantee
exactly like the frontier policy's ``recompute_*`` counters are excluded
from the paper-facing totals.

Budget propagation: the process backend mirrors the coordinator's
:class:`~repro.core.budget.Budget` — its cooperative-cancellation event
and its deadline — into a shared :class:`multiprocessing.Event` via a
watcher thread; workers poll it between masks and stop early.  A chunk
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
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence,
    Tuple, Type, Union,
)

import numpy as np

from .._bitops import bits_of
from ..analysis.counters import OperationCounters
from ..errors import ExecutorBrokenError, OrderingError
from .checkpoint import RetryPolicy, Skeleton
from .compaction import cofactor_indices, compact, compact_table, extend_state
from .frontier import BaseOverlay, PackedFrontier, PackedSlice
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..observability import Profiler
    from .budget import Budget
    from .checkpoint import FaultInjector

Entry = Union[FSState, Skeleton]
"""A frontier entry: a full state, or a ``(pi, mincost)`` skeleton under
the mincost-only frontier policy."""

PreviousLayer = Any
"""The finished previous layer a chunk reads: a
:class:`~repro.core.frontier.FrontierStore` (what the engine hands the
backends), a plain ``mask -> entry`` dict (direct callers, tests), or a
worker-side :class:`~repro.core.frontier.BaseOverlay`.  Chunk code only
relies on ``.get(mask)``."""

# Flat per-entry overhead charged by the shipping-volume estimate (dict
# slot + dataclass header); deliberately a round constant so the
# ``bytes_shipped`` tally is deterministic across interpreter builds.
_ENTRY_OVERHEAD_BYTES = 64
_SKELETON_BYTES = 32

_WATCHER_POLL_SECONDS = 0.05

# New table cells one batch of candidate compactions holds: enough that
# numpy's fixed cost per call vanishes, few enough that a batch's
# scratch arrays stay a few megabytes.
_BATCH_CELLS = 1 << 16


def _phase(profiler: Optional["Profiler"], name: str):
    return profiler.phase(name) if profiler is not None else nullcontext()


# ----------------------------------------------------------------------
# the unit of work: chunk in, chunk result out
# ----------------------------------------------------------------------

@dataclass
class ChunkResult:
    """What one executed chunk reports back to the coordinator.

    The engine merges these strictly in chunk order — entries are keyed
    by disjoint masks and counter merge order is fixed, so the outcome is
    independent of scheduling (threads, processes, or inline).
    """

    index: int = 0
    """Position of the chunk within its layer's chunk list."""

    entries: Dict[int, Entry] = field(default_factory=dict)
    """Finished entries keyed by mask.  Empty when a process worker
    shipped them back packed — see :attr:`packed`."""

    packed: Optional[PackedSlice] = None
    """Finished entries as contiguous packed columns: how process workers
    ship results of a packed-store sweep back without pickling per-entry
    dataclasses.  ``entries`` and ``packed`` never overlap; the engine's
    store absorbs whichever is present."""

    mincost: Dict[int, int] = field(default_factory=dict)
    best_last: Dict[int, int] = field(default_factory=dict)
    level_cost: Dict[Tuple[int, int], int] = field(default_factory=dict)
    processed: int = 0
    counters: OperationCounters = field(default_factory=OperationCounters)

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
    return [chunk for chunk in out if chunk]


def sweep_chunk(
    masks: Sequence[int],
    previous: PreviousLayer,
    base: FSState,
    rule: ReductionRule,
    retain_full: bool,
    counters: OperationCounters,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ChunkResult:
    """Finalize a slice of one layer (runs wherever the backend says).

    Reads ``previous`` without mutating it; writes only into its own
    result, which the coordinator merges in deterministic order.  This
    routine is the bit-identity anchor: every backend routes every chunk
    through it, so where a chunk ran can never change what it computed.

    Masks are gathered one at a time — each candidate's predecessor read
    through ``previous.get`` and materialized — into batches of
    consecutive subsets holding about ``_BATCH_CELLS`` new table cells.
    A batch is compacted with one
    :func:`~repro.core.compaction.compact_table` call per cofactor
    position (all predecessors of a layer share table geometry, so the
    candidates folding the same position stack into one call), each
    subset then takes its first cheapest candidate in ``bits_of`` order,
    a full state is built only for that winner, and the batch is
    dropped.

    ``should_stop`` (the process workers' view of the mirrored
    cancellation event) is polled before each mask; a stopped chunk
    returns with ``cancelled=True``, the masks of its open batch and
    every mask it had not reached simply absent.
    """
    out = ChunkResult(counters=counters)
    indices: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    # The open batch: each subset's candidates as (i, prev, position,
    # row), and per cofactor position the stacked predecessors.
    subsets: List[Tuple[int, List[Tuple[int, FSState, int, int]]]] = []
    stacks: Dict[int, List[FSState]] = {}
    cells = 0
    for mask in masks:
        if should_stop is not None and should_stop():
            out.cancelled = True
            return out
        candidates = []
        for i in bits_of(mask):
            entry = previous.get(mask & ~(1 << i))
            if entry is None:
                continue  # infeasible predecessor under a subset filter
            prev = materialize_entry(base, entry, rule, counters)
            # i's rank among prev's free variables: the cofactor position.
            position = i - (prev.mask & ((1 << i) - 1)).bit_count()
            stack = stacks.setdefault(position, [])
            candidates.append((i, prev, position, len(stack)))
            stack.append(prev)
        if not candidates:
            raise OrderingError(
                f"no feasible chain reaches subset {mask:#x}"
            )
        subsets.append((mask, candidates))
        cells += len(candidates) * (prev.table.shape[0] >> 1)
        if cells >= _BATCH_CELLS:
            _settle_batch(subsets, stacks, indices, rule, retain_full, out)
            subsets, stacks, cells = [], {}, 0
    if subsets:
        _settle_batch(subsets, stacks, indices, rule, retain_full, out)
    return out


def _settle_batch(
    subsets: List[Tuple[int, List[Tuple[int, FSState, int, int]]]],
    stacks: Dict[int, List[FSState]],
    indices: Dict[int, Tuple[np.ndarray, np.ndarray]],
    rule: ReductionRule,
    retain_full: bool,
    out: ChunkResult,
) -> None:
    """Compact one batch, a kernel call per stack, and record each
    subset's winner."""
    compacted = {}
    for position, prevs in stacks.items():
        cofactors = indices.get(position)
        if cofactors is None:
            first = prevs[0]
            cofactors = indices[position] = cofactor_indices(
                first.n, first.placed, first.num_roots, position
            )
        if len(prevs) == 1:
            tables = prevs[0].table[None]
        else:
            tables = np.concatenate([prev.table for prev in prevs])
            tables = tables.reshape(len(prevs), -1)
        tables, unique_keys, counts = compact_table(
            tables, *cofactors, [prev.next_id for prev in prevs], rule,
            out.counters,
        )
        # Row r's keys are unique_keys[starts[r]:starts[r + 1]].
        starts = list(accumulate(counts, initial=0))
        compacted[position] = (tables, unique_keys, counts, starts)

    for mask, candidates in subsets:
        best = None
        for i, prev, position, row in candidates:
            created = compacted[position][2][row]
            out.level_cost[(prev.mask, i)] = created
            mincost = prev.mincost + created
            if best is None or mincost < best[0]:
                best = (mincost, i, prev, position, row)
        mincost, i, prev, position, row = best
        if retain_full:
            tables, unique_keys, _, starts = compacted[position]
            table = tables[row]
            if tables.shape[0] > 1:
                table = table.copy()  # let the rest of the stack go
            out.entries[mask] = extend_state(
                prev, i, table, unique_keys[starts[row]:starts[row + 1]],
            )
        else:
            out.entries[mask] = Skeleton(pi=prev.pi + (i,), mincost=mincost)
        out.mincost[mask] = mincost
        out.best_last[mask] = i
        out.processed += 1
        out.counters.subsets_processed += 1


def materialize_entry(
    base: FSState,
    entry: Entry,
    rule: ReductionRule,
    counters: OperationCounters,
) -> FSState:
    """Turn a frontier entry back into a full state.

    For a skeleton this replays its chain from ``base``.  By Lemma 3 the
    subfunction partition at every step depends only on the subset, so
    the rebuilt state has the same mincost (asserted) and the same level
    costs as the one the sweep measured.  The replay work is tallied
    under ``extra`` counters so the paper-facing totals (``table_cells``
    == ``n * 3^{n-1}`` for a full FS run) stay exact.
    """
    if isinstance(entry, FSState):
        return entry
    scratch = OperationCounters()
    state = base
    for var in entry.pi[len(base.pi):]:
        state = compact(state, var, rule, scratch)
    assert state.mincost == entry.mincost, "replayed chain must reproduce mincost"
    counters.add_extra("recompute_compactions", scratch.compactions)
    counters.add_extra("recompute_cells", scratch.table_cells)
    return state


# ----------------------------------------------------------------------
# backend protocol + registry
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
    In-process backends ignore it — they have no worker to lose."""


class ExecutorBackend(abc.ABC):
    """Where the engine's layer chunks execute.

    Subclass and :func:`register_backend` to plug in new substrates (a
    cluster scheduler, a GPU queue, ...); the engine only ever calls the
    four lifecycle methods below.  A backend instance serves one sweep
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
        chunks: Sequence[Sequence[int]],
        previous: PreviousLayer,
        retain_full: bool,
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
        heal or fail.  In-process backends are always healthy, and so is
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
        chunks: Sequence[Sequence[int]],
        previous: PreviousLayer,
        retain_full: bool,
    ) -> List[ChunkResult]:
        context = self._context
        assert context is not None, (
            "run_layer called outside begin_sweep/end_sweep"
        )
        results: List[ChunkResult] = []
        for index, chunk in enumerate(chunks):
            part = sweep_chunk(
                chunk, previous, context.base, context.rule,
                retain_full, OperationCounters(),
            )
            part.index = index
            results.append(part)
        return results


_BACKENDS: Dict[str, Type[ExecutorBackend]] = {}


def register_backend(name: str) -> Callable[[Type[ExecutorBackend]], Type[ExecutorBackend]]:
    """Class decorator registering a backend under ``name``.

    Registered names become valid for ``EngineConfig(backend=...)`` and
    the CLI ``--backend`` flag."""

    def decorate(cls: Type[ExecutorBackend]) -> Type[ExecutorBackend]:
        _BACKENDS[name] = cls
        return cls

    return decorate


def get_backend(name: str) -> Type[ExecutorBackend]:
    """Resolve a registered backend class; ``ValueError`` on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {available_backends()}"
        ) from None


def available_backends() -> List[str]:
    """Registered backend names, sorted (for CLI choices and errors)."""
    return sorted(_BACKENDS)


def create_backend(
    name: str,
    jobs: Optional[int] = None,
    max_pool_rebuilds: Optional[int] = None,
) -> ExecutorBackend:
    """Instantiate a registered backend (``jobs`` caps its pool width;
    defaults to each sweep's ``EngineConfig.jobs``).  ``max_pool_rebuilds``
    caps the process backend's self-healing budget; it is forwarded only
    when set, so registered backends that predate the knob keep working.
    """
    kwargs: Dict[str, Any] = {"jobs": jobs}
    if max_pool_rebuilds is not None:
        kwargs["max_pool_rebuilds"] = max_pool_rebuilds
    return get_backend(name)(**kwargs)


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
# serial + thread backends
# ----------------------------------------------------------------------

@register_backend("serial")
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
        chunks: Sequence[Sequence[int]],
        previous: PreviousLayer,
        retain_full: bool,
    ) -> List[ChunkResult]:
        return self._run_inline(chunks, previous, retain_full)


@register_backend("thread")
class ThreadBackend(ExecutorBackend):
    """Chunks fan out over a lazily created thread pool.

    The pool is created on the first layer that has more than one chunk
    (``jobs=1`` sweeps never pay pool startup) and persists across
    sweeps until :meth:`close`.  Workers share the coordinator's memory,
    so nothing is shipped and no transport counters are tallied.
    """

    name = "thread"

    def __init__(
        self,
        jobs: Optional[int] = None,
        max_pool_rebuilds: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._jobs = jobs
        # Threads cannot be SIGKILLed out from under the pool; accepted
        # for interface symmetry only.
        self._max_pool_rebuilds = max_pool_rebuilds
        self._pool: Optional[Any] = None

    def run_layer(
        self,
        layer: int,
        chunks: Sequence[Sequence[int]],
        previous: PreviousLayer,
        retain_full: bool,
    ) -> List[ChunkResult]:
        if len(chunks) <= 1:
            return self._run_inline(chunks, previous, retain_full)
        context = self._context
        assert context is not None
        pool = self._ensure_pool(context)
        futures = [
            pool.submit(
                sweep_chunk, chunk, previous, context.base,
                context.rule, retain_full, OperationCounters(),
            )
            for chunk in chunks
        ]
        results: List[ChunkResult] = []
        for index, future in enumerate(futures):
            part = future.result()
            part.index = index
            results.append(part)
        return results

    def _ensure_pool(self, context: SweepContext) -> Any:
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._jobs or context.jobs
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------

@dataclass
class ChunkTask:
    """Picklable envelope carrying one chunk to a worker process.

    The base table travels *once per sweep* through shared memory
    (``shm_name`` + ``base_spec`` let every worker rebuild the base
    state and cache it under ``token``); the task itself carries only
    the chunk's masks and the predecessor entries those masks actually
    read — full states under the FULL frontier policy, ``(pi, mincost)``
    skeletons under MINCOST_ONLY (workers replay them from the shared
    base exactly as the in-process backends do, so the ``recompute_*``
    counters stay bit-identical).

    With a packed frontier store the predecessors travel as one
    :class:`~repro.core.frontier.PackedSlice` (:attr:`packed`) instead of
    a pickled dict of dataclasses — flat byte columns at the layer's
    narrow table width — which is what shrinks the ``bytes_shipped``
    tally; :attr:`entries` is then empty.
    """

    token: str
    shm_name: str
    base_spec: Dict[str, Any]
    rule_value: str
    layer: int
    index: int
    masks: Tuple[int, ...]
    entries: Dict[int, Entry]
    retain_full: bool
    payload_bytes: int = 0
    packed: Optional[PackedSlice] = None

    kill_self: Optional[str] = None
    """Injected process-level fault (tests/CI only): ``"before"`` makes
    the executing worker SIGKILL itself as the task starts, ``"during"``
    about halfway through the chunk's masks.  Set by the coordinator
    from :class:`~repro.core.checkpoint.FaultInjector.take_worker_kill`,
    which consumes the kill *before* shipping — the healed pool's
    re-submission of the same chunk carries ``None``."""


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
    total: int, inner: Optional[Callable[[], bool]]
) -> Callable[[], bool]:
    """``should_stop`` wrapper realizing the ``"during"`` kill phase.

    The chunk loop polls ``should_stop`` once per mask, so counting polls
    places the SIGKILL about halfway through the chunk's masks — after
    real work (predecessor reads and replays, and any batch already
    compacted) has been done and really lost, which is the point of the
    phase.  A
    single-mask chunk has no halfway; there the kill fires on the first
    poll (degenerating to ``"before"``) rather than silently not at
    all."""
    seen = 0
    trigger = total // 2

    def poll() -> bool:
        nonlocal seen
        seen += 1
        if seen > trigger:
            os.kill(os.getpid(), signal.SIGKILL)
        return inner() if inner is not None else False

    return poll


def _run_chunk_task(task: ChunkTask) -> ChunkResult:
    """Worker entry point: execute one shipped chunk."""
    if task.kill_self == "before":
        # SIGKILL, not an exception: uncatchable, no cleanup, exactly
        # what the OOM killer delivers.  The pool goes BrokenProcessPool.
        os.kill(os.getpid(), signal.SIGKILL)
    _, _, base, rule = _worker_bind_sweep(task)
    previous: PreviousLayer
    if task.packed is not None:
        # The base entry never ships; it lives in shm.
        previous = BaseOverlay(base, PackedFrontier.from_slice(task.packed))
    else:
        previous = dict(task.entries)
        previous[0] = base
    cancel = _WORKER_CANCEL
    should_stop = cancel.is_set if cancel is not None else None
    if task.kill_self == "during":
        should_stop = _suicide_midway(len(task.masks), should_stop)
    out = sweep_chunk(
        task.masks, previous, base, rule, task.retain_full,
        OperationCounters(),
        should_stop=should_stop,
    )
    out.index = task.index
    if task.packed is not None and out.entries:
        # A packed sweep's results ship back as columns, encoded here in
        # the worker rather than on the coordinator.
        store = PackedFrontier()
        store.extend(out.entries)
        out.packed, out.entries = store.to_slice(), {}
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


@register_backend("process")
class ProcessBackend(ExecutorBackend):
    """Chunks fan out over a spawn-context process pool.

    Per sweep, the base table is copied once into a
    :class:`multiprocessing.shared_memory.SharedMemory` segment; per
    layer, each chunk ships only its masks plus the predecessor entries
    it reads (see :class:`ChunkTask`).  Shipping volume is tallied in
    the ``tasks_shipped`` / ``bytes_shipped`` extra counters and the
    submit/collect wall-clock under the ``ipc_submit`` / ``ipc_merge``
    profiler phases.

    The coordinator's budget is mirrored into the workers by a watcher
    thread that sets a shared :class:`multiprocessing.Event` when the
    budget is cancelled or its deadline expires; workers poll it between
    masks.  Single-chunk layers run inline — no pool, no shipping — so
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
        chunks: Sequence[Sequence[int]],
        previous: PreviousLayer,
        retain_full: bool,
    ) -> List[ChunkResult]:
        if len(chunks) <= 1:
            return self._run_inline(chunks, previous, retain_full)
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
                lambda: self._attempt_layer(
                    layer, chunks, previous, retain_full, results
                ),
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
        chunks: Sequence[Sequence[int]],
        previous: PreviousLayer,
        retain_full: bool,
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
                    self._make_task(
                        layer, index, chunks[index], previous, retain_full
                    )
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
        chunk: Sequence[int],
        previous: PreviousLayer,
        retain_full: bool,
    ) -> ChunkTask:
        context = self._context
        assert context is not None and self._base_spec is not None
        assert self._sweep_token is not None and self._shm is not None
        # Predecessor masks this chunk actually reads, in first-use order
        # (mask 0 never ships; the base lives in shared memory).
        order: List[int] = []
        seen = set()
        for mask in chunk:
            for i in bits_of(mask):
                pmask = mask & ~(1 << i)
                if pmask == 0 or pmask in seen or pmask not in previous:
                    continue
                seen.add(pmask)
                order.append(pmask)
        packed: Optional[PackedSlice] = None
        needed: Dict[int, Entry] = {}
        payload = len(chunk) * 8
        ship = getattr(previous, "ship_slice", None)
        if ship is not None:
            packed = ship(order)
        if packed is not None:
            # Packed shipping: the payload is the slice's exact byte
            # size — this is the bytes_shipped reduction.
            payload += packed.nbytes
        else:
            for pmask in order:
                entry = previous.get(pmask)
                needed[pmask] = entry
                if isinstance(entry, FSState):
                    payload += int(entry.table.nbytes) + _ENTRY_OVERHEAD_BYTES
                else:
                    payload += _SKELETON_BYTES
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
            masks=tuple(chunk),
            entries=needed,
            retain_full=retain_full,
            payload_bytes=payload,
            packed=packed,
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
