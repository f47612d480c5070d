"""Execution backends for the layered sweep.

The engine (:func:`repro.core.engine.run_layered_sweep`) splits every DP
layer into contiguous row ranges of disjoint masks, its *chunks*, and
hands them to an :class:`ExecutorBackend`; the backend decides *where*
the chunks run.  Two implementations ship, named in :data:`BACKENDS`:

* ``serial`` (the default) — chunks run inline on the coordinator, one
  after another.
* ``thread`` — a layer of more than one chunk fans out over a lazily
  created :class:`~concurrent.futures.ThreadPoolExecutor` of ``jobs``
  threads.  The compiled kernel settles a whole batch of successors per
  call and releases the GIL for batches of at least ``2^14`` candidate
  cells, so the chunks of a large layer run on separate cores while
  sharing both layers in one address space: nothing is pickled, shipped
  or copied back.

Every chunk, serial or pooled, writes its winners straight into its own
row range of the next layer's preallocated columns (:class:`NextLayer`);
chunks read only the previous layer (Lemma 4), so no two chunks touch
the same memory.

Determinism contract: every backend executes the *same* chunks (the
split depends only on ``jobs``), runs each chunk through the same
:func:`sweep_chunk` routine with a fresh
:class:`~repro.analysis.counters.OperationCounters`, and the engine
merges chunk counters and level costs in fixed chunk order — so results
*and whole counter snapshots* are bit-identical across ``serial`` /
``thread`` and any ``jobs`` value.

Budget propagation: pooled chunks poll the sweep's
:class:`~repro.core.budget.Budget` between batches (cancelled, or no
time remaining) and stop early.  A chunk stopped that way comes back
flagged ``cancelled`` and the engine discards the whole partial layer,
so the :class:`~repro.errors.BudgetExceeded` it raises always describes
the last *committed* layer boundary (checkpoint/resume semantics
unchanged).  Signals reach the sweep through
:func:`repro.core.budget.handle_signals` on the main thread, which sets
the budget's cancellation event the chunks poll.

Trade-off: there is no worker isolation.  A crash inside the kernel, or
an out-of-memory kill, ends the whole process rather than one worker.
That is acceptable because the kernel validates every row, position and
output shape before it writes (a malformed call raises instead), and
because both layers live in the coordinator's memory anyway, so an
out-of-memory kill lands there under any backend.  A run that must
survive such a kill checkpoints (``checkpoint_dir``) and resumes.

Cache lookups stay coordinator-only: chunks never see a
:class:`~repro.core.cache.ResultCache`.

Lifecycle: passing a backend *name* to
:class:`~repro.core.engine.EngineConfig` makes the engine create the
backend for one sweep and close it afterwards.  Passing an *instance*
leaves ownership with the caller (``begin_sweep``/``end_sweep`` still
run per sweep) so one pool can serve many sweeps — a window sweep's
inner FS* solves, or a whole :func:`~repro.core.cache.optimize_many`
batch.  Pools are created lazily, on the first layer that actually has
more than one chunk; ``jobs=1`` runs (and tiny sweeps) never start one.
"""

from __future__ import annotations

import abc
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional,
    Sequence, Tuple, Type, Union,
)

import numpy as np

from ..analysis.counters import OperationCounters
from ..errors import OrderingError
from .compaction import settle_batch
from .frontier import Layer
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from .budget import Budget

# Candidate table cells one kernel call settles.  Batches only set how
# often a chunk polls the budget and, on the thread backend, how often
# the GIL changes hands: each call runs whole in C.
_BATCH_CELLS = 1 << 16


# ----------------------------------------------------------------------
# the unit of work: a row range of the next layer
# ----------------------------------------------------------------------

@dataclass
class NextLayer:
    """The layer a sweep step is building: its successor masks and the
    preallocated columns every chunk fills in its own row range."""

    masks: np.ndarray
    mincost: np.ndarray
    best_last: np.ndarray
    tables: np.ndarray

    @classmethod
    def allocate(cls, masks: np.ndarray, previous: Layer) -> "NextLayer":
        """Uninitialized columns for ``masks``, whose tables have half
        the cells of ``previous``'s, at its cell dtype."""
        rows, cells = len(masks), previous.tables.shape[1] >> 1
        return cls(masks, np.empty(rows, np.int64), np.empty(rows, np.int64),
                   np.empty((rows, cells), previous.tables.dtype))

    def layer(self) -> Layer:
        """The finished layer (every row written)."""
        return Layer(self.masks, self.mincost, self.tables)


@dataclass
class ChunkResult:
    """What one executed chunk reports back besides the rows it wrote.

    The engine merges these strictly in chunk order, so the outcome is
    independent of scheduling (pool threads or inline).
    """

    counters: OperationCounters

    level_cost: Optional[np.ndarray] = None
    """``Cost_i`` of every candidate the chunk evaluated, as a
    ``(3, candidates)`` ``int64`` block whose rows are the predecessor's
    absolute mask, the placed variable and the nodes its compaction
    created.  The engine scatters it into its DP tables."""

    cancelled: bool = False
    """True when the chunk saw the budget spent and stopped early; the
    engine discards the whole layer."""


def split_chunks(rows: int, jobs: int) -> List[slice]:
    """Contiguous, deterministic near-equal split of a layer's rows into
    at most ``jobs`` non-empty ranges."""
    jobs = min(jobs, rows)
    out: List[slice] = []
    start = 0
    for j in range(jobs):
        stop = start + (rows - start) // (jobs - j)
        out.append(slice(start, stop))
        start = stop
    return out


def sweep_chunk(
    rows: slice,
    previous: Layer,
    out: NextLayer,
    base: FSState,
    rule: ReductionRule,
    counters: OperationCounters,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ChunkResult:
    """Finalize rows ``rows`` of ``out`` (runs wherever the backend
    says).

    Reads ``previous`` without mutating it and writes only its own rows
    of ``out``.  This routine is the bit-identity anchor: every backend
    routes every chunk through it, so where a chunk ran can never change
    what it computed.

    The rows are taken in batches of consecutive successors holding
    about ``_BATCH_CELLS`` candidate table cells, each settled in one
    :func:`~repro.core.compaction.settle_batch` kernel call: every
    member ``i`` of a successor whose predecessor is in ``previous`` is
    a candidate, whose predecessor row the kernel reads straight out of
    the layer matrix, and each successor keeps its first cheapest
    candidate in ``bits_of`` order.  The kernel numbers a row's new
    nodes by first occurrence.

    ``should_stop`` (a pooled chunk's view of the budget) is polled
    before each batch; a stopped chunk returns with ``cancelled=True``
    and partial rows the engine discards.
    """
    k = int(out.masks[rows.start]).bit_count()
    width = out.tables.shape[1]
    step = -(-_BATCH_CELLS // (k * width))
    level_cost = np.empty((3, (rows.stop - rows.start) * k), np.int64)
    written = 0
    for start in range(rows.start, rows.stop, step):
        if should_stop is not None and should_stop():
            return ChunkResult(counters, cancelled=True)
        batch = slice(start, min(start + step, rows.stop))
        written += settle_batch(
            previous, out.masks[batch], base, rule,
            (out.tables[batch], out.mincost[batch], out.best_last[batch]),
            level_cost[:, written:],
        )
    level_cost = level_cost[:, :written]
    counters.compactions += written
    counters.table_cells += written * width
    counters.nodes_created += int(level_cost[2].sum())
    counters.subsets_processed += rows.stop - rows.start
    return ChunkResult(counters, level_cost)


# ----------------------------------------------------------------------
# backend protocol
# ----------------------------------------------------------------------

@dataclass
class SweepContext:
    """Everything a backend needs to know about the sweep it executes."""

    base: FSState
    rule: ReductionRule
    jobs: int
    budget: Optional["Budget"] = None


class ExecutorBackend(abc.ABC):
    """Where the engine's layer chunks execute.

    The engine only ever calls the four lifecycle methods below, so an
    instance of any subclass may be passed as
    ``EngineConfig(backend=...)``.  A backend instance serves one sweep
    at a time (``begin_sweep``/``end_sweep`` bracket each sweep) but may
    serve many sweeps over its life; :meth:`close` releases long-lived
    resources such as thread pools.

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

    def __init__(self, jobs: Optional[int] = None) -> None:
        self._jobs = jobs
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
        chunks: Sequence[slice],
        previous: Layer,
        out: NextLayer,
    ) -> List[ChunkResult]:
        """Fill ``out`` chunk by chunk; return results in chunk order."""

    def end_sweep(self) -> None:
        """Release the sweep; the backend stays usable for the next
        ``begin_sweep``.  Safe to call without an open sweep: only the
        thread that owns the sweep releases the mutex."""
        self._context = None
        if self._sweep_owner == threading.get_ident():
            self._sweep_owner = None
            self._sweep_lock.release()

    def close(self) -> None:
        """Release everything, thread pools included."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # Shared by serial execution and every backend's single-chunk fast
    # path: same fresh-counters-per-chunk structure as the pooled path,
    # so where a chunk ran never shows in the numbers.
    def _run_inline(
        self,
        chunks: Sequence[slice],
        previous: Layer,
        out: NextLayer,
    ) -> List[ChunkResult]:
        context = self._context
        assert context is not None, (
            "run_layer called outside begin_sweep/end_sweep"
        )
        return [
            sweep_chunk(rows, previous, out, context.base, context.rule,
                        OperationCounters())
            for rows in chunks
        ]


def create_backend(name: str, jobs: Optional[int] = None) -> ExecutorBackend:
    """Instantiate the backend :data:`BACKENDS` names ``name`` (``jobs``
    caps its pool width; defaults to each sweep's ``EngineConfig.jobs``);
    ``ValueError`` on unknown names."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        )
    return BACKENDS[name](jobs=jobs)


def resolve_backend(
    spec: Union[str, ExecutorBackend],
) -> Tuple[ExecutorBackend, bool]:
    """``(backend, engine_owned)`` for an ``EngineConfig.backend`` value.

    A string creates a fresh engine-owned backend (closed after the
    sweep); an instance stays caller-owned (only ``begin_sweep`` /
    ``end_sweep`` run), which is how one pool serves many sweeps.
    """
    if isinstance(spec, ExecutorBackend):
        return spec, False
    return create_backend(spec), True


@contextmanager
def shared_backend(config: Any) -> Iterator[Any]:
    """Pin ``config.backend`` to one live instance for a whole block.

    Entry points that run *many* sweeps per call (a window sweep's inner
    FS* solves, a fallback ladder) use this so a string backend spec
    costs one pool, not one pool per sweep.  Yields ``config`` itself
    when it is ``None`` or already carries an instance.

    When the body is already unwinding an exception, a failure of
    ``close()`` is swallowed so it can never mask the original error; a
    close failure on a clean exit still propagates.
    """
    if config is None or isinstance(config.backend, ExecutorBackend):
        yield config
        return
    backend = create_backend(config.backend)
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
# the two backends
# ----------------------------------------------------------------------

class SerialBackend(ExecutorBackend):
    """Chunks run inline on the coordinator — the reference executor
    (``jobs`` is accepted for interface symmetry and ignored)."""

    name = "serial"

    def run_layer(
        self,
        layer: int,
        chunks: Sequence[slice],
        previous: Layer,
        out: NextLayer,
    ) -> List[ChunkResult]:
        return self._run_inline(chunks, previous, out)


class ThreadBackend(ExecutorBackend):
    """Chunks fan out over a thread pool of ``jobs`` threads.

    Single-chunk layers run inline, so ``jobs=1`` thread runs are
    exactly serial runs and never start the pool.  Pooled chunks poll
    the sweep's budget between batches (see the module docstring).
    """

    name = "thread"

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__(jobs)
        self._pool: Optional[ThreadPoolExecutor] = None

    def run_layer(
        self,
        layer: int,
        chunks: Sequence[slice],
        previous: Layer,
        out: NextLayer,
    ) -> List[ChunkResult]:
        if len(chunks) <= 1:
            return self._run_inline(chunks, previous, out)
        context = self._context
        assert context is not None
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._jobs or context.jobs,
                thread_name_prefix="repro-sweep",
            )
        budget = context.budget
        # Set when this call unwinds early (a chunk raised, or the
        # coordinator was interrupted), so the other chunks stop at
        # their next batch instead of writing into a discarded layer.
        abandon = threading.Event()

        def should_stop() -> bool:
            if abandon.is_set():
                return True
            if budget is None:
                return False
            remaining = budget.remaining()
            return budget.cancelled() or (
                remaining is not None and remaining <= 0
            )

        futures = [
            self._pool.submit(
                sweep_chunk, rows, previous, out, context.base, context.rule,
                OperationCounters(), should_stop,
            )
            for rows in chunks
        ]
        try:
            return [future.result() for future in futures]
        finally:
            abandon.set()
            wait(futures)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


#: The backends ``EngineConfig(backend=...)``, :func:`create_backend`
#: and the CLI ``--backend`` flag accept, by name.
BACKENDS: Dict[str, Type[ExecutorBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
}
