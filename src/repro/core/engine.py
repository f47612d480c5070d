"""The execution engine shared by every FS-family dynamic program.

All five DP entry points — :func:`repro.core.fs.run_fs`,
:func:`repro.core.shared.run_fs_shared`, the precedence-constrained DP,
the sliding-window reorderer and FS* — are instances of one computation:
sweep the subsets of a universe mask in order of cardinality, computing
each subset's best state from its one-smaller predecessors via a table
compaction, and retain the finished layer as the frontier for the next.
This module owns that sweep; the entry points only prepare a base state
and interpret the outcome.  Centralizing it buys three things at once:

* **layer parallelism** — masks of equal cardinality are independent
  (Lemma 4's recurrence only reads the previous layer), so with
  ``EngineConfig(backend="thread", jobs=N)`` a layer large enough to pay
  for threads splits into at most ``N`` row ranges that run on a thread
  pool (see :mod:`repro.core.executor` for the split rule).  Every chunk
  writes its rows straight into the next layer's preallocated columns
  and tallies into its own
  :class:`~repro.analysis.counters.OperationCounters`; the engine merges
  counters in deterministic chunk order, so results *and counters* are
  bit-identical across backends and job counts;
* **one retained layer** — only the previous layer is kept (Remark 1),
  as one dense :class:`~repro.core.frontier.Layer` holding every row's
  table; it is the memory ceiling (``C(n, n/2)`` rows of ``2^{n/2}``
  cells each at the waist);
* **dense DP tables** — ``MINCOST``, each subset's best last variable and
  every candidate's ``Cost_i`` (Lemma 4) live in :class:`DPTables`,
  arrays over the sweep's ``2^m`` subsets (``m`` = the universe's size),
  ``-1`` wherever a subset or candidate was never finalized.  A subset's
  index is its relative mask when the universe is the low bits (every
  full-function sweep) and the mask compressed onto the universe's bits
  otherwise (FS*).  Finished layers are scattered into them from what
  the kernel wrote, one numpy call per column, as soon as ``2^16``
  candidates wait (every large layer) and when the sweep ends, so no
  Python object is made per subset or candidate; :class:`SweepOutcome`
  hands them out as read-only :class:`~collections.abc.Mapping` views
  (:class:`SubsetMap`, :class:`LevelCostMap`).

A :class:`~repro.observability.Profiler` attached to the
:class:`EngineConfig` records per-layer wall-clock, subset throughput,
frontier footprint, counter snapshots and checkpoint write/load timings.

Crash safety: with ``checkpoint_dir`` set on the :class:`EngineConfig`,
every finished layer is snapshotted through
:mod:`repro.core.checkpoint` (the layer, its rows' best last variables
and its candidates' level costs: one file per layer, each holding only
that layer), and ``resume=True`` reads layers ``1..k`` back into the DP
tables and restarts the sweep after the newest one — results and
counters bit-identical to an uninterrupted run.  Because every DP entry
point routes through :func:`run_layered_sweep`, all of them inherit
this for free.

Resource governance: a :class:`~repro.core.budget.Budget` on the config
is checked at every layer boundary — before a layer starts and after it
(and its checkpoint) commits — so a deadline, a frontier-size cap or a
cooperative cancellation aborts the sweep promptly with a
:class:`~repro.errors.BudgetExceeded` that names the layers completed,
the best-so-far bound and the last durable checkpoint.  Pooled chunks
also poll the budget between batches; a layer they abandon is discarded
whole, so the abort still names the last committed layer.  All five DP
entry points inherit this the same way they inherit crash safety.
"""

from __future__ import annotations

import functools
import operator
import time
from collections.abc import ItemsView, Mapping, ValuesView
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple,
)

import numpy as np

from .._bitops import bits_of, popcount
from ..analysis.counters import OperationCounters
from ..errors import (
    BudgetExceeded, CheckpointError, DimensionError, OrderingError,
)
from ..observability import Profiler
from .checkpoint import (
    CheckpointStore, FaultInjector, RetryPolicy, sweep_fingerprint,
)
from .executor import NextLayer, check_backend, run_layer, split_layer
from .frontier import Layer
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache imports spec)
    from .budget import Budget
    from .cache import ResultCache


@dataclass(kw_only=True)
class EngineConfig:
    """How the engine executes a sweep (orthogonal to *what* it computes).

    Construction is keyword-only: every field names an orthogonal
    execution knob, and positional construction silently broke whenever
    a knob was added between releases.
    """

    jobs: int = 1

    backend: str = "serial"
    """Where layer chunks execute (see :mod:`repro.core.executor`):
    ``"serial"`` (inline on the caller) or ``"thread"`` (layers large
    enough to pay for it split over a pool of ``jobs`` threads, which the
    sweep starts and shuts down).  Results and counters are bit-identical
    across backends."""

    profiler: Optional[Profiler] = None

    checkpoint_dir: Optional[str] = None
    """Directory receiving one snapshot per finished layer (see
    :mod:`repro.core.checkpoint`).  ``None`` disables checkpointing."""

    resume: bool = False
    """Restart after the newest checkpointed layer in ``checkpoint_dir``
    matching this sweep's fingerprint, reading layers ``1..k`` back; a
    cold start if none exists, a :class:`~repro.errors.CheckpointError`
    if any of those files is missing or damaged."""

    fault_injector: Optional[FaultInjector] = None
    """Test hook: notified after each layer commits; may crash the sweep
    or corrupt the just-written checkpoint (see
    :class:`repro.core.checkpoint.FaultInjector`)."""

    checkpoint_tag: str = ""
    """Extra entry-point state folded into the checkpoint fingerprint
    (e.g. the constrained DP's precedence closure, which the engine only
    sees as an opaque ``subset_filter`` callable)."""

    cache: Optional["ResultCache"] = None
    """Canonical result cache (see :mod:`repro.core.cache`).  The engine
    itself never reads it — caching happens at the DP entry points, which
    know how to key their problem — but carrying it here lets entry
    points that only receive a config (``window_sweep``, ``fs_star``)
    consult the same cache as their callers."""

    budget: Optional["Budget"] = None
    """Resource envelope (see :mod:`repro.core.budget`).  Checked at
    every layer boundary of the sweep: before a layer starts (deadline /
    cancellation) and after it commits (deadline / cancellation /
    frontier caps, evaluated *after* the layer's checkpoint is durably
    written, so the :class:`~repro.errors.BudgetExceeded` it raises
    always names a resumable state)."""

    io_retry: Optional[RetryPolicy] = None
    """Retry-with-backoff policy for checkpoint writes (transient
    ``OSError`` only — validation failures never retry); retries tally
    the ``retries`` extra counter."""

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        # Checked eagerly so configuration errors surface at call sites.
        check_backend(self.backend)


# Candidates whose layers the DP tables gather before one scatter: a
# small sweep's (FS* windows) all at its end, a large one's every layer.
_SCATTER_CANDIDATES = 1 << 16


@functools.lru_cache(maxsize=64)
def _expansion(universe_mask: int) -> np.ndarray:
    """Every sub-mask of ``universe_mask``, the one at dense index ``i``
    holding the universe's ``j``-th variable iff bit ``j`` of ``i`` is
    set.  Expansion keeps order, so ``searchsorted`` compresses.  Cached
    (read-only): a window sweep solves the same few ``J`` over and
    over."""
    expanded = [0]
    for var in bits_of(universe_mask):
        expanded += [mask | 1 << var for mask in expanded]
    expanded = np.array(expanded, np.int64)
    expanded.flags.writeable = False
    return expanded


class DPTables:
    """``MINCOST``, the best last variable and ``Cost_i`` of one sweep,
    as dense arrays over its subsets (see the module docstring).

    ``mincost[i]`` and ``best_last[i]`` belong to the subset of dense
    index ``i``; ``level_cost[i, v]`` is the width of variable ``v``
    placed directly above it.  ``-1`` marks what was never finalized.
    """

    __slots__ = ("base_mask", "universe_mask", "positions", "expanded",
                 "absolute", "mincost", "best_last", "level_cost",
                 "pending")

    def __init__(self, base: FSState, universe_mask: int) -> None:
        self.base_mask = base.mask
        self.universe_mask = universe_mask
        members = bits_of(universe_mask)
        size = len(members)
        # Each variable's bit in a dense index, -1 outside the universe.
        self.positions = [-1] * base.n
        for position, var in enumerate(members):
            self.positions[var] = position
        # Dense index -> relative mask, None while the two coincide.
        self.expanded: Optional[np.ndarray] = None
        if universe_mask != (1 << size) - 1:
            self.expanded = _expansion(universe_mask)
            self.absolute = self.expanded | base.mask
        self.pending: List[Tuple[np.ndarray, ...]] = []
        self.mincost = np.empty(1 << size, np.int64)
        self.best_last = np.empty(1 << size, np.int8)
        self.level_cost = np.empty((1 << size, base.n), np.int32)
        for array in (self.mincost, self.best_last, self.level_cost):
            array.fill(-1)
        self.mincost[0] = base.mincost

    def index(self, masks: np.ndarray) -> np.ndarray:
        """Dense indices of relative ``masks`` (sub-masks of the universe)."""
        if self.expanded is None:
            return masks
        return self.expanded.searchsorted(masks)

    def masks(self, indices: np.ndarray) -> np.ndarray:
        """Relative masks of dense ``indices``."""
        if self.expanded is None:
            return indices
        return self.expanded[indices]

    def index_of(self, mask: Any) -> int:
        """Dense index of one relative mask; :class:`KeyError` unless it
        is a sub-mask of the universe."""
        try:
            value = operator.index(mask)
        except TypeError:
            raise KeyError(mask) from None
        if value < 0 or value & ~self.universe_mask:
            raise KeyError(mask)
        if self.expanded is None:
            return value
        index = 0
        while value:
            low = value & -value
            index |= 1 << self.positions[low.bit_length() - 1]
            value ^= low
        return index

    def record(
        self,
        masks: np.ndarray,
        mincost: np.ndarray,
        best_last: np.ndarray,
        level_cost: List[np.ndarray],
    ) -> None:
        """Queue one finished layer: its rows' relative masks, mincosts
        and best last variables, and its candidates' ``(3, candidates)``
        blocks of ``(absolute predecessor mask, variable, Cost_i)``.
        Queued layers are scattered once ``_SCATTER_CANDIDATES``
        candidates wait, and by :meth:`flush`."""
        self.pending.append((masks, mincost, best_last, level_cost))
        waiting = sum(block.shape[1] for layer in self.pending
                      for block in layer[3])
        if waiting >= _SCATTER_CANDIDATES:
            self.flush()

    def flush(self) -> None:
        """Scatter every queued layer into the arrays, one numpy call
        per column."""
        if not self.pending:
            return
        layers, self.pending = self.pending, []
        rows = self.index(np.concatenate([layer[0] for layer in layers]))
        self.mincost[rows] = np.concatenate([layer[1] for layer in layers])
        self.best_last[rows] = np.concatenate([layer[2] for layer in layers])
        before, var, cost = np.concatenate(
            [block for layer in layers for block in layer[3]], axis=1)
        if self.expanded is not None:
            rows = self.absolute.searchsorted(before)
        elif self.base_mask:
            rows = before ^ self.base_mask
        else:
            rows = before
        self.level_cost[rows, var] = cost

    def outcome(
        self, frontier: Dict[int, FSState], subsets_processed: int
    ) -> "SweepOutcome":
        """The finished sweep, its DP maps read-only views of these
        arrays (once :meth:`flush` has emptied the queue)."""
        return SweepOutcome(
            frontier=frontier,
            mincost_by_subset=SubsetMap(self, self.mincost),
            best_last=SubsetMap(self, self.best_last),
            level_cost_by_choice=LevelCostMap(self, self.level_cost),
            subsets_processed=subsets_processed,
        )

    def chain(self, index: int) -> List[int]:
        """The recorded optimal chain of the subset at dense ``index``,
        bottom-first, read off ``best_last``."""
        best, positions = self.best_last, self.positions
        chain = []
        while index:
            var = int(best[index])
            chain.append(var)
            index ^= 1 << positions[var]
        chain.reverse()
        return chain


class _Items(ItemsView):
    def __iter__(self) -> Iterator[Tuple[Any, int]]:
        return zip(*self._mapping._columns())


class _Values(ValuesView):
    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping._columns()[1])


class _DenseMap(Mapping):
    """Read-only :class:`~collections.abc.Mapping` over one
    :class:`DPTables` array, skipping ``-1`` entries; subclasses list
    its keys and values, in ascending index order, with ``_columns()``.
    ``dict(view)`` gives a mutable copy; item assignment raises
    :class:`TypeError`."""

    __slots__ = ("_tables", "_values")

    def __init__(self, tables: DPTables, values: np.ndarray) -> None:
        self._tables = tables
        self._values = values

    def __iter__(self) -> Iterator[Any]:
        return iter(self._columns()[0])

    def __len__(self) -> int:
        return int(np.count_nonzero(self._values >= 0))

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class SubsetMap(_DenseMap):
    """``{relative mask: value}`` over ``MINCOST`` or the best last
    variable of every finalized subset."""

    __slots__ = ()

    def __getitem__(self, mask: Any) -> int:
        value = self._values[self._tables.index_of(mask)]
        if value < 0:
            raise KeyError(mask)
        return int(value)

    def _columns(self) -> Tuple[List[Any], List[int]]:
        present = np.flatnonzero(self._values >= 0)
        return (self._tables.masks(present).tolist(),
                self._values[present].tolist())


class LevelCostMap(_DenseMap):
    """``{(absolute predecessor mask, variable): Cost_i}`` over every
    candidate the sweep evaluated."""

    __slots__ = ()

    def __getitem__(self, key: Any) -> int:
        # A predecessor without every base variable lands outside the
        # universe; a variable placed in it, in the base or outside the
        # universe was never a candidate there, so its entry is -1.
        try:
            before, var = map(operator.index, key)
            if not 0 <= var < len(self._tables.positions):
                raise KeyError(key)
            row = self._tables.index_of(before ^ self._tables.base_mask)
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        value = self._values[row, var]
        if value < 0:
            raise KeyError(key)
        return int(value)

    def _columns(self) -> Tuple[List[Any], List[int]]:
        rows, var = np.nonzero(self._values >= 0)
        before = self._tables.masks(rows) | self._tables.base_mask
        return (list(zip(before.tolist(), var.tolist())),
                self._values[rows, var].tolist())


@dataclass
class SweepOutcome:
    """Everything a DP entry point may need from a finished sweep.

    Masks are *relative* to the swept universe: for the full-function
    DPs (``base.mask == 0``) they coincide with absolute variable masks;
    for FS* they are sub-masks of ``J`` exactly as
    :func:`repro.core.fs_star.fs_star_levels` has always returned them.
    The three DP maps are read-only views over the sweep's
    :class:`DPTables`.
    """

    frontier: Dict[int, FSState]
    """States of the final layer (``|K| == upto``), fully materialized."""

    mincost_by_subset: Mapping[int, int]
    """``MINCOST`` for every finalized subset, including the base (mask 0)."""

    best_last: Mapping[int, int]
    """For each finalized non-empty subset, the minimizing last variable."""

    level_cost_by_choice: Mapping[Tuple[int, int], int]
    """``Cost_i`` for every evaluated candidate, keyed by the predecessor
    state's *absolute* mask and the placed variable."""

    subsets_processed: int = 0
    """Subsets finalized across all layers (== feasible subsets when a
    filter was active)."""


def run_layered_sweep(
    base: FSState,
    universe_mask: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    config: Optional[EngineConfig] = None,
    upto: Optional[int] = None,
    subset_filter: Optional[Callable[[int], bool]] = None,
) -> SweepOutcome:
    """Sweep all sub-masks of ``universe_mask`` in cardinality order.

    Parameters
    ----------
    base:
        Starting state; ``universe_mask`` must be disjoint from
        ``base.mask`` and within ``base.free_mask``.
    upto:
        Stop after layer ``upto`` (defaults to ``popcount(universe_mask)``);
        the returned frontier is that layer.
    subset_filter:
        Optional feasibility predicate over relative masks; filtered
        subsets are never computed and never serve as predecessors (the
        precedence-constrained DP).  A feasible subset none of whose
        predecessors were feasible raises
        :class:`~repro.errors.OrderingError`, and so does a layer with
        no feasible subset at all.
    """
    if config is None:
        config = EngineConfig()
    if counters is None:
        counters = OperationCounters()
    profiler = config.profiler

    if universe_mask & base.mask:
        raise DimensionError(
            f"universe mask {universe_mask:#x} overlaps already-placed "
            f"variables {base.mask:#x}"
        )
    if universe_mask & ~((1 << base.n) - 1):
        raise DimensionError(
            f"universe mask {universe_mask:#x} mentions out-of-range variables"
        )
    size_u = popcount(universe_mask)
    if upto is None:
        upto = size_u
    if not 0 <= upto <= size_u:
        raise ValueError(f"upto={upto} out of range for |universe|={size_u}")

    if base.nodes is not None:
        raise ValueError(
            "the layered sweep does not track node structure; sweep an "
            "untracked base and replay the winning pi with compact() from "
            "a tracking one (as build_diagram does)"
        )
    # Layer 0, at the sweep's cell dtype; rejects a base that could
    # outgrow it.
    previous = Layer.of_base(base, rule)
    tables = DPTables(base, universe_mask)
    subsets_processed = 0

    members = [1 << var for var in bits_of(universe_mask)]

    def layer_masks(k: int) -> np.ndarray:
        # subsets_of_size's order, with the members listed once
        masks = map(sum, combinations(members, k))
        if subset_filter is not None:
            masks = filter(subset_filter, masks)
        masks = np.fromiter(masks, np.int64)
        if not len(masks):
            raise OrderingError(
                f"no subset of size {k} passes the subset filter"
            )
        return masks

    if upto == 0:
        return tables.outcome({0: base}, subsets_processed)

    budget = config.budget
    last_checkpoint_path: Optional[str] = None
    if budget is not None:
        budget.ensure_armed()

    store: Optional[CheckpointStore] = None
    counters_baseline: Optional[OperationCounters] = None
    start_k = 1
    if config.checkpoint_dir is not None:
        store = CheckpointStore(
            config.checkpoint_dir,
            sweep_fingerprint(
                base=base,
                universe_mask=universe_mask,
                rule=rule.value,
                upto=upto,
                tag=config.checkpoint_tag,
            ),
            retry=config.io_retry,
            on_retry=lambda attempt, exc: counters.add_extra("retries"),
        )
        # Counter deltas are checkpointed relative to the sweep's start,
        # so a caller-prepopulated counters object restores exactly.
        counters_baseline = counters.copy()
        if config.resume:
            with (profiler.phase("checkpoint_load") if profiler is not None
                  else nullcontext()):
                restored = None
                for restored in store.load_layers(upto):
                    layer = restored.frontier
                    if not np.array_equal(layer.masks,
                                          layer_masks(restored.layer)):
                        raise CheckpointError(
                            f"checkpoint {restored.path} holds other "
                            f"subsets than layer {restored.layer} of this "
                            "sweep; refusing to resume from it"
                        )
                    tables.record(layer.masks, layer.mincost,
                                  restored.best_last, [restored.level_cost])
                    tables.flush()  # releases the file's decoded blob
            if restored is not None:
                previous = restored.frontier
                subsets_processed = restored.subsets_processed
                counters.merge(restored.counter_delta)
                start_k = restored.layer + 1
                last_checkpoint_path = restored.path

    threads = config.jobs if config.backend == "thread" else 1
    # Started at the first layer that splits; shut down when the sweep
    # ends, however it ends.
    pool: Optional[ThreadPoolExecutor] = None
    try:
        for k in range(start_k, upto + 1):
            if budget is not None:
                # Pre-layer boundary check (deadline/cancellation only):
                # catches a resume that is already over budget and a
                # cancellation that arrived between layers.
                with (profiler.phase("budget_check") if profiler is not None
                      else nullcontext()):
                    budget.check(
                        counters=counters,
                        layers_completed=k - 1,
                        best_bound=int(previous.mincost.min()),
                        checkpoint_path=last_checkpoint_path,
                        where=f"layer boundary (before k={k})",
                    )
            masks = layer_masks(k)
            started = time.perf_counter()
            out = NextLayer.allocate(masks, previous)
            chunks = split_layer(out, threads)
            if len(chunks) > 1 and pool is None:
                pool = ThreadPoolExecutor(threads,
                                          thread_name_prefix="repro-sweep")
            parts = run_layer(chunks, previous, out, base, rule, pool, budget)
            if any(part.cancelled for part in parts):
                # A pooled chunk saw the budget spent and stopped
                # mid-layer.  Discard the partial layer wholesale (no
                # merge, no checkpoint) so the abort always describes the
                # last *committed* boundary and a resume with a bigger
                # budget replays layer k from scratch, bit-identically.
                best = int(previous.mincost.min())
                where = f"mid-layer cancellation (during k={k})"
                if budget is not None:
                    with (profiler.phase("budget_check") if profiler is not None
                          else nullcontext()):
                        budget.check(
                            counters=counters,
                            layers_completed=k - 1,
                            best_bound=best,
                            checkpoint_path=last_checkpoint_path,
                            where=where,
                        )
                raise BudgetExceeded(
                    f"sweep cancelled during layer k={k}; "
                    "partial results discarded",
                    reason="cancelled",
                    layers_completed=k - 1,
                    best_bound=best,
                    checkpoint_path=last_checkpoint_path,
                    where=where,
                )
            # Merge strictly in chunk order: counter merge order is
            # fixed, so the outcome is independent of where chunks ran.
            current = out.layer()
            level_cost = [part.level_cost for part in parts]
            tables.record(masks, current.mincost, out.best_last, level_cost)
            for part in parts:
                counters.merge(part.counters)
            subsets_processed += len(current)
            previous = current
            if profiler is not None:
                profiler.record_layer(
                    k=k,
                    subsets=len(current),
                    wall_seconds=time.perf_counter() - started,
                    frontier_states=len(current),
                    frontier_bytes=current.nbytes,
                    counters=counters.snapshot(),
                )
            checkpoint_path: Optional[str] = None
            if store is not None:
                assert counters_baseline is not None
                with (profiler.phase("checkpoint_write")
                      if profiler is not None else nullcontext()):
                    checkpoint_path = store.save_layer(
                        k=k,
                        frontier=current,
                        best_last=out.best_last,
                        level_cost=np.concatenate(level_cost, axis=1),
                        subsets_processed=subsets_processed,
                        counter_delta=counters.diff(counters_baseline),
                    )
            if checkpoint_path is not None:
                last_checkpoint_path = checkpoint_path
            if config.fault_injector is not None:
                config.fault_injector.on_layer_committed(k, checkpoint_path)
            if budget is not None:
                # Post-layer boundary check: the layer (and its
                # checkpoint, when enabled) is fully committed, so the
                # raise leaves a resumable state and the frontier caps
                # see the layer that actually holds the memory.
                with (profiler.phase("budget_check") if profiler is not None
                      else nullcontext()):
                    budget.check(
                        counters=counters,
                        frontier_entries=(
                            len(current)
                            if budget.max_frontier_entries is not None
                            else None
                        ),
                        frontier_bytes=(
                            current.nbytes
                            if budget.max_frontier_bytes is not None
                            else None
                        ),
                        layers_completed=k,
                        best_bound=int(current.mincost.min()),
                        checkpoint_path=last_checkpoint_path,
                        where=f"layer boundary (after k={k})",
                    )
    finally:
        if pool is not None:
            pool.shutdown()

    tables.flush()
    indices = tables.index(previous.masks).tolist()
    frontier = {
        mask: FSState(
            n=base.n,
            mask=base.mask | mask,
            pi=base.pi + tuple(tables.chain(index)),
            mincost=mincost,
            table=previous.tables[row].astype(np.int64),
            num_terminals=base.num_terminals,
            num_roots=base.num_roots,
        )
        for row, (mask, index, mincost) in enumerate(zip(
            previous.masks.tolist(), indices, previous.mincost.tolist()
        ))
    }
    return tables.outcome(frontier, subsets_processed)
