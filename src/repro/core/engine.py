"""The execution engine shared by every FS-family dynamic program.

All five DP entry points — :func:`repro.core.fs.run_fs`,
:func:`repro.core.shared.run_fs_shared`, the precedence-constrained DP,
the sliding-window reorderer and FS* — are instances of one computation:
sweep the subsets of a universe mask in order of cardinality, computing
each subset's best state from its one-smaller predecessors via a table
compaction, and retain the finished layer as the frontier for the next.
This module owns that sweep; the entry points only prepare a base state
and interpret the outcome.  Centralizing it buys two things at once:

* **layer parallelism** — masks of equal cardinality are independent
  (Lemma 4's recurrence only reads the previous layer), so ``jobs=N``
  splits each layer into row ranges for an
  :class:`~repro.core.executor.ExecutorBackend` (``serial`` or
  ``thread``, selected via ``EngineConfig(backend=...)``; see
  :mod:`repro.core.executor`).  Every chunk writes its rows straight
  into the next layer's preallocated columns and tallies into its own
  :class:`~repro.analysis.counters.OperationCounters`; the engine merges
  counters in deterministic chunk order, so results *and counters* are
  bit-identical across backends and job counts;
* **one retained layer** — only the previous layer is kept (Remark 1),
  as one dense :class:`~repro.core.frontier.Layer` holding every row's
  table; it is the memory ceiling (``C(n, n/2)`` rows of ``2^{n/2}``
  cells each at the waist).

A :class:`~repro.observability.Profiler` attached to the
:class:`EngineConfig` records per-layer wall-clock, subset throughput,
frontier footprint, counter snapshots and checkpoint write/load timings.

Crash safety: with ``checkpoint_dir`` set on the :class:`EngineConfig`,
every finished layer is snapshotted through
:mod:`repro.core.checkpoint`, and ``resume=True`` restarts the sweep
from the last valid snapshot — results and counters bit-identical to an
uninterrupted run.  Because every DP entry point routes through
:func:`run_layered_sweep`, all of them inherit this for free.

Resource governance: a :class:`~repro.core.budget.Budget` on the config
is checked at every layer boundary — before a layer starts and after it
(and its checkpoint) commits — so a deadline, a frontier-size cap or a
cooperative cancellation aborts the sweep promptly with a
:class:`~repro.errors.BudgetExceeded` that names the layers completed,
the best-so-far bound and the last durable checkpoint.  Pooled chunks of
the thread backend also poll the budget between batches; a layer they
abandon is discarded whole, so the abort still names the last committed
layer.  All five DP entry points inherit this the same way they inherit
crash safety.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .._bitops import popcount, subsets_of_size
from ..analysis.counters import OperationCounters
from ..errors import BudgetExceeded, DimensionError, OrderingError
from ..observability import Profiler
from .checkpoint import (
    CheckpointStore, FaultInjector, RetryPolicy, sweep_fingerprint,
)
from .executor import (
    BACKENDS, ExecutorBackend, NextLayer, SweepContext, resolve_backend,
    split_chunks,
)
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

    backend: Union[str, ExecutorBackend] = "serial"
    """Where layer chunks execute (see :mod:`repro.core.executor`):
    ``"serial"`` (inline on the caller), ``"thread"`` (a pool of ``jobs``
    threads over the GIL-free kernel), or a live
    :class:`~repro.core.executor.ExecutorBackend` instance whose pool the
    caller owns and wants shared across several sweeps.  Results and
    counters are bit-identical across backends."""

    profiler: Optional[Profiler] = None

    checkpoint_dir: Optional[str] = None
    """Directory receiving one snapshot per finished layer (see
    :mod:`repro.core.checkpoint`).  ``None`` disables checkpointing."""

    resume: bool = False
    """Restart from the newest valid checkpoint in ``checkpoint_dir``
    matching this sweep's fingerprint; a cold start if none exists, a
    :class:`~repro.errors.CheckpointError` if the newest one is damaged."""

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
        if not isinstance(self.backend, ExecutorBackend) and (
            not isinstance(self.backend, str) or self.backend not in BACKENDS
        ):
            raise ValueError(
                f"backend must be one of {sorted(BACKENDS)} or an "
                f"ExecutorBackend instance, got {self.backend!r}"
            )


@dataclass
class SweepOutcome:
    """Everything a DP entry point may need from a finished sweep.

    Masks are *relative* to the swept universe: for the full-function
    DPs (``base.mask == 0``) they coincide with absolute variable masks;
    for FS* they are sub-masks of ``J`` exactly as
    :func:`repro.core.fs_star.fs_star_levels` has always returned them.
    """

    frontier: Dict[int, FSState]
    """States of the final layer (``|K| == upto``), fully materialized."""

    mincost_by_subset: Dict[int, int]
    """``MINCOST`` for every finalized subset, including the base (mask 0)."""

    best_last: Dict[int, int]
    """For each finalized non-empty subset, the minimizing last variable."""

    level_cost_by_choice: Dict[Tuple[int, int], int]
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
    Layer.cell_dtype(base, rule)  # rejects a base that could outgrow it

    mincost_by_subset: Dict[int, int] = {0: base.mincost}
    best_last: Dict[int, int] = {}
    level_cost_by_choice: Dict[Tuple[int, int], int] = {}
    subsets_processed = 0

    if upto == 0:
        return SweepOutcome(
            frontier={0: base},
            mincost_by_subset=mincost_by_subset,
            best_last=best_last,
            level_cost_by_choice=level_cost_by_choice,
        )
    previous = Layer.of_base(base, rule)

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
                restored = store.load_latest(upto)
            if restored is not None:
                previous = restored.frontier
                mincost_by_subset = restored.mincost_by_subset
                mincost_by_subset.setdefault(0, base.mincost)
                best_last = restored.best_last
                level_cost_by_choice = restored.level_cost_by_choice
                subsets_processed = restored.subsets_processed
                counters.merge(restored.counter_delta)
                start_k = restored.layer + 1
                last_checkpoint_path = restored.path

    backend, engine_owns_backend = resolve_backend(config.backend)
    backend.begin_sweep(
        SweepContext(base=base, rule=rule, jobs=config.jobs, budget=budget)
    )
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
            layer_masks = subsets_of_size(universe_mask, k)
            if subset_filter is not None:
                layer_masks = filter(subset_filter, layer_masks)
            layer_masks = np.fromiter(layer_masks, np.int64)
            if not len(layer_masks):
                raise OrderingError(
                    f"no subset of size {k} passes the subset filter"
                )
            started = time.perf_counter()
            out = NextLayer.allocate(layer_masks, previous)
            parts = backend.run_layer(
                k, split_chunks(len(layer_masks), config.jobs), previous, out
            )
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
            keys = layer_masks.tolist()
            mincost_by_subset.update(zip(keys, current.mincost.tolist()))
            best_last.update(zip(keys, out.best_last.tolist()))
            for part in parts:
                pred, var, cost = part.level_cost
                level_cost_by_choice.update(zip(
                    zip(pred.tolist(), var.tolist()), cost.tolist()
                ))
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
                        mincost_by_subset=mincost_by_subset,
                        best_last=best_last,
                        level_cost_by_choice=level_cost_by_choice,
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
        backend.end_sweep()
        if engine_owns_backend:
            backend.close()

    frontier = {
        mask: FSState(
            n=base.n,
            mask=base.mask | mask,
            pi=base.pi + tuple(chain_of(best_last, mask)),
            mincost=mincost,
            table=previous.tables[row].astype(np.int64),
            num_terminals=base.num_terminals,
            num_roots=base.num_roots,
        )
        for row, (mask, mincost) in enumerate(
            zip(previous.masks.tolist(), previous.mincost.tolist())
        )
    }
    return SweepOutcome(
        frontier=frontier,
        mincost_by_subset=mincost_by_subset,
        best_last=best_last,
        level_cost_by_choice=level_cost_by_choice,
        subsets_processed=subsets_processed,
    )


def chain_of(best_last: Dict[int, int], mask: int) -> List[int]:
    """The recorded optimal chain of ``mask``, bottom-first, read off
    ``best_last`` (each subset's minimizing last variable)."""
    chain = []
    while mask:
        var = best_last[mask]
        chain.append(var)
        mask &= ~(1 << var)
    chain.reverse()
    return chain
