"""Exact window optimization: FS* applied to a slice of the ordering.

The paper notes that theoretically-sound exact methods are worth having
"to be able to apply such methods at least to parts of the OBDDs within a
heuristics procedure" [MT98, Sec. 9.22].  This module is that hybrid: the
composable FS* (Lemma 8) run over a window of ``w`` consecutive levels
with everything outside the window frozen.  By Lemma 3 the widths outside
the window cannot change, so each window solve is an exact local
optimization in ``O*(2^{n-w} 3^w)`` — versus the ``w!`` arrangements a
permutation-window heuristic enumerates.

:func:`exact_window` optimizes one window; :func:`window_sweep` slides it
across the ordering to a fixpoint, yielding a heuristic that is strictly
stronger than classic window permutation at equal window size (identical
local optima, found with exponentially fewer arrangement evaluations for
large windows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .._bitops import mask_of
from ..analysis.counters import OperationCounters
from ..errors import BudgetExceeded, CacheError, OrderingError
from ..truth_table import TruthTable
from .cache import raw_table_key
from .compaction import compact
from .engine import EngineConfig
from .executor import shared_backend
from .fs import initial_state
from .fs_star import run_fs_star
from .spec import ReductionRule


@dataclass
class WindowResult:
    """Outcome of one exact window solve (or a full sweep)."""

    order: Tuple[int, ...]
    size: int
    """Total internal nodes of the diagram under ``order``."""

    improved: bool
    windows_solved: int
    counters: OperationCounters

    from_cache: bool = False
    """True when a full sweep was served by a
    :class:`~repro.core.cache.ResultCache` hit (zero kernel work)."""


def _chain_cost(
    table: TruthTable,
    order: Sequence[int],
    rule: ReductionRule,
    counters: Optional[OperationCounters] = None,
) -> int:
    state = initial_state(table, rule)
    for var in reversed(list(order)):
        state = compact(state, var, rule, counters)
    return state.mincost


def exact_window(
    table: TruthTable,
    order: Sequence[int],
    start: int,
    width: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    config: Optional[EngineConfig] = None,
    known_size: Optional[int] = None,
) -> WindowResult:
    """Optimally rearrange ``order[start:start+width]``, rest frozen.

    Returns the improved ordering (identical outside the window) and the
    new total internal-node count.  ``config`` selects the execution
    engine options (jobs, profiler, cache) for the FS* solve.

    Costing is incremental: the current window block is replayed on the
    frozen bottom chain (its cost read off the same base state the FS*
    solve extends), and by Lemma 3 every level outside the window keeps
    its width, so the new total is ``old_total - old_block + new_block``.
    Pass ``known_size`` (the current order's total, e.g. from a previous
    window in a sweep) to skip the one remaining full-chain costing of
    the levels above the window.
    """
    n = table.n
    order = list(order)
    if sorted(order) != list(range(n)):
        raise OrderingError(f"{order!r} is not an ordering of range({n})")
    if width < 1 or start < 0 or start + width > n:
        raise OrderingError(
            f"window [{start}, {start + width}) invalid for n={n}"
        )
    if counters is None:
        counters = OperationCounters()

    below = order[start + width:]  # read later = placed at the bottom
    window = order[start:start + width]

    # Build the frozen bottom chain once; both the current block's cost
    # and the FS* solve extend this same state.
    state = initial_state(table, rule)
    for var in reversed(below):
        state = compact(state, var, rule, counters)
    base_below = state

    current = base_below
    for var in reversed(window):
        current = compact(current, var, rule, counters)
    old_block = current.mincost - base_below.mincost

    final = run_fs_star(
        base_below, mask_of(window), rule, counters, config=config
    )
    new_block = final.mincost - base_below.mincost
    optimized_window = list(reversed(final.pi[len(below):]))

    # The FS* block is optimal over all arrangements of the window
    # (Lemma 8), the current arrangement included.  A regression here
    # means a broken kernel or a corrupted state, and silently keeping
    # the "optimized" order would propagate it — so this is a real
    # runtime check, not an assert stripped under ``python -O``.
    if new_block > old_block:
        raise OrderingError(
            f"exact window [{start}, {start + width}) regressed: optimized "
            f"block costs {new_block} nodes vs {old_block} for the current "
            "arrangement, violating the Lemma 8 optimality invariant"
        )

    if known_size is None:
        # Cost the levels above the window by continuing the current
        # chain (Lemma 3: those widths are the same for both orders).
        top = current
        for var in reversed(order[:start]):
            top = compact(top, var, rule, counters)
        known_size = top.mincost
    new_size = known_size - old_block + new_block

    new_order = order[:start] + optimized_window + order[start + width:]
    return WindowResult(
        order=tuple(new_order),
        size=new_size,
        improved=new_block < old_block,
        windows_solved=1,
        counters=counters,
    )


def window_sweep(
    table: TruthTable,
    initial_order: Optional[Sequence[int]] = None,
    width: int = 3,
    rule: ReductionRule = ReductionRule.BDD,
    max_rounds: int = 10,
    counters: Optional[OperationCounters] = None,
    config: Optional[EngineConfig] = None,
) -> WindowResult:
    """Slide the exact window across all positions until no improvement.

    The initial order's size is measured once, and every window solve is
    costed incrementally against it (``known_size`` threading into
    :func:`exact_window`), so the sweep never re-costs a full chain it
    already knows.  A :class:`~repro.core.cache.ResultCache` on
    ``config`` short-circuits whole repeated sweeps — keyed on the raw
    table, rule, width, round budget and initial order, since a window
    sweep's trajectory is tied to concrete variable positions — and also
    accelerates the inner FS* solves via their own chain entries.

    A :class:`~repro.core.budget.Budget` on ``config`` is checked before
    every window solve (and at the layer boundaries of each inner FS*
    sweep); the resulting :class:`~repro.errors.BudgetExceeded` carries
    the best full ordering and size reached so far on ``best_order`` /
    ``best_bound``, so a degradation ladder can seed a cheaper method
    with the partial progress.
    """
    n = table.n
    if width < 2:
        raise OrderingError("window width must be at least 2")
    width = min(width, n)
    order = list(initial_order) if initial_order is not None else list(range(n))
    if counters is None:
        counters = OperationCounters()

    budget = config.budget if config is not None else None
    if budget is not None:
        budget.ensure_armed()
    cache = config.cache if config is not None else None
    fingerprint = None
    if cache is not None:
        fingerprint = raw_table_key(
            [table], rule, spec="window_sweep",
            extra={
                "width": width,
                "max_rounds": max_rounds,
                "initial_order": list(order),
            },
        )
        entry = cache.lookup(fingerprint)
        counters.add_extra("cache_hits" if entry is not None
                           else "cache_misses")
        if entry is not None:
            cached_order = tuple(int(v) for v in entry.get("order", ()))
            if (
                entry.get("kind") != "window_sweep"
                or sorted(cached_order) != list(range(n))
            ):
                raise CacheError(
                    f"cache entry {fingerprint} holds a malformed "
                    "window-sweep payload"
                )
            return WindowResult(
                order=cached_order,
                size=int(entry["size"]),
                improved=bool(entry["improved"]),
                windows_solved=int(entry["windows_solved"]),
                counters=counters,
                from_cache=True,
            )

    initial_size = _chain_cost(table, order, rule, counters)
    size = initial_size
    solved = 0

    # A sweep runs O(n * rounds) inner FS* solves; pin the configured
    # backend to one live instance so a pool-bearing backend spec costs
    # one pool for the whole sweep, not one per window.
    with shared_backend(config) as config:
        for _ in range(max_rounds):
            round_improved = False
            for start in range(n - width + 1):
                if budget is not None:
                    budget.check(
                        counters=counters,
                        best_bound=size,
                        best_order=tuple(order),
                        where=f"window boundary (start={start})",
                    )
                try:
                    result = exact_window(
                        table, order, start, width, rule, counters, config,
                        known_size=size,
                    )
                except BudgetExceeded as exc:
                    # The inner FS* raise describes a sub-lattice state;
                    # the sweep-level progress is what a caller can use.
                    exc.best_order = tuple(order)
                    exc.best_bound = size
                    raise
                solved += 1
                if result.size < size:
                    size = result.size
                    order = list(result.order)
                    round_improved = True
            if not round_improved:
                break
    if cache is not None and fingerprint is not None:
        cache.store(fingerprint, {
            "kind": "window_sweep",
            "order": list(order),
            "size": size,
            "improved": size < initial_size,
            "windows_solved": solved,
        })
        counters.add_extra("cache_stores")
    return WindowResult(
        order=tuple(order),
        size=size,
        improved=size < initial_size,
        windows_solved=solved,
        counters=counters,
    )
