"""The heuristic portfolio: registered inexact ordering strategies.

The exact FS-family DP certifies optima but costs ``O*(3^n)``; the
heuristics literature the paper's introduction surveys trades that
certificate for speed.  This module makes the inexact side a first-class
subsystem, mirroring the backend registry:
every heuristic registers under a name (:func:`register_strategy`), runs
standalone (:func:`run_strategy`) under a :class:`~repro.core.budget.Budget`,
or races against the whole field (:func:`run_portfolio`) with a
deterministic winner — best size, ties broken by the lexicographically
lowest strategy name — independent of ``jobs`` and backend.

It is also the canonical home of Rudell sifting.  The repo historically
grew two independent implementations (an evaluation-level sifter over a
size oracle and the swap-level ``ReorderingBDD.sift``); both now
delegate to one schedule driver,
:func:`run_sift_schedule`, parameterized over a *substrate*:

* :class:`TableSiftSubstrate` scores candidate orderings with an exact
  size oracle (the historical evaluation-level behaviour, preserved
  bit-identically: same schedule, same candidate sequence, same
  evaluation and trajectory accounting), and generalizes to *group*
  sifting — blocks of variables moved as one unit, which is how the
  symmetric-sifting strategy exploits
  :func:`repro.analysis.symmetry.symmetry_classes`.
* :class:`SwapSiftSubstrate` walks a live
  :class:`~repro.bdd.swap.ReorderingBDD` with real adjacent level swaps
  (the historical ``ReorderingBDD.sift`` behaviour, also preserved).

Registered strategies (see ``repro portfolio`` on the CLI):

``sift`` / ``sift_group`` / ``sift_symmetric`` / ``sift_swap``
    Plain, paired-block, symmetry-class and swap-based sifting.
``window3`` / ``window4``
    The Lemma-8 exact-window sweep (:func:`repro.core.window.window_sweep`)
    at widths 3 and 4 — every window solved *optimally* by FS*, so these
    strictly dominate the classic ``w!``-permutation window heuristic.
``anneal``
    Simulated annealing over transpositions with a seeded deterministic
    RNG — same seed, same answer, on any backend.
``influence`` / ``entropy``
    Static profile orders: descending variable influence
    (:func:`repro.analysis.influence.influence_order`) and descending
    information gain built from :func:`repro.analysis.entropy.binary_entropy`
    (Popel's entropy-measure family).

Every strategy reports an *honest* size: the final ordering is scored by
the exact chain-cost oracle under the requested reduction rule, with a
budget check per evaluation.  A strategy that exhausts its
:meth:`~repro.core.budget.Budget.subbudget` share returns its
best-so-far ordering with ``status="budget_exceeded"`` instead of
raising — only cancellation propagates — so a raced portfolio always
yields an ordering.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ._bitops import insert_bit_indices
from .analysis.counters import OperationCounters
from .analysis.entropy import binary_entropy
from .analysis.influence import influence_order
from .analysis.symmetry import symmetry_classes
from .core.budget import Budget, _governed_size_fn
from .core.engine import EngineConfig
from .core.spec import ReductionRule
from .errors import BudgetExceeded, OrderingError
from .truth_table import TruthTable, count_subfunctions, obdd_size

SizeFn = Callable[[TruthTable, Sequence[int]], int]


# ----------------------------------------------------------------------
# Search results (canonical home; repro.bdd.reorder re-exports)
# ----------------------------------------------------------------------

@dataclass
class SearchResult:
    """Outcome of a heuristic ordering search."""

    order: Tuple[int, ...]
    size: int
    evaluations: int
    trajectory: List[int] = field(default_factory=list)
    """Best size after each improvement step (for convergence plots)."""


# ----------------------------------------------------------------------
# The unified sifting driver
# ----------------------------------------------------------------------

class TableSiftSubstrate:
    """Evaluation-level substrate: candidates are scored by ``size_fn``.

    ``groups`` (disjoint variable blocks) generalizes plain sifting —
    a block's members move together, preserving their relative order;
    singleton groups reproduce classic per-variable sifting exactly.
    """

    def __init__(
        self,
        table: TruthTable,
        initial_order: Optional[Sequence[int]] = None,
        size_fn: SizeFn = obdd_size,
        groups: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        n = table.n
        self._table = table
        self._order: List[int] = (
            list(initial_order) if initial_order is not None
            else list(range(n))
        )
        self._size_fn = size_fn
        if groups is not None:
            members = [v for group in groups for v in group]
            if sorted(members) != sorted(self._order):
                raise OrderingError(
                    f"groups {groups!r} are not a disjoint cover of the "
                    f"{n} variables"
                )
            self._groups: Optional[List[frozenset]] = [
                frozenset(group) for group in groups
            ]
        else:
            self._groups = None

    def evaluate_initial(self) -> int:
        return self._size_fn(self._table, list(self._order))

    def order(self) -> List[int]:
        return list(self._order)

    def widths(self) -> List[int]:
        return count_subfunctions(self._table, self._order)

    def units(self) -> List[Tuple[int, ...]]:
        if self._groups is None:
            return [(v,) for v in self._order]
        # Blocks scheduled by the current position of their first member.
        seen: List[frozenset] = []
        units: List[Tuple[int, ...]] = []
        for v in self._order:
            group = next(g for g in self._groups if v in g)
            if group in seen:
                continue
            seen.append(group)
            units.append(tuple(w for w in self._order if w in group))
        return units

    def start_position(self, unit: Tuple[int, ...]) -> Optional[int]:
        levels = sorted(self._order.index(v) for v in unit)
        if levels[-1] - levels[0] != len(unit) - 1:
            # Another block was parked between this block's members; no
            # scanned placement is the current order, so staying put is
            # the only way to keep the size the schedule reports.
            return None
        return levels[0]

    def _split(self, unit: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
        members = set(unit)
        working = [v for v in self._order if v not in members]
        block = [v for v in self._order if v in members]
        return working, block

    def scan(self, unit: Tuple[int, ...]) -> Iterator[Tuple[int, int]]:
        working, block = self._split(unit)
        for p in range(len(working) + 1):
            candidate = working[:p] + block + working[p:]
            yield p, self._size_fn(self._table, candidate)

    def park(self, unit: Tuple[int, ...], position: Optional[int]) -> None:
        if position is None:
            return
        working, block = self._split(unit)
        self._order = working[:position] + block + working[position:]


class SwapSiftSubstrate:
    """Swap-level substrate: a live :class:`~repro.bdd.swap.ReorderingBDD`
    walked with real adjacent level swaps (sizes read off the diagram)."""

    def __init__(self, manager: Any) -> None:
        self._m = manager

    def evaluate_initial(self) -> int:
        return self._m.size()

    def order(self) -> List[int]:
        return list(self._m.order)

    def widths(self) -> List[int]:
        return self._m.level_widths()

    def units(self) -> List[Tuple[int, ...]]:
        return [(v,) for v in self._m.order]

    def start_position(self, unit: Tuple[int, ...]) -> int:
        return self._m._position[unit[0]]

    def scan(self, unit: Tuple[int, ...]) -> Iterator[Tuple[int, int]]:
        m = self._m
        position = m._position[unit[0]]
        # Sweep down to the bottom, then up to the top: every level gets
        # measured (returning past the start restores the start order).
        while position < m.num_vars - 1:
            m.swap(position)
            position += 1
            yield position, m.size()
        while position > 0:
            m.swap(position - 1)
            position -= 1
            yield position, m.size()

    def park(self, unit: Tuple[int, ...], position: int) -> None:
        self._m.move_var(unit[0], position)
        self._m.collect()


def run_sift_schedule(
    substrate: Any,
    max_rounds: int = 10,
    budget: Optional[Budget] = None,
    counters: Optional[OperationCounters] = None,
) -> SearchResult:
    """Rudell's sifting schedule over any :class:`TableSiftSubstrate` /
    :class:`SwapSiftSubstrate`-shaped substrate.

    Each round takes the units widest-level-first, scans every placement
    of each unit, and parks it at the best position seen; improvements
    are strict against the global best, so ties keep the current
    position.  Rounds repeat to a fixpoint or ``max_rounds``.

    On a budget abort mid-scan the current unit is parked at its best
    position so far and the :class:`~repro.errors.BudgetExceeded`
    propagates enriched with ``best_order`` / ``best_bound`` — the
    ladder and the portfolio both resume from that partial work.
    """
    best_size = substrate.evaluate_initial()
    evaluations = 1
    trajectory = [best_size]
    committed_size = best_size
    for _ in range(max_rounds):
        improved = False
        widths = substrate.widths()
        order = substrate.order()
        level_of = {var: lv for lv, var in enumerate(order)}
        schedule = sorted(
            substrate.units(),
            key=lambda unit: -max(widths[level_of[v]] for v in unit),
        )
        for unit in schedule:
            best_position = substrate.start_position(unit)
            sizes: Dict[int, int] = {}
            try:
                for position, size in substrate.scan(unit):
                    if budget is not None:
                        budget.check(counters=counters, where="sift scan")
                    evaluations += 1
                    sizes[position] = size
                    if size < best_size:
                        best_size = size
                        best_position = position
                        improved = True
                        trajectory.append(size)
            except BudgetExceeded as exc:
                substrate.park(unit, best_position)
                committed_size = sizes.get(best_position, committed_size)
                exc.best_order = tuple(substrate.order())
                exc.best_bound = committed_size
                raise
            substrate.park(unit, best_position)
            committed_size = sizes.get(best_position, committed_size)
        if not improved:
            break
    return SearchResult(
        tuple(substrate.order()), best_size, evaluations, trajectory
    )


def sift_search(
    table: TruthTable,
    initial_order: Optional[Sequence[int]] = None,
    size_fn: SizeFn = obdd_size,
    max_rounds: int = 10,
    groups: Optional[Sequence[Sequence[int]]] = None,
    budget: Optional[Budget] = None,
    counters: Optional[OperationCounters] = None,
) -> SearchResult:
    """Rudell's sifting heuristic (canonical implementation).

    Each round considers every unit (largest-width level first, the
    classic schedule), moves it through every position of the ordering,
    and leaves it at the best position found.  ``groups`` turns it into
    group sifting: each block of variables moves as one unit.
    """
    substrate = TableSiftSubstrate(
        table, initial_order=initial_order, size_fn=size_fn, groups=groups
    )
    return run_sift_schedule(
        substrate, max_rounds=max_rounds, budget=budget, counters=counters
    )


def window_permutation_search(
    table: TruthTable,
    initial_order: Optional[Sequence[int]] = None,
    window: int = 3,
    size_fn: SizeFn = obdd_size,
    max_rounds: int = 10,
) -> SearchResult:
    """Window-permutation heuristic (canonical implementation).

    Slides a window of ``window`` adjacent levels across the ordering
    and replaces its contents with the best of the ``window!``
    permutations.  Rounds repeat until no window improves.  The
    registered ``window3``/``window4`` strategies use the strictly
    stronger exact-window sweep instead; this survives as the historical
    baseline.
    """
    n = table.n
    if window < 2:
        raise ValueError("window must be at least 2")
    window = min(window, n) if n else window
    order = list(initial_order) if initial_order is not None else list(range(n))
    evaluations = 1
    best_size = size_fn(table, list(order))
    trajectory = [best_size]

    for _ in range(max_rounds):
        improved = False
        for start in range(max(n - window + 1, 0)):
            segment = order[start:start + window]
            best_perm = tuple(segment)
            for perm in itertools.permutations(segment):
                if perm == tuple(segment):
                    continue
                candidate = order[:start] + list(perm) + order[start + window:]
                evaluations += 1
                size = size_fn(table, candidate)
                if size < best_size:
                    best_size = size
                    best_perm = perm
                    improved = True
                    trajectory.append(size)
            order = order[:start] + list(best_perm) + order[start + window:]
        if not improved:
            break
    return SearchResult(tuple(order), best_size, evaluations, trajectory)


# ----------------------------------------------------------------------
# The strategy registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StrategySpec:
    """A registered strategy: the callable plus its shelf card."""

    name: str
    fn: Callable[["StrategyContext"], "_Outcome"]
    description: str
    kind: str = "search"
    """``sift`` / ``window`` / ``anneal`` / ``static`` — for display."""


_STRATEGIES: Dict[str, StrategySpec] = {}


def register_strategy(
    name: str, *, description: str, kind: str = "search",
) -> Callable[[Callable], Callable]:
    """Decorator registering an ordering strategy under ``name``.

    The callable receives a :class:`StrategyContext` and returns the
    order/size/evaluations it found; registered names become valid for
    ``repro.solve(strategy=...)``, ``fallback_rungs=`` ladders, the CLI
    ``--strategy`` flag and the serve daemon's ``strategy`` field."""
    def deco(fn: Callable) -> Callable:
        if name in _STRATEGIES:
            raise ValueError(f"strategy {name!r} is already registered")
        _STRATEGIES[name] = StrategySpec(
            name=name, fn=fn, description=description, kind=kind
        )
        return fn
    return deco


def get_strategy(name: str) -> StrategySpec:
    """Resolve a registered strategy; raises ``OrderingError`` on
    unknown names, listing the valid ones."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise OrderingError(
            f"unknown strategy {name!r}; registered strategies: "
            f"{', '.join(available_strategies())}"
        ) from None


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted (for CLI listings and errors)."""
    return tuple(sorted(_STRATEGIES))


# ----------------------------------------------------------------------
# Strategy execution context and results
# ----------------------------------------------------------------------

@dataclass
class StrategyContext:
    """Everything one strategy invocation may consult.

    ``budget`` is the strategy's own (sub)budget share; ``counters`` is
    the strategy's own sink — a raced portfolio gives every member a
    fresh one and merges them in sorted-name order, which is what makes
    the merged counters independent of scheduling."""

    table: TruthTable
    rule: ReductionRule
    budget: Budget
    counters: OperationCounters
    jobs: int = 1
    backend: Any = "serial"
    cache: Optional[Any] = None
    profiler: Optional[Any] = None
    seed: int = 0
    initial_order: Optional[Tuple[int, ...]] = None
    max_rounds: int = 10

    def governed_size_fn(self) -> SizeFn:
        """Exact chain-cost oracle under :attr:`rule` (total nodes,
        terminals included), budget-checked per evaluation."""
        return _governed_size_fn(self.rule, self.counters, self.budget)

    def ungoverned_size_fn(self) -> SizeFn:
        """The same oracle without budget checks — used exactly once to
        honestly score a best-so-far ordering after an abort."""
        return _governed_size_fn(self.rule, self.counters, Budget())

    def start_order(self) -> List[int]:
        if self.initial_order is not None:
            return list(self.initial_order)
        return list(range(self.table.n))


@dataclass
class _Outcome:
    """What a strategy callable hands back to :func:`run_strategy`."""

    order: Tuple[int, ...]
    size: int
    evaluations: int
    trajectory: List[int] = field(default_factory=list)
    detail: str = ""
    from_cache: bool = False


@dataclass
class StrategyResult:
    """One strategy's scored answer (portfolio scoreboard row)."""

    name: str
    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    size: int
    """Total node count including terminals under :attr:`order`, scored
    by the exact chain-cost oracle — honest even on a budget abort."""

    num_terminals: int
    evaluations: int
    status: str
    """``"ok"`` or ``"budget_exceeded"`` (best-so-far answer)."""

    seconds: float
    counters: OperationCounters
    trajectory: List[int] = field(default_factory=list)
    detail: str = ""
    from_cache: bool = False
    budget_reason: Optional[str] = None

    @property
    def mincost(self) -> int:
        """Internal nodes (size minus terminals)."""
        return self.size - self.num_terminals

    @property
    def exact(self) -> bool:
        """Strategies never certify optimality."""
        return False


@dataclass
class PortfolioResult:
    """The race's verdict: the deterministic winner plus every row.

    The winner minimizes ``(size, name)`` over all members — best size
    first, lexicographically lowest strategy name on ties — which is
    independent of ``jobs``, backend and completion timing."""

    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    mincost: int
    num_terminals: int
    winner: str
    results: List[StrategyResult]
    counters: OperationCounters

    exact: bool = False

    @property
    def size(self) -> int:
        """Total node count including terminals (Figure 1 convention)."""
        return self.mincost + self.num_terminals

    @property
    def from_cache(self) -> bool:
        winning = next(r for r in self.results if r.name == self.winner)
        return winning.from_cache


# ----------------------------------------------------------------------
# The registered strategies
# ----------------------------------------------------------------------

@register_strategy(
    "sift",
    description="Rudell sifting, scored by the exact chain-cost oracle",
    kind="sift",
)
def _strategy_sift(ctx: StrategyContext) -> _Outcome:
    result = sift_search(
        ctx.table,
        initial_order=ctx.start_order(),
        size_fn=ctx.governed_size_fn(),
        max_rounds=ctx.max_rounds,
    )
    return _Outcome(result.order, result.size, result.evaluations,
                    result.trajectory)


@register_strategy(
    "sift_group",
    description="group sifting: adjacent pairs of the start order move "
                "as blocks",
    kind="sift",
)
def _strategy_sift_group(ctx: StrategyContext) -> _Outcome:
    start = ctx.start_order()
    groups = [tuple(start[i:i + 2]) for i in range(0, len(start), 2)]
    result = sift_search(
        ctx.table,
        initial_order=start,
        size_fn=ctx.governed_size_fn(),
        max_rounds=ctx.max_rounds,
        groups=groups,
    )
    return _Outcome(result.order, result.size, result.evaluations,
                    result.trajectory,
                    detail=f"{len(groups)} blocks")


@register_strategy(
    "sift_symmetric",
    description="symmetric sifting: symmetry classes "
                "(analysis.symmetry) move as blocks",
    kind="sift",
)
def _strategy_sift_symmetric(ctx: StrategyContext) -> _Outcome:
    classes = symmetry_classes(ctx.table)
    result = sift_search(
        ctx.table,
        initial_order=ctx.start_order(),
        size_fn=ctx.governed_size_fn(),
        max_rounds=ctx.max_rounds,
        groups=[tuple(cls) for cls in classes],
    )
    nontrivial = sum(1 for cls in classes if len(cls) > 1)
    return _Outcome(result.order, result.size, result.evaluations,
                    result.trajectory,
                    detail=f"{len(classes)} classes ({nontrivial} symmetric)")


@register_strategy(
    "sift_swap",
    description="swap-based sifting on a live ReorderingBDD "
                "(bdd.swap level swaps); final order rescored under the "
                "requested rule",
    kind="sift",
)
def _strategy_sift_swap(ctx: StrategyContext) -> _Outcome:
    table = ctx.table
    oracle = ctx.governed_size_fn()
    if table.n < 2:
        order = tuple(ctx.start_order())
        return _Outcome(order, oracle(table, list(order)), 1)
    from .bdd.swap import ReorderingBDD  # deferred: repro.bdd imports us

    manager = ReorderingBDD(table.n, order=ctx.start_order())
    manager.from_truth_table(table)
    search = run_sift_schedule(
        SwapSiftSubstrate(manager),
        max_rounds=ctx.max_rounds,
        budget=ctx.budget,
        counters=ctx.counters,
    )
    size = oracle(table, list(search.order))
    return _Outcome(tuple(search.order), size, search.evaluations + 1,
                    search.trajectory,
                    detail="searched by diagram size, rescored by oracle")


def _window_strategy(width: int) -> Callable[[StrategyContext], _Outcome]:
    def run(ctx: StrategyContext) -> _Outcome:
        table = ctx.table
        if table.n < 2:
            order = tuple(ctx.start_order())
            return _Outcome(order, ctx.governed_size_fn()(table, list(order)), 1)
        from .core.fs import terminal_values
        from .core.window import window_sweep

        config = EngineConfig(
            jobs=ctx.jobs,
            backend=ctx.backend,
            cache=ctx.cache,
            profiler=ctx.profiler,
            budget=ctx.budget,
        )
        result = window_sweep(
            table,
            initial_order=ctx.initial_order,
            width=min(width, table.n),
            rule=ctx.rule,
            max_rounds=ctx.max_rounds,
            counters=ctx.counters,
            config=config,
        )
        total = result.size + len(terminal_values(table, ctx.rule))
        return _Outcome(
            tuple(result.order), total, result.windows_solved,
            detail=f"{result.windows_solved} exact windows of width "
                   f"{min(width, table.n)}",
            from_cache=result.from_cache,
        )
    return run


register_strategy(
    "window3",
    description="exact-window sweep (Lemma 8) of width 3",
    kind="window",
)(_window_strategy(3))

register_strategy(
    "window4",
    description="exact-window sweep (Lemma 8) of width 4",
    kind="window",
)(_window_strategy(4))


@register_strategy(
    "anneal",
    description="simulated annealing over transpositions with a seeded "
                "deterministic RNG",
    kind="anneal",
)
def _strategy_anneal(ctx: StrategyContext) -> _Outcome:
    table = ctx.table
    n = table.n
    size_fn = ctx.governed_size_fn()
    order = ctx.start_order()
    current = size_fn(table, order)
    evaluations = 1
    best_order, best_size = list(order), current
    trajectory = [current]
    if n < 2:
        return _Outcome(tuple(order), current, evaluations, trajectory)

    rng = random.Random(ctx.seed)
    steps = 60 * n
    t_start = max(1.0, 0.05 * current)
    t_end = 0.1
    for step in range(steps):
        temperature = t_start * (t_end / t_start) ** (step / max(steps - 1, 1))
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        candidate = list(order)
        candidate[i], candidate[j] = candidate[j], candidate[i]
        size = size_fn(table, candidate)
        evaluations += 1
        delta = size - current
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            order, current = candidate, size
            if current < best_size:
                best_order, best_size = list(order), current
                trajectory.append(current)
    return _Outcome(tuple(best_order), best_size, evaluations, trajectory,
                    detail=f"{steps} proposals, seed {ctx.seed}")


@register_strategy(
    "influence",
    description="static order by descending variable influence "
                "(analysis.influence)",
    kind="static",
)
def _strategy_influence(ctx: StrategyContext) -> _Outcome:
    order = influence_order(ctx.table, descending=True)
    size = ctx.governed_size_fn()(ctx.table, order)
    return _Outcome(tuple(order), size, 1, [size])


def entropy_gain_order(table: TruthTable) -> List[int]:
    """Ordering by descending information gain (Popel's entropy family).

    The gain of ``x_i`` is ``H(f) - (H(f|x_i=0) + H(f|x_i=1)) / 2`` over
    the uniform input distribution — how much splitting on ``x_i``
    reduces output entropy.  Ties break by variable index."""
    n = table.n
    if n == 0:
        return []
    values = np.asarray(table.values) != 0
    total = 1 << n
    h_f = binary_entropy(float(np.count_nonzero(values)) / total)
    half = total // 2
    gains: List[float] = []
    for var in range(n):
        idx0, idx1 = insert_bit_indices(half, var)
        h0 = binary_entropy(float(np.count_nonzero(values[idx0])) / half)
        h1 = binary_entropy(float(np.count_nonzero(values[idx1])) / half)
        gains.append(h_f - 0.5 * (h0 + h1))
    return sorted(range(n), key=lambda v: (-gains[v], v))


@register_strategy(
    "entropy",
    description="static order by descending information gain "
                "(Popel's entropy measure, via analysis.entropy)",
    kind="static",
)
def _strategy_entropy(ctx: StrategyContext) -> _Outcome:
    if ctx.table.n == 0:
        order: Tuple[int, ...] = ()
    else:
        order = tuple(entropy_gain_order(ctx.table))
    size = ctx.governed_size_fn()(ctx.table, list(order))
    return _Outcome(order, size, 1, [size])


# ----------------------------------------------------------------------
# Running strategies: standalone and raced
# ----------------------------------------------------------------------

def run_strategy(
    name: str,
    table: TruthTable,
    *,
    rule: ReductionRule = ReductionRule.BDD,
    budget: Optional[Budget] = None,
    counters: Optional[OperationCounters] = None,
    seed: int = 0,
    initial_order: Optional[Sequence[int]] = None,
    max_rounds: int = 10,
    config: Optional[EngineConfig] = None,
) -> StrategyResult:
    """Run one registered strategy standalone under a budget.

    Engine knobs (jobs, backend, cache, profiler) come
    from ``config`` (an
    :class:`~repro.core.engine.EngineConfig`); ``budget`` overrides
    ``config.budget``.  A deadline or frontier-cap abort returns the
    best-so-far ordering with ``status="budget_exceeded"`` — its size
    honestly rescored — instead of raising; only cancellation
    propagates.
    """
    spec = get_strategy(name)
    if config is None:
        config = EngineConfig()
    if budget is None:
        budget = config.budget if config.budget is not None else Budget()
    budget.ensure_armed()
    if counters is None:
        counters = OperationCounters()
    ctx = StrategyContext(
        table=table,
        rule=rule,
        budget=budget,
        counters=counters,
        jobs=config.jobs,
        backend=config.backend,
        cache=config.cache,
        profiler=config.profiler,
        seed=seed,
        initial_order=tuple(initial_order) if initial_order is not None
        else None,
        max_rounds=max_rounds,
    )
    started = time.perf_counter()
    try:
        outcome = spec.fn(ctx)
        status = "ok"
        budget_reason: Optional[str] = None
    except BudgetExceeded as exc:
        if exc.reason == "cancelled":
            raise
        # budget_aborts was already tallied by Budget.check at the raise
        # site (the governed oracle passes these counters through).
        order = (
            tuple(exc.best_order) if exc.best_order is not None
            else tuple(ctx.start_order())
        )
        size = ctx.ungoverned_size_fn()(table, list(order))
        outcome = _Outcome(order, size, 0, detail=str(exc))
        status = "budget_exceeded"
        budget_reason = exc.reason
    seconds = time.perf_counter() - started
    from .core.fs import terminal_values  # deferred: heavy engine family

    return StrategyResult(
        name=name,
        n=table.n,
        rule=rule,
        order=tuple(outcome.order),
        size=outcome.size,
        num_terminals=len(terminal_values(table, rule)),
        evaluations=outcome.evaluations,
        status=status,
        seconds=seconds,
        counters=counters,
        trajectory=outcome.trajectory,
        detail=outcome.detail,
        from_cache=outcome.from_cache,
        budget_reason=budget_reason,
    )


def run_portfolio(
    table: TruthTable,
    *,
    strategies: Optional[Sequence[str]] = None,
    budget: Optional[Budget] = None,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    seed: int = 0,
    initial_order: Optional[Sequence[int]] = None,
    max_rounds: int = 10,
    config: Optional[EngineConfig] = None,
) -> PortfolioResult:
    """Race the registered strategies and return the deterministic winner.

    Every member receives its own fresh
    :class:`~repro.analysis.counters.OperationCounters` and an equal
    :meth:`~repro.core.budget.Budget.subbudget` share of the remaining
    deadline; with ``config.jobs > 1`` members run on racing threads
    (exact inner sweeps serialize on the shared warm backend).  The
    winner minimizes ``(size, strategy name)`` and the per-member
    counters merge into ``counters`` in sorted-name order, so both the
    answer and the merged counters are bit-identical across jobs counts
    and backends.  Starved members contribute their best-so-far row
    instead of failing the race; only cancellation raises.
    """
    names = tuple(strategies) if strategies is not None \
        else available_strategies()
    if not names:
        raise OrderingError("portfolio needs at least one strategy")
    if len(set(names)) != len(names):
        raise OrderingError(f"duplicate strategy names in {names!r}")
    for name in names:
        get_strategy(name)
    if config is None:
        config = EngineConfig()
    if counters is None:
        counters = OperationCounters()
    if budget is None:
        budget = config.budget if config.budget is not None else Budget()
    budget.arm()
    remaining = budget.remaining()
    share = None if remaining is None else remaining / len(names)

    from .core.executor import resolve_backend  # deferred: engine family

    backend_obj, owns_backend = resolve_backend(
        config.backend, max_pool_rebuilds=config.max_pool_rebuilds
    )
    member_config = EngineConfig(
        jobs=config.jobs,
        backend=backend_obj,
        cache=config.cache,
        profiler=config.profiler,
    )

    def run_one(name: str) -> StrategyResult:
        return run_strategy(
            name,
            table,
            rule=rule,
            budget=budget.subbudget(share),
            seed=seed,
            initial_order=initial_order,
            max_rounds=max_rounds,
            config=member_config,
        )

    try:
        race_jobs = min(config.jobs, len(names))
        if race_jobs > 1:
            with ThreadPoolExecutor(
                max_workers=race_jobs, thread_name_prefix="portfolio"
            ) as pool:
                results = list(pool.map(run_one, names))
        else:
            results = [run_one(name) for name in names]
    finally:
        if owns_backend:
            backend_obj.close()

    for result in sorted(results, key=lambda r: r.name):
        counters.merge(result.counters)
    winner = min(results, key=lambda r: (r.size, r.name))
    return PortfolioResult(
        n=table.n,
        rule=rule,
        order=winner.order,
        mincost=winner.mincost,
        num_terminals=winner.num_terminals,
        winner=winner.name,
        results=sorted(results, key=lambda r: (r.size, r.name)),
        counters=counters,
    )
