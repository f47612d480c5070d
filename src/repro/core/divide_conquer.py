"""Divide-and-conquer over the ordering-DP lattice (Lemma 9 / OptOBDD).

Lemma 9 splits the optimization at a division point ``k``::

    MINCOST_[n] = min_{|K| = k} ( MINCOST_K + MINCOST_(K, [n]\\K)([n]\\K) )

:func:`mincost_by_split` evaluates that identity directly (the tests verify
it against plain FS for every ``k``).  :func:`opt_obdd` implements the
paper's ``OptOBDD(k, alpha)``: classical FS* preprocessing up to level
``alpha_1 * n``, then nested minimum finding over division points
``alpha_2 * n, ..., alpha_k * n, n`` — with the minimum finder pluggable
(exact classical scan, or the simulated quantum finder of
:mod:`repro.quantum.minimum_finding`, which is what makes this the quantum
algorithm of Theorem 10).

Note on purpose: classically, ``opt_obdd`` does strictly more work than
plain FS — the speedup exists only for the (simulated) quantum query
model.  The implementation's value is that it exercises the exact
algorithmic structure the paper proves things about, on real inputs, and
exposes the modeled query counts for the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .._bitops import popcount, subsets_of_size
from ..analysis.counters import OperationCounters
from ..errors import DimensionError
from ..quantum.minimum_finding import ClassicalMinimumFinder, MinimumFinder
from ..truth_table import TruthTable
from .fs import initial_state
from .fs_star import ComposableSolver, fs_star_levels, run_fs_star
from .spec import FSState, ReductionRule

#: The alpha vector of Theorem 10 (k = 6), reproduced independently by
#: :func:`repro.analysis.parameters.solve_table1`.
THEOREM10_ALPHAS: Tuple[float, ...] = (
    0.183791,
    0.183802,
    0.183974,
    0.186131,
    0.206480,
    0.343573,
)


@dataclass
class SplitCheck:
    """Result of evaluating Lemma 9 at one division point ``k``."""

    k: int
    mincost: int
    best_kmask: int
    per_split: Dict[int, int] = field(default_factory=dict)
    """``MINCOST_K + MINCOST_(K, rest)(rest)`` for every ``K`` of size k."""


def mincost_by_split(
    table: TruthTable,
    k: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
) -> SplitCheck:
    """Evaluate the right-hand side of Lemma 9 at division point ``k``.

    For every ``K`` of cardinality ``k``: compute ``FS(K)`` bottom-up, then
    extend over the complement with FS*, and take the total.  The minimum
    over ``K`` must equal ``MINCOST_[n]`` — the identity the paper's
    divide-and-conquer rests on.
    """
    n = table.n
    if not 0 <= k <= n:
        raise DimensionError(f"division point {k} out of range for n={n}")
    full = (1 << n) - 1
    base = initial_state(table, rule)
    bottoms = fs_star_levels(base, full, rule, counters, upto=k)

    per_split: Dict[int, int] = {}
    best_kmask = -1
    best_cost: Optional[int] = None
    for kmask, state in bottoms.items():
        final = run_fs_star(state, full & ~kmask, rule, counters)
        per_split[kmask] = final.mincost
        if best_cost is None or final.mincost < best_cost:
            best_cost = final.mincost
            best_kmask = kmask
    assert best_cost is not None
    return SplitCheck(k=k, mincost=best_cost, best_kmask=best_kmask, per_split=per_split)


@dataclass
class OptOBDDResult:
    """Output of :func:`opt_obdd` (and of the composed variants)."""

    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    pi: Tuple[int, ...]
    mincost: int
    num_terminals: int
    levels: Tuple[int, ...]
    """Effective division-point sizes ``l_1 < ... < l_k`` actually used."""

    counters: OperationCounters = field(default_factory=OperationCounters)

    @property
    def size(self) -> int:
        return self.mincost + self.num_terminals


def effective_levels(n_prime: int, alphas: Sequence[float]) -> List[int]:
    """Round ``alpha_j * n'`` to usable division points.

    Clamps to ``[1, n' - 1]``, enforces strict monotonicity, and drops
    duplicates — for small ``n'`` several alphas collapse and the recursion
    simply has fewer stages (the asymptotic analysis is unaffected; this is
    the standard integrality handling).
    """
    if any(not 0 < a < 1 for a in alphas):
        raise ValueError("alphas must lie strictly between 0 and 1")
    if list(alphas) != sorted(alphas):
        raise ValueError("alphas must be non-decreasing")
    levels: List[int] = []
    for a in alphas:
        level = min(max(int(round(a * n_prime)), 1), n_prime - 1)
        if not levels or level > levels[-1]:
            levels.append(level)
    return [lv for lv in levels if lv < n_prime]


def opt_obdd_extend(
    base: FSState,
    j_mask: int,
    alphas: Sequence[float],
    rule: ReductionRule = ReductionRule.BDD,
    finder: Optional[MinimumFinder] = None,
    counters: Optional[OperationCounters] = None,
    subroutine: Optional[ComposableSolver] = None,
) -> FSState:
    """The composable ``OptOBDD*_Gamma``: extend ``base`` over ``j_mask``.

    This is the engine shared by Theorem 10 (``base = FS(emptyset)``,
    ``j_mask = [n]``, ``subroutine = FS*``) and the Section 4 composition
    (where ``subroutine`` is a previously-built OptOBDD solver — see
    :mod:`repro.core.composed`).

    Structure (paper's pseudo code ``OptOBDD_Gamma(k, alpha)``):

    1. preprocess ``{FS(<I.., K>) : K subset J, |K| = l_1}`` with FS*;
    2. ``DivideAndConquer(L, t)``: find, with the minimum finder, the
       ``K subset L`` of size ``l_{t-1}`` minimizing the cost of solving
       ``K`` recursively and extending over ``L \\ K`` with ``Gamma``.
    """
    if finder is None:
        finder = ClassicalMinimumFinder(counters)
    if subroutine is None:

        def subroutine(state: FSState, mask: int) -> FSState:
            return run_fs_star(state, mask, rule, counters)

    n_prime = popcount(j_mask)
    if n_prime == 0:
        return base
    levels = effective_levels(n_prime, alphas)
    if not levels:
        # Degenerately small J: no usable division point; plain FS*.
        return run_fs_star(base, j_mask, rule, counters)

    preprocessed = fs_star_levels(base, j_mask, rule, counters, upto=levels[0])

    def divide_and_conquer(l_mask: int, t: int) -> FSState:
        if t == 0:
            return preprocessed[l_mask]
        target = levels[t - 1] if t - 1 < len(levels) else None
        assert target is not None
        candidates = list(subsets_of_size(l_mask, target))

        def cost_at(index: int) -> float:
            state = compute_fs(candidates[index], l_mask & ~candidates[index], t)
            return float(state.mincost)

        outcome = finder.find(len(candidates), cost_at)
        best_kmask = candidates[outcome.index]
        return compute_fs(best_kmask, l_mask & ~best_kmask, t)

    def compute_fs(kmask: int, rest_mask: int, t: int) -> FSState:
        state = divide_and_conquer(kmask, t - 1)
        return subroutine(state, rest_mask)

    return divide_and_conquer(j_mask, len(levels))


def opt_obdd(
    table: TruthTable,
    alphas: Sequence[float] = THEOREM10_ALPHAS,
    rule: ReductionRule = ReductionRule.BDD,
    finder: Optional[MinimumFinder] = None,
    counters: Optional[OperationCounters] = None,
) -> OptOBDDResult:
    """The paper's ``OptOBDD(k, alpha)`` (Theorem 10) end to end.

    With the default exact finders the result is always optimal; with a
    sampled :class:`~repro.quantum.minimum_finding.QuantumMinimumFinder`
    the produced OBDD is always *valid* but is minimum only with the
    finder's success probability — exactly the guarantee of Theorem 1
    ("the OBDD produced by our algorithm is always a valid one for f,
    although it is not minimum with an exponentially small probability").
    """
    if counters is None:
        counters = OperationCounters()
    n = table.n
    base = initial_state(table, rule)
    final = opt_obdd_extend(
        base,
        (1 << n) - 1,
        alphas,
        rule=rule,
        finder=finder,
        counters=counters,
    )
    pi = final.pi
    return OptOBDDResult(
        n=n,
        rule=rule,
        order=tuple(reversed(pi)),
        pi=pi,
        mincost=final.mincost,
        num_terminals=final.num_terminals,
        levels=tuple(effective_levels(n, alphas)),
        counters=counters,
    )
