"""Iterated quantum composition: the final algorithm of Section 4.

The quantum composition lemma (Lemmas 11 and 12) lets ``OptOBDD`` use *a
previously built OptOBDD* as its extension subroutine ``Gamma`` instead of
the classical FS*::

    Gamma_1     = OptOBDD*_{FS*}(k^(0), alpha^(0))
    Gamma_{i+1} = OptOBDD*_{Gamma_i}(k^(i), alpha^(i))

Each composition level tightens the exponent base: 3 -> 2.83728 ->
2.79364 -> ... -> 2.77286 after ten compositions (the paper's Table 2,
re-derived numerically in :mod:`repro.analysis.parameters`).  Theorem 13 is
the ten-fold composition.

Classically simulating the whole stack is exponentially *slower* than FS;
its role here is structural fidelity — the benches verify the recursion
shape and the modeled query ledger, and the tests verify it still returns
optimal orderings on real inputs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.counters import OperationCounters
from ..quantum.minimum_finding import ClassicalMinimumFinder, MinimumFinder
from ..truth_table import TruthTable
from .divide_conquer import (
    OptOBDDResult,
    THEOREM10_ALPHAS,
    effective_levels,
    opt_obdd_extend,
)
from .fs import initial_state
from .fs_star import ComposableSolver, make_fs_star_solver
from .spec import FSState, ReductionRule

#: Alpha vectors of the paper's Table 2, one per composition level (the
#: level-i solver is built with row i).  Reproduced numerically by
#: :func:`repro.analysis.parameters.solve_table2`.
TABLE2_ALPHAS: Tuple[Tuple[float, ...], ...] = (
    (0.183792, 0.183802, 0.183974, 0.186132, 0.206480, 0.343573),
    (0.165753, 0.165759, 0.165857, 0.167339, 0.183883, 0.312741),
    (0.160487, 0.160491, 0.160574, 0.161890, 0.177376, 0.303603),
    (0.158777, 0.158780, 0.158859, 0.160124, 0.175273, 0.300622),
    (0.158203, 0.158207, 0.158284, 0.159532, 0.174568, 0.299621),
    (0.158009, 0.158013, 0.158089, 0.159332, 0.174330, 0.299282),
    (0.157943, 0.157947, 0.158023, 0.159264, 0.174249, 0.299166),
    (0.157920, 0.157924, 0.158000, 0.159241, 0.174221, 0.299127),
    (0.157913, 0.157916, 0.157992, 0.159233, 0.174212, 0.299114),
    (0.157910, 0.157914, 0.157990, 0.159230, 0.174208, 0.299109),
)

#: The paper's Table 2 beta column: exponent base after each composition.
TABLE2_BETAS: Tuple[float, ...] = (
    2.83728,
    2.79364,
    2.77981,
    2.77521,
    2.77366,
    2.77313,
    2.77295,
    2.77289,
    2.77287,
    2.77286,
)


def make_composed_solver(
    depth: int,
    rule: ReductionRule = ReductionRule.BDD,
    finder: Optional[MinimumFinder] = None,
    counters: Optional[OperationCounters] = None,
    alpha_schedule: Optional[Sequence[Sequence[float]]] = None,
) -> ComposableSolver:
    """Build ``Gamma_depth``: ``depth`` nested OptOBDD levels over FS*.

    ``depth = 0`` returns plain FS*; ``depth = 1`` is the Theorem 10
    algorithm as a composable solver; ``depth = 10`` with the default
    schedule is the Theorem 13 algorithm.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if alpha_schedule is None:
        alpha_schedule = TABLE2_ALPHAS
    if depth > len(alpha_schedule):
        raise ValueError(
            f"depth {depth} exceeds the alpha schedule length "
            f"{len(alpha_schedule)}"
        )
    if finder is None:
        finder = ClassicalMinimumFinder(counters)

    solver: ComposableSolver = make_fs_star_solver(rule, counters)
    for level in range(depth):
        solver = _wrap(
            tuple(alpha_schedule[level]), rule, finder, counters, solver
        )
    return solver


def _wrap(
    alphas: Tuple[float, ...],
    rule: ReductionRule,
    finder: MinimumFinder,
    counters: Optional[OperationCounters],
    inner: ComposableSolver,
) -> ComposableSolver:
    def solver(base: FSState, j_mask: int) -> FSState:
        return opt_obdd_extend(
            base,
            j_mask,
            alphas,
            rule=rule,
            finder=finder,
            counters=counters,
            subroutine=inner,
        )

    return solver


def opt_obdd_composed(
    table: TruthTable,
    depth: int = 2,
    rule: ReductionRule = ReductionRule.BDD,
    finder: Optional[MinimumFinder] = None,
    counters: Optional[OperationCounters] = None,
    alpha_schedule: Optional[Sequence[Sequence[float]]] = None,
) -> OptOBDDResult:
    """Run the composed algorithm end to end (Theorem 13 at depth 10).

    ``depth`` is the number of OptOBDD levels stacked on FS*.  Depths
    beyond 2 are exponentially expensive to simulate classically; the tests
    exercise depths 1-3 on small ``n``.
    """
    if counters is None:
        counters = OperationCounters()
    solver = make_composed_solver(depth, rule, finder, counters, alpha_schedule)
    base = initial_state(table, rule)
    n = table.n
    final = solver(base, (1 << n) - 1)
    outer_alphas = (
        tuple((alpha_schedule or TABLE2_ALPHAS)[depth - 1])
        if depth >= 1
        else THEOREM10_ALPHAS
    )
    return OptOBDDResult(
        n=n,
        rule=rule,
        order=tuple(reversed(final.pi)),
        pi=final.pi,
        mincost=final.mincost,
        num_terminals=final.num_terminals,
        levels=tuple(effective_levels(n, outer_alphas)),
        counters=counters,
    )
