"""Numerical optimization of the division-point parameters.

This module re-derives, from the equation systems the paper states, every
number in the paper's Appendix C:

* the simple-case exponents of Section 3.1: ``gamma_0 = 2.98581`` (no
  preprocessing) and ``gamma_1 = 2.97625`` (with FS* preprocessing);
* Appendix B's two-parameter case ``gamma_2 = 2.8569``;
* **Table 1**: ``gamma_k`` and the optimal ``alpha`` vectors of
  ``OptOBDD(k, alpha)`` for ``k = 1..6`` (2.97625 down to 2.83728);
* **Table 2**: the composition fixed-point iteration ``3 -> 2.83728 ->
  2.79364 -> ... -> 2.77286`` of Section 4 (Theorem 13's constant).

The governing system (paper Eqs. (8)-(9), and (14)-(15) with general
subroutine base ``gamma``) is::

    1 - alpha_1 + H(alpha_1) = f(alpha_k, 1)
    f(alpha_{j-1}, alpha_j)  = g(alpha_j, alpha_{j+1})     (j = 2..k)

with ``alpha_{k+1} = 1`` and::

    f(x, y) = (y/2) H(x/y) + g(x, y)
    g(x, y) = (1 - y) + (y - x) log2 gamma .

Because ``g`` is linear in its second argument, fixing ``(alpha_1,
alpha_2)`` determines ``alpha_3, ..., alpha_{k+1}`` by forward chaining;
the system reduces to two equations in two unknowns, solved with scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .entropy import binary_entropy as H

LOG2_3 = math.log2(3.0)


def f_exponent(x: float, y: float, gamma: float = 3.0) -> float:
    """The paper's ``f(x, y) = (y/2) H(x/y) + g_gamma(x, y)``."""
    if not 0.0 < x < y <= 1.0:
        raise ValueError(f"require 0 < x < y <= 1, got x={x}, y={y}")
    return 0.5 * y * H(x / y) + g_exponent(x, y, gamma)


def g_exponent(x: float, y: float, gamma: float = 3.0) -> float:
    """The paper's ``g_gamma(x, y) = (1 - y) + (y - x) log2 gamma``."""
    return (1.0 - y) + (y - x) * math.log2(gamma)


# ----------------------------------------------------------------------
# Section 3.1 simple cases
# ----------------------------------------------------------------------
def gamma0() -> Tuple[float, float]:
    """No-preprocessing single split: returns ``(gamma_0, alpha*)``.

    Balancing ``(1-a) + a log2 3 = (1-a) log2 3`` gives the closed form
    ``alpha* = (log2 3 - 1) / (2 log2 3 - 1)``; the exponent is
    ``H(alpha)/2 + (1-alpha) log2 3``.  Paper: ``gamma_0 = 2.98581...``.
    """
    alpha = (LOG2_3 - 1.0) / (2.0 * LOG2_3 - 1.0)
    exponent = 0.5 * H(alpha) + (1.0 - alpha) * LOG2_3
    return 2.0 ** exponent, alpha


def gamma1() -> Tuple[float, float]:
    """Single split with FS* preprocessing: returns ``(gamma_1, alpha*)``.

    Solves ``(1-a) + H(a) = H(a)/2 + (1-a) log2 3``.  Paper:
    ``alpha* = 0.274863``, ``gamma_1 <= 2.97625``.
    """
    from scipy import optimize

    def balance(a: float) -> float:
        return (1.0 - a) + H(a) - (0.5 * H(a) + (1.0 - a) * LOG2_3)

    alpha = optimize.brentq(balance, 1e-9, 0.5)
    return 2.0 ** ((1.0 - alpha) + H(alpha)), alpha


def gamma2_appendix_b() -> Tuple[float, float, float]:
    """Appendix B's two-parameter case: ``(gamma_2, alpha_1*, alpha_2*)``.

    Solves Eqs. (20)-(21).  Paper: ``alpha_1* = 0.192755``,
    ``alpha_2* = 0.334571``, ``gamma_2 = 2.8569``.
    """
    from scipy import optimize

    def equations(a: Sequence[float]) -> List[float]:
        a1, a2 = a
        eq20 = (
            0.5 * a2 * H(a1 / a2)
            + (1.0 - a2)
            + (a2 - a1) * LOG2_3
            - (1.0 - a2) * LOG2_3
        )
        eq21 = (1.0 - a1) + H(a1) - (0.5 * H(a2) + (1.0 - a2) * LOG2_3)
        return [eq20, eq21]

    (a1, a2), info, ok, msg = optimize.fsolve(
        equations, x0=[0.2, 0.33], full_output=True
    )
    if ok != 1:  # pragma: no cover - numerics
        raise RuntimeError(f"Appendix B system did not converge: {msg}")
    return 2.0 ** ((1.0 - a1) + H(a1)), float(a1), float(a2)


# ----------------------------------------------------------------------
# The general system: Table 1 and Table 2
# ----------------------------------------------------------------------
@dataclass
class ParameterSolution:
    """Solution of the division-point system for one ``(k, gamma)``."""

    k: int
    gamma_subroutine: float
    """Exponent base of the extension subroutine (3 for FS*; the previous
    row's beta for the Table 2 iteration)."""

    alphas: Tuple[float, ...]
    base: float
    """Resulting exponent base ``2^{1 - alpha_1 + H(alpha_1)}`` (the
    paper's ``gamma_k`` in Table 1, ``beta_6`` in Table 2)."""

    exponent: float
    residual: float
    """Max absolute violation of the system at the solution."""


def _chain(a1: float, a2: float, k: int, gamma: float) -> List[float]:
    """Forward-chain alpha_3..alpha_{k+1} from (alpha_1, alpha_2).

    Uses Eq. (9) at j = 2..k; each step is linear in the next alpha since
    ``g`` is.  Returns ``[a1, a2, ..., a_{k+1}]``; stops early (padding
    with ``inf``) if the chain leaves the valid region, which the nested
    root finder interprets as "alpha_2 too large".
    """
    c = math.log2(gamma)
    alphas = [a1, a2]
    for j in range(2, k + 1):
        prev2, prev1 = alphas[j - 2], alphas[j - 1]
        if not 0.0 < prev2 < prev1:
            alphas.extend([math.inf] * (k + 1 - len(alphas)))
            break
        # f is valid for x < y with the entropy term H(x/y); prev1 may
        # legitimately exceed 1 transiently during bracketing.
        target = 0.5 * prev1 * H(min(prev2 / prev1, 1.0)) + (
            (1.0 - prev1) + (prev1 - prev2) * c
        )
        # Solve g(prev1, y) = target  =>  (1 - y) + (y - prev1) c = target.
        y = (target - 1.0 + c * prev1) / (c - 1.0)
        alphas.append(y)
    return alphas


def solve_parameters(
    k: int,
    gamma_subroutine: float = 3.0,
    initial_guess: Optional[Tuple[float, float]] = None,
) -> ParameterSolution:
    """Solve the system (8)-(9) for ``OptOBDD(k, alpha)``.

    ``gamma_subroutine`` is the exponent base of the extension subroutine
    (``3`` for classical FS*, reproducing Table 1; a previous beta for the
    Table 2 iteration).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    from scipy import optimize

    gamma = gamma_subroutine

    if k == 1:
        # One unknown; the boundary equation alone.
        def balance(a: float) -> float:
            return (1.0 - a) + H(a) - f_exponent(a, 1.0, gamma)

        a1 = optimize.brentq(balance, 1e-9, 0.5)
        exponent = (1.0 - a1) + H(a1)
        return ParameterSolution(
            k=1,
            gamma_subroutine=gamma,
            alphas=(a1,),
            base=2.0 ** exponent,
            exponent=exponent,
            residual=abs(balance(a1)),
        )

    def close_a2(a1: float) -> float:
        """Inner solve: the alpha_2 making the chain hit alpha_{k+1} = 1.

        The chain end is increasing in alpha_2 (it collapses to ``a1`` as
        ``a2 -> a1`` and diverges as ``a2`` grows), so bisection applies.
        """

        def end_minus_one(a2: float) -> float:
            end = _chain(a1, a2, k, gamma)[k]
            return (end - 1.0) if math.isfinite(end) else 1e6

        lo = a1 * (1.0 + 1e-12)
        hi = 0.999999
        if end_minus_one(hi) < 0.0:  # pragma: no cover - not reachable here
            raise RuntimeError("inner bracket failed: chain never reaches 1")
        return optimize.brentq(end_minus_one, lo, hi, xtol=1e-15)

    def boundary(a1: float) -> float:
        """Outer equation (8) with alpha_2 eliminated by the inner solve."""
        a2 = close_a2(a1)
        ak = _chain(a1, a2, k, gamma)[k - 1]
        return (1.0 - a1) + H(a1) - f_exponent(ak, 1.0, gamma)

    # Bracket alpha_1 by scanning; the root lies well inside (0.01, 0.45)
    # for every gamma in [2.7, 3] the paper uses.
    grid = [0.01 + 0.44 * i / 60 for i in range(61)]
    bracket = None
    previous_value = None
    previous_a = None
    for a in grid:
        try:
            value = boundary(a)
        except (ValueError, RuntimeError):
            previous_value = None
            previous_a = None
            continue
        if previous_value is not None and previous_value * value <= 0.0:
            bracket = (previous_a, a)
            break
        previous_value = value
        previous_a = a
    if bracket is None:  # pragma: no cover - numerics
        raise RuntimeError(f"could not bracket alpha_1 for k={k}, gamma={gamma}")

    a1 = optimize.brentq(boundary, bracket[0], bracket[1], xtol=1e-15)
    a2 = close_a2(a1)
    chain = _chain(a1, a2, k, gamma)
    exponent = (1.0 - a1) + H(a1)
    residual = max(abs(chain[k] - 1.0), abs(boundary(a1)))
    return ParameterSolution(
        k=k,
        gamma_subroutine=gamma,
        alphas=tuple(chain[:k]),
        base=2.0 ** exponent,
        exponent=exponent,
        residual=residual,
    )


def solve_table1(max_k: int = 6) -> List[ParameterSolution]:
    """Reproduce the paper's Table 1: ``gamma_k`` for ``k = 1..max_k``."""
    return [solve_parameters(k, 3.0) for k in range(1, max_k + 1)]


def solve_table2(iterations: int = 10, k: int = 6) -> List[ParameterSolution]:
    """Reproduce the paper's Table 2: iterate ``gamma -> beta_6(gamma)``.

    Starts from ``gamma = 3`` (classical FS*) and feeds each row's base
    back in as the next subroutine base; ten iterations reach the
    Theorem 13 constant 2.77286.
    """
    rows: List[ParameterSolution] = []
    gamma = 3.0
    guess: Optional[Tuple[float, float]] = None
    for _ in range(iterations):
        row = solve_parameters(k, gamma, initial_guess=guess)
        rows.append(row)
        gamma = row.base
        guess = (row.alphas[0], row.alphas[1])
    return rows


def theorem13_constant(iterations: int = 10) -> float:
    """The fixed-point constant of Theorem 13 (``<= 2.77286``)."""
    return solve_table2(iterations)[-1].base
