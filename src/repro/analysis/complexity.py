"""Theoretical operation-count models and empirical growth-rate fitting.

The benchmarks compare *measured* operation counts (from
:class:`~repro.analysis.counters.OperationCounters` and the quantum query
ledger) against the closed forms the paper derives; this module holds both
sides of that comparison.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .entropy import binary_entropy


def fs_table_cells(n: int) -> int:
    """Exact cells written by the full FS run.

    For each of the ``C(n, k)`` subsets of size ``k`` the DP performs ``k``
    compactions each writing ``2^{n-k}`` cells:
    ``sum_k C(n,k) * k * 2^{n-k}`` — the paper's ``3^n`` up to the
    polynomial factor (the sum equals ``n * 3^{n-1}``).
    """
    return sum(math.comb(n, k) * k * (1 << (n - k)) for k in range(1, n + 1))


def fs_star_table_cells(n: int, placed: int, j: int) -> int:
    """Cells written by FS* placing a ``j``-set over ``placed`` variables.

    ``sum_{l=1..j} C(j,l) * l * 2^{n-placed-l}`` — the paper's
    ``2^{n-|I|-|J|} 3^{|J|}`` bound's exact counterpart.
    """
    if placed + j > n:
        raise ValueError("placed + j exceeds n")
    return sum(
        math.comb(j, l) * l * (1 << (n - placed - l)) for l in range(1, j + 1)
    )


def brute_force_cells(n: int) -> int:
    """Cells written by the brute-force search: ``n!`` chains, each
    ``sum_k 2^{n-k} = 2^n - 1`` cells."""
    return math.factorial(n) * ((1 << n) - 1)


def preprocess_cells(n: int, first_level: int) -> int:
    """Cells of the OptOBDD preprocessing phase:
    ``sum_{l=1..l1} C(n,l) * l * 2^{n-l}`` (paper's
    ``sum 2^{n-l} C(n,l)`` up to the inner-loop factor ``l``)."""
    return sum(
        math.comb(n, l) * l * (1 << (n - l)) for l in range(1, first_level + 1)
    )


def theorem5_bound(n: int) -> float:
    """The paper's headline ``3^n`` (no polynomial factor)."""
    return 3.0 ** n


def trivial_bound(n: int) -> float:
    """The trivial ``n! 2^n`` bound."""
    return math.factorial(n) * 2.0 ** n


def theorem10_time_model(
    n: int, alphas: Sequence[float], epsilon: float = 1e-6
) -> Dict[str, float]:
    """Numeric evaluation of the recurrence (5)-(7) for ``OptOBDD(k, a)``.

    Returns the preprocessing term, each ``L_j``, and the total ``T(n)`` —
    with *exact* binomials and the Lemma 6 query factor, i.e. the model the
    quantum benches compare the ledger against.
    """
    levels = [max(1, round(a * n)) for a in alphas]
    levels = sorted(set(min(l, n - 1) for l in levels))
    levels_ext = levels + [n]
    preprocess = float(preprocess_cells(n, levels[0]))
    log_factor = math.sqrt(math.log(1.0 / epsilon))
    out: Dict[str, float] = {"preprocess": preprocess}
    L = 1.0
    for j in range(len(levels_ext) - 1):
        lower, upper = levels_ext[j], levels_ext[j + 1]
        search = math.sqrt(math.comb(upper, lower)) * log_factor
        # Paper Eq. (6): extending a bottom block of size `lower` over the
        # next `upper - lower` variables costs 2^{n - upper} 3^{upper - lower}.
        extend = (2.0 ** (n - upper)) * (3.0 ** (upper - lower))
        L = search * (L + extend)
        out[f"L_{j + 2}"] = L
    out["total"] = preprocess + L
    return out


def fit_growth_rate(ns: Sequence[int], counts: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``count ~ C * base^n``.

    Returns ``(base, C)``.  Used by the scaling benches to verify, e.g.,
    that FS's measured cell counts grow like ``3^n``.
    """
    if len(ns) != len(counts) or len(ns) < 2:
        raise ValueError("need at least two (n, count) pairs")
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive")
    slope, intercept = np.polyfit(np.asarray(ns, dtype=float),
                                  np.log2(np.asarray(counts, dtype=float)), 1)
    return float(2.0 ** slope), float(2.0 ** intercept)


def entropy_bound_check(n: int, k: int) -> Tuple[int, float]:
    """Pair ``(C(n,k), 2^{n H(k/n)})`` — the preliminary bound the paper
    uses everywhere; the property tests assert the first never exceeds the
    second."""
    bound = 2.0 ** (n * binary_entropy(k / n)) if n else 1.0
    return math.comb(n, k), bound
