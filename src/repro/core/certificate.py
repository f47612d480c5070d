"""Machine-checkable optimality certificates.

``run_fs`` is a certifying algorithm in disguise: its ``MINCOST_I`` table
*is* a proof of optimality — the claimed optimum is achievable (upper
bound) and the table's Lemma 4 consistency, with widths recomputed by an
independent oracle, forces every ordering to cost at least as much (lower
bound).  This module extracts that proof as a standalone object and
verifies it without trusting any of the DP code:

* the **achievability check** re-costs the claimed ordering with the
  subfunction-counting oracle (cheap: ``O(n^2 2^n)``);
* the **lower-bound check** re-derives every ``Cost_i`` with the same
  oracle and confirms ``MINCOST_I = min_i (MINCOST_{I\\i} + Cost_i)`` for
  all ``2^n`` subsets (exhaustive: ``O(4^n poly(n))`` — meant for audit
  runs at small ``n``, exactly like re-checking a proof).

Only the plain-BDD rule is supported (the oracle counts plain-OBDD
subfunctions); certificates also serialize to JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

from .._bitops import bits_of
from ..errors import ParseError
from ..truth_table import TruthTable, count_subfunctions
from .fs import FSResult
from .spec import ReductionRule

_FORMAT = "repro-certificate-v1"


@dataclass
class OptimalityCertificate:
    """A self-contained optimality proof for one ordering."""

    n: int
    order: Tuple[int, ...]
    mincost: int
    mincost_by_subset: Dict[int, int]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "format": _FORMAT,
                "n": self.n,
                "order": list(self.order),
                "mincost": self.mincost,
                "mincost_by_subset": {
                    str(mask): cost
                    for mask, cost in sorted(self.mincost_by_subset.items())
                },
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "OptimalityCertificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ParseError(f"not valid JSON: {error}") from None
        if payload.get("format") != _FORMAT:
            raise ParseError(f"unknown certificate format {payload.get('format')!r}")
        try:
            return cls(
                n=int(payload["n"]),
                order=tuple(int(v) for v in payload["order"]),
                mincost=int(payload["mincost"]),
                mincost_by_subset={
                    int(mask): int(cost)
                    for mask, cost in payload["mincost_by_subset"].items()
                },
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ParseError(f"malformed certificate: {error}") from None


def extract_certificate(result: FSResult) -> OptimalityCertificate:
    """Package an :class:`~repro.core.fs.FSResult` as a certificate."""
    if result.rule is not ReductionRule.BDD:
        raise ValueError(
            "certificates are implemented for the plain BDD rule only"
        )
    return OptimalityCertificate(
        n=result.n,
        order=result.order,
        mincost=result.mincost,
        mincost_by_subset=dict(result.mincost_by_subset.items()),
    )


def _oracle_width(table: TruthTable, below_mask: int, var: int) -> int:
    """``Cost_var`` when placed directly above ``below_mask``, computed
    with the independent subfunction-counting oracle (well-defined by
    Lemma 3, so any concrete arrangement will do)."""
    below = bits_of(below_mask)
    above = [v for v in range(table.n) if v != var and not (below_mask >> v) & 1]
    order = above + [var] + below
    return count_subfunctions(table, order)[len(above)]


def verify_achievability(table: TruthTable, certificate: OptimalityCertificate) -> bool:
    """Check that the claimed ordering really costs ``mincost``."""
    if sorted(certificate.order) != list(range(table.n)):
        return False
    widths = count_subfunctions(table, list(certificate.order))
    return sum(widths) == certificate.mincost


def verify_lower_bound(table: TruthTable, certificate: OptimalityCertificate) -> bool:
    """Re-derive the whole DP table with the independent oracle.

    Accepts iff the certificate's table satisfies ``MINCOST_0 = 0``, the
    Lemma 4 recurrence at every subset, and ``MINCOST_[n] == mincost``.
    A correct table proves no ordering beats ``mincost`` (each ordering
    traces a chain through the table whose edge costs telescope).
    """
    n = table.n
    full = (1 << n) - 1
    subset_costs = certificate.mincost_by_subset
    if set(subset_costs) != set(range(1 << n)):
        return False
    if subset_costs[0] != 0:
        return False
    if subset_costs[full] != certificate.mincost:
        return False
    for mask in range(1, 1 << n):
        best = min(
            subset_costs[mask & ~(1 << i)]
            + _oracle_width(table, mask & ~(1 << i), i)
            for i in bits_of(mask)
        )
        if subset_costs[mask] != best:
            return False
    return True


def verify_certificate(table: TruthTable, certificate: OptimalityCertificate) -> bool:
    """Full audit: achievability plus the exhaustive lower-bound check."""
    return verify_achievability(table, certificate) and verify_lower_bound(
        table, certificate
    )
