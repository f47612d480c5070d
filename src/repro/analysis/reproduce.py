"""One-shot reproduction runner: every paper number, with verdicts.

``python -m repro reproduce`` (or :func:`run_reproduction`) regenerates
the paper's Figure 1, Tables 1 and 2, the simple-case constants, and the
Theorem 5 operation-count law, comparing each against the published value
and printing a PASS/FAIL verdict — the quick way to audit the
reproduction without the full benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..truth_table import TruthTable, obdd_size
from .complexity import fs_table_cells
from .parameters import gamma0, gamma1, gamma2_appendix_b, solve_table1, solve_table2

PAPER_TABLE1 = [2.97625, 2.85690, 2.83925, 2.83744, 2.83729, 2.83728]
PAPER_TABLE2 = [2.83728, 2.79364, 2.77981, 2.77521, 2.77366,
                2.77313, 2.77295, 2.77289, 2.77287, 2.77286]


@dataclass
class Check:
    """One reproduced quantity."""

    name: str
    measured: str
    expected: str
    passed: bool


def run_reproduction(quick: bool = False) -> List[Check]:
    """Run every check; ``quick`` skips the (slower) FS sweeps."""
    checks: List[Check] = []

    # Figure 1 -----------------------------------------------------------
    from ..functions import (
        achilles_bad_order,
        achilles_good_order,
        achilles_heel,
    )

    for pairs in (1, 3, 5) if quick else (1, 2, 3, 4, 5, 6):
        table = achilles_heel(pairs)
        good = obdd_size(table, achilles_good_order(pairs))
        bad = obdd_size(table, achilles_bad_order(pairs))
        checks.append(Check(
            f"Figure 1, {pairs} pairs",
            f"good={good}, bad={bad}",
            f"good={2 * pairs + 2}, bad={2 ** (pairs + 1)}",
            good == 2 * pairs + 2 and bad == 2 ** (pairs + 1),
        ))

    # Simple cases --------------------------------------------------------
    for name, value, expected in (
        ("gamma_0 (Sec. 3.1)", gamma0()[0], 2.98581),
        ("gamma_1 (Sec. 3.1)", gamma1()[0], 2.97625),
        ("gamma_2 (App. B)", gamma2_appendix_b()[0], 2.8569),
    ):
        checks.append(Check(
            name, f"{value:.5f}", f"{expected}", abs(value - expected) < 5e-5
        ))

    # Table 1 --------------------------------------------------------------
    for row, expected in zip(solve_table1(6), PAPER_TABLE1):
        checks.append(Check(
            f"Table 1, k={row.k}",
            f"{row.base:.5f}",
            f"{expected:.5f}",
            abs(row.base - expected) < 2e-5,
        ))

    # Table 2 / Theorem 13 ---------------------------------------------------
    rows = solve_table2(10)
    for index, (row, expected) in enumerate(zip(rows, PAPER_TABLE2)):
        checks.append(Check(
            f"Table 2, iteration {index + 1}",
            f"{row.base:.5f}",
            f"{expected:.5f}",
            abs(row.base - expected) < 5e-6,
        ))
    checks.append(Check(
        "Theorem 13 constant",
        f"{rows[-1].base:.5f}",
        "<= 2.77286",
        rows[-1].base <= 2.77286 + 5e-6,
    ))

    # Figure 1 level profiles ----------------------------------------------
    from ..core import ReductionRule, build_diagram

    achilles3 = achilles_heel(3)
    left = build_diagram(achilles3, achilles_good_order(3)).level_widths()
    right = build_diagram(achilles3, achilles_bad_order(3)).level_widths()
    checks.append(Check(
        "Figure 1 level profiles",
        f"{left} / {right}",
        "[1,1,1,1,1,1] / [1,2,4,4,2,1]",
        left == [1] * 6 and right == [1, 2, 4, 4, 2, 1],
    ))

    # Lemma 9 and Remark 2 ---------------------------------------------------
    if not quick:
        from ..core import brute_force_optimal, mincost_by_split, run_fs

        table = TruthTable.random(5, seed=2026)
        reference = run_fs(table).mincost
        split_ok = all(
            mincost_by_split(table, k).mincost == reference
            for k in range(6)
        )
        checks.append(Check(
            "Lemma 9 split identity (n=5, all k)",
            "holds" if split_ok else "violated",
            "min over K equals MINCOST_[n]",
            split_ok,
        ))
        zdd = run_fs(table, rule=ReductionRule.ZDD).mincost
        zdd_bf = brute_force_optimal(
            table, rule=ReductionRule.ZDD, collect_all=False
        ).mincost
        checks.append(Check(
            "Remark 2 ZDD rule (n=5)",
            f"{zdd}",
            f"brute force {zdd_bf}",
            zdd == zdd_bf,
        ))

    # Theorem 5 operation law ------------------------------------------------
    if not quick:
        from ..core import run_fs

        for n in (5, 7, 9):
            result = run_fs(TruthTable.random(n, seed=n))
            expected_cells = fs_table_cells(n)
            checks.append(Check(
                f"Theorem 5 cell law, n={n}",
                f"{result.counters.table_cells}",
                f"n*3^(n-1) = {expected_cells}",
                result.counters.table_cells == expected_cells,
            ))
            checks.append(Check(
                f"FS optimum valid, n={n}",
                f"order achieves {result.mincost}",
                "order achieves MINCOST",
                obdd_size(TruthTable.random(n, seed=n), list(result.order),
                          include_terminals=False) == result.mincost,
            ))

    return checks


def render_report(checks: List[Check]) -> str:
    width = max(len(c.name) for c in checks)
    lines = []
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        lines.append(
            f"[{verdict}] {check.name:<{width}}  measured {check.measured}"
            f"  (paper: {check.expected})"
        )
    passed = sum(c.passed for c in checks)
    lines.append(f"\n{passed}/{len(checks)} checks passed")
    return "\n".join(lines)
