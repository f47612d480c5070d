"""Shared helpers for the benchmark harness.

Every benchmark prints a paper-vs-measured table (run with ``-s`` to see
them; EXPERIMENTS.md records a reference run) and asserts the *shape* of
the paper's claim — who wins, by what growth rate, where the crossover
falls — rather than wall-clock numbers.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
