"""Regenerate ``corpus_n12.json``: the n = 12 base functions and their
exact optima, which the benchmark's correctness gate compares against.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_corpus.py

Each optimum comes from ``repro.solve`` and is accepted only if the
independent subfunction-counting oracle re-costs its order to the same
size.  The file stores the tables themselves, so later changes to
``repro.functions`` cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import json
import sys
import time

import corpus


def main() -> int:
    oracle = corpus.Oracle()
    entries = []
    for base in corpus.make_bases(corpus.STORED_N):
        started = time.perf_counter()
        solution = corpus.checked_optimum(oracle, base.n, base.values)
        seconds = time.perf_counter() - started
        entries.append({
            "name": base.name,
            "hex": corpus.table_hex(base.values),
            "mincost": solution.mincost,
            "size": solution.size,
            "order": list(solution.order),
        })
        print(f"{base.name:12s} mincost {solution.mincost:4d} "
              f"exact {seconds:.2f} s", flush=True)
    payload = {"n": corpus.STORED_N, "bases": entries}
    corpus.STORED_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
