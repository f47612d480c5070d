#!/usr/bin/env python
"""End-to-end synthesis workflow: interchange formats, hybrid
optimization, and artifact export.

A miniature version of how a logic-synthesis flow would adopt this
library: read a design (BLIF netlist and a PLA cover), compile it
symbolically, improve its ordering with cheap local methods (in-place
sifting, exact windows), certify with the exact DP, and write the minimum
diagram out as JSON + DOT for downstream tools.

Run:  python examples/synthesis_workflow.py
"""

import tempfile
from pathlib import Path

from repro import ReorderingBDD, run_fs, window_sweep
from repro.core import reconstruct_minimum_diagram
from repro.expr import compile_circuit
from repro.bdd import BDD
from repro.functions import c17
from repro.io import (
    diagram_to_json,
    parse_blif,
    parse_pla,
    write_pla,
)

BLIF_DESIGN = """\
.model decode27
.inputs a b c
.outputs y
.names a b t1
11 1
.names t1 c y
1- 1
-1 1
.end
"""


def main() -> None:
    # --- 1. read a BLIF netlist and tabulate it
    network = parse_blif(BLIF_DESIGN)
    table = network.truth_table()
    print(f"BLIF model {network.name!r}: {network.num_vars} inputs, "
          f"{len(network.nodes)} logic nodes")

    # --- 2. exchange through PLA (write, re-read, verify)
    pla_text = write_pla(table)
    assert parse_pla(pla_text).truth_table() == table
    print(f"PLA round-trip OK ({pla_text.count(chr(10)) - 4} cubes):")
    print("  " + pla_text.replace("\n", "\n  ").rstrip())

    # --- 3. the c17 benchmark, compiled symbolically (no 2^n tabulation)
    circuit = c17()
    manager = BDD(circuit.num_vars)
    root = compile_circuit(manager, circuit)
    print(f"\nc17 compiled symbolically: {manager.size(root)} nodes "
          f"under the natural ordering")
    c17_table = manager.to_truth_table(root)

    # --- 4. cheap improvement passes before paying for exactness
    inplace = ReorderingBDD(circuit.num_vars)
    inplace.from_truth_table(c17_table)
    sift_order, sift_size = inplace.sift()
    print(f"in-place sifting : {sift_size} nodes, order {sift_order}")

    windowed = window_sweep(c17_table, initial_order=sift_order, width=3)
    print(f"exact window(3)  : {windowed.size} internal nodes")

    # --- 5. certify with the exact DP and export artifacts
    exact = run_fs(c17_table)
    print(f"certified optimum: {exact.size} nodes, order {exact.order}")
    assert windowed.size >= exact.mincost

    diagram = reconstruct_minimum_diagram(c17_table, exact)
    out_dir = Path(tempfile.mkdtemp(prefix="repro_synthesis_"))
    (out_dir / "c17_min.json").write_text(diagram_to_json(diagram))
    (out_dir / "c17_min.dot").write_text(diagram.to_dot(name="C17"))
    print(f"\nartifacts written to {out_dir}/ (c17_min.json, c17_min.dot)")
    print("equivalent CLI: python -m repro optimize --blif design.blif "
          "--dot c17.dot --json c17.json")


if __name__ == "__main__":
    main()
