"""The ISCAS ``.bench`` netlist format.

The format the ISCAS-85/89 benchmark circuits ship in::

    INPUT(G1)
    OUTPUT(G22)
    G10 = NAND(G1, G3)
    G22 = NAND(G10, G16)

Parsing yields a :class:`~repro.expr.circuit.Circuit` (combinational
subset: no ``DFF``), which plugs straight into the Corollary 2 pipeline
and the symbolic compiler; a writer round-trips circuits back out.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import ParseError
from ..expr.circuit import Circuit

_GATE_ALIASES = {
    "AND": "and",
    "OR": "or",
    "NAND": "nand",
    "NOR": "nor",
    "XOR": "xor",
    "XNOR": "xnor",
    "NOT": "not",
    "BUF": "buf",
    "BUFF": "buf",
}

_ASSIGN = re.compile(
    r"^(?P<out>[^\s=]+)\s*=\s*(?P<gate>[A-Za-z]+)\s*\((?P<args>[^)]*)\)$"
)
_IO = re.compile(r"^(?P<kind>INPUT|OUTPUT)\s*\((?P<wire>[^)]+)\)$", re.IGNORECASE)


def parse_bench(text: str, output: Optional[str] = None) -> Circuit:
    """Parse ``.bench`` text into a :class:`Circuit`.

    ``output`` selects which declared OUTPUT becomes the circuit's
    primary output (default: the first); the others remain reachable via
    the compilers' ``output=`` arguments.
    """
    inputs: List[str] = []
    outputs: List[str] = []
    assignments: List[Tuple[str, str, List[str]]] = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO.match(line)
        if io_match:
            wire = io_match.group("wire").strip()
            if io_match.group("kind").upper() == "INPUT":
                inputs.append(wire)
            else:
                outputs.append(wire)
            continue
        assign = _ASSIGN.match(line)
        if not assign:
            raise ParseError(f"unparseable .bench line: {line!r}")
        gate = assign.group("gate").upper()
        if gate == "DFF":
            raise ParseError(".bench DFFs are not supported (combinational only)")
        if gate not in _GATE_ALIASES:
            raise ParseError(f"unknown .bench gate {gate!r}")
        args = [a.strip() for a in assign.group("args").split(",") if a.strip()]
        if not args:
            raise ParseError(f"gate {assign.group('out')!r} has no inputs")
        assignments.append((assign.group("out").strip(),
                            _GATE_ALIASES[gate], args))

    if not inputs:
        raise ParseError(".bench file declares no INPUTs")
    if not outputs:
        raise ParseError(".bench file declares no OUTPUTs")
    primary = output if output is not None else outputs[0]
    if primary not in outputs:
        raise ParseError(f"{primary!r} is not a declared OUTPUT")

    circuit = Circuit(inputs=list(inputs), output=primary)
    # Topologically order the assignments (the format permits any order).
    pending = list(assignments)
    known = set(inputs)
    while pending:
        progressed = False
        remaining = []
        for out, kind, args in pending:
            if all(a in known for a in args):
                circuit.add_gate(kind, out, args)
                known.add(out)
                progressed = True
            else:
                remaining.append((out, kind, args))
        if not progressed:
            missing = {a for _, _, args in remaining for a in args} - known
            raise ParseError(
                f"combinational cycle or undriven wires: {sorted(missing)}"
            )
        pending = remaining
    return circuit


def read_bench(path, output: Optional[str] = None) -> Circuit:
    with open(path) as handle:
        return parse_bench(handle.read(), output)


def write_bench(circuit: Circuit, outputs: Optional[List[str]] = None) -> str:
    """Render a :class:`Circuit` as ``.bench`` text.

    ``buf`` gates are emitted as ``BUFF``; ``outputs`` defaults to the
    circuit's primary output.
    """
    reverse = {v: k.upper() for k, v in _GATE_ALIASES.items() if k != "BUFF"}
    reverse["buf"] = "BUFF"
    lines = [f"INPUT({w})" for w in circuit.inputs]
    for out in outputs if outputs is not None else [circuit.output]:
        lines.append(f"OUTPUT({out})")
    for gate in circuit.gates:
        kind = reverse[gate.kind]
        lines.append(f"{gate.output} = {kind}({', '.join(gate.inputs)})")
    return "\n".join(lines) + "\n"


C17_BENCH = """\
# c17 (ISCAS-85), the canonical smallest benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""
