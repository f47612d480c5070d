"""Espresso PLA format: the classic two-level interchange format.

A PLA file describes a single- or multi-output cover as cubes over
``{0, 1, -}``.  Reading one yields :class:`~repro.truth_table.TruthTable`
objects (one per output), making every espresso benchmark a valid input
to the optimal-ordering algorithms; writing emits the on-set as cubes
with a greedy literal-dropping pass so round-trips stay compact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DimensionError, ParseError
from ..truth_table import TruthTable


@dataclass
class PLA:
    """A parsed PLA: cube cover plus declarations."""

    num_inputs: int
    num_outputs: int
    cubes: List[Tuple[str, str]] = field(default_factory=list)
    """``(input_part, output_part)`` pairs; input over ``01-``, output
    over ``01-`` (``-`` in an output = not part of this cube's claim)."""

    input_labels: Optional[List[str]] = None
    output_labels: Optional[List[str]] = None

    def truth_tables(self) -> List[TruthTable]:
        """One Boolean table per output (on-set semantics: an assignment
        is 1 for output ``j`` iff some cube with output ``1`` in column
        ``j`` covers it)."""
        n = self.num_inputs
        assignments = np.arange(1 << n, dtype=np.int64)
        tables = []
        for j in range(self.num_outputs):
            acc = np.zeros(1 << n, dtype=bool)
            for input_part, output_part in self.cubes:
                if output_part[j] != "1":
                    continue
                acc |= _cube_cover(assignments, input_part)
            tables.append(TruthTable(n, acc.astype(np.int64)))
        return tables

    def truth_table(self) -> TruthTable:
        """The single output's table (errors on multi-output PLAs)."""
        if self.num_outputs != 1:
            raise DimensionError(
                f"PLA has {self.num_outputs} outputs; pick one via "
                "truth_tables()"
            )
        return self.truth_tables()[0]


def _cube_cover(assignments: np.ndarray, cube: str) -> np.ndarray:
    covered = np.ones(assignments.shape[0], dtype=bool)
    for position, symbol in enumerate(cube):
        if symbol == "-":
            continue
        bit = ((assignments >> position) & 1).astype(bool)
        covered &= bit if symbol == "1" else ~bit
    return covered


def parse_pla(text: str) -> PLA:
    """Parse PLA text (``.i/.o/.p/.ilb/.ob/.e`` and cube lines)."""
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    declared_products: Optional[int] = None
    input_labels: Optional[List[str]] = None
    output_labels: Optional[List[str]] = None
    cubes: List[Tuple[str, str]] = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            keyword = parts[0]
            if keyword == ".i":
                num_inputs = int(parts[1])
            elif keyword == ".o":
                num_outputs = int(parts[1])
            elif keyword == ".p":
                declared_products = int(parts[1])
            elif keyword == ".ilb":
                input_labels = parts[1:]
            elif keyword == ".ob":
                output_labels = parts[1:]
            elif keyword == ".e" or keyword == ".end":
                break
            elif keyword == ".type":
                if parts[1] not in ("f", "fr"):
                    raise ParseError(f"unsupported PLA type {parts[1]!r}")
            else:
                raise ParseError(f"unknown PLA directive {keyword!r}")
            continue
        fields = line.split()
        if len(fields) == 1:
            # Single-field form: the trailing output digit is glued onto
            # the input part.  It is only unambiguous once ``.o 1`` has
            # been seen — before that the trailing character could as
            # well be an input column, so guessing would mis-split the
            # cube.
            if num_outputs is None:
                raise ParseError(
                    f"cube line {line!r} appears before the .o declaration; "
                    "single-field cubes are only valid after '.o 1'"
                )
            if num_outputs != 1:
                raise ParseError(
                    f"single-field cube line {line!r} in a "
                    f"{num_outputs}-output PLA; separate the output part "
                    "with whitespace"
                )
            input_part, output_part = fields[0][:-1], fields[0][-1]
        elif len(fields) == 2:
            input_part, output_part = fields
        else:
            raise ParseError(f"malformed cube line {line!r}")
        cubes.append((input_part, output_part))

    if num_inputs is None or num_outputs is None:
        raise ParseError("PLA is missing .i or .o declarations")
    if input_labels is not None and len(input_labels) != num_inputs:
        raise ParseError(
            f".ilb names {len(input_labels)} inputs, but .i declares "
            f"{num_inputs}"
        )
    if output_labels is not None and len(output_labels) != num_outputs:
        raise ParseError(
            f".ob names {len(output_labels)} outputs, but .o declares "
            f"{num_outputs}"
        )
    for input_part, output_part in cubes:
        if len(input_part) != num_inputs or any(c not in "01-" for c in input_part):
            raise ParseError(f"bad input cube {input_part!r}")
        if len(output_part) != num_outputs or any(
            c not in "01-~" for c in output_part
        ):
            raise ParseError(f"bad output part {output_part!r}")
    if declared_products is not None and declared_products != len(cubes):
        raise ParseError(
            f".p declares {declared_products} products, found {len(cubes)}"
        )
    return PLA(num_inputs, num_outputs, cubes, input_labels, output_labels)


def read_pla(path) -> PLA:
    with open(path) as handle:
        return parse_pla(handle.read())


def write_pla(table: TruthTable, merge: bool = True) -> str:
    """Render a Boolean table as PLA text.

    With ``merge`` a greedy literal-dropping pass widens each minterm into
    a prime-ish cube before emission (cover stays exact: every emitted
    cube lies inside the on-set and together they cover it).
    """
    if not table.is_boolean():
        raise DimensionError("PLA output requires a Boolean table")
    n = table.n
    on = table.values != 0
    cubes: List[str] = []
    covered = np.zeros(1 << n, dtype=bool)
    for minterm in np.nonzero(on)[0]:
        if covered[minterm]:
            continue
        cube = ["1" if (int(minterm) >> i) & 1 else "0" for i in range(n)]
        # The cube's own points, all in the on-set: dropping literal i
        # keeps the cube inside it iff their neighbours across i are too.
        points = np.array([minterm])
        if merge:
            for i in range(n):
                across = points ^ (1 << i)
                if on[across].all():
                    cube[i] = "-"
                    points = np.concatenate([points, across])
        covered[points] = True
        cubes.append("".join(cube))
    lines = [f".i {n}", ".o 1", f".p {len(cubes)}"]
    lines += [f"{cube} 1" for cube in cubes]
    lines.append(".e")
    return "\n".join(lines) + "\n"
