"""Corollary 2: truth-table extraction from any evaluable representation.

"for a function f given as R(f) [any representation evaluable in poly
time], the truth table of f can be prepared in O*(2^n) time and the
minimum OBDD is computable from that truth table" — this module is that
preparation step, accepting every representation the library defines plus
plain callables and existing decision diagrams.
"""

from __future__ import annotations

from typing import Optional

from ..errors import DimensionError
from ..truth_table import TruthTable


def to_truth_table(source, n: Optional[int] = None) -> TruthTable:
    """Tabulate ``source`` over ``n`` variables.

    Accepted sources:

    * :class:`~repro.truth_table.TruthTable` — returned as-is (``n`` must
      agree if given);
    * :class:`~repro.expr.ast.Expr`, :class:`~repro.expr.normal_forms.DNF`,
      :class:`~repro.expr.normal_forms.CNF`,
      :class:`~repro.expr.circuit.Circuit` — anything with
      ``num_vars`` + ``evaluate(assignment)``; ``n`` may widen the domain
      beyond the occurring variables;
    * a BDD/ZDD/MTBDD manager node via a ``(manager, node)`` pair;
    * a plain callable of ``n`` Boolean arguments (``n`` required).
    """
    if isinstance(source, TruthTable):
        if n is not None and n != source.n:
            raise DimensionError(
                f"table has {source.n} variables but n={n} was requested"
            )
        return source

    if isinstance(source, tuple) and len(source) == 2:
        manager, node = source
        table = manager.to_truth_table(node)
        if n is not None and n != table.n:
            raise DimensionError(
                f"diagram is over {table.n} variables but n={n} was requested"
            )
        return table

    evaluate = getattr(source, "evaluate", None)
    num_vars = getattr(source, "num_vars", None)
    if callable(evaluate) and num_vars is not None:
        width = num_vars if n is None else n
        if width < num_vars:
            raise DimensionError(
                f"representation mentions x{num_vars - 1}; n={n} is too small"
            )
        return TruthTable.from_evaluator(
            width, lambda a: evaluate([(a >> i) & 1 for i in range(width)])
        )

    if callable(source):
        if n is None:
            raise DimensionError("n is required when tabulating a plain callable")
        return TruthTable.from_callable(n, source)

    raise TypeError(f"cannot tabulate {type(source).__name__}")
