"""Symbolic compilation: representations -> BDD nodes via apply operators.

:func:`repro.expr.convert.to_truth_table` always pays ``O(2^n)``; when the
function's BDD is small under the chosen ordering, compiling the
representation *symbolically* (Bryant's apply) is exponentially cheaper.
This is how production tools actually build BDDs from circuits; it also
closes the loop for Corollary 2: tabulate-then-minimize and
compile-then-minimize must agree, which the tests assert.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..bdd.manager import BDD
from ..errors import EvaluationError
from .ast import And, Const, Expr, Not, Or, Var, Xor
from .circuit import Circuit
from .normal_forms import CNF, DNF


def compile_expr(manager: BDD, expr: Expr) -> int:
    """Compile an AST into ``manager`` and return the root node id."""
    if isinstance(expr, Const):
        return manager.true if expr.value else manager.false
    if isinstance(expr, Var):
        return manager.var(expr.index)
    if isinstance(expr, Not):
        return manager.apply_not(compile_expr(manager, expr.operand))
    if isinstance(expr, And):
        result = manager.true
        for operand in expr.operands:
            result = manager.apply_and(result, compile_expr(manager, operand))
        return result
    if isinstance(expr, Or):
        result = manager.false
        for operand in expr.operands:
            result = manager.apply_or(result, compile_expr(manager, operand))
        return result
    if isinstance(expr, Xor):
        result = manager.false
        for operand in expr.operands:
            result = manager.apply_xor(result, compile_expr(manager, operand))
        return result
    raise TypeError(f"cannot compile {type(expr).__name__}")


def compile_dnf(manager: BDD, dnf: DNF) -> int:
    """Compile a DNF: OR over AND-terms of literals."""
    result = manager.false
    for term in dnf.terms:
        node = manager.true
        for index, polarity in term:
            literal = manager.var(index) if polarity else manager.nvar(index)
            node = manager.apply_and(node, literal)
        result = manager.apply_or(result, node)
    return result


def compile_cnf(manager: BDD, cnf: CNF) -> int:
    """Compile a CNF: AND over OR-clauses of literals."""
    result = manager.true
    for clause in cnf.clauses:
        node = manager.false
        for index, polarity in clause:
            literal = manager.var(index) if polarity else manager.nvar(index)
            node = manager.apply_or(node, literal)
        result = manager.apply_and(result, node)
    return result


def compile_circuit(
    manager: BDD, circuit: Circuit, output: Optional[str] = None
) -> int:
    """Compile a gate netlist with one apply per gate (the classic
    symbolic-simulation loop)."""
    wires: Dict[str, int] = {
        name: manager.var(i) for i, name in enumerate(circuit.inputs)
    }
    for gate in circuit.gates:
        try:
            inputs = [wires[w] for w in gate.inputs]
        except KeyError as missing:
            raise EvaluationError(
                f"gate {gate.output!r} reads undriven wire {missing}"
            ) from None
        wires[gate.output] = _apply_gate(manager, gate.kind, inputs)
    target = output if output is not None else circuit.output
    if target not in wires:
        raise EvaluationError(f"output wire {target!r} is undriven")
    return wires[target]


def _apply_gate(manager: BDD, kind: str, inputs) -> int:
    if kind == "not":
        return manager.apply_not(inputs[0])
    if kind == "buf":
        return inputs[0]
    binary = {
        "and": manager.apply_and,
        "or": manager.apply_or,
        "xor": manager.apply_xor,
        "nand": manager.apply_nand,
        "nor": manager.apply_nor,
        "xnor": manager.apply_xnor,
    }
    if kind not in binary:
        raise EvaluationError(f"unknown gate kind {kind!r}")
    positive = {"and": manager.apply_and, "or": manager.apply_or,
                "xor": manager.apply_xor}
    if kind in positive:
        result = inputs[0]
        for operand in inputs[1:]:
            result = positive[kind](result, operand)
        return result
    # Negated gates: fold the positive op, negate once.
    base = {"nand": "and", "nor": "or", "xnor": "xor"}[kind]
    result = inputs[0]
    for operand in inputs[1:]:
        result = positive[base](result, operand)
    return manager.apply_not(result)


def compile_to_bdd(manager: BDD, source, output: Optional[str] = None) -> int:
    """Dispatching front end over every compilable representation."""
    if isinstance(source, Expr):
        return compile_expr(manager, source)
    if isinstance(source, DNF):
        return compile_dnf(manager, source)
    if isinstance(source, CNF):
        return compile_cnf(manager, source)
    if isinstance(source, Circuit):
        return compile_circuit(manager, source, output)
    raise TypeError(f"cannot compile {type(source).__name__}")
