"""Cross-module integration tests: realistic end-to-end workflows."""

import random

import pytest

from repro import (
    BDD,
    ZDD,
    ClassicalMinimumFinder,
    QuantumMinimumFinder,
    QueryLedger,
    ReductionRule,
    TruthTable,
    brute_force_optimal,
    build_diagram,
    find_optimal_ordering,
    obdd_size,
    opt_obdd,
    parse,
    reconstruct_minimum_diagram,
    run_fs,
    sift_search,
    to_truth_table,
)
from repro.functions import (
    adder_bit,
    comparator,
    family_truth_table,
    multiplexer,
    path_independent_sets,
)


class TestVerificationWorkflow:
    """The formal-verification use case: equivalence checking of two
    implementations via canonical minimum OBDDs."""

    def test_equivalent_circuits_get_identical_minimum_diagrams(self):
        from repro.expr import ripple_carry_adder_circuit

        bits = 3
        spec = adder_bit(bits, 2)
        implementation = to_truth_table(ripple_carry_adder_circuit(bits, 2))
        result_spec = run_fs(spec)
        result_impl = run_fs(implementation)
        assert result_spec.mincost == result_impl.mincost
        d1 = reconstruct_minimum_diagram(spec, result_spec)
        d2 = reconstruct_minimum_diagram(implementation, result_impl)
        assert d1.to_truth_table() == d2.to_truth_table()

    def test_manager_equivalence_check_via_canonicity(self):
        mgr = BDD(4)
        left = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)),
                            mgr.apply_and(mgr.var(2), mgr.var(3)))
        right = mgr.apply_not(
            mgr.apply_and(
                mgr.apply_nand(mgr.var(0), mgr.var(1)),
                mgr.apply_nand(mgr.var(2), mgr.var(3)),
            )
        )
        assert left == right  # canonical ids: equivalence is id equality


class TestSynthesisWorkflow:
    """Pick an ordering with a heuristic, then certify it with FS."""

    def test_sift_then_certify(self):
        table = comparator(3)
        heuristic = sift_search(table)
        exact = run_fs(table)
        assert heuristic.size >= exact.size
        gap = heuristic.size - exact.size
        assert gap >= 0
        # the certificate ordering actually achieves the optimum
        assert obdd_size(table, list(exact.order)) == exact.size

    def test_optimal_ordering_transfers_to_manager(self):
        table = multiplexer(2)
        exact = run_fs(table)
        mgr = BDD(table.n, list(exact.order))
        root = mgr.from_truth_table(table)
        assert mgr.size(root) == exact.size


class TestZddWorkflow:
    """The combinatorics use case: set families via minimum ZDDs."""

    def test_family_to_minimum_zdd(self):
        family = path_independent_sets(5)
        table = family_truth_table(5, family)
        result = run_fs(table, rule=ReductionRule.ZDD)
        z = ZDD(5, list(result.order))
        root = z.from_sets(family)
        assert z.size(root, include_terminals=False) == result.mincost
        assert z.count(root) == len(family)

    def test_zdd_diagram_membership(self):
        family = [{0, 2}, {1}, set()]
        table = family_truth_table(3, family)
        result = run_fs(table, rule=ReductionRule.ZDD)
        diagram = reconstruct_minimum_diagram(table, result)
        assert diagram.to_truth_table() == table


class TestQuantumWorkflow:
    """Full quantum pipeline with ledger accounting."""

    def test_ledger_accumulates_across_phases(self):
        ledger = QueryLedger()
        finder = QuantumMinimumFinder(ledger=ledger, epsilon=1e-6,
                                      rng=random.Random(0))
        table = TruthTable.random(7, seed=1)
        result = opt_obdd(table, finder=finder)
        assert result.mincost == run_fs(table).mincost
        # One minimum-finding call per recursion node: at least one per
        # division level, many more inside the nested cost evaluations.
        assert ledger.invocations >= len(result.levels)
        snapshot = ledger.snapshot()
        assert snapshot["total"] == ledger.total

    def test_classical_vs_quantum_same_answer(self):
        table = TruthTable.random(6, seed=2)
        classical = opt_obdd(table, finder=ClassicalMinimumFinder())
        quantum = opt_obdd(
            table,
            finder=QuantumMinimumFinder(epsilon=1e-6, rng=random.Random(1)),
        )
        assert classical.mincost == quantum.mincost


class TestFrontEndWorkflow:
    def test_parse_minimize_export(self, tmp_path):
        expr = parse("x0 & x1 | x2 & x3")
        result = find_optimal_ordering(expr)
        table = to_truth_table(expr)
        diagram = reconstruct_minimum_diagram(table, result)
        dot = diagram.to_dot(name="Parsed")
        path = tmp_path / "diagram.dot"
        path.write_text(dot)
        assert path.read_text().startswith("digraph Parsed")

    def test_three_rules_one_function(self):
        table = TruthTable.random(4, seed=3)
        sizes = {
            rule: run_fs(table, rule=rule).mincost
            for rule in (ReductionRule.BDD, ReductionRule.ZDD, ReductionRule.MTBDD)
        }
        assert sizes[ReductionRule.BDD] == sizes[ReductionRule.MTBDD]
        brute = brute_force_optimal(table, rule=ReductionRule.ZDD)
        assert sizes[ReductionRule.ZDD] == brute.mincost


class TestScaleSanity:
    def test_n10_runs_quickly_and_correctly(self):
        # The largest routine size in the test suite; cross-checked with
        # the heuristics rather than n! brute force.
        table = TruthTable.random(10, seed=4)
        result = run_fs(table)
        assert sift_search(table).size >= result.size
        assert obdd_size(table, list(result.order)) == result.size
