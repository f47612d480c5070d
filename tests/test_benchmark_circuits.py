"""Unit tests for the named benchmark circuits."""


from repro.bdd import BDD
from repro.core import run_fs
from repro.expr import compile_circuit, to_truth_table
from repro.functions import (
    NAMED_CIRCUITS,
    c17,
    full_adder_carry_chain,
    majority_gate,
    multiplexer,
    mux_tree,
    parity,
    parity_tree,
    threshold,
)


class TestC17:
    def test_shape(self):
        circuit = c17()
        assert len(circuit.inputs) == 5
        assert len(circuit.gates) == 6
        assert all(g.kind == "nand" for g in circuit.gates)

    def test_known_vectors(self):
        table = to_truth_table(c17())
        # n22 = NAND(n10, n16); all-zero inputs: n10=1, n11=1, n16=1 -> 0
        assert table(0, 0, 0, 0, 0) == 0
        # n1=1, n3=1 -> n10=0 -> n22=1 regardless of the rest
        assert table(1, 0, 1, 0, 0) == 1
        assert table(1, 1, 1, 1, 1) == 1

    def test_second_output(self):
        manager = BDD(5)
        n23 = compile_circuit(manager, c17(), output="n23")
        # all zeros: n16=1, n19=1 -> n23 = 0
        assert manager.evaluate(n23, [0, 0, 0, 0, 0]) == 0

    def test_exact_optimization(self):
        table = to_truth_table(c17())
        result = run_fs(table)
        assert result.mincost <= sum(
            1 for _ in range(5)
        ) + 5  # small circuit, small OBDD
        assert result.mincost >= 1


class TestStructuredCircuits:
    def test_majority_gate(self):
        assert to_truth_table(majority_gate()) == threshold(3, 2)

    def test_carry_chain_matches_adder_carry(self):
        from repro.functions import adder_bit

        bits = 3
        assert to_truth_table(full_adder_carry_chain(bits)) == adder_bit(bits, bits)

    def test_parity_tree(self):
        assert to_truth_table(parity_tree(8)) == parity(8)

    def test_parity_tree_odd_leaves(self):
        assert to_truth_table(parity_tree(5)) == parity(5)

    def test_mux_tree_matches_family(self):
        assert to_truth_table(mux_tree(2)) == multiplexer(2)

    def test_named_registry(self):
        for name, make in NAMED_CIRCUITS.items():
            circuit = make()
            assert circuit.num_vars >= 1, name
            table = to_truth_table(circuit)
            assert table.n == circuit.num_vars

    def test_symbolic_and_tabulated_agree(self):
        for name, make in NAMED_CIRCUITS.items():
            circuit = make()
            manager = BDD(circuit.num_vars)
            root = compile_circuit(manager, circuit)
            assert manager.to_truth_table(root) == to_truth_table(circuit), name
