"""Shared-forest (multi-rooted) ordering: the multi-output extension.

The NP-hardness lineage the paper cites starts with multi-rooted OBDDs
[THY96]; this bench exercises our multi-rooted generalization of the FS
DP.  Measured: exact shared optima vs brute force; sharing factor
(shared forest vs sum of separately-optimized diagrams) on multi-output
circuits; and the cost of forcing one common order on unrelated outputs.
"""


from conftest import print_table

from repro.bdd import BDD
from repro.core import run_fs, run_fs_shared
from repro.core.shared import brute_force_shared, build_forest
from repro.expr import compile_circuit
from repro.functions import adder_bit, c17
from repro.truth_table import TruthTable


def test_shared_exactness(benchmark):
    def sweep():
        rows = []
        for seed in range(4):
            tables = [TruthTable.random(4, seed=seed * 2 + j) for j in range(2)]
            fs = run_fs_shared(tables)
            _, bf = brute_force_shared(tables)
            rows.append((seed, fs.mincost, bf))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Shared optimum vs n!-brute force (2 outputs, n=4)",
        ["seed", "FS shared", "brute force"],
        rows,
    )
    for _, fs_cost, bf_cost in rows:
        assert fs_cost == bf_cost


def test_sharing_on_multi_output_circuits(benchmark):
    def sweep():
        rows = []
        # c17's two outputs
        manager = BDD(5)
        circuit = c17()
        t22 = manager.to_truth_table(compile_circuit(manager, circuit, "n22"))
        t23 = manager.to_truth_table(compile_circuit(manager, circuit, "n23"))
        shared = run_fs_shared([t22, t23]).mincost
        separate = run_fs(t22).mincost + run_fs(t23).mincost
        rows.append(("c17 (2 outputs)", shared, separate))
        # all four sum bits of a 3-bit adder
        adder_outputs = [adder_bit(3, k) for k in range(4)]
        shared = run_fs_shared(adder_outputs).mincost
        separate = sum(run_fs(t).mincost for t in adder_outputs)
        rows.append(("adder3 (4 outputs)", shared, separate))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Shared forest vs separately-optimized diagrams (internal nodes)",
        ["design", "shared optimum", "sum of separate optima"],
        [(n, s, sep) for n, s, sep in rows],
    )
    # Related outputs share: the shared forest beats or matches the sum.
    for _, shared, separate in rows:
        assert shared <= separate


def test_common_order_penalty(benchmark):
    # Unrelated outputs pull the ordering in different directions: the
    # shared optimum exceeds what each output could get alone.
    def sweep():
        from repro.functions import achilles_heel, conjunction_of_pairs

        f = achilles_heel(3)                                   # pairs (01)(23)(45)
        g = conjunction_of_pairs([(0, 3), (1, 4), (2, 5)], 6)  # pairs (03)(14)(25)
        shared = run_fs_shared([f, g])
        alone_f = run_fs(f).mincost
        alone_g = run_fs(g).mincost
        forest = build_forest([f, g], list(shared.order))
        return shared.mincost, alone_f, alone_g, forest.size

    shared, alone_f, alone_g, total = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    print_table(
        "Conflicting matchings: one shared order for two achilles variants",
        ["quantity", "internal nodes"],
        [
            ("each alone (optimal for itself)", f"{alone_f} / {alone_g}"),
            ("shared forest optimum", shared),
            ("forest total incl. terminals", total),
        ],
    )
    # The conflict costs something: shared > alone_f + alone_g would mean
    # zero sharing AND per-output penalties; at minimum it exceeds the
    # best single function's cost substantially.
    assert shared > max(alone_f, alone_g)
    assert shared >= alone_f + 1  # at least one output pays a penalty
