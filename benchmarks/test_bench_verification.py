"""Variable ordering inside a verification run.

The motivation chain made concrete: during symbolic reachability the
frontier BDDs' sizes depend on the variable ordering, so a bad order
inflates every image step.  Measured: total/peak frontier sizes of the
mutual-exclusion protocol traversal under (a) the natural interleaved
current/next order, (b) a deliberately separated order, and (c) pairing
guided by the exact optimizer on the final reachable set.
"""


from conftest import print_table

from repro.bdd.symbolic import TransitionSystem
from repro.core import run_fs

BITS = 5


def encode(w0, c0, w1, c1, turn):
    return w0 | (c0 << 1) | (w1 << 2) | (c1 << 3) | (turn << 4)


def successors(state):
    w0, c0 = state & 1, (state >> 1) & 1
    w1, c1 = (state >> 2) & 1, (state >> 3) & 1
    turn = (state >> 4) & 1
    out = []
    if not w0 and not c0:
        out.append(encode(1, 0, w1, c1, turn))
    if w0 and not c0 and not c1 and turn == 0:
        out.append(encode(0, 1, w1, c1, turn))
    if c0:
        out.append(encode(0, 0, w1, c1, 1))
    if not w1 and not c1:
        out.append(encode(w0, c0, 1, 0, turn))
    if w1 and not c1 and not c0 and turn == 1:
        out.append(encode(w0, c0, 0, 1, turn))
    if c1:
        out.append(encode(w0, c0, 0, 0, 0))
    return out


def interleaved_order():
    # current bit i adjacent to its next copy: 0, 5, 1, 6, ...
    order = []
    for i in range(BITS):
        order += [i, BITS + i]
    return order


def separated_order():
    # all current bits, then all next bits
    return list(range(2 * BITS))


def traverse(order):
    system = TransitionSystem.from_successor_function(BITS, successors,
                                                      order=order)
    result = system.reachable([encode(0, 0, 0, 0, 0)])
    relation_size = system.manager.size(system.relation)
    return result, relation_size


def test_ordering_matters_during_traversal(benchmark):
    def sweep():
        rows = []
        for name, order in (
            ("interleaved cur/next", interleaved_order()),
            ("separated cur | next", separated_order()),
        ):
            result, relation_size = traverse(order)
            rows.append((
                name,
                relation_size,
                max(result.frontier_sizes),
                sum(result.frontier_sizes),
                result.num_states,
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Mutual-exclusion protocol traversal by variable order",
        ["ordering", "relation BDD", "peak frontier", "total frontier",
         "reachable states"],
        rows,
    )
    # Same verification verdict regardless of order...
    assert rows[0][4] == rows[1][4] == 12
    # ...but the interleaved order keeps the relation BDD smaller (the
    # classic advice for transition relations).
    assert rows[0][1] <= rows[1][1]


def test_optimizer_certifies_reachable_set_order(benchmark):
    def run():
        system = TransitionSystem.from_successor_function(BITS, successors)
        table = system.reachable_set_table([encode(0, 0, 0, 0, 0)])
        from repro.truth_table import count_subfunctions

        natural = sum(count_subfunctions(table, list(range(BITS))))
        exact = run_fs(table)
        return natural, exact.mincost, exact.order

    natural, optimal, order = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Reachable-set function: natural vs certified-optimal ordering",
        ["ordering", "internal nodes"],
        [("natural", natural), (f"optimal {order}", optimal)],
    )
    assert optimal <= natural
