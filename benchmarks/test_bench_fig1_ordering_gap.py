"""Figure 1: the exponential ordering gap of the achilles-heel function.

Paper claim: ``f = x1 x2 + x3 x4 + ... + x_{2n-1} x_{2n}`` has a
``(2n+2)``-node OBDD under the pairs-adjacent ordering and a
``2^{n+1}``-node OBDD under the odds-then-evens ordering; for n = 3 the
level profiles are [1,1,1,1,1,1] and [1,2,4,4,2,1] (the two diagrams
drawn in the figure).  FS must recover the good ordering as optimal.
"""


from conftest import print_table

from repro.core import build_diagram, run_fs
from repro.functions import (
    achilles_bad_order,
    achilles_bad_size,
    achilles_good_order,
    achilles_good_size,
    achilles_heel,
)
from repro.truth_table import obdd_size

PAIRS_SWEEP = list(range(1, 8))


def regenerate_series():
    rows = []
    for pairs in PAIRS_SWEEP:
        table = achilles_heel(pairs)
        good = obdd_size(table, achilles_good_order(pairs))
        bad = obdd_size(table, achilles_bad_order(pairs))
        optimal = run_fs(table).size
        rows.append((pairs, 2 * pairs, good, achilles_good_size(pairs),
                     bad, achilles_bad_size(pairs), optimal))
    return rows


def test_figure1_series(benchmark):
    rows = benchmark.pedantic(regenerate_series, rounds=1, iterations=1)
    print_table(
        "Figure 1: ordering gap for x1x2 + x3x4 + ... (sizes incl. terminals)",
        ["pairs", "vars", "good", "paper 2n+2", "bad", "paper 2^(n+1)", "FS optimum"],
        rows,
    )
    for pairs, _, good, paper_good, bad, paper_bad, optimal in rows:
        assert good == paper_good
        assert bad == paper_bad
        assert optimal == paper_good  # the good ordering is globally optimal
    # the gap is exponential: bad/good = 2^(p+1)/(2p+2) grows without bound
    ratios = [bad / good for _, _, good, _, bad, _, _ in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 10 * ratios[0]


def test_figure1_level_profiles(benchmark):
    table = achilles_heel(3)

    def profiles():
        left = build_diagram(table, achilles_good_order(3))
        right = build_diagram(table, achilles_bad_order(3))
        return left.level_widths(), right.level_widths()

    left, right = benchmark.pedantic(profiles, rounds=1, iterations=1)
    print_table(
        "Figure 1 (n=6): level profiles",
        ["ordering", "widths (root to bottom)"],
        [("x1 x2 x3 x4 x5 x6", left), ("x1 x3 x5 x2 x4 x6", right)],
    )
    assert left == [1, 1, 1, 1, 1, 1]
    assert right == [1, 2, 4, 4, 2, 1]
