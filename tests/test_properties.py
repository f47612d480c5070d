"""Property-based tests (hypothesis) on the core invariants."""


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._bitops import (
    compress_assignment,
    extract_bit,
    insert_bit,
    popcount,
    spread_assignment,
)
from repro.analysis.entropy import binary_entropy, log2_binomial
from repro.bdd import BDD, ZDD
from repro.core import (
    ReductionRule,
    brute_force_optimal,
    build_diagram,
    mincost_by_split,
    opt_obdd,
    run_fs,
)
from repro.truth_table import TruthTable, count_subfunctions

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
small_tables = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.integers(0, 1), min_size=1 << n, max_size=1 << n
    ).map(lambda values: TruthTable(n, values))
)

tables_with_order = small_tables.flatmap(
    lambda tt: st.permutations(list(range(tt.n))).map(lambda order: (tt, order))
)


common = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# bit-level invariants
# ----------------------------------------------------------------------
@given(b=st.integers(0, 2**20), pos=st.integers(0, 20), val=st.integers(0, 1))
@common
def test_insert_extract_inverse(b, pos, val):
    merged = insert_bit(b, pos, val)
    assert extract_bit(merged, pos) == (b, val)
    assert popcount(merged) == popcount(b) + val


@given(mask=st.integers(0, 2**16 - 1), word=st.integers(0, 2**16 - 1))
@common
def test_spread_compress_galois(mask, word):
    packed = compress_assignment(word, mask)
    spread = spread_assignment(packed, mask)
    assert spread == word & mask
    assert compress_assignment(spread, mask) == packed


# ----------------------------------------------------------------------
# entropy bound (the paper's preliminary inequality)
# ----------------------------------------------------------------------
@given(n=st.integers(1, 200), data=st.data())
@common
def test_binomial_entropy_inequality(n, data):
    k = data.draw(st.integers(0, n))
    assert log2_binomial(n, k) <= n * binary_entropy(k / n) + 1e-9


# ----------------------------------------------------------------------
# truth-table invariants
# ----------------------------------------------------------------------
@given(tables_with_order)
@common
def test_permute_preserves_multiset(tt_order):
    tt, order = tt_order
    permuted = tt.permute(list(order))
    assert sorted(permuted.values.tolist()) == sorted(tt.values.tolist())


@given(small_tables, st.data())
@common
def test_shannon_expansion(tt, data):
    if tt.n == 0:
        return
    var = data.draw(st.integers(0, tt.n - 1))
    lo, hi = tt.cofactor(var, 0), tt.cofactor(var, 1)
    for a in range(1 << tt.n):
        bits = [(a >> i) & 1 for i in range(tt.n)]
        reduced = bits[:var] + bits[var + 1:]
        branch = hi if bits[var] else lo
        assert tt.evaluate_packed(a) == branch(*reduced)


# ----------------------------------------------------------------------
# OBDD size invariants
# ----------------------------------------------------------------------
@given(tables_with_order)
@common
def test_width_oracle_matches_manager(tt_order):
    tt, order = tt_order
    mgr = BDD(tt.n, list(order))
    root = mgr.from_truth_table(tt)
    assert mgr.level_widths(root) == count_subfunctions(tt, list(order))


@given(tables_with_order)
@common
def test_chain_matches_width_oracle(tt_order):
    tt, order = tt_order
    diagram = build_diagram(tt, list(order))
    assert diagram.mincost == sum(count_subfunctions(tt, list(order)))
    assert diagram.to_truth_table() == tt


@given(tables_with_order)
@common
def test_width_bounded_by_levels_above_and_below(tt_order):
    # Width at level k is at most min(2^k, #dependent functions of the
    # remaining variables) — the classical sanity bound behind the
    # "OBDDs are exponential for some function" counting argument.
    tt, order = tt_order
    widths = count_subfunctions(tt, list(order))
    for k, width in enumerate(widths):
        remaining = tt.n - k  # variables at this level and below
        dependent = (1 << (1 << remaining)) - (1 << (1 << (remaining - 1)))
        assert width <= 1 << k
        assert width <= dependent


@given(small_tables)
@common
def test_negation_preserves_obdd_profile(tt):
    order = list(range(tt.n))
    assert count_subfunctions(tt, order) == count_subfunctions(~tt, order)


# ----------------------------------------------------------------------
# FS optimality invariants
# ----------------------------------------------------------------------
@given(small_tables)
@common
def test_fs_is_lower_bound_over_sampled_orders(tt):
    result = run_fs(tt)
    import itertools

    for order in itertools.permutations(range(tt.n)):
        assert result.mincost <= sum(count_subfunctions(tt, list(order)))


@given(small_tables)
@common
def test_fs_equals_bruteforce(tt):
    assert run_fs(tt).mincost == brute_force_optimal(tt).mincost


@given(small_tables)
@common
def test_fs_negation_invariance(tt):
    # Complementing the function cannot change the minimum OBDD size.
    assert run_fs(tt).mincost == run_fs(~tt).mincost


@given(small_tables, st.data())
@common
def test_fs_variable_renaming_invariance(tt, data):
    perm = data.draw(st.permutations(list(range(tt.n))))
    assert run_fs(tt).mincost == run_fs(tt.permute(list(perm))).mincost


@given(small_tables, st.data())
@common
def test_lemma9_split_identity(tt, data):
    k = data.draw(st.integers(0, tt.n))
    assert mincost_by_split(tt, k).mincost == run_fs(tt).mincost


@given(small_tables)
@common
def test_opt_obdd_agrees_with_fs(tt):
    assert opt_obdd(tt).mincost == run_fs(tt).mincost


@given(small_tables)
@common
def test_zdd_fs_matches_zdd_manager(tt):
    result = run_fs(tt, rule=ReductionRule.ZDD)
    z = ZDD(tt.n, list(result.order))
    root = z.from_truth_table(tt)
    assert z.size(root, include_terminals=False) == result.mincost


@given(small_tables)
@common
def test_fs_restriction_monotone(tt):
    # Restricting a variable cannot increase the minimum OBDD size
    # (the restricted function's subfunction set is a subset).
    if tt.n <= 1:
        return
    full = run_fs(tt).mincost
    restricted = run_fs(tt.cofactor(0, 0)).mincost
    assert restricted <= full + 1  # +1: the removed variable's own node
