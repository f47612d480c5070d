"""Unit tests for TruthTable and the width/size oracles."""

import itertools

import pytest

from repro.errors import DimensionError
from repro.truth_table import TruthTable, count_subfunctions, obdd_size


class TestConstruction:
    def test_from_callable_and(self):
        tt = TruthTable.from_callable(2, lambda a, b: a & b)
        assert list(tt.values) == [0, 0, 0, 1]

    def test_from_callable_bit_order(self):
        # index bit i == variable i: f = x0 has pattern 0101...
        tt = TruthTable.from_callable(3, lambda a, b, c: a)
        assert list(tt.values) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_from_evaluator(self):
        tt = TruthTable.from_evaluator(3, lambda a: a % 2)
        assert tt == TruthTable.projection(3, 0)

    def test_from_minterms(self):
        tt = TruthTable.from_minterms(3, [0, 7])
        assert tt.count_ones() == 2
        assert tt(0, 0, 0) == 1 and tt(1, 1, 1) == 1

    def test_from_minterms_out_of_range(self):
        with pytest.raises(DimensionError):
            TruthTable.from_minterms(2, [4])

    def test_constant(self):
        assert TruthTable.constant(3, 1).count_ones() == 8
        assert TruthTable.constant(3, 0).count_ones() == 0

    def test_projection_out_of_range(self):
        with pytest.raises(DimensionError):
            TruthTable.projection(3, 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            TruthTable(2, [0, 1, 0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(1, [-1, 0])

    def test_random_seeded_reproducible(self):
        assert TruthTable.random(4, seed=5) == TruthTable.random(4, seed=5)

    def test_random_multivalued_range(self):
        tt = TruthTable.random(4, seed=1, num_values=5)
        assert 0 <= tt.values.min() and tt.values.max() < 5

    def test_values_read_only(self):
        tt = TruthTable.constant(2, 0)
        with pytest.raises(ValueError):
            tt.values[0] = 1

    def test_zero_variables(self):
        tt = TruthTable(0, [1])
        assert tt() == 1


class TestQueries:
    def test_call_arity_checked(self):
        with pytest.raises(DimensionError):
            TruthTable.constant(2, 0)(1)

    def test_evaluate_packed(self):
        tt = TruthTable.from_callable(2, lambda a, b: a ^ b)
        assert tt.evaluate_packed(0b01) == 1
        assert tt.evaluate_packed(0b11) == 0

    def test_is_boolean(self):
        assert TruthTable(1, [0, 1]).is_boolean()
        assert not TruthTable(1, [0, 2]).is_boolean()

    def test_ones(self):
        tt = TruthTable.from_minterms(3, [1, 6])
        assert tt.ones() == [1, 6]

    def test_num_distinct_values(self):
        assert TruthTable(2, [0, 1, 2, 1]).num_distinct_values() == 3


class TestCofactors:
    def test_cofactor_values(self):
        tt = TruthTable.from_callable(2, lambda a, b: a & b)
        assert list(tt.cofactor(0, 1).values) == [0, 1]  # f|x0=1 == x1
        assert list(tt.cofactor(0, 0).values) == [0, 0]

    def test_cofactor_reindexes(self):
        tt = TruthTable.from_callable(3, lambda a, b, c: b)
        # restricting x0 leaves g(y0, y1) = y0 (old x1)
        assert tt.cofactor(0, 0) == TruthTable.projection(2, 0)

    def test_restrict_multiple(self):
        tt = TruthTable.from_callable(3, lambda a, b, c: (a & b) | c)
        restricted = tt.restrict([(0, 1), (2, 0)])
        assert restricted == TruthTable.projection(1, 0)

    def test_depends_on(self):
        tt = TruthTable.from_callable(3, lambda a, b, c: a ^ c)
        assert tt.depends_on(0) and tt.depends_on(2)
        assert not tt.depends_on(1)

    def test_support(self):
        tt = TruthTable.from_callable(4, lambda a, b, c, d: b | d)
        assert tt.support() == [1, 3]

    def test_support_constant(self):
        assert TruthTable.constant(3, 1).support() == []


class TestPermute:
    def test_identity(self):
        tt = TruthTable.random(4, seed=2)
        assert tt.permute([0, 1, 2, 3]) == tt

    def test_swap_semantics(self):
        tt = TruthTable.from_callable(2, lambda a, b: a)
        swapped = tt.permute([1, 0])  # new var 0 = old var 1
        assert swapped == TruthTable.from_callable(2, lambda a, b: b)

    def test_permute_is_action(self):
        # permute(p) then permute(q) == permute(p o q) composed correctly
        tt = TruthTable.random(4, seed=3)
        p = [2, 0, 3, 1]
        q = [1, 3, 0, 2]
        left = tt.permute(p).permute(q)
        composed = [p[q[i]] for i in range(4)]
        assert left == tt.permute(composed)

    def test_invalid_permutation(self):
        with pytest.raises(DimensionError):
            TruthTable.random(3, seed=0).permute([0, 0, 1])

    def test_evaluation_consistency(self):
        tt = TruthTable.random(3, seed=4)
        perm = [2, 0, 1]
        g = tt.permute(perm)
        for bits in itertools.product((0, 1), repeat=3):
            x = [0] * 3
            for i, y in enumerate(bits):
                x[perm[i]] = y
            assert g(*bits) == tt(*x)


class TestAlgebra:
    def test_and_or_xor_invert(self):
        a = TruthTable.projection(2, 0)
        b = TruthTable.projection(2, 1)
        assert (a & b) == TruthTable.from_callable(2, lambda x, y: x & y)
        assert (a | b) == TruthTable.from_callable(2, lambda x, y: x | y)
        assert (a ^ b) == TruthTable.from_callable(2, lambda x, y: x ^ y)
        assert (~a) == TruthTable.from_callable(2, lambda x, y: 1 - x)

    def test_arity_mismatch(self):
        with pytest.raises(DimensionError):
            TruthTable.constant(2, 0) & TruthTable.constant(3, 0)

    def test_de_morgan(self):
        a = TruthTable.random(3, seed=10)
        b = TruthTable.random(3, seed=11)
        assert ~(a & b) == (~a | ~b)

    def test_hash_consistent_with_eq(self):
        a = TruthTable.random(3, seed=12)
        b = TruthTable(3, list(a.values))
        assert a == b and hash(a) == hash(b)


class TestWidthOracle:
    def test_achilles_good(self):
        tt = TruthTable.from_callable(
            6, lambda a, b, c, d, e, f: (a & b) | (c & d) | (e & f)
        )
        assert count_subfunctions(tt, [0, 1, 2, 3, 4, 5]) == [1, 1, 1, 1, 1, 1]

    def test_achilles_bad_matches_figure1(self):
        tt = TruthTable.from_callable(
            6, lambda a, b, c, d, e, f: (a & b) | (c & d) | (e & f)
        )
        assert count_subfunctions(tt, [0, 2, 4, 1, 3, 5]) == [1, 2, 4, 4, 2, 1]

    def test_constant_zero_widths(self):
        assert count_subfunctions(TruthTable.constant(3, 0), [0, 1, 2]) == [0, 0, 0]

    def test_single_variable(self):
        assert count_subfunctions(TruthTable.projection(1, 0), [0]) == [1]

    def test_parity_widths(self):
        tt = TruthTable.from_callable(4, lambda a, b, c, d: a ^ b ^ c ^ d)
        assert count_subfunctions(tt, [0, 1, 2, 3]) == [1, 2, 2, 2]

    def test_invalid_order(self):
        with pytest.raises(DimensionError):
            count_subfunctions(TruthTable.constant(2, 0), [0, 0])

    def test_obdd_size_terminal_count(self):
        const = TruthTable.constant(3, 1)
        assert obdd_size(const, [0, 1, 2]) == 1  # one terminal only
        assert obdd_size(const, [0, 1, 2], include_terminals=False) == 0

    def test_obdd_size_includes_both_terminals(self):
        tt = TruthTable.projection(2, 0)
        assert obdd_size(tt, [0, 1]) == 3
        assert obdd_size(tt, [0, 1], include_terminals=False) == 1
