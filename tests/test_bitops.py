"""Unit tests for the bit-manipulation helpers."""

import itertools
import math

import numpy as np
import pytest

from repro._bitops import (
    all_submasks,
    bits_of,
    compress_assignment,
    extract_bit,
    insert_bit,
    insert_bit_indices,
    iter_submasks,
    mask_of,
    popcount,
    rank_in_mask,
    spread_assignment,
    subsets_of_size,
)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_all_ones(self):
        assert popcount((1 << 12) - 1) == 12

    def test_sparse(self):
        assert popcount(0b1000100010001) == 4

    @pytest.mark.parametrize("value", [1, 7, 255, 12345, 2**40 + 1])
    def test_matches_bin(self, value):
        assert popcount(value) == bin(value).count("1")


class TestBitsMask:
    def test_bits_of_empty(self):
        assert bits_of(0) == []

    def test_bits_of_order(self):
        assert bits_of(0b101001) == [0, 3, 5]

    def test_mask_of_roundtrip(self):
        for mask in (0, 1, 0b1010, 0b111, 1 << 20):
            assert mask_of(bits_of(mask)) == mask

    def test_mask_of_iterable(self):
        assert mask_of(v for v in (0, 2)) == 0b101


class TestFastPathsMatchReference:
    """The optimized popcount/bits_of (``int.bit_count`` and lowest-set-bit
    stripping) must agree everywhere with the straightforward versions
    they replaced."""

    @staticmethod
    def _popcount_reference(mask):
        return bin(mask).count("1")

    @staticmethod
    def _bits_of_reference(mask):
        result = []
        bit = 0
        while mask:
            if mask & 1:
                result.append(bit)
            mask >>= 1
            bit += 1
        return result

    def _cases(self):
        yield from range(1 << 10)
        state = 0x9E3779B97F4A7C15
        for _ in range(200):
            state = (state * 6364136223846793005 + 1442695040888963407) % (
                1 << 128
            )
            yield state

    def test_popcount_equivalence(self):
        for mask in self._cases():
            assert popcount(mask) == self._popcount_reference(mask)

    def test_bits_of_equivalence(self):
        for mask in self._cases():
            assert bits_of(mask) == self._bits_of_reference(mask)

    def test_numpy_integer_masks_still_work(self):
        # DP code sometimes hands these helpers numpy scalars; the int()
        # coercion keeps them on the fast path (np.uint64 has no
        # bit_count and overflows under `mask & -mask`).
        for value in (0, 1, 0b1011, (1 << 30) | 5):
            for dtype in (np.int64, np.uint64, np.int32):
                mask = dtype(value)
                assert popcount(mask) == self._popcount_reference(value)
                assert bits_of(mask) == self._bits_of_reference(value)


class TestRank:
    def test_rank_first(self):
        assert rank_in_mask(0b1011, 0) == 0

    def test_rank_middle(self):
        assert rank_in_mask(0b1011, 1) == 1

    def test_rank_skips_holes(self):
        assert rank_in_mask(0b1011, 3) == 2

    def test_rank_requires_membership(self):
        with pytest.raises(ValueError):
            rank_in_mask(0b1011, 2)


class TestSubsets:
    def test_counts_match_binomial(self):
        universe = 0b111111
        for k in range(7):
            assert len(list(subsets_of_size(universe, k))) == math.comb(6, k)

    def test_subsets_are_submasks(self):
        universe = 0b1011010
        for sub in subsets_of_size(universe, 3):
            assert sub & ~universe == 0
            assert popcount(sub) == 3

    def test_non_contiguous_universe(self):
        got = set(subsets_of_size(0b10100, 1))
        assert got == {0b00100, 0b10000}

    def test_k_out_of_range(self):
        assert list(subsets_of_size(0b111, 4)) == []
        assert list(subsets_of_size(0b111, -1)) == []

    def test_zero_k(self):
        assert list(subsets_of_size(0b111, 0)) == [0]

    def test_order_is_lexicographic_over_member_positions(self):
        # Not numeric order: a DP layer's rows, chunk split and
        # checkpoint blob all follow this order.
        assert list(subsets_of_size(0b1111, 2)) == [3, 5, 9, 6, 10, 12]
        universe = 0b1011010
        members = bits_of(universe)
        for k in range(len(members) + 1):
            assert list(subsets_of_size(universe, k)) == [
                mask_of(combo)
                for combo in itertools.combinations(members, k)
            ]

    def test_all_submasks_count(self):
        mask = 0b10110
        subs = list(all_submasks(mask))
        assert len(subs) == 2 ** popcount(mask)
        assert set(subs) == {s for s in range(mask + 1) if s & ~mask == 0}


class TestBitInsertExtract:
    @pytest.mark.parametrize("b,pos,val,expected", [
        (0b0, 0, 1, 0b1),
        (0b1, 0, 0, 0b10),
        (0b101, 1, 1, 0b1011),
        (0b11, 2, 0, 0b011),
        (0b11, 2, 1, 0b111),
    ])
    def test_insert_examples(self, b, pos, val, expected):
        assert insert_bit(b, pos, val) == expected

    def test_insert_extract_roundtrip(self):
        for b in range(32):
            for pos in range(6):
                for val in (0, 1):
                    combined = insert_bit(b, pos, val)
                    back, out = extract_bit(combined, pos)
                    assert (back, out) == (b, val)

    def test_vectorized_matches_scalar(self):
        for pos in range(5):
            idx0, idx1 = insert_bit_indices(16, pos)
            for b in range(16):
                assert idx0[b] == insert_bit(b, pos, 0)
                assert idx1[b] == insert_bit(b, pos, 1)

    def test_vectorized_partition(self):
        # idx0 and idx1 together must cover 0..2*size-1 exactly once.
        idx0, idx1 = insert_bit_indices(8, 2)
        union = np.concatenate([idx0, idx1])
        assert sorted(union.tolist()) == list(range(16))


class TestAssignmentSpread:
    def test_spread_examples(self):
        assert spread_assignment(0b11, 0b101) == 0b101
        assert spread_assignment(0b10, 0b101) == 0b100
        assert spread_assignment(0, 0b1111) == 0

    def test_compress_inverse(self):
        mask = 0b101101
        for packed in range(1 << popcount(mask)):
            word = spread_assignment(packed, mask)
            assert compress_assignment(word, mask) == packed
            assert word & ~mask == 0

    def test_compress_ignores_nonmembers(self):
        assert compress_assignment(0b111111, 0b101) == 0b11


class TestIterSubmasks:
    def test_no_size_matches_all_submasks(self):
        for mask in (0, 0b1, 0b1011, 0b110101):
            assert list(iter_submasks(mask)) == list(all_submasks(mask))

    def test_sized_matches_subsets_of_size(self):
        mask = 0b110101
        for k in range(popcount(mask) + 2):
            assert (list(iter_submasks(mask, k))
                    == list(subsets_of_size(mask, k)))

    def test_sized_yields_exactly_the_right_masks(self):
        mask = 0b101101
        for k in range(popcount(mask) + 1):
            got = list(iter_submasks(mask, k))
            want = [sub for sub in all_submasks(mask) if popcount(sub) == k]
            assert sorted(got) == sorted(want)
            assert len(got) == math.comb(popcount(mask), k)

    def test_reversed_predecessors_align_with_ascending_bits(self):
        # The documented predecessor-order property: dropping
        # one bit from ``mask`` via reversed(iter_submasks(mask, k-1))
        # excludes members in the same ascending order bits_of walks.
        for mask in (0b111, 0b10110, 0b1101001):
            k = popcount(mask)
            preds = list(reversed(list(iter_submasks(mask, k - 1))))
            assert [mask ^ p for p in preds] == [1 << i for i in bits_of(mask)]
