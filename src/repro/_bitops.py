"""Bit-level helpers shared by the DP tables and the DD substrates.

Variables are identified by integers ``0 .. n-1``.  A *subset* of variables
is represented as an integer bitmask where bit ``i`` set means variable ``i``
is a member.  An *assignment* to a set of variables is packed into an integer
whose bit ``j`` holds the value of the ``j``-th smallest variable of the set
(little-endian within the set).

These conventions are used consistently by :mod:`repro.truth_table`,
:mod:`repro.core` and :mod:`repro.bdd`.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np


def popcount(mask: int) -> int:
    """Number of set bits in ``mask``."""
    # int.bit_count is a single CPython opcode-level call; the int()
    # coercion keeps numpy integer masks working.
    return int(mask).bit_count()


def bits_of(mask: int) -> List[int]:
    """Return the indices of the set bits of ``mask`` in ascending order."""
    # Lowest-set-bit iteration: one step per set bit instead of one per
    # bit position (this runs in the DP's innermost candidate loop).
    mask = int(mask)
    result = []
    while mask:
        low = mask & -mask
        result.append(low.bit_length() - 1)
        mask ^= low
    return result


def mask_of(variables) -> int:
    """Pack an iterable of variable indices into a bitmask."""
    mask = 0
    for v in variables:
        mask |= 1 << v
    return mask


def rank_in_mask(mask: int, var: int) -> int:
    """Position of ``var`` among the set bits of ``mask`` (ascending).

    Requires that ``var`` is a member of ``mask``.
    """
    if not (mask >> var) & 1:
        raise ValueError(f"variable {var} is not in mask {mask:#x}")
    return popcount(mask & ((1 << var) - 1))


def subsets_of_size(universe_mask: int, k: int) -> Iterator[int]:
    """Yield all sub-masks of ``universe_mask`` with exactly ``k`` bits set.

    Masks come in lexicographic order of their member positions (the
    sorted index tuples into ``bits_of(universe_mask)``), not in numeric
    order: ``subsets_of_size(0b1111, 2)`` yields ``3, 5, 9, 6, 10, 12``.
    A DP layer's rows, its chunk split and its checkpoint blob all follow
    this order.
    """
    members = bits_of(universe_mask)
    n = len(members)
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    # Gosper-style enumeration over positions, mapped through `members`.
    idx = list(range(k))
    while True:
        yield mask_of(members[i] for i in idx)
        # advance the combination
        for j in reversed(range(k)):
            if idx[j] != j + n - k:
                break
        else:
            return
        idx[j] += 1
        for t in range(j + 1, k):
            idx[t] = idx[t - 1] + 1


def all_submasks(mask: int) -> Iterator[int]:
    """Yield every sub-mask of ``mask`` including ``0`` and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_submasks(mask: int, size: int | None = None) -> Iterator[int]:
    """Yield the sub-masks of ``mask``, optionally only those of ``size`` bits.

    With ``size=None`` this is :func:`all_submasks` (the classic
    ``sub = (sub - 1) & mask`` walk, descending numerically from ``mask``
    to ``0``).  With a ``size``, each yielded mask has exactly that many
    bits; ``size = popcount(mask) - 1`` enumerates a subset's
    predecessors.  In that predecessor case the combination order of
    :func:`subsets_of_size` excludes members in *descending* order, so
    reversing the output aligns with the ascending candidate order of
    :func:`bits_of` — the equivalence tests pin both orders.
    """
    if size is None:
        yield from all_submasks(mask)
        return
    yield from subsets_of_size(mask, size)


def insert_bit_indices(size: int, position: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays realizing "insert one bit at ``position``" for a table.

    For every packed assignment ``b`` in ``range(size)`` over ``m`` variables,
    the returned pair ``(idx0, idx1)`` gives the packed assignments over
    ``m + 1`` variables obtained by splicing a 0 (respectively 1) bit in at
    bit-position ``position``.  This is the indexing kernel of the
    Friedman-Supowit table compaction: ``idx0``/``idx1`` address the parent
    table's cells for the 0- and 1-cofactor of the variable being folded in.
    """
    b = np.arange(size, dtype=np.int64)
    low = b & ((1 << position) - 1)
    high = b >> position
    idx0 = low | (high << (position + 1))
    idx1 = idx0 | (1 << position)
    return idx0, idx1


def insert_bit(b: int, position: int, value: int) -> int:
    """Scalar version of :func:`insert_bit_indices` for one assignment."""
    low = b & ((1 << position) - 1)
    high = b >> position
    return low | (value << position) | (high << (position + 1))


def extract_bit(b: int, position: int) -> Tuple[int, int]:
    """Inverse of :func:`insert_bit`: remove bit ``position``.

    Returns ``(b_without_that_bit, removed_value)``.
    """
    low = b & ((1 << position) - 1)
    value = (b >> position) & 1
    high = b >> (position + 1)
    return low | (high << position), value


def spread_assignment(packed: int, mask: int) -> int:
    """Spread a packed assignment over ``mask`` onto absolute variable bits.

    ``packed`` assigns values to the members of ``mask`` little-endian by
    rank; the result is an ``n``-bit word where bit ``v`` carries the value
    assigned to variable ``v`` (non-members are 0).
    """
    out = 0
    v = 0
    m = mask
    while m:
        if m & 1:
            out |= (packed & 1) << v
            packed >>= 1
        m >>= 1
        v += 1
    return out


def compress_assignment(word: int, mask: int) -> int:
    """Inverse of :func:`spread_assignment`: gather bits of ``word`` at the
    member positions of ``mask`` into a packed little-endian assignment."""
    out = 0
    j = 0
    v = 0
    m = mask
    while m:
        if m & 1:
            out |= ((word >> v) & 1) << j
            j += 1
        m >>= 1
        v += 1
    return out
