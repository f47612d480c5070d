"""Truth tables: the canonical input representation of the FS algorithm.

The paper's algorithm takes a Boolean function ``f : {0,1}^n -> {0,1}`` as a
truth table (``TABLE_0`` in the paper's notation is exactly this table), and
Corollary 2 extends it to any representation evaluable in polynomial time —
see :func:`TruthTable.from_callable` and :mod:`repro.expr`.

Conventions
-----------
A table over ``n`` variables stores ``2**n`` values indexed by the packed
assignment ``sum(x_i << i)`` — i.e. bit ``i`` of the index is the value of
variable ``i``.  Values are small non-negative integers; ``0``/``1`` for
plain Boolean functions, arbitrary for the multi-terminal (MTBDD) case of
the paper's Remark 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._bitops import insert_bit_indices
from .errors import DimensionError


class TruthTable:
    """An immutable truth table of an ``n``-variable discrete function.

    Parameters
    ----------
    n:
        Number of input variables.
    values:
        Sequence of ``2**n`` non-negative integers; ``values[a]`` is the
        function value on the packed assignment ``a``.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] != (1 << n):
            raise DimensionError(
                f"expected {1 << n} values for n={n}, got shape {arr.shape}"
            )
        if arr.size and arr.min() < 0:
            raise ValueError("truth-table values must be non-negative integers")
        arr.setflags(write=False)
        self.n = n
        self.values = arr

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_callable(cls, n: int, fn: Callable[..., int]) -> "TruthTable":
        """Tabulate ``fn`` over all ``2**n`` assignments (Corollary 2).

        ``fn`` receives ``n`` positional arguments, each 0 or 1, and must
        return an ``int`` (``bool`` is accepted).  This is the ``O*(2^n)``
        truth-table preparation step the paper describes for functions given
        as circuits, DNFs, CNFs, or existing OBDDs.
        """
        size = 1 << n
        values = np.empty(size, dtype=np.int64)
        for a in range(size):
            bits = tuple((a >> i) & 1 for i in range(n))
            values[a] = int(fn(*bits))
        return cls(n, values)

    @classmethod
    def from_evaluator(cls, n: int, evaluate: Callable[[int], int]) -> "TruthTable":
        """Like :meth:`from_callable` but ``evaluate`` takes the packed index."""
        size = 1 << n
        values = np.empty(size, dtype=np.int64)
        for a in range(size):
            values[a] = int(evaluate(a))
        return cls(n, values)

    @classmethod
    def from_minterms(cls, n: int, minterms: Iterable[int]) -> "TruthTable":
        """Boolean table that is 1 exactly on the given packed assignments."""
        values = np.zeros(1 << n, dtype=np.int64)
        for m in minterms:
            if not 0 <= m < (1 << n):
                raise DimensionError(f"minterm {m} out of range for n={n}")
            values[m] = 1
        return cls(n, values)

    @classmethod
    def constant(cls, n: int, value: int) -> "TruthTable":
        """The constant function ``value`` on ``n`` variables."""
        return cls(n, np.full(1 << n, int(value), dtype=np.int64))

    @classmethod
    def projection(cls, n: int, var: int) -> "TruthTable":
        """The function ``f(x) = x_var``."""
        if not 0 <= var < n:
            raise DimensionError(f"variable {var} out of range for n={n}")
        a = np.arange(1 << n, dtype=np.int64)
        return cls(n, (a >> var) & 1)

    @classmethod
    def random(
        cls, n: int, seed: Optional[int] = None, num_values: int = 2
    ) -> "TruthTable":
        """A uniformly random table (Boolean by default, multi-valued if
        ``num_values > 2``)."""
        rng = np.random.default_rng(seed)
        return cls(n, rng.integers(0, num_values, size=1 << n, dtype=np.int64))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __call__(self, *bits: int) -> int:
        if len(bits) != self.n:
            raise DimensionError(f"expected {self.n} arguments, got {len(bits)}")
        index = 0
        for i, b in enumerate(bits):
            index |= (int(b) & 1) << i
        return int(self.values[index])

    def evaluate_packed(self, assignment: int) -> int:
        """Value on a packed assignment (bit ``i`` = variable ``i``)."""
        return int(self.values[assignment])

    def is_boolean(self) -> bool:
        """True if every value is 0 or 1."""
        return bool(self.values.max(initial=0) <= 1)

    def num_distinct_values(self) -> int:
        return int(np.unique(self.values).size)

    def ones(self) -> List[int]:
        """Packed assignments on which a Boolean table evaluates to 1."""
        return [int(a) for a in np.nonzero(self.values)[0]]

    def count_ones(self) -> int:
        return int(np.count_nonzero(self.values))

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Restrict ``x_var = value`` yielding a table on ``n - 1`` variables.

        The remaining variables keep their relative order and are re-indexed
        densely (variable ``j > var`` becomes ``j - 1``).
        """
        if not 0 <= var < self.n:
            raise DimensionError(f"variable {var} out of range for n={self.n}")
        idx0, idx1 = insert_bit_indices(1 << (self.n - 1), var)
        chosen = idx1 if value else idx0
        return TruthTable(self.n - 1, self.values[chosen])

    def restrict(self, assignments: Sequence[Tuple[int, int]]) -> "TruthTable":
        """Apply several ``(var, value)`` restrictions at once.

        Variables are given in terms of the *original* indexing of ``self``;
        the result is over the surviving variables, re-indexed densely.
        """
        table = self
        # Apply in descending variable order so earlier indices stay valid.
        for var, value in sorted(assignments, key=lambda p: -p[0]):
            table = table.cofactor(var, value)
        return table

    def depends_on(self, var: int) -> bool:
        """True iff the function's value ever changes with ``x_var``."""
        return self.cofactor(var, 0) != self.cofactor(var, 1)

    def support(self) -> List[int]:
        """Variables the function essentially depends on."""
        return [v for v in range(self.n) if self.depends_on(v)]

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Rename variables: new variable ``i`` is old variable ``perm[i]``.

        ``perm`` must be a permutation of ``range(n)``.  The resulting table
        ``g`` satisfies ``g(y_0,...,y_{n-1}) = f(x)`` with
        ``x_{perm[i]} = y_i``.
        """
        n = self.n
        if sorted(perm) != list(range(n)):
            raise DimensionError(f"{perm!r} is not a permutation of range({n})")
        cube = self.values.reshape((2,) * n)
        # Axis k of `cube` corresponds to variable n-1-k (C order: last axis
        # is the fastest-varying index bit, i.e. variable 0).
        axes = [n - 1 - perm[n - 1 - k] for k in range(n)]
        return TruthTable(n, np.ascontiguousarray(np.transpose(cube, axes)).reshape(-1))

    def canonical_form(
        self,
        reduce_support: bool = True,
        allow_complement: bool = True,
        max_perms: int = 5040,
    ) -> "CanonicalForm":
        """Canonical representative of this table's NPN-style orbit.

        See :func:`canonicalize_tables`; this is the single-output
        convenience wrapper used by the result cache."""
        return canonicalize_tables(
            [self],
            reduce_support=reduce_support,
            allow_complement=allow_complement,
            max_perms=max_perms,
        )

    # ------------------------------------------------------------------
    # Boolean algebra (elementwise; tables must be Boolean & same n)
    # ------------------------------------------------------------------
    def _check_binop(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other.n != self.n:
            raise DimensionError(f"operand arity mismatch: {self.n} vs {other.n}")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_binop(other)
        return TruthTable(self.n, (self.values != 0) & (other.values != 0))

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_binop(other)
        return TruthTable(self.n, (self.values != 0) | (other.values != 0))

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_binop(other)
        return TruthTable(self.n, (self.values != 0) ^ (other.values != 0))

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, (self.values == 0).astype(np.int64))

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.n, self.values.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 5:
            body = "".join(str(int(v)) for v in self.values)
            return f"TruthTable(n={self.n}, values={body!r})"
        return f"TruthTable(n={self.n}, 2^{self.n} values)"


@dataclass(frozen=True)
class CanonicalForm:
    """A table (or output vector) normalized under variable renaming.

    ``tables`` is the canonical representative: support-reduced (when
    requested), variables renamed by the canonical permutation, outputs
    possibly complemented.  Two inputs in the same orbit — equal up to a
    permutation of their variables (and, when ``allow_complement`` was
    set, a joint output complement) — produce byte-identical canonical
    tables whenever ``exact`` is True, which is what lets the result
    cache recognize renamed resubmissions of the same function.

    The remaining fields are the witness needed to translate answers
    about the canonical function back to the original variables:
    canonical variable ``c`` is original variable ``support[perm[c]]``.
    """

    n: int
    """Arity of the *original* tables."""

    tables: Tuple[TruthTable, ...]
    """Canonical support-reduced, renamed (and possibly complemented)
    representative, one table per output."""

    support: Tuple[int, ...]
    """Original indices of the kept variables, ascending.  Equal to
    ``range(n)`` when support reduction was disabled or unnecessary."""

    perm: Tuple[int, ...]
    """Canonical variable ``c`` is kept variable ``perm[c]`` (an index
    into ``support``)."""

    complemented: bool
    """True when the canonical representative is the complement of the
    input (only ever set for Boolean tables with ``allow_complement``)."""

    exact: bool
    """True when the permutation search was exhaustive over the
    signature-compatible candidates; False when ``max_perms`` forced the
    deterministic fallback (still a valid, stable form — it just may
    fail to coincide for some highly symmetric orbit members)."""

    def canonical_bytes(self) -> bytes:
        """Concatenated cell bytes of the canonical tables (the payload
        the result cache hashes)."""
        return b"".join(t.values.tobytes() for t in self.tables)

    def map_order_back(self, canonical_order: Sequence[int]) -> List[int]:
        """Translate an ordering of the canonical variables into an
        ordering of all ``n`` original variables.

        Variables outside the support are appended at the bottom (read
        last) in ascending order; under a cofactor-merging reduction rule
        they contribute zero nodes at any position, so the translated
        ordering achieves exactly the canonical ordering's cost."""
        mapped = [self.support[self.perm[c]] for c in canonical_order]
        leftover = sorted(set(range(self.n)) - set(self.support))
        return mapped + leftover

    def map_order_forward(self, order: Sequence[int]) -> List[int]:
        """Project an ordering of the original variables onto canonical
        variables (dropping non-support variables)."""
        canonical_of = {
            self.support[kept]: c for c, kept in enumerate(self.perm)
        }
        return [canonical_of[v] for v in order if v in canonical_of]


def _variable_signature(tables: Sequence[TruthTable], var: int) -> tuple:
    """Permutation-invariant signature of one variable.

    Components (per output, in output order): the variable's boundary
    size (how many assignments flip the value — its unnormalized
    influence) and the sorted cell multisets of both cofactors.  Each
    component is invariant under any renaming of the *other* variables,
    so signatures survive jointly renaming the whole vector — the
    property that makes signature-sorted permutations an orbit-invariant
    candidate set."""
    parts = []
    for t in tables:
        c0 = t.cofactor(var, 0).values
        c1 = t.cofactor(var, 1).values
        parts.append((
            int(np.count_nonzero(c0 != c1)),
            np.sort(c0).tobytes(),
            np.sort(c1).tobytes(),
        ))
    return tuple(parts)


def _min_permutation(
    tables: Sequence[TruthTable], max_perms: int
) -> Tuple[Tuple[int, ...], bytes, bool]:
    """Lexicographically minimal joint renaming of ``tables``.

    Variables are grouped by signature; candidate permutations arrange
    the groups in signature order and try every arrangement inside each
    group (the minimum over that set is the same for every orbit member).
    When the candidate count exceeds ``max_perms`` the within-group order
    falls back to the stable original indexing — deterministic, but no
    longer orbit-invariant (flagged via the returned ``exact``)."""
    m = tables[0].n
    signatures = [_variable_signature(tables, v) for v in range(m)]
    groups: dict = {}
    for v in range(m):
        groups.setdefault(signatures[v], []).append(v)
    ordered_groups = [groups[sig] for sig in sorted(groups)]

    total = 1
    for group in ordered_groups:
        for i in range(2, len(group) + 1):
            total *= i
        if total > max_perms:
            break
    exact = total <= max_perms
    if exact:
        candidates = (
            tuple(itertools.chain.from_iterable(arrangement))
            for arrangement in itertools.product(
                *(itertools.permutations(g) for g in ordered_groups)
            )
        )
    else:
        candidates = iter(
            [tuple(itertools.chain.from_iterable(ordered_groups))]
        )

    best_perm: Optional[Tuple[int, ...]] = None
    best_bytes: Optional[bytes] = None
    for perm in candidates:
        blob = b"".join(t.permute(perm).values.tobytes() for t in tables)
        if best_bytes is None or blob < best_bytes:
            best_bytes = blob
            best_perm = perm
    assert best_perm is not None and best_bytes is not None
    return best_perm, best_bytes, exact


def canonicalize_tables(
    tables: Sequence[TruthTable],
    reduce_support: bool = True,
    allow_complement: bool = True,
    max_perms: int = 5040,
) -> CanonicalForm:
    """Joint canonical form of an output vector under variable renaming.

    All tables must share one arity; a single permutation is applied to
    every output.  With ``reduce_support`` the variables no output
    depends on are cofactored away first (sound for cofactor-merging
    rules — BDD/MTBDD/CBDD — where such variables cost zero nodes at any
    position; keep it off for ZDDs).  With ``allow_complement`` (Boolean
    tables only) the complemented vector competes for the canonical
    representative too — sound whenever complementing preserves level
    widths (BDD and CBDD; off for ZDDs and for shared forests, where
    complementing one output changes cross-output sharing).
    """
    if not tables:
        raise DimensionError("need at least one table to canonicalize")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise DimensionError("all outputs must share the same variables")

    if reduce_support:
        union = sorted(
            {v for t in tables for v in t.support()}
        )
        dead = [(v, 0) for v in range(n) if v not in union]
        reduced = (
            [t.restrict(dead) for t in tables] if dead else list(tables)
        )
        support = tuple(union)
    else:
        reduced = list(tables)
        support = tuple(range(n))

    variants = [(reduced, False)]
    if allow_complement and all(t.is_boolean() for t in tables):
        variants.append(([~t for t in reduced], True))

    best: Optional[Tuple[bytes, bool, Tuple[int, ...], List[TruthTable], bool]] = None
    for candidate, complemented in variants:
        perm, blob, exact = _min_permutation(candidate, max_perms)
        key = (blob, complemented)
        if best is None or key < (best[0], best[1]):
            best = (blob, complemented, perm,
                    [t.permute(perm) for t in candidate], exact)
    assert best is not None
    _, complemented, perm, canonical, exact = best
    return CanonicalForm(
        n=n,
        tables=tuple(canonical),
        support=support,
        perm=perm,
        complemented=complemented,
        exact=exact,
    )


def count_subfunctions(table: TruthTable, order: Sequence[int]) -> List[int]:
    """Width profile of the reduced OBDD of ``table`` under ``order``.

    ``order[0]`` is the variable read first (the root level).  Returns a
    list ``w`` of length ``n`` where ``w[k]`` is the number of OBDD nodes
    labelled with ``order[k]`` — i.e. the number of distinct subfunctions
    obtained by assigning ``order[:k]`` that *essentially depend* on
    ``order[k]`` (the classic characterization; the paper's
    ``Cost_j(f, pi)``).

    This is an implementation independent of the FS dynamic program and of
    the node-based manager, used as a cross-checking oracle in the tests.
    """
    n = table.n
    if sorted(order) != list(range(n)):
        raise DimensionError(f"{order!r} is not an ordering of range({n})")
    # Permute so that the read order becomes variable n-1 (first read, most
    # significant axis) down to variable 0 (last read).
    perm = list(order)[::-1]  # new variable i = old variable perm[i]
    g = table.permute(perm).values
    widths = []
    for k in range(n):
        # After assigning the first k read variables, subfunctions are the
        # rows of a (2^k, 2^(n-k)) matrix; the next-read variable is the top
        # bit of the column index.
        rows = g.reshape(1 << k, 1 << (n - k))
        half = 1 << (n - k - 1)
        depends = ~np.all(rows[:, :half] == rows[:, half:], axis=1)
        dependent_rows = rows[depends]
        if dependent_rows.shape[0] == 0:
            widths.append(0)
            continue
        widths.append(int(np.unique(dependent_rows, axis=0).shape[0]))
    return widths


def obdd_size(table: TruthTable, order: Sequence[int], include_terminals: bool = True) -> int:
    """Total reduced-OBDD node count of ``table`` under ``order``.

    With ``include_terminals`` the two terminal nodes are counted (as in the
    paper's Figure 1, where sizes are quoted as ``2n + 2`` and ``2^{n+1}``).
    For a constant function the diagram has a single terminal node.
    """
    widths = count_subfunctions(table, order)
    internal = sum(widths)
    if not include_terminals:
        return internal
    return internal + int(np.unique(table.values).size)
