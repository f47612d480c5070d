"""Seeded inputs for the benchmark workloads.

The program under test only ever receives the tables built here.  Every
generator is a pure function of its seed (numpy ``default_rng`` streams),
so one seed always yields byte-identical inputs.

Library workloads start from *base* functions: seven random tables and
seven structured ones from ``repro.functions.families`` (adder, comparator
and multiplication bits, hidden-weighted-bit, achilles-heel).  At n = 12
the bases and their exact optima are stored in ``corpus_n12.json`` (see
``make_corpus.py``), so the correctness gate never trusts the code under
test for its references.  A seed turns each base into a distinct input by
an isomorphism that keeps the optimum fixed: variable renaming, input
negation and output complement all map every reduced OBDD to one of the
same size.

The serve stream is described in :func:`serve_streams`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
STORED_N = 12
STORED_PATH = HERE / "corpus_n12.json"

STRUCTURED = (
    "adder_mid", "adder_carry", "comparator", "mult_mid", "mult_high",
    "hwb", "achilles",
)
RANDOM_BASES = 7

# The race's work depends far more on the function than on host noise
# (0.4-1.7 s per race at n = 12 on a quiet host), so every portfolio run
# races the same bases and the seed only picks transforms that leave
# each heuristic's work unchanged.  Four bases of four families, raced
# once per pass, leave room for four passes in a 20-second run, so each
# input's latency is a median of four races; random1 is the slowest of
# them by far (about 1.8x the next), so the tail is one input, not
# whichever of several similar ones happened to meet a slow stretch of
# the host.
PORTFOLIO_BASES = ("achilles", "adder_mid", "comparator", "random1")

EXACT_TAG = 0xE1AC7
PORTFOLIO_TAG = 0x9F0110
SERVE_TAG = 0x5E21E


def seeded(tag: int, seed: int, *more: int) -> np.random.Generator:
    """The numpy stream of one generator and seed (any integer seed)."""
    return np.random.default_rng([tag, seed % (1 << 64), *more])


# ----------------------------------------------------------------------
# tables and isomorphisms
# ----------------------------------------------------------------------

def table_hex(values: np.ndarray) -> str:
    """Pack a 0/1 table (index bit ``i`` = variable ``i``) as hex."""
    bits = np.asarray(values, dtype=np.uint8)
    return np.packbits(bits, bitorder="little").tobytes().hex()


def table_from_hex(text: str, n: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n].copy()


def table_bits(values: np.ndarray) -> str:
    """The serve wire form: one ``0``/``1`` character per assignment."""
    return np.asarray(values, dtype=np.uint8).tobytes().translate(
        bytes.maketrans(b"\x00\x01", b"01")
    ).decode()


def rename(values: np.ndarray, n: int, perm: Sequence[int]) -> np.ndarray:
    """New variable ``i`` is old variable ``perm[i]`` (the convention of
    ``TruthTable.permute``)."""
    index = np.arange(1 << n, dtype=np.int64)
    source = np.zeros(1 << n, dtype=np.int64)
    for new, old in enumerate(perm):
        source |= ((index >> new) & 1) << int(old)
    return values[source]


def transform(
    values: np.ndarray, n: int, perm: Sequence[int], negate: int,
    complement: bool,
) -> np.ndarray:
    """Negate the inputs in mask ``negate``, rename by ``perm``, and
    optionally complement the output.  None of the three changes the
    optimal OBDD size."""
    out = values[np.arange(1 << n, dtype=np.int64) ^ int(negate)]
    out = rename(out, n, perm)
    return (1 - out).astype(np.uint8) if complement else out.astype(np.uint8)


# ----------------------------------------------------------------------
# base functions
# ----------------------------------------------------------------------

@dataclass
class Base:
    name: str
    n: int
    values: np.ndarray
    mincost: Optional[int] = None
    """Exact optimum (internal nodes); ``None`` until a reference is
    computed for sizes that are not stored."""


def random_base(n: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([0xB0DD, n, index])
    return rng.integers(0, 2, 1 << n, dtype=np.uint8)


def structured_base(name: str, n: int) -> np.ndarray:
    from repro.functions import families

    half = n // 2
    table = {
        "adder_mid": lambda: families.adder_bit(half, half // 2),
        "adder_carry": lambda: families.adder_bit(half, half),
        "comparator": lambda: families.comparator(half),
        "mult_mid": lambda: families.multiplication_bit(half, half - 1),
        "mult_high": lambda: families.multiplication_bit(half, half + 2),
        "hwb": lambda: families.hidden_weighted_bit(n),
        "achilles": lambda: families.achilles_heel(half),
    }[name]()
    return table.values.astype(np.uint8)


def make_bases(n: int) -> List[Base]:
    """Base functions for an even ``n`` (random ones first)."""
    if n % 2 or n < 4:
        raise ValueError(f"bases need an even n >= 4, got {n}")
    bases = [
        Base(f"random{i}", n, random_base(n, i)) for i in range(RANDOM_BASES)
    ]
    bases += [Base(name, n, structured_base(name, n)) for name in STRUCTURED]
    return bases


def load_bases(n: int) -> List[Base]:
    """Stored bases with exact optima at n = 12; freshly built bases
    without references at other sizes."""
    if n != STORED_N:
        return make_bases(n)
    payload = json.loads(STORED_PATH.read_text())
    return [
        Base(
            entry["name"], payload["n"],
            table_from_hex(entry["hex"], payload["n"]),
            mincost=int(entry["mincost"]),
        )
        for entry in payload["bases"]
    ]


# ----------------------------------------------------------------------
# the correctness oracle and reference optima
# ----------------------------------------------------------------------

class Oracle:
    """Re-costs orders by counting subfunctions directly from the truth
    table (``count_subfunctions``, the oracle behind
    ``repro.core.certificate.verify_achievability``), independent of the
    DP and of every heuristic; memoized per (table, order)."""

    def __init__(self) -> None:
        self._seen: Dict[Tuple[int, bytes, Tuple[int, ...]], int] = {}

    def cost(self, n: int, values: np.ndarray, order: Sequence[int]) -> int:
        """Internal nodes of the OBDD under ``order``, or -1 if ``order``
        is not a permutation of the ``n`` variables."""
        from repro.truth_table import TruthTable, count_subfunctions

        memo = (n, np.asarray(values, dtype=np.uint8).tobytes(),
                tuple(int(v) for v in order))
        if memo not in self._seen:
            self._seen[memo] = (
                sum(count_subfunctions(TruthTable(n, values), list(memo[2])))
                if sorted(memo[2]) == list(range(n)) else -1
            )
        return self._seen[memo]

    def achievable(self, n: int, values: np.ndarray, order: Sequence[int],
                   mincost: int) -> bool:
        """Whether ``order`` costs exactly ``mincost`` internal nodes."""
        return self.cost(n, values, order) == mincost


def terminals(values: np.ndarray) -> int:
    """Terminal nodes of the function's OBDD (1 for a constant, else 2)."""
    return int(np.unique(values).size)


def checked_optimum(oracle: Oracle, n: int, values: np.ndarray) -> Any:
    """``repro.solve`` on the table, accepted only if the oracle re-costs
    its order to the same ``mincost``."""
    import repro
    from repro.truth_table import TruthTable

    solution = repro.solve(TruthTable(n, values))
    if not oracle.achievable(n, values, solution.order, solution.mincost):
        raise RuntimeError("reference solve disagrees with the oracle")
    return solution


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------

@dataclass
class Item:
    """One library input: a transformed base."""

    base: str
    values: np.ndarray


def exact_inputs(bases: Sequence[Base], seed: int, passes: int) -> List[Item]:
    """``exact-cold``: every pass solves each base once, in seeded order,
    renamed, input-negated and complemented at random."""
    rng = seeded(EXACT_TAG, seed)
    items: List[Item] = []
    for _ in range(passes):
        for j in rng.permutation(len(bases)):
            base = bases[int(j)]
            n = base.n
            perm = rng.permutation(n)
            negate = int(rng.integers(0, 1 << n))
            complement = bool(rng.integers(0, 2))
            items.append(Item(base.name, transform(
                base.values, n, perm, negate, complement
            )))
    return items


def portfolio_inputs(
    bases: Sequence[Base], seed: int, passes: int,
) -> List[Item]:
    """``portfolio-race``: the fixed :data:`PORTFOLIO_BASES` in seeded
    order, each as one of its four work-preserving variants (output
    complement, negation of *all* inputs).  Both keep every member's
    schedule: sizes, influences, entropies and variable symmetries are
    unchanged, and no variable moves, so sifting starts from the same
    order."""
    rng = seeded(PORTFOLIO_TAG, seed)
    by_name = {base.name: base for base in bases}
    chosen = [by_name[name] for name in PORTFOLIO_BASES]
    first_variant = {base.name: int(rng.integers(0, 4)) for base in chosen}
    items: List[Item] = []
    for p in range(passes):
        for j in rng.permutation(len(chosen)):
            base = chosen[int(j)]
            n = base.n
            variant = (first_variant[base.name] + p) % 4
            negate = (1 << n) - 1 if variant & 1 else 0
            items.append(Item(base.name, transform(
                base.values, n, range(n), negate, bool(variant & 2)
            )))
    return items


# ----------------------------------------------------------------------
# serve-repeat stream
# ----------------------------------------------------------------------

@dataclass
class ServeShape:
    """Sizes of one serve-repeat stream (the full and the toy scale)."""

    pool_pattern: Tuple[int, ...] = (7, 8, 7, 8, 9, 7, 8, 9, 7, 10)
    """Variable counts of the pool, by popularity rank (cycled).  Ranks
    map to sizes the same way for every seed, so the mix of
    canonicalization costs among hits does not move with the seed."""

    pool_size: int = 30
    disguises: int = 3
    miss_n: int = 8
    miss_bases: int = 6
    batch_distinct: int = 2
    zipf_s: float = 1.1
    block: Dict[str, int] = field(default_factory=lambda: {
        "identical": 45, "disguised": 45, "miss": 6, "batch": 4,
    })
    """Request kinds per block of 100; a stream is whole blocks, so the
    shares are exact."""


TOY_SHAPE = ServeShape(
    pool_pattern=(4, 5), pool_size=8, disguises=2, miss_n=5, miss_bases=2,
    batch_distinct=2,
)


@dataclass
class ServeTable:
    n: int
    values: np.ndarray
    ref: str
    """Key of the reference this table's optimum equals (its pool item or
    miss base)."""


@dataclass
class Connection:
    """One client connection's disjoint stream."""

    tables: List[ServeTable]
    warmup: List[int]
    """Table ids sent once, untimed, so the pool is cached."""

    requests: List[Tuple[str, List[int]]]
    """``(kind, table ids)``; ``batch`` carries several ids, every other
    kind one."""

    references: Dict[str, Tuple[int, np.ndarray]]
    """Reference key -> ``(n, values)`` of the function to solve
    directly for the exact optimum."""


def serve_streams(
    seed: int, blocks: int, connections: int = 2,
    shape: ServeShape = ServeShape(),
) -> List[Connection]:
    """Per-connection request streams for ``serve-repeat``.

    Each connection owns a Zipf-popular pool of random functions (sizes
    ``shape.pool_pattern``) and sends, per block of 100 requests, the fixed
    mix in ``shape.block``:

    * ``identical`` — a pool function, byte-identical to its warm-up;
    * ``disguised`` — one of its ``shape.disguises`` fixed variants
      (variables renamed, output maybe complemented), which the
      canonical cache key maps to the same entry;
    * ``miss`` — a never-seen function: a miss base with a fresh input
      negation (which the cache key does not canonicalize away), renamed;
    * ``batch`` — a ``solve_many`` manifest holding
      ``shape.batch_distinct`` pool functions, each twice (identical and
      disguised), so half its items are deduplicated.

    No function is shared between the two connections, even up to the
    cache key's renaming and complement: connection ``c`` only draws
    tables whose count of ones has parity ``c``, which renaming,
    complement (of an even-length table) and input negation all keep.
    So which requests hit the cache never depends on how the two
    connections interleave.
    """
    if connections > 2:
        raise ValueError("the parity split keeps at most 2 streams apart")
    out: List[Connection] = []
    for conn in range(connections):
        rng = seeded(SERVE_TAG, seed, conn)
        tables: List[ServeTable] = []
        references: Dict[str, Tuple[int, np.ndarray]] = {}

        def draw(n: int) -> np.ndarray:
            values = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            if int(values.sum()) % 2 != conn:
                values[int(rng.integers(0, 1 << n))] ^= 1
            return values

        def add(n: int, values: np.ndarray, ref: str) -> int:
            tables.append(ServeTable(n, values.astype(np.uint8), ref))
            return len(tables) - 1

        pool: List[int] = []
        disguised: List[List[int]] = []
        for rank in range(shape.pool_size):
            n = shape.pool_pattern[rank % len(shape.pool_pattern)]
            values = draw(n)
            ref = f"pool{rank}"
            references[ref] = (n, values)
            pool.append(add(n, values, ref))
            disguised.append([
                add(n, transform(
                    values, n, rng.permutation(n), 0,
                    bool(rng.integers(0, 2)),
                ), ref)
                for _ in range(shape.disguises)
            ])
        miss_bases = []
        for b in range(shape.miss_bases):
            n = shape.miss_n
            values = draw(n)
            references[f"miss{b}"] = (n, values)
            masks = rng.permutation(np.arange(1, 1 << n))
            miss_bases.append((values, iter(masks.tolist())))

        weights = 1.0 / np.arange(1, len(pool) + 1) ** shape.zipf_s
        weights /= weights.sum()

        def popular(k: int = 1) -> List[int]:
            ranks = rng.choice(len(pool), size=k, replace=False, p=weights)
            return [int(r) for r in ranks]

        kinds = [
            kind for kind, count in shape.block.items() for _ in range(count)
        ]
        requests: List[Tuple[str, List[int]]] = []
        miss_count = 0
        for _ in range(blocks):
            for j in rng.permutation(len(kinds)):
                kind = kinds[int(j)]
                if kind == "identical":
                    ids = [pool[popular()[0]]]
                elif kind == "disguised":
                    i = popular()[0]
                    ids = [disguised[i][int(rng.integers(0, shape.disguises))]]
                elif kind == "miss":
                    b = miss_count % len(miss_bases)
                    miss_count += 1
                    values, masks = miss_bases[b]
                    n = shape.miss_n
                    ids = [add(n, transform(
                        values, n, rng.permutation(n), next(masks),
                        bool(rng.integers(0, 2)),
                    ), f"miss{b}")]
                else:
                    ids = []
                    for i in popular(shape.batch_distinct):
                        ids.append(pool[i])
                        ids.append(disguised[i][int(
                            rng.integers(0, shape.disguises)
                        )])
                    order = rng.permutation(len(ids))
                    ids = [ids[int(k)] for k in order]
                requests.append((kind, ids))
        out.append(Connection(tables, list(pool), requests, references))
    return out


def stream_shares(shape: ServeShape) -> Dict[str, float]:
    total = sum(shape.block.values())
    return {kind: count / total for kind, count in shape.block.items()}
