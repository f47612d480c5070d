"""Pluggable frontier representations for the layered sweep.

The retained DP layer — the *frontier* — is what actually caps tractable
``n``: at the waist the FS dynamic program holds ``C(n, n/2)`` states of
``2^{n/2}`` table cells each (the ``3^n`` analysis of Theorem 5 counts
exactly these cells).  Historically the engine kept the frontier as a
``Dict[int, FSState]`` of tuple-heavy dataclasses, and every layer —
engine, chunk executor, checkpoint codec, budget caps — assumed that
shape, so no compact representation could land without this cross-cutting
seam.  This module is the seam:

* :class:`FrontierStore` — the abstract one-layer container the engine
  builds, the backends read, the checkpoint store serializes and the
  budget meters, with a name registry
  (:func:`register_frontier_store` / :func:`get_frontier_store`)
  mirroring the backend registry;
* :class:`DictFrontier` — the historical ``mask -> entry`` dict
  (``"dict"``, the default; byte accounting is the documented estimate);
* :class:`PackedFrontier` — contiguous column storage (``"packed"``):
  subset masks and mincosts in ``array('q')`` columns, placement chains
  as one byte per variable, and all table payloads of a layer in a
  single ``bytearray`` bit-packed at the *exact* width the layer's node
  ids need (``bit_length`` of the layer maximum, widened on demand;
  each entry's cells padded to a byte boundary so rows stay sliceable)
  — the ``BitList``/``CompressedList`` idiom of word-packed storage
  with exact ``memory_consumption``-style accounting.  Entries in one
  layer share ``|pi|`` and cell count by construction (equal
  cardinality), which is what makes columns contiguous.

Bit-identity contract: a store changes *where bytes live*, never what
the sweep computes.  Reconstructed entries compare equal to the ones put
in (table values exactly, via widening back to ``int64``), so results
and :class:`~repro.analysis.counters.OperationCounters` tallies are
independent of the store, which the
``store x backend x jobs x FrontierPolicy`` parity matrix in
``tests/test_core_frontier.py`` pins.
"""

from __future__ import annotations

import abc
import base64
from array import array
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type,
    Union,
)

import numpy as np

from .._bitops import popcount_buffer
from ..observability import frontier_nbytes as _estimate_nbytes
from .checkpoint import Skeleton
from .spec import FSState

Entry = Union[FSState, Skeleton]

# Table cells (node ids, or edges under the CBDD rule) are always
# non-negative and bounded by the packed id space, so they bit-pack at
# exactly bit_length(layer max) bits per cell — e.g. 9 bits where a
# byte-aligned ladder would burn 16.  Each entry's run of cells is
# padded up to a byte boundary so entry rows stay independently
# sliceable (shipping, absorb) without bit-offset arithmetic.
_MAX_BITS = 63  # int64 weights decode exactly up to 63-bit values


def _bits_for(bound: int) -> int:
    """Exact bit width holding ``bound`` (>= 1 so empty rows have size)."""
    if bound >= (1 << _MAX_BITS):
        raise OverflowError(f"table value {bound} exceeds the packed id space")
    return max(1, int(bound).bit_length())


def _row_bytes(cells: int, bits: int) -> int:
    """Bytes per entry row: ``cells`` values of ``bits`` bits, byte-padded."""
    return (cells * bits + 7) // 8


def _encode_cells(table: Any, bits: int) -> bytes:
    """Bit-pack an ``int64`` table row (values preserved exactly)."""
    values = np.asarray(table, dtype=np.uint64)
    shifts = np.arange(bits, dtype=np.uint64)
    cell_bits = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(cell_bits.ravel(), bitorder="little").tobytes()


def _decode_cells(buffer: Any, bits: int, count: int, offset: int = 0) -> Any:
    """Rebuild an ``int64`` table row from bit-packed bytes."""
    raw = np.frombuffer(buffer, dtype=np.uint8, count=_row_bytes(count, bits),
                        offset=offset)
    cell_bits = np.unpackbits(raw, bitorder="little")[:count * bits]
    weights = np.int64(1) << np.arange(bits, dtype=np.int64)
    return cell_bits.reshape(count, bits).astype(np.int64) @ weights


def _rewiden(buffer: Any, cells: int, old_bits: int, new_bits: int) -> bytearray:
    """Re-encode a whole packed table column at a wider bit width."""
    out = bytearray()
    old_row = _row_bytes(cells, old_bits)
    for offset in range(0, len(buffer), old_row):
        out += _encode_cells(
            _decode_cells(buffer, old_bits, cells, offset=offset), new_bits
        )
    return out


# ----------------------------------------------------------------------
# the wire/rest format of a packed layer slice
# ----------------------------------------------------------------------

@dataclass
class PackedSlice:
    """Picklable column snapshot of (part of) a packed layer.

    This is what a :class:`PackedFrontier` ships across the process
    boundary (a chunk's predecessor entries out, its finished entries
    back) and what the checkpoint codec embeds: five flat byte columns
    plus the layer metadata needed to reinterpret them.  ``nbytes`` is
    the exact payload size, which the process backend's ``bytes_shipped``
    tally reports instead of the dict-era per-entry estimate.
    """

    kind: str
    """``"full"`` (tables present) or ``"skeleton"`` (pi+mincost only)."""

    n: int
    num_terminals: int
    num_roots: int
    base_mask: int
    pi_len: int
    cells: int
    bits: int
    """Bit width of one table cell (``bit_length`` of the slice max)."""

    masks: bytes
    """``array('q')`` of relative subset masks, insertion order."""

    mincosts: bytes
    """``array('q')`` parallel to :attr:`masks`."""

    pis: bytes
    """``pi_len`` bytes per entry (one variable index per byte)."""

    tables: bytes
    """``ceil(cells * bits / 8)`` bytes per entry; empty for skeletons."""

    @property
    def count(self) -> int:
        return len(self.masks) // 8

    @property
    def nbytes(self) -> int:
        return (
            len(self.masks) + len(self.mincosts) + len(self.pis)
            + len(self.tables)
        )


# ----------------------------------------------------------------------
# store protocol + registry
# ----------------------------------------------------------------------

class FrontierStore(abc.ABC):
    """One retained DP layer, behind a representation-agnostic interface.

    The engine builds one store per layer, the execution backends read it
    (``get``), the checkpoint store serializes it
    (``checkpoint_payload`` / ``to_entry_dict``) and the budget meters it
    (``nbytes``).  Stores register by name
    (:func:`register_frontier_store`) and are selected via
    ``EngineConfig(frontier_store=...)`` and the CLI ``--frontier-store``
    flag, mirroring the backend registry.

    Bit-identity contract: ``get(mask)`` must return an entry equal in
    every field the chunk loop reads (``n``/``mask``/``pi``/``mincost``/table
    values/``num_terminals``/``num_roots``/``nodes``) to the entry that
    was ``put``; results and operation counters are then independent of
    the store by construction.
    """

    name: str = "custom"

    @abc.abstractmethod
    def put(self, mask: int, entry: Entry) -> None:
        """Add one finished subset's entry (insertion order preserved)."""

    @abc.abstractmethod
    def get(self, mask: int) -> Optional[Entry]:
        """The entry for ``mask``, or ``None`` (mirrors ``dict.get``)."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __contains__(self, mask: int) -> bool: ...

    @abc.abstractmethod
    def masks(self) -> List[int]:
        """Subset masks in insertion order."""

    @abc.abstractmethod
    def min_mincost(self) -> int:
        """Smallest ``mincost`` over the layer (the best-so-far bound)."""

    @abc.abstractmethod
    def nbytes(self) -> int:
        """Resident payload bytes of this layer (exact for packed
        stores; the documented flat-overhead estimate for dict stores)."""

    def items(self) -> Iterator[Tuple[int, Entry]]:
        for mask in self.masks():
            entry = self.get(mask)
            assert entry is not None
            yield mask, entry

    def extend(self, entries: Dict[int, Entry]) -> None:
        for mask, entry in entries.items():
            self.put(mask, entry)

    def to_entry_dict(self) -> Dict[int, Entry]:
        """Materialize the historical ``mask -> entry`` dict view."""
        return dict(self.items())

    # -- optional capabilities ----------------------------------------

    def absorb(self, entries: Dict[int, Entry],
               packed: Optional[PackedSlice] = None) -> None:
        """Merge one chunk result (dict entries and/or a packed slice)."""
        if packed is not None:
            self.extend(_slice_to_entries(packed))
        if entries:
            self.extend(entries)

    def ship_slice(self, masks: Sequence[int]) -> Optional[PackedSlice]:
        """Packed selection of ``masks`` for cross-process shipping, or
        ``None`` when this store ships plain entry dicts."""
        return None

    def checkpoint_payload(self) -> Optional[Dict[str, Any]]:
        """JSON-safe packed payload for the checkpoint codec, or ``None``
        to use the historical per-entry encoding."""
        return None


_STORES: Dict[str, Type[FrontierStore]] = {}


def register_frontier_store(
    name: str,
) -> Callable[[Type[FrontierStore]], Type[FrontierStore]]:
    """Class decorator registering a frontier store under ``name``.

    Registered names become valid for ``EngineConfig(frontier_store=...)``
    and the CLI ``--frontier-store`` flag."""

    def decorate(cls: Type[FrontierStore]) -> Type[FrontierStore]:
        _STORES[name] = cls
        return cls

    return decorate


def get_frontier_store(name: str) -> Type[FrontierStore]:
    """Resolve a registered store class; ``ValueError`` on unknown names."""
    try:
        return _STORES[name]
    except KeyError:
        raise ValueError(
            f"unknown frontier store {name!r}; expected one of "
            f"{available_frontier_stores()}"
        ) from None


def available_frontier_stores() -> List[str]:
    """Registered store names, sorted (for CLI choices and errors)."""
    return sorted(_STORES)


def create_frontier_store(spec: Union[str, Type[FrontierStore]]) -> FrontierStore:
    """Instantiate a store from a registered name or a store class."""
    if isinstance(spec, str):
        return get_frontier_store(spec)()
    if isinstance(spec, type) and issubclass(spec, FrontierStore):
        return spec()
    raise ValueError(
        f"frontier_store must be a registered name "
        f"{available_frontier_stores()} or a FrontierStore subclass, "
        f"got {spec!r}"
    )


# ----------------------------------------------------------------------
# dict store (historical representation, the default)
# ----------------------------------------------------------------------

@register_frontier_store("dict")
class DictFrontier(FrontierStore):
    """The historical ``Dict[int, entry]`` frontier.

    Fastest to build and read (entries are stored as-is), but every entry
    pays Python-object overhead and full ``int64`` table width.
    :meth:`nbytes` is the documented *estimate* (exact table payload plus
    a flat per-entry overhead constant): the true resident size of a
    graph of interpreter objects with interned/shared tuples is not
    well-defined, which is exactly why the budget's frontier caps prefer
    a packed store's exact accounting.
    """

    name = "dict"

    def __init__(self) -> None:
        self._entries: Dict[int, Entry] = {}

    def put(self, mask: int, entry: Entry) -> None:
        self._entries[mask] = entry

    def get(self, mask: int) -> Optional[Entry]:
        return self._entries.get(mask)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mask: int) -> bool:
        return mask in self._entries

    def masks(self) -> List[int]:
        return list(self._entries)

    def items(self) -> Iterator[Tuple[int, Entry]]:
        return iter(self._entries.items())

    def to_entry_dict(self) -> Dict[int, Entry]:
        return self._entries

    def min_mincost(self) -> int:
        return min(entry.mincost for entry in self._entries.values())

    def nbytes(self) -> int:
        return _estimate_nbytes(self._entries)

    def absorb(self, entries: Dict[int, Entry],
               packed: Optional[PackedSlice] = None) -> None:
        if packed is not None:
            self._entries.update(_slice_to_entries(packed))
        if entries:
            self._entries.update(entries)


# ----------------------------------------------------------------------
# packed store
# ----------------------------------------------------------------------

@register_frontier_store("packed")
class PackedFrontier(FrontierStore):
    """Contiguous column storage for one layer.

    Four parallel columns — masks, mincosts, placement chains, table
    payloads — in flat buffers, with the table column bit-packed at the
    exact width the layer's cell values need and widened in place when
    a larger id arrives.  The final width is ``bit_length`` of the
    layer's maximum value regardless of insertion order, so
    :meth:`nbytes` is deterministic across backends and job counts and
    the budget's byte cap aborts at the same layer everywhere.

    Entries reconstruct on :meth:`get` (table values widened back to
    ``int64``), so the chunk loop sees ordinary
    :class:`~repro.core.spec.FSState` objects.  Node structure tracking (``entry.nodes``) is supported through a Python
    side list — such layers still pack their tables but ship and
    checkpoint through the per-entry codec.
    """

    name = "packed"

    def __init__(self) -> None:
        self._kind: Optional[str] = None
        self._n = 0
        self._num_terminals = 0
        self._num_roots = 1
        self._base_mask = 0
        self._pi_len = 0
        self._cells = 0
        self._bits = 1
        self._masks = array("q")
        self._mincosts = array("q")
        self._pis = bytearray()
        self._tables = bytearray()
        self._index: Dict[int, int] = {}
        self._nodes: Optional[List[Optional[Dict[int, Tuple[int, int, int]]]]] = None

    # -- metadata ------------------------------------------------------

    def _adopt_meta(self, kind: str, n: int, num_terminals: int,
                    num_roots: int, base_mask: int, pi_len: int,
                    cells: int) -> None:
        if self._kind is None:
            if n > 0xFF:
                raise ValueError(
                    f"packed frontier stores one byte per placed variable; "
                    f"n={n} exceeds 255"
                )
            self._kind = kind
            self._n = n
            self._num_terminals = num_terminals
            self._num_roots = num_roots
            self._base_mask = base_mask
            self._pi_len = pi_len
            self._cells = cells
            return
        if (kind, n, num_terminals, num_roots, base_mask, pi_len, cells) != (
            self._kind, self._n, self._num_terminals, self._num_roots,
            self._base_mask, self._pi_len, self._cells,
        ):
            raise ValueError(
                "packed frontier layers are homogeneous; entry metadata "
                f"({kind}, n={n}, pi_len={pi_len}, cells={cells}) does not "
                f"match the layer ({self._kind}, n={self._n}, "
                f"pi_len={self._pi_len}, cells={self._cells})"
            )

    def _ensure_width(self, bound: int) -> None:
        wider = _bits_for(bound)
        if wider <= self._bits:
            return
        if self._tables:
            self._tables = _rewiden(
                self._tables, self._cells, self._bits, wider
            )
        self._bits = wider

    # -- core interface ------------------------------------------------

    def put(self, mask: int, entry: Entry) -> None:
        if isinstance(entry, FSState):
            self._adopt_meta(
                "full", entry.n, entry.num_terminals, entry.num_roots,
                entry.mask ^ mask, len(entry.pi), len(entry.table),
            )
            self._ensure_width(int(entry.table.max()))
            self._tables += _encode_cells(entry.table, self._bits)
            if entry.nodes is not None and self._nodes is None:
                self._nodes = [None] * len(self._masks)
            if self._nodes is not None:
                self._nodes.append(entry.nodes)
        else:
            self._adopt_meta("skeleton", self._n or 0, self._num_terminals,
                             self._num_roots, self._base_mask,
                             len(entry.pi), 0)
        self._index[mask] = len(self._masks)
        self._masks.append(mask)
        self._mincosts.append(entry.mincost)
        self._pis += bytes(entry.pi)

    def get(self, mask: int) -> Optional[Entry]:
        row = self._index.get(mask)
        if row is None:
            return None
        pi = tuple(self._pis[row * self._pi_len:(row + 1) * self._pi_len])
        mincost = self._mincosts[row]
        if self._kind == "skeleton":
            return Skeleton(pi=pi, mincost=mincost)
        table = _decode_cells(
            self._tables, self._bits, self._cells,
            offset=row * _row_bytes(self._cells, self._bits),
        )
        nodes = self._nodes[row] if self._nodes is not None else None
        return FSState(
            n=self._n,
            mask=self._base_mask | mask,
            pi=pi,
            mincost=mincost,
            table=table,
            num_terminals=self._num_terminals,
            nodes=nodes,
            num_roots=self._num_roots,
        )

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    def masks(self) -> List[int]:
        return list(self._masks)

    def min_mincost(self) -> int:
        return min(self._mincosts)

    def nbytes(self) -> int:
        """Exact payload bytes: the four columns, nothing estimated.

        (The node side list, when structure tracking is on, holds plain
        interpreter dicts and is excluded like the dict store's object
        overhead is — packing targets the table payloads that dominate.)
        """
        return (
            len(self._masks) * self._masks.itemsize
            + len(self._mincosts) * self._mincosts.itemsize
            + len(self._pis)
            + len(self._tables)
        )

    # -- slices (shipping + merging) -----------------------------------

    def to_slice(self) -> PackedSlice:
        return PackedSlice(
            kind=self._kind or "full",
            n=self._n,
            num_terminals=self._num_terminals,
            num_roots=self._num_roots,
            base_mask=self._base_mask,
            pi_len=self._pi_len,
            cells=self._cells,
            bits=self._bits,
            masks=self._masks.tobytes(),
            mincosts=self._mincosts.tobytes(),
            pis=bytes(self._pis),
            tables=bytes(self._tables),
        )

    @classmethod
    def from_slice(cls, blob: PackedSlice) -> "PackedFrontier":
        store = cls()
        store._kind = blob.kind
        store._n = blob.n
        store._num_terminals = blob.num_terminals
        store._num_roots = blob.num_roots
        store._base_mask = blob.base_mask
        store._pi_len = blob.pi_len
        store._cells = blob.cells
        store._bits = blob.bits
        store._masks = array("q")
        store._masks.frombytes(blob.masks)
        store._mincosts = array("q")
        store._mincosts.frombytes(blob.mincosts)
        store._pis = bytearray(blob.pis)
        store._tables = bytearray(blob.tables)
        store._index = {mask: row for row, mask in enumerate(store._masks)}
        return store

    def ship_slice(self, masks: Sequence[int]) -> Optional[PackedSlice]:
        if self._nodes is not None and any(
            nodes is not None for nodes in self._nodes
        ):
            return None  # node dicts ship through the entry codec
        out_masks = array("q")
        out_mincosts = array("q")
        out_pis = bytearray()
        out_tables = bytearray()
        rowbytes = _row_bytes(self._cells, self._bits)
        for mask in masks:
            row = self._index[mask]
            out_masks.append(mask)
            out_mincosts.append(self._mincosts[row])
            out_pis += self._pis[row * self._pi_len:(row + 1) * self._pi_len]
            if self._kind == "full":
                out_tables += self._tables[row * rowbytes:(row + 1) * rowbytes]
        return PackedSlice(
            kind=self._kind or "full",
            n=self._n,
            num_terminals=self._num_terminals,
            num_roots=self._num_roots,
            base_mask=self._base_mask,
            pi_len=self._pi_len,
            cells=self._cells,
            bits=self._bits,
            masks=out_masks.tobytes(),
            mincosts=out_mincosts.tobytes(),
            pis=bytes(out_pis),
            tables=bytes(out_tables),
        )

    def absorb(self, entries: Dict[int, Entry],
               packed: Optional[PackedSlice] = None) -> None:
        if packed is not None and packed.count:
            self._absorb_slice(packed)
        if entries:
            self.extend(entries)

    def _absorb_slice(self, blob: PackedSlice) -> None:
        self._adopt_meta(blob.kind, blob.n, blob.num_terminals,
                         blob.num_roots, blob.base_mask, blob.pi_len,
                         blob.cells)
        masks = array("q")
        masks.frombytes(blob.masks)
        mincosts = array("q")
        mincosts.frombytes(blob.mincosts)
        if blob.kind == "full" and blob.count:
            if blob.bits > self._bits:
                self._ensure_width((1 << blob.bits) - 1)
            if blob.bits == self._bits:
                self._tables += blob.tables
            else:
                self._tables += _rewiden(
                    blob.tables, self._cells, blob.bits, self._bits
                )
        base_row = len(self._masks)
        for offset, mask in enumerate(masks):
            self._index[mask] = base_row + offset
        self._masks.extend(masks)
        self._mincosts.extend(mincosts)
        self._pis += blob.pis
        if self._nodes is not None:
            self._nodes.extend([None] * len(masks))

    # -- checkpoint codec ----------------------------------------------

    def checkpoint_payload(self) -> Optional[Dict[str, Any]]:
        if self._nodes is not None and any(
            nodes is not None for nodes in self._nodes
        ):
            return None  # node-tracking layers use the per-entry codec
        masks_bytes = self._masks.tobytes()
        return {
            "version": 1,
            "kind": self._kind or "full",
            "n": self._n,
            "num_terminals": self._num_terminals,
            "num_roots": self._num_roots,
            "base_mask": self._base_mask,
            "pi_len": self._pi_len,
            "cells": self._cells,
            "bits": self._bits,
            "count": len(self._masks),
            "masks": base64.b64encode(masks_bytes).decode("ascii"),
            "mincosts": base64.b64encode(
                self._mincosts.tobytes()
            ).decode("ascii"),
            "pis": base64.b64encode(bytes(self._pis)).decode("ascii"),
            "tables": base64.b64encode(bytes(self._tables)).decode("ascii"),
            # Cheap integrity extra on top of the envelope checksum: the
            # population count of the mask column must survive decode.
            "mask_popcount": popcount_buffer(masks_bytes),
        }

    @staticmethod
    def decode_checkpoint_payload(blob: Dict[str, Any]) -> Dict[int, Entry]:
        """Inverse of :meth:`checkpoint_payload`, as an entry dict."""
        packed = PackedSlice(
            kind=str(blob["kind"]),
            n=int(blob["n"]),
            num_terminals=int(blob["num_terminals"]),
            num_roots=int(blob["num_roots"]),
            base_mask=int(blob["base_mask"]),
            pi_len=int(blob["pi_len"]),
            cells=int(blob["cells"]),
            bits=int(blob["bits"]),
            masks=base64.b64decode(blob["masks"]),
            mincosts=base64.b64decode(blob["mincosts"]),
            pis=base64.b64decode(blob["pis"]),
            tables=base64.b64decode(blob["tables"]),
        )
        if not 1 <= packed.bits <= _MAX_BITS:
            raise ValueError(f"bad packed cell width {packed.bits!r}")
        if packed.count != int(blob["count"]):
            raise ValueError(
                f"packed frontier payload holds {packed.count} entries, "
                f"header says {blob['count']}"
            )
        expected_pop = int(blob["mask_popcount"])
        actual_pop = popcount_buffer(packed.masks)
        if actual_pop != expected_pop:
            raise ValueError(
                f"packed frontier mask column popcount {actual_pop} != "
                f"recorded {expected_pop}"
            )
        return _slice_to_entries(packed)


def _slice_to_entries(blob: PackedSlice) -> Dict[int, Entry]:
    """Decode a packed slice into the historical entry dict (in column
    order, so insertion order survives the round trip)."""
    masks = array("q")
    masks.frombytes(blob.masks)
    mincosts = array("q")
    mincosts.frombytes(blob.mincosts)
    out: Dict[int, Entry] = {}
    rowbytes = _row_bytes(blob.cells, blob.bits)
    for row, mask in enumerate(masks):
        pi = tuple(blob.pis[row * blob.pi_len:(row + 1) * blob.pi_len])
        if blob.kind == "skeleton":
            out[mask] = Skeleton(pi=pi, mincost=mincosts[row])
            continue
        table = _decode_cells(
            blob.tables, blob.bits, blob.cells, offset=row * rowbytes
        )
        out[mask] = FSState(
            n=blob.n,
            mask=blob.base_mask | mask,
            pi=pi,
            mincost=mincosts[row],
            table=table,
            num_terminals=blob.num_terminals,
            num_roots=blob.num_roots,
        )
    return out


# ----------------------------------------------------------------------
# worker-side composite view (shared-memory base + shipped slice)
# ----------------------------------------------------------------------

class BaseOverlay:
    """A frontier view joining the sweep's base state (mask 0, living in
    shared memory on process workers) with a shipped packed slice.

    Exposes exactly what :func:`repro.core.executor.sweep_chunk` reads:
    ``get``.
    """

    def __init__(self, base: FSState, inner: PackedFrontier) -> None:
        self._base = base
        self._inner = inner

    def get(self, mask: int) -> Optional[Entry]:
        if mask == 0:
            return self._base
        return self._inner.get(mask)
