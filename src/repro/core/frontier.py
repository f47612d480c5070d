"""The retained DP layer: one dense matrix per subset cardinality.

Theorem 5 counts the FS sweep layer by layer: layer ``k`` holds the
``C(n, k)`` subsets of size ``k``, each with a table of exactly
``roots * 2^{n-k}`` cells, all of one shape.  So a layer is a dense
integer matrix, and :class:`Layer` is that matrix plus the two vectors
that name and price its rows:

* ``masks`` — the layer's feasible subsets (relative to the swept
  universe) in :func:`~repro._bitops.subsets_of_size` order, with a
  vectorized mask -> row lookup (:meth:`Layer.rows_of`);
* ``mincost`` — ``MINCOST`` of each row, ``int64``;
* ``tables`` — under :attr:`~repro.core.engine.FrontierPolicy.FULL`,
  one ``(rows, cells)`` matrix stored at the narrowest unsigned dtype
  holding the sweep's node-id bound (:meth:`Layer.cell_dtype`); ``None``
  when the layer keeps mincosts only and predecessor tables are replayed.

The engine builds and commits layers, the chunk loop stacks predecessor
rows straight out of the matrix, the process backend ships
:meth:`Layer.take` slices, the checkpoint store writes one blob per
layer and the budget meters :attr:`Layer.nbytes`, which is exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .spec import FSState, ReductionRule


class Layer:
    """One finished DP layer (see the module docstring)."""

    __slots__ = ("masks", "mincost", "tables", "_sorted", "_order")

    def __init__(
        self,
        masks: np.ndarray,
        mincost: np.ndarray,
        tables: Optional[np.ndarray] = None,
    ) -> None:
        self.masks = np.asarray(masks, dtype=np.int64)
        self.mincost = np.asarray(mincost, dtype=np.int64)
        self.tables = tables
        if self.mincost.shape != self.masks.shape or (
            tables is not None and tables.shape[0] != self.masks.shape[0]
        ):
            raise ValueError(
                f"layer columns disagree: {self.masks.shape[0]} masks, "
                f"{self.mincost.shape[0]} mincosts, "
                f"{None if tables is None else tables.shape[0]} table rows"
            )
        self._order = np.argsort(self.masks, kind="stable")
        self._sorted = self.masks[self._order]

    @classmethod
    def of_base(cls, base: FSState) -> "Layer":
        """Layer 0: the base state alone, its table as the one row."""
        return cls(np.zeros(1, np.int64), np.array([base.mincost]),
                   base.table[None])

    @staticmethod
    def cell_dtype(base: FSState, rule: ReductionRule) -> np.dtype:
        """Narrowest unsigned dtype holding every table cell of a sweep.

        Node ids stay below ``num_terminals + roots * 2^n`` (a forest of
        ``roots`` functions of ``n`` variables has fewer internal nodes
        than ``roots * 2^n``); CBDD cells are edges
        ``id << 1 | complement``, so that bound doubles.  A base whose
        next id plus the nodes its cells can still open would pass the
        bound is not a state of a real chain.
        """
        bound = base.num_terminals + (base.num_roots << base.n)
        if base.next_id + base.table.shape[0] > bound:
            raise ValueError(
                f"base state's node ids (next id {base.next_id}) can "
                f"outgrow the bound {bound} of {base.num_roots} root(s) "
                f"over {base.n} variables"
            )
        if rule is ReductionRule.CBDD:
            bound <<= 1
        return np.min_scalar_type(bound)

    def __reduce__(self):
        # Pickles (process shipping) carry the three columns only.
        return (Layer, (self.masks, self.mincost, self.tables))

    def __len__(self) -> int:
        return self.masks.shape[0]

    @property
    def nbytes(self) -> int:
        """Exact resident payload bytes of the three columns."""
        tables = 0 if self.tables is None else self.tables.nbytes
        return self.masks.nbytes + self.mincost.nbytes + tables

    def rows_of(self, masks: np.ndarray) -> np.ndarray:
        """Row of each of ``masks`` in this layer, ``-1`` where absent."""
        at = np.searchsorted(self._sorted, masks)
        found = self._sorted.take(at, mode="clip") == masks
        return np.where(found, self._order.take(at, mode="clip"), -1)

    def take(self, masks: np.ndarray) -> "Layer":
        """The sub-layer of those of ``masks`` this layer holds."""
        rows = self.rows_of(masks)
        rows = rows[rows >= 0]
        tables = None if self.tables is None else self.tables[rows]
        return Layer(self.masks[rows], self.mincost[rows], tables)
