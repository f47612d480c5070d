"""The retained DP layer: one dense matrix per subset cardinality.

Theorem 5 counts the FS sweep layer by layer: layer ``k`` holds the
``C(n, k)`` subsets of size ``k``, each with a table of exactly
``roots * 2^{n-k}`` cells, all of one shape.  So a layer is a dense
integer matrix, and :class:`Layer` is that matrix plus the two vectors
that name and price its rows:

* ``masks`` — the layer's feasible subsets (relative to the swept
  universe) in :func:`~repro._bitops.subsets_of_size` order, and the
  kernel's mask -> row lookup over them (``sorted_masks`` ascending,
  ``sorted_rows`` the row of each);
* ``mincost`` — ``MINCOST`` of each row, ``int64``;
* ``tables`` — one ``(rows, cells)`` matrix stored at the narrowest
  unsigned dtype holding the sweep's node-id bound
  (:meth:`Layer.cell_dtype`).

The engine builds and commits layers, the kernel reads predecessor rows
straight out of the matrix, the checkpoint store writes one blob
per layer and the budget meters :attr:`Layer.nbytes`, which is exact.
"""

from __future__ import annotations

import numpy as np

from .spec import FSState, ReductionRule


class Layer:
    """One finished DP layer (see the module docstring)."""

    __slots__ = ("masks", "mincost", "tables", "sorted_masks", "sorted_rows")

    def __init__(
        self,
        masks: np.ndarray,
        mincost: np.ndarray,
        tables: np.ndarray,
    ) -> None:
        self.masks = np.asarray(masks, dtype=np.int64)
        self.mincost = np.asarray(mincost, dtype=np.int64)
        self.tables = tables
        if (self.mincost.shape != self.masks.shape
                or tables.shape[0] != self.masks.shape[0]):
            raise ValueError(
                f"layer columns disagree: {self.masks.shape[0]} masks, "
                f"{self.mincost.shape[0]} mincosts, "
                f"{tables.shape[0]} table rows"
            )
        self.sorted_rows = self.masks.argsort(kind="stable")
        self.sorted_masks = self.masks[self.sorted_rows]

    @classmethod
    def of_base(cls, base: FSState, rule: ReductionRule) -> "Layer":
        """Layer 0: the base state alone, its table as the one row at
        the sweep's cell dtype, like every later layer."""
        return cls(np.zeros(1, np.int64), np.array([base.mincost]),
                   base.table.astype(cls.cell_dtype(base, rule))[None])

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

    def __len__(self) -> int:
        return self.masks.shape[0]

    @property
    def nbytes(self) -> int:
        """Exact resident payload bytes of the three columns."""
        return self.masks.nbytes + self.mincost.nbytes + self.tables.nbytes
