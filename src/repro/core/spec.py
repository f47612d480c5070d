"""The FS quadruple: the state object threaded through all DP variants.

The paper writes ``FS(<I_1, ..., I_m>)`` for the quadruple
``(pi, MINCOST, TABLE, NODE)``.  :class:`FSState` is that quadruple plus the
bookkeeping needed to continue compacting it:

* ``pi`` — the bottom-first placement of the variables handled so far
  (paper's ``pi[1..|I|]``: ``pi[0]`` is the variable read *last*).
* ``mincost`` — number of DD nodes in the bottom ``|pi|`` levels under the
  chain that produced this state (equals ``MINCOST`` when every step chose
  the minimizing predecessor, by Lemma 4 / Lemma 7).
* ``table`` — the paper's ``TABLE``: one cell per assignment to the
  *remaining* variables, holding the node id representing the corresponding
  subfunction.  Cell indexing: bit ``j`` of the cell index is the value of
  the ``j``-th smallest remaining variable (see :mod:`repro._bitops`).
* ``nodes`` — the paper's ``NODE`` set, as a dict ``id -> (var, lo, hi)``;
  only populated when structure tracking is requested (it is needed to
  output the minimum DD itself, not to compute its size).

Node ids: ``0 .. num_terminals-1`` are terminals (0=F, 1=T for Boolean
rules); internal node ids continue from there, so the next free id is
always ``num_terminals + mincost`` — exactly the paper's "one plus the
value of MINCOST after the increment" scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .._bitops import popcount


class ReductionRule(enum.Enum):
    """Which decision-diagram variant the table compaction targets."""

    BDD = "bdd"
    """Merge a node whose cofactors coincide (``u0 == u1``)."""

    ZDD = "zdd"
    """Zero-suppress a node whose 1-cofactor is the 0 terminal
    (``u1 == 0``) — the paper's two-line modification."""

    MTBDD = "mtbdd"
    """Same rule as BDD but over arbitrarily many terminal values
    (paper's Remark 2)."""

    CBDD = "cbdd"
    """Complement-edge BDDs (an extension beyond the paper): table cells
    hold *edges* ``node_id << 1 | complement`` over a single terminal
    node 0 (TRUE); a level's nodes are the distinct complement-classes
    ``{g, ~g}`` of dependent subfunctions.  Lemma 3/4 carry over because
    class counts, like subfunction counts, depend only on the
    partition."""


@dataclass
class FSState:
    """One point of the FS dynamic program (the paper's quadruple)."""

    n: int
    mask: int
    pi: Tuple[int, ...]
    mincost: int
    table: np.ndarray
    num_terminals: int = 2
    nodes: Optional[Dict[int, Tuple[int, int, int]]] = None
    num_roots: int = 1
    """Roots sharing this DP state.  1 for the single-function algorithms;
    the multi-rooted generalization (:mod:`repro.core.shared`) stacks one
    table segment per output function, deduplicating nodes across all of
    them (the shared-forest semantics of multi-output circuits)."""

    def __post_init__(self) -> None:
        if self.num_roots < 1:
            raise ValueError("num_roots must be at least 1")
        expected = self.num_roots << (self.n - popcount(self.mask))
        if self.table.shape != (expected,):
            raise ValueError(
                f"table shape {self.table.shape} inconsistent with mask "
                f"{self.mask:#x} over n={self.n} variables "
                f"and {self.num_roots} roots"
            )

    @property
    def segment_size(self) -> int:
        """Cells per root segment (``2^{n - |I|}``)."""
        return 1 << (self.n - popcount(self.mask))

    @property
    def placed(self) -> int:
        """How many variables are already placed (``|I|``)."""
        return popcount(self.mask)

    @property
    def free_mask(self) -> int:
        """Bitmask of the variables not yet placed."""
        return ((1 << self.n) - 1) ^ self.mask

    @property
    def next_id(self) -> int:
        """Id the next created node will receive."""
        return self.num_terminals + self.mincost
