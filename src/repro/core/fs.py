"""Algorithm FS: the exact ``O*(3^n)`` optimal-variable-ordering DP.

This is the paper's primary classical contribution (Friedman & Supowit,
DAC 1987; Theorem 5 in the supplied text).  For every subset ``I`` of the
``n`` variables, in order of cardinality, it computes the quadruple
``FS(I)`` — in particular ``MINCOST_I``, the minimum possible number of
nodes in the bottom ``|I|`` levels over all orderings that place exactly
the variables of ``I`` there — using the recurrence of Lemma 4::

    MINCOST_I = min_{k in I} ( MINCOST_{I \\ k} + Cost_k(f, pi_{(I\\k, k)}) )

The total work is ``sum_k C(n,k) * k * 2^{n-k} = O*(3^n)`` table cells,
which the :class:`~repro.analysis.counters.OperationCounters` instrument
measures exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

import numpy as np

from .._bitops import bits_of
from ..analysis.counters import OperationCounters
from ..errors import DimensionError
from ..observability import Profiler
from ..truth_table import TruthTable
from .cache import (
    ResultCache,
    chain_result_maps,
    chain_widths,
    lookup_ordering,
    store_ordering,
    table_key,
)
from .checkpoint import FaultInjector, RetryPolicy
from .compaction import KERNEL
from .engine import EngineConfig, run_layered_sweep
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - budget imports fs lazily
    from .budget import Budget


def initial_state(
    table: TruthTable,
    rule: ReductionRule = ReductionRule.BDD,
    track_nodes: bool = False,
) -> FSState:
    """The paper's ``FS(emptyset)``: ``TABLE_0`` is the truth table itself.

    For Boolean rules the table values are the terminal ids 0/1 directly.
    For :attr:`ReductionRule.MTBDD` each distinct function value gets its
    own terminal id (0, 1, 2, ... in increasing value order); the mapping
    is returned on the state via ``num_terminals`` and is reconstructed by
    callers through :func:`terminal_values`.
    """
    if rule is ReductionRule.MTBDD:
        values, inverse = np.unique(table.values, return_inverse=True)
        cells = inverse.astype(np.int64)
        num_terminals = int(values.shape[0])
    elif rule is ReductionRule.CBDD:
        if not table.is_boolean():
            raise DimensionError(
                "cbdd rule requires a Boolean table; "
                "use ReductionRule.MTBDD for multi-valued functions"
            )
        # Cells hold edges over the single TRUE terminal (node 0):
        # value 1 -> regular edge 0, value 0 -> complemented edge 1.
        cells = (1 - table.values).astype(np.int64)
        num_terminals = 1
    else:
        if not table.is_boolean():
            raise DimensionError(
                f"{rule.value} rule requires a Boolean table; "
                "use ReductionRule.MTBDD for multi-valued functions"
            )
        cells = table.values.astype(np.int64)
        num_terminals = 2
    return FSState(
        n=table.n,
        mask=0,
        pi=(),
        mincost=0,
        table=cells,
        num_terminals=num_terminals,
        nodes={} if track_nodes else None,
    )


def terminal_values(table: TruthTable, rule: ReductionRule) -> List[int]:
    """Function value carried by each terminal id under ``rule``.

    For :attr:`ReductionRule.CBDD` the single terminal node carries TRUE;
    FALSE is reached via a complemented edge.
    """
    if rule is ReductionRule.MTBDD:
        return [int(v) for v in np.unique(table.values)]
    if rule is ReductionRule.CBDD:
        return [1]
    return [0, 1]


@dataclass
class FSResult:
    """Output of :func:`run_fs` (the paper's ``FS([n])`` plus conveniences)."""

    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    """Optimal variable ordering, read-first to read-last."""

    pi: Tuple[int, ...]
    """The same ordering in the paper's convention (read-last first)."""

    mincost: int
    """``MINCOST_[n]``: internal nodes of the minimum diagram."""

    num_terminals: int
    """Terminals of the diagram (2 for BDD/ZDD; distinct values for MTBDD)."""

    mincost_by_subset: Mapping[int, int]
    """``MINCOST_I`` for every subset mask ``I`` (the full DP table)."""

    best_last: Mapping[int, int]
    """For each non-empty subset mask, the minimizing last variable ``i*``."""

    level_cost_by_choice: Mapping[Tuple[int, int], int]
    """``Cost_i(f, pi_{(I, i)})`` for every pair ``(I_mask, i)`` with ``i``
    not in ``I`` — the width of variable ``i``'s level when placed directly
    above the bottom set ``I``.  Well-defined by Lemma 3; recorded for every
    candidate the DP evaluates.

    The three maps are read-only :class:`~collections.abc.Mapping` views
    over the sweep's dense DP arrays (:class:`repro.core.engine.DPTables`);
    ``dict(...)`` of one gives a mutable copy.  A cache hit carries plain
    dicts along its one chain (see :attr:`from_cache`)."""

    counters: OperationCounters = field(default_factory=OperationCounters)

    from_cache: bool = False
    """True when this result was served by a :class:`ResultCache` hit.
    The ordering, ``mincost`` and width profile are exact, but the DP
    maps (``mincost_by_subset`` etc.) cover only the optimal chain's
    subsets — :meth:`optimal_orderings` needs an uncached run."""

    @property
    def size(self) -> int:
        """Total node count including terminals (Figure 1 convention)."""
        return self.mincost + self.num_terminals

    def width_profile(self) -> List[int]:
        """Level width at each position of :attr:`order` (top to bottom)."""
        return chain_widths(self.order, self.level_cost_by_choice, self.n)

    def optimal_orderings(self) -> List[Tuple[int, ...]]:
        """Enumerate *all* optimal orderings (read-first to read-last).

        Walks every minimizing choice of the DP, not just the recorded
        ``best_last`` chain.  The count can be exponential for highly
        symmetric functions; intended for analysis on small ``n``.
        Unavailable on cache-hit results, whose maps cover one chain only.
        """
        if self.from_cache:
            raise ValueError(
                "optimal_orderings() needs the full DP table; this result "
                "came from a cache hit — rerun with cache=None to enumerate"
            )
        full = (1 << self.n) - 1
        pis: List[Tuple[int, ...]] = []

        def walk(mask: int, suffix: Tuple[int, ...]) -> None:
            # `suffix` accumulates the paper's pi left-to-right: the first
            # variable chosen (for the full mask) is pi[n], read first.
            if mask == 0:
                pis.append(suffix)
                return
            target = self.mincost_by_subset[mask]
            for i in bits_of(mask):
                prev_mask = mask & ~(1 << i)
                width = self.level_cost(prev_mask, i)
                if self.mincost_by_subset[prev_mask] + width == target:
                    walk(prev_mask, (i,) + suffix)

        walk(full, ())
        return [tuple(reversed(pi)) for pi in pis]

    def level_cost(self, prev_mask: int, var: int) -> int:
        """``Cost_var(f, pi_{(prev, var)})``: the width of ``var``'s level
        when placed directly above the bottom set ``prev_mask``."""
        return self.level_cost_by_choice[(prev_mask, var)]


def run_fs(
    table: TruthTable,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    jobs: int = 1,
    backend: str = "serial",
    profiler: Optional[Profiler] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    fault_injector: Optional["FaultInjector"] = None,
    cache: Optional[ResultCache] = None,
    budget: Optional["Budget"] = None,
    io_retry: Optional[RetryPolicy] = None,
) -> FSResult:
    """Run the full Friedman-Supowit dynamic program.

    Parameters
    ----------
    table:
        The function's truth table (the paper's input representation;
        use :func:`repro.expr.to_truth_table` for other representations).
    rule:
        Diagram variant to minimize (BDD, ZDD, or MTBDD).
    counters:
        Optional instrumentation sink.
    jobs:
        Threads per DP layer under ``backend="thread"`` (masks of equal
        cardinality are independent).  Results and counters are
        bit-identical for every value.
    backend:
        ``"serial"`` (default: every layer inline) or ``"thread"``
        (layers large enough to pay for it split over a pool of ``jobs``
        threads over the GIL-free kernel).  Results and counters are
        bit-identical across backends (see :mod:`repro.core.executor`).
    profiler:
        Optional :class:`repro.observability.Profiler` receiving the
        per-layer wall-clock/memory trajectory (including checkpoint
        write/load phase timings).
    checkpoint_dir:
        Snapshot every finished DP layer into this directory (see
        :mod:`repro.core.checkpoint`), making the run crash-safe.
    resume:
        With ``checkpoint_dir``, restart from the newest valid snapshot;
        the resumed run is bit-identical — results *and* counters — to
        an uninterrupted one.
    fault_injector:
        Test hook simulating crashes/corruption at layer boundaries.
    cache:
        Optional :class:`repro.core.cache.ResultCache`.  The table is
        canonicalized (support reduction, permutation, complement where
        sound for ``rule``) and the cache consulted before any kernel
        work; a hit returns in ``O*(2^n)`` with *zero* compactions, the
        stored ordering mapped back through the canonicalizing
        permutation.  A miss runs the DP and stores the answer.
    budget:
        Optional :class:`repro.core.budget.Budget` (deadline, frontier
        caps, cancellation).  Checked at every DP layer boundary; an
        exhausted budget raises :class:`~repro.errors.BudgetExceeded`
        recording the layers completed, the best-so-far bound and (with
        ``checkpoint_dir``) the last committed checkpoint, from which a
        later resume under a bigger budget continues bit-identically.
        For automatic degradation to cheaper heuristics instead of an
        exception, see :func:`repro.core.budget.run_ladder`.
    io_retry:
        Optional :class:`repro.core.checkpoint.RetryPolicy` retrying
        transient checkpoint-write failures with exponential backoff.

    Returns
    -------
    FSResult
        With the optimal ordering, ``MINCOST_[n]``, and the full
        ``MINCOST_I`` table for downstream analysis (Lemma 9 checks,
        enumeration of all optima, ...).
    """
    config = EngineConfig(
        jobs=jobs, backend=backend, profiler=profiler,
        checkpoint_dir=checkpoint_dir, resume=resume,
        fault_injector=fault_injector, cache=cache,
        budget=budget, io_retry=io_retry,
    )
    return _run_fs(table, rule, counters, config)


def _run_fs(
    table: TruthTable,
    rule: ReductionRule,
    counters: Optional[OperationCounters],
    config: EngineConfig,
) -> FSResult:
    """:func:`run_fs` over an assembled :class:`EngineConfig`; the
    fallback ladder's ``fs`` rung calls it with its own config."""
    n = table.n
    if counters is None:
        counters = OperationCounters()
    cache = config.cache
    profiler = config.profiler
    key = None
    if cache is not None:
        key = table_key([table], rule, spec="fs", profiler=profiler)
        hit = lookup_ordering(cache, key, counters, profiler)
        if hit is not None:
            mincost, order, widths = hit
            maps = chain_result_maps(order, widths)
            return FSResult(
                n=n,
                rule=rule,
                order=tuple(order),
                pi=tuple(reversed(order)),
                mincost=mincost,
                num_terminals=len(terminal_values(table, rule)),
                mincost_by_subset=maps[0],
                best_last=maps[1],
                level_cost_by_choice=maps[2],
                counters=counters,
                from_cache=True,
            )
    if profiler is not None:
        with profiler.phase("prepare"):
            state0 = initial_state(table, rule)
        profiler.meta.setdefault("n", n)
        profiler.meta.setdefault("rule", rule.value)
        profiler.meta.setdefault("kernel", KERNEL)
        profiler.meta.setdefault("jobs", config.jobs)
        profiler.meta.setdefault("backend", config.backend)
        if config.checkpoint_dir is not None:
            profiler.meta.setdefault("checkpoint_dir", config.checkpoint_dir)
            profiler.meta.setdefault("resume", config.resume)
    else:
        state0 = initial_state(table, rule)
    full = (1 << n) - 1
    outcome = run_layered_sweep(
        state0, full, rule=rule, counters=counters, config=config
    )
    final = outcome.frontier[full]
    pi = final.pi
    order = tuple(reversed(pi))
    if cache is not None and key is not None:
        store_ordering(
            cache,
            key,
            order,
            chain_widths(order, outcome.level_cost_by_choice, n),
            counters,
            profiler,
        )
    return FSResult(
        n=n,
        rule=rule,
        order=order,
        pi=pi,
        mincost=final.mincost,
        num_terminals=final.num_terminals,
        mincost_by_subset=outcome.mincost_by_subset,
        best_last=outcome.best_last,
        level_cost_by_choice=outcome.level_cost_by_choice,
        counters=counters,
    )


def find_optimal_ordering(
    source,
    n: Optional[int] = None,
    rule: ReductionRule = ReductionRule.BDD,
    jobs: int = 1,
    backend: str = "serial",
) -> FSResult:
    """Convenience front end accepting any evaluable representation.

    ``source`` may be a :class:`~repro.truth_table.TruthTable`, a callable
    of ``n`` Boolean arguments (pass ``n``), or any object from
    :mod:`repro.expr` exposing ``num_vars``/``evaluate`` — this realizes
    the paper's Corollary 2 (truth-table preparation in ``O*(2^n)`` from a
    polynomial-time-evaluable representation).
    """
    from ..expr import to_truth_table  # deferred: expr imports this package

    if isinstance(source, TruthTable):
        table = source
    else:
        table = to_truth_table(source, n)
    return run_fs(table, rule=rule, jobs=jobs, backend=backend)
