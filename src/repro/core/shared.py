"""Optimal shared ordering for multi-rooted diagrams (vector functions).

Real designs are multi-output: a circuit computes ``f_1, ..., f_m`` over
the same inputs, and all outputs live in one shared diagram under one
ordering.  The FS recurrence survives intact — Lemma 3/Lemma 4 are
statements about distinct subfunctions, and the shared-forest node count
at a level is the number of distinct dependent subfunctions *across all
outputs*.  Implementation-wise the state carries one table segment per
output and the per-step node dedup spans all segments (see
``FSState.num_roots``), so the whole algorithm family (FS, FS*, the
quantum divide-and-conquer) runs on shared states unchanged.

The multi-rooted setting is also where the NP-hardness result the paper
cites first appeared (Tani, Hamaguchi & Yajima [THY96]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.counters import OperationCounters
from ..errors import DimensionError, OrderingError
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
from .compaction import compact
from .engine import EngineConfig, FrontierPolicy, run_layered_sweep
from .fs import FSResult
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - budget imports this package lazily
    from .budget import Budget
    from .executor import ExecutorBackend


def initial_state_shared(
    tables: Sequence[TruthTable],
    rule: ReductionRule = ReductionRule.BDD,
    track_nodes: bool = False,
) -> FSState:
    """The multi-rooted ``FS(emptyset)``: stacked truth tables."""
    if not tables:
        raise DimensionError("need at least one output function")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise DimensionError("all outputs must share the same variables")
    stacked = np.concatenate([t.values for t in tables]).astype(np.int64)
    if rule is ReductionRule.MTBDD:
        values, inverse = np.unique(stacked, return_inverse=True)
        cells = inverse.astype(np.int64)
        num_terminals = int(values.shape[0])
    elif rule is ReductionRule.CBDD:
        if any(not t.is_boolean() for t in tables):
            raise DimensionError(
                "cbdd rule requires Boolean tables; "
                "use ReductionRule.MTBDD for multi-valued outputs"
            )
        cells = (1 - stacked).astype(np.int64)  # edges over terminal node 0
        num_terminals = 1
    else:
        if any(not t.is_boolean() for t in tables):
            raise DimensionError(
                f"{rule.value} rule requires Boolean tables; "
                "use ReductionRule.MTBDD for multi-valued outputs"
            )
        cells = stacked
        num_terminals = 2
    return FSState(
        n=n,
        mask=0,
        pi=(),
        mincost=0,
        table=cells,
        num_terminals=num_terminals,
        nodes={} if track_nodes else None,
        num_roots=len(tables),
    )


def shared_terminal_values(
    tables: Sequence[TruthTable], rule: ReductionRule
) -> List[int]:
    if rule is ReductionRule.MTBDD:
        stacked = np.concatenate([t.values for t in tables])
        return [int(v) for v in np.unique(stacked)]
    if rule is ReductionRule.CBDD:
        return [1]
    return [0, 1]


def run_fs_shared(
    tables: Sequence[TruthTable],
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    jobs: int = 1,
    backend: "str | ExecutorBackend" = "thread",
    frontier: str | FrontierPolicy = FrontierPolicy.FULL,
    profiler: Optional[Profiler] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    fault_injector: Optional[FaultInjector] = None,
    cache: Optional[ResultCache] = None,
    budget: Optional["Budget"] = None,
    io_retry: Optional[RetryPolicy] = None,
    max_pool_rebuilds: Optional[int] = None,
) -> FSResult:
    """Exact optimal ordering for the shared diagram of several outputs.

    Same complexity as single-output FS up to the factor ``m`` in table
    sizes; returns an :class:`~repro.core.fs.FSResult` whose ``mincost``
    counts the *shared* internal nodes of the whole forest.  Execution
    options (``jobs``/``backend``/``frontier``/``profiler``/
    ``checkpoint_dir``/``resume``/``cache``/``budget``/``io_retry``/
    ``max_pool_rebuilds``) match
    :func:`repro.core.fs.run_fs` — the same engine runs both DPs, and a
    single-output shared call shares cache entries with ``run_fs`` (the
    problems are identical).  Multi-output keys canonicalize under
    variable permutation only; output complement changes cross-output
    sharing, so it never competes for the canonical form here.
    """
    state0 = initial_state_shared(tables, rule)
    if counters is None:
        counters = OperationCounters()
    config = EngineConfig(
        jobs=jobs, backend=backend, frontier=frontier,
        profiler=profiler, checkpoint_dir=checkpoint_dir, resume=resume,
        fault_injector=fault_injector, cache=cache,
        budget=budget, io_retry=io_retry,
        max_pool_rebuilds=max_pool_rebuilds,
    )
    key = None
    if cache is not None:
        key = table_key(list(tables), rule, spec="fs", profiler=profiler)
        hit = lookup_ordering(cache, key, counters, profiler)
        if hit is not None:
            mincost, order, widths = hit
            maps = chain_result_maps(order, widths)
            return FSResult(
                n=state0.n,
                rule=rule,
                order=tuple(order),
                pi=tuple(reversed(order)),
                mincost=mincost,
                num_terminals=state0.num_terminals,
                mincost_by_subset=maps[0],
                best_last=maps[1],
                level_cost_by_choice=maps[2],
                counters=counters,
                from_cache=True,
            )
    full = (1 << state0.n) - 1
    outcome = run_layered_sweep(
        state0, full, rule=rule, counters=counters, config=config
    )
    final = outcome.frontier[full]
    pi = final.pi
    if cache is not None and key is not None:
        order = tuple(reversed(pi))
        store_ordering(
            cache,
            key,
            order,
            chain_widths(order, outcome.level_cost_by_choice, state0.n),
            counters,
            profiler,
        )
    return FSResult(
        n=state0.n,
        rule=rule,
        order=tuple(reversed(pi)),
        pi=pi,
        mincost=final.mincost,
        num_terminals=final.num_terminals,
        mincost_by_subset=outcome.mincost_by_subset,
        best_last=outcome.best_last,
        level_cost_by_choice=outcome.level_cost_by_choice,
        counters=counters,
    )


@dataclass
class Forest:
    """A standalone multi-rooted reduced diagram (shared nodes)."""

    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    roots: List[int]
    num_terminals: int
    terminal_values: List[int]
    nodes: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)

    @property
    def mincost(self) -> int:
        return len(self.nodes)

    def reachable(self) -> List[int]:
        seen = set()
        if self.rule is ReductionRule.CBDD:
            stack = [edge >> 1 for edge in self.roots]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                if node != 0:
                    _, lo, hi = self.nodes[node]
                    stack.extend((lo >> 1, hi >> 1))
            return sorted(seen)
        stack = list(self.roots)
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            if u >= self.num_terminals:
                _, lo, hi = self.nodes[u]
                stack.extend((lo, hi))
        return sorted(seen)

    @property
    def size(self) -> int:
        return len(self.reachable())

    def evaluate(self, root_index: int, assignment: Sequence[int]) -> int:
        if self.rule is ReductionRule.CBDD:
            edge = self.roots[root_index]
            complement = edge & 1
            node = edge >> 1
            while node != 0:
                var, lo, hi = self.nodes[node]
                nxt = hi if assignment[var] else lo
                complement ^= nxt & 1
                node = nxt >> 1
            return 0 if complement else 1
        position = {v: lv for lv, v in enumerate(self.order)}
        u = self.roots[root_index]
        level = 0
        while True:
            u_level = (
                position[self.nodes[u][0]] if u >= self.num_terminals else self.n
            )
            if self.rule is ReductionRule.ZDD:
                for lv in range(level, u_level):
                    if assignment[self.order[lv]]:
                        return 0
            if u < self.num_terminals:
                return self.terminal_values[u]
            var, lo, hi = self.nodes[u]
            u = hi if assignment[var] else lo
            level = u_level + 1

    def to_truth_tables(self) -> List[TruthTable]:
        out = []
        for index in range(len(self.roots)):
            values = [
                self.evaluate(index, [(a >> i) & 1 for i in range(self.n)])
                for a in range(1 << self.n)
            ]
            out.append(TruthTable(self.n, values))
        return out


def build_forest(
    tables: Sequence[TruthTable],
    order: Sequence[int],
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
) -> Forest:
    """Build the shared reduced forest of ``tables`` under ``order``."""
    n = tables[0].n
    if sorted(order) != list(range(n)):
        raise OrderingError(f"{order!r} is not an ordering of range({n})")
    state = initial_state_shared(tables, rule, track_nodes=True)
    for var in reversed(list(order)):
        state = compact(state, var, rule, counters)
    assert state.table.shape == (len(tables),)
    return Forest(
        n=n,
        rule=rule,
        order=tuple(order),
        roots=[int(r) for r in state.table],
        num_terminals=state.num_terminals,
        terminal_values=shared_terminal_values(tables, rule),
        nodes=state.nodes or {},
    )


def count_shared_subfunctions(
    tables: Sequence[TruthTable], order: Sequence[int]
) -> List[int]:
    """Independent width oracle for the shared forest.

    Width at level ``k`` = distinct dependent subfunctions over the
    remaining variables, pooled across all outputs and all assignments to
    the already-read variables.
    """
    n = tables[0].n
    if sorted(order) != list(range(n)):
        raise OrderingError(f"{order!r} is not an ordering of range({n})")
    perm = list(order)[::-1]
    permuted = [t.permute(perm).values for t in tables]
    widths: List[int] = []
    for k in range(n):
        rows = np.concatenate(
            [g.reshape(1 << k, 1 << (n - k)) for g in permuted], axis=0
        )
        half = 1 << (n - k - 1)
        depends = ~np.all(rows[:, :half] == rows[:, half:], axis=1)
        dependent_rows = rows[depends]
        if dependent_rows.shape[0] == 0:
            widths.append(0)
            continue
        widths.append(int(np.unique(dependent_rows, axis=0).shape[0]))
    return widths


def brute_force_shared(
    tables: Sequence[TruthTable],
    rule: ReductionRule = ReductionRule.BDD,
) -> Tuple[Tuple[int, ...], int]:
    """Exhaustive shared-ordering search (test baseline)."""
    import itertools

    n = tables[0].n
    state0 = initial_state_shared(tables, rule)
    best_order: Optional[Tuple[int, ...]] = None
    best_cost: Optional[int] = None
    for perm in itertools.permutations(range(n)):
        state = state0
        for var in reversed(perm):
            state = compact(state, var, rule)
        if best_cost is None or state.mincost < best_cost:
            best_cost = state.mincost
            best_order = perm
    assert best_order is not None and best_cost is not None
    return best_order, best_cost
