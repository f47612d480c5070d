"""Exact ordering under precedence constraints.

Synthesis flows often fix part of the ordering: control signals before
data, register fields kept contiguous, an interface's order imposed from
outside.  The FS lattice handles "x must be read before y" constraints
for free: a bottom set ``I`` is feasible iff it is closed under the
precedence's successors (if the earlier-read variable is already in the
bottom block, the later-read one must be too), and Lemma 4 restricted to
the feasible sub-lattice still yields the constrained optimum — every
feasible ordering's chain stays inside the feasible sets.

Complexity interpolates between ``O*(3^n)`` (no constraints) and
``O*(2^n)``-ish (a full chain forces a single path); the bench measures
exactly that shrinkage.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .._bitops import bits_of
from ..analysis.counters import OperationCounters
from ..errors import CacheError, DimensionError, OrderingError
from ..observability import Profiler
from ..truth_table import TruthTable
from .cache import ResultCache, chain_widths, raw_table_key
from .checkpoint import FaultInjector, RetryPolicy
from .engine import EngineConfig, run_layered_sweep
from .fs import initial_state
from .spec import ReductionRule

if TYPE_CHECKING:  # pragma: no cover - budget imports this package lazily
    from .budget import Budget
    from .executor import ExecutorBackend

Precedence = Sequence[Tuple[int, int]]  # (earlier, later) pairs


def _closure_masks(n: int, precedence: Precedence) -> List[int]:
    """``after_mask[v]`` = variables that must be read after ``v``
    (transitively), as bitmasks; raises on cycles."""
    successors: Dict[int, List[int]] = {v: [] for v in range(n)}
    for earlier, later in precedence:
        if not (0 <= earlier < n and 0 <= later < n):
            raise DimensionError(f"precedence ({earlier}, {later}) out of range")
        if earlier == later:
            raise OrderingError(f"variable {earlier} cannot precede itself")
        successors[earlier].append(later)

    after = [0] * n
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done

    def visit(v: int) -> None:
        if state[v] == 1:
            raise OrderingError("precedence constraints contain a cycle")
        if state[v] == 2:
            return
        state[v] = 1
        mask = 0
        for w in successors[v]:
            visit(w)
            mask |= (1 << w) | after[w]
        after[v] = mask
        state[v] = 2

    for v in range(n):
        visit(v)
    return after


def _feasible(mask: int, after: List[int]) -> bool:
    # If v is in the bottom block, everything read after v must be too.
    for v in bits_of(mask):
        if after[v] & ~mask:
            return False
    return True


@dataclass
class ConstrainedResult:
    """Outcome of the precedence-constrained exact search."""

    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    pi: Tuple[int, ...]
    mincost: int
    num_terminals: int
    feasible_subsets: int
    """Subset states the constrained DP actually evaluated (vs ``2^n``)."""

    counters: OperationCounters = field(default_factory=OperationCounters)

    from_cache: bool = False
    """True when served by a :class:`~repro.core.cache.ResultCache` hit."""

    @property
    def size(self) -> int:
        return self.mincost + self.num_terminals


def run_fs_constrained(
    table: TruthTable,
    precedence: Precedence,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    jobs: int = 1,
    backend: "str | ExecutorBackend" = "serial",
    profiler: Optional[Profiler] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    fault_injector: Optional[FaultInjector] = None,
    cache: Optional[ResultCache] = None,
    budget: Optional["Budget"] = None,
    io_retry: Optional[RetryPolicy] = None,
) -> ConstrainedResult:
    """Optimal ordering among those honoring every ``(earlier, later)``
    pair (``earlier`` is read closer to the root).

    With an empty precedence this is exactly :func:`repro.core.fs.run_fs`;
    with a total order it just costs the single feasible chain.  The
    shared execution engine restricts the sweep to the feasible
    sub-lattice via a subset filter, so constrained runs get the same
    layer parallelism, profiling and checkpoint/resume support for free.
    """
    if counters is None:
        counters = OperationCounters()
    n = table.n
    after = _closure_masks(n, precedence)
    full = (1 << n) - 1

    # The engine only sees the precedence as an opaque subset filter, so
    # fold its transitive closure into the checkpoint fingerprint: runs
    # with different constraints must never resume from each other.
    tag = "constrained:" + ",".join(f"{m:x}" for m in after)
    config = EngineConfig(
        jobs=jobs, backend=backend,
        profiler=profiler, checkpoint_dir=checkpoint_dir, resume=resume,
        fault_injector=fault_injector, checkpoint_tag=tag, cache=cache,
        budget=budget, io_retry=io_retry,
    )
    # Precedence constraints are tied to concrete variable names, so the
    # key hashes the raw table plus the closure — no canonicalization.
    fingerprint = None
    if cache is not None:
        fingerprint = raw_table_key(
            [table], rule, spec="constrained",
            extra={"after": [f"{m:x}" for m in after]},
        )
        with (profiler.phase("cache_lookup") if profiler is not None
              else nullcontext()):
            entry = cache.lookup(fingerprint)
        counters.add_extra("cache_hits" if entry is not None
                           else "cache_misses")
        if entry is not None:
            order = tuple(int(v) for v in entry.get("order", ()))
            if (
                entry.get("kind") != "constrained"
                or sorted(order) != list(range(n))
            ):
                raise CacheError(
                    f"cache entry {fingerprint} holds a malformed "
                    "constrained-ordering payload"
                )
            return ConstrainedResult(
                n=n,
                rule=rule,
                order=order,
                pi=tuple(reversed(order)),
                mincost=int(entry["mincost"]),
                num_terminals=int(entry["num_terminals"]),
                feasible_subsets=int(entry["feasible_subsets"]),
                counters=counters,
                from_cache=True,
            )
    outcome = run_layered_sweep(
        initial_state(table, rule),
        full,
        rule=rule,
        counters=counters,
        config=config,
        subset_filter=lambda mask: _feasible(mask, after),
    )
    final = outcome.frontier[full]
    pi = final.pi
    order = tuple(reversed(pi))
    if cache is not None and fingerprint is not None:
        with (profiler.phase("cache_store") if profiler is not None
              else nullcontext()):
            cache.store(fingerprint, {
                "kind": "constrained",
                "order": list(order),
                "widths": chain_widths(
                    order, outcome.level_cost_by_choice, n
                ),
                "mincost": final.mincost,
                "num_terminals": final.num_terminals,
                "feasible_subsets": outcome.subsets_processed,
            })
        counters.add_extra("cache_stores")
    return ConstrainedResult(
        n=n,
        rule=rule,
        order=order,
        pi=pi,
        mincost=final.mincost,
        num_terminals=final.num_terminals,
        feasible_subsets=outcome.subsets_processed,
        counters=counters,
    )


def order_satisfies(order: Sequence[int], precedence: Precedence) -> bool:
    """Check a read-first-to-read-last ordering against the constraints."""
    position = {v: i for i, v in enumerate(order)}
    return all(position[earlier] < position[later]
               for earlier, later in precedence)
