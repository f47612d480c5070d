"""Algorithm FS*: the composable generalization of FS (Lemma 8).

Where FS always starts from ``FS(emptyset)`` and places *all* variables,
FS* starts from an arbitrary already-computed quadruple
``FS(<I_1, ..., I_m>)`` and optimally places only the variables of a
further set ``J`` on top of it, justified by Lemma 7::

    MINCOST_(I.., J) = min_{k in J} MINCOST_(I.., J\\k, k)

Its cost is ``O*(2^{n - |I| - |J|} * 3^{|J|})`` table cells — the paper's
Classical Composition Lemma — which the counters measure exactly.  Stopping
the DP at prefix size ``k`` yields ``{FS(<I.., K>) : K subset of J, |K| = k}``,
the preprocessing step of the quantum algorithms.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .._bitops import bits_of, popcount
from ..analysis.counters import OperationCounters
from ..errors import CacheError, DimensionError
from .compaction import compact
from .engine import EngineConfig, run_layered_sweep
from .spec import FSState, ReductionRule


def fs_star_levels(
    base: FSState,
    j_mask: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    upto: Optional[int] = None,
    config: Optional[EngineConfig] = None,
) -> Dict[int, FSState]:
    """Run the FS* dynamic program over subsets of ``j_mask``.

    Parameters
    ----------
    base:
        The starting quadruple ``FS(<I_1, ..., I_m>)``.
    j_mask:
        Bitmask of the set ``J``; must be disjoint from ``base.mask``.
    upto:
        Stop after prefix size ``upto`` (defaults to ``|J|``).
    config:
        Optional :class:`~repro.core.engine.EngineConfig` selecting the
        layer parallelism and profiler; the sweep itself runs on the shared execution engine.

    Returns
    -------
    dict
        Mapping each ``K`` sub-mask with ``|K| == upto`` to its optimal
        state ``FS(<I.., K>)``.  (States for smaller prefixes are internal
        and released as the DP advances, matching the paper's Remark 1 on
        space.)
    """
    if j_mask & base.mask:
        raise DimensionError(
            f"J mask {j_mask:#x} overlaps already-placed variables "
            f"{base.mask:#x}"
        )
    if j_mask & ~base.free_mask:
        raise DimensionError(f"J mask {j_mask:#x} mentions out-of-range variables")
    size_j = popcount(j_mask)
    if upto is None:
        upto = size_j
    if not 0 <= upto <= size_j:
        raise ValueError(f"upto={upto} out of range for |J|={size_j}")
    if upto == 0:
        return {0: base}
    # Preserve the historical contract that a ``None`` counters argument
    # leaves the caller's instrumentation untouched.
    outcome = run_layered_sweep(
        base,
        j_mask,
        rule=rule,
        counters=counters if counters is not None else OperationCounters(),
        config=config,
        upto=upto,
    )
    return outcome.frontier


def run_fs_star(
    base: FSState,
    j_mask: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    config: Optional[EngineConfig] = None,
) -> FSState:
    """Produce the single quadruple ``FS(<I_1, ..., I_m, J>)`` (Lemma 8).

    With a :class:`~repro.core.cache.ResultCache` on ``config``, solved
    ``(base table, J)`` pairs store their optimal placement chain; a hit
    rematerializes the state by replaying that chain — ``O(|J|)``
    compactions instead of an ``O*(3^{|J|})`` sweep, bit-identical by
    Lemma 3: the subfunction partition depends only on the subset.  Replay
    work is tallied under the ``cache_replay_*`` extra counters so the
    paper-facing totals stay exact.
    """
    if j_mask == 0:
        return base
    budget = config.budget if config is not None else None
    if budget is not None:
        # The layered sweep re-checks at every layer boundary; this entry
        # check additionally covers the cache-replay short-circuit, which
        # never enters the engine.
        budget.ensure_armed()
        budget.check(counters=counters, where="fs_star entry")
    cache = config.cache if config is not None else None
    fingerprint = None
    if cache is not None:
        from .cache import state_key  # deferred: cache imports .spec only

        fingerprint = state_key(base, j_mask, rule)
        entry = cache.lookup(fingerprint)
        if counters is not None:
            counters.add_extra(
                "cache_hits" if entry is not None else "cache_misses"
            )
        if entry is not None:
            suffix = [int(v) for v in entry.get("suffix", ())]
            if (
                entry.get("kind") != "fs_star"
                or sorted(suffix) != sorted(bits_of(j_mask))
            ):
                raise CacheError(
                    f"cache entry {fingerprint} holds a malformed FS* "
                    f"chain for J mask {j_mask:#x}"
                )
            scratch = OperationCounters()
            state = base
            for var in suffix:
                state = compact(state, var, rule, scratch)
            if state.mincost != int(entry["mincost"]):
                raise CacheError(
                    f"cache entry {fingerprint}: replayed FS* chain yields "
                    f"mincost {state.mincost}, stored {entry['mincost']}"
                )
            if counters is not None:
                counters.add_extra("cache_replay_compactions",
                                   scratch.compactions)
                counters.add_extra("cache_replay_cells", scratch.table_cells)
            return state
    levels = fs_star_levels(base, j_mask, rule, counters, config=config)
    final = levels[j_mask]
    if cache is not None and fingerprint is not None:
        cache.store(fingerprint, {
            "kind": "fs_star",
            "suffix": [int(v) for v in final.pi[len(base.pi):]],
            "mincost": final.mincost,
        })
        if counters is not None:
            counters.add_extra("cache_stores")
    return final


# Type of "composable solvers": anything that extends a state over a mask.
# FS* is the base instance; the quantum OptOBDD wrappers in
# :mod:`repro.core.composed` share this signature (the paper's Gamma).
ComposableSolver = Callable[[FSState, int], FSState]


def make_fs_star_solver(
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
) -> ComposableSolver:
    """FS* packaged with fixed rule/counters as a :data:`ComposableSolver`."""

    def solver(base: FSState, j_mask: int) -> FSState:
        return run_fs_star(base, j_mask, rule, counters)

    return solver
