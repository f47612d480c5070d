"""The stable front door: ``repro.solve()``.

The repo grew five DP entry points — full FS, shared/multi-rooted FS,
precedence-constrained FS, the exact-window sweep and composable FS* —
each with its own result dataclass and calling convention, because each
is a distinct object of study in the paper.  Scripts that just want "the
best ordering for this problem, by that method" shouldn't need to know
five signatures, so :func:`solve` dispatches on ``method=`` and returns
one :class:`OrderingSolution` shape for all of them.  The ``run_*``
functions remain the full-fidelity interfaces (every method-specific
field lives on ``OrderingSolution.result``); ``solve`` is sugar over
them, never a fork of their logic.

Engine knobs (``jobs=``, ``backend=``, ``frontier=``, ``profiler=``,
``checkpoint_dir=``, ``resume=``, ``cache=``, ``budget=``,
``io_retry=``) pass through uniformly — including to
``window`` and ``fs_star``, which natively take an
:class:`~repro.core.engine.EngineConfig` that :func:`solve` assembles
for you.

Orthogonal to ``method=`` sits the **strategy axis**: ``strategy=``
selects *how hard to try* rather than *what to compute*.
``"exact"`` (the default) runs the chosen method as-is;
``"fallback"`` runs the budget-degradation ladder
(:func:`repro.core.budget.run_ladder`); ``"portfolio"`` races every registered
heuristic (:func:`repro.portfolio.run_portfolio`) and returns the
deterministic winner; and any single registered strategy name (see
:func:`repro.portfolio.available_strategies`) runs that heuristic
standalone.  Inexact strategies always come back ``exact=False`` so
``certify``-style consumers refuse them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .analysis.counters import OperationCounters
from .core.engine import EngineConfig
from .core.spec import FSState, ReductionRule
from .observability import Profiler
from .truth_table import TruthTable

METHODS = ("fs", "shared", "constrained", "window", "fs_star")

# The uniformly accepted engine kwargs: EngineConfig fields, and the
# same-named parameters of the run_* entry points.
_ENGINE_KWARGS = (
    "jobs", "backend", "frontier", "profiler",
    "checkpoint_dir", "resume", "fault_injector", "cache", "budget",
    "io_retry", "max_pool_rebuilds",
)


@dataclass
class OrderingSolution:
    """What every :func:`solve` method returns.

    The common core of the five DPs: an ordering, its cost, whether the
    method guarantees optimality, and the instrumentation that proves
    what it did.  Method-specific riches (the full ``MINCOST_I`` table,
    window trajectory, ...) stay on :attr:`result`.
    """

    method: str
    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    """Best ordering found, read-first to read-last."""

    mincost: int
    """Internal nodes of the diagram under :attr:`order` (for ``shared``,
    of the whole forest)."""

    exact: bool
    """True when the method guarantees :attr:`order` is globally optimal
    (``fs``/``shared``/``constrained``/``fs_star``); the window sweep is
    locally exact but globally heuristic, so ``False``."""

    counters: OperationCounters
    num_terminals: Optional[int] = None
    profile: Optional[Profiler] = None
    """The profiler passed in ``engine_kwargs``, if any, after the run."""

    result: Any = None
    """The method's native result object (``FSResult``,
    ``ConstrainedResult``, ``WindowResult``, the final ``FSState``, a
    ``FallbackResult``, a ``StrategyResult`` or a ``PortfolioResult``)."""

    strategy: str = "exact"
    """Which ``solve(strategy=...)`` axis produced this solution:
    ``"exact"``, ``"fallback"``, ``"portfolio"`` or a registered
    strategy name."""

    rung: Optional[str] = None
    """For inexact strategies, the specific producer of :attr:`order`:
    the ladder rung that completed (``strategy="fallback"``), the
    winning member (``strategy="portfolio"``), or the strategy itself.
    ``None`` for plain exact solves."""

    @property
    def size(self) -> int:
        """Total node count including terminals (Figure 1 convention)."""
        return self.mincost + (self.num_terminals or 0)

    @property
    def from_cache(self) -> bool:
        """True when the native result was served by a
        :class:`~repro.core.cache.ResultCache` hit (zero kernel work);
        methods without cache support simply report ``False``."""
        return bool(getattr(self.result, "from_cache", False))

    def to_wire(self) -> Dict[str, Any]:
        """JSON-able summary of this solution — the ``result`` body the
        :mod:`repro.serve` daemon returns.  Single ``solve`` responses
        and ``solve_many`` per-item bodies both come from here, which is
        what makes them bit-identical by construction."""
        return {
            "method": self.method,
            "strategy": self.strategy,
            "rung": self.rung,
            "rule": self.rule.value,
            "n": self.n,
            "order": list(self.order),
            "mincost": self.mincost,
            "size": self.size,
            "num_terminals": self.num_terminals,
            "exact": self.exact,
            "from_cache": self.from_cache,
            "counters": self.counters.snapshot(),
        }


def _as_table(problem: Any, n: Optional[int] = None) -> TruthTable:
    if isinstance(problem, TruthTable):
        return problem
    from .expr import to_truth_table  # deferred: expr imports this package

    return to_truth_table(problem, n)


def _split_engine_kwargs(
    method: str, kwargs: Dict[str, Any]
) -> Dict[str, Any]:
    unknown = sorted(set(kwargs) - set(_ENGINE_KWARGS))
    if unknown:
        raise TypeError(
            f"solve(method={method!r}) got unexpected keyword argument(s) "
            f"{unknown}; engine options are {sorted(_ENGINE_KWARGS)}"
        )
    return kwargs


def _engine_config(method: str, kwargs: Dict[str, Any]) -> EngineConfig:
    return EngineConfig(**_split_engine_kwargs(method, kwargs))


# The subset of engine kwargs the inexact strategy paths accept (no
# frontier policy / fault injection / io_retry: strategies run many
# small exact sweeps and never checkpoint mid-heuristic).
_STRATEGY_ENGINE_KWARGS = (
    "jobs", "backend", "profiler", "cache",
    "budget", "checkpoint_dir", "resume", "max_pool_rebuilds",
)


def _strategy_engine_kwargs(
    strategy: str, kwargs: Dict[str, Any]
) -> Dict[str, Any]:
    unknown = sorted(set(kwargs) - set(_STRATEGY_ENGINE_KWARGS))
    if unknown:
        raise TypeError(
            f"solve(strategy={strategy!r}) got unexpected keyword "
            f"argument(s) {unknown}; engine options are "
            f"{sorted(_STRATEGY_ENGINE_KWARGS)}"
        )
    return dict(kwargs)


def solve(
    problem: Any,
    *,
    method: str = "fs",
    strategy: str = "exact",
    strategies: Optional[Tuple[str, ...]] = None,
    fallback_rungs: Any = None,
    seed: int = 0,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    n: Optional[int] = None,
    precedence: Any = None,
    j_mask: Optional[int] = None,
    initial_order: Optional[Tuple[int, ...]] = None,
    width: int = 3,
    max_rounds: int = 10,
    **engine_kwargs: Any,
) -> OrderingSolution:
    """Find a variable ordering for ``problem`` by the chosen method.

    Parameters
    ----------
    problem:
        What to optimize.  For ``fs``/``constrained``/``window``: a
        :class:`~repro.truth_table.TruthTable`, or anything
        :func:`repro.expr.to_truth_table` accepts (pass ``n=`` for a bare
        callable).  For ``shared``: a sequence of such.  For ``fs_star``:
        a base :class:`~repro.core.spec.FSState` whose chain the solve
        extends.
    method:
        ``"fs"`` — the exact ``O*(3^n)`` DP (the paper's Theorem 5);
        ``"shared"`` — exact over a multi-output forest;
        ``"constrained"`` — exact among orderings honoring
        ``precedence=`` (a sequence of ``(earlier, later)`` pairs);
        ``"window"`` — the Lemma-8 exact-window sweep (``initial_order=``
        / ``width=`` / ``max_rounds=``), locally exact, globally
        heuristic; ``"fs_star"`` — optimally place the variables of
        ``j_mask=`` below an existing chain (Lemma 8 composability).
    strategy:
        How hard to try (orthogonal to ``method``, which must stay
        ``"fs"`` for anything but ``"exact"``): ``"exact"`` runs the
        method as-is; ``"fallback"`` runs the degradation ladder
        (``fallback_rungs=`` names the rungs, built-in or registered
        strategies, default ``fs → window → sift``); ``"portfolio"``
        races registered heuristics (``strategies=`` restricts the
        field, ``seed=`` feeds the stochastic members) and returns the
        deterministic best-``(size, name)`` winner; any registered
        strategy name runs that one heuristic standalone.
    counters:
        Optional instrumentation sink (a fresh one is created and
        returned on the solution otherwise).
    **engine_kwargs:
        Uniform execution knobs, identical across methods: ``jobs``,
        ``backend``, ``frontier``, ``profiler``, ``checkpoint_dir``,
        ``resume``, ``fault_injector``, ``cache``, ``budget``,
        ``io_retry``, ``max_pool_rebuilds``.

    Returns
    -------
    OrderingSolution
        The method-independent view; the native result object rides on
        ``.result``.
    """
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {list(METHODS)}"
        )
    if counters is None:
        counters = OperationCounters()
    profile = engine_kwargs.get("profiler")

    if strategy != "exact":
        if method != "fs":
            raise TypeError(
                f"solve(strategy={strategy!r}) only supports method='fs' "
                f"(got method={method!r}); inexact strategies search "
                "orderings of a single table"
            )
        return _solve_strategy(
            problem, strategy=strategy, strategies=strategies,
            fallback_rungs=fallback_rungs, seed=seed, rule=rule,
            counters=counters, n=n, initial_order=initial_order,
            width=width, max_rounds=max_rounds, profile=profile,
            engine_kwargs=engine_kwargs,
        )
    if strategies is not None:
        raise TypeError(
            "solve() got strategies= without strategy='portfolio'"
        )
    if fallback_rungs is not None:
        raise TypeError(
            "solve() got fallback_rungs= without strategy='fallback'"
        )

    if method == "fs":
        from .core.fs import run_fs

        table = _as_table(problem, n)
        result = run_fs(
            table, rule=rule, counters=counters,
            **_split_engine_kwargs(method, engine_kwargs),
        )
        return OrderingSolution(
            method=method, n=result.n, rule=rule, order=result.order,
            mincost=result.mincost, exact=True, counters=result.counters,
            num_terminals=result.num_terminals, profile=profile,
            result=result,
        )

    if method == "shared":
        from .core.shared import run_fs_shared

        tables = [_as_table(t, n) for t in problem]
        result = run_fs_shared(
            tables, rule=rule, counters=counters,
            **_split_engine_kwargs(method, engine_kwargs),
        )
        return OrderingSolution(
            method=method, n=result.n, rule=rule, order=result.order,
            mincost=result.mincost, exact=True, counters=result.counters,
            num_terminals=result.num_terminals, profile=profile,
            result=result,
        )

    if method == "constrained":
        from .core.constrained import run_fs_constrained

        if precedence is None:
            raise TypeError(
                "solve(method='constrained') requires precedence= — a "
                "sequence of (earlier, later) variable pairs"
            )
        table = _as_table(problem, n)
        result = run_fs_constrained(
            table, precedence, rule=rule, counters=counters,
            **_split_engine_kwargs(method, engine_kwargs),
        )
        return OrderingSolution(
            method=method, n=result.n, rule=rule, order=result.order,
            mincost=result.mincost, exact=True, counters=result.counters,
            num_terminals=result.num_terminals, profile=profile,
            result=result,
        )

    if method == "window":
        from .core.fs import terminal_values
        from .core.window import window_sweep

        table = _as_table(problem, n)
        result = window_sweep(
            table,
            initial_order=initial_order,
            width=width,
            rule=rule,
            max_rounds=max_rounds,
            counters=counters,
            config=_engine_config(method, engine_kwargs),
        )
        return OrderingSolution(
            method=method, n=table.n, rule=rule, order=result.order,
            mincost=result.size, exact=False, counters=result.counters,
            num_terminals=len(terminal_values(table, rule)),
            profile=profile, result=result,
        )

    # method == "fs_star"
    from .core.fs_star import run_fs_star

    if not isinstance(problem, FSState):
        raise TypeError(
            "solve(method='fs_star') takes a base FSState problem "
            f"(got {type(problem).__name__}); build one with "
            "repro.core.fs.initial_state and optional kernel steps"
        )
    if j_mask is None:
        raise TypeError(
            "solve(method='fs_star') requires j_mask= — the mask of "
            "variables to place optimally below the existing chain"
        )
    final = run_fs_star(
        problem, j_mask, rule, counters,
        config=_engine_config(method, engine_kwargs),
    )
    return OrderingSolution(
        method=method, n=final.n, rule=rule,
        order=tuple(reversed(final.pi)), mincost=final.mincost,
        exact=True, counters=counters,
        num_terminals=final.num_terminals, profile=profile, result=final,
    )


def _solve_strategy(
    problem: Any,
    *,
    strategy: str,
    strategies: Optional[Tuple[str, ...]],
    fallback_rungs: Any,
    seed: int,
    rule: ReductionRule,
    counters: OperationCounters,
    n: Optional[int],
    initial_order: Optional[Tuple[int, ...]],
    width: int,
    max_rounds: int,
    profile: Optional[Profiler],
    engine_kwargs: Dict[str, Any],
) -> OrderingSolution:
    """The inexact side of :func:`solve`: ladder, portfolio, or one
    registered strategy.  Always ``method="fs"`` (the orderings are
    scored by exact FS-family sweeps) and ``exact`` only when the
    ladder's exact rung finished."""
    if strategies is not None and strategy != "portfolio":
        raise TypeError(
            "solve() got strategies= without strategy='portfolio'"
        )
    if fallback_rungs is not None and strategy != "fallback":
        raise TypeError(
            "solve() got fallback_rungs= without strategy='fallback'"
        )
    table = _as_table(problem, n)
    kwargs = _strategy_engine_kwargs(strategy, engine_kwargs)

    if strategy == "fallback":
        from .core.budget import run_ladder

        outcome = run_ladder(
            table,
            budget=kwargs.get("budget"),
            rule=rule,
            counters=counters,
            jobs=kwargs.get("jobs", 1),
            backend=kwargs.get("backend", "thread"),
            cache=kwargs.get("cache"),
            profiler=kwargs.get("profiler"),
            window_width=width,
            checkpoint_dir=kwargs.get("checkpoint_dir"),
            resume=kwargs.get("resume", False),
            fallback_rungs=fallback_rungs,
        )
        return OrderingSolution(
            method="fs", n=outcome.n, rule=rule, order=outcome.order,
            mincost=outcome.mincost, exact=outcome.exact,
            counters=outcome.counters, num_terminals=outcome.num_terminals,
            profile=profile, result=outcome, strategy=strategy,
            rung=outcome.rung,
        )

    config = EngineConfig(
        jobs=kwargs.get("jobs", 1),
        backend=kwargs.get("backend", "thread"),
        profiler=kwargs.get("profiler"),
        cache=kwargs.get("cache"),
        budget=kwargs.get("budget"),
        checkpoint_dir=kwargs.get("checkpoint_dir"),
        resume=kwargs.get("resume", False),
        max_pool_rebuilds=kwargs.get("max_pool_rebuilds"),
        strategy=strategy,
    )

    if strategy == "portfolio":
        from .portfolio import run_portfolio

        presult = run_portfolio(
            table, strategies=strategies, rule=rule, counters=counters,
            seed=seed, initial_order=initial_order, max_rounds=max_rounds,
            config=config,
        )
        return OrderingSolution(
            method="fs", n=presult.n, rule=rule, order=presult.order,
            mincost=presult.mincost, exact=False, counters=presult.counters,
            num_terminals=presult.num_terminals, profile=profile,
            result=presult, strategy=strategy, rung=presult.winner,
        )

    from .portfolio import run_strategy

    sresult = run_strategy(
        strategy, table, rule=rule, counters=counters, seed=seed,
        initial_order=initial_order, max_rounds=max_rounds, config=config,
    )
    return OrderingSolution(
        method="fs", n=sresult.n, rule=rule, order=sresult.order,
        mincost=sresult.mincost, exact=False, counters=sresult.counters,
        num_terminals=sresult.num_terminals, profile=profile,
        result=sresult, strategy=strategy, rung=strategy,
    )
