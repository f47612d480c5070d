"""Resource-governed execution: budgets, cancellation, degradation.

The FS dynamic program is ``O*(3^n)`` in both time and space (Theorem 5),
so a production deployment *will* meet inputs that cannot finish exactly
inside a request's time or memory envelope.  Before this module such a
run either ground on forever or died with a raw ``MemoryError``.  Now
every engine-backed entry point can be handed a :class:`Budget`:

* **Wall-clock deadline** — seconds allowed from the moment the budget
  is :meth:`armed <Budget.arm>` (the first governed operation arms it
  automatically).
* **Frontier caps** — maximum retained DP-frontier entries and/or bytes,
  the quantity that actually exhausts memory (``C(n, n/2)`` states of
  ``2^{n/2}`` cells at the waist).
* **Cooperative cancellation** — a shared :class:`threading.Event`; set
  it from a signal handler (see :func:`handle_signals`) or another
  thread and the run stops at its next boundary.

The engine (:func:`repro.core.engine.run_layered_sweep`) checks the
budget at every **layer boundary** — never mid-kernel — so the abort
point is deterministic for any ``jobs`` value and the state at the raise
is exactly a finished layer.  With ``checkpoint_dir`` set, that layer is
already durably checkpointed when :class:`~repro.errors.BudgetExceeded`
propagates, and the exception names the file: a later resume with a
larger (or no) budget continues **bit-identically** in results and
counters, reusing the crash-safety machinery unchanged.

On top of the budget sits a **degradation ladder**,
:func:`run_ladder`: try the exact DP, and when its share of
the budget is exhausted step down to the Lemma-8 exact-window sweep,
then to Rudell sifting — each rung cheaper and less exact than the one
above, the last rung always completing (it honors cancellation but no
deadline) so a governed call always yields *an* ordering.  The returned
:class:`FallbackResult` is explicitly tagged with ``exact`` and the
``rung`` that produced it; sifting-style reordering and cheap heuristics
as the fallback tier follow the hybrid-reordering literature (Popel's
information-measure reordering, Grumberg et al.'s learned orderings).

Observability: budget checks run under the ``budget_check`` profiler
phase, an abort tallies the ``budget_aborts`` extra counter, a rung
step-down tallies ``fallback_used``, and durable-I/O retries (see
:class:`~repro.core.checkpoint.RetryPolicy`) tally ``retries``.
"""

from __future__ import annotations

import signal
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..analysis.counters import OperationCounters
from ..errors import BudgetExceeded, OrderingError
from ..observability import Profiler
from .checkpoint import RetryPolicy  # re-exported: the governance toolkit
from .spec import ReductionRule

__all__ = [
    "Budget",
    "BudgetExceeded",
    "DEFAULT_LADDER",
    "FallbackResult",
    "RetryPolicy",
    "RungAttempt",
    "handle_signals",
    "parse_ladder",
    "run_ladder",
]


class Budget:
    """Resource envelope for one governed run (or a whole batch item).

    All limits are optional; a default-constructed budget never trips on
    its own and only reacts to :attr:`cancel`.  One budget may span many
    sweeps (a window sweep runs dozens of FS* solves; a ladder runs
    several rungs): the deadline clock starts at the first :meth:`arm`
    and is shared by everything downstream.

    Parameters
    ----------
    deadline:
        Wall-clock seconds allowed from :meth:`arm`; ``None`` = no limit.
    max_frontier_entries / max_frontier_bytes:
        Caps on the retained DP frontier, checked after each layer
        commits (so the offending layer is already checkpointed and a
        resume under a bigger budget loses nothing).  The byte figure is
        the layer's exact payload
        (:attr:`~repro.core.frontier.Layer.nbytes`), so a cap aborts at
        the same layer for every backend and job count.
    cancel:
        Cooperative cancellation event; shared between a parent budget
        and every :meth:`subbudget`, and with :func:`handle_signals`.
    clock:
        Monotonic-seconds callable, injectable for deterministic tests.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_frontier_entries: Optional[int] = None,
        max_frontier_bytes: Optional[int] = None,
        cancel: Optional[threading.Event] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        if max_frontier_entries is not None and max_frontier_entries < 1:
            raise ValueError(
                f"max_frontier_entries must be >= 1, got {max_frontier_entries}"
            )
        if max_frontier_bytes is not None and max_frontier_bytes < 1:
            raise ValueError(
                f"max_frontier_bytes must be >= 1, got {max_frontier_bytes}"
            )
        self.deadline = deadline
        self.max_frontier_entries = max_frontier_entries
        self.max_frontier_bytes = max_frontier_bytes
        self.cancel = cancel if cancel is not None else threading.Event()
        self.clock = clock
        self._started_at: Optional[float] = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def arm(self) -> "Budget":
        """Start the deadline clock (idempotent); returns ``self``.

        Re-arming is a no-op by design (one budget legitimately spans
        many sweeps), but re-arming a budget whose deadline is *already
        exhausted* is almost always the daemon-reuse footgun: a budget
        object recycled across requests inherits the first request's
        clock, so every later request is born over budget.  That case
        emits a :class:`RuntimeWarning` — derive a fresh
        :meth:`subbudget` per request instead (``repro.serve`` does).
        """
        with self._lock:
            if self._started_at is None:
                self._started_at = self.clock()
                return self
        if (
            self.deadline is not None
            and self.elapsed() > self.deadline
        ):
            warnings.warn(
                f"re-arming an exhausted Budget (deadline {self.deadline:g}s, "
                f"elapsed {self.elapsed():.3f}s): the clock keeps its "
                "original start, so every run under this budget will abort "
                "immediately; derive a fresh subbudget() per request instead",
                RuntimeWarning,
                stacklevel=2,
            )
        return self

    def ensure_armed(self) -> "Budget":
        """Arm if not yet armed, silently.

        The engine and the multi-sweep entry points (window sweep, FS*)
        call this at every inner sweep purely to guarantee the clock is
        running; mid-run the deadline may legitimately already be
        exhausted (the very next :meth:`check` reports it), so this
        never warns.  External callers starting a *new* governed
        operation should call :meth:`arm`, which does.
        """
        with self._lock:
            if self._started_at is None:
                self._started_at = self.clock()
        return self

    @property
    def armed(self) -> bool:
        return self._started_at is not None

    def elapsed(self) -> float:
        """Seconds since :meth:`arm` (0.0 before arming)."""
        if self._started_at is None:
            return 0.0
        return self.clock() - self._started_at

    def remaining(self) -> Optional[float]:
        """Seconds left on the deadline (``None`` = unlimited, >= 0.0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def cancelled(self) -> bool:
        return self.cancel.is_set()

    def subbudget(self, deadline: Optional[float]) -> "Budget":
        """A child budget with its own deadline, sharing cancellation,
        the clock and the frontier caps (a ladder rung's share)."""
        return Budget(
            deadline=deadline,
            max_frontier_entries=self.max_frontier_entries,
            max_frontier_bytes=self.max_frontier_bytes,
            cancel=self.cancel,
            clock=self.clock,
        )

    # -- checks --------------------------------------------------------

    def exceeded_reason(
        self,
        frontier_entries: Optional[int] = None,
        frontier_bytes: Optional[int] = None,
    ) -> Optional[Tuple[str, str]]:
        """``(reason, detail)`` when a limit has tripped, else ``None``.

        Cancellation outranks the deadline, which outranks the frontier
        caps, so concurrent trips report deterministically.
        """
        if self.cancel.is_set():
            return "cancelled", "cancellation requested"
        if self.deadline is not None and self.elapsed() > self.deadline:
            return "deadline", (
                f"wall-clock budget of {self.deadline:g}s exhausted "
                f"after {self.elapsed():.3f}s"
            )
        if (
            self.max_frontier_entries is not None
            and frontier_entries is not None
            and frontier_entries > self.max_frontier_entries
        ):
            return "frontier_entries", (
                f"frontier holds {frontier_entries} states, cap "
                f"{self.max_frontier_entries}"
            )
        if (
            self.max_frontier_bytes is not None
            and frontier_bytes is not None
            and frontier_bytes > self.max_frontier_bytes
        ):
            return "frontier_bytes", (
                f"frontier holds {frontier_bytes} bytes, cap "
                f"{self.max_frontier_bytes}"
            )
        return None

    def check(
        self,
        counters: Optional[OperationCounters] = None,
        frontier_entries: Optional[int] = None,
        frontier_bytes: Optional[int] = None,
        layers_completed: Optional[int] = None,
        best_bound: Optional[int] = None,
        best_order: Optional[Tuple[int, ...]] = None,
        checkpoint_path: Optional[str] = None,
        where: str = "layer boundary",
    ) -> None:
        """Raise :class:`~repro.errors.BudgetExceeded` if a limit tripped.

        Callers pass whatever progress they can describe; it all lands on
        the exception so an operator (or the degradation ladder) can act
        on it — resume from ``checkpoint_path``, reuse ``best_order``,
        report ``best_bound``.  Tallies the ``budget_aborts`` extra
        counter exactly once per raise.
        """
        verdict = self.exceeded_reason(frontier_entries, frontier_bytes)
        if verdict is None:
            return
        reason, detail = verdict
        if counters is not None:
            counters.add_extra("budget_aborts")
        bits = [detail, f"at {where}"]
        if layers_completed is not None:
            bits.append(f"{layers_completed} layers completed")
        if best_bound is not None:
            bits.append(f"best-so-far bound {best_bound}")
        if checkpoint_path is not None:
            bits.append(f"last committed checkpoint {checkpoint_path}")
        raise BudgetExceeded(
            "; ".join(bits),
            reason=reason,
            elapsed_seconds=self.elapsed(),
            layers_completed=layers_completed,
            best_bound=best_bound,
            best_order=best_order,
            checkpoint_path=checkpoint_path,
            where=where,
        )


@contextmanager
def handle_signals(budget: Budget) -> Iterator[bool]:
    """Route SIGINT/SIGTERM into ``budget.cancel`` while the block runs.

    On the first signal the handler only sets the cancellation event:
    every governed sweep then stops at its next layer boundary — *after*
    that layer's checkpoint committed, so the final checkpoint is always
    flushed before the process winds down — and surfaces a
    :class:`~repro.errors.BudgetExceeded` with ``reason="cancelled"``
    instead of dying mid-write.  A second SIGINT falls back to Python's
    default ``KeyboardInterrupt`` so a hung run can still be killed.

    Yields ``True`` when the handlers were installed; ``False`` off the
    main thread, where CPython forbids ``signal.signal``.  The no-op
    path emits a :class:`RuntimeWarning` — an embedder calling this from
    a worker thread would otherwise run *ungoverned* without any sign of
    it.  Long-lived embeddings should route signals through
    ``loop.add_signal_handler`` into ``budget.cancel`` instead, which is
    what the :mod:`repro.serve` daemon does.
    """
    if threading.current_thread() is not threading.main_thread():
        warnings.warn(
            "handle_signals() is a no-op off the main thread: "
            "SIGINT/SIGTERM will NOT reach this budget's cancellation "
            "event; install from the main thread, or route signals via "
            "loop.add_signal_handler into budget.cancel (see repro.serve)",
            RuntimeWarning,
            stacklevel=3,
        )
        yield False
        return
    previous: Dict[int, Any] = {}

    def on_signal(signum: int, frame: Any) -> None:
        if budget.cancel.is_set() and signum == signal.SIGINT:
            raise KeyboardInterrupt
        budget.cancel.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, on_signal)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield True
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


# ----------------------------------------------------------------------
# the degradation ladder
# ----------------------------------------------------------------------

DEFAULT_LADDER: Tuple[str, ...] = ("fs", "window", "sift")
"""Exact DP -> exact-window sweep (Lemma 8) -> Rudell sifting."""


@dataclass
class RungAttempt:
    """One ladder rung's outcome (kept for postmortems/reporting)."""

    rung: str
    status: str
    """``"ok"`` or ``"budget_exceeded"``."""

    seconds: float
    detail: str = ""


@dataclass
class FallbackResult:
    """What :func:`run_ladder` returns: an ordering plus an honest
    statement of how good it is and what produced it."""

    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    mincost: int
    """Internal nodes of the diagram under :attr:`order` — the true
    optimum iff :attr:`exact`, otherwise the achieved upper bound."""

    num_terminals: int
    exact: bool
    """True only when the exact DP rung finished inside its budget."""

    rung: str
    """Which ladder rung produced the ordering."""

    attempts: List[RungAttempt] = field(default_factory=list)
    """Every rung tried, in ladder order, with its outcome."""

    counters: OperationCounters = field(default_factory=OperationCounters)
    result: Any = None
    """The producing rung's native result object
    (:class:`~repro.core.fs.FSResult`,
    :class:`~repro.core.window.WindowResult` or
    :class:`~repro.portfolio.SearchResult` or
    :class:`~repro.portfolio.StrategyResult`)."""

    @property
    def size(self) -> int:
        """Total node count including terminals (Figure 1 convention)."""
        return self.mincost + self.num_terminals

    @property
    def from_cache(self) -> bool:
        return bool(getattr(self.result, "from_cache", False))


def _governed_size_fn(
    rule: ReductionRule,
    counters: OperationCounters,
    budget: Budget,
):
    """Ordering-size oracle for the sifting rung: exact chain cost under
    ``rule`` (total nodes, terminals included, matching
    :func:`repro.truth_table.obdd_size`'s convention), with a budget
    check per evaluation so even the heuristic rung honors cancellation
    promptly."""
    from .compaction import compact
    from .fs import initial_state, terminal_values

    def size_fn(table: Any, order: Sequence[int]) -> int:
        budget.check(counters=counters, where="sift evaluation")
        state = initial_state(table, rule)
        for var in reversed(list(order)):
            state = compact(state, var, rule, counters)
        return state.mincost + len(terminal_values(table, rule))

    return size_fn


def run_ladder(
    table: Any,
    budget: Optional[Budget] = None,
    ladder: Sequence[str] = DEFAULT_LADDER,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    jobs: int = 1,
    backend: str = "serial",
    cache: Optional[Any] = None,
    profiler: Optional[Profiler] = None,
    window_width: int = 3,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    fallback_rungs: Union[str, Sequence[str], None] = None,
) -> FallbackResult:
    """Optimize under a budget, degrading through ``ladder`` as needed.

    Each rung receives an equal share of the *remaining* deadline (so a
    rung finishing early donates its slack to the rungs below); the
    **last** rung runs with no deadline — it still honors cancellation
    and can therefore always complete — which is what makes the ladder
    total: a governed call either returns an ordering or was explicitly
    cancelled.  Frontier caps apply to every rung (they bound memory, and
    a rung that cannot fit should step down, not thrash).

    Rungs:

    ``"fs"``
        The exact ``O*(3^n)`` DP (:func:`repro.core.fs.run_fs`); the only
        rung whose success tags the result ``exact=True``.  With
        ``checkpoint_dir`` its progress survives the abort, so a later
        retry under a bigger budget resumes rather than restarts.
    ``"window"``
        The Lemma-8 exact-window sweep
        (:func:`repro.core.window.window_sweep`) at ``window_width``:
        locally optimal, globally heuristic.
    ``"sift"``
        Rudell sifting (:func:`repro.portfolio.sift_search`) scored by an
        exact chain-cost oracle under ``rule``.  Seeds from the best
        ordering a deeper rung found before its budget ran out (carried
        on ``BudgetExceeded.best_order``), so partial work is not lost.
    any registered strategy name
        Every strategy in the :mod:`repro.portfolio` registry (e.g.
        ``"sift_symmetric"``, ``"window4"``, ``"anneal"``, ``"entropy"``)
        is a valid rung: it runs under the rung's budget share and, if
        its share runs out, degrades to the next rung seeded with its
        best-so-far ordering.

    ``fallback_rungs`` is the new spelling of ``ladder`` (matching the
    ``repro.solve`` keyword): a comma-separated string or a sequence of
    rung names, parsed with :func:`parse_ladder`.  When given it takes
    precedence over ``ladder``.

    A rung below the first tallies the ``fallback_used`` extra counter.
    Raises :class:`~repro.errors.BudgetExceeded` only on cancellation
    (or if a caller-supplied ladder ends with a rung that itself runs
    out — e.g. a single-rung ladder).

    ``backend`` (``"serial"`` or ``"thread"``) and ``jobs`` select how
    the ``fs`` and ``window`` rungs execute their layers.
    """
    if counters is None:
        counters = OperationCounters()
    if budget is None:
        budget = Budget()
    budget.arm()
    if fallback_rungs is not None:
        ladder = parse_ladder(fallback_rungs)
    ladder = tuple(ladder)
    if not ladder:
        raise ValueError("ladder must name at least one rung")
    known = set(_RUNG_RUNNERS) | set(_registered_strategy_names())
    unknown = [rung for rung in ladder if rung not in known]
    if unknown:
        raise ValueError(
            f"unknown ladder rung(s) {unknown}; expected a subset of "
            f"{sorted(known)}"
        )

    from .executor import check_backend  # deferred: engine-family import

    attempts: List[RungAttempt] = []
    seed_order: Optional[Tuple[int, ...]] = None
    last_error: Optional[BudgetExceeded] = None
    opts = {
        "rule": rule,
        "jobs": jobs,
        "backend": check_backend(backend),
        "cache": cache,
        "profiler": profiler,
        "window_width": window_width,
        "checkpoint_dir": checkpoint_dir,
        "resume": resume,
    }
    for index, rung in enumerate(ladder):
        # Only cancellation stops the ladder itself; an exhausted
        # deadline is precisely what the lower rungs exist for.
        if budget.cancelled():
            budget.check(counters=counters, where=f"ladder rung {rung!r}")
        rungs_left = len(ladder) - index
        remaining = budget.remaining()
        if index == len(ladder) - 1:
            share: Optional[float] = None  # the safety net always finishes
        elif remaining is None:
            share = None
        else:
            share = remaining / rungs_left
        sub = budget.subbudget(share)
        started = time.perf_counter()
        runner = _RUNG_RUNNERS.get(rung) or _make_strategy_rung(rung)
        try:
            result = runner(table, sub, counters, seed_order, opts)
        except BudgetExceeded as exc:
            attempts.append(RungAttempt(
                rung=rung,
                status="budget_exceeded",
                seconds=time.perf_counter() - started,
                detail=str(exc),
            ))
            if exc.reason == "cancelled":
                exc.best_order = exc.best_order or seed_order
                raise
            if exc.best_order is not None:
                seed_order = tuple(exc.best_order)
            last_error = exc
            continue
        attempts.append(RungAttempt(
            rung=rung,
            status="ok",
            seconds=time.perf_counter() - started,
        ))
        if index > 0:
            counters.add_extra("fallback_used")
        result.attempts = attempts
        result.counters = counters
        return result
    assert last_error is not None
    last_error.best_order = last_error.best_order or seed_order
    raise last_error


def _run_rung_fs(
    table: Any,
    sub: Budget,
    counters: OperationCounters,
    seed_order: Optional[Tuple[int, ...]],
    opts: Dict[str, Any],
) -> FallbackResult:
    from .fs import run_fs

    result = run_fs(
        table,
        rule=opts["rule"],
        counters=counters,
        jobs=opts["jobs"],
        backend=opts["backend"],
        profiler=opts["profiler"],
        cache=opts["cache"],
        checkpoint_dir=opts["checkpoint_dir"],
        resume=opts["resume"],
        budget=sub,
    )
    return FallbackResult(
        n=result.n,
        rule=result.rule,
        order=result.order,
        mincost=result.mincost,
        num_terminals=result.num_terminals,
        exact=True,
        rung="fs",
        result=result,
    )


def _run_rung_window(
    table: Any,
    sub: Budget,
    counters: OperationCounters,
    seed_order: Optional[Tuple[int, ...]],
    opts: Dict[str, Any],
) -> FallbackResult:
    from .engine import EngineConfig
    from .fs import terminal_values
    from .window import window_sweep

    config = EngineConfig(
        jobs=opts["jobs"],
        backend=opts["backend"],
        profiler=opts["profiler"],
        cache=opts["cache"],
        budget=sub,
    )
    result = window_sweep(
        table,
        initial_order=seed_order,
        width=min(opts["window_width"], table.n) if table.n >= 2 else 2,
        rule=opts["rule"],
        counters=counters,
        config=config,
    )
    return FallbackResult(
        n=table.n,
        rule=opts["rule"],
        order=result.order,
        mincost=result.size,
        num_terminals=len(terminal_values(table, opts["rule"])),
        exact=False,
        rung="window",
        result=result,
    )


def _run_rung_sift(
    table: Any,
    sub: Budget,
    counters: OperationCounters,
    seed_order: Optional[Tuple[int, ...]],
    opts: Dict[str, Any],
) -> FallbackResult:
    from ..portfolio import sift_search
    from .fs import terminal_values

    size_fn = _governed_size_fn(opts["rule"], counters, sub)
    result = sift_search(table, initial_order=seed_order, size_fn=size_fn)
    num_terminals = len(terminal_values(table, opts["rule"]))
    return FallbackResult(
        n=table.n,
        rule=opts["rule"],
        order=result.order,
        mincost=result.size - num_terminals,
        num_terminals=num_terminals,
        exact=False,
        rung="sift",
        result=result,
    )


_RUNG_RUNNERS: Dict[str, Callable[..., FallbackResult]] = {
    "fs": _run_rung_fs,
    "window": _run_rung_window,
    "sift": _run_rung_sift,
}


def _registered_strategy_names() -> Tuple[str, ...]:
    from ..portfolio import available_strategies  # deferred: cycle

    return available_strategies()


def _make_strategy_rung(name: str) -> Callable[..., FallbackResult]:
    """Adapt a registered portfolio strategy into a ladder rung.

    A strategy that exhausts its budget share raises
    :class:`~repro.errors.BudgetExceeded` carrying its best-so-far
    ordering and size, so the ladder can seed the next rung with it —
    the same contract the built-in rungs honor."""

    def run(
        table: Any,
        sub: Budget,
        counters: OperationCounters,
        seed_order: Optional[Tuple[int, ...]],
        opts: Dict[str, Any],
    ) -> FallbackResult:
        from ..portfolio import run_strategy
        from .engine import EngineConfig

        config = EngineConfig(
            jobs=opts["jobs"],
            backend=opts["backend"],
            profiler=opts["profiler"],
            cache=opts["cache"],
        )
        result = run_strategy(
            name,
            table,
            rule=opts["rule"],
            budget=sub,
            counters=counters,
            initial_order=seed_order,
            config=config,
        )
        if result.status != "ok":
            raise BudgetExceeded(
                f"strategy rung {name!r} exhausted its budget share",
                reason=result.budget_reason or "deadline",
                best_order=result.order,
                best_bound=result.size,
            )
        return FallbackResult(
            n=table.n,
            rule=opts["rule"],
            order=result.order,
            mincost=result.mincost,
            num_terminals=result.num_terminals,
            exact=False,
            rung=name,
            result=result,
        )

    return run


def parse_ladder(spec: Union[str, Sequence[str], None]) -> Tuple[str, ...]:
    """Parse a CLI-style ladder spec (``"fs,window,sift"``) or sequence.

    ``None`` yields :data:`DEFAULT_LADDER`; valid rungs are the built-in
    triple plus every registered :mod:`repro.portfolio` strategy name,
    and unknown names raise :class:`~repro.errors.OrderingError` naming
    the valid ones.
    """
    if spec is None:
        return DEFAULT_LADDER
    if isinstance(spec, str):
        rungs = tuple(part.strip() for part in spec.split(",") if part.strip())
    else:
        rungs = tuple(spec)
    if not rungs:
        raise OrderingError("fallback ladder must name at least one rung")
    known = set(_RUNG_RUNNERS) | set(_registered_strategy_names())
    unknown = [rung for rung in rungs if rung not in known]
    if unknown:
        raise OrderingError(
            f"unknown fallback rung(s) {', '.join(unknown)}; valid rungs: "
            f"{', '.join(sorted(known))}"
        )
    return rungs
