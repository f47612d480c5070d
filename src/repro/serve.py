"""Ordering-as-a-service: the ``repro serve`` daemon.

The library grew everything a long-lived reordering service needs — a
fingerprint-deduped :class:`~repro.core.cache.ResultCache`,
:class:`~repro.core.budget.Budget` admission with cooperative
cancellation — but each caller still paid process startup and a cold
cache per invocation.  This module turns those five library entry
points into a system that serves traffic: a single-process
stdlib-``asyncio`` front-end multiplexing many concurrent clients over

* **up to ``max_inflight`` concurrent solves** on request worker
  threads, each sweeping under the configured backend name and ``jobs``
  (under ``thread``, a sweep with layers large enough to split starts
  its own pool of ``jobs`` threads and shuts it down when it ends), and
* **one shared result cache** (in-memory LRU plus optional
  cross-process-safe disk store), so every request benefits from every
  previous answer — the accumulation point the learned-ordering
  literature presupposes (Grumberg et al., PAPERS.md).

Transport is newline-delimited JSON over TCP or a unix socket: one JSON
object per line in, one per line out, ``id`` echoed so clients may
pipeline.  Operations:

``{"op": "solve", "expr": "x0 & x1 | x2", "method": "fs", ...}``
    Find an ordering.  The function arrives as ``expr`` (expression
    string) or ``values`` (truth-table bits: a list of ints or a
    ``"0110..."`` string, plus optional ``n``); ``method`` is any of
    ``fs`` / ``shared`` (give ``tables``: a list of such specs) /
    ``constrained`` (give ``precedence`` pairs) / ``window`` (optional
    ``width`` / ``max_rounds`` / ``initial_order``).  Optional
    ``timeout`` (seconds, clamped to the server's ``default_timeout``)
    and ``priority`` (lower runs first).  ``fs`` requests additionally
    take ``strategy`` (``"exact"`` default / ``"fallback"`` /
    ``"portfolio"`` / a registered strategy name — see
    :mod:`repro.portfolio`), ``seed`` (stochastic members) and
    ``strategies`` (portfolio member subset); non-exact strategies are
    never coalesced and their per-strategy tallies surface in
    ``metrics`` (``strategy_solves`` / ``portfolio_wins``).  ``fs_star``
    is not servable — its problem is a live ``FSState``, which does not
    travel as JSON.
``{"op": "solve_many", "items": [{...}, {...}], ...}``
    Batch solve: a manifest of solve specs in one request.  Items are
    fingerprinted and deduplicated *before* queueing (the
    ``optimize_many`` economics, over the wire); the distinct misses fan
    through the priority queue under **one shared subbudget** (the
    batch-level ``timeout``), and the response carries per-item bodies
    bit-identical to N individual ``solve`` calls plus a parallel
    ``statuses`` list (``ok`` / ``cached`` / ``coalesced`` /
    ``fallback`` / ``error``) and a ``summary``.  Batch-level
    ``method`` / ``rule`` / ``fallback`` / ``strategy`` / ``seed`` /
    ``strategies`` are inherited by items that do not set their own;
    item-level ``timeout`` is rejected (the batch shares one budget).
``{"op": "metrics"}``
    The observability counters (merged
    :class:`~repro.analysis.counters.OperationCounters` across every
    request), the shared cache's
    :class:`~repro.core.cache.CacheStats`, and server-level gauges
    (queue depth, in-flight, rejections, coalesced duplicates).
``{"op": "health"}``
    Probe document for load balancers and supervisors: ``healthy``
    verdict, backend name, queue depth, in-flight count and uptime.
    Answered even while draining (``healthy`` goes false), so probes see
    the drain instead of a timeout.
``{"op": "ping"}``
    Liveness probe.

Every response carries an HTTP-style ``status``: 200 served, 400
malformed request, 429 queue full (the bounded priority queue rejects
rather than buffers without bound), 503 draining / cancelled, 504
budget exhausted, 500 internal error.

Resource governance is per request: each admitted request derives a
fresh :meth:`~repro.core.budget.Budget.subbudget` from one server-level
parent — never re-arming a shared budget (the stale-clock footgun
:meth:`Budget.arm <repro.core.budget.Budget.arm>` now warns about) —
so a request's deadline starts when *its* solve starts, while the
parent's frontier caps and cancellation event govern everything.

Duplicate-fingerprint requests are **single-flighted**: concurrent
requests for the same canonical function (same up to variable renaming
and output complement) elect one leader that runs the kernel; the rest
wait and then resolve through the cache — N answers, one sweep.

Shutdown is a graceful drain, routed through
``loop.add_signal_handler`` (the asyncio-correct path —
:func:`~repro.core.budget.handle_signals` cannot help a daemon, and now
warns when it would silently no-op): the first SIGTERM/SIGINT stops
accepting work, finishes everything already admitted (bit-identical to
library calls — nothing about the drain touches the solves), answers
late arrivals with 503, and exits 0.  A second signal sets the shared
cooperative-cancellation event, so in-flight sweeps abort at their next
layer boundary with checkpoints and cache writes already flushed.

``python -m repro serve --port 7421 --cache-dir /var/cache/repro`` runs
one; :class:`ServeClient` talks to it; :func:`running_server` embeds one
in-process (tests, benchmarks, notebooks).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .analysis.counters import OperationCounters
from .api import solve
from .core.budget import Budget
from .core.cache import ResultCache, table_key
from .core.executor import check_backend
from .core.spec import ReductionRule
from .errors import BudgetExceeded, ReproError, ServeError
from .truth_table import TruthTable

__all__ = [
    "OrderingServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "running_server",
    "serve_main",
]

PROTOCOL_VERSION = 1

SERVABLE_METHODS = ("fs", "shared", "constrained", "window")
"""``solve()`` methods reachable over the wire (``fs_star`` is not: its
problem is a live ``FSState``, which has no JSON form)."""

_DEDUP_METHODS = ("fs", "shared")
"""Methods whose problems are safely single-flighted by canonical
fingerprint (``constrained``/``window`` carry position-dependent extras
the canonical key deliberately ignores)."""


@dataclass
class ServeConfig:
    """Everything one :class:`OrderingServer` needs to stand up."""

    host: str = "127.0.0.1"
    port: int = 0
    """TCP port; 0 binds an ephemeral port (read it back off
    :attr:`OrderingServer.address`)."""

    unix_socket: Optional[str] = None
    """Serve on this unix-domain socket path instead of TCP."""

    backend: str = "thread"
    """Execution backend of every request's sweep: ``"serial"`` or
    ``"thread"``."""

    jobs: int = field(default_factory=lambda: os.cpu_count() or 1)
    """Threads per large DP layer of one sweep under ``thread``."""

    cache_dir: Optional[str] = None
    """Optional on-disk store for the shared result cache
    (cross-process-safe; two daemons may share one directory)."""

    cache_size: int = 4096
    max_disk_entries: Optional[int] = None

    cache_shards: int = 16
    """Fingerprint-prefix shard count for the disk store (per-shard
    lockfiles instead of one directory-wide lock, so concurrent servers
    sharing a cache dir stop contending)."""

    max_batch_items: int = 1024
    """Upper bound on ``solve_many`` manifest size (one request line
    must also fit ``max_request_bytes``)."""

    queue_limit: int = 64
    """Bounded priority-queue depth; a request arriving when the queue
    is full is rejected with 429, never buffered without bound."""

    max_inflight: int = 2
    """Concurrent request executions, sweeps included."""

    default_timeout: Optional[float] = None
    """Per-request wall-clock ceiling; a request's own ``timeout`` may
    only tighten it."""

    max_frontier_mb: Optional[float] = None
    """Frontier byte cap applied to every request's subbudget."""

    max_request_bytes: int = 8 * 1024 * 1024
    """Per-line transport limit (a ``values`` table for n=16 as a bit
    string is 64 KiB; as a JSON list ~20x that)."""

    install_signal_handlers: bool = True
    """Route SIGTERM/SIGINT through ``loop.add_signal_handler`` into
    drain / cooperative cancellation.  Disable when embedding the server
    in a thread whose loop cannot own signals (:func:`running_server`
    does)."""


@dataclass
class ServerMetrics:
    """Server-level tallies (the gauges ``/metrics`` adds on top of the
    cache's :class:`~repro.core.cache.CacheStats` and the merged
    operation counters)."""

    received: int = 0
    completed: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_draining: int = 0
    bad_requests: int = 0
    coalesced: int = 0
    """Requests that waited on an identical in-flight leader instead of
    sweeping themselves."""

    coalesced_failures: int = 0
    """Coalesced followers whose leader terminated without a cacheable
    result (budget abort, internal error) and that therefore inherited
    the leader's terminal status instead of re-running the sweep — the
    thundering herd the single-flight path would otherwise unleash
    exactly when the server is under pressure."""

    kernel_sweeps: int = 0
    """Sweep attempts: solves that actually entered the kernel
    (``from_cache`` false), including ones a budget aborted mid-flight —
    with N duplicate requests this advances once, which is the
    single-flight acceptance check."""

    cache_hit_solves: int = 0

    batches: int = 0
    """``solve_many`` requests admitted."""

    batch_items: int = 0
    """Items across all admitted ``solve_many`` manifests."""

    batch_deduped: int = 0
    """Batch items that shared a canonical fingerprint with an earlier
    item in the same manifest and were resolved without queueing."""

    strategy_solves: Dict[str, int] = field(default_factory=dict)
    """Completed solves per non-exact ``strategy`` value (``fallback``,
    ``portfolio``, or a registered strategy name)."""

    portfolio_wins: Dict[str, int] = field(default_factory=dict)
    """For ``strategy="portfolio"`` solves: how often each registered
    member produced the winning ordering."""

    def snapshot(self) -> Dict[str, Any]:
        return {
            "received": self.received,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_draining": self.rejected_draining,
            "bad_requests": self.bad_requests,
            "coalesced": self.coalesced,
            "coalesced_failures": self.coalesced_failures,
            "kernel_sweeps": self.kernel_sweeps,
            "cache_hit_solves": self.cache_hit_solves,
            "batches": self.batches,
            "batch_items": self.batch_items,
            "batch_deduped": self.batch_deduped,
            "strategy_solves": dict(sorted(self.strategy_solves.items())),
            "portfolio_wins": dict(sorted(self.portfolio_wins.items())),
        }


@dataclass(eq=False)
class _Connection:
    """One client connection; writes serialize on :attr:`lock` so
    pipelined responses never interleave.  Identity-hashed (``eq=False``)
    so the server can track live connections in a set."""

    writer: asyncio.StreamWriter
    lock: asyncio.Lock


@dataclass(order=True)
class _QueuedRequest:
    """One admitted solve request, ordered for the priority queue.

    Plain ``solve`` requests carry their raw ``payload`` (parsed in the
    pool when a worker picks them up) and answer on ``conn``.  Batch
    sub-items arrive already ``prepared`` and deliver into ``sink`` — an
    ``asyncio.Future`` the owning ``solve_many`` task awaits — instead
    of writing to the connection themselves.
    """

    priority: int
    seq: int
    payload: Dict[str, Any] = field(compare=False)
    conn: _Connection = field(compare=False)
    prepared: Optional["_Prepared"] = field(compare=False, default=None)
    sink: Optional[asyncio.Future] = field(compare=False, default=None)


@dataclass
class _Prepared:
    """A solve request parsed and fingerprinted (off-loop, in the pool)."""

    problem: Any
    method: str
    rule: ReductionRule
    timeout: Optional[float]
    fingerprint: Optional[str]
    solve_kwargs: Dict[str, Any] = field(default_factory=dict)
    fallback: Optional[Tuple[str, ...]] = None
    """Parsed ``fallback`` ladder (``fs`` only): run through
    :func:`repro.core.budget.run_ladder` so a budget abort degrades to
    the next rung instead of failing the item."""

    budget: Optional[Budget] = None
    """Pre-made subbudget (batch items share one); ``None`` means
    ``_execute`` derives a fresh per-request subbudget."""

    strategy: str = "exact"
    """The request's ``strategy`` field (``fs`` only): ``"exact"``,
    ``"fallback"``, ``"portfolio"`` or a registered strategy name; a
    legacy ``fallback`` ladder with no explicit strategy maps to
    ``"fallback"``."""

    strategy_seed: int = 0
    """RNG seed for stochastic portfolio members."""

    strategies: Optional[Tuple[str, ...]] = None
    """Portfolio member subset (``strategy="portfolio"`` only)."""

    @property
    def dedup_key(self) -> Optional[str]:
        """Single-flight / batch-dedup identity.  Ladder'd and
        strategy'd items are not coalesced: their governed degradation
        path makes 'the same function' not 'the same outcome', so
        propagating a leader's terminal status across them would be
        wrong."""
        if self.fallback is not None or self.strategy != "exact":
            return None
        return self.fingerprint


def _parse_values(spec: Any, n: Optional[int]) -> TruthTable:
    if isinstance(spec, str):
        values = [int(ch) for ch in spec]
    elif isinstance(spec, (list, tuple)):
        values = [int(v) for v in spec]
    else:
        raise ReproError(
            f"'values' must be a 0/1 string or a list of ints, "
            f"got {type(spec).__name__}"
        )
    if n is None:
        size = len(values)
        n = max(size - 1, 0).bit_length()
        if size != 1 << n:
            raise ReproError(
                f"'values' length {size} is not a power of two; give 'n'"
            )
    return TruthTable(int(n), values)


def _parse_table(spec: Dict[str, Any]) -> TruthTable:
    """One table spec: ``{"expr": ...}`` or ``{"values": ..., "n"?: ...}``."""
    n = spec.get("n")
    if n is not None:
        n = int(n)
    if spec.get("expr") is not None:
        from .expr import parse, to_truth_table

        return to_truth_table(parse(str(spec["expr"])), n)
    if spec.get("values") is not None:
        return _parse_values(spec["values"], n)
    raise ReproError("each table needs 'expr' or 'values'")


def _parse_rule(payload: Dict[str, Any]) -> ReductionRule:
    raw = payload.get("rule", "bdd")
    try:
        return ReductionRule(str(raw))
    except ValueError:
        raise ReproError(
            f"unknown rule {raw!r}; expected one of "
            f"{[r.value for r in ReductionRule]}"
        ) from None


class OrderingServer:
    """The daemon: bounded concurrent solves, one shared cache, many
    clients.

    Lifecycle: :meth:`start` binds and begins serving; :meth:`shutdown`
    (or the first SIGTERM/SIGINT when signal handlers are installed)
    drains gracefully; :meth:`wait_closed` blocks until the drain
    finishes.  All three are coroutines on the server's event loop —
    :func:`running_server` wraps them for synchronous embedders.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        if self.config.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.config.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        check_backend(self.config.backend)
        self.metrics = ServerMetrics()
        self.cache = ResultCache(
            maxsize=self.config.cache_size,
            directory=self.config.cache_dir,
            max_disk_entries=self.config.max_disk_entries,
            shards=self.config.cache_shards,
        )
        cap = self.config.max_frontier_mb
        self.parent_budget = Budget(
            max_frontier_bytes=(
                int(cap * 1024 * 1024) if cap is not None else None
            ),
        )
        """Deadline-free parent; every request derives a fresh
        :meth:`~repro.core.budget.Budget.subbudget` sharing its
        cancellation event and frontier caps."""

        self.totals = OperationCounters()
        self._totals_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._queue: "asyncio.PriorityQueue[_QueuedRequest]" = None  # type: ignore[assignment]
        self._workers: List[asyncio.Task] = []
        self._batch_tasks: "set[asyncio.Task]" = set()
        self._inflight_by_fp: Dict[str, asyncio.Future] = {}
        self._in_flight = 0
        self._seq = 0
        self._draining = False
        self._done: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[_Connection]" = set()
        self._started_at = time.monotonic()
        self._installed_signals: List[int] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and begin serving."""
        config = self.config
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue(maxsize=config.queue_limit)
        self._done = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=config.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(config.max_inflight)
        ]
        if config.unix_socket is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=config.unix_socket,
                limit=config.max_request_bytes,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=config.host, port=config.port,
                limit=config.max_request_bytes,
            )
        self._started_at = time.monotonic()
        if config.install_signal_handlers:
            self._install_signal_handlers()

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """Where the server listens: ``(host, port)`` or the socket path."""
        if self.config.unix_socket is not None:
            return self.config.unix_socket
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._on_signal, sig)
            except (NotImplementedError, RuntimeError, ValueError) as exc:
                # Non-unix loop, or a loop that cannot own signals (not
                # the main thread).  The daemon path always can; warn so
                # an embedder knows drain-on-signal is off.
                warnings.warn(
                    f"repro.serve could not install a handler for signal "
                    f"{sig}: {exc}; graceful drain on signal is disabled",
                    RuntimeWarning,
                )
                return
            self._installed_signals.append(sig)

    def _on_signal(self, signum: int) -> None:
        if not self._draining:
            self._log(
                f"signal {signal.Signals(signum).name}: draining "
                f"({self._in_flight} in flight, {self._queue.qsize()} queued)"
            )
            asyncio.ensure_future(self.shutdown())
        else:
            # Second signal: stop being polite — cooperative-cancel every
            # in-flight sweep at its next layer boundary.
            self._log(
                f"signal {signal.Signals(signum).name} during drain: "
                "cancelling in-flight work"
            )
            self.parent_budget.cancel.set()

    async def shutdown(self) -> None:
        """Drain: stop accepting, finish admitted work, release the pool."""
        if self._draining:
            await self.wait_closed()
            return
        self._draining = True
        assert self._server is not None
        self._server.close()
        # Batch tasks feed the queue; let admitted manifests finish
        # enqueueing (and answering) before the queue is considered done.
        while self._batch_tasks:
            await asyncio.gather(
                *list(self._batch_tasks), return_exceptions=True
            )
        await self._queue.join()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for sig in self._installed_signals:
            asyncio.get_running_loop().remove_signal_handler(sig)
        self._installed_signals.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        for conn in list(self._connections):
            conn.writer.close()
        try:
            await asyncio.wait_for(self._server.wait_closed(), timeout=5)
        except asyncio.TimeoutError:  # pragma: no cover - stuck client
            pass
        if (
            self.config.unix_socket is not None
            and os.path.exists(self.config.unix_socket)
        ):
            os.unlink(self.config.unix_socket)
        assert self._done is not None
        self._done.set()

    async def wait_closed(self) -> None:
        """Block until a drain (signal- or :meth:`shutdown`-initiated)
        completes."""
        assert self._done is not None, "server not started"
        await self._done.wait()

    def _log(self, message: str) -> None:
        print(f"repro serve: {message}", file=sys.stderr, flush=True)

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer=writer, lock=asyncio.Lock())
        self._connections.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.metrics.bad_requests += 1
                    await self._respond(conn, {
                        "ok": False, "status": 400,
                        "error": {"type": "ProtocolError",
                                  "message": "request line too long"},
                    })
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    self.metrics.bad_requests += 1
                    await self._respond(conn, {
                        "ok": False, "status": 400,
                        "error": {"type": "ProtocolError",
                                  "message": f"invalid JSON: {exc}"},
                    })
                    continue
                await self._dispatch(payload, conn)
        except (ConnectionResetError, BrokenPipeError):  # client vanished
            pass
        finally:
            self._connections.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, conn: _Connection, body: Dict[str, Any]) -> None:
        data = json.dumps(body, separators=(",", ":")).encode() + b"\n"
        try:
            async with conn.lock:
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # client gone; the work's cache entry still helps others

    async def _dispatch(self, payload: Any, conn: _Connection) -> None:
        if not isinstance(payload, dict):
            self.metrics.bad_requests += 1
            await self._respond(conn, {
                "ok": False, "status": 400,
                "error": {"type": "ProtocolError",
                          "message": "each request must be a JSON object"},
            })
            return
        request_id = payload.get("id")
        op = payload.get("op", "solve")
        if op == "ping":
            await self._respond(conn, {
                "id": request_id, "ok": True, "status": 200, "pong": True,
                "protocol": PROTOCOL_VERSION,
            })
            return
        if op == "metrics":
            await self._respond(conn, {
                "id": request_id, "ok": True, "status": 200,
                "metrics": self.metrics_snapshot(),
            })
            return
        if op == "health":
            # Answered even while draining: a probe that times out looks
            # like a hang, a probe that reports healthy=false explains it.
            await self._respond(conn, {
                "id": request_id, "ok": True, "status": 200,
                "health": self.health_snapshot(),
            })
            return
        if op not in ("solve", "solve_many"):
            self.metrics.bad_requests += 1
            await self._respond(conn, {
                "id": request_id, "ok": False, "status": 400,
                "error": {"type": "ProtocolError",
                          "message": f"unknown op {op!r}; expected "
                                     "solve/solve_many/metrics/health/"
                                     "ping"},
            })
            return
        if self._draining:
            self.metrics.rejected_draining += 1
            await self._respond(conn, {
                "id": request_id, "ok": False, "status": 503,
                "error": {"type": "Draining",
                          "message": "server is draining; resubmit "
                                     "elsewhere"},
            })
            return
        # A malformed priority must answer 400, not kill the connection
        # handler (bools are ints in Python; exclude them explicitly).
        raw_priority = payload.get("priority", 0)
        try:
            if isinstance(raw_priority, bool):
                raise TypeError
            priority = int(raw_priority)
        except (TypeError, ValueError):
            self.metrics.bad_requests += 1
            await self._respond(conn, {
                "id": request_id, "ok": False, "status": 400,
                "error": {"type": "ProtocolError",
                          "message": f"'priority' must be an integer "
                                     f"(lower runs first), got "
                                     f"{raw_priority!r}"},
            })
            return
        if op == "solve_many":
            items = payload.get("items")
            if not isinstance(items, list) or not items:
                self.metrics.bad_requests += 1
                await self._respond(conn, {
                    "id": request_id, "ok": False, "status": 400,
                    "error": {"type": "ProtocolError",
                              "message": "op 'solve_many' needs 'items': "
                                         "a non-empty list of solve "
                                         "specs"},
                })
                return
            if len(items) > self.config.max_batch_items:
                self.metrics.bad_requests += 1
                await self._respond(conn, {
                    "id": request_id, "ok": False, "status": 400,
                    "error": {"type": "ProtocolError",
                              "message": f"'items' has {len(items)} "
                                         f"entries; the server caps "
                                         f"manifests at "
                                         f"{self.config.max_batch_items}"},
                })
                return
            self.metrics.received += len(items)
            self.metrics.batches += 1
            self.metrics.batch_items += len(items)
            # Batches run on their own task: sub-items fan through the
            # worker queue, so a worker must never *be* the batch (it
            # would deadlock waiting for queue slots it occupies).
            task = asyncio.ensure_future(
                self._process_batch(payload, conn, priority)
            )
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)
            return
        self._seq += 1
        item = _QueuedRequest(
            priority=priority,
            seq=self._seq,
            payload=payload,
            conn=conn,
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.metrics.rejected_queue_full += 1
            await self._respond(conn, {
                "id": request_id, "ok": False, "status": 429,
                "error": {"type": "QueueFull",
                          "message": f"queue limit "
                                     f"{self.config.queue_limit} reached; "
                                     "retry with backoff"},
            })
            return
        self.metrics.received += 1

    # -- request execution ---------------------------------------------

    async def _worker(self) -> None:
        while True:
            try:
                item = await self._queue.get()
            except asyncio.CancelledError:
                return
            try:
                self._in_flight += 1
                await self._process(item)
            finally:
                self._in_flight -= 1
                self._queue.task_done()

    async def _deliver(
        self,
        item: _QueuedRequest,
        body: Dict[str, Any],
        *,
        coalesced: bool = False,
    ) -> None:
        """Hand a finished body to its consumer: the batch's sink future
        when the item is a ``solve_many`` sub-item, the wire otherwise."""
        if item.sink is not None:
            if not item.sink.done():
                item.sink.set_result({"body": body, "coalesced": coalesced})
            return
        body = dict(body)
        body["id"] = item.payload.get("id")
        await self._respond(item.conn, body)

    async def _process(self, item: _QueuedRequest) -> None:
        loop = asyncio.get_running_loop()
        prepared = item.prepared
        if prepared is None:
            try:
                prepared = await loop.run_in_executor(
                    self._pool, self._prepare, item.payload
                )
            except ReproError as exc:
                self.metrics.bad_requests += 1
                await self._deliver(item, {
                    "ok": False, "status": 400,
                    "error": {"type": type(exc).__name__,
                              "message": str(exc)},
                })
                return
            except Exception as exc:  # noqa: BLE001 - reported, never fatal
                self.metrics.failed += 1
                await self._deliver(item, {
                    "ok": False, "status": 500,
                    "error": {"type": type(exc).__name__,
                              "message": str(exc)},
                })
                return

        # Single-flight: if an identical problem is already sweeping,
        # wait for its leader and then resolve through the shared cache.
        dedup_key = prepared.dedup_key
        leader = (
            self._inflight_by_fp.get(dedup_key)
            if dedup_key is not None else None
        )
        follower_future: Optional[asyncio.Future] = None
        coalesced = False
        body: Optional[Dict[str, Any]] = None
        if leader is not None:
            self.metrics.coalesced += 1
            coalesced = True
            leader_body = await asyncio.shield(leader)
            if leader_body is not None and not leader_body.get("ok"):
                # The leader's sweep terminated without writing a cache
                # entry (budget abort, internal error) — re-running the
                # identical problem once per follower is a thundering
                # herd exactly when the server is under pressure.
                # Inherit the leader's terminal status instead.
                self.metrics.coalesced_failures += 1
                body = dict(leader_body)
        elif dedup_key is not None:
            follower_future = loop.create_future()
            self._inflight_by_fp[dedup_key] = follower_future
        if body is None:
            executed: Optional[Dict[str, Any]] = None
            try:
                executed = await loop.run_in_executor(
                    self._pool, self._execute, prepared
                )
            finally:
                if follower_future is not None:
                    del self._inflight_by_fp[dedup_key]
                    follower_future.set_result(executed)
            body = executed
        if body.get("ok"):
            self.metrics.completed += 1
        else:
            self.metrics.failed += 1
        await self._deliver(item, body, coalesced=coalesced)

    @staticmethod
    def _classify(
        body: Dict[str, Any], prepared: _Prepared, coalesced: bool
    ) -> str:
        """Per-item ``solve_many`` status for one finished body."""
        if not body.get("ok"):
            return "error"
        if coalesced:
            return "coalesced"
        result = body.get("result", {})
        if result.get("from_cache"):
            return "cached"
        rung = result.get("rung")
        if (
            rung is not None
            and prepared.fallback
            and rung != prepared.fallback[0]
        ):
            return "fallback"
        if (
            prepared.strategy == "fallback"
            and not prepared.fallback
            and result.get("exact") is False
        ):
            # Default-ladder strategy solve that degraded below 'fs'.
            return "fallback"
        return "ok"

    async def _process_batch(
        self, payload: Dict[str, Any], conn: _Connection, priority: int
    ) -> None:
        """One ``solve_many`` manifest.

        Parse + fingerprint every item off-loop, dedup by canonical
        fingerprint *before* queueing (the ``optimize_many`` economics,
        over the wire), fan the representatives through the priority
        queue under ONE shared subbudget, resolve in-batch duplicates
        through the shared cache, and stream a single response whose
        per-item bodies are built by the same code path as individual
        ``solve`` responses (bit-identical by construction).
        """
        request_id = payload.get("id")
        loop = asyncio.get_running_loop()
        items = payload["items"]
        started = time.perf_counter()
        try:
            try:
                timeout = payload.get("timeout")
                if timeout is not None:
                    timeout = float(timeout)
                    if timeout <= 0:
                        raise ReproError(
                            f"timeout must be > 0, got {timeout}"
                        )
            except (TypeError, ValueError):
                raise ReproError(
                    f"'timeout' must be a number of seconds, got "
                    f"{payload.get('timeout')!r}"
                ) from None
        except ReproError as exc:
            self.metrics.bad_requests += 1
            await self._respond(conn, {
                "id": request_id, "ok": False, "status": 400,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })
            return
        default = self.config.default_timeout
        if default is not None:
            timeout = default if timeout is None else min(timeout, default)
        try:
            # ONE budget for the whole manifest: items race each other
            # for the same wall clock, exactly like ``optimize_many``.
            shared_budget = self.parent_budget.subbudget(timeout)
            inherited = {
                key: payload[key]
                for key in ("method", "rule", "fallback", "strategy",
                            "seed", "strategies")
                if key in payload
            }
            bodies: List[Optional[Dict[str, Any]]] = [None] * len(items)
            statuses: List[Optional[str]] = [None] * len(items)
            prepared_list: List[Optional[_Prepared]] = [None] * len(items)
            for i, spec in enumerate(items):
                if not isinstance(spec, dict):
                    error_msg = "each 'items' entry must be a JSON object"
                elif "timeout" in spec:
                    error_msg = (
                        "batch items share the batch-level budget; give "
                        "'timeout' at the top level of the solve_many "
                        "request"
                    )
                else:
                    error_msg = None
                if error_msg is not None:
                    self.metrics.bad_requests += 1
                    bodies[i] = {
                        "ok": False, "status": 400,
                        "error": {"type": "ProtocolError",
                                  "message": error_msg},
                    }
                    statuses[i] = "error"
                    continue
                merged = {**inherited, **spec}
                try:
                    prepared = await loop.run_in_executor(
                        self._pool, self._prepare, merged
                    )
                except ReproError as exc:
                    self.metrics.bad_requests += 1
                    bodies[i] = {
                        "ok": False, "status": 400,
                        "error": {"type": type(exc).__name__,
                                  "message": str(exc)},
                    }
                    statuses[i] = "error"
                except Exception as exc:  # noqa: BLE001
                    self.metrics.failed += 1
                    bodies[i] = {
                        "ok": False, "status": 500,
                        "error": {"type": type(exc).__name__,
                                  "message": str(exc)},
                    }
                    statuses[i] = "error"
                else:
                    prepared.budget = shared_budget
                    prepared_list[i] = prepared

            # Fingerprint-first dedup BEFORE queueing: the first
            # occurrence of each canonical fingerprint is the
            # representative; later ones never enter the queue.
            rep_of: Dict[str, int] = {}
            reps: List[int] = []
            duplicates: List[Tuple[int, int]] = []
            for i, prepared in enumerate(prepared_list):
                if prepared is None:
                    continue
                key = prepared.dedup_key
                if key is not None and key in rep_of:
                    duplicates.append((i, rep_of[key]))
                    continue
                if key is not None:
                    rep_of[key] = i
                reps.append(i)
            self.metrics.batch_deduped += len(duplicates)

            # Enqueue every representative, then await their sinks.  A
            # blocking put is deliberate backpressure against the
            # bounded queue — a manifest is one admitted request, not
            # len(items) chances to be 429'd halfway through.
            sinks: Dict[int, asyncio.Future] = {}
            for i in reps:
                sink = loop.create_future()
                sinks[i] = sink
                self._seq += 1
                await self._queue.put(_QueuedRequest(
                    priority=priority, seq=self._seq, payload={},
                    conn=conn, prepared=prepared_list[i], sink=sink,
                ))
            for i in reps:
                outcome = await sinks[i]
                bodies[i] = outcome["body"]
                statuses[i] = self._classify(
                    outcome["body"], prepared_list[i], outcome["coalesced"]
                )

            # In-batch duplicates resolve through the shared cache (the
            # representative's success wrote the entry — N answers, one
            # sweep); a failed representative's terminal status
            # propagates instead of re-running the identical sweep.
            for i, rep in duplicates:
                rep_body = bodies[rep]
                if rep_body is not None and rep_body.get("ok"):
                    body = await loop.run_in_executor(
                        self._pool, self._execute, prepared_list[i]
                    )
                    bodies[i] = body
                    if body.get("ok"):
                        self.metrics.completed += 1
                        statuses[i] = (
                            "cached"
                            if body.get("result", {}).get("from_cache")
                            else self._classify(body, prepared_list[i],
                                                False)
                        )
                    else:
                        self.metrics.failed += 1
                        statuses[i] = "error"
                else:
                    self.metrics.failed += 1
                    bodies[i] = dict(rep_body or {
                        "ok": False, "status": 500,
                        "error": {"type": "InternalError",
                                  "message": "representative item "
                                             "produced no body"},
                    })
                    statuses[i] = "error"
        except Exception as exc:  # noqa: BLE001 - the client must hear back
            self.metrics.failed += 1
            await self._respond(conn, {
                "id": request_id, "ok": False, "status": 500,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })
            return
        elapsed = time.perf_counter() - started
        summary = {
            "items": len(items),
            "unique": len(reps),
            "deduped": len(duplicates),
            "elapsed_seconds": round(elapsed, 6),
        }
        for status in ("ok", "cached", "coalesced", "fallback", "error"):
            summary[status] = statuses.count(status)
        await self._respond(conn, {
            "id": request_id, "ok": True, "status": 200,
            "results": bodies,
            "statuses": statuses,
            "summary": summary,
        })

    def _prepare(self, payload: Dict[str, Any]) -> _Prepared:
        """Parse + fingerprint one solve request (runs in the pool)."""
        method = str(payload.get("method", "fs"))
        if method not in SERVABLE_METHODS:
            raise ReproError(
                f"method {method!r} is not servable; expected one of "
                f"{list(SERVABLE_METHODS)}"
            )
        rule = _parse_rule(payload)
        solve_kwargs: Dict[str, Any] = {}
        if method == "shared":
            specs = payload.get("tables")
            if not isinstance(specs, list) or not specs:
                raise ReproError(
                    "method 'shared' needs 'tables': a non-empty list of "
                    "{expr|values} specs"
                )
            problem: Any = [_parse_table(spec) for spec in specs]
            tables = list(problem)
        else:
            problem = _parse_table(payload)
            tables = [problem]
        if method == "constrained":
            pairs = payload.get("precedence")
            if not isinstance(pairs, list):
                raise ReproError(
                    "method 'constrained' needs 'precedence': a list of "
                    "[earlier, later] variable pairs"
                )
            solve_kwargs["precedence"] = [
                (int(a), int(b)) for a, b in pairs
            ]
        if method == "window":
            if payload.get("width") is not None:
                solve_kwargs["width"] = int(payload["width"])
            if payload.get("max_rounds") is not None:
                solve_kwargs["max_rounds"] = int(payload["max_rounds"])
            if payload.get("initial_order") is not None:
                solve_kwargs["initial_order"] = tuple(
                    int(v) for v in payload["initial_order"]
                )
        fallback = payload.get("fallback")
        if fallback is not None:
            if method != "fs":
                raise ReproError(
                    "'fallback' (a degradation ladder) is only supported "
                    "for method 'fs'"
                )
            from .core.budget import parse_ladder

            try:
                fallback = parse_ladder(fallback)
            except (ReproError, ValueError, TypeError) as exc:
                raise ReproError(f"bad 'fallback' ladder: {exc}") from None
        strategy = str(payload.get("strategy", "exact"))
        if payload.get("strategy") is None and fallback is not None:
            # Legacy spelling: a bare ladder means strategy="fallback".
            strategy = "fallback"
        if strategy != "exact":
            if method != "fs":
                raise ReproError(
                    "'strategy' is only supported for method 'fs'"
                )
            if strategy not in ("fallback", "portfolio"):
                from .portfolio import get_strategy

                try:
                    get_strategy(strategy)
                except ReproError as exc:
                    raise ReproError(str(exc)) from None
        if fallback is not None and strategy != "fallback":
            raise ReproError(
                "'fallback' (a degradation ladder) only combines with "
                "strategy 'fallback'"
            )
        try:
            strategy_seed = int(payload.get("seed", 0))
        except (TypeError, ValueError):
            raise ReproError(
                f"'seed' must be an integer, got {payload.get('seed')!r}"
            ) from None
        strategies_field = payload.get("strategies")
        strategies: Optional[Tuple[str, ...]] = None
        if strategies_field is not None:
            if strategy != "portfolio":
                raise ReproError(
                    "'strategies' (a portfolio member subset) requires "
                    "strategy 'portfolio'"
                )
            if not isinstance(strategies_field, list) or not strategies_field:
                raise ReproError(
                    "'strategies' must be a non-empty list of registered "
                    "strategy names"
                )
            strategies = tuple(str(name) for name in strategies_field)
            from .portfolio import get_strategy

            for name in strategies:
                try:
                    get_strategy(name)
                except ReproError as exc:
                    raise ReproError(str(exc)) from None
        timeout = payload.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ReproError(f"timeout must be > 0, got {timeout}")
        default = self.config.default_timeout
        if default is not None:
            timeout = default if timeout is None else min(timeout, default)
        fingerprint = None
        if method in _DEDUP_METHODS:
            fingerprint = table_key(tables, rule, spec=method).fingerprint
        return _Prepared(
            problem=problem,
            method=method,
            rule=rule,
            timeout=timeout,
            fingerprint=fingerprint,
            solve_kwargs=solve_kwargs,
            fallback=fallback,
            strategy=strategy,
            strategy_seed=strategy_seed,
            strategies=strategies,
        )

    def _execute(self, prepared: _Prepared) -> Dict[str, Any]:
        """Run one governed solve (in the pool); returns the response body."""
        config = self.config
        sub = (
            prepared.budget
            if prepared.budget is not None
            else self.parent_budget.subbudget(prepared.timeout)
        )
        started = time.perf_counter()
        rung: Optional[str] = None
        try:
            if prepared.strategy != "exact":
                solution = solve(
                    prepared.problem,
                    method=prepared.method,
                    strategy=prepared.strategy,
                    strategies=prepared.strategies,
                    fallback_rungs=(
                        prepared.fallback
                        if prepared.strategy == "fallback" else None
                    ),
                    seed=prepared.strategy_seed,
                    rule=prepared.rule,
                    jobs=config.jobs,
                    backend=config.backend,
                    cache=self.cache,
                    budget=sub,
                )
                rung = solution.rung
            else:
                solution = solve(
                    prepared.problem,
                    method=prepared.method,
                    rule=prepared.rule,
                    jobs=config.jobs,
                    backend=config.backend,
                    cache=self.cache,
                    budget=sub,
                    **prepared.solve_kwargs,
                )
        except BudgetExceeded as exc:
            status = 503 if exc.reason == "cancelled" else 504
            with self._totals_lock:
                # The kernel did enter this sweep before the budget
                # aborted it — count the attempt so a thundering herd of
                # retried duplicates stays visible in metrics.
                self.metrics.kernel_sweeps += 1
            return {
                "ok": False, "status": status,
                "error": {"type": "BudgetExceeded", "message": str(exc),
                          "reason": exc.reason},
            }
        except ReproError as exc:
            return {
                "ok": False, "status": 400,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        except Exception as exc:  # noqa: BLE001 - reported, never fatal
            return {
                "ok": False, "status": 500,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        elapsed = time.perf_counter() - started
        with self._totals_lock:
            self.totals.merge(solution.counters)
            if solution.from_cache:
                self.metrics.cache_hit_solves += 1
            else:
                self.metrics.kernel_sweeps += 1
            if prepared.strategy != "exact":
                tally = self.metrics.strategy_solves
                tally[prepared.strategy] = tally.get(prepared.strategy, 0) + 1
                if prepared.strategy == "portfolio" and rung is not None:
                    wins = self.metrics.portfolio_wins
                    wins[rung] = wins.get(rung, 0) + 1
        result = solution.to_wire()
        result["elapsed_seconds"] = round(elapsed, 6)
        if rung is not None:
            result["rung"] = rung
        return {"ok": True, "status": 200, "result": result}

    # -- observability -------------------------------------------------

    def health_snapshot(self) -> Dict[str, Any]:
        """The ``health`` op document: cheap, lock-free, probe-friendly.

        ``healthy`` is the one-bit verdict (accepting work); the rest is
        the evidence a supervisor wants next to it.
        """
        return {
            "healthy": not self._draining,
            "draining": self._draining,
            "backend": self.config.backend,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "in_flight": self._in_flight,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` document (also handy for embedders)."""
        stats = self.cache.stats
        with self._totals_lock:
            counters = self.totals.snapshot()
            server = self.metrics.snapshot()
        server.update(
            queue_depth=self._queue.qsize() if self._queue is not None else 0,
            in_flight=self._in_flight,
            draining=self._draining,
            uptime_seconds=round(time.monotonic() - self._started_at, 3),
        )
        return {
            "protocol": PROTOCOL_VERSION,
            "server": server,
            "cache": {**stats.snapshot(), "hit_rate": round(stats.hit_rate, 6)},
            "counters": counters,
            "config": {
                "backend": self.config.backend,
                "jobs": self.config.jobs,
                "queue_limit": self.config.queue_limit,
                "max_inflight": self.config.max_inflight,
                "default_timeout": self.config.default_timeout,
                "cache_dir": self.config.cache_dir,
                "cache_shards": self.config.cache_shards,
                "max_batch_items": self.config.max_batch_items,
            },
        }


# ----------------------------------------------------------------------
# entry points: daemon main, in-process harness, client
# ----------------------------------------------------------------------

async def _amain(config: ServeConfig) -> int:
    server = OrderingServer(config)
    await server.start()
    address = server.address
    where = (
        address if isinstance(address, str) else f"{address[0]}:{address[1]}"
    )
    print(
        f"repro serve: listening on {where} "
        f"(backend={config.backend}, jobs={config.jobs}, "
        f"queue_limit={config.queue_limit}, "
        f"max_inflight={config.max_inflight})",
        flush=True,
    )
    await server.wait_closed()
    print("repro serve: drained, exiting", flush=True)
    return 0


def serve_main(config: ServeConfig) -> int:
    """Run a daemon until it drains (the ``repro serve`` CLI body)."""
    return asyncio.run(_amain(config))


@contextmanager
def running_server(
    config: Optional[ServeConfig] = None, **overrides: Any
) -> Iterator[OrderingServer]:
    """An :class:`OrderingServer` on a background thread's event loop.

    For tests, benchmarks and notebook embedders: yields the started
    server (read :attr:`OrderingServer.address` to connect), drains it
    on exit.  Signal handlers are forced off — a thread's loop cannot
    own process signals; send the daemon form a real SIGTERM instead.
    """
    config = replace(
        config or ServeConfig(), install_signal_handlers=False, **overrides
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="repro-serve-loop", daemon=True
    )
    thread.start()
    server = OrderingServer(config)
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
        yield server
    finally:
        try:
            asyncio.run_coroutine_threadsafe(
                server.shutdown(), loop
            ).result(60)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()


class ServeClient:
    """Minimal synchronous NDJSON client for one daemon connection.

    ``address`` is ``(host, port)`` or a unix-socket path.  One request
    is one line; :meth:`request` returns the raw response dict, the
    convenience wrappers raise :class:`~repro.errors.ServeError` when
    the server says ``ok: false``.

    ``retries`` (default 0: off) arms bounded reconnect-with-backoff
    for *idempotent* convenience ops — :meth:`ping`, :meth:`metrics`,
    :meth:`health` and :meth:`solve` (a pure function of its payload;
    resubmission reuses the same request ``id``).  Retried failures are
    the transient ones a healthy deployment produces: a connection the
    server dropped (``ConnectionResetError`` / ``BrokenPipeError`` /
    the "server closed the connection" 503).  Any answer the server
    sends — 400s, 429 queue-full, 503 draining, 504 budget — propagates
    on the first occurrence.  Sleeps ``backoff * 2**attempt`` seconds
    between tries.
    """

    def __init__(
        self,
        address: Union[Tuple[str, int], Sequence[Any], str],
        timeout: float = 120.0,
        retries: int = 0,
        backoff: float = 0.2,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self._address = address
        self._timeout = timeout
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self._next_id = 0
        self._pending: Dict[Any, Dict[str, Any]] = {}
        self._connect()

    def _connect(self) -> None:
        address = self._address
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(address)
        else:
            host, port = address
            sock = socket.create_connection(
                (host, int(port)), timeout=self._timeout
            )
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _reconnect(self) -> None:
        """Drop the dead connection and dial again.  Buffered responses
        for other ids died with the old socket; pipelined callers should
        not mix manual ``submit``/``collect`` with retrying ops."""
        try:
            self.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self._pending.clear()
        self._connect()

    def submit(self, payload: Dict[str, Any]) -> Any:
        """Send one request object without waiting; returns its ``id``.

        Pair with :meth:`collect` to pipeline several requests on one
        connection.
        """
        if "id" not in payload:
            self._next_id += 1
            payload = {**payload, "id": self._next_id}
        self._file.write(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        self._file.flush()
        return payload["id"]

    def collect(self, request_id: Any) -> Dict[str, Any]:
        """Block until the response whose ``id`` matches arrives.

        The server may answer pipelined requests out of submission order
        (the priority queue reorders them), so lines read off the socket
        that belong to *other* requests are buffered by id and returned
        by their own ``collect`` calls — never handed to the wrong
        caller.
        """
        if request_id in self._pending:
            return self._pending.pop(request_id)
        while True:
            line = self._file.readline()
            if not line:
                raise ServeError("server closed the connection", status=503)
            response = json.loads(line)
            response_id = response.get("id")
            if response_id == request_id:
                return response
            self._pending[response_id] = response

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, block for *its* response (matched by
        ``id``, not merely the next line off the socket)."""
        return self.collect(self.submit(payload))

    def _checked(
        self, payload: Dict[str, Any], *, retryable: bool = False
    ) -> Dict[str, Any]:
        attempts = self._retries + 1 if retryable else 1
        if retryable and "id" not in payload:
            # Pre-assign the id so every resubmission of this request is
            # recognizably the *same* request, not a new one.
            self._next_id += 1
            payload = {**payload, "id": self._next_id}
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._backoff * (2 ** (attempt - 1)))
            try:
                response = self.request(payload)
            except (ConnectionResetError, BrokenPipeError, ServeError) as exc:
                # collect() raises a 503 ServeError when the server drops
                # the connection mid-read; same remedy as a raw reset.
                dropped = isinstance(
                    exc, (ConnectionResetError, BrokenPipeError)
                ) or exc.status == 503
                if not (retryable and dropped and attempt + 1 < attempts):
                    raise
                self._reconnect()
                continue
            if not response.get("ok"):
                error = response.get("error", {})
                raise ServeError(
                    f"{error.get('type', 'Error')}: "
                    f"{error.get('message', 'request failed')}",
                    status=int(response.get("status", 500)),
                )
            return response
        raise AssertionError("unreachable: final attempt returns or raises")

    def solve(self, **payload: Any) -> Dict[str, Any]:
        """``solve`` op; returns the ``result`` dict.  Keyword args are
        the wire fields (``expr=``/``values=``/``method=``/...).
        Idempotent, so eligible for client ``retries=``."""
        response = self._checked({**payload, "op": "solve"}, retryable=True)
        return response["result"]

    def solve_many(
        self, items: Sequence[Dict[str, Any]], **payload: Any
    ) -> Dict[str, Any]:
        """``solve_many`` op; returns the full batch response —
        ``results`` (per-item bodies, each shaped like a single ``solve``
        response), ``statuses`` and ``summary``.  Keyword args are
        batch-level wire fields (``method=``/``rule=``/``timeout=``/
        ``fallback=``/``priority=``).  Never auto-retried: a partially
        completed batch is not safely resubmittable."""
        return self._checked(
            {**payload, "op": "solve_many", "items": list(items)}
        )

    def metrics(self) -> Dict[str, Any]:
        return self._checked({"op": "metrics"}, retryable=True)["metrics"]

    def health(self) -> Dict[str, Any]:
        """``health`` op; the daemon's liveness report (draining or
        not, queue depth, in-flight count, uptime)."""
        return self._checked({"op": "health"}, retryable=True)["health"]

    def ping(self) -> bool:
        return bool(
            self._checked({"op": "ping"}, retryable=True).get("pong")
        )

    def close(self) -> None:
        try:
            if self._file is not None:
                self._file.close()
        finally:
            self._file = None
            if self._sock is not None:
                self._sock.close()
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
