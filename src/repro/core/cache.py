"""Canonical result cache + batch front-end for the FS-family optimizers.

Optimal-ordering workloads are full of repeats: the same function
resubmitted across CLI runs, dozens of near-identical tables in one
batch, and — the classic observation behind every production BDD
package's computed-table — the *same function up to variable renaming
and output complement* appearing under many disguises.  The dynamic
programs themselves are ``O*(3^n)``; recognizing a repeat costs
``O*(2^n)`` (a canonicalization pass over the truth table).  This module
caches final answers behind that recognition step:

* **Canonical fingerprints.**  :func:`table_key` support-reduces the
  table(s) (:meth:`TruthTable.support`), canonicalizes under variable
  permutation — and under output complement for single-output Boolean
  tables when the rule is complement-invariant (BDD, CBDD) — and hashes
  the canonical bytes together with the kernel-independent problem spec
  ``(spec, rule, arity, outputs, dtype)``.  Two tables in the same orbit
  collide on purpose; the :class:`~repro.truth_table.CanonicalForm`
  witness maps the stored ordering back through the canonicalizing
  permutation on every hit.
* **Two storage layers.**  :class:`ResultCache` keeps a bounded
  in-memory LRU and, when given a directory, an on-disk store of
  fingerprint-scoped, checksummed, atomically-written JSON files (the
  same envelope the sweep checkpoints use, via
  :func:`repro.core.checkpoint.write_checked_json`).  A damaged disk
  entry raises :class:`~repro.errors.CacheError` naming the file — never
  a silent wrong answer.
* **Wired into every DP entry point.**  ``EngineConfig(cache=...)`` (or
  the ``cache=`` keyword of :func:`~repro.core.fs.run_fs`,
  :func:`~repro.core.shared.run_fs_shared`,
  :func:`~repro.core.constrained.run_fs_constrained`) makes the
  optimizers consult the cache first; :func:`repro.core.fs_star
  .run_fs_star` and :func:`repro.core.window.window_sweep` read it off
  their :class:`~repro.core.engine.EngineConfig`.  FS* entries store the
  optimal placement chain and rematerialize the state by replaying it
  (``O(|J|)`` compactions instead of an ``O*(3^{|J|})`` sweep,
  bit-identical by Lemma 3).
* **Batch front-end.**  :func:`optimize_many` (CLI:
  ``optimize --batch manifest.json``) fingerprints a list of tables,
  dedupes them *before* solving, fans the distinct misses over a worker
  pool, and resolves every duplicate through the cache — each duplicate
  costs zero kernel invocations.  The batch is failure-isolated and
  resource-governed: per-item errors become structured
  :class:`BatchError` records while the rest of the batch still solves,
  per-item deadlines (optionally with a degradation ladder, see
  :mod:`repro.core.budget`) bound each item's cost, and disk-store
  writes retry transient I/O errors with exponential backoff.

Determinism guarantee: a cache hit returns an ordering in the same orbit
as — and with cost bit-identical to — what an uncached run returns, and
its stored width profile is exact (Lemma 3: level widths depend only on
the variable sets, which the canonical permutation transports).  When a
function has several optimal orderings, the hit reproduces the one the
*first* (cache-filling) run found, translated to the caller's variable
names; repeated hits are bit-identical to each other.  Invalidation is
structural: the fingerprint embeds a format
version, the rule, and the canonical bytes, so a format bump or any
change to the function simply misses.

Observability: lookups/stores/canonicalization run under the
``cache_lookup`` / ``cache_store`` / ``canonicalize`` profiler phases,
hit/miss totals land in the ``cache_hits`` / ``cache_misses`` extra
counters, and :meth:`Profiler.note_cache_stats` embeds the final tallies
in ``--profile`` output.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from ..analysis.counters import OperationCounters
from ..errors import CacheError
from ..observability import Profiler
from ..truth_table import CanonicalForm, TruthTable, canonicalize_tables
from .checkpoint import RetryPolicy, read_checked_json, write_checked_json
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - cycle guard (budget imports .fs)
    from .budget import Budget

CACHE_FORMAT = 1
"""Bumping this invalidates every existing fingerprint (entries simply
stop matching; stale files are inert)."""

try:  # pragma: no cover - import probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


class FileLock:
    """Advisory interprocess mutex over one lockfile.

    A :class:`threading.Lock` only serializes threads of one process;
    two daemons (or a daemon and a CLI run) sharing a cache *directory*
    need mutual exclusion across processes for the operations that read
    the directory and then mutate it — eviction scans above all.  On
    POSIX this is ``fcntl.flock`` on a dedicated lockfile (crash-safe:
    the kernel drops the lock when the holder dies); elsewhere it falls
    back to an ``O_EXCL`` claim file polled with a short sleep, with a
    staleness cutoff so a crashed holder cannot wedge the directory
    forever.  Reentrant within a thread is NOT supported — hold it for
    one short critical section at a time.

    Contention is observable: an acquisition that had to wait (the
    non-blocking first attempt lost to another thread or process) tallies
    :attr:`contentions` / :attr:`wait_seconds` and reports the wait to
    ``on_wait`` — how :class:`ResultCache` proves shard locks removed
    the single-directory bottleneck.
    """

    def __init__(
        self,
        path: str,
        stale_seconds: float = 30.0,
        on_wait: Optional[Any] = None,
    ) -> None:
        self.path = path
        self.stale_seconds = stale_seconds
        self.on_wait = on_wait
        """Optional ``callable(seconds)`` invoked after every contended
        acquisition with how long it blocked."""

        self.contentions = 0
        self.wait_seconds = 0.0
        self._fd: Optional[int] = None
        self._thread_lock = threading.Lock()

    def _note_wait(self, started: float) -> None:
        waited = time.perf_counter() - started
        self.contentions += 1
        self.wait_seconds += waited
        if self.on_wait is not None:
            self.on_wait(waited)

    def acquire(self) -> None:
        started = time.perf_counter()
        contended = not self._thread_lock.acquire(blocking=False)
        if contended:
            self._thread_lock.acquire()
        try:
            if fcntl is not None:
                fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    contended = True
                    fcntl.flock(fd, fcntl.LOCK_EX)
                self._fd = fd
                if contended:
                    self._note_wait(started)
                return
            while True:  # pragma: no cover - exercised only off-POSIX
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                    if contended:
                        self._note_wait(started)
                    return
                except FileExistsError:
                    contended = True
                    try:
                        age = time.time() - os.path.getmtime(self.path)
                        if age > self.stale_seconds:
                            os.unlink(self.path)
                            continue
                    except OSError:
                        pass
                    time.sleep(0.01)
        except BaseException:
            self._thread_lock.release()
            raise

    def release(self) -> None:
        fd, self._fd = self._fd, None
        try:
            if fd is not None:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                    os.close(fd)
                else:  # pragma: no cover - exercised only off-POSIX
                    os.close(fd)
                    try:
                        os.unlink(self.path)
                    except FileNotFoundError:
                        pass
        finally:
            self._thread_lock.release()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


def _phase(profiler: Optional[Profiler], name: str):
    return profiler.phase(name) if profiler is not None else nullcontext()


def _digest(header: Dict[str, Any], blob: bytes) -> str:
    """Stable fingerprint of a problem: canonical JSON header + payload."""
    h = hashlib.sha256()
    h.update(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
    h.update(b"\x00")
    h.update(blob)
    return h.hexdigest()


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TableKey:
    """A canonical cache key plus the witness to translate hits back."""

    fingerprint: str
    form: CanonicalForm
    rule: ReductionRule
    spec: str

    @property
    def canonical_n(self) -> int:
        return len(self.form.support)


def table_key(
    tables: Sequence[TruthTable],
    rule: ReductionRule,
    spec: str = "fs",
    profiler: Optional[Profiler] = None,
) -> TableKey:
    """Canonical fingerprint of an (output vector, rule) problem.

    Support reduction is applied for every cofactor-merging rule (a
    variable no output depends on costs zero nodes at any position); for
    ZDDs it is disabled — zero-suppression prices dead variables.
    Output complement competes for the canonical form only for
    single-output Boolean tables under complement-invariant rules (BDD,
    CBDD): complementing preserves every level width there, but changes
    ZDD widths and cross-output sharing in forests.
    """
    reduce_support = rule is not ReductionRule.ZDD
    allow_complement = (
        len(tables) == 1
        and rule in (ReductionRule.BDD, ReductionRule.CBDD)
    )
    with _phase(profiler, "canonicalize"):
        form = canonicalize_tables(
            tables,
            reduce_support=reduce_support,
            allow_complement=allow_complement,
        )
    header = {
        "format": CACHE_FORMAT,
        "spec": spec,
        "rule": rule.value,
        "arity": len(form.support),
        "outputs": len(tables),
        "dtype": str(form.tables[0].values.dtype),
    }
    return TableKey(
        fingerprint=_digest(header, form.canonical_bytes()),
        form=form,
        rule=rule,
        spec=spec,
    )


def raw_table_key(
    tables: Sequence[TruthTable],
    rule: ReductionRule,
    spec: str,
    extra: Dict[str, Any],
) -> str:
    """Fingerprint *without* canonicalization, for entry points whose
    extra state is not permutation-invariant (precedence constraints, a
    window sweep's initial ordering)."""
    header = {
        "format": CACHE_FORMAT,
        "spec": spec,
        "rule": rule.value,
        "n": tables[0].n,
        "outputs": len(tables),
        "dtype": str(tables[0].values.dtype),
        "extra": extra,
    }
    blob = b"".join(t.values.tobytes() for t in tables)
    return _digest(header, blob)


def state_key(base: FSState, j_mask: int, rule: ReductionRule) -> str:
    """Fingerprint of an FS* solve: the base quadruple's table bytes plus
    the placement bookkeeping and the set ``J`` to optimize.  The DP's
    behavior depends on the base only through these (cell values encode
    the subfunction partition), so equal keys yield bit-identical
    placement chains."""
    header = {
        "format": CACHE_FORMAT,
        "spec": "fs_star",
        "rule": rule.value,
        "n": base.n,
        "mask": base.mask,
        "j_mask": j_mask,
        "num_roots": base.num_roots,
        "num_terminals": base.num_terminals,
        "dtype": str(base.table.dtype),
    }
    return _digest(header, np.ascontiguousarray(base.table).tobytes())


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Running tallies of one :class:`ResultCache` (all layers)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    """Hits served from the on-disk store (a subset of ``hits``)."""

    evictions: int = 0

    retries: int = 0
    """Disk writes that needed at least one retry (see
    :class:`~repro.core.checkpoint.RetryPolicy`), counted per attempt."""

    lock_waits: int = 0
    """Shard-lock acquisitions that had to block on another holder
    (thread or process).  Zero when concurrent writers land in distinct
    shards — the whole point of fingerprint-prefix sharding."""

    lock_wait_seconds: float = 0.0
    """Total wall-clock spent blocked on contended shard locks."""

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "retries": self.retries,
            "lock_waits": self.lock_waits,
            "lock_wait_seconds": round(self.lock_wait_seconds, 6),
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Fingerprint-keyed store of optimizer results (LRU + optional disk).

    Thread-safe: :func:`optimize_many` fans misses over a worker pool
    that shares one instance.  Payloads are plain JSON-able dicts so the
    memory and disk layers hold the same bytes; the disk layer
    write-throughs every store and backfills the LRU on a disk hit.

    The disk layer is additionally **cross-process-safe** and **sharded
    by fingerprint prefix**: several processes (two daemons, a daemon
    plus CLI runs) may share one directory without contending on a
    single lockfile.  Entries live at ``<directory>/<shard>/cache_<fp>
    .json`` where ``<shard>`` is ``fp[:2]`` reduced modulo
    :attr:`shards` (default 16), and every disk *mutation* — entry
    writes and the :attr:`max_disk_entries` eviction pass — runs under
    that shard's own :class:`FileLock` (``<shard>/.cache.lock``), so
    concurrent writers only serialize when their fingerprints land in
    the same shard.  Entry files were already written atomically
    (temp-name + ``os.replace``); a reader that loses the race with a
    sibling's eviction (the file vanishes between the existence probe
    and the read) records a plain miss instead of raising.  Damaged
    bytes still raise :class:`~repro.errors.CacheError` — only
    *absence* is tolerated.

    Pre-sharding directories (flat ``<directory>/cache_<fp>.json``
    layout) keep working: reads fall back to the flat path
    transparently, and the first disk write performs a one-time lazy
    migration that moves every flat entry into its shard (under the
    legacy root ``.cache.lock``, so it is safe against stragglers).
    """

    def __init__(
        self,
        maxsize: int = 4096,
        directory: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        max_disk_entries: Optional[int] = None,
        shards: int = 16,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_disk_entries is not None and max_disk_entries < 1:
            raise ValueError(
                f"max_disk_entries must be >= 1, got {max_disk_entries}"
            )
        if shards < 1 or shards > 256:
            raise ValueError(f"shards must be in 1..256, got {shards}")
        self.maxsize = maxsize
        self.directory = directory
        self.retry = retry
        """Optional :class:`~repro.core.checkpoint.RetryPolicy` applied to
        disk-store writes (transient ``OSError`` -> exponential backoff);
        each retried attempt tallies :attr:`CacheStats.retries`."""

        self.max_disk_entries = max_disk_entries
        """Global cap on entry files kept in :attr:`directory` (across
        all shards); crossing it evicts the oldest files (by
        modification time).  ``None`` = unbounded (the historical
        behavior)."""

        self.shards = shards
        """Disk-store shard count.  The shard of a fingerprint is
        ``int(fp[:2], 16) % shards``, so two caches over one directory
        must agree on the count (a mismatch is harmless but wasteful:
        entries written under one count read as misses under the
        other)."""

        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._shard_locks: Dict[str, FileLock] = {}
        self._migrated = False
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _note_lock_wait(self, waited: float) -> None:
        with self._lock:
            self.stats.lock_waits += 1
            self.stats.lock_wait_seconds += waited

    def shard_name(self, fingerprint: str) -> str:
        """Directory name of the shard holding ``fingerprint``."""
        return f"{int(fingerprint[:2], 16) % self.shards:02x}"

    def _shard_lock(self, shard: str) -> FileLock:
        assert self.directory is not None
        with self._lock:
            lock = self._shard_locks.get(shard)
            if lock is None:
                shard_dir = os.path.join(self.directory, shard)
                os.makedirs(shard_dir, exist_ok=True)
                lock = FileLock(
                    os.path.join(shard_dir, ".cache.lock"),
                    on_wait=self._note_lock_wait,
                )
                self._shard_locks[shard] = lock
            return lock

    def entry_path(self, fingerprint: str) -> str:
        """Sharded on-disk path of ``fingerprint``'s entry file."""
        if self.directory is None:
            raise ValueError("cache has no on-disk store")
        return os.path.join(
            self.directory, self.shard_name(fingerprint),
            f"cache_{fingerprint}.json",
        )

    def flat_entry_path(self, fingerprint: str) -> str:
        """Pre-sharding (PR-7 era) path; reads fall back to it until the
        lazy migration has run."""
        if self.directory is None:
            raise ValueError("cache has no on-disk store")
        return os.path.join(self.directory, f"cache_{fingerprint}.json")

    def lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``fingerprint``, or ``None`` (a miss).

        A hit found only on disk re-validates checksum and fingerprint
        (raising :class:`~repro.errors.CacheError` on damage) and
        backfills the memory layer.  An entry that *vanishes* between
        the existence probe and the read — a sibling process evicted it
        — is a miss, not an error.  A directory written before sharding
        landed (flat ``cache_*.json`` layout) is consulted at the flat
        path too, so old cache dirs serve hits before any migration.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return entry
        if self.directory is not None:
            path = self.entry_path(fingerprint)
            if not os.path.exists(path):
                flat = self.flat_entry_path(fingerprint)
                path = flat if os.path.exists(flat) else path
            if os.path.exists(path):
                try:
                    payload = read_checked_json(path, error=CacheError)
                except CacheError as exc:
                    if isinstance(exc.__cause__, FileNotFoundError):
                        with self._lock:
                            self.stats.misses += 1
                        return None
                    raise
                if payload.get("fingerprint") != fingerprint:
                    raise CacheError(
                        f"cache entry {path} carries fingerprint "
                        f"{payload.get('fingerprint')!r}, expected "
                        f"{fingerprint!r}; refusing to use it"
                    )
                entry = payload["entry"]
                with self._lock:
                    self._insert(fingerprint, entry)
                    self.stats.disk_hits += 1
                    self.stats.hits += 1
                return entry
        with self._lock:
            self.stats.misses += 1
        return None

    def store(self, fingerprint: str, entry: Dict[str, Any]) -> None:
        """Insert (write-through when a directory is configured).

        Disk writes go through :attr:`retry` when one is configured, so a
        transiently flaky filesystem costs backoff, not a lost batch.
        The write (and any :attr:`max_disk_entries` eviction it
        triggers) holds only the target *shard's* interprocess
        :class:`FileLock` — writers in distinct shards never wait on
        each other.  The first write also runs the one-time lazy
        migration of any pre-sharding flat-layout entries."""
        with self._lock:
            self._insert(fingerprint, entry)
            self.stats.stores += 1
        if self.directory is not None:
            self._migrate_flat_entries()
            path = self.entry_path(fingerprint)
            payload = {"fingerprint": fingerprint, "entry": entry}
            lock = self._shard_lock(self.shard_name(fingerprint))

            def write() -> None:
                with lock:
                    write_checked_json(path, payload)
                    if self.max_disk_entries is not None:
                        self._evict_disk_locked()

            if self.retry is not None:
                self.retry.run(
                    write,
                    describe=f"cache store {fingerprint[:12]}",
                    on_retry=self._note_retry,
                )
            else:
                write()

    def _migrate_flat_entries(self) -> None:
        """Move pre-sharding flat-layout entries into their shards, once.

        Runs before the first disk write of this instance.  Flat files
        are moved with ``os.replace`` (atomic; mtime — the eviction
        ordering — is preserved) under the legacy root ``.cache.lock``,
        which is exactly what a pre-sharding process holds for its
        mutations, so a straggler writer cannot interleave.  A file a
        sibling already migrated is skipped silently.
        """
        assert self.directory is not None
        if self._migrated:
            return
        self._migrated = True
        flat = glob.glob(os.path.join(self.directory, "cache_*.json"))
        if not flat:
            return
        root_lock = FileLock(
            os.path.join(self.directory, ".cache.lock"),
            on_wait=self._note_lock_wait,
        )
        with root_lock:
            for name in glob.glob(
                os.path.join(self.directory, "cache_*.json")
            ):
                fingerprint = os.path.basename(name)[len("cache_"):-len(".json")]
                target = self.entry_path(fingerprint)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                try:
                    os.replace(name, target)
                except FileNotFoundError:  # pragma: no cover - sibling race
                    continue

    def _disk_entry_files(self) -> List[str]:
        """Every entry file in the store: all shards plus any flat-layout
        stragglers a pre-sharding process may still be writing."""
        assert self.directory is not None
        return glob.glob(
            os.path.join(self.directory, "*", "cache_*.json")
        ) + glob.glob(os.path.join(self.directory, "cache_*.json"))

    def _evict_disk_locked(self) -> None:
        """Drop the oldest entry files beyond :attr:`max_disk_entries`.

        Caller holds the written shard's interprocess lock.  Accounting
        is *global* — the scan counts every shard so the cap bounds the
        whole directory — while the lock held is per-shard: unlinks are
        atomic, sibling readers treat a vanished file as a miss, and a
        file a sibling already removed is skipped silently, so evicting
        across shard boundaries needs no cross-shard locking.
        Oldest-by-mtime is the cross-process analogue of the in-memory
        LRU (an ``os.replace`` refresh on re-store bumps the time).
        """
        assert self.directory is not None and self.max_disk_entries is not None
        files = []
        for name in self._disk_entry_files():
            try:
                files.append((os.path.getmtime(name), name))
            except OSError:  # vanished mid-scan
                continue
        excess = len(files) - self.max_disk_entries
        if excess <= 0:
            return
        files.sort()
        for _, name in files[:excess]:
            try:
                os.unlink(name)
            except FileNotFoundError:  # pragma: no cover - sibling race
                continue
            with self._lock:
                self.stats.evictions += 1

    def _note_retry(self, attempt: int, exc: BaseException) -> None:
        with self._lock:
            self.stats.retries += 1

    def _insert(self, fingerprint: str, entry: Dict[str, Any]) -> None:
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ----------------------------------------------------------------------
# ordering entries (run_fs / run_fs_shared)
# ----------------------------------------------------------------------

def _mark(counters: Optional[OperationCounters], hit: bool) -> None:
    if counters is not None:
        counters.add_extra("cache_hits" if hit else "cache_misses")


def lookup_ordering(
    cache: ResultCache,
    key: TableKey,
    counters: Optional[OperationCounters] = None,
    profiler: Optional[Profiler] = None,
) -> Optional[Tuple[int, List[int], List[int]]]:
    """Consult the cache for an optimal-ordering entry.

    Returns ``(mincost, order, widths)`` translated back to the caller's
    variables — non-support variables appended at the bottom with width
    0 — or ``None`` on a miss.  A stored payload inconsistent with the
    key raises :class:`~repro.errors.CacheError`.
    """
    with _phase(profiler, "cache_lookup"):
        entry = cache.lookup(key.fingerprint)
    _mark(counters, entry is not None)
    if entry is None:
        return None
    m = key.canonical_n
    canonical_order = [int(v) for v in entry.get("order", ())]
    widths = [int(w) for w in entry.get("widths", ())]
    mincost = int(entry.get("mincost", -1))
    if (
        entry.get("kind") != "ordering"
        or sorted(canonical_order) != list(range(m))
        or len(widths) != m
        or sum(widths) != mincost
    ):
        raise CacheError(
            f"cache entry {key.fingerprint} holds a malformed ordering "
            f"payload for a {m}-variable canonical function"
        )
    order = key.form.map_order_back(canonical_order)
    full_widths = widths + [0] * (key.form.n - m)
    return mincost, order, full_widths


def store_ordering(
    cache: ResultCache,
    key: TableKey,
    order: Sequence[int],
    widths: Sequence[int],
    counters: Optional[OperationCounters] = None,
    profiler: Optional[Profiler] = None,
) -> None:
    """Record a freshly computed optimal ordering under its canonical key.

    ``order``/``widths`` are in the caller's variables; the canonical
    projection drops non-support levels (which must carry zero width)
    and renames through the canonicalizing permutation.
    """
    support_set = set(key.form.support)
    canonical_of = {
        key.form.support[kept]: c for c, kept in enumerate(key.form.perm)
    }
    canonical_order: List[int] = []
    canonical_widths: List[int] = []
    for v, w in zip(order, widths):
        if v in support_set:
            canonical_order.append(canonical_of[v])
            canonical_widths.append(int(w))
        elif w != 0:
            raise CacheError(
                f"non-support variable {v} reported width {w}; refusing "
                "to cache an inconsistent profile"
            )
    entry = {
        "kind": "ordering",
        "order": canonical_order,
        "widths": canonical_widths,
        "mincost": int(sum(canonical_widths)),
    }
    with _phase(profiler, "cache_store"):
        cache.store(key.fingerprint, entry)
    if counters is not None:
        counters.add_extra("cache_stores")


def chain_result_maps(
    order: Sequence[int], widths: Sequence[int]
) -> Tuple[Dict[int, int], Dict[int, int], Dict[Tuple[int, int], int]]:
    """DP-table views along one chain (for cache-hit ``FSResult``\\ s).

    A hit knows the optimal chain and its level widths but not the full
    ``MINCOST_I`` lattice; these maps cover exactly the chain's subsets,
    which is what diagram reconstruction and width queries need.  (Full
    enumeration of *all* optimal orderings still requires an uncached
    run.)
    """
    mincost_by_subset: Dict[int, int] = {0: 0}
    best_last: Dict[int, int] = {}
    level_cost_by_choice: Dict[Tuple[int, int], int] = {}
    mask = 0
    total = 0
    for var, width in zip(reversed(list(order)), reversed(list(widths))):
        level_cost_by_choice[(mask, var)] = int(width)
        mask |= 1 << var
        total += int(width)
        mincost_by_subset[mask] = total
        best_last[mask] = var
    return mincost_by_subset, best_last, level_cost_by_choice


def chain_widths(
    order: Sequence[int],
    level_cost_by_choice: Mapping[Tuple[int, int], int],
    n: int,
) -> List[int]:
    """Width profile of ``order`` read off a sweep's recorded level costs."""
    below = (1 << n) - 1
    widths: List[int] = []
    for var in order:
        below &= ~(1 << var)
        widths.append(int(level_cost_by_choice[(below, var)]))
    return widths


# ----------------------------------------------------------------------
# batch front-end
# ----------------------------------------------------------------------

@dataclass
class BatchError:
    """Structured record of one batch item's failure."""

    index: int
    """Position of the failing table in the input batch."""

    stage: str
    """``"fingerprint"`` (canonicalization rejected the table) or
    ``"solve"`` (the optimizer raised)."""

    error_type: str
    """Exception class name, e.g. ``"DimensionError"``,
    ``"BudgetExceeded"``."""

    message: str


@dataclass
class BatchItem:
    """Per-input outcome of :func:`optimize_many` (aligned 1:1 with the
    input batch)."""

    index: int
    status: str
    """``"ok"`` (solved as requested), ``"fallback"`` (a lower ladder
    rung produced the ordering) or ``"error"``."""

    result: Optional["FSResultLike"] = None
    """The :class:`~repro.core.fs.FSResult` (or
    :class:`~repro.core.budget.FallbackResult` when a ladder is active);
    ``None`` iff :attr:`status` is ``"error"``."""

    error: Optional[BatchError] = None


@dataclass
class BatchOutcome:
    """What :func:`optimize_many` returns."""

    results: List["FSResultLike"]
    """The successful results in input order.  With default options every
    item succeeds and this holds one entry per input table; failed items
    (see :attr:`items`) are simply absent."""

    unique: int
    """Distinct canonical fingerprints among the inputs."""

    stats: Dict[str, int] = field(default_factory=dict)
    """The cache's :meth:`CacheStats.snapshot` after the batch."""

    items: List[BatchItem] = field(default_factory=list)
    """One :class:`BatchItem` per input table, in input order — the
    failure-isolated view (``ok``/``fallback``/``error``)."""

    errors: List[BatchError] = field(default_factory=list)
    """Every failed item's :class:`BatchError`, in input order."""


FSResultLike = Any  # FSResult; the real type lives in .fs (imported lazily)


def optimize_many(
    tables: Sequence[TruthTable],
    rule: ReductionRule = ReductionRule.BDD,
    cache: Optional[ResultCache] = None,
    jobs: int = 1,
    backend: str = "serial",
    profiler: Optional[Profiler] = None,
    per_item_timeout: Optional[float] = None,
    fallback: Union[None, str, Sequence[str]] = None,
    budget: Optional["Budget"] = None,
    io_retry: Optional[RetryPolicy] = None,
    install_signal_handlers: bool = False,
) -> BatchOutcome:
    """Optimize a batch of tables with canonical deduplication.

    The batch is fingerprinted first; only the *first* table of each
    orbit is solved, and every other member resolves through the cache —
    zero kernel invocations, with the stored ordering translated through
    that member's own canonicalizing permutation.  Results are
    deterministic and independent of ``jobs`` and ``backend``.

    How ``jobs`` parallelizes depends on ``backend``: with the default
    ``"serial"`` backend, misses fan over a ``jobs``-wide thread pool,
    each item running the sequential engine.  With ``backend="thread"``,
    items run one at a time and each item splits its large DP layers
    over ``jobs`` threads — the right shape when items are big, and what
    keeps worker count bounded at ``jobs`` either way.

    Failures are **isolated per item**: a table the canonicalizer or the
    solver rejects becomes a structured :class:`BatchError` on
    :attr:`BatchOutcome.items` / :attr:`BatchOutcome.errors` while every
    other item still solves.  Worker futures are always drained — one
    poisoned item never abandons or cancels its siblings' work.

    Resource governance:

    ``per_item_timeout``
        Wall-clock seconds granted to each item.  Without ``fallback``
        an over-budget item fails with a ``BudgetExceeded`` batch error;
        with it, the item degrades through the ladder instead.
    ``fallback``
        A ladder spec (``"fs,window,sift"`` or a sequence) handed to
        :func:`~repro.core.budget.run_ladder`; items whose
        ordering came from a rung below the first are tagged
        ``"fallback"``.
    ``budget``
        A batch-wide :class:`~repro.core.budget.Budget`.  Its deadline
        caps the whole batch (each item gets the smaller of
        ``per_item_timeout`` and the batch's remaining time), and its
        cancellation event is shared with every item, so one ``cancel``
        (or signal) stops the whole batch at the next boundary.
    ``io_retry``
        A :class:`~repro.core.checkpoint.RetryPolicy` attached to the
        cache's disk writes (when the cache has no policy of its own).
    ``install_signal_handlers``
        Route SIGINT/SIGTERM into the batch budget's cancellation event
        for the duration of the batch (see
        :func:`~repro.core.budget.handle_signals`); items then stop at
        their next layer boundary — final checkpoints and cache writes
        already flushed — instead of dying mid-write.
    """
    from .budget import Budget, handle_signals, parse_ladder, \
        run_ladder  # deferred: budget's ladder imports .fs
    from .engine import EngineConfig
    from .executor import check_backend
    from .fs import run_fs  # deferred: fs imports this module

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # The serial backend parallelizes *across* items (thread fan-out of
    # sequential solves); the thread backend parallelizes *within* each
    # item, so worker count stays bounded at ``jobs`` either way.
    within_items = check_backend(backend) == "thread"
    solve_jobs = jobs if within_items else 1
    if cache is None:
        cache = ResultCache()
    if io_retry is not None and cache.retry is None:
        cache.retry = io_retry
    ladder = parse_ladder(fallback) if fallback is not None else None
    governed = (
        budget is not None
        or per_item_timeout is not None
        or install_signal_handlers
    )
    parent = budget if budget is not None else Budget()
    if governed:
        parent.arm()

    tables = list(tables)
    items: List[Optional[BatchItem]] = [None] * len(tables)
    keys: List[Optional[TableKey]] = []
    for index, t in enumerate(tables):
        try:
            keys.append(table_key([t], rule, spec="fs", profiler=profiler))
        except Exception as exc:
            keys.append(None)
            items[index] = BatchItem(
                index=index,
                status="error",
                error=BatchError(
                    index=index,
                    stage="fingerprint",
                    error_type=type(exc).__name__,
                    message=str(exc),
                ),
            )
    first_of: Dict[str, int] = {}
    for index, key in enumerate(keys):
        if key is not None:
            first_of.setdefault(key.fingerprint, index)
    representatives = sorted(first_of.values())

    def item_budget() -> Optional["Budget"]:
        if not governed:
            return None
        remaining = parent.remaining()
        if per_item_timeout is None:
            share = remaining
        elif remaining is None:
            share = per_item_timeout
        else:
            share = min(per_item_timeout, remaining)
        return parent.subbudget(share)

    def solve_item(index: int) -> BatchItem:
        sub = item_budget()
        try:
            if ladder is not None:
                outcome = run_ladder(
                    tables[index],
                    budget=sub,
                    ladder=ladder,
                    rule=rule,
                    config=EngineConfig(jobs=solve_jobs, backend=backend,
                                        cache=cache),
                )
                status = "ok" if outcome.rung == ladder[0] else "fallback"
                return BatchItem(index=index, status=status, result=outcome)
            result = run_fs(
                tables[index], rule=rule, jobs=solve_jobs,
                backend=backend, cache=cache, budget=sub,
            )
            return BatchItem(index=index, status="ok", result=result)
        except Exception as exc:
            return BatchItem(
                index=index,
                status="error",
                error=BatchError(
                    index=index,
                    stage="solve",
                    error_type=type(exc).__name__,
                    message=str(exc),
                ),
            )

    def run_batch() -> None:
        if jobs > 1 and len(representatives) > 1 and not within_items:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(jobs, len(representatives))
            ) as pool:
                futures = {i: pool.submit(solve_item, i)
                           for i in representatives}
                try:
                    # solve_item never raises, so this drains every
                    # future even when some items carry errors.
                    for i in representatives:
                        items[i] = futures[i].result()
                except BaseException:
                    # Interpreter-level interrupts (KeyboardInterrupt)
                    # still land here: stop the workers cooperatively
                    # and drop queued ones instead of leaking them.
                    parent.cancel.set()
                    for future in futures.values():
                        future.cancel()
                    raise
        else:
            for i in representatives:
                items[i] = solve_item(i)
        for i in range(len(tables)):
            if items[i] is not None:
                continue
            key = keys[i]
            assert key is not None  # fingerprint failures filled above
            rep = first_of[key.fingerprint]
            rep_item = items[rep]
            assert rep_item is not None
            if rep_item.status == "error" and rep_item.error is not None:
                # Re-solving an orbit whose representative failed would
                # deterministically fail the same way; report it directly.
                items[i] = BatchItem(
                    index=i,
                    status="error",
                    error=BatchError(
                        index=i,
                        stage=rep_item.error.stage,
                        error_type=rep_item.error.error_type,
                        message=(f"duplicate of failed item {rep}: "
                                 f"{rep_item.error.message}"),
                    ),
                )
            else:
                items[i] = solve_item(i)  # resolves as a cache hit

    if install_signal_handlers:
        with handle_signals(parent):
            run_batch()
    else:
        run_batch()

    final_items = [item for item in items if item is not None]
    assert len(final_items) == len(tables)
    if profiler is not None:
        profiler.note_cache_stats(cache.stats.snapshot())
    return BatchOutcome(
        results=[item.result for item in final_items
                 if item.result is not None],
        unique=len(first_of),
        stats=cache.stats.snapshot(),
        items=final_items,
        errors=[item.error for item in final_items
                if item.error is not None],
    )
