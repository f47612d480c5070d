"""Crash-safe checkpoints for the layered sweep (and fault injection).

The FS dynamic program is the most expensive thing this repository runs —
``O*(3^n)`` table cells (Theorem 5) — and, because Lemma 4's recurrence
only ever reads the previous layer, a finished layer is a perfect cut
point: the layer matrix plus the accumulated DP tables are everything
the sweep needs to continue.  This module snapshots exactly that state so
:func:`repro.core.engine.run_layered_sweep` can restart from the last
finished layer instead of from scratch, which covers every DP entry point
(``run_fs``, ``run_fs_shared``, the constrained DP, the window optimizer
and FS*) for free.

Design points:

* **Self-describing files.**  Each layer writes one JSON file carrying a
  *fingerprint* of the sweep (rule, ``n``, universe mask, frontier
  policy, layer format, a content hash of the base state, ...), the
  finished :class:`~repro.core.frontier.Layer` as one base64 blob, and a
  SHA-256 *checksum* of the payload.  Loading validates both; a
  truncated file, a checksum mismatch or a fingerprint mismatch raises
  :class:`~repro.errors.CheckpointError` naming the offending file —
  a resume never silently continues from the wrong data.
* **Fingerprint-scoped filenames.**  The fingerprint hash is part of the
  filename, so many sweeps (a window sweep runs dozens of FS* solves) can
  share one checkpoint directory without clobbering each other, and a
  resume only ever considers files written by an identical sweep.
* **Atomic writes.**  Files are written to a temp name and
  ``os.replace``-d into place, so a crash mid-write leaves the previous
  checkpoint intact (the torn temp file is ignored by the loader).
* **Exact counter restoration.**  Each checkpoint stores the sweep's
  *delta* of :class:`~repro.analysis.counters.OperationCounters` since
  the sweep started.  Because the sweep is deterministic, restoring the
  delta is indistinguishable from recomputing the layers: an
  interrupted-then-resumed run is bit-identical to an uninterrupted one
  in both results and counters (the fault-injection tests prove this for
  all five entry points).

:class:`FaultInjector` is the testing hook that makes the guarantee
checkable: attached to an :class:`~repro.core.engine.EngineConfig` it can
kill the process (raise :class:`InjectedFault`) after a chosen layer or
after a chosen number of checkpoint writes, and corrupt a just-written
checkpoint to exercise the validation paths.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.counters import OperationCounters
from ..errors import CheckpointError
from .frontier import Layer
from .spec import FSState

FORMAT_VERSION = 1

# How a checkpoint holds its layer.  Format 2 is one dense blob per
# layer; files of the earlier per-entry and packed-column formats carry
# a different fingerprint, so they are never resumed.
LAYER_FORMAT = 2

_COUNTER_FIELDS = (
    "table_cells",
    "compactions",
    "nodes_created",
    "subsets_processed",
    "oracle_queries",
    "classical_evaluations",
)


# ----------------------------------------------------------------------
# checked-JSON envelope (shared with repro.core.cache)
# ----------------------------------------------------------------------

def write_checked_json(path: str, payload: Dict[str, Any]) -> str:
    """Atomically write ``payload`` wrapped in a checksummed envelope.

    The document layout (``format``/``checksum``/``payload``) is the one
    every durable artifact of this package uses: sweep checkpoints and
    result-cache entries alike.  The payload checksum is computed over the
    canonical (sorted, separator-free) JSON encoding, and the file lands
    via a temp-name ``os.replace`` so a crash mid-write never leaves a
    torn file under the real name.
    """
    payload_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    document = {
        "format": FORMAT_VERSION,
        "checksum": hashlib.sha256(payload_json.encode()).hexdigest(),
        "payload": payload,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(document, handle, sort_keys=True)
    os.replace(tmp, path)
    return path


def read_checked_json(path: str, error: type = CheckpointError) -> Dict[str, Any]:
    """Read and validate a :func:`write_checked_json` document.

    Returns the payload.  A missing/unreadable file, invalid JSON, a
    missing envelope, or a checksum mismatch raises ``error`` (default
    :class:`~repro.errors.CheckpointError`; the result cache passes
    :class:`~repro.errors.CacheError`) naming the offending file.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise error(f"{path} could not be read: {exc}") from exc
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(
            f"{path} is truncated or not valid JSON ({exc})"
        ) from None
    if (
        not isinstance(document, dict)
        or "payload" not in document
        or "checksum" not in document
    ):
        raise error(f"{path} is missing its payload/checksum envelope")
    payload = document["payload"]
    payload_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload_json.encode()).hexdigest()
    if digest != document["checksum"]:
        raise error(
            f"{path} failed its content checksum "
            f"(expected {document['checksum']}, computed {digest}); "
            "the file is corrupt"
        )
    return payload


@dataclass
class RetryPolicy:
    """Exponential-backoff retry for transient durable-storage I/O.

    Checkpoint and result-cache files live on whatever filesystem the
    operator points them at — often networked storage where a write can
    fail transiently (NFS blip, quota race) without the run being doomed.
    This policy wraps one I/O callable: retryable exceptions are retried
    up to ``max_retries`` times with delays ``base_delay * 2**attempt``
    capped at ``max_delay``; anything else (and the final failure)
    propagates unchanged.  Validation errors
    (:class:`~repro.errors.CheckpointError` /
    :class:`~repro.errors.CacheError`) are *not* ``OSError`` subclasses,
    so corrupt data is never retried into silence.

    ``sleep`` is injectable so tests run instantly; ``retries_used``
    tallies across every :meth:`run` for observability (the result cache
    mirrors it into :class:`repro.core.cache.CacheStats.retries` and the
    engine into the ``retries`` extra counter).
    """

    max_retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    retryable: Tuple[type, ...] = (OSError,)
    sleep: Callable[[float], None] = time.sleep

    retries_used: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def run(
        self,
        fn: Callable[[], Any],
        describe: str = "operation",
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Call ``fn`` with retries; returns its result.

        ``on_retry(attempt, exc)`` fires before each backoff sleep (for
        counters/logging).  The last exception is re-raised unchanged
        once the budget of retries is spent.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except self.retryable as exc:
                if attempt >= self.max_retries:
                    raise
                delay = min(self.base_delay * (2 ** attempt), self.max_delay)
                attempt += 1
                self.retries_used += 1
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.sleep(delay)


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultInjector` to simulate a crash.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a real crash
    is not handled by library error paths, so the simulated one must not
    be either (the CLI's ``except ReproError`` would otherwise swallow
    it and defeat the tests).
    """


def corrupt_checkpoint(path: str, mode: str = "truncate") -> None:
    """Damage a checkpoint file in a controlled way (for fault injection).

    ``"truncate"`` keeps only the first half of the file (torn write),
    ``"flip"`` flips one byte in the middle (bit rot; the JSON usually
    still parses but the checksum no longer matches), ``"garbage"``
    replaces the content with non-JSON bytes.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "truncate":
        data = data[: len(data) // 2]
    elif mode == "flip":
        mid = len(data) // 2
        data = data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]
    elif mode == "garbage":
        data = b"\x00corrupt checkpoint\x00" * 4
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as handle:
        handle.write(data)


@dataclass
class FaultInjector:
    """Deterministic crash/corruption injection for checkpointed sweeps.

    Attach one to ``EngineConfig(fault_injector=...)``; the engine calls
    :meth:`on_layer_committed` after each layer's checkpoint is durably
    on disk.  Counters persist across sweeps, so ``kill_after_writes``
    can target a layer deep inside a multi-solve run (a window sweep).
    """

    kill_after_layer: Optional[int] = None
    """Raise :class:`InjectedFault` after the first sweep layer with this
    cardinality ``k`` commits."""

    kill_after_writes: Optional[int] = None
    """Raise after this many layer commits, counted across every sweep
    this injector observes."""

    corrupt_layer: Optional[int] = None
    """Corrupt the checkpoint file of the layer with this cardinality
    right after it is written (simulating a torn write that fsync'd)."""

    corruption: str = "truncate"
    """Damage mode for ``corrupt_layer`` (see :func:`corrupt_checkpoint`)."""

    kill_worker_layer: Optional[int] = None
    """SIGKILL the worker process executing chunk ``kill_worker_chunk``
    of the layer with this cardinality — a *process-level* fault, unlike
    the coordinator-side raises above.  The process backend consults the
    injector while building that chunk's task and flags the envelope;
    the worker kills itself with ``SIGKILL`` (uncatchable, exactly what
    an OOM killer delivers), the pool reports
    :class:`concurrent.futures.process.BrokenProcessPool`, and the
    backend's self-healing path takes over.  In-process backends ignore
    these fields: there is no worker to lose."""

    kill_worker_chunk: int = 0
    """Chunk index (within the layer's chunk list) whose worker dies."""

    kill_worker_phase: str = "before"
    """``"before"`` kills the worker as the chunk starts (no work done);
    ``"during"`` kills it about halfway through the chunk's masks, so
    partial worker-side state is provably discarded on retry."""

    worker_kills: int = 1
    """How many times the targeted chunk's worker dies.  Each armed kill
    fires once — the coordinator marks it consumed *before* shipping the
    chunk, so the healed pool's re-submission runs clean.  Values above
    ``max_pool_rebuilds`` exhaust the healing budget and surface
    :class:`~repro.errors.ExecutorBrokenError` deterministically."""

    commits_seen: int = field(default=0, init=False)

    worker_kills_injected: int = field(default=0, init=False)
    """How many worker kills this injector has armed so far (across
    retries and sweeps); tests assert it to prove the fault fired."""

    def on_layer_committed(self, k: int, path: Optional[str]) -> None:
        self.commits_seen += 1
        if self.corrupt_layer == k and path is not None:
            corrupt_checkpoint(path, self.corruption)
        if self.kill_after_layer is not None and k == self.kill_after_layer:
            raise InjectedFault(
                f"injected crash after layer k={k} committed"
            )
        if (
            self.kill_after_writes is not None
            and self.commits_seen >= self.kill_after_writes
        ):
            raise InjectedFault(
                f"injected crash after {self.commits_seen} checkpoint commits"
            )

    def take_worker_kill(self, layer: int, chunk_index: int) -> Optional[str]:
        """Consume one armed worker kill for ``(layer, chunk_index)``.

        Returns the kill phase (``"before"``/``"during"``) when the
        chunk's worker should die, ``None`` otherwise.  Consuming
        *mutates coordinator state*, which is what makes recovery
        deterministic: once ``worker_kills`` kills have been armed, the
        healed pool's re-submission of the same chunk ships clean.
        """
        if (
            self.kill_worker_layer != layer
            or self.kill_worker_chunk != chunk_index
            or self.worker_kills_injected >= self.worker_kills
        ):
            return None
        if self.kill_worker_phase not in ("before", "during"):
            raise ValueError(
                f"unknown kill_worker_phase {self.kill_worker_phase!r}; "
                "expected 'before' or 'during'"
            )
        self.worker_kills_injected += 1
        return self.kill_worker_phase


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def sweep_fingerprint(
    base: FSState,
    universe_mask: int,
    rule: str,
    upto: int,
    frontier: str,
    tag: str = "",
) -> Dict[str, Any]:
    """Identity of a sweep: two sweeps with equal fingerprints compute
    bit-identical layers, so one may resume from the other's checkpoints.

    The base state is folded in as a content hash of its table plus its
    placement bookkeeping; ``tag`` lets entry points with state the engine
    cannot see (the constrained DP's precedence closure — its
    ``subset_filter`` is an opaque callable) contribute to the identity.
    """
    base_hash = hashlib.sha256()
    base_hash.update(str(base.table.dtype).encode())
    base_hash.update(np.ascontiguousarray(base.table).tobytes())
    return {
        "format": FORMAT_VERSION,
        "layer_format": LAYER_FORMAT,
        "rule": rule,
        "frontier": frontier,
        "n": base.n,
        "num_roots": base.num_roots,
        "num_terminals": base.num_terminals,
        "universe_mask": universe_mask,
        "upto": upto,
        "base_mask": base.mask,
        "base_pi": list(base.pi),
        "base_mincost": base.mincost,
        "base_table_sha256": base_hash.hexdigest(),
        "tag": tag,
    }


def fingerprint_hash(fingerprint: Dict[str, Any]) -> str:
    """Short stable digest used to scope checkpoint filenames."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# layer / counter codecs
# ----------------------------------------------------------------------

def _encode_layer(layer: Layer) -> Dict[str, Any]:
    """One base64 blob: masks, mincosts, then the table matrix (if any)."""
    tables = layer.tables
    blob = layer.masks.tobytes() + layer.mincost.tobytes()
    if tables is not None:
        blob += np.ascontiguousarray(tables).tobytes()
    return {
        "rows": len(layer),
        "cells": 0 if tables is None else tables.shape[1],
        "dtype": None if tables is None else str(tables.dtype),
        "blob": base64.b64encode(blob).decode("ascii"),
    }


def _decode_layer(record: Dict[str, Any]) -> Layer:
    rows, cells = int(record["rows"]), int(record["cells"])
    raw = base64.b64decode(record["blob"], validate=True)
    dtype = None if record["dtype"] is None else np.dtype(record["dtype"])
    size = 16 * rows + (0 if dtype is None else rows * cells * dtype.itemsize)
    if len(raw) != size:
        raise ValueError(
            f"layer blob holds {len(raw)} bytes, its header says {size}"
        )
    masks = np.frombuffer(raw, np.int64, rows)
    mincost = np.frombuffer(raw, np.int64, rows, 8 * rows)
    tables = None
    if dtype is not None:
        tables = np.frombuffer(raw, dtype, rows * cells, 16 * rows)
        tables = tables.reshape(rows, cells)
    return Layer(masks, mincost, tables)


def counters_from_snapshot(snapshot: Dict[str, int]) -> OperationCounters:
    """Rebuild an :class:`OperationCounters` from a plain-dict snapshot
    (the inverse of ``OperationCounters.snapshot`` / ``diff``)."""
    counters = OperationCounters()
    for key, amount in snapshot.items():
        if key in _COUNTER_FIELDS:
            setattr(counters, key, int(amount))
        else:
            counters.add_extra(key, int(amount))
    return counters


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

@dataclass
class RestoredSweep:
    """Everything a resumed sweep needs to continue after ``layer``."""

    layer: int
    frontier: Layer
    mincost_by_subset: Dict[int, int]
    best_last: Dict[int, int]
    level_cost_by_choice: Dict[Tuple[int, int], int]
    subsets_processed: int
    counter_delta: OperationCounters
    path: str


class CheckpointStore:
    """Reads and writes per-layer sweep checkpoints in one directory.

    Files are named ``ckpt_<fingerprint12>_layer_<k>.json`` so multiple
    sweeps coexist; only files matching this store's fingerprint are ever
    considered for resume, and every load re-validates the embedded
    fingerprint and payload checksum.
    """

    def __init__(
        self,
        directory: str,
        fingerprint: Dict[str, Any],
        retry: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self.fp_hash = fingerprint_hash(fingerprint)
        self.retry = retry
        self.on_retry = on_retry
        os.makedirs(directory, exist_ok=True)

    def layer_path(self, k: int) -> str:
        return os.path.join(
            self.directory, f"ckpt_{self.fp_hash}_layer_{k:04d}.json"
        )

    def layers_on_disk(self) -> List[int]:
        """Layer numbers with a checkpoint file for this fingerprint."""
        pattern = re.compile(
            rf"^ckpt_{re.escape(self.fp_hash)}_layer_(\d+)\.json$"
        )
        out = []
        for name in os.listdir(self.directory):
            match = pattern.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def save_layer(
        self,
        k: int,
        frontier: Layer,
        mincost_by_subset: Dict[int, int],
        best_last: Dict[int, int],
        level_cost_by_choice: Dict[Tuple[int, int], int],
        subsets_processed: int,
        counter_delta: Dict[str, int],
    ) -> str:
        """Atomically persist finished layer ``k``; returns the file path."""
        payload = {
            "fingerprint": self.fingerprint,
            "layer": k,
            "frontier": _encode_layer(frontier),
            "mincost_by_subset": sorted(mincost_by_subset.items()),
            "best_last": sorted(best_last.items()),
            "level_cost_by_choice": [
                [list(key), cost]
                for key, cost in sorted(level_cost_by_choice.items())
            ],
            "subsets_processed": subsets_processed,
            "counter_delta": dict(sorted(counter_delta.items())),
        }
        path = self.layer_path(k)
        if self.retry is not None:
            return self.retry.run(
                lambda: write_checked_json(path, payload),
                describe=path,
                on_retry=self.on_retry,
            )
        return write_checked_json(path, payload)

    def load_latest(self, upto: int) -> Optional[RestoredSweep]:
        """Restore the newest finished layer ``<= upto``, or ``None``.

        The newest matching file must validate; a damaged or mismatched
        checkpoint raises :class:`~repro.errors.CheckpointError` rather
        than silently falling back to an older layer or a cold start.
        """
        candidates = [k for k in self.layers_on_disk() if k <= upto]
        if not candidates:
            return None
        return self.load_file(self.layer_path(max(candidates)))

    def load_file(self, path: str) -> RestoredSweep:
        """Load and fully validate one checkpoint file."""
        payload = read_checked_json(path, error=CheckpointError)
        found = payload.get("fingerprint", {})
        if found != self.fingerprint:
            differing = sorted(
                key
                for key in set(found) | set(self.fingerprint)
                if found.get(key) != self.fingerprint.get(key)
            )
            raise CheckpointError(
                f"checkpoint {path} was written by a different sweep "
                f"configuration (fingerprint mismatch on: "
                f"{', '.join(differing) or 'entire fingerprint'}); "
                "refusing to resume from it"
            )
        try:
            restored = RestoredSweep(
                layer=int(payload["layer"]),
                frontier=_decode_layer(payload["frontier"]),
                mincost_by_subset={
                    int(mask): int(cost)
                    for mask, cost in payload["mincost_by_subset"]
                },
                best_last={
                    int(mask): int(var)
                    for mask, var in payload["best_last"]
                },
                level_cost_by_choice={
                    (int(key[0]), int(key[1])): int(cost)
                    for key, cost in payload["level_cost_by_choice"]
                },
                subsets_processed=int(payload["subsets_processed"]),
                counter_delta=counters_from_snapshot(
                    payload["counter_delta"]
                ),
                path=path,
            )
        except (KeyError, ValueError, TypeError) as error:
            raise CheckpointError(
                f"checkpoint {path} has a malformed payload: {error!r}"
            ) from None
        return restored
