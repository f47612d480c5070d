"""Crash-safe checkpoints for the layered sweep (and fault injection).

The FS dynamic program is the most expensive thing this repository runs —
``O*(3^n)`` table cells (Theorem 5) — and, because Lemma 4's recurrence
only ever reads the previous layer, a finished layer is a perfect cut
point: the layer matrix plus the DP tables of the layers so far are
everything the sweep needs to continue.  This module snapshots that
state, one layer per file, so :func:`repro.core.engine.run_layered_sweep`
can restart from the last finished layer instead of from scratch, which
covers every DP entry point (``run_fs``, ``run_fs_shared``, the
constrained DP, the window optimizer and FS*) for free.

Design points:

* **One layer per file.**  The file of layer ``k`` holds only what layer
  ``k`` added: the finished :class:`~repro.core.frontier.Layer` (masks,
  mincosts and tables) as one base64 blob, its rows' best last
  variables, and its candidates' level costs as ``(absolute predecessor
  mask, variable, Cost_i)`` columns, plus the running
  ``subsets_processed`` and counter delta.  A write costs in proportion
  to its layer, and a resume from layer ``k`` reads layers ``1..k``
  back; a missing or damaged file among them raises
  :class:`~repro.errors.CheckpointError` naming it.
* **Self-describing files.**  Each file carries a *fingerprint* of the
  sweep (rule, ``n``, universe mask, layer format, a content hash of the
  base state, ...) and a SHA-256 *checksum* of the payload.  Loading
  validates both; a truncated file, a checksum mismatch or a
  fingerprint mismatch raises :class:`~repro.errors.CheckpointError`
  naming the offending file — a resume never silently continues from
  the wrong data.
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
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..analysis.counters import OperationCounters
from ..errors import CheckpointError
from .frontier import Layer
from .spec import FSState

FORMAT_VERSION = 1

# How a checkpoint holds its layer.  Format 3 is one file per layer
# holding only that layer; files of the earlier formats (per-entry,
# packed columns, and format 2's dense blob beside the whole accumulated
# DP maps) carry a different fingerprint, so they are never resumed.
LAYER_FORMAT = 3

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
    canonical (sorted, separator-free) JSON encoding, which is also the
    payload's text in the document, so the payload is encoded once; the
    file lands via a temp-name ``os.replace`` so a crash mid-write never
    leaves a torn file under the real name.
    """
    payload_json = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()
    checksum = hashlib.sha256(payload_json).hexdigest()
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(f'{{"checksum": "{checksum}", "format": '
                     f'{FORMAT_VERSION}, "payload": '.encode())
        handle.write(payload_json)
        handle.write(b"}")
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

    commits_seen: int = field(default=0, init=False)

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


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def sweep_fingerprint(
    base: FSState,
    universe_mask: int,
    rule: str,
    upto: int,
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
        # Every sweep keeps full layers.  The key stays, constant, so
        # full-layer checkpoints written by earlier versions keep their
        # fingerprint and still resume.
        "frontier": "full",
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
    """One base64 blob: masks, mincosts, then the table matrix."""
    tables = layer.tables
    blob = (layer.masks.tobytes() + layer.mincost.tobytes()
            + np.ascontiguousarray(tables).tobytes())
    return {
        "rows": len(layer),
        "cells": tables.shape[1],
        "dtype": str(tables.dtype),
        "blob": base64.b64encode(blob).decode("ascii"),
    }


def _decode_layer(record: Dict[str, Any]) -> Layer:
    rows, cells = int(record["rows"]), int(record["cells"])
    raw = base64.b64decode(record["blob"], validate=True)
    if not isinstance(record["dtype"], str):
        # np.dtype(None) is float64: a layer without tables must not
        # decode into a matrix of zero-width float rows.
        raise ValueError(
            f"layer record names no table dtype ({record['dtype']!r})"
        )
    dtype = np.dtype(record["dtype"])
    size = 16 * rows + rows * cells * dtype.itemsize
    if len(raw) != size:
        raise ValueError(
            f"layer blob holds {len(raw)} bytes, its header says {size}"
        )
    masks = np.frombuffer(raw, np.int64, rows)
    mincost = np.frombuffer(raw, np.int64, rows, 8 * rows)
    tables = np.frombuffer(raw, dtype, rows * cells, 16 * rows)
    return Layer(masks, mincost, tables.reshape(rows, cells))


def _encode_columns(columns: np.ndarray) -> Dict[str, Any]:
    """An ``int64`` column, or the equal-length columns that are the
    rows of a matrix, as one base64 blob."""
    columns = np.ascontiguousarray(columns, np.int64)
    return {"rows": columns.shape[-1],
            "blob": base64.b64encode(columns.tobytes()).decode("ascii")}


def _decode_columns(record: Dict[str, Any], count: int) -> np.ndarray:
    """The ``(count, rows)`` matrix of :func:`_encode_columns`."""
    rows = int(record["rows"])
    raw = base64.b64decode(record["blob"], validate=True)
    if len(raw) != 8 * count * rows:
        raise ValueError(
            f"column blob holds {len(raw)} bytes, its header says "
            f"{count} columns of {rows} rows"
        )
    return np.frombuffer(raw, np.int64).reshape(count, rows)


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
class LayerCheckpoint:
    """One validated layer file: what layer ``layer`` added to the sweep,
    and the sweep's running totals after it."""

    layer: int
    frontier: Layer
    best_last: np.ndarray
    """Each row's best last variable, aligned with ``frontier``'s rows."""

    level_cost: np.ndarray
    """The layer's candidates, a ``(3, candidates)`` block: absolute
    predecessor masks, variables and ``Cost_i``."""

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
        best_last: np.ndarray,
        level_cost: np.ndarray,
        subsets_processed: int,
        counter_delta: Dict[str, int],
    ) -> str:
        """Atomically persist finished layer ``k``; returns the file path."""
        payload = {
            "fingerprint": self.fingerprint,
            "layer": k,
            "frontier": _encode_layer(frontier),
            "best_last": _encode_columns(best_last),
            "level_cost": _encode_columns(level_cost),
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

    def load_layers(self, upto: int) -> Iterator[LayerCheckpoint]:
        """Layers ``1..k`` of the newest finished layer ``k <= upto``, in
        order, each validated as it is read; nothing when no file exists.

        Every one of them must be present and valid: a missing, damaged
        or mismatched file raises :class:`~repro.errors.CheckpointError`
        naming it rather than silently falling back to an older layer
        or a cold start.
        """
        on_disk = [k for k in self.layers_on_disk() if k <= upto]
        for k in range(1, max(on_disk, default=0) + 1):
            path = self.layer_path(k)
            if k not in on_disk:
                raise CheckpointError(
                    f"checkpoint {path} is missing; resuming from layer "
                    f"{max(on_disk)} needs every layer below it"
                )
            restored = self.load_file(path)
            if restored.layer != k:
                raise CheckpointError(
                    f"checkpoint {path} holds layer {restored.layer}, "
                    f"not {k}"
                )
            yield restored

    def load_latest(self, upto: int) -> Optional[LayerCheckpoint]:
        """The newest finished layer ``<= upto``, or ``None``, after
        validating every layer below it (see :meth:`load_layers`)."""
        restored = None
        for restored in self.load_layers(upto):
            pass
        return restored

    def load_file(self, path: str) -> LayerCheckpoint:
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
            frontier = _decode_layer(payload["frontier"])
            (best_last,) = _decode_columns(payload["best_last"], 1)
            level_cost = _decode_columns(payload["level_cost"], 3)
            if len(best_last) != len(frontier):
                raise ValueError(
                    f"{len(best_last)} best last variables for "
                    f"{len(frontier)} rows"
                )
            restored = LayerCheckpoint(
                layer=int(payload["layer"]),
                frontier=frontier,
                best_last=best_last,
                level_cost=level_cost,
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
