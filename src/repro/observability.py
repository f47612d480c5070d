"""Observability for the FS-family dynamic programs.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows"; the prerequisite is being able to *see* where a run spends its
time and memory.  This module provides the instrumentation layer the
execution engine (:mod:`repro.core.engine`) emits into:

* :class:`Profiler` — named phase timers plus a per-layer trajectory of
  the subset-cardinality sweep (wall-clock, frontier footprint, subset
  throughput, cumulative operation counters);
* :class:`LayerProfile` — one record per DP layer ``k``, its frontier
  footprint the exact :attr:`~repro.core.frontier.Layer.nbytes` of the
  retained layer.

Everything serializes to plain JSON (``Profiler.to_dict`` /
``Profiler.write``) so CLI runs (``repro optimize --profile out.json``)
and benchmarks (``BENCH_*.json``) can record the same trajectory.

Well-known phase names: ``prepare``, ``checkpoint_write`` /
``checkpoint_load``, ``cache_lookup`` / ``cache_store`` /
``canonicalize``, ``budget_check`` — the engine's per-layer-boundary
resource-governance checks (see :mod:`repro.core.budget`), kept as a
phase so operators can verify governance overhead stays negligible.
Governance events land in the ``budget_aborts`` / ``fallback_used`` /
``retries`` extra counters.  No counter depends on the execution
backend: serial and thread sweeps produce identical snapshots.

Wall-clock numbers are honest measurements of *this* process; the paper's
complexity claims are still pinned by the deterministic
:class:`~repro.analysis.counters.OperationCounters`, which the profile
embeds as per-layer snapshots so both views line up.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

@dataclass
class LayerProfile:
    """One layer of the subset-cardinality sweep, as observed."""

    k: int
    """Subset cardinality of this layer."""

    subsets: int
    """Subsets finalized in this layer (feasible ones, if filtered)."""

    wall_seconds: float
    """Wall-clock time spent computing the layer."""

    frontier_states: int
    """States retained after the layer completed."""

    frontier_bytes: int
    """Exact bytes the retained layer holds
    (:attr:`repro.core.frontier.Layer.nbytes`)."""

    counters: Dict[str, int] = field(default_factory=dict)
    """Cumulative :meth:`OperationCounters.snapshot` after the layer."""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "k": self.k,
            "subsets": self.subsets,
            "wall_seconds": self.wall_seconds,
            "frontier_states": self.frontier_states,
            "frontier_bytes": self.frontier_bytes,
            "counters": dict(self.counters),
        }


@dataclass
class Profiler:
    """Collects phase timings and the per-layer sweep trajectory.

    A single profiler may span several DP runs (e.g. a window sweep runs
    many FS* solves); layers append in execution order and phases
    accumulate by name.  Pass one to ``run_fs(..., profiler=...)`` or any
    other engine-backed entry point, then ``write(path)`` it.

    Mutation is thread-safe: phase accumulation and layer/peak updates
    are read-modify-write sequences, so a profiler shared by concurrent
    runs (the serve daemon's request workers) would otherwise lose
    updates.  Layers then interleave in completion order across runs —
    honest, if harder to read than a single run's trajectory.
    """

    phases: Dict[str, float] = field(default_factory=dict)
    layers: List[LayerProfile] = field(default_factory=list)
    peak_frontier_bytes: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    """Free-form run description (n, rule, kernel, jobs, ...)."""

    cache: Dict[str, int] = field(default_factory=dict)
    """Result-cache tallies (hits/misses/stores/disk_hits/evictions); see
    :meth:`note_cache_stats`.  Empty when no cache was attached."""

    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase; repeated phases accumulate."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def record_layer(
        self,
        k: int,
        subsets: int,
        wall_seconds: float,
        frontier_states: int,
        frontier_bytes: int,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        with self._lock:
            self.layers.append(
                LayerProfile(
                    k=k,
                    subsets=subsets,
                    wall_seconds=wall_seconds,
                    frontier_states=frontier_states,
                    frontier_bytes=frontier_bytes,
                    counters=dict(counters or {}),
                )
            )
            if frontier_bytes > self.peak_frontier_bytes:
                self.peak_frontier_bytes = frontier_bytes

    def note_cache_stats(self, stats: Mapping[str, int]) -> None:
        """Embed a :class:`repro.core.cache.CacheStats` snapshot.

        Called once at the end of a cached run (the CLI and
        ``optimize_many`` do this); repeated calls overwrite, so the
        recorded numbers are the cache's final tallies.  The wall-clock
        cost of cache work is already visible under the ``canonicalize``
        / ``cache_lookup`` / ``cache_store`` phases.
        """
        self.cache = dict(stats)

    @property
    def total_layer_seconds(self) -> float:
        return sum(layer.wall_seconds for layer in self.layers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "phases": dict(self.phases),
            "cache": dict(self.cache),
            "peak_frontier_bytes": self.peak_frontier_bytes,
            "total_layer_seconds": self.total_layer_seconds,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Emit the profile as JSON to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
