"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see ``README.md`` beside this file for why each exists):

* ``exact-cold`` — ``repro.solve(table)`` with library defaults over a
  seeded corpus of n = 12 functions;
* ``serve-repeat`` — a ``repro serve`` daemon driven by two closed-loop
  connections of mostly repeated requests;
* ``portfolio-race`` — ``repro.solve(table, strategy="portfolio")`` over
  n = 12 functions, scored against exact optima.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  End-to-end timings are scaled to a
reference host speed by calibration ticks taken around every
measurement (``hostspeed.py``); the envelope also gives them as
measured.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run envelope (code identity, host, seed, sample counts and the
generator's shares).  Every answer is checked against exact optima and
re-costed by an independent oracle, and every answer and count is
compared with earlier runs of the same code and seed in this checkout
(``perfbench/.state``, or ``$PERFBENCH_STATE``); any mismatch makes
``correct`` false.

``--toy`` shrinks every workload to a few seconds (n = 6 functions, one
block of serve traffic) for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("exact-cold", "serve-repeat", "portfolio-race")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "cells_per_s": "cells/s",
    "requests_per_s": "req/s",
    "peak_rss_mb": "MB",
    "size_ratio": "ratio",
    "success_share": "ratio",
}

MEMBERS = (
    "anneal", "entropy", "influence", "sift", "sift_group", "sift_swap",
    "sift_symmetric", "window3", "window4",
)

PER_LAYER = dict(
    [(f"engine.cells_per_s.k{k:02d}", "cells/s") for k in range(1, 13)]
    + [
        ("engine.sweep_s", "s"),
        ("kernel.table_cells", "count"),
        ("kernel.compactions", "count"),
        ("kernel.nodes_created", "count"),
        ("frontier.peak_bytes", "bytes"),
        ("frontier.peak_states", "count"),
        ("api.overhead_s", "s"),
        ("cache.canonicalize_s", "s"),
        ("cache.lookup_s", "s"),
        ("cache.store_s", "s"),
        ("cache.hit_share", "ratio"),
        ("serve.solve_s", "s"),
        ("serve.outside_solve_s", "s"),
        ("serve.kernel_sweeps", "count"),
        ("serve.cache_hit_solves", "count"),
        ("serve.batch_deduped", "count"),
    ]
    + [
        (f"portfolio.{member}.{suffix}", unit)
        for member in MEMBERS
        for suffix, unit in (("s", "s"), ("evaluations", "count"),
                             ("size_ratio", "ratio"), ("misreports", "count"))
    ]
    + [("portfolio.table_cells", "count"), ("tracing.overhead_share", "ratio")]
)

# Work per run is a fixed function of --seconds, never of the clock, so
# every answer and count of a seed repeats exactly.  The constants size
# one run to about --seconds on a 2-core x86-64 host.
PASS_SECONDS = {"exact": 20.0, "portfolio": 5.0}
"""One pass solves every exact-cold base once (14 n = 12 solves, about
20 s), or races every portfolio base once (4 races, about 5 s)."""

RACE_SEED = 0
"""The race's own ``seed=`` (anneal's random stream).  It is fixed, like
the portfolio bases, so every run races the same schedule: anneal's
evaluations cost more or less with the orders it visits."""

SERVE_REQUESTS_PER_SECOND = 110.0
CONNECTIONS = 2
SEGMENT = 25
"""Serve requests per connection between two host-speed ticks."""

SETUP_PROBES = 2
"""Extra set-ups per run besides the measured process's own; setup_s is
the median of all of them."""

NOTES_SHOWN = 20
TIMINGS = ("setup_s", "latency_p50_s", "latency_p99_s", "cells_per_s",
           "requests_per_s")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    trace: bool
    toy: bool
    state: Path
    env: Dict[str, str]
    scratch: List[Path] = field(default_factory=list)

    def path(self, name: str) -> Path:
        path = self.state / f"{os.getpid()}-{name}"
        self.scratch.append(path)
        return path

    @property
    def hang_guard(self) -> float:
        """Seconds after which a worker counts as hung: three times the
        work a run does (twice that when traced), plus a minute."""
        return 60.0 + 3.0 * self.seconds * (2 if self.trace else 1)


@dataclass
class Outcome:
    metrics: Dict[str, float]
    """End-to-end timings are at the reference host speed."""

    unscaled: Dict[str, float]
    """The same timings as measured, for the envelope."""

    samples: Dict[str, int]
    attempted: int
    failed: int
    common: Dict[str, Any]
    """Answers and counts both modes must reproduce for this seed."""

    specific: Dict[str, Any]
    """Values only this mode (traced or untraced) produces."""

    shares: Dict[str, Any]
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# statistics and checks
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

Timing = Tuple[float, float]
"""``(as measured, at the reference host speed)``."""


def start_worker(ctx: Context, kind: str, job_path: Path,
                 setup_only: bool) -> Tuple[subprocess.Popen, Timing]:
    """Spawn a worker and wait for READY; returns it and its set-up time
    (spawn to READY: interpreter start, imports, warm-up call), scaled
    by the tick the worker takes just after READY."""
    from hostspeed import scaled

    command = [sys.executable, str(HERE / "worker.py"), kind, str(job_path)]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=ctx.env,
                            stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - started
        if line.strip() != b"READY":
            raise RuntimeError(f"worker {kind} failed during set-up")
        tick = float(proc.stdout.readline())
    except BaseException:
        finish(ctx, proc)
        raise
    return proc, (setup, scaled(setup, tick, tick))


def finish(ctx: Context, proc: subprocess.Popen) -> None:
    """Wait for a worker; kill it only if it hangs, and fail the run if
    it did not exit cleanly."""
    try:
        proc.wait(ctx.hang_guard)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def run_worker(ctx: Context, kind: str, job: Dict[str, Any], name: str,
               probes: int = SETUP_PROBES,
               ) -> Tuple[Dict[str, Any], List[Timing]]:
    """``probes`` set-up-only spawns, then the worker doing the job;
    returns its result and every set-up time."""
    job_path = ctx.path(f"{name}-job.json")
    job["out"] = str(ctx.path(f"{name}-out.json"))
    job["spans"] = str(ctx.path(f"{name}-spans.json"))
    job_path.write_text(json.dumps(job))
    setups = []
    for _ in range(probes):
        proc, setup = start_worker(ctx, kind, job_path, setup_only=True)
        finish(ctx, proc)
        setups.append(setup)
    proc, setup = start_worker(ctx, kind, job_path, setup_only=False)
    finish(ctx, proc)
    setups.append(setup)
    result = json.loads(Path(job["out"]).read_text())
    if job.get("trace") or kind == "replay":
        result["span_list"] = json.loads(Path(job["spans"]).read_text())
    return result, setups


def timing_metrics(setups: List[Timing], latencies: List[Timing],
                   busy: List[Timing], done: int, cells: int,
                   ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The timing metrics, scaled and as measured.  ``busy`` are the
    stretches of the timed window that ``requests_per_s`` and
    ``cells_per_s`` divide ``done`` requests and ``cells`` by."""
    out = []
    for i in (1, 0):
        lat = [t[i] for t in latencies]
        seconds = sum(t[i] for t in busy)
        out.append({
            "setup_s": median([t[i] for t in setups]),
            "latency_p50_s": median(lat),
            "latency_p99_s": percentile(lat, 0.99),
            "cells_per_s": cells / seconds,
            "requests_per_s": done / seconds,
        })
    return out[0], out[1]


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------

def layer_metrics(spans: List[Dict[str, Any]],
                  requests: Optional[Callable[[Any], bool]] = None,
                  ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Engine, frontier, api, cache and serve layers from spans.  Cache
    and serve figures count only spans whose request passes
    ``requests`` (the timed stream, not the warm-up)."""
    from tracing import self_times

    own = self_times(spans)
    named: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)

    def durations(name: str, keep: bool = False) -> List[float]:
        return [
            s["end"] - s["start"] for s in named.get(name, [])
            if not keep or requests is None or requests(s["request"])
        ]

    metrics: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    layers = [s for s in spans if s["name"].startswith("engine.layer.")]
    for k in range(1, 13):
        mine = named.get(f"engine.layer.k{k:02d}", [])
        seconds = sum(s["end"] - s["start"] for s in mine)
        cells = sum(s["attrs"]["cells"] for s in mine)
        metrics[f"engine.cells_per_s.k{k:02d}"] = (
            cells / seconds if seconds > 0 else 0.0
        )
        samples[f"engine.cells_per_s.k{k:02d}"] = len(mine)
    sweeps = durations("engine.sweep")
    metrics["engine.sweep_s"] = median(sweeps)
    samples["engine.sweep_s"] = len(sweeps)
    metrics["frontier.peak_bytes"] = max(
        (s["attrs"]["bytes"] for s in layers), default=0
    )
    metrics["frontier.peak_states"] = max(
        (s["attrs"]["states"] for s in layers), default=0
    )
    samples["frontier.peak_bytes"] = samples["frontier.peak_states"] = len(
        layers
    )
    overheads = [own[s["id"]] for s in named.get("api.solve", [])]
    metrics["api.overhead_s"] = median(overheads)
    samples["api.overhead_s"] = len(overheads)
    for name in ("canonicalize", "lookup", "store"):
        values = durations(f"cache.{name}", keep=True)
        metrics[f"cache.{name}_s"] = median(values)
        samples[f"cache.{name}_s"] = len(values)
    lookups = [
        s for s in named.get("cache.lookup", [])
        if requests is None or requests(s["request"])
    ]
    metrics["cache.hit_share"] = (
        sum(1 for s in lookups if s["attrs"]["hit"]) / len(lookups)
        if lookups else 0.0
    )
    samples["cache.hit_share"] = len(lookups)
    solves = named.get("serve.solve", [])
    metrics["serve.solve_s"] = median([s["end"] - s["start"] for s in solves])
    metrics["serve.outside_solve_s"] = median(
        [own[s["parent"]] for s in solves]
    )
    samples["serve.solve_s"] = samples["serve.outside_solve_s"] = len(solves)
    return metrics, samples


def with_every_layer(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer name; a layer this workload never reaches reads 0."""
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}


# ----------------------------------------------------------------------
# library workloads: exact-cold and portfolio-race
# ----------------------------------------------------------------------

def library_bases(ctx: Context, oracle: Any) -> List[Any]:
    import corpus

    bases = corpus.load_bases(6 if ctx.toy else corpus.STORED_N)
    for base in bases:
        if base.mincost is None:
            base.mincost = corpus.checked_optimum(
                oracle, base.n, base.values
            ).mincost
    return bases


def input_latencies(inputs: Sequence[str], solves: Sequence[Timing],
                    ) -> List[Timing]:
    """Each input's latency: the median of its solves in this run, so
    that one solve meeting a slow stretch of the host does not become
    the tail."""
    by_input: Dict[str, List[Timing]] = {}
    for name, timing in zip(inputs, solves):
        by_input.setdefault(name, []).append(timing)
    return [
        (median([t[0] for t in mine]), median([t[1] for t in mine]))
        for mine in by_input.values()
    ]


def check_library_answer(oracle: Any, kind: str, n: int, values: Any,
                         want: int, got: Dict[str, Any],
                         ) -> Tuple[bool, Dict[str, int]]:
    """Whether the answer is correct, and each race member's size as the
    oracle re-derives it from the member's order.

    The answer's size must be its mincost plus the terminals, and the
    oracle must re-cost its order to that mincost: exactly the reference
    optimum for ``exact``, no less than it for the race.  A member's
    order must be a permutation costing no less than the optimum; the
    size the member *reports* is compared with the re-derived one by the
    caller, which counts disagreements apart from the answer's
    correctness."""
    import corpus

    ends = corpus.terminals(values)
    ok = got["size"] == got["mincost"] + ends
    ok = ok and oracle.achievable(n, values, got["order"], got["mincost"])
    if kind == "exact":
        return ok and got["mincost"] == want, {}
    ok = ok and got["mincost"] >= want and set(got["members"]) == set(MEMBERS)
    sizes = {}
    for name, member in got["members"].items():
        cost = oracle.cost(n, values, member["order"])
        ok = ok and cost >= want
        sizes[name] = cost + ends
    return ok, sizes


def run_library(ctx: Context, kind: str) -> Outcome:
    import corpus
    from hostspeed import scaled

    oracle = corpus.Oracle()
    bases = library_bases(ctx, oracle)
    reference = {base.name: base.mincost for base in bases}
    passes = 1 if ctx.toy else max(
        1, round(ctx.seconds / PASS_SECONDS[kind])
    )
    if kind == "exact":
        items = corpus.exact_inputs(bases, ctx.seed, passes)
    else:
        items = corpus.portfolio_inputs(bases, ctx.seed, passes)
    n = bases[0].n
    job = {
        "n": n, "inputs": [corpus.table_hex(item.values) for item in items],
        "trace": ctx.trace, "race_seed": RACE_SEED,
    }
    result, setups = run_worker(ctx, kind, job, kind)
    rows = result["rows"]

    correct = 0
    ratios: List[float] = []
    member_ratios: Dict[str, List[float]] = {m: [] for m in MEMBERS}
    misreports: Dict[str, int] = {m: 0 for m in MEMBERS}
    answers = []
    failures: List[str] = []
    for i, (item, row) in enumerate(zip(items, rows)):
        got = row["answer"]
        ref_size = reference[item.base] + corpus.terminals(item.values)
        ok, sizes = check_library_answer(oracle, kind, n, item.values,
                                         reference[item.base], got)
        if "traced" in row:
            # Tracing must not change an answer or a count.
            ok = ok and row["traced"] == got
        correct += ok
        if not ok:
            failures.append(f"input {i} ({item.base})")
            continue
        ratios.append(got["size"] / ref_size)
        for member, size in sizes.items():
            member_ratios[member].append(size / ref_size)
            misreports[member] += size != got["members"][member]["size"]
        answers.append(got)

    def bracketed(mode: str) -> List[Timing]:
        """Each row's call in ``mode``, scaled by the ticks around it."""
        out = []
        for row in rows:
            k = row["modes"].index(mode)
            seconds = row["latency" if mode == "untraced"
                          else "traced_latency"]
            out.append((seconds, scaled(seconds, *row["ticks"][k:k + 2])))
        return out

    solves = bracketed("untraced")
    latencies = input_latencies([item.base for item in items], solves)
    totals = {
        name: sum(a["counters"][name] for a in answers)
        for name in ("table_cells", "compactions", "nodes_created")
    }
    size_ratio = geomean(ratios)
    success_share = correct / len(items)
    # Portfolio answers carry every member's size and evaluation count.
    common: Dict[str, Any] = {
        "answers": digest(answers),
        "size_ratio": size_ratio,
        "success_share": success_share,
        **{f"kernel.{k}": v for k, v in totals.items()},
    }
    shares = {
        "bases": sorted({item.base for item in items}),
        "inputs": len(latencies),
        "solves": len(items),
        "passes": passes,
        "transforms": "rename+negate+complement" if kind == "exact"
        else "complement+negate-all",
    }
    if kind == "portfolio":
        common["member_misreports"] = misreports
        shares["member_misreports"] = misreports

    if not ctx.trace:
        # The timed window is the solves themselves, back to back.
        metrics, unscaled = timing_metrics(
            setups, latencies, solves, len(rows), totals["table_cells"],
        )
        metrics.update({
            "peak_rss_mb": result["peak_rss_mb"],
            "size_ratio": size_ratio,
            "success_share": success_share,
        })
        samples = {name: len(rows) for name in metrics}
        samples["setup_s"] = len(setups)
        # Percentiles over inputs, each the median of its solves.
        samples["latency_p50_s"] = samples["latency_p99_s"] = len(latencies)
        return Outcome(metrics, unscaled, samples, len(items),
                       len(items) - correct, common, {}, shares, failures)

    from tracing import check_self_times

    spans = result["span_list"]
    metrics, samples = layer_metrics(spans)
    metrics.update({f"kernel.{k}": v for k, v in totals.items()})
    traced = [t[1] for t in bracketed("traced")]
    metrics["tracing.overhead_share"] = (
        median(traced) / median([t[1] for t in solves]) - 1
    )
    samples["tracing.overhead_share"] = len(rows)
    specific: Dict[str, Any] = {
        "frontier.peak_bytes": metrics["frontier.peak_bytes"],
        "frontier.peak_states": metrics["frontier.peak_states"],
        "layer_cells": [
            sum(s["attrs"]["cells"] for s in spans
                if s["name"] == f"engine.layer.k{k:02d}")
            for k in range(1, 13)
        ],
    }
    if kind == "portfolio":
        metrics["portfolio.table_cells"] = totals["table_cells"]
        for member in MEMBERS:
            mine = [s for s in spans if s["name"] == f"portfolio.{member}"]
            metrics[f"portfolio.{member}.s"] = median(
                [s["end"] - s["start"] for s in mine]
            )
            samples[f"portfolio.{member}.s"] = len(mine)
            metrics[f"portfolio.{member}.evaluations"] = sum(
                a["members"][member]["evaluations"] for a in answers
            )
            # Sizes re-derived by the oracle, never the member's own report.
            metrics[f"portfolio.{member}.size_ratio"] = geomean(
                member_ratios[member]
            )
            metrics[f"portfolio.{member}.misreports"] = misreports[member]
            for suffix in ("evaluations", "size_ratio", "misreports"):
                samples[f"portfolio.{member}.{suffix}"] = len(answers)
    bad = check_self_times(spans)
    if bad:
        failures.append(f"{bad} traced requests whose self times do not "
                        "sum to their latency")
    return Outcome(with_every_layer(metrics), {}, samples, len(items),
                   len(items) - correct + bad, common, specific, shares,
                   failures)


# ----------------------------------------------------------------------
# serve-repeat
# ----------------------------------------------------------------------

def serve_payload(tables: List[Any], ids: List[int], kind: str) -> Dict[str, Any]:
    import corpus

    specs = [
        {"values": corpus.table_bits(tables[i].values), "n": tables[i].n}
        for i in ids
    ]
    if kind == "batch":
        return {"op": "solve_many", "items": specs}
    return {"op": "solve", **specs[0]}


def served_bodies(response: Dict[str, Any]) -> List[Dict[str, Any]]:
    if "results" in response:
        return list(response["results"])
    return [response]


def segment_timings(run: Dict[str, Any], segment: int,
                    ) -> Tuple[List[Timing], List[Timing]]:
    """Every request's latency and every segment's busy time (from one
    barrier's release to the next one's arrival), scaled by the ticks
    taken at the barriers around its segment."""
    from hostspeed import scaled

    marks = run["marks"]
    latencies = []
    for out in run["exchanges"]:
        for i, (sent, received, _) in enumerate(out):
            k = i // segment
            seconds = received - sent
            latencies.append((seconds, scaled(
                seconds, marks[k][1], marks[k + 1][1]
            )))
    busy = []
    for k in range(len(marks) - 1):
        seconds = marks[k + 1][0] - marks[k][2]
        busy.append((seconds, scaled(seconds, marks[k][1], marks[k + 1][1])))
    return latencies, busy


def run_serve(ctx: Context) -> Outcome:
    import corpus
    import serveload

    shape = corpus.TOY_SHAPE if ctx.toy else corpus.ServeShape()
    blocks = 1 if ctx.toy else max(1, round(
        ctx.seconds * SERVE_REQUESTS_PER_SECOND / (100 * CONNECTIONS)
    ))
    conns = corpus.serve_streams(ctx.seed, blocks, CONNECTIONS, shape)
    warmups = [
        [serve_payload(c.tables, [i], "identical") for i in c.warmup]
        for c in conns
    ]
    streams = [
        [serve_payload(c.tables, ids, kind) for kind, ids in c.requests]
        for c in conns
    ]
    log = ctx.path("serve.log")
    passes = [("untraced", False)] + ([("traced", True)] if ctx.trace else [])
    if ctx.seed % 2:
        passes.reverse()  # alternate which pass meets the host first
    from hostspeed import CoreProbes

    with CoreProbes(ctx.env) as probes:
        setups = [
            serveload.probe_setup(ROOT, ctx.env, str(ctx.path(f"probe{i}")),
                                  log, probes)
            for i in range(SETUP_PROBES)
        ]
        runs = {
            label: serveload.run_pass(
                ROOT, ctx.env, str(ctx.path(f"cache-{label}")), log,
                warmups, streams, probes, SEGMENT, traced=traced,
            )
            for label, traced in passes
        }
    setups.append(runs["untraced"]["setup_s"])

    oracle = corpus.Oracle()
    refs = [
        {key: corpus.checked_optimum(oracle, n, values).mincost
         for key, (n, values) in c.references.items()}
        for c in conns
    ]
    failures: List[str] = []
    checked: Dict[str, Dict[str, Any]] = {}
    for label, run in runs.items():
        answers = []
        ratios: List[float] = []
        correct = 0
        cells = 0
        for conn, (c, out) in enumerate(zip(conns, run["exchanges"])):
            for (kind, ids), (_, _, response) in zip(c.requests, out):
                bodies = served_bodies(response)
                ok = response.get("ok") and response.get("status") == 200
                ok = ok and len(bodies) == len(ids)
                entry = []
                for table_id, body in zip(ids, bodies):
                    served = c.tables[table_id]
                    result = body.get("result") or {}
                    if not (body.get("ok") and body.get("status") == 200
                            and result.get("exact")):
                        ok = False
                        continue
                    want = refs[conn][served.ref]
                    size = want + corpus.terminals(served.values)
                    ratios.append(result["size"] / size)
                    cells += result["counters"]["table_cells"]
                    ok = ok and result["mincost"] == want
                    ok = ok and result["size"] == size
                    ok = ok and oracle.achievable(
                        served.n, served.values, result["order"],
                        result["mincost"],
                    )
                    entry.append([result["order"], result["mincost"],
                                  result["from_cache"]])
                if not ok:
                    failures.append(f"{label} request {conn}/{len(answers)}")
                correct += bool(ok)
                answers.append([entry, response.get("statuses")])
        server = run["metrics"]["server"]
        cache = run["metrics"]["cache"]
        checked[label] = {
            "answers": digest(answers),
            "success_share": correct / len(answers),
            "size_ratio": geomean(ratios),
            "served_cells": cells,
            "counts": {
                **{k: server[k] for k in (
                    "completed", "failed", "coalesced", "kernel_sweeps",
                    "cache_hit_solves", "batches", "batch_items",
                    "batch_deduped")},
                **{f"cache.{k}": cache[k] for k in (
                    "hits", "misses", "stores", "disk_hits", "evictions")},
                **{f"kernel.{k}": v
                   for k, v in run["metrics"]["counters"].items()
                   if isinstance(v, int)},
            },
            "correct": correct,
            "attempted": len(answers),
        }
    base = checked["untraced"]
    common = {k: v for k, v in base.items()
              if k not in ("correct", "attempted")}
    if ctx.trace and checked["traced"] != base:
        failures.append("the traced pass's answers or counts differ from "
                        "the untraced pass's")
    shares = {
        **corpus.stream_shares(shape),
        "requests": base["attempted"],
        "connections": CONNECTIONS,
        "pool_per_connection": len(conns[0].warmup),
        "batch_items": 2 * shape.batch_distinct,
    }
    attempted = base["attempted"]
    failed = attempted - base["correct"]
    untraced = runs["untraced"]
    latencies, busy = segment_timings(untraced, SEGMENT)
    by_kind: Dict[str, List[float]] = {}
    kinds = [kind for c in conns for kind, _ in c.requests]
    for kind, (_, seconds) in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(seconds)
    shares["latency_by_kind"] = {
        kind: {"count": len(values), "p50_s": median(values),
               "p99_s": percentile(values, 0.99)}
        for kind, values in sorted(by_kind.items())
    }
    if not ctx.trace:
        metrics, unscaled = timing_metrics(
            setups, latencies, busy, attempted, base["served_cells"],
        )
        metrics.update({
            "peak_rss_mb": untraced["peak_rss_mb"],
            "size_ratio": base["size_ratio"],
            "success_share": base["success_share"],
        })
        samples = {name: len(latencies) for name in metrics}
        samples["setup_s"] = len(setups)
        samples["peak_rss_mb"] = 1
        return Outcome(metrics, unscaled, samples, attempted, failed, common,
                       {}, shares, failures)

    from tracing import check_self_times

    traced_run = runs["traced"]
    client = traced_run["spans"]
    calls = []
    for conn, c in enumerate(conns):
        calls += [
            (f"w{conn}-{i}", c.tables[t].n, corpus.table_hex(c.tables[t].values))
            for i, t in enumerate(c.warmup)
        ]
    for conn, c in enumerate(conns):
        for i, (_, ids) in enumerate(c.requests):
            calls += [
                (f"{conn}-{i}", c.tables[t].n,
                 corpus.table_hex(c.tables[t].values))
                for t in ids
            ]
    replay, _ = run_worker(ctx, "replay", {
        "calls": calls, "cache_dir": str(ctx.path("cache-replay")),
    }, "replay", probes=0)
    replay_spans = replay["span_list"]
    metrics, samples = layer_metrics(
        replay_spans, requests=lambda r: not str(r).startswith("w")
    )
    serve_metrics, serve_samples = layer_metrics(client)
    for name in ("serve.solve_s", "serve.outside_solve_s"):
        metrics[name] = serve_metrics[name]
        samples[name] = serve_samples[name]
    counts = base["counts"]
    for name in ("kernel_sweeps", "cache_hit_solves", "batch_deduped"):
        metrics[f"serve.{name}"] = counts[name]
    for name in ("table_cells", "compactions", "nodes_created"):
        metrics[f"kernel.{name}"] = counts[f"kernel.{name}"]
    traced_latencies, _ = segment_timings(traced_run, SEGMENT)
    metrics["tracing.overhead_share"] = (
        median([t[1] for t in traced_latencies])
        / median([t[1] for t in latencies]) - 1
    )
    samples["tracing.overhead_share"] = len(traced_latencies)
    specific = {
        "cache.hit_share": metrics["cache.hit_share"],
        "replay_cache": replay["cache"],
        "frontier.peak_bytes": metrics["frontier.peak_bytes"],
        "frontier.peak_states": metrics["frontier.peak_states"],
    }
    bad = check_self_times(client) + check_self_times(replay_spans)
    if bad:
        failures.append(f"{bad} traced requests whose self times do not "
                        "sum to their latency")
    return Outcome(with_every_layer(metrics), {}, samples, attempted,
                   failed + bad, common, specific, shares, failures)


# ----------------------------------------------------------------------
# determinism and the envelope
# ----------------------------------------------------------------------

def check_determinism(ctx: Context, outcome: Outcome) -> List[str]:
    """Compare this run's answers and counts with the first run of the
    same code (program and benchmark), workload, seed, length and scale
    in this checkout."""
    scale = "toy" if ctx.toy else "full"
    code = source_digest([ROOT / "src", HERE])
    path = ctx.state / (
        f"determinism-{code}-{ctx.workload}-seed{ctx.seed}-"
        f"sec{ctx.seconds}-{scale}.json"
    )
    stored = json.loads(path.read_text()) if path.exists() else {}
    mode = "traced" if ctx.trace else "untraced"
    mismatches = []
    changed = False
    for section, values in (("common", outcome.common),
                            (mode, outcome.specific)):
        values = json.loads(json.dumps(values))
        if section not in stored:
            stored[section] = values
            changed = True
            continue
        for key in sorted(set(stored[section]) | set(values)):
            if stored[section].get(key) != values.get(key):
                mismatches.append(f"{section}.{key}")
    if changed:
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(partial, path)
    return mismatches


def source_digest(roots: Sequence[Path]) -> str:
    """Digest of the Python sources and JSON data under ``roots``."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.suffix in (".py", ".json") and ".state" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def envelope(ctx: Context, outcome: Outcome) -> Dict[str, Any]:
    import numpy
    from hostspeed import REFERENCE_TICK_S

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "scale": "toy" if ctx.toy else "full",
        "git_sha": git_sha(),
        "src_sha256": source_digest([ROOT / "src"]),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples": outcome.samples,
        "unscaled": outcome.unscaled,
        "reference_tick_s": REFERENCE_TICK_S,
        "shares": outcome.shares,
        "failures": outcome.notes[:NOTES_SHOWN],
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    state = Path(os.environ.get("PERFBENCH_STATE", HERE / ".state"))
    state.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.toy, state, env)
    try:
        if ctx.workload == "serve-repeat":
            outcome = run_serve(ctx)
        else:
            kind = "exact" if ctx.workload == "exact-cold" else "portfolio"
            outcome = run_library(ctx, kind)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for path in ctx.scratch:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.exists():
                path.unlink()
    mismatches = check_determinism(ctx, outcome)
    for name in mismatches:
        outcome.notes.append(f"differs from an earlier run of this seed: "
                             f"{name}")
    for note in outcome.notes[:NOTES_SHOWN]:
        print(f"perfbench: {note}", file=sys.stderr)
    units = PER_LAYER if ctx.trace else END_TO_END
    print(json.dumps({"envelope": envelope(ctx, outcome)}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.notes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
