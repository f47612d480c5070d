"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
optimize
    Find the optimal variable ordering for a function given as an
    expression string, PLA file, BLIF file, or DIMACS CNF file; print the
    ordering and sizes, optionally export the minimum diagram.
tables
    Re-derive the paper's Appendix C Tables 1 and 2 and the simple-case
    constants.
gap
    Print the Figure 1 ordering-gap series.
heuristics
    Compare the ordering heuristics against the exact optimum.
portfolio
    List the registered ordering strategies, or race them on a function.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis.parameters import gamma0, gamma1, gamma2_appendix_b, solve_table1, solve_table2
from .bdd.reorder import greedy_append, random_restart_search
from .portfolio import sift_search, window_permutation_search
from .core.astar import astar_optimal_ordering
from .core.bruteforce import brute_force_optimal
from .core.divide_conquer import opt_obdd
from .core.executor import BACKENDS
from .core.fs import run_fs
from .observability import Profiler
from .core.reconstruct import reconstruct_minimum_diagram
from .core.spec import ReductionRule
from .errors import ReproError
from .expr.convert import to_truth_table
from .expr.normal_forms import CNF
from .expr.parser import parse
from .functions.families import (
    achilles_bad_order,
    achilles_good_order,
    achilles_heel,
)
from .io.blif import read_blif
from .io.pla import read_pla
from .io.serialize import save_diagram
from .truth_table import TruthTable, obdd_size


def _load_table(args: argparse.Namespace) -> TruthTable:
    sources = [
        name for name in ("expr", "pla", "blif", "dimacs") if getattr(args, name)
    ]
    if len(sources) != 1:
        raise ReproError("give exactly one of --expr/--pla/--blif/--dimacs")
    if args.expr:
        return to_truth_table(parse(args.expr), args.num_vars)
    if args.pla:
        return read_pla(args.pla).truth_table()
    if args.blif:
        return read_blif(args.blif).truth_table(args.output)
    with open(args.dimacs) as handle:
        return to_truth_table(CNF.from_dimacs(handle.read()), args.num_vars)


def _make_profiler(args: argparse.Namespace) -> Optional[Profiler]:
    if getattr(args, "profile", None):
        return Profiler()
    return None


def _make_cache(args: argparse.Namespace):
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from .core.cache import ResultCache

        return ResultCache(directory=cache_dir, retry=_make_io_retry(args))
    return None


def _make_budget(args: argparse.Namespace):
    """A :class:`~repro.core.budget.Budget` from ``--timeout`` /
    ``--max-frontier-mb``, or ``None`` when neither was given."""
    timeout = getattr(args, "timeout", None)
    frontier_mb = getattr(args, "max_frontier_mb", None)
    if timeout is None and frontier_mb is None:
        return None
    from .core.budget import Budget

    return Budget(
        deadline=timeout,
        max_frontier_bytes=(
            int(frontier_mb * 1024 * 1024) if frontier_mb is not None
            else None
        ),
    )


def _make_io_retry(args: argparse.Namespace):
    max_retries = getattr(args, "max_retries", None)
    if max_retries is None:
        return None
    from .core.checkpoint import RetryPolicy

    return RetryPolicy(max_retries=max_retries)


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Execution options shared by every DP-running subcommand."""
    kwargs = dict(jobs=args.jobs,
                  backend=getattr(args, "backend", "serial"))
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_dir:
        raise ReproError("--resume requires --checkpoint-dir")
    if checkpoint_dir:
        kwargs["checkpoint_dir"] = checkpoint_dir
        kwargs["resume"] = resume
    cache = _make_cache(args)
    if cache is not None:
        kwargs["cache"] = cache
    budget = _make_budget(args)
    if budget is not None:
        kwargs["budget"] = budget
    io_retry = _make_io_retry(args)
    if io_retry is not None:
        kwargs["io_retry"] = io_retry
    return kwargs


def _emit_profile(args: argparse.Namespace, profiler: Optional[Profiler],
                  cache=None) -> None:
    if profiler is not None:
        if cache is not None:
            profiler.note_cache_stats(cache.stats.snapshot())
        profiler.write(args.profile)
        print(f"wrote profile    : {args.profile} "
              f"(peak frontier {profiler.peak_frontier_bytes} bytes, "
              f"{profiler.total_layer_seconds:.3f}s in {len(profiler.layers)} "
              f"layers)")
        if profiler.cache:
            print(f"cache            : {profiler.cache.get('hits', 0)} hits / "
                  f"{profiler.cache.get('misses', 0)} misses "
                  f"({profiler.cache.get('stores', 0)} stored)")


def _run_optimize(args: argparse.Namespace) -> int:
    if getattr(args, "strategy", None) not in (None, "exact") and (
            args.batch or args.all_outputs):
        raise ReproError(
            "--strategy applies to single-function solves; drop it or "
            "use the serve daemon's per-request strategy field for batches"
        )
    if getattr(args, "connect", None):
        if not args.batch:
            raise ReproError(
                "--connect submits a --batch manifest to a running "
                "'repro serve' daemon; give --batch too"
            )
        return _run_optimize_batch_connect(args)
    if args.batch:
        return _run_optimize_batch(args)
    if args.all_outputs:
        return _run_optimize_shared(args)
    table = _load_table(args)
    rule = ReductionRule(args.rule)
    if table.n > 16:
        raise ReproError(
            f"{table.n} variables is beyond the exact DP's practical range"
        )
    profiler = _make_profiler(args)
    engine_kwargs = _engine_kwargs(args)
    fallback_spec = getattr(args, "fallback", None)
    if fallback_spec is not None and args.algorithm != "fs":
        raise ReproError("--fallback requires --algorithm fs")
    strategy = getattr(args, "strategy", None)
    if strategy is not None and strategy != "exact":
        if args.algorithm != "fs":
            raise ReproError("--strategy requires --algorithm fs")
        if fallback_spec is not None and strategy != "fallback":
            raise ReproError(
                "--fallback only combines with --strategy fallback"
            )
        result = _solve_with_strategy(
            table, strategy, rule, args, profiler, engine_kwargs,
            fallback_spec,
        )
    elif args.algorithm == "fs" and fallback_spec is not None:
        result = _run_ladder(table, fallback_spec, profiler, engine_kwargs,
                             rule=rule)
    elif args.algorithm == "fs":
        result = run_fs(table, rule=rule, profiler=profiler,
                        **engine_kwargs)
    elif args.algorithm == "astar":
        result = astar_optimal_ordering(table, rule=rule)
    elif args.algorithm == "optobdd":
        result = opt_obdd(table, rule=rule)
    elif args.algorithm == "bruteforce":
        result = brute_force_optimal(table, rule=rule, collect_all=False)
    else:  # pragma: no cover - argparse choices guard this
        raise ReproError(f"unknown algorithm {args.algorithm}")

    print(f"variables        : {table.n}")
    print(f"rule             : {rule.value}")
    print(f"algorithm        : {args.algorithm}")
    exact = bool(getattr(result, "exact", True))
    label = "optimal ordering" if exact else "best ordering   "
    print(f"{label} : {' '.join(f'x{v}' for v in result.order)}")
    print(f"internal nodes   : {result.mincost}")
    print(f"total size       : {result.size}")
    rung = getattr(result, "rung", None)
    used_strategy = getattr(result, "strategy", None)
    if used_strategy not in (None, "exact"):
        print(f"strategy         : {used_strategy}")
    if rung is not None:
        flavor = ("fallback" if used_strategy in (None, "fallback")
                  else "heuristic")
        print(f"method           : {rung} "
              f"({'exact' if exact else f'{flavor}, not certified optimal'})")
    if used_strategy == "portfolio":
        for member in result.result.results:
            print(f"  {member.name:<15} size {member.size:4d}  "
                  f"[{member.status}]")
    if getattr(result, "from_cache", False):
        print("served from      : result cache")
    natural = list(range(table.n))
    if rule is ReductionRule.BDD:
        print(f"natural ordering : {obdd_size(table, natural)} total nodes")
    _emit_profile(args, profiler, engine_kwargs.get("cache"))
    if args.dot or args.json:
        if not exact:
            producer = (
                f"the {rung!r} rung" if rung is not None
                else f"strategy {used_strategy!r}"
            )
            raise ReproError(
                "--dot/--json reconstruct the minimum diagram, which needs "
                f"an exact result; {producer} produced an uncertified "
                "ordering (raise --timeout, or use strategy/fallback "
                "settings that let the exact DP finish)"
            )
        while rung is not None and hasattr(result, "result") \
                and result.result is not None:
            result = result.result  # unwrap to the fs rung's native FSResult
        fs_result = (
            result if args.algorithm == "fs"
            else run_fs(table, rule=rule, **engine_kwargs)
        )
        diagram = reconstruct_minimum_diagram(table, fs_result)
        if args.dot:
            with open(args.dot, "w") as handle:
                handle.write(diagram.to_dot(name="Minimum"))
            print(f"wrote DOT        : {args.dot}")
        if args.json:
            save_diagram(diagram, args.json)
            print(f"wrote JSON       : {args.json}")
    return 0


def _solve_with_strategy(table, strategy, rule, args, profiler,
                         engine_kwargs, fallback_spec):
    """Dispatch one table through ``repro.solve(strategy=...)`` with the
    engine options the inexact strategy paths accept."""
    from .api import solve

    allowed = ("jobs", "backend", "cache",
               "budget", "checkpoint_dir", "resume")
    kwargs = {k: v for k, v in engine_kwargs.items() if k in allowed}
    if profiler is not None:
        kwargs["profiler"] = profiler
    return solve(
        table,
        strategy=strategy,
        rule=rule,
        seed=getattr(args, "seed", 0),
        fallback_rungs=fallback_spec if strategy == "fallback" else None,
        **kwargs,
    )


def _run_optimize_shared(args: argparse.Namespace) -> int:
    from .core.fs import run_fs as _run_fs
    from .core.shared import run_fs_shared

    rule = ReductionRule(args.rule)
    if args.blif:
        network = read_blif(args.blif)
        tables = [network.truth_table(w) for w in network.outputs]
        labels = list(network.outputs)
    elif args.pla:
        pla = read_pla(args.pla)
        tables = pla.truth_tables()
        labels = pla.output_labels or [f"y{j}" for j in range(len(tables))]
    else:
        raise ReproError("--all-outputs requires --blif or --pla input")
    if tables[0].n > 16:
        raise ReproError(
            f"{tables[0].n} variables is beyond the exact DP's practical range"
        )
    profiler = _make_profiler(args)
    engine_kwargs = _engine_kwargs(args)
    result = run_fs_shared(tables, rule=rule, profiler=profiler,
                           **engine_kwargs)
    print(f"outputs          : {len(tables)} ({' '.join(labels)})")
    print(f"variables        : {tables[0].n}")
    print(f"rule             : {rule.value}")
    print(f"shared ordering  : {' '.join(f'x{v}' for v in result.order)}")
    print(f"shared nodes     : {result.mincost}")
    if getattr(result, "from_cache", False):
        print("served from      : result cache")
    separate = sum(
        _run_fs(t, rule=rule, **engine_kwargs).mincost
        for t in tables
    )
    print(f"separate optima  : {separate} (sum over outputs)")
    _emit_profile(args, profiler, engine_kwargs.get("cache"))
    return 0


def _table_from_entry(entry: dict, base_dir: str, index: int) -> TruthTable:
    """One batch-manifest entry -> a truth table (same loaders as the
    single-function flags; relative paths resolve against the manifest)."""
    import os

    def resolve(path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(base_dir, path)

    sources = [k for k in ("expr", "pla", "blif", "dimacs") if entry.get(k)]
    if len(sources) != 1:
        raise ReproError(
            f"batch entry {index} needs exactly one of expr/pla/blif/dimacs"
        )
    if entry.get("expr"):
        return to_truth_table(parse(entry["expr"]), entry.get("num_vars"))
    if entry.get("pla"):
        return read_pla(resolve(entry["pla"])).truth_table()
    if entry.get("blif"):
        return read_blif(resolve(entry["blif"])).truth_table(
            entry.get("output")
        )
    with open(resolve(entry["dimacs"])) as handle:
        return to_truth_table(CNF.from_dimacs(handle.read()),
                              entry.get("num_vars"))


def _load_batch_manifest(args: argparse.Namespace):
    """Load a ``--batch`` manifest: returns ``(labels, tables, loaded_at,
    load_errors)`` with one label per manifest entry and malformed
    entries downgraded to [failed] rows instead of aborting the batch."""
    import json as json_module
    import os

    with open(args.batch) as handle:
        manifest = json_module.load(handle)
    entries = manifest.get("tables") if isinstance(manifest, dict) else manifest
    if not isinstance(entries, list) or not entries:
        raise ReproError(
            f"batch manifest {args.batch} must contain a non-empty list "
            "of tables (either a top-level list or under a 'tables' key)"
        )
    base_dir = os.path.dirname(os.path.abspath(args.batch))
    tables = []         # successfully loaded tables, in manifest order
    loaded_at = []      # manifest index of each loaded table
    labels = []         # one label per manifest entry
    load_errors = {}    # manifest index -> (error type, message)
    for index, entry in enumerate(entries):
        if isinstance(entry, str):
            entry = {"expr": entry}
        if not isinstance(entry, dict):
            labels.append(f"entry{index}")
            load_errors[index] = ("ReproError", (
                f"batch entry {index} must be an object or an expression "
                "string"
            ))
            continue
        labels.append(str(
            entry.get("label") or entry.get("expr") or entry.get("pla")
            or entry.get("blif") or entry.get("dimacs") or f"table{index}"
        ))
        try:
            table = _table_from_entry(entry, base_dir, index)
            if table.n > 16:
                raise ReproError(
                    f"batch entry {index} has {table.n} variables, beyond "
                    "the exact DP's practical range"
                )
        except Exception as exc:
            # A malformed entry must not take the rest of the batch down;
            # it becomes a [failed] row like any solve-time error.
            load_errors[index] = (type(exc).__name__, str(exc))
            continue
        tables.append(table)
        loaded_at.append(index)
    return labels, tables, loaded_at, load_errors


def _run_optimize_batch(args: argparse.Namespace) -> int:
    from .core.cache import ResultCache, optimize_many

    rule = ReductionRule(args.rule)
    labels, tables, loaded_at, load_errors = _load_batch_manifest(args)

    profiler = _make_profiler(args)
    cache = _make_cache(args)
    if cache is None:
        cache = ResultCache(retry=_make_io_retry(args))
    # --timeout is *per item* in batch mode; only the frontier cap spans
    # the whole batch.
    batch_budget = None
    frontier_mb = getattr(args, "max_frontier_mb", None)
    if frontier_mb is not None:
        from .core.budget import Budget

        batch_budget = Budget(
            max_frontier_bytes=int(frontier_mb * 1024 * 1024)
        )
    outcome = optimize_many(
        tables, rule=rule, cache=cache, jobs=args.jobs,
        backend=getattr(args, "backend", "serial"),
        profiler=profiler,
        per_item_timeout=getattr(args, "timeout", None),
        fallback=getattr(args, "fallback", None),
        budget=batch_budget,
        io_retry=_make_io_retry(args),
        install_signal_handlers=True,
    )
    name_width = max(len(label) for label in labels)
    counts = {"ok": 0, "fallback": 0, "error": 0}
    item_at = dict(zip(loaded_at, outcome.items))
    for index, label in enumerate(labels):
        if index in load_errors:
            error_type, message = load_errors[index]
            counts["error"] += 1
            print(f"{label:<{name_width}}  [failed] {error_type}: {message}")
            continue
        item = item_at[index]
        counts[item.status] += 1
        if item.status == "error":
            assert item.error is not None
            print(f"{label:<{name_width}}  [failed] "
                  f"{item.error.error_type}: {item.error.message}")
            continue
        result = item.result
        suffix = ""
        if item.status == "fallback":
            suffix = f"  [fallback:{result.rung}]"
        elif result.from_cache:
            suffix = "  [cached]"
        order = " ".join(f"x{v}" for v in result.order)
        print(f"{label:<{name_width}}  n={result.n}  "
              f"nodes={result.mincost}  {order}{suffix}")
    print(f"batch            : {len(labels)} tables, "
          f"{outcome.unique} unique functions")
    print(f"statuses         : {counts['ok']} ok / "
          f"{counts['fallback']} fallback / {counts['error']} failed")
    print(f"cache            : {outcome.stats['hits']} hits / "
          f"{outcome.stats['misses']} misses "
          f"({outcome.stats['stores']} stored)")
    _emit_profile(args, profiler)
    return 1 if counts["error"] else 0


def _parse_connect(spec: str):
    """``--connect`` address: ``host:port`` or a unix-socket path."""
    if "/" in spec or ":" not in spec:
        return spec  # unix-socket path
    host, _, port = spec.rpartition(":")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ReproError(
            f"--connect expects HOST:PORT or a unix-socket path, got "
            f"{spec!r}"
        ) from None


def _run_optimize_batch_connect(args: argparse.Namespace) -> int:
    """Submit the ``--batch`` manifest to a running daemon as ONE
    ``solve_many`` request: the server dedups by canonical fingerprint
    before queueing and answers with per-item bodies bit-identical to
    individual solves."""
    from .serve import ServeClient, ServeError

    rule = ReductionRule(args.rule)
    labels, tables, loaded_at, load_errors = _load_batch_manifest(args)
    # Files were loaded locally; everything travels as explicit truth
    # tables so the daemon needs no filesystem access.
    items = [
        {"values": [int(v) for v in table.values], "n": table.n}
        for table in tables
    ]
    batch_kwargs = {"method": "fs", "rule": rule.value}
    if getattr(args, "timeout", None) is not None:
        # Over the wire the whole manifest shares ONE budget (the items
        # race each other for the same wall clock).
        batch_kwargs["timeout"] = args.timeout
    if getattr(args, "fallback", None) is not None:
        batch_kwargs["fallback"] = args.fallback
    try:
        with ServeClient(_parse_connect(args.connect)) as client:
            response = client.solve_many(items, **batch_kwargs)
    except ConnectionError as exc:
        raise ReproError(
            f"could not reach a daemon at {args.connect!r}: {exc} "
            "(start one with 'repro serve')"
        ) from None
    except ServeError as exc:
        raise ReproError(f"daemon rejected the batch: {exc}") from None
    bodies = response["results"]
    statuses = response["statuses"]
    summary = response["summary"]
    body_at = dict(zip(loaded_at, zip(bodies, statuses)))
    name_width = max(len(label) for label in labels)
    errors = len(load_errors)
    for index, label in enumerate(labels):
        if index in load_errors:
            error_type, message = load_errors[index]
            print(f"{label:<{name_width}}  [failed] {error_type}: {message}")
            continue
        body, status = body_at[index]
        if status == "error":
            error = body.get("error", {})
            errors += 1
            print(f"{label:<{name_width}}  [failed] "
                  f"{error.get('type', 'Error')}: "
                  f"{error.get('message', 'request failed')}")
            continue
        result = body["result"]
        suffix = "" if status == "ok" else f"  [{status}]"
        if status == "fallback":
            suffix = f"  [fallback:{result.get('rung')}]"
        order = " ".join(f"x{v}" for v in result["order"])
        print(f"{label:<{name_width}}  n={result['n']}  "
              f"nodes={result['mincost']}  {order}{suffix}")
    print(f"batch            : {len(labels)} tables, "
          f"{summary['unique']} unique functions (via {args.connect})")
    print(f"statuses         : {summary['ok']} ok / {summary['cached']} "
          f"cached / {summary['coalesced']} coalesced / "
          f"{summary['fallback']} fallback / "
          f"{summary['error'] + len(load_errors)} failed")
    return 1 if errors else 0


def _run_tables(args: argparse.Namespace) -> int:
    g0, a0 = gamma0()
    g1, a1 = gamma1()
    g2, b1, b2 = gamma2_appendix_b()
    print("simple cases:")
    print(f"  gamma_0 = {g0:.5f} (alpha {a0:.6f})   paper 2.98581")
    print(f"  gamma_1 = {g1:.5f} (alpha {a1:.6f})   paper 2.97625")
    print(f"  gamma_2 = {g2:.5f} (alphas {b1:.6f} {b2:.6f})   paper 2.8569")
    print("\nTable 1 (gamma_k for OptOBDD(k, alpha)):")
    for row in solve_table1(6):
        alphas = " ".join(f"{a:.6f}" for a in row.alphas)
        print(f"  k={row.k}: gamma={row.base:.5f}  alphas: {alphas}")
    print("\nTable 2 (composition iteration):")
    for i, row in enumerate(solve_table2(10)):
        print(f"  iter {i + 1:2d}: {row.gamma_subroutine:.5f} -> {row.base:.5f}")
    print("\nTheorem 13 constant: <= 2.77286")
    return 0


def _governed_exact(table, args, profiler, rule=None):
    """Run the exact DP, or the --fallback ladder when requested.

    Returns an object with ``order``/``size`` plus an ``exact`` verdict
    (always True without --fallback) and the producing ``rung``.
    """
    engine_kwargs = _engine_kwargs(args)
    fallback_spec = getattr(args, "fallback", None)
    kwargs = {} if rule is None else {"rule": rule}
    if fallback_spec is None:
        result = run_fs(table, profiler=profiler, **kwargs, **engine_kwargs)
        return result, True, None
    result = _run_ladder(table, fallback_spec, profiler, engine_kwargs,
                         **kwargs)
    return result, result.exact, result.rung


def _run_ladder(table, fallback_spec, profiler, engine_kwargs, **kwargs):
    """Degrade through the ``--fallback`` ladder under the options
    :func:`_engine_kwargs` built (the ladder takes no ``io_retry``)."""
    from .core.budget import parse_ladder, run_ladder

    options = {key: value for key, value in engine_kwargs.items()
               if key != "io_retry"}
    return run_ladder(table, ladder=parse_ladder(fallback_spec),
                      profiler=profiler, **options, **kwargs)


def _run_gap(args: argparse.Namespace) -> int:
    profiler = _make_profiler(args)
    print("pairs  vars  good(2n+2)  bad(2^(n+1))  optimal")
    for pairs in range(1, args.max_pairs + 1):
        table = achilles_heel(pairs)
        good = obdd_size(table, achilles_good_order(pairs))
        bad = obdd_size(table, achilles_bad_order(pairs))
        result, exact, _ = _governed_exact(table, args, profiler)
        # '~' marks an upper bound from a fallback rung, not the optimum.
        opt_text = f"{result.size}" if exact else f"{result.size}~"
        print(f"{pairs:5d}  {2 * pairs:4d}  {good:10d}  {bad:12d}  "
              f"{opt_text:>7}")
    _emit_profile(args, profiler)
    return 0


def _run_heuristics(args: argparse.Namespace) -> int:
    table = _load_table(args)
    profiler = _make_profiler(args)
    exact, is_exact, rung = _governed_exact(table, args, profiler)
    baseline_label = (
        "exact (FS)" if is_exact else f"{rung} (fallback, not optimal)"
    )
    rows = [
        (baseline_label, exact.size, " ".join(f"x{v}" for v in exact.order)),
    ]
    for name, result in (
        ("sift", sift_search(table)),
        ("window3",
         window_permutation_search(table, window=min(3, max(table.n, 2)))),
        ("random30", random_restart_search(table, tries=30, seed=0)),
        ("greedy", greedy_append(table)),
    ):
        rows.append((name, result.size, " ".join(f"x{v}" for v in result.order)))
    width = max(len(r[0]) for r in rows)
    for name, size, order in rows:
        ratio = size / exact.size
        print(f"{name:<{width}}  size {size:4d}  ({ratio:.2f}x)  {order}")
    _emit_profile(args, profiler)
    return 0


def _run_portfolio_cmd(args: argparse.Namespace) -> int:
    from .portfolio import available_strategies, get_strategy, run_portfolio

    has_input = any(
        getattr(args, name, None) for name in ("expr", "pla", "blif", "dimacs")
    )
    if not has_input:
        print("registered strategies:")
        width = max(len(name) for name in available_strategies())
        for name in available_strategies():
            spec = get_strategy(name)
            print(f"  {name:<{width}}  [{spec.kind}]  {spec.description}")
        return 0

    table = _load_table(args)
    rule = ReductionRule(args.rule)
    profiler = _make_profiler(args)
    engine_kwargs = _engine_kwargs(args)
    from .core.engine import EngineConfig

    config = EngineConfig(profiler=profiler, **engine_kwargs)
    names = None
    if args.strategies:
        names = tuple(
            part.strip() for part in args.strategies.split(",") if part.strip()
        )
    result = run_portfolio(
        table, strategies=names, rule=rule,
        seed=getattr(args, "seed", 0), config=config,
    )
    print(f"variables        : {table.n}")
    print(f"rule             : {rule.value}")
    print(f"winner           : {result.winner} (size {result.size})")
    print(f"best ordering    : {' '.join(f'x{v}' for v in result.order)}")
    for member in result.results:
        order = " ".join(f"x{v}" for v in member.order)
        print(f"  {member.name:<15} size {member.size:4d}  "
              f"[{member.status}]  {order}")
    _emit_profile(args, profiler, engine_kwargs.get("cache"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exact optimal variable ordering for decision diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--expr", help="Boolean expression, e.g. 'x0 & x1 | x2'")
        p.add_argument("--pla", help="path to a PLA file")
        p.add_argument("--blif", help="path to a BLIF file")
        p.add_argument("--dimacs", help="path to a DIMACS CNF file")
        p.add_argument("--output", help="BLIF output wire to use")
        p.add_argument("--num-vars", type=int, default=None,
                       help="widen the variable domain (expr/dimacs)")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def positive_float(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return value

    def nonnegative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    def add_engine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=positive_int, default=1,
                       help="threads per large DP layer under --backend "
                            "thread (subsets of equal size are "
                            "independent); results and operation counters "
                            "are identical for every value")
        p.add_argument("--backend", choices=BACKENDS,
                       default="serial",
                       help="where DP layers run: 'serial' (default; "
                            "inline) or 'thread' (a layer of at least two "
                            "kernel batches splits over up to --jobs "
                            "threads over the GIL-free kernel, sharing "
                            "both DP layers in memory).  Results and "
                            "counters are bit-identical across backends")
        p.add_argument("--checkpoint-dir",
                       help="snapshot every finished DP layer into this "
                            "directory so an interrupted run can be "
                            "restarted with --resume (results and "
                            "operation counters are bit-identical to an "
                            "uninterrupted run)")
        p.add_argument("--resume", action="store_true",
                       help="restart from the newest valid checkpoint in "
                            "--checkpoint-dir (cold start if none matches "
                            "this run's configuration; corrupt or "
                            "mismatched checkpoints are an error, never "
                            "silently skipped)")
        p.add_argument("--cache-dir",
                       help="persist optimizer results into this directory, "
                            "keyed by a canonical function fingerprint "
                            "(support-reduced, permutation- and complement-"
                            "canonicalized), so repeated runs — including "
                            "renamed/complemented variants of the same "
                            "function — return instantly with zero kernel "
                            "work")
        p.add_argument("--timeout", type=positive_float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget for the DP (per table in "
                            "--batch mode); an over-budget run stops at the "
                            "next layer boundary with its last checkpoint "
                            "already committed (resumable via "
                            "--checkpoint-dir/--resume), or degrades to a "
                            "cheaper method when --fallback is given")
        p.add_argument("--max-frontier-mb", type=positive_float, default=None,
                       metavar="MB",
                       help="cap the retained DP frontier (the structure "
                            "that actually exhausts memory) at this many "
                            "megabytes; enforced after each layer commits")
        p.add_argument("--fallback", nargs="?", const="fs,window,sift",
                       default=None, metavar="LADDER",
                       help="when the budget runs out, degrade through this "
                            "comma-separated ladder instead of failing "
                            "(default ladder: fs,window,sift — exact DP, "
                            "then the exact-window sweep, then sifting; "
                            "any registered strategy name is also a valid "
                            "rung, see 'repro portfolio'); results from a "
                            "lower rung are explicitly marked as not "
                            "certified optimal")
        p.add_argument("--strategy", default=None, metavar="NAME",
                       help="solve strategy axis: 'exact' (default), "
                            "'fallback' (the --fallback ladder), "
                            "'portfolio' (race every registered heuristic "
                            "and keep the deterministic best-(size, name) "
                            "winner), or one registered strategy name "
                            "(list them with 'repro portfolio'); anything "
                            "but 'exact'/'fallback' is never certified "
                            "optimal")
        p.add_argument("--seed", type=nonnegative_int, default=0,
                       help="deterministic RNG seed for stochastic "
                            "strategies (annealing); the same seed always "
                            "reproduces the same search (default 0)")
        p.add_argument("--max-retries", type=nonnegative_int, default=None,
                       metavar="N",
                       help="retry transient checkpoint/cache disk-write "
                            "failures up to N times with exponential "
                            "backoff (default: fail on the first error)")

    def add_profile_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--profile",
                       help="write a JSON execution profile (per-layer "
                            "wall-clock, frontier bytes, counter snapshots, "
                            "checkpoint write/load timings) of the FS "
                            "dynamic program to this path")

    opt = sub.add_parser("optimize", help="find an optimal variable ordering")
    add_input_options(opt)
    add_engine_options(opt)
    opt.add_argument("--rule", choices=[r.value for r in ReductionRule],
                     default="bdd")
    opt.add_argument("--algorithm",
                     choices=["fs", "astar", "optobdd", "bruteforce"],
                     default="fs")
    opt.add_argument("--dot", help="write the minimum diagram as DOT")
    opt.add_argument("--json", help="write the minimum diagram as JSON")
    add_profile_option(opt)
    opt.add_argument("--all-outputs", action="store_true",
                     help="optimize one shared ordering for every output "
                          "of a multi-output BLIF/PLA")
    opt.add_argument("--batch",
                     help="optimize every table in a JSON manifest (a list "
                          "of {expr|pla|blif|dimacs, label?, num_vars?, "
                          "output?} entries, or bare expression strings); "
                          "tables are deduplicated by canonical fingerprint "
                          "before the distinct ones fan out over --jobs, and "
                          "duplicates resolve through the result cache")
    opt.add_argument("--connect", metavar="HOST:PORT|SOCKET",
                     help="submit the --batch manifest to a running "
                          "'repro serve' daemon as one solve_many request "
                          "instead of solving locally: the server dedups "
                          "by canonical fingerprint before queueing, the "
                          "whole manifest shares one --timeout budget, and "
                          "answers are bit-identical to local solves")
    opt.set_defaults(handler=_run_optimize)

    tables = sub.add_parser("tables", help="re-derive the Appendix C tables")
    tables.set_defaults(handler=_run_tables)

    gap = sub.add_parser("gap", help="print the Figure 1 ordering-gap series")
    gap.add_argument("--max-pairs", type=int, default=7)
    add_engine_options(gap)
    add_profile_option(gap)
    gap.set_defaults(handler=_run_gap)

    heur = sub.add_parser("heuristics",
                          help="compare heuristics against the exact optimum")
    add_input_options(heur)
    add_engine_options(heur)
    add_profile_option(heur)
    heur.set_defaults(handler=_run_heuristics)

    port = sub.add_parser(
        "portfolio",
        help="list the registered ordering strategies, or race them on "
             "one function (give an input flag) and print the scoreboard",
    )
    add_input_options(port)
    add_engine_options(port)
    port.add_argument("--rule", choices=[r.value for r in ReductionRule],
                      default="bdd")
    port.add_argument("--strategies", default=None, metavar="NAMES",
                      help="comma-separated subset of registered strategies "
                           "to race (default: all of them)")
    port.set_defaults(handler=_run_portfolio_cmd)

    rep = sub.add_parser("reproduce",
                         help="regenerate every paper number with verdicts")
    rep.add_argument("--quick", action="store_true",
                     help="skip the slower FS sweeps")
    rep.set_defaults(handler=_run_reproduce)

    sym = sub.add_parser("symmetry",
                         help="variable symmetry classes and sensitivity")
    add_input_options(sym)
    sym.add_argument("--sample", type=int, default=None,
                     help="sample orderings instead of exhausting them")
    sym.set_defaults(handler=_run_symmetry)

    srv = sub.add_parser(
        "serve",
        help="run the ordering daemon: bounded concurrent solves + one "
             "shared cache serving newline-delimited JSON requests",
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="TCP interface to bind (default 127.0.0.1)")
    srv.add_argument("--port", type=nonnegative_int, default=0,
                     help="TCP port; 0 (default) binds an ephemeral port "
                          "and prints it on startup")
    srv.add_argument("--unix-socket", default=None, metavar="PATH",
                     help="serve on this unix-domain socket instead of TCP")
    srv.add_argument("--jobs", type=positive_int, default=None,
                     help="threads per large DP layer of one request's "
                          "sweep under --backend thread; each such sweep "
                          "starts its own pool (default: CPU count)")
    srv.add_argument("--backend", choices=BACKENDS,
                     default="thread",
                     help="execution backend of every request's sweep "
                          "(default 'thread')")
    srv.add_argument("--cache-dir",
                     help="persist the shared result cache into this "
                          "directory (cross-process-safe; restarts and "
                          "sibling daemons keep the accumulated answers)")
    srv.add_argument("--cache-size", type=positive_int, default=4096,
                     help="in-memory LRU entries (default 4096)")
    srv.add_argument("--max-disk-entries", type=positive_int, default=None,
                     metavar="N",
                     help="cap the on-disk cache at N entries, evicting "
                          "oldest (default: unbounded)")
    srv.add_argument("--cache-shards", type=positive_int, default=16,
                     metavar="N",
                     help="fingerprint-prefix shard count for the disk "
                          "cache (default 16): entries live under "
                          "<cache-dir>/<shard>/ with one lockfile per "
                          "shard, so concurrent daemons sharing a cache "
                          "directory stop contending on a single lock; "
                          "flat PR-era directories are migrated lazily on "
                          "first write and stay readable throughout")
    srv.add_argument("--queue-limit", type=positive_int, default=64,
                     help="bounded request-queue depth; requests beyond it "
                          "are rejected with status 429 (default 64)")
    srv.add_argument("--max-inflight", type=positive_int, default=2,
                     help="concurrently executing requests, kernel "
                          "sweeps included (default 2)")
    srv.add_argument("--timeout", type=positive_float, default=None,
                     metavar="SECONDS",
                     help="per-request wall-clock ceiling; a request's own "
                          "timeout may only tighten it")
    srv.add_argument("--max-frontier-mb", type=positive_float, default=None,
                     metavar="MB",
                     help="frontier byte cap applied to every request")
    srv.set_defaults(handler=_run_serve)

    cert = sub.add_parser("certify",
                          help="emit or verify an optimality certificate")
    add_input_options(cert)
    add_engine_options(cert)
    add_profile_option(cert)
    cert.add_argument("--out", help="write the certificate JSON here")
    cert.add_argument("--check", help="verify a certificate JSON file")
    cert.set_defaults(handler=_run_certify)
    return parser


def _run_serve(args: argparse.Namespace) -> int:
    import os

    from .serve import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        backend=getattr(args, "backend", "thread"),
        jobs=args.jobs if args.jobs else (os.cpu_count() or 1),
        cache_dir=getattr(args, "cache_dir", None),
        cache_size=args.cache_size,
        max_disk_entries=args.max_disk_entries,
        cache_shards=args.cache_shards,
        queue_limit=args.queue_limit,
        max_inflight=args.max_inflight,
        default_timeout=getattr(args, "timeout", None),
        max_frontier_mb=getattr(args, "max_frontier_mb", None),
    )
    return serve_main(config)


def _run_symmetry(args: argparse.Namespace) -> int:
    from .analysis.sensitivity import ordering_sensitivity
    from .analysis.symmetry import search_space_reduction, symmetry_classes

    table = _load_table(args)
    classes = symmetry_classes(table)
    full, reduced = search_space_reduction(table)
    print(f"variables        : {table.n}")
    print("symmetry classes : "
          + " ".join("{" + " ".join(f"x{v}" for v in cls) + "}"
                     for cls in classes))
    print(f"ordering orbits  : {reduced} of {full}")
    if table.n <= 8 or args.sample:
        report = ordering_sensitivity(table, sample=args.sample)
        kind = "exhaustive" if report.exhaustive else "sampled"
        print(f"size spread      : {report.minimum}..{report.maximum} "
              f"internal nodes ({kind} over "
              f"{report.orderings_examined} orderings, "
              f"worst/best {report.spread:.2f}x)")
    return 0


def _run_certify(args: argparse.Namespace) -> int:
    from .core.certificate import (
        OptimalityCertificate,
        extract_certificate,
        verify_certificate,
    )

    table = _load_table(args)
    if args.check:
        with open(args.check) as handle:
            certificate = OptimalityCertificate.from_json(handle.read())
        valid = verify_certificate(table, certificate)
        print(f"certificate      : {args.check}")
        print(f"claimed optimum  : {certificate.mincost} internal nodes")
        print(f"verdict          : {'VALID' if valid else 'INVALID'}")
        return 0 if valid else 1
    if table.n > 12:
        raise ReproError("certificate extraction needs the full DP (n <= 12)")
    profiler = _make_profiler(args)
    result, exact, rung = _governed_exact(table, args, profiler)
    if not exact:
        raise ReproError(
            f"cannot certify: the {rung!r} fallback rung produced an "
            "ordering without an optimality proof (raise --timeout or "
            "drop --fallback)"
        )
    if rung is not None:
        result = result.result  # the fs rung's native FSResult
    certificate = extract_certificate(result)
    print(f"optimal ordering : {' '.join(f'x{v}' for v in certificate.order)}")
    print(f"certified optimum: {certificate.mincost} internal nodes")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(certificate.to_json())
        print(f"wrote certificate: {args.out}")
    _emit_profile(args, profiler)
    return 0


def _run_reproduce(args: argparse.Namespace) -> int:
    from .analysis.reproduce import render_report, run_reproduction

    checks = run_reproduction(quick=args.quick)
    print(render_report(checks))
    return 0 if all(c.passed for c in checks) else 1


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
