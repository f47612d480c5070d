"""Smoke tests of the benchmark at toy sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, check_self_times  # noqa: E402


def bench(workload: str, trace: int, state: Path, seed: int = 3,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PERFBENCH_STATE": str(state)},
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_with_its_unit_and_a_repeatable_answer(workload, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for attempt in range(2 if trace == 0 else 1):
            done = bench(workload, trace, tmp_path)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            envelope = json.loads(lines[-2])["envelope"]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            # The second untraced run is checked against the first.
            assert result["correct"], done.stderr
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert {m["name"]: m["unit"] for m in listed} == {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            for key in ("git_sha", "src_sha256", "cpu_count", "python",
                        "numpy", "seed", "samples", "shares"):
                assert key in envelope
            if trace == 0:
                assert set(envelope["samples"]) == set(result["metrics"])
                assert set(envelope["unscaled"]) == set(run.TIMINGS)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


def stream_bytes(seed: int) -> list:
    conns = corpus.serve_streams(seed, 2, 2, corpus.TOY_SHAPE)
    return [
        (kind, [corpus.table_bits(c.tables[i].values) for i in ids])
        for c in conns for kind, ids in c.requests
    ]


def test_one_seed_one_request_stream():
    assert stream_bytes(5) == stream_bytes(5)
    assert stream_bytes(5) != stream_bytes(6)


def test_stream_shares_are_exact_and_connections_disjoint():
    shape = corpus.TOY_SHAPE
    conns = corpus.serve_streams(9, 3, 2, shape)
    for c in conns:
        kinds = [kind for kind, _ in c.requests]
        for kind, count in shape.block.items():
            assert kinds.count(kind) == 3 * count
    parities = [{int(t.values.sum()) % 2 for t in c.tables} for c in conns]
    assert parities == [{0}, {1}]


def test_library_inputs_follow_the_seed_and_keep_the_optimum():
    bases = corpus.make_bases(6)
    a = corpus.exact_inputs(bases, 1, 1)
    b = corpus.exact_inputs(bases, 1, 1)
    c = corpus.exact_inputs(bases, 2, 1)
    assert [x.values.tobytes() for x in a] == [x.values.tobytes() for x in b]
    assert [x.values.tobytes() for x in a] != [x.values.tobytes() for x in c]
    import repro
    from repro.truth_table import TruthTable

    by_name = {base.name: base for base in bases}
    for item in a[:4] + corpus.portfolio_inputs(bases, 4, 1)[:4]:
        base = by_name[item.base]
        assert (repro.solve(TruthTable(6, item.values)).mincost
                == repro.solve(TruthTable(6, base.values)).mincost)


def test_rename_matches_the_program_convention():
    from repro.truth_table import TruthTable

    values = np.random.default_rng(1).integers(0, 2, 32, dtype=np.uint8)
    perm = [3, 0, 4, 1, 2]
    assert np.array_equal(
        corpus.rename(values, 5, perm),
        TruthTable(5, values).permute(perm).values,
    )


def test_answer_check_rederives_every_size():
    import repro
    from repro.truth_table import TruthTable

    oracle = corpus.Oracle()
    base = corpus.make_bases(6)[0]
    solution = repro.solve(TruthTable(6, base.values), strategy="portfolio")
    want = corpus.checked_optimum(oracle, 6, base.values).mincost
    members = {
        r.name: {"order": list(r.order), "size": r.size,
                 "evaluations": r.evaluations}
        for r in solution.result.results
    }
    got = {"order": list(solution.order), "mincost": solution.mincost,
           "size": solution.size, "members": members}
    ok, sizes = run.check_library_answer(oracle, "portfolio", 6,
                                         base.values, want, got)
    assert ok and set(sizes) == set(run.MEMBERS)
    for name, member in members.items():
        assert sizes[name] == oracle.cost(6, base.values,
                                          member["order"]) + 2
    # A misreported answer size fails even when its order is right.
    assert not run.check_library_answer(
        oracle, "portfolio", 6, base.values, want,
        {**got, "size": got["size"] - 1},
    )[0]
    exact = {"order": got["order"], "mincost": want + 1, "size": want + 3}
    assert not run.check_library_answer(oracle, "exact", 6, base.values,
                                        want, exact)[0]


def test_library_latency_is_each_inputs_median():
    solves = [(1.0, 2.0), (9.0, 9.5), (3.0, 4.0), (2.0, 3.0), (5.0, 6.0)]
    assert run.input_latencies(["a", "b", "a", "a", "b"], solves) == [
        (2.0, 3.0), (7.0, 7.75),
    ]


def test_scaled_timings_follow_the_ticks():
    ref = hostspeed.REFERENCE_TICK_S
    assert hostspeed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # A host at half speed doubles both the work and its ticks.
    assert hostspeed.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    with hostspeed.CoreProbes() as probes:
        assert 0 < probes.tick() < 1


def test_self_times_sum_to_the_request_latency():
    tracer = Tracer()
    with tracer.span("api.solve", request=0) as root:
        with tracer.span("engine.sweep") as sweep:
            tracer.record("engine.layer.k01", sweep["start"],
                          sweep["start"])
    assert check_self_times(tracer.spans) == 0
    tracer.child(root, "serve.solve", root["start"] - 1.0, root["end"])
    assert check_self_times(tracer.spans) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    done = bench("exact-cold", 0, tmp_path / "state", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
