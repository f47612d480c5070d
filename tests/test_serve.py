"""Daemon tests: one long-lived process + one shared cache serving many
clients.

The contract under test (ISSUE acceptance criteria): the daemon survives
16 concurrent mixed requests with every answer bit-identical to a direct
``repro.solve()`` call; duplicate-fingerprint requests trigger exactly
one kernel sweep (counter-verified through ``/metrics``); a full queue
rejects with 429 instead of buffering without bound; and SIGTERM during
load drains — in-flight requests finish bit-identically and the process
exits 0.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import parse, solve
from repro.errors import ServeError
from repro.serve import (
    OrderingServer,
    ServeClient,
    ServeConfig,
    running_server,
)
from repro.truth_table import TruthTable


def _config(**overrides):
    """A fast test-sized server: serial backend, small pool."""
    defaults = dict(
        backend="serial", jobs=2, max_inflight=2, queue_limit=16
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _values_payload(table):
    return {
        "values": "".join(str(int(v)) for v in table.values),
        "n": table.n,
    }


class TestProtocol:
    def test_ping_solve_metrics_roundtrip(self):
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                assert client.ping()
                result = client.solve(expr="x0 & x1 | x2", method="fs")
                direct = solve(parse("x0 & x1 | x2"))
                assert tuple(result["order"]) == direct.order
                assert result["mincost"] == direct.mincost
                assert result["size"] == direct.size
                assert result["exact"] is True
                metrics = client.metrics()
                assert metrics["server"]["completed"] == 1

    def test_values_payload_and_rules(self):
        table = TruthTable.random(5, seed=7)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                for rule in ("bdd", "zdd"):
                    result = client.solve(
                        method="fs", rule=rule, **_values_payload(table)
                    )
                    direct = solve(table, rule=_rule(rule))
                    assert tuple(result["order"]) == direct.order
                    assert result["mincost"] == direct.mincost

    def test_every_servable_method(self):
        table = TruthTable.random(5, seed=8)
        other = TruthTable.random(5, seed=9)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                fs = client.solve(method="fs", **_values_payload(table))
                assert fs["mincost"] == solve(table).mincost

                shared = client.solve(
                    method="shared",
                    tables=[_values_payload(table), _values_payload(other)],
                )
                assert shared["mincost"] == solve(
                    [table, other], method="shared"
                ).mincost

                constrained = client.solve(
                    method="constrained",
                    precedence=[[0, 4]],
                    **_values_payload(table),
                )
                assert constrained["mincost"] == solve(
                    table, method="constrained", precedence=[(0, 4)]
                ).mincost
                assert constrained["order"].index(0) < (
                    constrained["order"].index(4)
                )

                window = client.solve(
                    method="window", width=3, **_values_payload(table)
                )
                assert window["exact"] is False
                assert window["mincost"] == solve(
                    table, method="window", width=3
                ).mincost

    def test_cache_hit_on_second_request(self):
        table = TruthTable.random(5, seed=10)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                first = client.solve(method="fs", **_values_payload(table))
                second = client.solve(method="fs", **_values_payload(table))
                assert first["from_cache"] is False
                assert second["from_cache"] is True
                assert second["order"] == first["order"]
                metrics = client.metrics()
                assert metrics["server"]["kernel_sweeps"] == 1
                assert metrics["server"]["cache_hit_solves"] == 1
                assert metrics["cache"]["hits"] >= 1

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        with running_server(_config(unix_socket=path)) as server:
            assert server.address == path
            with ServeClient(path) as client:
                assert client.ping()
        assert not os.path.exists(path)

    def test_pipelined_requests_on_one_connection(self):
        """Many requests in flight on one socket; ids route the answers."""
        tables = [TruthTable.random(4, seed=s) for s in range(20, 26)]
        with running_server(_config()) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=60) as sock:
                handle = sock.makefile("rwb")
                for index, table in enumerate(tables):
                    payload = {
                        "op": "solve", "id": index, "method": "fs",
                        **_values_payload(table),
                    }
                    handle.write(json.dumps(payload).encode() + b"\n")
                handle.flush()
                responses = [
                    json.loads(handle.readline()) for _ in tables
                ]
        by_id = {r["id"]: r for r in responses}
        assert sorted(by_id) == list(range(len(tables)))
        for index, table in enumerate(tables):
            assert by_id[index]["ok"], by_id[index]
            assert by_id[index]["result"]["mincost"] == solve(table).mincost


class TestRejection:
    def test_bad_json_is_400(self):
        with running_server(_config()) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                handle = sock.makefile("rwb")
                handle.write(b"this is not json\n")
                handle.flush()
                response = json.loads(handle.readline())
        assert response["ok"] is False
        assert response["status"] == 400

    def test_unknown_op_unknown_method_fs_star_all_400(self):
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                for payload in (
                    {"op": "frobnicate"},
                    {"op": "solve", "method": "nope", "expr": "x0"},
                    {"op": "solve", "method": "fs_star", "expr": "x0"},
                    {"op": "solve", "method": "fs"},  # no expr/values
                    {"op": "solve", "method": "shared", "expr": "x0"},
                ):
                    with pytest.raises(ServeError) as info:
                        client._checked(payload)
                    assert info.value.status == 400

    def test_budget_exhaustion_is_504(self):
        table = TruthTable.random(10, seed=11)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                with pytest.raises(ServeError) as info:
                    client.solve(
                        method="fs", timeout=0.001, **_values_payload(table)
                    )
                assert info.value.status == 504

    def test_request_timeout_clamped_by_server_default(self):
        table = TruthTable.random(10, seed=12)
        with running_server(_config(default_timeout=0.001)) as server:
            with ServeClient(server.address) as client:
                with pytest.raises(ServeError) as info:
                    client.solve(
                        method="fs", timeout=3600, **_values_payload(table)
                    )
                assert info.value.status == 504

    def test_queue_full_is_429(self):
        """One busy worker, queue depth 1, a burst: someone gets 429."""
        slow = TruthTable.random(12, seed=13)
        quick = [TruthTable.random(4, seed=s) for s in range(30, 40)]
        config = _config(max_inflight=1, queue_limit=1)
        with running_server(config) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=120) as sock:
                handle = sock.makefile("rwb")
                payloads = [
                    {"op": "solve", "id": 0, "method": "fs",
                     **_values_payload(slow)}
                ] + [
                    {"op": "solve", "id": i + 1, "method": "fs",
                     **_values_payload(t)}
                    for i, t in enumerate(quick)
                ]
                for payload in payloads:
                    handle.write(json.dumps(payload).encode() + b"\n")
                handle.flush()
                responses = [
                    json.loads(handle.readline()) for _ in payloads
                ]
        statuses = sorted(r["status"] for r in responses)
        assert 429 in statuses
        assert 200 in statuses
        rejected = [r for r in responses if r["status"] == 429]
        served = [r for r in responses if r["status"] == 200]
        assert len(rejected) + len(served) == len(payloads)
        # The slow leader itself was admitted first and served.
        assert any(r["id"] == 0 and r["ok"] for r in responses)


class TestConcurrencyAcceptance:
    def test_16_concurrent_mixed_requests_bit_identical(self):
        """ISSUE acceptance: 16 concurrent clients, identical + distinct
        fingerprints; every answer matches direct solve() bit-identically
        and the duplicates cost exactly one kernel sweep."""
        dup_table = TruthTable.random(6, seed=50)
        distinct = [TruthTable.random(6, seed=60 + s) for s in range(8)]
        jobs = [("dup", dup_table)] * 8 + [
            ("distinct", t) for t in distinct
        ]
        direct = {
            id(t): solve(t) for _, t in jobs
        }
        config = _config(max_inflight=4, queue_limit=32)
        with running_server(config) as server:
            address = server.address
            results = [None] * len(jobs)
            errors = []

            def worker(index, table):
                try:
                    with ServeClient(address, timeout=300) as client:
                        results[index] = client.solve(
                            method="fs", **_values_payload(table)
                        )
                except Exception as exc:  # pragma: no cover
                    errors.append((index, exc))

            threads = [
                threading.Thread(target=worker, args=(i, t))
                for i, (_, t) in enumerate(jobs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            with ServeClient(address) as client:
                metrics = client.metrics()

        for (kind, table), result in zip(jobs, results):
            expected = direct[id(table)]
            assert tuple(result["order"]) == expected.order, kind
            assert result["mincost"] == expected.mincost, kind
            assert result["size"] == expected.size, kind
        # 9 distinct fingerprints -> exactly 9 kernel sweeps; the 7
        # duplicate requests resolved by coalescing or cache hits.
        server_metrics = metrics["server"]
        assert server_metrics["kernel_sweeps"] == 9
        assert server_metrics["completed"] == 16
        assert (
            server_metrics["coalesced"] + server_metrics["cache_hit_solves"]
            >= 7
        )

    def test_metrics_document_shape(self):
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                client.solve(expr="x0 & x1")
                metrics = client.metrics()
        assert set(metrics) >= {
            "protocol", "server", "cache", "counters", "config"
        }
        assert set(metrics["server"]) >= {
            "received", "completed", "failed", "rejected_queue_full",
            "rejected_draining", "bad_requests", "coalesced",
            "kernel_sweeps", "cache_hit_solves", "queue_depth",
            "in_flight", "draining", "uptime_seconds",
        }
        assert set(metrics["cache"]) >= {
            "hits", "misses", "stores", "disk_hits", "evictions",
            "retries", "hit_rate",
        }
        assert metrics["server"]["draining"] is False
        assert metrics["config"]["backend"] == "serial"

    def test_shared_disk_cache_across_server_restarts(self, tmp_path):
        table = TruthTable.random(6, seed=70)
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        config = _config(cache_dir=cache_dir)
        with running_server(config) as server:
            with ServeClient(server.address) as client:
                first = client.solve(method="fs", **_values_payload(table))
        assert first["from_cache"] is False
        # A fresh daemon over the same directory serves it from disk.
        with running_server(_config(cache_dir=cache_dir)) as server:
            with ServeClient(server.address) as client:
                second = client.solve(method="fs", **_values_payload(table))
                metrics = client.metrics()
        assert second["from_cache"] is True
        assert second["order"] == first["order"]
        assert metrics["server"]["kernel_sweeps"] == 0


class TestStrategyFields:
    """The ``strategy`` / ``strategies`` / ``seed`` / ``fallback`` wire
    fields: each reaches ``repro.solve`` and its tally, and every invalid
    combination is a 400."""

    @staticmethod
    def _direct(table, **kwargs):
        from repro.core.cache import ResultCache

        wire = solve(table, jobs=2, backend="serial", cache=ResultCache(),
                     **kwargs).to_wire()
        return wire

    @staticmethod
    def _untimed(result):
        result = dict(result)
        result.pop("elapsed_seconds")
        return result

    def test_strategy_requests_match_direct_solves(self):
        named, raced, laddered = (
            TruthTable.random(6, seed=s) for s in (81, 82, 83)
        )
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                sift = client.solve(strategy="sift", **_values_payload(named))
                portfolio = client.solve(
                    strategy="portfolio", strategies=["sift", "window3"],
                    seed=3, **_values_payload(raced),
                )
                fallback = client.solve(fallback="fs,sift",
                                        **_values_payload(laddered))
                metrics = client.metrics()["server"]
        assert self._untimed(sift) == self._direct(named, strategy="sift")
        assert self._untimed(portfolio) == self._direct(
            raced, strategy="portfolio", strategies=("sift", "window3"),
            seed=3,
        )
        assert self._untimed(fallback) == self._direct(
            laddered, strategy="fallback", fallback_rungs="fs,sift",
        )
        assert sift["rung"] == "sift" and sift["exact"] is False
        assert portfolio["strategy"] == "portfolio"
        assert portfolio["rung"] in ("sift", "window3")
        assert fallback["strategy"] == "fallback"
        assert fallback["rung"] == "fs" and fallback["exact"] is True
        assert metrics["strategy_solves"] == {
            "fallback": 1, "portfolio": 1, "sift": 1,
        }
        assert metrics["portfolio_wins"] == {portfolio["rung"]: 1}

    @pytest.mark.parametrize("fields", [
        {"strategy": "sift", "method": "window"},
        {"fallback": "fs", "method": "window"},
        {"strategy": "sift", "fallback": "fs"},
        {"strategies": ["sift"]},
        {"strategy": "sift", "strategies": ["sift"]},
        {"strategy": "teleport"},
        {"strategy": "portfolio", "strategies": ["teleport"]},
        {"strategy": "portfolio", "strategies": []},
        {"strategy": "portfolio", "strategies": "sift"},
        {"fallback": "fs,teleport"},
        {"fallback": ""},
        {"strategy": "anneal", "seed": "x"},
    ])
    def test_invalid_combinations_are_400(self, fields):
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                response = client.request(
                    {"op": "solve", "expr": "x0 & x1 | x2", **fields}
                )
                metrics = client.metrics()["server"]
        assert response["ok"] is False
        assert response["status"] == 400
        assert response["error"]["type"] == "ReproError"
        assert metrics["bad_requests"] == 1

    def test_degraded_batch_and_singles(self):
        # A 10-byte frontier cap aborts the fs rung at its first layer,
        # every time, so each ladder steps down to sift.
        tables = [TruthTable.random(6, seed=s) for s in (84, 85, 86, 87)]
        with running_server(_config(max_frontier_mb=1e-5)) as server:
            with ServeClient(server.address) as client:
                batch = client.solve_many(
                    [_values_payload(t) for t in tables[:2]],
                    fallback="fs,sift",
                )
                single = client.solve(fallback="fs,sift",
                                      **_values_payload(tables[2]))
                raced = client.solve(strategy="portfolio",
                                     **_values_payload(tables[3]))
                metrics = client.metrics()["server"]
        assert batch["statuses"] == ["fallback", "fallback"]
        for body in batch["results"]:
            assert body["result"]["rung"] == "sift"
            assert body["result"]["exact"] is False
        assert single["rung"] == "sift" and single["exact"] is False
        assert raced["exact"] is False
        assert metrics["strategy_solves"] == {"fallback": 3, "portfolio": 1}
        assert metrics["portfolio_wins"] == {raced["rung"]: 1}


class TestSigtermDrain:
    """The daemon as a process: real signals, real exit codes."""

    def _spawn(self, *extra):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--backend", "serial", "--jobs", "2",
             "--max-inflight", "2", *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        assert "listening on" in line, line
        address = line.split("listening on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        return proc, (host, int(port))

    # The in-flight solve must outlast the tests' 0.3-0.5 s of sleeps:
    # n=16 takes about 2 s in this daemon (serial backend) on a 2-vCPU
    # x86 host; n=15 took 0.5-0.6 s, too close to the 0.5 s of sleeps.
    def test_sigterm_during_load_drains_and_exits_zero(self):
        slow = TruthTable.random(16, seed=81)
        expected = solve(slow)
        wait = 0.3
        proc, address = self._spawn()
        try:
            sock = socket.create_connection(address, timeout=300)
            handle = sock.makefile("rwb")
            handle.write(json.dumps({
                "op": "solve", "id": 1, "method": "fs",
                **_values_payload(slow),
            }).encode() + b"\n")
            handle.flush()
            time.sleep(wait)  # let the request reach the worker
            proc.send_signal(signal.SIGTERM)
            # The in-flight solve finishes bit-identically...
            response = json.loads(handle.readline())
            assert response["ok"], response
            # ...after the signal landed, so a drain really happened.
            assert response["result"]["elapsed_seconds"] > wait
            assert tuple(response["result"]["order"]) == expected.order
            assert response["result"]["mincost"] == expected.mincost
            sock.close()
            # ...and the process exits cleanly.
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_requests_after_sigterm_get_503(self):
        # Slow enough (about 2 s on a 2-vCPU host) to be in flight when
        # the second request arrives half a second in.
        slow = TruthTable.random(16, seed=81)
        proc, address = self._spawn()
        try:
            sock = socket.create_connection(address, timeout=300)
            handle = sock.makefile("rwb")
            handle.write(json.dumps({
                "op": "solve", "id": 1, "method": "fs",
                **_values_payload(slow),
            }).encode() + b"\n")
            handle.flush()
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)  # let the drain flag flip
            handle.write(json.dumps({
                "op": "solve", "id": 2, "method": "fs", "expr": "x0 & x1",
            }).encode() + b"\n")
            handle.flush()
            responses = [json.loads(handle.readline()) for _ in range(2)]
            by_id = {r["id"]: r for r in responses}
            assert by_id[1]["ok"], by_id[1]
            assert by_id[2]["status"] == 503
            sock.close()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_idle_sigterm_exits_zero_immediately(self):
        proc, address = self._spawn()
        try:
            with ServeClient(address) as client:
                assert client.ping()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert "drained" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestEmbedding:
    def test_server_rejects_bad_config(self):
        with pytest.raises(ValueError):
            OrderingServer(ServeConfig(max_inflight=0))
        with pytest.raises(ValueError):
            OrderingServer(ServeConfig(queue_limit=0))

    def test_metrics_snapshot_without_traffic(self):
        with running_server(_config()) as server:
            snapshot = server.metrics_snapshot()
        assert snapshot["server"]["received"] == 0
        assert snapshot["cache"]["hit_rate"] == 0.0


def _rule(name):
    from repro.core.spec import ReductionRule

    return ReductionRule(name)
