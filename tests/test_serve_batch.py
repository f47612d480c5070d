"""Batch-over-the-wire (``solve_many``) and serve-path bugfix tests.

The contract under test (ISSUE acceptance criteria): ``solve_many``
per-item bodies are bit-identical to the same problems sent as
individual ``solve`` calls; duplicate fingerprints in one manifest cost
exactly one kernel sweep (counter-verified through ``metrics``); a
non-numeric ``priority`` answers 400 instead of killing the connection;
``ServeClient`` matches responses to requests by ``id`` under pipelined
reordering; and coalesced followers inherit a failed leader's terminal
status instead of re-running the sweep (``kernel_sweeps == 1`` for four
coalesced requests against an always-aborting budget).
"""

import json
import socket
import threading
import time


from repro import parse, solve
from repro.errors import BudgetExceeded
from repro.serve import ServeClient, ServeConfig, running_server
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


def _strip_timing(body):
    """A response body minus its wall-clock field (the only part of a
    solve body that may legitimately differ between two identical
    runs)."""
    body = json.loads(json.dumps(body))  # deep copy
    if isinstance(body.get("result"), dict):
        body["result"].pop("elapsed_seconds", None)
    return body


class TestSolveMany:
    def test_batch_bit_identical_to_singles(self):
        """Every per-item body equals the same problem sent as an
        individual ``solve`` to a fresh server: orders, mincosts and
        operation counters, field for field."""
        tables = [TruthTable.random(4, seed=s) for s in (31, 32, 33)]
        other = TruthTable.random(4, seed=34)
        items = [
            {"method": "fs", **_values_payload(t)} for t in tables
        ] + [
            {"method": "window", "width": 3, **_values_payload(other)},
            {"method": "shared",
             "tables": [_values_payload(tables[0]), _values_payload(other)]},
            {"method": "constrained", "precedence": [[0, 3]],
             **_values_payload(other)},
        ]
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                batch = client.solve_many(items)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                singles = [client.request({**item, "op": "solve"})
                           for item in items]
        assert batch["summary"]["items"] == len(items)
        assert batch["summary"]["error"] == 0
        for body, single in zip(batch["results"], singles):
            single.pop("id", None)
            assert _strip_timing(body) == _strip_timing(single)
        assert batch["statuses"] == ["ok"] * len(items)

    def test_duplicate_fingerprints_cost_one_kernel_sweep(self):
        """Six disguises of one function — identical, permuted,
        complemented — in one manifest: one sweep, five dedups,
        counter-verified."""
        table = TruthTable.random(5, seed=35)
        perm = [3, 1, 4, 0, 2]
        comp = TruthTable(5, [1 - v for v in table.values])
        items = [
            _values_payload(table),
            _values_payload(table),
            _values_payload(table.permute(perm)),
            _values_payload(comp),
            _values_payload(table),
            _values_payload(table.permute(perm)),
        ]
        direct = solve(table)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                batch = client.solve_many(items, method="fs")
                metrics = client.metrics()
        assert metrics["server"]["kernel_sweeps"] == 1
        assert metrics["server"]["batches"] == 1
        assert metrics["server"]["batch_items"] == 6
        assert metrics["server"]["batch_deduped"] == 5
        assert batch["summary"]["unique"] == 1
        assert batch["summary"]["deduped"] == 5
        assert batch["statuses"][0] == "ok"
        assert batch["statuses"][1:] == ["cached"] * 5
        for body in batch["results"]:
            assert body["ok"] is True
            assert body["result"]["mincost"] == direct.mincost

    def test_mixed_statuses_cached_and_error(self):
        table = TruthTable.random(4, seed=36)
        fresh = TruthTable.random(4, seed=37)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                client.solve(method="fs", **_values_payload(table))
                batch = client.solve_many([
                    _values_payload(table),          # already cached
                    _values_payload(fresh),          # cold
                    {"values": [0, 1, 0]},           # not a power of two
                    {"method": "fs_star"},           # unservable
                ], method="fs")
        assert batch["statuses"][0] == "cached"
        assert batch["statuses"][1] == "ok"
        assert batch["statuses"][2] == "error"
        assert batch["statuses"][3] == "error"
        assert batch["results"][0]["result"]["from_cache"] is True
        assert batch["results"][2]["status"] == 400
        assert batch["results"][3]["status"] == 400
        assert batch["summary"]["error"] == 2
        assert batch["summary"]["cached"] == 1

    def test_item_level_timeout_rejected(self):
        """The manifest shares ONE budget; a per-item timeout is a
        contract violation answered per item, not a crash."""
        table = TruthTable.random(3, seed=38)
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                batch = client.solve_many([
                    {**_values_payload(table), "timeout": 5},
                    _values_payload(table),
                ], method="fs")
        assert batch["statuses"][0] == "error"
        assert "batch-level" in (
            batch["results"][0]["error"]["message"]
        )
        assert batch["statuses"][1] == "ok"

    def test_empty_or_missing_items_is_400(self):
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                for payload in (
                    {"op": "solve_many"},
                    {"op": "solve_many", "items": []},
                    {"op": "solve_many", "items": "nope"},
                ):
                    response = client.request(payload)
                    assert response["ok"] is False
                    assert response["status"] == 400

    def test_oversized_manifest_is_400(self):
        table = TruthTable.random(3, seed=39)
        with running_server(_config(max_batch_items=4)) as server:
            with ServeClient(server.address) as client:
                response = client.request({
                    "op": "solve_many",
                    "items": [_values_payload(table)] * 5,
                })
                assert response["ok"] is False
                assert response["status"] == 400
                assert "caps manifests at 4" in (
                    response["error"]["message"]
                )

    def test_batch_larger_than_queue_still_completes(self):
        """Representatives beyond the queue bound apply backpressure
        (blocking puts) instead of tripping per-item 429s."""
        tables = [TruthTable.random(4, seed=60 + s) for s in range(8)]
        with running_server(
            _config(queue_limit=2, max_inflight=1)
        ) as server:
            with ServeClient(server.address) as client:
                batch = client.solve_many(
                    [_values_payload(t) for t in tables], method="fs"
                )
        assert batch["summary"]["error"] == 0
        assert len(batch["results"]) == 8


class TestPriorityValidation:
    def test_non_numeric_priority_is_400_not_dead_connection(self):
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                for bad in ("high", None, [1], {"p": 1}, True):
                    response = client.request({
                        "op": "solve", "expr": "x0 & x1", "priority": bad,
                    })
                    assert response["ok"] is False, bad
                    assert response["status"] == 400, bad
                    assert "priority" in response["error"]["message"]
                # The connection handler survived every rejection.
                assert client.ping()
                result = client.solve(expr="x0 & x1", priority=3)
                assert result["mincost"] == solve(parse("x0 & x1")).mincost

    def test_batch_priority_validated_too(self):
        with running_server(_config()) as server:
            with ServeClient(server.address) as client:
                response = client.request({
                    "op": "solve_many", "priority": "urgent",
                    "items": [{"expr": "x0"}],
                })
                assert response["ok"] is False
                assert response["status"] == 400
                assert client.ping()


class TestClientResponseMatching:
    def test_out_of_order_lines_are_buffered_by_id(self):
        """A stub server answers two pipelined requests in reverse
        order; each collect() gets ITS response, never someone else's."""
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()

        def stub():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as file:
                first = json.loads(file.readline())
                second = json.loads(file.readline())
                # Answer in reverse submission order.
                for request in (second, first):
                    file.write(json.dumps(
                        {"id": request["id"], "ok": True, "status": 200,
                         "echo": request["tag"]}
                    ).encode() + b"\n")
                file.flush()

        thread = threading.Thread(target=stub)
        thread.start()
        try:
            with ServeClient((host, port)) as client:
                id_a = client.submit({"tag": "a"})
                id_b = client.submit({"tag": "b"})
                # Collect in submission order although the wire carries
                # b's line first.
                assert client.collect(id_a)["echo"] == "a"
                assert client.collect(id_b)["echo"] == "b"
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_pipelined_requests_at_different_priorities(self):
        """Regression for the first-line-wins bug: with one worker, a
        later low-priority submission overtakes an earlier high-priority
        one, so the earlier caller's next line off the socket is the
        OTHER request's response."""
        blocker = TruthTable.random(8, seed=41)
        slow = TruthTable.random(7, seed=42)
        fast = TruthTable.random(3, seed=43)
        with running_server(
            _config(max_inflight=1, queue_limit=16)
        ) as server:
            with ServeClient(server.address) as client:
                # Occupy the single worker so the next two queue up.
                blocker_id = client.submit({
                    "op": "solve", **_values_payload(blocker),
                })
                time.sleep(0.2)
                slow_id = client.submit({
                    "op": "solve", "priority": 5, **_values_payload(slow),
                })
                fast_id = client.submit({
                    "op": "solve", "priority": 0, **_values_payload(fast),
                })
                # Collect in submission order; the server answered the
                # priority-0 request before the priority-5 one.
                slow_response = client.collect(slow_id)
                fast_response = client.collect(fast_id)
                blocker_response = client.collect(blocker_id)
        assert tuple(slow_response["result"]["order"]) == solve(slow).order
        assert tuple(fast_response["result"]["order"]) == solve(fast).order
        assert (
            tuple(blocker_response["result"]["order"]) == solve(blocker).order
        )
        # The buffered path actually ran: fast's line was read (and
        # parked) while waiting for slow's.
        assert slow_response["id"] == slow_id
        assert fast_response["id"] == fast_id


class TestCoalescedFailurePropagation:
    def test_followers_inherit_leader_abort_one_sweep(self, monkeypatch):
        """Four concurrent identical requests against an always-aborting
        budget: the leader sweeps (and aborts) ONCE; the three coalesced
        followers inherit its 504 instead of re-running the sweep."""
        import repro.serve as serve_module

        started = threading.Event()

        def aborting_solve(*args, **kwargs):
            started.set()
            time.sleep(1.0)  # hold the fingerprint in-flight
            raise BudgetExceeded("deadline exhausted", reason="deadline")

        monkeypatch.setattr(serve_module, "solve", aborting_solve)
        table = TruthTable.random(5, seed=44)
        payload = {"op": "solve", **_values_payload(table)}
        responses = [None] * 4
        with running_server(_config(max_inflight=4)) as server:

            def hit(index):
                with ServeClient(server.address) as client:
                    responses[index] = client.request(payload)

            threads = [threading.Thread(target=hit, args=(0,))]
            threads[0].start()
            assert started.wait(10)  # leader is mid-sweep
            threads += [
                threading.Thread(target=hit, args=(i,)) for i in (1, 2, 3)
            ]
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            metrics = server.metrics_snapshot()["server"]
        for response in responses:
            assert response is not None
            assert response["ok"] is False
            assert response["status"] == 504
            assert response["error"]["type"] == "BudgetExceeded"
        assert metrics["kernel_sweeps"] == 1
        assert metrics["coalesced"] == 3
        assert metrics["coalesced_failures"] == 3


class TestServerShardedCache:
    def test_cache_shards_config_reaches_disk_layout(self, tmp_path):
        table = TruthTable.random(5, seed=45)
        config = _config(cache_dir=str(tmp_path), cache_shards=4)
        with running_server(config) as server:
            with ServeClient(server.address) as client:
                cold = client.solve(method="fs", **_values_payload(table))
                metrics = client.metrics()
        assert cold["from_cache"] is False
        assert metrics["config"]["cache_shards"] == 4
        sharded = list(tmp_path.glob("*/cache_*.json"))
        assert len(sharded) == 1
        assert not list(tmp_path.glob("cache_*.json"))
        # A restarted server (fresh process state, same dir) serves it.
        with running_server(config) as server:
            with ServeClient(server.address) as client:
                warm = client.solve(method="fs", **_values_payload(table))
        assert warm["from_cache"] is True
        assert warm["order"] == cold["order"]
