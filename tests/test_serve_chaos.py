"""Serve-layer robustness: the ``health`` probe and the client's retries.

The daemon answers ``health`` with a small probe document (draining or
not, backend name, queue depth, in-flight count, uptime).  On the client
side, ``ServeClient(retries=...)`` rides through dropped connections on
idempotent ops — resubmitting with the *same* request id — while staying
strictly opt-in (default 0 retries), never retrying an answer the server
sent, and never auto-retrying ``solve_many``.
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, ServeConfig, running_server


class TestHealth:
    def test_health_op_on_healthy_daemon(self):
        config = ServeConfig(backend="thread", jobs=2, max_inflight=1,
                             queue_limit=16)
        with running_server(config) as server:
            with ServeClient(server.address) as client:
                health = client.health()
                assert health == {
                    "healthy": True,
                    "draining": False,
                    "backend": "thread",
                    "queue_depth": 0,
                    "in_flight": 0,
                    "uptime_seconds": health["uptime_seconds"],
                }
                assert health["uptime_seconds"] >= 0


# ----------------------------------------------------------------------
# ServeClient reconnect-with-backoff against a scripted stub server
# ----------------------------------------------------------------------

class _FlakyStub:
    """A server that drops the first ``drops`` connections after reading
    one request line, then serves normally — the shape of a daemon whose
    frontend died and came back."""

    def __init__(self, drops=1, responses=None):
        self.drops = drops
        self.responses = list(responses or [])
        self.received = []
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                # makefile() keeps the socket alive until the file is
                # closed too, so hang-ups must close both.
                f = conn.makefile("rwb")
                try:
                    if self.connections <= self.drops:
                        f.readline()  # swallow the request, then hang up
                        continue
                    while True:
                        line = f.readline()
                        if not line:
                            break
                        request = json.loads(line)
                        self.received.append(request)
                        if self.responses:
                            body = self.responses.pop(0)
                        else:
                            body = {"ok": True, "pong": True}
                        body = {**body, "id": request.get("id")}
                        f.write(json.dumps(body).encode() + b"\n")
                        f.flush()
                finally:
                    f.close()

    def close(self):
        self._sock.close()


class TestClientReconnect:
    def test_off_by_default(self):
        stub = _FlakyStub(drops=1)
        try:
            with ServeClient(stub.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.ping()
                assert excinfo.value.status == 503
        finally:
            stub.close()

    def test_reconnects_and_resends_same_id(self):
        stub = _FlakyStub(drops=2)
        try:
            client = ServeClient(stub.address, retries=3, backoff=0.0)
            try:
                assert client.ping() is True
            finally:
                client.close()
            assert stub.connections == 3
            assert len(stub.received) == 1
        finally:
            stub.close()

    def test_retries_exhausted_raises(self):
        stub = _FlakyStub(drops=5)
        try:
            client = ServeClient(stub.address, retries=2, backoff=0.0)
            try:
                with pytest.raises(ServeError):
                    client.ping()
            finally:
                client.close()
        finally:
            stub.close()

    def test_draining_503_is_not_retried(self):
        draining = {
            "ok": False,
            "status": 503,
            "error": {"type": "Draining", "retryable": True},
        }
        stub = _FlakyStub(drops=0, responses=[draining])
        try:
            client = ServeClient(stub.address, retries=5, backoff=0.0)
            try:
                with pytest.raises(ServeError, match="Draining"):
                    client.ping()
            finally:
                client.close()
            assert len(stub.received) == 1
        finally:
            stub.close()

    def test_client_errors_never_retried(self):
        bad = {
            "ok": False,
            "status": 400,
            "error": {"type": "BadRequest", "message": "no such op"},
        }
        stub = _FlakyStub(drops=0, responses=[bad])
        try:
            client = ServeClient(stub.address, retries=5, backoff=0.0)
            try:
                with pytest.raises(ServeError, match="BadRequest"):
                    client.metrics()
            finally:
                client.close()
            assert len(stub.received) == 1
        finally:
            stub.close()

    def test_solve_many_is_never_auto_retried(self):
        stub = _FlakyStub(drops=1)
        try:
            client = ServeClient(stub.address, retries=5, backoff=0.0)
            try:
                with pytest.raises(ServeError) as excinfo:
                    client.solve_many([{"values": "0110", "n": 2}])
                assert excinfo.value.status == 503
            finally:
                client.close()
            assert stub.connections == 1
        finally:
            stub.close()

    def test_backoff_sleeps_between_attempts(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        stub = _FlakyStub(drops=2)
        try:
            client = ServeClient(stub.address, retries=3, backoff=0.2)
            try:
                assert client.ping() is True
            finally:
                client.close()
            assert sleeps == [0.2, 0.4]
        finally:
            stub.close()

    def test_constructor_validates_knobs(self):
        stub = _FlakyStub(drops=0)
        try:
            with pytest.raises(ValueError):
                ServeClient(stub.address, retries=-1)
            with pytest.raises(ValueError):
                ServeClient(stub.address, backoff=-0.5)
        finally:
            stub.close()
