"""The serve-repeat traffic: one ``repro serve`` daemon, two closed-loop
connections.

The daemon runs in its own process with ``--backend serial --jobs 1``
(no worker pool) and a fresh ``--cache-dir``.  This process is the one
client: a thread per connection, each sending its own stream and waiting
for every reply before the next request, like ``ServeClient`` callers
do.  Every ``segment`` requests the connections meet at a barrier, where
the idle host's speed is ticked on every CPU (``hostspeed.py``); the
ticks bracket each segment's requests.  No request carries a
``timeout``.  The socket read limit
``HANG_GUARD`` only turns a hung daemon into a failed run; a passing run
never reaches it.
"""

from __future__ import annotations

import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from tracing import Tracer

HANG_GUARD = 120.0


class Daemon:
    """A ``repro serve`` process, started and pinged; ``setup_s`` is the
    time from spawn until the first ``ping`` answered, as measured and
    scaled by the host-speed tick taken just after it."""

    def __init__(self, root: Path, env: Dict[str, str], cache_dir: str,
                 log_path: Path, probes: Any) -> None:
        from hostspeed import scaled
        from repro.serve import ServeClient

        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--backend", "serial",
             "--jobs", "1", "--port", "0", "--cache-dir", cache_dir],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            line = self._first_line()
            where = line.split("listening on ", 1)[1].split()[0]
            host, port = where.rsplit(":", 1)
            self.address = (host, int(port))
            with ServeClient(self.address, timeout=HANG_GUARD) as client:
                client.ping()
            seconds = time.perf_counter() - started
            tick = probes.tick()
            self.setup_s = (seconds, scaled(seconds, tick, tick))
        except BaseException:
            self.stop()
            raise

    def _first_line(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(HANG_GUARD):
                raise RuntimeError("repro serve did not start listening")
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve failed to start: {line!r}")
        return line

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM drains and exits 0; kill only if that hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(HANG_GUARD)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def probe_setup(root: Path, env: Dict[str, str], cache_dir: str,
                log_path: Path, probes: Any) -> Tuple[float, float]:
    daemon = Daemon(root, env, cache_dir, log_path, probes)
    daemon.stop()
    return daemon.setup_s


Exchange = Tuple[float, float, Dict[str, Any]]
Mark = Tuple[float, float, float]
"""A barrier's ``(arrival, tick seconds, release)``."""


def drive(
    address: Tuple[str, int],
    warmup: List[Dict[str, Any]],
    stream: List[Dict[str, Any]],
    barrier: threading.Barrier,
    out: List[Exchange],
    errors: List[BaseException],
    tracer: Optional[Tracer],
    conn: int,
    segment: int,
) -> None:
    """One connection: untimed warm-up, then the closed-loop stream,
    meeting the other connections at ``barrier`` before every
    ``segment`` requests and after the last.

    With a tracer, each request is a ``serve.request`` span from send to
    reply, with the daemon's reported solve time as a child
    (``serve.solve``, or ``serve.batch`` for ``solve_many``).  The daemon
    reports a duration only, so the child is placed at the end of the
    request; self times need durations only."""
    from repro.serve import ServeClient

    try:
        with ServeClient(address, timeout=HANG_GUARD) as client:
            for payload in warmup:
                response = client.request(payload)
                if not response.get("ok"):
                    raise RuntimeError(f"warm-up request failed: {response}")
            for i, payload in enumerate(stream):
                if i % segment == 0:
                    barrier.wait()
                if tracer is None:
                    sent = time.perf_counter()
                    response = client.request(payload)
                    out.append((sent, time.perf_counter(), response))
                    continue
                with tracer.span("serve.request", request=f"{conn}-{i}") as root:
                    response = client.request(payload)
                out.append((root["start"], root["end"], response))
                if "result" in response:
                    name = "serve.solve"
                    elapsed = response["result"].get("elapsed_seconds")
                else:
                    name = "serve.batch"
                    elapsed = response.get("summary", {}).get("elapsed_seconds")
                if elapsed is not None:
                    tracer.child(root, name, root["end"] - elapsed, root["end"])
            barrier.wait()
    except BaseException as exc:  # reported by the caller, never swallowed
        errors.append(exc)
        barrier.abort()


def run_pass(
    root: Path, env: Dict[str, str], cache_dir: str, log_path: Path,
    warmups: List[List[Dict[str, Any]]], streams: List[List[Dict[str, Any]]],
    probes: Any, segment: int, traced: bool = False,
) -> Dict[str, Any]:
    """Start a daemon, drive every connection's stream through it, read
    its ``metrics`` and peak RSS, and stop it.  Every stream must have
    the same length."""
    from repro.serve import ServeClient

    if len({len(stream) for stream in streams}) != 1:
        raise ValueError("the connections' streams differ in length")
    daemon = Daemon(root, env, cache_dir, log_path, probes)
    tracers = [Tracer() if traced else None for _ in streams]
    marks: List[Mark] = []

    def mark() -> None:
        arrival = time.perf_counter()
        marks.append((arrival, probes.tick(), time.perf_counter()))

    try:
        barrier = threading.Barrier(len(streams), action=mark)
        outs: List[List[Exchange]] = [[] for _ in streams]
        errors: List[BaseException] = []
        threads = [
            threading.Thread(target=drive, args=(
                daemon.address, warmup, stream, barrier, out, errors,
                tracer, conn, segment,
            ))
            for conn, (warmup, stream, out, tracer) in enumerate(
                zip(warmups, streams, outs, tracers)
            )
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        with ServeClient(daemon.address, timeout=HANG_GUARD) as client:
            metrics = client.metrics()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    spans: List[Dict[str, Any]] = []
    for tracer in tracers:
        if tracer is not None:
            spans.extend(tracer.renumbered(len(spans)))
    return {
        "exchanges": outs, "marks": marks, "metrics": metrics,
        "peak_rss_mb": rss, "setup_s": daemon.setup_s, "spans": spans,
    }
