"""Host-speed calibration: a fixed piece of work timed next to every
measurement, so that timings can be reported at one reference speed.

On the shared 2-vCPU host this benchmark was built on, the speed of each
vCPU wanders from one second to the next and, in slow phases lasting
minutes, drops to 0.4-0.5x; CPU time tracks wall time, so it is not
preemption.  Raw timings of identical code then moved by up to 35%
between runs and by up to 2.5x between runs minutes apart.  The
benchmark therefore times :func:`tick` just before and just after each
measurement, on the vCPU that does the work where it can, and reports
``seconds * REFERENCE_TICK_S / tick`` (:func:`scaled`): the time the work
would take on a host whose tick takes ``REFERENCE_TICK_S``.  A tick is
made of short rounds, each ``np.unique`` on a fixed array (the operation
the DP kernel spends most of its time in) followed by about as long of
interpreter-bound dict and integer work (what the heuristics and the
daemon mostly do), and reads the median round, so one round stalled by
a burst on the host does not move it.  It uses only numpy and the
interpreter, never the program, so a change to the program cannot move
it.

Run as a script (``python3 hostspeed.py CPU``), this module is one
:class:`CoreProbes` helper: pinned to ``CPU``, it answers each line on
stdin with one tick's seconds.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

REFERENCE_TICK_S = 0.025
"""A tick's seconds on the reference host (a round figure near the
host above's typical tick); scaled timings read as seconds there."""

_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 20000)
ROUNDS = 7


def _round() -> float:
    """Seconds for one round of the calibration work."""
    started = time.perf_counter()
    np.unique(_KEYS)
    table: Dict[int, int] = {}
    x = 0
    for i in range(15000):
        x = (x * 31 + i) & 0xFFFF
        table[x & 1023] = i
    return time.perf_counter() - started


def tick() -> float:
    """Seconds for the fixed calibration work: six times the median of
    :data:`ROUNDS` rounds."""
    return 6 * statistics.median(_round() for _ in range(ROUNDS))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the ticks that bracket
    the measurement."""
    return seconds * REFERENCE_TICK_S / math.sqrt(before * after)


class CoreProbes:
    """One helper process per usable CPU, each pinned to it.

    :meth:`tick` ticks on every CPU at once and returns the tick of their
    mean speed.  It serves measurements whose work is spread over
    processes the benchmark cannot tick inside (a ``repro serve`` daemon
    and its client), and must be called only while that work is idle."""

    def __init__(self, env: Optional[Dict[str, str]] = None) -> None:
        self._procs: List[subprocess.Popen] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu)], env=env,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                ))
            self.tick()
        except BaseException:
            self.close()
            raise

    def tick(self) -> float:
        for proc in self._procs:
            proc.stdin.write(b"\n")
            proc.stdin.flush()
        ticks = []
        for proc in self._procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("a host-speed probe exited")
            ticks.append(float(line))
        return len(ticks) / sum(1.0 / t for t in ticks)

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            proc.wait()
            proc.stdout.close()
        self._procs = []

    def __enter__(self) -> "CoreProbes":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def main(argv: List[str]) -> int:
    os.sched_setaffinity(0, {int(argv[1])})
    tick()
    for _ in sys.stdin:
        print(repr(tick()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
