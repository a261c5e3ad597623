"""Times corrected for CPU contention from outside the process.

On a shared host the CPU this process runs on alternates between its
uncontended speed and slower ones, from one second to the next and, at
times, for many minutes.  On the shared 2-vCPU Intel Xeon host this
benchmark was built on, fixed pure-Python loops ran up to 1.9 times slower
depending on the moment, and the process's CPU time slowed with them (no
steal is reported: the slowdown is a shared core, not lost time slices).
Raw wall times of one workload spread by 10-34% between runs.

While a metered block runs, a SIGALRM timer interrupts it every
``INTERVAL`` seconds and times two fixed probes: ``scan``, shaped like
podrepo's replay step (scan a place list for free places, then a ``min``
with a key function over them), and ``arith``, a plain integer loop; about
100 us together.  They live here, not in podrepo, so that a change to
podrepo never changes the yardstick.  A probe's slowdown is its time over
its uncontended time on the host named above (``REFERENCE_S``); the
slowdown at a tick is the geometric mean of the two, and the slowdown at a
moment is the median of the ``SMOOTH`` ticks around it, which drops single
ticks hit by an interrupt.  Each interval between two ticks is divided by
that slowdown, and the sum is the block's time at the reference speed.

The reference is a fixed constant and not a statistic of the run, because
a run that is slow from start to end has no fast probes to calibrate
against; on another host the times are scaled by one factor, the same for
every run there.  Two probes, because contention of different kinds slows
them differently and podrepo lies in between: on the build host, over
eight minutes of heavy contention, 0.1-0.5 s blocks of GA evaluation, B&B
search, cheapest and tetris replays and seasonal departure generation
spread by 29-38% raw (quartile distance over median), by 8-12% corrected
with ``scan`` alone and by 3-8% with the two together.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 0.01
SMOOTH = 9
# uncontended seconds of one ``scan`` and one ``arith`` on the build host
REFERENCE_S = (55e-6, 37e-6)

_PLACES = 504
_POD_AT = [0 if p % 3 else p for p in range(_PLACES + 1)]
_COST = [float(p * 7919 % 101) for p in range(_PLACES + 1)]


def scan() -> float:
    """Seconds one fixed replay-shaped step takes right now."""
    started = time.perf_counter()
    pod_at, cost = _POD_AT, _COST
    free = [p for p in range(1, _PLACES + 1) if pod_at[p] == 0 or p == 7]
    min(free, key=lambda p: (cost[p] + cost[_PLACES - p], p))
    return time.perf_counter() - started


def arith() -> float:
    """Seconds a fixed integer loop takes right now."""
    started = time.perf_counter()
    x = 0
    for i in range(800):
        x += i * i % 7
    return time.perf_counter() - started


def slowdown(scan_s: float, arith_s: float) -> float:
    """The geometric mean of both probes' times over their references."""
    return math.sqrt(scan_s / REFERENCE_S[0] * arith_s / REFERENCE_S[1])


class SpeedMeter:
    """Context manager that meters one block per ``with`` statement.

    ``blocks`` holds ``(start, end, [(at, slowdown), ...])`` per block;
    blocks metered in another process may be appended to it."""

    def __init__(self):
        self.blocks: list[tuple[float, float, list[tuple[float, float]]]] = []

    def _tick(self, signum, frame) -> None:
        self._samples.append((time.perf_counter(), slowdown(scan(), arith())))

    def __enter__(self) -> "SpeedMeter":
        self._samples: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.blocks.append((self._start, end, self._samples))

    def corrected(self) -> list[float]:
        """Every block's time at the reference speed, in block order.  A
        block without ticks is scaled by the median slowdown of the run."""
        everything = [s for _, _, samples in self.blocks for _, s in samples]
        fallback = statistics.median(everything) if everything else 1.0
        half = SMOOTH // 2
        out = []
        for start, end, samples in self.blocks:
            ticks = [s for _, s in samples]
            smooth = [statistics.median(ticks[max(0, i - half):i + half + 1])
                      for i in range(len(ticks))]
            total, previous, slow = 0.0, start, fallback
            for (at, _), slow in zip(samples, smooth):
                total += (at - previous) / slow
                previous = at
            out.append(total + (end - previous) / slow)
        return out
