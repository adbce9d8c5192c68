"""Host-speed probe: how fast this vCPU runs Python right now.

The benchmark's host shares its cores with other tenants, and their load
makes the same batch take 1.5× as long from one minute to the next, in
wall *and* CPU time (the slowdown is contention for the core, not time
stolen from the guest).  No instruction counter is readable, so the
benchmark measures the host's speed beside the program instead: a
fixed pure-Python kernel runs on the benchmark's own thread every
:data:`INTERVAL_S` (a ``SIGALRM`` handler, so the samples interleave
with the program's own work on the same vCPU), and its CPU time is
compared with :data:`REFERENCE_KERNEL_S`.

``slowdown`` is that ratio over a window.  Divided by it, a CPU-bound
time becomes *reference seconds*: the time the work would take on a
host where the kernel runs in :data:`REFERENCE_KERNEL_S`.  On a 2-vCPU
Xeon VM whose load swung the batch time of ``bulk_se`` 1.8× within
minutes, the kernel's mean over a batch tracked the batch's CPU time
with a correlation of 0.94–0.97, and scaling by it cut the spread of
``reads_per_s`` over seeds from ~20–28% to ~3–4% (interquartile range
over median).  The kernel costs ~1% of the run; its own wall and CPU
time are taken out of what the benchmark reports.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

#: seconds between kernel samples
INTERVAL_S = 0.05
#: the kernel's CPU time on the reference host (about its time on an
#: unloaded 2.1 GHz Xeon vCPU under CPython 3.11)
REFERENCE_KERNEL_S = 400e-6

#: 64k boxed ints, read at fixed random positions by the kernel
_TABLE = list(range(65536))
_POSITIONS = random.Random(0).sample(range(len(_TABLE)), 1000)


def kernel() -> int:
    """The fixed unit of work, allocating nothing the garbage collector
    tracks: integer arithmetic in the interpreter loop, then scattered
    reads from a 2 MB table.  Contention slows the arithmetic less than
    it slows the benchmark's batches and the reads more; the two halves
    together move with the batches' CPU time about one for one."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    table = _TABLE
    for position in _POSITIONS:
        total += table[position]
    return total


def sample() -> tuple[float, float, float]:
    """(start, wall seconds, CPU seconds) of one kernel run."""
    started = time.perf_counter()
    cpu = time.thread_time()
    kernel()
    cpu = time.thread_time() - cpu
    return started, time.perf_counter() - started, cpu


def slowdown_now() -> float:
    """The host's slowdown measured right now, from one kernel run (back
    to back runs would find the table in cache, unlike the interleaved
    samples)."""
    return sample()[2] / REFERENCE_KERNEL_S


class SpeedProbe:
    """Samples the kernel every :data:`INTERVAL_S` while active.

    Use as a context manager around the measured call; the previous
    ``SIGALRM`` handler is restored on exit.  Samples are kept until
    :meth:`reset`.
    """

    def __init__(self) -> None:
        self._previous = None
        self.reset()

    def reset(self) -> None:
        #: (start, wall seconds, CPU seconds) per kernel run
        self.samples: list[tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _within(self, start: float | None, end: float | None) -> list:
        return [
            s
            for s in self.samples
            if (start is None or s[0] >= start) and (end is None or s[0] < end)
        ]

    def own_wall(self, start: float | None = None, end: float | None = None) -> float:
        """Wall seconds the kernel itself took in the window."""
        return sum(s[1] for s in self._within(start, end))

    def own_cpu(self) -> float:
        """CPU seconds the kernel itself took over all samples."""
        return sum(s[2] for s in self.samples)

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Mean kernel CPU time in the window ÷ the reference; the whole
        run's samples stand in for a window too short to hold one."""
        window = self._within(start, end) or self.samples
        if not window:
            return slowdown_now()
        return statistics.fmean(s[2] for s in window) / REFERENCE_KERNEL_S
