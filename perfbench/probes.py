"""Process-level probes: CPU, proportional memory, shared memory, provenance.

CPU and memory are read from ``/proc`` for the main process *and* every
descendant process (the engine's pool workers), so the engine's cost is
not hidden in other processes.  Memory uses PSS (proportional set size):
a page shared by the main process and two workers, like the published index,
counts one third in each, i.e. once in the sum.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: seconds between PSS samples, and between refreshes of the process list
_PSS_INTERVAL = 0.05
_PIDS_REFRESH = 1.0


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (None if gone)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def descendants() -> list[int]:
    """Live descendant pids of this process."""
    parents: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None:
            parents.setdefault(int(fields[1]), []).append(int(entry.name))
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its live descendants."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in descendants():
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def pss_bytes(pids: list[int]) -> int:
    """Summed PSS of ``pids`` (processes that are gone count zero)."""
    total = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total += int(line.split()[1]) * 1024
                break
    return total


class PssSampler:
    """Background thread recording the peak summed PSS of this process and
    its descendants while it runs.

    Walking /proc for descendants costs milliseconds, so the process list
    is refreshed once a second; the engine's workers live for the whole
    run, so that misses nothing.
    """

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="pss-sampler", daemon=True)

    def _pids(self) -> list[int]:
        return [os.getpid(), *descendants()]

    def _loop(self) -> None:
        pids, listed = self._pids(), time.monotonic()
        while True:
            if time.monotonic() - listed >= _PIDS_REFRESH:
                pids, listed = self._pids(), time.monotonic()
            self.peak = max(self.peak, pss_bytes(pids))
            if self._stop.wait(_PSS_INTERVAL):
                return

    def __enter__(self) -> "PssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, pss_bytes(self._pids()))


def shm_blocks() -> set[str]:
    """Names of the engine's POSIX shared-memory blocks now in /dev/shm."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.glob("psm_*")}


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker if the engine started one.

    The tracker is a helper process that shared-memory use spawns; it
    would otherwise outlive the benchmark until the interpreter exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, workload: str, seed: int, inputs: dict) -> dict:
    """The stamp every result record carries."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
        "inputs": inputs,
        "argv": sys.argv[1:],
    }
