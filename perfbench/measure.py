"""Clocks, percentiles, process resources and provenance for the benchmark.

Process figures come from ``/proc``: the benchmark runs on Linux only.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple


def process_age() -> float:
    """Seconds since this process started (interpreter start-up included)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def median(values: List[float]) -> float:
    return statistics.median(values)


def tail(values: List[float], beyond: int = 10
         ) -> Tuple[float, float, int]:
    """The highest percentile with at least *beyond* samples above it.

    Returns ``(value, percentile, samples)``.  With fewer than
    ``beyond + 1`` samples no such percentile exists and the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond  # 1-based rank of the tail sample
    return ordered[rank - 1], 100.0 * rank / n, n


# ---------------------------------------------------------------------------
# process resources
# ---------------------------------------------------------------------------

def _proc_stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def descendants(pid: int) -> List[int]:
    """Live descendant pids of *pid* (via /proc/<pid>/task/*/children)."""
    found: List[int] = []
    todo = [pid]
    while todo:
        current = todo.pop()
        task_dir = Path(f"/proc/{current}/task")
        try:
            tasks = list(task_dir.iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            for child in children:
                found.append(int(child))
                todo.append(int(child))
    return found


def cpu_seconds(pids: Iterable[int] = ()) -> float:
    """User+system CPU of this process, its reaped children, and *pids*."""
    times = os.times()
    total = times.user + times.system + times.children_user \
        + times.children_system
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in pids:
        fields = _proc_stat(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus that of its largest live child."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_kb = 0
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        largest_kb = max(largest_kb, int(line.split()[1]))
        except OSError:
            continue
    return (own_kb + largest_kb) / 1024.0


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def calibration_seconds(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: the box's speed, in s."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when *root* is not a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if (out.returncode != 0 or len(lines) != 2
            or Path(lines[0]).resolve() != root.resolve()):
        return "unknown"
    return lines[1]


def provenance(root: Path, workload: str, seed: int, trace: bool) -> Dict:
    import numpy
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "calibration_s": round(calibration_seconds(), 6),
        "argv": sys.argv[1:],
    }
