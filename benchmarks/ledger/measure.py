"""Measurement primitives of the ledger: /proc readers and sample statistics.

Everything here is independent of ``repro`` so the self-tests can exercise it
without a cluster: CPU and peak-RSS readers for *other* processes (the node
processes a ``Cluster`` spawns), the same two numbers for the calling
process, and the percentile rule the latency metrics use.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from collections.abc import Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


# -- other processes, via /proc -------------------------------------------------------


def parse_stat_cpu_ticks(stat_text: str) -> int:
    """``utime + stime`` (clock ticks) from the text of ``/proc/<pid>/stat``.

    The second field is the command name in parentheses and may itself
    contain spaces and parentheses, so fields are counted from the *last*
    closing parenthesis: ``state`` is the first field after it, ``utime`` and
    ``stime`` the 12th and 13th.
    """
    after_comm = stat_text[stat_text.rindex(")") + 1 :].split()
    return int(after_comm[11]) + int(after_comm[12])


def cpu_seconds(pid: int) -> float | None:
    """User+system CPU seconds consumed so far by ``pid`` (None once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return parse_stat_cpu_ticks(stat.read()) / _CLK_TCK
    except (OSError, ValueError):
        return None


def peak_rss_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of ``pid`` in MB (None once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return None


def stolen_cpu_seconds() -> float:
    """CPU seconds the hypervisor has taken from this machine since boot
    (the ``steal`` column of ``/proc/stat``; 0 where there is none)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, ValueError, IndexError):
        return 0.0


# -- the calling process --------------------------------------------------------------


def self_cpu_seconds() -> float:
    """User+system CPU seconds of the calling process (all its threads)."""
    return time.process_time()


def self_peak_rss_mb() -> float:
    """Peak resident set of the calling process in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- sample statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def rank_value(samples: Sequence[float], rank: int) -> float:
    """The sample of 1-based ``rank`` in sorted order."""
    return sorted(samples)[rank - 1]


def p50_rank(count: int) -> int:
    """Nearest-rank median: the same rule of ranks as :func:`tail_rank`, so a
    tail is never below the p50 reported beside it."""
    return math.ceil(count / 2)


def tail_rank(count: int) -> int:
    """1-based rank, in sorted order, of the tail sample to report.

    The highest rank that still has :data:`TAIL_MIN_BEYOND` samples beyond
    it; never below the median's rank, so a small sample degrades to the
    median instead of to a percentile under it.
    """
    if count < 1:
        raise ValueError("no samples")
    return max(count - TAIL_MIN_BEYOND, p50_rank(count))


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the tail sample chosen by :func:`tail_rank`."""
    rank = tail_rank(len(samples))
    return rank_value(samples, rank), 100.0 * rank / len(samples)
