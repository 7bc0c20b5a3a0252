"""Statistics and the environment fingerprint shared by run.py and aa.py."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: A run is labelled ``disturbed`` when other processes used more than this
#: share of the box's CPU time over the timed window, or the hypervisor
#: stole more than ``STEAL_LIMIT`` of it.
OTHER_CPU_LIMIT = 0.10
STEAL_LIMIT = 0.05


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, q2, q3] as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def lower_quartile(values: Sequence[float]) -> float:
    return quartiles(values)[0]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """``VmHWM`` (peak resident set) of another live process."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ------------------------------------------------------------ environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> object:
    """What the BLAS behind numpy says it will use, when it can be asked."""
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        asked = {name: os.environ[name]
                 for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS") if name in os.environ}
        return {"source": "environment (threadpoolctl absent)", **asked}
    return [{"api": pool.get("internal_api"),
             "threads": pool.get("num_threads")}
            for pool in threadpool_info()]


def fingerprint() -> Dict[str, object]:
    from repro.native.registry import native_backend

    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "native_backend": native_backend(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        # In-process workloads use one thread and serve_mixed two client
        # connections against one server process; nothing here measures
        # scaling across cores, and no reading should be taken as one.
        "multi_core_readings": "unverified",
    }


def _proc_stat_total() -> List[int]:
    with open("/proc/stat", "r", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _pid_jiffies(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    # utime, stime, cutime, cstime are fields 14-17 of the full line.
    return sum(int(fields[i]) for i in (11, 12, 13, 14))


class CpuWindow:
    """CPU accounting of the timed window from ``/proc/stat``.

    ``other_cpu_share`` is the share of the box's CPU time spent by
    processes other than the benchmark (and the server it spawned);
    ``steal_share`` is time the hypervisor gave to someone else.
    """

    def __init__(self, extra_pids: Iterable[int] = ()) -> None:
        self.pids = [os.getpid(), *extra_pids]
        self.total0 = _proc_stat_total()
        self.own0 = sum(_pid_jiffies(p) for p in self.pids)

    def close(self) -> Dict[str, object]:
        total1 = _proc_stat_total()
        own = sum(_pid_jiffies(p) for p in self.pids) - self.own0
        delta = [b - a for a, b in zip(self.total0, total1)]
        capacity = sum(delta[:8]) or 1
        idle = delta[3] + delta[4]
        steal = delta[7] if len(delta) > 7 else 0
        other = max(0, capacity - idle - steal - own)
        report: Dict[str, object] = {
            "other_cpu_share": other / capacity,
            "steal_share": steal / capacity,
            "own_cpu_share": own / capacity,
        }
        report["disturbed"] = bool(
            report["other_cpu_share"] > OTHER_CPU_LIMIT
            or report["steal_share"] > STEAL_LIMIT)
        return report


def format_metric(name: str, value: float, unit: str,
                  note: Optional[str] = None) -> str:
    text = f"{name:<42} {value:>14.6g} {unit}"
    return f"{text}   ({note})" if note else text
