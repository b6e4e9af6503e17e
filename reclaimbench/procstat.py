"""Process CPU and memory from ``/proc`` (Linux)."""
from __future__ import annotations

import os
import resource

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm may contain spaces; the fields after it start past the last ')'
    return raw[raw.rindex(")") + 2 :].split()


def cpu_s(pid: int, *, children: bool = False) -> float:
    """utime + stime of ``pid`` in seconds (+ reaped children's if asked)."""
    f = _stat_fields(pid)
    if f is None:
        return 0.0
    # after comm: state=0 ppid=1 ... utime=11 stime=12 cutime=13 cstime=14
    ticks = int(f[11]) + int(f[12])
    if children:
        ticks += int(f[13]) + int(f[14])
    return ticks / _TICK


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def descendants(pid: int) -> list[int]:
    """All live descendants of ``pid``."""
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            kids.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_cpu_s(pid: int) -> float:
    """CPU of ``pid``'s descendants, including ones they have reaped.

    A worker that exits between two readings moves its time into its
    parent's cutime/cstime, so the difference of two readings still counts
    it exactly once.
    """
    return sum(cpu_s(p, children=True) for p in descendants(pid))


def alive(pid: int) -> bool:
    f = _stat_fields(pid)
    return f is not None and f[0] != "Z"


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
