"""Process-tree CPU and memory, and the host context of a run, from /proc.

Ray's local cluster runs as descendants of the benchmark process (GCS,
raylet, and the raylet's worker processes), so the process tree rooted
at the benchmark covers every process whose work a user pays for.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name (field 2) may hold spaces; fields after it do not
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu(root: int) -> dict[int, float]:
    """CPU seconds per live process of the tree: user + system of the
    process plus those of its children it has already reaped."""
    out = {}
    for pid in descendants(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # fields 14-17 of proc(5): utime stime cutime cstime
            out[pid] = sum(int(x) for x in fields[11:15]) / CLK_TCK
    return out


def cpu_used(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds the tree used between two ``tree_cpu`` snapshots. A
    process that started in between counts from zero."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mb(root: int) -> float:
    """Resident memory of the tree in MiB, as the sum of each process's
    proportional set size, so pages shared between Ray processes (the
    object store mapping, shared libraries) count once."""
    return sum(_pss_kb(pid) for pid in descendants(root)) / 1024.0


class PeakMemory:
    """Samples ``tree_pss_mb`` on a background thread while ``active`` is
    set; ``peak_mb`` is the largest sample taken."""

    def __init__(self, root: int, interval_s: float = 0.25):
        self.root = root
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.active = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            if self.active:
                self.peak_mb = max(self.peak_mb, tree_pss_mb(self.root))
            if self._stop.wait(self.interval_s):
                return

    def start(self) -> "PeakMemory":
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_mb


def cpu_counters() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (jiffies per state)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two
    ``cpu_counters`` snapshots, in percent (field 8 is steal)."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8])  # guest time is already counted in user/nice
    return 100.0 * d[7] / total if total > 0 else 0.0


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def nproc() -> int | None:
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def wait_gone(pids: list[int], timeout_s: float) -> list[int]:
    """Wait until none of ``pids`` is alive; return those still alive."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive:
        alive = [p for p in alive if _stat_fields(p) is not None
                 and _stat_fields(p)[0] != "Z"]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    return alive
