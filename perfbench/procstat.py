"""Read-only process and machine accounting from ``/proc``.

On a small virtual machine the hypervisor steals CPU time from the
guest, which stretches wall time.  The kernel accounts stolen ticks
apart, so CPU time does not count them, though it still grows when
neighbours contend for the host's cores and caches.  The benchmark
therefore reports CPU time beside wall time, and the share of ticks
stolen during each run.  Everything here only reads ``/proc``.
"""

from __future__ import annotations

import os
from pathlib import Path

_STAT_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def machine_jiffies() -> dict[str, int]:
    """The aggregate ``cpu`` line of ``/proc/stat``, by field name."""
    with open("/proc/stat", encoding="ascii") as handle:
        values = handle.readline().split()[1:1 + len(_STAT_FIELDS)]
    return dict(zip(_STAT_FIELDS, map(int, values)))


def stolen_s(cpu: int) -> float:
    """Seconds the hypervisor has stolen from one CPU since boot, in 10 ms ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[1 + _STAT_FIELDS.index("steal")]) / _TICKS_PER_S
    return 0.0


def steal_pct(before: dict[str, int], after: dict[str, int]) -> float:
    """Share of all CPU ticks between two samples that the hypervisor stole."""
    total = sum(after[k] - before[k] for k in _STAT_FIELDS)
    return 100.0 * (after["steal"] - before["steal"]) / total if total else 0.0


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text(encoding="ascii", errors="replace")
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.  Index 0 below is field 3 (state).
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, found by scanning parent ids."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_s(pids: list[int]) -> float:
    """CPU seconds the given live processes' threads have run, to the nanosecond.

    ``/proc/<pid>/task/<tid>/schedstat`` counts time on a CPU in
    nanoseconds where ``/proc/<pid>/stat`` counts 10 ms ticks.
    """
    total_ns = 0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as handle:
                    total_ns += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total_ns / 1e9


def pss_mb(pids: list[int]) -> float:
    """Proportional set size of the processes in MiB.

    PSS splits each shared page among the processes mapping it, so
    copy-on-write pages that forked workers share with their parent are
    counted once in the sum.
    """
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text(encoding="ascii")
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0

