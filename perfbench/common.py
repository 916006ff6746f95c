"""What every workload shares: the run context, the ledger, child processes."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import procstat


@dataclass
class Context:
    """One benchmark run: where it works and what it was asked."""

    root: Path  #: the checkout holding ``src/repro``
    work: Path  #: scratch space inside the checkout, ignored by git
    seed: int
    seconds: float
    trace: bool
    env: dict = field(default_factory=dict)  #: environment for the program
    children: list = field(default_factory=list)  #: every process started

    def repro(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro", *args]

    def stop_children(self) -> None:
        """Kill whatever a failed run left running, workers included, and reap it."""
        for proc in self.children:
            if proc.poll() is None:
                for pid in procstat.process_tree(proc.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            proc.wait()


class Ledger:
    """Operations attempted and failed, and whether every answer was right.

    An operation that errors (non-zero exit, non-200 answer) fails; one
    that answers wrongly fails too and also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def op(self, problems=(), *, error: str | None = None) -> None:
        """Count one operation, failed by ``error`` or by any of ``problems``."""
        self.attempted += 1
        if error is None and not problems:
            return
        self.failed += 1
        if error is None:
            self.correct = False
        if len(self.notes) < 20:
            self.notes.append(error or "; ".join(problems[:3]))


@dataclass
class Finished:
    """A child process that ran to its end, with its own resource use."""

    code: int
    wall_s: float
    cpu_s: float  #: user + system of the child and every descendant it waited for
    maxrss_mb: float


def run_measured(cmd: list[str], ctx: Context, stdout: Path, stderr: Path,
                 timeout_s: float = 150.0) -> Finished:
    """Run ``cmd`` to completion; time it and take its ``wait4`` rusage."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env, stdout=out, stderr=err)
        ctx.children.append(proc)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )
