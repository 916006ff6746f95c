"""Run one workload of the repository benchmark and print its result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 10 --trace 0

The program is run from the checkout's own ``src/``.  Scratch files and
the serve workloads' stage cache live in ``.perfbench/`` (ignored by
git).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer one with ``--trace 1``.  The line before it is the run's
noise record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

import paper
import procstat
import serve
from common import Context, Ledger

WORKLOADS = ("paper-cold", "serve-read", "serve-what-if")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench"
    shutil.rmtree(work / args.workload, ignore_errors=True)
    (work / args.workload).mkdir(parents=True)
    program = {"PYTHONPATH": str(root / "src"),
               "ANYCAST_REPRO_CACHE_DIR": str(work / "cache")}
    os.environ.update(program)
    for knob in ("ANYCAST_REPRO_NO_CACHE", "REPRO_FAULTS"):
        os.environ.pop(knob, None)
    sys.path.insert(0, program["PYTHONPATH"])
    ctx = Context(root=root, work=work / args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), env=dict(os.environ))
    ledger = Ledger()
    # A SIGTERM unwinds through the ``finally`` below, which reaps the
    # daemons and their workers instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    before = procstat.machine_jiffies()
    try:
        if args.workload == "paper-cold":
            metrics, info = paper.run(ctx, ledger), {}
        else:
            metrics, info = serve.run(ctx, ledger, args.workload)
    finally:
        ctx.stop_children()
    noise = {"nproc": os.cpu_count(),
             "steal_pct": procstat.steal_pct(before, procstat.machine_jiffies()), **info}
    names = {m["name"] for m in wanted}
    print(json.dumps({"noise": noise, "notes": ledger.notes,
                      "unlisted": sorted(set(metrics) - names)}))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
