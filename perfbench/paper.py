"""paper-cold: a cold ``repro all --scale small --workers 1`` in a fresh cache.

The artifact-cache key holds the code version, so after every edit a
researcher waits for exactly this run.  Its input is the reference
scenario (``small``, scenario seed 0), the run behind every figure of
the reproduction; the benchmark seed does not change it.  Other scenario
seeds are other worlds with more or less simulation work, so varying
them would measure the world instead of the code (see README.md).
"""

from __future__ import annotations

import json
import shutil
import statistics

from checks import journal_status, validate_claims
from common import Context, Ledger, run_measured
from layers import layer_metrics

SCALE = ("--scale", "small", "--seed", "0")
#: Timed ``repro list`` runs per benchmark run; set-up is their median.
SETUP_RUNS = 5


def _list_experiments(ctx: Context, ledger: Ledger) -> tuple[list[str], list[float]]:
    """Set-up: interpreter start, import and CLI start, as ``repro list``."""
    ids: list[str] = []
    walls = []
    for i in range(SETUP_RUNS):
        out = ctx.work / "list.out"
        done = run_measured(ctx.repro("list"), ctx, out, ctx.work / "list.err", timeout_s=60)
        listed = out.read_text().split()
        if done.code != 0 or not listed:
            ledger.op(error=f"repro list exited {done.code}")
            continue
        ledger.op([] if not ids or listed == ids else ["repro list changed between runs"])
        ids = ids or listed
        walls.append(done.wall_s)
    return ids, walls


def _cold_round(ctx: Context, ledger: Ledger, ids: list[str], name: str,
                traced: bool = False):
    """One cold run and its checks; returns ``(Finished, round dir)``."""
    where = ctx.work / name
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    cache = str(where / "cache")
    cmd = ctx.repro("all", *SCALE, "--workers", "1", "--cache-dir", cache,
                    "--run-dir", str(where / "run"))
    if traced:
        cmd += ["--trace", str(where / "trace.jsonl")]
    done = run_measured(cmd, ctx, where / "all.out", where / "all.err")
    if done.code != 0:
        ledger.op(error=f"repro all exited {done.code}")
    else:
        printed = {line[3:].split(":")[0]
                   for line in (where / "all.out").read_text().splitlines()
                   if line.startswith("== ")}
        ledger.op([] if printed == set(ids) else [f"printed results for {sorted(printed)}"])
    journal = where / "run" / "journal.jsonl"
    status, complete = journal_status(journal.read_text()) if journal.exists() else ({}, False)
    for eid in ids:
        ledger.op([] if status.get(eid) == "ok" else [f"{eid} ended {status.get(eid)!r}"])
    ledger.op([] if complete else ["run not journaled complete"])
    _validate(ctx, ledger, cache, where)
    return done, where


def _validate(ctx: Context, ledger: Ledger, cache: str, where) -> None:
    """Untimed ``repro validate`` on the run's own cache: every claim holds."""
    done = run_measured(ctx.repro("validate", *SCALE, "--cache-dir", cache), ctx,
                        where / "validate.out", where / "validate.err")
    passed, failed = validate_claims((where / "validate.out").read_text())
    if not passed and not failed:
        ledger.op(error=f"repro validate exited {done.code} without claims")
    for _ in passed:
        ledger.op()
    for name in failed:
        ledger.op([f"claim {name} does not hold"])


def run(ctx: Context, ledger: Ledger) -> dict[str, float]:
    ids, setup_walls = _list_experiments(ctx, ledger)
    if not ids:
        raise RuntimeError("repro list gave no experiments")
    if ctx.trace:
        return _traced(ctx, ledger, ids, setup_walls)
    rounds = []
    # Whole rounds only: start another cold run while it fits the budget.
    while not rounds or sum(r.wall_s for r in rounds) + rounds[-1].wall_s <= ctx.seconds:
        done, where = _cold_round(ctx, ledger, ids, f"round{len(rounds)}")
        shutil.rmtree(where, ignore_errors=True)
        rounds.append(done)
    wall = statistics.median(r.wall_s for r in rounds)
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": max(r.maxrss_mb for r in rounds),
        "goodput_rps": len(ids) / wall,
        "p50_ms": 1000.0 * wall,
        "heavy_p50_ms": 1000.0 * wall,
    }


def _traced(ctx: Context, ledger: Ledger, ids: list[str], setup_walls) -> dict[str, float]:
    """Per-layer exclusive time from a traced cold run, beside an untraced one."""
    plain, where = _cold_round(ctx, ledger, ids, "plain")
    shutil.rmtree(where, ignore_errors=True)
    traced, where = _cold_round(ctx, ledger, ids, "traced", traced=True)
    with open(where / "trace.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    out = layer_metrics(records, set(ids))
    # ISI self time per simulated client query; the count is fig12's
    # own output, read back from the run's cache.
    fig12 = run_measured(ctx.repro("run", "fig12", "--json", *SCALE, "--cache-dir",
                                   str(where / "cache")),
                         ctx, where / "fig12.json", where / "fig12.err")
    if fig12.code != 0:
        ledger.op(error=f"repro run fig12 exited {fig12.code}")
    else:
        data = json.loads((where / "fig12.json").read_text())["payload"]["data"]
        ledger.op([] if data["n_queries"] > 0 else ["fig12 reports no client queries"])
        out["dns.us_per_query"] = 1e6 * out.get("dns.isi_s", 0.0) / max(1, data["n_queries"])
    # The spans start once the CLI runs, so the interpreter start and
    # imports before them are timed apart, as the median ``repro list``.
    cli_start = statistics.median(setup_walls)
    out["engine.cli_start_s"] = cli_start
    out["trace.wall_s"] = traced.wall_s
    out["trace.overhead_s"] = traced.wall_s - plain.wall_s
    out["trace.unattributed_pct"] = (
        100.0 * (traced.wall_s - out["trace.layers_sum_s"] - cli_start) / traced.wall_s)
    shutil.rmtree(where, ignore_errors=True)
    return out
