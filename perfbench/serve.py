"""serve-read and serve-what-if: ``repro serve --scale medium`` under a closed loop.

A planner waits for each answer before asking the next question, so the
load is a closed loop: keep-alive connections from this one process,
each sending its next request only once the previous one is answered.
Requests come in rounds of a fixed make-up (``MIXES``) drawn from the
seed; every run replays whole rounds.  The warm-up rounds go over
``WARMUP_CONNECTIONS`` connections, the measured ones over
``CONNECTIONS``.

The load generator, the daemon and its workers share one CPU.  With one
request in flight only one of them runs at a time, so they lose no
parallelism; they do stop paying for a wake-up on the other CPU at
every hop of every request.  On a small virtual machine that also keeps
the other CPU idle, and the hypervisor steals far less from a guest
that keeps one CPU busy than from one that keeps two busy: the
benchmark's figures then move with the code rather than with the
host's load.

The printed time metrics leave out the time the hypervisor stole from
that CPU and are scaled to a nominal speed of it, taken from the CPU
time the client threads spend sending requests (``_latency_metrics``).
The noise record keeps them as measured.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

import procstat
from checks import (Geography, catchment_problems, inflation_problems,
                    resolve_matches, resolve_problems, whatif_matches,
                    whatif_problems)
from common import Context, Ledger
from layers import layer_metrics, prometheus_counter, request_metrics

SCALE = ("--scale", "medium", "--seed", "0")
#: Measured connections: one planner, one request in flight.
CONNECTIONS = 1
#: Warm-up connections: two requests at once make the pool use both of
#: its workers, so both have touched their tables before measuring.
WARMUP_CONNECTIONS = 2
#: Daemon spawns per run; set-up is the median spawn-to-healthy time.
SETUP_SPAWNS = 5
#: Pairs per batched resolve.
BATCH = 64
#: Requests of each kind in one round.  serve-read is mostly 64-pair
#: resolves, with 1-pair resolves and the two aggregate GETs where the
#: fixed cost per request dominates; serve-what-if makes one request in
#: four a one-site withdrawal.
MIXES = {
    "serve-read": {"resolve64": 160, "resolve1": 20, "inflation": 10, "catchment": 10},
    "serve-what-if": {"whatif": 16, "resolve64": 40, "resolve1": 8},
}
#: The client threads' CPU time to send one request, in microseconds, on
#: this machine at a quiet moment: the speed the serve workloads' time
#: metrics are scaled to.
NOMINAL_SEND_US = {"serve-read": 100.0, "serve-what-if": 110.0}
#: The request kind whose median is ``heavy_p50_ms``.
HEAVY = {"serve-read": "resolve64", "serve-what-if": "whatif"}
#: Rounds sent before measuring, so that lazily built tables, memoised
#: aggregates and first-touch page faults in the workers are paid first.
WARMUP_S = 2.0
#: Distinct rounds drawn from the seed; a run cycles through them.
PLAN_ROUNDS = 32
#: Answers per run compared field for field with an in-process oracle.
ORACLE_RESOLVES = 48
ORACLE_WHATIFS = 3
_JSON = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    path: str
    body: bytes | None
    deployment: str
    pairs: tuple = ()
    site: int = -1


class Model:
    """The reference medium scenario, loaded in-process through ``repro.api``.

    It supplies the user base the plans are drawn from, the geography
    the checks recompute, and the oracles: ``resolve_many`` for
    resolves, the rebuild path plus ``failure_impact`` for what-ifs.
    """

    def __init__(self):
        from repro.api import Scenario

        scenario = Scenario(scale="medium", seed=0)
        self.deployments = {}
        for year, letters in (("2018", scenario.letters_2018), ("2020", scenario.letters_2020)):
            for letter, deployment in letters.items():
                self.deployments[f"{year}-{letter}"] = deployment
        self.deployments.update(scenario.cdn.rings)
        self.user_base = scenario.user_base
        locations = list(self.user_base)
        self.locations = [(loc.asn, loc.region_id) for loc in locations]
        self.cum_users = []
        total = 0
        for loc in locations:
            total += loc.users
            self.cum_users.append(total)
        regions = scenario.internet.world.regions
        self.geo = Geography(
            [r.location.lat for r in regions], [r.location.lon for r in regions],
            {name: {s.site_id: (s.region_id, s.is_global) for s in d.sites}
             for name, d in self.deployments.items()},
        )
        # Withdrawing the only global site of a letter is a correct 400,
        # so only letters with two or more global sites are asked.
        self.whatif_letters = sorted(
            name for name, d in self.deployments.items()
            if name[:4].isdigit() and d.n_global_sites >= 2)

    def pairs(self, rng: random.Random, n: int) -> tuple:
        picks = rng.choices(range(len(self.locations)), cum_weights=self.cum_users, k=n)
        return tuple(self.locations[i] for i in picks)


def make_plan(model: Model, workload: str, seed: int) -> list[list[Request]]:
    """``PLAN_ROUNDS`` rounds of the workload's mix, drawn from ``seed``."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    names = sorted(model.deployments)
    plan = []
    for _ in range(PLAN_ROUNDS):
        kinds = [kind for kind, count in MIXES[workload].items() for _ in range(count)]
        rng.shuffle(kinds)
        plan.append([_request(model, rng, kind, names) for kind in kinds])
    return plan


def _request(model: Model, rng: random.Random, kind: str, names: list[str]) -> Request:
    if kind == "whatif":
        name = rng.choice(model.whatif_letters)
        site = rng.choice(sorted(model.geo.sites[name]))
        body = json.dumps({"deployment": name, "remove_sites": [site]}).encode()
        return Request(kind, "POST", "/v1/whatif", body, name, site=site)
    name = rng.choice(names)
    if kind in ("inflation", "catchment"):
        return Request(kind, "GET", f"/v1/{kind}/{name}", None, name)
    pairs = model.pairs(rng, BATCH if kind == "resolve64" else 1)
    body = json.dumps({"deployment": name, "pairs": [list(p) for p in pairs]}).encode()
    return Request(kind, "POST", "/v1/resolve", body, name, pairs=pairs)


class Daemon:
    """One ``repro serve`` process: spawned, timed to healthy, drained."""

    def __init__(self, ctx: Context, name: str, extra: tuple = ()):
        self.log = ctx.work / f"{name}.out"
        self.err = open(ctx.work / f"{name}.err", "wb")
        start = time.perf_counter()
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                ctx.repro("serve", *SCALE, "--port", "0", *extra),
                cwd=ctx.root, env=ctx.env, stdout=out, stderr=self.err)
        ctx.children.append(self.proc)
        self.port = self._wait_port()
        self.healthy = self.port is not None and self._wait_healthy()
        self.setup_s = time.perf_counter() - start

    def _wait_port(self) -> int | None:
        deadline = time.perf_counter() + 120
        while time.perf_counter() < deadline and self.proc.poll() is None:
            text = self.log.read_text()
            if "serving on http://" in text:
                return int(text.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.002)
        return None

    def _wait_healthy(self) -> bool:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/v1/healthz")
            except OSError:
                status = 0
            if status == 200:
                return True
            time.sleep(0.002)
        return False

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.err.close()
        return code


@dataclass
class Round:
    """One pass over a round of the plan, and what it cost."""

    answers: list  #: (Request, status, body, seconds)
    wall_s: float
    cpu_s: float  #: the daemon and its workers
    loadgen_cpu_s: float
    stolen_s: float = 0.0  #: taken by the hypervisor from the pinned CPU
    send_cpu_s: float = 0.0  #: the client threads' CPU in sending requests


@dataclass
class Phase:
    """The measured rounds of one phase, after the warm-up ones."""

    warmup: list[Round]
    rounds: list[Round]
    peak_pss_mb: float

    @property
    def answers(self) -> list:
        return [a for r in self.warmup + self.rounds for a in r.answers]


def drive(daemon: Daemon, plan: list[list[Request]], seconds: float, cpu: int) -> Phase:
    """Closed loop over whole rounds: ``WARMUP_S`` unmeasured, then ``seconds``.

    ``cpu`` is the CPU the workload is pinned to; the time stolen from
    it during each measured round is counted.
    """
    conns = [http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
             for _ in range(WARMUP_CONNECTIONS)]
    phase = Phase([], [], 0.0)
    try:
        for rounds, budget, width in ((phase.warmup, WARMUP_S, WARMUP_CONNECTIONS),
                                      (phase.rounds, seconds, CONNECTIONS)):
            while not rounds or sum(r.wall_s for r in rounds) < budget:
                before = procstat.stolen_s(cpu)
                sent = len(phase.warmup) + len(phase.rounds)
                rounds.append(_round(daemon, conns[:width], plan[sent % len(plan)]))
                rounds[-1].stolen_s = procstat.stolen_s(cpu) - before
                phase.peak_pss_mb = max(phase.peak_pss_mb, procstat.pss_mb(
                    procstat.process_tree(daemon.proc.pid)))
    finally:
        for conn in conns:
            conn.close()
    return phase


def _round(daemon: Daemon, conns, requests: list[Request]) -> Round:
    pids = procstat.process_tree(daemon.proc.pid)
    answers, sends = [], []
    pending = iter(requests)
    lock = threading.Lock()
    threads = [threading.Thread(target=_client, args=(conn, pending, lock, answers, sends))
               for conn in conns]
    cpu = procstat.cpu_s(pids)
    own = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    own_after = resource.getrusage(resource.RUSAGE_SELF)
    return Round(
        answers=answers,
        wall_s=wall,
        cpu_s=procstat.cpu_s(pids) - cpu,
        loadgen_cpu_s=(own_after.ru_utime + own_after.ru_stime) - (own.ru_utime + own.ru_stime),
        send_cpu_s=sum(sends) / 1e9,
    )


def _client(conn, pending, lock, answers, sends) -> None:
    while True:
        with lock:
            request = next(pending, None)
        if request is None:
            return
        start = time.perf_counter()
        try:
            sending = time.thread_time_ns()
            conn.request(request.method, request.path, body=request.body, headers=_JSON)
            sends.append(time.thread_time_ns() - sending)
            response = conn.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            conn.close()  # the next request reconnects
            status, body = 0, str(error).encode()
        answers.append((request, status, body, time.perf_counter() - start))


def check(model: Model, phase: Phase, ledger: Ledger, seed: int) -> None:
    """Every answer against its properties; a seeded sample against the oracles."""
    from repro.anycast import failure_impact, plan_withdraw, rebuild
    from repro.api import resolve_many

    rng = random.Random(f"perfbench:oracle:{seed}")
    answered = [(i, a) for i, a in enumerate(phase.answers) if a[1] == 200]
    resolves = [i for i, (req, *_rest) in answered if req.kind.startswith("resolve")]
    whatifs = [i for i, (req, *_rest) in answered if req.kind == "whatif"]
    sample = set(rng.sample(resolves, min(ORACLE_RESOLVES, len(resolves))))
    sample |= set(rng.sample(whatifs, min(ORACLE_WHATIFS, len(whatifs))))
    for index, (request, status, body, _) in enumerate(phase.answers):
        if status != 200:
            ledger.op(error=f"{request.path} answered {status}: {body[:120]!r}")
            continue
        payload = json.loads(body)["payload"]
        deployment = model.deployments[request.deployment]
        if request.kind == "whatif":
            problems = whatif_problems(payload, request.deployment, len(deployment.sites))
            if index in sample and not problems:
                rebuilt = rebuild(deployment, plan_withdraw(deployment, [request.site]))
                problems = whatif_matches(
                    payload, failure_impact(deployment, rebuilt, model.user_base),
                    len(rebuilt.sites))
        elif request.kind == "catchment":
            problems = catchment_problems(payload, request.deployment, model.geo)
        elif request.kind == "inflation":
            problems = inflation_problems(payload, request.deployment, model.geo)
        else:
            problems = resolve_problems(payload, request.deployment, request.pairs, model.geo)
            if index in sample and not problems:
                asns, regions = zip(*request.pairs)
                problems = resolve_matches(payload, resolve_many(deployment, asns, regions))
        ledger.op(problems)


def send_us(phase: Phase) -> float:
    """The client threads' CPU time per request sent, in microseconds."""
    rounds = phase.rounds
    return 1e6 * sum(r.send_cpu_s for r in rounds) / sum(len(r.answers) for r in rounds)


def _latency_metrics(phase: Phase, workload: str, *, own: bool = False) -> dict[str, float]:
    """The end-to-end figures of the measured rounds.

    With ``own`` they read as if the workload had a CPU of its own, of
    the nominal speed (README.md, "Wall time, CPU time and steal"):

    - The time the hypervisor stole from the pinned CPU is left out of
      each round's wall time, and the run's share of it out of each
      latency.  Everything of the workload runs on that CPU, so stolen
      time is time the program did not get.  CPU time never counts it.
    - Every time is scaled by ``NOMINAL_SEND_US`` over the CPU time the
      client threads took to send a request: fixed work of the
      benchmark's own, done between the program's work all through the
      run, so that it runs slower exactly when the host makes the CPU
      slower.
    """
    rounds = phase.rounds
    stolen = [r.stolen_s if own else 0.0 for r in rounds]
    wall = sum(r.wall_s for r in rounds) - sum(stolen)
    kept = wall / sum(r.wall_s for r in rounds)
    scale = NOMINAL_SEND_US[workload] / send_us(phase) if own else 1.0
    ok = [(req, dur) for r in rounds for req, status, _, dur in r.answers if status == 200]
    return {
        "wall_s": scale * statistics.median(r.wall_s - s for r, s in zip(rounds, stolen)),
        "cpu_s": scale * sum(r.cpu_s for r in rounds) / len(rounds),
        "peak_rss_mb": phase.peak_pss_mb,
        "goodput_rps": len(ok) / wall / scale,
        "p50_ms": 1000.0 * scale * kept * statistics.median(dur for _, dur in ok),
        "heavy_p50_ms": 1000.0 * scale * kept * statistics.median(
            dur for req, dur in ok if req.kind == HEAVY[workload]),
    }


def _stopped(daemon: Daemon, ledger: Ledger) -> None:
    code = daemon.stop()
    ledger.op(error=None if code == 0 else f"daemon exited {code} on SIGTERM")


def pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU; returns it.

    Only the calling thread is pinned, and whatever it starts later
    inherits the mask: the client threads, the daemon, its workers.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(ctx: Context, ledger: Ledger, workload: str) -> tuple[dict, dict]:
    """One run of a serve workload; returns ``(metrics, info)``."""
    cpu = pin_to_one_cpu()
    model = Model()
    plan = make_plan(model, workload, ctx.seed)
    if ctx.trace:
        metrics, info = _traced(ctx, ledger, workload, model, plan, cpu)
        return metrics, {**info, "cpu": cpu}
    spawns, spawns_stolen = [], []
    for i in range(SETUP_SPAWNS):
        before = procstat.stolen_s(cpu)
        daemon = Daemon(ctx, f"daemon{i}")
        spawns_stolen.append(procstat.stolen_s(cpu) - before)
        ledger.op(error=None if daemon.healthy else "daemon never answered /v1/healthz")
        spawns.append(daemon.setup_s)
        if i < SETUP_SPAWNS - 1 or not daemon.healthy:
            _stopped(daemon, ledger)
    if not daemon.healthy:
        raise RuntimeError("the serve daemon did not start")
    phase = drive(daemon, plan, ctx.seconds, cpu)
    _stopped(daemon, ledger)
    check(model, phase, ledger, ctx.seed)
    metrics = _latency_metrics(phase, workload, own=True)
    # Set-up on a CPU of its own at the nominal speed, as the rounds.
    metrics["setup_s"] = NOMINAL_SEND_US[workload] / send_us(phase) * statistics.median(
        spawn - stolen for spawn, stolen in zip(spawns, spawns_stolen))
    stolen = sum(r.stolen_s for r in phase.rounds)
    return metrics, {**_info(phase), "cpu": cpu, "setup_samples_s": spawns,
                     "setup_stolen_s": spawns_stolen,
                     "stolen_pct": 100.0 * stolen / sum(r.wall_s for r in phase.rounds),
                     "measured": _latency_metrics(phase, workload)}


def _info(phase: Phase) -> dict:
    rounds = phase.rounds
    durations = sorted(dur for r in rounds for _, status, _, dur in r.answers if status == 200)
    requests = sum(len(r.answers) for r in rounds)
    return {
        "requests": requests,
        "rounds": len(rounds),
        "p99_ms": 1000.0 * statistics.quantiles(durations, n=100)[98],
        "loadgen_cpu_ms_per_req": 1000.0 * sum(r.loadgen_cpu_s for r in rounds) / requests,
        "send_us": send_us(phase),
    }


def _traced(ctx, ledger, workload, model, plan, cpu) -> tuple[dict, dict]:
    """Per-layer figures: an untraced phase, a traced one, in-process timings."""
    plain = Daemon(ctx, "plain")
    ledger.op(error=None if plain.healthy else "daemon never answered /v1/healthz")
    plain_phase = drive(plain, plan, ctx.seconds, cpu)
    _stopped(plain, ledger)
    trace_file, access_file = ctx.work / "trace.jsonl", ctx.work / "access.jsonl"
    daemon = Daemon(ctx, "traced", ("--trace", str(trace_file), "--access-log", str(access_file)))
    ledger.op(error=None if daemon.healthy else "daemon never answered /v1/healthz")
    phase = drive(daemon, plan, ctx.seconds, cpu)
    status, text = daemon.get("/v1/metrics")
    ledger.op(error=None if status == 200 else f"/v1/metrics answered {status}")
    _stopped(daemon, ledger)
    check(model, plain_phase, ledger, ctx.seed)
    check(model, phase, ledger, ctx.seed)
    records = [json.loads(line) for line in trace_file.read_text().splitlines()]
    access = [json.loads(line) for line in access_file.read_text().splitlines()]
    out = layer_metrics(records, set())
    out.update(request_metrics(records, access))
    counters = text.decode()
    out["anycast.delta_applies"] = prometheus_counter(counters, "kernel.delta.applies.total")
    out["anycast.delta_fallbacks"] = prometheus_counter(counters, "kernel.delta.fallbacks.total")
    out["trace.wall_s"] = statistics.median(r.wall_s for r in phase.rounds)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        r.wall_s for r in plain_phase.rounds)
    out.update(_in_process(model, plan))
    info = _info(phase)
    out["loadgen.cpu_ms_per_req"] = info["loadgen_cpu_ms_per_req"]
    return out, info


def _in_process(model: Model, plan: list[list[Request]]) -> dict[str, float]:
    """The kernel calls behind the requests, timed through public functions."""
    from repro.anycast import apply_mutation, failure_impact, plan_withdraw
    from repro.api import resolve_many

    first = plan[0] + plan[1]
    batches = [(model.deployments[r.deployment], *zip(*r.pairs))
               for r in first if r.kind == "resolve64"]
    resolve_us = []
    for _ in range(3):
        for deployment, asns, regions in batches:
            start = time.perf_counter()
            resolve_many(deployment, asns, regions)
            resolve_us.append(1e6 * (time.perf_counter() - start))
    delta_ms, impact_ms = [], []
    for request in (r for r in first if r.kind == "whatif"):
        deployment = model.deployments[request.deployment]
        start = time.perf_counter()
        after = apply_mutation(deployment, plan_withdraw(deployment, [request.site]))
        middle = time.perf_counter()
        failure_impact(deployment, after, model.user_base)
        delta_ms.append(1000.0 * (middle - start))
        impact_ms.append(1000.0 * (time.perf_counter() - middle))
    return {
        "anycast.resolve_many_us": statistics.median(resolve_us),
        "anycast.delta_ms": statistics.median(delta_ms) if delta_ms else 0.0,
        "anycast.impact_ms": statistics.median(impact_ms) if impact_ms else 0.0,
    }

