"""Self-tests of the benchmark: every check rejects a tampered answer.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import layers
import run
import serve
from common import Ledger

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _km(a, b):
    """Spherical law of cosines, a formula apart from the checks' haversine."""
    (lat1, lon1), (lat2, lon2) = (map(math.radians, a)), (map(math.radians, b))
    cos = (math.sin(lat1) * math.sin(lat2)
           + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1))
    return 6371.0 * math.acos(max(-1.0, min(1.0, cos)))


# Regions 0..3; deployment "X" has global sites in regions 1 and 2 and a
# local site in region 3.
REGIONS = [(0.0, 0.0), (10.0, 20.0), (-30.0, -60.0), (40.0, 5.0)]
GEO = checks.Geography([r[0] for r in REGIONS], [r[1] for r in REGIONS],
                       {"X": {0: (1, True), 1: (2, True), 2: (3, False)}})
PAIRS = ((64500, 0), (64501, 3), (64502, 2))


def _answer():
    """A correct resolve answer for PAIRS, computed by hand."""
    min_km = [min(_km(REGIONS[r], REGIONS[1]), _km(REGIONS[r], REGIONS[2])) for _, r in PAIRS]
    site_km = [_km(REGIONS[0], REGIONS[1]), 0.0, 0.0]
    return {
        "deployment": "X", "rows": 3, "served": 3, "ok": [True, True, True],
        "site_ids": [0, 2, 1], "site_region_ids": [1, 3, 2], "as_hops": [2, 1, 1],
        "base_rtt_ms": [2 * km / 200.0 + 3.0 for km in site_km],
        "site_km": site_km, "min_km": min_km,
    }


def test_correct_resolve_answer_passes():
    assert checks.resolve_problems(_answer(), "X", PAIRS, GEO) == []


@pytest.mark.parametrize("tamper", [
    lambda a: a["site_ids"].__setitem__(0, 7),  # a foreign site id
    lambda a: a["min_km"].__setitem__(0, a["min_km"][0] + 1.0),  # min_km off by 1 km
    lambda a: a["site_km"].__setitem__(0, a["site_km"][0] + 1.0),
    lambda a: a["site_region_ids"].__setitem__(1, 2),
    lambda a: a["base_rtt_ms"].__setitem__(0, 1.0),  # faster than light in fibre
    lambda a: a.__setitem__("served", 2),
    lambda a: a["ok"].pop(),
])
def test_tampered_resolve_answer_is_rejected(tamper):
    answer = _answer()
    tamper(answer)
    assert checks.resolve_problems(answer, "X", PAIRS, GEO)


def test_global_site_nearer_than_min_km_is_rejected():
    geo = checks.Geography(GEO.lat, GEO.lon, {"X": {0: (1, True), 1: (2, True), 2: (0, True)}})
    answer = _answer()
    answer["site_ids"][0], answer["site_region_ids"][0] = 2, 0
    answer["site_km"][0] = 0.0  # the true distance; min_km misses site 2
    assert "a global site answered nearer than min_km" in checks.resolve_problems(
        answer, "X", PAIRS, geo)


def _batch(answer):
    return SimpleNamespace(**{f: np.array(answer[f]) for f in checks._RESOLVE_FIELDS})


def test_resolve_oracle_comparison():
    answer = _answer()
    assert checks.resolve_matches(answer, _batch(answer)) == []
    oracle = _batch(answer)
    oracle.as_hops[1] = 4
    assert checks.resolve_matches(answer, oracle) == ["as_hops differs from resolve_many"]
    oracle = _batch(answer)
    oracle.base_rtt_ms[2] = np.nan  # an unserved row answers null
    assert checks.resolve_matches(answer, oracle)


IMPACT = SimpleNamespace(users_measured=1000, users_rerouted=120, rerouted_fraction=0.12,
                         median_rtt_before_ms=20.0, median_rtt_after_ms=22.5,
                         p95_rtt_before_ms=80.0, p95_rtt_after_ms=95.0,
                         max_site_share_before=0.3, max_site_share_after=0.35)


def _whatif():
    return {"deployment": "2018-K", "removed_sites": [3], "added_regions": [],
            "sites_before": 53, "sites_after": 52, **vars(IMPACT)}


def test_correct_whatif_answer_passes():
    assert checks.whatif_problems(_whatif(), "2018-K", 53) == []
    assert checks.whatif_matches(_whatif(), IMPACT, 52) == []


@pytest.mark.parametrize("field,value", [
    ("users_rerouted", 1001), ("users_rerouted", -1), ("sites_after", 53),
    ("sites_before", 52), ("deployment", "2018-L"),
])
def test_tampered_whatif_answer_is_rejected(field, value):
    answer = _whatif()
    answer[field] = value
    assert checks.whatif_problems(answer, "2018-K", 53)


def test_wrong_users_rerouted_fails_the_rebuild_oracle():
    answer = _whatif()
    answer["users_rerouted"] = 121  # plausible, but not what the rebuild gives
    assert checks.whatif_problems(answer, "2018-K", 53) == []
    assert checks.whatif_matches(answer, IMPACT, 52) == [
        "users_rerouted differs from the rebuild oracle"]


def test_catchment_and_inflation_checks():
    good = {"deployment": "X", "total_users": 100, "served_users": 90, "max_site_share": 0.5,
            "sites": [{"site_id": i, "users": u, "share": u / 90} for i, u in
                      enumerate((45, 30, 15))]}
    assert checks.catchment_problems(good, "X", GEO) == []
    bad = json.loads(json.dumps(good))
    bad["sites"][0]["share"] = 0.6
    assert checks.catchment_problems(bad, "X", GEO)
    bad = json.loads(json.dumps(good))
    bad["sites"].pop()
    assert checks.catchment_problems(bad, "X", GEO)
    summary = {"zero_fraction": 0.1, "median": 5.0, "p90": 20.0, "p99": 50.0,
               "over_100ms_fraction": 0.0}
    good = {"n_global_sites": 2, "geographic_inflation_ms": summary,
            "latency_inflation_ms": summary}
    assert checks.inflation_problems(good, "X", GEO) == []
    assert checks.inflation_problems(dict(good, n_global_sites=3), "X", GEO)
    assert checks.inflation_problems(
        dict(good, latency_inflation_ms=dict(summary, p90=60.0)), "X", GEO)


VALIDATE = "\n".join(
    [f"[PASS] claim-{i}: holds (§{i})" for i in range(19)]
    + ["[FAIL] ring-growth-hurts-almost-nobody: growing a ring regresses <1% (§5.2)",
       "", "19/20 shape targets hold"])


def test_failed_validate_claim_is_rejected():
    passed, failed = checks.validate_claims(VALIDATE)
    assert len(passed) == 19 and failed == ["ring-growth-hurts-almost-nobody"]
    passed, failed = checks.validate_claims(VALIDATE.replace("[FAIL]", "[PASS]"))
    assert len(passed) == 20 and failed == []


def test_journal_status():
    text = "\n".join(json.dumps(r) for r in [
        {"type": "header"},
        {"type": "experiment", "id": "fig01", "status": "ok"},
        {"type": "experiment", "id": "fig02a", "status": "quarantined"},
        {"type": "complete", "ok": False},
    ])
    assert checks.journal_status(text) == ({"fig01": "ok", "fig02a": "quarantined"}, False)


def test_ledger_separates_errors_from_wrong_answers():
    ledger = Ledger()
    ledger.op()
    ledger.op(error="answered 503")
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, True)
    ledger.op(["min_km off"])
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 2, False)


def _span(name, sid, parent, dur, self_s, **attrs):
    return {"name": name, "id": sid, "parent": parent, "dur_s": dur, "self_s": self_s,
            "attrs": attrs}


def test_layer_times_add_up_to_the_root_span():
    records = [
        _span("cli.all", "1", None, 10.0, 0.5),
        _span("experiment.fig12", "2", "1", 9.5, 1.0, kind="experiment", size_bytes=2**20),
        _span("stage.isi_result", "3", "2", 6.0, 6.0, kind="stage", size_bytes=2**20),
        _span("kernel.resolve", "4", "2", 1.0, 1.0, rows=1),
        _span("stage.brand_new", "5", "2", 1.5, 1.5, kind="stage", cache_hit=True),
        _span("serve.daemon", "6", None, 3.0, -2.0),
    ]
    out = layers.layer_metrics(records, {"fig12"})
    assert out["trace.layers_sum_s"] == pytest.approx(10.0)
    assert out["dns.isi_s"] == 6.0 and out["experiments.fig12_s"] == 1.0
    assert out["trace.unmapped_s"] == 1.5  # a new stage shows instead of vanishing
    assert out["anycast.kernel_single_row_calls"] == 1
    assert out["engine.artifact_mb"] == 2.0


def test_request_metrics_from_access_records_and_spans():
    access = [
        {"status": 200, "endpoint": "whatif", "dur_ms": 40.0, "bytes_out": 900,
         "phases": {"parse": 0.1, "queue": 0.1, "compute": 30.0, "serialize": 0.3}},
        {"status": 200, "endpoint": "resolve", "dur_ms": 3.0, "bytes_out": 4000,
         "phases": {"parse": 0.1, "queue": 0.0, "compute": 2.5, "serialize": 0.2}},
    ]
    records = [_span("serve.compute", "a", None, 0.003, 0.001),
               _span("serve.task", "b", "a", 0.002, 0.001)]
    out = layers.request_metrics(records, access)
    assert out["serve.whatif_queue_ms"] == pytest.approx(9.5)
    assert out["serve.pool_hop_ms"] == pytest.approx(1.0)
    assert out["serve.bytes_out"] == 2450


def test_prometheus_counter():
    text = "# TYPE repro_kernel_delta_applies_total counter\nrepro_kernel_delta_applies_total 12\n"
    assert layers.prometheus_counter(text, "kernel.delta.applies.total") == 12
    assert layers.prometheus_counter(text, "kernel.delta.fallbacks.total") == 0


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_names_units_and_directions():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_the_trace_can_yield_is_a_listed_metric():
    listed = {m["name"] for m in SPEC["per_layer"]}
    produced = set(layers.STAGE_LAYER.values()) | {layer for _, layer in layers.PREFIX_LAYER}
    produced |= {layers.UNMAPPED, "experiments.other_s"}
    assert produced <= listed


def test_own_cpu_figures_leave_out_steal_and_scale_to_the_nominal_speed():
    request = serve.Request("resolve64", "POST", "/v1/resolve", b"{}", "X")
    # A host at half the nominal speed: sending a request took twice the CPU.
    send_s = 2 * serve.NOMINAL_SEND_US["serve-read"] / 1e6
    rounds = [serve.Round([(request, 200, b"", 0.004)] * 100, wall_s=0.5, cpu_s=0.4,
                          loadgen_cpu_s=0.05, stolen_s=0.1, send_cpu_s=100 * send_s)
              for _ in range(3)]
    phase = serve.Phase([], rounds, 150.0)
    measured = serve._latency_metrics(phase, "serve-read")
    own = serve._latency_metrics(phase, "serve-read", own=True)
    assert measured["wall_s"] == pytest.approx(0.5)
    assert measured["p50_ms"] == pytest.approx(4.0)
    assert measured["goodput_rps"] == pytest.approx(300 / 1.5)
    assert own["wall_s"] == pytest.approx(0.4 * 0.5)
    assert own["cpu_s"] == pytest.approx(0.4 * 0.5)
    assert own["heavy_p50_ms"] == pytest.approx(4.0 * 0.8 * 0.5)
    assert own["goodput_rps"] == pytest.approx(300 / 1.2 / 0.5)
    assert own["peak_rss_mb"] == measured["peak_rss_mb"] == 150.0
