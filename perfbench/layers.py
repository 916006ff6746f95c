"""Per-layer metrics from the spans and access records the program writes.

The program already records a span per stage, experiment, kernel call,
BGP propagation and serve phase (``--trace``), and one access record per
request (``--access-log``).  This module only reads those files: it sums
exclusive time by layer, counts calls, and takes per-request medians.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Stage name -> the layer metric its exclusive time counts toward.
#: ``mapper`` (IP-to-ASN over the topology's address plan) is counted
#: with the topology; ``geolocator`` lives in ``repro.measurement``.
STAGE_LAYER = {
    "internet": "topology.build_s",
    "mapper": "topology.build_s",
    "user_base": "users.build_s",
    "recursives": "users.build_s",
    "cdn_counts": "users.build_s",
    "apnic_counts": "users.build_s",
    "zone": "dns.zone_s",
    "universe": "dns.zone_s",
    "root_latency_model": "dns.zone_s",
    "isi_result": "dns.isi_s",
    "author_result": "dns.author_s",
    "letters_2018": "anycast.deploy_s",
    "letters_2020": "anycast.deploy_s",
    "cdn": "anycast.deploy_s",
    "capture_2018": "ditl.capture_s",
    "capture_2020": "ditl.capture_s",
    "filtered_2018": "ditl.preprocess_s",
    "filtered_2020": "ditl.preprocess_s",
    "_join_2018": "ditl.join_s",
    "_join_2018_ip": "ditl.join_s",
    "_join_2020": "ditl.join_s",
    "_volumes_2018": "ditl.join_s",
    "atlas": "measurement.build_s",
    "server_logs": "measurement.build_s",
    "client_measurements": "measurement.build_s",
    "geolocator": "measurement.build_s",
}

#: Span-name prefix -> layer metric, for spans that are not stages.
PREFIX_LAYER = (
    ("bgp.", "bgp.propagate_s"),
    ("kernel.", "anycast.kernel_s"),
    ("deployment.", "anycast.kernel_s"),
    ("cdn.", "anycast.kernel_s"),
    ("cli.", "engine.overhead_s"),
    ("engine.", "engine.overhead_s"),
    ("serve.", "serve.self_s"),
)

#: Where a span no rule above names is counted, so that a new stage or
#: span family shows up instead of vanishing from the sum.
UNMAPPED = "trace.unmapped_s"


def layer_of(name: str, experiment_ids: set[str]) -> str:
    kind, _, rest = name.partition(".")
    if kind == "stage":
        return STAGE_LAYER.get(rest, UNMAPPED)
    if kind == "experiment":
        return f"experiments.{rest}_s" if rest in experiment_ids else "experiments.other_s"
    for prefix, layer in PREFIX_LAYER:
        if name.startswith(prefix):
            return layer
    return UNMAPPED


#: The daemon's root span covers its whole life while requests run two
#: at a time beneath it, so its exclusive time is idle time minus
#: overlap, not work of any layer.
SKIP = {"serve.daemon"}


def layer_metrics(records: list[dict], experiment_ids: set[str]) -> dict[str, float]:
    """Exclusive seconds by layer, call counts, and artifact volume."""
    out: dict[str, float] = defaultdict(float)
    for record in records:
        name = record["name"]
        if name in SKIP:
            continue
        out[layer_of(name, experiment_ids)] += record["self_s"]
        if name == "bgp.propagate":
            out["bgp.propagate_calls"] += 1
        elif name == "kernel.resolve":
            out["anycast.kernel_calls"] += 1
            if record["attrs"].get("rows") == 1:
                out["anycast.kernel_single_row_calls"] += 1
        attrs = record["attrs"]
        if attrs.get("kind") in ("stage", "experiment") and not attrs.get("cache_hit"):
            out["engine.artifact_mb"] += (attrs.get("size_bytes") or 0) / 2**20
    out["trace.layers_sum_s"] = sum(
        value for key, value in out.items()
        if key.endswith("_s") and key != "trace.layers_sum_s"
    )
    return dict(out)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def request_metrics(records: list[dict], access: list[dict]) -> dict[str, float]:
    """Per-request medians of the serve phases, from access records and spans."""
    answered = [a for a in access if a["status"] == 200]
    out = {
        f"serve.{phase}_ms": _median(a["phases"].get(phase, 0.0) for a in answered)
        for phase in ("parse", "queue", "compute", "serialize")
    }
    out["serve.bytes_out"] = _median(a["bytes_out"] for a in answered)
    # The what-if semaphore is awaited between routing and the queue
    # phase, outside every phase span: it is the request's time no
    # phase accounts for.
    out["serve.whatif_queue_ms"] = _median(
        a["dur_ms"] - sum(a["phases"].values()) for a in answered if a["endpoint"] == "whatif"
    )
    by_id = {r["id"]: r for r in records}
    hops = [
        by_id[r["parent"]]["dur_s"] - r["dur_s"]
        for r in records
        if r["name"] == "serve.task" and r["parent"] in by_id
        and by_id[r["parent"]]["name"] == "serve.compute"
    ]
    out["serve.pool_hop_ms"] = 1000.0 * _median(hops)
    out["serve.task_ms"] = 1000.0 * _median(
        r["dur_s"] for r in records if r["name"] == "serve.task")
    out["anycast.kernel_resolve_ms"] = 1000.0 * _median(
        r["dur_s"] for r in records
        if r["name"] == "kernel.resolve" and r["attrs"].get("rows", 0) <= 64)
    out["anycast.delta_span_ms"] = 1000.0 * _median(
        r["dur_s"] for r in records if r["name"] == "kernel.delta")
    return out


def prometheus_counter(text: str, name: str) -> float:
    """One counter's value from ``/v1/metrics`` text (0 when never counted)."""
    exposed = "repro_" + name.replace(".", "_").replace("-", "_")
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == exposed:
            return float(parts[1])
    return 0.0
