"""Output checks, computed apart from the program.

Each function returns a list of problems (empty when the answer holds),
so the caller can count a failed operation and say why.  The geometry
is recomputed here from region coordinates with the benchmark's own
haversine; the equality checks compare against an oracle the caller
obtains from the program's public functions.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

EARTH_RADIUS_KM = 6371.0
#: Light in fibre covers 200 km per millisecond, so a round trip over
#: ``d`` km cannot take less than ``2 d / 200`` ms.
FIBER_KM_PER_MS = 200.0
#: Distances are recomputed in another operation order than the
#: program's, so equal means equal to well under a metre.
TOLERANCE_KM = 1e-6

_RESOLVE_FIELDS = ("ok", "site_ids", "site_region_ids", "as_hops",
                   "base_rtt_ms", "site_km", "min_km")
_IMPACT_FIELDS = ("users_measured", "users_rerouted", "rerouted_fraction",
                  "median_rtt_before_ms", "median_rtt_after_ms",
                  "p95_rtt_before_ms", "p95_rtt_after_ms",
                  "max_site_share_before", "max_site_share_after")
_CLAIM = re.compile(r"^\[(PASS|FAIL)\] ([^:]+):")


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between points given in degrees."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


class Geography:
    """Region coordinates plus the site table of every deployment.

    ``sites[deployment][site_id] = (region_id, is_global)``.
    """

    def __init__(self, lat, lon, sites: dict[str, dict[int, tuple[int, bool]]]):
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.sites = sites

    def km(self, region_a, region_b):
        return haversine_km(self.lat[region_a], self.lon[region_a],
                            self.lat[region_b], self.lon[region_b])


def _close(a, b) -> np.ndarray:
    return np.abs(np.asarray(a, dtype=np.float64) - b) <= TOLERANCE_KM + 1e-12 * np.abs(b)


def resolve_problems(payload: dict, deployment: str, pairs, geo: Geography) -> list[str]:
    """Properties every ``/v1/resolve`` answer must have."""
    problems = []
    n = len(pairs)
    if payload.get("deployment") != deployment or payload.get("rows") != n:
        return [f"answer is for {payload.get('deployment')!r}/{payload.get('rows')} rows, "
                f"asked {deployment!r}/{n}"]
    if any(len(payload.get(field) or ()) != n for field in _RESOLVE_FIELDS):
        return ["a column has the wrong length"]
    sites = geo.sites[deployment]
    regions = np.array([region for _, region in pairs], dtype=np.int64)
    global_regions = np.array([r for r, is_global in sites.values() if is_global])
    expected_min = geo.km(regions[:, None], global_regions[None, :]).min(axis=1)
    if not _close(payload["min_km"], expected_min).all():
        problems.append("min_km is not the distance to the closest global site")
    ok = np.array(payload["ok"], dtype=bool)
    if payload.get("served") != int(ok.sum()):
        problems.append("served does not count the ok rows")
    rows = np.flatnonzero(ok)
    answered = [payload["site_ids"][row] for row in rows]
    foreign = [site for site in answered if site not in sites]
    if foreign:
        return problems + [f"sites {foreign} are not sites of {deployment}"]
    site_region = np.array([sites[site][0] for site in answered], dtype=np.int64)
    is_global = np.array([sites[site][1] for site in answered], dtype=bool)
    if (np.array(payload["site_region_ids"])[rows] != site_region).any():
        problems.append("a site is answered with another site's region")
    site_km = np.array([payload["site_km"][row] for row in rows], dtype=np.float64)
    if not _close(site_km, geo.km(regions[rows], site_region)).all():
        problems.append("site_km is not the distance to the answered site")
    min_km = np.array(payload["min_km"], dtype=np.float64)[rows]
    if (is_global & (site_km < min_km - TOLERANCE_KM)).any():
        problems.append("a global site answered nearer than min_km")
    rtt = np.array([payload["base_rtt_ms"][row] for row in rows], dtype=np.float64)
    if (rtt < 2.0 * site_km / FIBER_KM_PER_MS - 1e-9).any():
        problems.append("base_rtt_ms beats light in fibre")
    return problems


def resolve_matches(payload: dict, batch) -> list[str]:
    """Field-for-field equality with an in-process ``resolve_many`` batch."""
    problems = []
    for field in _RESOLVE_FIELDS:
        expected = [
            None if isinstance(v, float) and math.isnan(v) else v
            for v in getattr(batch, field).tolist()
        ]
        if payload[field] != expected:
            problems.append(f"{field} differs from resolve_many")
    return problems


def whatif_problems(payload: dict, deployment: str, sites_before: int) -> list[str]:
    """Properties every one-site withdrawal answer must have."""
    problems = []
    if payload.get("deployment") != deployment:
        problems.append(f"answer is for {payload.get('deployment')!r}")
    if payload.get("sites_before") != sites_before:
        problems.append(f"sites_before {payload.get('sites_before')} != {sites_before}")
    if payload.get("sites_after") != sites_before - 1:
        problems.append(f"sites_after {payload.get('sites_after')} != {sites_before - 1}")
    measured, rerouted = payload.get("users_measured"), payload.get("users_rerouted")
    if not (isinstance(measured, int) and isinstance(rerouted, int)
            and 0 <= rerouted <= measured):
        problems.append(f"users_rerouted {rerouted} outside [0, {measured}]")
    return problems


def whatif_matches(payload: dict, impact, sites_after: int) -> list[str]:
    """Equality with the rebuild oracle's ``FailureImpact``."""
    problems = [f"{field} differs from the rebuild oracle"
                for field in _IMPACT_FIELDS if payload.get(field) != getattr(impact, field)]
    if payload.get("sites_after") != sites_after:
        problems.append("sites_after differs from the rebuild oracle")
    return problems


def catchment_problems(payload: dict, deployment: str, geo: Geography) -> list[str]:
    """Every site listed once; user counts and shares add up."""
    sites = payload.get("sites") or []
    problems = []
    if {s["site_id"] for s in sites} != set(geo.sites[deployment]) or len(sites) != len(
            geo.sites[deployment]):
        problems.append("catchment does not list each site of the deployment once")
    served = payload.get("served_users", -1)
    if not 0 < served <= payload.get("total_users", 0):
        problems.append("served_users outside (0, total_users]")
    # Per-site users are truncated to whole users, so the sum may fall
    # short of served_users by less than one user per site.
    if not 0 <= served - sum(s["users"] for s in sites) < max(1, len(sites)):
        problems.append("site users do not add up to served_users")
    if abs(sum(s["share"] for s in sites) - 1.0) > 1e-9:
        problems.append("site shares do not add up to 1")
    return problems


def inflation_problems(payload: dict, deployment: str, geo: Geography) -> list[str]:
    """Quantiles ordered and fractions inside [0, 1]."""
    problems = []
    n_global = sum(1 for _, is_global in geo.sites[deployment].values() if is_global)
    if payload.get("n_global_sites") != n_global:
        problems.append("n_global_sites differs from the deployment")
    for key in ("geographic_inflation_ms", "latency_inflation_ms"):
        s = payload.get(key) or {}
        try:
            ordered = s["median"] <= s["p90"] <= s["p99"]
            fractions = all(0.0 <= s[f] <= 1.0 for f in ("zero_fraction", "over_100ms_fraction"))
        except (KeyError, TypeError):
            ordered = fractions = False
        if not (ordered and fractions):
            problems.append(f"{key} quantiles out of order or fractions outside [0, 1]")
    return problems


def validate_claims(text: str) -> tuple[list[str], list[str]]:
    """``(passed, failed)`` claim names from ``repro validate`` output."""
    passed, failed = [], []
    for line in text.splitlines():
        match = _CLAIM.match(line)
        if match:
            (passed if match.group(1) == "PASS" else failed).append(match.group(2))
    return passed, failed


def journal_status(text: str) -> tuple[dict[str, str], bool]:
    """``({experiment: status}, journaled complete)`` from a run journal."""
    status, complete = {}, False
    for line in text.splitlines():
        record = json.loads(line)
        if record.get("type") == "experiment":
            status[record["id"]] = record.get("status")
        elif record.get("type") == "complete":
            complete = bool(record.get("ok"))
    return status, complete
