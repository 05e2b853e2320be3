"""The benchmark's workloads: fixed manifests, with the seed written in.

Each workload is a list of confield manifests.  The seed drives every
random draw the program makes (conformality samples, neighbourhood samples,
identity pairs, Taylor directions); charts, fields, grids and analyses do
not depend on it, so the same seed gives byte-identical manifests.
"""
from __future__ import annotations

ALL_ANALYSES = ["check-conformal", "zeros", "classify", "verify-identities",
                "trace", "umbilicity"]
CATALOG_ANALYSES = ["check-conformal", "zeros", "classify", "verify-identities"]
CURVED_ANALYSES = ["zeros", "classify", "trace", "umbilicity"]

# Field entries of models.standard_pairs(3), in the same order.
_CATALOG_FIELDS = [
    ("translation", {"axis": 1}),
    ("rotation", {"axis_i": 1, "axis_j": 2}),
    ("euler", {}),
    ("special_conformal", {"axis": 1}),
    ("sphere_killing", {"axis_i": 1, "axis_j": 4}),
    ("sphere_translation", {"axis": 1}),
]
_CATALOG_CHARTS = ["euclidean", "sphere_stereographic", "hyperbolic_ball"]


def _manifest(chart, dim, field, params, analyses, seed, grid=None):
    m = {
        "chart": {"name": chart, "dim": dim},
        "field": {"name": field, "params": dict(params)},
        "analyses": list(analyses),
        "seed": int(seed),
    }
    if grid is not None:
        m["grid_resolution"] = grid
    return m


def _umbilic_geodesic(seed):
    # Totally geodesic zero sets that tracing follows today: umbilicity
    # (finite-difference second fundamental form over exp_map) dominates.
    return [
        _manifest("hyperbolic_ball", 4, "rotation", {"axis_i": 1, "axis_j": 2},
                  ["all"], seed, grid=12),
        _manifest("sphere_stereographic", 3, "sphere_killing",
                  {"axis_i": 3, "axis_j": 4}, ["all"], seed, grid=15),
    ]


def _classify_catalog(seed):
    # Every chart x field pair in dimension 3: all three verdicts, batched
    # grid scans, Newton, order-2 jets and Taylor stencils, no tracing.
    return [
        _manifest(chart, 3, field, params, CATALOG_ANALYSES, seed)
        for chart in _CATALOG_CHARTS
        for field, params in _CATALOG_FIELDS
    ]


def _zeroset_curved(seed):
    # Zero sets with mean curvature norm 1 (unit circle, unit 2-sphere):
    # tracing by exp_map of g leaves them, so every trace fails today.
    return [
        _manifest("euclidean", 3, "sphere_killing", {"axis_i": 1, "axis_j": 4},
                  CURVED_ANALYSES, seed),
        _manifest("euclidean", 4, "sphere_killing", {"axis_i": 1, "axis_j": 5},
                  CURVED_ANALYSES, seed),
    ]


WORKLOADS = {
    "umbilic_geodesic": _umbilic_geodesic,
    "classify_catalog": _classify_catalog,
    "zeroset_curved": _zeroset_curved,
}

# Operations that fail on every seed because of a fault in the program.
# Each entry is (workload, field name or None for any, analysis).
KNOWN_FAULTS = {
    # geodesic.taylor_vector_check: the first-derivative target omits the
    # phi(x) v term, so at a homothetic zero the residual equals phi = 1.
    ("classify_catalog", "euler", "verify-identities"),
    # zeroset.trace_component follows exp_map of g, which leaves zero sets
    # that are not totally geodesic; no patch is built, umbilicity is empty.
    ("zeroset_curved", None, "trace"),
    ("zeroset_curved", None, "umbilicity"),
}


def manifests(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)


def resolved_analyses(manifest: dict) -> list:
    names = manifest["analyses"]
    return list(ALL_ANALYSES) if names == ["all"] else list(names)


def is_known_fault(workload: str, manifest: dict, analysis: str) -> bool:
    field = manifest["field"]["name"]
    return ((workload, field, analysis) in KNOWN_FAULTS
            or (workload, None, analysis) in KNOWN_FAULTS)
