"""Each oracle accepts confield's answer and rejects a perturbed one.

    python3 -m pytest bench/test_oracles.py -q

Reports come from real runs of small manifests through ``confield.cli``;
each test perturbs one value of a report (or of the traced samples) and
checks that the analysis it belongs to now fails its oracle.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import confield.cli as cli  # noqa: E402
import oracles  # noqa: E402
from worker import PatchRecorder  # noqa: E402
from workloads import CATALOG_ANALYSES, resolved_analyses  # noqa: E402


def _run(tmp_path, chart, dim, field, params, analyses, seed=3):
    manifest = {"chart": {"name": chart, "dim": dim},
                "field": {"name": field, "params": params},
                "analyses": analyses, "seed": seed}
    path = tmp_path / f"{chart}_{field}.json"
    out = tmp_path / f"{chart}_{field}_report.json"
    path.write_text(json.dumps(manifest))
    recorder = PatchRecorder(cli)
    with recorder:
        cli.main(["run", str(path), "--out", str(out)])
    return manifest, json.loads(out.read_text()), list(recorder.current)


@pytest.fixture(scope="module")
def rotation(tmp_path_factory):
    """euclidean/3 with rotation(1, 2): the x3-axis, every analysis."""
    return _run(tmp_path_factory.mktemp("rot"), "euclidean", 3, "rotation",
                {"axis_i": 1, "axis_j": 2}, ["all"])


@pytest.fixture(scope="module")
def essential(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("ess"), "sphere_stereographic", 3,
                "special_conformal", {"axis": 1}, CATALOG_ANALYSES)


def _problems(case, mutate=None, mutate_patches=None):
    manifest, report, patches = case
    report = copy.deepcopy(report)
    patches = [p.copy() for p in patches]
    if mutate:
        mutate(report["analyses"])
    if mutate_patches:
        mutate_patches(patches)
    return oracles.check_report(manifest, report, resolved_analyses(manifest), patches)


def test_unperturbed_reports_pass(rotation, essential):
    for case in (rotation, essential):
        assert all(p == [] for p in _problems(case).values()), _problems(case)


def _set(path, value):
    def mutate(analyses):
        node = analyses
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return mutate


ROTATION_PERTURBATIONS = [
    ("check-conformal", ("check-conformal", "max_residual"), 1e-3),
    ("check-conformal", ("check-conformal", "worst_point"), [5.0, 0.0, 0.0]),
    ("zeros", ("zeros", "points", 0, 0), lambda v: v + 1e-4),
    ("zeros", ("zeros", "count"), lambda v: v + 1),
    ("classify", ("classify", "entries", 0, "verdict"), "essential"),
    ("classify", ("classify", "entries", 0, "phi"), 1e-3),
    ("classify", ("classify", "entries", 0, "kernel_dim"), 2),
    ("classify", ("classify", "audit", "assertions",
                  "essential_zeros_isolated"), False),
    ("verify-identities", ("verify-identities", "max_identity_residual"), "nan"),
    ("verify-identities", ("verify-identities", "taylor_at_zeros", 0,
                           "vector_first_residual"), 1.0),
    ("verify-identities", ("verify-identities", "taylor_at_zeros", 0,
                           "vector_second_residual"), 1e-2),
    ("trace", ("trace", "patches", 0, "k"), 2),
    ("trace", ("trace", "patches", 0, "max_field_norm"), 1e-3),
    ("trace", ("trace", "skipped"), [{"zero": [0, 0, 1], "reason": "x"}]),
    ("umbilicity", ("umbilicity", "patches", 0, "verdict"), "not_umbilical"),
    ("umbilicity", ("umbilicity", "patches", 0, "max_residual"), 1e-2),
    ("umbilicity", ("umbilicity", "patches", 0, "mean_curvature_norms", 1),
     lambda v: v + 1e-2),
]


@pytest.mark.parametrize("analysis,path,value", ROTATION_PERTURBATIONS,
                         ids=[".".join(map(str, p[1])) for p in ROTATION_PERTURBATIONS])
def test_perturbed_value_is_rejected(rotation, analysis, path, value):
    found = _problems(rotation, mutate=_set(path, value))
    assert found[analysis], f"{path} -> {value!r} passed the {analysis} oracle"


def test_traced_sample_off_the_set_is_rejected(rotation):
    def shift(patches):
        patches[0][1] = patches[0][1] + np.array([1e-3, 0.0, 0.0])
    found = _problems(rotation, mutate_patches=shift)
    assert found["trace"]


def test_missing_or_raised_analysis_is_rejected(rotation):
    assert _problems(rotation, mutate=lambda a: a.pop("classify"))["classify"]
    found = _problems(rotation, mutate=_set(("trace",), {"error": "PatchError"}))
    assert found["trace"]


@pytest.mark.parametrize("verdict", ["killing_inessential", "homothetic_nonkilling"])
def test_essential_zero_needs_the_essential_verdict(essential, verdict):
    found = _problems(essential, mutate=_set(("classify", "entries", 0, "verdict"), verdict))
    assert found["classify"]


def test_second_isolated_zero_is_rejected(essential):
    def add(analyses):
        analyses["zeros"]["points"].append([0.5, 0.0, 0.0])
        analyses["zeros"]["count"] += 1
    assert _problems(essential, mutate=add)["zeros"]


def test_curved_zero_set_needs_unit_mean_curvature():
    """|H| = 1 on the unit circle {x1 = 0, |x| = 1} of the flat chart."""
    manifest = {"chart": {"name": "euclidean", "dim": 3},
                "field": {"name": "sphere_killing", "params": {"axis_i": 1, "axis_j": 4}},
                "analyses": ["zeros", "trace", "umbilicity"]}
    angles = np.linspace(-0.3, 0.3, 5)
    samples = np.stack([np.zeros(5), np.cos(angles), np.sin(angles)], axis=-1)
    zero = samples[2].tolist()

    def report(norms):
        patch = {"base": zero, "k": 1, "codim": 2, "max_field_norm": 0.0}
        umb = {"base": zero, "k": 1, "verdict": "totally_umbilical",
               "max_residual": 0.0, "codim": 2, "codim_even": True,
               "mean_curvature_norms": norms}
        return {"analyses": {
            "zeros": {"count": 1, "points": [zero]},
            "trace": {"patches": [patch], "skipped": []},
            "umbilicity": {"patches": [umb]},
        }}

    good = oracles.check_report(manifest, report([1.0, 1.0, 1.0]),
                                manifest["analyses"], [samples])
    assert good == {"zeros": [], "trace": [], "umbilicity": []}
    bad = oracles.check_report(manifest, report([0.0, 0.0, 0.0]),
                               manifest["analyses"], [samples])
    assert bad["umbilicity"]
    stereo = dict(manifest, chart={"name": "sphere_stereographic", "dim": 3})
    assert oracles.check_report(stereo, report([1.0, 1.0, 1.0]),
                                manifest["analyses"], [samples])["umbilicity"]


def test_failed_trace_fails_trace_and_umbilicity():
    manifest = {"chart": {"name": "euclidean", "dim": 3},
                "field": {"name": "sphere_killing", "params": {"axis_i": 1, "axis_j": 4}},
                "analyses": ["zeros", "trace", "umbilicity"]}
    zero = [0.0, 1.0, 0.0]
    report = {"analyses": {
        "zeros": {"count": 1, "points": [zero]},
        "trace": {"patches": [], "skipped": [{"zero": zero, "reason": "left"}]},
        "umbilicity": {"patches": []},
    }}
    found = oracles.check_report(manifest, report, manifest["analyses"], [])
    assert found["zeros"] == [] and found["trace"] and found["umbilicity"]
