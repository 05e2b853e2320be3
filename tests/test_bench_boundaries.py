"""The benchmark's layer boundaries resolve in confield.

``bench/tracer.py`` wraps every ``(layer, function)`` in ``BOUNDARIES`` by
name, and ``bench/worker.py`` records traced patches through
``confield.cli.trace_component``.  A rename or deletion of one of them in
the package fails here rather than in a benchmark run, and so does a return
value that the tracer's count hooks cannot read.
"""
import ast
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import confield.cli
import confield.expr
import confield.geodesic
import confield.geometry
import confield.models
import confield.zeroset
from helpers import reference_render_report, workload_reports

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"
PACKAGE = Path(confield.cli.__file__).resolve().parent
# Functions kept in the package only because BOUNDARIES names them.
KEPT_FOR_BOUNDARIES = {"integrate_geodesic", "exp_map", "conformal_factor_gradient",
                       "taylor_scalar_check", "taylor_vector_check"}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("bench_tracer", TRACER)


def test_every_boundary_resolves():
    tracer = _load_tracer()
    assert tracer.BOUNDARIES
    for layer, name in tracer.BOUNDARIES:
        module = importlib.import_module(f"confield.{layer}")
        assert callable(getattr(module, name, None)), f"confield.{layer}.{name}"


def test_cli_traces_with_the_zeroset_tracer():
    assert confield.cli.trace_component is confield.zeroset.trace_component


def _calls_outside_kept_bodies(tree):
    """Every call in a module, except inside the body of a kept function:
    a kept name may run another (exp_map integrates its geodesic)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in KEPT_FOR_BOUNDARIES:
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_analysis_calls_a_name_kept_for_the_tracer():
    """Once the tracer wraps their replacements, these names can go without
    touching an analysis."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _calls_outside_kept_bodies(ast.parse(path.read_text())):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            assert name not in KEPT_FOR_BOUNDARIES, \
                f"{path.name}:{node.lineno} calls {name}"


def test_traced_run_matches_untraced(tmp_path):
    """One catalog-style manifest under the tracer: the report is the same
    bytes as without it, and its Taylor checks integrate no geodesic."""
    tracer = _load_tracer()
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "chart": {"name": "sphere_stereographic", "dim": 3},
        "field": {"name": "sphere_translation", "params": {"axis": 1}},
        "analyses": ["check-conformal", "zeros", "classify", "verify-identities"],
        "seed": 1,
    }))
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert confield.cli.main(["run", str(manifest), "--out", str(plain)]) == 0
    with tracer.Tracer() as t:
        assert confield.cli.main(["run", str(manifest), "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    assert json.loads(plain.read_text())["analyses"]["verify-identities"]["taylor_at_zeros"]
    layers = t.layer_table()
    assert layers["geodesic.integrate_geodesic"]["calls"] == 0
    assert t.counts["geodesic.rk4_steps"] == 0
    assert t.counts["conformal.is_conformal.points"] > layers["conformal.is_conformal"]["calls"]
    assert layers["geodesic.dxi_identity_residual"]["calls"] == 1


def test_tracer_counts_the_steps_of_one_geodesic():
    """A 32-step call counts the 32 steps it integrated."""
    tracer = _load_tracer()
    chart = confield.models.sphere_stereographic(3)
    with tracer.Tracer() as t:
        states = confield.geodesic.integrate_geodesic(
            chart, np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.3, 32)
    assert len(states) == 33 and states[-1].position.shape == (3,)
    assert t.layer_table()["geodesic.integrate_geodesic"]["calls"] == 1
    assert t.counts["geodesic.rk4_steps"] == 32


def test_field_and_grid_evaluations_pass_the_expr_boundaries():
    """field_jets, field_data and the grid scan of find_zeros evaluate their
    compiled tapes through the expr names the tracer wraps, so
    expr.eval_jets.calls, expr.jets.order* and expr.eval_values_many.points
    count them: one jet per metric entry or field component."""
    tracer = _load_tracer()
    chart = confield.models.sphere_stereographic(3)
    xi = confield.models.rotation(chart, 1, 2)
    p = np.array([0.1, 0.2, 0.3])
    with tracer.Tracer() as t:
        confield.geometry.field_jets(xi, p[None], 1)
    assert t.layer_table()["expr.eval_jets"]["calls"] == 1
    assert t.counts["expr.jets.order1"] == 3
    with tracer.Tracer() as t:
        confield.geometry.field_data(chart, xi, np.stack([p, -p]))
    assert t.layer_table()["expr.eval_jets"]["calls"] == 2
    assert t.counts["expr.jets.order2"] == 9 + 3
    with tracer.Tracer() as t:
        confield.essential._grid_norms(chart, xi, np.stack([p, -p, 2 * p]))
    assert t.layer_table()["expr.eval_values_many"]["calls"] == 2
    assert t.counts["expr.eval_values_many.points"] == 2 * 3


def test_every_accepted_jet_order_has_a_tracer_counter():
    """The tracer counts jets per order under ``expr.jets.order{k}``.  Each
    order that eval_jet and eval_jets accept has its counter, so a traced
    call cannot fail in the count hook; the orders around them are refused."""
    tracer = _load_tracer()
    tree = confield.expr.parse("x1*x2", 2)
    point = [0.5, 0.25]
    for order in range(3):
        with tracer.Tracer() as t:
            confield.expr.eval_jets([tree], [point], order)
            confield.expr.eval_jet(tree, point, order)
        assert t.counts[f"expr.jets.order{order}"] == 2
    for order in (-1, 3):
        with pytest.raises(ValueError, match="order"):
            confield.expr.eval_jets([tree], [point], order)
        with pytest.raises(ValueError, match="order"):
            confield.expr.eval_jet(tree, point, order)


def test_workload_manifests_evaluate_no_single_point(monkeypatch):
    """Every jet evaluation that geometry makes while the benchmark's
    manifests run (seed 1) takes an (m, n) array of points: no analysis
    evaluates one point at a time."""
    workloads = _load("bench_workloads", WORKLOADS)
    ndims = []
    eval_jets = confield.geometry.eval_jets

    def recording(exprs, point, order=0):
        ndims.append(np.ndim(point))
        return eval_jets(exprs, point, order)

    monkeypatch.setattr(confield.geometry, "eval_jets", recording)
    for name in workloads.WORKLOADS:
        for manifest in workloads.manifests(name, 1):
            confield.cli.run_manifest(manifest)
    assert ndims and set(ndims) == {2}, sorted(set(ndims))


def _non_float_leaves(obj, path=""):
    """``(path, value)`` of every leaf of a parsed report that is not a
    float, the version aside."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if path or key != "version":
                yield from _non_float_leaves(value, f"{path}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _non_float_leaves(value, f"{path}/{i}")
    elif not isinstance(obj, float):
        yield path, obj


# sha256 of the non-float leaves and exit codes of the workload reports of
# seeds 1 and 2, as the code before the one-jet residual and the one-pass
# writer gave them
WORKLOAD_VERDICTS_SHA256 = "a9f82ce5815ee26972a173a04148da29635c0ce4738ab6a7a38f4337a342ca5c"


def test_workload_verdicts_are_pinned():
    """Every verdict, count, kernel dimension, rank, passed flag, error
    string and exit code of the benchmark's manifests, seeds 1 and 2, is
    the one pinned here; only floats may move."""
    leaves = [[name, code, list(_non_float_leaves(json.loads(reference_render_report(report))))]
              for seed in (1, 2) for name, report, code in workload_reports(seed)]
    assert len(leaves) == 44
    digest = hashlib.sha256(json.dumps(leaves).encode()).hexdigest()
    assert digest == WORKLOAD_VERDICTS_SHA256
