"""The benchmark's layer boundaries resolve in confield.

``bench/tracer.py`` wraps every ``(layer, function)`` in ``BOUNDARIES`` by
name, and ``bench/worker.py`` records traced patches through
``confield.cli.trace_component``.  A rename or deletion of one of them in
the package fails here rather than in a benchmark run, and so does a return
value that the tracer's count hooks cannot read.
"""
import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import confield.cli
import confield.geodesic
import confield.models
import confield.zeroset

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PACKAGE = Path(confield.cli.__file__).resolve().parent
# Functions kept in the package only because BOUNDARIES names them.
KEPT_FOR_BOUNDARIES = {"integrate_geodesic", "exp_map", "conformal_factor_gradient",
                       "taylor_scalar_check", "taylor_vector_check"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_tracer_counts_lockstep_steps():
    """A call of 3 lanes stepped in lockstep counts its 32 steps once."""
    tracer = _load_tracer()
    chart = confield.models.sphere_stereographic(3)
    with tracer.Tracer() as t:
        states = confield.geodesic.integrate_geodesic(
            chart, np.zeros((3, 3)), np.eye(3), [0.1, 0.2, 0.3], 32)
    assert len(states) == 33 and states[-1].position.shape == (3, 3)
    assert t.layer_table()["geodesic.integrate_geodesic"]["calls"] == 1
    assert t.counts["geodesic.rk4_steps"] == 32
