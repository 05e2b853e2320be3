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

import confield.cli
import confield.zeroset

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PACKAGE = Path(confield.cli.__file__).resolve().parent
# Functions kept in the package only because BOUNDARIES names them.
KEPT_FOR_BOUNDARIES = {"exp_map", "conformal_factor_gradient",
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


def test_no_analysis_calls_a_name_kept_for_the_tracer():
    """Once the tracer wraps their replacements, these names can go without
    touching an analysis."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name not in KEPT_FOR_BOUNDARIES, \
                    f"{path.name}:{node.lineno} calls {name}"


def test_traced_run_matches_untraced_and_counts_lockstep_steps(tmp_path):
    """One catalog-style manifest under the tracer: the report is the same
    bytes as without it, and every geodesic call, a lockstep of 3 lanes,
    counts its 32 steps once."""
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
    layers = t.layer_table()
    runs = layers["geodesic.integrate_geodesic"]["calls"]
    assert runs > 0
    assert t.counts["geodesic.rk4_steps"] == 32 * runs
    assert t.counts["conformal.is_conformal.points"] > layers["conformal.is_conformal"]["calls"]
    assert layers["geodesic.dxi_identity_residual"]["calls"] == 1
