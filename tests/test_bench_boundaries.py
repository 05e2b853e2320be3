"""The benchmark's layer boundaries resolve in confield.

``bench/tracer.py`` wraps every ``(layer, function)`` in ``BOUNDARIES`` by
name, and ``bench/worker.py`` records traced patches through
``confield.cli.trace_component``.  A rename or deletion of one of them in
the package fails here rather than in a benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import confield.cli
import confield.zeroset

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
