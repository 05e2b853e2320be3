"""No analysis takes a threshold as an argument.

Every threshold a verdict is decided with is a constant of the one module
that decides with it, so no caller can run an analysis at another value,
and the command line reports the value that ran.  The parameters with a
default that remain in the public functions and methods of the analysis
modules are listed here, each with the reason it is one: a new one fails
this test, and so is a visible change.
"""
import importlib
import inspect

MODULES = ("expr", "geometry", "conformal", "essential", "geodesic", "zeroset")

ALLOWED = {
    # the jet order, which each caller chooses
    "expr.eval_jet(order)",
    "expr.eval_jets(order)",
    # christoffel_matrix asks for order 1, field_data for order 2
    "geometry.connection_data(order)",
    # the geodesic integrator keeps its steps _BOUNDARY_EPS inside the box
    "geometry.Chart.contains(margin)",
    # the manifest's grid_resolution setting
    "essential.find_zeros(grid_resolution)",
    # the RK4 reference keeps its signature for the benchmark's tracer
    "geodesic.integrate_geodesic(initial_frame)",
}


def _public_callables(module):
    """``(name, function)`` of each public function of ``module`` and each
    public method of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for key, member in vars(obj).items():
                if inspect.isfunction(member) and not key.startswith("_"):
                    yield f"{name}.{key}", member


def test_the_parameters_with_defaults_are_the_allowed_ones():
    found = set()
    for module_name in MODULES:
        module = importlib.import_module(f"confield.{module_name}")
        for name, fn in _public_callables(module):
            found.update(f"{module_name}.{name}({param.name})"
                         for param in inspect.signature(fn).parameters.values()
                         if param.default is not param.empty)
    assert found == ALLOWED
