"""Model charts and conformal fields used throughout the test suite.

Three conformally flat charts (flat box, stereographic sphere chart,
Poincare ball) share the coordinate identity map, so the same coordinate
field is conformal on all of them.  The field catalog covers translations,
rotations, the radial scaling field, the quadratic field obtained by
conjugating a translation with the unit inversion (the construction that
turns the zero-free translation into a field with a single, essential
zero), and the sphere generators that mix a translation with that
quadratic field.
"""
from __future__ import annotations

import inspect
import math

import numpy as np

from .expr import Add, Const, Div, Expr, Neg, Pow, Var, parse
from .geometry import Chart, FieldSpec

__all__ = [
    "euclidean",
    "sphere_stereographic",
    "hyperbolic_ball",
    "translation",
    "rotation",
    "euler",
    "special_conformal",
    "sphere_killing",
    "sphere_translation",
    "CHART_BUILDERS",
    "FIELD_BUILDERS",
    "make_chart",
    "make_field",
    "field_params",
    "standard_pairs",
]


def _sum_of_squares(dim: int) -> Expr:
    expr: Expr = Pow(Var(0), 2)
    for k in range(1, dim):
        expr = Add(expr, Pow(Var(k), 2))
    return expr


def _diagonal_metric(dim: int, entry: Expr) -> tuple:
    """dim x dim metric with one shared diagonal expression object."""
    zero = Const(0.0)
    return tuple(
        tuple(entry if i == j else zero for j in range(dim)) for i in range(dim)
    )


def euclidean(dim: int) -> Chart:
    """Flat metric on the box [-2, 2]^dim."""
    metric = _diagonal_metric(dim, Const(1.0))
    bound = np.full(dim, 2.0)
    return Chart(dim=dim, lower=-bound, upper=bound, metric=metric,
                 name=f"euclidean_{dim}")


def sphere_stereographic(dim: int) -> Chart:
    """Round sphere of curvature +1 in a stereographic chart, box [-3, 3]^dim.

    The metric is 4 / (1 + |x|^2)^2 times the flat one; a single factor
    expression is shared by all diagonal entries so jet evaluation visits
    it once per point.
    """
    factor = Div(Const(4.0), Pow(Add(Const(1.0), _sum_of_squares(dim)), 2))
    metric = _diagonal_metric(dim, factor)
    bound = np.full(dim, 3.0)
    return Chart(dim=dim, lower=-bound, upper=bound, metric=metric,
                 name=f"sphere_stereographic_{dim}")


def hyperbolic_ball(dim: int) -> Chart:
    """Poincare ball metric 4 / (1 - |x|^2)^2 on a box inside the unit ball.

    The box half-width 0.9 / sqrt(dim) keeps every corner at radius 0.9,
    clear of the singularity at |x| = 1.
    """
    factor = Div(Const(4.0), Pow(Add(Const(1.0), Neg(_sum_of_squares(dim))), 2))
    metric = _diagonal_metric(dim, factor)
    bound = np.full(dim, 0.9 / math.sqrt(dim))
    return Chart(dim=dim, lower=-bound, upper=bound, metric=metric,
                 name=f"hyperbolic_ball_{dim}")


def _check_axis(dim: int, axis: int, label: str = "axis"):
    if not 1 <= axis <= dim:
        raise ValueError(f"{label} must be in 1..{dim}, got {axis}")


def _vec(chart: Chart, sources, name: str) -> FieldSpec:
    comps = tuple(parse(s, chart.dim) for s in sources)
    return FieldSpec(chart, comps, name=name)


def _r2_string(dim: int) -> str:
    return " + ".join(f"x{k}^2" for k in range(1, dim + 1))


def translation(chart: Chart, axis: int = 1) -> FieldSpec:
    """Constant coordinate field along one axis (no zeros)."""
    _check_axis(chart.dim, axis)
    comps = ["1" if k == axis else "0" for k in range(1, chart.dim + 1)]
    return _vec(chart, comps, f"translation_{axis}")


def rotation(chart: Chart, axis_i: int = 1, axis_j: int = 2) -> FieldSpec:
    """Rotation in the (axis_i, axis_j) coordinate plane.

    Component axis_i is -x_j and component axis_j is +x_i; the zero set is
    the coordinate subspace where both vanish.
    """
    _check_axis(chart.dim, axis_i, "axis_i")
    _check_axis(chart.dim, axis_j, "axis_j")
    if axis_i == axis_j:
        raise ValueError("rotation needs two distinct axes")
    comps = []
    for k in range(1, chart.dim + 1):
        if k == axis_i:
            comps.append(f"-x{axis_j}")
        elif k == axis_j:
            comps.append(f"x{axis_i}")
        else:
            comps.append("0")
    return _vec(chart, comps, f"rotation_{axis_i}{axis_j}")


def euler(chart: Chart) -> FieldSpec:
    """Radial scaling field x; homothetic with phi = 1 on the flat chart."""
    comps = [f"x{k}" for k in range(1, chart.dim + 1)]
    return _vec(chart, comps, "euler")


def special_conformal(chart: Chart, axis: int = 1) -> FieldSpec:
    """Quadratic conformal field |x|^2 e - 2 <x, e> x with e along ``axis``.

    Its unique zero sits at the origin and is essential on every
    conformally flat chart in the catalog.
    """
    _check_axis(chart.dim, axis)
    r2 = _r2_string(chart.dim)
    comps = []
    for k in range(1, chart.dim + 1):
        if k == axis:
            comps.append(f"({r2}) - 2*x{axis}*x{k}")
        else:
            comps.append(f"-2*x{axis}*x{k}")
    return _vec(chart, comps, f"special_conformal_{axis}")


def sphere_killing(chart: Chart, axis_i: int = 1, axis_j: int = 2) -> FieldSpec:
    """Rotation generator of the round sphere in stereographic coordinates.

    Axes refer to ambient axes 1 .. dim+1 of the sphere.  For axis_j <= dim
    this is the plane rotation; for axis_j = dim + 1 it is the mixed
    generator ((1 - |x|^2)/2) e_i + <x, e_i> x, whose chart zero set is the
    equator piece {x_i = 0, |x| = 1}.  Killing for the sphere metric, and
    conformal on the other catalog charts.
    """
    dim = chart.dim
    _check_axis(dim + 1, axis_i, "axis_i")
    _check_axis(dim + 1, axis_j, "axis_j")
    if axis_i == axis_j:
        raise ValueError("sphere_killing needs two distinct axes")
    if axis_i > axis_j:
        axis_i, axis_j = axis_j, axis_i
    if axis_j <= dim:
        spec = rotation(chart, axis_i, axis_j)
        return FieldSpec(chart, spec.components, name=f"sphere_killing_{axis_i}{axis_j}")
    if axis_i == dim + 1:
        raise ValueError("axis_i must be a chart axis when axis_j = dim + 1")
    r2 = _r2_string(dim)
    comps = []
    for k in range(1, dim + 1):
        if k == axis_i:
            comps.append(f"(1 - ({r2}))/2 + x{axis_i}^2")
        else:
            comps.append(f"x{axis_i}*x{k}")
    return _vec(chart, comps, f"sphere_killing_{axis_i}{axis_j}")


def sphere_translation(chart: Chart, axis: int = 1) -> FieldSpec:
    """Translation of the sphere conjugated by inversion; one essential zero.

    Equal to the quadratic field of :func:`special_conformal`, but named
    for its role: the pushforward of a translation under the unit
    inversion, the standard example of a field with an essential point.
    """
    spec = special_conformal(chart, axis)
    return FieldSpec(chart, spec.components, name=f"sphere_translation_{axis}")


CHART_BUILDERS = {
    "euclidean": euclidean,
    "sphere_stereographic": sphere_stereographic,
    "hyperbolic_ball": hyperbolic_ball,
}

FIELD_BUILDERS = {
    "translation": translation,
    "rotation": rotation,
    "euler": euler,
    "special_conformal": special_conformal,
    "sphere_killing": sphere_killing,
    "sphere_translation": sphere_translation,
}


def make_chart(name: str, dim: int) -> Chart:
    """Catalog chart by name; raises KeyError-style ValueError on unknowns."""
    if name not in CHART_BUILDERS:
        known = ", ".join(sorted(CHART_BUILDERS))
        raise ValueError(f"unknown chart {name!r}; available: {known}")
    return CHART_BUILDERS[name](dim)


def field_params(name: str) -> dict:
    """Keyword parameters of a catalog field, name -> default, from its builder."""
    params = list(inspect.signature(FIELD_BUILDERS[name]).parameters.values())
    return {p.name: p.default for p in params[1:]}  # params[0] is the chart


def make_field(chart: Chart, name: str, params: dict | None = None) -> FieldSpec:
    """Catalog field by name; params must be the builder's, typed as their defaults."""
    if name not in FIELD_BUILDERS:
        known = ", ".join(sorted(FIELD_BUILDERS))
        raise ValueError(f"unknown field {name!r}; available: {known}")
    params = params or {}
    known = field_params(name)
    for key, value in params.items():
        if key not in known or type(value) is not type(known[key]):
            raise ValueError(f"bad parameters for field {name!r}: got {key}={value!r}, "
                             f"defaults are {known}")
    return FIELD_BUILDERS[name](chart, **params)


def standard_pairs(dim: int) -> list:
    """Every catalog chart paired with every catalog field, canonical params.

    All fields are conformal with respect to all three charts because the
    charts are conformally flat in the same coordinates.
    """
    charts = [euclidean(dim), sphere_stereographic(dim), hyperbolic_ball(dim)]
    pairs = []
    for chart in charts:
        fields = [
            translation(chart, 1),
            rotation(chart, 1, 2),
            euler(chart),
            special_conformal(chart, 1),
            sphere_killing(chart, 1, dim + 1),
            sphere_translation(chart, 1),
        ]
        for f in fields:
            pairs.append((chart, f))
    return pairs
