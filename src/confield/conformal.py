"""Conformality of vector fields and conformal rescaling of metrics.

A field xi is conformal when L_xi g = 2 phi g with phi = trace(nabla xi)/n.
``conformal_residual`` measures the defect of that equation in the metric
norm at each row of an (m, n) array of points, from the 1-jets of g and xi
alone: in coordinates

    (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k,

so no connection is built (Kobayashi, *Transformation Groups in
Differential Geometry*, 1972, ch. IV).  ``is_conformal`` aggregates it
over a point sample in one call.
``rescale_metric`` builds the chart with metric e^{2f} g as new expression
trees.  The factor phi itself is ``FieldData.phi`` of
:func:`~confield.geometry.field_data`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Const, Expr, Fun, Mul
from .geometry import (Chart, FieldSpec, field_data, field_jets, matvec, metric_jets,
                       norm_2form, spd_inverse)

__all__ = [
    "CONFORMAL_TOL",
    "ConformalReport",
    "conformal_factor_gradient",
    "conformal_residual",
    "is_conformal",
    "rescale_metric",
]

# Largest conformal-equation residual that is_conformal, and classify_zero
# at each zero's neighbourhood, accept.
CONFORMAL_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class ConformalReport:
    """Residuals of L_xi g = 2 phi g over a sample of points."""

    points: np.ndarray
    residuals: np.ndarray
    max_residual: float
    worst_point: np.ndarray
    conformal: bool


def conformal_factor_gradient(chart: Chart, xi: FieldSpec, p) -> np.ndarray:
    """Exact covector d(phi) at the point p, via second-order jets: the row
    of its stack of one, whose record refuses a point outside the box."""
    return field_data(chart, xi, np.asarray(p, dtype=float)[None, :]).dphi[0]


def conformal_residual(chart: Chart, xi: FieldSpec, p) -> np.ndarray:
    """Metric norm of the trace-free part of L_xi g at each row of an (m, n)
    array p.

    L_xi g comes from the 1-jets of g and xi by the coordinate formula of
    the module docstring, with no connection.  Its g-trace is 2 n phi, so
    this is |L_xi g - 2 phi g|, with the trace taken of L_xi g itself so
    that the part is trace-free.
    """
    chart.require_interior(p)
    n = chart.dim
    g, dg, _ = metric_jets(chart, p, 1)
    ginv = spd_inverse(g)
    val, jac, _ = field_jets(xi, p, 1)
    batch = val.shape[:-1]
    # xi^k d_k g_ij, one (n^2, n) @ (n,) product per point
    L = matvec(dg.reshape(batch + (n * n, n)), val).reshape(batch + (n, n))
    A = g @ np.ascontiguousarray(jac)  # A[i, j] = g_ik d_j xi^k
    L += A + A.swapaxes(-1, -2)
    trace = np.trace(ginv @ L, axis1=-2, axis2=-1)[..., None, None]
    return norm_2form(ginv, L - trace / n * g)


def is_conformal(chart: Chart, xi: FieldSpec, samples) -> ConformalReport:
    """Check conformality over an (m, n) array of sample points, m >= 1:
    ``conformal`` when every residual is below ``CONFORMAL_TOL``."""
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        raise ValueError("is_conformal requires a non-empty sample set")
    residuals = conformal_residual(chart, xi, pts)
    worst = int(np.argmax(residuals))
    return ConformalReport(
        points=pts,
        residuals=residuals,
        max_residual=float(residuals[worst]),
        worst_point=pts[worst],
        conformal=bool(residuals[worst] < CONFORMAL_TOL),
    )


def rescale_metric(chart: Chart, f: Expr) -> Chart:
    """Chart carrying e^{2f} g for a scalar expression f, built as expression
    trees.

    The factor node is shared across all entries so jet evaluation computes
    it once per point.
    """
    factor = Fun("exp", Mul(Const(2.0), f))
    new_metric = tuple(
        tuple(Mul(factor, entry) for entry in row) for row in chart.metric
    )
    return Chart(
        dim=chart.dim,
        lower=chart.lower.copy(),
        upper=chart.upper.copy(),
        metric=new_metric,
        name=f"{chart.name}~rescaled",
    )
