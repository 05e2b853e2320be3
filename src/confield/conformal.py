"""Conformality of vector fields and conformal rescaling of metrics.

A field xi is conformal when L_xi g = 2 phi g with phi = trace(nabla xi)/n.
``conformal_residual`` measures the defect of that equation in the metric
norm, at one point (a batch of one) or over an (m, n) array of points;
``is_conformal`` aggregates it over a point sample in one call.
``rescale_metric`` builds the chart with metric e^{2f} g as new expression
trees.  The factor phi itself is ``FieldData.phi`` of
:func:`~confield.geometry.field_data`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Const, Expr, Fun, Mul
from .geometry import Chart, FieldSpec, field_data, norm_2form

__all__ = [
    "CONFORMAL_TOL",
    "ConformalReport",
    "conformal_factor_gradient",
    "conformal_residual",
    "is_conformal",
    "rescale_metric",
]

# Largest conformal-equation residual accepted by default.
CONFORMAL_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class ConformalReport:
    """Residuals of L_xi g = 2 phi g over a sample of points."""

    points: np.ndarray
    residuals: np.ndarray
    max_residual: float
    worst_point: np.ndarray
    tolerance: float
    conformal: bool


def conformal_factor_gradient(chart: Chart, xi: FieldSpec, p) -> np.ndarray:
    """Exact covector d(phi) at p, via second-order jets."""
    chart.require_interior(p)
    return field_data(chart, xi, p, 2).dphi


def conformal_residual(chart: Chart, xi: FieldSpec, p) -> float | np.ndarray:
    """Metric norm of the trace-free part of L_xi g at p, or per point of an
    (m, n) array p; one point has the bits of its batch of one.

    The g-trace of L_xi g is 2 n phi, so this is |L_xi g - 2 phi g|, with
    the trace taken of L_xi g itself so that the part is trace-free.
    """
    chart.require_interior(p)
    fd = field_data(chart, xi, p, 1)
    g, ginv, L = fd.conn.g, fd.conn.ginv, fd.lie
    trace = np.trace(ginv @ L, axis1=-2, axis2=-1)[..., None, None]
    return norm_2form(ginv, L - trace / chart.dim * g)


def is_conformal(chart: Chart, xi: FieldSpec, samples,
                 tol: float = CONFORMAL_TOL) -> ConformalReport:
    """Check conformality over explicit sample points (must be non-empty)."""
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.size == 0:
        raise ValueError("is_conformal requires a non-empty sample set")
    residuals = conformal_residual(chart, xi, pts)
    worst = int(np.argmax(residuals))
    return ConformalReport(
        points=pts,
        residuals=residuals,
        max_residual=float(residuals[worst]),
        worst_point=pts[worst],
        tolerance=float(tol),
        conformal=bool(residuals[worst] < tol),
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
