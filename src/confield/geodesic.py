"""Geodesics, parallel frames, and derivative identities along geodesics.

``taylor_checks`` tests the expansion of a conformal field xi along the
unit-speed geodesic c(t) = exp_x(tv) from a zero x:

* scalar: f(t) = g(xi(c(t)), c'(t)) satisfies f'(0) = phi(x),
* vector: in a parallel frame, xi'(0) = phi(x) v + (1/2) d(xi^flat)(v) and
  xi''(0) = 2 dphi_x(v) v - grad phi_x.

Every derivative at t = 0 is an exact formula in the 2-jet at x (Taylor-mode
differentiation of the geodesic equation).  With X = xi o c, which vanishes
at t = 0, J = d xi, E the parallel frame (rows) and d_v g the derivative of
the metric along v:

* c'' = -Gamma(v, v) and E' = -Gamma(v, E);
* X' = J v and X'' = d^2 xi(v, v) + J c'';
* f' = g(X', v) and f'' = g(X'', v) + 2 (d_v g)(X', v) + 2 g(X', c'');
* the frame components a = E g X have a' = E g X' and
  a'' = 2 E' g X' + 2 E (d_v g) X' + E g X''.

The targets keep their own covariant formulas in phi, dphi and d(xi^flat),
so a wrong target is still caught.

Geodesics themselves are integrated by ``integrate_geodesic``, a fixed-step
classical RK4 scheme on the first-order system (x, v) together with a
parallel orthonormal frame, one geodesic per call; ``exp_map`` sits on top
of it.  No analysis calls them.  They stay as the independent reference
that the tests hold the jet formulas against, and as layer boundaries of
the benchmark's tracer.

``dxi_identity_residual`` checks the pointwise curvature identity

    nabla_X d(xi^flat) = 2 R_{X, xi} + 2 dphi ^ X

where R_{X, xi} is the 2-form (Y, Z) -> g(R(X, xi)Y, Z) and
(dphi ^ X)(Y, Z) = dphi(Y) g(X, Z) - dphi(Z) g(X, Y), at one point or over
(m, n) arrays of points and directions.  This identity pins down every sign
convention in the package at once, so it is exercised over the whole model
catalog in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    Chart,
    FieldSpec,
    christoffel_matrix,
    complete_orthonormal_frame,
    field_data,
    metric_jets,
    norm_2form,
    norm_vector,
)

__all__ = [
    "DomainExitError",
    "GeodesicState",
    "integrate_geodesic",
    "exp_map",
    "taylor_checks",
    "TaylorScalarResult",
    "TaylorVectorResult",
    "dxi_identity_residual",
]

_BOUNDARY_EPS = 1e-9
# How small |xi|_g must be at a zero for the Taylor checks.
_ZERO_TOL = 1e-6


class DomainExitError(RuntimeError):
    """A geodesic left the chart box before reaching its target time."""


@dataclass(frozen=True, eq=False)
class GeodesicState:
    """Snapshot along a geodesic; frame rows are parallel unit vectors."""

    t: float
    position: np.ndarray
    velocity: np.ndarray
    frame: np.ndarray


def _speed(g: np.ndarray, v: np.ndarray) -> float:
    """|v|_g, or NaN for a v that is not finite, which then enters no product."""
    return norm_vector(g, v) if np.isfinite(v).all() else math.nan


def _rhs(chart: Chart, x, v, frame):
    Gam = christoffel_matrix(chart, x)
    acc = -np.einsum("kij,i,j->k", Gam, v, v)
    dframe = -np.einsum("kij,i,aj->ak", Gam, v, frame)
    return v, acc, dframe


def integrate_geodesic(
    chart: Chart,
    x,
    v,
    length: float,
    steps: int,
    initial_frame: np.ndarray | None = None,
) -> list[GeodesicState]:
    """Unit-speed geodesic from x in direction v, integrated to ``length``.

    The initial velocity is normalized in the metric at x.  A parallel
    frame is carried along, starting from ``initial_frame`` or, by default,
    from an orthonormal frame completing v.  The returned list holds every
    RK4 step, starting with the initial state.  If the trajectory exits the
    chart box the list is truncated at the last interior state.
    """
    chart.require_interior(x)
    if steps < 1:
        raise ValueError("steps must be positive")
    x = np.asarray(x, dtype=float).copy()
    v = np.asarray(v, dtype=float)
    g, _, _ = metric_jets(chart, x, 0)
    speed = _speed(g, v)
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"initial velocity must be finite and nonzero, got speed {speed}")
    v = v / speed
    if initial_frame is None:
        frame = complete_orthonormal_frame(g, v)
    else:
        frame = np.array(initial_frame, dtype=float)
    h = length / steps
    states = [GeodesicState(0.0, x.copy(), v.copy(), frame.copy())]
    for k in range(steps):
        k1 = _rhs(chart, x, v, frame)
        x2 = x + 0.5 * h * k1[0]
        if not chart.contains(x2, _BOUNDARY_EPS):
            break
        k2 = _rhs(chart, x2, v + 0.5 * h * k1[1], frame + 0.5 * h * k1[2])
        x3 = x + 0.5 * h * k2[0]
        if not chart.contains(x3, _BOUNDARY_EPS):
            break
        k3 = _rhs(chart, x3, v + 0.5 * h * k2[1], frame + 0.5 * h * k2[2])
        x4 = x + h * k3[0]
        if not chart.contains(x4, _BOUNDARY_EPS):
            break
        k4 = _rhs(chart, x4, v + h * k3[1], frame + h * k3[2])
        x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        frame = frame + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not chart.contains(x, _BOUNDARY_EPS):
            break
        states.append(GeodesicState((k + 1) * h, x.copy(), v.copy(), frame.copy()))
    return states


def exp_map(chart: Chart, x, v) -> np.ndarray:
    """Riemannian exponential: endpoint of the geodesic with initial v.

    The integration time is the metric length of v, in 96 RK4 steps per
    unit of length and at least 32.  Raises :class:`DomainExitError` when
    the geodesic leaves the chart box.
    """
    chart.require_interior(x)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g, _, _ = metric_jets(chart, x, 0)
    length = _speed(g, v)
    if not math.isfinite(length):
        raise ValueError(f"exp_map needs a finite vector, got length {length}")
    if length < 1e-16:
        return x.copy()
    nsteps = max(32, math.ceil(length * 96.0))
    states = integrate_geodesic(chart, x, v, length, nsteps)
    if len(states) != nsteps + 1:
        raise DomainExitError(
            f"geodesic from {x.tolist()} exits the chart after t={states[-1].t:.3g}"
        )
    return states[-1].position


class TaylorScalarResult(NamedTuple):
    derivative_residual: float
    f_prime: float
    f_second: float


class TaylorVectorResult(NamedTuple):
    first_residual: float
    second_residual: float
    first: np.ndarray
    second: np.ndarray


def taylor_checks(
    chart: Chart, xi: FieldSpec, x, v
) -> tuple[TaylorScalarResult, TaylorVectorResult]:
    """The scalar and vector Taylor checks at a zero x of xi, from its 2-jet.

    Scalar: |f'(0) - phi(x)| for f(t) = g(xi, c'(t)).  Vector: xi'(0) =
    nabla_v xi against phi(x) v + (1/2) d(xi^flat)(v) raised by the metric,
    and xi''(0) against 2 dphi(v) v - grad phi, both in the parallel
    orthonormal frame at x.  The derivatives are exact jet formulas, which
    take xi(x) = 0.
    """
    chart.require_interior(x)
    x = np.asarray(x, dtype=float)
    fd = field_data(chart, xi, x, 2)
    g = fd.conn.g
    if not norm_vector(g, fd.value) < _ZERO_TOL:
        raise ValueError("taylor_checks requires a zero of the field")
    v = np.asarray(v, dtype=float)
    speed = _speed(g, v)
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"taylor_checks needs a finite nonzero direction, got speed {speed}")
    v = v / speed
    frame0 = complete_orthonormal_frame(g, v)
    Gam = fd.conn.Gam
    dg_v = fd.conn.dg @ v  # (d_v g)_ij
    acc = -np.einsum("kij,i,j->k", Gam, v, v)  # c''(0)
    dframe = -np.einsum("kij,i,aj->ak", Gam, v, frame0)  # E'(0)
    X1 = fd.jac @ v
    X2 = np.einsum("kij,i,j->k", fd.hess, v, v) + fd.jac @ acc

    f1 = float(X1 @ g @ v)
    f2 = float(X2 @ g @ v + 2.0 * X1 @ dg_v @ v + 2.0 * X1 @ g @ acc)
    scalar = TaylorScalarResult(abs(f1 - fd.phi), f1, f2)

    d1 = frame0 @ g @ X1
    d2 = 2.0 * dframe @ g @ X1 + 2.0 * frame0 @ dg_v @ X1 + frame0 @ g @ X2
    # (v -| d xi)_j = v^i M[i, j] and (phi v)_j = phi g_jk v^k; raise the
    # covector and take frame components
    first_target = frame0 @ (fd.phi * (g @ v) + 0.5 * (fd.M.T @ v))
    second_target = frame0 @ g @ (2.0 * float(fd.dphi @ v) * v - fd.conn.ginv @ fd.dphi)
    vector = TaylorVectorResult(float(np.linalg.norm(d1 - first_target)),
                                float(np.linalg.norm(d2 - second_target)), d1, d2)
    return scalar, vector


def taylor_scalar_check(chart: Chart, xi: FieldSpec, x, v) -> TaylorScalarResult:
    """The scalar result of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(chart, xi, x, v)[0]


def taylor_vector_check(chart: Chart, xi: FieldSpec, x, v) -> TaylorVectorResult:
    """The vector result of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(chart, xi, x, v)[1]


def dxi_identity_residual(chart: Chart, xi: FieldSpec, p, X):
    """Residual of nabla_X d(xi^flat) = 2 R_{X,xi} + 2 dphi ^ X at p.

    ``p`` and ``X`` are one point and direction, giving a float, or (m, n)
    arrays of them, giving m residuals from one batched evaluation.  All
    three terms are evaluated from exact jets; for a conformal field the
    residual is at rounding level, and this is the main consistency check
    tying the curvature sign convention to the rest of the package.
    """
    chart.require_interior(p)
    X = np.asarray(X, dtype=float)
    fd = field_data(chart, xi, p, 2)
    cd = fd.conn
    val, jac, hess = fd.value, fd.jac, fd.hess
    g, dg, d2g = cd.g, cd.dg, cd.d2g

    # d_k of M[i, j] from d_k d_i omega_j with omega_j = g_jl xi^l, not from
    # the covariant Hessian: PP[k, i, j] = d_k d_i omega_j
    PP = (
        np.einsum("...jlik,...l->...kij", d2g, val)
        + np.einsum("...jli,...lk->...kij", dg, jac)
        + np.einsum("...jlk,...li->...kij", dg, jac)
        + np.einsum("...jl,...lik->...kij", g, hess)
    )
    M = fd.M
    dM = PP - PP.swapaxes(-1, -2)  # dM[k, i, j] = d_k M_ij
    nabla_M = np.einsum("...k,...kij->...ij", X, dM)
    nabla_M -= np.einsum("...k,...lki,...lj->...ij", X, cd.Gam, M)
    nabla_M -= np.einsum("...k,...lkj,...il->...ij", X, cd.Gam, M)

    curv = 2.0 * np.einsum("...a,...b,...abij->...ij", X, val, cd.riemann_lowered)

    Xflat = np.einsum("...ij,...j->...i", g, X)
    outer = fd.dphi[..., :, None] * Xflat[..., None, :]
    wedge = 2.0 * (outer - outer.swapaxes(-1, -2))

    return norm_2form(cd.ginv, nabla_M - curv - wedge)
