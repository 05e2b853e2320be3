"""Geodesics, parallel frames, and derivative identities along geodesics.

``taylor_checks`` tests the expansion of a conformal field xi along the
unit-speed geodesic c(t) = exp_x(tv) from a zero x, or from each row of an
(m, n) stack of zeros with its own direction, in one order-2 evaluation:

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
(dphi ^ X)(Y, Z) = dphi(Y) g(X, Z) - dphi(Z) g(X, Y), at one point (with
the bits of the batch of one holding it) or over (m, n) arrays of points
and directions.  R(X, xi) comes from Gamma and its derivatives already
contracted with X and xi, d_X Gamma_xi - d_xi Gamma_X + [Gamma_X,
Gamma_xi] with Gamma_X = Gamma(X, .), so the 4-index curvature tensor is
never formed.  This identity pins down every sign convention in the
package at once, so it is exercised over the whole model catalog in the
tests.
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
    matvec,
    metric_factor,
    metric_jets,
    norm_2form,
    norm_or_nan,
    norm_vector,
    vecmat,
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
    speed = norm_or_nan(g, v)
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"initial velocity must be finite and nonzero, got speed {speed}")
    v = v / speed
    if initial_frame is None:
        frame = complete_orthonormal_frame(metric_factor(g), v)
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
    length = norm_or_nan(g, v)
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


def _plain(a: np.ndarray) -> float | np.ndarray:
    """A result at one zero as a float, at a stack of zeros as an array."""
    return float(a) if a.ndim == 0 else a


def taylor_checks(
    chart: Chart, xi: FieldSpec, x, v
) -> tuple[TaylorScalarResult, TaylorVectorResult]:
    """The scalar and vector Taylor checks at a zero x of xi, from its 2-jet.

    Scalar: |f'(0) - phi(x)| for f(t) = g(xi, c'(t)).  Vector: xi'(0) =
    nabla_v xi against phi(x) v + (1/2) d(xi^flat)(v) raised by the metric,
    and xi''(0) against 2 dphi(v) v - grad phi, both in the parallel
    orthonormal frame at x.  The derivatives are exact jet formulas, which
    take xi(x) = 0.

    ``x`` and ``v`` are one zero and direction, giving floats and (n,)
    arrays, or (m, n) arrays of them, giving (m,) and (m, n) arrays from
    one :func:`~confield.geometry.field_data` call and one stacked frame.
    """
    chart.require_interior(x)
    x = np.asarray(x, dtype=float)
    fd = field_data(chart, xi, x, 2)
    n, batch = chart.dim, x.shape[:-1]
    g = np.ascontiguousarray(fd.conn.g)
    if not np.all(norm_vector(g, fd.value) < _ZERO_TOL):
        raise ValueError("taylor_checks requires a zero of the field")
    v = np.asarray(v, dtype=float)
    speed = norm_or_nan(g, v)
    if not np.all(np.isfinite(speed) & (speed > 0)):
        raise ValueError(f"taylor_checks needs a finite nonzero direction, got speed {speed}")
    v = v / np.asarray(speed)[..., None]
    frame0 = complete_orthonormal_frame(fd.conn.factor, v)
    # Gam_v[k, i] = Gamma^k_ij v^j and (d_v g)_ij = d_k g_ij v^k
    Gam_v = matvec(fd.conn.Gam.reshape(batch + (n * n, n)), v).reshape(batch + (n, n))
    dg_v = matvec(fd.conn.dg.reshape(batch + (n * n, n)), v).reshape(batch + (n, n))
    acc = -matvec(Gam_v, v)  # c''(0)
    dframe = -(frame0 @ Gam_v.swapaxes(-1, -2))  # E'(0)
    X1 = matvec(fd.jac, v)
    hess_v = matvec(fd.hess.reshape(batch + (n * n, n)), v).reshape(batch + (n, n))
    X2 = matvec(hess_v, v) + matvec(fd.jac, acc)

    gv, gX1 = matvec(g, v), matvec(g, X1)
    f1 = (gX1 * v).sum(axis=-1)
    f2 = ((X2 * gv).sum(axis=-1) + 2.0 * (X1 * matvec(dg_v, v)).sum(axis=-1)
          + 2.0 * (gX1 * acc).sum(axis=-1))
    scalar = TaylorScalarResult(_plain(abs(f1 - fd.phi)), _plain(f1), _plain(f2))

    d1 = matvec(frame0, gX1)
    d2 = (2.0 * matvec(dframe, gX1) + 2.0 * matvec(frame0, matvec(dg_v, X1))
          + matvec(frame0, matvec(g, X2)))
    # (v -| d xi)_j = v^i M[i, j] = -(M v)_j, as M is skew, and (phi v)_j =
    # phi g_jk v^k; raise the covector and take frame components
    phi = np.asarray(fd.phi)[..., None]
    first_target = matvec(frame0, phi * gv - 0.5 * matvec(fd.M, v))
    dphi_v = (fd.dphi * v).sum(axis=-1)[..., None]
    second_target = matvec(frame0, matvec(g, 2.0 * dphi_v * v - matvec(fd.conn.ginv, fd.dphi)))
    vector = TaylorVectorResult(_plain(np.linalg.norm(d1 - first_target, axis=-1)),
                                _plain(np.linalg.norm(d2 - second_target, axis=-1)), d1, d2)
    return scalar, vector


def taylor_scalar_check(chart: Chart, xi: FieldSpec, x, v) -> TaylorScalarResult:
    """The scalar result of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(chart, xi, x, v)[0]


def taylor_vector_check(chart: Chart, xi: FieldSpec, x, v) -> TaylorVectorResult:
    """The vector result of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(chart, xi, x, v)[1]


def dxi_identity_residual(chart: Chart, xi: FieldSpec, p, X):
    """Residual of nabla_X d(xi^flat) = 2 R_{X,xi} + 2 dphi ^ X at p.

    ``p`` and ``X`` are one point and direction, giving a float with the
    bits of their batch of one, or (m, n) arrays of them, giving m
    residuals from one batched evaluation.  All three terms are evaluated
    from exact jets; for a conformal field the residual is at rounding
    level, and this is the main consistency check tying the curvature sign
    convention to the rest of the package.  Every term is contracted with
    X (and R with xi) while it has at most three indices, so no 4-index
    tensor is formed beyond d Gamma and d^2 g.
    """
    chart.require_interior(p)
    X = np.asarray(X, dtype=float)
    fd = field_data(chart, xi, p, 2)
    cd = fd.conn
    n, batch = chart.dim, X.shape[:-1]
    val, jac, hess = fd.value, fd.jac, fd.hess
    g, dg, d2g = cd.g, cd.dg, cd.d2g

    def along(T, w):
        """Contract the last index of a k-index tensor T with w: k - 1 indices."""
        return matvec(T.reshape(batch + (-1, n)), w).reshape(T.shape[:-1])

    # Y[j, i] = d_X d_i omega_j with omega_j = g_jl xi^l, not from the
    # covariant Hessian; d2g and dg are symmetric in their first two indices
    Y = (vecmat(val, along(d2g, X).reshape(batch + (n, n * n))).reshape(batch + (n, n))
         + vecmat(matvec(jac, X), dg.reshape(batch + (n, n * n))).reshape(batch + (n, n))
         + along(dg, X) @ np.ascontiguousarray(jac)
         + np.ascontiguousarray(g) @ along(hess, X))
    # Gam_X[l, i] = Gamma^l_ik X^k; with M skew, nabla_X d(xi^flat) = Z^T - Z
    Gam_X, Gam_xi = along(cd.Gam, X), along(cd.Gam, val)
    Z = Y + np.ascontiguousarray(fd.M) @ Gam_X
    nabla_M = Z.swapaxes(-1, -2) - Z

    # R(X, xi)^i_j = (d_X Gamma^i_{xi j} - d_xi Gamma^i_{X j}) + [Gam_X, Gam_xi]^i_j,
    # from dG[i, k, l, j] = d_k Gamma^i_lj (symmetric in l, j)
    dG = np.moveaxis(cd.dGam, -1, -3)
    R = (vecmat(X[..., None, :], along(dG, val)) - vecmat(val[..., None, :], along(dG, X))
         + Gam_X @ Gam_xi - Gam_xi @ Gam_X)
    # 2 R_{X,xi}(e_i, e_j) = 2 g(R(X, xi) e_i, e_j) = 2 (g R)[j, i]
    curv = 2.0 * (np.ascontiguousarray(g) @ R).swapaxes(-1, -2)

    outer = fd.dphi[..., :, None] * matvec(g, X)[..., None, :]
    wedge = 2.0 * (outer - outer.swapaxes(-1, -2))

    return norm_2form(cd.ginv, nabla_M - curv - wedge)
