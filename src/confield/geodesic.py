"""Geodesics, parallel frames, and derivative identities along geodesics.

Geodesics are integrated with a fixed-step classical RK4 scheme on the
first-order system (x, v) together with a parallel orthonormal frame.  On
top of the integrator sit two Taylor checks used at zeros of a conformal
field xi, both differentiating along the unit-speed geodesic c(t) = exp_x(tv):

* scalar: f(t) = g(xi(c(t)), c'(t)) satisfies f'(0) = phi(x),
* vector: in a parallel frame, xi'(0) = phi(x) v + (1/2) d(xi^flat)(v) and
  xi''(0) = 2 dphi_x(v) v - grad phi_x.

``dxi_identity_residual`` checks the pointwise curvature identity

    nabla_X d(xi^flat) = 2 R_{X, xi} + 2 dphi ^ X

where R_{X, xi} is the 2-form (Y, Z) -> g(R(X, xi)Y, Z) and
(dphi ^ X)(Y, Z) = dphi(Y) g(X, Z) - dphi(Z) g(X, Y).  This identity pins
down every sign convention in the package at once, so it is exercised over
the whole model catalog in the tests.
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
    field_value,
    metric_jets,
    norm_2form,
    norm_vector,
)

__all__ = [
    "DomainExitError",
    "GeodesicState",
    "integrate_geodesic",
    "exp_map",
    "taylor_scalar_check",
    "taylor_vector_check",
    "TaylorScalarResult",
    "TaylorVectorResult",
    "dxi_identity_residual",
]

_BOUNDARY_EPS = 1e-9


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

    The initial velocity is normalized in the metric at x.  A parallel frame
    is carried along, starting from ``initial_frame`` or, by default, from
    an orthonormal frame completing v.  The returned list holds every RK4
    step, starting with the initial state.  If the trajectory exits the
    chart box the list is truncated at the last interior state.
    """
    chart.require_interior(x)
    if steps < 1:
        raise ValueError("steps must be positive")
    x = np.asarray(x, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    g, _, _ = metric_jets(chart, x, 0)
    speed = norm_vector(g, v)
    if speed == 0.0:
        raise ValueError("initial velocity must be nonzero")
    v = v / speed
    frame = (
        np.asarray(initial_frame, dtype=float).copy()
        if initial_frame is not None
        else complete_orthonormal_frame(g, v)
    )
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


def _steps_for(length: float, steps_per_unit: float = 96.0) -> int:
    return max(32, int(math.ceil(abs(length) * steps_per_unit)))


def exp_map(chart: Chart, x, v, steps: int | None = None) -> np.ndarray:
    """Riemannian exponential: endpoint of the geodesic with initial v.

    The integration time is the metric length of v.  Raises
    :class:`DomainExitError` when the geodesic leaves the chart box.
    """
    chart.require_interior(x)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g, _, _ = metric_jets(chart, x, 0)
    length = norm_vector(g, v)
    if length < 1e-16:
        return x.copy()
    nsteps = steps if steps is not None else _steps_for(length)
    states = integrate_geodesic(chart, x, v, length, nsteps)
    if len(states) != nsteps + 1:
        raise DomainExitError(
            f"geodesic from {x.tolist()} exits the chart after t={states[-1].t:.3g}"
        )
    return states[-1].position


def _states_at(chart: Chart, x, v, frame0, ts, steps_per_unit=256.0):
    """Geodesic states at signed nonzero times ts, sharing one initial frame.

    Each sign is integrated once to its longest pending time T, with
    ``_steps_for(T, steps_per_unit)`` steps; every pending time of that sign
    on the run's step grid (a whole multiple of its step) is read off the
    run, and a new run starts only for a time on no earlier grid.  A run cut
    short by the chart box raises :class:`DomainExitError`.

    Negative times are reached by integrating the reversed geodesic; the
    parallel frame along the reversal coincides with the frame of c(-t), so
    frame components of tensors along c are smooth through t = 0.  A state
    at t < 0 carries t and the negated velocity, and the frame as integrated.
    """
    out = {}
    for sign in (1.0, -1.0):
        pending = sorted((t for t in ts if sign * t > 0), key=abs, reverse=True)
        while pending:
            length = abs(pending[0])
            nsteps = _steps_for(length, steps_per_unit)
            states = integrate_geodesic(chart, x, sign * v, length, nsteps,
                                        initial_frame=frame0)
            if len(states) < nsteps + 1:
                raise DomainExitError("geodesic exits the chart inside the stencil")
            missed = []
            for t in pending:
                k = round(abs(t) * nsteps / length)
                if abs(k * length / nsteps - abs(t)) > 1e-12 * length:
                    missed.append(t)
                    continue
                s = states[k]
                out[t] = GeodesicState(t, s.position, sign * s.velocity, s.frame)
            pending = missed
    return out


class TaylorScalarResult(NamedTuple):
    derivative_residual: float
    remainder_order: float
    f_prime: float
    f_second: float


class TaylorVectorResult(NamedTuple):
    first_residual: float
    second_residual: float
    first_fd: np.ndarray
    second_fd: np.ndarray


def _richardson_first(fm2, fm1, fp1, fp2, h):
    # fp1 = f(h), fp2 = f(h/2), fm1 = f(-h), fm2 = f(-h/2)
    d_h = (fp1 - fm1) / (2.0 * h)
    d_h2 = (fp2 - fm2) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _richardson_second(f0, fm2, fm1, fp1, fp2, h):
    s_h = (fp1 - 2.0 * f0 + fm1) / (h * h)
    s_h2 = (fp2 - 2.0 * f0 + fm2) / (0.25 * h * h)
    return (4.0 * s_h2 - s_h) / 3.0


def taylor_scalar_check(
    chart: Chart,
    xi: FieldSpec,
    x,
    v,
    fd_step: float = 1e-3,
    slope_ts=(0.1, 0.05, 0.025, 0.0125),
    zero_tol: float = 1e-6,
) -> TaylorScalarResult:
    """First-derivative and remainder structure of f(t) = g(xi, c'(t)).

    x must be a zero of xi.  Returns |f'(0) - phi(x)| together with the
    empirical order of the remainder f(t) - t f'(0) - t^2/2 f''(0) over
    ``slope_ts``; when the remainder is at noise level the order is inf.
    """
    fd = field_data(chart, xi, x, 1)
    g = fd.conn.g
    if not norm_vector(g, fd.value) < zero_tol:
        raise ValueError("taylor_scalar_check requires a zero of the field")
    v = np.asarray(v, dtype=float)
    v = v / norm_vector(g, v)
    frame0 = complete_orthonormal_frame(g, v)
    h = fd_step
    ts = sorted({h, -h, h / 2, -h / 2, *slope_ts})

    def f_of(state: GeodesicState) -> float:
        gp, _, _ = metric_jets(chart, state.position, 0)
        return float(field_value(xi, state.position) @ gp @ state.velocity)

    states = _states_at(chart, x, v, frame0, ts)
    fvals = {t: f_of(s) for t, s in states.items()}
    f0 = float(fd.value @ g @ v)
    d1 = _richardson_first(fvals[-h / 2], fvals[-h], fvals[h], fvals[h / 2], h)
    d2 = _richardson_second(f0, fvals[-h / 2], fvals[-h], fvals[h], fvals[h / 2], h)

    remainders = []
    scale = 1.0
    for t in slope_ts:
        ft = fvals[t]
        scale = max(scale, abs(ft))
        remainders.append(abs(ft - t * d1 - 0.5 * t * t * d2))
    remainders = np.asarray(remainders)
    if remainders.max() < 1e-10 * scale:
        order = math.inf
    else:
        logs_t = np.log(np.asarray(slope_ts, dtype=float))
        logs_r = np.log(np.maximum(remainders, 1e-300))
        order = float(np.polyfit(logs_t, logs_r, 1)[0])
    return TaylorScalarResult(abs(d1 - fd.phi), order, float(d1), float(d2))


def taylor_vector_check(
    chart: Chart,
    xi: FieldSpec,
    x,
    v,
    fd_step: float = 1e-3,
    zero_tol: float = 1e-6,
) -> TaylorVectorResult:
    """Frame-component derivatives of xi along a geodesic from a zero.

    Compares the finite-differenced xi'(0) = nabla_v xi with
    phi(x) v + (1/2) d(xi^flat)(v) raised by the metric, and xi''(0) with
    2 dphi(v) v - grad phi, both expressed in the parallel orthonormal
    frame at x.
    """
    x = np.asarray(x, dtype=float)
    fd = field_data(chart, xi, x, 2)
    g = fd.conn.g
    if not norm_vector(g, fd.value) < zero_tol:
        raise ValueError("taylor_vector_check requires a zero of the field")
    v = np.asarray(v, dtype=float)
    v = v / norm_vector(g, v)
    frame0 = complete_orthonormal_frame(g, v)
    h = fd_step
    ts = [h, -h, h / 2, -h / 2]

    def comps(state: GeodesicState) -> np.ndarray:
        gp, _, _ = metric_jets(chart, state.position, 0)
        return state.frame @ gp @ field_value(xi, state.position)

    states = _states_at(chart, x, v, frame0, ts)
    a = {t: comps(s) for t, s in states.items()}
    a0 = frame0 @ g @ fd.value
    d1 = _richardson_first(a[-h / 2], a[-h], a[h], a[h / 2], h)
    d2 = _richardson_second(a0, a[-h / 2], a[-h], a[h], a[h / 2], h)

    # (v -| d xi)_j = v^i M[i, j] and (phi v)_j = phi g_jk v^k; raise the
    # covector and take frame components
    first_target = frame0 @ (fd.phi * (g @ v) + 0.5 * (fd.M.T @ v))
    second_vec = 2.0 * float(fd.dphi @ v) * v - fd.conn.ginv @ fd.dphi
    second_target = frame0 @ g @ second_vec
    return TaylorVectorResult(
        float(np.linalg.norm(d1 - first_target)),
        float(np.linalg.norm(d2 - second_target)),
        d1,
        d2,
    )


def dxi_identity_residual(chart: Chart, xi: FieldSpec, p, X) -> float:
    """Residual of nabla_X d(xi^flat) = 2 R_{X,xi} + 2 dphi ^ X at p.

    All three terms are evaluated from exact jets; for a conformal field
    the residual is at rounding level, and this is the main consistency
    check tying the curvature sign convention to the rest of the package.
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
        np.einsum("jlik,l->kij", d2g, val)
        + np.einsum("jli,lk->kij", dg, jac)
        + np.einsum("jlk,li->kij", dg, jac)
        + np.einsum("jl,lik->kij", g, hess)
    )
    M = fd.M
    dM = PP - PP.transpose(0, 2, 1)  # dM[k, i, j] = d_k M_ij
    nabla_M = np.einsum("k,kij->ij", X, dM)
    nabla_M -= np.einsum("k,lki,lj->ij", X, cd.Gam, M)
    nabla_M -= np.einsum("k,lkj,il->ij", X, cd.Gam, M)

    curv = 2.0 * np.einsum("a,b,abij->ij", X, val, cd.riemann_lowered)

    Xflat = g @ X
    wedge = 2.0 * (np.outer(fd.dphi, Xflat) - np.outer(Xflat, fd.dphi))

    return norm_2form(cd.ginv, nabla_M - curv - wedge)
