"""Geodesics, parallel frames, and derivative identities along geodesics.

Geodesics are integrated with a fixed-step classical RK4 scheme on the
first-order system (x, v) together with a parallel orthonormal frame.  The
integrator runs one geodesic, or several lanes in lockstep: x, v and the
frame then carry a leading lane axis, and every step evaluates the
connection of all lanes in one batched call.  On top of it sits
``taylor_checks``, which differentiates along the unit-speed geodesic
c(t) = exp_x(tv) from a zero x of a conformal field xi:

* scalar: f(t) = g(xi(c(t)), c'(t)) satisfies f'(0) = phi(x),
* vector: in a parallel frame, xi'(0) = phi(x) v + (1/2) d(xi^flat)(v) and
  xi''(0) = 2 dphi_x(v) v - grad phi_x.

Both are read off one pass: one order-2 jet at x, and the states at
t = +-h, +-h/2 (h = 1e-3, for Richardson derivatives) and at the slope times
0.1, 0.05, 0.025, 0.0125 (for the remainder order), taken from 3 RK4 runs of
32 steps, to 0.1, h and -h, integrated as 3 lanes of one call.  One batched
evaluation of g and xi at the states gives f(t) and xi's frame components.

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
    "taylor_checks",
    "TaylorScalarResult",
    "TaylorVectorResult",
    "dxi_identity_residual",
]

_BOUNDARY_EPS = 1e-9
# The Taylor stencil: the Richardson step and the times the remainder order
# is fitted over; and how small |xi|_g must be at a zero.
_FD_STEP = 1e-3
_SLOPE_TS = (0.1, 0.05, 0.025, 0.0125)
_ZERO_TOL = 1e-6
# The stencil's runs: lanes of _STENCIL_STEPS RK4 steps, each (sign, length,
# ((stencil time, the step it is read at), ...)).  Every time is a whole
# multiple of its lane's step.
_STENCIL_STEPS = 32
_STENCIL_LANES = (
    (1.0, 0.1, ((0.1, 32), (0.05, 16), (0.025, 8), (0.0125, 4))),
    (1.0, _FD_STEP, ((_FD_STEP, 32), (_FD_STEP / 2, 16))),
    (-1.0, _FD_STEP, ((-_FD_STEP, 32), (-_FD_STEP / 2, 16))),
)


class DomainExitError(RuntimeError):
    """A geodesic left the chart box before reaching its target time."""


@dataclass(frozen=True, eq=False)
class GeodesicState:
    """Snapshot along a geodesic; frame rows are parallel unit vectors.

    For lanes, every field carries the leading lane axis.
    """

    t: float
    position: np.ndarray
    velocity: np.ndarray
    frame: np.ndarray


def _speed(g: np.ndarray, v: np.ndarray):
    """|v|_g per lane, or NaN for a lane whose v is not finite, which then
    enters no product; a float for one vector."""
    n = v.shape[-1]
    speeds = [norm_vector(gl, vl) if np.isfinite(vl).all() else math.nan
              for gl, vl in zip(g.reshape(-1, n, n), v.reshape(-1, n))]
    return np.reshape(speeds, v.shape[:-1])[()]


def _rhs(chart: Chart, x, v, frame):
    Gam = christoffel_matrix(chart, x)
    acc = -np.einsum("...kij,...i,...j->...k", Gam, v, v)
    dframe = -np.einsum("...kij,...i,...aj->...ak", Gam, v, frame)
    return v, acc, dframe


def integrate_geodesic(
    chart: Chart,
    x,
    v,
    length,
    steps: int,
    initial_frame: np.ndarray | None = None,
) -> list[GeodesicState]:
    """Unit-speed geodesic from x in direction v, integrated to ``length``.

    x and v are one point and vector, or (L, n) arrays of L lanes stepped in
    lockstep; ``length`` is a scalar or one length per lane, so each lane
    has its own step size.  The initial velocity is normalized in the
    metric at x.  A parallel frame is carried along, starting from
    ``initial_frame`` (shared by the lanes, or one per lane) or, by default,
    from an orthonormal frame completing v.  The returned list holds every
    RK4 step, starting with the initial state.  If a trajectory exits the
    chart box the list is truncated at the last state at which every lane
    is interior.
    """
    chart.require_interior(x)
    if steps < 1:
        raise ValueError("steps must be positive")
    x = np.asarray(x, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    g, _, _ = metric_jets(chart, x, 0)
    speed = _speed(g, v)
    if not np.all(np.isfinite(speed) & (speed > 0)):
        raise ValueError(f"initial velocity must be finite and nonzero, got speed {speed}")
    v = v / np.asarray(speed)[..., None]
    n = chart.dim
    if initial_frame is not None:
        frame = np.broadcast_to(np.asarray(initial_frame, dtype=float), v.shape + (n,)).copy()
    else:
        frame = np.reshape([complete_orthonormal_frame(gl, vl) for gl, vl in
                            zip(g.reshape(-1, n, n), v.reshape(-1, n))], v.shape + (n,))
    step = np.asarray(length, dtype=float) / steps
    h, hf = step[..., None], step[..., None, None]  # for vectors and frames
    states = [GeodesicState((0.0 * step)[()], x.copy(), v.copy(), frame.copy())]
    for k in range(steps):
        k1 = _rhs(chart, x, v, frame)
        x2 = x + 0.5 * h * k1[0]
        if not chart.contains(x2, _BOUNDARY_EPS):
            break
        k2 = _rhs(chart, x2, v + 0.5 * h * k1[1], frame + 0.5 * hf * k1[2])
        x3 = x + 0.5 * h * k2[0]
        if not chart.contains(x3, _BOUNDARY_EPS):
            break
        k3 = _rhs(chart, x3, v + 0.5 * h * k2[1], frame + 0.5 * hf * k2[2])
        x4 = x + h * k3[0]
        if not chart.contains(x4, _BOUNDARY_EPS):
            break
        k4 = _rhs(chart, x4, v + h * k3[1], frame + hf * k3[2])
        x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        frame = frame + (hf / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not chart.contains(x, _BOUNDARY_EPS):
            break
        states.append(GeodesicState(((k + 1) * step)[()], x.copy(), v.copy(), frame.copy()))
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


def _stencil_states(chart: Chart, x, v, frame0) -> dict:
    """The geodesic states of the Taylor stencil, by time, sharing one initial
    frame: the lanes of ``_STENCIL_LANES`` integrated in one call.  A lane
    cut short by the chart box raises :class:`DomainExitError`.

    Negative times are reached by integrating the reversed geodesic; the
    parallel frame along the reversal coincides with the frame of c(-t), so
    frame components of tensors along c are smooth through t = 0.  A state
    at t < 0 carries t and the negated velocity, and the frame as integrated.
    """
    signs = np.array([[sign] for sign, _, _ in _STENCIL_LANES])
    states = integrate_geodesic(chart, np.tile(x, (len(signs), 1)), signs * v,
                                [length for _, length, _ in _STENCIL_LANES],
                                _STENCIL_STEPS, initial_frame=frame0)
    if len(states) < _STENCIL_STEPS + 1:
        raise DomainExitError("geodesic exits the chart inside the stencil")
    out = {}
    for lane, (sign, _, reads) in enumerate(_STENCIL_LANES):
        for t, k in reads:
            s = states[k]
            out[t] = GeodesicState(t, s.position[lane], sign * s.velocity[lane],
                                   s.frame[lane])
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


def taylor_checks(
    chart: Chart, xi: FieldSpec, x, v
) -> tuple[TaylorScalarResult, TaylorVectorResult]:
    """The scalar and vector Taylor checks at a zero x of xi, in one pass.

    Scalar: |f'(0) - phi(x)| for f(t) = g(xi, c'(t)), and the empirical
    order of the remainder f(t) - t f'(0) - t^2/2 f''(0) over the slope
    times; when the remainder is at noise level the order is inf.  Vector:
    the finite-differenced xi'(0) = nabla_v xi against
    phi(x) v + (1/2) d(xi^flat)(v) raised by the metric, and xi''(0) against
    2 dphi(v) v - grad phi, both in the parallel orthonormal frame at x.
    """
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
    h = _FD_STEP
    states = _stencil_states(chart, x, v, frame0)
    points = np.array([state.position for state in states.values()])
    gs, _, _ = metric_jets(chart, points, 0)
    f, a = {}, {}
    for (t, state), gp, xi_t in zip(states.items(), gs, field_value(xi, points)):
        f[t] = float(xi_t @ gp @ state.velocity)
        a[t] = state.frame @ gp @ xi_t

    f0 = float(fd.value @ g @ v)
    f1 = _richardson_first(f[-h / 2], f[-h], f[h], f[h / 2], h)
    f2 = _richardson_second(f0, f[-h / 2], f[-h], f[h], f[h / 2], h)
    remainders = np.array([abs(f[t] - t * f1 - 0.5 * t * t * f2) for t in _SLOPE_TS])
    if remainders.max() < 1e-10 * max(1.0, *(abs(f[t]) for t in _SLOPE_TS)):
        order = math.inf
    else:
        logs_r = np.log(np.maximum(remainders, 1e-300))
        order = float(np.polyfit(np.log(_SLOPE_TS), logs_r, 1)[0])
    scalar = TaylorScalarResult(abs(f1 - fd.phi), order, float(f1), float(f2))

    a0 = frame0 @ g @ fd.value
    d1 = _richardson_first(a[-h / 2], a[-h], a[h], a[h / 2], h)
    d2 = _richardson_second(a0, a[-h / 2], a[-h], a[h], a[h / 2], h)
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
