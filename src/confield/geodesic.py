"""Geodesics, and the pointwise identities of a conformal field.

``taylor_checks`` tests the expansion of a conformal field xi along the
unit-speed geodesic c(t) = exp_x(tv) from each zero x of an (m, n) stack,
each with its own direction v, from the zeros' one
:func:`~confield.geometry.field_data` record, which zero classification
reads too.  At a zero the covariant derivatives of xi satisfy

* nabla_v xi = phi(x) v + (1/2) d(xi^flat)(v)^sharp, as nabla xi = A + phi I
  with A = (1/2) d(xi^flat)^sharp skew;
* nabla^2 xi(v, v) = 2 dphi_x(v) v - |v|^2 grad phi_x.

Both sides come from that record: the left sides are ``N v`` and
``H(v, v)``, the right sides are formed from phi, dphi and d(xi^flat).
Along a geodesic, nabla_t (xi o c) = nabla_{c'} xi and nabla_t^2 (xi o c)
= nabla^2 xi(c', c') + nabla_{nabla_t c'} xi, whose last term vanishes, so
the left sides are exactly the first two derivatives of xi o c at t = 0:
in a parallel orthonormal frame E(t) they are the derivatives of the
components E g xi, and f(t) = g(xi, c'(t)) has f' = g(nabla_v xi, v) and
f'' = g(nabla^2 xi(v, v), v).

Geodesics themselves are integrated by ``integrate_geodesic``, a fixed-step
classical RK4 scheme on the first-order system (x, v) together with a
parallel orthonormal frame, one geodesic from one point per call, which
evaluates the stacked routines on stacks of one; ``exp_map`` sits on top
of it.  No analysis calls them.  They stay as the independent reference
that the tests hold the jet formulas against, and as layer boundaries of
the benchmark's tracer.

``dxi_identity_residual`` checks the pointwise curvature identity

    nabla_X d(xi^flat) = 2 R_{X, xi} + 2 dphi ^ X

where R_{X, xi} is the 2-form (Y, Z) -> g(R(X, xi)Y, Z) and
(dphi ^ X)(Y, Z) = dphi(Y) g(X, Z) - dphi(Z) g(X, Y), read from a
``field_data`` record, with an (m, n) array of directions.  The left side
is the skew part of g(nabla^2 xi(X, .), .), the record's covariant Hessian
H.  R(X, xi) comes from Gamma and its derivatives already contracted with
X and xi, d_X Gamma_xi - d_xi Gamma_X + [Gamma_X, Gamma_xi] with Gamma_X =
Gamma(X, .), so the 4-index curvature tensor is never formed.  This identity pins down every
sign convention in the package at once, so it is exercised over the whole
model catalog in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    Chart,
    FieldData,
    christoffel_matrix,
    complete_orthonormal_frame,
    matvec,
    metric_factor,
    metric_jets,
    norm_2form,
    norm_or_nan,
    norm_vector,
    require_zeros,
    vecmat,
)

__all__ = [
    "DomainExitError",
    "GeodesicState",
    "integrate_geodesic",
    "exp_map",
    "taylor_checks",
    "TaylorResiduals",
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
    Gam = christoffel_matrix(chart, x[None, :])[0]
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
    g = metric_jets(chart, x[None, :], 0)[0]
    speed = norm_or_nan(g, v[None, :])[0]
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"initial velocity must be finite and nonzero, got speed {speed}")
    v = v / speed
    if initial_frame is None:
        frame = complete_orthonormal_frame(metric_factor(g), v[None, :])[0]
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
    g = metric_jets(chart, x[None, :], 0)[0]
    length = norm_or_nan(g, v[None, :])[0]
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


class TaylorResiduals(NamedTuple):
    """The residuals of :func:`taylor_checks`, one (m,) array each."""

    scalar: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _along(T: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contract the last index of a k-index tensor T with w: k - 1 indices.
    T and w share their leading batch axes."""
    return matvec(T.reshape(w.shape[:-1] + (-1, w.shape[-1])), w).reshape(T.shape[:-1])


def taylor_checks(jets: FieldData, v) -> TaylorResiduals:
    """The scalar and vector Taylor residuals at an (m, n) stack of zeros
    of xi, read from ``jets``, their :func:`~confield.geometry.field_data`
    record, with row k of the (m, n) directions ``v`` at zero k.  A row
    that is not a zero raises ``ValueError`` naming it
    (:func:`~confield.geometry.require_zeros`).

    The record's N v = nabla xi(v) and H(v, v) = nabla^2 xi(v, v) are
    chart vectors at x: along the unit-speed geodesic c(t) = exp_x(tv) they
    are nabla_t (xi o c) and nabla_t^2 (xi o c) at t = 0.  ``scalar`` is
    |f' - phi(x)| for f(t) = g(xi, c'(t)), whose derivative is f' =
    g(N v, v); ``first`` and ``second`` are the g-norms of N v - (phi v +
    (1/2) d(xi^flat)(v)^sharp) and of H(v, v) - (2 dphi(v) v - grad phi).
    """
    require_zeros(jets, "taylor_checks")
    g = jets.conn.g
    v = np.asarray(v, dtype=float)
    speed = norm_or_nan(g, v)
    if not np.all(np.isfinite(speed) & (speed > 0)):
        raise ValueError(f"taylor_checks needs a finite nonzero direction, got speed {speed}")
    v = v / speed[:, None]
    first = matvec(jets.N, v)
    second = matvec(_along(jets.H, v), v)
    f1 = (first * matvec(g, v)).sum(axis=-1)

    # (v -| d xi^flat)_j = v^i M[i, j] = -(M v)_j, as M is skew
    first_target = jets.phi[:, None] * v - 0.5 * matvec(jets.conn.ginv, matvec(jets.M, v))
    dphi_v = (jets.dphi * v).sum(axis=-1)[:, None]
    second_target = 2.0 * dphi_v * v - matvec(jets.conn.ginv, jets.dphi)
    return TaylorResiduals(abs(f1 - jets.phi), norm_vector(g, first - first_target),
                           norm_vector(g, second - second_target))


def taylor_scalar_check(jets: FieldData, v) -> np.ndarray:
    """The scalar residuals of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(jets, v).scalar


def taylor_vector_check(jets: FieldData, v) -> tuple:
    """The vector residuals of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(jets, v)[1:]


def dxi_identity_residual(jets: FieldData, X):
    """Residual of nabla_X d(xi^flat) = 2 R_{X,xi} + 2 dphi ^ X at the
    points of ``jets``, their :func:`~confield.geometry.field_data`
    record, with row k of the (m, n) directions ``X`` at point k.

    All three terms are read from the record's exact jets; for a conformal
    field the residual is at rounding level, and this is the main
    consistency check tying the curvature sign convention to the rest of
    the package.  Every term is contracted with X (and R with xi) while it
    has at most three indices, so no 4-index tensor is formed beyond d
    Gamma.
    """
    X = np.asarray(X, dtype=float)
    cd = jets.conn
    val, g = jets.value, np.ascontiguousarray(cd.g)

    # (nabla_X d xi^flat)(e_i, e_j) = g(nabla^2 xi(X, e_i), e_j) - (i <-> j),
    # with G[j, i] = g_jl H[l, X, i], the derivative index of H along X
    G = g @ vecmat(X[..., None, :], jets.H)
    nabla_M = G.swapaxes(-1, -2) - G

    # R(X, xi)^i_j = (d_X Gamma^i_{xi j} - d_xi Gamma^i_{X j}) + [Gam_X, Gam_xi]^i_j,
    # with Gam_X[l, i] = Gamma^l_ik X^k and dG[i, k, l, j] = d_k Gamma^i_lj
    # (symmetric in l, j)
    Gam_X, Gam_xi = _along(cd.Gam, X), _along(cd.Gam, val)
    dG = np.moveaxis(cd.dGam, -1, -3)
    R = (vecmat(X[..., None, :], _along(dG, val)) - vecmat(val[..., None, :], _along(dG, X))
         + Gam_X @ Gam_xi - Gam_xi @ Gam_X)
    # 2 R_{X,xi}(e_i, e_j) = 2 g(R(X, xi) e_i, e_j) = 2 (g R)[j, i]
    curv = 2.0 * (g @ R).swapaxes(-1, -2)

    outer = jets.dphi[..., :, None] * matvec(g, X)[..., None, :]
    wedge = 2.0 * (outer - outer.swapaxes(-1, -2))

    return norm_2form(cd.ginv, nabla_M - curv - wedge)
