"""Geodesics, and the pointwise identities of a conformal field.

``taylor_checks`` tests the expansion of a conformal field xi along
geodesics from each zero x of an (m, n) stack, from the zeros' one
:func:`~confield.geometry.field_data` record, which zero classification
reads too.  At a zero the covariant derivatives of xi satisfy

* nabla xi = phi I + (1/2) d(xi^flat)^sharp, the second term skew;
* nabla^2 xi(v, w) = dphi_x(v) w + dphi_x(w) v - g(v, w) grad phi_x.

Both sides come from that record: the left sides are ``N`` and ``H``, the
right sides are formed from phi, dphi and d(xi^flat), and each check is
the g-norm of the whole difference tensor, so no direction is drawn.
Along the unit-speed geodesic c(t) = exp_x(tv), nabla_t (xi o c) =
nabla_{c'} xi and nabla_t^2 (xi o c) = nabla^2 xi(c', c') + nabla_{nabla_t
c'} xi, whose last term vanishes, so ``N v`` and ``H(v, v)`` are exactly
the first two derivatives of xi o c at t = 0: in a parallel orthonormal
frame E(t) they are the derivatives of the components E g xi, and f(t) =
g(xi, c'(t)) has f' = g(N v, v) and f'' = g(H(v, v), v).

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
``field_data`` record, as the covariant 3-tensor of its defect over X = e_a.
The left side is the skew part of g(nabla^2 xi(X, .), .), the record's
covariant Hessian H.  R(e_a, xi) comes from Gamma and its derivatives
already contracted with xi, d_a Gamma_xi - d_xi Gamma_a + [Gamma_a,
Gamma_xi] with Gamma_a = Gamma(e_a, .), so the 4-index curvature tensor is
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
    FieldData,
    christoffel_matrix,
    complete_orthonormal_frame,
    matvec,
    metric_factor,
    metric_jets,
    norm_2form,
    norm_or_nan,
    require_zeros,
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

    first: np.ndarray
    second: np.ndarray


def _along(T: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contract the last index of a k-index tensor T with w: k - 1 indices.
    T and w share their leading batch axes."""
    return matvec(T.reshape(w.shape[:-1] + (-1, w.shape[-1])), w).reshape(T.shape[:-1])


def _lowered(g: np.ndarray, T: np.ndarray) -> np.ndarray:
    """gT[i, j, k] = g_il T[l, j, k] over stacks of (n, n, n) tensors T."""
    n = T.shape[-1]
    flat = np.ascontiguousarray(T).reshape(T.shape[:-3] + (n, n * n))
    return (np.ascontiguousarray(g) @ flat).reshape(T.shape)


@np.errstate(over="ignore")
def _norm_3tensor(ginv: np.ndarray, T: np.ndarray) -> np.ndarray:
    """|T| of a stack of covariant 3-tensors, every index raised by ginv,
    one per row; a norm past the float range is inf, as in
    :func:`~confield.geometry.norm_2form`."""
    ginv = np.ascontiguousarray(ginv)
    up = _lowered(ginv, T)
    up = ginv[..., None, :, :] @ up @ ginv[..., None, :, :]
    return np.sqrt(np.maximum((up * T).sum(axis=(-3, -2, -1)), 0.0))


def taylor_checks(jets: FieldData) -> TaylorResiduals:
    """The complete first- and second-order Taylor residuals at an (m, n)
    stack of zeros of xi, read from ``jets``, their
    :func:`~confield.geometry.field_data` record.  A row that is not a zero
    raises ``ValueError`` naming it (:func:`~confield.geometry.require_zeros`).

    ``first`` is |S - phi g|_g, with S the symmetric part of g nabla xi: at
    a zero, N v - (phi v + (1/2) d(xi^flat)(v)^sharp) = g^-1 (S - phi g) v
    for every v, and |S - phi g|_g is half the conformal residual there.
    ``second`` is the g-norm of the tensor H - (dphi (x) I + I (x) dphi -
    grad phi (x) g), whose value at (v, v) is H(v, v) - (2 dphi(v) v -
    |v|^2 grad phi).  Each bounds its residual along any unit direction.
    """
    require_zeros(jets, "taylor_checks")
    cd = jets.conn
    g, dphi = cd.g, jets.dphi
    gN = np.ascontiguousarray(g) @ np.ascontiguousarray(jets.N)
    first = 0.5 * (gN + gN.swapaxes(-1, -2)) - jets.phi[:, None, None] * g
    # lowered by g_il on its first index, the target tensor reads
    # dphi_j g_ik + g_ij dphi_k - dphi_i g_jk
    target = (dphi[:, None, :, None] * g[:, :, None, :] + g[:, :, :, None] * dphi[:, None, None, :]
              - dphi[:, :, None, None] * g[:, None, :, :])
    return TaylorResiduals(norm_2form(cd.ginv, first),
                           _norm_3tensor(cd.ginv, _lowered(g, jets.H) - target))


def taylor_scalar_check(jets: FieldData) -> np.ndarray:
    """The ``first`` residuals of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(jets).first


def taylor_vector_check(jets: FieldData) -> TaylorResiduals:
    """The residuals of :func:`taylor_checks`; bench/tracer.py wraps this name."""
    return taylor_checks(jets)


def dxi_identity_residual(jets: FieldData) -> np.ndarray:
    """|E|_g at the points of ``jets``, their
    :func:`~confield.geometry.field_data` record, where E is the covariant
    3-tensor

        E(X, Y, Z) = (nabla_X d(xi^flat) - 2 R_{X,xi} - 2 dphi ^ X)(Y, Z),

    with every index raised by g^-1 in the norm: its value along any
    direction X is at most |X|_g |E|_g.

    All three terms are read from the record's exact jets; for a conformal
    field the residual is at rounding level, and this is the main
    consistency check tying the curvature sign convention to the rest of
    the package.  R is contracted with xi while it has three indices, so no
    4-index tensor is formed beyond d Gamma.
    """
    cd = jets.conn
    val, g = jets.value, np.ascontiguousarray(cd.g)
    n, batch = val.shape[-1], val.shape[:-1]

    # R(e_a, xi)^l_i = d_a Gamma^l_{i xi} - d_xi Gamma^l_{a i} + [Gam_a, Gam_xi]^l_i,
    # with Gam_a[l, i] = Gamma^l_ai, at [l, a, i]: the d Gamma terms come from
    # dG[l, a, i, k] = d_a Gamma^l_ik and dGam[l, a, i, k] = d_k Gamma^l_ai
    Gam_xi = _along(cd.Gam, val)
    Gam = np.ascontiguousarray(cd.Gam)
    R = (_along(np.moveaxis(cd.dGam, -1, -3), val) - _along(cd.dGam, val)
         + (Gam.reshape(batch + (n * n, n)) @ Gam_xi).reshape(Gam.shape)
         - (Gam_xi @ Gam.reshape(batch + (n, n * n))).reshape(Gam.shape))

    # Lowered by g on the first index, at [j, a, i]: gH[j, a, i] =
    # g(nabla^2 xi(e_a, e_i), e_j), gR[j, a, i] = g(R(e_a, xi) e_i, e_j) and
    # o[j, a, i] = dphi_j g_ai.  With B = gH + 2 o,
    # E(e_a, e_i, e_j) = B[j, a, i] - B[i, a, j] - 2 gR[j, a, i],
    # held at [i, a, j]: the norm raises every index alike
    B = _lowered(g, jets.H) + 2.0 * jets.dphi[..., :, None, None] * g[..., None, :, :]
    return _norm_3tensor(cd.ginv, (B - 2.0 * _lowered(g, R)).swapaxes(-3, -1) - B)

