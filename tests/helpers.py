"""Independent oracles shared by the test modules.

Richardson-extrapolated central differences give independent derivative
values to compare against the exact jet propagation.  Step sizes are tuned
so truncation and rounding error balance near the stated tolerances:
1e-5 for first derivatives (accurate to ~1e-10 relative) and 2e-4 for
second derivatives (accurate to ~1e-7 relative).  The second fundamental
form of a parametrized submanifold takes both from a step of 0.01 in the
parameters, whose derivatives are of order one.

The Taylor derivatives along a geodesic through a zero come from
Richardson differences of RK4 runs of the geodesic, at the step 1e-3.

Besides these: a Gram-Schmidt frame, the conformal connection-change
identity, the symbolic pushforward of a field under the unit inversion,
and a counter of the lanes and steps of each geodesic integration.
"""
from __future__ import annotations

import numpy as np


def fd_partial(f, x, i, h=1e-5):
    """First partial derivative of a scalar function of a point."""
    x = np.asarray(x, dtype=float)

    def shifted(d):
        y = x.copy()
        y[i] += d
        return f(y)

    d_h = (shifted(h) - shifted(-h)) / (2.0 * h)
    d_h2 = (shifted(h / 2) - shifted(-h / 2)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def fd_partial2(f, x, i, j, h=2e-4):
    """Second partial derivative via Richardson-extrapolated stencils."""
    x = np.asarray(x, dtype=float)

    def at(di, dj):
        y = x.copy()
        y[i] += di
        y[j] += dj
        return f(y)

    def raw(step):
        if i == j:
            return (at(step, 0) - 2.0 * at(0, 0) + at(-step, 0)) / (step * step)
        return (
            at(step, step) - at(step, -step) - at(-step, step) + at(-step, -step)
        ) / (4.0 * step * step)

    return (4.0 * raw(h / 2) - raw(h)) / 3.0


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    return np.array([fd_partial(f, x, i, h) for i in range(len(x))])


def flow_pullback_metric(chart, xi, p, t, steps=200):
    """(phi_t^* g) at p for the flow phi_t of xi, via RK4 with variational
    equation for the flow Jacobian.  Oracle for the Lie derivative."""
    from confield.geometry import field_jets, metric_value

    n = chart.dim
    x = np.asarray(p, dtype=float).copy()
    J = np.eye(n)
    h = t / steps

    def rhs(x, J):
        val, jac, _ = field_jets(xi, x, 1)
        return val, jac @ J

    for _ in range(steps):
        k1 = rhs(x, J)
        k2 = rhs(x + 0.5 * h * k1[0], J + 0.5 * h * k1[1])
        k3 = rhs(x + 0.5 * h * k2[0], J + 0.5 * h * k2[1])
        k4 = rhs(x + h * k3[0], J + h * k3[1])
        x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        J = J + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    g_end = metric_value(chart, x)
    return J.T @ g_end @ J


def fd_lie_derivative(chart, xi, p, t=1e-3):
    """Richardson limit of ((phi_t^* g) - g) / t at p."""
    G_p = flow_pullback_metric(chart, xi, p, t)
    G_m = flow_pullback_metric(chart, xi, p, -t)
    d_h = (G_p - G_m) / (2.0 * t)
    G_p2 = flow_pullback_metric(chart, xi, p, t / 2)
    G_m2 = flow_pullback_metric(chart, xi, p, -t / 2)
    d_h2 = (G_p2 - G_m2) / t
    return (4.0 * d_h2 - d_h) / 3.0


def gram_schmidt(g, vectors):
    """g-orthonormal rows from independent rows, by Gram-Schmidt in g.

    Each vector is orthogonalized twice against the rows before it, so row
    a spans the same flag as the first a + 1 inputs.
    """
    basis = []
    for v in np.asarray(vectors, dtype=float):
        for _ in range(2):
            for b in basis:
                v = v - (v @ g @ b) * b
        basis.append(v / np.sqrt(v @ g @ v))
    return np.array(basis)


def fd_second_fundamental_form(chart, mapping, t, h=0.01):
    """Second fundamental form of a parametrized submanifold at parameter t,
    from Richardson-extrapolated differences of the map.

    Returns ``(point, dP, B, H)``: the point, the parameter derivatives
    ``dP[a]``, ``B[a, b] = B(dP_a, dP_b)`` (the normal part of the covariant
    second derivative) and the mean curvature vector.
    """
    from confield.geometry import christoffel_matrix, metric_value, spd_inverse

    t = np.asarray(t, dtype=float)
    k = len(t)
    p = np.asarray(mapping(t), dtype=float)
    g = metric_value(chart, p)
    Gam = christoffel_matrix(chart, p)
    dP = np.stack([fd_partial(mapping, t, a, h) for a in range(k)])
    frame = gram_schmidt(g, dP)
    B = np.empty((k, k, chart.dim))
    for a in range(k):
        for b in range(a, k):
            C = fd_partial2(mapping, t, a, b, h)
            C = C + np.einsum("kij,i,j->k", Gam, dP[a], dP[b])
            B[a, b] = B[b, a] = C - frame.T @ (frame @ g @ C)
    H = np.einsum("ab,abk->k", spd_inverse(dP @ g @ dP.T), B) / k
    return p, dP, B, H


def pointwise_second_fundamental_form(chart, xi, p, k):
    """``(B, frame)`` at one zero set point p from a one-point ``field_data``,
    the per-point path that ``zeroset.second_fundamental_form`` batches."""
    from confield.geometry import field_data, frame_svd

    fd = field_data(chart, xi, np.asarray(p, dtype=float), 2)
    nabla_svd = frame_svd(fd.conn.g, fd.N, "endomorphism")
    frame = nabla_svd.kernel
    assert frame.shape[0] == k
    B = -nabla_svd.solve(np.einsum("ijk,aj,bk->abi", fd.H, frame, frame))
    return 0.5 * (B + B.transpose(1, 0, 2)), frame


def map_patch(chart, xi, mapping, param_axes):
    """Patch of a known zero set of xi, built from its parametrization.

    The tangent basis is the g-orthonormalized parameter derivatives at the
    centre node.
    """
    from confield.geometry import field_norm, metric_value
    from confield.zeroset import SubmanifoldPatch

    param_axes = tuple(np.asarray(a, dtype=float) for a in param_axes)
    k = len(param_axes)
    shape = tuple(len(a) for a in param_axes)
    samples = np.empty(shape + (chart.dim,))
    norms = np.empty(shape)
    for idx in np.ndindex(*shape):
        t = np.array([axis[i] for axis, i in zip(param_axes, idx)])
        samples[idx] = mapping(t)
        norms[idx] = field_norm(chart, xi, samples[idx])
    centre = np.array([axis[len(axis) // 2] for axis in param_axes])
    base = np.asarray(mapping(centre), dtype=float)
    dP = np.stack([fd_partial(mapping, centre, a) for a in range(k)])
    return SubmanifoldPatch(
        chart=chart,
        base=base,
        tangent_basis=gram_schmidt(metric_value(chart, base), dP),
        param_axes=param_axes,
        samples=samples,
        field_norms=norms,
        codim=chart.dim - k,
        mapping=mapping,
        field=xi,
    )


def connection_change_residual(chart, f, p):
    """Defect of the conformal connection-change identity at p.

    Compares Christoffel symbols of e^{2f} g, computed from the rescaled
    expression trees, with Gamma + correction where

        corr^k_ij = delta^k_i d_j f + delta^k_j d_i f - g_ij (grad f)^k.

    The two sides come from independent code paths, so this doubles as a
    self-check of the differentiation engine.
    """
    from confield.conformal import rescale_metric
    from confield.expr import eval_jet
    from confield.geometry import connection_data

    cd = connection_data(chart, p, 1)
    df = eval_jet(f.expr, p, 1).d1
    gradf = cd.ginv @ df
    Gam_rescaled = connection_data(rescale_metric(chart, f), p, 1).Gam
    eye = np.eye(chart.dim)
    corr = (
        np.einsum("ki,j->kij", eye, df)
        + np.einsum("kj,i->kij", eye, df)
        - np.einsum("ij,k->kij", cd.g, gradf)
    )
    return float(np.sqrt(np.sum((Gam_rescaled - cd.Gam - corr) ** 2)))


def substitute(expr, replacements):
    """Replace coordinates by expressions (indices are zero based).

    Unreplaced subtrees are returned as the same objects.
    """
    from confield.expr import Add, Const, Div, Fun, Mul, Neg, Pow, Var

    if isinstance(expr, Var):
        return replacements.get(expr.index, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, (Add, Mul, Div)):
        left = substitute(expr.left, replacements)
        right = substitute(expr.right, replacements)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(left, right)
    if isinstance(expr, Neg):
        arg = substitute(expr.arg, replacements)
        return expr if arg is expr.arg else Neg(arg)
    if isinstance(expr, Fun):
        arg = substitute(expr.arg, replacements)
        return expr if arg is expr.arg else Fun(expr.name, arg)
    if isinstance(expr, Pow):
        base = substitute(expr.base, replacements)
        return expr if base is expr.base else Pow(base, expr.exponent)
    raise TypeError(f"not an Expr node: {expr!r}")


def _sum_of_squares(dim):
    from confield.expr import parse

    return parse(" + ".join(f"x{k}^2" for k in range(1, dim + 1)), dim)


def inversion_transition(dim):
    """Component expressions of the unit inversion x -> x / |x|^2."""
    from confield.expr import Div, Var

    r2 = _sum_of_squares(dim)
    return tuple(Div(Var(k), r2) for k in range(dim))


def pushforward_under_inversion(xi):
    """Conjugate a coordinate field by the unit inversion, symbolically.

    With s(x) = x / |x|^2 (its own inverse), the result at y is
    J_s(s(y)) xi(s(y)), where J_s(x) = (|x|^2 I - 2 x x^T) / |x|^4.  The
    returned components are exact expression trees; they may be singular
    at the origin even when the input is not, and vice versa.
    """
    from confield.expr import Add, Const, Div, Mul, Neg, Pow, Var
    from confield.geometry import FieldSpec

    n = xi.chart.dim
    r4 = Pow(_sum_of_squares(n), 2)
    subs = dict(enumerate(inversion_transition(n)))
    comps = []
    for i in range(n):
        total = None
        for j, comp_j in enumerate(xi.components):
            cross = Mul(Const(2.0), Mul(Var(i), Var(j)))
            numerator = Add(_sum_of_squares(n), Neg(cross)) if i == j else Neg(cross)
            term = Mul(Div(numerator, r4), comp_j)
            total = term if total is None else Add(total, term)
        comps.append(substitute(total, subs))
    return FieldSpec.vector(xi.chart, comps, name=f"inverted_{xi.name}")


def counting_lanes(monkeypatch):
    """Patch ``geodesic.integrate_geodesic`` to record, per call, the steps
    of each lane; returns the list the calls are appended to."""
    import confield.geodesic as geodesic

    calls = []
    integrate = geodesic.integrate_geodesic

    def counting(*args, **kwargs):
        states = integrate(*args, **kwargs)
        lanes = states[0].position.shape[:-1]
        calls.append([len(states) - 1] * (lanes[0] if lanes else 1))
        return states

    monkeypatch.setattr(geodesic, "integrate_geodesic", counting)
    return calls


def rk4_taylor_derivatives(chart, xi, x, v, h=1e-3, steps=32):
    """``(f', f'', a', a'')`` at t = 0 along the unit-speed geodesic c from x
    in direction v, for f(t) = g(xi, c'(t)) and the components a(t) of xi
    (lowered) in the parallel frame that starts at
    ``complete_orthonormal_frame(g, v)``.

    The states at t = +-h and +-h/2 come from two RK4 lanes of ``steps``
    steps, to h and to -h, integrated in one call; the derivatives are
    Richardson limits of central differences.  A negative time is reached
    along the reversed geodesic, whose parallel frame is the frame of c(-t),
    so its velocity is negated and its frame kept.
    """
    from confield.geodesic import integrate_geodesic
    from confield.geometry import (complete_orthonormal_frame, field_value,
                                   metric_value, norm_vector)

    x = np.asarray(x, dtype=float)
    g = metric_value(chart, x)
    v = np.asarray(v, dtype=float)
    v = v / norm_vector(g, v)
    frame0 = complete_orthonormal_frame(g, v)
    signs = np.array([[1.0], [-1.0]])
    states = integrate_geodesic(chart, np.tile(x, (2, 1)), signs * v, h, steps,
                                initial_frame=frame0)
    assert len(states) == steps + 1, "the stencil leaves the chart"
    f, a = {}, {}
    for t, state, lane in ((0.0, states[0], 0), (h, states[-1], 0), (-h, states[-1], 1),
                           (h / 2, states[steps // 2], 0), (-h / 2, states[steps // 2], 1)):
        p = state.position[lane]
        gp, xi_t = metric_value(chart, p), field_value(xi, p)
        f[t] = float(xi_t @ gp @ (signs[lane, 0] * state.velocity[lane]))
        a[t] = state.frame[lane] @ gp @ xi_t

    def first(d):
        return (4.0 * (d[h / 2] - d[-h / 2]) / h - (d[h] - d[-h]) / (2.0 * h)) / 3.0

    def second(d):
        s_h = (d[h] - 2.0 * d[0.0] + d[-h]) / (h * h)
        s_h2 = (d[h / 2] - 2.0 * d[0.0] + d[-h / 2]) / (0.25 * h * h)
        return (4.0 * s_h2 - s_h) / 3.0

    return first(f), second(f), first(a), second(a)
