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

The recursive tree walk that evaluated jets before expressions were
compiled to tapes is kept as the reference evaluator: the tape must give
the same jets, bit for bit.

The einsum bodies that computed the connection, the field tensors, the
curvature and the derivative identity before these became stacked matrix
products are kept as their reference, to rounding; so are L_xi g from the
covariant derivative and the conformal residual built on it, which the
1-jet formula replaced, and the report writer ``json.dumps`` of plain
values, which the one-pass writer replaced, byte for byte.

Besides these: |xi|_g from the order-0 jets of the metric and the field,
``classify_zero`` and ``trace_component`` at points given as
coordinates, the reports of the benchmark's manifests, a Gram-Schmidt
frame, the conformal connection-change identity, the symbolic pushforward
of a field under the unit inversion, a recorder of the calls of a function
through every confield binding, a counter of the steps of each geodesic
integration, and the conformal fields of a flat chart as elements of the Moebius algebra
so(n+1, 1), with their zeros and verdicts read off the matrix.
"""
from __future__ import annotations

import functools
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from confield.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    Fun,
    Jet,
    Mul,
    Neg,
    Pow,
    Var,
    _fun_coeffs,
    _jadd,
    _jcompose,
    _jmul,
    _jneg,
    _pow_coeffs,
    _reciprocal_coeffs,
    parse,
)
from confield.essential import classify_zero
from confield.geometry import Chart, field_data


def _leaf(value, n, order, index=None):
    """A constant's jet, or with ``index`` a coordinate's, built afresh with
    a trailing batch axis of length 1."""
    d1 = np.zeros((n, 1)) if order >= 1 else None
    d2 = np.zeros((n, n, 1)) if order >= 2 else None
    if index is not None and order >= 1:
        d1[index] = 1.0
    return Jet(order, value, d1, d2)


def _jet_of(node, point: list, order: int, memo: dict) -> Jet:
    """The recursive tree evaluator.

    ``point`` lists the n coordinates of a batch of points, as
    equal-length column arrays, at any order.  ``memo`` maps node identity
    to its jet, so shared subtrees are evaluated once.
    """
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    n = len(point)
    try:
        if isinstance(node, Const):
            j = _leaf(node.value, n, order)
        elif isinstance(node, Var):
            if node.index >= n:
                raise EvalDomainError(
                    f"variable x{node.index + 1} exceeds point dimension {n}", node
                )
            j = _leaf(point[node.index], n, order, node.index)
        elif isinstance(node, Add):
            j = _jadd(_jet_of(node.left, point, order, memo),
                      _jet_of(node.right, point, order, memo))
        elif isinstance(node, Mul):
            j = _jmul(_jet_of(node.left, point, order, memo),
                      _jet_of(node.right, point, order, memo))
        elif isinstance(node, Div):
            num = _jet_of(node.left, point, order, memo)
            den = _jet_of(node.right, point, order, memo)
            j = _jmul(num, _jcompose(den, _reciprocal_coeffs(den.value, order, node)))
        elif isinstance(node, Neg):
            j = _jneg(_jet_of(node.arg, point, order, memo))
        elif isinstance(node, Pow):
            base = _jet_of(node.base, point, order, memo)
            j = _jcompose(base, _pow_coeffs(base.value, node.exponent, order, node))
        elif isinstance(node, Fun):
            arg = _jet_of(node.arg, point, order, memo)
            j = _jcompose(arg, _fun_coeffs(node.name, arg.value, order, node))
        else:
            raise TypeError(f"not an Expr node: {node!r}")
    except (OverflowError, FloatingPointError):
        raise EvalDomainError("value beyond the floating-point range", node) from None
    memo[id(node)] = j
    return j


def reference_jets(exprs, points, order: int = 0) -> list:
    """``eval_jets`` by the recursive walk, at an (m, n) batch of points."""
    columns = list(np.asarray(points, dtype=float).T.copy())
    memo: dict = {}
    with np.errstate(over="raise"):
        return [_jet_of(e, columns, order, memo) for e in exprs]



# A metric that is not a multiple of the identity, nor diagonal: on the
# catalog charts, which are isothermal, xi^k d_k g_ij is pure trace and drops
# out of the conformal residual, and the Cholesky factor is diagonal, so that
# Linv^T Linv and Linv Linv^T agree; only a chart like this one tells them
# apart.
SHEARED = Chart(
    dim=3, lower=-np.ones(3), upper=np.ones(3), name="sheared",
    metric=tuple(tuple(parse(e, 3) for e in row) for row in (
        ("1 + x2^2", "0.3*x1*x3", "0.1*x2"),
        ("0.3*x1*x3", "2 + sin(x1)", "0.2*x3"),
        ("0.1*x2", "0.2*x3", "1.5 + x1*x2/2"),
    )),
)


# -- the einsum reference of the order-2 tensor algebra -----------------------


def reference_connection_data(chart, p, order: int = 2) -> dict:
    """``connection_data`` by einsum: g, ginv, dg, d2g, Gam and dGam."""
    from confield.geometry import metric_jets, spd_inverse

    g, dg, d2g = metric_jets(chart, p, order)
    ginv = spd_inverse(g)
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    T = dg.swapaxes(-3, -1).swapaxes(-2, -1) + dg.swapaxes(-1, -2) - dg
    Gam = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, T)
    dGam = None
    if order >= 2:
        # dT[i, j, l, m] = d_m T_ijl
        dT = d2g.swapaxes(-4, -2).swapaxes(-3, -2) + d2g.swapaxes(-2, -3) - d2g
        # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
        dginv = -np.einsum("...ka,...abm,...bl->...klm", ginv, dg, ginv)
        dGam = 0.5 * (
            np.einsum("...klm,...ijl->...kijm", dginv, T)
            + np.einsum("...kl,...ijlm->...kijm", ginv, dT)
        )
    return {"g": g, "ginv": ginv, "dg": dg, "d2g": d2g, "Gam": Gam, "dGam": dGam}


def reference_riemann(Gam, dGam):
    """R[i, j, k, l] with R(e_k, e_l) e_j = R[i, j, k, l] e_i, by einsum.

    The convention is R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X -
    nabla_[X, Y], under which round spheres have sectional curvature +1;
    it is the one ``geodesic.dxi_identity_residual`` contracts without
    forming this tensor.  ``Gam`` and ``dGam`` are laid out as in
    ``ConnectionData``.
    """
    # d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma^i_{km} Gamma^m_{lj}
    #                                    - Gamma^i_{lm} Gamma^m_{kj}
    R = np.einsum("...iljk->...ijkl", dGam) - np.einsum("...ikjl->...ijkl", dGam)
    R += (np.einsum("...ikm,...mlj->...ijkl", Gam, Gam)
          - np.einsum("...ilm,...mkj->...ijkl", Gam, Gam))
    return R


def reference_riemann_lowered(g, R):
    """Rl[a, b, c, d] = g(R(e_a, e_b) e_c, e_d), by einsum.

    The argument-first layout makes the classical pair symmetries read off
    the first and last index pairs.
    """
    return np.einsum("...dm,...mcab->...abcd", g, R)


def reference_field_data(chart, xi, p, order: int = 2) -> dict:
    """``field_data`` by einsum: the connection of
    :func:`reference_connection_data` and value, jac, hess, N, M, phi, H
    and dphi."""
    from confield.geometry import field_jets

    conn = reference_connection_data(chart, p, order)
    val, jac, hess = field_jets(xi, p, order)
    g, dg, Gam = conn["g"], conn["dg"], conn["Gam"]
    # N[i, j] = d_j xi^i + Gamma^i_jk xi^k
    N = jac + np.einsum("...ijk,...k->...ij", Gam, val)
    # P[i, j] = d_i omega_j with omega_j = g_jk xi^k
    P = np.einsum("...jki,...k->...ij", dg, val) + np.einsum("...jk,...ki->...ij", g, jac)
    H = dphi = None
    if order >= 2:
        # d_j N[i, k] = d_j d_k xi^i + d_j Gamma^i_kl xi^l + Gamma^i_kl d_j xi^l
        dN = (
            hess
            + np.einsum("...iklj,...l->...ijk", conn["dGam"], val)
            + np.einsum("...ikl,...lj->...ijk", Gam, jac)
        )
        H = (
            dN
            + np.einsum("...ijl,...lk->...ijk", Gam, N)
            - np.einsum("...ljk,...il->...ijk", Gam, N)
        )
        # n phi = d_i xi^i + Gamma^i_{ik} xi^k, so n d_j phi =
        # d_j d_i xi^i + (d_j Gamma^i_{ik}) xi^k + Gamma^i_{ik} d_j xi^k
        dphi = (
            np.einsum("...iij->...j", hess)
            + np.einsum("...iikj,...k->...j", conn["dGam"], val)
            + np.einsum("...iik,...kj->...j", Gam, jac)
        ) / chart.dim
    phi = np.trace(N, axis1=-2, axis2=-1) / chart.dim
    return {"conn": conn, "value": val, "jac": jac, "hess": hess, "N": N,
            "M": P - P.swapaxes(-1, -2), "phi": phi, "H": H, "dphi": dphi}


def reference_lie_derivative(chart, xi, p):
    """(L_xi g)_ij = g(nabla_{e_i} xi, e_j) + g(nabla_{e_j} xi, e_i), from
    the covariant derivative N of ``field_data``."""
    from confield.geometry import field_data

    fd = field_data(chart, xi, p)
    A = fd.conn.g @ fd.N  # A[i, j] = g(nabla_{e_j} xi, e_i)
    return A + A.swapaxes(-1, -2)


def reference_conformal_residual(chart, xi, p):
    """``conformal_residual`` through the connection: |L - (tr_g L / n) g|_g
    with L from :func:`reference_lie_derivative`."""
    from confield.geometry import metric_jets, norm_2form, spd_inverse

    L = reference_lie_derivative(chart, xi, p)
    g = metric_jets(chart, p, 0)[0]
    ginv = spd_inverse(g)
    trace = np.trace(ginv @ L, axis1=-2, axis2=-1)[..., None, None]
    return norm_2form(ginv, L - trace / chart.dim * g)


def reference_dxi_identity_residual(chart, xi, p, X):
    """``dxi_identity_residual`` by einsum, through the lowered curvature."""
    from confield.geometry import norm_2form

    fd = reference_field_data(chart, xi, p, 2)
    cd = fd["conn"]
    X = np.asarray(X, dtype=float)
    val, jac, hess = fd["value"], fd["jac"], fd["hess"]
    g, dg, d2g = cd["g"], cd["dg"], cd["d2g"]
    # PP[k, i, j] = d_k d_i omega_j with omega_j = g_jl xi^l
    PP = (
        np.einsum("...jlik,...l->...kij", d2g, val)
        + np.einsum("...jli,...lk->...kij", dg, jac)
        + np.einsum("...jlk,...li->...kij", dg, jac)
        + np.einsum("...jl,...lik->...kij", g, hess)
    )
    M = fd["M"]
    dM = PP - PP.swapaxes(-1, -2)  # dM[k, i, j] = d_k M_ij
    nabla_M = np.einsum("...k,...kij->...ij", X, dM)
    nabla_M -= np.einsum("...k,...lki,...lj->...ij", X, cd["Gam"], M)
    nabla_M -= np.einsum("...k,...lkj,...il->...ij", X, cd["Gam"], M)
    Rl = reference_riemann_lowered(g, reference_riemann(cd["Gam"], cd["dGam"]))
    curv = 2.0 * np.einsum("...a,...b,...abij->...ij", X, val, Rl)
    Xflat = np.einsum("...ij,...j->...i", g, X)
    outer = fd["dphi"][..., :, None] * Xflat[..., None, :]
    wedge = 2.0 * (outer - outer.swapaxes(-1, -2))
    return norm_2form(cd["ginv"], nabla_M - curv - wedge)

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
        val, jac, _ = field_jets(xi, x[None], 1)
        return val[0], jac[0] @ J

    for _ in range(steps):
        k1 = rhs(x, J)
        k2 = rhs(x + 0.5 * h * k1[0], J + 0.5 * h * k1[1])
        k3 = rhs(x + 0.5 * h * k2[0], J + 0.5 * h * k2[1])
        k4 = rhs(x + h * k3[0], J + h * k3[1])
        x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        J = J + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    g_end = metric_value(chart, x[None])[0]
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


def rowwise(emb):
    """A patch ``mapping``, which takes an (m, k) array of parameters, from
    ``emb`` of one parameter vector, called row by row."""
    return lambda t: np.array([emb(s) for s in np.asarray(t, dtype=float)])


def fd_second_fundamental_form(chart, mapping, t, h=0.01):
    """Second fundamental form of a parametrized submanifold at parameter t,
    from Richardson-extrapolated differences of the map, a patch
    ``mapping`` called on stacks of one.

    Returns ``(point, dP, B, H)``: the point, the parameter derivatives
    ``dP[a]``, ``B[a, b] = B(dP_a, dP_b)`` (the normal part of the covariant
    second derivative) and the mean curvature vector.
    """
    from confield.geometry import christoffel_matrix, metric_value, spd_inverse

    def one(s):
        return mapping(s[None])[0]

    t = np.asarray(t, dtype=float)
    k = len(t)
    p = np.asarray(one(t), dtype=float)
    g = metric_value(chart, p[None])[0]
    Gam = christoffel_matrix(chart, p[None])[0]
    dP = np.stack([fd_partial(one, t, a, h) for a in range(k)])
    frame = gram_schmidt(g, dP)
    B = np.empty((k, k, chart.dim))
    for a in range(k):
        for b in range(a, k):
            C = fd_partial2(one, t, a, b, h)
            C = C + np.einsum("kij,i,j->k", Gam, dP[a], dP[b])
            B[a, b] = B[b, a] = C - frame.T @ (frame @ g @ C)
    H = np.einsum("ab,abk->k", spd_inverse(dP @ g @ dP.T), B) / k
    return p, dP, B, H


def xi_norm(chart, xi, p):
    """|xi|_g at an (m, n) array of points, from one order-0 evaluation of
    the metric and of the field: the oracle for the norms that the solver
    returns at the points it reached."""
    from confield.geometry import field_jets, metric_jets, norm_vector

    return norm_vector(metric_jets(chart, p, 0)[0], field_jets(xi, p, 0)[0])


def map_patch(chart, xi, mapping, param_axes):
    """Patch of a known zero set of xi, built from its parametrization
    ``mapping``, which takes an (m, k) array of parameters.

    The grid nodes are one call of ``mapping``, in ``np.ndindex`` order;
    the base is the centre node.
    """
    from confield.zeroset import SubmanifoldPatch

    shape = tuple(len(a) for a in param_axes)
    params = np.array([[axis[i] for axis, i in zip(param_axes, idx)]
                       for idx in np.ndindex(*shape)], dtype=float)
    samples = np.asarray(mapping(params), dtype=float).reshape(shape + (chart.dim,))
    return SubmanifoldPatch(
        base=samples[tuple(size // 2 for size in shape)].copy(),
        samples=samples,
        field_norms=xi_norm(chart, xi, samples.reshape(-1, chart.dim)).reshape(shape),
        codim=chart.dim - len(shape),
    )


def corrector(chart, xi, x, frame, k):
    """The map ``trace_component`` samples at the zero x with ``frame``,
    whose last k rows span the kernel: an (m, k) array of t to
    x + t.kernel corrected onto xi = 0 along the normal space at x."""
    from confield.essential import polish_zeros

    n = chart.dim
    return lambda t: polish_zeros(chart, xi, x + t @ frame[n - k:], frame[:n - k])[0]


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

    p = np.asarray(p, dtype=float)
    cd = connection_data(chart, p[None], 1)
    g, Gam = cd.g[0], cd.Gam[0]
    df = eval_jet(f, p, 1).d1
    gradf = cd.ginv[0] @ df
    Gam_rescaled = connection_data(rescale_metric(chart, f), p[None], 1).Gam[0]
    eye = np.eye(chart.dim)
    corr = (
        np.einsum("ki,j->kij", eye, df)
        + np.einsum("kj,i->kij", eye, df)
        - np.einsum("ij,k->kij", g, gradf)
    )
    return float(np.sqrt(np.sum((Gam_rescaled - Gam - corr) ** 2)))


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
    return FieldSpec(xi.chart, comps, name=f"inverted_{xi.name}")


def classify_at(chart, xi, x, rng=None):
    """The ``classify_zero`` record of the ``field_data`` record at x, one
    point or an (m, n) stack, its neighbourhood samples drawn from ``rng``
    or else a generator seeded 0."""
    rng = np.random.default_rng(0) if rng is None else rng
    return classify_zero(chart, xi, field_data(chart, xi, np.atleast_2d(x)), rng)


def zero_frame(chart, xi, x):
    """x, and its frame and kernel dimension in its ``classify_at`` record:
    the arguments of ``trace_component`` after the chart and the field."""
    cls = classify_at(chart, xi, x)
    return np.asarray(x, dtype=float), cls.frames[0], cls.kernel_dim[0]


def trace_at(chart, xi, x):
    """``trace_component`` at the zero x, from its ``zero_frame``."""
    from confield.zeroset import trace_component

    return trace_component(chart, xi, *zero_frame(chart, xi, x))


def trace_geometry(monkeypatch, radius, grid):
    """Make ``trace_component`` build patches of ``grid`` nodes per axis on
    [-radius, radius] for the rest of the test."""
    import confield.zeroset as zeroset

    monkeypatch.setattr(zeroset, "TRACE_RADIUS", radius)
    monkeypatch.setattr(zeroset, "TRACE_GRID", grid)


def recording_calls(monkeypatch, fn, record, arguments=False):
    """Patch every binding of ``fn`` in the confield modules, as the
    benchmark's tracer does, so that a call through any module's name is
    seen; each call appends ``record(result)`` to the returned list, or
    ``record(result, *args, **kwargs)`` with ``arguments``."""
    import importlib
    import pkgutil

    import confield

    calls = []

    def recording(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(record(result, *args, **kwargs) if arguments else record(result))
        return result

    modules = [confield] + [importlib.import_module(f"confield.{info.name}")
                            for info in pkgutil.iter_modules(confield.__path__)]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, recording)
    return calls


def counting_steps(monkeypatch):
    """Record the RK4 steps of each ``integrate_geodesic`` call made through
    any confield binding; returns the list of step counts."""
    from confield.geodesic import integrate_geodesic

    return recording_calls(monkeypatch, integrate_geodesic, lambda states: len(states) - 1)


def rk4_taylor_derivatives(chart, xi, x, v, h=1e-3, steps=32):
    """``(f', f'', a', a'', E)`` at t = 0 along the unit-speed geodesic c
    from x in direction v, for f(t) = g(xi, c'(t)) and the components
    a(t) = E(t) g xi of xi in the parallel orthonormal frame E(t) (rows)
    that starts at E = ``complete_orthonormal_frame(metric_factor(g), v)``.
    As E is parallel and g-orthonormal, a' = E g nabla_t xi and a'' = E g
    nabla_t^2 xi at t = 0: the chart vectors of ``taylor_checks`` seen in
    that frame.

    The states at t = +-h and +-h/2 come from two RK4 runs of ``steps``
    steps, to h and to -h; the derivatives are Richardson limits of central
    differences.  A negative time is reached along the reversed geodesic,
    whose parallel frame is the frame of c(-t), so its velocity is negated
    and its frame kept.
    """
    from confield.geodesic import integrate_geodesic
    from confield.geometry import (complete_orthonormal_frame, field_jets,
                                   metric_factor, metric_value, norm_vector)

    x = np.asarray(x, dtype=float)
    g = metric_value(chart, x[None])
    v = np.asarray(v, dtype=float)
    v = v / norm_vector(g, v[None])[0]
    frame0 = complete_orthonormal_frame(metric_factor(g), v[None])[0]
    f, a = {}, {}
    for sign in (1.0, -1.0):
        states = integrate_geodesic(chart, x, sign * v, h, steps, initial_frame=frame0)
        assert len(states) == steps + 1, "the stencil leaves the chart"
        for t, state in ((0.0, states[0]), (sign * h, states[-1]),
                         (sign * h / 2, states[steps // 2])):
            position = state.position[None]
            gp, xi_t = metric_value(chart, position)[0], field_jets(xi, position, 0)[0][0]
            f[t] = float(xi_t @ gp @ (sign * state.velocity))
            a[t] = state.frame @ gp @ xi_t

    def first(d):
        return (4.0 * (d[h / 2] - d[-h / 2]) / h - (d[h] - d[-h]) / (2.0 * h)) / 3.0

    def second(d):
        s_h = (d[h] - 2.0 * d[0.0] + d[-h]) / (h * h)
        s_h2 = (d[h / 2] - 2.0 * d[0.0] + d[-h / 2]) / (0.25 * h * h)
        return (4.0 * s_h2 - s_h) / 3.0

    return first(f), second(f), first(a), second(a), frame0


# -- the Moebius algebra so(n+1, 1) -------------------------------------------
#
# By Liouville's theorem (n >= 3) every conformal field of a conformally flat
# chart is xi(x) = a + Bx + lam x + 2<b, x> x - |x|^2 b with B skew.  It is
# the action of one matrix X on the light cone of Q = |u|^2 - 2 u_0 u_inf in
# the coordinates (u_0, u, u_inf): with nu(x) = (1, x, |x|^2 / 2),
# xi(x) = (X nu)_u - x (X nu)_0 and phi(x) = -(X nu)_0.  So x is a zero
# exactly when nu(x) is an eigenvector of X, with eigenvalue mu = -phi(x).
# See Hertrich-Jeromin, Introduction to Moebius Differential Geometry (CUP
# 2003), ch. 1.


def mobius_matrix(a, B, lam, b):
    """X in so(n+1, 1) with block rows [-lam, -2b^T, 0], [a, B, -2b],
    [0, a^T, lam]."""
    a, B, b = np.asarray(a, dtype=float), np.asarray(B, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    X = np.zeros((n + 2, n + 2))
    X[0, 0], X[0, 1:-1] = -lam, -2.0 * b
    X[1:-1, 0], X[1:-1, 1:-1], X[1:-1, -1] = a, B, -2.0 * b
    X[-1, 1:-1], X[-1, -1] = a, lam
    return X


def mobius_parts(X):
    """(a, B, lam, b) of X in so(n+1, 1), with B made skew."""
    return X[1:-1, 0], 0.5 * (X[1:-1, 1:-1] - X[1:-1, 1:-1].T), X[-1, -1], -0.5 * X[0, 1:-1]


def mobius_field(chart, a, B, lam, b):
    """The field a + Bx + lam x + 2<b, x> x - |x|^2 b on a conformally flat
    chart, parsed from the ``float`` reprs of the parameters, and its X.

    The parse reads back the very floats that X is built from, so X is
    exactly the matrix of the field.
    """
    from confield.expr import parse
    from confield.geometry import FieldSpec

    n = chart.dim
    a, lam, b = [float(v) for v in a], float(lam), [float(v) for v in b]
    B = [[float(v) for v in row] for row in B]
    bx = " + ".join(f"({b[k]!r})*x{k + 1}" for k in range(n))
    r2 = " + ".join(f"x{k + 1}^2" for k in range(n))
    comps = []
    for i in range(n):
        terms = [f"({a[i]!r})", f"({lam!r})*x{i + 1}", f"2*({bx})*x{i + 1}"]
        terms += [f"({B[i][j]!r})*x{j + 1}" for j in range(n)]
        comps.append(" + ".join(terms) + f" - ({r2})*({b[i]!r})")
    xi = FieldSpec(chart, tuple(parse(c, n) for c in comps), name="mobius")
    return xi, mobius_matrix(a, B, lam, b)


def mobius_conjugate(X, t, s):
    """``(P X P^-1, P)`` for P = exp(T) exp(S), T the translation by t and S
    the special conformal generator of s.  Both are nilpotent of order 3,
    so exp(Y) = I + Y + Y^2 / 2."""
    n = len(t)

    def exp(Y):
        return np.eye(n + 2) + Y + 0.5 * Y @ Y

    T = mobius_matrix(t, np.zeros((n, n)), 0.0, np.zeros(n))
    S = mobius_matrix(np.zeros(n), np.zeros((n, n)), 0.0, s)
    return exp(T) @ exp(S) @ X @ exp(-S) @ exp(-T), exp(T) @ exp(S)


def mobius_zero_verdict(X, x, tol=1e-6):
    """The oracle's verdict at a point x, or ``None`` when nu(x) is not an
    eigenvector of X to 1e-8 relative.

    mu != 0 is homothetic; mu = 0 with nu(x) in the image of X (a parabolic
    Jordan chain) is essential; any other zero is Killing.  ``tol`` bounds
    |mu| and the part of nu(x) off the image, relative to |nu(x)|, and
    sits well above the 4e-8 to which a degenerate zero is located.
    """
    x = np.asarray(x, dtype=float)
    nu = np.concatenate([[1.0], x, [0.5 * x @ x]])
    w = X @ nu
    mu = w[0]
    scale = np.linalg.norm(X) * np.linalg.norm(nu)
    if not np.linalg.norm(w - mu * nu) < 1e-8 * scale:
        return None
    if abs(mu) >= tol:
        return "homothetic_nonkilling"
    U, sigma, _ = np.linalg.svd(X)
    off_image = U[:, sigma <= 1e-9 * sigma[0]].T @ nu
    if np.linalg.norm(off_image) < tol * np.linalg.norm(nu):
        return "essential"
    return "killing_inessential"


# -- reports --------------------------------------------------------------------


def _plain(obj):
    """``obj`` as plain Python values for ``json.dumps``: arrays and numpy
    scalars become lists and numbers, and a non-finite float the string
    ``"nan"``, ``"inf"`` or ``"-inf"``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def reference_render_report(report: dict) -> str:
    """The report writer before the one-pass writer: ``json.dumps`` of the
    plain values, indented by 2."""
    return json.dumps(_plain(report), indent=2, allow_nan=False) + "\n"


WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def workload_manifests(seed: int) -> tuple:
    """``(workload, manifest)`` of every manifest of the benchmark's
    workloads at ``seed``, in workload and manifest order."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return tuple((name, manifest) for name in workloads.WORKLOADS
                 for manifest in workloads.manifests(name, seed))


@functools.cache
def workload_reports(seed: int) -> tuple:
    """``(workload, report, exit code)`` of every manifest of the benchmark's
    workloads at ``seed``, in workload and manifest order, run through
    ``cli.run_manifest``."""
    from confield.cli import run_manifest

    return tuple((name, *run_manifest(manifest)) for name, manifest in workload_manifests(seed))
