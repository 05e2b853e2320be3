"""Metric jets, connection, curvature, field derivative operators, frames
and the seeded stream."""
import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import confield.models as models
from confield.conformal import conformal_factor_gradient, conformal_residual
from confield.expr import eval_jet, eval_jets, parse
from confield.essential import classify_zero
from confield.geodesic import dxi_identity_residual, taylor_checks
from confield.zeroset import SubmanifoldPatch, umbilicity_report
from confield.geometry import (
    Chart,
    ChartDomainError,
    ChartError,
    FieldSpec,
    MetricError,
    Stream,
    christoffel_matrix,
    complete_orthonormal_frame,
    connection_data,
    field_data,
    field_jets,
    frame_svd,
    metric_factor,
    metric_jets,
    metric_value,
    norm_2form,
    norm_vector,
    sample_ball,
    sample_interior,
    spd_inverse,
)
from helpers import (
    SHEARED,
    fd_lie_derivative,
    fd_partial,
    fd_partial2,
    reference_field_data,
    reference_lie_derivative,
    reference_riemann,
    reference_riemann_lowered,
    trace_at,
    xi_norm,
)

RNG = np.random.default_rng(20240811)

SPHERE = models.sphere_stereographic(3)
HYPER = models.hyperbolic_ball(3)
FLAT2 = models.euclidean(2)
FLAT3 = models.euclidean(3)

SPHERE_PTS = [np.array([0.2, -0.1, 0.3]), np.array([0.8, 0.5, -0.6]), np.array([-1.2, 0.4, 0.9])]


# -- chart validation --------------------------------------------------------


def test_chart_rejects_bad_shapes():
    one = parse("1", 2)
    with pytest.raises(ChartError):
        Chart(dim=1, lower=np.array([0.0]), upper=np.array([1.0]), metric=((one,),))
    with pytest.raises(ChartError):
        Chart(dim=2, lower=np.zeros(2), upper=np.zeros(2),
              metric=((one, one), (one, one)))
    with pytest.raises(ChartError):
        Chart(dim=2, lower=-np.ones(2), upper=np.ones(2), metric=((one, one),))
    with pytest.raises(ChartError):
        Chart(dim=2, lower=-np.ones(2), upper=np.ones(2),
              metric=(("1", "0"), ("0", "1")))


@pytest.mark.parametrize("lower,upper", [([-1e308, -1.0], [1e308, 1.0]),
                                         ([-np.inf, -1.0], [1.0, 1.0])])
def test_chart_refuses_a_box_whose_extent_overflows(lower, upper):
    """upper - lower is inf along x1: the grid and the samples of such a box
    are rows of inf, on which the zero line of rotation(1, 2) is missed."""
    with pytest.raises(ChartError, match="'lower'/'upper' span a box whose extent"):
        Chart(dim=2, lower=np.array(lower), upper=np.array(upper), metric=FLAT2.metric)


def test_domain_membership_and_margin():
    assert FLAT2.contains([1.99, 0.0])
    assert not FLAT2.contains([1.99, 0.0], margin=0.05)
    with pytest.raises(ChartDomainError):
        FLAT2.require_interior([2.5, 0.0])


def test_field_spec_validation():
    with pytest.raises(ChartError):
        FieldSpec(FLAT2, (parse("x1", 2),))
    with pytest.raises(ChartError):
        FieldSpec(FLAT2, (parse("x1", 2), "x2"))


def test_non_spd_metric_raises():
    bad = Chart(
        dim=2,
        lower=-np.ones(2),
        upper=np.ones(2),
        metric=((parse("x1", 2), parse("0", 2)), (parse("0", 2), parse("1", 2))),
        name="signchange",
    )
    with pytest.raises(MetricError):
        metric_value(bad, np.array([[-0.5, 0.0]]))
    with pytest.raises(MetricError):
        metric_value(bad, sample_interior(bad, 25, np.random.default_rng(0)))


# -- metric jets against finite differences ---------------------------------


@pytest.mark.parametrize("point", SPHERE_PTS)
def test_metric_jets_match_finite_differences(point):
    g, dg, d2g = (a[0] for a in metric_jets(SPHERE, point[None], 2))

    def entry(i, j):
        return lambda q: metric_value(SPHERE, q[None])[0, i, j]

    for i in range(3):
        for j in range(3):
            f = entry(i, j)
            for k in range(3):
                assert dg[i, j, k] == pytest.approx(fd_partial(f, point, k), rel=1e-7, abs=1e-9)
                for m in range(3):
                    assert d2g[i, j, k, m] == pytest.approx(
                        fd_partial2(f, point, k, m), rel=1e-4, abs=1e-6
                    )


def test_spd_inverse_and_conditioning():
    g = metric_value(SPHERE, np.array([[0.1, 0.2, 0.3]]))
    ginv = spd_inverse(g)
    assert np.abs(g @ ginv - np.eye(3)).max() < 1e-14
    with pytest.raises(MetricError):
        spd_inverse(np.array([[[1.0, 0.0], [0.0, -2.0]]]))


# -- connection and curvature -----------------------------------------------


@pytest.mark.parametrize("point", SPHERE_PTS)
def test_christoffel_matches_conformal_closed_form(point):
    """For g = e^{2u} delta the symbols are du-combinations; u here is
    log(2/(1+|x|^2)), so du_i = -2 x_i / (1 + |x|^2)."""
    n = 3
    r2 = float(point @ point)
    du = -2.0 * point / (1.0 + r2)
    expected = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expected[k, i, j] = (
                    (i == k) * du[j] + (j == k) * du[i] - (i == j) * du[k]
                )
    got = christoffel_matrix(SPHERE, point[None])[0]
    assert np.abs(got - expected).max() < 1e-12


def test_christoffel_symmetric_and_flat_zero():
    Gam = christoffel_matrix(SPHERE, np.array([[0.4, -0.2, 0.1]]))
    assert np.abs(Gam - Gam.swapaxes(-1, -2)).max() == 0.0
    assert np.abs(christoffel_matrix(FLAT3, np.array([[0.3, 0.1, -0.5]]))).max() == 0.0


def _bundle(fd):
    """Every field of a FieldData and its ConnectionData, by name."""
    c = fd.conn
    return {"g": c.g, "ginv": c.ginv, "Gam": c.Gam, "dGam": c.dGam,
            "N": fd.N, "M": fd.M, "phi": np.asarray(fd.phi), "H": fd.H,
            "dphi": fd.dphi}


def test_batched_jets_and_bundles_match_per_point():
    """One call over 64 points against 64 per-point calls (eval_jet, and
    field_data on stacks of one), for every catalog pair: the order-2 jets
    agree to 1e-15 of each part's largest entry, and every bundle field to
    1e-15 of the pair's largest bundle entry (phi, dphi and L_xi g of a
    Killing field are themselves rounding noise, so they are measured on
    the bundle's scale).  Only the einsum summation order and numpy's array
    fast paths for integer powers differ, so the flat chart agrees bit for
    bit."""
    rng = np.random.default_rng(13)
    for chart, xi in models.standard_pairs(3):
        pts = sample_interior(chart, 64, rng)
        exact = chart.name.startswith("euclidean")
        trees = chart.metric_entries() + xi.components
        for tree, batch in zip(trees, eval_jets(trees, pts, 2)):
            jets = [eval_jet(tree, p, 2) for p in pts]
            for part in ("value", "d1", "d2"):
                one = np.stack([np.asarray(getattr(j, part)) for j in jets])
                many = np.moveaxis(np.broadcast_to(getattr(batch, part),
                                                   one.shape[1:] + (len(pts),)), -1, 0)
                err = np.abs(many - one).max()
                assert err == 0.0 if exact else err <= 1e-15 * np.abs(one).max()
        batched = _bundle(field_data(chart, xi, pts))
        per_point = [_bundle(field_data(chart, xi, pts[i:i + 1])) for i in range(len(pts))]
        stacked = {k: np.concatenate([b[k] for b in per_point]) for k in batched}
        scale = max(np.abs(v).max() for v in stacked.values())
        for name, one in stacked.items():
            assert batched[name].shape == one.shape, name
            err = np.abs(batched[name] - one).max()
            assert err == 0.0 if exact else err <= 1e-15 * scale, (chart.name, xi.name, name)



# The catalog pairs in dimensions 3 and 4, and the stacks the order-2
# kernels are checked on: stacks of 1, 7 and 50 points.
REFERENCE_PAIRS = models.standard_pairs(3) + models.standard_pairs(4)
STACKS = (1, 7, 50)


def _order2_arrays(chart, xi, p):
    """The arrays of an order-2 FieldData at p that the stacked kernels
    give, with the metric factor and the metric's 2-jet."""
    fd = field_data(chart, xi, p)
    c = fd.conn
    return {"g": c.g, "L": c.factor[0], "Linv": c.factor[1], "ginv": c.ginv, "dg": c.dg,
            "d2g": metric_jets(chart, p, 2)[2], "Gam": c.Gam, "dGam": c.dGam, "N": fd.N,
            "M": fd.M, "phi": np.asarray(fd.phi), "H": fd.H, "dphi": fd.dphi}


def _reference_arrays(ref):
    c = ref["conn"]
    return {"g": c["g"], "ginv": c["ginv"], "dg": c["dg"], "d2g": c["d2g"],
            "Gam": c["Gam"], "dGam": c["dGam"], "N": ref["N"], "M": ref["M"],
            "phi": np.asarray(ref["phi"]), "H": ref["H"], "dphi": ref["dphi"]}


@pytest.mark.parametrize("chart,xi", REFERENCE_PAIRS,
                         ids=lambda case: getattr(case, "name", None))
def test_order2_kernels_match_the_einsum_reference(chart, xi):
    """connection_data and field_data agree with their einsum
    reference to 1e-13 of the largest reference entry, on stacks of one and
    more points.  phi and dphi of a Killing field are rounding noise, so every
    array is measured on the scale of all of them."""
    points = sample_interior(chart, 50, np.random.default_rng([chart.dim, len(xi.name)]))
    for size in STACKS:
        p = points[:size]
        got = _order2_arrays(chart, xi, p)
        ref = _reference_arrays(reference_field_data(chart, xi, p, 2))
        scale = max(np.abs(a).max() for a in ref.values())
        for name, a in ref.items():
            assert got[name].shape == a.shape, (size, name)
            assert np.abs(got[name] - a).max() <= 1e-13 * scale, (size, name)


@pytest.mark.parametrize("chart,xi", REFERENCE_PAIRS,
                         ids=lambda case: getattr(case, "name", None))
def test_stack_rows_are_the_batch_of_one_bit_for_bit(chart, xi):
    """Row i of every order-2 array and of the metric factor L, Linv over a
    stack of 7 or 50 points is the array of the stack of one holding point
    i, bit for bit; so are the conformal and the d(xi^flat) identity
    residuals."""
    rng = np.random.default_rng([chart.dim, len(xi.name)])
    points = sample_interior(chart, 50, rng)
    directions = rng.normal(size=points.shape)
    ones = [_order2_arrays(chart, xi, points[i:i + 1]) for i in range(50)]
    for size in STACKS[1:]:
        stack = _order2_arrays(chart, xi, points[:size])
        for i in range(size):
            for name, a in ones[i].items():
                assert _bits(stack[name][i]) == _bits(a[0]), (size, i, name)
    conformal = conformal_residual(chart, xi, points)
    identity = dxi_identity_residual(field_data(chart, xi, points), directions)
    for i in range(50):
        one = slice(i, i + 1)
        assert _bits(conformal[i]) == _bits(conformal_residual(chart, xi, points[one])[0]), i
        assert (_bits(identity[i]) == _bits(
            dxi_identity_residual(field_data(chart, xi, points[one]), directions[one])[0])), i


def test_batched_spd_inverse_checks_every_matrix():
    good = metric_value(SPHERE, np.array([[0.1, 0.2, 0.3]]))[0]
    stack = np.array([good, np.diag([1.0, 1.0, 1e-13]), good])
    with pytest.raises(MetricError, match="conditioning"):
        spd_inverse(stack)
    stack[1] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(MetricError, match="positive definite"):
        spd_inverse(stack)
    assert np.array_equal(spd_inverse(stack[[0, 2]])[1], spd_inverse(good[None])[0])


def test_require_interior_names_the_first_point_outside():
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 9.0, 0.0], [9.0, 0.0, 0.0]])
    assert not FLAT3.contains(pts) and FLAT3.contains(pts[:1])
    with pytest.raises(ChartDomainError, match=r"\[0\.1, 9\.0, 0\.0\]"):
        FLAT3.require_interior(pts)


def test_field_data_refuses_a_point_outside_the_box():
    """The record owns the interior precondition: it names the first row
    outside the box.  classify_zero, taylor_checks, dxi_identity_residual
    and second_fundamental_form read only the record, so they get the
    refusal from it; umbilicity_report builds the record of a patch's
    interior nodes, and conformal_factor_gradient that of its point."""
    xi = models.rotation(FLAT3, 1, 2)
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 9.0, 0.0], [9.0, 0.0, 0.0]])
    with pytest.raises(ChartDomainError, match=r"point \[0\.1, 9\.0, 0\.0\] outside"):
        field_data(FLAT3, xi, pts)
    with pytest.raises(ChartDomainError, match=r"point \[9\.0, 0\.0, 0\.0\] outside"):
        conformal_factor_gradient(FLAT3, xi, pts[2])
    patch = trace_at(FLAT3, xi, pts[0])
    moved = SubmanifoldPatch(patch.base, patch.samples + [0.0, 0.0, 9.0], patch.field_norms,
                             patch.codim)
    with pytest.raises(ChartDomainError, match=r"point \[0\.0, 0\.0, 8\.85\] outside"):
        umbilicity_report(FLAT3, xi, [moved])


def test_classify_and_taylor_checks_share_one_zero_gate():
    """A rotation about the x3 axis plus the constant c e3 has |xi|_g = c
    at the origin: classify_zero and taylor_checks both take it as a zero
    at c = 5e-7 and both refuse it, naming the row, at c = 2e-6."""
    for c, accepted in ((5e-7, True), (2e-6, False)):
        xi = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("-x2", "x1", repr(c))))
        jets = field_data(FLAT3, xi, np.zeros((1, 3)))
        checks = (lambda: classify_zero(FLAT3, xi, jets, np.random.default_rng(0)),
                  lambda: taylor_checks(jets, np.ones((1, 3))))
        for name, check in zip(("classify_zero", "taylor_checks"), checks):
            if accepted:
                check()
            else:
                with pytest.raises(ValueError, match=f"{name} expects a zero .* row 0 has"):
                    check()


def test_field_data_orders_agree_bitwise():
    """The order-1 connection_data gives the same g, g^-1 and Gamma as the
    order-2 connection of field_data, and christoffel_matrix is that Gamma,
    bit for bit."""
    rng = np.random.default_rng(31)
    for chart, xi in models.standard_pairs(3):
        pts = sample_interior(chart, 5, rng)
        one, two = connection_data(chart, pts, 1), field_data(chart, xi, pts).conn
        for name in ("g", "ginv", "Gam"):
            assert np.array_equal(getattr(one, name), getattr(two, name))
        assert one.dGam is None
        assert np.array_equal(christoffel_matrix(chart, pts), two.Gam)


def test_metric_compatibility():
    p = np.array([[0.2, -0.1, 0.3]])
    g, dg, _ = metric_jets(SPHERE, p, 1)
    Gam = christoffel_matrix(SPHERE, p)
    rhs = np.einsum("mlki,mlj->mijk", Gam, g) + np.einsum("mlkj,mil->mijk", Gam, g)
    assert np.abs(dg - rhs).max() < 1e-13


def _riemann_lowered(chart, p):
    """Rl[a, b, c, d] = g(R(e_a, e_b) e_c, e_d) from the connection at the
    point p, as a stack of one."""
    c = connection_data(chart, p[None])
    return reference_riemann_lowered(c.g, reference_riemann(c.Gam, c.dGam))[0]


@pytest.mark.parametrize(
    "chart,expected", [(SPHERE, 1.0), (HYPER, -1.0), (FLAT3, 0.0)]
)
def test_sectional_curvature_of_space_forms(chart, expected):
    for raw in SPHERE_PTS:
        p = raw * (0.4 if chart is HYPER else 1.0)
        Rl = _riemann_lowered(chart, p)
        g = metric_value(chart, p[None])[0]
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            denom = g[a, a] * g[b, b] - g[a, b] ** 2
            assert Rl[a, b, b, a] / denom == pytest.approx(expected, abs=1e-10)


def test_curvature_tensor_symmetries_on_random_metric():
    entries = [
        ["exp(x1/4) + x2^2/9", "x1*x2/8", "0"],
        ["x1*x2/8", "1 + x3^2/7", "x2*x3/9"],
        ["0", "x2*x3/9", "2 + sin(x1)/5"],
    ]
    chart = Chart(
        dim=3,
        lower=-np.ones(3),
        upper=np.ones(3),
        metric=tuple(tuple(parse(e, 3) for e in row) for row in entries),
        name="bumpy",
    )
    p = np.array([0.3, -0.2, 0.4])
    Rl = _riemann_lowered(chart, p)
    assert np.abs(Rl + Rl.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(Rl + Rl.transpose(0, 1, 3, 2)).max() < 1e-12
    assert np.abs(Rl - Rl.transpose(2, 3, 0, 1)).max() < 1e-12
    # first Bianchi: R[a,b,c,d] + R[b,c,a,d] + R[c,a,b,d] = 0 in the
    # convention Rl[a,b,c,d] = g(R(e_a,e_b) e_c, e_d)
    cyclic = Rl + Rl.transpose(1, 2, 0, 3) + Rl.transpose(2, 0, 1, 3)
    assert np.abs(cyclic).max() < 1e-11


# -- field derivative operators ----------------------------------------------


def test_covariant_derivative_of_plane_rotation():
    rot = models.rotation(FLAT2)
    N = field_data(FLAT2, rot, np.array([[0.7, -0.3]])).N[0]
    assert np.abs(N - np.array([[0.0, -1.0], [1.0, 0.0]])).max() == 0.0
    # Killing for the sphere metric too: g N must be skew
    sph2 = models.sphere_stereographic(2)
    rot3 = models.rotation(sph2, 1, 2)
    p = np.array([[0.5, 0.8]])
    A = metric_value(sph2, p) @ field_data(sph2, rot3, p).N
    assert np.abs(A + A.swapaxes(-1, -2)).max() < 1e-13


def test_covariant_derivative_of_quadratic_field_on_axis():
    K = models.special_conformal(FLAT3, 1)
    N = field_data(FLAT3, K, np.array([[0.3, 0.0, 0.0]])).N
    assert np.abs(N + 0.6 * np.eye(3)).max() < 1e-15


def test_euler_identity_map_everywhere():
    eu = models.euler(FLAT3)
    N = field_data(FLAT3, eu, np.array([[0.9, -1.1, 0.2]])).N
    assert np.abs(N - np.eye(3)).max() == 0.0
    N2 = field_data(FLAT2, models.euler(FLAT2), np.array([[0.3, 0.4]])).N[0]
    assert np.trace(N2) == 2.0


def test_derivative_two_form_of_rotation():
    rot = models.rotation(FLAT2)
    M = field_data(FLAT2, rot, np.array([[0.2, 0.5]])).M
    assert np.abs(M - np.array([[0.0, 2.0], [-2.0, 0.0]])).max() == 0.0


def test_two_form_is_twice_skew_part_of_lowered_derivative():
    """d(xi^flat)_ij = (nabla xi^flat)_ij - (nabla xi^flat)_ji holds for any
    field, conformal or not."""
    chart = SPHERE
    xi = FieldSpec(
        chart,
        tuple(parse(s, 3) for s in ("x2*x3 - 1", "sin(x1)", "x1^2 - x3")),
        name="arbitrary",
    )
    p = np.array([[0.4, -0.7, 0.2]])
    g = metric_value(chart, p)[0]
    N = field_data(chart, xi, p).N[0]
    A = (g @ N).T  # A[i, j] = g(nabla_{e_i} xi, e_j)
    M = field_data(chart, xi, p).M[0]
    assert np.abs(M - (A - A.T)).max() < 1e-12


def test_lie_derivative_against_flow_pullback():
    """Independent oracle: differentiate the pulled-back metric along the
    actual flow of the field (variational RK4)."""
    cases = [
        (SPHERE, models.rotation(SPHERE, 1, 3), np.array([0.3, -0.4, 0.6])),
        (SPHERE, models.euler(SPHERE), np.array([0.5, 0.1, -0.2])),
        (FLAT3, models.special_conformal(FLAT3, 2), np.array([0.4, 0.3, -0.1])),
    ]
    for chart, xi, p in cases:
        exact = reference_lie_derivative(chart, xi, p[None])[0]
        approx = fd_lie_derivative(chart, xi, p)
        assert np.abs(exact - approx).max() < 1e-8


def test_killing_fields_have_vanishing_lie_derivative():
    p = np.array([[0.6, -0.3, 0.2]])
    rot = models.rotation(SPHERE, 2, 3)
    assert np.abs(reference_lie_derivative(SPHERE, rot, p)).max() < 1e-14
    sk = models.sphere_killing(SPHERE, 1, 4)
    assert np.abs(reference_lie_derivative(SPHERE, sk, p)).max() < 1e-13
    eu = models.euler(FLAT3)
    L = reference_lie_derivative(FLAT3, eu, p)
    assert np.abs(L - 2.0 * np.eye(3)).max() < 1e-14


def test_covariant_hessian_against_differenced_derivative():
    """H[i, j, k] = d_j N[i, k] + Gamma^i_jl N[l, k] - Gamma^l_jk N[i, l],
    with d_j N taken by finite differences of FieldData.N."""
    cases = [
        (SPHERE, models.sphere_killing(SPHERE, 1, 4), np.array([0.4, -0.7, 0.2])),
        (HYPER, models.special_conformal(HYPER, 2), np.array([0.1, 0.3, -0.2])),
    ]
    for chart, xi, p in cases:
        fd = field_data(chart, xi, p[None])
        N, H = fd.N[0], fd.H[0]
        assert np.array_equal(N, field_data(chart, xi, p[None]).N[0])
        Gam = christoffel_matrix(chart, p[None])[0]
        dN = np.empty((3, 3, 3))
        for i in range(3):
            for k in range(3):
                f = lambda q, i=i, k=k: field_data(chart, xi, q[None]).N[0, i, k]
                for j in range(3):
                    dN[i, j, k] = fd_partial(f, p, j)
        expected = (
            dN + np.einsum("ijl,lk->ijk", Gam, N) - np.einsum("ljk,il->ijk", Gam, N)
        )
        assert np.abs(H - expected).max() < 1e-8


def test_covariant_hessian_of_killing_fields_is_curvature():
    """For a Killing field nabla^2_{X, Y} xi = R(X, xi) Y, an identity that
    shares no code path with the Hessian assembly."""
    cases = [
        (SPHERE, models.sphere_killing(SPHERE, 1, 4), np.array([0.4, -0.7, 0.2])),
        (HYPER, models.rotation(HYPER, 1, 2), np.array([0.1, 0.3, -0.2])),
    ]
    for chart, xi, p in cases:
        H = field_data(chart, xi, p[None]).H
        c = connection_data(chart, p[None])
        R = reference_riemann(c.Gam, c.dGam)
        # R(e_j, xi) e_k = R[i, k, j, l] xi^l e_i
        curv = np.einsum("mikjl,ml->mijk", R, field_jets(xi, p[None], 0)[0])
        assert np.abs(H).max() > 0.1
        assert np.abs(H - curv).max() < 1e-12


def test_field_jets_hessian_symmetry():
    xi = models.special_conformal(FLAT3, 1)
    _, _, hess = field_jets(xi, np.array([[0.2, 0.4, -0.5]]), 2)
    assert np.abs(hess - hess.swapaxes(-1, -2)).max() == 0.0


# -- norms, frames, raising and lowering -------------------------------------


def test_norms_and_musical_isomorphisms():
    p = np.array([0.3, -0.2, 0.5])
    g = metric_value(SPHERE, p[None])
    ginv = spd_inverse(g)[0]
    v = np.array([0.4, -1.0, 0.3])
    w = g[0] @ v
    assert np.abs(ginv @ w - v).max() < 1e-14
    assert norm_vector(g, v[None]) == pytest.approx([math.sqrt(w @ ginv @ w)], rel=1e-14)

    df = eval_jet(parse("x1*x2 - x3^2", 3), p, 1).d1
    assert np.abs(g[0] @ (ginv @ df) - df).max() < 1e-14


def test_two_form_norm_is_frame_frobenius():
    g = metric_value(SPHERE, np.array([[0.2, 0.1, -0.3]]))
    ginv = spd_inverse(g)
    Linv = np.linalg.inv(np.linalg.cholesky(g[0]))
    M = np.array([[0.0, 1.5, -0.2], [-1.5, 0.0, 0.7], [0.2, -0.7, 0.0]])
    frame_frob = float(np.linalg.norm(Linv @ M @ Linv.T))
    assert norm_2form(ginv, M[None]) == pytest.approx([frame_frob], rel=1e-13)


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + 0.5 * np.eye(n)


def _tensor_of_rank(rng, n, rank, kind):
    """A random endomorphism of the given rank, or a 2-form of that even rank."""
    if kind == "endomorphism":
        return rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
    B = rng.normal(size=(n, rank))
    return B @ np.kron(np.eye(rank // 2), [[0.0, 1.0], [-1.0, 0.0]]) @ B.T


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frame_svd_kernel_is_g_orthonormal_and_annihilated(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        g = _random_spd(rng, n)
        k = int(rng.integers(1, n))
        # an endomorphism of rank n - k and a 2-form of rank 2 * ((n - k) // 2)
        skew_rank = 2 * ((n - k) // 2)
        N = _tensor_of_rank(rng, n, n - k, "endomorphism")
        M = _tensor_of_rank(rng, n, skew_rank, "skew_form")
        for tensor, kind, dim in ((N, "endomorphism", k), (M, "skew_form", n - skew_rank)):
            factor = metric_factor(g[None])
            _, _, Vt, rank = frame_svd(factor, tensor[None], kind)
            kernel = (Vt @ factor[1])[0, rank[0]:]
            assert kernel.shape == (dim, n)
            assert np.abs(kernel @ g @ kernel.T - np.eye(dim)).max() < 1e-12
            assert np.abs(kernel @ tensor.T).max() < 1e-10 * (1 + np.abs(tensor).max())


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["endomorphism", "skew_form"])
def test_stacked_frame_svd_rows_are_the_one_matrix_calls(n, kind):
    """Ranks 0, 2 and full in one stack: row i of every stacked array, and
    rows rank[i] on of row i of the stacked Vt @ Linv (the kernel, as
    classify_zero slices it), are those of the call on the stack of one
    holding g[i] and T[i], bit for bit.  The cut is per row, so a full-rank
    row scaled by 1e-8 keeps its rank."""
    rng = np.random.default_rng([n, len(kind)])
    full = n if kind == "endomorphism" else 2 * (n // 2)
    ranks = [0, 2, full, 2, full, 0, 2]
    g = np.stack([_random_spd(rng, n) for _ in ranks])
    T = np.stack([_tensor_of_rank(rng, n, r, kind) for r in ranks])
    T[4] *= 1e-8
    factor = metric_factor(g)
    svd = frame_svd(factor, T, kind)
    assert svd[3].tolist() == ranks
    frame_rows = svd[2] @ factor[1]
    for i in range(len(ranks)):
        one_factor = metric_factor(g[i:i + 1])
        one = frame_svd(one_factor, T[i:i + 1], kind)
        assert one[3].tolist() == [ranks[i]]
        for name, a, b in zip(("L", "Linv", "U", "sigma", "Vt"), factor + svd, one_factor + one):
            assert _bits(a[i]) == _bits(b[0]), (i, name)
        assert _bits(frame_rows[i, ranks[i]:]) == _bits((one[2] @ one_factor[1])[0, ranks[i]:]), i


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factor_inverts_and_frames_metrics_that_are_not_diagonal(n):
    """On random SPD metrics, and on the sheared chart, whose Cholesky
    factors are not diagonal: g^-1 from the factor (spd_inverse and
    connection_data's ginv) inverts g to 1e-13, and the frames built on
    the factor are g-orthonormal.  A diagonal factor cannot tell Linv^T
    Linv from Linv Linv^T; these metrics can."""
    rng = np.random.default_rng(300 + n)
    g = np.stack([_random_spd(rng, n) for _ in range(10)])
    checks = [(g, metric_factor(g), spd_inverse(g))]
    if n == 3:
        c = connection_data(SHEARED, sample_interior(SHEARED, 10, rng), 1)
        checks.append((c.g, c.factor, c.ginv))
    for g, factor, ginv in checks:
        L = factor[0]
        assert np.abs(np.tril(L, -1)).max() > 1e-3
        assert np.abs(ginv @ g - np.eye(n)).max() < 1e-13
        v = rng.normal(size=(len(g), n))
        frames = complete_orthonormal_frame(factor, v)
        gram = frames @ g @ frames.swapaxes(-1, -2)
        assert np.abs(gram - np.eye(n)).max() < 1e-12
        T = rng.normal(size=(len(g), n, n))
        T[:, :, 0] = 0.0  # a kernel of dimension 1 in every row
        Vt, rank = frame_svd(factor, T, "endomorphism")[2:]
        assert (rank == n - 1).all()
        kernel = Vt[:, n - 1:] @ factor[1]
        assert np.abs(kernel @ g @ kernel.swapaxes(-1, -2) - 1.0).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complete_orthonormal_frame_random_spd(n):
    rng = np.random.default_rng(200 + n)
    for scale in (1e-9, 1.0, 1e9):
        g = _random_spd(rng, n)[None]
        v = scale * rng.normal(size=(1, n))
        frame = complete_orthonormal_frame(metric_factor(g), v)[0]
        assert frame.shape == (n, n)
        assert np.abs(frame @ g[0] @ frame.T - np.eye(n)).max() < 1e-12
        unit = v[0] / norm_vector(g, v)[0]
        assert np.abs(frame[0] - unit).max() < 1e-14 * (1 + np.abs(frame[0]).max())



@pytest.mark.parametrize("n", [3, 4])
def test_stacked_frames_are_the_one_vector_calls(n):
    """A stack of vectors, with the metrics of catalog points (laid out as a
    batch gives them) and random SPD ones, gives per row the frame of the
    stack of one holding that row, bit for bit."""
    rng = np.random.default_rng(40 + n)
    chart = models.hyperbolic_ball(n)
    g = connection_data(chart, sample_interior(chart, 7, rng), 1).g
    g = np.concatenate([g, np.stack([_random_spd(rng, n) for _ in range(7)])])
    v = rng.normal(size=(14, n))
    frames = complete_orthonormal_frame(metric_factor(g), v)
    assert frames.shape == (14, n, n)
    for i in range(14):
        one = complete_orthonormal_frame(metric_factor(g[i:i + 1]), v[i:i + 1])
        assert _bits(frames[i]) == _bits(one[0]), i


def test_complete_orthonormal_frame_starts_along_v():
    p = np.array([[-0.4, 0.2, 0.6]])
    g = metric_value(HYPER, p * 0.5)
    v = np.array([0.3, -0.2, 0.9])
    frame = complete_orthonormal_frame(metric_factor(g), v[None])[0]
    assert frame.shape == (3, 3)
    assert np.abs(frame @ g[0] @ frame.T - np.eye(3)).max() < 1e-12
    cross = np.cross(frame[0], v)
    assert np.linalg.norm(cross) < 1e-12


@pytest.mark.parametrize("v", [np.zeros(3), [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_complete_orthonormal_frame_refuses_zero_and_non_finite(v):
    with pytest.raises(MetricError):
        complete_orthonormal_frame(metric_factor(np.eye(3)[None]), np.asarray(v)[None])


SRC = Path(__file__).resolve().parent.parent / "src" / "confield"


def test_modules_share_one_frame_helper_and_no_private_names():
    """No module imports a _-prefixed name (dunders aside) from a sibling,
    and only geometry.frame_svd calls the SVD."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, f"{path.name} imports {private} from .{node.module}"
        if path.name != "geometry.py":
            assert "np.linalg.svd" not in text, path.name
    assert (SRC / "geometry.py").read_text().count("np.linalg.svd") == 1


def test_metric_factor_is_the_one_factorization():
    """np.linalg.cholesky and np.linalg.inv are each called once in the
    package, both inside geometry.metric_factor: frame_svd, spd_inverse and
    connection_data read its factor instead of factoring g again."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [(ast.unparse(node.func), path.name, fn.name)
                            for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and ast.unparse(node.func) in ("np.linalg.cholesky", "np.linalg.inv")]
    assert sorted(callers) == [("np.linalg.cholesky", "geometry.py", "metric_factor"),
                               ("np.linalg.inv", "geometry.py", "metric_factor")]


def test_sample_interior_respects_margin():
    """Samples keep 5% of the box's extent clear on every side, and reach
    past 7.5% of it on every side."""
    pts = sample_interior(FLAT2, 200, np.random.default_rng(3))
    width = FLAT2.upper - FLAT2.lower
    assert np.all(pts >= FLAT2.lower + 0.05 * width)
    assert np.all(pts <= FLAT2.upper - 0.05 * width)
    assert np.all(pts.min(axis=0) < FLAT2.lower + 0.075 * width)
    assert np.all(pts.max(axis=0) > FLAT2.upper - 0.075 * width)


def test_sample_ball_draws_one_normal_and_one_uniform_block():
    """Around a stack of one centre x, rows lie at distance 0.2 r_eff to
    r_eff from x, r_eff here half the distance to the box face x3 = 2; the
    draws are one (count, n) normal block and then one uniform block of
    count radii."""
    x = np.array([0.3, -0.2, 1.5])
    count = 20
    rng = np.random.default_rng(7)
    (pts,) = sample_ball(FLAT3, x[None], 0.4, count, rng)
    r_eff = 0.25
    assert pts.shape == (count, 3)
    dist = np.linalg.norm(pts - x, axis=1)
    assert np.all(dist >= 0.2 * r_eff * (1 - 1e-12))
    assert np.all(dist <= r_eff * (1 + 1e-12))
    by_hand = np.random.default_rng(7)
    u = by_hand.normal(size=(count, 3))
    radii = by_hand.uniform(0.2, 1.0, count)
    assert np.allclose(pts, x + r_eff * radii[:, None] * u / np.linalg.norm(u, axis=1)[:, None],
                       rtol=0, atol=1e-15)
    assert rng.random() == by_hand.random()


def _splitmix64_reference(key: tuple, count: int) -> list:
    """The first ``count`` outputs of SplitMix64 in Python integers, one at
    a time: the state starts at the fold of ``key`` (each int as its count
    of 64-bit words and the words, each folded in by one step of the
    generator) and moves on by gamma before each output."""
    mask, gamma = 2 ** 64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    state = 0
    for value in key:
        words = [value >> s & mask for s in range(0, max(value.bit_length(), 1), 64)]
        for word in (len(words), *words):
            state = mix((state ^ word) + gamma & mask)
    return [mix(state + (i + 1) * gamma & mask) for i in range(count)]


def test_stream_draws_are_splitmix64():
    """A stream's uniforms are the top 53 bits of the reference generator's
    outputs times 2^-53, bit for bit, and its normals the Box-Muller
    transform of its next two blocks of uniforms; the reference gives
    SplitMix64's published first output from the state 0."""
    assert _splitmix64_reference((), 1) == [0xE220A8397B1DCDAF]
    key = (7, 2 ** 70 + 3)
    bits = _splitmix64_reference(key, 30)
    units = [(b >> 11) * 2.0 ** -53 for b in bits]
    stream = Stream(*key)
    assert stream.uniform(0.0, 1.0, (2, 5)).ravel().tolist() == units[:10]
    normal = stream.normal(10)
    by_hand = [math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)
               for u1, u2 in zip(units[10:20], units[20:30])]
    assert normal == pytest.approx(by_hand, rel=1e-14, abs=1e-15)


def test_a_stream_is_a_function_of_its_key():
    """The same key gives the same draws; keys that differ only in the
    analysis index, or in a seed past 64 bits, give unrelated ones; a
    negative key is refused."""
    def draws(*key):
        return Stream(*key).uniform(0.0, 1.0, 64)

    assert np.array_equal(draws(1, 2), draws(1, 2))
    blocks = [draws(*key) for key in ((1, 0), (1, 1), (1, 2), (2 ** 64 + 1, 0), (2 ** 70, 0))]
    for a, b in itertools.combinations(blocks, 2):
        assert not np.isin(a, b).any()
    with pytest.raises(ValueError, match="non-negative"):
        Stream(1, -1)


def test_successive_blocks_of_a_stream_are_disjoint():
    """The counter moves on past every block, normal ones taking two draws
    per value: two calls read what one call of both sizes reads."""
    stream = Stream(3, 1)
    first, second = stream.uniform(0.0, 1.0, 100), stream.uniform(0.0, 1.0, 100)
    assert not np.isin(first, second).any()
    assert np.array_equal(np.concatenate([first, second]), Stream(3, 1).uniform(0.0, 1.0, 200))
    stream.normal((4, 5))
    assert np.array_equal(stream.uniform(0.0, 1.0, 3), Stream(3, 1).uniform(0.0, 1.0, 243)[240:])


def test_stream_draws_have_their_laws():
    """Uniform draws fill [low, high) in the shape asked for; 10^5 normal
    draws have mean and variance within 0.02 of 0 and 1."""
    u = Stream(5).uniform(-2.0, 3.0, (1000, 3))
    assert u.shape == (1000, 3) and u.min() >= -2.0 and u.max() < 3.0
    assert u.min() < -1.9 and u.max() > 2.9
    z = Stream(5, 1).normal(100_000)
    assert z.shape == (100_000,) and np.isfinite(z).all()
    assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.02


def test_field_norm_of_quadratic_field_is_r_squared_flat():
    K = models.special_conformal(FLAT3, 1)
    pts = np.array([[0.3, 0.4, 0.0], [1.0, -1.0, 0.5]])
    assert xi_norm(FLAT3, K, pts) == pytest.approx((pts * pts).sum(axis=1), rel=1e-12)
