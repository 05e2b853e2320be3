"""Metric jets, connection, curvature, field derivative operators and frames."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

import confield.models as models
from confield.conformal import conformal_residual
from confield.expr import eval_jet, eval_jets, parse
from confield.geodesic import dxi_identity_residual
from confield.geometry import (
    Chart,
    ChartDomainError,
    ChartError,
    FieldSpec,
    MetricError,
    christoffel_matrix,
    complete_orthonormal_frame,
    connection_data,
    field_data,
    field_jets,
    field_norm,
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
        metric_value(bad, np.array([-0.5, 0.0]))
    with pytest.raises(MetricError):
        bad.validate_spd(np.random.default_rng(0))


# -- metric jets against finite differences ---------------------------------


@pytest.mark.parametrize("point", SPHERE_PTS)
def test_metric_jets_match_finite_differences(point):
    g, dg, d2g = metric_jets(SPHERE, point, 2)

    def entry(i, j):
        return lambda q: metric_value(SPHERE, q)[i, j]

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
    g = metric_value(SPHERE, np.array([0.1, 0.2, 0.3]))
    ginv = spd_inverse(g)
    assert np.abs(g @ ginv - np.eye(3)).max() < 1e-14
    with pytest.raises(MetricError):
        spd_inverse(np.array([[1.0, 0.0], [0.0, -2.0]]))


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
    got = christoffel_matrix(SPHERE, point)
    assert np.abs(got - expected).max() < 1e-12


def test_christoffel_symmetric_and_flat_zero():
    Gam = christoffel_matrix(SPHERE, np.array([0.4, -0.2, 0.1]))
    assert np.abs(Gam - Gam.transpose(0, 2, 1)).max() == 0.0
    assert np.abs(christoffel_matrix(FLAT3, np.array([0.3, 0.1, -0.5]))).max() == 0.0


def _bundle(fd):
    """Every field of a FieldData and its ConnectionData, by name."""
    c = fd.conn
    return {"g": c.g, "ginv": c.ginv, "Gam": c.Gam, "dGam": c.dGam,
            "N": fd.N, "M": fd.M, "phi": np.asarray(fd.phi), "H": fd.H,
            "dphi": fd.dphi}


def test_batched_jets_and_bundles_match_per_point():
    """One call over 64 points against 64 per-point calls, for every catalog
    pair: the order-2 jets agree to 1e-15 of each part's largest entry, and
    every bundle field to 1e-15 of the pair's largest bundle entry (phi,
    dphi and L_xi g of a Killing field are themselves rounding noise, so
    they are measured on the bundle's scale).  Only the einsum summation
    order and numpy's array fast paths for integer powers differ, so the
    flat chart agrees bit for bit."""
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
        batched = _bundle(field_data(chart, xi, pts, 2))
        per_point = [_bundle(field_data(chart, xi, p, 2)) for p in pts]
        stacked = {k: np.stack([b[k] for b in per_point]) for k in batched}
        scale = max(np.abs(v).max() for v in stacked.values())
        for name, one in stacked.items():
            assert batched[name].shape == one.shape, name
            err = np.abs(batched[name] - one).max()
            assert err == 0.0 if exact else err <= 1e-15 * scale, (chart.name, xi.name, name)



# The catalog pairs in dimensions 3 and 4, and the stacks the order-2
# kernels are checked on: a 1-d point, then stacks of 1, 7 and 50 points.
REFERENCE_PAIRS = models.standard_pairs(3) + models.standard_pairs(4)
STACKS = (None, 1, 7, 50)


def _order2_arrays(fd):
    """The arrays of an order-2 FieldData that the stacked kernels give,
    with the metric factor."""
    c = fd.conn
    return {"g": c.g, "L": c.factor[0], "Linv": c.factor[1], "ginv": c.ginv, "dg": c.dg,
            "d2g": c.d2g, "Gam": c.Gam, "dGam": c.dGam, "N": fd.N, "M": fd.M,
            "phi": np.asarray(fd.phi), "H": fd.H, "dphi": fd.dphi}


def _reference_arrays(ref):
    c = ref["conn"]
    return {"g": c["g"], "ginv": c["ginv"], "dg": c["dg"], "d2g": c["d2g"],
            "Gam": c["Gam"], "dGam": c["dGam"], "N": ref["N"], "M": ref["M"],
            "phi": np.asarray(ref["phi"]), "H": ref["H"], "dphi": ref["dphi"]}


@pytest.mark.parametrize("chart,xi", REFERENCE_PAIRS,
                         ids=lambda case: getattr(case, "name", None))
def test_order2_kernels_match_the_einsum_reference(chart, xi):
    """connection_data and field_data agree with their einsum
    reference to 1e-13 of the largest reference entry, at one point and on
    stacks.  phi and dphi of a Killing field are rounding noise, so every
    array is measured on the scale of all of them."""
    points = sample_interior(chart, 50, np.random.default_rng([chart.dim, len(xi.name)]))
    for size in STACKS:
        p = points[0] if size is None else points[:size]
        got = _order2_arrays(field_data(chart, xi, p, 2))
        ref = _reference_arrays(reference_field_data(chart, xi, p, 2))
        scale = max(np.abs(a).max() for a in ref.values())
        for name, a in ref.items():
            assert got[name].shape == a.shape, (size, name)
            assert np.abs(got[name] - a).max() <= 1e-13 * scale, (size, name)


@pytest.mark.parametrize("chart,xi", REFERENCE_PAIRS,
                         ids=lambda case: getattr(case, "name", None))
def test_stack_rows_are_the_batch_of_one_bit_for_bit(chart, xi):
    """Row i of every order-2 array and of the metric factor L, Linv over a
    stack of 7 or 50 points, and the array of the 1-d call at point i, are
    the array of the batch of one holding point i, bit for bit; so are the
    conformal and the d(xi^flat) identity residuals."""
    rng = np.random.default_rng([chart.dim, len(xi.name)])
    points = sample_interior(chart, 50, rng)
    directions = rng.normal(size=points.shape)
    ones = [_order2_arrays(field_data(chart, xi, points[i:i + 1], 2)) for i in range(50)]
    for size in STACKS[2:]:
        stack = _order2_arrays(field_data(chart, xi, points[:size], 2))
        for i in range(size):
            for name, a in ones[i].items():
                assert _bits(stack[name][i]) == _bits(a[0]), (size, i, name)
    for i, (p, X) in enumerate(zip(points, directions)):
        single = _order2_arrays(field_data(chart, xi, p, 2))
        for name, a in ones[i].items():
            assert _bits(single[name]) == _bits(a[0]), (i, name)
        assert (_bits(conformal_residual(chart, xi, p))
                == _bits(conformal_residual(chart, xi, p[None])[0])), i
        assert (_bits(dxi_identity_residual(chart, xi, p, X))
                == _bits(dxi_identity_residual(chart, xi, p[None], X[None])[0])), i


def test_batched_spd_inverse_checks_every_matrix():
    good = metric_value(SPHERE, np.array([0.1, 0.2, 0.3]))
    stack = np.array([good, np.diag([1.0, 1.0, 1e-13]), good])
    with pytest.raises(MetricError, match="conditioning"):
        spd_inverse(stack)
    stack[1] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(MetricError, match="positive definite"):
        spd_inverse(stack)
    assert np.array_equal(spd_inverse(stack[[0, 2]])[1], spd_inverse(good))


def test_require_interior_names_the_first_point_outside():
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 9.0, 0.0], [9.0, 0.0, 0.0]])
    assert not FLAT3.contains(pts) and FLAT3.contains(pts[:1])
    with pytest.raises(ChartDomainError, match=r"\[0\.1, 9\.0, 0\.0\]"):
        FLAT3.require_interior(pts)


def test_field_data_orders_agree_bitwise():
    """Order 1 and order 2 give the same g, g^-1, Gamma, N, M and phi, and
    christoffel_matrix is the order-2 Gamma, bit for bit."""
    rng = np.random.default_rng(31)
    for chart, xi in models.standard_pairs(3):
        for p in sample_interior(chart, 5, rng):
            one, two = field_data(chart, xi, p, 1), field_data(chart, xi, p, 2)
            for name in ("g", "ginv", "Gam"):
                assert np.array_equal(getattr(one.conn, name), getattr(two.conn, name))
            assert np.array_equal(one.N, two.N)
            assert np.array_equal(one.M, two.M)
            assert one.phi == two.phi
            assert one.H is None and one.dphi is None
            assert np.array_equal(christoffel_matrix(chart, p),
                                  connection_data(chart, p, 2).Gam)


def test_metric_compatibility():
    p = np.array([0.2, -0.1, 0.3])
    g, dg, _ = metric_jets(SPHERE, p, 1)
    Gam = christoffel_matrix(SPHERE, p)
    rhs = np.einsum("lki,lj->ijk", Gam, g) + np.einsum("lkj,il->ijk", Gam, g)
    assert np.abs(dg - rhs).max() < 1e-13


def _riemann_lowered(chart, p):
    """Rl[a, b, c, d] = g(R(e_a, e_b) e_c, e_d) from the connection at p."""
    c = connection_data(chart, p)
    return reference_riemann_lowered(c.g, reference_riemann(c.Gam, c.dGam))


@pytest.mark.parametrize(
    "chart,expected", [(SPHERE, 1.0), (HYPER, -1.0), (FLAT3, 0.0)]
)
def test_sectional_curvature_of_space_forms(chart, expected):
    for raw in SPHERE_PTS:
        p = raw * (0.4 if chart is HYPER else 1.0)
        Rl = _riemann_lowered(chart, p)
        g = metric_value(chart, p)
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
    N = field_data(FLAT2, rot, np.array([0.7, -0.3]), 1).N
    assert np.abs(N - np.array([[0.0, -1.0], [1.0, 0.0]])).max() == 0.0
    # Killing for the sphere metric too: g N must be skew
    sph2 = models.sphere_stereographic(2)
    rot3 = models.rotation(sph2, 1, 2)
    p = np.array([0.5, 0.8])
    N = field_data(sph2, rot3, p, 1).N
    g = metric_value(sph2, p)
    A = g @ N
    assert np.abs(A + A.T).max() < 1e-13


def test_covariant_derivative_of_quadratic_field_on_axis():
    K = models.special_conformal(FLAT3, 1)
    N = field_data(FLAT3, K, np.array([0.3, 0.0, 0.0]), 1).N
    assert np.abs(N + 0.6 * np.eye(3)).max() < 1e-15


def test_euler_identity_map_everywhere():
    eu = models.euler(FLAT3)
    N = field_data(FLAT3, eu, np.array([0.9, -1.1, 0.2]), 1).N
    assert np.abs(N - np.eye(3)).max() == 0.0
    N2 = field_data(FLAT2, models.euler(FLAT2), np.array([0.3, 0.4]), 1).N
    assert np.trace(N2) == 2.0


def test_derivative_two_form_of_rotation():
    rot = models.rotation(FLAT2)
    M = field_data(FLAT2, rot, np.array([0.2, 0.5]), 1).M
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
    p = np.array([0.4, -0.7, 0.2])
    g = metric_value(chart, p)
    N = field_data(chart, xi, p, 1).N
    A = (g @ N).T  # A[i, j] = g(nabla_{e_i} xi, e_j)
    M = field_data(chart, xi, p, 1).M
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
        exact = reference_lie_derivative(chart, xi, p)
        approx = fd_lie_derivative(chart, xi, p)
        assert np.abs(exact - approx).max() < 1e-8


def test_killing_fields_have_vanishing_lie_derivative():
    p = np.array([0.6, -0.3, 0.2])
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
        fd = field_data(chart, xi, p)
        N, H = fd.N, fd.H
        assert np.array_equal(N, field_data(chart, xi, p, 1).N)
        Gam = christoffel_matrix(chart, p)
        dN = np.empty((3, 3, 3))
        for i in range(3):
            for k in range(3):
                f = lambda q, i=i, k=k: field_data(chart, xi, q, 1).N[i, k]
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
        H = field_data(chart, xi, p).H
        c = connection_data(chart, p)
        R = reference_riemann(c.Gam, c.dGam)
        # R(e_j, xi) e_k = R[i, k, j, l] xi^l e_i
        curv = np.einsum("ikjl,l->ijk", R, field_jets(xi, p, 0)[0])
        assert np.abs(H).max() > 0.1
        assert np.abs(H - curv).max() < 1e-12


def test_field_jets_hessian_symmetry():
    xi = models.special_conformal(FLAT3, 1)
    _, _, hess = field_jets(xi, np.array([0.2, 0.4, -0.5]), 2)
    assert np.abs(hess - hess.transpose(0, 2, 1)).max() == 0.0


# -- norms, frames, raising and lowering -------------------------------------


def test_norms_and_musical_isomorphisms():
    p = np.array([0.3, -0.2, 0.5])
    g = metric_value(SPHERE, p)
    ginv = spd_inverse(g)
    v = np.array([0.4, -1.0, 0.3])
    w = g @ v
    assert np.abs(ginv @ w - v).max() < 1e-14
    assert norm_vector(g, v) == pytest.approx(math.sqrt(w @ ginv @ w), rel=1e-14)

    df = eval_jet(parse("x1*x2 - x3^2", 3), p, 1).d1
    assert np.abs(g @ (ginv @ df) - df).max() < 1e-14


def test_two_form_norm_is_frame_frobenius():
    p = np.array([0.2, 0.1, -0.3])
    g = metric_value(SPHERE, p)
    ginv = spd_inverse(g)
    L = np.linalg.cholesky(g)
    Linv = np.linalg.inv(L)
    M = np.array([[0.0, 1.5, -0.2], [-1.5, 0.0, 0.7], [0.2, -0.7, 0.0]])
    frame_frob = float(np.linalg.norm(Linv @ M @ Linv.T))
    assert norm_2form(ginv, M) == pytest.approx(frame_frob, rel=1e-13)


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
            kernel = frame_svd(metric_factor(g), tensor, kind).kernel
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
    classify_zero slices it), are those of the call on the factor of g[i]
    and on T[i], bit for bit, which has an int rank.  The cut is per row, so a
    full-rank row scaled by 1e-8 keeps its rank."""
    rng = np.random.default_rng([n, len(kind)])
    full = n if kind == "endomorphism" else 2 * (n // 2)
    ranks = [0, 2, full, 2, full, 0, 2]
    g = np.stack([_random_spd(rng, n) for _ in ranks])
    T = np.stack([_tensor_of_rank(rng, n, r, kind) for r in ranks])
    T[4] *= 1e-8
    svd = frame_svd(metric_factor(g), T, kind)
    assert svd.rank.tolist() == ranks
    frame_rows = svd.Vt @ svd.Linv
    for i in range(len(ranks)):
        one = frame_svd(metric_factor(g[i]), T[i], kind)
        assert type(one.rank) is int and one.rank == ranks[i]
        for name in ("L", "Linv", "U", "sigma", "Vt"):
            assert _bits(getattr(svd, name)[i]) == _bits(getattr(one, name)), (i, name)
        assert _bits(frame_rows[i, ranks[i]:]) == _bits(one.kernel), i


def test_stacked_kernel_and_solve_need_one_rank():
    """Over a stack of one rank, kernel and solve give each row's one-matrix
    result bit for bit; over mixed ranks they refuse."""
    rng = np.random.default_rng(17)
    n, k = 4, 2
    g = np.stack([_random_spd(rng, n) for _ in range(6)])
    N = np.stack([_tensor_of_rank(rng, n, n - k, "endomorphism") for _ in range(6)])
    rhs = rng.normal(size=(6, k, k, n))
    svd = frame_svd(metric_factor(g), N, "endomorphism")
    kernel, x = svd.kernel, svd.solve(rhs)
    assert kernel.shape == (6, k, n) and x.shape == rhs.shape
    for i in range(6):
        one = frame_svd(metric_factor(g[i]), N[i], "endomorphism")
        assert _bits(kernel[i]) == _bits(one.kernel)
        assert _bits(x[i]) == _bits(one.solve(rhs[i]))
    N[3] = _tensor_of_rank(rng, n, n, "endomorphism")
    mixed = frame_svd(metric_factor(g), N, "endomorphism")
    with pytest.raises(ValueError, match="ranks"):
        mixed.kernel
    with pytest.raises(ValueError, match="ranks"):
        mixed.solve(rhs)


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
        kernel = frame_svd(factor, T, "endomorphism").kernel
        assert np.abs(kernel @ g @ kernel.swapaxes(-1, -2) - 1.0).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complete_orthonormal_frame_random_spd(n):
    rng = np.random.default_rng(200 + n)
    for scale in (1e-9, 1.0, 1e9):
        g = _random_spd(rng, n)
        v = scale * rng.normal(size=n)
        frame = complete_orthonormal_frame(metric_factor(g), v)
        assert frame.shape == (n, n)
        assert np.abs(frame @ g @ frame.T - np.eye(n)).max() < 1e-12
        assert np.abs(frame[0] - v / norm_vector(g, v)).max() < 1e-14 * (1 + np.abs(frame[0]).max())



@pytest.mark.parametrize("n", [3, 4])
def test_stacked_frames_are_the_one_vector_calls(n):
    """A stack of vectors, with the metrics of catalog points (laid out as a
    batch gives them) and random SPD ones, gives per row the frame of the
    one-vector call, bit for bit."""
    rng = np.random.default_rng(40 + n)
    chart = models.hyperbolic_ball(n)
    g = connection_data(chart, sample_interior(chart, 7, rng), 1).g
    g = np.concatenate([g, np.stack([_random_spd(rng, n) for _ in range(7)])])
    v = rng.normal(size=(14, n))
    frames = complete_orthonormal_frame(metric_factor(g), v)
    assert frames.shape == (14, n, n)
    for i in range(14):
        one = complete_orthonormal_frame(metric_factor(g[i]), v[i])
        assert _bits(frames[i]) == _bits(one), i


def test_complete_orthonormal_frame_starts_along_v():
    p = np.array([-0.4, 0.2, 0.6])
    g = metric_value(HYPER, p * 0.5)
    v = np.array([0.3, -0.2, 0.9])
    frame = complete_orthonormal_frame(metric_factor(g), v)
    assert frame.shape == (3, 3)
    assert np.abs(frame @ g @ frame.T - np.eye(3)).max() < 1e-12
    cross = np.cross(frame[0], v)
    assert np.linalg.norm(cross) < 1e-12


@pytest.mark.parametrize("v", [np.zeros(3), [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_complete_orthonormal_frame_refuses_zero_and_non_finite(v):
    with pytest.raises(MetricError):
        complete_orthonormal_frame(metric_factor(np.eye(3)), np.asarray(v))


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
    pts = sample_interior(FLAT2, 200, np.random.default_rng(3), margin=0.1)
    width = FLAT2.upper - FLAT2.lower
    assert np.all(pts >= FLAT2.lower + 0.1 * width - 1e-12)
    assert np.all(pts <= FLAT2.upper - 0.1 * width + 1e-12)


def test_sample_ball_draws_one_normal_and_one_uniform_block():
    """Rows lie at distance 0.2 r_eff to r_eff from x, r_eff here half the
    distance to the box face x3 = 2; the draws are one (count, n) normal
    block and then one uniform block of count radii."""
    x = np.array([0.3, -0.2, 1.5])
    count = 20
    rng = np.random.default_rng(7)
    pts = sample_ball(FLAT3, x, 0.4, count, rng)
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


def test_field_norm_of_quadratic_field_is_r_squared_flat():
    K = models.special_conformal(FLAT3, 1)
    for p in ([0.3, 0.4, 0.0], [1.0, -1.0, 0.5]):
        p = np.asarray(p)
        assert field_norm(FLAT3, K, p) == pytest.approx(float(p @ p), rel=1e-12)
