"""Geodesic integration, exponential map, and Taylor expansions at zeros."""
import math

import numpy as np
import pytest

import confield.geodesic as geodesic
import confield.models as models
from confield.essential import find_zeros
from confield.expr import Const, Mul, Var, parse
from confield.geodesic import (
    DomainExitError,
    dxi_identity_residual,
    exp_map,
    integrate_geodesic,
    taylor_checks,
)
from confield.geometry import (
    FieldSpec,
    christoffel_matrix,
    complete_orthonormal_frame,
    metric_factor,
    metric_value,
    norm_vector,
    sample_interior,
)
from helpers import reference_dxi_identity_residual, rk4_taylor_derivatives

SPHERE = models.sphere_stereographic(3)
HYPER = models.hyperbolic_ball(3)
FLAT3 = models.euclidean(3)


def test_round_sphere_geodesic_radius_law():
    """From the origin of the stereographic chart, a unit-speed geodesic sits
    at coordinate radius tan(t/2)."""
    v = np.array([1.0, 0.0, 0.0])
    states = integrate_geodesic(SPHERE, np.zeros(3), v, 2.0, 512)
    for s in states[1:]:
        r = np.linalg.norm(s.position)
        assert r == pytest.approx(math.tan(s.t / 2.0), abs=1e-9)


def test_hyperbolic_geodesic_radius_law():
    v = np.array([0.0, 1.0, 0.0])
    states = integrate_geodesic(HYPER, np.zeros(3), v, 1.2, 512)
    for s in states[1:]:
        r = np.linalg.norm(s.position)
        assert r == pytest.approx(math.tanh(s.t / 2.0), abs=1e-9)


def test_exp_map_reaches_equator():
    """Length pi/2 from the chart origin ends on the coordinate unit sphere."""
    v = np.array([0.6, -0.8, 0.0])
    q = exp_map(SPHERE, np.zeros(3), v * (math.pi / 2.0) / norm_vector(metric_value(SPHERE, np.zeros(3)), v))
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-8)


def test_exp_map_zero_vector_is_identity():
    x = np.array([0.3, -0.2, 0.4])
    q = exp_map(SPHERE, x, np.zeros(3))
    assert np.array_equal(q, x)
    assert q is not x


def test_exp_map_raises_on_domain_exit():
    x = np.array([1.9, 0.0, 0.0])
    with pytest.raises(DomainExitError):
        exp_map(FLAT3, x, np.array([5.0, 0.0, 0.0]))


def test_truncation_returns_partial_trajectory():
    x = np.array([1.5, 0.0, 0.0])
    states = integrate_geodesic(FLAT3, x, np.array([1.0, 0.0, 0.0]), 3.0, 300)
    assert 1 < len(states) < 301
    last = states[-1]
    assert last.position[0] <= 2.0
    assert last.t < 3.0


def test_rk4_convergence_order():
    v = np.array([0.3, 0.7, -0.2])
    ref = integrate_geodesic(SPHERE, np.zeros(3), v, 1.0, 2048)[-1].position
    errs = []
    for steps in (16, 32, 64):
        end = integrate_geodesic(SPHERE, np.zeros(3), v, 1.0, steps)[-1].position
        errs.append(np.linalg.norm(end - ref))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 3.5
    assert order2 > 3.5


def test_parallel_frame_stays_orthonormal_and_speed_unit():
    v = np.array([0.5, -0.1, 0.8])
    states = integrate_geodesic(SPHERE, np.array([0.2, 0.1, -0.3]), v, 2.0, 256)
    assert states[-1].t == pytest.approx(2.0)
    for s in states[::32] + [states[-1]]:
        g = metric_value(SPHERE, s.position)
        assert norm_vector(g, s.velocity) == pytest.approx(1.0, abs=1e-9)
        G = s.frame @ g @ s.frame.T
        assert np.abs(G - np.eye(3)).max() < 1e-8
    # frame starts along the initial direction
    g0 = metric_value(SPHERE, np.array([0.2, 0.1, -0.3]))
    v0 = v / norm_vector(g0, v)
    assert np.abs(states[0].frame[0] - v0).max() < 1e-12


def test_geodesic_input_validation():
    with pytest.raises(ValueError):
        integrate_geodesic(FLAT3, np.zeros(3), np.zeros(3), 1.0, 64)
    with pytest.raises(ValueError):
        integrate_geodesic(FLAT3, np.zeros(3), np.ones(3), 1.0, 0)
    nan = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite and nonzero"):
        integrate_geodesic(FLAT3, np.zeros(3), nan, 1.0, 64)
    with pytest.raises(ValueError, match="finite vector"):
        exp_map(FLAT3, np.zeros(3), nan)
    x = np.array([0.1, -0.2, 0.3])
    assert np.array_equal(exp_map(FLAT3, x, np.zeros(3)), x)


_QUADRATIC = models.special_conformal(FLAT3, 1)
_CALLS = {
    "integrate_geodesic": lambda v: integrate_geodesic(FLAT3, np.zeros(3), v, 1.0, 64),
    "exp_map": lambda v: exp_map(FLAT3, np.zeros(3), v),
    "taylor_checks": lambda v: taylor_checks(FLAT3, _QUADRATIC, np.zeros(3), v),
}
_DIRECTIONS = {"inf": [np.inf, 0.0, 0.0], "-inf": [0.0, -np.inf, 0.0],
               "nan": [np.nan, 1.0, 0.0], "zero": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("call, direction", [
    (call, direction) for call in _CALLS for direction in _DIRECTIONS
    if (call, direction) != ("exp_map", "zero")  # exp_map(x, 0) is x
])
def test_zero_and_non_finite_directions_are_refused(call, direction):
    """A ValueError, raised before v enters a product: under the suite's
    RuntimeWarning-as-error filter an inf * 0 inside a matmul would stop the
    call with a warning instead."""
    with pytest.raises(ValueError):
        _CALLS[call](np.array(_DIRECTIONS[direction]))


# -- Taylor behavior at zeros ---------------------------------------------------


def test_scalar_expansion_at_quadratic_zero_flat():
    """f(t) = g(xi, c') along a geodesic through the zero of the quadratic
    generator: f'(0) = phi and, for v = e1, f(t) = -t^2 exactly."""
    K = models.special_conformal(FLAT3, 1)
    res = taylor_checks(FLAT3, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))[0]
    assert res.derivative_residual < 1e-9
    assert res.f_prime == pytest.approx(0.0, abs=1e-9)
    assert res.f_second == pytest.approx(-2.0, abs=1e-6)


def test_scalar_expansion_generic_direction():
    K = models.special_conformal(FLAT3, 1)
    v = np.array([0.36, 0.48, 0.8])
    res = taylor_checks(FLAT3, K, np.zeros(3), v)[0]
    assert res.derivative_residual < 1e-9
    # f''(0) = dphi(c'(0)) with phi = -2 x1, unit speed keeps v as given
    assert res.f_second == pytest.approx(-2.0 * 0.36, abs=1e-6)


def test_scalar_expansion_rotation_zero_is_flat_function():
    rot = models.rotation(FLAT3, 1, 2)
    res = taylor_checks(FLAT3, rot, np.zeros(3), np.array([0.0, 1.0, 0.0]))[0]
    assert res.derivative_residual < 1e-10
    assert res.f_second == pytest.approx(0.0, abs=1e-8)


def test_scalar_expansion_on_curved_chart():
    K = models.sphere_translation(SPHERE, 1)
    res = taylor_checks(SPHERE, K, np.zeros(3), np.array([0.0, 0.6, 0.8]))[0]
    assert res.derivative_residual < 1e-8


def test_scalar_check_requires_a_zero():
    K = models.special_conformal(FLAT3, 1)
    with pytest.raises(ValueError):
        taylor_checks(FLAT3, K, np.array([0.5, 0.0, 0.0]), np.ones(3))


def test_vector_expansion_at_quadratic_zero():
    """xi'(0) = dxi(c')(0)/2 = 0 and xi''(0) = 2 dphi(c')c' - grad phi in the
    parallel frame; for v = e1 this is -2 e1."""
    K = models.special_conformal(FLAT3, 1)
    res = taylor_checks(FLAT3, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))[1]
    assert res.first_residual < 1e-9
    assert res.second_residual < 1e-6
    assert np.abs(res.second - np.array([-2.0, 0.0, 0.0])).max() < 1e-6
    assert np.abs(res.first).max() < 1e-9


def test_vector_expansion_transverse_direction():
    """For v = e2 at the quadratic zero: dphi(v) = 0 so xi''(0) = -grad phi
    = 2 e1, expressed in a frame whose first row is e2."""
    K = models.special_conformal(FLAT3, 1)
    res = taylor_checks(FLAT3, K, np.zeros(3), np.array([0.0, 1.0, 0.0]))[1]
    assert res.second_residual < 1e-6
    # frame rows: e2 completed to an orthonormal frame; components of 2 e1
    norm = np.linalg.norm(res.second)
    assert norm == pytest.approx(2.0, abs=1e-6)


def test_vector_expansion_rotation_first_order():
    rot = models.rotation(FLAT3, 1, 2)
    res = taylor_checks(FLAT3, rot, np.zeros(3), np.array([1.0, 0.0, 0.0]))[1]
    # xi'(0) = dxi(v)/2 = e2 direction with magnitude 1
    assert res.first_residual < 1e-9
    assert np.linalg.norm(res.first) == pytest.approx(1.0, abs=1e-9)
    assert res.second_residual < 1e-7


def test_vector_expansion_at_homothetic_zero():
    """At the zero of the scaling field phi = 1, so xi'(0) = phi v = v: the
    phi v term of the first-order target is not zero here."""
    eu = models.euler(FLAT3)
    res = taylor_checks(FLAT3, eu, np.zeros(3), np.array([0.3, -1.0, 0.5]))[1]
    assert res.first_residual < 1e-9
    assert np.linalg.norm(res.first) == pytest.approx(1.0, abs=1e-9)


def test_vector_expansion_on_curved_chart():
    K = models.sphere_translation(SPHERE, 1)
    res = taylor_checks(SPHERE, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))[1]
    assert res.first_residual < 1e-8
    assert res.second_residual < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_taylor_checks_refuse_a_nan_zero():
    """inf * 0 is NaN: |xi|_g is NaN at the origin, which is no zero.  The
    parser refuses an infinite constant, so the node is built directly."""
    xi = FieldSpec(FLAT3, (Mul(Const(math.inf), Var(0)), Var(1), Var(2)))
    with pytest.raises(ValueError, match="requires a zero"):
        taylor_checks(FLAT3, xi, np.zeros(3), np.array([0.0, 0.0, 1.0]))


# -- the checks read the 2-jet at the zero, and integrate no geodesic -------------


def _refuse_integration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("taylor_checks integrated a geodesic")

    monkeypatch.setattr(geodesic, "integrate_geodesic", refuse)


def test_scalar_stencil_shares_runs(monkeypatch):
    """The scalar result on a curved chart, to rounding, with the integrator
    refusing every call: the check runs no geodesic at all."""
    _refuse_integration(monkeypatch)
    K = models.sphere_translation(SPHERE, 1)
    scalar, vector = taylor_checks(SPHERE, K, np.zeros(3), np.array([0.0, 0.6, 0.8]))
    assert scalar.derivative_residual < 1e-12
    assert vector.first_residual < 1e-12
    assert vector.second_residual < 1e-12


def test_vector_stencil_shares_runs(monkeypatch):
    """The vector results from the transverse direction, to rounding, with
    the integrator refusing every call."""
    _refuse_integration(monkeypatch)
    K = models.sphere_translation(SPHERE, 1)
    scalar, vector = taylor_checks(SPHERE, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert vector.first_residual < 1e-12
    assert vector.second_residual < 1e-12
    assert scalar.derivative_residual < 1e-12


def test_jet_derivatives_match_rk4_differences():
    """f', f'', a' and a'' from the 2-jet agree with Richardson differences
    of RK4 runs at every checked zero of the catalog in dimensions 3 and 4."""
    rng = np.random.default_rng(16)
    # the first 4 zeros of each pair, the ones verify-identities checks
    cases = [(chart, xi, z) for dim in (3, 4) for chart, xi in models.standard_pairs(dim)
             for z in find_zeros(chart, xi)[:4]]
    assert len(cases) == 54
    for chart, xi, z in cases:
        v = rng.standard_normal(chart.dim)
        scalar, vector = taylor_checks(chart, xi, z, v)
        f1, f2, a1, a2 = rk4_taylor_derivatives(chart, xi, z, v)
        label = f"{chart.name} {xi.name} {z.tolist()}"
        assert abs(scalar.f_prime - f1) < 1e-10, label
        assert np.abs(vector.first - a1).max() < 1e-10, label
        assert abs(scalar.f_second - f2) < 1e-7, label
        assert np.abs(vector.second - a2).max() < 1e-7, label



def test_stacked_taylor_checks_are_the_per_zero_checks():
    """One call on the checked zeros of a pair gives, row by row, the checks
    of the batch of one bit for bit, and the one-zero call (floats and (n,)
    arrays) to rounding."""
    rng = np.random.default_rng(23)
    for dim in (3, 4):
        for chart, xi in models.standard_pairs(dim):
            zeros = find_zeros(chart, xi)[:4]
            if not len(zeros):
                continue
            dirs = rng.standard_normal(zeros.shape)
            scalar, vector = taylor_checks(chart, xi, zeros, dirs)
            assert np.shape(scalar.f_prime) == (len(zeros),)
            assert vector.first.shape == vector.second.shape == zeros.shape
            for i, (z, v) in enumerate(zip(zeros, dirs)):
                s1, v1 = taylor_checks(chart, xi, zeros[i:i + 1], dirs[i:i + 1])
                for stacked, one in zip(scalar + vector, s1 + v1):
                    assert np.array_equal(stacked[i], one[0]), (chart.name, xi.name, i)
                s0, v0 = taylor_checks(chart, xi, z, v)
                assert all(type(a) is float for a in s0 + v0[:2])
                assert v0.first.shape == v0.second.shape == (dim,)
                for stacked, one in zip(scalar + vector, s0 + v0):
                    assert np.allclose(stacked[i], one, rtol=0, atol=1e-13)


def test_stacked_taylor_checks_refuse_a_stack_with_a_non_zero():
    zeros = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match="zero"):
        taylor_checks(FLAT3, models.special_conformal(FLAT3, 1), zeros, np.ones((2, 3)))
    with pytest.raises(ValueError, match="direction"):
        taylor_checks(FLAT3, models.special_conformal(FLAT3, 1), zeros[:1], np.zeros((1, 3)))


def _per_point_rk4(chart, x, v, length, steps):
    """An independent per-point RK4 loop, for a run that stays inside the
    box: (t, position, velocity, frame) per step."""
    g = metric_value(chart, x)
    v = v / norm_vector(g, v)
    frame = complete_orthonormal_frame(metric_factor(g), v)

    def rhs(x, v, frame):
        Gam = christoffel_matrix(chart, x)
        return v, -np.einsum("kij,i,j->k", Gam, v, v), -np.einsum("kij,i,aj->ak", Gam, v, frame)

    h = length / steps
    y = (x, v, frame)
    out = [(0.0, *y)]
    for k in range(steps):
        k1 = rhs(*y)
        k2 = rhs(*(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = rhs(*(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = rhs(*(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        out.append(((k + 1) * h, *y))
    return out


@pytest.mark.parametrize("chart", [SPHERE, HYPER, models.hyperbolic_ball(4)],
                         ids=lambda c: c.name)
def test_one_lane_equals_the_per_point_loop(chart):
    """Without a lane axis the integrator is the per-point loop, bit for bit."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.4, 0.4, chart.dim)
    v = rng.standard_normal(chart.dim)
    states = integrate_geodesic(chart, x, v, 0.7, 48)
    reference = _per_point_rk4(chart, x, v, 0.7, 48)
    assert len(states) == len(reference)
    for s, (t, position, velocity, frame) in zip(states, reference):
        assert s.t == t and np.ndim(s.t) == 0
        assert np.array_equal(s.position, position)
        assert np.array_equal(s.velocity, velocity)
        assert np.array_equal(s.frame, frame)


@pytest.mark.parametrize("height", [1.95, 1.9995, 1.85])
def test_checks_next_to_the_box_edge(height, monkeypatch):
    """The x3 axis is the zero set of rotation(1, 2); going up it towards the
    box face x3 = 2, the checks still run and pass, with no geodesic to
    leave the box."""
    _refuse_integration(monkeypatch)
    rot = models.rotation(FLAT3, 1, 2)
    x = np.array([0.0, 0.0, height])
    scalar, vector = taylor_checks(FLAT3, rot, x, np.array([0.0, 0.0, 1.0]))
    assert scalar.derivative_residual < 1e-12
    assert vector.first_residual < 1e-12
    assert vector.second_residual < 1e-12


# -- pointwise two-form derivative identity --------------------------------------


def test_derivative_identity_on_catalog_fields():
    rng = np.random.default_rng(31)
    worst = 0.0
    for chart, xi in models.standard_pairs(3):
        pts = sample_interior(chart, 5, rng)
        for p in pts:
            X = rng.standard_normal(3)
            worst = max(worst, dxi_identity_residual(chart, xi, p, X))
    assert worst < 1e-9


def test_batched_identity_residuals_match_per_point():
    """One call over (m, n) points and directions gives the per-point
    residuals, for a conformal field (rounding level) and a field that is
    not conformal (order one)."""
    rng = np.random.default_rng(9)
    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    for chart, xi in [(SPHERE, models.sphere_translation(SPHERE, 1)), (FLAT3, bad)]:
        pts = sample_interior(chart, 12, rng)
        dirs = rng.standard_normal((12, 3))
        batched = dxi_identity_residual(chart, xi, pts, dirs)
        per_point = np.array([dxi_identity_residual(chart, xi, p, X) for p, X in zip(pts, dirs)])
        assert batched.shape == (12,)
        assert np.abs(batched - per_point).max() <= 1e-14 * max(1.0, per_point.max())



def _non_conformal(chart):
    comps = ["x1*x2", "x3^2", "sin(x1)", "x2*x4"][: chart.dim]
    return FieldSpec(chart, tuple(parse(c, chart.dim) for c in comps), name="non_conformal")


@pytest.mark.parametrize("dim", [3, 4])
def test_identity_residuals_match_the_einsum_reference(dim):
    """At a 1-d point and on stacks of 1, 7 and 50, over every catalog pair
    (residuals at rounding level) and a field that is not conformal on each
    chart (residuals of order one): the residuals agree with the einsum
    reference to 1e-13 of the largest tensor entry the identity contracts,
    times |X|."""
    from helpers import reference_field_data

    rng = np.random.default_rng(dim)
    pairs = models.standard_pairs(dim)
    pairs += [(chart, _non_conformal(chart)) for chart in {c.name: c for c, _ in pairs}.values()]
    for chart, xi in pairs:
        points = sample_interior(chart, 50, rng)
        dirs = rng.standard_normal((50, dim))
        for size in (None, 1, 7, 50):
            p, X = (points[0], dirs[0]) if size is None else (points[:size], dirs[:size])
            got = dxi_identity_residual(chart, xi, p, X)
            ref = reference_dxi_identity_residual(chart, xi, p, X)
            assert np.shape(got) == np.shape(ref), size
            fd = reference_field_data(chart, xi, p, 2)
            tensors = [fd[k] for k in ("value", "jac", "hess", "H", "dphi")]
            tensors += [fd["conn"][k] for k in ("g", "dg", "d2g", "Gam", "dGam")]
            scale = max(np.abs(t).max() for t in tensors) * max(1.0, np.abs(X).max())
            assert np.abs(got - ref).max() <= 1e-13 * scale, (chart.name, xi.name, size)


def test_derivative_identity_fails_for_non_conformal_field():
    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    rng = np.random.default_rng(8)
    residuals = [
        dxi_identity_residual(FLAT3, bad, p, rng.standard_normal(3))
        for p in sample_interior(FLAT3, 10, rng)
    ]
    assert max(residuals) > 1e-3
