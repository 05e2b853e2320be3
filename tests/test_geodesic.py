"""Geodesic integration, exponential map, and Taylor expansions at zeros."""
import math

import numpy as np
import pytest

import confield.cli as cli
import confield.geodesic as geodesic
import confield.geometry as geometry
import confield.models as models
from confield.essential import find_zeros
from confield.expr import Const, Mul, Var, parse
from confield.geodesic import (
    DomainExitError,
    TaylorResiduals,
    dxi_identity_residual,
    exp_map,
    integrate_geodesic,
    taylor_checks,
)
from confield.geometry import (
    FieldSpec,
    christoffel_matrix,
    complete_orthonormal_frame,
    field_data,
    metric_factor,
    metric_value,
    norm_vector,
    sample_interior,
)
from helpers import (SHEARED, mobius_conjugate, mobius_field, mobius_matrix, mobius_parts,
                     recording_calls, reference_dxi_identity_residual,
                     rk4_taylor_derivatives)

SPHERE = models.sphere_stereographic(3)
HYPER = models.hyperbolic_ball(3)
FLAT3 = models.euclidean(3)


def _checks_at(chart, xi, x, v):
    """``taylor_checks`` at one zero x in direction v, on the stack of one
    holding them: the row of each residual."""
    res = taylor_checks(field_data(chart, xi, np.asarray(x)[None]), np.asarray(v)[None])
    return TaylorResiduals(*(a[0] for a in res))


def _derivatives_at(chart, xi, x, v):
    """``(N v, H(v, v), f', f'')`` from the record at one point x, with v
    normalized in g: nabla_t (xi o c) and nabla_t^2 (xi o c) at t = 0
    along c(t) = exp_x(tv), and the derivatives f' = g(N v, v) and f'' =
    g(H(v, v), v) of f(t) = g(xi, c'(t))."""
    jets = field_data(chart, xi, np.asarray(x, dtype=float)[None])
    g = jets.conn.g[0]
    v = np.asarray(v, dtype=float)
    v = v / norm_vector(g[None], v[None])[0]
    first = jets.N[0] @ v
    second = np.einsum("ijk,j,k->i", jets.H[0], v, v)
    return first, second, first @ g @ v, second @ g @ v


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
    length = norm_vector(metric_value(SPHERE, np.zeros((1, 3))), v[None])[0]
    q = exp_map(SPHERE, np.zeros(3), v * (math.pi / 2.0) / length)
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
        g = metric_value(SPHERE, s.position[None])
        assert norm_vector(g, s.velocity[None]) == pytest.approx([1.0], abs=1e-9)
        G = s.frame @ g[0] @ s.frame.T
        assert np.abs(G - np.eye(3)).max() < 1e-8
    # frame starts along the initial direction
    g0 = metric_value(SPHERE, np.array([[0.2, 0.1, -0.3]]))
    v0 = v / norm_vector(g0, v[None])[0]
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
    "taylor_checks": lambda v: _checks_at(FLAT3, _QUADRATIC, np.zeros(3), v),
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
    v = np.array([1.0, 0.0, 0.0])
    assert _checks_at(FLAT3, K, np.zeros(3), v).scalar < 1e-9
    _, _, f_prime, f_second = _derivatives_at(FLAT3, K, np.zeros(3), v)
    assert f_prime == pytest.approx(0.0, abs=1e-9)
    assert f_second == pytest.approx(-2.0, abs=1e-6)


def test_scalar_expansion_generic_direction():
    K = models.special_conformal(FLAT3, 1)
    v = np.array([0.36, 0.48, 0.8])
    assert _checks_at(FLAT3, K, np.zeros(3), v).scalar < 1e-9
    # f''(0) = dphi(c'(0)) with phi = -2 x1, unit speed keeps v as given
    assert _derivatives_at(FLAT3, K, np.zeros(3), v)[3] == pytest.approx(-2.0 * 0.36, abs=1e-6)


def test_scalar_expansion_rotation_zero_is_flat_function():
    rot = models.rotation(FLAT3, 1, 2)
    v = np.array([0.0, 1.0, 0.0])
    assert _checks_at(FLAT3, rot, np.zeros(3), v).scalar < 1e-10
    assert _derivatives_at(FLAT3, rot, np.zeros(3), v)[3] == pytest.approx(0.0, abs=1e-8)


def test_scalar_expansion_on_curved_chart():
    K = models.sphere_translation(SPHERE, 1)
    assert _checks_at(SPHERE, K, np.zeros(3), np.array([0.0, 0.6, 0.8])).scalar < 1e-8


def test_scalar_check_requires_a_zero():
    K = models.special_conformal(FLAT3, 1)
    with pytest.raises(ValueError):
        _checks_at(FLAT3, K, np.array([0.5, 0.0, 0.0]), np.ones(3))


def test_vector_expansion_at_quadratic_zero():
    """xi'(0) = dxi(c')(0)/2 = 0 and xi''(0) = 2 dphi(c')c' - grad phi, chart
    vectors at the zero; for v = e1 this is -2 e1."""
    K = models.special_conformal(FLAT3, 1)
    v = np.array([1.0, 0.0, 0.0])
    res = _checks_at(FLAT3, K, np.zeros(3), v)
    first, second, _, _ = _derivatives_at(FLAT3, K, np.zeros(3), v)
    assert res.first < 1e-9
    assert res.second < 1e-6
    assert np.abs(second - np.array([-2.0, 0.0, 0.0])).max() < 1e-6
    assert np.abs(first).max() < 1e-9


def test_vector_expansion_transverse_direction():
    """For v = e2 at the quadratic zero: dphi(v) = 0 so xi''(0) = -grad phi
    = 2 e1."""
    K = models.special_conformal(FLAT3, 1)
    v = np.array([0.0, 1.0, 0.0])
    assert _checks_at(FLAT3, K, np.zeros(3), v).second < 1e-6
    second = _derivatives_at(FLAT3, K, np.zeros(3), v)[1]
    assert np.abs(second - np.array([2.0, 0.0, 0.0])).max() < 1e-6


def test_vector_expansion_rotation_first_order():
    rot = models.rotation(FLAT3, 1, 2)
    v = np.array([1.0, 0.0, 0.0])
    res = _checks_at(FLAT3, rot, np.zeros(3), v)
    # xi'(0) = dxi(v)/2 = e2
    assert res.first < 1e-9
    assert np.abs(_derivatives_at(FLAT3, rot, np.zeros(3), v)[0]
                  - np.array([0.0, 1.0, 0.0])).max() < 1e-9
    assert res.second < 1e-7


def test_vector_expansion_at_homothetic_zero():
    """At the zero of the scaling field phi = 1, so xi'(0) = phi v = v: the
    phi v term of the first-order target is not zero here."""
    eu = models.euler(FLAT3)
    v = np.array([0.3, -1.0, 0.5])
    assert _checks_at(FLAT3, eu, np.zeros(3), v).first < 1e-9
    assert np.linalg.norm(_derivatives_at(FLAT3, eu, np.zeros(3), v)[0]) == pytest.approx(
        1.0, abs=1e-9)


def test_vector_expansion_on_curved_chart():
    K = models.sphere_translation(SPHERE, 1)
    res = _checks_at(SPHERE, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert res.first < 1e-8
    assert res.second < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_taylor_checks_refuse_a_nan_zero():
    """inf * 0 is NaN: |xi|_g is NaN at the origin, which is no zero.  The
    parser refuses an infinite constant, so the node is built directly."""
    xi = FieldSpec(FLAT3, (Mul(Const(math.inf), Var(0)), Var(1), Var(2)))
    with pytest.raises(ValueError, match="taylor_checks expects a zero"):
        _checks_at(FLAT3, xi, np.zeros(3), np.array([0.0, 0.0, 1.0]))


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
    res = _checks_at(SPHERE, K, np.zeros(3), np.array([0.0, 0.6, 0.8]))
    assert res.scalar < 1e-12
    assert res.first < 1e-12
    assert res.second < 1e-12


def test_vector_stencil_shares_runs(monkeypatch):
    """The vector results from the transverse direction, to rounding, with
    the integrator refusing every call."""
    _refuse_integration(monkeypatch)
    K = models.sphere_translation(SPHERE, 1)
    res = _checks_at(SPHERE, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert res.first < 1e-12
    assert res.second < 1e-12
    assert res.scalar < 1e-12


def test_checks_build_no_frame(monkeypatch):
    """nabla xi and nabla^2 xi come from field_data as chart vectors, so
    neither the checks on a stack of zeros nor a verify-identities manifest
    builds a g-orthonormal frame: frame_svd is never called."""
    calls = recording_calls(monkeypatch, geometry.frame_svd, lambda out: 1)
    rot = models.rotation(FLAT3, 1, 2)
    zeros = find_zeros(FLAT3, rot)[:4]
    assert len(zeros) == 4
    taylor_checks(field_data(FLAT3, rot, zeros),
                  np.random.default_rng(2).standard_normal(zeros.shape))
    report, code = cli.run_manifest({"chart": {"name": "euclidean", "dim": 3},
                                     "field": {"name": "rotation",
                                               "params": {"axis_i": 1, "axis_j": 2}},
                                     "analyses": ["verify-identities"]})
    assert code == 0 and len(report["analyses"]["verify-identities"]["taylor_at_zeros"]) == 4
    assert calls == []


def _mobius_zeros(n):
    """``(chart, xi, zero)`` for the first 2 found zeros of one seeded
    conjugate P X P^-1 per catalog chart of each of the elliptic
    rotation(1,2), the loxodromic rotation(1,2) + 0.7 euler and the
    parabolic rotation(1,2) + special_conformal(3): zeros off the
    coordinate axes, Killing, homothetic and essential."""
    rng = np.random.default_rng([n, 16])
    B = np.zeros((n, n))
    B[0, 1], B[1, 0] = -1.0, 1.0
    for lam, b in ((0.0, np.zeros(n)), (0.7, np.zeros(n)), (0.0, -np.eye(n)[2])):
        X0 = mobius_matrix(np.zeros(n), B, lam, b)
        for name in ("euclidean", "sphere_stereographic", "hyperbolic_ball"):
            chart = models.make_chart(name, n)
            t = 0.5 * rng.uniform(chart.lower, chart.upper)
            X, _ = mobius_conjugate(X0, t, 0.5 * rng.normal(size=n))
            xi, _ = mobius_field(chart, *mobius_parts(X))
            for z in find_zeros(chart, xi)[:2]:
                yield chart, xi, z


def test_jet_derivatives_match_rk4_differences():
    """The record's N v and H(v, v), with f' and f'', agree with Richardson
    differences of RK4 runs at every checked zero of the catalog in
    dimensions 3 and 4, and at zeros of seeded Moebius conjugates, which lie
    off the coordinate axes.  The frame components a of xi have a' = E g N v
    and a'' = E g H(v, v), with E the parallel frame at the zero.  The
    residuals built from the RK4 derivatives, against the targets phi v +
    (1/2) d(xi^flat)(v)^sharp and 2 dphi(v) v - grad phi taken in that
    frame, are those of ``taylor_checks``."""
    rng = np.random.default_rng(16)
    # the first 4 zeros of each pair, the ones verify-identities checks
    cases = [(chart, xi, z) for dim in (3, 4) for chart, xi in models.standard_pairs(dim)
             for z in find_zeros(chart, xi)[:4]]
    assert len(cases) == 54
    mobius = [case for n in (3, 4) for case in _mobius_zeros(n)]
    assert len(mobius) == 26
    for chart, xi, z in cases + mobius:
        v = rng.standard_normal(chart.dim)
        first, second, f_prime, f_second = _derivatives_at(chart, xi, z, v)
        f1, f2, a1, a2, E = rk4_taylor_derivatives(chart, xi, z, v)
        jets = field_data(chart, xi, z[None])
        g, ginv, phi, dphi = jets.conn.g[0], jets.conn.ginv[0], jets.phi[0], jets.dphi[0]
        Eg = E @ g
        label = f"{chart.name} {xi.name} {z.tolist()}"
        assert abs(f_prime - f1) < 1e-10, label
        assert np.abs(Eg @ first - a1).max() < 1e-10, label
        assert abs(f_second - f2) < 1e-7, label
        assert np.abs(Eg @ second - a2).max() < 1e-7, label

        u = v / norm_vector(g[None], v[None])[0]
        first_target = phi * u - 0.5 * ginv @ (jets.M[0] @ u)
        second_target = 2.0 * (dphi @ u) * u - ginv @ dphi
        res = _checks_at(chart, xi, z, v)
        # E is g-orthonormal, so |w|_g = |E g w| and the frame residuals
        # differ from the record's by at most |a' - E g N v| in the 2-norm
        assert abs(abs(f1 - phi) - res.scalar) < 1e-10, label
        assert abs(np.linalg.norm(a1 - Eg @ first_target) - res.first) < 1e-10 * math.sqrt(chart.dim), label
        assert abs(np.linalg.norm(a2 - Eg @ second_target) - res.second) < 1e-7 * math.sqrt(chart.dim), label


def test_stacked_taylor_checks_are_the_per_zero_checks():
    """One call on the checked zeros of a pair gives, row by row, the checks
    of the stack of one holding that zero, bit for bit."""
    rng = np.random.default_rng(23)
    for dim in (3, 4):
        for chart, xi in models.standard_pairs(dim):
            zeros = find_zeros(chart, xi)[:4]
            if not len(zeros):
                continue
            dirs = rng.standard_normal(zeros.shape)
            res = taylor_checks(field_data(chart, xi, zeros), dirs)
            assert all(np.shape(a) == (len(zeros),) for a in res)
            for i in range(len(zeros)):
                ones = taylor_checks(field_data(chart, xi, zeros[i:i + 1]), dirs[i:i + 1])
                for stacked, one in zip(res, ones):
                    assert np.array_equal(stacked[i], one[0]), (chart.name, xi.name, i)


def test_stacked_taylor_checks_refuse_a_stack_with_a_non_zero():
    zeros = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    jets = field_data(FLAT3, models.special_conformal(FLAT3, 1), zeros)
    with pytest.raises(ValueError, match="zero"):
        taylor_checks(jets, np.ones((2, 3)))
    with pytest.raises(ValueError, match="direction"):
        taylor_checks(field_data(FLAT3, models.special_conformal(FLAT3, 1), zeros[:1]),
                      np.zeros((1, 3)))


def _per_point_rk4(chart, x, v, length, steps):
    """An independent per-point RK4 loop, for a run that stays inside the
    box, evaluating on stacks of one: (t, position, velocity, frame) per
    step."""
    g = metric_value(chart, x[None])
    v = v / norm_vector(g, v[None])[0]
    frame = complete_orthonormal_frame(metric_factor(g), v[None])[0]

    def rhs(x, v, frame):
        Gam = christoffel_matrix(chart, x[None])[0]
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
    """The integrator is the per-point loop, bit for bit."""
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
    res = _checks_at(FLAT3, rot, x, np.array([0.0, 0.0, 1.0]))
    assert res.scalar < 1e-12
    assert res.first < 1e-12
    assert res.second < 1e-12


# -- pointwise two-form derivative identity --------------------------------------


def test_derivative_identity_on_catalog_fields():
    rng = np.random.default_rng(31)
    worst = 0.0
    for chart, xi in models.standard_pairs(3):
        pts = sample_interior(chart, 5, rng)
        dirs = rng.standard_normal((5, 3))
        worst = max(worst, dxi_identity_residual(field_data(chart, xi, pts), dirs).max())
    assert worst < 1e-9


def test_batched_identity_residuals_match_per_point():
    """One call over (m, n) points and directions gives the residuals of
    the stacks of one, for a conformal field (rounding level) and a field
    that is not conformal (order one)."""
    rng = np.random.default_rng(9)
    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    for chart, xi in [(SPHERE, models.sphere_translation(SPHERE, 1)), (FLAT3, bad)]:
        pts = sample_interior(chart, 12, rng)
        dirs = rng.standard_normal((12, 3))
        batched = dxi_identity_residual(field_data(chart, xi, pts), dirs)
        per_point = np.array([dxi_identity_residual(field_data(chart, xi, pts[i:i + 1]),
                                                    dirs[i:i + 1])[0] for i in range(12)])
        assert batched.shape == (12,)
        assert np.abs(batched - per_point).max() <= 1e-14 * max(1.0, per_point.max())



def _non_conformal(chart):
    comps = ["x1*x2", "x3^2", "sin(x1)", "x2*x4"][: chart.dim]
    return FieldSpec(chart, tuple(parse(c, chart.dim) for c in comps), name="non_conformal")


@pytest.mark.parametrize("dim", [3, 4])
def test_identity_residuals_match_the_einsum_reference(dim):
    """On stacks of 1, 7 and 50, over every catalog pair
    (residuals at rounding level) and a field that is not conformal on each
    chart and, in dimension 3, on the sheared chart (residuals of order
    one): the residuals agree with the einsum reference to 1e-13 of the
    largest tensor entry the identity contracts, times |X|.  Off a zero of
    a field on a curved chart, nabla^2 xi(X, Y) - nabla^2 xi(Y, X) =
    R(X, Y) xi, so the reference tells the derivative index of H from its
    argument index."""
    from helpers import reference_field_data

    rng = np.random.default_rng(dim)
    pairs = models.standard_pairs(dim)
    charts = list({c.name: c for c, _ in pairs}.values()) + ([SHEARED] if dim == 3 else [])
    pairs += [(chart, _non_conformal(chart)) for chart in charts]
    for chart, xi in pairs:
        points = sample_interior(chart, 50, rng)
        dirs = rng.standard_normal((50, dim))
        for size in (1, 7, 50):
            p, X = points[:size], dirs[:size]
            got = dxi_identity_residual(field_data(chart, xi, p), X)
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
    pts = sample_interior(FLAT3, 10, rng)
    residuals = dxi_identity_residual(field_data(FLAT3, bad, pts), rng.standard_normal((10, 3)))
    assert residuals.max() > 1e-3
