"""Geodesic integration, exponential map, and Taylor expansions at zeros."""
import math

import numpy as np
import pytest

import confield.geodesic as geodesic
import confield.models as models
from confield.expr import parse
from confield.geodesic import (
    DomainExitError,
    dxi_identity_residual,
    exp_map,
    integrate_geodesic,
    taylor_scalar_check,
    taylor_vector_check,
)
from confield.geometry import (
    FieldSpec,
    complete_orthonormal_frame,
    metric_value,
    norm_vector,
    sample_interior,
)

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


# -- Taylor behavior at zeros ---------------------------------------------------


def test_scalar_expansion_at_quadratic_zero_flat():
    """f(t) = g(xi, c') along a geodesic through the zero of the quadratic
    generator: f'(0) = phi and, for v = e1, f(t) = -t^2 exactly."""
    K = models.special_conformal(FLAT3, 1)
    res = taylor_scalar_check(FLAT3, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert res.derivative_residual < 1e-9
    assert res.f_prime == pytest.approx(0.0, abs=1e-9)
    assert res.f_second == pytest.approx(-2.0, abs=1e-6)
    assert res.remainder_order == math.inf


def test_scalar_expansion_generic_direction():
    K = models.special_conformal(FLAT3, 1)
    v = np.array([0.36, 0.48, 0.8])
    res = taylor_scalar_check(FLAT3, K, np.zeros(3), v)
    assert res.derivative_residual < 1e-9
    # f''(0) = dphi(c'(0)) with phi = -2 x1, unit speed keeps v as given
    assert res.f_second == pytest.approx(-2.0 * 0.36, abs=1e-6)


def test_scalar_expansion_rotation_zero_is_flat_function():
    rot = models.rotation(FLAT3, 1, 2)
    res = taylor_scalar_check(FLAT3, rot, np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert res.derivative_residual < 1e-10
    assert res.f_second == pytest.approx(0.0, abs=1e-8)
    assert res.remainder_order == math.inf


def test_scalar_expansion_on_curved_chart():
    K = models.sphere_translation(SPHERE, 1)
    res = taylor_scalar_check(SPHERE, K, np.zeros(3), np.array([0.0, 0.6, 0.8]))
    assert res.derivative_residual < 1e-8
    assert res.remainder_order > 2.5


def test_scalar_check_requires_a_zero():
    K = models.special_conformal(FLAT3, 1)
    with pytest.raises(ValueError):
        taylor_scalar_check(FLAT3, K, np.array([0.5, 0.0, 0.0]), np.ones(3))


def test_vector_expansion_at_quadratic_zero():
    """xi'(0) = dxi(c')(0)/2 = 0 and xi''(0) = 2 dphi(c')c' - grad phi in the
    parallel frame; for v = e1 this is -2 e1."""
    K = models.special_conformal(FLAT3, 1)
    res = taylor_vector_check(FLAT3, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert res.first_residual < 1e-9
    assert res.second_residual < 1e-6
    assert np.abs(res.second_fd - np.array([-2.0, 0.0, 0.0])).max() < 1e-6
    assert np.abs(res.first_fd).max() < 1e-9


def test_vector_expansion_transverse_direction():
    """For v = e2 at the quadratic zero: dphi(v) = 0 so xi''(0) = -grad phi
    = 2 e1, expressed in a frame whose first row is e2."""
    K = models.special_conformal(FLAT3, 1)
    res = taylor_vector_check(FLAT3, K, np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert res.second_residual < 1e-6
    # frame rows: e2 completed to an orthonormal frame; components of 2 e1
    norm = np.linalg.norm(res.second_fd)
    assert norm == pytest.approx(2.0, abs=1e-6)


def test_vector_expansion_rotation_first_order():
    rot = models.rotation(FLAT3, 1, 2)
    res = taylor_vector_check(FLAT3, rot, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    # xi'(0) = dxi(v)/2 = e2 direction with magnitude 1
    assert res.first_residual < 1e-9
    assert np.linalg.norm(res.first_fd) == pytest.approx(1.0, abs=1e-9)
    assert res.second_residual < 1e-7


def test_vector_expansion_at_homothetic_zero():
    """At the zero of the scaling field phi = 1, so xi'(0) = phi v = v: the
    phi v term of the first-order target is not zero here."""
    eu = models.euler(FLAT3)
    res = taylor_vector_check(FLAT3, eu, np.zeros(3), np.array([0.3, -1.0, 0.5]))
    assert res.first_residual < 1e-9
    assert np.linalg.norm(res.first_fd) == pytest.approx(1.0, abs=1e-9)


def test_vector_expansion_on_curved_chart():
    K = models.sphere_translation(SPHERE, 1)
    res = taylor_vector_check(SPHERE, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert res.first_residual < 1e-8
    assert res.second_residual < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_taylor_checks_refuse_a_nan_zero():
    """1e200*1e200 overflows to inf and inf * 0 is NaN: |xi|_g is NaN at
    the origin, which is no zero."""
    xi = FieldSpec.vector(
        FLAT3, tuple(parse(s, 3) for s in ("1e200*1e200*x1", "x2", "x3"))
    )
    with pytest.raises(ValueError, match="requires a zero"):
        taylor_scalar_check(FLAT3, xi, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="requires a zero"):
        taylor_vector_check(FLAT3, xi, np.zeros(3), np.array([0.0, 0.0, 1.0]))


# -- one geodesic run per sign and step grid -------------------------------------


def _counting_runs(monkeypatch):
    runs = []
    integrate = geodesic.integrate_geodesic

    def counting(*args, **kwargs):
        states = integrate(*args, **kwargs)
        runs.append(len(states) - 1)
        return states

    monkeypatch.setattr(geodesic, "integrate_geodesic", counting)
    return runs


def test_scalar_stencil_shares_runs(monkeypatch):
    """+0.1 (with 0.05, 0.025, 0.0125 and nothing else on its grid), +h
    (with h/2) and -h (with -h/2): three runs of 32 steps."""
    runs = _counting_runs(monkeypatch)
    K = models.sphere_translation(SPHERE, 1)
    taylor_scalar_check(SPHERE, K, np.zeros(3), np.array([0.0, 0.6, 0.8]))
    assert runs == [32, 32, 32]


def test_vector_stencil_shares_runs(monkeypatch):
    runs = _counting_runs(monkeypatch)
    K = models.sphere_translation(SPHERE, 1)
    taylor_vector_check(SPHERE, K, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert runs == [32, 32]


def test_states_read_off_the_grid_match_fresh_runs():
    """A stencil state read off a longer run agrees with a run of its own,
    which takes 32 steps of a different length."""
    x = np.array([0.2, -0.1, 0.3])
    g = metric_value(SPHERE, x)
    v = np.array([0.5, -0.1, 0.8])
    v = v / norm_vector(g, v)
    frame0 = complete_orthonormal_frame(g, v)
    h = 1e-3
    states = geodesic._states_at(SPHERE, x, v, frame0, [0.1, 0.05, h, -h, -h / 2])
    assert sorted(states) == [-h, -h / 2, h, 0.05, 0.1]
    for t in (0.05, -h / 2):
        sign = 1.0 if t > 0 else -1.0
        fresh = integrate_geodesic(SPHERE, x, sign * v, abs(t), 32, initial_frame=frame0)[-1]
        read = states[t]
        assert read.t == t
        assert np.abs(read.position - fresh.position).max() < 1e-10
        assert np.abs(read.velocity - sign * fresh.velocity).max() < 1e-10
        assert np.abs(read.frame - fresh.frame).max() < 1e-10


@pytest.mark.parametrize(
    "height, scalar_exits, vector_exits",
    [(1.95, True, False), (1.9995, True, True)],
)
def test_stencil_near_the_box_edge(height, scalar_exits, vector_exits):
    """The x3 axis is the zero set of rotation(1, 2); going up it from
    x3 = 1.95 the scalar check's 0.1 run leaves the box at x3 = 2 while the
    vector check's runs of 1e-3 stay inside; from 1.9995 both leave."""
    rot = models.rotation(FLAT3, 1, 2)
    x = np.array([0.0, 0.0, height])
    v = np.array([0.0, 0.0, 1.0])
    for check, exits in ((taylor_scalar_check, scalar_exits),
                         (taylor_vector_check, vector_exits)):
        if exits:
            with pytest.raises(DomainExitError, match="inside the stencil"):
                check(FLAT3, rot, x, v)
        else:
            check(FLAT3, rot, x, v)


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


def test_derivative_identity_fails_for_non_conformal_field():
    bad = FieldSpec.vector(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    rng = np.random.default_rng(8)
    residuals = [
        dxi_identity_residual(FLAT3, bad, p, rng.standard_normal(3))
        for p in sample_interior(FLAT3, 10, rng)
    ]
    assert max(residuals) > 1e-3
