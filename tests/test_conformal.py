"""Conformal factor, residuals, and metric rescaling."""
import numpy as np
import pytest

import confield.models as models
from confield.conformal import (
    ConformalReport,
    conformal_factor_gradient,
    conformal_residual,
    is_conformal,
    rescale_metric,
)
from confield.expr import EvalDomainError, eval_jet, parse
from confield.geometry import (
    Chart,
    FieldSpec,
    field_data,
    field_jets,
    metric_value,
)
from helpers import (SHEARED, connection_change_residual, fd_gradient, fd_lie_derivative,
                     reference_conformal_residual, uniform_interior)

FLAT2 = models.euclidean(2)
FLAT3 = models.euclidean(3)
SPHERE = models.sphere_stereographic(3)


def test_factor_of_scaling_field_is_one():
    eu = models.euler(FLAT3)
    pts = np.array([[0.2, -0.7, 1.1], [0.0, 0.0, 0.0]])
    assert field_data(FLAT3, eu, pts).phi == pytest.approx([1.0, 1.0], abs=1e-14)


def test_factor_of_quadratic_field_flat():
    K = models.special_conformal(FLAT3, 1)
    p = np.array([[0.4, -0.2, 0.9]])
    # div(K_e) = -2 n <x, e> so the factor is -2 x1 in dimension n
    assert field_data(FLAT3, K, p).phi == pytest.approx(-2.0 * p[:, 0], rel=1e-13)


def test_residual_of_non_conformal_field():
    """xi = (x1^2, 0) flat: L_xi g = dxi^flat sym = diag(4x1, 0) minus trace
    part; at (1, 1) the invariant norm of L - 2 phi g is 2 sqrt(2)."""
    xi = FieldSpec(FLAT2, (parse("x1^2", 2), parse("0", 2)))
    res = conformal_residual(FLAT2, xi, np.array([[1.0, 1.0]]))
    assert res == pytest.approx([2.0 * np.sqrt(2.0)], rel=1e-12)


def _non_conformal(chart):
    """x1^2 d1 + x2 x3 d2, conformal on none of the catalog charts."""
    comps = ["x1^2", "x2*x3"] + ["0"] * (chart.dim - 2)
    return FieldSpec(chart, tuple(parse(c, chart.dim) for c in comps), name="non_conformal")


RESIDUAL_CASES = models.standard_pairs(3) + models.standard_pairs(4) + [
    (chart, _non_conformal(chart))
    for chart in (builder(n) for n in (3, 4) for builder in
                  (models.euclidean, models.sphere_stereographic, models.hyperbolic_ball))
] + [(SHEARED, _non_conformal(SHEARED))]


@pytest.mark.parametrize("chart,xi", RESIDUAL_CASES,
                         ids=lambda case: getattr(case, "name", None))
def test_one_jet_residual_matches_the_covariant_residual(chart, xi):
    """The residual from the 1-jets of g and xi equals the one from
    L = g N + (g N)^T through the connection to 1e-13, relative to the
    residual where it exceeds 1 (on the conformal pairs it is rounding
    noise of order-one jets), on the catalog charts and a sheared one."""
    pts = uniform_interior(chart, 20, np.random.default_rng([chart.dim, len(xi.name)]))
    got = conformal_residual(chart, xi, pts)
    want = reference_conformal_residual(chart, xi, pts)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(want, 1.0))
    if xi.name == "non_conformal":
        assert want.min() > 0.1


@pytest.mark.parametrize("chart", [FLAT3, SPHERE, models.hyperbolic_ball(3), SHEARED],
                         ids=lambda chart: chart.name)
def test_residual_against_flow_pullback(chart):
    """Independent oracle: the trace-free part of L_xi g differenced along
    the flow of a non-conformal field."""
    xi = _non_conformal(chart)
    p = np.array([0.3, -0.2, 0.25])
    L = fd_lie_derivative(chart, xi, p)
    g = metric_value(chart, p[None])[0]
    ginv = np.linalg.inv(g)
    T = L - np.trace(ginv @ L) / chart.dim * g
    want = np.sqrt(np.sum((ginv @ T @ ginv) * T))
    assert conformal_residual(chart, xi, p[None]) == pytest.approx([want], rel=1e-7)


def test_factor_gradient_matches_finite_differences():
    cases = [
        (SPHERE, models.sphere_translation(SPHERE, 1)),
        (SPHERE, models.euler(SPHERE)),
        (FLAT3, models.special_conformal(FLAT3, 3)),
    ]
    for chart, xi in cases:
        for p in ([0.3, -0.2, 0.5], [0.9, 0.4, -0.7]):
            p = np.asarray(p)
            exact = conformal_factor_gradient(chart, xi, p)
            approx = fd_gradient(lambda q: field_data(chart, xi, q[None]).phi[0], p)
            assert np.abs(exact - approx).max() < 1e-7


def test_report_structure_and_conformal_flag():
    rng = np.random.default_rng(11)
    pts = uniform_interior(SPHERE, 40, rng)
    xi = models.sphere_killing(SPHERE, 2, 4)
    rep = is_conformal(SPHERE, xi, pts)
    assert isinstance(rep, ConformalReport)
    assert rep.conformal
    assert rep.max_residual < 1e-12
    assert rep.points.shape == (40, 3)
    assert rep.residuals.shape == (40,)
    idx = int(np.argmax(rep.residuals))
    assert np.array_equal(rep.worst_point, pts[idx])

    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    rep2 = is_conformal(FLAT3, bad, uniform_interior(FLAT3, 25, rng))
    assert not rep2.conformal
    assert rep2.max_residual > 1e-3


def test_a_rotation_sheared_by_1e_5_is_not_conformal():
    """xi = (-x2 + 1e-5 x1 x2, x1, 0) on the flat chart: the trace-free part
    of L_xi g has g-norm 1e-5 sqrt(8/3 x2^2 + 2 x1^2), tens of microunits
    over most of the box and far above rounding, so is_conformal refuses
    the field."""
    xi = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("-x2 + 1e-5*x1*x2", "x1", "0")))
    pts = uniform_interior(FLAT3, 100, np.random.default_rng(1))
    rep = is_conformal(FLAT3, xi, pts)
    exact = 1e-5 * np.sqrt(8.0 / 3.0 * pts[:, 1] ** 2 + 2.0 * pts[:, 0] ** 2)
    np.testing.assert_allclose(rep.residuals, exact, rtol=1e-9)
    assert 1e-5 < rep.max_residual < 1e-4
    assert not rep.conformal


def test_overflowing_sample_raises_as_the_per_point_loop_did():
    """One sample where x1^300 overflows: the residual on the stack of one
    holding it raises a domain error, and the batched sample set raises the
    same error."""
    big = Chart(dim=2, lower=[-1e3, -1.0], upper=[1e3, 1.0],
                metric=tuple(tuple(parse(e, 2) for e in row) for row in [["1", "0"], ["0", "1"]]))
    xi = FieldSpec(big, (parse("x1^300", 2), parse("0", 2)))
    samples = np.array([[0.5, 0.5], [900.0, 0.0], [1.0, -0.5]])
    conformal_residual(big, xi, samples[:1])
    with pytest.raises(EvalDomainError) as per_point:
        conformal_residual(big, xi, samples[1:2])
    with pytest.raises(EvalDomainError) as batched:
        is_conformal(big, xi, samples)
    assert str(batched.value) == str(per_point.value)


def test_is_conformal_rejects_empty_samples():
    xi = models.translation(FLAT2)
    with pytest.raises(ValueError):
        is_conformal(FLAT2, xi, np.zeros((0, 2)))


# -- rescaling ----------------------------------------------------------------


def _log_factor_to_sphere(dim):
    n = dim
    flat = models.euclidean(n)
    r2 = "+".join(f"x{k}^2" for k in range(1, n + 1))
    return flat, parse(f"log(2/(1+({r2})))", n)


def test_rescaled_flat_chart_reproduces_round_metric():
    flat, u = _log_factor_to_sphere(3)
    rescaled = rescale_metric(flat, u)
    assert rescaled.name.endswith("~rescaled")
    sphere = models.sphere_stereographic(3)
    pts = np.array([[0.3, -0.4, 0.2], [1.1, 0.5, -0.9]])
    assert np.abs(metric_value(rescaled, pts) - metric_value(sphere, pts)).max() < 1e-14


def test_rescaling_composes():
    f1 = parse("x1/3", 2)
    f2 = parse("sin(x2)/5", 2)
    once = rescale_metric(rescale_metric(FLAT2, f1), f2)
    both = parse("x1/3 + sin(x2)/5", 2)
    combined = rescale_metric(FLAT2, both)
    p = np.array([[0.7, -0.8]])
    assert np.abs(metric_value(once, p) - metric_value(combined, p)).max() < 1e-14


def test_factor_shifts_by_derivative_along_field():
    """Under g -> e^{2f} g the factor of a fixed conformal field becomes
    phi + df(xi)."""
    f = parse("0.3*sin(x1)", 3)
    rescaled = rescale_metric(FLAT3, f)
    xi = models.special_conformal(FLAT3, 1)
    pts = np.array([[0.2, 0.5, -0.3], [0.8, -0.6, 0.4]])
    phi = field_data(FLAT3, xi, pts).phi
    phi_new = field_data(rescaled, xi, pts).phi
    shift = [eval_jet(f, p, 1).d1 @ value for p, value in zip(pts, field_jets(xi, pts, 0)[0])]
    assert phi_new == pytest.approx(phi + shift, rel=1e-12, abs=1e-13)
    # so the field stays conformal for the rescaled metric
    assert conformal_residual(rescaled, xi, pts).max() < 1e-12


def test_connection_change_identity():
    pairs = [
        (FLAT3, parse("0.3*sin(x1)", 3)),
        (SPHERE, parse("x1*x2/4 - x3/2", 3)),
    ]
    rng = np.random.default_rng(5)
    for chart, f in pairs:
        for p in uniform_interior(chart, 10, rng):
            assert connection_change_residual(chart, f, p) < 1e-8
