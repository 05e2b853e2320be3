"""Catalog charts and fields, and the inversion pushforward that certifies
``sphere_translation``."""
import numpy as np
import pytest

import confield.models as models
from confield.conformal import conformal_residual, is_conformal
from confield.expr import eval_values_many
from confield.geometry import (
    field_data,
    field_jets,
    metric_value,
)
from helpers import (inversion_transition, pushforward_under_inversion,
                     reference_lie_derivative, uniform_interior)

RNG = np.random.default_rng(77)


def test_chart_domains():
    flat = models.euclidean(3)
    assert np.array_equal(flat.lower, [-2.0, -2.0, -2.0])
    sph = models.sphere_stereographic(4)
    assert np.array_equal(sph.upper, [3.0] * 4)
    hyp = models.hyperbolic_ball(3)
    corner = np.linalg.norm(hyp.upper)
    assert corner <= 0.9 + 1e-12
    assert hyp.contains(hyp.upper * 0.999)


def test_chart_metrics_at_origin():
    origin = np.zeros((1, 3))
    assert np.abs(metric_value(models.euclidean(3), origin) - np.eye(3)).max() == 0.0
    assert np.abs(metric_value(models.sphere_stereographic(3), origin) - 4 * np.eye(3)).max() == 0.0
    assert np.abs(metric_value(models.hyperbolic_ball(3), origin) - 4 * np.eye(3)).max() == 0.0


def test_catalog_names():
    chart = models.sphere_stereographic(3)
    assert models.translation(chart, 2).name == "translation_2"
    assert models.rotation(chart, 1, 3).name == "rotation_13"
    assert models.euler(chart).name == "euler"
    assert models.special_conformal(chart, 1).name == "special_conformal_1"
    assert models.sphere_killing(chart, 1, 4).name == "sphere_killing_14"
    assert models.sphere_translation(chart, 1).name == "sphere_translation_1"
    assert chart.name == "sphere_stereographic_3"


def test_axis_validation():
    chart = models.euclidean(3)
    with pytest.raises(ValueError):
        models.translation(chart, 0)
    with pytest.raises(ValueError):
        models.translation(chart, 4)
    with pytest.raises(ValueError):
        models.rotation(chart, 2, 2)
    with pytest.raises(ValueError):
        models.sphere_killing(chart, 1, 5)
    with pytest.raises(ValueError):
        models.special_conformal(chart, -1)


def test_every_standard_pair_is_conformal():
    pairs = models.standard_pairs(3)
    assert len(pairs) == 18
    for chart, xi in pairs:
        pts = uniform_interior(chart, 30, np.random.default_rng(4))
        rep = is_conformal(chart, xi, pts)
        assert rep.conformal, f"{chart.name} / {xi.name}: {rep.max_residual:.2e}"


def test_rotations_are_killing_for_all_catalog_metrics():
    for builder in (models.euclidean, models.sphere_stereographic, models.hyperbolic_ball):
        chart = builder(3)
        xi = models.rotation(chart, 1, 2)
        pts = uniform_interior(chart, 10, np.random.default_rng(9))
        assert np.abs(reference_lie_derivative(chart, xi, pts)).max() < 1e-12
        assert np.abs(field_data(chart, xi, pts).phi).max() < 1e-13


def test_scaling_field_lie_derivative_flat():
    chart = models.euclidean(3)
    eu = models.euler(chart)
    p = np.array([[0.4, -0.9, 1.3]])
    L = reference_lie_derivative(chart, eu, p)
    assert np.abs(L - 2.0 * metric_value(chart, p)).max() < 1e-14


def test_mixed_sphere_generator_is_killing_on_round_chart():
    chart = models.sphere_stereographic(3)
    xi = models.sphere_killing(chart, 2, 4)
    pts = uniform_interior(chart, 15, np.random.default_rng(2))
    assert np.abs(reference_lie_derivative(chart, xi, pts)).max() < 1e-12
    assert np.abs(field_data(chart, xi, pts).phi).max() < 1e-13


def test_mixed_sphere_generator_combination_identity():
    """The mixed generator equals (translation - quadratic generator) / 2
    componentwise."""
    chart = models.euclidean(3)
    sk = models.sphere_killing(chart, 1, 4)
    tr = models.translation(chart, 1)
    K = models.special_conformal(chart, 1)
    pts = RNG.uniform(-1.5, 1.5, size=(40, 3))
    a = eval_values_many(sk.components, pts)
    b = eval_values_many(tr.components, pts)
    c = eval_values_many(K.components, pts)
    assert np.abs(a - 0.5 * (b - c)).max() < 1e-14


def test_sphere_translation_matches_quadratic_generator():
    chart = models.sphere_stereographic(3)
    st = models.sphere_translation(chart, 2)
    K = models.special_conformal(chart, 2)
    pts = RNG.uniform(-2.0, 2.0, size=(25, 3))
    assert np.abs(eval_values_many(st.components, pts) - eval_values_many(K.components, pts)).max() == 0.0


def test_quadratic_generator_zero_and_values():
    chart = models.euclidean(3)
    K = models.special_conformal(chart, 1)
    assert np.abs(field_jets(K, np.zeros((1, 3)), 0)[0]).max() == 0.0
    p = np.array([0.5, -1.0, 0.25])
    e1 = np.array([1.0, 0.0, 0.0])
    expected = (p @ p) * e1 - 2.0 * p[0] * p
    assert np.abs(field_jets(K, p[None], 0)[0][0] - expected).max() < 1e-15


# -- inversion ----------------------------------------------------------------


def test_inversion_is_an_involution():
    sigma = inversion_transition(3)
    pts = RNG.uniform(0.2, 1.8, size=(30, 3))
    imgs = eval_values_many(sigma, pts).T
    norms2 = np.einsum("ij,ij->i", pts, pts)
    assert np.abs(imgs - pts / norms2[:, None]).max() < 1e-14
    back = eval_values_many(sigma, imgs).T
    assert np.abs(back - pts).max() < 1e-12


def test_pushforward_of_translation_is_quadratic_generator():
    chart = models.euclidean(3)
    tr = models.translation(chart, 1)
    push = pushforward_under_inversion(tr)
    K = models.special_conformal(chart, 1)
    pts = RNG.uniform(0.3, 1.5, size=(30, 3)) * RNG.choice([-1.0, 1.0], size=(30, 3))
    a = eval_values_many(push.components, pts)
    b = eval_values_many(K.components, pts)
    assert np.abs(a - b).max() < 1e-12


def test_pushforward_against_jacobian_oracle():
    """Check (sigma_* xi)(sigma(x)) = J_sigma(x) xi(x) numerically with a
    finite-difference Jacobian of the inversion."""
    chart = models.euclidean(3)
    xi = models.rotation(chart, 1, 3)
    push = pushforward_under_inversion(xi)

    def sigma(x):
        return x / (x @ x)

    h = 1e-6
    for p in RNG.uniform(0.4, 1.2, size=(10, 3)):
        J = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            J[:, k] = (sigma(p + e) - sigma(p - e)) / (2 * h)
        lhs = field_jets(push, sigma(p)[None], 0)[0][0]
        rhs = J @ field_jets(xi, p[None], 0)[0][0]
        assert np.abs(lhs - rhs).max() < 1e-8


def test_double_pushforward_returns_original():
    chart = models.euclidean(3)
    xi = models.translation(chart, 2)
    twice = pushforward_under_inversion(pushforward_under_inversion(xi))
    pts = RNG.uniform(0.3, 1.4, size=(20, 3))
    a = eval_values_many(twice.components, pts)
    b = eval_values_many(xi.components, pts)
    assert np.abs(a - b).max() < 1e-11


def test_pushforward_preserves_conformality():
    chart = models.euclidean(3)
    push = pushforward_under_inversion(models.translation(chart, 1))
    pts = RNG.uniform(0.25, 1.5, size=(25, 3))
    assert conformal_residual(chart, push, pts).max() < 1e-10


# -- named construction --------------------------------------------------------


def test_make_chart_and_field_errors():
    with pytest.raises(ValueError, match="available"):
        models.make_chart("torus", 3)
    chart = models.make_chart("euclidean", 3)
    with pytest.raises(ValueError, match="available"):
        models.make_field(chart, "boost")
    with pytest.raises(ValueError, match="bad parameters"):
        models.make_field(chart, "rotation", {"axis": 1})
    xi = models.make_field(chart, "rotation", {"axis_i": 1, "axis_j": 3})
    assert xi.name == "rotation_13"
    assert models.make_field(chart, "euler").name == "euler"


def test_builder_dicts_cover_catalog():
    assert set(models.CHART_BUILDERS) == {
        "euclidean", "sphere_stereographic", "hyperbolic_ball",
    }
    assert set(models.FIELD_BUILDERS) == {
        "translation", "rotation", "euler",
        "special_conformal", "sphere_killing", "sphere_translation",
    }
