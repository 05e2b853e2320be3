"""Zero finding, zero classification, and isolation audits."""
import math

import numpy as np
import pytest

import confield.essential as essential
import confield.models as models
from confield.conformal import rescale_metric
from confield.essential import (
    VERDICT_ESSENTIAL,
    VERDICT_HOMOTHETIC,
    VERDICT_INVALID,
    VERDICT_KILLING,
    classify_zero,
    find_zeros,
    limit_point_audit,
)
from confield.expr import parse
from confield.geometry import FieldSpec, field_norm, metric_value

FLAT3 = models.euclidean(3)
SPHERE = models.sphere_stereographic(3)
HYPER = models.hyperbolic_ball(3)


# -- zero finding ---------------------------------------------------------------


def test_translation_has_no_zeros():
    zeros = find_zeros(FLAT3, models.translation(FLAT3, 1))
    assert zeros.shape == (0, 3)


def test_rotation_zero_set_lies_on_axis():
    zeros = find_zeros(FLAT3, models.rotation(FLAT3, 1, 2))
    assert len(zeros) >= 8
    assert np.abs(zeros[:, :2]).max() < 1e-10
    # returned sorted, distinct along the axis
    x3 = zeros[:, 2]
    assert np.all(np.diff(x3) > 1e-3)


@pytest.mark.parametrize("chart", [FLAT3, SPHERE, HYPER], ids=lambda c: c.name)
def test_quadratic_generator_has_single_zero_at_origin(chart):
    zeros = find_zeros(chart, models.special_conformal(chart, 1))
    assert zeros.shape == (1, 3)
    assert np.abs(zeros[0]).max() < 1e-12


def test_scaling_field_zero_found_once_despite_coarse_grid():
    zeros = find_zeros(FLAT3, models.euler(FLAT3), grid_resolution=6)
    assert zeros.shape == (1, 3)
    assert np.abs(zeros[0]).max() < 1e-12


def test_circle_zero_set_on_round_chart():
    """The rotation generator fixing a great circle vanishes on the
    coordinate unit circle x1^2 + x2^2 = 1, x3 = 0."""
    xi = models.sphere_killing(SPHERE, 3, 4)
    zeros = find_zeros(SPHERE, xi, grid_resolution=15)
    assert len(zeros) >= 8
    assert np.abs(zeros[:, 2]).max() < 1e-10
    radii = np.linalg.norm(zeros[:, :2], axis=1)
    assert np.abs(radii - 1.0).max() < 1e-8
    for z in zeros:
        assert field_norm(SPHERE, xi, z) < 1e-10


def test_zero_near_boundary_is_filtered():
    """The box ends at x1 = 2: a zero 5e-4 from it is inside the 1e-3
    boundary margin and dropped, a zero 1.5e-3 from it is kept."""
    def zeros_at(height):
        xi = FieldSpec.vector(
            FLAT3, tuple(parse(s, 3) for s in (f"x1 - {height}", "x2", "x3"))
        )
        return find_zeros(FLAT3, xi)

    assert zeros_at("1.9995").shape == (0, 3)
    kept = zeros_at("1.9985")
    assert kept.shape == (1, 3)
    assert np.abs(kept[0] - [1.9985, 0.0, 0.0]).max() < 1e-12


def test_found_zeros_are_machine_precision_zeros():
    for chart, xi in [
        (FLAT3, models.rotation(FLAT3, 2, 3)),
        (SPHERE, models.sphere_translation(SPHERE, 1)),
    ]:
        for z in find_zeros(chart, xi):
            assert field_norm(chart, xi, z) < 1e-12


# -- classification ---------------------------------------------------------------


def test_classify_on_surfaces():
    """On a surface only a simple zero with skew nabla xi, a rotation, is
    Killing-type; a homothetic zero and the double zero of z^2 d/dz, where
    nabla xi vanishes, get no verdict."""
    flat2 = models.euclidean(2)
    cls = classify_zero(flat2, models.rotation(flat2), np.zeros(2))
    assert cls.verdict == VERDICT_KILLING
    assert cls.kernel_dim == 0
    z_squared = FieldSpec.vector(flat2, (parse("x1^2 - x2^2", 2), parse("2*x1*x2", 2)))
    for xi in (models.euler(flat2), z_squared):
        assert classify_zero(flat2, xi, np.zeros(2)).verdict is None


def test_classify_requires_an_actual_zero():
    with pytest.raises(ValueError, match="expects a zero"):
        classify_zero(FLAT3, models.rotation(FLAT3), np.array([0.5, 0.5, 0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classify_refuses_a_nan_zero():
    """1e200*1e200 overflows to inf and inf * 0 is NaN: |xi|_g is NaN at
    the origin, which is no zero."""
    xi = FieldSpec.vector(
        FLAT3, tuple(parse(s, 3) for s in ("1e200*1e200*x1", "x2", "x3"))
    )
    with pytest.raises(ValueError, match="expects a zero"):
        classify_zero(FLAT3, xi, np.zeros(3))


def test_find_zeros_refuses_a_nan_residual(monkeypatch):
    xi = models.rotation(FLAT3, 1, 2)
    assert len(find_zeros(FLAT3, xi)) > 0
    monkeypatch.setattr(essential, "field_norm", lambda *args: math.nan)
    assert find_zeros(FLAT3, xi).shape == (0, 3)


def test_classification_carries_the_metric_at_the_zero():
    z = np.array([0.0, 0.0, 0.4])
    cls = classify_zero(SPHERE, models.sphere_killing(SPHERE, 1, 2), z)
    assert np.array_equal(cls.metric, metric_value(SPHERE, z))


def test_rotation_zero_is_killing_type():
    cls = classify_zero(FLAT3, models.rotation(FLAT3, 1, 2), np.zeros(3))
    assert cls.verdict == VERDICT_KILLING
    assert cls.phi == pytest.approx(0.0, abs=1e-12)
    assert cls.rank_dxi == 2
    assert cls.kernel_dim == 1
    assert cls.image_residual < 1e-12


def test_scaling_zero_is_homothetic_type():
    cls = classify_zero(FLAT3, models.euler(FLAT3), np.zeros(3))
    assert cls.verdict == VERDICT_HOMOTHETIC
    assert cls.phi == pytest.approx(1.0, rel=1e-12)
    # dxi = 0 for the radial field: gradient of phi (zero) lies in the image
    assert cls.rank_dxi == 0
    assert cls.image_residual < 1e-12


@pytest.mark.parametrize("chart", [FLAT3, SPHERE, HYPER], ids=lambda c: c.name)
def test_quadratic_generator_zero_is_essential(chart):
    cls = classify_zero(chart, models.special_conformal(chart, 1), np.zeros(3))
    assert cls.verdict == VERDICT_ESSENTIAL
    assert cls.phi == pytest.approx(0.0, abs=1e-12)
    assert cls.rank_dxi == 0
    assert cls.image_residual > 0.5
    assert np.linalg.norm(cls.dphi) > 0.1


def test_non_conformal_field_is_flagged_invalid():
    bad = FieldSpec.vector(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    cls = classify_zero(FLAT3, bad, np.zeros(3))
    assert cls.verdict == VERDICT_INVALID
    assert cls.neighborhood_residual > 1e-3


def test_rank_is_even_and_kernel_orthonormal():
    cases = [
        (FLAT3, models.rotation(FLAT3, 1, 3), np.zeros(3)),
        (SPHERE, models.sphere_killing(SPHERE, 3, 4), np.array([1.0, 0.0, 0.0])),
    ]
    for chart, xi, z in cases:
        cls = classify_zero(chart, xi, z)
        assert cls.rank_dxi % 2 == 0
        assert cls.kernel_basis.shape == (cls.kernel_dim, 3)
        g = metric_value(chart, z)
        G = cls.kernel_basis @ g @ cls.kernel_basis.T
        assert np.abs(G - np.eye(cls.kernel_dim)).max() < 1e-10
        for row in cls.kernel_basis:
            assert np.abs(cls.dxi.T @ row).max() < 1e-9


def test_circle_zeros_on_round_chart_are_killing_type():
    xi = models.sphere_killing(SPHERE, 3, 4)
    for z in find_zeros(SPHERE, xi, grid_resolution=15)[:4]:
        cls = classify_zero(SPHERE, xi, z)
        assert cls.verdict == VERDICT_KILLING
        assert abs(cls.phi) < 1e-10


def test_verdicts_survive_conformal_rescaling():
    """Zero classification is a conformal notion: rescaling the metric by a
    positive factor must not change any verdict."""
    f = FieldSpec.scalar(FLAT3, parse("0.3*sin(x1)", 3))
    rescaled = rescale_metric(FLAT3, f)
    cases = [
        (models.rotation(FLAT3, 1, 2), VERDICT_KILLING),
        (models.special_conformal(FLAT3, 1), VERDICT_ESSENTIAL),
    ]
    for xi, expected in cases:
        assert classify_zero(FLAT3, xi, np.zeros(3)).verdict == expected
        assert classify_zero(rescaled, xi, np.zeros(3)).verdict == expected
    # the scaling field keeps a homothetic-type zero as well: phi changes to
    # phi + df(xi) which is nonzero at the origin
    eu = models.euler(FLAT3)
    assert classify_zero(rescaled, eu, np.zeros(3)).verdict == VERDICT_HOMOTHETIC


def test_classification_deterministic_with_default_rng():
    xi = models.special_conformal(SPHERE, 1)
    a = classify_zero(SPHERE, xi, np.zeros(3))
    b = classify_zero(SPHERE, xi, np.zeros(3))
    assert a.verdict == b.verdict
    assert a.neighborhood_residual == b.neighborhood_residual


# -- isolation audit ---------------------------------------------------------------


def test_audit_of_circle_zeros_passes():
    xi = models.sphere_killing(SPHERE, 3, 4)
    found = find_zeros(SPHERE, xi, grid_resolution=15)
    # densify with analytic points of the zero circle so some pairs fall
    # inside the isolation radius
    thetas = np.array([0.0, 0.03, 0.06])
    cluster = np.stack([np.cos(thetas), np.sin(thetas), np.zeros(3)], axis=1)
    zeros = np.vstack([found, cluster])
    audit = limit_point_audit([classify_zero(SPHERE, xi, z) for z in zeros], radius=0.05)
    assert audit.passed
    assert audit.radius == 0.05
    assert len(audit.entries) == len(zeros)
    assert audit.assertions["non_isolated_zeros_are_killing_inessential"]
    assert audit.assertions["essential_zeros_isolated"]
    assert any(not e.isolated for e in audit.entries)
    assert all(abs(e.phi) < 1e-10 for e in audit.entries)


def test_audit_of_isolated_essential_zero_passes():
    xi = models.special_conformal(FLAT3, 1)
    audit = limit_point_audit([classify_zero(FLAT3, xi, np.zeros(3))], radius=0.5)
    assert audit.passed
    assert audit.entries[0].isolated
    assert audit.entries[0].nearest_distance == np.inf
    assert audit.entries[0].verdict == VERDICT_ESSENTIAL


def test_audit_flags_clustered_non_killing_zeros():
    """Negative control: a non-conformal field with a plane of zeros violates
    the rescaling condition, so the audit must fail."""
    bad = FieldSpec.vector(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    zeros = np.array([[0.0, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]])
    audit = limit_point_audit([classify_zero(FLAT3, bad, z) for z in zeros], radius=0.05)
    assert not audit.passed
    assert not audit.assertions["non_isolated_zeros_are_killing_inessential"]
