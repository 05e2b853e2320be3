"""Zero set tracing, second fundamental form, and umbilicity reports."""
import math

import numpy as np
import pytest

import confield.geodesic as geodesic
import confield.models as models
import confield.zeroset as zeroset
from confield.conformal import rescale_metric
from confield.expr import eval_jet, parse
from confield.geometry import FieldSpec, metric_value, norm_vector
from confield.zeroset import (
    OffZeroSetError,
    PatchError,
    second_fundamental_form,
    trace_component,
    umbilicity_report,
)
from helpers import fd_second_fundamental_form, map_patch

FLAT3 = models.euclidean(3)
FLAT4 = models.euclidean(4)
SPHERE = models.sphere_stereographic(3)
HYP4 = models.hyperbolic_ball(4)


# -- tracing ------------------------------------------------------------------


def test_rotation_axis_patch():
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_component(FLAT3, xi, np.zeros(3), radius=0.3, grid=5)
    assert patch.k == 1
    assert patch.codim == 2
    assert patch.grid_shape == (5,)
    assert patch.samples.shape == (5, 3)
    # the component is the x3 axis
    assert np.abs(patch.samples[:, :2]).max() < 1e-12
    assert np.abs(np.abs(patch.tangent_basis[0, 2]) - norm_vector(np.eye(3), patch.tangent_basis[0])).max() < 1e-12
    assert patch.max_field_norm < 1e-12
    # parameters reach the requested radius
    assert patch.param_axes[0][0] == pytest.approx(-0.3)
    assert patch.param_axes[0][-1] == pytest.approx(0.3)


def test_circle_component_patch_on_round_chart():
    xi = models.sphere_killing(SPHERE, 3, 4)
    base = np.array([1.0, 0.0, 0.0])
    patch = trace_component(SPHERE, xi, base, radius=0.4, grid=7)
    assert patch.k == 1
    assert patch.codim == 2
    flat = patch.samples.reshape(-1, 3)
    assert np.abs(flat[:, 2]).max() < 1e-8
    assert np.abs(np.linalg.norm(flat[:, :2], axis=1) - 1.0).max() < 1e-8
    assert patch.max_field_norm < 1e-5


def test_plane_component_in_four_dimensions():
    flat4 = models.euclidean(4)
    xi = models.rotation(flat4, 1, 2)
    patch = trace_component(flat4, xi, np.zeros(4), radius=0.25, grid=5)
    assert patch.k == 2
    assert patch.codim == 2
    assert patch.grid_shape == (5, 5)
    flat = patch.samples.reshape(-1, 4)
    # the component is the x3-x4 plane
    assert np.abs(flat[:, :2]).max() < 1e-10
    assert patch.max_field_norm < 1e-10


def test_tracing_refuses_essential_zero():
    xi = models.special_conformal(FLAT3, 1)
    with pytest.raises(PatchError):
        trace_component(FLAT3, xi, np.zeros(3))


def test_tracing_refuses_homothetic_zero():
    with pytest.raises(PatchError):
        trace_component(FLAT3, models.euler(FLAT3), np.zeros(3))


def test_tracing_requires_odd_grid():
    xi = models.rotation(FLAT3, 1, 2)
    with pytest.raises(ValueError):
        trace_component(FLAT3, xi, np.zeros(3), grid=4)
    with pytest.raises(ValueError):
        trace_component(FLAT3, xi, np.zeros(3), grid=1)


def test_two_dimensional_point_component():
    flat2 = models.euclidean(2)
    xi = models.rotation(flat2, 1, 2)
    patch = trace_component(flat2, xi, np.zeros(2))
    assert patch.k == 0
    assert patch.codim == 2
    assert patch.samples.shape == (2,)
    report = umbilicity_report(flat2, patch)
    assert report.verdict == "point"
    assert report.codim_even


def test_two_dimensional_scaling_zero_refused():
    flat2 = models.euclidean(2)
    with pytest.raises(PatchError):
        trace_component(flat2, models.euler(flat2), np.zeros(2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_two_dimensional_nan_zero_refused():
    """1e200*1e200 overflows to inf and inf * 0 is NaN: |xi|_g is NaN at
    the origin, which is no zero."""
    flat2 = models.euclidean(2)
    xi = FieldSpec.vector(flat2, tuple(parse(s, 2) for s in ("1e200*1e200*x1", "x2")))
    with pytest.raises(PatchError, match="expects a zero"):
        trace_component(flat2, xi, np.zeros(2))


def test_traced_patch_records_its_field():
    xi = models.rotation(FLAT3, 1, 2)
    assert trace_component(FLAT3, xi, np.zeros(3), radius=0.2, grid=5).field is xi
    flat2 = models.euclidean(2)
    rot2 = models.rotation(flat2, 1, 2)
    assert trace_component(flat2, rot2, np.zeros(2)).field is rot2


def test_patch_off_the_zero_set_is_its_own_error(monkeypatch):
    """With verify_tol = 0 no sample passes, so the verification refuses the
    first one, the corner of the grid, without mapping the rest: the failed
    trace makes exactly the corrector evaluations of that one sample."""
    calls = []
    field_jets = zeroset.field_jets

    def counting(*args, **kwargs):
        calls.append(1)
        return field_jets(*args, **kwargs)

    monkeypatch.setattr(zeroset, "field_jets", counting)
    xi = models.sphere_killing(FLAT3, 1, 4)
    base = np.array([0.0, 1.0, 0.0])
    patch = trace_component(FLAT3, xi, base, radius=0.3, grid=5)
    calls.clear()
    patch.mapping(patch.param_axes[0][:1])
    one_sample = len(calls)
    calls.clear()
    with pytest.raises(OffZeroSetError, match="leaves the zero set"):
        trace_component(FLAT3, xi, base, radius=0.3, grid=5, verify_tol=0.0)
    assert len(calls) == one_sample > 1


# -- second fundamental form on explicitly parametrized zero sets ---------------
#
# Each patch below is the zero set of a field xi whose derivative is
# invertible on the normal space there, built from a parametrization of
# that zero set; the jet path reads only the node points and xi.


def _linspace(lo, hi, num):
    return np.linspace(lo, hi, num)


def _field(chart, *components):
    return FieldSpec.vector(chart, tuple(parse(c, chart.dim) for c in components))


def _assert_jet_path_matches_fd(chart, patch):
    """Compare the jet path with the Richardson reference of the patch map
    at every node the umbilicity report visits.

    B is compared in the parameter basis: the FD tangents are
    dP_a = C[a, c] e_c in the jet path's orthonormal frame e.
    """
    report = umbilicity_report(chart, patch)
    for m, idx in enumerate(report.indices):
        t = np.array([axis[i] for axis, i in zip(patch.param_axes, idx)])
        point, dP, B_fd, H_fd = fd_second_fundamental_form(chart, patch.mapping, t)
        jet = second_fundamental_form(chart, patch, idx)
        assert np.array_equal(jet.point, point)
        g = metric_value(chart, jet.point)
        e = jet.tangent_frame
        assert np.abs(e @ g @ e.T - np.eye(patch.k)).max() < 1e-12
        C = dP @ g @ e.T
        B_param = np.einsum("ac,bd,cdk->abk", C, C, jet.normal_form)
        assert np.abs(B_param - B_fd).max() < 1e-8
        assert np.abs(jet.mean_curvature - H_fd).max() < 1e-8
        assert abs(report.mean_curvature_norms[m] - norm_vector(g, H_fd)) < 1e-8
    return report


def _sphere_patch():
    """The sphere of radius 0.5 about the origin, zero set of (|x|^2 - 1/4) x."""
    r2 = "(x1^2 + x2^2 + x3^2 - 0.25)"
    xi = _field(FLAT3, f"{r2}*x1", f"{r2}*x2", f"{r2}*x3")

    def emb(t):
        th, ph = t
        return 0.5 * np.array(
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )

    return map_patch(FLAT3, xi, emb, (_linspace(0.6, 2.5, 9), _linspace(-2.8, 2.8, 9)))


def _cylinder_patch():
    """The cylinder of radius 0.8 about the x3 axis, zero set of
    (x1^2 + x2^2 - 0.64) (x1, x2, 0)."""
    r2 = "(x1^2 + x2^2 - 0.64)"
    xi = _field(FLAT3, f"{r2}*x1", f"{r2}*x2", "0")

    def emb(t):
        th, z = t
        return np.array([0.8 * math.cos(th), 0.8 * math.sin(th), z])

    return map_patch(FLAT3, xi, emb, (_linspace(-2.5, 2.5, 9), _linspace(-1.0, 1.0, 9)))


def _unit_circle_patch():
    """sphere_killing(1, 4) vanishes on the unit circle in the plane x1 = 0,
    which has |H| = 1 in flat space."""
    xi = models.sphere_killing(FLAT3, 1, 4)
    return map_patch(
        FLAT3,
        xi,
        lambda t: np.array([0.0, math.cos(t[0]), math.sin(t[0])]),
        (_linspace(-0.6, 0.6, 7),),
    )


def test_hyperplane_has_zero_second_fundamental_form():
    patch = map_patch(
        FLAT3,
        _field(FLAT3, "0", "0", "x3 - 0.25"),
        lambda t: np.array([t[0], t[1], 0.25]),
        (_linspace(-0.5, 0.5, 7), _linspace(-0.5, 0.5, 7)),
    )
    assert patch.field_norms.shape == (7, 7)
    assert patch.max_field_norm == 0.0
    data = second_fundamental_form(FLAT3, patch, (3, 3))
    assert np.abs(data.normal_form).max() < 1e-9
    assert np.abs(data.mean_curvature).max() < 1e-9
    report = _assert_jet_path_matches_fd(FLAT3, patch)
    assert report.verdict == "totally_umbilical"
    assert report.max_residual < 1e-8


def test_round_two_sphere_is_umbilical_with_mean_curvature_two():
    patch = _sphere_patch()
    assert patch.max_field_norm < 1e-15
    data = second_fundamental_form(FLAT3, patch, (4, 4))
    p = data.point
    # B must be proportional to the induced metric with normal of length 1/r
    assert np.linalg.norm(data.mean_curvature) == pytest.approx(2.0, abs=1e-5)
    # mean curvature points radially
    cross = np.cross(data.mean_curvature, p)
    assert np.linalg.norm(cross) < 1e-5
    report = _assert_jet_path_matches_fd(FLAT3, patch)
    assert report.verdict == "totally_umbilical"
    assert report.max_residual < 1e-4
    assert not report.codim_even  # codim 1, reported honestly


def test_cylinder_is_not_umbilical():
    report = _assert_jet_path_matches_fd(FLAT3, _cylinder_patch())
    assert report.verdict == "not_umbilical"
    assert report.max_residual > 0.5


def test_great_subsphere_is_minimal_in_round_metric():
    """The coordinate unit circle in the x1-x2 plane is a closed geodesic
    circle of the round metric; as the fixed set of an isometry it is
    totally geodesic: B = 0, H = 0."""
    patch = map_patch(
        SPHERE,
        models.sphere_killing(SPHERE, 3, 4),
        lambda t: np.array([math.cos(t[0]), math.sin(t[0]), 0.0]),
        (_linspace(-3.0, 3.0, 13),),
    )
    data = second_fundamental_form(SPHERE, patch, (6,))
    assert np.abs(data.normal_form).max() < 1e-6
    report = _assert_jet_path_matches_fd(SPHERE, patch)
    assert report.verdict == "totally_umbilical"
    assert np.abs(report.mean_curvature_norms).max() < 1e-5


# -- jet path on the zero sets of catalog fields ---------------------------------


def test_jet_path_on_unit_circle_zero_set():
    patch = _unit_circle_patch()
    assert patch.max_field_norm < 1e-14
    report = _assert_jet_path_matches_fd(FLAT3, patch)
    assert report.verdict == "totally_umbilical"
    assert np.abs(report.mean_curvature_norms - 1.0).max() < 1e-12
    assert report.codim_even


def test_jet_path_on_unit_two_sphere_zero_set():
    """sphere_killing(1, 5) vanishes on the unit 2-sphere in x1 = 0."""
    xi = models.sphere_killing(FLAT4, 1, 5)

    def emb(t):
        th, ph = t
        return np.array(
            [0.0, math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )

    patch = map_patch(FLAT4, xi, emb, (_linspace(1.0, 2.0, 5), _linspace(-0.5, 0.5, 5)))
    report = _assert_jet_path_matches_fd(FLAT4, patch)
    assert report.verdict == "totally_umbilical"
    assert np.abs(report.mean_curvature_norms - 1.0).max() < 1e-12
    assert report.codim_even


@pytest.mark.parametrize(
    "base", [np.zeros(4), np.array([0.0, 0.0, 0.15, -0.1])], ids=["origin", "off_origin"]
)
def test_jet_path_on_traced_hyperbolic_patches(base):
    """The FD reference runs on the 3 x 3 sub-grid around traced node (1, 1),
    through the traced mapping, to keep the number of corrector runs small."""
    xi = models.rotation(HYP4, 1, 2)
    traced = trace_component(HYP4, xi, base, radius=0.2, grid=5)
    assert traced.k == 2
    sub = map_patch(HYP4, xi, traced.mapping, tuple(axis[0:3] for axis in traced.param_axes))
    assert np.array_equal(sub.samples[1, 1], traced.samples[1, 1])
    _assert_jet_path_matches_fd(HYP4, sub)
    report = umbilicity_report(HYP4, traced)
    assert report.verdict == "totally_umbilical"
    assert report.max_residual < 1e-9
    assert np.abs(report.mean_curvature_norms).max() < 1e-9


def test_traced_umbilicity_integrates_no_geodesic(monkeypatch):
    """Neither the corrector of the traced mapping nor the jet path, which
    reads the traced samples only, integrates a geodesic."""

    def refuse(*args, **kwargs):
        raise AssertionError("geodesic integration in tracing or a traced umbilicity report")

    monkeypatch.setattr(geodesic, "integrate_geodesic", refuse)
    xi = models.sphere_killing(SPHERE, 3, 4)
    patch = trace_component(SPHERE, xi, np.array([1.0, 0.0, 0.0]), radius=0.4, grid=7)
    report = umbilicity_report(SPHERE, patch)
    assert report.verdict == "totally_umbilical"
    rescaled = rescale_metric(SPHERE, FieldSpec.scalar(SPHERE, parse("0.3*sin(x1)", 3)))
    assert umbilicity_report(rescaled, patch).verdict == "totally_umbilical"
    # the guard is live: exp_map does integrate
    with pytest.raises(AssertionError, match="geodesic integration"):
        geodesic.exp_map(SPHERE, np.zeros(3), np.array([0.1, 0.0, 0.0]))


def test_second_fundamental_form_carries_the_metric_at_its_node():
    xi = models.sphere_killing(SPHERE, 3, 4)
    patch = trace_component(SPHERE, xi, np.array([1.0, 0.0, 0.0]), radius=0.3, grid=5)
    data = second_fundamental_form(SPHERE, patch, (1,))
    assert np.array_equal(data.point, patch.samples[1])
    assert np.array_equal(data.metric, metric_value(SPHERE, data.point))


def test_second_fundamental_form_refusals():
    flat2 = models.euclidean(2)
    point_patch = trace_component(flat2, models.rotation(flat2, 1, 2), np.zeros(2))
    with pytest.raises(PatchError):
        second_fundamental_form(flat2, point_patch, ())

    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_component(FLAT3, xi, np.zeros(3), radius=0.2, grid=5)
    with pytest.raises(PatchError):
        second_fundamental_form(FLAT3, patch, (2, 2))

    # The jet formula needs no neighbouring node, so boundary nodes are not
    # refused: the end nodes of the unit circle get |H| = 1 and the
    # Richardson reference's B.
    patch = _unit_circle_patch()
    for i in (0, len(patch.param_axes[0]) - 1):
        t = np.array([patch.param_axes[0][i]])
        _, dP, B_fd, _ = fd_second_fundamental_form(FLAT3, patch.mapping, t)
        data = second_fundamental_form(FLAT3, patch, (i,))
        assert abs(np.linalg.norm(data.mean_curvature) - 1.0) < 1e-12
        C = dP @ data.tangent_frame.T
        B_param = np.einsum("ac,bd,cdk->abk", C, C, data.normal_form)
        assert np.abs(B_param - B_fd).max() < 1e-8


def test_traced_axis_report_is_umbilical_with_even_codim():
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_component(FLAT3, xi, np.zeros(3), radius=0.3, grid=5)
    report = umbilicity_report(FLAT3, patch)
    assert report.verdict == "totally_umbilical"
    assert report.codim == 2
    assert report.codim_even
    assert report.max_residual < 1e-6
    assert len(report.indices) == len(report.residuals)
    assert report.points.shape == (len(report.indices), 3)


def test_circle_component_report_on_round_chart():
    xi = models.sphere_killing(SPHERE, 3, 4)
    patch = trace_component(SPHERE, xi, np.array([1.0, 0.0, 0.0]), radius=0.4, grid=7)
    report = umbilicity_report(SPHERE, patch)
    assert report.verdict == "totally_umbilical"
    assert report.codim_even
    assert report.max_residual < 1e-4
    assert np.abs(report.mean_curvature_norms).max() < 1e-3


# -- conformal rescaling ----------------------------------------------------------


def test_umbilicity_verdicts_stable_under_rescaling():
    """A patch traced under g serves e^{2f} g: at a zero nabla xi is the same
    for every metric in the conformal class."""
    rescaled = rescale_metric(FLAT3, FieldSpec.scalar(FLAT3, parse("0.3*sin(x1)", 3)))
    xi = models.rotation(FLAT3, 1, 2)
    traced = trace_component(FLAT3, xi, np.zeros(3), radius=0.3, grid=5)
    for patch, verdict in ((traced, "totally_umbilical"), (_cylinder_patch(), "not_umbilical")):
        assert umbilicity_report(FLAT3, patch).verdict == verdict
        assert umbilicity_report(rescaled, patch).verdict == verdict


def test_rescaled_synthetic_sphere_stays_umbilical():
    """Umbilical points are conformally invariant even though the mean
    curvature itself is not."""
    patch = _sphere_patch()
    rescaled = rescale_metric(FLAT3, FieldSpec.scalar(FLAT3, parse("x1/4 + x3/5", 3)))
    assert umbilicity_report(FLAT3, patch).verdict == "totally_umbilical"
    assert umbilicity_report(rescaled, patch).verdict == "totally_umbilical"


def test_mean_curvature_under_rescaling():
    """Under e^{2f} g the mean curvature vector is e^{-2f} (H - (grad f)^perp),
    so its norm is |H'| = e^{-f} |H - (grad f)^perp| with the norms and the
    gradient of the flat metric."""
    f = FieldSpec.scalar(FLAT3, parse("0.3*sin(x2) + x3/5", 3))
    rescaled = rescale_metric(FLAT3, f)
    patch = _unit_circle_patch()
    report = _assert_jet_path_matches_fd(rescaled, patch)
    assert report.verdict == "totally_umbilical"
    for m, idx in enumerate(report.indices):
        data = second_fundamental_form(FLAT3, patch, idx)
        jet = eval_jet(f.expr, data.point, 1)
        e = data.tangent_frame
        normal_grad = jet.d1 - e.T @ (e @ jet.d1)
        expected = math.exp(-jet.value) * np.linalg.norm(data.mean_curvature - normal_grad)
        assert abs(report.mean_curvature_norms[m] - expected) < 1e-12
