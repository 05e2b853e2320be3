"""Zero set tracing, second fundamental form, and umbilicity reports."""
import itertools
import math

import numpy as np
import pytest

import confield.geodesic as geodesic
import confield.geometry as geometry
import confield.models as models
import confield.zeroset as zeroset
from confield.conformal import rescale_metric
from confield.essential import classify_zero
from confield.expr import Add, Const, Mul, Var, eval_jet, parse
from confield.geometry import FieldSpec, metric_value, norm_vector
from confield.zeroset import (
    OffZeroSetError,
    PatchError,
    second_fundamental_form,
    trace_component,
    umbilicity_report,
)
from helpers import (
    fd_second_fundamental_form,
    map_patch,
    pointwise_second_fundamental_form,
    recording_calls,
)

FLAT3 = models.euclidean(3)
FLAT4 = models.euclidean(4)
SPHERE = models.sphere_stereographic(3)
HYP4 = models.hyperbolic_ball(4)
# a zero of sphere_killing(SPHERE, 3, 4), on the unit circle in x3 = 0
SPHERE_ZERO = np.array([1.0, 0.0, 0.0])


# -- tracing ------------------------------------------------------------------


def test_rotation_axis_patch():
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)), radius=0.3, grid=5)
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
    patch = trace_component(SPHERE, xi, classify_zero(SPHERE, xi, base), radius=0.4, grid=7)
    assert patch.k == 1
    assert patch.codim == 2
    flat = patch.samples.reshape(-1, 3)
    assert np.abs(flat[:, 2]).max() < 1e-8
    assert np.abs(np.linalg.norm(flat[:, :2], axis=1) - 1.0).max() < 1e-8
    assert patch.max_field_norm < 1e-5


def test_plane_component_in_four_dimensions():
    flat4 = models.euclidean(4)
    xi = models.rotation(flat4, 1, 2)
    patch = trace_component(flat4, xi, classify_zero(flat4, xi, np.zeros(4)), radius=0.25, grid=5)
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
        trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)))


def test_tracing_refuses_homothetic_zero():
    xi = models.euler(FLAT3)
    with pytest.raises(PatchError):
        trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)))


def test_tracing_requires_odd_grid():
    xi = models.rotation(FLAT3, 1, 2)
    with pytest.raises(ValueError):
        trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)), grid=4)
    with pytest.raises(ValueError):
        trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)), grid=1)


def test_two_dimensional_point_component():
    flat2 = models.euclidean(2)
    xi = models.rotation(flat2, 1, 2)
    patch = trace_component(flat2, xi, classify_zero(flat2, xi, np.zeros(2)))
    assert patch.k == 0
    assert patch.codim == 2
    assert patch.samples.shape == (2,)
    report = umbilicity_report(flat2, patch)
    assert report.verdict == "point"
    assert report.codim_even


def test_two_dimensional_scaling_zero_refused():
    flat2 = models.euclidean(2)
    xi = models.euler(flat2)
    with pytest.raises(PatchError):
        trace_component(flat2, xi, classify_zero(flat2, xi, np.zeros(2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_two_dimensional_nan_zero_refused():
    """inf * 0 is NaN: |xi|_g is NaN at the origin, which is no zero, so
    there is no classification to trace.  The parser refuses an infinite
    constant, so the node is built directly."""
    flat2 = models.euclidean(2)
    xi = FieldSpec(flat2, (Mul(Const(math.inf), Var(0)), Var(1)))
    with pytest.raises(ValueError, match="expects a zero"):
        trace_component(flat2, xi, classify_zero(flat2, xi, np.zeros(2)))


def test_traced_patch_records_its_field():
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)), radius=0.2, grid=5)
    assert patch.field is xi
    flat2 = models.euclidean(2)
    rot2 = models.rotation(flat2, 1, 2)
    assert trace_component(flat2, rot2, classify_zero(flat2, rot2, np.zeros(2))).field is rot2


def test_patch_off_the_zero_set_is_its_own_error(monkeypatch):
    """With _VERIFY_TOL = 0 no sample passes, so the verification refuses the
    first one in np.ndindex order, the corner of the grid.  The grid is
    corrected in one call before it is verified, so the failing trace makes
    the same field evaluations as the passing one."""
    calls = recording_calls(monkeypatch, geometry.field_jets, lambda result: 1)
    xi = models.sphere_killing(FLAT3, 1, 4)
    zero = classify_zero(FLAT3, xi, np.array([0.0, 1.0, 0.0]))
    calls.clear()
    trace_component(FLAT3, xi, zero, radius=0.3, grid=5)
    passing = len(calls)
    calls.clear()
    monkeypatch.setattr(zeroset, "_VERIFY_TOL", 0.0)
    with pytest.raises(OffZeroSetError, match=r"leaves the zero set: .* at t = \[-0\.3\]"):
        trace_component(FLAT3, xi, zero, radius=0.3, grid=5)
    assert len(calls) == passing > 1


def test_predictor_outside_the_chart_is_a_skip_not_a_failure():
    """The axis of rotation(1, 2) runs to the box face x3 = 2: from the zero
    at x3 = 1.9 the predictor x + t.kernel reaches x3 = 2.2 and the trace is
    refused with a plain PatchError, not as a patch off the zero set."""
    xi = models.rotation(FLAT3, 1, 2)
    zero = classify_zero(FLAT3, xi, np.array([0.0, 0.0, 1.9]))
    with pytest.raises(PatchError, match="predictor") as refused:
        trace_component(FLAT3, xi, zero, radius=0.3, grid=5)
    assert not isinstance(refused.value, OffZeroSetError)
    assert trace_component(FLAT3, xi, zero, radius=0.05, grid=5).max_field_norm == 0.0


def test_corrector_moves_g_orthogonally_to_the_tangent_space(monkeypatch):
    """The corrector's normals, the classification's normal_basis, are
    g-orthonormal and g-orthogonal to tangent_basis, and tracing decomposes
    nothing more.  Under g = e^{2f} flat with e^{2f} != 1 at the base (so
    Euclidean-orthonormal rows would fail), every sample of the unit-circle
    zero set lies on x + t.kernel plus a g-normal displacement."""
    chart = rescale_metric(FLAT3, parse("0.3*x2 + 0.2", 3))
    xi = models.sphere_killing(chart, 1, 4)
    base = np.array([0.0, 0.6, 0.8])
    zero = classify_zero(chart, xi, base)
    calls = recording_calls(monkeypatch, geometry.frame_svd, lambda out: 1)
    patch = trace_component(chart, xi, zero, radius=0.3, grid=5)
    assert calls == []
    g, normals = zero.metric, zero.normal_basis
    tangent = patch.tangent_basis
    assert abs(g[0, 0] - 1.0) > 0.1
    assert normals.shape == (2, 3)
    assert np.abs(normals @ g @ normals.T - np.eye(2)).max() < 1e-12
    assert np.abs(normals @ g @ tangent.T).max() < 1e-12
    moves = patch.samples - base - np.outer(patch.param_axes[0], tangent[0])
    assert np.abs(moves @ g @ tangent[0]).max() < 1e-12
    assert np.abs(moves).max() > 1e-3  # the circle curves away from its tangent
    assert patch.max_field_norm < 1e-12


# -- second fundamental form on explicitly parametrized zero sets ---------------
#
# Each patch below is the zero set of a field xi whose derivative is
# invertible on the normal space there, built from a parametrization of
# that zero set; the jet path reads only the node points and xi.


def _linspace(lo, hi, num):
    return np.linspace(lo, hi, num)


def _field(chart, *components):
    return FieldSpec(chart, tuple(parse(c, chart.dim) for c in components))


def _assert_jet_path_matches_fd(chart, patch):
    """Compare the jet path with the Richardson reference of the patch map
    at every node the umbilicity report visits.

    B is compared in the parameter basis: the FD tangents are
    dP_a = C[a, c] e_c in the jet path's orthonormal frame e.
    """
    report = umbilicity_report(chart, patch)
    jet = second_fundamental_form(chart, patch.field, report.points, patch.k)
    for m, idx in enumerate(report.indices):
        t = np.array([axis[i] for axis, i in zip(patch.param_axes, idx)])
        point, dP, B_fd, H_fd = fd_second_fundamental_form(chart, patch.mapping, t)
        assert np.array_equal(jet.points[m], point)
        g = metric_value(chart, jet.points[m])
        e = jet.tangent_frame[m]
        assert np.abs(e @ g @ e.T - np.eye(patch.k)).max() < 1e-12
        C = dP @ g @ e.T
        B_param = np.einsum("ac,bd,cdk->abk", C, C, jet.normal_form[m])
        assert np.abs(B_param - B_fd).max() < 1e-8
        assert np.abs(jet.mean_curvature[m] - H_fd).max() < 1e-8
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


def _unit_two_sphere_patch():
    """sphere_killing(1, 5) vanishes on the unit 2-sphere in x1 = 0."""
    xi = models.sphere_killing(FLAT4, 1, 5)

    def emb(t):
        th, ph = t
        return np.array(
            [0.0, math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )

    return map_patch(FLAT4, xi, emb, (_linspace(1.0, 2.0, 5), _linspace(-0.5, 0.5, 5)))


def test_hyperplane_has_zero_second_fundamental_form():
    patch = map_patch(
        FLAT3,
        _field(FLAT3, "0", "0", "x3 - 0.25"),
        lambda t: np.array([t[0], t[1], 0.25]),
        (_linspace(-0.5, 0.5, 7), _linspace(-0.5, 0.5, 7)),
    )
    assert patch.field_norms.shape == (7, 7)
    assert patch.max_field_norm == 0.0
    data = second_fundamental_form(FLAT3, patch.field, patch.samples[3, 3][None], 2)
    assert np.abs(data.normal_form).max() < 1e-9
    assert np.abs(data.mean_curvature).max() < 1e-9
    report = _assert_jet_path_matches_fd(FLAT3, patch)
    assert report.verdict == "totally_umbilical"
    assert report.max_residual < 1e-8


def test_round_two_sphere_is_umbilical_with_mean_curvature_two():
    patch = _sphere_patch()
    assert patch.max_field_norm < 1e-15
    data = second_fundamental_form(FLAT3, patch.field, patch.samples[4, 4][None], 2)
    p = data.points[0]
    # B must be proportional to the induced metric with normal of length 1/r
    assert np.linalg.norm(data.mean_curvature[0]) == pytest.approx(2.0, abs=1e-5)
    # mean curvature points radially
    cross = np.cross(data.mean_curvature[0], p)
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
    data = second_fundamental_form(SPHERE, patch.field, patch.samples[6][None], 1)
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
    report = _assert_jet_path_matches_fd(FLAT4, _unit_two_sphere_patch())
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
    traced = trace_component(HYP4, xi, classify_zero(HYP4, xi, base), radius=0.2, grid=5)
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
    patch = trace_component(SPHERE, xi, classify_zero(SPHERE, xi, SPHERE_ZERO), radius=0.4, grid=7)
    report = umbilicity_report(SPHERE, patch)
    assert report.verdict == "totally_umbilical"
    rescaled = rescale_metric(SPHERE, parse("0.3*sin(x1)", 3))
    assert umbilicity_report(rescaled, patch).verdict == "totally_umbilical"
    # the guard is live: exp_map does integrate
    with pytest.raises(AssertionError, match="geodesic integration"):
        geodesic.exp_map(SPHERE, np.zeros(3), np.array([0.1, 0.0, 0.0]))


def test_batched_second_fundamental_form_matches_per_point():
    """One batched call at every node of a patch gives the per-point
    field_data path's B and frame: bitwise on euclidean charts, within 1e-15
    of the largest entry of B under a rescaled metric."""
    rescaled = rescale_metric(FLAT3, parse("0.3*sin(x2) + x3/5", 3))
    cases = [
        (FLAT3, _sphere_patch(), True),
        (FLAT3, _cylinder_patch(), True),
        (FLAT3, _unit_circle_patch(), True),
        (FLAT4, _unit_two_sphere_patch(), True),
        (rescaled, _unit_circle_patch(), False),
        (rescaled, _sphere_patch(), False),
    ]
    for chart, patch, bitwise in cases:
        points = patch.samples.reshape(-1, chart.dim)
        data = second_fundamental_form(chart, patch.field, points, patch.k)
        assert data.normal_form.shape == (len(points), patch.k, patch.k, chart.dim)
        assert np.array_equal(data.points, points)
        for m, p in enumerate(points):
            B, frame = pointwise_second_fundamental_form(chart, patch.field, p, patch.k)
            if bitwise:
                assert np.array_equal(data.normal_form[m], B)
                assert np.array_equal(data.tangent_frame[m], frame)
            else:
                assert np.abs(data.normal_form[m] - B).max() <= 1e-15 * np.abs(B).max()


def test_umbilicity_report_makes_one_field_data_call(monkeypatch):
    """All interior nodes of a patch, 7 x 7 here, go through one batched
    field_data call."""
    calls = []
    field_data = zeroset.field_data

    def counting(chart, xi, p, order=2):
        calls.append(np.shape(p))
        return field_data(chart, xi, p, order)

    xi = models.rotation(FLAT4, 1, 2)
    patch = trace_component(FLAT4, xi, classify_zero(FLAT4, xi, np.zeros(4)), radius=0.3, grid=9)
    monkeypatch.setattr(zeroset, "field_data", counting)
    report = umbilicity_report(FLAT4, patch)
    assert calls == [(49, 4)]
    assert report.indices == tuple(itertools.product(range(1, 8), repeat=2))
    assert np.array_equal(report.points, [patch.samples[idx] for idx in report.indices])
    assert len(report.mean_curvature_norms) == 49


def test_umbilicity_report_makes_one_frame_svd_call(monkeypatch):
    """The kernels and pseudo-inverses of nabla xi at all 9 interior nodes
    come from one stacked frame_svd call."""
    xi = models.rotation(FLAT4, 1, 2)
    patch = trace_component(FLAT4, xi, classify_zero(FLAT4, xi, np.zeros(4)), radius=0.3, grid=5)
    calls = recording_calls(monkeypatch, geometry.frame_svd,
                            lambda out, factor, tensor, kind: (kind, np.shape(tensor)),
                            arguments=True)
    umbilicity_report(FLAT4, patch)
    assert calls == [("endomorphism", (9, 4, 4))]


def test_umbilicity_report_over_patches_is_the_per_patch_calls(monkeypatch):
    """On euclidean(6): a 4-sphere (sphere_killing(1, 7)), two pieces of a
    2-sphere (that field plus rotation(2, 3)) and a point patch.  One call
    on all four gives each patch's one-patch report bit for bit, from one
    second_fundamental_form call per distinct k."""
    flat6 = models.euclidean(6)
    sk = models.sphere_killing(flat6, 1, 7)
    rot = models.rotation(flat6, 2, 3)
    combo = FieldSpec(flat6, tuple(Add(a, b) for a, b in zip(sk.components, rot.components)))
    spin = _field(flat6, "-x2", "x1", "-x4", "x3", "-x6", "x5")

    def traced(xi, zero):
        zero = np.array(zero, dtype=float)
        return trace_component(flat6, xi, classify_zero(flat6, xi, zero), radius=0.3, grid=5)

    patches = [traced(sk, [0, 1, 0, 0, 0, 0]), traced(spin, np.zeros(6)),
               traced(combo, [0, 0, 0, 1, 0, 0]), traced(combo, [0, 0, 0, 0, 0.6, 0.8])]
    assert [patch.k for patch in patches] == [4, 0, 2, 2]
    singles = [umbilicity_report(flat6, patch) for patch in patches]
    calls = recording_calls(monkeypatch, zeroset.second_fundamental_form,
                            lambda out, chart, xi, points, k: (k, len(points)),
                            arguments=True)
    reports = umbilicity_report(flat6, patches)
    assert calls == [(4, 81), (2, 18)]
    assert isinstance(reports, tuple) and len(reports) == 4
    for got, want in zip(reports, singles):
        for name in zeroset.UmbilicityReport.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b), name
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            else:
                assert a == b, name
    assert [r.verdict for r in reports] == ["totally_umbilical", "point"] + ["totally_umbilical"] * 2
    assert max(reports[2].mean_curvature_norms) == pytest.approx(1.0, abs=1e-10)
    assert umbilicity_report(flat6, []) == ()


def test_wrong_kernel_dimension_names_the_first_such_row():
    """nabla xi of (x1 x3, x2 x3, 0) has a 1-dimensional kernel at
    (0, 0, 1) and (0, 0, 0.5), a 3-dimensional one at the origin and a
    2-dimensional one at (0.1, 0, 0): the stack is refused at row 1.  An
    empty stack has no row to refuse."""
    xi = _field(FLAT3, "x1*x3", "x2*x3", "0")
    points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.1, 0.0, 0.0]])
    assert second_fundamental_form(FLAT3, xi, points[[0, 2]], 1).normal_form.shape == (2, 1, 1, 3)
    assert second_fundamental_form(FLAT3, xi, points[:0], 1).normal_form.shape == (0, 1, 1, 3)
    with pytest.raises(PatchError, match=r"3-dimensional kernel at \[0\.0, 0\.0, 0\.0\], on a 1-"):
        second_fundamental_form(FLAT3, xi, points, 1)


def test_second_fundamental_form_carries_the_metric_at_its_node():
    xi = models.sphere_killing(SPHERE, 3, 4)
    patch = trace_component(SPHERE, xi, classify_zero(SPHERE, xi, SPHERE_ZERO), radius=0.3, grid=5)
    data = second_fundamental_form(SPHERE, patch.field, patch.samples[1][None], 1)
    assert np.array_equal(data.points[0], patch.samples[1])
    assert np.array_equal(data.metric[0], metric_value(SPHERE, data.points[0]))


def test_second_fundamental_form_refusals():
    flat2 = models.euclidean(2)
    rot2 = models.rotation(flat2, 1, 2)
    point_patch = trace_component(flat2, rot2, classify_zero(flat2, rot2, np.zeros(2)))
    with pytest.raises(PatchError):
        second_fundamental_form(flat2, point_patch.field, point_patch.samples[None], 0)

    # the x3 axis is a 1-dimensional zero set, not a 2-dimensional one
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)), radius=0.2, grid=5)
    with pytest.raises(PatchError, match="1-dimensional kernel"):
        second_fundamental_form(FLAT3, xi, patch.samples[2][None], 2)

    # The jet formula needs no neighbouring node, so boundary nodes are not
    # refused: the end nodes of the unit circle get |H| = 1 and the
    # Richardson reference's B.
    patch = _unit_circle_patch()
    ends = (0, len(patch.param_axes[0]) - 1)
    data = second_fundamental_form(FLAT3, patch.field, patch.samples[list(ends)], 1)
    for m, i in enumerate(ends):
        t = np.array([patch.param_axes[0][i]])
        _, dP, B_fd, _ = fd_second_fundamental_form(FLAT3, patch.mapping, t)
        assert abs(np.linalg.norm(data.mean_curvature[m]) - 1.0) < 1e-12
        C = dP @ data.tangent_frame[m].T
        B_param = np.einsum("ac,bd,cdk->abk", C, C, data.normal_form[m])
        assert np.abs(B_param - B_fd).max() < 1e-8


def test_traced_axis_report_is_umbilical_with_even_codim():
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)), radius=0.3, grid=5)
    report = umbilicity_report(FLAT3, patch)
    assert report.verdict == "totally_umbilical"
    assert report.codim == 2
    assert report.codim_even
    assert report.max_residual < 1e-6
    assert len(report.indices) == len(report.residuals)
    assert report.points.shape == (len(report.indices), 3)


def test_circle_component_report_on_round_chart():
    xi = models.sphere_killing(SPHERE, 3, 4)
    patch = trace_component(SPHERE, xi, classify_zero(SPHERE, xi, SPHERE_ZERO), radius=0.4, grid=7)
    report = umbilicity_report(SPHERE, patch)
    assert report.verdict == "totally_umbilical"
    assert report.codim_even
    assert report.max_residual < 1e-4
    assert np.abs(report.mean_curvature_norms).max() < 1e-3


# -- conformal rescaling ----------------------------------------------------------


def test_umbilicity_verdicts_stable_under_rescaling():
    """A patch traced under g serves e^{2f} g: at a zero nabla xi is the same
    for every metric in the conformal class."""
    rescaled = rescale_metric(FLAT3, parse("0.3*sin(x1)", 3))
    xi = models.rotation(FLAT3, 1, 2)
    traced = trace_component(FLAT3, xi, classify_zero(FLAT3, xi, np.zeros(3)), radius=0.3, grid=5)
    for patch, verdict in ((traced, "totally_umbilical"), (_cylinder_patch(), "not_umbilical")):
        assert umbilicity_report(FLAT3, patch).verdict == verdict
        assert umbilicity_report(rescaled, patch).verdict == verdict


def test_rescaled_synthetic_sphere_stays_umbilical():
    """Umbilical points are conformally invariant even though the mean
    curvature itself is not."""
    patch = _sphere_patch()
    rescaled = rescale_metric(FLAT3, parse("x1/4 + x3/5", 3))
    assert umbilicity_report(FLAT3, patch).verdict == "totally_umbilical"
    assert umbilicity_report(rescaled, patch).verdict == "totally_umbilical"


def test_mean_curvature_under_rescaling():
    """Under e^{2f} g the mean curvature vector is e^{-2f} (H - (grad f)^perp),
    so its norm is |H'| = e^{-f} |H - (grad f)^perp| with the norms and the
    gradient of the flat metric."""
    f = parse("0.3*sin(x2) + x3/5", 3)
    rescaled = rescale_metric(FLAT3, f)
    patch = _unit_circle_patch()
    report = _assert_jet_path_matches_fd(rescaled, patch)
    assert report.verdict == "totally_umbilical"
    data = second_fundamental_form(FLAT3, patch.field, report.points, patch.k)
    for m in range(len(report.indices)):
        jet = eval_jet(f, data.points[m], 1)
        e = data.tangent_frame[m]
        normal_grad = jet.d1 - e.T @ (e @ jet.d1)
        expected = math.exp(-jet.value) * np.linalg.norm(data.mean_curvature[m] - normal_grad)
        assert abs(report.mean_curvature_norms[m] - expected) < 1e-12
