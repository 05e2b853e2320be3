"""Zero set tracing, second fundamental form, and umbilicity reports."""
import ast
import itertools
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import confield.geodesic as geodesic
import confield.geometry as geometry
import confield.models as models
import confield.zeroset as zeroset
from confield.conformal import rescale_metric
from confield.expr import Add, Const, Mul, Var, eval_jet, parse
from confield.geometry import FieldSpec, field_data, metric_value, norm_vector
from confield.zeroset import (
    OffZeroSetError,
    PatchError,
    SubmanifoldPatch,
    second_fundamental_form,
    trace_component,
    umbilicity_report,
)
from helpers import (
    corrector,
    fd_second_fundamental_form,
    map_patch,
    recording_calls,
    rowwise,
    trace_at,
    trace_geometry,
    zero_frame,
)

FLAT3 = models.euclidean(3)
FLAT4 = models.euclidean(4)
SPHERE = models.sphere_stereographic(3)
HYP4 = models.hyperbolic_ball(4)
# a zero of sphere_killing(SPHERE, 3, 4), on the unit circle in x3 = 0
SPHERE_ZERO = np.array([1.0, 0.0, 0.0])


def _sff(chart, xi, points, k):
    """``second_fundamental_form`` on the record of ``points``."""
    return second_fundamental_form(field_data(chart, xi, points), k)


# -- tracing ------------------------------------------------------------------


def test_rotation_axis_patch():
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_at(FLAT3, xi, np.zeros(3))
    assert patch.k == 1
    assert patch.codim == 2
    assert patch.samples.shape == (5, 3)
    assert patch.field_norms.shape == (5,)
    # the component is the x3 axis, sampled at equal steps
    assert np.abs(patch.samples[:, :2]).max() < 1e-12
    assert np.abs(np.abs(np.diff(patch.samples[:, 2])) - 0.15).max() < 1e-12
    assert patch.max_field_norm < 1e-12
    # the nodes reach the requested radius
    assert sorted(patch.samples[[0, -1], 2]) == pytest.approx([-0.3, 0.3])


def test_circle_component_patch_on_round_chart(monkeypatch):
    xi = models.sphere_killing(SPHERE, 3, 4)
    base = np.array([1.0, 0.0, 0.0])
    trace_geometry(monkeypatch, 0.4, 7)
    patch = trace_at(SPHERE, xi, base)
    assert patch.k == 1
    assert patch.codim == 2
    flat = patch.samples.reshape(-1, 3)
    assert np.abs(flat[:, 2]).max() < 1e-8
    assert np.abs(np.linalg.norm(flat[:, :2], axis=1) - 1.0).max() < 1e-8
    assert patch.max_field_norm < 1e-5


def test_plane_component_in_four_dimensions(monkeypatch):
    flat4 = models.euclidean(4)
    xi = models.rotation(flat4, 1, 2)
    trace_geometry(monkeypatch, 0.25, 5)
    patch = trace_at(flat4, xi, np.zeros(4))
    assert patch.k == 2
    assert patch.codim == 2
    assert patch.samples.shape == (5, 5, 4)
    flat = patch.samples.reshape(-1, 4)
    # the component is the x3-x4 plane
    assert np.abs(flat[:, :2]).max() < 1e-10
    assert patch.max_field_norm < 1e-10


def test_two_dimensional_point_component():
    flat2 = models.euclidean(2)
    xi = models.rotation(flat2, 1, 2)
    patch = trace_at(flat2, xi, np.zeros(2))
    assert patch.k == 0
    assert patch.codim == 2
    assert patch.samples.shape == (2,)
    report = umbilicity_report(flat2, xi, [patch])[0]
    assert report.verdict == "point"
    assert report.max_residual == 0.0 and report.mean_curvature_norms.shape == (0,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_two_dimensional_nan_zero_refused():
    """inf * 0 is NaN: |xi|_g is NaN at the origin, which is no zero, so
    there is no classification to trace.  The parser refuses an infinite
    constant, so the node is built directly."""
    flat2 = models.euclidean(2)
    xi = FieldSpec(flat2, (Mul(Const(math.inf), Var(0)), Var(1)))
    with pytest.raises(ValueError, match="expects a zero"):
        trace_at(flat2, xi, np.zeros(2))


def test_patch_off_the_zero_set_is_its_own_error(monkeypatch):
    """With _VERIFY_TOL = 0 no sample passes, so the verification refuses the
    first one in np.ndindex order, the corner of the grid.  The grid is
    corrected in one call before it is verified, so the failing trace makes
    the same field evaluations as the passing one."""
    calls = recording_calls(monkeypatch, geometry.field_jets, lambda result: 1)
    xi = models.sphere_killing(FLAT3, 1, 4)
    zero = zero_frame(FLAT3, xi, [0.0, 1.0, 0.0])
    calls.clear()
    trace_component(FLAT3, xi, *zero)
    passing = len(calls)
    calls.clear()
    monkeypatch.setattr(zeroset, "_VERIFY_TOL", 0.0)
    with pytest.raises(OffZeroSetError, match=r"leaves the zero set: .* at t = \[-0\.3\]"):
        trace_component(FLAT3, xi, *zero)
    assert len(calls) == passing > 1


def test_a_patch_past_the_end_of_its_graph_is_off_the_zero_set(monkeypatch):
    """The zero set of sphere_killing(1, 4) on the flat chart is the unit
    circle x2^2 + x3^2 = 1 in x1 = 0; traced from (0, 1, 0), it is a graph
    over its tangent line x3 only for |x3| < 1.  With the grid's ends at
    x3 = +-0.99 every sample is on the circle.  At +-1.02 the normal plane
    misses the circle, the corrector settles where |xi|_g = 0.0202, and the
    verification refuses the patch at its first node."""
    xi = models.sphere_killing(FLAT3, 1, 4)
    zero = zero_frame(FLAT3, xi, [0.0, 1.0, 0.0])
    trace_geometry(monkeypatch, 0.99, 5)
    assert trace_component(FLAT3, xi, *zero).max_field_norm < 1e-12
    trace_geometry(monkeypatch, 1.02, 5)
    with pytest.raises(OffZeroSetError, match=r"\|xi\|_g = 2\.020e-02 at t = \[-1\.02\]"):
        trace_component(FLAT3, xi, *zero)


def test_predictor_outside_the_chart_is_a_skip_not_a_failure(monkeypatch):
    """The axis of rotation(1, 2) runs to the box face x3 = 2: from the zero
    at x3 = 1.9 the predictor x + t.kernel reaches x3 = 2.2 and the trace is
    refused with a plain PatchError, not as a patch off the zero set."""
    xi = models.rotation(FLAT3, 1, 2)
    zero = zero_frame(FLAT3, xi, [0.0, 0.0, 1.9])
    with pytest.raises(PatchError, match="predictor") as refused:
        trace_component(FLAT3, xi, *zero)
    assert not isinstance(refused.value, OffZeroSetError)
    trace_geometry(monkeypatch, 0.05, 5)
    assert trace_component(FLAT3, xi, *zero).max_field_norm == 0.0


def test_zeroset_imports_only_the_solver_from_essential():
    """Tracing is handed a zero's frame and reads no verdict: which zeros
    to trace is decided by its caller, so zeroset takes nothing from
    essential but polish_zeros."""
    tree = ast.parse(Path(zeroset.__file__).read_text(encoding="utf-8"))
    taken = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module in ("essential", "confield.essential") for alias in node.names]
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    assert taken == ["polish_zeros"]
    assert not {"essential", "confield.essential"} & set(modules)


def test_corrector_moves_g_orthogonally_to_the_tangent_space(monkeypatch):
    """The corrector's normals, the complement rows of the classification's
    frame, are g-orthonormal and g-orthogonal to its kernel rows, and
    tracing decomposes nothing more.  Under g = e^{2f} flat with e^{2f} != 1 at the base (so
    Euclidean-orthonormal rows would fail), every sample of the unit-circle
    zero set lies on x + t.kernel plus a g-normal displacement."""
    chart = rescale_metric(FLAT3, parse("0.3*x2 + 0.2", 3))
    xi = models.sphere_killing(chart, 1, 4)
    base = np.array([0.0, 0.6, 0.8])
    _, frame, k = zero = zero_frame(chart, xi, base)
    calls = recording_calls(monkeypatch, geometry.frame_svd, lambda out: 1)
    patch = trace_component(chart, xi, *zero)
    assert calls == []
    g, normals, tangent = metric_value(chart, base[None])[0], frame[:3 - k], frame[3 - k:]
    assert abs(g[0, 0] - 1.0) > 0.1
    assert normals.shape == (2, 3)
    assert np.abs(normals @ g @ normals.T - np.eye(2)).max() < 1e-12
    assert np.abs(normals @ g @ tangent.T).max() < 1e-12
    axis = np.linspace(-zeroset.TRACE_RADIUS, zeroset.TRACE_RADIUS, zeroset.TRACE_GRID)
    moves = patch.samples - base - np.outer(axis, tangent[0])
    assert np.abs(moves @ g @ tangent[0]).max() < 1e-12
    assert np.abs(moves).max() > 1e-3  # the circle curves away from its tangent
    assert patch.max_field_norm < 1e-12


# -- second fundamental form on explicitly parametrized zero sets ---------------
#
# Each patch below is the zero set of a field xi whose derivative is
# invertible on the normal space there, built from a parametrization of
# that zero set; the jet path reads only the node points and xi.


class Known(NamedTuple):
    """A zero set of ``xi`` with its parametrization ``mapping``, which
    takes an (m, k) array of parameters, and its patch on the grid
    ``axes``."""

    xi: FieldSpec
    mapping: Callable
    axes: tuple
    patch: SubmanifoldPatch


def _known(chart, xi, mapping, axes):
    return Known(xi, mapping, axes, map_patch(chart, xi, mapping, axes))


def _linspace(lo, hi, num):
    return np.linspace(lo, hi, num)


def _field(chart, *components):
    return FieldSpec(chart, tuple(parse(c, chart.dim) for c in components))


def _interior(patch):
    """The interior nodes of a patch, in the order umbilicity_report
    visits them."""
    k = patch.k
    return np.array([patch.samples[idx]
                     for idx in itertools.product(*(range(1, size - 1)
                                                    for size in patch.samples.shape[:k]))])


def _assert_jet_path_matches_fd(chart, known):
    """Compare the jet path with the Richardson reference of the patch map
    at every node the umbilicity report visits.

    B is compared in the parameter basis: the FD tangents are
    dP_a = C[a, c] e_c in the jet path's orthonormal frame e.
    """
    k = len(known.axes)
    report = umbilicity_report(chart, known.xi, [known.patch])[0]
    nodes = _interior(known.patch)
    jet = _sff(chart, known.xi, nodes, k)
    for m, t in enumerate(itertools.product(*(axis[1:-1] for axis in known.axes))):
        point, dP, B_fd, H_fd = fd_second_fundamental_form(chart, known.mapping, np.array(t))
        assert np.array_equal(nodes[m], point)
        g = metric_value(chart, nodes[m][None])[0]
        e = jet.tangent_frame[m]
        assert np.abs(e @ g @ e.T - np.eye(k)).max() < 1e-12
        C = dP @ g @ e.T
        B_param = np.einsum("ac,bd,cdk->abk", C, C, jet.normal_form[m])
        assert np.abs(B_param - B_fd).max() < 1e-8
        assert np.abs(jet.mean_curvature[m] - H_fd).max() < 1e-8
        assert abs(report.mean_curvature_norms[m] - norm_vector(g, H_fd)) < 1e-8
    assert len(report.mean_curvature_norms) == len(nodes)
    return report


def _sphere():
    """The sphere of radius 0.5 about the origin, zero set of (|x|^2 - 1/4) x."""
    r2 = "(x1^2 + x2^2 + x3^2 - 0.25)"
    xi = _field(FLAT3, f"{r2}*x1", f"{r2}*x2", f"{r2}*x3")

    def emb(t):
        th, ph = t
        return 0.5 * np.array(
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )

    return _known(FLAT3, xi, rowwise(emb), (_linspace(0.6, 2.5, 9), _linspace(-2.8, 2.8, 9)))


def _cylinder():
    """The cylinder of radius 0.8 about the x3 axis, zero set of
    (x1^2 + x2^2 - 0.64) (x1, x2, 0)."""
    r2 = "(x1^2 + x2^2 - 0.64)"
    xi = _field(FLAT3, f"{r2}*x1", f"{r2}*x2", "0")

    def emb(t):
        th, z = t
        return np.array([0.8 * math.cos(th), 0.8 * math.sin(th), z])

    return _known(FLAT3, xi, rowwise(emb), (_linspace(-2.5, 2.5, 9), _linspace(-1.0, 1.0, 9)))


def _unit_circle():
    """sphere_killing(1, 4) vanishes on the unit circle in the plane x1 = 0,
    which has |H| = 1 in flat space."""
    return _known(
        FLAT3,
        models.sphere_killing(FLAT3, 1, 4),
        rowwise(lambda t: np.array([0.0, math.cos(t[0]), math.sin(t[0])])),
        (_linspace(-0.6, 0.6, 7),),
    )


def _unit_two_sphere():
    """sphere_killing(1, 5) vanishes on the unit 2-sphere in x1 = 0."""
    xi = models.sphere_killing(FLAT4, 1, 5)

    def emb(t):
        th, ph = t
        return np.array(
            [0.0, math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )

    return _known(FLAT4, xi, rowwise(emb), (_linspace(1.0, 2.0, 5), _linspace(-0.5, 0.5, 5)))


def test_hyperplane_has_zero_second_fundamental_form():
    known = _known(
        FLAT3,
        _field(FLAT3, "0", "0", "x3 - 0.25"),
        rowwise(lambda t: np.array([t[0], t[1], 0.25])),
        (_linspace(-0.5, 0.5, 7), _linspace(-0.5, 0.5, 7)),
    )
    patch = known.patch
    assert patch.field_norms.shape == (7, 7)
    assert patch.max_field_norm == 0.0
    data = _sff(FLAT3, known.xi, patch.samples[3, 3][None], 2)
    assert np.abs(data.normal_form).max() < 1e-9
    assert np.abs(data.mean_curvature).max() < 1e-9
    report = _assert_jet_path_matches_fd(FLAT3, known)
    assert report.verdict == "totally_umbilical"
    assert report.max_residual < 1e-8


def test_round_two_sphere_is_umbilical_with_mean_curvature_two():
    known = _sphere()
    patch = known.patch
    assert patch.max_field_norm < 1e-15
    p = patch.samples[4, 4]
    data = _sff(FLAT3, known.xi, p[None], 2)
    # B must be proportional to the induced metric with normal of length 1/r
    assert np.linalg.norm(data.mean_curvature[0]) == pytest.approx(2.0, abs=1e-5)
    # mean curvature points radially
    cross = np.cross(data.mean_curvature[0], p)
    assert np.linalg.norm(cross) < 1e-5
    report = _assert_jet_path_matches_fd(FLAT3, known)
    assert report.verdict == "totally_umbilical"
    assert report.max_residual < 1e-4
    assert patch.codim == 1  # a hypersurface: odd codimension, reported as it is


def test_cylinder_is_not_umbilical():
    report = _assert_jet_path_matches_fd(FLAT3, _cylinder())
    assert report.verdict == "not_umbilical"
    assert report.max_residual > 0.5


def test_a_slightly_bent_plane_is_not_umbilical():
    """The graph x1 = x3^2 / 100, zero set of (x1 - x3^2 / 100, 0, 0), bends
    along x3 alone: its principal curvatures are 0 and k = 0.02 / (1 +
    4e-4 x3^2)^(3/2), so B - g H has norm k / sqrt(2), about 0.014, at
    every node, and no patch of it is totally umbilical.  The residual at
    each interior node is the worst one of the 3 x 3 block around it, whose
    one interior node it is."""
    xi = _field(FLAT3, "x1 - 0.01*x3^2", "0", "0")
    patch = map_patch(
        FLAT3,
        xi,
        rowwise(lambda t: np.array([0.01 * t[1] ** 2, t[0], t[1]])),
        (_linspace(-0.5, 0.5, 5), _linspace(-0.5, 0.5, 5)),
    )
    report = umbilicity_report(FLAT3, xi, [patch])[0]
    blocks = [SubmanifoldPatch(patch.base, patch.samples[i - 1:i + 2, j - 1:j + 2],
                               patch.field_norms[i - 1:i + 2, j - 1:j + 2], patch.codim)
              for i, j in itertools.product(range(1, 4), repeat=2)]
    residuals = [r.max_residual for r in umbilicity_report(FLAT3, xi, blocks)]
    x3 = _interior(patch)[:, 2]
    np.testing.assert_allclose(residuals, 0.02 / (1 + 4e-4 * x3 ** 2) ** 1.5 / math.sqrt(2),
                               rtol=1e-9)
    assert report.max_residual == max(residuals)
    assert report.verdict == "not_umbilical"


def test_great_subsphere_is_minimal_in_round_metric():
    """The coordinate unit circle in the x1-x2 plane is a closed geodesic
    circle of the round metric; as the fixed set of an isometry it is
    totally geodesic: B = 0, H = 0."""
    known = _known(
        SPHERE,
        models.sphere_killing(SPHERE, 3, 4),
        rowwise(lambda t: np.array([math.cos(t[0]), math.sin(t[0]), 0.0])),
        (_linspace(-3.0, 3.0, 13),),
    )
    data = _sff(SPHERE, known.xi, known.patch.samples[6][None], 1)
    assert np.abs(data.normal_form).max() < 1e-6
    report = _assert_jet_path_matches_fd(SPHERE, known)
    assert report.verdict == "totally_umbilical"
    assert np.abs(report.mean_curvature_norms).max() < 1e-5


# -- jet path on the zero sets of catalog fields ---------------------------------


def test_jet_path_on_unit_circle_zero_set():
    known = _unit_circle()
    assert known.patch.max_field_norm < 1e-14
    assert known.patch.codim == 2
    report = _assert_jet_path_matches_fd(FLAT3, known)
    assert report.verdict == "totally_umbilical"
    assert np.abs(report.mean_curvature_norms - 1.0).max() < 1e-12


def test_jet_path_on_unit_two_sphere_zero_set():
    known = _unit_two_sphere()
    assert known.patch.codim == 2
    report = _assert_jet_path_matches_fd(FLAT4, known)
    assert report.verdict == "totally_umbilical"
    assert np.abs(report.mean_curvature_norms - 1.0).max() < 1e-12


@pytest.mark.parametrize(
    "base", [np.zeros(4), np.array([0.0, 0.0, 0.15, -0.1])], ids=["origin", "off_origin"]
)
def test_jet_path_on_traced_hyperbolic_patches(base, monkeypatch):
    """The FD reference runs on the 3 x 3 sub-grid around traced node (1, 1),
    through the corrector that tracing runs, to keep the number of corrector
    runs small."""
    xi = models.rotation(HYP4, 1, 2)
    trace_geometry(monkeypatch, 0.2, 5)
    zero = zero_frame(HYP4, xi, base)
    traced = trace_component(HYP4, xi, *zero)
    assert traced.k == 2
    axis = np.linspace(-0.2, 0.2, 5)[0:3]
    sub = _known(HYP4, xi, corrector(HYP4, xi, *zero), (axis, axis))
    assert np.array_equal(sub.patch.samples, traced.samples[0:3, 0:3])
    _assert_jet_path_matches_fd(HYP4, sub)
    report = umbilicity_report(HYP4, xi, [traced])[0]
    assert report.verdict == "totally_umbilical"
    assert report.max_residual < 1e-9
    assert np.abs(report.mean_curvature_norms).max() < 1e-9


def test_traced_umbilicity_integrates_no_geodesic(monkeypatch):
    """Neither the corrector of tracing nor the jet path, which
    reads the traced samples only, integrates a geodesic."""

    def refuse(*args, **kwargs):
        raise AssertionError("geodesic integration in tracing or a traced umbilicity report")

    monkeypatch.setattr(geodesic, "integrate_geodesic", refuse)
    xi = models.sphere_killing(SPHERE, 3, 4)
    trace_geometry(monkeypatch, 0.4, 7)
    patch = trace_at(SPHERE, xi, SPHERE_ZERO)
    report = umbilicity_report(SPHERE, xi, [patch])[0]
    assert report.verdict == "totally_umbilical"
    rescaled = rescale_metric(SPHERE, parse("0.3*sin(x1)", 3))
    assert umbilicity_report(rescaled, xi, [patch])[0].verdict == "totally_umbilical"
    # the guard is live: exp_map does integrate
    with pytest.raises(AssertionError, match="geodesic integration"):
        geodesic.exp_map(SPHERE, np.zeros(3), np.array([0.1, 0.0, 0.0]))


def test_batched_second_fundamental_form_matches_per_point():
    """One batched call at every node of a patch gives, in row m, the B and
    frame of the stack of one holding node m, bit for bit."""
    rescaled = rescale_metric(FLAT3, parse("0.3*sin(x2) + x3/5", 3))
    cases = [
        (FLAT3, _sphere()),
        (FLAT3, _cylinder()),
        (FLAT3, _unit_circle()),
        (FLAT4, _unit_two_sphere()),
        (rescaled, _unit_circle()),
        (rescaled, _sphere()),
    ]
    for chart, (xi, _, _, patch) in cases:
        points = patch.samples.reshape(-1, chart.dim)
        data = _sff(chart, xi, points, patch.k)
        assert data.normal_form.shape == (len(points), patch.k, patch.k, chart.dim)
        for m in range(len(points)):
            one = _sff(chart, xi, points[m:m + 1], patch.k)
            assert np.array_equal(data.normal_form[m], one.normal_form[0])
            assert np.array_equal(data.tangent_frame[m], one.tangent_frame[0])


def test_umbilicity_report_makes_one_field_data_call(monkeypatch):
    """All interior nodes of a patch, 7 x 7 here, go through one batched
    field_data call, in itertools.product order of their grid indices."""
    calls = []
    field_data = zeroset.field_data

    def counting(chart, xi, p):
        calls.append(np.array(p))
        return field_data(chart, xi, p)

    xi = models.rotation(FLAT4, 1, 2)
    trace_geometry(monkeypatch, 0.3, 9)
    patch = trace_at(FLAT4, xi, np.zeros(4))
    monkeypatch.setattr(zeroset, "field_data", counting)
    report = umbilicity_report(FLAT4, xi, [patch])[0]
    assert [p.shape for p in calls] == [(49, 4)]
    nodes = itertools.product(range(1, 8), repeat=2)
    assert np.array_equal(calls[0], [patch.samples[idx] for idx in nodes])
    assert len(report.mean_curvature_norms) == 49


def test_umbilicity_report_makes_one_frame_svd_call(monkeypatch):
    """The kernels and pseudo-inverses of nabla xi at all 9 interior nodes
    come from one stacked frame_svd call."""
    xi = models.rotation(FLAT4, 1, 2)
    patch = trace_at(FLAT4, xi, np.zeros(4))
    calls = recording_calls(monkeypatch, geometry.frame_svd,
                            lambda out, factor, tensor, kind: (kind, np.shape(tensor)),
                            arguments=True)
    umbilicity_report(FLAT4, xi, [patch])[0]
    assert calls == [("endomorphism", (9, 4, 4))]


def test_umbilicity_report_over_patches_is_the_per_patch_calls(monkeypatch):
    """On euclidean(6), xi = (a(u), a(v)) with u = (x1, x2, x3), v = (x4,
    x5, x6) and a(u) = ((u1^2 + u2^2 - 1) u1, (u1^2 + u2^2 - 1) u2, u3)
    vanishes on the unit circle C in u3 = 0 and at 0, nondegenerately on
    each: its zero set holds the torus C x C, the circles C x 0 and 0 x C
    and the origin.  One call on a patch of each gives each patch's report
    from a call on that patch alone, bit for bit, from one
    second_fundamental_form call per distinct k."""
    flat6 = models.euclidean(6)
    xi = _field(flat6, "(x1^2 + x2^2 - 1)*x1", "(x1^2 + x2^2 - 1)*x2", "x3",
                "(x4^2 + x5^2 - 1)*x4", "(x4^2 + x5^2 - 1)*x5", "x6")

    def circle(t):
        return np.array([math.cos(t), math.sin(t), 0.0])

    axis = _linspace(-0.5, 0.5, 5)
    torus = map_patch(flat6, xi, rowwise(lambda t: np.concatenate([circle(t[0]), circle(t[1])])),
                      (axis, axis))
    first = map_patch(flat6, xi, rowwise(lambda t: np.concatenate([circle(t[0]), np.zeros(3)])),
                      (axis,))
    second = map_patch(flat6, xi, rowwise(lambda t: np.concatenate([np.zeros(3), circle(t[0])])),
                       (axis,))
    origin = SubmanifoldPatch(np.zeros(6), np.zeros(6), np.zeros(()), 6)
    patches = [torus, origin, first, second]
    assert [patch.k for patch in patches] == [2, 0, 1, 1]
    assert max(patch.max_field_norm for patch in patches) < 1e-15
    singles = [umbilicity_report(flat6, xi, [patch])[0] for patch in patches]
    calls = recording_calls(monkeypatch, zeroset.second_fundamental_form,
                            lambda out, jets, k: (k, len(jets.points)),
                            arguments=True)
    reports = umbilicity_report(flat6, xi, patches)
    assert calls == [(2, 9), (1, 6)]
    assert isinstance(reports, tuple) and len(reports) == 4
    for got, want in zip(reports, singles):
        for name in zeroset.UmbilicityReport.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b), name
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            else:
                assert a == b, name
    assert [r.verdict for r in reports] == ["not_umbilical", "point"] + ["totally_umbilical"] * 2
    # the flat torus C x C has H = -(u + v) / 2 with |H| = 1 / sqrt(2)
    assert np.abs(reports[0].mean_curvature_norms - math.sqrt(0.5)).max() < 1e-12
    assert np.abs(reports[2].mean_curvature_norms - 1.0).max() < 1e-12
    assert umbilicity_report(flat6, xi, []) == ()


def test_wrong_kernel_dimension_names_the_first_such_row():
    """nabla xi of (x1 x3, x2 x3, 0) has a 1-dimensional kernel at
    (0, 0, 1) and (0, 0, 0.5), a 3-dimensional one at the origin and a
    2-dimensional one at (0.1, 0, 0): the stack is refused at row 1.  An
    empty stack has no row to refuse."""
    xi = _field(FLAT3, "x1*x3", "x2*x3", "0")
    points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.1, 0.0, 0.0]])
    assert _sff(FLAT3, xi, points[[0, 2]], 1).normal_form.shape == (2, 1, 1, 3)
    assert _sff(FLAT3, xi, points[:0], 1).normal_form.shape == (0, 1, 1, 3)
    with pytest.raises(PatchError, match=r"3-dimensional kernel at \[0\.0, 0\.0, 0\.0\], on a 1-"):
        _sff(FLAT3, xi, points, 1)


def test_second_fundamental_form_refusals(monkeypatch):
    flat2 = models.euclidean(2)
    rot2 = models.rotation(flat2, 1, 2)
    point_patch = trace_at(flat2, rot2, np.zeros(2))
    with pytest.raises(PatchError):
        _sff(flat2, rot2, point_patch.samples[None], 0)

    # the x3 axis is a 1-dimensional zero set, not a 2-dimensional one
    xi = models.rotation(FLAT3, 1, 2)
    trace_geometry(monkeypatch, 0.2, 5)
    patch = trace_at(FLAT3, xi, np.zeros(3))
    with pytest.raises(PatchError, match="1-dimensional kernel"):
        _sff(FLAT3, xi, patch.samples[2][None], 2)

    # The jet formula needs no neighbouring node, so boundary nodes are not
    # refused: the end nodes of the unit circle get |H| = 1 and the
    # Richardson reference's B.
    known = _unit_circle()
    (axis,) = known.axes
    ends = (0, len(axis) - 1)
    data = _sff(FLAT3, known.xi, known.patch.samples[list(ends)], 1)
    for m, i in enumerate(ends):
        _, dP, B_fd, _ = fd_second_fundamental_form(FLAT3, known.mapping, axis[i:i + 1])
        assert abs(np.linalg.norm(data.mean_curvature[m]) - 1.0) < 1e-12
        C = dP @ data.tangent_frame[m].T
        B_param = np.einsum("ac,bd,cdk->abk", C, C, data.normal_form[m])
        assert np.abs(B_param - B_fd).max() < 1e-8


def test_traced_axis_report_is_umbilical_with_even_codim():
    xi = models.rotation(FLAT3, 1, 2)
    patch = trace_at(FLAT3, xi, np.zeros(3))
    report = umbilicity_report(FLAT3, xi, [patch])[0]
    assert report.verdict == "totally_umbilical"
    assert patch.codim == 2
    assert report.max_residual < 1e-6
    assert report.mean_curvature_norms.shape == (3,)


def test_circle_component_report_on_round_chart(monkeypatch):
    xi = models.sphere_killing(SPHERE, 3, 4)
    trace_geometry(monkeypatch, 0.4, 7)
    patch = trace_at(SPHERE, xi, SPHERE_ZERO)
    report = umbilicity_report(SPHERE, xi, [patch])[0]
    assert report.verdict == "totally_umbilical"
    assert patch.codim == 2
    assert report.max_residual < 1e-4
    assert np.abs(report.mean_curvature_norms).max() < 1e-3


# -- conformal rescaling ----------------------------------------------------------


def test_umbilicity_verdicts_stable_under_rescaling():
    """A patch traced under g serves e^{2f} g: at a zero nabla xi is the same
    for every metric in the conformal class."""
    rescaled = rescale_metric(FLAT3, parse("0.3*sin(x1)", 3))
    xi = models.rotation(FLAT3, 1, 2)
    traced = trace_at(FLAT3, xi, np.zeros(3))
    cylinder = _cylinder()
    for field, patch, verdict in ((xi, traced, "totally_umbilical"),
                                  (cylinder.xi, cylinder.patch, "not_umbilical")):
        assert umbilicity_report(FLAT3, field, [patch])[0].verdict == verdict
        assert umbilicity_report(rescaled, field, [patch])[0].verdict == verdict


def test_rescaled_synthetic_sphere_stays_umbilical():
    """Umbilical points are conformally invariant even though the mean
    curvature itself is not."""
    xi, _, _, patch = _sphere()
    rescaled = rescale_metric(FLAT3, parse("x1/4 + x3/5", 3))
    assert umbilicity_report(FLAT3, xi, [patch])[0].verdict == "totally_umbilical"
    assert umbilicity_report(rescaled, xi, [patch])[0].verdict == "totally_umbilical"


def test_mean_curvature_under_rescaling():
    """Under e^{2f} g the mean curvature vector is e^{-2f} (H - (grad f)^perp),
    so its norm is |H'| = e^{-f} |H - (grad f)^perp| with the norms and the
    gradient of the flat metric."""
    f = parse("0.3*sin(x2) + x3/5", 3)
    rescaled = rescale_metric(FLAT3, f)
    known = _unit_circle()
    report = _assert_jet_path_matches_fd(rescaled, known)
    assert report.verdict == "totally_umbilical"
    nodes = _interior(known.patch)
    data = _sff(FLAT3, known.xi, nodes, 1)
    assert len(report.mean_curvature_norms) == len(nodes) == 5
    for m in range(len(nodes)):
        jet = eval_jet(f, nodes[m], 1)
        e = data.tangent_frame[m]
        normal_grad = jet.d1 - e.T @ (e @ jet.d1)
        expected = math.exp(-jet.value) * np.linalg.norm(data.mean_curvature[m] - normal_grad)
        assert abs(report.mean_curvature_norms[m] - expected) < 1e-12
