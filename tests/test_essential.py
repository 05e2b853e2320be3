"""Zero finding, zero classification, and isolation audits."""
import math
import tracemalloc

import numpy as np
import pytest

import confield.essential as essential
import confield.geometry as geometry
import confield.models as models
import confield.zeroset as zeroset
from confield.conformal import conformal_residual, rescale_metric
from confield.essential import (
    VERDICT_ESSENTIAL,
    VERDICT_HOMOTHETIC,
    VERDICT_INVALID,
    VERDICT_KILLING,
    ZeroClassification,
    classify_zero,
    find_zeros,
    limit_point_audit,
    polish_zeros,
)
from confield.expr import Const, Fun, Mul, Var, parse
from confield.geometry import FieldSpec, field_norm, metric_value, sample_ball
from confield.zeroset import trace_component
from helpers import (
    mobius_conjugate,
    mobius_field,
    mobius_matrix,
    mobius_parts,
    mobius_zero_verdict,
    recording_calls,
)

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
        xi = FieldSpec(
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
    z_squared = FieldSpec(flat2, (parse("x1^2 - x2^2", 2), parse("2*x1*x2", 2)))
    for xi in (models.euler(flat2), z_squared):
        assert classify_zero(flat2, xi, np.zeros(2)).verdict is None


def test_classify_requires_an_actual_zero():
    with pytest.raises(ValueError, match="expects a zero"):
        classify_zero(FLAT3, models.rotation(FLAT3), np.array([0.5, 0.5, 0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classify_refuses_a_nan_zero():
    """inf * 0 is NaN: |xi|_g is NaN at the origin, which is no zero.  The
    parser refuses an infinite constant, so the node is built directly."""
    xi = FieldSpec(FLAT3, (Mul(Const(math.inf), Var(0)), Var(1), Var(2)))
    with pytest.raises(ValueError, match="expects a zero"):
        classify_zero(FLAT3, xi, np.zeros(3))


def test_find_zeros_refuses_a_nan_residual(monkeypatch):
    xi = models.rotation(FLAT3, 1, 2)
    assert len(find_zeros(FLAT3, xi)) > 0
    monkeypatch.setattr(essential, "field_norm",
                        lambda chart, xi, points: np.full(len(points), math.nan))
    assert find_zeros(FLAT3, xi).shape == (0, 3)


def test_zero_order_ignores_rounding_noise(monkeypatch):
    """Zeros on the x3 axis whose x1 is +-1e-30 instead of 0 come out in
    the same order, by x3, whichever sign each one carries."""
    xi = models.rotation(FLAT3, 1, 2)
    polish = essential.polish_zeros

    def zeros_with_noise(sign):
        def noisy(chart, xi, points, normals=None):
            out, converged = polish(chart, xi, points, normals)
            out[:, 0] = sign * 1e-30 * (-1.0) ** np.arange(len(out))
            return out, converged

        monkeypatch.setattr(essential, "polish_zeros", noisy)
        return find_zeros(FLAT3, xi)

    plus, minus = zeros_with_noise(1.0), zeros_with_noise(-1.0)
    assert len(plus) >= 8
    assert np.array_equal(plus[:, 1:], minus[:, 1:])
    assert np.all(np.diff(plus[:, 2]) > 1e-3)


def test_polished_lanes_do_not_mix(monkeypatch):
    """The seeds of find_zeros, polished as the lanes of one call, end
    exactly where each one ends polished alone."""
    xi = models.special_conformal(HYPER, 1)
    runs = []
    polish = essential.polish_zeros

    def recording(chart, xi, points, normals=None):
        out = polish(chart, xi, points, normals)
        runs.append((np.array(points), out))
        return out

    monkeypatch.setattr(essential, "polish_zeros", recording)
    assert len(find_zeros(HYPER, xi)) == 1
    (seeds, (stacked, converged)), = runs
    assert len(seeds) > 1 and converged.all()
    for seed, row in zip(seeds, stacked):
        assert np.array_equal(polish(HYPER, xi, seed[None])[0][0], row)


def test_find_zeros_polishes_seeds_together(monkeypatch):
    """The 47 zeros of sphere_killing(1, 5) on flat R^4 cost a few dozen
    field_jets calls in all; polishing seed by seed makes 1129 here."""
    calls = recording_calls(monkeypatch, geometry.field_jets, lambda result: 1)
    flat4 = models.euclidean(4)
    assert len(find_zeros(flat4, models.sphere_killing(flat4, 1, 5))) == 47
    assert len(calls) < 100


@pytest.mark.parametrize("chart,xi", [
    (HYPER, models.special_conformal(HYPER, 1)),
    (SPHERE, models.rotation(SPHERE, 1, 2)),
], ids=["hyperbolic_ball_3-special_conformal_1", "sphere_stereographic_3-rotation_12"])
def test_dedupe_keeps_what_the_pairwise_loop_keeps(monkeypatch, chart, xi):
    """The distance matrix read greedily, converged lanes first and each in
    residual order, keeps the zeros that comparing each polished seed with
    every kept zero keeps; a lane the cap stopped also keeps
    ISOLATION_RADIUS from a converged one."""
    polish = essential.polish_zeros
    runs = []

    def recording(chart, xi, points, normals=None):
        runs.append(polish(chart, xi, points, normals))
        return runs[-1]

    monkeypatch.setattr(essential, "polish_zeros", recording)
    zeros = find_zeros(chart, xi)
    ((polished, converged),) = runs
    inside = chart._inside(polished, essential._BOUNDARY_MARGIN)
    polished, converged = polished[inside], converged[inside]
    residuals = field_norm(chart, xi, polished)
    kept, kept_converged = [], []
    for idx in sorted(range(len(polished)), key=lambda i: (not converged[i], residuals[i])):
        x = polished[idx]
        if residuals[idx] < 1e-10 and all(
            np.linalg.norm(x - y) > (essential.ISOLATION_RADIUS if c and not converged[idx]
                                     else essential._DEDUPE_DISTANCE)
            for y, c in zip(kept, kept_converged)
        ):
            kept.append(x)
            kept_converged.append(converged[idx])
    assert len(polished) > len(zeros) == len(kept)
    key = np.round(kept, 12) + 0.0
    assert np.array_equal(zeros, np.asarray(kept)[np.lexsort(key.T[::-1])])


def _polish_evaluations(monkeypatch, module):
    """Record the rows of every field_jets call; of those made inside
    polish_zeros, called through ``module``; and one entry per solve (each
    starts with one evaluation of every lane)."""
    rows, solves = [], []
    calls = recording_calls(monkeypatch, geometry.field_jets, lambda result: len(result[0]))
    polish = essential.polish_zeros

    def polishing(*args, **kwargs):
        solves.append(len(calls))
        out = polish(*args, **kwargs)
        rows.extend(calls[solves[-1]:])
        return out

    monkeypatch.setattr(module, "polish_zeros", polishing)
    return calls, rows, solves


def test_trace_stops_lanes_at_rounding_level(monkeypatch):
    """Corrector lanes whose candidate rounds back to their own point stop
    halving: tracing the first zero of sphere_killing(1, 5) on flat R^4
    makes 122 candidate evaluations when each stalled lane halves 30
    times."""
    flat4 = models.euclidean(4)
    xi = models.sphere_killing(flat4, 1, 5)
    zero = classify_zero(flat4, xi, find_zeros(flat4, xi)[0])
    _, rows, solves = _polish_evaluations(monkeypatch, zeroset)
    trace_component(flat4, xi, zero, radius=0.3, grid=5)
    assert len(solves) == 1
    assert 0 < len(rows) - len(solves) <= 30


def test_polish_carries_its_jets(monkeypatch):
    """An accepted candidate's 1-jet is the next iteration's data, and a
    halving with no candidate inside the chart evaluates nothing.  At the
    quadratic zero of special_conformal(1) the solve makes three
    evaluations: one of every lane at the start and one per iteration,
    where evaluating again at the top of each iteration doubles them.  On
    the hyperbolic ball, 134 of the 153 solver evaluations of
    sphere_killing(1, 4) were of empty batches; now find_zeros evaluates no
    empty batch at all."""
    calls, rows, solves = _polish_evaluations(monkeypatch, essential)
    find_zeros(FLAT3, models.special_conformal(FLAT3, 1))
    assert len(solves) == 1 and 0 < len(rows) <= 3
    calls.clear()
    assert len(find_zeros(HYPER, models.sphere_killing(HYPER, 1, 4))) == 0
    assert calls and 0 not in calls


@pytest.mark.parametrize("field", ["special_conformal", "sphere_translation"])
@pytest.mark.parametrize("chart", [FLAT3, SPHERE, HYPER], ids=lambda c: c.name)
def test_polish_runs_the_essential_origin_zero_to_rounding_level(chart, field):
    """The origin zero is quadratic, so plain Newton only halves the error
    per iteration.  A stop at a rounding-level residual would leave it near
    |x| = 1e-7, where a point off the field's axis reads as Killing with a
    one-dimensional kernel; running on places it within 1e-13, where it
    reads as essential with kernel dimension 3."""
    xi = getattr(models, field)(chart, 1)
    zeros = find_zeros(chart, xi)
    (origin,) = zeros[np.linalg.norm(zeros, axis=1) < 1e-13]
    found = classify_zero(chart, xi, origin)
    assert (found.verdict, found.kernel_dim) == (VERDICT_ESSENTIAL, 3)
    stopped = classify_zero(chart, xi, np.full(3, 1e-7 / math.sqrt(3)))
    assert (stopped.verdict, stopped.kernel_dim) == (VERDICT_KILLING, 1)


@pytest.mark.parametrize("field", ["special_conformal", "sphere_translation"])
@pytest.mark.parametrize("chart", [FLAT3, SPHERE, HYPER], ids=lambda c: c.name)
def test_polish_extrapolates_at_quadratic_zeros(monkeypatch, chart, field):
    """Near the quadratic origin zero each Newton step is half the last,
    and the doubled step lands on the zero: the solve makes at most four
    evaluations, where running Newton's linear tail took all 51."""
    xi = getattr(models, field)(chart, 1)
    _, rows, solves = _polish_evaluations(monkeypatch, essential)
    zeros = find_zeros(chart, xi)
    assert len(solves) == 1 and 0 < len(rows) <= 4
    (origin,) = zeros[np.linalg.norm(zeros, axis=1) < 1e-13]
    found = classify_zero(chart, xi, origin)
    assert (found.verdict, found.kernel_dim) == (VERDICT_ESSENTIAL, 3)


def test_polish_stops_steps_below_the_box_rounding_unit(monkeypatch):
    """On the x1 = 0 zero sphere of sphere_killing(1, 5) on flat R^4, lanes
    stop once every coordinate of their step is below the rounding unit of
    the box; stopping only where a candidate rounds to its own point let 17
    lanes chase x1 from 1e-17 down to 1e-177 over 44 evaluations."""
    flat4 = models.euclidean(4)
    _, rows, solves = _polish_evaluations(monkeypatch, essential)
    assert len(find_zeros(flat4, models.sphere_killing(flat4, 1, 5))) == 47
    assert len(solves) == 1 and 0 < len(rows) <= 6


def test_find_zeros_evaluation_budget_over_the_catalog(monkeypatch):
    """The 18 chart and field pairs of dimension 3 cost at most 70 solver
    evaluations at grid 12 in all (345 without extrapolation and the
    box-scale stop)."""
    _, rows, solves = _polish_evaluations(monkeypatch, essential)
    for chart, xi in models.standard_pairs(3):
        find_zeros(chart, xi, 12)
    assert len(solves) == 18 and len(rows) <= 70


def test_grid_scan_holds_one_block():
    """The scan of 20^4 grid points keeps the norms and one block of values,
    not every value of the grid (about 45 MB)."""
    flat4 = models.euclidean(4)
    xi = models.sphere_killing(flat4, 1, 5)
    points = essential._grid_points(flat4, 20)
    tracemalloc.start()
    try:
        essential._grid_norms(flat4, xi, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_points_are_the_meshgrid_points(n):
    """The broadcast grid is the row-major meshgrid of the padded axes,
    bit for bit, on a box with a different extent per axis."""
    lower, upper = np.arange(n) - 1.5, np.arange(n) * 0.7 + 1.0
    box = geometry.Chart(dim=n, lower=lower, upper=upper, metric=models.euclidean(n).metric)
    axes = [np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 7)
            for lo, hi in zip(lower, upper)]
    grids = np.meshgrid(*axes, indexing="ij")
    expected = np.stack([a.ravel() for a in grids], axis=-1)
    assert np.array_equal(essential._grid_points(box, 7), expected)


def test_grid_blocks_match_one_evaluation(monkeypatch):
    """13^3 = 2197 points, a block and a part: the blocked norms equal
    those of one evaluation over the whole grid."""
    xi = models.sphere_killing(SPHERE, 1, 4)
    points = essential._grid_points(SPHERE, 13)
    assert len(points) % essential._GRID_BLOCK
    blocked = essential._grid_norms(SPHERE, xi, points)
    monkeypatch.setattr(essential, "_GRID_BLOCK", len(points))
    assert np.array_equal(blocked, essential._grid_norms(SPHERE, xi, points))


def test_classification_carries_the_metric_at_the_zero():
    z = np.array([0.0, 0.0, 0.4])
    cls = classify_zero(SPHERE, models.sphere_killing(SPHERE, 1, 2), z)
    assert np.array_equal(cls.metric, metric_value(SPHERE, z))


CLASSIFY_CASES = models.standard_pairs(3) + [
    (models.euclidean(4), models.sphere_killing(models.euclidean(4), 1, 5)),
]


@pytest.mark.parametrize("chart,xi", CLASSIFY_CASES,
                         ids=lambda case: getattr(case, "name", None))
def test_stacked_classification_matches_per_zero_calls(chart, xi):
    """One call on all zeros equals one call per zero, field by field,
    except the neighbourhood residual: its balls are one stacked draw, so
    each zero's residual is the worst conformal residual over its own rows
    of that draw.  A stacked draw of one centre is the draw of that centre."""
    zeros = find_zeros(chart, xi)
    stacked = classify_zero(chart, xi, zeros, rng=np.random.default_rng(0))
    singles = [classify_zero(chart, xi, z, rng=np.random.default_rng(0)) for z in zeros]
    balls = sample_ball(chart, zeros, *essential._NEIGHBORHOOD, np.random.default_rng(0))
    assert isinstance(stacked, tuple) and len(stacked) == len(zeros)
    for a, b, ball in zip(stacked, singles, balls):
        for name in ZeroClassification.__dataclass_fields__:
            if name != "neighborhood_residual":
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.neighborhood_residual == conformal_residual(chart, xi, ball).max()
    for z in zeros[:2]:
        one = sample_ball(chart, z[None], *essential._NEIGHBORHOOD, np.random.default_rng(0))
        assert np.array_equal(one[0], sample_ball(chart, z, *essential._NEIGHBORHOOD,
                                                  np.random.default_rng(0)))


def test_surface_stack_keeps_surface_verdicts():
    flat2 = models.euclidean(2)
    stack = np.array([[0.0, 0.0], [0.0, 0.0]])
    rotation = classify_zero(flat2, models.rotation(flat2), stack)
    assert [cls.verdict for cls in rotation] == [VERDICT_KILLING] * 2
    assert [cls.kernel_dim for cls in rotation] == [0, 0]
    euler = classify_zero(flat2, models.euler(flat2), stack)
    assert [cls.verdict for cls in euler] == [None, None]


def test_stack_with_a_nonzero_row_names_it():
    stack = np.array([[0.0, 0.0, 0.3], [0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="row 1 has"):
        classify_zero(FLAT3, models.rotation(FLAT3), stack)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stack_with_a_nan_row_names_it():
    """exp(-inf * x3^2) is 0 off the plane x3 = 0 and NaN on it."""
    x3_squared = parse("x3^2", 3)
    xi = FieldSpec(FLAT3, (Var(0), Var(1), Fun("exp", Mul(Const(-math.inf), x3_squared))))
    stack = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="row 1 has .* nan"):
        classify_zero(FLAT3, xi, stack)


def test_empty_stack_classifies_to_nothing():
    assert classify_zero(FLAT3, models.rotation(FLAT3), np.empty((0, 3))) == ()


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


def test_classification_takes_one_frame_svd_per_stack(monkeypatch):
    """The verdicts, the kernels and the ranks of all zeros come from one
    stacked SVD of the skew forms d(xi^flat); nabla xi itself is never
    decomposed."""
    calls = recording_calls(monkeypatch, geometry.frame_svd,
                            lambda out, factor, tensor, kind: (kind, out.rank.tolist()),
                            arguments=True)
    zeros = np.array([[0.0, 0.0, -0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    classes = classify_zero(FLAT3, models.rotation(FLAT3, 1, 2), zeros)
    assert [cls.verdict for cls in classes] == [VERDICT_KILLING] * 3
    assert calls == [("skew_form", [2, 2, 2])]


# -- Moebius ground truth ------------------------------------------------------


def _mobius_conjugates(kind, n, count):
    """``(chart, xi, X, isolated zeros)`` for ``count`` seeded conjugates
    P X P^-1 on each catalog chart of one element of so(n+1, 1): the
    elliptic rotation(1,2), the loxodromic rotation(1,2) + 0.7 euler or the
    parabolic rotation(1,2) + special_conformal(3).

    P = exp(T) exp(S) moves the origin to t, inside the box, and infinity to
    t - s / |s|^2; the isolated zeros are the images of the element's
    isolated fixed points, e_0 (the origin) and e_inf (infinity).
    """
    kinds = ("elliptic", "loxodromic", "parabolic")
    rng = np.random.default_rng([n, kinds.index(kind)])
    B = np.zeros((n, n))
    B[0, 1], B[1, 0] = -1.0, 1.0
    lam = 0.7 if kind == "loxodromic" else 0.0
    b = -np.eye(n)[2] if kind == "parabolic" else np.zeros(n)
    fixed = {"elliptic": [], "loxodromic": [0, n + 1], "parabolic": [0]}[kind]
    X0 = mobius_matrix(np.zeros(n), B, lam, b)
    for name in ("euclidean", "sphere_stereographic", "hyperbolic_ball"):
        chart = models.make_chart(name, n)
        for _ in range(count):
            t = 0.5 * rng.uniform(chart.lower, chart.upper)
            X, P = mobius_conjugate(X0, t, 0.5 * rng.normal(size=n))
            xi, X = mobius_field(chart, *mobius_parts(X))
            yield chart, xi, X, [P[1:-1, k] / P[0, k] for k in fixed]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["elliptic", "loxodromic", "parabolic"])
def test_verdicts_match_the_mobius_oracle(kind, n):
    """Every found zero of two conjugates per catalog chart is a zero of the
    oracle, with its verdict, and a Killing zero has kernel_dim n - 2 (the
    zero set is a round (n-2)-sphere or plane), and every isolated oracle
    zero 0.1 inside the box is found.
    """
    found = 0
    for chart, xi, X, isolated in _mobius_conjugates(kind, n, 2):
        zeros = find_zeros(chart, xi, 12)
        for cls in classify_zero(chart, xi, zeros):
            verdict = mobius_zero_verdict(X, cls.point)
            assert cls.verdict == verdict, (chart.name, cls.point, cls.phi)
            if verdict == VERDICT_KILLING:
                assert cls.kernel_dim == n - 2, (chart.name, cls.point)
        found += len(zeros)
        for x in isolated:
            if chart.contains(x, 0.1):
                assert len(zeros) and np.linalg.norm(zeros - x, axis=1).min() < 1e-6, (chart.name, x)
    assert found


def test_parabolic_conjugate_has_one_zero_near_its_essential_zero():
    """One essential zero of a parabolic conjugate on sphere_stereographic/3
    comes out as one zero within 1.5e-8 of it at grids 8 to 20, and the
    audit passes.  A Gauss-Newton lane that the iteration cap stops 5.3e-6
    from it passes ZERO_TOL; find_zeros drops it beside the converged lane,
    where keeping it gives a second, homothetic_nonkilling zero."""
    n = 3
    B = np.zeros((n, n))
    B[0, 1], B[1, 0] = -1.0, 1.0
    X0 = mobius_matrix(np.zeros(n), B, 0.0, -np.eye(n)[2])
    t = np.array([1.2701583752945718, 0.31064512335097083, 1.0704427824607894])
    s = np.array([-0.5978285460887974, 0.06375890786355681, 0.21791297332820236])
    chart = models.make_chart("sphere_stereographic", n)
    X, _ = mobius_conjugate(X0, t, s)
    xi, _ = mobius_field(chart, *mobius_parts(X))
    for grid in (8, 12, 16, 20):
        zeros = find_zeros(chart, xi, grid)
        distance = np.linalg.norm(zeros - t, axis=1)
        assert np.count_nonzero(distance < essential.ISOLATION_RADIUS) == 1, (grid, zeros)
        assert distance.min() < 1.5e-8, grid
        assert limit_point_audit(classify_zero(chart, xi, zeros)).passed, grid


def test_triple_zero_is_found_once():
    """z^3 d/dz is conformal on the plane.  Gauss-Newton shrinks the error
    by 2/3 per step at its zero, so every lane is still moving when the
    iteration cap stops it; the zero is kept all the same, once."""
    flat2 = models.euclidean(2)
    z_cubed = FieldSpec(flat2, (parse("x1^3 - 3*x1*x2^2", 2), parse("3*x1^2*x2 - x2^3", 2)))
    _, converged = polish_zeros(flat2, z_cubed, np.array([[0.25, 0.25], [-0.25, 0.25]]))
    assert not converged.any()
    for grid in (8, 12, 16, 20):
        zeros = find_zeros(flat2, z_cubed, grid)
        assert zeros.shape == (1, 2), (grid, zeros)
        assert np.abs(zeros).max() < 1e-8, grid


@pytest.mark.parametrize("rank_rel", [1e-10, 1e-4])
def test_essential_verdict_holds_at_any_rank_cut_in_odd_dimension(monkeypatch, rank_rel):
    """A skew form of odd dimension is exactly singular, so in dimension 3
    the kernel of d(xi^flat) at a degenerate essential zero, placed only to
    about 4e-8, does not depend on where the rank cut sits."""
    monkeypatch.setattr(geometry, "_RANK_REL", rank_rel)
    verdicts = []
    for chart, xi, _, _ in _mobius_conjugates("parabolic", 3, 2):
        verdicts += [cls.verdict for cls in classify_zero(chart, xi, find_zeros(chart, xi, 12))]
    assert verdicts == [VERDICT_ESSENTIAL] * 6


def test_non_conformal_field_is_flagged_invalid():
    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
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
    f = parse("0.3*sin(x1)", 3)
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
    # the per-zero loop over the other zeros, as the reference
    for i, entry in enumerate(audit.entries):
        others = np.delete(zeros, i, axis=0)
        assert entry.nearest_distance == np.min(np.linalg.norm(others - zeros[i], axis=1))


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
    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    zeros = np.array([[0.0, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]])
    audit = limit_point_audit([classify_zero(FLAT3, bad, z) for z in zeros], radius=0.05)
    assert not audit.passed
    assert not audit.assertions["non_isolated_zeros_are_killing_inessential"]
