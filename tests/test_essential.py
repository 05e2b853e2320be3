"""Zero finding, zero classification, and isolation audits."""
import math
import tracemalloc

import numpy as np
import pytest

import confield.essential as essential
import confield.expr as expr
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
    find_zeros,
    limit_point_audit,
    polish_zeros,
)
from confield.expr import Const, Fun, Mul, Var, parse
from confield.geometry import FieldSpec, field_data, metric_value, sample_ball, sample_interior
from confield.zeroset import trace_component
from helpers import (
    classify_at,
    mobius_conjugate,
    mobius_field,
    mobius_matrix,
    mobius_parts,
    mobius_zero_verdict,
    recording_calls,
    xi_norm,
    zero_frame,
)

FLAT3 = models.euclidean(3)
SPHERE = models.sphere_stereographic(3)
HYPER = models.hyperbolic_ball(3)


def _phi(chart, xi, x):
    """phi at the point x, or at each row of an (m, n) stack, from the
    ``field_data`` record that classification reads."""
    phi = field_data(chart, xi, np.atleast_2d(x)).phi
    return phi[0] if np.ndim(x) == 1 else phi


# -- zero finding ---------------------------------------------------------------


def test_translation_has_no_zeros():
    zeros = find_zeros(FLAT3, models.translation(FLAT3, 1))
    assert zeros.shape == (0, 3)


def test_a_field_bounded_away_from_zero_has_no_zeros():
    """|xi| >= 1e-8 for xi = (x1^2 + 1e-8, x2, x3): Gauss-Newton runs the
    grid's best seed to the minimum |xi| = 1e-8 at the origin, and that
    point is no zero."""
    xi = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2 + 1e-8", "x2", "x3")))
    polished, converged, norms = polish_zeros(FLAT3, xi, np.full((1, 3), 0.1), np.eye(3))
    assert converged[0] and norms[0] == pytest.approx(1e-8, rel=1e-3)
    assert find_zeros(FLAT3, xi).shape == (0, 3)


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
    assert xi_norm(SPHERE, xi, zeros).max() < 1e-10


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
        zeros = find_zeros(chart, xi)
        assert len(zeros) and xi_norm(chart, xi, zeros).max() < 1e-12


# -- classification ---------------------------------------------------------------


def test_classify_on_surfaces():
    """On a surface only a simple zero with skew nabla xi, a rotation, is
    Killing-type; a homothetic zero and the double zero of z^2 d/dz, where
    nabla xi vanishes, get no verdict."""
    flat2 = models.euclidean(2)
    cls = classify_at(flat2, models.rotation(flat2), np.zeros(2))
    assert cls.verdicts == (VERDICT_KILLING,)
    assert cls.kernel_dim.tolist() == [0]
    z_squared = FieldSpec(flat2, (parse("x1^2 - x2^2", 2), parse("2*x1*x2", 2)))
    for xi in (models.euler(flat2), z_squared):
        assert classify_at(flat2, xi, np.zeros(2)).verdicts == (None,)


def test_classify_requires_an_actual_zero():
    with pytest.raises(ValueError, match="expects a zero"):
        classify_at(FLAT3, models.rotation(FLAT3), np.array([0.5, 0.5, 0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classify_refuses_a_nan_zero():
    """inf * 0 is NaN: |xi|_g is NaN at the origin, which is no zero.  The
    parser refuses an infinite constant, so the node is built directly."""
    xi = FieldSpec(FLAT3, (Mul(Const(math.inf), Var(0)), Var(1), Var(2)))
    with pytest.raises(ValueError, match="expects a zero"):
        classify_at(FLAT3, xi, np.zeros(3))


def test_find_zeros_refuses_a_nan_residual(monkeypatch):
    """A point whose residual from the solver is NaN is no zero, though
    the point itself is one."""
    xi = models.rotation(FLAT3, 1, 2)
    assert len(find_zeros(FLAT3, xi)) > 0
    polish = essential.polish_zeros

    def nan_norms(chart, xi, points, normals):
        out, converged, norms = polish(chart, xi, points, normals)
        return out, converged, np.full(len(norms), math.nan)

    monkeypatch.setattr(essential, "polish_zeros", nan_norms)
    assert find_zeros(FLAT3, xi).shape == (0, 3)


def test_a_field_with_no_seed_has_no_zeros(monkeypatch):
    """|xi|_g is NaN at every grid point of nan * x1 d1, so no grid point is
    a local minimum: the solver gets no lane, returns three empty arrays,
    and find_zeros no zero."""
    xi = FieldSpec(FLAT3, (Mul(Const(math.nan), Var(0)), Var(1), Var(2)))
    polish, runs = essential.polish_zeros, []

    def recording(chart, xi, points, normals):
        runs.append(polish(chart, xi, points, normals))
        return runs[-1]

    monkeypatch.setattr(essential, "polish_zeros", recording)
    assert find_zeros(FLAT3, xi).shape == (0, 3)
    ((points, converged, norms),) = runs
    assert points.shape == (0, 3) and converged.shape == norms.shape == (0,)


def test_zero_order_ignores_rounding_noise(monkeypatch):
    """Zeros on the x3 axis whose x1 is +-1e-30 instead of 0 come out in
    the same order, by x3, whichever sign each one carries."""
    xi = models.rotation(FLAT3, 1, 2)
    polish = essential.polish_zeros

    def zeros_with_noise(sign):
        def noisy(chart, xi, points, normals):
            out, converged, norms = polish(chart, xi, points, normals)
            out[:, 0] = sign * 1e-30 * (-1.0) ** np.arange(len(out))
            return out, converged, norms

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

    def recording(chart, xi, points, normals):
        out = polish(chart, xi, points, normals)
        runs.append((np.array(points), out))
        return out

    monkeypatch.setattr(essential, "polish_zeros", recording)
    assert len(find_zeros(HYPER, xi)) == 1
    (seeds, (stacked, converged, _)), = runs
    assert len(seeds) > 1 and converged.all()
    for seed, row in zip(seeds, stacked):
        assert np.array_equal(polish(HYPER, xi, seed[None], np.eye(3))[0][0], row)


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

    def recording(chart, xi, points, normals):
        runs.append(polish(chart, xi, points, normals))
        return runs[-1]

    monkeypatch.setattr(essential, "polish_zeros", recording)
    zeros = find_zeros(chart, xi)
    ((polished, converged, residuals),) = runs
    inside = chart._inside(polished, essential._BOUNDARY_MARGIN)
    polished, converged, residuals = polished[inside], converged[inside], residuals[inside]
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
    zero = zero_frame(flat4, xi, find_zeros(flat4, xi)[0])
    _, rows, solves = _polish_evaluations(monkeypatch, zeroset)
    trace_component(flat4, xi, *zero)
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


def test_polish_norms_are_the_norms_at_its_points():
    """The norms the solver returns are |xi|_g at the points it returns,
    bit for bit: the field values its lanes carry are the order-0 values
    there, and a row's bits do not depend on its batch."""
    for chart, xi in [(FLAT3, models.rotation(FLAT3, 1, 2)),
                      (SPHERE, models.sphere_killing(SPHERE, 3, 4)),
                      (HYPER, models.special_conformal(HYPER, 1))]:
        seeds = sample_interior(chart, 24, np.random.default_rng(3))
        points, _, norms = polish_zeros(chart, xi, seeds, np.eye(3))
        assert not np.array_equal(points, seeds)
        assert np.array_equal(norms, xi_norm(chart, xi, points)), chart.name


def test_polish_evaluates_the_metric_once_after_its_loop(monkeypatch):
    """The loop evaluates only the field; the norms take the metric from
    one order-0 metric_jets call at the returned points, after the last
    field evaluation."""
    events = []
    recording_calls(monkeypatch, geometry.field_jets,
                    lambda out, xi, p, order: events.append(("field_jets", order, None)),
                    arguments=True)
    recording_calls(monkeypatch, geometry.metric_jets,
                    lambda out, chart, p, order: events.append(("metric_jets", order, np.array(p))),
                    arguments=True)
    xi = models.special_conformal(HYPER, 1)
    seeds = sample_interior(HYPER, 8, np.random.default_rng(5))
    points, _, _ = polish_zeros(HYPER, xi, seeds, np.eye(3))
    names = [name for name, _, _ in events]
    assert names.count("field_jets") > 1 and names.count("metric_jets") == 1
    assert names[-1] == "metric_jets"
    _, order, at = events[-1]
    assert order == 0 and np.array_equal(at, points)


@pytest.mark.parametrize("caller", ["find_zeros", "trace_component"])
def test_no_field_evaluation_after_the_solver(monkeypatch, caller):
    """find_zeros and trace_component test for a zero on the norms that
    polish_zeros returns: once it has returned, neither evaluates the
    field again, where each evaluated it at the solver's points before."""
    flat4 = models.euclidean(4)
    xi = models.sphere_killing(flat4, 1, 5)
    zero = zero_frame(flat4, xi, find_zeros(flat4, xi)[0])
    tapes = recording_calls(monkeypatch, expr.eval_jets,
                            lambda out, tape, *args, **kwargs: tape, arguments=True)
    tapes_many = recording_calls(monkeypatch, expr.eval_values_many,
                                 lambda out, tape, *args, **kwargs: tape, arguments=True)
    polish, returned = essential.polish_zeros, []

    def polishing(*args):
        out = polish(*args)
        returned.append((len(tapes), len(tapes_many)))
        return out

    module = essential if caller == "find_zeros" else zeroset
    monkeypatch.setattr(module, "polish_zeros", polishing)
    if caller == "find_zeros":
        assert len(find_zeros(flat4, xi)) == 47
    else:
        trace_component(flat4, xi, *zero)
    ((jets, many),) = returned
    assert xi.tape in tapes[:jets]
    assert xi.tape not in tapes[jets:] + tapes_many[many:]


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
    found = classify_at(chart, xi, origin)
    assert (found.verdicts, found.kernel_dim.tolist()) == ((VERDICT_ESSENTIAL,), [3])
    stopped = classify_at(chart, xi, np.full(3, 1e-7 / math.sqrt(3)))
    assert (stopped.verdicts, stopped.kernel_dim.tolist()) == ((VERDICT_KILLING,), [1])


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
    found = classify_at(chart, xi, origin)
    assert (found.verdicts, found.kernel_dim.tolist()) == ((VERDICT_ESSENTIAL,), [3])


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
    """The record a classification reads names its points and carries g
    there; the classification has one row per row of that record."""
    z = np.array([0.0, 0.0, 0.4])
    xi = models.sphere_killing(SPHERE, 1, 2)
    jets = field_data(SPHERE, xi, z[None])
    cls = essential.classify_zero(SPHERE, xi, jets, np.random.default_rng(0))
    assert np.array_equal(jets.points, z[None])
    assert len(cls.verdicts) == len(cls.kernel_dim) == len(cls.frames) == 1
    assert np.array_equal(jets.conn.g, metric_value(SPHERE, z[None]))


CLASSIFY_CASES = models.standard_pairs(3) + [
    (models.euclidean(4), models.sphere_killing(models.euclidean(4), 1, 5)),
]


@pytest.mark.parametrize("chart,xi", CLASSIFY_CASES,
                         ids=lambda case: getattr(case, "name", None))
def test_stacked_classification_matches_per_zero_calls(chart, xi):
    """One call on all zeros equals one call per zero, row by row in every
    field, except the neighbourhood residual: its balls are one stacked
    draw, so each zero's residual is the worst conformal residual over its
    own rows of that draw."""
    zeros = find_zeros(chart, xi)
    stacked = classify_at(chart, xi, zeros, rng=np.random.default_rng(0))
    singles = [classify_at(chart, xi, z, rng=np.random.default_rng(0)) for z in zeros]
    balls = sample_ball(chart, zeros, *essential._NEIGHBORHOOD, np.random.default_rng(0))
    for name in ZeroClassification.__dataclass_fields__:
        assert len(getattr(stacked, name)) == len(zeros), name
    for i, (single, ball) in enumerate(zip(singles, balls)):
        for name in ZeroClassification.__dataclass_fields__:
            if name != "neighborhood_residual":
                assert np.array_equal(getattr(stacked, name)[i], getattr(single, name)[0]), name
        assert stacked.neighborhood_residual[i] == conformal_residual(chart, xi, ball).max()


def test_surface_stack_keeps_surface_verdicts():
    flat2 = models.euclidean(2)
    stack = np.array([[0.0, 0.0], [0.0, 0.0]])
    rotation = classify_at(flat2, models.rotation(flat2), stack)
    assert rotation.verdicts == (VERDICT_KILLING,) * 2
    assert rotation.kernel_dim.tolist() == [0, 0]
    euler = classify_at(flat2, models.euler(flat2), stack)
    assert euler.verdicts == (None, None)


def test_stack_with_a_nonzero_row_names_it():
    stack = np.array([[0.0, 0.0, 0.3], [0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="row 1 has"):
        classify_at(FLAT3, models.rotation(FLAT3), stack)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stack_with_a_nan_row_names_it():
    """exp(-inf * x3^2) is 0 off the plane x3 = 0 and NaN on it."""
    x3_squared = parse("x3^2", 3)
    xi = FieldSpec(FLAT3, (Var(0), Var(1), Fun("exp", Mul(Const(-math.inf), x3_squared))))
    stack = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="row 1 has .* nan"):
        classify_at(FLAT3, xi, stack)


def test_empty_stack_classifies_to_nothing():
    """An empty record classifies to an empty record, each field with the
    shape and kind of a record of m rows at m = 0."""
    xi = models.rotation(FLAT3)
    empty = field_data(FLAT3, xi, np.empty((0, 3)))
    cls = essential.classify_zero(FLAT3, xi, empty, np.random.default_rng(0))
    assert isinstance(cls, ZeroClassification) and cls.verdicts == ()
    assert cls.frames.shape == (0, 3, 3) and cls.kernel_dim.dtype.kind == "i"
    assert cls.image_residual.shape == cls.kernel_dim.shape == cls.neighborhood_residual.shape == (0,)


def test_rotation_zero_is_killing_type():
    xi = models.rotation(FLAT3, 1, 2)
    cls = classify_at(FLAT3, xi, np.zeros(3))
    assert cls.verdicts == (VERDICT_KILLING,)
    assert _phi(FLAT3, xi, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    assert 3 - cls.kernel_dim[0] == 2
    assert cls.image_residual[0] < 1e-12


def test_scaling_zero_is_homothetic_type():
    xi = models.euler(FLAT3)
    cls = classify_at(FLAT3, xi, np.zeros(3))
    assert cls.verdicts == (VERDICT_HOMOTHETIC,)
    assert _phi(FLAT3, xi, np.zeros(3)) == pytest.approx(1.0, rel=1e-12)
    # dxi = 0 for the radial field: gradient of phi (zero) lies in the image
    assert cls.kernel_dim[0] == 3
    assert cls.image_residual[0] < 1e-12


def test_a_small_homothety_is_homothetic():
    """2^-13 times the Euler field: phi = 2^-13, about 1.2e-4, exactly at
    the origin, a homothety however small and no rounding error."""
    xi = FieldSpec(FLAT3, tuple(parse(f"{2.0 ** -13!r}*x{i}", 3) for i in (1, 2, 3)))
    assert _phi(FLAT3, xi, np.zeros(3)) == 2.0 ** -13
    assert classify_at(FLAT3, xi, np.zeros(3)).verdicts == (VERDICT_HOMOTHETIC,)


@pytest.mark.parametrize("chart", [FLAT3, SPHERE, HYPER], ids=lambda c: c.name)
def test_quadratic_generator_zero_is_essential(chart):
    xi = models.special_conformal(chart, 1)
    cls = classify_at(chart, xi, np.zeros(3))
    assert cls.verdicts == (VERDICT_ESSENTIAL,)
    assert _phi(chart, xi, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    assert cls.kernel_dim[0] == 3
    assert cls.image_residual[0] > 0.5
    assert np.linalg.norm(field_data(chart, xi, np.zeros((1, 3))).dphi) > 0.1


def test_classification_takes_one_frame_svd_per_stack(monkeypatch):
    """The verdicts, the kernels and the ranks of all zeros come from one
    stacked SVD of the skew forms d(xi^flat); nabla xi itself is never
    decomposed."""
    calls = recording_calls(monkeypatch, geometry.frame_svd,
                            lambda out, factor, tensor, kind: (kind, out[3].tolist()),
                            arguments=True)
    zeros = np.array([[0.0, 0.0, -0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    classes = classify_at(FLAT3, models.rotation(FLAT3, 1, 2), zeros)
    assert classes.verdicts == (VERDICT_KILLING,) * 3
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
        cls = classify_at(chart, xi, zeros)
        for z, found_verdict, kernel_dim in zip(zeros, cls.verdicts, cls.kernel_dim):
            verdict = mobius_zero_verdict(X, z)
            assert found_verdict == verdict, (chart.name, z)
            if verdict == VERDICT_KILLING:
                assert kernel_dim == n - 2, (chart.name, z)
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
        assert limit_point_audit(zeros, classify_at(chart, xi, zeros).verdicts).passed, grid


def test_triple_zero_is_found_once():
    """z^3 d/dz is conformal on the plane.  Gauss-Newton shrinks the error
    by 2/3 per step at its zero, so every lane is still moving when the
    iteration cap stops it; the zero is kept all the same, once."""
    flat2 = models.euclidean(2)
    z_cubed = FieldSpec(flat2, (parse("x1^3 - 3*x1*x2^2", 2), parse("3*x1^2*x2 - x2^3", 2)))
    _, converged, _ = polish_zeros(flat2, z_cubed, np.array([[0.25, 0.25], [-0.25, 0.25]]),
                                np.eye(2))
    assert not converged.any()
    for grid in (8, 12, 16, 20):
        zeros = find_zeros(flat2, z_cubed, grid)
        assert zeros.shape == (1, 2), (grid, zeros)
        assert np.abs(zeros).max() < 1e-9, grid


def test_dedupe_keeps_converged_zeros_microns_apart(monkeypatch):
    """(x1 - 0.5)(x1 - b) d1 + x2 d2 + x3 d3 with b = 0.5 + 2^-17 has two
    exact zeros 7.6e-6 apart.  Two converged lanes on them are two zeros:
    the dedupe radius is 1e-6, and 1e-3 would merge them.  The grid seeds
    of the real solver land on one of the two only, so the polished lanes
    are given here."""
    b = 0.5 + 2.0 ** -17
    xi = FieldSpec(FLAT3, (parse(f"(x1 - 0.5)*(x1 - {b!r})", 3), parse("x2", 3), parse("x3", 3)))
    both = np.array([[0.5, 0.0, 0.0], [b, 0.0, 0.0]])
    norms = xi_norm(FLAT3, xi, both)
    assert norms.tolist() == [0.0, 0.0]
    monkeypatch.setattr(essential, "polish_zeros",
                        lambda chart, xi, points, normals: (both, np.ones(2, dtype=bool), norms))
    assert np.array_equal(find_zeros(FLAT3, xi), both)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="every grid seed polishes onto the same one of two zeros 7.6e-6 "
                          "apart, so find_zeros merges them (ROADMAP item 14)")
def test_two_zeros_microns_apart_are_both_found():
    """(x1 - 0.5)(x1 - b) d1 + x2 d2 + x3 d3 with b = 0.5 + 2^-17 has two
    exact zeros 7.6e-6 apart, and find_zeros should return both at every
    grid.  It returns one of them at grids 8 to 20."""
    b = 0.5 + 2.0 ** -17
    xi = FieldSpec(FLAT3, (parse(f"(x1 - 0.5)*(x1 - {b!r})", 3), parse("x2", 3), parse("x3", 3)))
    both = np.array([[0.5, 0.0, 0.0], [b, 0.0, 0.0]])
    for grid in (8, 12, 16, 20):
        zeros = find_zeros(FLAT3, xi, grid)
        assert zeros.shape == (2, 3), (grid, zeros)
        assert np.abs(zeros - both).max() < 1e-12, (grid, zeros)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="x1^2 swamps |xi|_g^2, so 288 grid points tie as minima and the "
                          "seed cap keeps them in row-major order (ROADMAP item 23(c))")
def test_both_zeros_are_found_on_a_box_wide_in_one_axis():
    """x1 d1 + (x2^2 - 0.81) d2 + (x3 - 0.5) d3 vanishes at (0, -0.9, 0.5)
    and (0, 0.9, 0.5).  On [-1, 1]^3 find_zeros returns both; with x1 in
    [-1e150, 1e150] it should too, but returns only the first."""
    both = np.array([[0.0, -0.9, 0.5], [0.0, 0.9, 0.5]])
    for wide in (1.0, 1e150):
        box = geometry.Chart(dim=3, lower=np.array([-wide, -1.0, -1.0]),
                             upper=np.array([wide, 1.0, 1.0]), metric=FLAT3.metric)
        xi = FieldSpec(box, tuple(parse(e, 3) for e in ("x1", "x2^2 - 0.81", "x3 - 0.5")))
        zeros = find_zeros(box, xi)
        assert zeros.shape == (2, 3), (wide, zeros)
        assert np.abs(zeros - both).max() < 1e-12, (wide, zeros)


@pytest.mark.parametrize("rank_rel", [1e-10, 1e-4])
def test_essential_verdict_holds_at_any_rank_cut_in_odd_dimension(monkeypatch, rank_rel):
    """A skew form of odd dimension is exactly singular, so in dimension 3
    the kernel of d(xi^flat) at a degenerate essential zero, placed only to
    about 4e-8, does not depend on where the rank cut sits."""
    monkeypatch.setattr(geometry, "_RANK_REL", rank_rel)
    verdicts = []
    for chart, xi, _, _ in _mobius_conjugates("parabolic", 3, 2):
        verdicts += classify_at(chart, xi, find_zeros(chart, xi, 12)).verdicts
    assert verdicts == [VERDICT_ESSENTIAL] * 6


def test_non_conformal_field_is_flagged_invalid():
    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    cls = classify_at(FLAT3, bad, np.zeros(3))
    assert cls.verdicts == (VERDICT_INVALID,)
    assert cls.neighborhood_residual[0] > 1e-3


def test_rank_is_even_and_kernel_orthonormal():
    cases = [
        (FLAT3, models.rotation(FLAT3, 1, 3), np.zeros(3)),
        (SPHERE, models.sphere_killing(SPHERE, 3, 4), np.array([1.0, 0.0, 0.0])),
    ]
    for chart, xi, z in cases:
        cls = classify_at(chart, xi, z)
        dxi = field_data(chart, xi, z[None]).M[0]
        k = cls.kernel_dim[0]
        assert (chart.dim - k) % 2 == 0
        kernel = cls.frames[0, 3 - k:]
        g = metric_value(chart, z[None])[0]
        assert np.abs(cls.frames[0] @ g @ cls.frames[0].T - np.eye(3)).max() < 1e-10
        for row in kernel:
            assert np.abs(dxi.T @ row).max() < 1e-9


def test_circle_zeros_on_round_chart_are_killing_type():
    xi = models.sphere_killing(SPHERE, 3, 4)
    zeros = find_zeros(SPHERE, xi, grid_resolution=15)[:4]
    assert classify_at(SPHERE, xi, zeros).verdicts == (VERDICT_KILLING,) * 4
    assert np.abs(_phi(SPHERE, xi, zeros)).max() < 1e-10


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
        assert classify_at(FLAT3, xi, np.zeros(3)).verdicts == (expected,)
        assert classify_at(rescaled, xi, np.zeros(3)).verdicts == (expected,)
    # the scaling field keeps a homothetic-type zero as well: phi changes to
    # phi + df(xi) which is nonzero at the origin
    eu = models.euler(FLAT3)
    assert classify_at(rescaled, eu, np.zeros(3)).verdicts == (VERDICT_HOMOTHETIC,)


def test_classification_deterministic_with_default_rng():
    xi = models.special_conformal(SPHERE, 1)
    a = classify_at(SPHERE, xi, np.zeros(3))
    b = classify_at(SPHERE, xi, np.zeros(3))
    assert a.verdicts == b.verdicts
    assert np.array_equal(a.neighborhood_residual, b.neighborhood_residual)


# -- isolation audit ---------------------------------------------------------------


def test_audit_of_circle_zeros_passes():
    xi = models.sphere_killing(SPHERE, 3, 4)
    found = find_zeros(SPHERE, xi, grid_resolution=15)
    # densify with analytic points of the zero circle so some pairs fall
    # inside the isolation radius
    thetas = np.array([0.0, 0.03, 0.06])
    cluster = np.stack([np.cos(thetas), np.sin(thetas), np.zeros(3)], axis=1)
    zeros = np.vstack([found, cluster])
    audit = limit_point_audit(zeros, classify_at(SPHERE, xi, zeros).verdicts)
    assert audit.passed
    assert audit.nearest.shape == (len(zeros),)
    assert audit.assertions["non_isolated_zeros_are_killing_inessential"]
    assert audit.assertions["essential_zeros_isolated"]
    assert (audit.nearest < essential.ISOLATION_RADIUS).any()
    assert np.abs(_phi(SPHERE, xi, zeros)).max() < 1e-10
    # the per-zero loop over the other zeros, as the reference
    for i, nearest in enumerate(audit.nearest):
        others = np.delete(zeros, i, axis=0)
        assert nearest == np.min(np.linalg.norm(others - zeros[i], axis=1))


def test_audit_of_isolated_essential_zero_passes():
    xi = models.special_conformal(FLAT3, 1)
    cls = classify_at(FLAT3, xi, np.zeros(3))
    audit = limit_point_audit(np.zeros((1, 3)), cls.verdicts)
    assert audit.passed
    assert audit.nearest.tolist() == [np.inf]
    assert cls.verdicts == (VERDICT_ESSENTIAL,)


def test_audit_nearest_is_the_pairwise_minimum():
    """``nearest[i]`` is the smallest distance from zero i to another zero,
    the minimum of the pairwise distance matrix off its diagonal; an empty
    set of zeros passes, with both assertions."""
    rot = models.rotation(FLAT3, 1, 2)
    heights = np.random.default_rng(5).uniform(-1.0, 1.0, 6)
    zeros = np.stack([np.zeros(6), np.zeros(6), heights], axis=1)
    audit = limit_point_audit(zeros, classify_at(FLAT3, rot, zeros).verdicts)
    pairwise = np.array([[np.linalg.norm(a - b) if i != j else np.inf
                          for j, b in enumerate(zeros)] for i, a in enumerate(zeros)])
    assert np.array_equal(audit.nearest, pairwise.min(axis=1))
    empty = limit_point_audit(np.empty((0, 3)), ())
    assert empty.passed and empty.nearest.shape == (0,)
    assert empty.assertions == {"non_isolated_zeros_are_killing_inessential": True,
                                "essential_zeros_isolated": True}


def test_audit_isolates_at_the_isolation_radius():
    """The essential zero of special_conformal(1) at the origin beside a
    Killing zero of rotation(1, 2) on the x3 axis: 0.02 away neither is
    isolated and the audit fails, as an essential zero must be isolated;
    0.08 away both are, and it passes."""
    essential_zero = classify_at(FLAT3, models.special_conformal(FLAT3, 1), np.zeros(3))
    for gap, isolated in ((0.02, False), (0.08, True)):
        killing_zero = classify_at(FLAT3, models.rotation(FLAT3, 1, 2), np.array([0.0, 0.0, gap]))
        verdicts = essential_zero.verdicts + killing_zero.verdicts
        assert verdicts == (VERDICT_ESSENTIAL, VERDICT_KILLING)
        audit = limit_point_audit(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, gap]]), verdicts)
        assert (audit.nearest >= essential.ISOLATION_RADIUS).tolist() == [isolated, isolated]
        assert audit.assertions["essential_zeros_isolated"] is isolated
        assert audit.passed is isolated


def test_audit_flags_clustered_non_killing_zeros():
    """Negative control: a non-conformal field with a plane of zeros violates
    the rescaling condition, so the audit must fail."""
    bad = FieldSpec(FLAT3, tuple(parse(s, 3) for s in ("x1^2", "0", "0")))
    zeros = np.array([[0.0, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]])
    audit = limit_point_audit(zeros, classify_at(FLAT3, bad, zeros).verdicts)
    assert not audit.passed
    assert not audit.assertions["non_isolated_zeros_are_killing_inessential"]
