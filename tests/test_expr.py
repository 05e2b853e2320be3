"""Parser, printer, and exact jet propagation."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from confield import models
from confield.expr import (
    FUNCTION_NAMES,
    Add,
    Const,
    Div,
    EvalDomainError,
    Expr,
    ExprSyntaxError,
    Fun,
    Jet,
    Mul,
    Neg,
    Pow,
    Tape,
    Var,
    eval_jet,
    eval_jets,
    eval_values_many,
    parse,
)
from confield.geometry import sample_interior
from helpers import fd_partial, fd_partial2, reference_jets, substitute

SAMPLE_SOURCES = [
    "x1*x2 - x2^3/(1 + x1^2)",
    "sin(x1)*exp(x2) - sqrt(1 + x1^2)",
    "cos(x1*x2) + x1^(-2)",
    "log(2 + x2) / (3 - x1)",
    "-(x1 - x2)^3 + 0.5",
    "1e-3 + 2.5E+2*x1",
]

POINTS = [np.array([0.7, -0.4]), np.array([1.3, 0.9]), np.array([-0.2, 0.35])]


def test_parse_evaluates_known_values():
    e = parse("x1^2 + 3*x2", 2)
    assert eval_jet(e, [2.0, 1.0]).value == 7.0
    assert eval_jet(parse("-x1^2", 2), [3.0, 0.0]).value == -9.0
    assert eval_jet(parse("2^3", 1), [0.0]).value == 8.0
    assert eval_jet(parse("1e-3 + 2.5E+2", 1), [0.0]).value == 250.001


def test_exponent_must_const_fold_to_integer():
    assert isinstance(parse("x1^(1+1)", 2), Pow)
    assert parse("x1^(4*exp(0)/sqrt(4))", 2) == Pow(Var(0), 2)
    for source in ["x1^2.5", "x1^x2", "x1^sin(x2)", "x1^(0^(-1))", "x1^(1/0)",
                   "x1^log(0)", "x1^sqrt(-1)", "x1^exp(1000)", "x1^(10^400)",
                   "x1^(1e300*1e300)", "x1^(0*exp(1000))"]:
        with pytest.raises(ExprSyntaxError, match="exponent"):
            parse(source, 2)


@pytest.mark.parametrize(
    "source",
    ["sin x1", "2 x1", "tan(x1)", "x0", "x3", "(x1", "x1 +", "", "x1 @ x2",
     "1e400*x1"],
)
def test_syntax_errors_carry_positions(source):
    with pytest.raises(ExprSyntaxError) as info:
        parse(source, 2)
    assert info.value.position >= 0


def test_unknown_variable_mentions_dimension():
    with pytest.raises(ExprSyntaxError, match="dimension"):
        parse("x5", 3)


@pytest.mark.parametrize("source", ["(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"])
def test_nesting_beyond_the_recursive_descent_is_a_syntax_error(source):
    with pytest.raises(ExprSyntaxError, match="nested too deeply") as info:
        parse(source, 2)
    assert info.value.position == 0


@pytest.mark.parametrize("source", SAMPLE_SOURCES)
def test_print_parse_round_trip(source):
    e = parse(source, 2)
    e2 = parse(str(e), 2)
    for p in POINTS:
        a = eval_jet(e, p, 2)
        b = eval_jet(e2, p, 2)
        assert a.value == b.value
        assert np.array_equal(a.d2, b.d2)


@pytest.mark.parametrize("source", SAMPLE_SOURCES)
@pytest.mark.parametrize("point", POINTS)
def test_first_and_second_jets_match_finite_differences(source, point):
    e = parse(source, 2)
    jet = eval_jet(e, point, 2)

    def f(x):
        return eval_jet(e, x).value

    scale = 1.0 + abs(jet.value)
    for i in range(2):
        assert jet.d1[i] == pytest.approx(fd_partial(f, point, i), rel=1e-7, abs=1e-7 * scale)
        for j in range(2):
            assert jet.d2[i, j] == pytest.approx(
                fd_partial2(f, point, i, j), rel=1e-5, abs=1e-5 * scale
            )


def test_derivative_tensors_are_symmetric():
    e = parse("sin(x1*x2)*exp(x1 - x2^2)", 2)
    jet = eval_jet(e, [0.3, 0.8], 2)
    assert np.array_equal(jet.d2, jet.d2.T)


def test_shared_subtrees_reuse_results():
    shared = parse("exp(x1*x2)", 2)
    left = Mul(shared, Const(2.0))
    right = Add(shared, Const(1.0))
    jets = eval_jets([left, right, shared], [0.4, 0.2], 2)
    base = jets[2]
    assert jets[0].value == pytest.approx(2.0 * base.value)
    assert jets[1].value == pytest.approx(base.value + 1.0)


# 1/x^3 overflows a float at x = TINY.  It is the order-0 coefficient of
# x^(-3) and the order-2 coefficient of 1/x (2/x^3), so those are the orders
# that raise there.  In log x it is the order-3 coefficient, past the jets'
# order 2, so the jets of log x stay finite at TINY.
TINY = 1e-110
TINY_ORDER = {"x1^(-3)": 0, "1/x1": 2, "log(x1)": 3}
# Products that leave the float range at other points: 1/x^2 at 1e-160 is
# the order-1 coefficient of 1/x and the order-2 one of log x, and x*x
# overflows at 1e200.  One point evaluates such a product as a batch does.
OVERFLOW_ORDER = {("log(x1)", 1e-160): 2, ("1/x1", 1e-160): 1, ("x1*x1", 1e200): 0}
RAISE_CASES = [pytest.param(source, TINY, TINY_ORDER[source], id=source)
               for source in sorted(TINY_ORDER)] + [
    pytest.param(source, x1, first, id=f"{source}@{x1:g}")
    for (source, x1), first in OVERFLOW_ORDER.items()]


@pytest.mark.parametrize(
    "source,point",
    [
        ("log(x1)", [-1.0, 0.0]),
        ("1/x1", [0.0, 0.0]),
        ("sqrt(x1)", [-0.5, 0.0]),
        ("x1^(-1)", [0.0, 0.0]),
        ("log(x1)", [0.0, 0.0]),
        ("x3", [0.0, 0.0]),
        ("1/x1", [TINY, 0.0]),
        ("x1^(-3)", [TINY, 0.0]),
        ("log(x1)", [TINY, 0.0]),
    ],
)
def test_domain_errors(source, point):
    """Per point and in a batch (where the bad point is the second of three).

    At x1 = TINY the point is in the domain, but a Taylor coefficient is
    beyond the float range: the jet raises from the order of that
    coefficient on, and is finite below it.
    """
    e = parse(source, 3)
    if point[0] == TINY:
        for order in range(3):
            if order >= TINY_ORDER[source]:
                with pytest.raises(EvalDomainError) as err:
                    eval_jet(e, point, order)
                assert err.value.subexpression is e
                continue
            jet = eval_jet(e, point, order)
            for part in (jet.value, jet.d1, jet.d2)[: order + 1]:
                assert np.all(np.isfinite(part))
        return
    with pytest.raises(EvalDomainError) as err:
        eval_jet(e, point, 1)
    assert err.value.subexpression is e
    with pytest.raises(EvalDomainError):
        eval_values_many([e], [[0.5, 0.5], point, [2.0, 1.0]])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("source,x1,first", RAISE_CASES)
def test_batched_jets_raise_where_the_per_point_loop_raises(source, x1, first, order):
    """A batch with x1 as its second point raises EvalDomainError at exactly
    the orders (``first`` on) where the per-point loop it replaces raises,
    and otherwise gives the per-point jets bit for bit; a RuntimeWarning
    with an inf or a NaN in place of the error fails under the suite's
    warning filter.
    Past order 2 both refuse the order before they evaluate anything."""
    e = parse(source, 3)
    points = np.array([[0.5, 0.5, 0.0], [x1, 0.0, 0.0], [2.0, 1.0, 0.0]])
    if order > 2:
        with pytest.raises(ValueError, match="order"):
            eval_jet(e, points[1], order)
        with pytest.raises(ValueError, match="order"):
            eval_jets([e], points, order)
        return
    if order >= first:
        with pytest.raises(EvalDomainError):
            eval_jet(e, points[1], order)
        with pytest.raises(EvalDomainError) as err:
            eval_jets([e], points, order)
        assert err.value.subexpression is e
        return
    (batch,) = eval_jets([e], points, order)
    for k, p in enumerate(points):
        jet = eval_jet(e, p, order)
        for part in ("value", "d1", "d2")[: order + 1]:
            assert _same_bits(np.asarray(getattr(batch, part))[..., k], getattr(jet, part))


def test_sqrt_at_zero_needs_no_derivatives():
    e = parse("sqrt(x1)", 2)
    assert eval_jet(e, [0.0, 0.0], 0).value == 0.0
    with pytest.raises(EvalDomainError):
        eval_jet(e, [0.0, 0.0], 1)
    # Near zero an order-1 jet forms no higher coefficient, so no power of
    # the root underflows to a division by zero (a RuntimeWarning fails).
    near = eval_jet(e, [1e-130, 0.0], 1)
    assert near.value == pytest.approx(1e-65)
    assert near.d1[0] == pytest.approx(0.5e65)


@pytest.mark.parametrize("x1", [1e-220, 1e-212])
def test_sqrt_second_derivative_beyond_the_float_range_is_a_domain_error(x1):
    """At 1e-220 the cube of the root underflows to 0, at 1e-212 to a
    subnormal whose reciprocal overflows: per point and in a batch the
    order-2 jet raises EvalDomainError, not a RuntimeWarning, while the
    order-1 jet is finite."""
    e = parse("sqrt(x1)", 2)
    with pytest.raises(EvalDomainError, match="sqrt outside its domain") as err:
        eval_jet(e, [x1, 0.0], 2)
    assert err.value.subexpression is e
    with pytest.raises(EvalDomainError, match="sqrt outside its domain"):
        eval_jets([e], np.array([[0.5, 0.5], [x1, 0.0], [2.0, 1.0]]), 2)
    assert np.isfinite(eval_jet(e, [x1, 0.0], 1).d1).all()


def test_zero_to_zeroth_power_is_one():
    assert eval_jet(parse("x1^0", 1), [0.0]).value == 1.0


def test_substitute_replaces_and_preserves_identity():
    e = parse("x1 + x2^2", 2)
    r = substitute(e, {1: parse("x1^2", 2)})
    assert eval_jet(r, [3.0, 100.0]).value == 3.0 + 81.0
    same = substitute(e, {5: Const(1.0)})
    assert same is e


def test_eval_values_matches_eval_jet():
    """One evaluator: a batch value and a per-point value have equal bits,
    for every catalog metric and field tree and for Div, a negative Pow,
    sqrt/log/exp and constant entries."""
    rng = np.random.default_rng(3)
    cases = [(chart.metric_entries() + field.components, sample_interior(chart, 7, rng))
             for chart, field in models.standard_pairs(3)]
    extra = tuple(parse(s, 3) for s in [
        "x1/(2 - x2) + x3", "(1 + x1^2)^(-2)", "sqrt(2 + x1)*log(3 + x2)",
        "exp(-x3^2)/x1", "sin(x1) + x2^2", "2.5", "-(4 - 1)",
    ])
    cases.append((extra, rng.uniform(0.1, 1.0, size=(7, 3))))
    for trees, pts in cases:
        vals = eval_values_many(trees, pts)
        assert vals.shape == (len(trees), len(pts))
        for k, p in enumerate(pts):
            jets = eval_jets(trees, p)
            for i, e in enumerate(trees):
                assert vals[i, k] == jets[i].value == eval_jet(e, p).value


def test_eval_values_many_shares_work_and_stacks():
    shared = parse("exp(x1)", 2)
    e1 = Mul(shared, Const(3.0))
    e2 = Add(shared, shared)
    pts = np.array([[0.0, 0.0], [1.0, 0.5]])
    out = eval_values_many([e1, e2], pts)
    assert out.shape == (2, 2)
    assert out[0, 1] == pytest.approx(3.0 * math.e)
    assert out[1, 1] == pytest.approx(2.0 * math.e)


def test_eval_values_domain_error_on_batch():
    """A division by zero and an overflow raise, as in eval_jets: no inf."""
    for source, x1 in (("1/x1", 0.0), ("x1^300", 1e3)):
        e = parse(source, 2)
        with pytest.raises(EvalDomainError) as err:
            eval_values_many([e], np.array([[1.0, 0.0], [x1, 0.0]]))
        assert err.value.subexpression is e


def test_jet_constructors():
    """Leaf jets come from parts built once per tape and made read-only."""
    c = eval_jet(Const(2.5), np.zeros(3), 2)
    assert c.value == 2.5 and not c.d1.any() and not c.d2.any()
    x = eval_jet(Var(0), [1.5, 0.0], 1)
    assert x.value == 1.5 and x.d1[0] == 1.0 and x.d1[1] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        x.d1[1] = 2.0


# -- the tape against the recursive reference evaluator ---------------------


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_tape_matches_reference(exprs, point, order):
    tape_jets = eval_jets(Tape(exprs), point, order)
    ref_jets = reference_jets(exprs, point, order)
    assert len(tape_jets) == len(ref_jets) == len(exprs)
    for tj, rj in zip(tape_jets, ref_jets):
        for part in ("value", "d1", "d2")[: order + 1]:
            assert _same_bits(getattr(tj, part), getattr(rj, part)), part


@pytest.mark.parametrize("dim", [3, 4])
def test_tape_jets_are_the_reference_jets_bitwise(dim):
    """Every catalog chart and field, at the origin (signed zeros) and at
    seeded points, one point at a time and as one batch, orders 0-2."""
    rng = np.random.default_rng(dim)
    for chart, xi in models.standard_pairs(dim):
        points = np.vstack([np.zeros(dim), sample_interior(chart, 4, rng)])
        for exprs, tape in ((chart.metric_entries(), chart.tape), (xi.components, xi.tape)):
            for order in range(3):
                _assert_tape_matches_reference(exprs, points, order)
                for p in points:
                    _assert_tape_matches_reference(exprs, p, order)
                    for tj, ej in zip(eval_jets(tape, p, order), eval_jets(exprs, p, order)):
                        assert _same_bits(tj.value, ej.value)


def test_tape_shares_structurally_equal_subtrees():
    a = parse("sin(x1*x2)/(2 + x1^2)", 2)
    b = parse("sin(x1*x2)/(2 + x1^2)", 2)
    assert a is not b and a == b
    trees = [Mul(a, b), Add(Div(a, b), Neg(b)), a]
    tape = Tape(trees)
    assert len(tape.program) == len(Tape([a]).program) + 4
    assert tape.outputs[2] == tape.program[tape.outputs[0]][1][0]
    for order in range(3):
        _assert_tape_matches_reference(trees, [0.3, -0.7], order)
    _assert_tape_matches_reference(trees, np.array([[0.3, -0.7], [1.1, 0.4]]), 2)


def test_tape_keeps_signed_zero_constants_apart():
    """-0.0 == 0.0, but the two constants give different sums: keyed by
    value alone they would share a slot and one of the trees would change
    sign."""
    trees = [Const(0.0), Const(-0.0),
             Add(Const(-0.0), Neg(Const(0.0))), Add(Const(-0.0), Mul(Var(0), Const(0.0)))]
    tape = Tape(trees)
    assert tape.outputs[0] != tape.outputs[1]
    for point in ([-1.0, 2.0], np.array([[-1.0, 2.0], [3.0, 0.5]])):
        for order in range(3):
            _assert_tape_matches_reference(trees, point, order)
    values = [j.value for j in eval_jets(tape, [-1.0, 2.0])]
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0, -1.0, -1.0]


# -- hypothesis: random trees stay consistent -------------------------------


def _safe_exprs(depth):
    """Trees whose values stay bounded on [-1, 1]^2 (no Div/Pow/log)."""
    leaf = st.one_of(
        st.builds(Const, st.floats(-2, 2, allow_nan=False, allow_infinity=False)),
        st.builds(Var, st.integers(0, 1)),
    )
    if depth == 0:
        return leaf
    sub = _safe_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Add, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Neg, sub),
        st.builds(Fun, st.sampled_from(["sin", "cos"]), sub),
    )


@settings(max_examples=60, deadline=None)
@given(expr=_safe_exprs(3), x=st.floats(-1, 1), y=st.floats(-1, 1))
# Found when sums of products were added in slot order, which left the
# derivative tensors asymmetric by rounding (d2[0, 1] != d2[1, 0] by 3.1e-61
# in the first)
@example(expr=Mul(Mul(Var(0), Var(1)), Mul(Var(0), Mul(Const(1.625), Var(1)))),
         x=0.20519309198420133, y=1.0650485235460092e-45)
@example(expr=Fun("cos", Mul(Var(0), Mul(Var(0), Var(1)))), x=1.0, y=1e-08)
def test_random_tree_round_trip_and_symmetry(expr, x, y):
    p = np.array([x, y])
    jet = eval_jet(expr, p, 2)
    assert np.array_equal(jet.d2, jet.d2.T)
    assert eval_values_many([expr], [p])[0, 0] == jet.value
    reparsed = parse(str(expr), 2)
    again = eval_jet(reparsed, p, 2)
    assert again.value == pytest.approx(jet.value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(again.d1, jet.d1, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(expr=_safe_exprs(3), x=st.floats(-1, 1), y=st.floats(-1, 1))
def test_random_tree_first_derivative_matches_fd(expr, x, y):
    p = np.array([x, y])
    jet = eval_jet(expr, p, 1)

    def f(q):
        return eval_jet(expr, q).value

    scale = 1.0 + abs(jet.value) + float(np.abs(jet.d1).max())
    for i in range(2):
        assert jet.d1[i] == pytest.approx(fd_partial(f, p, i), abs=1e-6 * scale)


def _any_exprs(depth):
    """Trees over x1..x3 and constants with every node kind, so values
    leave the domain and the float range as often as not."""
    leaf = st.one_of(
        st.builds(Const, st.floats(-3, 3, allow_nan=False, allow_infinity=False)),
        st.builds(Var, st.integers(0, 2)),
    )
    if depth == 0:
        return leaf
    sub = _any_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Add, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Pow, sub, st.integers(-3, 5)),
        st.builds(Neg, sub),
        st.builds(Fun, st.sampled_from(FUNCTION_NAMES), sub),
    )


# Coordinates from +-1e-300 to +-1e300, spread evenly over the exponents,
# and zero.
_WIDE = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-300, 299)),
)
_MODERATE = st.lists(st.floats(-4, 4), min_size=3, max_size=3)


def _outcome(call):
    """The result of ``call``, or the error it raised.  A RuntimeWarning is
    an error under the suite's filter: constant subtrees are Python floats,
    whose overflow numpy's errstate never sees."""
    try:
        return call()
    except (EvalDomainError, RuntimeWarning) as err:
        return err


def _assert_same_outcome(one, many, row):
    """``one``, the parts at a point, against ``many``, the parts of a batch
    whose ``row`` holds that point: equal bits, or equal errors."""
    if isinstance(one, Exception):
        assert type(many) is type(one) and str(many) == str(one), (one, many)
        return
    assert not isinstance(many, Exception), many
    for a, b in zip(one, many):
        a, b = np.asarray(a), np.asarray(b)
        assert _same_bits(a, b if b.ndim == a.ndim else row(b))


@settings(max_examples=300, deadline=None)
@given(expr=_any_exprs(3), point=st.lists(_WIDE, min_size=3, max_size=3),
       fillers=st.lists(_MODERATE, min_size=2, max_size=2), k=st.integers(0, 2),
       order=st.integers(0, 2))
def test_a_point_is_its_row_of_a_batch_bit_for_bit(expr, point, fillers, k, order):
    """eval_jet at a point gives the bits of row k of a 3-row eval_jets
    batch whose other rows are in the domain, or both raise the same error
    naming the same subexpression; eval_values_many agrees the same way."""
    for filler in fillers:
        assume(not isinstance(_outcome(lambda: eval_jet(expr, filler, order)), Exception))
    batch = np.array(fillers[:k] + [point] + fillers[k:])

    def row(a):  # a part of length 1 on the batch axis is the same at every row
        return a[..., 0 if a.shape[-1] == 1 else k]

    def parts(jet):
        return (jet.value, jet.d1, jet.d2)[: order + 1]

    _assert_same_outcome(_outcome(lambda: parts(eval_jet(expr, point, order))),
                         _outcome(lambda: parts(eval_jets([expr], batch, order)[0])), row)
    _assert_same_outcome(_outcome(lambda: [eval_jet(expr, point, 0).value]),
                         _outcome(lambda: eval_values_many([expr], batch)), row)
