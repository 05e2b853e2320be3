"""Parser, printer, and exact jet propagation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confield import models
from confield.expr import (
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
    Var,
    eval_jet,
    eval_jets,
    eval_values_many,
    parse,
    substitute,
)
from confield.geometry import sample_interior
from helpers import fd_partial, fd_partial2

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


@pytest.mark.parametrize("source", SAMPLE_SOURCES)
def test_print_parse_round_trip(source):
    e = parse(source, 2)
    e2 = parse(str(e), 2)
    for p in POINTS:
        a = eval_jet(e, p, 3)
        b = eval_jet(e2, p, 3)
        assert a.value == b.value
        assert np.array_equal(a.d3, b.d3)


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


def test_third_derivatives_exact_for_polynomials():
    e = parse("x1^3", 2)
    jet = eval_jet(e, [0.5, 0.0], 3)
    assert jet.d3[0, 0, 0] == 6.0
    e = parse("x1^2*x2", 2)
    jet = eval_jet(e, [1.5, -2.0], 3)
    for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        assert jet.d3[idx] == 2.0
    assert jet.d3[0, 0, 0] == 0.0


def test_derivative_tensors_are_symmetric():
    e = parse("sin(x1*x2)*exp(x1 - x2^2)", 2)
    jet = eval_jet(e, [0.3, 0.8], 3)
    assert np.array_equal(jet.d2, jet.d2.T)
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.array_equal(jet.d3, jet.d3.transpose(perm))


def test_shared_subtrees_reuse_results():
    shared = parse("exp(x1*x2)", 2)
    left = Mul(shared, Const(2.0))
    right = Add(shared, Const(1.0))
    jets = eval_jets([left, right, shared], [0.4, 0.2], 2)
    base = jets[2]
    assert jets[0].value == pytest.approx(2.0 * base.value)
    assert jets[1].value == pytest.approx(base.value + 1.0)


@pytest.mark.parametrize(
    "source,point",
    [
        ("log(x1)", [-1.0, 0.0]),
        ("1/x1", [0.0, 0.0]),
        ("sqrt(x1)", [-0.5, 0.0]),
        ("x1^(-1)", [0.0, 0.0]),
        ("log(x1)", [0.0, 0.0]),
        ("x3", [0.0, 0.0]),
    ],
)
def test_domain_errors(source, point):
    """Per point and in a batch (where the bad point is the second of three)."""
    e = parse(source, 3)
    with pytest.raises(EvalDomainError):
        eval_jet(e, point, 1)
    with pytest.raises(EvalDomainError):
        eval_values_many([e], [[0.5, 0.5], point, [2.0, 1.0]])


def test_sqrt_at_zero_needs_no_derivatives():
    e = parse("sqrt(x1)", 2)
    assert eval_jet(e, [0.0, 0.0], 0).value == 0.0
    with pytest.raises(EvalDomainError):
        eval_jet(e, [0.0, 0.0], 1)


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
    e = parse("1/x1", 2)
    with pytest.raises(EvalDomainError):
        eval_values_many([e], np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_jet_constructors():
    c = Jet.constant(2.5, n=3, order=2)
    assert c.value == 2.5 and not c.d1.any() and not c.d2.any()
    x = Jet.coordinate(index=0, value=1.5, n=2, order=1)
    assert x.value == 1.5 and x.d1[0] == 1.0 and x.d1[1] == 0.0


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
def test_random_tree_round_trip_and_symmetry(expr, x, y):
    p = np.array([x, y])
    jet = eval_jet(expr, p, 3)
    assert np.array_equal(jet.d2, jet.d2.T)
    assert np.array_equal(jet.d3, jet.d3.transpose(1, 0, 2))
    assert eval_values_many([expr], [p])[0, 0] == jet.value
    reparsed = parse(str(expr), 2)
    again = eval_jet(reparsed, p, 3)
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
