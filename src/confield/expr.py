"""Expression trees with exact forward-mode derivatives up to order 3.

Metric components, vector fields and scalar functions are all small
expression trees in the chart coordinates ``x1 .. xn``.  Derivatives are
obtained by propagating truncated Taylor data (a :class:`Jet`) through the
tree, so first, second and third partials are exact up to rounding.
Finite differences appear only in the test suite, as an independent oracle.

One evaluator walks the trees: per point it propagates jets of any order;
over a batch of points (:func:`eval_values_many`) it runs at order 0 with
each coordinate a column array; and the parser folds constant exponents
through it with no coordinates at all.

Grammar accepted by :func:`parse`::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?       # exponent must fold to an integer
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the coordinates ``x1 .. xn`` and the functions
``sin cos exp log sqrt``.  Numbers use decimal or scientific notation
and must be finite.
Implicit multiplication is not supported.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Div", "Pow", "Neg", "Fun",
    "Jet", "ExprSyntaxError", "EvalDomainError",
    "parse", "eval_jet", "eval_jets", "eval_values_many", "substitute",
]

FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt")


class ExprSyntaxError(ValueError):
    """Raised by the parser, with the character position of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ArithmeticError):
    """Raised when evaluation leaves the domain of a subexpression.

    Covers division by zero, log of a non-positive value, sqrt of a
    negative value (or of zero when derivatives are requested) and zero
    raised to a negative power.  The offending subexpression is kept on
    the exception for error reporting.
    """

    def __init__(self, message: str, subexpression: "Expr"):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


class Expr:
    """Base class for expression nodes.  Nodes are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return _to_str(self, 0)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    """Coordinate ``x{index+1}``; the index is zero based internally."""

    index: int


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Fun(Expr):
    name: str
    arg: Expr

    def __post_init__(self):
        if self.name not in FUNCTION_NAMES:
            raise ValueError(f"unknown function '{self.name}'")


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _to_str(node: Expr, context: int) -> str:
    if isinstance(node, Const):
        text = _format_number(node.value)
        prec = _PREC_UNARY if node.value < 0 else _PREC_ATOM
    elif isinstance(node, Var):
        text, prec = f"x{node.index + 1}", _PREC_ATOM
    elif isinstance(node, Add):
        if isinstance(node.right, Neg):
            text = f"{_to_str(node.left, _PREC_ADD)} - {_to_str(node.right.arg, _PREC_ADD + 1)}"
        else:
            text = f"{_to_str(node.left, _PREC_ADD)} + {_to_str(node.right, _PREC_ADD + 1)}"
        prec = _PREC_ADD
    elif isinstance(node, Mul):
        text = f"{_to_str(node.left, _PREC_MUL)}*{_to_str(node.right, _PREC_MUL + 1)}"
        prec = _PREC_MUL
    elif isinstance(node, Div):
        text = f"{_to_str(node.left, _PREC_MUL)}/{_to_str(node.right, _PREC_MUL + 1)}"
        prec = _PREC_MUL
    elif isinstance(node, Neg):
        text = f"-{_to_str(node.arg, _PREC_UNARY)}"
        prec = _PREC_UNARY
    elif isinstance(node, Pow):
        exp = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
        text = f"{_to_str(node.base, _PREC_ATOM)}^{exp}"
        prec = _PREC_POW
    elif isinstance(node, Fun):
        text = f"{node.name}({_to_str(node.arg, 0)})"
        prec = _PREC_ATOM
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    if prec < context:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# jets

class Jet:
    """Value plus symmetric partial derivative tensors.

    The value is a float, or at order 0 an array over a batch of points.

    ``d1`` has shape (n,), ``d2`` shape (n, n) and ``d3`` shape (n, n, n);
    entries above ``order`` are ``None``.  The derivative tensors are exactly
    symmetric by construction, not merely up to rounding.
    """

    __slots__ = ("order", "value", "d1", "d2", "d3")

    def __init__(self, order, value, d1=None, d2=None, d3=None):
        self.order = order
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    @classmethod
    def constant(cls, value: float, n: int, order: int) -> "Jet":
        d1 = np.zeros(n) if order >= 1 else None
        d2 = np.zeros((n, n)) if order >= 2 else None
        d3 = np.zeros((n, n, n)) if order >= 3 else None
        return cls(order, value, d1, d2, d3)

    @classmethod
    def coordinate(cls, index: int, value: float, n: int, order: int) -> "Jet":
        j = cls.constant(value, n, order)
        if order >= 1:
            j.d1[index] = 1.0
        return j


def _sym3(a2: np.ndarray, b1: np.ndarray) -> np.ndarray:
    # sum of a2 x b1 over the three slot assignments, keeps exact symmetry
    t = np.einsum("ij,k->ijk", a2, b1)
    return t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1)


def _jadd(a: Jet, b: Jet) -> Jet:
    order = a.order
    return Jet(
        order,
        a.value + b.value,
        a.d1 + b.d1 if order >= 1 else None,
        a.d2 + b.d2 if order >= 2 else None,
        a.d3 + b.d3 if order >= 3 else None,
    )


def _jneg(a: Jet) -> Jet:
    order = a.order
    return Jet(
        order,
        -a.value,
        -a.d1 if order >= 1 else None,
        -a.d2 if order >= 2 else None,
        -a.d3 if order >= 3 else None,
    )


def _jmul(a: Jet, b: Jet) -> Jet:
    order = a.order
    out = Jet(order, a.value * b.value)
    if order >= 1:
        out.d1 = a.d1 * b.value + b.d1 * a.value
    if order >= 2:
        cross = np.outer(a.d1, b.d1)
        out.d2 = a.d2 * b.value + cross + cross.T + b.d2 * a.value
    if order >= 3:
        out.d3 = (
            a.d3 * b.value
            + _sym3(a.d2, b.d1)
            + _sym3(b.d2, a.d1)
            + b.d3 * a.value
        )
    return out


def _jcompose(w: Jet, f) -> Jet:
    """Jet of F(w) from ``f[k]``, the k-th derivative of F at w.value, for
    k up to ``w.order`` (Faa di Bruno)."""
    order = w.order
    out = Jet(order, f[0])
    if order >= 1:
        out.d1 = f[1] * w.d1
    if order >= 2:
        out.d2 = f[2] * np.outer(w.d1, w.d1) + f[1] * w.d2
    if order >= 3:
        out.d3 = (
            f[3] * np.einsum("i,j,k->ijk", w.d1, w.d1, w.d1)
            + f[2] * _sym3(w.d2, w.d1)
            + f[1] * w.d3
        )
    return out


# The domain checks below take a Python float or an order-0 batch column.
# np.count_nonzero is the cheapest test that accepts both.

def _reciprocal_coeffs(v, order: int, node: Expr):
    if np.count_nonzero(v == 0.0):
        raise EvalDomainError("division by zero", node)
    inv = 1.0 / v
    if order == 0:
        return (inv,)
    return inv, -inv * inv, 2.0 * inv ** 3, -6.0 * inv ** 4


def _pow_coeffs(v, m: int, order: int, node: Expr):
    coeffs = []
    c = 1.0
    for k in range(order + 1):
        e = m - k
        if c == 0.0:
            coeffs.append(0.0)
        elif e < 0 and np.count_nonzero(v == 0.0):
            raise EvalDomainError("zero raised to a negative power", node)
        else:
            coeffs.append(c * v ** e)
        c *= e
    return coeffs


def _fun_coeffs(name: str, v, order: int, node: Expr):
    if name == "sin":
        s, c = np.sin(v), np.cos(v)
        return s, c, -s, -c
    if name == "cos":
        s, c = np.sin(v), np.cos(v)
        return c, -s, -c, s
    if name == "exp":
        e = np.exp(v)
        return e, e, e, e
    if name == "log":
        if np.count_nonzero(v <= 0.0):
            raise EvalDomainError("log of a non-positive value", node)
        if order == 0:
            return (np.log(v),)
        inv = 1.0 / v
        return np.log(v), inv, -inv * inv, 2.0 * inv ** 3
    if name == "sqrt":
        if np.count_nonzero(v < 0.0 if order == 0 else v <= 0.0):
            raise EvalDomainError("sqrt outside its domain", node)
        s = np.sqrt(v)
        if order == 0:
            return (s,)
        return s, 0.5 / s, -0.25 / s ** 3, 0.375 / s ** 5
    raise ValueError(f"unknown function '{name}'")  # pragma: no cover


def _jet_of(node: Expr, point: list, order: int, memo: dict) -> Jet:
    """The one tree evaluator.

    ``point`` lists the n coordinates: Python floats for one point, or
    equal-length arrays for a batch of points (order 0 only).  ``memo``
    maps node identity to its jet, so shared subtrees are evaluated once.
    """
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    n = len(point)
    if isinstance(node, Const):
        j = Jet.constant(node.value, n, order)
    elif isinstance(node, Var):
        if node.index >= n:
            raise EvalDomainError(
                f"variable x{node.index + 1} exceeds point dimension {n}", node
            )
        j = Jet.coordinate(node.index, point[node.index], n, order)
    elif isinstance(node, Add):
        j = _jadd(_jet_of(node.left, point, order, memo),
                  _jet_of(node.right, point, order, memo))
    elif isinstance(node, Mul):
        j = _jmul(_jet_of(node.left, point, order, memo),
                  _jet_of(node.right, point, order, memo))
    elif isinstance(node, Div):
        num = _jet_of(node.left, point, order, memo)
        den = _jet_of(node.right, point, order, memo)
        j = _jmul(num, _jcompose(den, _reciprocal_coeffs(den.value, order, node)))
    elif isinstance(node, Neg):
        j = _jneg(_jet_of(node.arg, point, order, memo))
    elif isinstance(node, Pow):
        base = _jet_of(node.base, point, order, memo)
        j = _jcompose(base, _pow_coeffs(base.value, node.exponent, order, node))
    elif isinstance(node, Fun):
        arg = _jet_of(node.arg, point, order, memo)
        j = _jcompose(arg, _fun_coeffs(node.name, arg.value, order, node))
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    memo[id(node)] = j
    return j


def eval_jet(expr: Expr, point, order: int = 0) -> Jet:
    """Evaluate ``expr`` at ``point`` with derivatives up to ``order`` (0..3)."""
    if not 0 <= order <= 3:
        raise ValueError("order must be between 0 and 3")
    p = np.asarray(point, dtype=float)
    if p.ndim != 1:
        raise ValueError("point must be a 1-d coordinate array")
    return _jet_of(expr, p.tolist(), order, {})


def eval_jets(exprs, point, order: int = 0) -> list[Jet]:
    """Evaluate several expressions at one point, sharing subtree work.

    Subtrees shared between the given trees (same object identity) are
    evaluated once, which matters for metrics whose entries reuse a common
    conformal factor.
    """
    if not 0 <= order <= 3:
        raise ValueError("order must be between 0 and 3")
    p = np.asarray(point, dtype=float).tolist()
    memo: dict = {}
    return [_jet_of(e, p, order, memo) for e in exprs]


def eval_values_many(exprs, points) -> np.ndarray:
    """Stacked order-0 evaluation of several expressions, (k, m) result.

    The jet evaluator runs once over the m points, with each coordinate a
    column of ``points``; a tree without coordinates stays a scalar until
    the final stacking.  One memo spans all trees, so expression objects
    shared between them (metric factors, repeated field components) are
    evaluated once.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (m, n) array")
    memo: dict = {}
    columns = list(pts.T)
    values = [_jet_of(e, columns, 0, memo).value for e in exprs]
    out = np.empty((len(values), pts.shape[0]))
    for row, value in zip(out, values):
        row[...] = value  # broadcasts a scalar constant to the m points
    return out


def substitute(expr: Expr, replacements: dict[int, Expr]) -> Expr:
    """Replace coordinates by expressions (indices are zero based).

    Unreplaced subtrees are returned as the same objects, so sharing is
    preserved for the jet memoization.
    """
    if isinstance(expr, Var):
        return replacements.get(expr.index, expr)
    if isinstance(expr, (Const,)):
        return expr
    if isinstance(expr, Add):
        left, right = substitute(expr.left, replacements), substitute(expr.right, replacements)
        return expr if left is expr.left and right is expr.right else Add(left, right)
    if isinstance(expr, Mul):
        left, right = substitute(expr.left, replacements), substitute(expr.right, replacements)
        return expr if left is expr.left and right is expr.right else Mul(left, right)
    if isinstance(expr, Div):
        left, right = substitute(expr.left, replacements), substitute(expr.right, replacements)
        return expr if left is expr.left and right is expr.right else Div(left, right)
    if isinstance(expr, Neg):
        arg = substitute(expr.arg, replacements)
        return expr if arg is expr.arg else Neg(arg)
    if isinstance(expr, Pow):
        base = substitute(expr.base, replacements)
        return expr if base is expr.base else Pow(base, expr.exponent)
    if isinstance(expr, Fun):
        arg = substitute(expr.arg, replacements)
        return expr if arg is expr.arg else Fun(expr.name, arg)
    raise TypeError(f"not an Expr node: {expr!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^])"
)
_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character '{src[pos]}'", pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        else:
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != text:
            raise ExprSyntaxError(f"expected '{text}'", pos)
        return self.take()

    def parse(self) -> Expr:
        node = self.parse_expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input '{value}'", pos)
        return node

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.parse_term()
                node = Add(node, rhs if value == "+" else Neg(rhs))
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.parse_unary()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            exp_pos = self.peek()[2]
            exponent = self.parse_unary()
            try:  # a coordinate raises here, as does a value outside a domain
                with np.errstate(all="ignore"):
                    folded = _jet_of(exponent, [], 0, {}).value
            except ArithmeticError:
                folded = math.nan
            if not math.isfinite(folded):
                raise ExprSyntaxError("exponent must be a constant integer", exp_pos)
            rounded = round(folded)
            if abs(folded - rounded) > 1e-12 or abs(rounded) > 1000:
                raise ExprSyntaxError("exponent must be a (small) integer", exp_pos)
            return Pow(base, int(rounded))
        return base

    def parse_atom(self) -> Expr:
        kind, value, pos = self.take()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ExprSyntaxError(f"number '{value}' is out of range", pos)
            return Const(number)
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTION_NAMES:
                    raise ExprSyntaxError(f"unknown function '{value}'", pos)
                self.take()
                arg = self.parse_expr()
                self.expect_op(")")
                return Fun(value, arg)
            m = _VAR_RE.match(value)
            if m is None:
                raise ExprSyntaxError(f"unknown identifier '{value}'", pos)
            index = int(m.group(1)) - 1
            if index >= self.dim:
                raise ExprSyntaxError(
                    f"variable {value} exceeds chart dimension {self.dim}", pos
                )
            return Var(index)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token '{value}'" if value else "unexpected end of input", pos)


def parse(source: str, dim: int) -> Expr:
    """Parse an expression in coordinates ``x1 .. x{dim}``.

    Raises :class:`ExprSyntaxError` with a character position on malformed
    input, unknown identifiers, or coordinate indices beyond ``dim``.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return _Parser(source, dim).parse()
