"""Expression trees with exact forward-mode derivatives up to order 2.

Metric components, vector fields and scalar functions are all small
expression trees in the chart coordinates ``x1 .. xn``.  Derivatives are
obtained by propagating truncated Taylor data (a :class:`Jet`) through the
tree, so first and second partials are exact up to rounding: every
analysis reads at most the 2-jets of the metric and the field at a point.
Finite differences appear only in the test suite, as an independent oracle.

Trees are compiled into a :class:`Tape`, a post-order program in which
structurally equal subtrees share one slot.  One evaluator runs the tape
in a single loop, over a batch of m points: each coordinate is a column
array, and every jet part carries a trailing batch axis, so one pass gives
the jets of all m points (the vector mode of forward differentiation).
:func:`eval_jets` does this at orders 0..2 and :func:`eval_values_many` at
order 0, both under one overflow contract.  A single point is a batch of
one whose batch axis is dropped on return, so it has that row's bits.
Charts and fields compile their trees once, when they are built, and pass
the tape to these functions.  The parser folds constant exponents through
the same evaluator with no coordinates at all.

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
    "Tape", "parse", "eval_jet", "eval_jets", "eval_values_many",
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
    negative value (or of zero when derivatives are requested), zero
    raised to a negative power, and a value or derivative beyond the
    floating-point range, at any point of a batch.  The offending
    subexpression is kept on the exception for error reporting.
    """

    def __init__(self, message: str, subexpression: "Expr"):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


class Expr:
    """Base class for expression nodes.  Nodes are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return _to_str(self)


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


def _to_str(root: Expr) -> str:
    """Text of ``root``, written left to right from an explicit stack of
    literal text and (node, context precedence) pairs, so a tree of any
    depth prints."""
    out: list[str] = []
    todo: list = [(root, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, context = item
        if isinstance(node, Const):
            pieces = [_format_number(node.value)]
            prec = _PREC_UNARY if node.value < 0 else _PREC_ATOM
        elif isinstance(node, Var):
            pieces, prec = [f"x{node.index + 1}"], _PREC_ATOM
        elif isinstance(node, Add):
            if isinstance(node.right, Neg):
                pieces = [(node.left, _PREC_ADD), " - ", (node.right.arg, _PREC_ADD + 1)]
            else:
                pieces = [(node.left, _PREC_ADD), " + ", (node.right, _PREC_ADD + 1)]
            prec = _PREC_ADD
        elif isinstance(node, Mul):
            pieces = [(node.left, _PREC_MUL), "*", (node.right, _PREC_MUL + 1)]
            prec = _PREC_MUL
        elif isinstance(node, Div):
            pieces = [(node.left, _PREC_MUL), "/", (node.right, _PREC_MUL + 1)]
            prec = _PREC_MUL
        elif isinstance(node, Neg):
            pieces, prec = ["-", (node.arg, _PREC_UNARY)], _PREC_UNARY
        elif isinstance(node, Pow):
            exp = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
            pieces, prec = [(node.base, _PREC_ATOM), f"^{exp}"], _PREC_POW
        elif isinstance(node, Fun):
            pieces, prec = [f"{node.name}(", (node.arg, 0), ")"], _PREC_ATOM
        else:  # pragma: no cover
            raise TypeError(f"not an Expr node: {node!r}")
        if prec < context:
            pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(out)


# ---------------------------------------------------------------------------
# jets

class Jet:
    """Value plus first and second partial derivatives, up to ``order``.

    Over a batch of m points every part has a trailing batch axis: the
    value has shape (m,), ``d1`` (n, m) and ``d2`` (n, n, m), where a part
    that is the same at every point (a constant, or the derivative of a
    coordinate) keeps length 1 on that axis and broadcasts, and the value
    of a tree without coordinates is a float.  At one point, a batch of one
    with that axis dropped, the value is a float, ``d1`` has shape (n,) and
    ``d2`` shape (n, n).
    Entries above ``order`` (0..2) are ``None``.  ``d2`` is exactly
    symmetric by construction, not merely up to rounding.  The jet of a
    constant tree is shared between evaluations of its tape, and leaf parts
    are read-only arrays: treat a jet as a value.
    """

    __slots__ = ("order", "value", "d1", "d2")

    def __init__(self, order, value, d1=None, d2=None):
        self.order = order
        self.value = value
        self.d1 = d1
        self.d2 = d2


# The products below index derivative slots from the front, so the trailing
# batch axis of a batch rides along in the broadcasting.

def _jadd(a: Jet, b: Jet) -> Jet:
    order = a.order
    return Jet(
        order,
        a.value + b.value,
        a.d1 + b.d1 if order >= 1 else None,
        a.d2 + b.d2 if order >= 2 else None,
    )


def _jneg(a: Jet) -> Jet:
    order = a.order
    return Jet(
        order,
        -a.value,
        -a.d1 if order >= 1 else None,
        -a.d2 if order >= 2 else None,
    )


def _jmul(a: Jet, b: Jet) -> Jet:
    order = a.order
    out = Jet(order, a.value * b.value)
    if order >= 1:
        out.d1 = a.d1 * b.value + b.d1 * a.value
    if order >= 2:
        # cross + cross.T first, so that d2 is exactly symmetric
        cross = a.d1[:, None] * b.d1[None, :]
        out.d2 = a.d2 * b.value + (cross + cross.swapaxes(0, 1)) + b.d2 * a.value
    return out


def _jcompose(w: Jet, f) -> Jet:
    """Jet of F(w) from ``f[k]``, the k-th derivative of F at w.value, for
    k up to ``w.order`` (Faa di Bruno)."""
    order = w.order
    out = Jet(order, f[0])
    if order >= 1:
        out.d1 = f[1] * w.d1
    if order >= 2:
        out.d2 = f[2] * (w.d1[:, None] * w.d1[None, :]) + f[1] * w.d2
    return out


# The domain checks below take a batch column, or a Python float where the
# argument is a constant.  np.count_nonzero is the cheapest test that
# accepts both.

def _reciprocal_coeffs(v, order: int, node: Expr):
    if np.count_nonzero(v == 0.0):
        raise EvalDomainError("division by zero", node)
    inv = 1.0 / v
    coeffs = [inv]
    if order >= 1:
        coeffs.append(-inv * inv)
    if order >= 2:
        coeffs.append(2.0 * inv ** 3)
    return coeffs


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
        return s, c, -s
    if name == "cos":
        s, c = np.sin(v), np.cos(v)
        return c, -s, -c
    if name == "exp":
        e = np.exp(v)
        return e, e, e
    if name == "log":
        if np.count_nonzero(v <= 0.0):
            raise EvalDomainError("log of a non-positive value", node)
        # (log v)' = 1/v
        coeffs = [np.log(v)]
        if order >= 1:
            coeffs += _reciprocal_coeffs(v, order - 1, node)
        return coeffs
    if name == "sqrt":
        if np.count_nonzero(v < 0.0 if order == 0 else v <= 0.0):
            raise EvalDomainError("sqrt outside its domain", node)
        s = np.sqrt(v)
        coeffs = [s]
        if order >= 1:
            coeffs.append(0.5 / s)
        if order >= 2:
            # near 0, s**3 underflows and the quotient leaves the float range
            with np.errstate(divide="ignore", over="ignore"):
                d2 = -0.25 / s ** 3
            if not np.isfinite(d2).all():
                raise EvalDomainError("sqrt outside its domain", node)
            coeffs.append(d2)
        return coeffs
    raise ValueError(f"unknown function '{name}'")  # pragma: no cover


# ---------------------------------------------------------------------------
# tapes

_CONST, _VAR, _ADD, _MUL, _DIV, _NEG, _POW, _FUN = range(8)
_BINARY = {Add: _ADD, Mul: _MUL, Div: _DIV}


class Tape:
    """Expression trees compiled into one post-order program.

    ``program`` is a tuple of ``(op, argument slots, node)`` entries; an
    entry's slot is its position and its arguments are earlier slots.
    Structurally equal subtrees share one slot (hash-consing), whether or
    not they are the same objects, so each is evaluated once per call.  A
    constant is keyed by its type, its value and its sign, so ``-0.0`` and
    ``0.0`` never share a slot.  ``outputs`` holds the slot of each tree, in
    the order given.

    Compiling follows the trees recursively, so a tree nested beyond the
    recursion limit raises :class:`RecursionError` here; a tape that
    compiled evaluates in one loop.
    """

    __slots__ = ("program", "outputs", "_starts")

    def __init__(self, exprs):
        program = []
        slots = {}  # structural key -> slot
        seen = {}  # id(node) -> slot; the trees keep every node alive meanwhile

        def visit(node):
            slot = seen.get(id(node))
            if slot is not None:
                return slot
            if isinstance(node, Const):
                v = node.value
                op, args, key = _CONST, (), (type(v), v, math.copysign(1.0, v))
            elif isinstance(node, Var):
                op, args, key = _VAR, (), node.index
            elif type(node) in _BINARY:
                op, args, key = _BINARY[type(node)], (visit(node.left), visit(node.right)), None
            elif isinstance(node, Neg):
                op, args, key = _NEG, (visit(node.arg),), None
            elif isinstance(node, Pow):
                op, args, key = _POW, (visit(node.base),), node.exponent
            elif isinstance(node, Fun):
                op, args, key = _FUN, (visit(node.arg),), node.name
            else:
                raise TypeError(f"not an Expr node: {node!r}")
            slot = slots.setdefault((op, args, key), len(program))
            if slot == len(program):
                program.append((op, args, node))
            seen[id(node)] = slot
            return slot

        self.outputs = tuple(visit(e) for e in exprs)
        self.program = tuple(program)
        self._starts = {}

    def _start(self, n: int, order: int):
        """Slot list with every constant's jet in place, and the derivative
        parts (d1, d2) of each coordinate; built once per (n, order), with
        read-only arrays whose trailing batch axis of length 1 broadcasts."""
        key = (n, order)
        start = self._starts.get(key)
        if start is None:
            zeros = [_readonly(np.zeros((n,) * k + (1,))) if k <= order else None
                     for k in (1, 2)]
            eye = _readonly(np.eye(n).reshape(n, n, 1))
            units = [(eye[i] if order >= 1 else None, zeros[1]) for i in range(n)]
            jets = [Jet(order, node.value, *zeros) if op == _CONST else None
                    for op, _, node in self.program]
            start = self._starts[key] = (jets, units)
        return start


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _evaluate(tape: Tape, point: list, order: int) -> list[Jet]:
    """The one evaluator: one pass over the tape, one jet per output.

    ``point`` lists the n coordinates of a batch of points, as equal-length
    column arrays, at orders 0..2.
    """
    n = len(point)
    start, units = tape._start(n, order)
    jets = list(start)
    # A power of a Python float (a constant) can overflow; so can any
    # product of a point's coordinates, under the np.errstate of _jets.
    try:
        for slot, (op, args, node) in enumerate(tape.program):
            if op == _MUL:
                jets[slot] = _jmul(jets[args[0]], jets[args[1]])
            elif op == _ADD:
                jets[slot] = _jadd(jets[args[0]], jets[args[1]])
            elif op == _CONST:
                continue  # in place from the start
            elif op == _VAR:
                if node.index >= n:
                    raise EvalDomainError(
                        f"variable x{node.index + 1} exceeds point dimension {n}", node
                    )
                jets[slot] = Jet(order, point[node.index], *units[node.index])
            elif op == _NEG:
                jets[slot] = _jneg(jets[args[0]])
            elif op == _POW:
                base = jets[args[0]]
                jets[slot] = _jcompose(base, _pow_coeffs(base.value, node.exponent, order, node))
            elif op == _DIV:
                den = jets[args[1]]
                jets[slot] = _jmul(jets[args[0]],
                                   _jcompose(den, _reciprocal_coeffs(den.value, order, node)))
            else:
                arg = jets[args[0]]
                jets[slot] = _jcompose(arg, _fun_coeffs(node.name, arg.value, order, node))
    except (OverflowError, FloatingPointError):
        raise EvalDomainError("value beyond the floating-point range", node) from None
    return [jets[slot] for slot in tape.outputs]


def _row(jet: Jet) -> Jet:
    """``jet`` of a batch of one with its batch axis dropped."""
    value, d1, d2 = jet.value, jet.d1, jet.d2
    return Jet(jet.order, value if np.ndim(value) == 0 else value[0],
               None if d1 is None else d1[..., 0], None if d2 is None else d2[..., 0])


def _jets(tape: Tape, points: np.ndarray, order: int) -> list[Jet]:
    """The body of :func:`eval_jet`, :func:`eval_jets` and
    :func:`eval_values_many`: the jets of an (m, n) batch, or of one point
    as a batch of one, under ``np.errstate(over="raise")``."""
    if not 0 <= order <= 2:
        raise ValueError("order must be between 0 and 2")
    if points.ndim not in (1, 2):
        raise ValueError("points must be an (n,) or an (m, n) array")
    columns = list(np.atleast_2d(points).T.copy())
    with np.errstate(over="raise"):
        jets = _evaluate(tape, columns, order)
    return jets if points.ndim == 2 else [_row(jet) for jet in jets]


def _tape(exprs) -> Tape:
    return exprs if isinstance(exprs, Tape) else Tape(exprs)


def eval_jet(expr: Expr, point, order: int = 0) -> Jet:
    """Evaluate the tree ``expr`` at ``point`` with derivatives up to
    ``order`` (0..2)."""
    p = np.asarray(point, dtype=float)
    if p.ndim != 1:
        raise ValueError("point must be a 1-d coordinate array")
    return _jets(Tape((expr,)), p, order)[0]


def eval_jets(exprs, point, order: int = 0) -> list[Jet]:
    """Evaluate several expressions, or a :class:`Tape`, at one point or an
    (m, n) batch of points; one jet per expression.

    Structurally equal subtrees are evaluated once, which matters for
    metrics whose entries share a conformal factor; pass a tape compiled
    once to skip compiling at every call.  A batch gives jets with a
    trailing batch axis (see :class:`Jet`); one point is the batch of one
    holding it, with the batch axis dropped.  Wherever a value or
    derivative at one of the points leaves the floating-point range, the
    call raises :class:`EvalDomainError` rather than returning inf.
    """
    return _jets(_tape(exprs), np.asarray(point, dtype=float), order)


def eval_values_many(exprs, points) -> np.ndarray:
    """Stacked order-0 evaluation of several expressions, or of a
    :class:`Tape`, (k, m) result.

    The evaluator runs once over the m points, as in :func:`eval_jets` at
    order 0, so a value beyond the floating-point range raises
    :class:`EvalDomainError`; a tree without coordinates stays a scalar
    until the final stacking.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (m, n) array")
    values = [jet.value for jet in _jets(_tape(exprs), pts, 0)]
    out = np.empty((len(values), pts.shape[0]))
    for row, value in zip(out, values):
        row[...] = value  # broadcasts a scalar constant to the m points
    return out


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
                    folded = _evaluate(Tape((exponent,)), [], 0)[0].value
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
    input, unknown identifiers, or coordinate indices beyond ``dim``, and at
    position 0 on nesting deeper than the recursive descent can follow.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    try:
        return _Parser(source, dim).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None
