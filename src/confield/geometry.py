"""Charts, fields and pointwise Riemannian tensor calculus.

Index conventions used throughout (and relied on by the test oracles):

* :class:`ConnectionData` (from :func:`connection_data`) holds the metric
  jets ``g``, ``dg[i, j, k] = d_k g_ij``, ``d2g``, the inverse ``ginv``,
  ``Gam[k, i, j]``, the Christoffel symbol Gamma^k_ij of the Levi-Civita
  connection, symmetric in (i, j), and ``dGam[k, i, j, m] = d_m
  Gamma^k_ij``.
* :class:`FieldData` (from :func:`field_data`) holds the jets of a field at
  one point and the tensors they give: ``N[i, j] = (nabla_{e_j} xi)^i``, the
  endomorphism nabla xi with the value index first and the direction
  second; ``H[i, j, k] = ((nabla_{e_j} nabla xi)(e_k))^i``, the covariant
  Hessian with the derivative direction first; the 2-form matrix
  ``M[i, j] = (d xi^flat)(e_i, e_j) = d_i (g_jk xi^k) - d_j (g_ik xi^k)``;
  and ``phi = trace(N) / n`` and its differential ``dphi``.

Batches: every evaluation here (``metric_jets``, ``connection_data``,
``field_jets``, ``field_data``, ``metric_factor``, ``spd_inverse``,
``norm_vector``, ``norm_2form`` and ``field_norm``) takes one point or an
(m, n) array of points, ``frame_svd`` one matrix or an (m, n, n) stack,
and ``complete_orthonormal_frame`` and ``sample_ball`` one vector or an
(m, n) stack.  A batch adds a leading axis of length m to every array,
with the index layout above after it; the jets of all m points come from
one walk of each expression tree, and the frames of a stack from one SVD
call.  One point is evaluated as a batch of one, so its arrays have the
bits of that batch's row.
The order-2 tensors (d Gamma, the covariant Hessian, dphi) are reshaped
matrix products, one (n^a, n) @ (n, n^b) product per point over the batch,
whose operands are made C-contiguous first: numpy picks a product's kernel
from its operands' strides, and this way row i of a stack gets the kernel,
and so the bits, of its batch of one.  The order-1
contractions (Gamma, N, d(xi^flat)) keep the summation order of the einsums
they were written with, whose rounding the reports carry.

Each metric is factored once, by :func:`metric_factor`, into g = L L^T
and Linv = L^-1 (Golub & Van Loan, *Matrix Computations*, 4th ed., 4.2),
which ``ConnectionData.factor`` keeps: g^-1 is Linv^T Linv, and the rows of
Linv are the g-orthonormal frame u_a = L^{-T} e_a in which
:func:`frame_svd` builds every frame (the kernels of nabla xi and
d(xi^flat), their complements, the completion of a direction).  A metric
that is not positive definite or is badly conditioned (above 1e12) raises
:class:`MetricError` there, for a batch if any of its matrices does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Expr, Tape, eval_jets

__all__ = [
    "Chart", "FieldSpec",
    "ChartError", "ChartDomainError", "MetricError",
    "sample_interior",
]

CONDITION_LIMIT = 1e12

# Singular values at or below max(_RANK_REL * sigma_0, _RANK_ABS) count as
# zero in frame_svd.  The relative cut sits well above sqrt(eps): Gauss-Newton
# places a degenerate zero only to 2.5e-8 - 4e-8, and the tensors there carry
# errors of that size.
_RANK_REL = 1e-6
_RANK_ABS = 1e-12


class ChartError(ValueError):
    """Malformed chart data (dimension, bounds, metric shape)."""


class ChartDomainError(ValueError):
    """A point lies outside the chart's coordinate box."""


class MetricError(ArithmeticError):
    """Metric not symmetric positive definite, or numerically degenerate."""


@dataclass(frozen=True, eq=False)
class Chart:
    """A coordinate box with a metric given by expression components.

    ``metric[i][j]`` is an :class:`~confield.expr.Expr` in the coordinates
    ``x1 .. x{dim}``.  All slots must be filled; symmetry is enforced
    numerically by symmetrizing evaluated components, and positivity is
    checked wherever the metric is evaluated.  ``tape`` holds the entries,
    row-major, compiled once here; a tree too deep to compile raises
    :class:`RecursionError`.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    metric: tuple
    name: str = "chart"
    tape: Tape = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ChartError("charts must have dimension at least 2")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ChartError("domain bounds must match the chart dimension")
        if not np.all(lower < upper):
            raise ChartError("domain box must have positive extent")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        rows = tuple(tuple(row) for row in self.metric)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ChartError("metric must be a dim x dim array of expressions")
        for row in rows:
            for entry in row:
                if not isinstance(entry, Expr):
                    raise ChartError("metric entries must be Expr nodes")
        object.__setattr__(self, "metric", rows)
        object.__setattr__(self, "tape", Tape(self.metric_entries()))

    def _inside(self, p, margin: float = 0.0) -> np.ndarray:
        q = np.asarray(p, dtype=float)
        return np.all((q >= self.lower + margin) & (q <= self.upper - margin), axis=-1)

    def contains(self, p, margin: float = 0.0) -> bool:
        """Whether the point, or every row of an (m, n) array, is in the box."""
        return bool(np.all(self._inside(p, margin)))

    def require_interior(self, p, margin: float = 0.0):
        """Raise naming the point, or the first row of an (m, n) array,
        outside the box."""
        inside = self._inside(p, margin)
        if not np.all(inside):
            q = np.asarray(p)
            bad = q if q.ndim == 1 else q[np.argmin(inside)]
            raise ChartDomainError(
                f"point {bad.tolist()} outside chart domain of {self.name}"
            )

    def metric_entries(self):
        """Row-major flat tuple of the metric component expressions."""
        return tuple(e for row in self.metric for e in row)

    def validate_spd(self, rng, samples: int = 25):
        """Evaluate the metric at random interior points, fail if not SPD."""
        metric_value(self, sample_interior(self, samples, rng))


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A vector field on a chart: one component expression per coordinate.

    ``tape`` holds the components compiled once here, as in :class:`Chart`.
    """

    chart: Chart
    components: tuple
    name: str = ""
    tape: Tape = field(init=False, repr=False)

    def __post_init__(self):
        comps = tuple(self.components)
        for c in comps:
            if not isinstance(c, Expr):
                raise ChartError("field components must be Expr nodes")
        if len(comps) != self.chart.dim:
            raise ChartError(
                f"vector field needs {self.chart.dim} components, got {len(comps)}"
            )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "tape", Tape(comps))


# ---------------------------------------------------------------------------
# metric evaluation

def _gather(jets, part: str, shape: tuple, batch: tuple) -> np.ndarray:
    """One part of several jets as one array of shape ``batch + shape``.

    The jets fill the leading axes of ``shape`` in row-major order.  Their
    parts have one axis per derivative order plus a trailing batch axis, or
    a broadcastable one of length 1; the batch axis moves to the front.
    """
    order = ("value", "d1", "d2").index(part)
    out = np.empty((len(jets),) + shape[len(shape) - order:] + batch)
    for k, jet in enumerate(jets):
        out[k] = getattr(jet, part)
    if batch:  # np.moveaxis(out, -1, 0), without its argument checks
        out = out.transpose(out.ndim - 1, *range(out.ndim - 1))
    return out.reshape(batch + shape)


def metric_jets(chart: Chart, p, order: int):
    """Metric component jets assembled into arrays.

    Returns ``(g, dg, d2g)`` truncated to ``order``:
    ``dg[i, j, k] = d_k g_ij`` and ``d2g[i, j, k, l] = d_k d_l g_ij``.
    Arrays beyond the requested order are ``None``.  Components are
    symmetrized in (i, j) so downstream symmetries hold exactly.  For an
    (m, n) array of points every array gains a leading axis of length m.
    """
    n = chart.dim
    p = np.asarray(p, dtype=float)
    batch = p.shape[:-1]
    jets = eval_jets(chart.tape, p, order)
    g = _gather(jets, "value", (n, n), batch)
    g = 0.5 * (g + g.swapaxes(-1, -2))
    dg = d2g = None
    if order >= 1:
        dg = _gather(jets, "d1", (n, n, n), batch)
        dg = 0.5 * (dg + dg.swapaxes(-3, -2))
    if order >= 2:
        d2g = _gather(jets, "d2", (n, n, n, n), batch)
        d2g = 0.5 * (d2g + d2g.swapaxes(-4, -3))
    return g, dg, d2g


def metric_factor(g: np.ndarray) -> tuple:
    """``(L, Linv)`` with g = L L^T and Linv = L^-1, for one matrix or a stack.

    The one factorization of a metric and its one SPD gate: the Cholesky
    diagonal is a cheap conditioning probe of every matrix, and only a
    suspicious probe falls back to an eigenvalue check.
    """
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric is not positive definite") from exc
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    ratio = (diag.max(axis=-1) / diag.min(axis=-1)) ** 2
    if (ratio > CONDITION_LIMIT / 100.0).any():
        w = np.linalg.eigvalsh(g)
        if np.any(w[..., 0] <= 0) or np.any(w[..., -1] / w[..., 0] > CONDITION_LIMIT):
            raise MetricError(f"metric conditioning exceeds {CONDITION_LIMIT:g}")
    return L, np.linalg.inv(L)


def spd_inverse(g: np.ndarray) -> np.ndarray:
    """g^-1 = Linv^T Linv from :func:`metric_factor`, for one matrix or a stack."""
    Linv = metric_factor(g)[1]
    return Linv.swapaxes(-1, -2) @ Linv


def metric_value(chart: Chart, p) -> np.ndarray:
    """Metric matrix at an interior point, validated SPD."""
    chart.require_interior(p)
    g, _, _ = metric_jets(chart, p, 0)
    metric_factor(g)
    return g


# ---------------------------------------------------------------------------
# connection and curvature

def _stacked(a: np.ndarray, batch: tuple, rows: int, cols: int) -> np.ndarray:
    """``a`` as a C-contiguous ``batch`` of (rows, cols) matrices.

    Every matrix product of the order-2 tensors takes its operands through
    here: numpy picks its kernel from the strides of each matrix, and a row
    of a stack must get the same kernel, and so the same bits, as its batch
    of one.
    """
    return np.ascontiguousarray(a).reshape(batch + (rows, cols))


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x over stacks of matrices A and vectors x, with contiguous operands."""
    return (np.ascontiguousarray(A) @ np.ascontiguousarray(x)[..., None])[..., 0]


def vecmat(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x A over stacks, with contiguous operands."""
    return (np.ascontiguousarray(x)[..., None, :] @ np.ascontiguousarray(A))[..., 0, :]


def _axes(a: np.ndarray, *order: int) -> np.ndarray:
    """``a`` with its trailing axes permuted by ``order``, batch axes kept."""
    lead = a.ndim - len(order)
    return a.transpose(*range(lead), *(lead + k for k in order))


@dataclass(frozen=True, eq=False)
class ConnectionData:
    """Metric jets, the metric factor and the connection, to jet order 1 or 2.

    ``factor`` is :func:`metric_factor` of ``g``.  At order 1, ``d2g`` and
    ``dGam`` are ``None``.  Built from an (m, n) array of points, every
    array has a leading axis of length m.
    """

    g: np.ndarray
    factor: tuple
    ginv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray | None
    Gam: np.ndarray      # Gam[k, i, j] = Gamma^k_ij
    dGam: np.ndarray | None  # dGam[k, i, j, m] = d_m Gamma^k_ij


def connection_data(chart: Chart, p, order: int = 2) -> ConnectionData:
    """Metric jets to ``order`` (1 or 2), Gamma and, at order 2, its derivatives.

    ``p`` is one point or an (m, n) array of points.  ``dGam`` is a view
    of an array laid out as ``d_m Gamma^k_ij`` at ``[k, m, i, j]``, so
    ``np.moveaxis(dGam, -1, -3)`` is contiguous per point.
    """
    g, dg, d2g = metric_jets(chart, p, order)
    L, Linv = metric_factor(g)
    ginv = Linv.swapaxes(-1, -2) @ Linv
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    T = dg.swapaxes(-3, -1).swapaxes(-2, -1) + dg.swapaxes(-1, -2) - dg
    Gam = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, T)
    dGam = None
    if order >= 2:
        n, batch = chart.dim, g.shape[:-2]
        # d_m Gamma^k_ij = g^ka (d_m Gamma_aij - d_m g_ab Gamma^b_ij), where
        # 2 d_m Gamma_aij = d_m T_ija = d_m d_i g_ja + d_m d_j g_ia - d_m d_a g_ij;
        # every array is taken at [a, m, i, j], with d2g[p, q, r, s] = d_r d_s g_pq
        lowered = (_axes(d2g, 1, 3, 2, 0) + _axes(d2g, 1, 3, 0, 2)
                   - _axes(d2g, 2, 3, 0, 1))
        # the d_m g_ab Gamma^b_ij term, one (n^2, n) @ (n, n^2) product per point
        dg_Gam = (_stacked(dg.swapaxes(-1, -2), batch, n * n, n)
                  @ _stacked(Gam, batch, n, n * n))
        V = 0.5 * _stacked(lowered, batch, n * n, n * n) - dg_Gam
        dGam = _stacked(ginv, batch, n, n) @ V.reshape(batch + (n, n ** 3))
        dGam = np.moveaxis(dGam.reshape(batch + (n,) * 4), -3, -1)
    return ConnectionData(g, (L, Linv), ginv, dg, d2g, Gam, dGam)


def christoffel_matrix(chart: Chart, p) -> np.ndarray:
    """Gamma^k_ij as an (n, n, n) array, or (m, n, n, n) over m points."""
    return connection_data(chart, p, 1).Gam


# ---------------------------------------------------------------------------
# field evaluation

def field_jets(xi: FieldSpec, p, order: int):
    """Component jets of a vector field.

    Returns ``(value, jac, hess)`` truncated to ``order`` where
    ``jac[i, j] = d_j xi^i`` and ``hess[i, j, k] = d_j d_k xi^i``, each with
    a leading axis of length m for an (m, n) array of points.
    """
    n = xi.chart.dim
    p = np.asarray(p, dtype=float)
    batch = p.shape[:-1]
    jets = eval_jets(xi.tape, p, order)
    val = _gather(jets, "value", (n,), batch)
    jac = _gather(jets, "d1", (n, n), batch) if order >= 1 else None
    hess = _gather(jets, "d2", (n, n, n), batch) if order >= 2 else None
    return val, jac, hess


def field_value(xi: FieldSpec, p) -> np.ndarray:
    return field_jets(xi, p, 0)[0]


@dataclass(frozen=True, eq=False)
class FieldData:
    """The 2-jet of a vector field at one point and the tensors it gives.

    ``value``, ``jac`` and ``hess`` are the component jets of
    :func:`field_jets`; ``N``, ``M``, ``phi``, ``H`` and ``dphi`` follow
    the conventions in the module docstring.  At order 1, ``hess``, ``H``
    and ``dphi`` are ``None``.  Built from an (m, n) array of points, every
    array and ``phi`` have a leading axis of length m.
    """

    conn: ConnectionData
    value: np.ndarray
    jac: np.ndarray
    hess: np.ndarray | None
    N: np.ndarray
    M: np.ndarray
    phi: float | np.ndarray
    H: np.ndarray | None
    dphi: np.ndarray | None


def field_data(chart: Chart, xi: FieldSpec, p, order: int = 2) -> FieldData:
    """One evaluation of the metric and field jets to ``order`` (1 or 2) at p,
    one point or an (m, n) array of points."""
    conn = connection_data(chart, p, order)
    val, jac, hess = field_jets(xi, p, order)
    g, dg, Gam = conn.g, conn.dg, conn.Gam
    # N[i, j] = d_j xi^i + Gamma^i_jk xi^k, summed over k in order as einsum
    # sums it over two or more points; over one point einsum sums in another
    # order, and a row of a stack would not be its batch of one
    Gam_xi = Gam[..., 0] * val[..., None, None, 0]
    for k in range(1, chart.dim):
        Gam_xi = Gam_xi + Gam[..., k] * val[..., None, None, k]
    N = jac + Gam_xi
    # P[i, j] = d_i omega_j with omega_j = g_jk xi^k
    P = np.einsum("...jki,...k->...ij", dg, val) + np.einsum("...jk,...ki->...ij", g, jac)
    H = dphi = None
    if order >= 2:
        n, batch = chart.dim, val.shape[:-1]
        # d_j N[i, k] = d_j d_k xi^i + d_j Gamma^i_kl xi^l + Gamma^i_kl d_j xi^l,
        # the middle term from dGam laid out as d_j Gamma^i_kl at [i, j, k, l]
        dGam = np.moveaxis(conn.dGam, -1, -3)
        Gam_kl = _stacked(Gam, batch, n * n, n)
        dN = (hess + matvec(_stacked(dGam, batch, n ** 3, n), val).reshape(batch + (n,) * 3)
              + (Gam_kl @ _stacked(jac, batch, n, n)).reshape(batch + (n,) * 3).swapaxes(-1, -2))
        # H[i, j, k] = dN[i, j, k] + Gamma^i_jl N[l, k] - Gamma^l_jk N[i, l]
        Nc = _stacked(N, batch, n, n)
        H = (dN + (Gam_kl @ Nc).reshape(batch + (n,) * 3)
             - (Nc @ _stacked(Gam, batch, n, n * n)).reshape(batch + (n,) * 3))
        # n phi = trace N, so n d_j phi = d_j N[i, i]
        dphi = np.trace(dN, axis1=-3, axis2=-1) / n
    phi = np.trace(N, axis1=-2, axis2=-1) / chart.dim
    return FieldData(conn, val, jac, hess, N, P - P.swapaxes(-1, -2),
                     float(phi) if phi.ndim == 0 else phi, H, dphi)


# ---------------------------------------------------------------------------
# norms, frames, sampling

def norm_vector(g: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """|v|_g; per point over stacked inputs."""
    val = np.sqrt(np.maximum(np.einsum("...i,...ij,...j->...", v, g, v), 0.0))
    return float(val) if val.ndim == 0 else val


def norm_or_nan(g: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """|v|_g, or NaN for a v that is not finite, which then enters no product."""
    return norm_vector(g, v) if np.isfinite(v).all() else math.nan


def norm_2form(ginv: np.ndarray, T: np.ndarray) -> float | np.ndarray:
    """|T| in the metric with inverse ginv; per point over stacked inputs."""
    # |T|^2 = sum_kl (g^-1 T g^-1)_kl T_kl
    val = np.sqrt(np.maximum(((ginv @ T @ ginv) * T).sum(axis=(-2, -1)), 0.0))
    return float(val) if val.ndim == 0 else val


def field_norm(chart: Chart, xi: FieldSpec, p) -> float | np.ndarray:
    g, _, _ = metric_jets(chart, p, 0)
    return norm_vector(g, field_value(xi, p))


def _numerical_rank(sigma: np.ndarray) -> int | np.ndarray:
    """Singular values above max(_RANK_REL * sigma_0, _RANK_ABS): an int for
    one matrix, an int array with one count per row of a stack."""
    cut = np.maximum(_RANK_REL * sigma[..., :1], _RANK_ABS)
    rank = np.count_nonzero(sigma > cut, axis=-1)
    return int(rank) if np.ndim(rank) == 0 else rank


@dataclass(frozen=True, eq=False)
class FrameSVD:
    """SVD of a tensor at a point, taken in a g-orthonormal frame.

    The frame is u_a = L^{-T} e_a from g = L L^T.  Vectors map into it by
    L^T, covectors by L^{-1}, endomorphisms by conjugation and 2-forms by
    congruence.  ``rank`` counts the singular values above the cut of
    ``_numerical_rank``.  Taken over a stack of m matrices, every array has
    a leading axis of length m, ``rank`` is an int array, and row i of
    each array is the one-matrix result of row i; ``kernel`` and ``solve``
    then need the same rank in every row.
    """

    L: np.ndarray
    Linv: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray
    rank: int | np.ndarray

    def _common_rank(self) -> int:
        if isinstance(self.rank, int):
            return self.rank
        ranks = set(self.rank.tolist())  # np.unique would import numpy.ma
        if len(ranks) > 1:
            raise ValueError(f"the stack has ranks {sorted(ranks)}, not one")
        return ranks.pop() if ranks else 0  # an empty stack has no rank to agree on

    @property
    def kernel(self) -> np.ndarray:
        """g-orthonormal basis of the numerical kernel, one row per vector."""
        return self.Vt[..., self._common_rank():, :] @ self.Linv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares x with A x = rhs, for an endomorphism A.

        ``rhs`` holds chart vectors in its last axis, for a stack in an
        array of shape (m, ..., k, n); the pseudo-inverse drops the singular
        values below the rank cut, so x is g-orthogonal to the kernel.
        """
        r = self._common_rank()
        L, Linv = self.L, self.Linv
        U, sigma, Vt = self.U[..., :r], self.sigma[..., :r], self.Vt[..., :r, :]
        if sigma.ndim == 2:  # a stack: row i of each factor meets rhs[i]
            if rhs.ndim < 3:
                raise ValueError("a stack solves rhs arrays of shape (m, ..., k, n)")
            middle = tuple(range(1, rhs.ndim - 2))
            L, U, Vt, Linv = (np.expand_dims(a, middle) for a in (L, U, Vt, Linv))
            sigma = np.expand_dims(sigma, middle + (rhs.ndim - 2,))
        frame_x = ((rhs @ L) @ U) / sigma @ Vt
        return frame_x @ Linv


def frame_svd(factor: tuple, tensor: np.ndarray, kind: str) -> FrameSVD:
    """SVD of an ``"endomorphism"`` or a ``"skew_form"`` in a g-orthonormal frame.

    ``factor`` is g's :func:`metric_factor` pair, as ``ConnectionData.factor``
    holds it, so no metric is factored here.  ``tensor`` is one (n, n)
    matrix or, with a stacked factor, an (m, n, n) stack, which costs one
    matmul chain and one SVD call; row i of the result equals the call on
    row i.  A skew form is skew-symmetrized after the change of frame, so
    its singular values come in honest pairs.  This is the one place that
    builds g-orthonormal frames: every other frame is the ``kernel`` of
    some tensor here.
    """
    L, Linv = factor
    if kind == "endomorphism":
        A = L.swapaxes(-1, -2) @ tensor @ Linv.swapaxes(-1, -2)
    elif kind == "skew_form":
        A = Linv @ tensor @ Linv.swapaxes(-1, -2)
        A = 0.5 * (A - A.swapaxes(-1, -2))
    else:
        raise ValueError(f"unknown tensor kind {kind!r}")
    U, sigma, Vt = np.linalg.svd(A)
    return FrameSVD(L, Linv, U, sigma, Vt, _numerical_rank(sigma))


def complete_orthonormal_frame(factor: tuple, v: np.ndarray) -> np.ndarray:
    """g-orthonormal frame (rows) whose first vector is v normalized.

    The other rows are the kernel of w -> g(u, w) u for u = v / |v|_g, i.e.
    a g-orthonormal basis of the complement of v.  ``factor``, g's
    :func:`metric_factor` pair, and ``v`` are one of each, or stacks of m
    giving an (m, n, n) stack of frames whose row i is the call on row i,
    bit for bit.  A zero or non-finite v raises :class:`MetricError`.
    """
    L = factor[0]
    v = np.asarray(v, dtype=float)
    # |v|_g = |L^T v| and g u = L L^T u; a non-finite v enters no product
    Lt_v = matvec(L.swapaxes(-1, -2), v) if np.isfinite(v).all() else v + math.nan
    length = np.linalg.norm(Lt_v, axis=-1)[..., None]
    if not np.all(np.isfinite(length) & (length > 0)):
        raise MetricError(f"cannot complete a frame from the vector {v.tolist()}")
    u = v / length
    gu = matvec(L, Lt_v / length)
    rest = frame_svd(factor, u[..., :, None] * gu[..., None, :], "endomorphism").kernel
    return np.concatenate([u[..., None, :], rest], axis=-2)


def sample_interior(chart: Chart, count: int, rng, margin: float = 0.05) -> np.ndarray:
    """Seeded uniform samples in the domain box, shrunk by a relative margin."""
    u = rng.uniform(margin, 1.0 - margin, size=(count, chart.dim))
    return chart.lower + u * (chart.upper - chart.lower)


def sample_ball(chart: Chart, x, radius: float, count: int, rng) -> np.ndarray:
    """Seeded samples around x, within ``radius`` and half the distance to the box.

    With r_eff the smaller of the two, row k is x + r_eff s_k u_k for a
    direction u_k uniform on the sphere and s_k uniform in [0.2, 1]: the
    directions are one ``rng.normal((count, n))`` block, normalized, and
    the radii one ``rng.uniform(0.2, 1.0, count)`` block drawn after it.
    For an (m, n) stack of centres the result is (m, count, n), from one
    (m, count, n) normal block and then one (m, count) uniform block, each
    centre with its own r_eff; a stack of one draws the numbers of one
    centre.
    """
    x = np.asarray(x, dtype=float)
    dist = np.minimum((x - chart.lower).min(axis=-1), (chart.upper - x).min(axis=-1))
    r_eff = np.minimum(radius, 0.5 * dist)[..., None, None]
    u = rng.normal(size=x.shape[:-1] + (count, chart.dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return x[..., None, :] + r_eff * rng.uniform(0.2, 1.0, x.shape[:-1] + (count,))[..., None] * u
