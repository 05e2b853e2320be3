"""Charts, fields and pointwise Riemannian tensor calculus.

Index conventions used throughout (and relied on by the test oracles):

* ``Gam[k, i, j]`` is the Christoffel symbol Gamma^k_ij of the Levi-Civita
  connection, symmetric in (i, j).
* ``covariant_derivative_field`` returns the endomorphism
  ``N[i, j] = (nabla_{e_j} xi)^i``, value index first, direction second.
* The curvature convention is ``R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X
  - nabla_[X, Y]``, under which round spheres have sectional curvature +1.
  ``riemann_matrix`` returns ``R[i, j, k, l]`` with ``R(e_k, e_l) e_j =
  R[i,j,k,l] e_i`` while ``riemann_lowered_matrix`` uses the
  argument-first layout ``Rl[a, b, c, d] = g(R(e_a, e_b) e_c, e_d)``, which
  makes the classical pair symmetries read off the first and last index
  pairs.
* ``exterior_derivative_dual`` returns the 2-form matrix
  ``M[i, j] = (d xi^flat)(e_i, e_j) = d_i (g_jk xi^k) - d_j (g_ik xi^k)``.

Metric inverses go through a Cholesky factorization; non-positive-definite
or badly conditioned (above 1e12) metrics raise :class:`MetricError`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expr, eval_jet, eval_jets

__all__ = [
    "Chart", "FieldSpec", "TensorValue",
    "ChartError", "ChartDomainError", "MetricError",
    "metric_at", "covariant_derivative_field", "exterior_derivative_dual",
    "divergence", "gradient", "sharp", "flat",
    "sample_interior",
]

CONDITION_LIMIT = 1e12


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
    checked wherever the metric is evaluated.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    metric: tuple
    name: str = "chart"

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

    def contains(self, p, margin: float = 0.0) -> bool:
        q = np.asarray(p, dtype=float)
        return bool(
            np.all(q >= self.lower + margin) and np.all(q <= self.upper - margin)
        )

    def require_interior(self, p, margin: float = 0.0):
        if not self.contains(p, margin):
            raise ChartDomainError(
                f"point {np.asarray(p).tolist()} outside chart domain of {self.name}"
            )

    def metric_entries(self):
        """Row-major flat tuple of the metric component expressions."""
        return tuple(e for row in self.metric for e in row)

    def validate_spd(self, rng, samples: int = 25):
        """Evaluate the metric at random interior points, fail if not SPD."""
        for p in sample_interior(self, samples, rng):
            metric_value(self, p)


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A vector field (dim components) or scalar function (one component)."""

    chart: Chart
    components: tuple
    kind: str = "vector"
    name: str = ""

    def __post_init__(self):
        comps = tuple(self.components)
        for c in comps:
            if not isinstance(c, Expr):
                raise ChartError("field components must be Expr nodes")
        if self.kind == "vector":
            if len(comps) != self.chart.dim:
                raise ChartError(
                    f"vector field needs {self.chart.dim} components, got {len(comps)}"
                )
        elif self.kind == "scalar":
            if len(comps) != 1:
                raise ChartError("scalar field takes exactly one component")
        else:
            raise ChartError(f"unknown field kind '{self.kind}'")
        object.__setattr__(self, "components", comps)

    @classmethod
    def vector(cls, chart: Chart, components, name: str = "") -> "FieldSpec":
        return cls(chart, tuple(components), "vector", name)

    @classmethod
    def scalar(cls, chart: Chart, expression: Expr, name: str = "") -> "FieldSpec":
        return cls(chart, (expression,), "scalar", name)

    @property
    def expr(self) -> Expr:
        if self.kind != "scalar":
            raise ChartError("expr is only defined for scalar fields")
        return self.components[0]


@dataclass(frozen=True, eq=False)
class TensorValue:
    """Tensor components at a point, one valence character per slot.

    ``valence`` is a string of ``'u'`` (contravariant) and ``'d'``
    (covariant) characters; ``components`` must have shape ``(n,) * slots``.
    """

    point: np.ndarray
    valence: str
    components: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        c = np.asarray(self.components, dtype=float)
        if any(ch not in "ud" for ch in self.valence):
            raise ValueError("valence must consist of 'u' and 'd' characters")
        n = p.shape[0]
        if c.shape != (n,) * len(self.valence):
            raise ValueError(
                f"components shape {c.shape} does not match valence '{self.valence}'"
            )
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "components", c)


# ---------------------------------------------------------------------------
# metric evaluation

def metric_jets(chart: Chart, p, order: int):
    """Metric component jets assembled into arrays.

    Returns ``(g, dg, d2g)`` truncated to ``order``:
    ``dg[i, j, k] = d_k g_ij`` and ``d2g[i, j, k, l] = d_k d_l g_ij``.
    Arrays beyond the requested order are ``None``.  Components are
    symmetrized in (i, j) so downstream symmetries hold exactly.
    """
    n = chart.dim
    jets = eval_jets(chart.metric_entries(), p, order)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = jets[i * n + j].value
    g = 0.5 * (g + g.T)
    dg = d2g = None
    if order >= 1:
        dg = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                dg[i, j] = jets[i * n + j].d1
        dg = 0.5 * (dg + dg.transpose(1, 0, 2))
    if order >= 2:
        d2g = np.empty((n, n, n, n))
        for i in range(n):
            for j in range(n):
                d2g[i, j] = jets[i * n + j].d2
        d2g = 0.5 * (d2g + d2g.transpose(1, 0, 2, 3))
    return g, dg, d2g


def spd_inverse(g: np.ndarray, context: str = "metric") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    Uses the Cholesky diagonal as a cheap conditioning probe and only falls
    back to an eigenvalue check when the probe is suspicious, since this
    sits inside the geodesic integration hot loop.
    """
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricError(f"{context} is not positive definite") from exc
    diag = np.diagonal(L)
    ratio = (diag.max() / diag.min()) ** 2
    if ratio > CONDITION_LIMIT / 100.0:
        w = np.linalg.eigvalsh(g)
        if w[0] <= 0 or w[-1] / w[0] > CONDITION_LIMIT:
            raise MetricError(
                f"{context} conditioning exceeds {CONDITION_LIMIT:g}"
            )
    return np.linalg.inv(g)


def metric_value(chart: Chart, p) -> np.ndarray:
    """Metric matrix at an interior point, validated SPD."""
    chart.require_interior(p)
    g, _, _ = metric_jets(chart, p, 0)
    spd_inverse(g)  # positivity / conditioning check
    return g


def metric_at(chart: Chart, p) -> TensorValue:
    return TensorValue(np.asarray(p, float), "dd", metric_value(chart, p))


# ---------------------------------------------------------------------------
# connection and curvature

def christoffel_matrix(chart: Chart, p) -> np.ndarray:
    """Gamma^k_ij as an (n, n, n) array, no TensorValue wrapper (hot path)."""
    g, dg, _ = metric_jets(chart, p, 1)
    ginv = spd_inverse(g)
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    T = dg.transpose(2, 0, 1) + dg.transpose(0, 2, 1) - dg
    return 0.5 * np.einsum("kl,ijl->kij", ginv, T)


@dataclass(frozen=True, eq=False)
class ConnectionData:
    """Metric jets, connection and its first derivatives at one point."""

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    Gam: np.ndarray      # Gam[k, i, j] = Gamma^k_ij
    dGam: np.ndarray     # dGam[k, i, j, m] = d_m Gamma^k_ij


def connection_data(chart: Chart, p) -> ConnectionData:
    g, dg, d2g = metric_jets(chart, p, 2)
    ginv = spd_inverse(g)
    T = dg.transpose(2, 0, 1) + dg.transpose(0, 2, 1) - dg
    Gam = 0.5 * np.einsum("kl,ijl->kij", ginv, T)
    # dT[i, j, l, m] = d_m T_ijl
    dT = d2g.transpose(2, 0, 1, 3) + d2g.transpose(0, 2, 1, 3) - d2g
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("ka,abm,bl->klm", ginv, dg, ginv)
    dGam = 0.5 * (
        np.einsum("klm,ijl->kijm", dginv, T)
        + np.einsum("kl,ijlm->kijm", ginv, dT)
    )
    return ConnectionData(g, ginv, dg, d2g, Gam, dGam)


def riemann_matrix(chart: Chart, p) -> np.ndarray:
    """R[i, j, k, l] with R(e_k, e_l) e_j = R[i, j, k, l] e_i."""
    cd = connection_data(chart, p)
    Gam, dGam = cd.Gam, cd.dGam
    # d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma^i_{km} Gamma^m_{lj}
    #                                    - Gamma^i_{lm} Gamma^m_{kj}
    R = np.einsum("iljk->ijkl", dGam) - np.einsum("ikjl->ijkl", dGam)
    R += np.einsum("ikm,mlj->ijkl", Gam, Gam) - np.einsum("ilm,mkj->ijkl", Gam, Gam)
    return R


def riemann_lowered_matrix(chart: Chart, p) -> np.ndarray:
    """Rl[a, b, c, d] = g(R(e_a, e_b) e_c, e_d)."""
    g, _, _ = metric_jets(chart, p, 0)
    R = riemann_matrix(chart, p)
    # R(e_a, e_b) e_c = R[m, c, a, b] e_m
    return np.einsum("dm,mcab->abcd", 0.5 * (g + g.T), R)


# ---------------------------------------------------------------------------
# field evaluation

def field_jets(xi: FieldSpec, p, order: int):
    """Component jets of a vector field.

    Returns ``(value, jac, hess)`` truncated to ``order`` where
    ``jac[i, j] = d_j xi^i`` and ``hess[i, j, k] = d_j d_k xi^i``.
    """
    if xi.kind != "vector":
        raise ChartError("field_jets expects a vector field")
    n = xi.chart.dim
    jets = eval_jets(xi.components, p, order)
    val = np.array([j.value for j in jets])
    jac = np.array([j.d1 for j in jets]) if order >= 1 else None
    hess = np.array([j.d2 for j in jets]) if order >= 2 else None
    return val, jac, hess


def field_value(xi: FieldSpec, p) -> np.ndarray:
    return field_jets(xi, p, 0)[0]


def covariant_derivative_matrix(chart: Chart, xi: FieldSpec, p) -> np.ndarray:
    """N[i, j] = (nabla_{e_j} xi)^i = d_j xi^i + Gamma^i_jk xi^k."""
    val, jac, _ = field_jets(xi, p, 1)
    Gam = christoffel_matrix(chart, p)
    return jac + np.einsum("ijk,k->ij", Gam, val)


def covariant_hessian_matrix(chart: Chart, xi: FieldSpec, p):
    """First and second covariant derivatives of a vector field at p.

    Returns ``(N, H)`` with ``N`` as in :func:`covariant_derivative_matrix`
    and ``H[i, j, k] = ((nabla_{e_j} nabla xi)(e_k))^i``, the covariant
    Hessian with the derivative direction first, as in ``field_jets``:

        H[i, j, k] = d_j N[i, k] + Gamma^i_jl N[l, k] - Gamma^l_jk N[i, l].
    """
    cd = connection_data(chart, p)
    val, jac, hess = field_jets(xi, p, 2)
    Gam = cd.Gam
    N = jac + np.einsum("ijk,k->ij", Gam, val)
    # d_j N[i, k] = d_j d_k xi^i + d_j Gamma^i_kl xi^l + Gamma^i_kl d_j xi^l
    dN = (
        hess
        + np.einsum("iklj,l->ijk", cd.dGam, val)
        + np.einsum("ikl,lj->ijk", Gam, jac)
    )
    H = (
        dN
        + np.einsum("ijl,lk->ijk", Gam, N)
        - np.einsum("ljk,il->ijk", Gam, N)
    )
    return N, H


def covariant_derivative_field(chart: Chart, xi: FieldSpec, p) -> TensorValue:
    chart.require_interior(p)
    return TensorValue(
        np.asarray(p, float), "ud", covariant_derivative_matrix(chart, xi, p)
    )


def dxi_form_matrix(chart: Chart, xi: FieldSpec, p) -> np.ndarray:
    """Matrix of d(xi^flat): M[i, j] = d_i (g_jk xi^k) - d_j (g_ik xi^k)."""
    g, dg, _ = metric_jets(chart, p, 1)
    val, jac, _ = field_jets(xi, p, 1)
    # P[i, j] = d_i omega_j with omega_j = g_jk xi^k
    P = np.einsum("jki,k->ij", dg, val) + np.einsum("jk,ki->ij", g, jac)
    return P - P.T


def exterior_derivative_dual(chart: Chart, xi: FieldSpec, p) -> TensorValue:
    chart.require_interior(p)
    return TensorValue(np.asarray(p, float), "dd", dxi_form_matrix(chart, xi, p))


def lie_derivative_matrix(chart: Chart, xi: FieldSpec, p) -> np.ndarray:
    """(L_xi g)_ij = g(nabla_{e_i} xi, e_j) + g(nabla_{e_j} xi, e_i)."""
    g, _, _ = metric_jets(chart, p, 0)
    N = covariant_derivative_matrix(chart, xi, p)
    A = g @ N  # A[i, j] = g(nabla_{e_j} xi, e_i)
    return A + A.T


def divergence(chart: Chart, xi: FieldSpec, p) -> float:
    """Codifferential-sign divergence: returns -trace(nabla xi).

    The sign is chosen so that the conformal factor of a conformal field
    equals minus this value divided by the dimension.
    """
    chart.require_interior(p)
    return -float(np.trace(covariant_derivative_matrix(chart, xi, p)))


def gradient(chart: Chart, f: FieldSpec, p) -> TensorValue:
    """Metric gradient of a scalar field: (grad f)^i = g^{ij} d_j f."""
    chart.require_interior(p)
    if f.kind != "scalar":
        raise ChartError("gradient expects a scalar field")
    g, _, _ = metric_jets(chart, p, 0)
    df = eval_jet(f.expr, p, 1).d1
    return TensorValue(np.asarray(p, float), "u", spd_inverse(g) @ df)


def sharp(chart: Chart, w, p) -> TensorValue:
    """Raise a covector with the inverse metric."""
    chart.require_interior(p)
    g, _, _ = metric_jets(chart, p, 0)
    w = np.asarray(getattr(w, "components", w), dtype=float)
    return TensorValue(np.asarray(p, float), "u", spd_inverse(g) @ w)


def flat(chart: Chart, v, p) -> TensorValue:
    """Lower a vector with the metric."""
    chart.require_interior(p)
    g, _, _ = metric_jets(chart, p, 0)
    v = np.asarray(getattr(v, "components", v), dtype=float)
    return TensorValue(np.asarray(p, float), "d", g @ v)


# ---------------------------------------------------------------------------
# norms, frames, sampling

def norm_vector(g: np.ndarray, v: np.ndarray) -> float:
    return float(np.sqrt(max(v @ g @ v, 0.0)))


def norm_covector(ginv: np.ndarray, w: np.ndarray) -> float:
    return float(np.sqrt(max(w @ ginv @ w, 0.0)))


def norm_2form(ginv: np.ndarray, T: np.ndarray) -> float:
    val = np.einsum("ik,jl,ij,kl->", ginv, ginv, T, T)
    return float(np.sqrt(max(val, 0.0)))


def field_norm(chart: Chart, xi: FieldSpec, p) -> float:
    g, _, _ = metric_jets(chart, p, 0)
    return norm_vector(g, field_value(xi, p))


def mgs_orthonormalize(g: np.ndarray, vectors, tol: float = 1e-10):
    """Modified Gram-Schmidt in the inner product ``g``, rows in, rows out.

    Vectors that become numerically dependent are dropped.
    """
    basis = []
    for v in np.atleast_2d(np.asarray(vectors, dtype=float)):
        w = v.copy()
        for b in basis:
            w = w - (w @ g @ b) * b
        # second pass improves orthogonality at little cost
        for b in basis:
            w = w - (w @ g @ b) * b
        nrm = norm_vector(g, w)
        if nrm > tol * (1.0 + norm_vector(g, v)):
            basis.append(w / nrm)
    return np.array(basis) if basis else np.zeros((0, g.shape[0]))


def complete_orthonormal_frame(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g-orthonormal frame (rows) whose first vector is v normalized."""
    n = g.shape[0]
    candidates = [v] + [np.eye(n)[i] for i in range(n)]
    frame = mgs_orthonormalize(g, candidates)
    if frame.shape[0] != n:
        raise MetricError("failed to complete an orthonormal frame")
    return frame


def sample_interior(chart: Chart, count: int, rng, margin: float = 0.05) -> np.ndarray:
    """Seeded uniform samples in the domain box, shrunk by a relative margin."""
    u = rng.uniform(margin, 1.0 - margin, size=(count, chart.dim))
    return chart.lower + u * (chart.upper - chart.lower)
