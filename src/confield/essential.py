"""Zeros of conformal fields and their classification.

A zero x of a conformal field xi is called essential when no conformal
rescaling of the metric turns xi into a homothety near x.  The linear
criterion implemented here works entirely from first-order data at x:

* xi is homothetic for some rescaled metric iff grad phi at x lies in the
  image of the endomorphism nabla xi at x,
* it is Killing for some rescaled metric iff additionally phi(x) = 0.

Both conditions are evaluated in the g-orthonormal frame of
:func:`~confield.geometry.frame_svd`, from the Cholesky factor of the
metric, so the singular value analysis is done on honestly symmetric/skew
matrices.  The criterion is stated for dimension at least three.  On a
surface a conformal field is holomorphic and its zeros are isolated;
``classify_zero`` reports a simple zero with skew invertible nabla xi as
Killing (it is holomorphically linearizable to a rotation, so xi is Killing
for a rescaled metric and the zero is its own component) and gives no
verdict for any other zero.

``find_zeros`` locates zeros by a grid scan followed by damped Newton
polishing, and ``limit_point_audit`` cross-checks the classified zeros
against the structure theory: non-isolated zeros must classify as Killing for a
rescaled metric, and essential zeros must be isolated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import is_conformal
from .expr import eval_values_many
from .geometry import (
    Chart,
    FieldSpec,
    field_data,
    field_jets,
    field_norm,
    field_value,
    frame_svd,
    norm_vector,
    sample_ball,
)

__all__ = [
    "VERDICT_KILLING",
    "VERDICT_HOMOTHETIC",
    "VERDICT_ESSENTIAL",
    "VERDICT_INVALID",
    "ClassificationDimensionError",
    "ZeroClassification",
    "classify_zero",
    "find_zeros",
    "ZeroAuditEntry",
    "LimitPointAudit",
    "limit_point_audit",
]

VERDICT_KILLING = "killing_inessential"
VERDICT_HOMOTHETIC = "homothetic_nonkilling"
VERDICT_ESSENTIAL = "essential"
VERDICT_INVALID = "invalid_not_conformal"

# find_zeros settings, described in its docstring
_MAX_SEEDS = 64
_NEWTON_ITERATIONS = 50
_BOUNDARY_MARGIN = 1e-3
_DEDUPE_DISTANCE = 1e-6
# radius and sample count of the ball on which conformality is checked
# around a zero
_NEIGHBORHOOD = (0.05, 20)


class ClassificationDimensionError(ValueError):
    """The image criterion is only stated for dimension three and up."""


def _grid_points(chart: Chart, resolution: int) -> np.ndarray:
    axes = []
    for lo, hi in zip(chart.lower, chart.upper):
        pad = 0.02 * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, resolution))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in grids], axis=-1)


def _grid_norms(chart: Chart, xi: FieldSpec, points: np.ndarray) -> np.ndarray:
    """Squared metric norm of xi over the grid, in one batched evaluation."""
    n = chart.dim
    exprs = list(chart.metric_entries()) + list(xi.components)
    vals = eval_values_many(exprs, points)
    gvals = vals[: n * n].reshape(n, n, -1)
    fvals = vals[n * n :]
    return np.einsum("ijm,im,jm->m", gvals, fvals, fvals)


def _local_minima_mask(norms: np.ndarray, shape) -> np.ndarray:
    arr = norms.reshape(shape)
    mask = np.ones(shape, dtype=bool)
    for axis in range(arr.ndim):
        fwd = np.ones(shape, dtype=bool)
        bwd = np.ones(shape, dtype=bool)
        sl_lo = [slice(None)] * arr.ndim
        sl_hi = [slice(None)] * arr.ndim
        sl_lo[axis] = slice(None, -1)
        sl_hi[axis] = slice(1, None)
        fwd[tuple(sl_lo)] = arr[tuple(sl_lo)] <= arr[tuple(sl_hi)]
        bwd[tuple(sl_hi)] = arr[tuple(sl_hi)] <= arr[tuple(sl_lo)]
        mask &= fwd & bwd
    return mask.ravel()


def _newton_polish(chart: Chart, xi: FieldSpec, seed: np.ndarray):
    """Damped least-squares Newton on xi(x) = 0, keeping the best iterate.

    The least-squares step handles singular Jacobians (zeros along curves,
    quadratic zeros) where plain Newton would blow up; damping halves the
    step until the Euclidean residual decreases.  The loop runs to machine
    precision rather than to the acceptance tolerance because quadratic
    zeros only gain one bit of accuracy per iteration.  It stops on an
    all-zero step, which no damping turns into a descent (a constant field
    gives one at every point).
    """
    x = np.asarray(seed, dtype=float).copy()
    best_x = x.copy()
    best_r = float(np.linalg.norm(field_value(xi, x)))
    for _ in range(_NEWTON_ITERATIONS):
        val, jac, _ = field_jets(xi, x, 1)
        r = float(np.linalg.norm(val))
        if r < best_r:
            best_r = r
            best_x = x.copy()
        if r == 0.0:
            break
        step, *_ = np.linalg.lstsq(jac, -val, rcond=None)
        if not step.any():
            break
        lam = 1.0
        moved = False
        for _ in range(30):
            cand = x + lam * step
            if chart.contains(cand):
                cr = float(np.linalg.norm(field_value(xi, cand)))
                if cr < r:
                    x = cand
                    moved = True
                    break
            lam *= 0.5
        if not moved:
            break
    return best_x, best_r


def find_zeros(
    chart: Chart,
    xi: FieldSpec,
    grid_resolution: int = 12,
    tol: float = 1e-10,
) -> np.ndarray:
    """Zeros of xi inside the chart box, one row per zero.

    Grid points that are axis-direction local minima of |xi|_g seed a
    damped Newton iteration of ``_NEWTON_ITERATIONS`` steps, the lowest
    ``_MAX_SEEDS`` of them; polished points are kept when their metric norm
    is below ``tol`` and they sit at least ``_BOUNDARY_MARGIN`` inside the
    box.  Duplicates closer than ``_DEDUPE_DISTANCE`` collapse to the best
    residual and the result is sorted lexicographically.
    """
    if grid_resolution < 3:
        raise ValueError("grid_resolution must be at least 3")
    points = _grid_points(chart, grid_resolution)
    norms = _grid_norms(chart, xi, points)
    mask = _local_minima_mask(norms, (grid_resolution,) * chart.dim)
    seeds = points[mask]
    order = np.argsort(norms[mask], kind="stable")
    seeds = seeds[order[:_MAX_SEEDS]]

    accepted: list[np.ndarray] = []
    residuals: list[float] = []
    for seed in seeds:
        x, _ = _newton_polish(chart, xi, seed)
        if not chart.contains(x, _BOUNDARY_MARGIN):
            continue
        r = field_norm(chart, xi, x)
        if not r < tol:
            continue
        accepted.append(x)
        residuals.append(r)
    if not accepted:
        return np.empty((0, chart.dim))

    by_quality = np.argsort(np.asarray(residuals), kind="stable")
    kept: list[np.ndarray] = []
    for idx in by_quality:
        x = accepted[idx]
        if all(np.linalg.norm(x - y) > _DEDUPE_DISTANCE for y in kept):
            kept.append(x)
    kept.sort(key=lambda p: tuple(p))
    return np.asarray(kept)


@dataclass(frozen=True, eq=False)
class ZeroClassification:
    """First-order data and verdict at a zero of a conformal field.

    ``metric`` is g at the zero, from the same jets as the tensors.  On a
    surface ``verdict`` is ``None`` for a zero that no verdict covers.
    """

    point: np.ndarray
    metric: np.ndarray
    verdict: str | None
    phi: float
    dphi: np.ndarray
    dxi: np.ndarray
    image_residual: float
    kernel_dim: int
    rank_dxi: int
    kernel_basis: np.ndarray
    neighborhood_residual: float


def classify_zero(
    chart: Chart,
    xi: FieldSpec,
    x,
    tol: float = 1e-6,
    conformal_tol: float = 1e-7,
    rng=None,
) -> ZeroClassification:
    """Classify a zero as essential, homothetic, or Killing after rescaling.

    x must satisfy |xi(x)|_g < tol.  The verdict is derived from whether
    grad phi lies in the image of nabla xi (within ``tol`` relative to the
    gradient size) and whether phi vanishes; conformality of xi is first
    verified on a ``_NEIGHBORHOOD`` sample ball around x, and a failure
    short-circuits to the ``invalid_not_conformal`` verdict.

    On a surface the image criterion does not apply.  A zero with
    |phi| < ``tol`` and a trivial kernel of d(xi^flat) is a simple zero
    with skew invertible nabla xi and gets ``killing_inessential``; every
    other zero of a conformal field gets the verdict ``None``.
    """
    x = np.asarray(x, dtype=float)
    chart.require_interior(x)
    fd = field_data(chart, xi, x, 2)
    g, N, M, phi, dphi = fd.conn.g, fd.N, fd.M, fd.phi, fd.dphi
    if not norm_vector(g, fd.value) < tol:
        raise ValueError("classify_zero expects a zero of the field")
    if rng is None:
        rng = np.random.default_rng(0)

    nabla_svd = frame_svd(g, N, "endomorphism")
    b_frame = nabla_svd.Linv @ dphi
    Ur = nabla_svd.U[:, : nabla_svd.rank]
    proj = Ur @ (Ur.T @ b_frame)
    image_residual = float(np.linalg.norm(b_frame - proj))
    b_scale = float(np.linalg.norm(b_frame))

    dxi_svd = frame_svd(g, M, "skew_form")
    rank_dxi = dxi_svd.rank
    kernel_dim = chart.dim - rank_dxi
    kernel_basis = dxi_svd.kernel

    samples = sample_ball(chart, x, *_NEIGHBORHOOD, rng)
    report = is_conformal(chart, xi, samples, conformal_tol)

    if not report.conformal:
        verdict = VERDICT_INVALID
    elif chart.dim < 3:
        verdict = VERDICT_KILLING if abs(phi) < tol and kernel_dim == 0 else None
    elif image_residual < tol * (1.0 + b_scale):
        verdict = VERDICT_KILLING if abs(phi) < tol else VERDICT_HOMOTHETIC
    else:
        verdict = VERDICT_ESSENTIAL

    return ZeroClassification(
        point=x,
        metric=g,
        verdict=verdict,
        phi=phi,
        dphi=dphi,
        dxi=M,
        image_residual=image_residual,
        kernel_dim=kernel_dim,
        rank_dxi=rank_dxi,
        kernel_basis=kernel_basis,
        neighborhood_residual=report.max_residual,
    )


@dataclass(frozen=True, eq=False)
class ZeroAuditEntry:
    point: np.ndarray
    verdict: str
    phi: float
    isolated: bool
    nearest_distance: float


@dataclass(frozen=True, eq=False)
class LimitPointAudit:
    """Cross-check of found zeros against the limit point structure."""

    entries: tuple
    assertions: dict
    passed: bool
    radius: float


def limit_point_audit(classifications, radius: float = 0.05) -> LimitPointAudit:
    """Check isolation/verdict consistency over a set of classified zeros.

    ``classifications`` are the :class:`ZeroClassification` of the found
    zeros.  A zero with another zero closer than ``radius`` is treated as
    non-isolated.  Non-isolated zeros must classify as Killing after a
    rescaling (limit points of the zero set force phi = 0 and the gradient
    condition), and essential zeros must be isolated.
    """
    zeros = np.array([cls.point for cls in classifications], dtype=float)
    entries = []
    non_isolated_ok = True
    essential_ok = True
    for i, (z, cls) in enumerate(zip(zeros, classifications)):
        others = np.delete(zeros, i, axis=0)
        nearest = float(np.min(np.linalg.norm(others - z, axis=1))) if len(others) else np.inf
        isolated = nearest >= radius
        if not isolated and cls.verdict != VERDICT_KILLING:
            non_isolated_ok = False
        if cls.verdict == VERDICT_ESSENTIAL and not isolated:
            essential_ok = False
        entries.append(
            ZeroAuditEntry(
                point=z,
                verdict=cls.verdict,
                phi=cls.phi,
                isolated=isolated,
                nearest_distance=nearest,
            )
        )
    assertions = {
        "non_isolated_zeros_are_killing_inessential": non_isolated_ok,
        "essential_zeros_isolated": essential_ok,
    }
    return LimitPointAudit(
        entries=tuple(entries),
        assertions=assertions,
        passed=bool(non_isolated_ok and essential_ok),
        radius=float(radius),
    )
