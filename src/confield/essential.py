"""Zeros of conformal fields and their classification.

A zero x of a conformal field xi is called essential when no conformal
rescaling of the metric turns xi into a homothety near x.  The linear
criterion is that grad phi at x lies in the image of nabla xi at x, and the
zero is Killing for a rescaled metric iff moreover phi(x) = 0.  At a zero,
nabla xi = A + phi(x) I in a g-orthonormal frame, with A skew and ker A the
kernel of d(xi^flat).  So the verdict needs only the SVD of that one skew
form, from :func:`~confield.geometry.frame_svd`:

* phi(x) != 0 makes nabla xi invertible: the zero is homothetic;
* phi(x) = 0 leaves image nabla xi = (ker A)^perp: the zero is Killing for
  a rescaled metric iff grad phi has no part along ker d(xi^flat), and
  essential otherwise.

The criterion is stated for dimension at least three.  On a
surface a conformal field is holomorphic and its zeros are isolated;
``classify_zero`` reports a simple zero with skew invertible nabla xi as
Killing (it is holomorphically linearizable to a rotation, so xi is Killing
for a rescaled metric and the zero is its own component) and gives no
verdict for any other zero.

``classify_zero`` takes one zero or a stack of them; a stack is classified
from one batched evaluation of the 2-jets, one stacked SVD of the skew
forms, one draw of all the neighbourhood samples and one conformality
check over them.

``find_zeros`` locates zeros by a grid scan, in blocks of bounded size,
whose seeds ``polish_zeros`` moves onto xi = 0 all at once, as the lanes of
one damped Gauss-Newton iteration; tracing in :mod:`confield.zeroset`
corrects its patch nodes with the same routine.  Essential zeros are
singular, where Newton converges only linearly, with rate 1/2 (Decker,
Keller & Kelley 1983), so a lane whose step is about half its last one
first tries the doubled step, the Richardson limit of that tail (Griewank
1985).  A lane stops once its step is below the rounding unit of the box.
``limit_point_audit`` cross-checks the classified zeros against the
structure theory: non-isolated zeros must classify as Killing for a
rescaled metric, and essential zeros must be isolated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import CONFORMAL_TOL, is_conformal
from .expr import eval_values_many
from .geometry import (
    Chart,
    FieldSpec,
    field_data,
    field_jets,
    field_norm,
    frame_svd,
    norm_vector,
    sample_ball,
)

__all__ = [
    "VERDICT_KILLING",
    "VERDICT_HOMOTHETIC",
    "VERDICT_ESSENTIAL",
    "VERDICT_INVALID",
    "GRID_RESOLUTION",
    "ZERO_TOL",
    "CLASSIFICATION_TOL",
    "ISOLATION_RADIUS",
    "ClassificationDimensionError",
    "ZeroClassification",
    "classify_zero",
    "find_zeros",
    "polish_zeros",
    "ZeroAuditEntry",
    "LimitPointAudit",
    "limit_point_audit",
]

VERDICT_KILLING = "killing_inessential"
VERDICT_HOMOTHETIC = "homothetic_nonkilling"
VERDICT_ESSENTIAL = "essential"
VERDICT_INVALID = "invalid_not_conformal"

# Defaults of find_zeros, classify_zero and limit_point_audit, which the
# command line runs with and reports.
GRID_RESOLUTION = 12
ZERO_TOL = 1e-10
CLASSIFICATION_TOL = 1e-6
ISOLATION_RADIUS = 0.05

# find_zeros settings, described in its docstring
_MAX_SEEDS = 64
_NEWTON_ITERATIONS = 50
_BOUNDARY_MARGIN = 1e-3
_DEDUPE_DISTANCE = 1e-6
# grid points evaluated together in the scan of find_zeros
_GRID_BLOCK = 2048
# radius and sample count of the ball on which conformality is checked
# around a zero
_NEIGHBORHOOD = (0.05, 20)


class ClassificationDimensionError(ValueError):
    """The image criterion is only stated for dimension three and up."""


def _grid_points(chart: Chart, resolution: int) -> np.ndarray:
    """The resolution^n grid, row-major in the axes, as one (r^n, n) array
    filled by broadcasting each axis into its coordinate."""
    n = chart.dim
    grid = np.empty((resolution,) * n + (n,))
    for k, (lo, hi) in enumerate(zip(chart.lower, chart.upper)):
        pad = 0.02 * (hi - lo)
        grid[..., k] = np.linspace(lo + pad, hi - pad, resolution).reshape(
            (resolution,) + (1,) * (n - 1 - k))
    return grid.reshape(-1, n)


def _grid_norms(chart: Chart, xi: FieldSpec, points: np.ndarray) -> np.ndarray:
    """Squared metric norm of xi over the grid, evaluated and reduced in
    blocks of ``_GRID_BLOCK`` points, so only the norms outlive a block."""
    n = chart.dim
    norms = np.empty(len(points))
    for start in range(0, len(points), _GRID_BLOCK):
        block = points[start : start + _GRID_BLOCK]
        gvals = eval_values_many(chart.tape, block).reshape(n, n, -1)
        fvals = eval_values_many(xi.tape, block)
        norms[start : start + _GRID_BLOCK] = np.einsum("ijm,im,jm->m", gvals, fvals, fvals)
    return norms


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


def polish_zeros(chart: Chart, xi: FieldSpec, points, normals=None) -> tuple:
    """Damped least-squares Gauss-Newton onto xi = 0 from every row of ``points``.

    The rows are the lanes of one iteration.  Each lane carries the 1-jet
    of xi at its current point: one batched evaluation gives every lane's
    jet before the first iteration, and afterwards a lane takes the jet of
    the candidate it accepts, so the value that decided the step is also
    the data of the next one.  A lane steps by -J^+ xi, which handles
    singular Jacobians (zeros along curves, quadratic zeros); with
    ``normals``, rows spanning a subspace, J is taken on that span.  The
    step is halved, at most 30 times, while the candidate is outside the
    chart or does not lower |xi|; each halving evaluates the 1-jets of the
    candidates inside the chart in one batch, and none when no candidate
    is inside.  So a lane's last iterate is its best.  Where the Jacobian
    is singular at the zero, Newton's error halves each iteration, so a
    step s with s.d / |d|^2 in (0.4, 0.6), d the lane's last accepted
    displacement, starts its ladder at l = 2: the candidate x + 2s is the
    extrapolated limit, and one that does not descend falls back to
    l = 1, 1/2, ...  A lane stops at a step below the box's rounding unit
    eps (upper - lower) in every coordinate (a zero residual gives a zero
    step, and a coordinate converging to 0 never rounds its candidate to
    its own point), when no halving descends, or as soon as its candidate
    rounds to its current point in every coordinate: fl(x + l s) is
    monotone in l, so no smaller step could move it.  Lanes never mix.
    The iteration runs to machine precision, not to an acceptance
    tolerance: a singular zero stopped at a rounding-level residual can
    sit near |x| = 1e-7.  Returns the points and a mask of the lanes that
    converged: a lane still moving after ``_NEWTON_ITERATIONS`` has not.
    """
    x = np.array(points, dtype=float)
    basis = np.eye(chart.dim) if normals is None else normals
    val, jac, _ = field_jets(xi, x, 1)
    r = np.linalg.norm(val, axis=-1)
    live = np.ones(len(x), dtype=bool)
    last = np.zeros_like(x)
    unit = np.finfo(float).eps * (chart.upper - chart.lower)
    for _ in range(_NEWTON_ITERATIONS):
        lanes = np.flatnonzero(live)
        if not lanes.size:
            break
        step = -(np.linalg.pinv(jac[lanes] @ basis.T) @ val[lanes][..., None])[..., 0] @ basis
        pending = (np.abs(step) > unit).any(axis=-1)
        d = last[lanes]
        sd, dd = np.einsum("ij,ij->i", step, d), np.einsum("ij,ij->i", d, d)
        lam = np.where((0.4 * dd < sd) & (sd < 0.6 * dd), 2.0, 1.0)
        live[lanes] = False
        for _ in range(30):
            todo = np.flatnonzero(pending)
            if not todo.size:
                break
            base = x[lanes[todo]]
            cand = base + lam[todo, None] * step[todo]
            inside = np.flatnonzero(chart._inside(cand))
            down = np.zeros(len(todo), dtype=bool)
            if inside.size:
                cand_val, cand_jac, _ = field_jets(xi, cand[inside], 1)
                cand_r = np.linalg.norm(cand_val, axis=-1)
                better = cand_r < r[lanes[todo[inside]]]
                down[inside[better]] = True
                moved = lanes[todo[down]]
                x[moved] = cand[down]
                last[moved] = lam[todo[down], None] * step[todo[down]]
                val[moved], jac[moved], r[moved] = cand_val[better], cand_jac[better], cand_r[better]
                live[moved] = True
            # fl(base + lam * step) is monotone in lam, so a candidate that
            # rounds to its lane's point does so at every smaller lam
            pending[todo] = ~down & (cand != base).any(axis=-1)
            lam *= 0.5
    return x, ~live


def find_zeros(
    chart: Chart,
    xi: FieldSpec,
    grid_resolution: int = GRID_RESOLUTION,
    tol: float = ZERO_TOL,
) -> np.ndarray:
    """Zeros of xi inside the chart box, one row per zero.

    The grid is scanned in blocks of ``_GRID_BLOCK`` points, each one
    batched evaluation of the metric and field reduced to |xi|_g^2 before
    the next, so the scan holds the grid's norms and one block of values.
    Grid points that are axis-direction local minima of |xi|_g, the lowest
    ``_MAX_SEEDS`` of them, are polished together as the lanes of one
    :func:`polish_zeros` call.  Polished points are kept when they sit at
    least ``_BOUNDARY_MARGIN`` inside the box and their metric norm, from
    one batched evaluation, is below ``tol``.  Duplicates closer than
    ``_DEDUPE_DISTANCE`` collapse to the best residual, converged lanes
    first: one pairwise distance matrix, read greedily.  A lane the cap
    stopped is also dropped within ``ISOLATION_RADIUS`` of a converged one,
    as beside a degenerate zero it can pass ``tol`` microns away; at a zero
    of order 3, where every lane is cut off, it is the zero.  The result is
    sorted lexicographically on coordinates rounded to 12 decimals, so
    rounding noise (a coordinate of -1e-30 against 0) does not reorder it.
    """
    if grid_resolution < 3:
        raise ValueError("grid_resolution must be at least 3")
    points = _grid_points(chart, grid_resolution)
    norms = _grid_norms(chart, xi, points)
    mask = _local_minima_mask(norms, (grid_resolution,) * chart.dim)
    seeds = points[mask]
    order = np.argsort(norms[mask], kind="stable")
    seeds = seeds[order[:_MAX_SEEDS]]

    polished, converged = polish_zeros(chart, xi, seeds)
    residuals = field_norm(chart, xi, polished) if len(polished) else np.empty(0)
    accepted = chart._inside(polished, _BOUNDARY_MARGIN) & (residuals < tol)
    polished, residuals, converged = polished[accepted], residuals[accepted], converged[accepted]
    if not len(polished):
        return np.empty((0, chart.dim))

    order = np.lexsort((residuals, ~converged))
    polished, converged = polished[order], converged[order]
    distances = np.linalg.norm(polished[:, None, :] - polished[None, :, :], axis=-1)
    keep: list[int] = []
    for i, row in enumerate(distances):
        radius = np.where(converged[keep] & ~converged[i], ISOLATION_RADIUS, _DEDUPE_DISTANCE)
        if np.all(row[keep] > radius):
            keep.append(i)
    kept = polished[keep]
    key = np.round(kept, 12) + 0.0  # + 0.0 folds -0.0 to 0.0
    return kept[np.lexsort(key.T[::-1])]


@dataclass(frozen=True, eq=False)
class ZeroClassification:
    """First-order data and verdict at a zero of a conformal field.

    ``metric`` is g at the zero, from the same jets as the tensors, and
    ``normal_basis`` spans the g-orthogonal complement of ``kernel_basis``.
    On a surface ``verdict`` is ``None`` for a zero that no verdict covers.
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
    normal_basis: np.ndarray
    neighborhood_residual: float


def classify_zero(
    chart: Chart,
    xi: FieldSpec,
    x,
    tol: float = CLASSIFICATION_TOL,
    conformal_tol: float = CONFORMAL_TOL,
    rng=None,
) -> ZeroClassification | tuple:
    """Classify zeros as essential, homothetic, or Killing after rescaling.

    ``x`` is one point, classified as a batch of one into one
    :class:`ZeroClassification`, or an (m, n) array of points, classified
    together into a tuple of m (an empty array gives ``()``).  Every point
    must satisfy |xi|_g < tol; a row that does not, or is NaN, raises
    ``ValueError`` naming it.  The 2-jets of all points come from one
    :func:`~confield.geometry.field_data` call, and the SVDs of d(xi^flat)
    in g-orthonormal frames at all points from one stacked
    :func:`~confield.geometry.frame_svd` call.  The verdict is read from
    that SVD: |phi| >= ``tol`` gives
    ``homothetic_nonkilling`` and an ``image_residual`` of 0, since nabla xi
    is then invertible; otherwise ``image_residual`` is the length of the
    part of grad phi along the kernel of d(xi^flat), and the zero is
    ``essential`` when it reaches ``tol`` relative to the gradient size, and
    ``killing_inessential`` when it does not.  Conformality of xi is
    first verified on a ``_NEIGHBORHOOD`` sample ball around each zero, the
    balls of all zeros drawn from ``rng`` in one stacked
    :func:`~confield.geometry.sample_ball` call and checked in one
    :func:`~confield.conformal.is_conformal` call, and a failure
    short-circuits to the ``invalid_not_conformal`` verdict.  Both bases
    are row slices of one stacked product of the SVD factors.

    On a surface the image criterion does not apply.  A zero with
    |phi| < ``tol`` and a trivial kernel of d(xi^flat) is a simple zero
    with skew invertible nabla xi and gets ``killing_inessential``; every
    other zero of a conformal field gets the verdict ``None``.
    """
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x)
    if not len(points):
        return ()
    chart.require_interior(points)
    fd = field_data(chart, xi, points, 2)
    norms = norm_vector(fd.conn.g, fd.value)
    for row, norm in enumerate(norms):
        if not norm < tol:
            raise ValueError(
                f"classify_zero expects a zero of the field: row {row} has |xi|_g = {norm}"
            )
    if rng is None:
        rng = np.random.default_rng(0)
    samples = sample_ball(chart, points, *_NEIGHBORHOOD, rng)
    report = is_conformal(chart, xi, samples.reshape(-1, chart.dim), conformal_tol)
    # each zero's worst residual over its own ball; a NaN stays NaN
    neighborhood = report.residuals.reshape(len(points), -1).max(axis=1)

    n = chart.dim
    dxi_svd = frame_svd(fd.conn.factor, fd.M, "skew_form")
    kernel_dim = n - dxi_svd.rank
    # in the frame nabla xi = A + phi I with A skew and ker A = ker M: it is
    # invertible for phi != 0, else its image is the complement of ker M
    b_frame = (dxi_svd.Linv @ fd.dphi[:, :, None])[:, :, 0]
    along = (dxi_svd.Vt @ b_frame[:, :, None])[:, :, 0]
    along[np.arange(n) < dxi_svd.rank[:, None]] = 0.0
    image_residual = np.where(np.abs(fd.phi) >= tol, 0.0, np.linalg.norm(along, axis=1))
    b_scale = np.linalg.norm(b_frame, axis=1)
    # row a of frame_rows[i] is Vt[i, a] in chart coordinates; rows rank[i]
    # and on span zero i's kernel, the rows before them its complement
    frame_rows = dxi_svd.Vt @ dxi_svd.Linv

    classes = []
    for i, (phi, residual) in enumerate(zip(fd.phi.tolist(), neighborhood.tolist())):
        if not residual < conformal_tol:
            verdict = VERDICT_INVALID
        elif n < 3:
            verdict = VERDICT_KILLING if abs(phi) < tol and kernel_dim[i] == 0 else None
        elif image_residual[i] < tol * (1.0 + b_scale[i]):
            verdict = VERDICT_KILLING if abs(phi) < tol else VERDICT_HOMOTHETIC
        else:
            verdict = VERDICT_ESSENTIAL
        classes.append(ZeroClassification(
            point=points[i],
            metric=fd.conn.g[i],
            verdict=verdict,
            phi=phi,
            dphi=fd.dphi[i],
            dxi=fd.M[i],
            image_residual=float(image_residual[i]),
            kernel_dim=int(kernel_dim[i]),
            rank_dxi=int(dxi_svd.rank[i]),
            kernel_basis=frame_rows[i, dxi_svd.rank[i]:],
            normal_basis=frame_rows[i, :dxi_svd.rank[i]],
            neighborhood_residual=residual,
        ))
    return classes[0] if x.ndim == 1 else tuple(classes)


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


def limit_point_audit(classifications, radius: float = ISOLATION_RADIUS) -> LimitPointAudit:
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
    # distances[i, j] = |zeros[j] - zeros[i]|, a zero's own distance infinite
    distances = (np.linalg.norm(zeros[None, :, :] - zeros[:, None, :], axis=-1)
                 if len(zeros) else np.empty((0, 0)))
    np.fill_diagonal(distances, np.inf)
    for z, cls, row in zip(zeros, classifications, distances):
        nearest = float(row.min())
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
