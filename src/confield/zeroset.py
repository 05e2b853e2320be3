"""Zero set components as patches, with umbilicity diagnostics.

Near a zero x where a conformal field is Killing for some rescaled metric,
the zero set is a submanifold tangent at x to the kernel of the derivative
2-form.  ``trace_component`` builds a patch of it as a graph over that
tangent space: a parameter t, a coordinate in the g-orthonormal kernel
frame at x, is moved from x + t.kernel onto xi = 0 along the normal space
by Gauss-Newton steps, the corrector step of Allgower & Georg, *Numerical
Continuation Methods* (1990), ch. 3.  The patch records the field on its
parameter grid; ``second_fundamental_form`` measures its extrinsic
curvature; ``umbilicity_report`` decides whether the patch is totally
umbilical (all second fundamental form values proportional to the induced
metric with a common mean curvature vector).

The second fundamental form comes from exact jets of the field at a grid
node.  On the zero set N, nabla xi vanishes on TN and is invertible on the
normal space, and one more derivative along N gives

    B(X, Y) = -(nabla xi|_{TN^perp})^{-1} (nabla^2 xi)(X, Y).

At a zero, nabla xi is the same for every metric in a conformal class, so a
patch traced under g serves a rescaled chart as well: the metric is an
explicit argument of the curvature routines rather than being read off the
patch, and ``umbilicity_report(rescale_metric(chart, f), patch)`` checks the
conformal invariance of total umbilicity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .conformal import is_conformal
from .essential import (
    VERDICT_KILLING,
    _ball_sample,
    classify_zero,
    frame_svd,
)
from .geometry import (
    Chart,
    FieldSpec,
    field_data,
    field_jets,
    field_norm,
    norm_vector,
)

__all__ = [
    "PatchError",
    "OffZeroSetError",
    "SubmanifoldPatch",
    "trace_component",
    "SecondFundamentalData",
    "second_fundamental_form",
    "UmbilicityReport",
    "umbilicity_report",
]

VERDICT_UMBILICAL = "totally_umbilical"
VERDICT_NOT_UMBILICAL = "not_umbilical"
VERDICT_POINT = "point"

# The corrector onto xi = 0 stops at a step below rounding, or after
# _CORRECTOR_STEPS Gauss-Newton steps; a sample it leaves off the zero set
# is refused by the verification.
_ROUNDING = 8.0 * np.finfo(float).eps
_CORRECTOR_STEPS = 20


class PatchError(RuntimeError):
    """A zero set patch could not be built or queried as requested."""


class OffZeroSetError(PatchError):
    """A traced patch failed verification: a sample is not a zero."""


@dataclass(frozen=True, eq=False)
class SubmanifoldPatch:
    """Piece of the zero set of ``field``, sampled on a parameter grid.

    ``mapping`` sends a parameter vector of length k to chart coordinates
    on the zero set and is smooth; ``samples`` and ``field_norms`` hold it
    and |field|_g at the grid nodes.  For k = 0 the patch is a single point
    and ``samples`` has shape (dim,).
    """

    chart: Chart
    base: np.ndarray
    tangent_basis: np.ndarray
    param_axes: tuple
    samples: np.ndarray
    field_norms: np.ndarray
    codim: int
    mapping: Callable[[np.ndarray], np.ndarray]
    field: FieldSpec

    @property
    def k(self) -> int:
        return len(self.param_axes)

    @property
    def grid_shape(self) -> tuple:
        return tuple(len(a) for a in self.param_axes)

    @property
    def max_field_norm(self) -> float:
        return float(self.field_norms.max())


def trace_component(
    chart: Chart,
    xi: FieldSpec,
    x,
    radius: float = 0.3,
    grid: int = 5,
    class_tol: float = 1e-6,
    conformal_tol: float = 1e-7,
    verify_tol: float = 1e-5,
    rng=None,
) -> SubmanifoldPatch:
    """Patch of the zero set component through the zero x.

    The parameter t is a coordinate in the g-orthonormal frame of the
    kernel of the derivative 2-form at x; the grid has side ``2 radius``.
    The point for t is x + t.kernel corrected onto xi = 0 along the normal
    space at x (the rows g-orthogonal to the kernel) by Gauss-Newton, so
    the patch is the zero set as a graph over its tangent space at x and,
    by the implicit function theorem, smooth in t.  A correction that
    leaves the chart raises :class:`PatchError`.  For a zero with a trivial
    kernel the patch is that one point.

    In dimension three and up the zero must classify as Killing after
    rescaling; in dimension two (where that classification is unavailable)
    conformality and phi(x) = 0 are checked directly.  Every sampled point
    is verified to be a zero within ``verify_tol`` as soon as it is
    mapped; :class:`OffZeroSetError` reports the first sample off the zero
    set.
    """
    if grid < 3 or grid % 2 == 0:
        raise ValueError("grid must be an odd integer >= 3 so the base is a node")
    x = np.asarray(x, dtype=float)
    chart.require_interior(x)
    if rng is None:
        rng = np.random.default_rng(0)

    if chart.dim >= 3:
        cls = classify_zero(
            chart, xi, x, tol=class_tol, conformal_tol=conformal_tol, rng=rng
        )
        if cls.verdict != VERDICT_KILLING:
            raise PatchError(
                "zero set tracing requires a zero that is Killing for a "
                f"rescaled metric, got verdict {cls.verdict!r}"
            )
        kernel = cls.kernel_basis
        g = cls.metric
    else:
        fd = field_data(chart, xi, x, 1)
        g = fd.conn.g
        if not norm_vector(g, fd.value) < class_tol:
            raise PatchError("trace_component expects a zero of the field")
        report = is_conformal(
            chart, xi, _ball_sample(chart, x, 0.05, 20, rng), conformal_tol
        )
        if not report.conformal:
            raise PatchError("field is not conformal near the zero")
        if not abs(fd.phi) < class_tol:
            raise PatchError("tracing in dimension two needs phi = 0 at the zero")
        kernel = frame_svd(g, fd.M, "skew_form").kernel

    k = kernel.shape[0]
    n = chart.dim
    # Rows spanning the normal space at x, g-orthogonal to the kernel.
    normals = np.linalg.svd(kernel @ g)[2][k:]

    def mapping(t):
        y0 = x + np.asarray(t, dtype=float) @ kernel
        s = np.zeros(n - k)
        for _ in range(_CORRECTOR_STEPS):
            y = y0 + s @ normals
            if not chart.contains(y):
                raise PatchError(f"the corrector onto xi = 0 leaves the chart at t = {t}")
            val, jac, _ = field_jets(xi, y, 1)
            step = np.linalg.lstsq(jac @ normals.T, -val, rcond=None)[0]
            if np.linalg.norm(step) <= _ROUNDING * (1.0 + np.linalg.norm(y)):
                break
            s = s + step
        return y

    param_axes = tuple(np.linspace(-radius, radius, grid) for _ in range(k))
    shape = (grid,) * k
    samples = np.empty(shape + (n,))
    norms = np.empty(shape)
    for idx in np.ndindex(*shape):
        t = np.array([param_axes[a][idx[a]] for a in range(k)])
        samples[idx] = mapping(t)
        norms[idx] = field_norm(chart, xi, samples[idx])
        if not norms[idx] < verify_tol:
            raise OffZeroSetError(
                f"traced patch leaves the zero set: |xi|_g = {norms[idx]:.3e} "
                f"at t = {t} exceeds {verify_tol:.1e}"
            )
    return SubmanifoldPatch(
        chart=chart,
        base=x.copy(),
        tangent_basis=kernel,
        param_axes=param_axes,
        samples=samples,
        field_norms=norms,
        codim=n - k,
        mapping=mapping,
        field=xi,
    )


@dataclass(frozen=True, eq=False)
class SecondFundamentalData:
    """Second fundamental form of a patch at one grid node.

    ``normal_form[a, b]`` is B(e_a, e_b) for the g-orthonormal frame
    ``tangent_frame`` (rows e_a) of the patch at ``point``; ``metric`` is g
    at ``point``.
    """

    point: np.ndarray
    metric: np.ndarray
    normal_form: np.ndarray
    mean_curvature: np.ndarray
    tangent_frame: np.ndarray


def second_fundamental_form(
    chart: Chart,
    patch: SubmanifoldPatch,
    index,
) -> SecondFundamentalData:
    """B and the mean curvature vector at a grid node.

    ``chart`` supplies the ambient metric and may differ from
    ``patch.chart`` (rescaled metrics reuse the same patch).

    Everything comes from exact jets of the field at the node point
    ``patch.samples[index]``, with no further evaluation of the mapping:
    the tangent frame is the g-orthonormal kernel of nabla xi there, and B
    solves nabla xi B(X, Y) = -(nabla^2 xi)(X, Y) on the normal space
    through the pseudo-inverse.  No neighbouring node is used, so boundary
    nodes are as good as interior ones.
    """
    k = patch.k
    if k == 0:
        raise PatchError("a point patch has no second fundamental form")
    index = tuple(int(i) for i in np.atleast_1d(np.asarray(index, dtype=int)))
    if len(index) != k:
        raise PatchError(f"index must have {k} entries")
    p = np.array(patch.samples[index], dtype=float)
    fd = field_data(chart, patch.field, p, 2)
    nabla_svd = frame_svd(fd.conn.g, fd.N, "endomorphism")
    frame = nabla_svd.kernel
    if frame.shape[0] != k:
        raise PatchError(
            f"nabla xi has a {frame.shape[0]}-dimensional kernel at this node "
            f"of a {k}-dimensional patch"
        )
    hess = np.einsum("ijk,aj,bk->abi", fd.H, frame, frame)
    B = -nabla_svd.solve(hess)
    # Symmetric up to the curvature term R(X, Y) xi, which vanishes on the
    # zero set; keep B exactly symmetric.
    B = 0.5 * (B + B.transpose(1, 0, 2))
    return SecondFundamentalData(
        point=p,
        metric=fd.conn.g,
        normal_form=B,
        mean_curvature=np.einsum("aak->k", B) / k,
        tangent_frame=frame,
    )


@dataclass(frozen=True, eq=False)
class UmbilicityReport:
    verdict: str
    max_residual: float
    residuals: np.ndarray
    mean_curvature_norms: np.ndarray
    codim: int
    codim_even: bool
    tolerance: float
    indices: tuple
    points: np.ndarray


def _interior_indices(patch: SubmanifoldPatch, cap: int = 40):
    ranges = [range(1, len(axis) - 1) for axis in patch.param_axes]
    all_idx = list(product(*ranges))
    if len(all_idx) <= cap:
        return all_idx
    stride = int(math.ceil(len(all_idx) / cap))
    return all_idx[::stride]


def umbilicity_report(
    chart: Chart,
    patch: SubmanifoldPatch,
    tol: float = 1e-4,
) -> UmbilicityReport:
    """Umbilicity verdict over the interior grid nodes of a patch.

    The residual at a node is sqrt(sum_ab |B_ab - h_ab H|_g^2); the patch
    is reported totally umbilical when the worst node stays below ``tol``.
    Point patches get the verdict "point" with zero residual.
    """
    if patch.k == 0:
        return UmbilicityReport(
            verdict=VERDICT_POINT,
            max_residual=0.0,
            residuals=np.zeros(0),
            mean_curvature_norms=np.zeros(0),
            codim=patch.codim,
            codim_even=patch.codim % 2 == 0,
            tolerance=float(tol),
            indices=(),
            points=np.asarray(patch.samples)[None, :],
        )
    indices = _interior_indices(patch)
    residuals = np.empty(len(indices))
    hnorms = np.empty(len(indices))
    points = np.empty((len(indices), chart.dim))
    for m, idx in enumerate(indices):
        data = second_fundamental_form(chart, patch, idx)
        g = data.metric
        diff = data.normal_form - np.einsum(
            "ab,k->abk", np.eye(patch.k), data.mean_curvature
        )
        residuals[m] = math.sqrt(
            sum(
                norm_vector(g, diff[a, b]) ** 2
                for a in range(patch.k)
                for b in range(patch.k)
            )
        )
        hnorms[m] = norm_vector(g, data.mean_curvature)
        points[m] = data.point
    worst = float(residuals.max())
    return UmbilicityReport(
        verdict=VERDICT_UMBILICAL if worst < tol else VERDICT_NOT_UMBILICAL,
        max_residual=worst,
        residuals=residuals,
        mean_curvature_norms=hnorms,
        codim=patch.codim,
        codim_even=patch.codim % 2 == 0,
        tolerance=float(tol),
        indices=tuple(indices),
        points=points,
    )
