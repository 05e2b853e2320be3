"""Zero set components as patches, with umbilicity diagnostics.

Near a zero x where a conformal field is Killing for some rescaled metric,
the zero set is a submanifold tangent at x to the kernel of the derivative
2-form; on a surface such a zero is isolated.  ``trace_component`` takes
the ``classify_zero`` result at x, which carries that verdict, the kernel
and the metric, and builds a patch of the zero set as a graph over the
tangent space: a parameter t, a coordinate in the g-orthonormal kernel
frame at x, is moved from x + t.kernel onto xi = 0 along the normal space
by Gauss-Newton steps, the corrector step of Allgower & Georg, *Numerical
Continuation Methods* (1990), ch. 3.  The patch records the field on its
parameter grid.  ``second_fundamental_form`` measures the extrinsic
curvature of the zero set at an array of its points, in one batched
evaluation; ``umbilicity_report`` runs it over the interior nodes of a
patch and decides whether the patch is totally umbilical (all second
fundamental form values proportional to the induced metric with a common
mean curvature vector).

The second fundamental form comes from exact jets of the field at a point
of the zero set.  On the zero set N, nabla xi vanishes on TN and is
invertible on the normal space, and one more derivative along N gives

    B(X, Y) = -(nabla xi|_{TN^perp})^{-1} (nabla^2 xi)(X, Y).

At a zero, nabla xi is the same for every metric in a conformal class, so a
patch traced under g serves a rescaled chart as well: the metric is an
explicit argument of the curvature routines rather than being read off the
patch, and ``umbilicity_report(rescale_metric(chart, f), patch)`` checks the
conformal invariance of total umbilicity.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .essential import VERDICT_KILLING, ZeroClassification
from .geometry import (
    Chart,
    FieldSpec,
    field_data,
    field_jets,
    field_norm,
    frame_svd,
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
# is refused by the verification, which accepts |xi|_g below _VERIFY_TOL.
_ROUNDING = 8.0 * np.finfo(float).eps
_CORRECTOR_STEPS = 20
_VERIFY_TOL = 1e-5


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
    zero: ZeroClassification,
    radius: float = 0.3,
    grid: int = 5,
) -> SubmanifoldPatch:
    """Patch of the zero set component through a classified zero.

    ``zero`` is the :func:`~confield.essential.classify_zero` result at
    the zero x; tracing needs its verdict to be Killing after rescaling
    and reads x, g and the kernel of the derivative 2-form from it.  The
    parameter t is a coordinate in the g-orthonormal frame of that kernel;
    the grid has side ``2 radius``.  The point for t is x + t.kernel
    corrected onto xi = 0 along the normal space at x (the rows
    g-orthogonal to the kernel) by Gauss-Newton, so the patch is the zero
    set as a graph over its tangent space at x and, by the implicit
    function theorem, smooth in t.  A correction that leaves the chart
    raises :class:`PatchError`.  For a zero with a trivial kernel (every
    Killing-type zero on a surface) the patch is that one point.

    Every sampled point is verified to be a zero within ``_VERIFY_TOL`` as
    soon as it is mapped; :class:`OffZeroSetError` reports the first
    sample off the zero set.
    """
    if grid < 3 or grid % 2 == 0:
        raise ValueError("grid must be an odd integer >= 3 so the base is a node")
    if zero.verdict != VERDICT_KILLING:
        raise PatchError(
            "zero set tracing requires a zero that is Killing for a "
            f"rescaled metric, got verdict {zero.verdict!r}"
        )
    x, kernel, g = zero.point, zero.kernel_basis, zero.metric

    k = kernel.shape[0]
    n = chart.dim
    # g-orthonormal rows spanning the normal space at x: the kernel of the
    # g-orthogonal projector kernel.T @ kernel @ g onto the tangent space.
    normals = frame_svd(g, kernel.T @ kernel @ g, "endomorphism").kernel

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
        if not norms[idx] < _VERIFY_TOL:
            raise OffZeroSetError(
                f"traced patch leaves the zero set: |xi|_g = {norms[idx]:.3e} "
                f"at t = {t} exceeds {_VERIFY_TOL:.1e}"
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
    """Second fundamental form of a k-dimensional zero set at m points.

    Every array has a leading axis of length m.  ``normal_form[i, a, b]``
    is B(e_a, e_b) for the g-orthonormal frame ``tangent_frame[i]`` (rows
    e_a) of the zero set at ``points[i]``; ``metric[i]`` is g there.
    """

    points: np.ndarray
    metric: np.ndarray
    normal_form: np.ndarray
    mean_curvature: np.ndarray
    tangent_frame: np.ndarray


def second_fundamental_form(
    chart: Chart,
    xi: FieldSpec,
    points,
    k: int,
) -> SecondFundamentalData:
    """B and the mean curvature vector at an (m, n) array of zero set points.

    ``chart`` supplies the ambient metric; a zero set traced under g serves
    a rescaled chart as well.  Everything comes from one batched evaluation
    of the 2-jets of the metric and of ``xi`` at the points: at each point
    the tangent frame is the g-orthonormal kernel of nabla xi, which must
    have dimension ``k``, and B solves nabla xi B(X, Y) = -(nabla^2 xi)(X, Y)
    on the normal space through the pseudo-inverse.  No neighbouring point
    is used, so the boundary nodes of a patch are as good as interior ones.
    """
    if k == 0:
        raise PatchError("a point patch has no second fundamental form")
    points = np.asarray(points, dtype=float)
    fd = field_data(chart, xi, points, 2)
    B = np.empty((len(points), k, k, chart.dim))
    frames = np.empty((len(points), k, chart.dim))
    for i, (g, N, H) in enumerate(zip(fd.conn.g, fd.N, fd.H)):
        nabla_svd = frame_svd(g, N, "endomorphism")
        frame = nabla_svd.kernel
        if frame.shape[0] != k:
            raise PatchError(
                f"nabla xi has a {frame.shape[0]}-dimensional kernel at "
                f"{points[i].tolist()}, on a {k}-dimensional zero set"
            )
        frames[i] = frame
        B[i] = -nabla_svd.solve(np.einsum("ijk,aj,bk->abi", H, frame, frame))
    # Symmetric up to the curvature term R(X, Y) xi, which vanishes on the
    # zero set; keep B exactly symmetric.
    B = 0.5 * (B + B.swapaxes(1, 2))
    return SecondFundamentalData(
        points=points,
        metric=fd.conn.g,
        normal_form=B,
        mean_curvature=np.einsum("...aak->...k", B) / k,
        tangent_frame=frames,
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


def umbilicity_report(
    chart: Chart,
    patch: SubmanifoldPatch,
    tol: float = 1e-4,
) -> UmbilicityReport:
    """Umbilicity verdict over the interior grid nodes of a patch.

    Every interior node is visited, in ``itertools.product`` order, through
    one :func:`second_fundamental_form` call.  The residual at a node is
    sqrt(sum_ab |B_ab - h_ab H|_g^2); the patch is reported totally
    umbilical when the worst node stays below ``tol``.  Point patches get
    the verdict "point" with zero residual.
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
    indices = tuple(product(*(range(1, len(axis) - 1) for axis in patch.param_axes)))
    data = second_fundamental_form(
        chart, patch.field, [patch.samples[idx] for idx in indices], patch.k
    )
    g = data.metric
    diff = data.normal_form - np.einsum("ab,mk->mabk", np.eye(patch.k), data.mean_curvature)
    residuals = np.sqrt(np.maximum(np.einsum("mabi,mij,mabj->m", diff, g, diff), 0.0))
    H = data.mean_curvature
    hnorms = np.sqrt(np.maximum(np.einsum("mi,mij,mj->m", H, g, H), 0.0))
    worst = float(residuals.max())
    return UmbilicityReport(
        verdict=VERDICT_UMBILICAL if worst < tol else VERDICT_NOT_UMBILICAL,
        max_residual=worst,
        residuals=residuals,
        mean_curvature_norms=hnorms,
        codim=patch.codim,
        codim_even=patch.codim % 2 == 0,
        tolerance=float(tol),
        indices=indices,
        points=data.points,
    )
