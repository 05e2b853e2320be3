"""Zero set components as patches, with umbilicity diagnostics.

Near a zero x where a conformal field is Killing for some rescaled metric,
the zero set is a submanifold tangent at x to the kernel of the derivative
2-form; on a surface such a zero is isolated.  ``trace_component`` takes
the ``classify_zero`` result at x, which carries that verdict, the kernel
and its complement, and builds a patch of the zero set as a graph over the
tangent space: a parameter t, a coordinate in the g-orthonormal kernel
frame at x, is moved from x + t.kernel onto xi = 0 along the normal space
by Gauss-Newton steps, the corrector step of Allgower & Georg, *Numerical
Continuation Methods* (1990), ch. 3, run by ``find_zeros``' solver
:func:`~confield.essential.polish_zeros` with every grid node a lane.  The
patch records the field on its parameter grid.  ``second_fundamental_form``
measures the extrinsic curvature of the zero set at an array of its
points, in one batched evaluation; ``umbilicity_report`` runs it over the
interior nodes of one patch or of a sequence of patches, once per patch
dimension, and decides whether each patch is totally umbilical (all second
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

from .essential import VERDICT_KILLING, ZeroClassification, polish_zeros
from .geometry import Chart, FieldSpec, field_data, field_norm, frame_svd

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

# Defaults of trace_component and umbilicity_report, which the command line
# runs with and reports.  The grid is odd, so the traced zero is a node.
TRACE_RADIUS = 0.3
TRACE_GRID = 5
UMBILICITY_TOL = 1e-4

# A sample that the corrector leaves off the zero set is refused by the
# verification, which accepts |xi|_g below _VERIFY_TOL.
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
    radius: float = TRACE_RADIUS,
    grid: int = TRACE_GRID,
) -> SubmanifoldPatch:
    """Patch of the zero set component through a classified zero.

    ``zero`` is the :func:`~confield.essential.classify_zero` result at
    the zero x; tracing needs its verdict to be Killing after rescaling
    and reads x and the g-orthonormal bases of the kernel of the derivative
    2-form and of its complement from it.  The parameter t is a coordinate
    in the frame of that kernel; the grid has side ``2 radius``.  The point
    for t is the predictor x + t.kernel corrected onto xi = 0 along the
    normal space at x (the complement) by :func:`polish_zeros`, so the patch
    is the zero set as a graph over its tangent space at x and, by the
    implicit function theorem, smooth in t.  ``mapping`` takes one t or an
    (m, k) array of them; the grid is one call.  A predictor outside the
    chart raises :class:`PatchError`.  For a zero with a trivial kernel
    (every Killing-type zero on a surface) the patch is that one point.

    Every sample is verified to be a zero within ``_VERIFY_TOL``;
    :class:`OffZeroSetError` reports the first one off the zero set in
    ``np.ndindex`` order.
    """
    if grid < 3 or grid % 2 == 0:
        raise ValueError("grid must be an odd integer >= 3 so the base is a node")
    if zero.verdict != VERDICT_KILLING:
        raise PatchError(
            "zero set tracing requires a zero that is Killing for a "
            f"rescaled metric, got verdict {zero.verdict!r}"
        )
    x, kernel, normals = zero.point, zero.kernel_basis, zero.normal_basis

    k = kernel.shape[0]
    n = chart.dim

    def mapping(t):
        t = np.asarray(t, dtype=float)
        predicted = x + t @ kernel
        inside = chart._inside(predicted)
        if not np.all(inside):
            bad = t if t.ndim == 1 else t[np.argmin(inside)]
            raise PatchError(f"the predictor x + t.kernel leaves the chart at t = {bad}")
        # lanes cut off by the iteration cap are left to the verification
        corrected, _ = polish_zeros(chart, xi, predicted.reshape(-1, n), normals)
        return corrected.reshape(predicted.shape)

    param_axes = tuple(np.linspace(-radius, radius, grid) for _ in range(k))
    shape = (grid,) * k
    params = np.array(list(product(*param_axes))).reshape(grid**k, k)
    samples = mapping(params)
    norms = field_norm(chart, xi, samples)
    off = np.flatnonzero(~(norms < _VERIFY_TOL))
    if off.size:
        raise OffZeroSetError(
            f"traced patch leaves the zero set: |xi|_g = {norms[off[0]]:.3e} "
            f"at t = {params[off[0]]} exceeds {_VERIFY_TOL:.1e}"
        )
    samples = samples.reshape(shape + (n,))
    norms = norms.reshape(shape)
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
    of the 2-jets of the metric and of ``xi`` at the points and one stacked
    :func:`~confield.geometry.frame_svd` of nabla xi over them: at each
    point the tangent frame is the g-orthonormal kernel of nabla xi, and B
    solves nabla xi B(X, Y) = -(nabla^2 xi)(X, Y) on the normal space
    through the pseudo-inverse.  A kernel of dimension other than ``k``
    raises :class:`PatchError` naming the first such point.  No
    neighbouring point is used, so the boundary nodes of a patch are as
    good as interior ones.
    """
    if k == 0:
        raise PatchError("a point patch has no second fundamental form")
    points = np.asarray(points, dtype=float)
    fd = field_data(chart, xi, points, 2)
    nabla_svd = frame_svd(fd.conn.factor, fd.N, "endomorphism")
    wrong = np.flatnonzero(nabla_svd.rank != chart.dim - k)
    if wrong.size:
        i = wrong[0]
        raise PatchError(
            f"nabla xi has a {chart.dim - nabla_svd.rank[i]}-dimensional kernel at "
            f"{points[i].tolist()}, on a {k}-dimensional zero set"
        )
    frames = nabla_svd.Vt[:, chart.dim - k:] @ nabla_svd.Linv  # the kernels, k rows each
    B = -nabla_svd.solve(np.einsum("mijk,maj,mbk->mabi", fd.H, frames, frames))
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
    patches,
    tol: float = UMBILICITY_TOL,
) -> UmbilicityReport | tuple:
    """Umbilicity verdicts over the interior grid nodes of patches.

    ``patches`` is one :class:`SubmanifoldPatch`, giving one report, or a
    sequence of them, giving a tuple of reports in the same order.  Every
    interior node of a patch is visited, in ``itertools.product`` order;
    the nodes of all patches of the same dimension k and the same field go
    through one :func:`second_fundamental_form` call, so patches of one
    field cost one call per distinct k, and each report equals the
    one-patch call.  The residual at a node is sqrt(sum_ab |B_ab - h_ab
    H|_g^2); a patch is reported totally umbilical when its worst node
    stays below ``tol``.  Point patches get the verdict "point" with zero
    residual.  Where the curvature cannot be taken, the error of the first
    group, in the order of the groups' first patches, is raised.
    """
    if isinstance(patches, SubmanifoldPatch):
        return umbilicity_report(chart, (patches,), tol)[0]
    reports = [None] * len(patches)
    groups = {}
    for slot, patch in enumerate(patches):
        if patch.k == 0:
            reports[slot] = UmbilicityReport(
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
        else:
            groups.setdefault((patch.k, patch.field), []).append(slot)
    for (k, field), slots in groups.items():
        node_indices = [tuple(product(*(range(1, len(axis) - 1)
                                        for axis in patches[slot].param_axes)))
                        for slot in slots]
        points = [patches[slot].samples[idx] for slot, indices in zip(slots, node_indices)
                  for idx in indices]
        data = second_fundamental_form(chart, field, points, k)
        g, H = data.metric, data.mean_curvature
        diff = data.normal_form - np.einsum("ab,mk->mabk", np.eye(k), H)
        residuals = np.sqrt(np.maximum(np.einsum("mabi,mij,mabj->m", diff, g, diff), 0.0))
        hnorms = np.sqrt(np.maximum(np.einsum("mi,mij,mj->m", H, g, H), 0.0))
        start = 0
        for slot, indices in zip(slots, node_indices):
            rows = slice(start, start + len(indices))
            start = rows.stop
            worst = float(residuals[rows].max())
            reports[slot] = UmbilicityReport(
                verdict=VERDICT_UMBILICAL if worst < tol else VERDICT_NOT_UMBILICAL,
                max_residual=worst,
                residuals=residuals[rows],
                mean_curvature_norms=hnorms[rows],
                codim=patches[slot].codim,
                codim_even=patches[slot].codim % 2 == 0,
                tolerance=float(tol),
                indices=indices,
                points=data.points[rows],
            )
    return tuple(reports)
