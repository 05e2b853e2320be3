"""Zero set components as patches, with umbilicity diagnostics.

Near a zero x where a conformal field is Killing for some rescaled metric,
the zero set is a submanifold tangent at x to the kernel of the derivative
2-form; on a surface such a zero is isolated.  From x and its frame in
the ``classify_zero`` record, whose rows span that kernel and its
complement, ``trace_component`` builds a patch of the zero set as a graph
over the tangent space, and reads no verdict: a parameter t, a coordinate
in the g-orthonormal kernel frame at x, is moved from x + t.kernel onto
xi = 0 along the normal space by Gauss-Newton steps, the corrector step of
Allgower & Georg, *Numerical Continuation Methods* (1990), ch. 3, run by
``find_zeros``' solver :func:`~confield.essential.polish_zeros` with every
grid node a lane.  The patch is its grid of zeros and nothing else.
``second_fundamental_form`` reads the extrinsic curvature of the zero set
from the :func:`~confield.geometry.field_data` record of an array of its
points, the record every pointwise check takes; ``umbilicity_report``
builds that record over the interior nodes of a sequence of patches of
one field, once per patch dimension, and decides whether each patch is
totally umbilical (all second fundamental form values proportional to the
induced metric with a common mean curvature vector).

The second fundamental form comes from exact jets of the field at a point
of the zero set.  On the zero set N, nabla xi vanishes on TN and is
invertible on the normal space, and one more derivative along N gives

    B(X, Y) = -(nabla xi|_{TN^perp})^{-1} (nabla^2 xi)(X, Y).

Both factors come from the one :func:`~confield.geometry.frame_svd` of
nabla xi: the last k rows of ``Vt @ Linv`` are the tangent frame, and the
inverse on the normal space is the SVD's pseudo-inverse with its k kernel
singular values dropped (Golub & Van Loan, *Matrix Computations*, 4th ed.,
5.5), applied in the g-orthonormal frame.

At a zero, nabla xi is the same for every metric in a conformal class, so a
patch traced under g serves a rescaled chart as well: the metric and the
field are explicit arguments of ``umbilicity_report`` rather than being
read off the patch, and
``umbilicity_report(rescale_metric(chart, f), xi, [patch])`` checks the
conformal invariance of total umbilicity.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .essential import polish_zeros
from .geometry import Chart, FieldData, FieldSpec, field_data, frame_svd

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

# The patch trace_component builds, which the command line reports: a grid
# of TRACE_GRID nodes per axis on [-TRACE_RADIUS, TRACE_RADIUS].  The grid is
# odd, so the traced zero is a node.  umbilicity_report calls a patch
# totally umbilical when its worst node's residual is below UMBILICITY_TOL.
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
    """Piece of a zero set, sampled on a k-dimensional grid of nodes.

    ``samples`` has shape (G,) * k + (n,) and holds the chart coordinates
    of the nodes; ``field_norms`` holds |xi|_g there, and ``codim`` is
    n - k.  For k = 0 the patch is the single point ``base`` and
    ``samples`` has shape (n,).
    """

    base: np.ndarray
    samples: np.ndarray
    field_norms: np.ndarray
    codim: int

    @property
    def k(self) -> int:
        return self.samples.ndim - 1

    @property
    def max_field_norm(self) -> float:
        return float(self.field_norms.max())


def trace_component(chart: Chart, xi: FieldSpec, x, frame, k: int) -> SubmanifoldPatch:
    """Patch of the zero set component through the zero x.

    ``frame`` and ``k`` are x's rows of ``frames`` and ``kernel_dim`` in
    the :func:`~confield.essential.classify_zero` record: the last k rows
    of the frame span the kernel of the derivative 2-form, the rest its
    complement.  No verdict is read.  The parameter t is a coordinate
    in the frame of that kernel, on a grid of ``TRACE_GRID`` nodes per axis
    with side ``2 TRACE_RADIUS``.  The node for t is the predictor
    x + t.kernel corrected onto xi = 0 along the normal space at x (the
    complement) by one :func:`polish_zeros` call over the whole grid, so
    the patch is the zero set as a graph over its tangent space at x and,
    by the implicit function theorem, smooth in t.  A predictor outside
    the chart raises :class:`PatchError`.  For a zero with a trivial
    kernel (every Killing-type zero on a surface) the patch is that one
    point.

    Every sample is verified to be a zero by the |xi|_g that the solver
    returns for it, kept as ``field_norms``, below ``_VERIFY_TOL``;
    :class:`OffZeroSetError` reports the first one off the zero set in
    ``np.ndindex`` order.
    """
    n = chart.dim
    kernel = frame[n - k:]
    axis = np.linspace(-TRACE_RADIUS, TRACE_RADIUS, TRACE_GRID)
    params = np.array(list(product(axis, repeat=k))).reshape(TRACE_GRID**k, k)
    predicted = x + params @ kernel
    inside = chart._inside(predicted)
    if not np.all(inside):
        raise PatchError("the predictor x + t.kernel leaves the chart at "
                         f"t = {params[np.argmin(inside)]}")
    # lanes cut off by the iteration cap are left to the verification
    samples, _, norms = polish_zeros(chart, xi, predicted, frame[:n - k])
    off = np.flatnonzero(~(norms < _VERIFY_TOL))
    if off.size:
        raise OffZeroSetError(
            f"traced patch leaves the zero set: |xi|_g = {norms[off[0]]:.3e} "
            f"at t = {params[off[0]]} exceeds {_VERIFY_TOL:.1e}"
        )
    shape = (TRACE_GRID,) * k
    return SubmanifoldPatch(
        base=np.array(x, dtype=float),
        samples=samples.reshape(shape + (n,)),
        field_norms=norms.reshape(shape),
        codim=n - k,
    )


@dataclass(frozen=True, eq=False)
class SecondFundamentalData:
    """Second fundamental form of a k-dimensional zero set at m points.

    Every array has a leading axis of length m.  ``normal_form[i, a, b]``
    is B(e_a, e_b) for the g-orthonormal frame ``tangent_frame[i]`` (rows
    e_a) of the zero set at point i of the record it was read from.
    """

    normal_form: np.ndarray
    mean_curvature: np.ndarray
    tangent_frame: np.ndarray


def second_fundamental_form(jets: FieldData, k: int) -> SecondFundamentalData:
    """B and the mean curvature vector at the zero set points of ``jets``,
    their :func:`~confield.geometry.field_data` record.

    The record's metric is the ambient one; a zero set traced under g
    serves a rescaled chart as well.  Everything comes from the record's
    2-jets and one stacked :func:`~confield.geometry.frame_svd` of nabla xi
    over its points: at each point the tangent frame is the g-orthonormal
    kernel of nabla xi, and B solves nabla xi B(X, Y) = -(nabla^2 xi)(X, Y)
    on the normal space through the pseudo-inverse.  A kernel of dimension
    other than ``k`` raises :class:`PatchError` naming the first such
    point.  No neighbouring point is used, so the boundary nodes of a patch
    are as good as interior ones.
    """
    if k == 0:
        raise PatchError("a point patch has no second fundamental form")
    n, (L, Linv) = jets.N.shape[-1], jets.conn.factor
    U, sigma, Vt, rank = frame_svd(jets.conn.factor, jets.N, "endomorphism")
    wrong = np.flatnonzero(rank != n - k)
    if wrong.size:
        i = wrong[0]
        raise PatchError(
            f"nabla xi has a {n - rank[i]}-dimensional kernel at "
            f"{jets.points[i].tolist()}, on a {k}-dimensional zero set"
        )
    frames = Vt[:, n - k:] @ Linv  # the kernels, k rows each
    rhs = np.einsum("mijk,maj,mbk->mabi", jets.H, frames, frames)
    # the pseudo-inverse in the frame: rows of rhs map in by L, the k
    # kernel singular values are dropped, and the rows map back by Linv
    r = n - k
    B = -(((rhs @ L[:, None]) @ U[:, None, :, :r]) / sigma[:, None, None, :r]
          @ Vt[:, None, :r]) @ Linv[:, None]
    # Symmetric up to the curvature term R(X, Y) xi, which vanishes on the
    # zero set; keep B exactly symmetric.
    B = 0.5 * (B + B.swapaxes(1, 2))
    return SecondFundamentalData(
        normal_form=B,
        mean_curvature=np.einsum("...aak->...k", B) / k,
        tangent_frame=frames,
    )


@dataclass(frozen=True, eq=False)
class UmbilicityReport:
    verdict: str
    max_residual: float
    mean_curvature_norms: np.ndarray


def umbilicity_report(chart: Chart, xi: FieldSpec, patches) -> tuple:
    """Umbilicity verdicts over the interior grid nodes of a sequence of
    patches of the zero set of ``xi``, as a tuple of reports in the same
    order.

    The interior nodes of a patch are ``samples[1:-1, ..., 1:-1]`` in C
    order, which is ``itertools.product`` order of their grid indices, and
    ``mean_curvature_norms`` holds |H|_g at each of them in that order.
    The nodes of all patches of the same dimension k go through one
    :func:`~confield.geometry.field_data` record and one
    :func:`second_fundamental_form` call on it, so the patches cost one of
    each per distinct k, and each report equals the call on the sequence holding
    that patch alone.  The residual at a node is
    sqrt(sum_ab |B_ab - h_ab H|_g^2); a patch is reported totally umbilical
    when its worst node stays below ``UMBILICITY_TOL``.  Point patches get
    the verdict "point" with zero residual.  Where the curvature cannot be
    taken, the error of the first k, in the order of the patches, is raised.
    """
    reports = [None] * len(patches)
    groups = {}
    for slot, patch in enumerate(patches):
        if patch.k == 0:
            reports[slot] = UmbilicityReport(VERDICT_POINT, 0.0, np.zeros(0))
        else:
            groups.setdefault(patch.k, []).append(slot)
    for k, slots in groups.items():
        nodes = [patches[slot].samples[(slice(1, -1),) * k].reshape(-1, chart.dim)
                 for slot in slots]
        jets = field_data(chart, xi, np.concatenate(nodes))
        data = second_fundamental_form(jets, k)
        g, H = jets.conn.g, data.mean_curvature
        diff = data.normal_form - np.einsum("ab,mk->mabk", np.eye(k), H)
        residuals = np.sqrt(np.maximum(np.einsum("mabi,mij,mabj->m", diff, g, diff), 0.0))
        hnorms = np.sqrt(np.maximum(np.einsum("mi,mij,mj->m", H, g, H), 0.0))
        start = 0
        for slot, block in zip(slots, nodes):
            rows = slice(start, start + len(block))
            start = rows.stop
            worst = float(residuals[rows].max())
            reports[slot] = UmbilicityReport(
                verdict=VERDICT_UMBILICAL if worst < UMBILICITY_TOL else VERDICT_NOT_UMBILICAL,
                max_residual=worst,
                mean_curvature_norms=hnorms[rows],
            )
    return tuple(reports)
