"""Oracles for confield reports, built from closed forms and plain numpy.

Nothing here imports confield.  Every chart of the catalog is conformally
flat, g = lam(x)^2 delta on a coordinate box, and every catalog field is a
polynomial vector field whose zero set is known in closed form:

* ``rotation(i, j)``: the subspace x_i = x_j = 0;
* ``sphere_killing(i, n+1)``: the unit (n-2)-sphere {x_i = 0, |x| = 1};
* ``euler``, ``special_conformal``, ``sphere_translation``: the origin;
* ``translation``: no zeros.

From the paper: zeros on a component of positive dimension are Killing
after a rescaling (``killing_inessential``) and the component has even
codimension; essential zeros are isolated; the radial field is homothetic
with phi = 1 at the origin.  Mean curvature follows from the conformal
change rule H_g = lam^-2 (H_e - (grad log lam)^normal), so the subspaces
are totally geodesic in every chart, and the unit sphere {x_i = 0, |x| = 1}
has |H| = 1 in the flat chart and 0 in the stereographic one.

``check_report`` returns, for each analysis of one manifest, the list of
problems it found; an empty list means the analysis passed its oracle.
The report's own ``passed`` flags are never consulted.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

VERDICT_KILLING = "killing_inessential"
VERDICT_HOMOTHETIC = "homothetic_nonkilling"
VERDICT_ESSENTIAL = "essential"

# Tolerances of the oracles, fixed here rather than read from the report.
CONFORMAL_TOL = 1e-7        # |L_xi g - 2 phi g|_g on the program's samples
CKE_TOL = 1e-6              # independent conformal Killing residual
ZERO_NORM_TOL = 1e-9        # independent |xi|_g at a reported zero
ON_SET_TOL = 1e-7           # distance of a reported zero to its set
ON_POINT_TOL = 1e-4         # quadratic zeros are only found to sqrt(tol)
PHI_TOL = 1e-6
ISOLATION_RADIUS = 0.05
IDENTITY_TOL = 1e-7
TAYLOR_SCALAR_TOL = 1e-6
TAYLOR_FIRST_TOL = 1e-6
TAYLOR_SECOND_TOL = 1e-4
TAYLOR_ZEROS = 4            # the CLI checks the Taylor expansion at 4 zeros
TAYLOR_REACH = 0.1          # metric length of the longest Taylor geodesic
PATCH_TOL = 1e-5            # traced samples: |xi|_g and distance to the set
MAX_PATCHES = 2             # the CLI traces at most two components
TRACE_RADIUS = 0.3          # metric radius of a traced patch, per axis
UMBILIC_TOL = 1e-4
MEAN_CURVATURE_TOL = 1e-4


# ---------------------------------------------------------------------------
# charts: g = lam^2 delta


def _half_width(chart: str, n: int) -> float:
    return {"euclidean": 2.0, "sphere_stereographic": 3.0,
            "hyperbolic_ball": 0.9 / math.sqrt(n)}[chart]


def _lam(chart: str, x: np.ndarray) -> np.ndarray:
    r2 = np.sum(x * x, axis=-1)
    if chart == "euclidean":
        return np.ones_like(r2)
    if chart == "sphere_stereographic":
        return 2.0 / (1.0 + r2)
    return 2.0 / (1.0 - r2)


def _grad_log_lam(chart: str, x: np.ndarray) -> np.ndarray:
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    if chart == "euclidean":
        return np.zeros_like(x)
    if chart == "sphere_stereographic":
        return -2.0 * x / (1.0 + r2)
    return 2.0 * x / (1.0 - r2)


# ---------------------------------------------------------------------------
# fields and their zero sets


def _field(name: str, params: dict, n: int):
    """Closed-form field as a function of (..., n) arrays, and its zero set."""
    def e(axis):
        v = np.zeros(n)
        v[axis - 1] = 1.0
        return v

    if name == "translation":
        a = e(params.get("axis", 1))
        return (lambda x: np.broadcast_to(a, x.shape).copy()), ("empty", ())
    if name == "sphere_killing":
        i, j = sorted((params.get("axis_i", 1), params.get("axis_j", 2)))
        if j == n + 1:
            ei = e(i)

            def sk(x):
                r2 = np.sum(x * x, axis=-1, keepdims=True)
                return 0.5 * (1.0 - r2) * ei + x[..., i - 1:i] * x
            return sk, ("sphere", (i,))
        name, params = "rotation", {"axis_i": i, "axis_j": j}
    if name == "rotation":
        i, j = params.get("axis_i", 1), params.get("axis_j", 2)

        def rot(x):
            out = np.zeros_like(x)
            out[..., i - 1] = -x[..., j - 1]
            out[..., j - 1] = x[..., i - 1]
            return out
        return rot, ("subspace", (i, j))
    if name == "euler":
        return (lambda x: np.array(x, dtype=float)), ("point", ())
    if name in ("special_conformal", "sphere_translation"):
        a = params.get("axis", 1)
        ea = e(a)

        def sc(x):
            r2 = np.sum(x * x, axis=-1, keepdims=True)
            return r2 * ea - 2.0 * x[..., a - 1:a] * x
        return sc, ("point", ())
    raise ValueError(f"no oracle for field {name!r}")


class Case:
    """Closed-form description of one manifest's chart, field and zero set."""

    def __init__(self, manifest: dict):
        self.chart = manifest["chart"]["name"]
        self.n = int(manifest["chart"]["dim"])
        self.field_name = manifest["field"]["name"]
        self.xi, (self.kind, self.axes) = _field(
            self.field_name, manifest["field"].get("params", {}), self.n)
        self.half_width = _half_width(self.chart, self.n)

    # -- zero set geometry ---------------------------------------------------

    @property
    def set_dim(self) -> int:
        return {"empty": -1, "point": 0}.get(self.kind, self.n - 2)

    def set_meets_box(self) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "sphere":
            return self.half_width * math.sqrt(self.n - 1) > 1.0
        return True

    def distance_to_set(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "point":
            return float(np.linalg.norm(x))
        if self.kind == "subspace":
            return float(np.linalg.norm(x[[a - 1 for a in self.axes]]))
        if self.kind == "sphere":
            i = self.axes[0] - 1
            y = x.copy()
            y[i] = 0.0
            return math.hypot(x[i], np.linalg.norm(y) - 1.0)
        return math.inf

    def expected_verdict(self) -> str:
        if self.set_dim > 0:
            return VERDICT_KILLING
        if self.field_name == "euler":
            return VERDICT_HOMOTHETIC
        return VERDICT_ESSENTIAL

    def mean_curvature_norm(self, p: np.ndarray) -> float:
        """|H|_g of the zero set at p, from the conformal change rule."""
        p = np.asarray(p, dtype=float)
        if self.kind == "subspace":
            normals = np.eye(self.n)[[a - 1 for a in self.axes]]
            h_e = np.zeros(self.n)
        else:
            i = self.axes[0] - 1
            radial = p.copy()
            radial[i] = 0.0
            r = np.linalg.norm(radial)
            normals = np.stack([np.eye(self.n)[i], radial / r])
            h_e = -radial / (r * r)
        grad = _grad_log_lam(self.chart, p)
        h = h_e - normals.T @ (normals @ grad)
        return float(np.linalg.norm(h) / _lam(self.chart, p))

    # -- pointwise quantities ------------------------------------------------

    def can_leave_box(self, x, length: float) -> bool:
        """Whether a geodesic of metric ``length`` from x can reach the box edge.

        Its coordinate length is at most length / min(lam) over the box;
        lam is radial and monotone, so the minimum sits at the centre or a
        corner.
        """
        x = np.asarray(x, dtype=float)
        corner = np.full(self.n, self.half_width)
        lam_min = min(float(_lam(self.chart, np.zeros(self.n))),
                      float(_lam(self.chart, corner)))
        return float(np.min(self.half_width - np.abs(x))) < length / lam_min

    def inside_box(self, x) -> bool:
        return bool(np.all(np.abs(np.asarray(x, dtype=float)) < self.half_width))

    def field_norm(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(_lam(self.chart, x) * np.linalg.norm(self.xi(x)))

    def jacobian(self, x, h: float = 1e-4) -> np.ndarray:
        """D[i, j] = d_j xi^i by central differences (exact on quadratics)."""
        x = np.asarray(x, dtype=float)
        steps = h * np.eye(self.n)
        return ((self.xi(x + steps) - self.xi(x - steps)) / (2.0 * h)).T

    def phi(self, x) -> float:
        """div_g(xi) / n = tr(D xi) / n + xi . grad log lam."""
        x = np.asarray(x, dtype=float)
        return float(np.trace(self.jacobian(x)) / self.n
                     + self.xi(x) @ _grad_log_lam(self.chart, x))

    def cke_residual(self, x) -> float:
        """Flat conformal Killing residual; g = lam^2 delta shares it."""
        D = self.jacobian(x)
        S = D + D.T - (2.0 / self.n) * np.trace(D) * np.eye(self.n)
        return float(np.linalg.norm(S))


# ---------------------------------------------------------------------------
# per-analysis checks; each returns a list of problems


def _finite_below(value, bound) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value < bound


def _check_conformal(case: Case, out: dict, ctx: dict) -> list:
    problems = []
    if not out.get("samples", 0) >= 1:
        problems.append("no conformality samples")
    if not _finite_below(out.get("max_residual"), CONFORMAL_TOL):
        problems.append(f"max_residual {out.get('max_residual')!r} for a conformal field")
    worst = np.asarray(out.get("worst_point", []), dtype=float)
    if worst.shape != (case.n,) or not case.inside_box(worst):
        problems.append("worst_point is not a point of the chart")
    elif not case.cke_residual(worst) < CKE_TOL:
        problems.append("field is not conformal at worst_point (oracle)")
    return problems


def _check_zeros(case: Case, out: dict, ctx: dict) -> list:
    problems = []
    pts = np.asarray(out.get("points", []), dtype=float).reshape(-1, case.n)
    if out.get("count") != len(pts):
        problems.append("count disagrees with the listed points")
    if not case.set_meets_box():
        if len(pts):
            problems.append(f"{len(pts)} zeros where the zero set misses the box")
    elif case.kind == "point" and len(pts) != 1:
        problems.append(f"{len(pts)} zeros for an isolated zero")
    elif len(pts) == 0:
        problems.append("no zero found on a zero set that meets the box")
    on_set = ON_POINT_TOL if case.kind == "point" else ON_SET_TOL
    for p in pts:
        if not case.inside_box(p):
            problems.append(f"zero {p.tolist()} outside the chart")
        if not case.field_norm(p) < ZERO_NORM_TOL:
            problems.append(f"|xi|_g = {case.field_norm(p):.3e} at {p.tolist()}")
        if not case.distance_to_set(p) < on_set:
            problems.append(f"zero {p.tolist()} off the closed-form zero set")
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if np.linalg.norm(pts[a] - pts[b]) < 1e-7:
                problems.append("duplicate zeros")
    ctx["zeros"] = pts
    return problems


def _zeros(ctx: dict, case: Case) -> np.ndarray:
    return ctx.get("zeros", np.empty((0, case.n)))


def _check_classify(case: Case, out: dict, ctx: dict) -> list:
    problems = []
    zeros = _zeros(ctx, case)
    entries = out.get("entries", [])
    if len(entries) != len(zeros):
        return [f"{len(entries)} classifications for {len(zeros)} zeros"]
    verdict = case.expected_verdict()
    for k, (z, entry) in enumerate(zip(zeros, entries)):
        if not np.array_equal(np.asarray(entry.get("point"), dtype=float), z):
            problems.append("classified point is not the reported zero")
            continue
        if entry.get("verdict") != verdict:
            problems.append(f"verdict {entry.get('verdict')!r} at {z.tolist()}, "
                            f"theory gives {verdict!r}")
        phi = entry.get("phi")
        if not (isinstance(phi, (int, float)) and abs(phi - case.phi(z)) < PHI_TOL):
            problems.append(f"phi {phi!r} at {z.tolist()}, oracle {case.phi(z):.6g}")
        if verdict == VERDICT_KILLING and entry.get("kernel_dim") != case.set_dim:
            problems.append(f"kernel_dim {entry.get('kernel_dim')!r}, "
                            f"zero set has dimension {case.set_dim}")
        if entry.get("verdict") == VERDICT_ESSENTIAL:
            others = np.delete(zeros, k, axis=0)
            if len(others) and np.min(np.linalg.norm(others - z, axis=1)) < ISOLATION_RADIUS:
                problems.append("essential zero is not isolated")
    assertions = (out.get("audit") or {}).get("assertions", {})
    if len(zeros) and not (len(assertions) == 2 and all(assertions.values())):
        problems.append("limit point audit contradicts theory")
    return problems


def _check_verify_identities(case: Case, out: dict, ctx: dict) -> list:
    problems = []
    zeros = _zeros(ctx, case)
    if not out.get("pairs", 0) >= 1:
        problems.append("no identity pairs")
    if not _finite_below(out.get("max_identity_residual"), IDENTITY_TOL):
        problems.append(f"identity residual {out.get('max_identity_residual')!r}")
    taylor = out.get("taylor_at_zeros", [])
    if len(taylor) != min(TAYLOR_ZEROS, len(zeros)):
        problems.append(f"{len(taylor)} Taylor checks for {len(zeros)} zeros")
    for z, entry in zip(zeros, taylor):
        if "skipped" in entry:
            # The program may skip a zero whose stencil leaves the chart,
            # and only such a zero.
            if not case.can_leave_box(z, TAYLOR_REACH):
                problems.append(f"Taylor check skipped at {z.tolist()}")
            continue
        for key, tol in (("scalar_residual", TAYLOR_SCALAR_TOL),
                         ("vector_first_residual", TAYLOR_FIRST_TOL),
                         ("vector_second_residual", TAYLOR_SECOND_TOL)):
            if not _finite_below(entry.get(key), tol):
                problems.append(f"{key} {entry.get(key)!r} at {z.tolist()}")
    return problems


def _check_trace(case: Case, out: dict, ctx: dict) -> list:
    problems = []
    patches = out.get("patches", [])
    captured = ctx.get("patches", [])
    skipped = out.get("skipped", [])
    # A zero may be skipped only when its patch can leave the chart.
    reach = TRACE_RADIUS * math.sqrt(max(case.set_dim, 1))
    unjustified = [s for s in skipped
                   if not case.can_leave_box(s.get("zero"), reach)]
    if unjustified:
        problems.append(f"{len(unjustified)} zeros skipped inside the chart")
    expected = 0
    if case.set_dim > 0:
        expected = min(MAX_PATCHES, len(_zeros(ctx, case)) - len(skipped))
    if len(patches) != expected:
        problems.append(f"{len(patches)} patches traced, {expected} expected")
    if len(captured) != len(patches):
        return problems + ["traced samples do not match the reported patches"]
    for entry, samples in zip(patches, captured):
        k = entry.get("k")
        if k != case.set_dim or entry.get("codim") != case.n - case.set_dim:
            problems.append(f"patch of dimension {k!r}, zero set has {case.set_dim}")
        if entry.get("codim", 1) % 2:
            problems.append("odd codimension")
        if not _finite_below(entry.get("max_field_norm"), PATCH_TOL):
            problems.append(f"max_field_norm {entry.get('max_field_norm')!r}")
        samples = np.asarray(samples, dtype=float)
        if k is None or samples.shape[-1] != case.n or samples.ndim != k + 1:
            problems.append("traced samples have the wrong shape")
            continue
        flat = samples.reshape(-1, case.n)
        far = max(case.distance_to_set(p) for p in flat)
        big = max(case.field_norm(p) for p in flat)
        if not far < PATCH_TOL:
            problems.append(f"traced sample {far:.3e} off the closed-form set")
        if not big < PATCH_TOL:
            problems.append(f"|xi|_g = {big:.3e} at a traced sample")
    return problems


def _check_umbilicity(case: Case, out: dict, ctx: dict) -> list:
    problems = []
    entries = out.get("patches", [])
    captured = ctx.get("patches", [])
    if case.set_dim > 0 and not captured:
        problems.append("no traced patch to check")
    if len(captured) != len(entries):
        return problems + [f"{len(entries)} umbilicity entries for "
                           f"{len(captured)} traced patches"]
    for entry, samples in zip(entries, captured):
        if entry.get("verdict") != "totally_umbilical":
            problems.append(f"verdict {entry.get('verdict')!r}")
        if not _finite_below(entry.get("max_residual"), UMBILIC_TOL):
            problems.append(f"umbilicity residual {entry.get('max_residual')!r}")
        if entry.get("codim", 1) % 2 or not entry.get("codim_even"):
            problems.append("odd codimension")
        samples = np.asarray(samples, dtype=float)
        grid = samples.shape[0]
        nodes = list(product(range(1, grid - 1), repeat=samples.ndim - 1))
        norms = entry.get("mean_curvature_norms", [])
        if len(norms) != len(nodes):
            problems.append(f"{len(norms)} mean curvature values for "
                            f"{len(nodes)} interior nodes")
            continue
        for idx, h in zip(nodes, norms):
            want = case.mean_curvature_norm(samples[idx])
            if not (isinstance(h, (int, float)) and abs(h - want) < MEAN_CURVATURE_TOL):
                problems.append(f"|H| = {h!r} at node {idx}, oracle {want:.6g}")
                break
    return problems


_CHECKS = {
    "check-conformal": _check_conformal,
    "zeros": _check_zeros,
    "classify": _check_classify,
    "verify-identities": _check_verify_identities,
    "trace": _check_trace,
    "umbilicity": _check_umbilicity,
}


def check_report(manifest: dict, report: dict, analyses: list, patches: list) -> dict:
    """Problems per analysis of one report; ``patches`` are the traced samples.

    Every workload requests ``zeros``; its points are checked first and
    then serve as the zero list the later analyses are judged against.
    """
    case = Case(manifest)
    results = report.get("analyses", {})
    ctx = {"patches": list(patches)}
    problems = {}
    zero_problems = _check_zeros(case, results.get("zeros") or {}, ctx)
    for name in analyses:
        out = results.get(name)
        if not isinstance(out, dict):
            problems[name] = ["analysis missing from the report"]
        elif "error" in out:
            problems[name] = [f"analysis raised: {out['error']}"]
        elif name == "zeros":
            problems[name] = zero_problems
        else:
            problems[name] = _CHECKS[name](case, out, ctx)
    return problems
