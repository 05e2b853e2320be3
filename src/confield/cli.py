"""Command line front end: run analysis manifests, print catalog and schema.

``confield run manifest.json`` reads a JSON manifest describing a chart, a
field, and a list of analyses, executes them in the declared order, each
with its own seeded random stream (``geometry.Stream(seed, index)``), and
emits a JSON report.  Reports are byte-identical across runs for the same
manifest and seed: ``render_report`` writes each float as its shortest
round-trip repr, and non-finite values become strings.

One table, ``MANIFEST``, gives the manifest's shape as a JSON schema:
``confield schema`` prints it and ``run`` checks every value against it.
A manifest sets only ``seed`` and ``grid_resolution`` (its ``SETTINGS``);
every other threshold, radius and sample count is fixed, as a constant of
the library module that decides with it or as a constant here, and ``run``
takes no option but ``--out``.  Each analysis reports the values it ran
with, read from those constants when it runs.

``trace`` traces a zero from its frame only where ``classify`` calls it
Killing for a rescaled metric, and lists any other zero as skipped.

Exit codes: 0 when every analysis passed, 1 when an analysis failed or
raised, 2 for malformed manifests or options, unusable charts/fields or a
report that cannot be written.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, conformal, essential, zeroset
from .conformal import is_conformal
from .essential import (
    GRID_RESOLUTION,
    VERDICT_INVALID,
    VERDICT_KILLING,
    ClassificationDimensionError,
    classify_zero,
    find_zeros,
    limit_point_audit,
)
from .expr import EvalDomainError, ExprSyntaxError, parse
from .geodesic import dxi_identity_residual, taylor_checks
from .geometry import (Chart, ChartError, FieldSpec, MetricError, Stream, field_data,
                       metric_value, sample_interior)
from .models import CHART_BUILDERS, FIELD_BUILDERS, field_params, make_chart, make_field
from .zeroset import (
    VERDICT_POINT,
    VERDICT_UMBILICAL,
    OffZeroSetError,
    PatchError,
    trace_component,
    umbilicity_report,
)

__all__ = ["main", "ManifestError", "run_manifest", "render_report"]


# Fixed values of the analyses that no library constant covers.
_IDENTITY_TOL = 1e-7  # largest derivative-identity residual accepted
_CONFORMAL_POINTS = 100  # sample points of check-conformal
_IDENTITY_PAIRS = 50  # point and direction pairs of verify-identities
_TAYLOR_ZEROS = 4  # zeros of verify-identities whose Taylor expansion is checked
_TRACE_MAX_PATCHES = 2  # zero-set patches traced
# largest Taylor residuals accepted at a zero: scalar derivative, and the
# first and second derivative of the vector identity
_TAYLOR_SCALAR_TOL = 1e-6
_TAYLOR_FIRST_TOL = 1e-6
_TAYLOR_SECOND_TOL = 1e-4


class ManifestError(ValueError):
    """The manifest is malformed or names unusable inputs."""


# ---------------------------------------------------------------------------
# deterministic JSON writing


# a float's repr that JSON has no number for, and the string written instead
_NON_FINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _write_json(obj, indent: str, out: list):
    """Append the pieces of ``obj`` as 2-space-indented JSON to ``out``,
    the nesting level's indent being ``indent``.  Arrays and numpy scalars
    are written as their ``tolist()``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(value) is float for value in obj):
            # a finite float's repr has no "n", unlike nan, inf and -inf
            text = (",\n" + inner).join(map(float.__repr__, obj))
            if "n" not in text:
                out.append("[\n" + inner + text + "\n" + indent + "]")
                return
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_report(report: dict) -> str:
    """``report`` as 2-space-indented JSON with a final newline, in one
    pass: each float as its shortest round-trip repr, a non-finite one as
    the string ``"nan"``, ``"inf"`` or ``"-inf"``, and strings ASCII-escaped,
    as ``json.dumps(..., indent=2)`` writes them.  Dictionary keys must be
    strings; a value JSON has no form for raises ``TypeError``."""
    out = []
    _write_json(report, "", out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# manifest handling


def _require(cond: bool, message: str):
    if not cond:
        raise ManifestError(message)


# Python types and message names of the table's JSON types
_TYPES = {"string": (str, "a string"), "integer": (int, "an integer"),
          "number": ((int, float), "a finite number"), "array": (list, "an array"),
          "object": (dict, "an object")}


def _shown(value) -> str:
    """``value`` in a message: a container by its type, a scalar as JSON,
    or as its repr where JSON has no form for it."""
    if isinstance(value, (list, dict)):
        return "an array" if isinstance(value, list) else "an object"
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _check(value, fragment: dict, where: str = "") -> None:
    """Refuse ``value`` unless it meets ``fragment`` of ``MANIFEST``, in one
    line that names ``where`` it sits: '' for the manifest, whose keys are
    named alone (``seed``), and a key's name for the values below it
    (``chart 'metric'[0][0]``).  Reads only what the table uses: a ``oneOf``
    of object forms (the last whose first required key is present),
    ``type`` (a bool is no number, a number is finite), ``enum``,
    ``minimum``/``maximum``, ``items``, ``minItems``/``maxItems``, and an
    object's ``required`` keys and ``properties``, outside which no key may
    be."""
    if "oneOf" in fragment:
        _require(isinstance(value, dict), f"manifest {where!r} must be an object")
        keys = [form["required"][0] for form in fragment["oneOf"]]
        _require(any(key in value for key in keys),
                 f"{where} needs either " + " or ".join(map(repr, keys)))
        fragment = next(form for form in fragment["oneOf"][::-1] if form["required"][0] in value)
    if "type" in fragment:
        types, name = _TYPES[fragment["type"]]
        if (not isinstance(value, types) or isinstance(value, bool)
                or fragment["type"] == "number" and not abs(value) <= sys.float_info.max):
            raise ManifestError(f"{where or 'manifest'} must be {name}, got {_shown(value)}")
    if "enum" in fragment and value not in fragment["enum"]:
        raise ManifestError(f"{where} must be one of {fragment['enum']}, got {_shown(value)}")
    if "minimum" in fragment:
        _require(value >= fragment["minimum"],
                 f"{where} must be >= {fragment['minimum']}, got {value}")
    if "maximum" in fragment:
        _require(value <= fragment["maximum"],
                 f"{where} must be <= {fragment['maximum']}, got {value}")
    if "minItems" in fragment:
        _require(len(value) >= fragment["minItems"],
                 f"{where} must hold at least {fragment['minItems']} item(s)")
    if "maxItems" in fragment:
        _require(len(value) <= fragment["maxItems"],
                 f"{where} must hold at most {fragment['maxItems']} items, got {len(value)}")
    for i, item in enumerate(value if "items" in fragment else ()):
        _check(item, fragment["items"], f"{where}[{i}]")
    if "properties" in fragment:
        known = fragment["properties"]
        for key, item in value.items():
            if key not in known:
                # an unknown group of the manifest is named by its first
                # leaf: 'tolerances.zero'
                if not where and isinstance(item, dict) and item:
                    key = f"{key}.{next(iter(item))}"
                what = f"{where} key" if where else "setting"
                raise ManifestError(f"unknown {what} {key!r}; known: {list(known)}")
        for key in fragment["required"]:
            _require(key in value, f"{where or 'manifest'} needs a {key!r} entry")
        for key, item in value.items():
            _check(item, known[key], f"{where} {key!r}" if where else key)


def _build_chart(spec: dict) -> Chart:
    if "metric" not in spec:
        return make_chart(spec["name"], spec["dim"])
    metric, lower, upper = spec["metric"], spec["lower"], spec["upper"]
    dim = len(metric)
    _require(all(len(r) == dim for r in metric), "chart 'metric' must be square")
    _require(len(lower) == dim and len(upper) == dim,
             f"chart 'lower' and 'upper' must each hold {dim} bounds, one per metric row")
    try:
        rows = tuple(tuple(parse(entry, dim) for entry in row) for row in metric)
    except ExprSyntaxError as exc:
        raise ManifestError(f"bad metric expression: {exc}") from exc
    try:
        chart = Chart(dim=dim, lower=np.asarray(lower, dtype=float),
                      upper=np.asarray(upper, dtype=float), metric=rows,
                      name=spec.get("name", "inline_chart"))
        metric_value(chart, sample_interior(chart, 10, Stream(0)))
    except RecursionError:
        raise ManifestError("bad metric expression: nested too deeply to compile") from None
    except (ChartError, EvalDomainError, MetricError, ValueError) as exc:
        raise ManifestError(f"unusable chart: {exc}") from exc
    return chart


def _build_field(chart: Chart, spec: dict) -> FieldSpec:
    if "components" not in spec:
        try:
            return make_field(chart, spec["name"], spec.get("params", {}))
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
    comps = spec["components"]
    _require(len(comps) == chart.dim, f"'components' must list {chart.dim} expressions")
    try:
        exprs = tuple(parse(c, chart.dim) for c in comps)
    except ExprSyntaxError as exc:
        raise ManifestError(f"bad field expression: {exc}") from exc
    try:
        return FieldSpec(chart, exprs, name=spec.get("name", "inline_field"))
    except RecursionError:
        raise ManifestError("bad field expression: nested too deeply to compile") from None


def _resolve_analyses(analyses: list) -> list:
    resolved = []
    for name in analyses:
        names = ANALYSES if name == "all" else (name,)
        resolved.extend(a for a in names if a not in resolved)
    return resolved


# ---------------------------------------------------------------------------
# analysis execution


class _Session:
    """Shared lazily-computed state threaded through the analyses."""

    def __init__(self, chart, xi, cfg):
        self.chart = chart
        self.xi = xi
        self.cfg = cfg

    def stream(self, analysis: str) -> Stream:
        """A fresh :class:`~confield.geometry.Stream` keyed by the manifest's
        seed and the analysis' index in ``ANALYSES``: its numbers do not
        depend on which other analyses run."""
        return Stream(self.cfg["seed"], ANALYSES.index(analysis))

    @cached_property
    def zeros(self):
        return find_zeros(self.chart, self.xi, grid_resolution=self.cfg["grid_resolution"])

    @cached_property
    def zero_jets(self):
        """The 2-jets at every zero, from one field_data call, which classify
        and verify-identities read; None when there is no zero."""
        return field_data(self.chart, self.xi, self.zeros) if len(self.zeros) else None

    @cached_property
    def classifications(self):
        """The classification record of the zeros, from one call on the
        classify stream: classify and tracing read the same verdicts
        whichever of them runs; None when there is no zero."""
        return None if self.zero_jets is None else classify_zero(
            self.chart, self.xi, self.zero_jets, rng=self.stream("classify"))

    @cached_property
    def patches(self):
        built, errors = [], []
        cls = self.classifications
        rows = () if cls is None else zip(self.zeros, cls.verdicts, cls.frames,
                                          cls.kernel_dim.tolist())
        for x, verdict, frame, k in rows:
            if len(built) >= _TRACE_MAX_PATCHES:
                break
            # Refused zeros (not Killing-type, a predictor leaving the
            # chart) are skips; a patch off the zero set is a failure.
            if verdict != VERDICT_KILLING:
                reason = ("zero set tracing requires a zero that is Killing for a "
                          f"rescaled metric, got verdict {verdict!r}")
                errors.append({"zero": x, "reason": reason, "failed": False})
                continue
            try:
                built.append(trace_component(self.chart, self.xi, x, frame, k))
            except PatchError as exc:
                errors.append({"zero": x, "reason": str(exc),
                               "failed": isinstance(exc, OffZeroSetError)})
        return built, errors

    @cached_property
    def untraced(self) -> bool:
        """Whether no patch was built although a Killing-type zero lies on a
        zero set of positive dimension: trace and umbilicity then checked
        nothing there, and neither may pass."""
        cls = self.classifications
        return not self.patches[0] and cls is not None and any(
            verdict == VERDICT_KILLING and k > 0
            for verdict, k in zip(cls.verdicts, cls.kernel_dim))


def _run_check_conformal(session: _Session) -> dict:
    pts = sample_interior(session.chart, _CONFORMAL_POINTS, session.stream("check-conformal"))
    report = is_conformal(session.chart, session.xi, pts)
    return {
        "passed": bool(report.conformal),
        "samples": int(len(report.points)),
        "max_residual": report.max_residual,
        "worst_point": report.worst_point,
        "tolerance": conformal.CONFORMAL_TOL,
    }


def _run_zeros(session: _Session) -> dict:
    zeros = session.zeros
    return {
        "passed": True,
        "count": int(len(zeros)),
        "points": zeros,
        "tolerance": essential.ZERO_TOL,
        "grid_resolution": session.cfg["grid_resolution"],
    }


def _run_classify(session: _Session) -> dict:
    if session.chart.dim < 3 and len(session.zeros):
        raise ClassificationDimensionError(
            "zero classification needs dimension >= 3; the image criterion "
            "does not apply to surfaces"
        )
    jets, cls = session.zero_jets, session.classifications
    entries, audit, passed = [], None, True
    if cls is not None:
        entries = [
            {"point": point, "verdict": verdict, "phi": phi, "image_residual": residual,
             "kernel_dim": k, "rank_dxi": session.chart.dim - k, "neighborhood_residual": ball}
            for point, verdict, phi, residual, k, ball in zip(
                jets.points, cls.verdicts, jets.phi.tolist(), cls.image_residual.tolist(),
                cls.kernel_dim.tolist(), cls.neighborhood_residual.tolist())
        ]
        audit_result = limit_point_audit(jets.points, cls.verdicts)
        audit = {
            "radius": essential.ISOLATION_RADIUS,
            "assertions": audit_result.assertions,
            "passed": audit_result.passed,
        }
        passed = VERDICT_INVALID not in cls.verdicts and audit_result.passed
    return {
        "passed": bool(passed),
        "entries": entries,
        "audit": audit,
        "tolerance": essential.CLASSIFICATION_TOL,
    }


def _run_verify_identities(session: _Session) -> dict:
    rng = session.stream("verify-identities")
    pts = sample_interior(session.chart, _IDENTITY_PAIRS, rng)
    dirs = rng.normal(size=(_IDENTITY_PAIRS, session.chart.dim))
    # np.max, unlike max(), propagates a NaN residual to the gate.
    jets = field_data(session.chart, session.xi, pts)
    worst = float(np.max(dxi_identity_residual(jets, dirs)))
    result = {
        "pairs": _IDENTITY_PAIRS,
        "max_identity_residual": worst,
        "identity_tolerance": _IDENTITY_TOL,
    }
    passed = bool(np.isfinite(worst) and worst < _IDENTITY_TOL)

    taylor = []
    if session.zero_jets is not None:
        # one (m, n) block of draws, whose first k rows are k draws of n
        dirs = rng.normal(size=session.zeros.shape)
        res = taylor_checks(session.zero_jets, dirs)
        for z, s, first, second in zip(session.zeros[:_TAYLOR_ZEROS], res.scalar, res.first,
                                        res.second):
            entry_ok = (s < _TAYLOR_SCALAR_TOL and first < _TAYLOR_FIRST_TOL
                        and second < _TAYLOR_SECOND_TOL)
            passed = passed and entry_ok
            taylor.append({"zero": z, "scalar_residual": s, "vector_first_residual": first,
                           "vector_second_residual": second, "passed": bool(entry_ok)})
    result["taylor_at_zeros"] = taylor
    result["passed"] = bool(passed)
    return result


def _run_trace(session: _Session) -> dict:
    built, errors = session.patches
    patches = []
    for patch in built:
        patches.append(
            {
                "base": patch.base,
                "k": patch.k,
                "codim": patch.codim,
                "max_field_norm": patch.max_field_norm,
                "radius": zeroset.TRACE_RADIUS,
                "grid": zeroset.TRACE_GRID,
            }
        )
    skipped = [
        {"zero": e["zero"], "reason": e["reason"]} for e in errors
    ]
    result = {
        "passed": not any(e["failed"] for e in errors),
        "patches": patches,
        "skipped": skipped,
        "zeros_considered": int(len(built) + len(errors)),
    }
    if session.untraced:
        result.update(passed=False, inconclusive=True)
    return result


def _run_umbilicity(session: _Session) -> dict:
    built, errors = session.patches
    entries = []
    # A zero whose traced patch left the zero set has no verdict here.
    passed = not any(e["failed"] for e in errors)
    for patch, report in zip(built, umbilicity_report(session.chart, session.xi, built)):
        codim_even = patch.codim % 2 == 0
        ok = report.verdict in (VERDICT_UMBILICAL, VERDICT_POINT) and (patch.k == 0 or codim_even)
        passed = passed and ok
        entries.append(
            {
                "base": patch.base,
                "k": patch.k,
                "verdict": report.verdict,
                "max_residual": report.max_residual,
                "codim": patch.codim,
                "codim_even": codim_even,
                "mean_curvature_norms": report.mean_curvature_norms,
                "passed": bool(ok),
            }
        )
    result = {
        "passed": bool(passed),
        "tolerance": zeroset.UMBILICITY_TOL,
        "patches": entries,
    }
    if session.untraced:
        result.update(passed=False, inconclusive=True)
    return result


_RUNNERS = {
    "check-conformal": _run_check_conformal,
    "zeros": _run_zeros,
    "classify": _run_classify,
    "verify-identities": _run_verify_identities,
    "trace": _run_trace,
    "umbilicity": _run_umbilicity,
}
ANALYSES = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# the manifest table

# The largest chart dimension a manifest may ask for: check-conformal holds
# order-1 metric jets of 100 points * dim**3 floats, and on a 2-core x86-64
# VM a dense inline metric at dim 48 peaked at 302 MB in 0.5 s (659 MB at
# dim 64).  Every other analysis scans the grid, which it holds at once, and
# traces a k-dimensional zero set on TRACE_GRID ** k nodes with their jets,
# so it runs in at most _MAX_SCAN_DIM dimensions on at most _MAX_GRID_POINTS
# grid points (grid_resolution ** dim): the zero field on euclidean/8 at
# grid 6, every analysis, peaked at 282 MB in 57 s, while on euclidean/10
# it needed over 2 GB.
_MAX_DIM = 48
_MAX_SCAN_DIM = 8
_MAX_GRID_POINTS = 3_000_000


def _object(required: list, properties: dict) -> dict:
    """A JSON object with the ``required`` keys and no key outside
    ``properties``."""
    return {"type": "object", "required": required, "additionalProperties": False,
            "properties": properties}


# In report order: the 'config' section lists the settings in this order.
SETTINGS = {
    "seed": {"type": "integer", "minimum": 0, "default": 0,
             "description": "seed of the random draws; each analysis has its own stream"},
    "grid_resolution": {"type": "integer", "minimum": 3, "default": GRID_RESOLUTION,
                        "description": "grid points per axis of the zero search"},
}

# The manifest's shape in JSON Schema draft 4: 'confield schema' prints it
# and 'run' checks every value against it with _check.  A chart or a field
# is a builtin or an inline form; the builders check the rest (a square
# metric, its bounds, parsing, the SPD gate, a builder's params).
MANIFEST = _object(["chart", "field"], {
    "chart": {"oneOf": [
        _object(["name", "dim"], {
            "name": {"enum": sorted(CHART_BUILDERS)},
            "dim": {"type": "integer", "minimum": 2, "maximum": _MAX_DIM},
        }),
        _object(["metric", "lower", "upper"], {
            "metric": {"type": "array", "minItems": 1, "maxItems": _MAX_DIM,
                       "items": {"type": "array", "items": {"type": "string"}}},
            "lower": {"type": "array", "items": {"type": "number"}},
            "upper": {"type": "array", "items": {"type": "number"}},
            "name": {"type": "string"},
        }),
    ]},
    "field": {"oneOf": [
        _object(["name"], {
            "name": {"enum": sorted(FIELD_BUILDERS)},
            "params": {"type": "object"},
        }),
        _object(["components"], {
            "components": {"type": "array", "items": {"type": "string"}},
            "name": {"type": "string"},
        }),
    ]},
    "analyses": {"type": "array", "minItems": 1, "items": {"enum": [*ANALYSES, "all"]}},
    **SETTINGS,
})


def run_manifest(manifest: dict) -> tuple[dict, int]:
    """Execute a parsed manifest; returns (report, exit_code)."""
    _check(manifest, MANIFEST)
    chart = _build_chart(manifest["chart"])
    xi = _build_field(chart, manifest["field"])
    analyses = _resolve_analyses(manifest.get("analyses", ["all"]))
    cfg = {key: manifest.get(key, fragment["default"]) for key, fragment in SETTINGS.items()}
    grid = cfg["grid_resolution"]
    if analyses != ["check-conformal"]:
        _require(chart.dim <= _MAX_SCAN_DIM,
                 f"every analysis but 'check-conformal' needs dimension <= {_MAX_SCAN_DIM}; "
                 f"the chart has dimension {chart.dim}")
        _require(grid ** chart.dim <= _MAX_GRID_POINTS,
                 f"'grid_resolution' {grid} in dimension {chart.dim} asks for "
                 f"{grid}^{chart.dim} grid points; at most {_MAX_GRID_POINTS} are allowed")
    session = _Session(chart, xi, cfg)

    results = {}
    for name in analyses:
        try:
            outcome = _RUNNERS[name](session)
        except Exception as exc:  # analysis-level failure, not a usage error
            outcome = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        results[name] = outcome
    passed = all(outcome.get("passed", False) for outcome in results.values())

    report = {
        "version": __version__,
        "chart": {
            "name": chart.name,
            "dim": chart.dim,
            "lower": chart.lower,
            "upper": chart.upper,
        },
        "field": {
            "name": xi.name,
            "components": [str(c) for c in xi.components],
        },
        "config": cfg,
        "analyses": results,
        "passed": passed,
    }
    return report, 0 if passed else 1


# ---------------------------------------------------------------------------
# subcommands


def _schema() -> dict:
    return {"$schema": "http://json-schema.org/draft-04/schema#", **MANIFEST}


def _catalog() -> dict:
    def about(builder):
        return inspect.getdoc(builder).splitlines()[0]

    return {
        "charts": [
            {"name": name, "params": list(inspect.signature(builder).parameters),
             "about": about(builder)}
            for name, builder in CHART_BUILDERS.items()
        ],
        "fields": [
            {"name": name,
             "params": {key: {"type": type(default).__name__, "default": default}
                        for key, default in field_params(name).items()},
             "about": about(builder)}
            for name, builder in FIELD_BUILDERS.items()
        ],
        "analyses": list(ANALYSES),
    }


class _UsageError(Exception):
    """A command line that does not parse; ``main`` prints it and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, where argparse would print usage and exit;
    its subparsers are of this class too."""

    def error(self, message):
        raise _UsageError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so
    every ``main`` call shares it."""
    parser = _Parser(
        prog="confield",
        description="analyze conformal vector fields on coordinate charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an analysis manifest")
    run.add_argument("manifest", help="path to a JSON manifest")
    run.add_argument("--out", help="write the report to this file instead of stdout")

    sub.add_parser("schema", help="print the manifest schema as JSON")
    sub.add_parser("catalog", help="print builtin charts, fields, analyses")
    return parser


def main(argv=None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:
            key = extra[0].lstrip("-").partition("=")[0].replace("-", "_")
            hint = f"; set {key!r} in the manifest" if key in SETTINGS else ""
            raise _UsageError(f"unrecognized argument {extra[0]!r}{hint}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "schema":
        sys.stdout.write(render_report(_schema()))
        return 0
    if args.command == "catalog":
        sys.stdout.write(render_report(_catalog()))
        return 0

    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of over 4300 digits
        print(f"error: manifest is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: manifest is nested too deeply to decode", file=sys.stderr)
        return 2

    try:
        report, exit_code = run_manifest(manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
