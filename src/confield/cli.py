"""Command line front end: run analysis manifests, print catalog and schema.

``confield run manifest.json`` reads a JSON manifest describing a chart, a
field, and a list of analyses, executes them in the declared order, each
with its own seeded random stream, and emits a JSON report.  Reports are
byte-identical across runs for the same manifest and seed: floats are
written with 17 significant digits through a deterministic writer rather
than the default repr, and non-finite values become strings.

Exit codes: 0 when every analysis passed, 1 when an analysis failed or
raised, 2 for malformed manifests or unusable charts/fields.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .conformal import is_conformal
from .essential import (
    VERDICT_INVALID,
    ClassificationDimensionError,
    classify_zero,
    find_zeros,
    limit_point_audit,
)
from .expr import ExprSyntaxError, parse
from .geodesic import dxi_identity_residual, taylor_checks
from .geometry import Chart, ChartError, FieldSpec, MetricError, sample_interior
from .models import CHART_BUILDERS, FIELD_BUILDERS, field_params, make_chart, make_field
from .zeroset import (
    OffZeroSetError,
    PatchError,
    trace_component,
    umbilicity_report,
)

__all__ = ["main", "ManifestError", "run_manifest", "render_report"]


class Setting(NamedTuple):
    """One row of the settings table: a manifest key and how it is checked.

    Nested keys are dotted (``tolerances.zero``).  An ``int`` setting must
    be a JSON integer ``>= low``; a ``float`` setting a finite number
    ``> low``.  ``flag`` is the ``confield run`` option that overrides the
    manifest value, if there is one.
    """

    key: str
    type: type
    default: int | float
    low: int | float
    flag: str | None
    help: str


# In report order: the 'config' section lists the settings in this order.
SETTINGS = (
    Setting("seed", int, 0, 0, "--seed",
            "seed of the random draws; each analysis has its own stream"),
    Setting("grid_resolution", int, 12, 3, "--grid-resolution",
            "grid points per axis of the zero search"),
    Setting("isolation_radius", float, 0.05, 0, "--isolation-radius",
            "a zero with another zero this close is not isolated"),
    Setting("trace_radius", float, 0.3, 0, "--trace-radius",
            "half-width of the parameter grid of a traced patch"),
    Setting("trace_grid", int, 5, 3, "--trace-grid",
            "nodes per axis of a traced patch; odd, so the zero is a node"),
    Setting("trace_max_patches", int, 2, 1, None,
            "number of zero-set patches traced"),
    Setting("tolerances.zero", float, 1e-10, 0, "--zero-tol",
            "field norm below which a polished point is a zero"),
    Setting("tolerances.classification", float, 1e-6, 0, "--class-tol",
            "tolerance of the zero classification and of tracing"),
    Setting("tolerances.conformal", float, 1e-7, 0, "--conformal-tol",
            "largest conformal-equation residual accepted"),
    Setting("tolerances.umbilicity", float, 1e-4, 0, "--umbilicity-tol",
            "largest umbilicity residual accepted"),
    Setting("tolerances.identity", float, 1e-7, 0, "--identity-tol",
            "largest derivative-identity residual accepted"),
    Setting("samples.conformal_points", int, 100, 1, None,
            "sample points of check-conformal"),
    Setting("samples.identity_pairs", int, 50, 1, None,
            "point and direction pairs of verify-identities"),
)


class ManifestError(ValueError):
    """The manifest is malformed or names unusable inputs."""


# ---------------------------------------------------------------------------
# deterministic JSON writing


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _render(obj, indent: int, out: list):
    pad = "  " * indent
    child = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), indent, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for k, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key)}")
            out.append(child + json.dumps(key) + ": ")
            _render(value, indent + 1, out)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(obj):
            out.append(child)
            _render(value, indent + 1, out)
            out.append(",\n" if k + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)} into a report")


def render_report(report: dict) -> str:
    out: list = []
    _render(report, 0, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# manifest handling


def _require(cond: bool, message: str):
    if not cond:
        raise ManifestError(message)


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _build_chart(spec) -> Chart:
    _require(isinstance(spec, dict), "manifest 'chart' must be an object")
    if "name" in spec and "metric" not in spec:
        _require(isinstance(spec["name"], str), "chart 'name' must be a string")
        _require(spec["name"] in CHART_BUILDERS,
                 f"unknown chart {spec['name']!r}; see 'confield catalog'")
        dim = spec.get("dim")
        _require(isinstance(dim, int) and dim >= 2,
                 "builtin charts need an integer 'dim' >= 2")
        return make_chart(spec["name"], dim)
    _require("metric" in spec, "chart needs either 'name' or 'metric'")
    metric = spec["metric"]
    _require(isinstance(metric, list) and metric
             and all(isinstance(r, list) for r in metric),
             "'metric' must be a non-empty list of rows")
    dim = len(metric)
    _require(all(len(r) == dim for r in metric), "'metric' must be square")
    _require("lower" in spec and "upper" in spec,
             "inline charts need 'lower' and 'upper' bounds")
    lower, upper = spec["lower"], spec["upper"]
    _require(isinstance(lower, list) and isinstance(upper, list)
             and len(lower) == dim and len(upper) == dim
             and all(map(_finite_number, lower + upper)),
             "'lower'/'upper' must be lists of finite numbers matching the metric dimension")
    _require(all(math.isfinite(float(u) - float(lo)) for lo, u in zip(lower, upper)),
             "'lower'/'upper' span a box whose extent upper - lower overflows a float")
    try:
        rows = tuple(
            tuple(parse(str(entry), dim) for entry in row) for row in metric
        )
    except ExprSyntaxError as exc:
        raise ManifestError(f"bad metric expression: {exc}") from exc
    try:
        chart = Chart(dim=dim, lower=np.asarray(lower, dtype=float),
                      upper=np.asarray(upper, dtype=float), metric=rows,
                      name=str(spec.get("name", "inline_chart")))
        chart.validate_spd(np.random.default_rng(0), samples=10)
    except (ChartError, MetricError, ValueError) as exc:
        raise ManifestError(f"unusable chart: {exc}") from exc
    return chart


def _build_field(chart: Chart, spec) -> FieldSpec:
    _require(isinstance(spec, dict), "manifest 'field' must be an object")
    if "name" in spec and "components" not in spec:
        _require(isinstance(spec["name"], str), "field 'name' must be a string")
        params = spec.get("params", {})
        _require(isinstance(params, dict), "'params' must be an object")
        try:
            return make_field(chart, spec["name"], params)
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
    _require("components" in spec, "field needs either 'name' or 'components'")
    comps = spec["components"]
    _require(isinstance(comps, list) and len(comps) == chart.dim,
             f"'components' must list {chart.dim} expressions")
    try:
        exprs = tuple(parse(str(c), chart.dim) for c in comps)
    except ExprSyntaxError as exc:
        raise ManifestError(f"bad field expression: {exc}") from exc
    return FieldSpec.vector(chart, exprs, name=str(spec.get("name", "inline_field")))


def _resolve_config(manifest: dict, args) -> dict:
    """Table defaults, then manifest values, then flags; every value checked."""
    cfg: dict = {}
    for s in SETTINGS:
        section, _, leaf = s.key.rpartition(".")
        given = manifest.get(section, {}) if section else manifest
        _require(isinstance(given, dict), f"{section!r} must be an object")
        value = getattr(args, s.key, None)
        if value is None:
            value = given.get(leaf, s.default)
        is_int = s.type is int
        _require(_finite_number(value) and (isinstance(value, int) or not is_int),
                 f"{s.key!r} must be {'an integer' if is_int else 'a finite number'}, "
                 f"got {json.dumps(value)}")
        value = s.type(value)
        _require(value >= s.low if is_int else value > s.low,
                 f"{s.key!r} must be {'>=' if is_int else '>'} {s.low}, got {value}")
        node = cfg.setdefault(section, {}) if section else cfg
        node[leaf] = value
    known = ["chart", "field", "analyses", *cfg]
    for key in manifest:
        _require(key in known, f"unknown setting {key!r}; known: {known}")
        if isinstance(cfg.get(key), dict):
            for leaf in manifest[key]:
                _require(leaf in cfg[key], f"unknown setting '{key}.{leaf}'; "
                                           f"known: {list(cfg[key])}")
    _require(cfg["trace_grid"] % 2 == 1, "'trace_grid' must be an odd integer >= 3")
    return cfg


def _resolve_analyses(manifest: dict) -> list:
    analyses = manifest.get("analyses", ["all"])
    _require(isinstance(analyses, list) and analyses,
             "'analyses' must be a non-empty list")
    resolved = []
    for name in analyses:
        if name == "all":
            resolved.extend(a for a in ANALYSES if a not in resolved)
            continue
        _require(name in ANALYSES,
                 f"unknown analysis {name!r}; known: {list(ANALYSES)} or 'all'")
        if name not in resolved:
            resolved.append(name)
    return resolved


# ---------------------------------------------------------------------------
# analysis execution


class _Session:
    """Shared lazily-computed state threaded through the analyses."""

    def __init__(self, chart, xi, cfg):
        self.chart = chart
        self.xi = xi
        self.cfg = cfg
        self._zeros = None
        self._classifications = None
        self._patches = None

    def stream(self, analysis: str) -> np.random.Generator:
        """A fresh generator of the analysis' own stream: its numbers do not
        depend on which other analyses run."""
        return np.random.default_rng([self.cfg["seed"], ANALYSES.index(analysis)])

    @property
    def zeros(self):
        if self._zeros is None:
            self._zeros = find_zeros(
                self.chart,
                self.xi,
                grid_resolution=self.cfg["grid_resolution"],
                tol=self.cfg["tolerances"]["zero"],
            )
        return self._zeros

    @property
    def classifications(self):
        """One classification per zero, from one call on the classify
        stream: classify and tracing read the same verdicts whichever of
        them runs."""
        if self._classifications is None:
            tol = self.cfg["tolerances"]
            self._classifications = classify_zero(
                self.chart, self.xi, self.zeros, tol=tol["classification"],
                conformal_tol=tol["conformal"], rng=self.stream("classify"))
        return self._classifications

    def patches(self):
        if self._patches is not None:
            return self._patches
        built = []
        errors = []
        for cls in self.classifications:
            if len(built) >= self.cfg["trace_max_patches"]:
                break
            try:
                patch = trace_component(
                    self.chart,
                    self.xi,
                    cls,
                    radius=self.cfg["trace_radius"],
                    grid=self.cfg["trace_grid"],
                )
            except PatchError as exc:
                # Refused zeros (not Killing-type, a predictor leaving the
                # chart) are skips; a patch off the zero set is a failure.
                errors.append({
                    "zero": cls.point,
                    "reason": str(exc),
                    "failed": isinstance(exc, OffZeroSetError),
                })
                continue
            built.append(patch)
        self._patches = (built, errors)
        return self._patches


def _run_check_conformal(session: _Session) -> dict:
    cfg = session.cfg
    pts = sample_interior(session.chart, cfg["samples"]["conformal_points"],
                          session.stream("check-conformal"))
    report = is_conformal(session.chart, session.xi, pts, cfg["tolerances"]["conformal"])
    return {
        "passed": bool(report.conformal),
        "samples": int(len(report.points)),
        "max_residual": report.max_residual,
        "worst_point": report.worst_point,
        "tolerance": report.tolerance,
    }


def _run_zeros(session: _Session) -> dict:
    zeros = session.zeros
    return {
        "passed": True,
        "count": int(len(zeros)),
        "points": zeros,
        "tolerance": session.cfg["tolerances"]["zero"],
        "grid_resolution": session.cfg["grid_resolution"],
    }


def _run_classify(session: _Session) -> dict:
    cfg = session.cfg
    if session.chart.dim < 3 and len(session.zeros):
        raise ClassificationDimensionError(
            "zero classification needs dimension >= 3; the image criterion "
            "does not apply to surfaces"
        )
    classifications = session.classifications
    entries = [
        {
            "point": cls.point,
            "verdict": cls.verdict,
            "phi": cls.phi,
            "image_residual": cls.image_residual,
            "kernel_dim": cls.kernel_dim,
            "rank_dxi": cls.rank_dxi,
            "neighborhood_residual": cls.neighborhood_residual,
        }
        for cls in classifications
    ]
    audit = None
    if classifications:
        audit_result = limit_point_audit(classifications, radius=cfg["isolation_radius"])
        audit = {
            "radius": audit_result.radius,
            "assertions": audit_result.assertions,
            "passed": audit_result.passed,
        }
    verdicts_ok = all(cls.verdict != VERDICT_INVALID for cls in classifications)
    passed = verdicts_ok and (audit is None or audit["passed"])
    return {
        "passed": bool(passed),
        "entries": entries,
        "audit": audit,
        "tolerance": cfg["tolerances"]["classification"],
    }


def _run_verify_identities(session: _Session) -> dict:
    cfg = session.cfg
    tol = cfg["tolerances"]["identity"]
    pairs = cfg["samples"]["identity_pairs"]
    rng = session.stream("verify-identities")
    pts = sample_interior(session.chart, pairs, rng)
    dirs = rng.normal(size=(pairs, session.chart.dim))
    # np.max, unlike max(), propagates a NaN residual to the gate.
    worst = float(np.max(dxi_identity_residual(session.chart, session.xi, pts, dirs)))
    result = {
        "pairs": pairs,
        "max_identity_residual": worst,
        "identity_tolerance": tol,
    }
    passed = bool(np.isfinite(worst) and worst < tol)

    taylor = []
    for z in session.zeros[:4]:
        v = rng.normal(size=session.chart.dim)
        scalar, vector = taylor_checks(session.chart, session.xi, z, v)
        entry_ok = (
            scalar.derivative_residual < 1e-6
            and vector.first_residual < 1e-6
            and vector.second_residual < 1e-4
        )
        passed = passed and entry_ok
        taylor.append(
            {
                "zero": z,
                "scalar_residual": scalar.derivative_residual,
                "vector_first_residual": vector.first_residual,
                "vector_second_residual": vector.second_residual,
                "passed": bool(entry_ok),
            }
        )
    result["taylor_at_zeros"] = taylor
    result["passed"] = bool(passed)
    return result


def _run_trace(session: _Session) -> dict:
    built, errors = session.patches()
    patches = []
    for patch in built:
        patches.append(
            {
                "base": patch.base,
                "k": patch.k,
                "codim": patch.codim,
                "max_field_norm": patch.max_field_norm,
                "radius": session.cfg["trace_radius"],
                "grid": session.cfg["trace_grid"],
            }
        )
    skipped = [
        {"zero": e["zero"], "reason": e["reason"]} for e in errors
    ]
    return {
        "passed": not any(e["failed"] for e in errors),
        "patches": patches,
        "skipped": skipped,
        "zeros_considered": int(len(built) + len(errors)),
    }


def _run_umbilicity(session: _Session) -> dict:
    built, errors = session.patches()
    tol = session.cfg["tolerances"]["umbilicity"]
    entries = []
    # A zero whose traced patch left the zero set has no verdict here.
    passed = not any(e["failed"] for e in errors)
    for patch in built:
        report = umbilicity_report(session.chart, patch, tol=tol)
        ok = report.verdict in ("totally_umbilical", "point")
        if patch.k > 0:
            ok = ok and report.codim_even
        passed = passed and ok
        entries.append(
            {
                "base": patch.base,
                "k": patch.k,
                "verdict": report.verdict,
                "max_residual": report.max_residual,
                "codim": report.codim,
                "codim_even": report.codim_even,
                "mean_curvature_norms": report.mean_curvature_norms,
                "passed": bool(ok),
            }
        )
    return {
        "passed": bool(passed),
        "tolerance": tol,
        "patches": entries,
    }


_RUNNERS = {
    "check-conformal": _run_check_conformal,
    "zeros": _run_zeros,
    "classify": _run_classify,
    "verify-identities": _run_verify_identities,
    "trace": _run_trace,
    "umbilicity": _run_umbilicity,
}
ANALYSES = tuple(_RUNNERS)


def run_manifest(manifest: dict, args) -> tuple[dict, int]:
    """Execute a parsed manifest; returns (report, exit_code)."""
    _require(isinstance(manifest, dict), "manifest root must be a JSON object")
    _require("chart" in manifest, "manifest needs a 'chart' entry")
    _require("field" in manifest, "manifest needs a 'field' entry")
    chart = _build_chart(manifest["chart"])
    xi = _build_field(chart, manifest["field"])
    analyses = _resolve_analyses(manifest)
    cfg = _resolve_config(manifest, args)
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
    settings: dict = {}
    for s in SETTINGS:
        section, _, leaf = s.key.rpartition(".")
        node = settings
        if section:
            node = settings.setdefault(section, {
                "type": "object", "properties": {}, "additionalProperties": False,
            })["properties"]
        node[leaf] = {
            "type": "integer" if s.type is int else "number",
            "minimum" if s.type is int else "exclusiveMinimum": s.low,
            "default": s.default,
            "description": s.help,
        }
    return {
        "type": "object",
        "required": ["chart", "field"],
        "additionalProperties": False,
        "properties": {
            "chart": {
                "oneOf": [
                    {
                        "type": "object",
                        "required": ["name", "dim"],
                        "properties": {
                            "name": {"enum": sorted(CHART_BUILDERS)},
                            "dim": {"type": "integer", "minimum": 2},
                        },
                    },
                    {
                        "type": "object",
                        "required": ["metric", "lower", "upper"],
                        "properties": {
                            "metric": {
                                "type": "array",
                                "items": {"type": "array", "items": {"type": "string"}},
                            },
                            "lower": {"type": "array", "items": {"type": "number"}},
                            "upper": {"type": "array", "items": {"type": "number"}},
                            "name": {"type": "string"},
                        },
                    },
                ]
            },
            "field": {
                "oneOf": [
                    {
                        "type": "object",
                        "required": ["name"],
                        "properties": {
                            "name": {"enum": sorted(FIELD_BUILDERS)},
                            "params": {"type": "object"},
                        },
                    },
                    {
                        "type": "object",
                        "required": ["components"],
                        "properties": {
                            "components": {"type": "array", "items": {"type": "string"}},
                            "name": {"type": "string"},
                        },
                    },
                ]
            },
            "analyses": {
                "type": "array",
                "items": {"enum": list(ANALYSES) + ["all"]},
            },
            **settings,
        },
    }


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confield",
        description="analyze conformal vector fields on coordinate charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an analysis manifest")
    run.add_argument("manifest", help="path to a JSON manifest")
    run.add_argument("--out", help="write the report to this file instead of stdout")
    for s in SETTINGS:
        if s.flag:
            run.add_argument(s.flag, dest=s.key, type=s.type, metavar=s.type.__name__.upper(),
                             help=f"{s.help} (manifest '{s.key}', default {s.default})")

    sub.add_parser("schema", help="print the manifest schema as JSON")
    sub.add_parser("catalog", help="print builtin charts, fields, analyses")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
    except json.JSONDecodeError as exc:
        print(f"error: manifest is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        report, exit_code = run_manifest(manifest, args)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
