"""Manifest runner: report rendering, determinism, exit codes."""
import argparse
import json
import math
import struct
import sys

import jsonschema
import numpy as np
import pytest

import confield.cli as cli
import confield.essential as essential
import confield.geodesic as geodesic
import confield.models as models
from confield.cli import SETTINGS, main, render_report
from helpers import (counting_steps, mobius_conjugate, mobius_field, mobius_matrix,
                     mobius_parts, reference_render_report, workload_manifests,
                     workload_reports)
from test_readme import command_line_manifests

# the schema 'confield schema' prints, as a draft-04 validator
SCHEMA = jsonschema.Draft4Validator(cli._schema())


@pytest.fixture(autouse=True)
def _accepted_manifests_are_schema_valid(monkeypatch):
    """Every manifest that 'run' accepts in this module is valid under the
    schema: the printed schema is the rule that runs."""
    run_manifest = cli.run_manifest

    def checked(manifest):
        result = run_manifest(manifest)
        SCHEMA.validate(manifest)
        return result

    monkeypatch.setattr(cli, "run_manifest", checked)


def _write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_to_report(tmp_path, manifest, name="m.json"):
    mpath = _write_manifest(tmp_path, manifest, name)
    out = tmp_path / (name + ".report.json")
    code = main(["run", mpath, "--out", str(out)])
    return code, json.loads(out.read_text())


ZEROS_MANIFEST = {
    "chart": {"name": "euclidean", "dim": 3},
    "field": {"name": "rotation"},
    "analyses": ["zeros"],
}

ROTATION_MANIFEST = {
    "chart": {"name": "euclidean", "dim": 3},
    "field": {"name": "rotation", "params": {"axis_i": 1, "axis_j": 2}},
    "analyses": ["all"],
    "seed": 7,
}


# -- rendering -----------------------------------------------------------------


def test_render_report_numbers_round_trip():
    report = {
        "a": 0.05,
        "b": 1.0 / 3.0,
        "nested": {"c": [1, 2.5, True], "d": "text"},
        "weird": [math.nan, math.inf, -math.inf],
        "nested_weird": (1.5, (math.nan, -math.inf), np.array([[math.inf]])),
        "n": None,
    }
    text = render_report(report)
    parsed = json.loads(text)
    assert parsed["a"] == 0.05
    assert parsed["b"] == 1.0 / 3.0
    assert parsed["nested"]["c"] == [1, 2.5, True]
    assert parsed["weird"] == ["nan", "inf", "-inf"]
    assert parsed["nested_weird"] == [1.5, ["nan", "-inf"], [["inf"]]]
    assert parsed["n"] is None
    assert text.endswith("\n")


def test_render_report_handles_numpy_scalars_and_arrays():
    report = {
        "v": np.float64(0.25),
        "i": np.int64(3),
        "flag": np.bool_(True),
        "arr": np.array([1.5, 2.5]),
    }
    parsed = json.loads(render_report(report))
    assert parsed == {"v": 0.25, "i": 3, "flag": True, "arr": [1.5, 2.5]}


def test_render_report_preserves_insertion_order():
    text = render_report({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


@pytest.mark.parametrize("value", [-0.0, 2.0, 5e-324, 0.1 + 0.2, 1.7976931348623157e308])
def test_render_report_floats_parse_back_bit_identical(value):
    parsed = json.loads(render_report({"x": value, "arr": np.array([value]),
                                       "scalar": np.float64(value)}))
    for got in (parsed["x"], parsed["arr"][0], parsed["scalar"]):
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", value)


EDGE_REPORTS = [
    {"values": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1.5],
     "alone": math.nan, "ends": [1.0, -math.inf], "int_and_float": [1, 1.0]},
    {"bool": np.bool_(False), "int": np.int64(-7), "float": np.float64(1e16),
     "nan": np.float64(math.nan), "zero_d": np.array(2.5), "zero_d_int": np.array(3),
     "empty": np.array([]), "empty_2d": np.zeros((2, 0)), "matrix": np.eye(2),
     "mixed": [np.float64(0.5), 0.25, np.int64(1)]},
    {"empty_dict": {}, "empty_list": [], "empty_tuple": (), "nested": {"a": [{}, [], [[]]]},
     "tuple": (1, (2.0, "x"), None), "flags": [True, False, None],
     "text": "naïve ∂ξ \"quoted\" \\ \n\t\u0001", "naïve key ∂": "é"},
    {}, [], [1.0],
]


@pytest.mark.parametrize("report", EDGE_REPORTS)
def test_render_report_writes_the_bytes_of_json_dumps(report):
    """Non-finite values, -0.0, subnormals, numpy scalars, 0-d and empty
    arrays, empty containers, tuples and non-ASCII strings: the one-pass
    writer gives the bytes of json.dumps over plain values."""
    assert render_report(report) == reference_render_report(report)


def test_render_report_writes_the_bytes_of_json_dumps_on_the_workloads():
    """The 22 seed-1 benchmark reports, the schema and the catalog."""
    reports = [report for _, report, _ in workload_reports(1)]
    assert len(reports) == 22
    for report in reports + [cli._schema(), cli._catalog()]:
        assert render_report(report) == reference_render_report(report)


def test_render_report_refuses_what_json_cannot_write():
    for report in ({"s": {1, 2}}, {1: 2}, [object()]):
        with pytest.raises(TypeError):
            render_report(report)


def test_a_report_is_a_fixed_point_of_the_writer(tmp_path):
    _run_to_report(tmp_path, ROTATION_MANIFEST)
    texts = [(tmp_path / "m.json.report.json").read_text(),
             render_report({"signed_zero": -0.0, "whole": [2.0, np.float64(-3.0)]})]
    for text in texts:
        assert render_report(json.loads(text)) == text


# -- command surface -------------------------------------------------------------


def test_schema_and_catalog_commands(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert "properties" in schema
    assert "chart" in schema["properties"]
    assert "field" in schema["properties"]
    assert list(schema["properties"]) == [
        "chart", "field", "analyses", "seed", "grid_resolution",
    ]

    assert main(["catalog"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert {c["name"] for c in catalog["charts"]} == {
        "euclidean", "sphere_stereographic", "hyperbolic_ball",
    }
    fields = {f["name"]: f for f in catalog["fields"]}
    assert fields["rotation"]["params"] == {
        "axis_i": {"type": "int", "default": 1},
        "axis_j": {"type": "int", "default": 2},
    }
    assert fields["euler"]["params"] == {}
    assert all(entry["about"] for entry in catalog["charts"] + catalog["fields"])
    assert set(catalog["analyses"]) == {
        "check-conformal", "zeros", "classify",
        "verify-identities", "trace", "umbilicity",
    }


def test_missing_manifest_file_is_usage_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read manifest" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "r.json"
    code = main(["run", _write_manifest(tmp_path, ZEROS_MANIFEST), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write report: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_invalid_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe",
    b"[" * 100000 + b"]" * 100000,
    b'{"chart": ' + b"[" * 3000 + b"]" * 3000 + b"}",
    b'{"seed": ' + b"1" * 5000 + b"}",
], ids=["not-utf8", "deep-root", "deep-chart", "long-integer"])
def test_undecodable_manifest_files_exit_two(tmp_path, capsys, content):
    """Bytes that are not UTF-8, JSON nested past the decoder's recursion
    limit, or an integer longer than Python converts, are a usage error
    with one line, not a traceback."""
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: manifest is ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


DEEP_COMPONENTS = ["(" * 3000 + "1" + ")" * 3000, "+".join(["1"] * 5000)]

# needles of the checks no draft-4 schema can state: a field of the chart's
# dimension, parsing and compiling, a builder's params, a box extent that
# overflows, the dimension and size of the grid scan, and a finite number
# (JSON has no infinity, but 1e400 reads as one)
BUILDER_NEEDLES = {"components", "metric", "axis_i", "exponent", "out of range",
                   "'lower'/'upper'", "bad field expression", "bad metric expression",
                   "'grid_resolution' 10000 in dimension 3",
                   f"needs dimension <= {cli._MAX_SCAN_DIM}",
                   "chart 'lower'[0] must be a finite number"}



@pytest.mark.parametrize(
    "manifest,needle",
    [
        ({"chart": {"name": "torus", "dim": 3},
          "field": {"name": "rotation"}, "analyses": ["zeros"]}, "torus"),
        ({"chart": {"name": "euclidean", "dim": 3},
          "field": {"name": "warp"}, "analyses": ["zeros"]}, "warp"),
        ({"chart": {"name": "euclidean", "dim": 3},
          "field": {"name": "rotation"}, "analyses": ["fome"]}, "fome"),
        ({"chart": {"name": "euclidean", "dim": 3},
          "field": {"components": ["x1", "x2"]}, "analyses": ["zeros"]},
         "components"),
        ({"chart": {"name": "euclidean", "dim": 3},
          "field": {"name": "rotation"}, "analyses": ["zeros"],
          "tolerances": {"bogus": 1.0}}, "bogus"),
        ({"chart": {"metric": [["1", "0"], ["0", "1 +"]],
                    "lower": [-1, -1], "upper": [1, 1]},
          "field": {"components": ["x1", "x2"]}, "analyses": ["zeros"]},
         "metric"),
        ({"chart": {"name": "euclidean", "dim": 1},
          "field": {"name": "rotation"}, "analyses": ["zeros"]}, "dim"),
        *[({**ZEROS_MANIFEST, **bad}, needle) for bad, needle in [
            ({"tolerances": {"zero": "abc"}}, "tolerances.zero"),
            ({"grid_resolution": "x"}, "grid_resolution"),
            ({"seed": -1}, "seed"),
            ({"trace_radius": "big"}, "trace_radius"),
            ({"samples": {"conformal_points": 0}}, "samples.conformal_points"),
            ({"seed": True}, "seed"),
            ({"isolation_radius": -1}, "isolation_radius"),
            ({"tolerances": {"umbilicity": None}}, "tolerances.umbilicity"),
            ({"grid_resolution": 2.5}, "grid_resolution"),
        ]],
        ({**ZEROS_MANIFEST, "field": {"name": "rotation", "params": {"axis_i": 1.0}}},
         "axis_i"),
        ({**ZEROS_MANIFEST, "field": {"name": "rotation", "params": {"axis_i": True}}},
         "axis_i"),
        ({**ZEROS_MANIFEST, "geo_steps": 96}, "unknown setting 'geo_steps'"),
        ({**ZEROS_MANIFEST, "grid_resoluton": 12}, "unknown setting 'grid_resoluton'"),
        *[({"chart": {"name": "euclidean", "dim": 2},
            "field": {"components": [component, "x2"]}, "analyses": ["zeros"]},
           needle) for component, needle in [
            ("x1^(0^(-1))", "exponent"),
            ("x1^log(0)", "exponent"),
            ("x1^exp(1000)", "exponent"),
            ("x1^(10^400)", "exponent"),
            ("1e400*x1", "out of range"),
        ]],
        ({**ZEROS_MANIFEST, "fd_step": 0.001}, "unknown setting 'fd_step'"),
        ({**ZEROS_MANIFEST, "chart": {"name": ["e"], "dim": 3}}, "chart 'name'"),
        ({**ZEROS_MANIFEST, "field": {"name": ["x"]}}, "field 'name'"),
        *[({"chart": {"metric": [["1", "0"], ["0", "1"]], **bounds},
            "field": {"components": ["x2", "-x1"]}, "analyses": ["zeros"]},
           needle) for bounds, needle in [
            ({"lower": [-1, -1], "upper": ["1", 1]}, "chart 'upper'"),
            ({"lower": [False, -1], "upper": [True, 1]}, "chart 'lower'"),
            ({"lower": [-1e308, -1], "upper": [1e308, 1]}, "'lower'/'upper'"),
        ]],
        # too deep for the recursive parser or compiler
        *[({**ZEROS_MANIFEST, "field": {"components": [component, "x1", "0"]}},
           "bad field expression") for component in DEEP_COMPONENTS],
        *[({"chart": {"metric": [[entry, "0"], ["0", "1"]],
                      "lower": [-1, -1], "upper": [1, 1]},
            "field": {"components": ["x2", "-x1"]}, "analyses": ["zeros"]},
           "bad metric expression") for entry in DEEP_COMPONENTS],
        # every value but the two settings is fixed, so no manifest can
        # loosen a gate
        *[({**ZEROS_MANIFEST, **removed}, f"unknown setting {needle!r}") for removed, needle in [
            ({"tolerances": {"conformal": 1e300}}, "tolerances.conformal"),
            ({"tolerances": {"classification": 1e-3}}, "tolerances.classification"),
            ({"tolerances": {"identity": 1.0}}, "tolerances.identity"),
            ({"tolerances": {}}, "tolerances"),
            ({"samples": {"identity_pairs": 5}}, "samples.identity_pairs"),
            ({"trace_grid": 9}, "trace_grid"),
            ({"trace_max_patches": 1}, "trace_max_patches"),
            ({"isolation_radius": 0.1}, "isolation_radius"),
            ({"trace_radius": 0.02}, "trace_radius"),
        ]],
        # a misspelled key of the chart or field object is named, not ignored
        *[({**ZEROS_MANIFEST, **bad}, needle) for bad, needle in [
            ({"field": {"name": "rotation", "parms": {"axis_i": 2, "axis_j": 3}}},
             "unknown field key 'parms'"),
            ({"field": {"components": ["x2", "-x1", "0"], "param": {}}},
             "unknown field key 'param'"),
            ({"chart": {"name": "euclidean", "dim": 3, "dims": 4}},
             "unknown chart key 'dims'"),
            ({"chart": {"metric": [["1", "0"], ["0", "1"]], "lower": [-1, -1],
                        "upper": [1, 1], "lowr": [0, 0]}, "field": {"components": ["x2", "-x1"]}},
             "unknown chart key 'lowr'"),
        ]],
        # entries, components and names are strings, and both lists hold an
        # item: the schema said so before 'run' did
        *[({**ZEROS_MANIFEST, **bad}, needle) for bad, needle in [
            ({"chart": {"metric": [[1, 0], [0, 1]], "lower": [-1, -1], "upper": [1, 1]},
              "field": {"components": ["x2", "-x1"]}}, "chart 'metric'[0][0]"),
            ({"field": {"components": [0, "x3", "-x2"]}}, "field 'components'[0]"),
            ({"chart": {"metric": [["1", "0"], ["0", "1"]], "lower": [-1, -1],
                        "upper": [1, 1], "name": 5},
              "field": {"components": ["x2", "-x1"]}}, "chart 'name'"),
            ({"field": {"components": ["0", "x3", "-x2"], "name": ["a"]}}, "field 'name'"),
            ({"analyses": []}, "analyses must hold at least 1"),
            ({"chart": {"metric": [], "lower": [], "upper": []}}, "chart 'metric'"),
        ]],
        # a manifest cannot ask for more memory than the machine has
        ({**ZEROS_MANIFEST, "chart": {"name": "euclidean", "dim": cli._MAX_DIM + 1}},
         f"chart 'dim' must be <= {cli._MAX_DIM}"),
        ({**ZEROS_MANIFEST, "chart": {"metric": [["1"] * (cli._MAX_DIM + 1)] * (cli._MAX_DIM + 1),
                                      "lower": [-1] * (cli._MAX_DIM + 1),
                                      "upper": [1] * (cli._MAX_DIM + 1)}},
         f"chart 'metric' must hold at most {cli._MAX_DIM} items"),
        ({**ZEROS_MANIFEST, "grid_resolution": 10_000}, "'grid_resolution' 10000 in dimension 3"),
        ({**ZEROS_MANIFEST, "chart": {"name": "euclidean", "dim": cli._MAX_SCAN_DIM + 1}},
         f"needs dimension <= {cli._MAX_SCAN_DIM}"),
        ({"chart": {"metric": [["1", "0"], ["0", "1"]], "lower": [-1e400, -1], "upper": [1, 1]},
          "field": {"components": ["x2", "-x1"]}, "analyses": ["zeros"]},
         "chart 'lower'[0] must be a finite number"),
    ],
)
def test_malformed_manifests_exit_two(tmp_path, capsys, manifest, needle):
    code = main(["run", _write_manifest(tmp_path, manifest)])
    err = capsys.readouterr().err
    assert code == 2
    assert needle in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    # the schema refuses every case but those of the checks no schema can state
    assert SCHEMA.is_valid(manifest) is (needle in BUILDER_NEEDLES)


def test_a_value_json_has_no_form_for_is_a_manifest_error():
    """A library caller's numpy integer is no JSON integer: refused with
    the key's name, not a TypeError from showing it."""
    manifest = {"chart": {"name": "euclidean", "dim": np.int64(3)}, "field": {"name": "rotation"}}
    with pytest.raises(cli.ManifestError, match="chart 'dim' must be an integer, got "):
        cli.run_manifest(manifest)


def test_check_conformal_alone_runs_past_the_scan_dimension(tmp_path):
    """Only the analyses that scan the grid stop at the scan dimension;
    check-conformal runs up to the chart dimension limit."""
    manifest = {"chart": {"name": "hyperbolic_ball", "dim": cli._MAX_SCAN_DIM + 4},
                "field": {"name": "rotation"}, "analyses": ["check-conformal"]}
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0 and report["analyses"]["check-conformal"]["passed"]


def test_the_schema_accepts_the_workload_and_readme_manifests():
    """The benchmark's manifests at seeds 1 and 2, which
    test_workload_verdicts_are_pinned runs, and the README's, which
    test_readme runs, are valid under the schema."""
    manifests = [m for seed in (1, 2) for _, m in workload_manifests(seed)]
    manifests += [json.loads(text) for text in command_line_manifests()]
    assert len(manifests) == 46
    for manifest in manifests:
        SCHEMA.validate(manifest)


def test_an_800_term_sum_runs_and_prints(tmp_path):
    """A deep tree that fits the evaluator is not refused: every analysis
    evaluates it, at order 2 where they need it, and the report prints it."""
    component = "+".join(["-x2"] + ["0"] * 799)
    manifest = {**ROTATION_MANIFEST, "field": {"components": [component, "x1", "0"]}}
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    assert report["field"]["components"][0] == " + ".join(["-x2"] + ["0"] * 799)


def _run_metric_sum(tmp_path, capsys, terms):
    """Exit code of every analysis of a rotation on a flat chart whose g11
    is a sum of ``terms`` terms, one tree level each; a refusal must be
    the one-line compile message."""
    entry = "+".join(["1"] + ["0*x1"] * (terms - 1))
    manifest = {"chart": {"metric": [[entry, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                          "lower": [-1, -1, -1], "upper": [1, 1, 1]},
                "field": {"components": ["x2", "-x1", "0"]}, "analyses": ["all"], "seed": 1}
    code = main(["run", _write_manifest(tmp_path, manifest)])
    err = capsys.readouterr().err
    if code == 2:
        assert err.strip() == "error: bad metric expression: nested too deeply to compile"
    return code


@pytest.mark.parametrize("terms", range(978, 983))
def test_deep_metric_sums_are_refused_at_build_or_run_everywhere(tmp_path, capsys, terms):
    """Metric trees are compiled when the chart is built, and the compiled
    tape is evaluated without recursion: near the recursion limit an entry
    is refused as a manifest error or runs every analysis, never fails
    inside one."""
    assert _run_metric_sum(tmp_path, capsys, terms) in (0, 2)


def test_metric_sums_just_below_the_compile_limit_run(tmp_path, capsys):
    """Wherever the recursion limit falls under this test's stack, the sums
    just short of the shortest refused one run every analysis."""
    lo, hi = 500, 2000
    assert _run_metric_sum(tmp_path, capsys, lo) == 0
    assert _run_metric_sum(tmp_path, capsys, hi) == 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        code = _run_metric_sum(tmp_path, capsys, mid)
        assert code in (0, 2)
        lo, hi = (mid, hi) if code == 0 else (lo, mid)
    for terms in range(lo - 8, lo):
        assert _run_metric_sum(tmp_path, capsys, terms) == 0


def _run_zero_quotient(tmp_path, terms):
    """Exit code and check-conformal outcome of a rotation whose third
    component is 0*x3 over a vanishing sum of ``terms`` terms, one tree
    level each."""
    denominator = "+".join(["1"] * (terms - 1)) + f"-{terms - 1}"
    manifest = {"chart": {"name": "euclidean", "dim": 3},
                "field": {"components": ["x2", "-x1", f"0*x3/({denominator})"]},
                "analyses": ["check-conformal"]}
    out = tmp_path / "quotient.report.json"
    code = main(["run", _write_manifest(tmp_path, manifest), "--out", str(out)])
    return code, json.loads(out.read_text())["analyses"]["check-conformal"] if code != 2 else None


def test_errors_print_trees_just_below_the_compile_limit(tmp_path, capsys):
    """A domain error names its subexpression: the printer has no depth
    limit of its own, so every tree that compiles prints in the error."""
    lo, hi = 500, 2000
    assert _run_zero_quotient(tmp_path, lo)[0] == 1
    assert _run_zero_quotient(tmp_path, hi)[0] == 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        code, _ = _run_zero_quotient(tmp_path, mid)
        assert code in (1, 2)
        lo, hi = (mid, hi) if code == 1 else (lo, mid)
    assert capsys.readouterr().err.strip().endswith(
        "error: bad field expression: nested too deeply to compile")
    for terms in range(lo - 7, lo + 1):
        code, outcome = _run_zero_quotient(tmp_path, terms)
        assert code == 1
        assert outcome["error"].startswith(
            "EvalDomainError: division by zero in subexpression '0*x3/(1 + 1 + ")


@pytest.mark.parametrize("flags,needle", [
    (["--seed", "-1"], "seed"),
    (["--grid-resolution", "2"], "grid_resolution"),
    # 'run' takes no option but --out: the settings live in the manifest
    (["--grid-resolution=10"], "set 'grid_resolution' in the manifest"),
    *[([flag, value], f"unrecognized argument '{flag}'") for flag, value in [
        ("--zero-tol", "1e-9"),
        ("--class-tol", "1e-3"),
        ("--conformal-tol", "1e300"),
        ("--umbilicity-tol", "1"),
        ("--identity-tol", "1"),
        ("--isolation-radius", "0.1"),
        ("--trace-radius", "0.02"),
        ("--trace-grid", "9"),
    ]],
])
def test_malformed_flags_exit_two(tmp_path, capsys, flags, needle):
    code = main(["run", _write_manifest(tmp_path, ZEROS_MANIFEST), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert needle in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,needle", [
    (["run"], "the following arguments are required: manifest"),
    (["run", "m.json", "--out"], "argument --out: expected one argument"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_return_two_with_one_line(capsys, argv, needle):
    """A command line argparse cannot parse returns 2 from main, with one
    error line and no usage text, like every other usage error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and needle in captured.err


@pytest.mark.parametrize("key", SETTINGS)
def test_every_setting_is_typed_ranged_and_defaulted(tmp_path, capsys, key):
    """Each setting of the manifest table: a wrong type and a value just out
    of range exit 2 naming the key; the default is reported and in the
    schema."""
    setting = SETTINGS[key]
    for bad in (2.5, True, setting["minimum"] - 1):
        path = _write_manifest(tmp_path, {**ZEROS_MANIFEST, key: bad})
        assert main(["run", path]) == 2
        assert key in capsys.readouterr().err

    code, report = _run_to_report(tmp_path, ZEROS_MANIFEST)
    assert code == 0
    assert report["config"][key] == setting["default"]

    assert main(["schema"]) == 0
    entry = json.loads(capsys.readouterr().out)["properties"][key]
    assert entry == setting


def test_run_help_lists_only_out(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    options = [word for word in capsys.readouterr().out.split() if word.startswith("--")]
    assert sorted(set(options)) == ["--help", "--out"]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    try:
        mpath = _write_manifest(tmp_path, ZEROS_MANIFEST)
        for argv in (["schema"], ["catalog"], ["run", mpath],
                     ["run", mpath, "--out", str(tmp_path / "r.json")]):
            assert main(argv) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("confield") == 1


# -- full runs ---------------------------------------------------------------------


def test_rotation_manifest_runs_green(tmp_path):
    code, report = _run_to_report(tmp_path, ROTATION_MANIFEST)
    assert code == 0
    assert report["passed"] is True
    assert report["chart"]["name"] == "euclidean_3"
    assert report["field"]["name"] == "rotation_12"
    assert len(report["field"]["components"]) == 3
    assert list(report["analyses"]) == [
        "check-conformal", "zeros", "classify",
        "verify-identities", "trace", "umbilicity",
    ]
    assert all(a["passed"] for a in report["analyses"].values())
    assert report["analyses"]["zeros"]["count"] >= 8


def test_verify_identities_makes_one_taylor_pass_per_zero(tmp_path, monkeypatch):
    """All identity pairs share one order-2 field_data, and the four checked
    zeros share one more, made after it; no geodesic is run."""
    calls = []
    field_data = geodesic.field_data

    def counting_field_data(chart, xi, p, order):
        calls.append((order, np.shape(p)))
        return field_data(chart, xi, p, order)

    runs = counting_steps(monkeypatch)
    monkeypatch.setattr(geodesic, "field_data", counting_field_data)
    manifest = {**ROTATION_MANIFEST, "analyses": ["verify-identities"], "seed": 1}
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    taylor = report["analyses"]["verify-identities"]["taylor_at_zeros"]
    assert len(taylor) == 4 and all("skipped" not in entry for entry in taylor)
    assert runs == []
    assert calls == [(2, (50, 3)), (2, (4, 3))]


def test_verify_identities_checks_edge_zeros_on_every_seed(tmp_path):
    """The first zeros of rotation(1, 2) on the 3-sphere chart lie on the x3
    axis next to the box face; every seed checks all of them, none skipped."""
    manifest = {"chart": {"name": "sphere_stereographic", "dim": 3},
                "field": {"name": "rotation", "params": {"axis_i": 1, "axis_j": 2}},
                "analyses": ["verify-identities"]}
    for seed in range(1, 41):
        code, report = _run_to_report(tmp_path, {**manifest, "seed": seed})
        assert code == 0, seed
        taylor = report["analyses"]["verify-identities"]["taylor_at_zeros"]
        assert taylor and all("skipped" not in entry for entry in taylor), seed


def test_check_conformal_reports_a_batch_overflow_as_a_domain_error(tmp_path):
    """x1^300 overflows on most of the box: the one batched residual call
    reports the per-point domain error, not a warning and an inf residual."""
    manifest = {"chart": {"metric": [["1", "0"], ["0", "1"]],
                          "lower": [-1e3, -1], "upper": [1e3, 1]},
                "field": {"components": ["x1^300", "0"]},
                "analyses": ["check-conformal"]}
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 1
    outcome = report["analyses"]["check-conformal"]
    assert outcome["passed"] is False
    assert outcome["error"] == ("EvalDomainError: value beyond the floating-point "
                                "range in subexpression 'x1^300'")


def test_zeros_reports_a_grid_overflow_as_a_domain_error(tmp_path):
    """x1^300 overflows on most of the box, and (0, 0) is a zero: the grid
    scan raises the domain error rather than reporting no zeros on a grid
    of inf norms."""
    manifest = {"chart": {"metric": [["1", "0"], ["0", "1"]],
                          "lower": [-1e3, -1], "upper": [1e3, 1]},
                "field": {"components": ["x1^300", "x2"]},
                "analyses": ["zeros"]}
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 1
    outcome = report["analyses"]["zeros"]
    assert outcome["passed"] is False
    assert outcome["error"] == ("EvalDomainError: value beyond the floating-point "
                                "range in subexpression 'x1^300'")


def test_same_seed_runs_are_byte_identical(tmp_path):
    mpath = _write_manifest(tmp_path, ROTATION_MANIFEST)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", mpath, "--out", str(out1)]) == 0
    assert main(["run", mpath, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_config_not_validity(tmp_path):
    code, report = _run_to_report(tmp_path, {**ROTATION_MANIFEST, "seed": 99})
    assert code == 0
    assert report["config"] == {"seed": 99, "grid_resolution": 12}


def test_non_conformal_field_fails_check(tmp_path):
    manifest = {
        "chart": {"name": "euclidean", "dim": 3},
        "field": {"components": ["x1^2", "0", "0"]},
        "analyses": ["check-conformal"],
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 1
    assert report["passed"] is False
    check = report["analyses"]["check-conformal"]
    assert not check["passed"]
    assert check["max_residual"] > 1e-3


def test_classify_on_small_dimension_reports_error(tmp_path):
    manifest = {
        "chart": {"name": "euclidean", "dim": 2},
        "field": {"name": "rotation"},
        "analyses": ["classify"],
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 1
    entry = report["analyses"]["classify"]
    assert entry["passed"] is False
    assert "ClassificationDimensionError" in entry["error"]


def test_parabolic_conjugate_classifies_with_one_essential_zero(tmp_path):
    """A parabolic Moebius conjugate whose degenerate essential zero a capped
    Gauss-Newton lane passes 5.3e-6 away runs through zeros and classify
    with exit code 0: one essential zero there, and the isolation audit
    passes."""
    n = 3
    B = np.zeros((n, n))
    B[0, 1], B[1, 0] = -1.0, 1.0
    X0 = mobius_matrix(np.zeros(n), B, 0.0, -np.eye(n)[2])
    t = np.array([1.2701583752945718, 0.31064512335097083, 1.0704427824607894])
    s = np.array([-0.5978285460887974, 0.06375890786355681, 0.21791297332820236])
    chart = models.make_chart("sphere_stereographic", n)
    xi, _ = mobius_field(chart, *mobius_parts(mobius_conjugate(X0, t, s)[0]))
    manifest = {
        "chart": {"name": "sphere_stereographic", "dim": n},
        "field": {"components": [str(c) for c in xi.components]},
        "analyses": ["zeros", "classify"],
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    classify = report["analyses"]["classify"]
    assert classify["passed"] and classify["audit"]["passed"]
    points = np.array([entry["point"] for entry in classify["entries"]])
    near = np.linalg.norm(points - t, axis=1) < essential.ISOLATION_RADIUS
    assert [e["verdict"] for e, k in zip(classify["entries"], near) if k] == ["essential"]


def test_inline_chart_round_trip(tmp_path):
    manifest = {
        "chart": {
            "metric": [["1", "0"], ["0", "1"]],
            "lower": [-1.0, -1.0],
            "upper": [1.0, 1.0],
            "name": "flat_square",
        },
        "field": {"components": ["0 - x2", "x1"]},
        "analyses": ["check-conformal", "zeros", "trace", "umbilicity"],
        "seed": 3,
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    assert report["chart"]["name"] == "flat_square"
    umb = report["analyses"]["umbilicity"]
    assert umb["passed"]
    assert umb["patches"][0]["verdict"] == "point"


def test_surface_zero_where_nabla_xi_vanishes_is_skipped(tmp_path):
    """z^2 d/dz has a double zero at the origin: no rotation, so no
    Killing-type verdict, and tracing skips it rather than failing."""
    manifest = {
        "chart": {"name": "euclidean", "dim": 2},
        "field": {"components": ["x1^2 - x2^2", "2*x1*x2"]},
        "analyses": ["check-conformal", "zeros", "trace", "umbilicity"],
        "seed": 1,
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    trace = report["analyses"]["trace"]
    assert trace["patches"] == []
    (skipped,) = trace["skipped"]
    assert np.abs(skipped["zero"]).max() < 1e-5
    assert "got verdict None" in skipped["reason"]


def test_each_zero_is_classified_once(tmp_path, monkeypatch):
    """classify, trace and umbilicity read the classifications of one
    classify_zero call on all the zeros; calls are counted in every confield
    module that binds classify_zero."""
    calls = []
    classify_zero = essential.classify_zero

    def counting(chart, xi, x, *args, **kwargs):
        calls.append(np.array(x))
        return classify_zero(chart, xi, x, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("confield") and vars(module).get("classify_zero") is classify_zero:
            monkeypatch.setattr(module, "classify_zero", counting)
    manifest = {
        "chart": {"name": "sphere_stereographic", "dim": 3},
        "field": {"name": "sphere_killing", "params": {"axis_i": 3, "axis_j": 4}},
        "analyses": ["classify", "trace", "umbilicity"],
        "grid_resolution": 15,
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    zeros = [entry["point"] for entry in report["analyses"]["classify"]["entries"]]
    assert len(report["analyses"]["umbilicity"]["patches"]) == 2
    assert len(zeros) > 2
    (points,) = calls
    assert np.array_equal(points, zeros)


def test_circle_zero_scenario_via_manifest(tmp_path):
    manifest = {
        "chart": {"name": "sphere_stereographic", "dim": 3},
        "field": {"name": "sphere_killing", "params": {"axis_i": 3, "axis_j": 4}},
        "analyses": ["zeros", "classify", "trace", "umbilicity"],
        "grid_resolution": 15,
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    classify = report["analyses"]["classify"]
    verdicts = {e["verdict"] for e in classify["entries"]}
    assert verdicts == {"killing_inessential"}
    assert classify["audit"]["passed"]
    umb = report["analyses"]["umbilicity"]
    assert all(r["verdict"] == "totally_umbilical" for r in umb["patches"])
    assert all(r["codim_even"] for r in umb["patches"])


@pytest.mark.parametrize("dim,axis_j", [(3, 4), (4, 5)])
def test_curved_zero_sets_trace_with_unit_mean_curvature(tmp_path, monkeypatch, dim, axis_j):
    """sphere_killing(1, n + 1) on euclidean/n vanishes on the unit
    (n - 2)-sphere in x1 = 0: not totally geodesic, totally umbilical with
    |H| = 1.  Tracing follows it, and the umbilicity verdicts hold."""
    patches = []
    trace_component = cli.trace_component

    def recording(*args, **kwargs):
        patches.append(trace_component(*args, **kwargs))
        return patches[-1]

    monkeypatch.setattr(cli, "trace_component", recording)
    manifest = {
        "chart": {"name": "euclidean", "dim": dim},
        "field": {"name": "sphere_killing", "params": {"axis_i": 1, "axis_j": axis_j}},
        "analyses": ["zeros", "classify", "trace", "umbilicity"],
        "seed": 1,
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    trace = report["analyses"]["trace"]
    assert trace["passed"] is True and trace["skipped"] == []
    assert trace["zeros_considered"] == 2
    umb = report["analyses"]["umbilicity"]
    assert umb["passed"] is True and len(umb["patches"]) == 2
    for entry in umb["patches"]:
        assert entry["verdict"] == "totally_umbilical"
        assert entry["k"] == dim - 2 and entry["codim_even"]
        assert np.abs(np.asarray(entry["mean_curvature_norms"]) - 1.0).max() < 1e-12
    assert len(patches) == 2
    for patch in patches:
        pts = patch.samples.reshape(-1, dim)
        assert np.abs(pts[:, 0]).max() < 1e-12
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12


def test_umbilicity_lists_every_interior_node(tmp_path):
    """The x3-x4 plane, traced on the 5 x 5 grid, gets |H| at all 3 x 3
    interior nodes."""
    manifest = {
        "chart": {"name": "euclidean", "dim": 4},
        "field": {"name": "rotation", "params": {"axis_i": 1, "axis_j": 2}},
        "analyses": ["zeros", "trace", "umbilicity"],
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    patches = report["analyses"]["umbilicity"]["patches"]
    assert patches and all(entry["k"] == 2 for entry in patches)
    for entry in patches:
        assert entry["verdict"] == "totally_umbilical"
        assert len(entry["mean_curvature_norms"]) == 9


def test_analysis_list_is_deduplicated_in_request_order(tmp_path):
    manifest = {
        "chart": {"name": "euclidean", "dim": 3},
        "field": {"name": "rotation"},
        "analyses": ["zeros", "check-conformal", "zeros"],
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 0
    assert list(report["analyses"]) == ["zeros", "check-conformal"]


def test_nan_identity_residual_fails_the_gate(tmp_path, monkeypatch):
    """NaN identity residuals must fail verify-identities, not vanish from
    its maximum."""
    def nan_row(chart, xi, p, X):
        return np.full(len(p), math.nan)

    monkeypatch.setattr(cli, "dxi_identity_residual", nan_row)
    manifest = {
        "chart": {"name": "euclidean", "dim": 3},
        "field": {"name": "rotation"},
        "analyses": ["verify-identities"],
    }
    code, report = _run_to_report(tmp_path, manifest)
    assert code == 1
    identities = report["analyses"]["verify-identities"]
    assert identities["max_identity_residual"] == "nan"
    assert identities["passed"] is False


def test_classify_numbers_do_not_depend_on_other_analyses(tmp_path):
    """Each analysis draws from its own random stream."""
    base = {
        "chart": {"name": "euclidean", "dim": 4},
        "field": {"name": "rotation", "params": {"axis_i": 1, "axis_j": 2}},
        "seed": 1,
    }
    _, alone = _run_to_report(tmp_path, {**base, "analyses": ["classify"]}, name="a.json")
    _, after = _run_to_report(
        tmp_path, {**base, "analyses": ["check-conformal", "classify"]}, name="b.json"
    )
    assert alone["analyses"]["classify"] == after["analyses"]["classify"]
    # Tracing reads the classify stream's verdicts whether or not classify
    # runs.
    traced = ["trace", "umbilicity"]
    _, without = _run_to_report(tmp_path, {**base, "analyses": traced}, name="c.json")
    _, with_classify = _run_to_report(
        tmp_path, {**base, "analyses": ["classify", *traced]}, name="d.json"
    )
    assert without["analyses"]["trace"]["patches"]
    for name in traced:
        assert (render_report(without["analyses"][name])
                == render_report(with_classify["analyses"][name]))
