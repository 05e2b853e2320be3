"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
``[PASS]``/``[FAIL]`` line (outside pytest capture) before asserting, so a
``pytest -v`` run shows one status line per criterion.
"""
import json
import math

import numpy as np

import confield.models as models
from confield.cli import main
from confield.conformal import (
    conformal_factor_gradient,
    is_conformal,
    rescale_metric,
)
from confield.essential import (
    VERDICT_ESSENTIAL,
    VERDICT_KILLING,
    find_zeros,
)
from confield.expr import eval_jet, parse
from confield.geodesic import dxi_identity_residual, taylor_checks
from confield.geometry import (
    field_data,
    metric_value,
    norm_2form,
    sample_interior,
    spd_inverse,
)
from confield.zeroset import umbilicity_report
from helpers import (classify_at, connection_change_residual, fd_partial, fd_partial2, trace_at,
                     xi_norm)

FLAT3 = models.euclidean(3)
SPHERE = models.sphere_stereographic(3)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_essential_zero_example_is_reproduced(capsys):
    """The inverted-translation field on the round chart has an essential
    zero at the origin: field, derivative two-form, and factor all vanish
    while the factor gradient does not."""
    xi = models.sphere_translation(SPHERE, 1)
    P = np.zeros((1, 3))
    ginv = spd_inverse(metric_value(SPHERE, P))

    n_xi = xi_norm(SPHERE, xi, P)[0]
    n_dxi = norm_2form(ginv, field_data(SPHERE, xi, P).M)[0]
    phi = field_data(SPHERE, xi, P).phi[0]
    dphi = conformal_factor_gradient(SPHERE, xi, P[0])
    n_dphi = math.sqrt(dphi @ ginv[0] @ dphi)
    (verdict,) = classify_at(SPHERE, xi, P).verdicts

    ok = (
        n_xi < 1e-10
        and n_dxi < 1e-8
        and abs(phi) < 1e-8
        and n_dphi >= 0.1
        and verdict == VERDICT_ESSENTIAL
    )
    _report(
        capsys,
        "essential zero example",
        ok,
        f"|xi|={n_xi:.2e} |dxi|={n_dxi:.2e} |phi|={abs(phi):.2e} "
        f"|dphi|={n_dphi:.3f} verdict={verdict}",
    )


def test_catalog_fields_are_conformal(capsys):
    """Every (chart, field) pair in the catalog satisfies the conformal
    equation to 1e-7 on 100 seeded interior points."""
    worst = 0.0
    worst_pair = ""
    for chart, xi in models.standard_pairs(3):
        pts = sample_interior(chart, 100, np.random.default_rng(101))
        rep = is_conformal(chart, xi, pts)
        if rep.max_residual > worst:
            worst = rep.max_residual
            worst_pair = f"{chart.name}/{xi.name}"
    ok = worst < 1e-7
    _report(
        capsys,
        "catalog conformality",
        ok,
        f"18 pairs x 100 points, worst residual {worst:.2e} ({worst_pair})",
    )


def test_derivative_two_form_identity_holds(capsys):
    """nabla_X dxi = 2 R(X, xi) + 2 dphi wedge X at 50 seeded (p, X) pairs
    for every catalog field."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for chart, xi in models.standard_pairs(3):
        pts = sample_interior(chart, 50, rng)
        dirs = rng.standard_normal((50, 3))
        worst = max(worst, float(dxi_identity_residual(field_data(chart, xi, pts), dirs).max()))
    ok = worst < 1e-7
    _report(
        capsys,
        "derivative two-form identity",
        ok,
        f"18 fields x 50 pairs, worst residual {worst:.2e}",
    )


def test_non_isolated_zeros_classify_as_killing_type(capsys):
    """Zeros with positive-dimensional components (a flat axis rotation and
    the round-chart rotation fixing a great circle) all carry phi = 0, a
    factor gradient inside the derivative image, and the Killing verdict."""
    scenarios = [
        (FLAT3, models.rotation(FLAT3, 1, 2), 12),
        (SPHERE, models.sphere_killing(SPHERE, 3, 4), 15),
    ]
    ok = True
    count = 0
    worst_phi = 0.0
    worst_img = 0.0
    for chart, xi, res in scenarios:
        zeros = find_zeros(chart, xi, grid_resolution=res)
        ok = ok and len(zeros) > 0
        cls = classify_at(chart, xi, zeros, rng=np.random.default_rng(303))
        phi = np.abs(field_data(chart, xi, zeros).phi)
        count += len(zeros)
        worst_phi = max(worst_phi, phi.max(initial=0.0))
        worst_img = max(worst_img, cls.image_residual.max(initial=0.0))
        ok = ok and bool(np.all(phi < 1e-6))
        ok = ok and bool(np.all(cls.image_residual < 1e-6))
        ok = ok and all(verdict == VERDICT_KILLING for verdict in cls.verdicts)
    _report(
        capsys,
        "non-isolated zeros are killing type",
        ok,
        f"{count} zeros, worst |phi| {worst_phi:.2e}, "
        f"worst image residual {worst_img:.2e}",
    )


def test_essential_zeros_are_isolated(capsys):
    """No catalog scenario produces a zero that is both essential and
    non-isolated; the essential examples have no companion zero within 0.5."""
    ok = True
    details = []
    for chart, xi in models.standard_pairs(3):
        zeros = find_zeros(chart, xi)
        if len(zeros) == 0:
            continue
        lonely = xi.name.startswith(("special_conformal", "sphere_translation"))
        for i, z in enumerate(zeros):
            others = np.delete(zeros, i, axis=0)
            nearest = (
                float(np.min(np.linalg.norm(others - z, axis=1)))
                if len(others)
                else math.inf
            )
            cls = classify_at(chart, xi, z, rng=np.random.default_rng(404))
            if cls.verdicts == (VERDICT_ESSENTIAL,):
                if nearest < 0.05:
                    ok = False
                    details.append(f"{chart.name}/{xi.name} crowded at {nearest:.3f}")
                if lonely and nearest < 0.5:
                    ok = False
                    details.append(f"{chart.name}/{xi.name} companion at {nearest:.3f}")
    _report(
        capsys,
        "essential zeros isolated",
        ok,
        "no essential zero has a companion inside its isolation radius"
        if ok
        else "; ".join(details),
    )


def test_traced_components_are_umbilical_with_even_codim(capsys):
    """Traced zero-set components pass the umbilicity check, have even
    codimension for k >= 1, and consist of machine-precision zeros."""
    flat4 = models.euclidean(4)
    scenarios = [
        (FLAT3, models.rotation(FLAT3, 1, 2), np.zeros(3)),
        (SPHERE, models.sphere_killing(SPHERE, 3, 4), np.array([1.0, 0.0, 0.0])),
        (flat4, models.rotation(flat4, 1, 2), np.zeros(4)),
    ]
    ok = True
    lines = []
    for chart, xi, base in scenarios:
        patch = trace_at(chart, xi, base)
        (report,) = umbilicity_report(chart, xi, [patch])
        good = (
            report.max_residual < 1e-4
            and (patch.k == 0 or patch.codim % 2 == 0)
            and patch.max_field_norm < 1e-5
        )
        ok = ok and good
        lines.append(
            f"{chart.name}: k={patch.k} codim={patch.codim} "
            f"res={report.max_residual:.1e} |xi|max={patch.max_field_norm:.1e}"
        )
    _report(capsys, "traced components umbilical", ok, "; ".join(lines))


def test_taylor_expansions_at_zeros(capsys):
    """Along unit-speed geodesics through a zero, f'(0) recovers the factor
    and nabla^2 xi(v, v) matches 2 dphi(v) v - grad phi; for the
    quadratic generator with v = e1 that is exactly -2 e1."""
    K = models.special_conformal(FLAT3, 1)
    rot = models.rotation(FLAT3, 1, 2)
    Ks = models.sphere_translation(SPHERE, 1)
    e1 = np.array([1.0, 0.0, 0.0])
    cases = [
        (FLAT3, K, e1),
        (FLAT3, K, np.array([0.36, 0.48, 0.8])),
        (FLAT3, rot, np.array([0.0, 1.0, 0.0])),
        (SPHERE, Ks, e1),
    ]
    ok = True
    worst_scalar = 0.0
    worst_vector = 0.0
    for chart, xi, v in cases:
        res = taylor_checks(field_data(chart, xi, np.zeros((1, 3))), v[None])
        worst_scalar = max(worst_scalar, res.scalar[0])
        worst_vector = max(worst_vector, res.second[0])
        ok = ok and res.scalar[0] < 1e-6
        ok = ok and res.second[0] < 1e-4
    # nabla^2 xi(e1, e1), the record's H(v, v)
    hand = np.einsum("ijk,j,k->i", field_data(FLAT3, K, np.zeros((1, 3))).H[0], e1, e1)
    hand_err = float(np.abs(hand - np.array([-2.0, 0.0, 0.0])).max())
    ok = ok and hand_err < 1e-4
    _report(
        capsys,
        "taylor expansions at zeros",
        ok,
        f"worst f' residual {worst_scalar:.1e}, worst xi'' residual "
        f"{worst_vector:.1e}, hand value -2e off by {hand_err:.1e}",
    )


def test_conformal_rescaling_invariance(capsys):
    """Rescaled connections satisfy the change formula to 1e-8, and the
    classification and umbilicity verdicts survive g -> e^{2f} g with
    f = 0.3 sin(x1)."""
    pairs = [
        (FLAT3, parse("0.3*sin(x1)", 3)),
        (SPHERE, parse("x1*x2/4 - x3/2", 3)),
    ]
    rng = np.random.default_rng(505)
    worst = 0.0
    for chart, f in pairs:
        for p in sample_interior(chart, 10, rng):
            worst = max(worst, connection_change_residual(chart, f, p))
    ok = worst < 1e-8

    f = parse("0.3*sin(x1)", 3)
    rescaled = rescale_metric(FLAT3, f)
    verdict_pairs = []
    for xi in (models.rotation(FLAT3, 1, 2), models.special_conformal(FLAT3, 1)):
        (before,) = classify_at(FLAT3, xi, np.zeros(3)).verdicts
        (after,) = classify_at(rescaled, xi, np.zeros(3)).verdicts
        verdict_pairs.append((before, after))
        ok = ok and before == after

    rotation = models.rotation(FLAT3, 1, 2)
    patch = trace_at(FLAT3, rotation, np.zeros(3))
    v_before = umbilicity_report(FLAT3, rotation, [patch])[0].verdict
    v_after = umbilicity_report(rescaled, rotation, [patch])[0].verdict
    ok = ok and v_before == v_after == "totally_umbilical"
    _report(
        capsys,
        "conformal rescaling invariance",
        ok,
        f"worst connection residual {worst:.1e}, verdicts "
        f"{[f'{b}->{a}' for b, a in verdict_pairs]}, patch {v_before}->{v_after}",
    )


def test_jets_match_finite_difference_oracles(capsys):
    """Forward-mode jets agree with Richardson finite differences: first
    derivatives to 1e-7 and second derivatives to 1e-5 on 200 samples."""
    specs = [
        (SPHERE.metric[0][0], 1.5),
        (models.special_conformal(SPHERE, 1).components[0], 1.5),
        (parse("sin(x1)*exp(x2/2) + x3^2", 3), 1.5),
        (models.hyperbolic_ball(3).metric[1][1], 0.25),
    ]
    rng = np.random.default_rng(606)
    worst1 = 0.0
    worst2 = 0.0
    count = 0
    for expr, half_width in specs:
        def f(q, _e=expr):
            return eval_jet(_e, q, 0).value

        for p in rng.uniform(-half_width, half_width, size=(50, 3)):
            jet = eval_jet(expr, p, 2)
            count += 1
            for i in range(3):
                worst1 = max(worst1, abs(jet.d1[i] - fd_partial(f, p, i)))
                for j in range(i, 3):
                    worst2 = max(worst2, abs(jet.d2[i, j] - fd_partial2(f, p, i, j)))
    ok = worst1 < 1e-7 and worst2 < 1e-5
    _report(
        capsys,
        "jets match finite differences",
        ok,
        f"{count} samples, worst first-order gap {worst1:.1e}, "
        f"worst second-order gap {worst2:.1e}",
    )


def test_manifest_runs_are_deterministic(capsys, tmp_path):
    """Two runs of the same manifest with the same seed produce byte-identical
    reports, and exit codes follow the 0/1/2 contract."""
    manifest = {
        "chart": {"name": "euclidean", "dim": 3},
        "field": {"name": "rotation", "params": {"axis_i": 1, "axis_j": 2}},
        "analyses": ["all"],
        "seed": 7,
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = main(["run", str(mpath), "--out", str(out1)])
    code2 = main(["run", str(mpath), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    bad_field = tmp_path / "bad_field.json"
    bad_field.write_text(json.dumps({
        "chart": {"name": "euclidean", "dim": 3},
        "field": {"components": ["x1^2", "0", "0"]},
        "analyses": ["check-conformal"],
    }))
    code_fail = main(["run", str(bad_field), "--out", str(tmp_path / "f.json")])

    bad_manifest = tmp_path / "bad_manifest.json"
    bad_manifest.write_text(json.dumps({
        "chart": {"name": "torus", "dim": 3},
        "field": {"name": "rotation"},
        "analyses": ["zeros"],
    }))
    code_usage = main(["run", str(bad_manifest)])

    ok = identical and code1 == 0 and code2 == 0 and code_fail == 1 and code_usage == 2
    _report(
        capsys,
        "deterministic manifest runs",
        ok,
        f"byte-identical={identical}, exit codes: pass={code1}/{code2} "
        f"fail={code_fail} usage={code_usage}",
    )
