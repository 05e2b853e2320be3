"""Mutation gate: tier-1 must fail on each hand-written mutant of ``src/``.

Each row of ``MUTANTS`` names one file under the checkout, the exact text
that must occur in it once, the text that replaces it, and why a test
should notice.  The runner copies the checkout to a temporary directory,
runs tier-1 there once unchanged (it must pass), and then, row by row,
applies the mutant, runs pytest with ``-x -q -p no:cacheprovider`` on the
copy's ``src`` and restores the file.  A row passes only if tier-1 fails:
the mutant is killed.  Each mutant first faces the test module of the file
it changes (``src/confield/X.py`` -> ``tests/test_X.py``), which is part of
tier-1, and only a mutant that passes it runs the whole of tier-1; so a
survivor has faced every test, and the verdicts are those of a full run
per row.

Run it from the root of a checkout; it uses only the standard library:

    python tools/mutants.py

Exit code 0 when every mutant is killed, 1 when one survives, 2 when a
row does not apply or the unchanged tree fails tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    why: str


CLI = "src/confield/cli.py"

MUTANTS = (
    # the call form
    Mutant("one-point-admitted", "src/confield/expr.py",
           "if points.ndim != 2:",
           "if points.ndim not in (1, 2):",
           "every evaluation takes an (m, n) stack; only eval_jet takes a single point"),
    # the manifest table's checker
    Mutant("bool-is-integer", CLI,
           "not isinstance(value, types) or isinstance(value, bool)",
           "not isinstance(value, types)",
           "a bool is not a JSON integer: 'seed': true must exit 2"),
    Mutant("min-items-ignored", CLI,
           'if "minItems" in fragment:',
           "if False:",
           "'analyses': [] and an empty inline metric must exit 2"),
    Mutant("dim-maximum", CLI,
           '"dim": {"type": "integer", "minimum": 2, "maximum": _MAX_DIM},',
           '"dim": {"type": "integer", "minimum": 2},',
           "a builtin chart past the dimension limit must be refused by name"),
    Mutant("unknown-keys-skipped", CLI,
           "        for key, item in value.items():\n            if key not in known:",
           "        value = {key: item for key, item in value.items() if key in known}\n"
           "        for key, item in value.items():\n            if key not in known:",
           "a misspelled chart or field key ('parms') must be named, not ignored"),
    Mutant("scan-dimension", CLI,
           "_require(chart.dim <= _MAX_SCAN_DIM,",
           "_require(True,",
           "the grid-scanning analyses must stop at the dimension they were measured to fit"),
    # the analyses
    Mutant("lie-derivative-transport-term", "src/confield/conformal.py",
           "L = matvec(dg.reshape(batch + (n * n, n)), val).reshape(batch + (n, n))",
           "L = np.zeros(batch + (n, n))",
           "L_xi g needs xi^k d_k g; every benchmark chart is isothermal, so only "
           "a sheared chart sees it"),
    Mutant("umbilicity-against-zero", "src/confield/zeroset.py",
           'diff = data.normal_form - np.einsum("ab,mk->mabk", np.eye(k), H)',
           "diff = data.normal_form",
           "totally umbilical means B = g H, not B = 0: curved zero sets fail"),
    Mutant("codim-even-always", CLI,
           "codim_even = patch.codim % 2 == 0",
           "codim_even = True",
           "an odd-codimension patch must not pass the parity check"),
    Mutant("interior-nodes-reversed", "src/confield/zeroset.py",
           "reshape(-1, chart.dim)\n                 for slot in slots]",
           "reshape(-1, chart.dim)[::-1]\n                 for slot in slots]",
           "mean_curvature_norms[j] is |H| at node j of product(range(1, G - 1), repeat=k)"),
    Mutant("boundary-nodes-read", "src/confield/zeroset.py",
           "samples[(slice(1, -1),) * k]",
           "samples[(slice(None),) * k]",
           "a patch of G nodes per axis reports (G - 2)**k interior nodes"),
    Mutant("no-doubled-newton-step", "src/confield/essential.py",
           "lam = np.where((0.4 * dd < sd) & (sd < 0.6 * dd), 2.0, 1.0)",
           "lam = np.where((0.4 * dd < sd) & (sd < 0.6 * dd), 1.0, 1.0)",
           "a degenerate zero converges only linearly without the doubled step"),
    Mutant("solver-norms-at-start", "src/confield/essential.py",
           "    g, _, _ = metric_jets(chart, x, 0)\n    return x, ~live, norm_vector(g, val)",
           "    start = np.array(points, dtype=float)\n"
           "    g, _, _ = metric_jets(chart, start, 0)\n"
           "    return x, ~live, norm_vector(g, field_jets(xi, start, 0)[0])",
           "the solver's norms are |xi|_g at the points it returns: at its starting "
           "rows find_zeros rejects every seed and a patch's nodes are not checked"),
    Mutant("newton-cap", "src/confield/essential.py",
           "_NEWTON_ITERATIONS = 50",
           "_NEWTON_ITERATIONS = 45",
           "the zero of z^3 d/dz, where every lane is capped, must land within 1e-9"),
    Mutant("dedupe-radius", "src/confield/essential.py",
           "_DEDUPE_DISTANCE = 1e-6",
           "_DEDUPE_DISTANCE = 1e-3",
           "two converged zeros 7.6e-6 apart are two zeros"),
    Mutant("umbilicity-without-patch", CLI,
           '        "patches": entries,\n    }\n'
           "    if session.untraced:\n        result.update(passed=False, inconclusive=True)\n",
           '        "patches": entries,\n    }\n',
           "umbilicity must not pass having built no patch of a zero set it should check"),
    # the thresholds, each pinned by a test in its module's test file
    Mutant("conformal-tol", "src/confield/conformal.py",
           "CONFORMAL_TOL = 1e-7",
           "CONFORMAL_TOL = 1e-3",
           "a rotation sheared by 1e-5 x1 x2 has a conformal residual of 3.7e-5"),
    Mutant("classification-tol", "src/confield/essential.py",
           "CLASSIFICATION_TOL = 1e-6",
           "CLASSIFICATION_TOL = 1e-3",
           "2^-13 times the Euler field has phi = 1.2e-4 at its zero: homothetic"),
    Mutant("zero-tol", "src/confield/essential.py",
           "ZERO_TOL = 1e-10",
           "ZERO_TOL = 1e-6",
           "(x1^2 + 1e-8, x2, x3) has |xi| >= 1e-8 and no zero"),
    Mutant("isolation-radius", "src/confield/essential.py",
           "ISOLATION_RADIUS = 0.05",
           "ISOLATION_RADIUS = 0.005",
           "an essential zero 0.02 from a Killing zero is not isolated"),
    Mutant("verify-tol", "src/confield/zeroset.py",
           "_VERIFY_TOL = 1e-5",
           "_VERIFY_TOL = 1e-1",
           "a patch run past the end of the unit circle has nodes at |xi|_g = 0.0202"),
    Mutant("umbilicity-tol", "src/confield/zeroset.py",
           "UMBILICITY_TOL = 1e-4",
           "UMBILICITY_TOL = 1e-1",
           "the graph x1 = x3^2 / 100 has an umbilicity residual of 0.014"),
    Mutant("at-zero-gate", "src/confield/geometry.py",
           "AT_ZERO_TOL = 1e-6",
           "AT_ZERO_TOL = 1e-4",
           "classify_zero and taylor_checks refuse a point with |xi|_g = 2e-6"),
    Mutant("rank-rel-1e-8", "src/confield/geometry.py",
           "_RANK_REL = 1e-6",
           "_RANK_REL = 1e-8",
           "a degenerate zero, placed to 2.5e-8 - 4e-8, carries tensor errors above 1e-8"),
    Mutant("stack-wide-rank-cut", "src/confield/geometry.py",
           "cut = np.maximum(_RANK_REL * sigma[..., :1], _RANK_ABS)",
           "cut = np.maximum(_RANK_REL * sigma[..., :1].max(), _RANK_ABS)",
           "each row of a stack is cut at its own largest singular value"),
    # the pointwise identities
    Mutant("taylor-target-without-phi-v", "src/confield/geodesic.py",
           "first = 0.5 * (gN + gN.swapaxes(-1, -2)) - jets.phi[:, None, None] * g",
           "first = 0.5 * (gN + gN.swapaxes(-1, -2))",
           "nabla_v xi = phi v + (1/2) d(xi^flat)(v)^sharp: a homothetic zero has phi != 0"),
    Mutant("taylor-target-without-i-dphi", "src/confield/geodesic.py",
           " + g[:, :, :, None] * dphi[:, None, None, :]",
           "",
           "nabla^2 xi(v, w) = dphi(v) w + dphi(w) v - g(v, w) grad phi: the quadratic "
           "generator has dphi != 0 at its zero"),
    Mutant("hessian-indices-swapped", "src/confield/geodesic.py",
           "B = _lowered(g, jets.H) + ",
           "B = _lowered(g, jets.H.swapaxes(-2, -1)) + ",
           "nabla_X d(xi^flat) takes X in H's derivative index; off a zero on a curved "
           "chart the derivative and argument indices differ by R(X, .) xi"),
    Mutant("taylor-rows-misreported", CLI,
           "zip(session.zeros[:_TAYLOR_ZEROS], res.first,",
           "zip(session.zeros[-_TAYLOR_ZEROS:], res.first,",
           "Taylor entry k must report the zero whose record row it checked, "
           "also when there are more zeros than entries"),
    # the one record every pointwise check reads
    Mutant("field-data-interior", "src/confield/geometry.py",
           "    chart.require_interior(p)\n    conn = connection_data(chart, p, 2)",
           "    conn = connection_data(chart, p, 2)",
           "the record refuses a point outside the box, by name, for every check "
           "that reads it"),
    Mutant("audit-essential-as-homothetic", "src/confield/essential.py",
           "verdicts == VERDICT_ESSENTIAL",
           "verdicts == VERDICT_HOMOTHETIC",
           "an essential zero 0.02 from a Killing zero fails the isolation assertion"),
    # tracing from a zero's frame, which zeros to trace decided by the session
    Mutant("trace-kernel-rows", "src/confield/zeroset.py",
           "kernel = frame[n - k:]",
           "kernel = frame[:k]",
           "the kernel is the last k rows of a zero's frame, the complement the rows before"),
    Mutant("trace-any-verdict", CLI,
           "if verdict != VERDICT_KILLING:",
           "if False:",
           "only a zero that is Killing for a rescaled metric is traced; any other is skipped"),
    # the frame SVD as arrays, read by each caller
    Mutant("pinv-keeps-kernel", "src/confield/zeroset.py",
           "r = n - k",
           "r = n",
           "the pseudo-inverse drops the k kernel singular values: a hyperplane has B = 0"),
    Mutant("frame-completion-rows", "src/confield/geometry.py",
           "Vt[..., 1:, :]",
           "Vt[..., :-1, :]",
           "the completion of u is the kernel of u (g u)^T, the rows of Vt after the first"),
    Mutant("taylor-gate-first-four", CLI,
           "passed = passed and bool(ok.all())",
           "passed = passed and bool(ok[:_TAYLOR_ZEROS].all())",
           "every zero's Taylor row is gated, not only the reported ones"),
    # the fixed sample design
    Mutant("design-start-ignored", "src/confield/geometry.py",
           "_design(count, chart.dim, seed * count)",
           "_design(count, chart.dim, 0)",
           "the seed selects the block of the design that check-conformal reads"),
    Mutant("ball-radius-unscaled", "src/confield/geometry.py",
           "return x[:, None, :] + r_eff * offsets",
           "return x[:, None, :] + offsets",
           "a ball stays within the radius and half the distance to the box"),
)


def _tier1(tree: Path, *paths: str) -> tuple[bool, float, str]:
    """Run tier-1, or only the test files ``paths``, on ``tree``, stopping
    at the first failure: (passed, seconds, last line of the output)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *paths], cwd=tree, env=env, capture_output=True, text=True)
    lines = (run.stdout + run.stderr).strip().splitlines()
    return run.returncode == 0, time.perf_counter() - start, lines[-1] if lines else ""


def _verdict(tree: Path, m: Mutant) -> tuple[bool, float, str]:
    """Tier-1 on the mutated tree, the mutated file's test module first:
    (passed, seconds, what the deciding run printed last)."""
    module = f"tests/test_{Path(m.file).stem}.py"
    if not (tree / module).exists():
        return _tier1(tree)
    passed, seconds, last = _tier1(tree, module)
    if not passed:
        return passed, seconds, f"{module}: {last}"
    passed, more, last = _tier1(tree)
    return passed, seconds + more, last


def main() -> int:
    root = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".benchmarks"))
        for m in MUTANTS:
            count = (tree / m.file).read_text(encoding="utf-8").count(m.old)
            if count != 1:
                print(f"{m.id}: the old text occurs {count} times in {m.file}", file=sys.stderr)
                return 2
        passed, seconds, last = _tier1(tree)
        print(f"unchanged tree: {'passed' if passed else 'FAILED'} in {seconds:.0f} s ({last})",
              flush=True)
        if not passed:
            return 2
        survivors = []
        for m in MUTANTS:
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                passed, seconds, last = _verdict(tree, m)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{m.id}: {'SURVIVED' if passed else 'killed'} in {seconds:.0f} s ({last})",
                  flush=True)
            if passed:
                survivors.append(m)
    for m in survivors:
        print(f"survivor {m.id} ({m.file}): {m.why}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
