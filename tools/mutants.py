"""Mutation gate: tier-1 must fail on each hand-written mutant of ``src/``.

Each row of ``MUTANTS`` names one file under the checkout, the exact text
that must occur in it once, the text that replaces it, and why a test
should notice.  The runner copies the checkout to a temporary directory,
runs tier-1 there once unchanged (it must pass), and then, row by row,
applies the mutant, runs tier-1 with ``-x -q -p no:cacheprovider`` on the
copy's ``src`` and restores the file.  A row passes only if that run fails:
the mutant is killed.

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
    Mutant("codim-even-always", "src/confield/zeroset.py",
           "codim_even=patches[slot].codim % 2 == 0,",
           "codim_even=True,",
           "an odd-codimension patch must not pass the parity check"),
    Mutant("no-doubled-newton-step", "src/confield/essential.py",
           "lam = np.where((0.4 * dd < sd) & (sd < 0.6 * dd), 2.0, 1.0)",
           "lam = np.where((0.4 * dd < sd) & (sd < 0.6 * dd), 1.0, 1.0)",
           "a degenerate zero converges only linearly without the doubled step"),
)


def _tier1(tree: Path) -> tuple[bool, float, str]:
    """Run tier-1 on ``tree``, stopping at the first failure: (passed,
    seconds, last line of the output)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                         cwd=tree, env=env, capture_output=True, text=True)
    lines = (run.stdout + run.stderr).strip().splitlines()
    return run.returncode == 0, time.perf_counter() - start, lines[-1] if lines else ""


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
                passed, seconds, last = _tier1(tree)
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
