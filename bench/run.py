"""Benchmark for confield: end-to-end and per-layer figures of one workload.

    python3 bench/run.py --workload classify_catalog --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run it from the root of a checkout; it imports confield from ``src/``.
Every figure comes from child processes that see one BLAS thread:

* one ``run`` process does the set-up, then whole rounds of the workload
  for ``--seconds``, checks every report against the closed-form oracles
  and reports its peak RSS;
* with ``--trace 0``, ``SETUP_REPEATS`` further fresh processes, half
  before and half after the run process, time the set-up alone, and
  ``setup_s`` is their median;
* with ``--trace 1``, the ``run`` process also runs traced rounds and the
  per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (every round, every
failed operation with its reasons, the per-caller table) go to
``.bench_out/<workload>/result.json``; spans go to ``spans.npz`` there.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in fresh processes, half before and half after the run
# process, so that the median spans the whole run and not one moment of it.
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 150
BLAS_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list) -> dict:
    env = {**os.environ, **BLAS_ENV, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:4])} exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_layer(res: dict) -> dict:
    metrics = {}
    for name, row in res["layers"].items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.total_s"] = (row["total_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    counts = dict(res["counts"])
    built = counts.pop("zeroset.trace_component.built")
    for name, value in counts.items():
        metrics[name] = (value, "bytes" if name == "cli.report_bytes" else "count")
    traces = res["layers"]["zeroset.trace_component"]["calls"]
    metrics["zeroset.trace_component.built_ratio"] = (
        built / traces if traces else 0.0, "ratio")
    zeros = counts["essential.find_zeros.zeros"]
    classified = res["layers"]["essential.classify_zero"]["calls"]
    metrics["essential.classify_zero.per_zero"] = (
        classified / zeros if zeros else 0.0, "ratio")
    metrics["trace.untraced_run_s"] = (res["run_s"], "s")
    metrics["trace.traced_run_s"] = (res["traced_run_s"], "s")
    metrics["trace.overhead_s"] = (res["traced_run_s"] - res["run_s"], "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--root", str(ROOT)]
    out_dir = ROOT / ".bench_out" / workload

    def setups(count):
        return [_child(["--mode", "setup", *common, "--out-dir", str(out_dir)])["setup_s"]
                for _ in range(count)]

    before = [] if trace else setups(SETUP_REPEATS // 2)
    res = _child(["--mode", "run", *common, "--seconds", str(seconds),
                  "--trace", str(trace), "--out-dir", str(out_dir)])
    if trace:
        metrics = _per_layer(res)
    else:
        setup = before + setups(SETUP_REPEATS - len(before))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (res["run_s"], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    declared = _declared_metrics(trace)
    if set(metrics) != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ declared)}")
    for line in res["failures"].items():
        print("failed: %s: %s" % (line[0], "; ".join(line[1])), file=sys.stderr)
    for problem in res["problems"] + [f"unexpected failure: {k}"
                                      for k in res["unexpected_failures"]]:
        print(f"incorrect: {problem}", file=sys.stderr)
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _declared_metrics(trace: int) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "confield" / "__init__.py").is_file():
        print(f"error: no confield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            if args.workload == "all":
                figures = ", ".join(f"{k} = {v['value']:.4g} {v['unit']}"
                                    for k, v in result["metrics"].items())
                print(f"{name}: {figures}; {result['attempted']} attempted, "
                      f"{result['failed']} failed, correct = {result['correct']}")
            else:
                print(json.dumps(result))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
