"""One benchmark process: time the set-up, or run and check whole rounds.

``--mode setup`` imports confield and builds every chart and field of the
workload, then prints the seconds that took.  ``--mode run`` does the same
set-up, then runs whole rounds (one pass over the workload's manifests
through ``confield.cli.main``) until ``--seconds`` have passed, checks
every report against the closed-form oracles, and prints one JSON line.
With ``--trace 1`` it then runs traced rounds for as long again, each with
a fresh tracer, and adds the per-layer table.

Only the standard library and the benchmark's workload table are imported
before the set-up clock starts, so numpy's import counts as set-up.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads


def _build(manifests):
    from confield import models

    for m in manifests:
        chart = models.make_chart(m["chart"]["name"], m["chart"]["dim"])
        models.make_field(chart, m["field"]["name"], m["field"]["params"])


class PatchRecorder:
    """Keeps the samples of each patch the CLI traces, per manifest.

    The report lists a traced patch's base, dimension and field norm but
    not its samples; the trace oracle needs them.  The recorder wraps the
    name ``trace_component`` in ``confield.cli`` (on top of the tracer's
    wrapper when one is active) and only stores what the call returned.
    """

    def __init__(self, cli):
        self.cli = cli
        self.current = []

    def __enter__(self):
        inner = self.cli.trace_component
        current = self.current

        def recorder(*args, **kwargs):
            patch = inner(*args, **kwargs)
            current.append(patch.samples.copy())
            return patch

        self._inner = inner
        self.cli.trace_component = recorder
        return self

    def __exit__(self, *exc):
        self.cli.trace_component = self._inner
        return False


def _run_round(cli, jobs, recorder):
    """One pass over the manifests; returns seconds, reports and patches."""
    patches = []
    start = time.perf_counter()
    for manifest_path, report_path in jobs:
        recorder.current.clear()
        cli.main(["run", str(manifest_path), "--out", str(report_path)])
        patches.append(list(recorder.current))
    elapsed = time.perf_counter() - start
    reports = [Path(report_path).read_bytes() for _, report_path in jobs]
    return elapsed, reports, patches


class Tally:
    """Operations attempted and failed; one operation is one analysis."""

    def __init__(self, workload, manifests):
        self.workload = workload
        self.manifests = manifests
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.failures = {}

    def check(self, reports, patches):
        import oracles

        for manifest, raw, traced in zip(self.manifests, reports, patches):
            analyses = workloads.resolved_analyses(manifest)
            found = oracles.check_report(manifest, json.loads(raw), analyses, traced)
            for name in analyses:
                self.attempted += 1
                if not found[name]:
                    continue
                self.failed += 1
                key = (f"{manifest['chart']['name']}/{manifest['chart']['dim']} "
                       f"{manifest['field']['name']} {name}")
                self.failures[key] = found[name]
                if not workloads.is_known_fault(self.workload, manifest, name):
                    self.unexpected.append(key)


def _rounds(seconds, run_one):
    """Run whole rounds until ``seconds`` have passed; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_one())
        if time.perf_counter() - start >= seconds:
            return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    manifests = workloads.manifests(args.workload, args.seed)
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(args.root) / "src"))
    import confield.cli as cli

    _build(manifests)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    from tracer import Tracer

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for k, manifest in enumerate(manifests):
        path = out_dir / f"manifest_{k:02d}.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        jobs.append((path, out_dir / f"report_{k:02d}.json"))

    tally = Tally(args.workload, manifests)
    recorder = PatchRecorder(cli)
    problems = []

    def untraced():
        with recorder:
            elapsed, reports, patches = _run_round(cli, jobs, recorder)
        tally.check(reports, patches)
        return elapsed, reports

    plain = _rounds(args.seconds, untraced)
    first = plain[0][1]
    if any(reports != first for _, reports in plain):
        problems.append("reports differ between untraced rounds")
    result = {
        "setup_s": setup_s,
        "run_s": statistics.median(t for t, _ in plain),
        "rounds": [t for t, _ in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if args.trace:
        tables = []

        def traced():
            tracer = Tracer()
            with tracer, recorder:
                elapsed, reports, patches = _run_round(cli, jobs, recorder)
            tally.check(reports, patches)
            if not tables:
                tracer.save(out_dir / "spans.npz")
            table = tracer.layer_table()
            calls = {name: row["calls"] for name, row in table.items()}
            tables.append((table, dict(tracer.counts), calls))
            return elapsed, reports

        marked = _rounds(args.seconds, traced)
        if any(reports != first for _, reports in marked):
            problems.append("traced reports differ from untraced reports")
        if any(t[1:] != tables[0][1:] for t in tables):
            problems.append("per-layer counts differ between traced rounds")
        traced_s = statistics.median(t for t, _ in marked)
        layers = {
            name: {
                "calls": tables[0][0][name]["calls"],
                "total_s": statistics.median(t[0][name]["total_s"] for t in tables),
                "self_s": statistics.median(t[0][name]["self_s"] for t in tables),
                "by_caller": tables[0][0][name]["by_caller"],
            }
            for name in tables[0][0]
        }
        result.update({
            "traced_run_s": traced_s,
            "traced_rounds": [t for t, _ in marked],
            "layers": layers,
            "counts": tables[0][1],
        })

    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": not problems and not tally.unexpected,
        "problems": problems,
        "unexpected_failures": tally.unexpected,
        "failures": tally.failures,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": len(os.sched_getaffinity(0)),
        },
    })
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n",
                                         encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
