"""msmtrend benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run sets up the workload's inputs, makes round(seconds / PASS_S)
timed passes (at least one), where PASS_S is the workload's run seconds
per pass, checks the last pass's outputs and prints one JSON object as the
last line of standard output.  A fixed count, rather than passing until the
time is up, keeps the median over the same passes whatever the machine's
momentary speed: the first pass of a process is the slowest.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing: ``setup_s`` (median of three fresh processes, each timed from
its start until the inputs are ready), ``wall_s`` (median pass) and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes alternate,
in half as many rounds as an untraced run makes passes (at least one), so
that a traced run takes about as long; the metrics are the per-layer ones
from the traced passes (lower median over them, so that a count stays a
whole number), the ``stage.*`` times from the untraced passes, and
``trace.overhead_s``.  Spans go to ``bench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = ("stage.fit_s", "stage.trend_tests_s", "stage.filter_fits_per_s",
                 "stage.ingest_rows_per_s")


def layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "rows" if name == "panel.rows" else "count"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_workloads():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "msmtrend", "__init__.py")):
        sys.exit(f"error: no msmtrend package under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import workloads

    return workloads


def time_setup(args) -> float:
    """Median over fresh processes of the time from start to inputs ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up process exited {code} without its inputs")
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        inputs = wl.setup(args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        result = run(args, wl, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args, wl, inputs) -> dict:
    from tracing import Tracer, layer_metrics

    untraced, traced, layers = [], [], []
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
    if args.trace and os.path.exists(trace_path):
        os.remove(trace_path)
    n_passes = max(1, round(args.seconds / wl.PASS_S))
    for _ in range(max(1, n_passes // 2) if args.trace else n_passes):
        for p in untraced:  # only the last untraced pass is checked
            p.outputs = {}
        untraced.append(wl.run_pass(inputs))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(wl.run_pass(inputs))
            finally:
                tracer.uninstall()
            traced[-1].outputs = {}
            layers.append(layer_metrics(tracer.spans))
            tracer.dump(trace_path, label=str(len(traced)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # inputs and program are deterministic, so every pass repeats the outputs
    # of the last one that is checked here
    problems, wrong = wl.check(inputs, untraced[-1])
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    for line in wrong:
        print(f"failed operation: {line}", file=sys.stderr)

    passes = untraced + traced
    wall = statistics.median(p.wall_s for p in untraced)
    if args.trace:
        metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        metrics.update(stage_metrics(untraced))
        metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall
        metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in metrics.items()}
    else:
        values = {"setup_s": time_setup(args), "wall_s": wall, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + len(wrong) * len(passes),
        "metrics": metrics,
    }


def stage_metrics(passes) -> dict:
    """Median over the untraced passes of each stage figure; 0 where the
    workload has no such stage."""
    return {name: statistics.median(p.stages[name] for p in passes) if name in passes[0].stages
            else 0.0 for name in STAGE_METRICS}


if __name__ == "__main__":
    sys.exit(main())
