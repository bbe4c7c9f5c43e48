"""oodnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-lenet --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports oodnet from
``src/``. With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` it runs the workload's operations alternately untraced and
traced, derives the per-layer metrics from the spans and reports the
tracing overhead. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Provenance, every named
metric, the span file and the per-layer table go to ``.perfbench/``.
A failed correctness check makes the exit code 1.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_TIMER = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
                "import oodnet, oodnet.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import oodnet with numpy and scipy in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, as observed, not set."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = getattr(lib, symbol)()
                break
    return found


def provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_observed": blas_threads(), "git_sha": sha,
            "machine": platform.machine()}


def declared_metrics(key: str):
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return {m["name"]: m for m in json.loads(path.read_text())[key]}


def run_untraced(workload, args, tmp, tally):
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    for k in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = workload.setup(str(tmp / f"setup{k}"), args.seed)
        builds.append(time.perf_counter() - t)
    result = workload.measure(state, args.seconds, tally)
    workload.check(state, tally)
    setup_s = statistics.median(imports) + statistics.median(builds)
    metrics = {"setup_s": (setup_s, "s"),
               "throughput_samples_per_s": (result["metrics"]["throughput_samples_per_s"],
                                            "samples/s"),
               "latency_mean_ms": (result["metrics"]["latency_mean_ms"], "ms"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MB")}
    lines = [f"  setup_s = {setup_s:.4f} s  (median import {statistics.median(imports):.4f} s "
             f"+ median build {statistics.median(builds):.4f} s, n={SETUP_REPEATS})"]
    for name, value, unit, n in result["named"]:
        lines.append(f"  {name} = {value:.6g} {unit}  (n={n})")
    lines.append(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
    return metrics, lines, {"named": result["named"], "imports_s": imports,
                            "builds_s": builds}


def run_traced(workload, args, tmp, tally, out_stem):
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.installed():
        state = workload.setup(str(tmp / "setup"), args.seed)
    # Operations run in blocks of four, untraced, traced, traced,
    # untraced, so that a steady drift of the machine's speed cancels
    # within a block. Every operation of a workload does the same work, so
    # a block's traced over untraced time, minus 1, is its tracing
    # overhead; each adjacent untraced/traced pair gives one more reading.
    blocks, pairs = [], []

    def block(_):
        spent = []
        for traced in (False, True, True, False):
            t = time.perf_counter()
            if traced:
                with tracer.installed():
                    workload.measure(state, 0, tally, tracer)
            else:
                workload.measure(state, 0, tally)
            spent.append(time.perf_counter() - t)
        u1, t1, t2, u2 = spent
        blocks.append(((t1 + t2) / (u1 + u2) - 1) * 100)
        pairs.extend([(t1 / u1 - 1) * 100, (t2 / u2 - 1) * 100])
    workloads.until(args.seconds, block)
    workload.check(state, tally)

    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_pct"] = (statistics.median(blocks), "%")
    tracer.write(f"{out_stem}.spans.jsonl")
    lines = [f"  {'metric':<32} {'value':>14} unit"]
    for name, (value, unit) in layers.items():
        lines.append(f"  {name:<32} {value:>14.6g} {unit}")
    lines.append("  trace.overhead_pct per block: {}; per untraced/traced pair: {}{}".format(
        ", ".join(f"{b:+.2f}" for b in blocks), ", ".join(f"{p:+.2f}" for p in pairs),
        # tracing only adds work, so a pair that reads <= 0 shows drift
        # larger than the overhead
        "" if min(pairs) > 0 else "  (a pair reads <= 0: overhead unresolved)"))
    lines += ["", "  spans (self = duration minus time covered by child spans):"]
    lines += ["  " + line for line in spans.span_table(tracer)]
    Path(f"{out_stem}.layers.txt").write_text("\n".join(lines) + "\n")
    return layers, lines, {"overhead_pct_blocks": blocks, "overhead_pct_pairs": pairs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oodnet" / "__init__.py").exists():
        print(f"error: no oodnet sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be >= 0")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    out_stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = workloads.Tally()
    try:
        if args.trace:
            metrics, lines, detail = run_traced(workload, args, tmp, tally, out_stem)
        else:
            metrics, lines, detail = run_untraced(workload, args, tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None:
        tally.record("metrics match BENCHMARK.json", set(declared) == set(metrics),
                     f"{sorted(set(declared) ^ set(metrics))}")
    failed_ratio = tally.failed / max(tally.attempted, 1)
    lines.append(f"  failed_ratio = {failed_ratio:.6g}  "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    info = provenance(args)
    report = {"provenance": info, "attempted": tally.attempted, "failed": tally.failed,
              "failed_ratio": failed_ratio, "failures": tally.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **detail}
    Path(f"{out_stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"oodnet benchmark: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(info))
    print("\n".join(lines))
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": report["metrics"]}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
