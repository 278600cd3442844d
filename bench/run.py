"""Benchmark of the ovbm screening pipeline.

    python3 bench/run.py --workload screen40 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`. The run writes seeded inputs under `.bench_work/`, sets them up
at least SETUPS times (reporting the median as `setup_s`), then repeats the
workload's measured pass until `--seconds` have elapsed (at least once)
and checks every output. `--trace 1` instead sets up once, makes one
traced pass and reports the per-layer metrics; its spans go to
`.bench_out/`. `trace.pass_s` minus the untraced run's `work_s` (same
workload and seed) is the tracing overhead.

Standard output ends with one JSON line: {"correct", "attempted",
"failed", "metrics"}. The line before it holds the provenance and the
workload's own figures (e.g. saliency p50/p75), each with its unit.
Exit code 2 means the run could not start (bad arguments, no `src/`).
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1  # one client; small matrices run no faster threaded
# Set-up runs at least SETUPS times and for at least SETUP_SECONDS, so a
# sub-second set-up is still timed over enough repetitions.
SETUPS = 3
SETUP_SECONDS = 3.0

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        revision = "none"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "git_revision": revision,
        "src_lines": src_lines,  # informational, not a metric
    }


def _percentile(values: list, q: int) -> float:
    """q-th percentile by the `statistics.quantiles` inclusive rule."""
    if len(values) < 2:
        return float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def workload_figures(name: str, parts: list) -> dict:
    """The workload's own named figures, from the median pass."""
    mid = lambda key: statistics.median(p[key] for p in parts)  # noqa: E731
    if name == "train40":
        return {"train_s": (mid("train_s"), "s")}
    if name == "screen_long":
        return {"long_diagnose_s": (mid("long_diagnose_s"), "s"),
                "long_saliency_s": (mid("long_saliency_s"), "s")}
    out = {"load_s": (mid("load_s"), "s"),
           "eval_subjects_per_s": (statistics.median(
               p["eval_subjects"] / p["eval_s"] for p in parts), "subjects/s")}
    for key in ("diagnose", "saliency"):
        samples = [1e3 * s for p in parts for s in p[f"{key}_s"]]
        out[f"{key}_p50_ms"] = (_percentile(samples, 50), "ms")
        out[f"{key}_p75_ms"] = (_percentile(samples, 75), "ms")
        out[f"{key}_n"] = (len(samples), "count")
    return out


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "ovbm", "__init__.py")):
        print(f"bench: no ovbm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)

    import tracer as T
    from workloads import PREDICTED_ZERO, WORKLOADS, Ops

    setup, run_pass = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        while True:
            i = len(setup_times)
            start = time.perf_counter()
            state = setup(os.path.join(work, f"setup{i}"), args.seed)
            setup_times.append(time.perf_counter() - start)
            if i:  # every set-up is the same work; keep only the last
                shutil.rmtree(os.path.join(work, f"setup{i - 1}"))
            if args.trace or (len(setup_times) >= SETUPS
                              and sum(setup_times) >= SETUP_SECONDS):
                break

        ops = Ops()
        if args.trace:
            # One traced pass in the same state as an untraced run's pass:
            # in one process the first pass is also the allocator's cold
            # start, so a second pass would not be comparable.
            ops.tracer = tracer = T.Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                run_pass(state, ops)
                traced = time.perf_counter() - start
            finally:
                tracer.uninstall()
            metrics = T.metrics(tracer, traced)
            for name in PREDICTED_ZERO[args.workload]:
                ops.check(f"predicted_zero:{name}", metrics[name] == 0,
                          str(metrics[name]))
            tracer.write(os.path.join(
                ROOT, ".bench_out",
                f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
            units = {name: unit for name, unit, _ in T.PER_LAYER}
            figures = {}
        else:
            parts, walls = [], []
            begin = time.perf_counter()
            while not walls or time.perf_counter() - begin < args.seconds:
                start = time.perf_counter()
                parts.append(run_pass(state, ops))
                walls.append(time.perf_counter() - start)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "work_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}
            figures = workload_figures(args.workload, parts)
            figures["passes"] = (len(walls), "count")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures["failed_ratio"] = (ops.failed / max(ops.attempted, 1), "ratio")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "provenance": provenance(),
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    }))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
