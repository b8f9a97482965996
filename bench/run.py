"""Benchmark entry point for querysumm.

    python3 bench/run.py --workload build|train|decode --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` next to
this directory and from nowhere else, so without the sources the run exits
with code 2 and prints no result.  Inputs come from the seed.  Set-up runs
at least ``SETUP_MIN_REPEATS`` times and ``SETUP_MIN_SECONDS``; then come the
workload's untimed warm-up iterations, then iterations of identical work
until ``--seconds`` have elapsed (at least one).

``--trace 0`` reports the end-to-end metrics: median set-up seconds, peak
memory, and each of the workload's three stage costs: the median stage
time per unit of work over the median time of the workload's reference
computation (``reference.py``), timed right before each timed section of
the same run.  The raw medians in milliseconds go to the report line.
``--trace 1`` runs one more untraced iteration, then traced iterations for
``--seconds``, and reports the per-layer metrics of one iteration plus the
traced/untraced time ratio; the traced outputs must digest identically.  The
span tree goes to ``bench/out/trace-<workload>-<seed>.json``.

The last stdout line is the result object.  The line before it, prefixed
``# report``, carries the output digest, ``failed_ratio``, the machine
description and the stage samples.
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

# BLAS threads: one, which is at or below every machine's core count and
# keeps other processes on the machine from stretching the timings.
BLAS_THREADS = 1
# Set-up runs at least this many times and for at least this long; its
# median is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
STAGES = ("primary_ref_per_unit", "secondary_ref_per_unit", "tertiary_ref_per_unit")
# What each stage's unit of work is, per workload, for the report line.
STAGE_NAMES = {
    "build": ("ms_per_article", "ms_per_record", "ms_per_ablated_triplet"),
    "train": ("ms_per_train_token", "ms_per_validation_token", "ms_per_forward_token"),
    "decode": ("ms_per_greedy_token", "ms_per_beam_token", "ms_per_encode"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(STAGE_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _run_iterations(workload, seconds: float, check_first: bool, probe=lambda: None) -> list:
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(workload.iterate(check=check_first and not out, probe=probe))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "querysumm" / "__init__.py").is_file():
        print(f"bench: no querysumm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import reference
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size], str(OUT_DIR)
    )
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)

    report = {"workload": args.workload, "seed": args.seed, "size": args.size}
    warmup = [workload.iterate(check=True) for _ in range(workload.WARMUP)]
    if args.trace:
        base = workload.iterate(check=not warmup)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _run_iterations(workload, args.seconds, check_first=False)
        finally:
            tracer.remove()
        iterations = warmup + [base] + traced
        metrics = tracing.layer_metrics(tracer, len(traced))
        traced_s = statistics.median(i.wall_s for i in traced)
        metrics["trace.overhead_ratio"] = traced_s / base.wall_s if base.wall_s else 0.0
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    else:
        ref = reference.Reference(workload.REFERENCE)
        timed = _run_iterations(workload, args.seconds, check_first=not warmup, probe=ref.sample)
        iterations = warmup + timed
        samples = [[x for i in timed for x in i.stages[k]] for k in range(3)]
        # A stage with no samples failed every time; 0 with correct=false.
        stages_ms = [statistics.median(xs) if xs else 0.0 for xs in samples]
        ref_ms = ref.median_ms()
        metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{name: ms / ref_ms for name, ms in zip(STAGES, stages_ms)},
        }
        report["stage_ms"] = dict(zip(STAGE_NAMES[args.workload], stages_ms))
        report["stage_samples_ms"] = dict(zip(STAGE_NAMES[args.workload], samples))
        report["reference"] = {
            "kind": ref.kind,
            "median_ms": ref_ms,
            "samples": len(ref.samples_ms),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")

    extra_attempted, extra_failed = workload.final_check()
    attempted = sum(i.attempted for i in iterations) + extra_attempted
    failed = sum(i.failed for i in iterations) + extra_failed
    digests = {i.digest for i in iterations}
    report.update(
        iterations=len(iterations),
        digest=iterations[0].digest,
        digests_agree=len(digests) == 1,
        failed_ratio=failed / attempted,
        setup_s_samples=setup_s,
        machine=_machine(),
    )
    print("# report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
