"""semsample benchmark: one closed loop of decision steps per workload.

    python3 bench/run.py --workload train_default --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes a fixed number of steps twice, untraced and then
traced, and reports the per-layer split and the tracing overhead.  Every run
checks the program's outputs.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record is appended to ``bench/out/results.jsonl`` and traced runs write their
spans to ``bench/out/trace-<workload>-<seed>.jsonl``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads()}


def untraced(wl, seed: int, seconds: float, rng) -> tuple:
    """End-to-end metrics: ``seconds`` of decision steps in ``wl.snapshot_reps``
    slices, each followed by one snapshot cycle, and ``wl.setup_reps``
    set-ups, half before the steps and half after the checks.  So the
    snapshot and set-up times sample the whole run as the step times do."""
    import numpy as np

    import workloads

    setup_times = []

    def set_up():
        gc.collect()  # free the last set-up first, so the peak memory is one set-up's
        new_run, seconds_spent = wl.setup(seed, OUT_DIR)
        setup_times.append(seconds_spent)
        return new_run

    run = None
    for _ in range(wl.setup_reps - wl.setup_reps // 2):
        run = None
        run = set_up()
    path = OUT_DIR / f"snapshot-{wl.name}-{seed}.json"
    phases, cycles = [], []
    start = time.perf_counter()
    for i in range(wl.snapshot_reps):
        slice_end = start + seconds * (i + 1) / wl.snapshot_reps
        phases.append(wl.run(run, seconds=max(slice_end - time.perf_counter(), 0.0)))
        gc.collect()
        cycles.append(workloads.snapshot_cycle(*wl.snapshot(run), path))
        if phases[-1].failed:  # the loop state is undefined after a failed step
            break
    path.unlink(missing_ok=True)
    phase = workloads.merged(phases)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails = [f for c in cycles for f in c[2]] + wl.check(run, phase, rng)
    for _ in range(wl.setup_reps // 2):  # after the peak memory is read
        set_up()
    steps = phase.step_s
    step_ms = np.percentile(steps, [50, 90]) * 1e3 if steps else [math.nan, math.nan]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "steps_per_s": (len(steps) / phase.elapsed_s, "step/s"),
        "step_ms_p50": (float(step_ms[0]), "ms"),
        "step_ms_p90": (float(step_ms[1]), "ms"),
        "snapshot_mib": (cycles[-1][0] / 2**20, "MiB"),
        "snapshot_s": (statistics.median([c[1] for c in cycles]), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    extra = {"setups": len(setup_times), "snapshot_reps": len(cycles), "steps": len(steps)}
    return metrics, run, phase, fails, extra


def traced(wl, seed: int, seconds: float, rng) -> tuple:
    """Per-layer metrics: the same fixed number of rounds untraced, then traced."""
    import checks
    from tracer import Tracer

    rounds = wl.trace_rounds(seconds)
    reference, _ = wl.setup(seed, OUT_DIR)
    ref_phase = wl.run(reference, rounds=rounds)
    del reference
    tracer = Tracer(seed)
    tracer.install()
    try:
        run, _ = wl.setup(seed, OUT_DIR, tracer)
        phase = wl.run(run, rounds=rounds)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["tracing.overhead_pct"] = ((phase.elapsed_s / ref_phase.elapsed_s - 1.0) * 100.0, "%")
    tracer.write(OUT_DIR / f"trace-{wl.name}-{seed}.jsonl")
    fails = wl.check(run, phase, rng)
    fails += checks.same_rows(ref_phase.log, phase.log, "untraced vs traced outputs")
    fails += checks.layout_failures(tracer.samples, checks.load_oracles(ROOT))
    extra = {"rounds": rounds, "spans": len(tracer.spans),
             "oracle_samples": {k: len(v) for k, v in tracer.samples.items()}}
    return metrics, run, phase, fails, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "semsample" / "__init__.py").is_file():
        print(f"error: no semsample sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads its BLAS
    sys.path.insert(0, str(src))
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    rng = np.random.default_rng([args.seed, 7])  # entries the checks sample
    measure = traced if args.trace else untraced
    metrics, run, phase, fails, extra = measure(wl, args.seed, args.seconds, rng)

    env = machine()
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {json.dumps(env)}")
    print(f"  {json.dumps(wl.info(run))} {json.dumps(extra)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for fail in fails[:20]:
        print(f"check failed: {fail}", file=sys.stderr)
    if len(fails) > 20:
        print(f"... {len(fails) - 20} more failed checks", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": len(phase.step_s) + phase.failed,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with (OUT_DIR / "results.jsonl").open("a") as fh:
        fh.write(json.dumps({"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                             "machine": env, "info": wl.info(run), "extra": extra, "failures": fails[:20],
                             **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
