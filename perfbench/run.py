"""Benchmark runner: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload ring2d-train --seed 1 --seconds 32 --trace 0

Runs the workload's set-up, a warm-up cycle, then closed-loop cycles for
``--seconds``, checks every cycle's outputs, and prints each metric with
its unit. The last line of standard output is the JSON result. With
``--trace 1`` it alternates traced and untraced cycles and reports the
per-layer metrics of BENCHMARK.json instead of the end-to-end ones. A copy of the result, with
provenance and (when traced) every span, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# BLAS threads, at most nproc; one thread keeps the timings steady.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Self times of the traced spans must sum to the traced wall time within this share.
SELF_TIME_TOLERANCE = 0.01


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _provenance(args, np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_cycles(workload, seconds, traced):
    """Closed loop for ``seconds``; traced runs alternate traced/untraced cycles.

    Untraced runs start with one warm-up cycle, checked and counted but not
    timed. Traced runs skip it and trace their first cycle, so that the
    process's first density-grid export is traced and its rise of the peak
    RSS is measured. Returns (cycle results, their kinds, the tracer or
    None, traced wall times).
    """
    from tracing import Tracer

    tracer = Tracer() if traced else None
    cycles, kinds, walls, lengths = [], [], [], []
    if not traced:
        cycles.append(workload.cycle())
        kinds.append("warm-up")
    start = time.perf_counter()
    # A cycle starts only if one of median length still fits into ``seconds``.
    while len(lengths) < (2 if traced else 1) or (
        time.perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        began = time.perf_counter()
        if traced and len(cycles) % 2 == 0:
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span("bench.cycle"):
                    result = workload.cycle(tracer)
                walls.append(time.perf_counter() - t0)
            kinds.append("traced")
        else:
            result = workload.cycle()
            kinds.append("untraced")
        cycles.append(result)
        lengths.append(time.perf_counter() - began)
    return cycles, kinds, tracer, walls


def main(argv=None):
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "evalp" / "__init__.py").is_file():
        print(f"perfbench: no evalp sources under {src}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import evalp.app.cli  # noqa: F401  (the import is part of the set-up time)

    import_s = time.perf_counter() - t0
    import evalp

    if Path(evalp.__file__).resolve().parent != (src / "evalp").resolve():
        print(f"perfbench: imported evalp from {evalp.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    from tracing import layer_metrics, self_times
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = sorted(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_s = import_s + workload.setup()
        oracle = workload.oracle()
        cycles, kinds, tracer, walls = run_cycles(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = list(oracle.errors)
    for result in cycles:
        errors.extend(result.errors)
    # End-to-end values come from untraced cycles that passed their checks.
    good = {
        kind: [r.values for r, k in zip(cycles, kinds) if k == kind and not r.errors]
        for kind in ("untraced", "traced")
    }
    keys = sorted({k for r in cycles for k in r.values})
    measured = {k: _median([values[k] for values in good["untraced"]]) for k in keys}
    measured.update(oracle.values)
    measured.update(workload.setup_values)
    measured["setup_s"] = setup_s
    measured["peak_rss_mb"] = peak_rss_mb

    record = {"provenance": _provenance(args, np, scipy), "cycles": [r.values for r in cycles]}
    if args.trace:
        spans = tracer.spans
        traced_cycles = kinds.count("traced")
        wall = sum(walls)
        self_sum = sum(self_times(spans))
        share = self_sum / wall
        if abs(share - 1.0) > SELF_TIME_TOLERANCE:
            errors.append(f"span self times sum to {share:.4f} of the traced wall time")
        traced_cycle_s = _median([values["cycle_s"] for values in good["traced"]])
        measured.update(layer_metrics(spans, traced_cycles))
        measured["trace.overhead_s"] = traced_cycle_s - measured["cycle_s"]
        measured["trace.self_time_share"] = share
        record["spans"] = [s.as_dict() for s in spans]
        wanted = benchmark["per_layer"]
    else:
        wanted = benchmark["end_to_end"]

    attempted = oracle.attempted + sum(r.attempted for r in cycles)
    failed = oracle.failed + sum(r.failed for r in cycles)
    correct = not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record.update(result=result, measured=measured, errors=errors, kinds=kinds)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float)
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={len(cycles)} warm-up={kinds.count('warm-up')} "
          f"timed-and-passed={sum(map(len, good.values()))} "
          f"attempted={attempted} failed={failed}")
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for name in sorted(measured):
        print(f"  {name:36s} {measured[name]:.6g} {units.get(name, _unit(name))}")
    for message in errors:
        print(f"  CHECK FAILED: {message}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "1"


if __name__ == "__main__":
    sys.exit(main())
