"""Run one workload of the barcomb benchmark and print its metrics.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the benchmark imports barcomb from its
``src`` directory.  Every run starts fresh interpreters with BLAS and OpenMP
pinned to one thread, so barcomb's own caches never outlive a run.  With
``--trace 0`` it starts the interpreter five times and reports the median
set-up time, then measures in the last one; with ``--trace 1`` it makes a
single traced run and reports the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed
from tracing import per_layer_units

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("invariants", "distances", "lattices")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "small_p50_ms": "ms",
                    "large_p50_ms": "ms", "peak_rss_mb": "MB"}
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


def start_worker(args, setup_only, deadline):
    """Start worker.py; return it and its set-up time up to READY, in reference seconds."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    factor = hostspeed.scale(hostspeed.probe_seconds(20))
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, setup * factor


def finish(proc, deadline) -> str:
    """Wait for the worker (killing it past the deadline); return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "barcomb", "__init__.py")):
        print(f"run.py: no barcomb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = start_worker(args, True, deadline)
                finish(proc, deadline)
                setups.append(setup)
        proc, setup = start_worker(args, False, deadline)
        setups.append(setup)
        lines = finish(proc, deadline).splitlines()
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for key, count in sorted(result["failures"].items()):
        print(f"failed {count}x  {key}")
    for problem in result["problems"]:
        print(f"PROBLEM  {problem}")
    print(f"rounds {result['rounds']}; unscaled round seconds "
          f"{[round(s, 3) for s in result['round_s']]}; host-speed factor "
          f"{result['scale']:.3f}; set-up reference seconds {[round(s, 3) for s in setups]}")

    if args.trace:
        units = per_layer_units()
        values = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
