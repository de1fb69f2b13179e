"""One benchmark run inside a fresh interpreter; started by run.py.

Sequence: import barcomb from the checkout's ``src``, write the workload's
inputs, print READY (run.py times set-up up to that line), then run rounds of
the workload's fixed job list until ``--seconds`` have passed.  Every round
is timed.  The first is also checked operation by operation, outside the
timers; every later round must reproduce its results exactly.  Then comes
the CLI cross-check pass and, in a traced run, the tracemalloc pass.  The
last line of stdout is a JSON object that run.py turns into the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
PROBES_PER_OP = 5


def import_program():
    """Import barcomb from this checkout only, never from site-packages."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import barcomb

    if os.path.dirname(os.path.abspath(barcomb.__file__)) != os.path.join(src, "barcomb"):
        raise ImportError(f"barcomb was imported from {barcomb.__file__}, not {src}")
    return barcomb


class Run:
    """Rounds of one workload, with the bookkeeping for the result line."""

    def __init__(self, workload, jobs):
        import ops

        self.ops = ops
        self.workload = workload
        self.jobs = jobs
        self.op, self.check = ops.OPS[workload]
        self.attempted = 0
        self.failures: dict[str, int] = {}  # "job: ErrorType" -> count
        self.problems: list[str] = []  # anything that makes the run incorrect
        self.reference: list = []  # first-round summary (or error type) per job
        self.wrong_first: set[int] = set()  # jobs whose first result failed its check
        self.counts: dict[str, int] | None = None  # count metrics of one round
        self.rounds_run = 0
        self.probes: list[float] = []  # host-speed probe times of the whole run

    def rounds(self, T, seconds):
        """Run whole rounds for ``seconds``; return per-round lists of op timings.

        Before every operation a few host-speed probes run, outside its
        timer, into ``self.probes``.  In the first round ever run each result
        is checked right after its operation, outside the operation's timer,
        and then dropped.
        """
        timed = []
        deadline = perf_counter() + seconds
        while True:
            self.ops.clear_program_caches()
            gc.collect()
            times, counts = [], {}
            for index, job in enumerate(self.jobs):
                self.probes += hostspeed.probe_seconds(PROBES_PER_OP)
                T.begin_op(self.attempted, job.name, self.rounds_run)
                start = perf_counter()
                try:
                    out, summary, job_counts = self.op(job, T)
                except Exception as exc:  # a failed operation is recorded, the run goes on
                    out, summary, job_counts = None, exc, {}
                times.append(perf_counter() - start)
                T.end_op()
                self.attempted += 1
                for key, value in job_counts.items():
                    counts[key] = counts.get(key, 0) + value
                self._record(index, out, summary)
                del out
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                self.problems.append(f"round {self.rounds_run}: counts {counts} != {self.counts}")
            self.rounds_run += 1
            timed.append(times)
            if perf_counter() >= deadline:
                return timed

    def _fail(self, job, kind, detail):
        key = f"{job.name}: {kind}"
        self.failures[key] = self.failures.get(key, 0) + 1
        if not job.known_fault:
            self.problems.append(f"{job.name}: {detail}")

    def _record(self, index, out, summary):
        job = self.jobs[index]
        first = len(self.reference) == index
        if isinstance(summary, Exception):
            kind = type(summary).__name__
            self._fail(job, kind, "".join(traceback.format_exception_only(summary)).strip())
            summary = kind
        elif first:
            try:
                self.check(job, out)
            except Exception as exc:  # checks.CheckFailed or an error while checking
                self.wrong_first.add(index)
                self._fail(job, "check", f"{type(exc).__name__}: {exc}")
        elif index in self.wrong_first and summary == self.reference[index]:
            self._fail(job, "check", "same wrong result as the first round")
        if first:
            self.reference.append(summary)
        elif summary != self.reference[index]:
            self.problems.append(f"{job.name}: result differs from the first round")

    def cli_pass(self, T, workdir):
        """barcomb.cli.main on the workload's own inputs, against the library."""
        from barcomb import cli

        self.ops.clear_program_caches()
        for argv, expected in self.ops.cli_cases(self.workload, self.jobs, workdir):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = T.call("cli.main", cli.main, argv)
            if code != 0 or buffer.getvalue() != expected:
                self.problems.append(f"cli {argv[0]}: exit {code}, stdout differs: "
                                     f"{buffer.getvalue()[:200]!r} vs {expected[:200]!r}")


def op_medians(timed):
    """Each operation's median time over the timed rounds, in job order."""
    return [statistics.median(times) for times in zip(*timed)]


def tier_p50_ms(jobs, medians, tier):
    """Median over the tier's operations of each operation's median time."""
    return 1000.0 * statistics.median(m for job, m in zip(jobs, medians) if job.tier == tier)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from inputs import make_jobs

    workdir = os.path.join(OUT_DIR, args.workload)  # overwritten by every run
    jobs = make_jobs(args.workload, args.seed, workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    from tracing import Tracer, per_layer_units

    run = Run(args.workload, jobs)
    result = {}
    if args.trace:
        # Half the time untraced, half traced: the difference is the overhead.
        plain = run.rounds(Tracer(False), args.seconds / 2)
        tracer = Tracer(True)
        traced = run.rounds(tracer, args.seconds / 2)
        run.cli_pass(tracer, workdir)
        layer = {name: 0 if unit == "count" else 0.0 for name, unit in per_layer_units().items()}
        factor = hostspeed.scale(run.probes)
        for name, (seconds, calls) in tracer.per_round_totals().items():
            layer[f"{name}_s"], layer[f"{name}_calls"] = seconds * factor, calls
        cli_spans = [s for s in tracer.spans if s["name"] == "cli.main"]
        layer["cli.main_s"] = sum(s["end"] - s["start"] for s in cli_spans) * factor
        layer["cli.main_calls"] = len(cli_spans)
        layer.update(run.counts)
        if args.workload == "lattices":
            peaks = [run.ops.lattice_peaks(job) for job in jobs]
            layer["lattice.enumerate_peak_mb"] = max(p[0] for p in peaks) / 2**20
            layer["lattice.meetjoin_peak_mb"] = max(p[1] for p in peaks) / 2**20
        layer["trace.overhead_s"] = (sum(op_medians(traced)) - sum(op_medians(plain))) * factor
        result["per_layer"] = layer
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
        timed = plain + traced
    else:
        timed = run.rounds(Tracer(False), args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run.cli_pass(Tracer(False), workdir)
        factor = hostspeed.scale(run.probes)
        medians = [m * factor for m in op_medians(timed)]
        result["end_to_end"] = {
            # The job list's time, each operation at its median: a slow spell
            # of the machine in one round does not carry into the figure.
            "wall_s": sum(medians),
            "small_p50_ms": tier_p50_ms(jobs, medians, "small"),
            "large_p50_ms": tier_p50_ms(jobs, medians, "large"),
            "peak_rss_mb": peak_kb / 1024.0,
        }
    result.update(round_s=[sum(r) for r in timed], scale=factor, attempted=run.attempted,
                  failed=sum(run.failures.values()), failures=run.failures,
                  problems=run.problems, rounds=run.rounds_run)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
