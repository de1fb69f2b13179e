"""Spans around the benchmark's calls into barcomb, and the per-layer names.

Spans are recorded from outside the program: each one covers a single call
the benchmark makes into a public barcomb function.  With tracing off,
``Tracer.call`` is a plain call.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# "<module>.<call>", in report order.  Each yields "<name>_s" (time inside
# the calls) and "<name>_calls" (how many calls) per round.
SPAN_NAMES = [
    "barcode.read",
    "barcode.strict",
    "multiperm.f_k",
    "multiperm.canonicalize",
    "multiperm.rank",
    "multiperm.newman_leq",
    "multiperm.prec",
    "multiperm.delta_k",
    "lattice.enumerate",
    "lattice.emit",
    "lattice.meetjoin",
    "lattice.ideal_check",
    "polytope.vertices",
    "polytope.affine_dimension",
    "polytope.blocks",
    "distances.bottleneck",
    "distances.wasserstein",
    "distances.perturb",
    "distances.bound_check",
    "cli.main",
]
# Per-round counts reported by the operations themselves.
COUNT_NAMES = ["lattice.elements", "lattice.covers", "distances.witness_pairs"]
# tracemalloc peaks, in MB, from a separate pass after the traced rounds.
PEAK_NAMES = ["lattice.enumerate_peak_mb", "lattice.meetjoin_peak_mb"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update({name: "count" for name in COUNT_NAMES})
    units.update({name: "MB" for name in PEAK_NAMES})
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records (name, start, end, parent, op) spans while enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._op_span: int | None = None
        self._op_id: int | None = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append({"name": name, "start": start, "end": perf_counter(),
                               "parent": self._op_span, "op": self._op_id})

    def begin_op(self, op_id: int, name: str, round_no: int) -> None:
        if self.enabled:
            self._op_span, self._op_id = len(self.spans), op_id
            self.spans.append({"name": "op:" + name, "start": perf_counter(), "end": None,
                               "parent": None, "op": op_id, "round": round_no})

    def end_op(self) -> None:
        if self.enabled and self._op_span is not None:
            self.spans[self._op_span]["end"] = perf_counter()
            self._op_span = self._op_id = None

    def per_round_totals(self) -> dict[str, tuple[float, int]]:
        """Median over traced rounds of each span name's (seconds, calls)."""
        round_of = {s["op"]: s["round"] for s in self.spans if "round" in s}
        rounds = sorted(set(round_of.values()))
        totals = {r: {name: [0.0, 0] for name in SPAN_NAMES} for r in rounds}
        for span in self.spans:
            if span["name"] in SPAN_NAMES and span["op"] in round_of:
                slot = totals[round_of[span["op"]]][span["name"]]
                slot[0] += span["end"] - span["start"]
                slot[1] += 1
        return {name: (statistics.median(totals[r][name][0] for r in rounds),
                       totals[rounds[0]][name][1]) for name in SPAN_NAMES}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
