"""Size sweep: how the time of single barcomb calls grows with n and k.

    python3 perfbench/sweep.py            # prints a table, writes perfbench/out/sweep.json

Not a workload: it makes no correctness checks and its figures are single
timings (best of three for calls under 0.1 s).  Inputs come from the
benchmark's own generator with fixed seeds.  Each row also gives the growth
exponent log(t2/t1) / log(x2/x1) against the previous row of the same ladder.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from time import perf_counter

from run import SINGLE_THREAD

os.environ.update(SINGLE_THREAD)  # before numpy is imported

from worker import OUT_DIR, import_program  # noqa: E402
from inputs import draw_barcode  # noqa: E402

BOTTLENECK_N = [25, 50, 100]
WORD_SIZES = [(250, 0), (500, 0), (1000, 0), (100, 0), (100, 1), (100, 2), (100, 3)]
LATTICE_SPECS = [(3, 1), (5, 0), (6, 0), (4, 1), (2, 3)]


def timed(fn, *args):
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        result = fn(*args)
        best = min(best, perf_counter() - start)
        if best >= 0.1:
            break
    return best, result


def main() -> int:
    barcomb = import_program()
    from barcomb import lattice as lat
    from barcomb import multiperm as mp
    from barcomb import polytope as poly
    from ops import cap_kwargs, clear_program_caches

    def enumerate_fresh(spec, **cap):
        clear_program_caches()
        return lat.enumerate_lattice(spec, **cap)

    rows = []

    def add(ladder, size, x, seconds, note=""):
        prev = next((r for r in reversed(rows) if r["ladder"] == ladder), None)
        growth = None
        if prev and x != prev["x"]:
            growth = math.log(seconds / prev["seconds"]) / math.log(x / prev["x"])
        rows.append({"ladder": ladder, "size": size, "x": x, "seconds": seconds,
                     "growth": growth, "note": note})
        shown = "" if growth is None else f"{growth:5.2f}"
        print(f"{ladder:34s} {size:14s} {seconds:10.4f} s  {shown:>6s}  {note}", flush=True)

    print(f"{'call':34s} {'size':14s} {'time':>12s}  growth")
    for n in BOTTLENECK_N:
        rng = random.Random(n)
        a, b = (barcomb.Barcode.from_pairs(draw_barcode(rng, n, 0)) for _ in range(2))
        add("bottleneck (independent pair)", f"n={n}", n, timed(barcomb.bottleneck, a, b)[0])
    words = {}
    for n, k in WORD_SIZES:
        rng = random.Random(1000 * k + n)
        pair = [mp.g_k(barcomb.Barcode.from_pairs(draw_barcode(rng, n, k)), k) for _ in range(2)]
        words[n, k] = pair
        ladder = "rank(g_k), k=0" if (n, k) in WORD_SIZES[:3] else "rank(g_k), n=100"
        add(ladder, f"n={n} k={k}", n * ((1 << k) + 1), timed(mp.rank, pair[0])[0],
            f"word length {n * ((1 << k) + 1)}")
    for n, k in WORD_SIZES:
        ladder = "newman_leq, k=0" if (n, k) in WORD_SIZES[:3] else "newman_leq, n=100"
        add(ladder, f"n={n} k={k}", n * ((1 << k) + 1),
            timed(mp.newman_leq, *words[n, k])[0], f"word length {n * ((1 << k) + 1)}")
    for n, k in LATTICE_SPECS:
        spec = lat.LatticeSpec(n, k)
        cap = cap_kwargs(spec)
        seconds, diagram = timed(lambda: enumerate_fresh(spec, **cap))
        size = len(diagram.elements)
        add("enumerate_lattice", f"({n},{k})", size, seconds, f"{size} elements")
        vertex_set = poly.vertices(spec, **cap)
        add("affine_dimension", f"({n},{k})", size, timed(poly.affine_dimension, vertex_set)[0],
            f"{size} x {spec.positions} matrix")
        del diagram, vertex_set
        clear_program_caches()
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
