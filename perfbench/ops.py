"""The benchmark's operations: one user task each, calling barcomb's public API.

Every call into barcomb goes through ``T.call(span_name, fn, ...)`` so a
traced run can attribute time to the layer.  An operation returns
``(out, summary, counts)``: ``out`` feeds the checks in the first round,
``summary`` must repeat exactly in later rounds, and ``counts`` adds to the
per-round count metrics.  ``check(job, out)`` raises checks.CheckFailed.

This module imports barcomb, so it is imported only after the worker has put
the checkout's ``src`` first on sys.path.
"""

from __future__ import annotations

import json
import tracemalloc

from barcomb import barcode as bc
from barcomb import distances as dist
from barcomb import lattice as lat
from barcomb import multiperm as mp
from barcomb import polytope as poly

import checks
from inputs import write_barcode


def cap_kwargs(spec) -> dict:
    # Only specs beyond the default position cap pass one, so the calls keep
    # the library's default everywhere else.
    return {"cap": spec.positions} if spec.positions > lat.DEFAULT_POSITION_CAP else {}


def clear_program_caches() -> None:
    """Drop barcomb's process-wide caches so every round does the same work."""
    clear = getattr(lat.enumerate_lattice, "cache_clear", None)
    if clear is not None:
        clear()


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def invariants_op(job, T):
    k = job.params["k"]
    out = {}
    for side in ("a", "b"):
        barcode = T.call("barcode.read", bc.read_barcode, job.files[side])
        out[f"strict_{side}"] = T.call("barcode.strict", bc.is_k_strict, barcode, k)
        word = T.call("multiperm.canonicalize", mp.canonicalize,
                      T.call("multiperm.f_k", mp.f_k, barcode, k))
        out[f"mp_{side}"] = word
        out[f"word_{side}"] = word.word
        out[f"rank_{side}"] = T.call("multiperm.rank", mp.rank, word)
        if k >= 1:
            out[f"delta_{side}"] = T.call("multiperm.delta_k", mp.delta_k, word).word
            out[f"lower_{side}"] = T.call(
                "multiperm.canonicalize", mp.canonicalize,
                T.call("multiperm.f_k", mp.f_k, barcode, k - 1)).word
    wa, wb = out.pop("mp_a"), out.pop("mp_b")
    out["leq_ab"] = T.call("multiperm.newman_leq", mp.newman_leq, wa, wb)
    out["leq_ba"] = T.call("multiperm.newman_leq", mp.newman_leq, wb, wa)
    out["prec_ab"] = T.call("multiperm.prec", mp.prec, wa, wb)
    out["prec_ba"] = T.call("multiperm.prec", mp.prec, wb, wa)
    summary = tuple(sorted((key, hash(val)) for key, val in out.items()))
    return out, summary, {}


def invariants_check(job, out):
    pairs_a, pairs_b = (bc.read_barcode(job.files[s]).pairs() for s in ("a", "b"))
    checks.check_invariant_op(out, pairs_a, pairs_b, job.params["k"], mp.g_k, bc.Barcode)


# --------------------------------------------------------------------------
# distances
# --------------------------------------------------------------------------

def distances_op(job, T):
    a = T.call("barcode.read", bc.read_barcode, job.files["a"])
    b = T.call("barcode.read", bc.read_barcode, job.files["b"])
    out = {}
    d_inf, witness = T.call("distances.bottleneck", dist.bottleneck, a, b)
    out["bottleneck"] = (d_inf, witness.pairs)
    pairs = len(witness.pairs)
    if job.known_fault:
        q = job.params["q"]
        out["large_q"] = T.call("distances.wasserstein", dist.wasserstein, a, b, q)[0]
        return out, (d_inf, out["large_q"]), {"distances.witness_pairs": pairs}
    for q in (1, 2):
        value, witness = T.call("distances.wasserstein", dist.wasserstein, a, b, q)
        out[f"w{q}"] = (value, witness.pairs)
        pairs += len(witness.pairs)
    if "magnitude" in job.params:
        k = job.params["k"]
        perturbed = T.call("distances.perturb", dist.perturb_preserving_invariant,
                           a, job.params["magnitude"], k, job.params["perturb_seed"])
        out["perturbed"] = tuple(perturbed.pairs())
        out["report"] = T.call("distances.bound_check", dist.check_convergence_bounds,
                               a, perturbed, k, 2)
    summary = (out["bottleneck"], out["w1"], out["w2"], out.get("perturbed"),
               out.get("report"))
    return out, hash(summary), {"distances.witness_pairs": pairs}


def distances_check(job, out):
    pairs_a, pairs_b = (bc.read_barcode(job.files[s]).pairs() for s in ("a", "b"))
    d_inf, witness = out["bottleneck"]
    if job.known_fault:
        checks.check_large_q(out["large_q"], d_inf, job.params["q"])
        return
    checks.check_bottleneck(d_inf, witness, pairs_a, pairs_b)
    for q in (1, 2):
        value, witness = out[f"w{q}"]
        checks.check_wasserstein(value, witness, q, d_inf, pairs_a, pairs_b)
    if "report" in out:
        checks.check_bound(out["report"], out["perturbed"], pairs_a, job.params["k"])


# --------------------------------------------------------------------------
# lattices
# --------------------------------------------------------------------------

def _load_queries(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [tuple(mp.Multipermutation.from_json_dict(w) for w in pair) for pair in data["queries"]]


def lattices_op(job, T):
    spec = lat.LatticeSpec(job.params["n"], job.params["k"])
    cap = cap_kwargs(spec)
    diagram = T.call("lattice.enumerate", lat.enumerate_lattice, spec, **cap)
    dot = T.call("lattice.emit", diagram.to_dot)
    js = T.call("lattice.emit", diagram.to_json)
    vertex_set = T.call("polytope.vertices", poly.vertices, spec, **cap)
    dim = T.call("polytope.affine_dimension", poly.affine_dimension, vertex_set)
    blocks = T.call("polytope.blocks", poly.pi_partition_blocks, spec)
    queries = _load_queries(job.files["queries"])
    meets = [T.call("lattice.meetjoin", lat.meet, s, t, spec, **cap).word for s, t in queries]
    joins = [T.call("lattice.meetjoin", lat.join, s, t, spec, **cap).word for s, t in queries]
    ideal = None
    if job.params["ideal_check"]:
        ideal = T.call("lattice.ideal_check", lat.verify_ideal_isomorphism, spec, **cap)
    out = {"words": [s.word for s in diagram.elements], "covers": diagram.covers,
           "ranks": diagram.ranks, "dot": dot, "json": js, "vectors": vertex_set.vectors,
           "dim": dim, "blocks": blocks, "queries": [(s.word, t.word) for s, t in queries],
           "meets": meets, "joins": joins, "ideal": ideal}
    summary = hash((len(diagram.elements), diagram.covers, hash(dot), hash(js), dim, blocks,
                    tuple(meets), tuple(joins), ideal))
    return out, summary, {"lattice.elements": len(diagram.elements),
                          "lattice.covers": len(diagram.covers)}


def lattices_check(job, out):
    n, k = job.params["n"], job.params["k"]
    checks.check_lattice(out["words"], out["covers"], out["ranks"], n, k)
    checks.check_emitters(out["dot"], out["json"], out["words"], out["covers"], out["ranks"])
    checks.check_polytope(out["vectors"], out["words"], out["dim"], out["blocks"], n, k)
    checks.check_meetjoin(out["words"], out["queries"], out["meets"], out["joins"], n, k)
    if out["ideal"] is not None:
        checks.check_ideal(out["ideal"], n, k)


def lattice_peaks(job) -> tuple[int, int]:
    """tracemalloc peaks in bytes of enumeration and of the meet/join batch."""
    spec = lat.LatticeSpec(job.params["n"], job.params["k"])
    cap = cap_kwargs(spec)
    queries = _load_queries(job.files["queries"])
    clear_program_caches()
    tracemalloc.start()
    try:
        lat.enumerate_lattice(spec, **cap)
        enumerate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for s, t in queries:
            lat.meet(s, t, spec, **cap)
            lat.join(s, t, spec, **cap)
        return enumerate_peak, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_program_caches()


OPS = {
    "invariants": (invariants_op, invariants_check),
    "distances": (distances_op, distances_check),
    "lattices": (lattices_op, lattices_check),
}


# --------------------------------------------------------------------------
# CLI cross-check: stdout of barcomb.cli.main against the library result
# --------------------------------------------------------------------------

def cli_cases(workload, jobs, workdir):
    """(argv, expected stdout) for each subcommand the workload covers."""
    if workload == "invariants":
        job = jobs[0]
        k, a_path, b_path = job.params["k"], job.files["a"], job.files["b"]
        a, b = bc.read_barcode(a_path), bc.read_barcode(b_path)
        wa, wb = mp.g_k(a, k), mp.g_k(b, k)
        order = ("EQ" if wa == wb else "LT" if mp.newman_leq(wa, wb)
                 else "GT" if mp.newman_leq(wb, wa) else "INCOMPARABLE")
        return [
            (["invariant", "--input", a_path, "--k", str(k)], f"{wa}\n"),
            (["rank", "--input", a_path, "--k", str(k)], f"{mp.rank(wa)}\n"),
            (["compare", "--k", str(k), a_path, b_path], order + "\n"),
        ]
    if workload == "distances":
        plain = next(j for j in jobs if not j.known_fault)
        bound = next(j for j in jobs if "magnitude" in j.params)
        a, b = bc.read_barcode(plain.files["a"]), bc.read_barcode(plain.files["b"])
        value, witness = dist.wasserstein(a, b, 2)
        left = bc.read_barcode(bound.files["a"])
        k = bound.params["k"]
        perturbed_path = f"{workdir}/cli_perturbed.csv"
        write_barcode(perturbed_path, dist.perturb_preserving_invariant(
            left, bound.params["magnitude"], k, bound.params["perturb_seed"]).pairs())
        report = dist.check_convergence_bounds(left, bc.read_barcode(perturbed_path), k, 2)
        return [
            (["distance", "--metric", "wasserstein", "--q", "2", "--witness",
              plain.files["a"], plain.files["b"]],
             json.dumps({"distance": value, "pairs": [list(p) for p in witness.pairs]}) + "\n"),
            (["bound-check", "--k", str(k), "--q", "2", bound.files["a"], perturbed_path],
             json.dumps(report.to_json_dict()) + "\n"),
        ]
    job = next(j for j in jobs if j.params["ideal_check"] and j.params["k"] >= 1)
    n, k = job.params["n"], job.params["k"]
    spec = lat.LatticeSpec(n, k)
    s, t = _load_queries(job.files["queries"])[0]
    diagram = lat.enumerate_lattice(spec)
    size = ["--n", str(n), "--k", str(k)]
    return [
        (["hasse", *size, "--dot", "-", "--json", "-"], diagram.to_dot() + diagram.to_json() + "\n"),
        (["meetjoin", *size, "--op", "meet", str(s), str(t)], f"{lat.meet(s, t, spec)}\n"),
        (["polytope", *size, "--dim"], json.dumps(poly.dimension_report(spec)) + "\n"),
    ]
