"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench/test_checks.py -q

Each check must accept barcomb's real answer on a small input and reject a
deliberately wrong one.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from barcomb import barcode as bc  # noqa: E402
from barcomb import distances as dist  # noqa: E402
from barcomb import lattice as lat  # noqa: E402
from barcomb import multiperm as mp  # noqa: E402
from barcomb import polytope as poly  # noqa: E402
from checks import CheckFailed  # noqa: E402


def barcode_pair(n, k, seed, contained=False):
    rng = random.Random(seed)
    return (inputs.draw_barcode(rng, n, k, contained=contained),
            inputs.draw_barcode(rng, n, k))


def test_inversion_count_and_crossing_sum():
    rng = random.Random(3)
    for _ in range(20):
        word = [rng.randrange(5) for _ in range(rng.randrange(1, 30))]
        brute = sum(word[a] > word[b] for a, b in itertools.combinations(range(len(word)), 2))
        assert checks.inversion_count(word) == brute
    # disjoint, stepped, nested
    assert checks.crossing_sum([(0, 1), (2, 3)]) == 0
    assert checks.crossing_sum([(0, 2), (1, 3)]) == 1
    assert checks.crossing_sum([(0, 3), (1, 2)]) == 2


def invariant_out(pairs_a, pairs_b, k):
    out = {}
    words = {}
    for side, pairs in (("a", pairs_a), ("b", pairs_b)):
        barcode = bc.Barcode.from_pairs(pairs)
        word = mp.g_k(barcode, k)
        words[side] = word
        out.update({f"strict_{side}": bc.is_k_strict(barcode, k), f"word_{side}": word.word,
                    f"rank_{side}": mp.rank(word)})
        if k >= 1:
            out[f"delta_{side}"] = mp.delta_k(word).word
            out[f"lower_{side}"] = mp.g_k(barcode, k - 1).word
    wa, wb = words["a"], words["b"]
    out.update(leq_ab=mp.newman_leq(wa, wb), leq_ba=mp.newman_leq(wb, wa),
               prec_ab=mp.prec(wa, wb), prec_ba=mp.prec(wb, wa))
    return out


@pytest.mark.parametrize("k", [0, 1, 2])
def test_invariant_check_rejects_each_wrong_field(k):
    pairs_a, pairs_b = barcode_pair(6, k, seed=10 + k)
    good = invariant_out(pairs_a, pairs_b, k)
    checks.check_invariant_op(good, pairs_a, pairs_b, k, mp.g_k, bc.Barcode)
    wrong = {"strict_a": False, "rank_a": good["rank_a"] + 1,
             "leq_ab": not good["leq_ab"], "prec_ba": not good["prec_ba"],
             "word_b": tuple(reversed(good["word_b"]))}
    if k >= 1:
        wrong["delta_a"] = good["lower_b"] if good["lower_b"] != good["lower_a"] else ()
        wrong["lower_b"] = ()
    for key, value in wrong.items():
        with pytest.raises(CheckFailed):
            checks.check_invariant_op(dict(good, **{key: value}), pairs_a, pairs_b, k,
                                      mp.g_k, bc.Barcode)
    # a "g_k" that forgets to canonicalize is not invariant under relabeling
    with pytest.raises(CheckFailed):
        checks.check_invariant_op(good, pairs_a, pairs_b, k, mp.f_k, bc.Barcode)


def test_newman_profile_matches_exhaustive_order():
    # every pair of canonical words at (3, 0) against the program's order
    words = [s for s in lat.enumerate_lattice(lat.LatticeSpec(3, 0)).elements]
    prof = checks.profiles([w.word for w in words], 3, 2)
    for i, j in itertools.product(range(len(words)), repeat=2):
        assert bool((prof[i] <= prof[j]).all()) == mp.newman_leq(words[i], words[j])


def test_bottleneck_check():
    pairs_a, pairs_b = barcode_pair(8, 0, seed=4)
    a, b = bc.Barcode.from_pairs(pairs_a), bc.Barcode.from_pairs(pairs_b)
    value, witness = dist.bottleneck(a, b)
    checks.check_bottleneck(value, witness.pairs, pairs_a, pairs_b)
    with pytest.raises(CheckFailed):  # a witness that drops a bar
        checks.check_bottleneck(value, witness.pairs[1:], pairs_a, pairs_b)
    # a worse but valid matching: every bar to the diagonal
    all_diag = [(i, None) for i in range(1, 9)] + [(None, j) for j in range(1, 9)]
    cost = max(checks.witness_costs(pairs_a, pairs_b, all_diag))
    assert cost > value
    with pytest.raises(CheckFailed):
        checks.check_bottleneck(cost, all_diag, pairs_a, pairs_b)


def test_wasserstein_check():
    pairs_a, pairs_b = barcode_pair(8, 0, seed=5)
    a, b = bc.Barcode.from_pairs(pairs_a), bc.Barcode.from_pairs(pairs_b)
    d_inf, _ = dist.bottleneck(a, b)
    for q in (1, 2):
        value, witness = dist.wasserstein(a, b, q)
        checks.check_wasserstein(value, witness.pairs, q, d_inf, pairs_a, pairs_b)
        with pytest.raises(CheckFailed):
            checks.check_wasserstein(value * 1.01, witness.pairs, q, d_inf, pairs_a, pairs_b)
        all_diag = [(i, None) for i in range(1, 9)] + [(None, j) for j in range(1, 9)]
        worse = sum(c**q for c in checks.witness_costs(pairs_a, pairs_b, all_diag)) ** (1 / q)
        with pytest.raises(CheckFailed):
            checks.check_wasserstein(worse, all_diag, q, d_inf, pairs_a, pairs_b)
    with pytest.raises(CheckFailed):
        checks.check_large_q(0.0, d_inf, 1000.0)
    with pytest.raises(CheckFailed):
        checks.check_large_q(d_inf / 2, d_inf, 1000.0)
    checks.check_large_q(d_inf, d_inf, 1000.0)


def test_bound_check():
    k = 1
    pairs_a, _ = barcode_pair(10, k, seed=6, contained=True)
    a = bc.Barcode.from_pairs(pairs_a)
    perturbed = dist.perturb_preserving_invariant(a, 0.45 * inputs.min_gap(pairs_a, k), k, 9)
    report = dist.check_convergence_bounds(a, perturbed, k, 2)
    checks.check_bound(report, perturbed.pairs(), pairs_a, k)
    with pytest.raises(CheckFailed):
        checks.check_bound(dataclasses.replace(report, passed=False), perturbed.pairs(), pairs_a, k)
    # shifting the containing bar past all others changes the level-k word
    moved = [(b + 100.0, d + 100.0) for b, d in perturbed.pairs()[:1]] + perturbed.pairs()[1:]
    with pytest.raises(CheckFailed):
        checks.check_bound(report, moved, pairs_a, k)


@pytest.mark.parametrize("n,k", [(3, 0), (2, 1), (3, 1)])
def test_lattice_checks(n, k):
    spec = lat.LatticeSpec(n, k)
    diagram = lat.enumerate_lattice(spec)
    words = [s.word for s in diagram.elements]
    covers, ranks = list(diagram.covers), list(diagram.ranks)
    checks.check_lattice(words, covers, ranks, n, k)
    with pytest.raises(CheckFailed):
        checks.check_lattice(words[1:], covers, ranks, n, k)
    with pytest.raises(CheckFailed):
        checks.check_lattice(words, covers, [r + (i == 3) for i, r in enumerate(ranks)], n, k)
    with pytest.raises(CheckFailed):  # a "cover" from bottom to top
        checks.check_lattice(words, covers + [(0, len(words) - 1)], ranks, n, k)

    dot, js = diagram.to_dot(), diagram.to_json()
    checks.check_emitters(dot, js, words, covers, ranks)
    with pytest.raises(CheckFailed):
        checks.check_emitters(dot.replace("  n0 -> ", "  n1 -> ", 1), js, words, covers, ranks)
    with pytest.raises(CheckFailed):
        checks.check_emitters(dot, js.replace("[1, ", "[2, ", 1), words, covers, ranks)
    with pytest.raises(CheckFailed):
        checks.check_emitters("\n".join(dot.splitlines()[:-2] + ["}"]), js, words, covers, ranks)

    vectors = poly.vertices(spec).vectors
    dim, blocks = poly.affine_dimension(poly.vertices(spec)), poly.pi_partition_blocks(spec)
    checks.check_polytope(vectors, words, dim, blocks, n, k)
    with pytest.raises(CheckFailed):
        checks.check_polytope(vectors, words, dim - 1, blocks, n, k)
    with pytest.raises(CheckFailed):
        checks.check_polytope(vectors, words, dim, blocks + 1, n, k)
    with pytest.raises(CheckFailed):
        checks.check_polytope(vectors[::-1], words, dim, blocks, n, k)

    queries = list(itertools.combinations(diagram.elements, 2))[:12]
    meets = [diagram.meet(s, t).word for s, t in queries]
    joins = [diagram.join(s, t).word for s, t in queries]
    plain = [(s.word, t.word) for s, t in queries]
    checks.check_meetjoin(words, plain, meets, joins, n, k)
    with pytest.raises(CheckFailed):
        checks.check_meetjoin(words, plain, joins, meets, n, k)

    report = lat.verify_ideal_isomorphism(spec)
    checks.check_ideal(report, n, k)
    with pytest.raises(CheckFailed):
        checks.check_ideal(dataclasses.replace(report, equal=False), n, k)
    with pytest.raises(CheckFailed):
        checks.check_ideal(dataclasses.replace(report, ideal_count=report.ideal_count - 1), n, k)


def test_generated_inputs_are_seeded_and_strict(tmp_path):
    first = inputs.make_jobs("distances", 7, str(tmp_path / "one"))
    again = inputs.make_jobs("distances", 7, str(tmp_path / "two"))
    other = inputs.make_jobs("distances", 8, str(tmp_path / "three"))

    def contents(jobs):
        return [open(path).read() for job in jobs for path in sorted(job.files.values())]
    assert contents(first) == contents(again) != contents(other)
    fixed = [j for j in first if j.known_fault]
    assert contents(fixed) == contents([j for j in other if j.known_fault])
    for job in first:
        pairs = bc.read_barcode(job.files["a"]).pairs()
        assert inputs.min_gap(pairs, job.params.get("k", 0)) > 0.0


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
