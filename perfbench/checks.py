"""Output checks computed apart from barcomb.

Each check takes what the program returned plus the raw inputs and raises
CheckFailed when the two disagree.  The references are independent of the
program's algorithms: merge-sort inversion counts, interleaving profiles,
numpy cost matrices with scipy's assignment and bipartite-matching solvers,
closed-form counts, and brute force over enumerated lattices.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from inputs import multinomial_words, sample_values

REL_TOL = 1e-9


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's reference."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Words
# --------------------------------------------------------------------------

def canonical(word) -> tuple[int, ...]:
    """Relabel so that first occurrences appear as 1, 2, ..., n."""
    word = tuple(word)
    relabel: dict[int, int] = {}
    for sym in word:
        relabel.setdefault(sym, len(relabel) + 1)
    return tuple(relabel[sym] for sym in word)


def level_word(pairs, k: int) -> tuple[int, ...]:
    """Canonical level-k word of a barcode given as (birth, death) pairs."""
    points = sample_values(pairs, k)
    values = [v for v, _ in points]
    require(all(x < y for x, y in zip(values, values[1:])), f"inputs are not {k}-strict")
    return canonical(label for _, label in points)


def inversion_count(word) -> int:
    """Pairs a < b with word[a] > word[b], by merge sort in O(L log L)."""
    def sort(seq):
        if len(seq) <= 1:
            return list(seq), 0
        mid = len(seq) // 2
        left, x = sort(seq[:mid])
        right, y = sort(seq[mid:])
        merged, count, i, j = [], x + y, 0, 0
        while i < len(left) and j < len(right):
            if right[j] < left[i]:
                merged.append(right[j])
                count += len(left) - i
                j += 1
            else:
                merged.append(left[i])
                i += 1
        merged += left[i:] + right[j:]
        return merged, count
    return sort(list(word))[1]


def crossing_sum(pairs) -> int:
    """Sum over bar pairs of 0 disjoint / 1 stepped / 2 nested."""
    bars = np.array(sorted(pairs))  # by birth, so row i starts before row j > i
    deaths = bars[:, 1]
    first_death = deaths[:, None]
    later_birth, later_death = bars[None, :, 0], deaths[None, :]
    cross = np.where(first_death < later_birth, 0, np.where(first_death < later_death, 1, 2))
    return int(np.triu(cross, 1).sum())


def positions(words: np.ndarray, n: int, m: int) -> np.ndarray:
    """pos[e, s, c]: index of the (c+1)-th copy of symbol s+1 in word e."""
    return np.argsort(words, axis=1, kind="stable").reshape(len(words), n, m)


def profiles(words, n: int, m: int) -> np.ndarray:
    """Interleaving profiles, one row per word.

    Entry (i, j, r), i < j, counts the copies of j before the r-th copy of i.
    Copies of a symbol stay in order, so s <= t in the Newman order exactly
    when profile(s) <= profile(t) at every entry.
    """
    pos = positions(np.asarray(words, dtype=np.int64).reshape(-1, n * m), n, m)
    upper_i, upper_j = np.triu_indices(n, 1)
    before = pos[:, upper_j, None, :] < pos[:, upper_i, :, None]  # [e, pair, r, c]
    return before.sum(axis=3, dtype=np.int32).reshape(len(pos), -1)


def pair_profiles(word, n: int, m: int) -> np.ndarray:
    """Inversion multiset per symbol pair: the profile summed over copies."""
    return profiles(word, n, m).reshape(-1, m).sum(axis=1)


def check_invariant_op(out: dict, pairs_a, pairs_b, k: int, g_k, barcode_type) -> None:
    """Words, ranks, both orders, delta_k and invariance of g_k."""
    n, m = len(pairs_a), (1 << k) + 1
    words = []
    for side, pairs in (("a", pairs_a), ("b", pairs_b)):
        require(out[f"strict_{side}"] is True, f"is_k_strict({side}) is not True")
        want = level_word(pairs, k)
        require(out[f"word_{side}"] == want, f"g_k({side}) differs from the reference word")
        require(out[f"rank_{side}"] == inversion_count(want), f"rank({side}) != inversion count")
        if k == 0:
            require(out[f"rank_{side}"] == crossing_sum(pairs), f"rank({side}) != crossing sum")
        if k >= 1:
            lower = level_word(pairs, k - 1)
            require(out[f"delta_{side}"] == lower, f"delta_k({side}) != level {k - 1} word")
            require(out[f"lower_{side}"] == lower, f"g_(k-1)({side}) differs from the reference")
        words.append(want)
    prof_a, prof_b = profiles(words[0], n, m), profiles(words[1], n, m)
    require(out["leq_ab"] == bool(np.all(prof_a <= prof_b)), "newman_leq(a, b) is wrong")
    require(out["leq_ba"] == bool(np.all(prof_b <= prof_a)), "newman_leq(b, a) is wrong")
    pair_a, pair_b = pair_profiles(words[0], n, m), pair_profiles(words[1], n, m)
    require(out["prec_ab"] == bool(np.all(pair_a <= pair_b)), "prec(a, b) is wrong")
    require(out["prec_ba"] == bool(np.all(pair_b <= pair_a)), "prec(b, a) is wrong")
    # g_k must not see an increasing affine map or a relabeling of the bars.
    # Scale by a power of two and shift on the input grid keep every value exact.
    shuffled = list(pairs_a)
    random.Random(n).shuffle(shuffled)
    moved = [(4.0 * b - 3.0, 4.0 * d - 3.0) for b, d in shuffled]
    require(tuple(g_k(barcode_type.from_pairs(moved), k).word) == words[0],
            "g_k changed under an affine map and a shuffle of the bars")


# --------------------------------------------------------------------------
# Distances
# --------------------------------------------------------------------------

def ground_costs(pairs_a, pairs_b):
    """Sup-norm costs between bars, and each bar's cost to the diagonal."""
    a, b = np.asarray(pairs_a, dtype=float), np.asarray(pairs_b, dtype=float)
    cross = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1]))
    return cross, (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0


def witness_costs(pairs_a, pairs_b, witness) -> list[float]:
    """Cost of each witness pair; also checks the witness is a perfect matching."""
    n, m = len(pairs_a), len(pairs_b)
    cross, diag_a, diag_b = ground_costs(pairs_a, pairs_b)
    left = [l for l, _ in witness if l is not None]
    right = [r for _, r in witness if r is not None]
    require(sorted(left) == list(range(1, n + 1)), "witness does not cover every left bar once")
    require(sorted(right) == list(range(1, m + 1)), "witness does not cover every right bar once")
    costs = []
    for l, r in witness:
        require(l is not None or r is not None, "witness pairs the diagonal with itself")
        if l is not None and r is not None:
            costs.append(float(cross[l - 1, r - 1]))
        else:
            costs.append(float(diag_a[l - 1] if l is not None else diag_b[r - 1]))
    return costs


def perfect_at(threshold: float, cross, diag_a, diag_b) -> bool:
    """Is there a perfect matching using only edges of cost <= threshold?"""
    n, m = cross.shape
    adj = np.zeros((n + m, m + n), dtype=bool)
    adj[:n, :m] = cross <= threshold
    adj[np.arange(n), m + np.arange(n)] = diag_a <= threshold  # bar to its diagonal copy
    adj[n + np.arange(m), np.arange(m)] = diag_b <= threshold
    adj[n:, m:] = True  # diagonal copies match each other at no cost
    match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    return bool(np.all(match >= 0))


def check_bottleneck(value: float, witness, pairs_a, pairs_b) -> None:
    costs = witness_costs(pairs_a, pairs_b, witness)
    require(max(costs, default=0.0) == value, "bottleneck value != its witness cost")
    cross, diag_a, diag_b = ground_costs(pairs_a, pairs_b)
    require(perfect_at(value, cross, diag_a, diag_b), "no perfect matching at the bottleneck value")
    candidates = np.unique(np.concatenate([[0.0], cross.ravel(), diag_a, diag_b]))
    smaller = candidates[candidates < value]
    if len(smaller):
        require(not perfect_at(smaller[-1], cross, diag_a, diag_b),
                "a perfect matching exists below the bottleneck value")


def check_wasserstein(value: float, witness, q: float, d_inf: float, pairs_a, pairs_b) -> None:
    costs = witness_costs(pairs_a, pairs_b, witness)
    require(math.isclose(sum(c**q for c in costs) ** (1.0 / q), value, rel_tol=REL_TOL),
            f"W_{q:g} value != its witness cost")
    n, m = len(pairs_a), len(pairs_b)
    cross, diag_a, diag_b = ground_costs(pairs_a, pairs_b)
    full = np.zeros((n + m, m + n))
    full[:n, :m] = cross**q
    full[:n, m:] = (diag_a**q)[:, None]
    full[n:, :m] = (diag_b**q)[None, :]
    rows, cols = linear_sum_assignment(full)
    optimum = float(full[rows, cols].sum()) ** (1.0 / q)
    require(math.isclose(value, optimum, rel_tol=REL_TOL), f"W_{q:g} is not the optimal assignment")
    check_large_q(value, d_inf, q)


def check_large_q(value: float, d_inf: float, q: float) -> None:
    """d_q >= d_inf, and d_q > 0 for distinct diagrams (d_inf > 0)."""
    require(value >= d_inf * (1.0 - REL_TOL), f"W_{q:g} = {value!r} is below the bottleneck {d_inf!r}")
    require(d_inf == 0.0 or value > 0.0, f"W_{q:g} is 0 for distinct diagrams")


def check_bound(report, perturbed_pairs, pairs_a, k: int) -> None:
    require(report.passed is True, "check_convergence_bounds did not pass")
    require(report.d_inf <= report.bound_inf + REL_TOL, "d_inf exceeds span / 2^k")
    require(level_word(perturbed_pairs, k) == level_word(pairs_a, k),
            "perturbation changed the level-k word")


# --------------------------------------------------------------------------
# Lattices and polytopes
# --------------------------------------------------------------------------

def element_count(n: int, m: int) -> int:
    """Canonical words: (nm)! / ((m!)^n n!)."""
    return math.factorial(n * m) // (math.factorial(m) ** n * math.factorial(n))


def check_lattice(words, covers, ranks, n: int, k: int) -> None:
    """Counts, canonical order, ranks, top rank and covers of a diagram."""
    m = (1 << k) + 1
    require(len(words) == element_count(n, m), "element count differs from (nm)!/((m!)^n n!)")
    arr = np.asarray(words, dtype=np.int64).reshape(len(words), n * m)
    require(all(canonical(w) == tuple(w) for w in words), "an element is not canonical")
    require(all(tuple(x) < tuple(y) for x, y in zip(words, words[1:])),
            "elements are not distinct and in lexicographic order")
    inversions = sum((arr[:, a, None] > arr[:, a + 1:]).sum(axis=1) for a in range(n * m))
    require(np.array_equal(inversions, np.asarray(ranks)), "ranks differ from inversion counts")
    require(max(ranks) == n * (n - 1) // 2 * (m - 1) * m, "top rank != n(n-1)/2 * 2^k(2^k+1)")
    lo, hi = np.asarray(covers, dtype=np.int64).reshape(-1, 2).T
    ranks_arr = np.asarray(ranks)
    require(np.all(ranks_arr[hi] == ranks_arr[lo] + 1), "a cover does not raise the rank by 1")
    differ = arr[lo] != arr[hi]
    require(np.all(differ.sum(axis=1) == 2), "a cover is not a single adjacent swap")


def check_emitters(dot: str, js: str, words, covers, ranks) -> None:
    """DOT nodes "word (rank r)" and edges lower -> upper; JSON round-trips."""
    nodes = [f'  n{i} [label="{" ".join(map(str, w))} (rank {r})"];'
             for i, (w, r) in enumerate(zip(words, ranks))]
    edges = [f"  n{lo} -> n{hi};" for lo, hi in covers]
    want = ["digraph hasse {", "  rankdir=BT;", *nodes, *edges, "}"]
    require(dot.splitlines() == want, "DOT output does not describe the diagram")
    data = json.loads(js)
    require(data == {"elements": [list(w) for w in words], "covers": [list(c) for c in covers],
                     "ranks": list(ranks)}, "JSON does not round-trip the diagram")


def check_polytope(vectors, words, dim: int, blocks: int, n: int, k: int) -> None:
    m = (1 << k) + 1
    size = n * m
    arr = np.asarray(words, dtype=np.int64).reshape(len(words), size)
    pos = positions(arr, n, m)
    want = np.empty_like(arr)
    values = np.arange(1, size + 1).reshape(n, m)  # (sym-1)*m + copy
    rows = np.arange(len(arr))[:, None, None]
    want[rows, pos] = values[None]
    require(np.array_equal(np.asarray(vectors, dtype=np.int64), want), "vertex vectors are wrong")
    require(blocks == 2, f"sorting chain has {blocks} blocks, expected 2")
    require(dim == size - blocks == size - 2, f"affine dimension {dim} != N - 2")


def check_meetjoin(words, queries, meets, joins, n: int, k: int) -> None:
    """Brute force: the greatest common lower bound and least common upper bound."""
    m = (1 << k) + 1
    prof = profiles(words, n, m)
    index = {tuple(w): i for i, w in enumerate(words)}
    for (s, t), got_meet, got_join in zip(queries, meets, joins):
        ps, pt = prof[index[tuple(s)]], prof[index[tuple(t)]]
        for got, common, name in (
            (got_meet, np.all(prof <= ps, axis=1) & np.all(prof <= pt, axis=1), "meet"),
            (got_join, np.all(prof >= ps, axis=1) & np.all(prof >= pt, axis=1), "join"),
        ):
            require(tuple(got) in index, f"{name} is not an element")
            pg = prof[index[tuple(got)]]
            require(common[index[tuple(got)]], f"{name} is not a common bound")
            if name == "meet":
                require(np.all(prof[common] <= pg), "meet is not the greatest lower bound")
            else:
                require(np.all(prof[common] >= pg), "join is not the least upper bound")


def check_ideal(report, n: int, k: int) -> None:
    m = (1 << k) + 1
    require(report.equal is True, "canonical words differ from the ideal below the top")
    require(report.canonical_count == report.ideal_count == element_count(n, m),
            "ideal size differs from the element count")
    require(report.total_words == multinomial_words(n, m),
            "total word count differs from the multinomial coefficient")
