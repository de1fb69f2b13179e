import gc
import itertools
import json
import math
import operator
import random
import tracemalloc
from unittest import mock

import helpers
import numpy as np
import pytest
from helpers import (
    ORACLE_SPECS,
    ReachabilityOrder,
    block_newman_join,
    column_word_keys,
    dumps_json,
    dumps_vertices_json,
    fstring_dot,
    joined_vertices_csv,
    list_newman_join,
    list_newman_leq,
    recursive_words,
    reference_lattice,
    relabeling_sweep,
    text_mismatch,
    word_stream,
    word_vectors,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import barcomb.barcode
import barcomb.lattice
import barcomb.multiperm
from barcomb import polytope
from barcomb.barcode import generate_barcode
from barcomb.errors import (
    BarcombError,
    InvalidLevelError,
    NotAnElementError,
    TooLargeError,
)
from barcomb.lattice import (
    HasseDiagram,
    IdealReport,
    LatticeSpec,
    enumerate_lattice,
    join,
    meet,
    rank_vector,
    top_element,
    verify_ideal_isomorphism,
)
from barcomb.multiperm import (
    Multipermutation,
    _join_words,
    _word_array,
    canonicalize,
    g_k,
    inversion_multiset,
    newman_leq,
    rank,
    relabel,
)

W = Multipermutation


def words(*symbols):
    return W(tuple(symbols))


def test_top_element():
    assert str(top_element(LatticeSpec(3, 0))) == "1 2 3 3 2 1"
    assert str(top_element(LatticeSpec(3, 1))) == "1 2 3 3 3 2 2 1 1"
    assert str(top_element(LatticeSpec(1, 2))) == "1 1 1 1 1"


def test_two_bar_level_zero_is_a_chain():
    d = enumerate_lattice(LatticeSpec(2, 0))
    assert [str(s) for s in d.elements] == ["1 1 2 2", "1 2 1 2", "1 2 2 1"]
    assert d.covers == ((0, 1), (1, 2))
    assert d.rank_vector() == [1, 1, 1]


def test_two_bar_level_one_matches_known_diagram():
    d = enumerate_lattice(LatticeSpec(2, 1))
    got = {str(s) for s in d.elements}
    assert got == {
        "1 1 1 2 2 2",
        "1 1 2 1 2 2",
        "1 1 2 2 1 2",
        "1 1 2 2 2 1",
        "1 2 1 1 2 2",
        "1 2 1 2 1 2",
        "1 2 1 2 2 1",
        "1 2 2 1 1 2",
        "1 2 2 1 2 1",
        "1 2 2 2 1 1",
    }
    assert d.rank_vector() == [1, 1, 2, 2, 2, 1, 1]
    assert str(top_element(LatticeSpec(2, 1))) == "1 2 2 2 1 1"
    assert max(d.ranks) == 6
    # cover pairs derived from the adjacent-swap rule, as word pairs
    edges = {
        (str(d.elements[lo]), str(d.elements[hi])) for lo, hi in d.covers
    }
    assert edges == {
        ("1 1 1 2 2 2", "1 1 2 1 2 2"),
        ("1 1 2 1 2 2", "1 1 2 2 1 2"),
        ("1 1 2 1 2 2", "1 2 1 1 2 2"),
        ("1 1 2 2 1 2", "1 1 2 2 2 1"),
        ("1 1 2 2 1 2", "1 2 1 2 1 2"),
        ("1 1 2 2 2 1", "1 2 1 2 2 1"),
        ("1 2 1 1 2 2", "1 2 1 2 1 2"),
        ("1 2 1 2 1 2", "1 2 1 2 2 1"),
        ("1 2 1 2 1 2", "1 2 2 1 1 2"),
        ("1 2 1 2 2 1", "1 2 2 1 2 1"),
        ("1 2 2 1 1 2", "1 2 2 1 2 1"),
        ("1 2 2 1 2 1", "1 2 2 2 1 1"),
    }
    assert len(d.covers) == 12


@pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (2, 1), (3, 1), (4, 0), (2, 2)])
def test_element_count_formula(n, k):
    d = enumerate_lattice(LatticeSpec(n, k))
    m = (1 << k) + 1
    expected = math.factorial(n * m) // (math.factorial(m) ** n * math.factorial(n))
    assert len(d.elements) == expected


@pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (2, 1), (3, 1)])
def test_max_rank_formula(n, k):
    d = enumerate_lattice(LatticeSpec(n, k))
    expected = n * (n - 1) // 2 * (1 << k) * ((1 << k) + 1)
    assert max(d.ranks) == rank(top_element(LatticeSpec(n, k))) == expected


@pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (2, 1), (3, 1)])
def test_cover_soundness(n, k):
    d = enumerate_lattice(LatticeSpec(n, k))
    for lo, hi in d.covers:
        assert d.ranks[hi] == d.ranks[lo] + 1
        a, b = d.elements[lo].word, d.elements[hi].word
        diffs = [p for p in range(len(a)) if a[p] != b[p]]
        assert len(diffs) == 2 and diffs[1] == diffs[0] + 1
        p = diffs[0]
        assert a[p] < a[p + 1] and (b[p], b[p + 1]) == (a[p + 1], a[p])


def test_exactly_one_bottom_and_top():
    for n, k in [(2, 0), (3, 0), (2, 1), (3, 1)]:
        d = enumerate_lattice(LatticeSpec(n, k))
        bottoms = [i for i, r in enumerate(d.ranks) if r == 0]
        tops = [i for i, r in enumerate(d.ranks) if r == max(d.ranks)]
        assert len(bottoms) == 1 and len(tops) == 1
        assert d.elements[tops[0]] == top_element(LatticeSpec(n, k))
        uppers = {lo for lo, _ in d.covers}
        assert tops[0] not in uppers  # nothing covers from the top


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)])
def test_reachability_agrees_with_newman(n, k):
    # multiset containment is the same order only at multiplicity 2
    d = enumerate_lattice(LatticeSpec(n, k))
    order = ReachabilityOrder(d)
    multisets = [inversion_multiset(s) for s in d.elements]
    for i, s in enumerate(d.elements):
        for j, t in enumerate(d.elements):
            reach = order.leq(s, t)
            assert reach == newman_leq(s, t)
            if k == 0:
                assert reach == (multisets[i] <= multisets[j])


def test_graded_chains():
    # every maximal chain from bottom to top has length rank(top)
    d = enumerate_lattice(LatticeSpec(2, 1))
    parents = {i: [] for i in range(len(d.elements))}
    for lo, hi in d.covers:
        parents[lo].append(hi)
    top_rank = max(d.ranks)

    def walk(i, length):
        if not parents[i]:
            assert d.ranks[i] == top_rank and length == top_rank
            return
        for j in parents[i]:
            walk(j, length + 1)

    bottom = d.ranks.index(0)
    walk(bottom, 0)


def test_meet_join_examples():
    spec = LatticeSpec(2, 1)
    assert str(join(words(1, 2, 2, 1, 1, 2), words(1, 1, 2, 2, 2, 1), spec)) == (
        "1 2 2 1 2 1"
    )
    assert meet(words(1, 2, 1, 2), words(1, 2, 2, 1), LatticeSpec(2, 0)) == words(
        1, 2, 1, 2
    )
    d = enumerate_lattice(spec)
    top = top_element(spec)
    for s in d.elements:
        assert meet(s, top, spec) == s
        assert join(s, top, spec) == top


@pytest.mark.parametrize("n,k", [(3, 0), (2, 1)])
def test_lattice_laws(n, k):
    spec = LatticeSpec(n, k)
    d = enumerate_lattice(spec)
    order = ReachabilityOrder(d)
    elems = d.elements
    for s in elems:
        assert meet(s, s, spec) == s and join(s, s, spec) == s
    for s in elems:
        for t in elems:
            lo, hi = meet(s, t, spec), join(s, t, spec)
            assert lo == meet(t, s, spec) and hi == join(t, s, spec)
            assert order.leq(lo, s) and order.leq(s, hi)
            assert meet(s, join(s, t, spec), spec) == s  # absorption
            assert join(s, meet(s, t, spec), spec) == s
    rng = random.Random(3)
    for _ in range(200):
        s, t, u = (rng.choice(elems) for _ in range(3))
        assert meet(s, meet(t, u, spec), spec) == meet(meet(s, t, spec), u, spec)
        assert join(s, join(t, u, spec), spec) == join(join(s, t, spec), u, spec)


@pytest.mark.parametrize(
    "n,k,pairs", [(3, 0, None), (2, 1, None), (3, 1, 300), (2, 2, 300), (5, 0, 300)]
)
def test_meet_join_match_reachability(n, k, pairs):
    # every pair where given no count, else that many seeded pairs
    spec = LatticeSpec(n, k)
    d = enumerate_lattice(spec)
    order = ReachabilityOrder(d)
    elems = d.elements
    if pairs is None:
        queries = [(s, t) for s in elems for t in elems]
    else:
        rng = random.Random(n * 10 + k)
        queries = [(rng.choice(elems), rng.choice(elems)) for _ in range(pairs)]
    for s, t in queries:
        assert meet(s, t, spec) == order.meet(s, t)
        assert join(s, t, spec) == order.join(s, t)
        assert d.meet(s, t) == order.meet(s, t) and d.join(s, t) == order.join(s, t)


def test_not_an_element():
    spec = LatticeSpec(2, 0)
    top = words(1, 2, 2, 1)
    for bad in (words(2, 1, 1, 2), words(1, 1, 1, 2, 2, 2), words(1, 2, 3, 3, 2, 1)):
        with pytest.raises(NotAnElementError):
            meet(bad, top, spec)
        with pytest.raises(NotAnElementError):
            join(top, bad, spec)
    # the size cap is checked first, as enumeration would
    with pytest.raises(TooLargeError):
        meet(top, top, LatticeSpec(9, 1))


@st.composite
def canonical_triples(draw):
    """A spec with n <= 40 and k <= 2 and three canonical words of its shape."""
    spec = LatticeSpec(draw(st.integers(1, 40)), draw(st.integers(0, 2)))
    base = [sym for sym in range(1, spec.n + 1) for _ in range(spec.m)]
    return (spec, *(canonicalize(W(tuple(draw(st.permutations(base))))) for _ in range(3)))


@settings(deadline=None)
@given(canonical_triples())
def test_meet_join_laws_beyond_enumeration(triple):
    spec, s, t, u = triple
    cap = spec.positions

    def m(a, b):
        return meet(a, b, spec, cap)

    def j(a, b):
        return join(a, b, spec, cap)

    lo, hi = m(s, t), j(s, t)
    assert newman_leq(lo, s) and newman_leq(lo, t)
    assert newman_leq(s, hi) and newman_leq(t, hi)
    assert newman_leq(hi, top_element(spec)) and hi.is_canonical and lo.is_canonical
    assert lo == m(t, s) and hi == j(t, s)
    assert m(s, m(t, u)) == m(m(s, t), u)
    assert j(s, j(t, u)) == j(j(s, t), u)
    assert m(s, s) == s and j(s, s) == s
    assert m(s, hi) == s and j(s, lo) == s  # absorption
    assert (lo == s) == newman_leq(s, t) == (hi == t)


# every shape of 32 or 33 positions with multiplicity 1, 2, 3 or 5, and one
# symbol of 32 or 33 copies
EDGE_SHAPES = [(32, 1), (16, 2), (33, 1), (11, 3), (1, 32), (1, 33)]


@st.composite
def word_pairs(draw):
    """n and two words of one shape over {1..n}, canonical or not: few
    symbols with many copies (n <= 3, m <= 257), a shape of 32 or 33
    positions, or n <= 12 and m in {1, 2, 3, 5, 9}."""
    n, m = draw(st.one_of(
        st.tuples(st.integers(1, 3), st.integers(1, 257)),
        st.sampled_from(EDGE_SHAPES),
        st.tuples(st.integers(1, 12), st.sampled_from([1, 2, 3, 5, 9])),
    ))
    letters = [sym for sym in range(1, n + 1) for _ in range(m)]
    return n, tuple(draw(st.permutations(letters))), tuple(draw(st.permutations(letters)))


@settings(deadline=None)
@given(word_pairs())
def test_newman_join_matches_list_closure(case):
    # the bit rows against the list profile and the boolean block closure,
    # on the words and on their reversals, whose reversed join is the meet;
    # then meet and join of the canonical words of a lattice shape
    n, s, t = case
    for a, b in ((s, t), (s[::-1], t[::-1])):
        got = _join_words(a, b, n)
        assert type(got) is tuple and all(type(sym) is int for sym in got)
        assert got == list_newman_join(a, b, n) == block_newman_join(a, b, n)
        assert W(got).n == n
    m = len(s) // n
    if m > 1 and (m - 1) & (m - 2) == 0:  # m = 2^k + 1
        spec = LatticeSpec(n, (m - 1).bit_length() - 1)
        cs, ct = canonicalize(W(s)), canonicalize(W(t))
        assert join(cs, ct, spec, spec.positions).word == list_newman_join(cs.word, ct.word, n)
        lo = list_newman_join(cs.word[::-1], ct.word[::-1], n)[::-1]
        assert meet(cs, ct, spec, spec.positions).word == lo


@pytest.mark.parametrize("n,m", [(200, 2), (30, 5), (3, 40)])
def test_join_of_near_rising_words_matches_the_block_closure(n, m):
    # 1 2 .. n repeated m times and words a few adjacent swaps from it: the
    # first copies, and many more, have empty closed rows, which the join
    # leaves out of its OR loop
    rising = tuple(range(1, n + 1)) * m
    assert _join_words(rising, rising, n) == rising
    rng = random.Random(n * m)
    near = []
    for _ in range(4):
        word = list(rising)
        for p in rng.sample(range(len(word) - 1), 12):
            word[p], word[p + 1] = word[p + 1], word[p]
        near.append(tuple(word))
    for a, b in [(rising, near[0]), (near[1], near[2]), (near[3], near[3][::-1])]:
        assert _join_words(a, b, n) == block_newman_join(a, b, n) == list_newman_join(a, b, n)


@pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (2, 2), (16, 0), (11, 1), (2, 4)])
def test_meet_and_join_reach_no_array(n, k, monkeypatch):
    # words of 2 to 34 positions are joined on their tuples: no array of a
    # fresh word is made, and each result's memo is filled from one array
    # made of the joined tuple
    spec = LatticeSpec(n, k)
    top = top_element(spec)
    calls = []
    real = barcomb.multiperm._word_array

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(barcomb.multiperm, "_word_array", spy)
    monkeypatch.setattr(barcomb.lattice, "_word_array", spy)
    s = W(tuple(range(1, n + 1)) * spec.m)  # a fresh word, its memo empty
    lo, hi = meet(s, top, spec, spec.positions), join(s, top, spec, spec.positions)
    assert lo == s and hi == top and "_array" not in vars(s)
    assert calls == [(lo.word, n), (hi.word, n)]
    for u in (lo, hi):
        assert vars(u).keys() == {"word", "n", "is_canonical", "_array"}
        assert u.n == n and u.is_canonical is True


@pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (2, 2), (16, 0), (11, 1), (2, 4), (256, 0)])
def test_built_words_carry_their_word_array(n, k):
    # meet, join, relabel and the top build through _of_array, with the
    # array _word_array makes of the word: its values and its dtype
    spec = LatticeSpec(n, k)
    top = top_element(spec)
    s = W(tuple(range(1, n + 1)) * spec.m)
    built = [
        top, meet(s, top, spec, spec.positions), join(s, top, spec, spec.positions),
        relabel(top, range(n, 0, -1)), relabel(s, range(1, n + 1)),
    ]
    assert built[0] == built[2] and built[1] == built[4] == s
    for u in built:
        want = _word_array(u.word, n)
        assert u._array.dtype == want.dtype and np.array_equal(u._array, want)
        assert not u._array.flags.writeable and vars(u)["n"] == n
    assert all(vars(u)["is_canonical"] for u in built[:3])


def test_newman_join_matches_list_closure_on_200_bars():
    spec = LatticeSpec(200, 0)
    s, t = (g_k(generate_barcode(200, seed=seed, k=0), 0) for seed in (1, 2))
    lo, hi = meet(s, t, spec, spec.positions), join(s, t, spec, spec.positions)
    assert hi.word == list_newman_join(s.word, t.word, 200)
    assert lo.word == list_newman_join(s.word[::-1], t.word[::-1], 200)[::-1]
    assert hi == W(hi.word) and lo == W(lo.word)
    assert lo != hi and newman_leq(lo, s) and newman_leq(t, hi)


def test_meet_and_join_of_1000_bars_match_the_block_closure():
    spec = LatticeSpec(1000, 0)
    s, t = (g_k(generate_barcode(1000, seed=seed, k=0), 0) for seed in (1, 2))
    lo, hi = meet(s, t, spec, spec.positions), join(s, t, spec, spec.positions)
    assert hi.word == block_newman_join(s.word, t.word, 1000)
    assert lo.word == block_newman_join(s.word[::-1], t.word[::-1], 1000)[::-1]
    assert lo != hi and newman_leq(lo, s) and newman_leq(t, hi)


def test_size_cap():
    with pytest.raises(TooLargeError):
        enumerate_lattice(LatticeSpec(9, 1))
    # the ideal check enumerates nothing, so no cap stops it
    report = verify_ideal_isomorphism(LatticeSpec(17, 0))
    assert report.equal and report.ideal_count == report.canonical_count
    assert report.total_words == math.factorial(34) // 2**17
    assert report.canonical_count == report.total_words // math.factorial(17)
    # raising the cap unlocks the enumeration
    d = enumerate_lattice(LatticeSpec(6, 0), cap=12)
    assert len(d.elements) == 10395


def test_spec_rejects_levels_beyond_the_sample_cap(monkeypatch):
    with pytest.raises(TooLargeError, match="word positions"):
        LatticeSpec(2, 10**10)  # 2^k is never built
    monkeypatch.setattr(barcomb.barcode, "MAX_SAMPLE_POINTS", 10)
    assert LatticeSpec(2, 2).positions == 10  # exactly at the cap
    with pytest.raises(TooLargeError):
        LatticeSpec(2, 3)
    with pytest.raises(TooLargeError):
        LatticeSpec(11, 0)


def test_rank_vector():
    assert rank_vector(LatticeSpec(2, 1)) == [1, 1, 2, 2, 2, 1, 1]
    assert rank_vector(LatticeSpec(2, 0)) == [1, 1, 1]
    vec = rank_vector(LatticeSpec(3, 0))
    assert sum(vec) == 15 and len(vec) == 7
    assert vec[0] == vec[-1] == 1


@pytest.mark.parametrize(
    "n,k,count", [(1, 0, 1), (2, 0, 3), (3, 0, 15), (2, 1, 10)]
)
def test_verify_ideal_isomorphism(n, k, count):
    report = verify_ideal_isomorphism(LatticeSpec(n, k))
    assert report.equal
    assert report.canonical_count == report.ideal_count == count
    assert report.to_json_dict() == {
        "n": n, "k": k, "canonical_count": count, "ideal_count": count,
        "total_words": count * math.factorial(n), "equal": True,
    }


@pytest.mark.parametrize("n,k", [(8, 1), (5, 3)])
def test_ideal_check_beyond_enumeration(n, k):
    # 9.2·10^12 and 1.6·10^26 canonical words: the check reads the top's
    # profile and the formula, and builds no word table
    spec = LatticeSpec(n, k)
    m = spec.m
    multinomial = math.factorial(n * m) // math.factorial(m) ** n
    with mock.patch.object(barcomb.lattice, "_word_table", side_effect=AssertionError):
        report = verify_ideal_isomorphism(spec)
    assert report.equal and report.total_words == multinomial
    assert report.canonical_count == report.ideal_count == multinomial // math.factorial(n)


@pytest.mark.parametrize(
    "n,k", [(2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]
)
def test_rank_vectors_are_palindromes_summing_to_the_count_formula(n, k):
    spec = LatticeSpec(n, k)
    vec = rank_vector(spec, cap=spec.positions)
    assert vec == vec[::-1]
    assert sum(vec) == verify_ideal_isomorphism(spec).canonical_count


@pytest.mark.parametrize("n,k", [(3, 1), (4, 0)])
@pytest.mark.parametrize("cells", [1, 352, 400, 30240])
def test_ideal_check_in_small_chunks(monkeypatch, n, k, cells):
    # a chunk holds cells // (N·n) of the 280 words at (3,1) and the 105 at
    # (4,0), N·n being 27 and 32, and a group cells // (chunk·N·n) of the 6
    # and 24 relabelings.  1 cell makes chunks of one word and groups of one
    # relabeling; 352 cells make chunks of 13 and 11 words and 400 cells of
    # 14 and 12, so the last chunk is partial but for 14 of 280; 30240 cells
    # hold all the words, in groups of 4 and 9 relabelings, so the last
    # group is partial
    spec = LatticeSpec(n, k)
    top = top_element(spec)
    want = relabeling_sweep(spec, top)
    assert want[0] == verify_ideal_isomorphism(spec)
    assert want[0].total_words in (1680, 2520)
    rows = []
    real = helpers._profiles

    def spy(words, n):
        rows.append(len(words))
        return real(words, n)

    monkeypatch.setattr(helpers, "_profiles", spy)
    monkeypatch.setattr(barcomb.multiperm, "_CELLS", cells)
    assert relabeling_sweep(spec, top) == want
    # the top's row, then each chunk twice, on the alphabet and its reversal
    step = {1: (1, 1), 352: (13, 11), 400: (14, 12), 30240: (280, 105)}[cells][n - 3]
    count = want[0].canonical_count
    chunks = [min(step, count - lo) for lo in range(0, count, step)]
    assert rows == [1] + [size for size in chunks for _ in range(2)]


def test_word_table_deeper_than_the_recursion_limit():
    # one bar at level 11 has one word of 2049 positions
    spec = LatticeSpec(1, 11)
    assert rank_vector(spec, cap=spec.positions) == [1]
    report = relabeling_sweep(spec, top_element(spec))[0]
    assert report.equal and report.canonical_count == report.total_words == 1
    assert report == verify_ideal_isomorphism(spec)


def test_one_long_word_enumerates_in_linear_memory():
    # one bar at level 14: one word of 16 385 positions.  Each completion
    # is built from the one a copy shorter, which is then dropped, so two
    # rows of labels are held at a time; the peak, about 3 MB, is the word
    # table's.  The word's Python-int key is built by Horner's rule: its
    # N place values would take N^2 / 2 bits, 18 MB
    spec = LatticeSpec(1, 14)
    tracemalloc.start()
    try:
        diagram = enumerate_lattice(spec, cap=spec.positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    top = top_element(spec)
    assert diagram.elements == (top,)
    vectors = polytope.vertices(spec, cap=spec.positions).vectors
    assert vectors.tolist() == [list(range(1, spec.m + 1))]  # the top's copies in order
    assert diagram.rank_vector() == [1]
    assert diagram.cover_array.shape == (0, 2) and diagram.covers == ()


@pytest.mark.parametrize("n,k,mib", [(5, 1, 40), (8, 0, 62)])
def test_word_table_peaks_at_the_table_and_the_level_below(n, k, mib):
    # the state one copy below the top writes its completions straight into
    # the table and the top only sets column 0: 38.8 and 60.1 MiB traced
    # for 20 and 31 MiB of labels, where a separate top copy, made with the
    # level below it alive, peaked at 57.5 and 90.9 MiB
    m = LatticeSpec(n, k).m
    tracemalloc.start()
    try:
        labels, ranks = barcomb.lattice._word_table(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.flags.c_contiguous and labels.shape[1] == n * m
    assert (labels[:, 0] == 1).all() and len(ranks) == len(labels)
    assert peak <= mib * 2**20


def test_ideal_check_of_six_bars_in_bounded_memory():
    # 10 395 words of 12 positions, 720 relabelings: one chunk of words and
    # groups of five relabelings within the 4 MB of the default cells
    spec = LatticeSpec(6, 0)
    tracemalloc.start()
    try:
        assert relabeling_sweep(spec, top_element(spec))[0].equal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_dot_output():
    d = enumerate_lattice(LatticeSpec(2, 1))
    dot = d.to_dot()
    assert dot.startswith("digraph hasse {")
    assert dot.count(" -> ") == 12
    assert dot.count("[label=") == 10
    assert 'n0 [label="1 1 1 2 2 2 (rank 0)"];' in dot
    # byte-stable across runs
    assert dot == enumerate_lattice(LatticeSpec(2, 1)).to_dot()


def test_json_output():
    d = enumerate_lattice(LatticeSpec(2, 0))
    assert json.loads(d.to_json()) == {
        "elements": [[1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]],
        "covers": [[0, 1], [1, 2]],
        "ranks": [0, 1, 2],
    }


def test_public_tuples_hold_python_values():
    d = enumerate_lattice(LatticeSpec(2, 1))
    assert isinstance(d.elements, tuple) and all(type(s) is W for s in d.elements)
    assert isinstance(d.covers, tuple) and isinstance(d.ranks, tuple)
    assert {type(i) for edge in d.covers for i in edge} == {int}
    assert {type(r) for r in d.ranks} == {int}
    assert d.elements is d.elements  # built once
    assert len(d.elements) == len(d.words) == len(d.ranks) == len(d.rank_array)
    assert d.cover_array.shape == (len(d.covers), 2)


@pytest.mark.parametrize("n,k", [(3, 1), (5, 0)])
def test_tuples_match_per_item_construction(n, k):
    # 280 and 945 elements: indices past 256, which CPython does not cache
    d = enumerate_lattice(LatticeSpec(n, k))
    per_word = [W(tuple(row)) for row in d.words.tolist()]
    assert list(d.elements) == per_word
    for s, t in zip(d.elements, per_word):
        assert type(s) is W and type(s.word) is tuple and s.word == t.word
        assert {type(sym) for sym in s.word} == {int} and hash(s) == hash(t)
        assert vars(s) == vars(t)
    assert d.covers == tuple(map(tuple, d.cover_array.tolist()))
    shared = {}  # equal indices are one int object
    for edge in d.covers:
        for i in edge:
            assert shared.setdefault(i, i) is i
    assert max(shared) == len(d.words) - 1 > 256


@pytest.mark.parametrize("n,k", ORACLE_SPECS)
def test_index_of_round_trips(n, k):
    spec = LatticeSpec(n, k)
    d = enumerate_lattice(spec, cap=spec.positions)
    for i, s in enumerate(d.elements):
        assert d.index_of(s) == i and s in d
    # words of the right shape that are not canonical, then other shapes
    swap = (2, 1, *range(3, n + 1))
    outsiders = [relabel(s, swap) for s in d.elements] if n >= 2 else []
    outsiders += [top_element(LatticeSpec(n + 1, k)), top_element(LatticeSpec(n, k + 1))]
    for s in outsiders:
        assert s not in d
        with pytest.raises(NotAnElementError):
            d.index_of(s)


@pytest.mark.parametrize(
    "value", [(1, 2, 2, 1), [1, 2, 2, 1], "1 2 2 1", None, 1, np.array([1, 2, 2, 1])]
)
def test_values_that_are_no_words_are_not_elements(value):
    d = enumerate_lattice(LatticeSpec(2, 0))
    assert W((1, 2, 2, 1)) in d
    assert (value in d) is False
    with pytest.raises(NotAnElementError):
        d.index_of(value)


def test_diagram_is_hashable_value():
    a = enumerate_lattice(LatticeSpec(2, 0))
    b = HasseDiagram(a.spec, [s.word for s in a.elements], a.covers, a.ranks)
    assert a == b and hash(a) == hash(b)
    assert a != HasseDiagram(a.spec, a.words, a.covers[:1], a.ranks)
    assert a != HasseDiagram(a.spec, a.words, a.covers, (0, 1, 1))
    assert a != HasseDiagram(LatticeSpec(2, 1), a.words, a.covers, a.ranks)
    assert not a.words.flags.writeable and not a.cover_array.flags.writeable


@pytest.mark.parametrize("n,k", ORACLE_SPECS)
def test_enumeration_matches_recursive_oracle(n, k):
    spec = LatticeSpec(n, k)
    diagram = enumerate_lattice(spec, cap=spec.positions)
    reference = reference_lattice(n, k)
    assert diagram == reference
    assert rank_vector(spec, cap=spec.positions) == reference.rank_vector()


# every spec the default position cap admits, and (2,3) beyond it
CAPPED_SPECS = [
    (n, k) for k in range(4) for n in range(1, 17) if n * ((1 << k) + 1) <= 16
] + [(2, 3)]


@pytest.mark.parametrize("n,k", CAPPED_SPECS)
def test_word_table_and_vertices_match_stream_oracles(n, k):
    # the label table, read as words, against the stream of tuples it
    # replaced, and the labels and vectors against the loop over each word,
    # a chunk of words at a time; the oracles build millions of tuples,
    # which the collector would walk
    spec = LatticeSpec(n, k)
    labels, ranks = barcomb.lattice._word_table(n, spec.m)
    words = barcomb.lattice._label_words(labels, spec.m)
    vectors = polytope.vertices(spec, cap=spec.positions).vectors
    assert labels.dtype == np.min_scalar_type(spec.positions)
    assert words.dtype == np.min_scalar_type(n) and words.shape[1] == spec.positions
    every_label = np.arange(1, spec.positions + 1)
    stream, start = word_stream(n, spec.m), 0
    with barcomb.lattice._collector_paused():
        while chunk := list(itertools.islice(stream, 1 << 15)):
            chunk_words, chunk_ranks = zip(*chunk)
            rows = slice(start, start + len(chunk))
            assert (np.sort(labels[rows], axis=1) == every_label).all()
            assert list(map(tuple, words[rows].tolist())) == list(chunk_words)
            assert ranks[rows].tolist() == list(chunk_ranks)
            want = list(word_vectors(chunk_words, n, spec.m))
            assert list(map(tuple, labels[rows].tolist())) == want
            assert list(map(tuple, vectors[rows].tolist())) == want
            start += len(chunk)
    assert start == len(words) == len(ranks) == len(vectors)


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)])
def test_relabeled_word_stream_is_the_full_lattice(n, k):
    # the ideal check reads the full multinomial lattice as the n!
    # relabelings of the canonical words, each word exactly once
    m = (1 << k) + 1
    labels = barcomb.lattice._word_table(n, m)[0]
    canonical = [W(tuple(w)) for w in barcomb.lattice._label_words(labels, m).tolist()]
    relabeled = [
        relabel(s, p).word for p in itertools.permutations(range(1, n + 1))
        for s in canonical
    ]
    assert sorted(relabeled) == list(recursive_words(n, m, False))


def brute_force_ideal_report(spec: LatticeSpec, top: tuple[int, ...]):
    """The ideal check by two recursive enumerations, one list profile test
    per word, and a set difference: the report, missing and extra, as
    ``relabeling_sweep`` gives them."""
    canonical = set(recursive_words(spec.n, spec.m, True))
    full = list(recursive_words(spec.n, spec.m, False))
    ideal = {w for w in full if list_newman_leq(W(w), W(top))}
    missing, extra = sorted(ideal - canonical), sorted(canonical - ideal)
    equal = not missing and not extra
    report = IdealReport(spec, len(canonical), len(ideal), len(full), equal)
    return report, tuple(missing), tuple(extra)


@pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (2, 1), (4, 0), (3, 1), (2, 2)])
@pytest.mark.parametrize(
    "which", ["lower canonical", "relabeled top", "relabeled lower", "drawn"]
)
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_ideal_check_against_brute_force_with_another_top(n, k, which, data):
    # a top below the fully nested word leaves canonical words out (extra);
    # a non-canonical top takes in non-canonical words (missing).  A drawn
    # top is any word of the shape, canonical or not, and the oracle runs
    # with the default cells or with one word and one relabeling a step.
    # The profile fixes the word, so the library finds the nested shape on
    # exactly the fully nested top, and the oracle finds equality there only
    spec = LatticeSpec(n, k)
    elements = reference_lattice(n, k).elements
    lower = elements[len(elements) // 2]
    swap = (2, 1) + tuple(range(3, n + 1))
    if which == "drawn":
        letters = [sym for sym in range(1, n + 1) for _ in range(spec.m)]
        top = W(tuple(data.draw(st.permutations(letters), label="top")))
        cells = data.draw(st.sampled_from([1, barcomb.multiperm._CELLS]), label="cells")
    else:
        top = {
            "lower canonical": lower,
            "relabeled top": relabel(top_element(spec), swap),
            "relabeled lower": relabel(lower, swap),
        }[which]
        cells = barcomb.multiperm._CELLS
    with mock.patch.object(barcomb.multiperm, "_CELLS", cells):
        swept = relabeling_sweep(spec, top)
    assert swept == brute_force_ideal_report(spec, top.word)
    report, missing, extra = swept
    with mock.patch.object(barcomb.lattice, "top_element", lambda spec: top):
        got = verify_ideal_isomorphism(spec)
    assert got.equal == report.equal == (top == top_element(spec))
    assert (got.canonical_count, got.total_words) == (report.canonical_count, report.total_words)
    assert got.ideal_count == (report.ideal_count if report.equal else None)
    if which != "drawn":
        # the top itself is missing when relabeled; the real top is extra
        # when lower
        assert missing if which.startswith("relabeled") else extra
        assert not got.equal


def test_spec_rejects_empty_alphabets_and_negative_levels():
    for n, k in [(0, 0), (2, -1), (-1, 3)]:
        with pytest.raises(InvalidLevelError) as info:
            LatticeSpec(n, k)
        assert isinstance(info.value, BarcombError)
        assert isinstance(info.value, ValueError)
    with pytest.raises(InvalidLevelError, match="level -1"):
        LatticeSpec(2, -1)


@pytest.mark.parametrize("n,k", [(3, 1), (2, 2), (4, 0)])
def test_covers_exact_beyond_int64(n, k):
    # a larger alphabet bound n' leaves the covers unchanged, and with
    # (n' + 1)^N >= 2^63 the word keys are Python integers, as lattices too
    # large to hold would need
    d = reference_lattice(n, k)
    wide = 2 ** (63 // d.spec.positions + 1)
    assert (wide + 1) ** d.spec.positions >= 2**63
    words = np.asarray(d.words, dtype=np.min_scalar_type(wide))
    assert barcomb.lattice._word_keys(words, wide).dtype == object
    assert np.array_equal(barcomb.lattice._covers(words, wide), d.cover_array)


@pytest.mark.parametrize("n,k", [(3, 1), (2, 3), (6, 0)])
def test_word_keys_match_the_column_oracle_in_int64(n, k):
    # no int64 copy of the table is made: at (2,3) it would take 3.5 MB
    spec = LatticeSpec(n, k)
    words = enumerate_lattice(spec, cap=spec.positions).words
    tracemalloc.start()
    try:
        got = barcomb.lattice._word_keys(words, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + 2**17
    assert got.dtype == np.int64
    assert np.array_equal(got, column_word_keys(words, n))
    assert np.array_equal(barcomb.lattice._word_keys(words[:0], n), words[:0, 0])


def test_word_keys_match_the_column_oracle_in_python_integers():
    # 5^36 > 2^63: keys past int64, exact as Python integers
    rng = np.random.default_rng(36)
    words = rng.integers(1, 5, size=(50, 36), endpoint=True).astype(np.uint8)
    words[0], words[1] = 4, 1  # the largest and the smallest key
    got = barcomb.lattice._word_keys(words, 4)
    assert got.dtype == object and {type(key) for key in got} == {int}
    assert got.tolist() == column_word_keys(words, 4).tolist()
    places = [5 ** (35 - p) for p in range(36)]
    assert got.tolist() == [sum(map(operator.mul, row, places)) for row in words.tolist()]
    assert got[0] == 5**36 - 1 and got[1] == (5**36 - 1) // 4


@pytest.mark.parametrize("n,k", ORACLE_SPECS)
def test_emitters_keep_their_bytes(n, k):
    spec = LatticeSpec(n, k)
    d = enumerate_lattice(spec, cap=spec.positions)
    assert text_mismatch(d.to_dot(), fstring_dot(d)) is None
    assert text_mismatch(d.to_json(), dumps_json(d)) is None


def hand_built_diagrams() -> list[HasseDiagram]:
    """Values no enumeration gives: two-digit symbols, cover indices of
    10^5 and beyond, every rank 0, and one element without covers."""
    twelve = LatticeSpec(12, 0)
    rng = random.Random(12)
    shuffled = [s for s in range(1, 13) for _ in range(2)]
    rng.shuffle(shuffled)
    words = [
        Multipermutation(tuple(s for s in range(1, 13) for _ in range(2))),
        canonicalize(Multipermutation(tuple(shuffled))),
        top_element(twelve),
    ]
    far = ((0, 1), (1, 2), (9, 10), (99_999, 100_000), (123_456, 7), (2**32 + 5, 0))
    two = enumerate_lattice(LatticeSpec(2, 0))
    return [
        HasseDiagram(twelve, [s.word for s in words], far, (0, 57, 132)),
        HasseDiagram(two.spec, two.words, (), (0, 0, 0)),
        HasseDiagram(two.spec, two.words, ((100_000, 100_001),), (10, 0, 100_000)),
        enumerate_lattice(LatticeSpec(1, 0)),
    ]


@pytest.mark.parametrize("index", range(4))
def test_emitters_of_hand_built_diagrams(index):
    diagram = hand_built_diagrams()[index]
    # indices at or past the element count, up to 2^32 + 5, come out as
    # they are
    assert diagram.covers == tuple(map(tuple, diagram.cover_array.tolist()))
    assert {type(i) for edge in diagram.covers for i in edge} <= {int}
    assert diagram.to_dot() == fstring_dot(diagram)
    assert diagram.to_json() == dumps_json(diagram)
    # the tuples built for the oracles do not enter equality or hashing
    again = hand_built_diagrams()[index]
    assert diagram == again and hash(diagram) == hash(again)


@pytest.mark.parametrize(
    "covers,ranks",
    [([(-1, 0), (1, 2)], [0, 1, 2]), ([(0, 1)], [0, 1, -2]), ([], [0, 1, -(2**70)])],
)
def test_negative_cover_indices_and_ranks_are_refused(covers, ranks):
    # an unsigned cast would store -1 as 255 and write "n255 -> n0"
    two = enumerate_lattice(LatticeSpec(2, 0))
    with pytest.raises(ValueError, match="non-negative"):
        HasseDiagram(two.spec, two.words, covers, ranks)


@pytest.mark.parametrize("cells", [1, 1000, 3000])
def test_emitters_in_small_blocks(monkeypatch, cells):
    # at (3,1), 280 elements and 672 covers: 1 cell writes one line per
    # block; 1000 cells make blocks of 14 node lines and 45 edges, and
    # 3000 cells blocks of 44 node lines and 136 edges, so most tables end
    # in a partial block, and a block of edges can hold only one-digit
    # indices while the next holds three-digit ones
    spec = LatticeSpec(3, 1)
    diagram, vs = enumerate_lattice(spec), polytope.vertices(spec)
    want = [fstring_dot(diagram), dumps_json(diagram)]
    want += [joined_vertices_csv(vs), dumps_vertices_json(vs)]
    monkeypatch.setattr(barcomb.multiperm, "_CELLS", cells)
    got = [diagram.to_dot(), diagram.to_json()]
    got += ["".join(polytope.vertices_csv_chunks(vs))]
    got += ["".join(polytope.vertices_json_chunks(vs))]
    assert [text_mismatch(*pair) for pair in zip(got, want)] == [None] * 4
    # to_dot joins these chunks, one block of whole lines each
    chunks = list(diagram.dot_chunks())
    assert len(chunks) >= 2 + 280 // 44 + 672 // 136
    assert all(chunk.endswith("\n") for chunk in chunks)
    # and so does the vertex CSV, whose 280 lines of 9 one-byte labels are
    # budgeted 36 bytes each: blocks of 1, 27 and 83 lines
    chunks = list(polytope.vertices_csv_chunks(vs))
    assert len(chunks) >= 280 // max(1, cells // 36)
    assert all(chunk.endswith("\n") for chunk in chunks)


def test_tuples_leave_the_collector_as_they_found_it():
    assert gc.isenabled()
    d = enumerate_lattice(LatticeSpec(2, 1))
    assert len(d.elements) == 10 and gc.isenabled()
    gc.disable()
    try:
        assert len(d.covers) == 12 and not gc.isenabled()
    finally:
        gc.enable()


@st.composite
def text_tables(draw):
    """A row count and fields: ASCII constants without NUL, and integer
    columns with 0, one-digit entries and entries of 2^32 and beyond, in
    the narrowest dtype that holds them (Python integers past uint64)."""
    rows = draw(st.integers(0, 6))
    entries = st.one_of(
        st.just(0), st.integers(0, 9), st.integers(0, 10**6),
        st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**80),
    )
    constants = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=4)
    columns = st.lists(entries, min_size=rows, max_size=rows)
    fields = draw(st.lists(st.one_of(constants, columns), max_size=6))
    return rows, fields


@settings(deadline=None, max_examples=300)
@given(text_tables(), st.sampled_from([1, 7, 40, barcomb.multiperm._CELLS]))
def test_text_matches_fstrings(table, cells):
    rows, fields = table
    arrays = [
        field if isinstance(field, str)
        else np.array(field, dtype=np.min_scalar_type(max(field, default=0)))
        for field in fields
    ]
    want = "".join(
        "".join(field if isinstance(field, str) else f"{field[i]}" for field in fields)
        for i in range(rows)
    )
    with mock.patch.object(barcomb.multiperm, "_CELLS", cells):
        assert "".join(barcomb.lattice._text_blocks(rows, arrays)) == want
