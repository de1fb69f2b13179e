import copy
import dataclasses
import doctest
import json
import pickle
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from helpers import (
    dict_canonicalize,
    inversion_set,
    iota_delta_k,
    iota_second_occurrences,
    list_all_pairs_profile,
    list_inversion_multiset,
    list_newman_leq,
    list_prec,
    list_profile,
    tuple_f_k,
    two_sort_phi,
    whole_profile,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import barcomb.lattice
import barcomb.multiperm
from barcomb.barcode import (
    Barcode,
    affine_transform,
    crossing_number,
    generate_barcode,
    is_k_strict,
    require_k_strict,
)
from barcomb.cli import main
from barcomb.errors import (
    InvalidWordError,
    NotCanonicalError,
    NotStrictError,
    ShapeMismatchError,
)
from barcomb.lattice import LatticeSpec, enumerate_lattice, join, meet, top_element
from barcomb.multiperm import (
    Multipermutation,
    canonicalize,
    delta_k,
    f_k,
    g_k,
    inversion_multiset,
    iota,
    newman_leq,
    phi,
    prec,
    rank,
    relabel,
    second_occurrence_subword,
    _profiles,
    _word_array,
)

B1 = Barcode.from_pairs([(1.0, 2.0), (1.5, 3.0), (2.5, 2.75)])
B2 = Barcode.from_pairs([(1.5, 3.0), (1.0, 2.0), (2.5, 2.75)])  # bars 1,2 swapped

W = Multipermutation  # shorthand


def words(*symbols):
    return W(tuple(symbols))


def random_word(rng, n, m):
    word = [sym for sym in range(1, n + 1) for _ in range(m)]
    rng.shuffle(word)
    return W(tuple(word))


def random_strict_barcode(rng, n):
    pairs = []
    for _ in range(n):
        b = rng.uniform(0.0, 1.0)
        pairs.append((b, b + rng.uniform(0.05, 1.0)))
    return Barcode.from_pairs(pairs)


def test_doctests():
    failed, _ = doctest.testmod(barcomb.multiperm)
    assert failed == 0


def test_word_validation():
    with pytest.raises(InvalidWordError):
        W(())
    with pytest.raises(InvalidWordError):
        W((1, 1, 2))  # non-uniform
    with pytest.raises(InvalidWordError):
        W((1, 3, 1, 3))  # symbol 2 missing
    with pytest.raises(InvalidWordError):
        W((0, 1))
    with pytest.raises(InvalidWordError):
        W((0,))
    with pytest.raises(InvalidWordError):
        W((1, 10**12))  # rejected without listing 1..10^12
    s = words(1, 2, 1, 3, 3, 2)
    assert (s.n, s.m) == (3, 2)


@pytest.mark.parametrize(
    "word",
    [
        (True, True),
        (1, True),  # equal to (1, 1), and hashes alike
        (1.0, 1.0),
        (1, 2.0, 2, 1),
        ("1", "1"),
        (np.True_, np.True_),
        (np.float64(1), np.float64(1)),
        (None, None),
    ],
)
def test_words_refuse_symbols_that_are_not_integers(word):
    with pytest.raises(InvalidWordError, match="must be integers"):
        W(word)


def test_words_store_integer_symbols_as_python_ints():
    for dtype in (np.uint8, np.int64, np.uint64):
        s = W(tuple(np.array([1, 2, 2, 1], dtype)))
        assert all(type(sym) is int for sym in s.word)
        assert s == words(1, 2, 2, 1) and hash(s) == hash(words(1, 2, 2, 1))
        text = json.dumps(s.to_json_dict())
        assert W.from_json_dict(json.loads(text)) == s
        assert rank(s) == 2
    mixed = W((np.uint8(1), 2, np.int16(2), 1))
    assert mixed.word == (1, 2, 2, 1) and all(type(sym) is int for sym in mixed.word)


def test_relabel_refuses_images_that_are_not_integers():
    s = words(1, 2, 1, 2)
    for pi in [(2.0, 1.0), (True, 2), (2, np.float32(1)), ("2", "1")]:
        with pytest.raises(InvalidWordError, match="must be integers"):
            relabel(s, pi)
    t = relabel(s, np.array([2, 1], np.uint8))
    assert t == words(2, 1, 2, 1) and all(type(sym) is int for sym in t.word)
    assert json.loads(json.dumps(t.to_json_dict()))["word"] == [2, 1, 2, 1]


def test_serialization():
    s = words(1, 2, 1, 3, 3, 2)
    assert W.from_string("1 2 1 3 3 2") == s
    assert s.to_json_dict() == {"n": 3, "m": 2, "word": [1, 2, 1, 3, 3, 2]}
    assert W.from_json_dict(s.to_json_dict()) == s
    with pytest.raises(InvalidWordError):
        W.from_string("1 two 1 2")
    with pytest.raises(InvalidWordError):
        W.from_json_dict({"n": 4, "m": 2, "word": [1, 2, 1, 3, 3, 2]})


@pytest.mark.parametrize(
    "word", [[1.7, 2, 2, 1], [True, 2, 2, 1], ["1", "2", "2", "1"], "1221"]
)
def test_word_json_takes_only_integer_arrays(word):
    # as the text form, which rejects "1.7 2 2 1"
    with pytest.raises(InvalidWordError, match="array of integers"):
        W.from_json_dict({"word": word})
    with pytest.raises(InvalidWordError):
        W.from_string("1.7 2 2 1")
    assert W.from_json_dict({"word": [1, 2, 2, 1]}) == W((1, 2, 2, 1))


@pytest.mark.parametrize("declared", [{"n": True}, {"n": 1.0}, {"m": 2.0}, {"m": "2"}])
def test_word_json_declares_integer_shapes(declared):
    # the word 1 1 has n = 1 and m = 2
    assert W.from_json_dict({"n": 1, "m": 2, "word": [1, 1]}) == W((1, 1))
    with pytest.raises(InvalidWordError, match="declared"):
        W.from_json_dict({**declared, "word": [1, 1]})


def test_f0_on_worked_barcodes():
    assert str(f_k(B1, 0)) == "1 2 1 3 3 2"
    assert str(f_k(B2, 0)) == "2 1 2 3 3 1"


def test_f1_with_midpoints():
    bc = Barcode.from_pairs([(1.0, 2.5), (1.5, 4.0), (3.0, 3.5)])
    assert str(f_k(bc, 1)) == "1 2 1 1 2 3 3 3 2"
    assert delta_k(f_k(bc, 1)) == f_k(bc, 0)


def test_f_k_requires_strictness():
    with pytest.raises(NotStrictError):
        f_k(Barcode.from_pairs([(-1, 1), (-2, 2)]), 1)


def test_relabel():
    s = words(1, 2, 1, 3, 3, 2)
    assert str(relabel(s, (2, 1, 3))) == "2 1 2 3 3 1"
    assert relabel(s, (1, 2, 3)) == s
    rng = random.Random(5)
    for _ in range(20):
        t = random_word(rng, 4, 3)
        pi = list(range(1, 5))
        rng.shuffle(pi)
        inv = [0] * 4
        for pos, val in enumerate(pi, start=1):
            inv[val - 1] = pos
        assert relabel(relabel(t, pi), inv) == t
    with pytest.raises(InvalidWordError):
        relabel(s, (1, 1, 2))


def test_canonicalize():
    assert str(canonicalize(words(2, 1, 4, 1, 3, 3, 2, 4))) == "1 2 3 2 4 4 1 3"
    s = canonicalize(words(2, 1, 2, 3, 3, 1))
    assert s == canonicalize(words(1, 2, 1, 3, 3, 2)) == words(1, 2, 1, 3, 3, 2)
    assert canonicalize(s) == s  # idempotent


def test_canonicalize_constant_on_orbits():
    rng = random.Random(31)
    for _ in range(100):
        s = random_word(rng, rng.randint(1, 5), rng.randint(1, 3))
        pi = list(range(1, s.n + 1))
        rng.shuffle(pi)
        assert canonicalize(relabel(s, pi)) == canonicalize(s)
        assert canonicalize(s).is_canonical


def test_g_k_label_and_affine_invariance():
    assert g_k(B1, 0) == g_k(B2, 0) == words(1, 2, 1, 3, 3, 2)
    rng = random.Random(17)
    for _ in range(100):
        bc = random_strict_barcode(rng, rng.randint(1, 6))
        k = rng.randint(0, 3)
        order = list(range(len(bc)))
        rng.shuffle(order)
        bars = bc.bars
        shuffled = Barcode(tuple(bars[i] for i in order))
        assert g_k(shuffled, k) == g_k(bc, k)
        moved = affine_transform(bc, rng.uniform(0.1, 10), rng.uniform(-100, 100))
        assert g_k(moved, k) == g_k(bc, k)


def test_g1_distinguishes_nesting_sides():
    left_nested = Barcode.from_pairs([(0.0, 10.0), (1.0, 2.0)])
    right_nested = Barcode.from_pairs([(0.0, 10.0), (8.0, 9.0)])
    assert g_k(left_nested, 0) == g_k(right_nested, 0) == words(1, 2, 2, 1)
    assert g_k(left_nested, 1) == words(1, 2, 2, 2, 1, 1)
    assert g_k(right_nested, 1) == words(1, 1, 2, 2, 2, 1)


def test_iota():
    assert iota((1, 2, 1, 3, 2)) == ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2))
    assert iota(words(1, 1, 2, 2)) == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert iota(words(1, 2, 1, 3, 3, 2)) == (
        (1, 1),
        (2, 1),
        (1, 2),
        (3, 1),
        (3, 2),
        (2, 2),
    )


def test_inversion_set():
    got = inversion_set(iota(words(1, 2, 1, 3, 3, 2)))
    assert got == {
        ((2, 1), (1, 2)),
        ((3, 1), (2, 2)),
        ((3, 2), (2, 2)),
    }
    assert inversion_set(iota(words(1, 1, 2, 2))) == frozenset()
    plain = inversion_set(iota((1, 2, 5, 4, 3, 6)))
    assert plain == {
        ((5, 1), (4, 1)),
        ((5, 1), (3, 1)),
        ((4, 1), (3, 1)),
    }


def test_inversion_multiset():
    got = inversion_multiset(words(1, 2, 3, 2, 4, 4, 1, 3))
    assert got == Counter(
        {(2, 1): 2, (3, 1): 1, (4, 1): 2, (3, 2): 1, (4, 3): 2}
    )
    assert inversion_multiset(words(1, 1, 2, 2)) == Counter()
    assert inversion_multiset(words(1, 2, 2, 1)) == Counter({(2, 1): 2})


def test_inversion_multiset_total_matches_inversion_set():
    rng = random.Random(41)
    for _ in range(100):
        s = canonicalize(random_word(rng, rng.randint(1, 5), rng.randint(1, 3)))
        total = sum(inversion_multiset(s).values())
        assert total == len(inversion_set(iota(s))) == rank(s)


def test_multiset_does_not_order_the_full_lattice():
    # same multiset, different inversion sets: orbits are essential
    a, b = words(1, 2, 2, 1), words(2, 1, 1, 2)
    assert inversion_multiset(a) == inversion_multiset(b) == Counter({(2, 1): 2})
    assert inversion_set(iota(a)) == {((2, 1), (1, 2)), ((2, 2), (1, 2))}
    assert inversion_set(iota(b)) == {((2, 1), (1, 1)), ((2, 1), (1, 2))}


def pair_multiset(inversions):
    """Inversion multiset read off an inversion set of iota(s)."""
    return Counter((x[0], y[0]) for x, y in inversions)


@pytest.mark.parametrize("n,k", [(3, 0), (2, 1), (2, 2)])
def test_orders_match_inversion_sets_on_every_pair(n, k):
    elems = enumerate_lattice(LatticeSpec(n, k)).elements
    sets = [inversion_set(iota(s)) for s in elems]
    multisets = [pair_multiset(inv) for inv in sets]
    for s, inv, multiset in zip(elems, sets, multisets):
        assert rank(s) == len(inv)
        assert inversion_multiset(s) == multiset == list_inversion_multiset(s)
    for s, inv_s, ms_s in zip(elems, sets, multisets):
        for t, inv_t, ms_t in zip(elems, sets, multisets):
            assert newman_leq(s, t) == (inv_s <= inv_t) == list_newman_leq(s, t)
            assert prec(s, t) == (ms_s <= ms_t) == list_prec(s, t)


def test_orders_match_inversion_sets_on_random_words():
    rng = random.Random(97)
    for _ in range(300):
        s = random_word(rng, rng.randint(1, 6), rng.randint(1, 4))
        # t is above s: a few adjacent swaps of increasing pairs
        word = list(s.word)
        for _ in range(rng.randint(0, 8)):
            p = rng.randrange(max(len(word) - 1, 1))
            if p + 1 < len(word) and word[p] < word[p + 1]:
                word[p], word[p + 1] = word[p + 1], word[p]
        t = W(tuple(word))
        u = random_word(rng, s.n, s.m)
        inv_s = inversion_set(iota(s))
        assert rank(s) == len(inv_s)
        assert inversion_multiset(s) == pair_multiset(inv_s)
        assert newman_leq(s, t)
        for a, b in ((s, t), (t, s), (s, u), (u, s), (t, u)):
            assert newman_leq(a, b) == (inversion_set(iota(a)) <= inversion_set(iota(b)))


@pytest.mark.parametrize(
    "n,k,symbols,counts",
    [
        (255, 0, np.uint8, np.uint8),
        (256, 0, np.uint16, np.uint8),
        (2, 7, np.uint8, np.uint8),
        (2, 8, np.uint8, np.uint16),
        (1, 0, np.uint8, np.uint8),
    ],
)
def test_profile_array_dtypes_and_entries(n, k, symbols, counts):
    m = (1 << k) + 1
    words = _word_array([tuple(range(1, n + 1)) * m], n)
    assert words.dtype == symbols
    prof = whole_profile(words, n)
    assert prof.dtype == counts and prof.shape == (1, n, m, n)
    # copy r of i sits in the r-th run of 1..n, after r copies of every
    # j > i; entries of j <= i are zero
    ranks = np.arange(n)
    want = np.arange(m)[:, None] * (ranks[None, None, :] > ranks[:, None, None])
    assert (prof[0] == want).all()
    # reversing the alphabet swaps larger and smaller: read back through the
    # reversal, the kernel on n + 1 - word counts the smaller symbols, of
    # which copy r of i follows r + 1 copies each (n - (word - 1) is
    # n + 1 - word, without n + 1 in the symbols' dtype, which 255 fills)
    smaller = whole_profile(n - (words - 1), n)[:, ::-1, :, ::-1]
    assert smaller.dtype == counts and smaller.shape == (1, n, m, n)
    want = (np.arange(m)[:, None] + 1) * (ranks[None, None, :] < ranks[:, None, None])
    assert (smaller[0] == want).all()
    # and on shuffled words, the sum is the all-pairs list profile
    rng = random.Random(n * 1000 + k)
    batch = []
    for _ in range(3):
        word = list(words[0].tolist())
        rng.shuffle(word)
        batch.append(word)
    batch = _word_array(batch, n)
    both = whole_profile(batch, n) + whole_profile(n - (batch - 1), n)[:, ::-1, :, ::-1]
    for row, word in zip(both.tolist(), batch.tolist()):
        assert row == list_all_pairs_profile(word, n)


def test_word_array_passes_arrays_of_its_dtype_uncopied():
    words = _word_array([(1, 2, 2, 1), (2, 1, 1, 2)], 2)
    assert _word_array(words, 2) is words
    relabeled = np.array((0, 2, 1), dtype=words.dtype)[words]
    assert np.shares_memory(_word_array(relabeled, 2), relabeled)
    wide = words.astype(np.int64)  # another dtype is converted
    assert not np.shares_memory(_word_array(wide, 2), wide)
    assert (_word_array(wide, 2) == words).all()


@st.composite
def word_triples(draw):
    """A canonical word s, a canonical t above it, and a canonical u, at
    shapes on both sides of each dtype edge: n = 255 / 256 for symbols,
    m = 257 for counts, and n = 1."""
    n, k = draw(st.sampled_from([(1, 0), (1, 8), (2, 8), (255, 0), (256, 0), (300, 0)]))
    letters = [sym for sym in range(1, n + 1) for _ in range((1 << k) + 1)]
    s = canonicalize(W(tuple(draw(st.permutations(letters)))))
    word = list(s.word)
    for p in draw(st.lists(st.integers(0, len(word) - 2), max_size=30)):
        # swapping an increasing pair whose smaller symbol occurred before
        # goes up one cover and stays canonical
        if word[p] < word[p + 1] and word[p] in word[:p]:
            word[p], word[p + 1] = word[p + 1], word[p]
    u = canonicalize(W(tuple(draw(st.permutations(letters)))))
    return s, W(tuple(word)), u


@settings(deadline=None, max_examples=30)
@given(word_triples(), st.sampled_from([1, 5000, barcomb.multiperm._CELLS]))
def test_array_orders_match_list_profile(triple, cells):
    s, t, u = triple
    with mock.patch.object(barcomb.multiperm, "_CELLS", cells):
        profiles = whole_profile(_word_array([x.word for x in triple], s.n), s.n)
        want = [list_profile(x.word, s.n) for x in triple]
        assert [as_list_profile(p) for p in profiles] == want
        assert newman_leq(s, t) and list_newman_leq(s, t)
        for x in triple:
            assert inversion_multiset(x) == list_inversion_multiset(x)
            assert rank(x) == sum(list_inversion_multiset(x).values())
        for a, b in ((s, t), (t, s), (s, u), (u, s), (t, u), (u, t)):
            assert newman_leq(a, b) == list_newman_leq(a, b)
            assert prec(a, b) == list_prec(a, b)


@st.composite
def batch_and_top(draw):
    """Words of one shape and a word t, with t itself and words below t
    (t after a few swaps of adjacent decreasing pairs) in the batch."""
    n, k = draw(st.sampled_from([(1, 0), (2, 1), (3, 1), (4, 0), (2, 8), (256, 0)]))
    letters = [sym for sym in range(1, n + 1) for _ in range((1 << k) + 1)]
    word_of = lambda: tuple(draw(st.permutations(letters)))  # noqa: E731
    t = word_of()
    batch = [word_of() for _ in range(draw(st.integers(0, 4)))] + [t]
    for _ in range(draw(st.integers(0, 3))):
        word = list(t)
        for p in draw(st.lists(st.integers(0, len(word) - 2), max_size=20)):
            if word[p] > word[p + 1]:  # one cover down
                word[p], word[p + 1] = word[p + 1], word[p]
        batch.append(tuple(word))
    return draw(st.permutations(batch)), t, n


@settings(deadline=None, max_examples=40)
@given(batch_and_top(), st.sampled_from([1, 5000, barcomb.multiperm._CELLS]))
def test_below_matches_list_profile_row_by_row(case, cells):
    batch, t, n = case
    top = W(t)
    with mock.patch.object(barcomb.multiperm, "_CELLS", cells):
        got = [newman_leq(W(w), top) for w in batch]
        profiles = whole_profile(_word_array(batch, n), n)
    assert [as_list_profile(p) for p in profiles] == [list_profile(w, n) for w in batch]
    assert all(type(x) is bool for x in got)
    assert got == [list_newman_leq(W(w), top) for w in batch]
    assert got[batch.index(t)]


def as_list_profile(profile: np.ndarray) -> list:
    """One word's profile array in ``list_profile``'s layout: the entries of
    larger symbols only, after an empty list for symbol 0."""
    return [[]] + [[row[i + 1 :] for row in rows] for i, rows in enumerate(profile.tolist())]


@st.composite
def word_batches(draw):
    """Words of one shape over n symbols, on both sides of the symbols'
    dtype edge, as a word array."""
    n, m = draw(st.sampled_from([1, 255, 256, 300])), draw(st.integers(1, 3))
    letters = [sym for sym in range(1, n + 1) for _ in range(m)]
    batch = draw(st.lists(st.permutations(letters), min_size=1, max_size=3))
    return _word_array(batch, n), n


@settings(deadline=None, max_examples=30)
@given(word_batches(), st.sampled_from([1, 5000, barcomb.multiperm._CELLS]))
def test_the_default_spans_walk_every_column_once_within_the_cells(case, cells):
    words, n = case
    with mock.patch.object(barcomb.multiperm, "_CELLS", cells):
        blocks = list(_profiles(words, n))
    ends = [lo + block.shape[-1] for lo, block in blocks]
    assert [lo for lo, _ in blocks] == [0, *ends[:-1]] and ends[-1] == n
    for _, block in blocks:
        # one-hot entries within the cells, unless one column alone exceeds them
        width = block.shape[-1]
        assert width >= 1 and (width == 1 or words.size * width <= cells)
    profiles = np.concatenate([block for _, block in blocks], axis=-1)
    want = [list_profile(w, n) for w in words.tolist()]
    assert [as_list_profile(p) for p in profiles] == want


def spy_spans(monkeypatch) -> list[tuple[int, int]]:
    """Make ``_profiles`` record the span of each block it yields, in the
    returned list."""
    spans = []
    real = barcomb.multiperm._profiles

    def spy(words, n, given=None):
        for lo, block in real(words, n, given):
            spans.append((lo, lo + block.shape[-1]))
            yield lo, block

    monkeypatch.setattr(barcomb.multiperm, "_profiles", spy)
    return spans


@pytest.mark.parametrize("order", [newman_leq, prec])
def test_orders_refuse_in_the_largest_column_first(monkeypatch, order):
    # canonical words of shape (4, 2); with one column a block the spans are
    # the column of 4, then those of 1, 2 and 3
    t = words(1, 2, 3, 4, 1, 2, 3, 4)
    high = words(1, 2, 3, 4, 1, 2, 4, 3)  # a 4 before a 3: only column 4 fails
    low = words(1, 2, 3, 4, 1, 3, 2, 4)  # a 3 before a 2: only column 3 fails
    calls = spy_spans(monkeypatch)
    monkeypatch.setattr(barcomb.multiperm, "_CELLS", 2 * 8)
    oracle = list_newman_leq if order is newman_leq else list_prec
    assert not order(high, t) and not oracle(high, t)
    assert calls == [(3, 4)]  # refused after one block
    calls.clear()
    assert not order(low, t) and not oracle(low, t)
    assert calls == [(3, 4), (0, 1), (1, 2), (2, 3)]
    calls.clear()
    assert order(t, high) and order(t, low) and oracle(t, high) and oracle(t, low)
    assert calls == [(3, 4), (0, 1), (1, 2), (2, 3)] * 2


@pytest.mark.parametrize("order", [newman_leq, prec])
def test_orders_sort_the_pair_once(monkeypatch, order):
    # an ordered pair at (4, 2) with one column a block: four blocks, the
    # column of 4 and then those of 1, 2 and 3, from one sort of the pair
    spec = LatticeSpec(4, 2)
    s, t = W(tuple(sym for sym in range(1, 5) for _ in range(spec.m))), top_element(spec)
    for u in (s, t):
        u._array, u.is_canonical  # fill the memo before counting sorts
    spans = spy_spans(monkeypatch)
    monkeypatch.setattr(barcomb.multiperm, "_CELLS", 2 * spec.positions)
    sorts = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(a) or real(*a, **kw))
    assert order(s, t)
    assert spans == [(3, 4), (0, 1), (1, 2), (2, 3)] and len(sorts) == 1


def test_long_words_in_bounded_memory(monkeypatch, tmp_path, capsys):
    n = 4000
    base = list(range(1, n + 1)) * 2
    low, high = list(base), list(base)
    low[n : n + 2] = [2, 1]  # one more inversion, in the first block of columns
    high[-2:] = [n, n - 1]  # one more inversion, in the last block
    w, u, v = W(tuple(base)), W(tuple(low)), W(tuple(high))
    tracemalloc.start()
    try:
        assert newman_leq(w, u) and newman_leq(w, v)
        assert not newman_leq(u, v) and not newman_leq(v, u)
        assert prec(w, u) and not prec(u, v) and not prec(v, u)
        assert rank(u) == rank(v) == rank(w) + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20  # unblocked, one one-hot of both words is 64 MB

    calls = spy_spans(monkeypatch)
    width = barcomb.multiperm._CELLS // (2 * len(base))  # columns a block
    assert not newman_leq(u, v)  # u passes column n, fails in the first block
    assert calls == [(n - 1, n), (0, width)]
    calls.clear()
    assert not newman_leq(v, u) and calls == [(n - 1, n)]  # v fails in column n
    calls.clear()
    assert not prec(u, v) and calls == [(n - 1, n), (0, width)]
    a, b = tmp_path / "u.txt", tmp_path / "v.txt"
    a.write_text(str(u))
    b.write_text(str(v))
    capsys.readouterr()
    assert main(["compare", "--k", "0", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "INCOMPARABLE\n"


def test_newman_leq():
    assert newman_leq(words(1, 1, 2, 1, 2, 2), words(1, 2, 1, 2, 1, 2))
    a, b = words(1, 2, 2, 1, 1, 2), words(1, 1, 2, 2, 2, 1)
    assert not newman_leq(a, b) and not newman_leq(b, a)
    s = words(1, 2, 1, 2)
    assert newman_leq(s, s)
    with pytest.raises(ShapeMismatchError):
        newman_leq(words(1, 1, 2, 2), words(1, 2, 3, 1, 2, 3))


def test_prec():
    assert prec(words(1, 2, 1, 2), words(1, 2, 2, 1))
    s = words(1, 2, 1, 3, 3, 2)
    assert prec(s, s)
    with pytest.raises(NotCanonicalError):
        prec(words(2, 1, 1, 2), words(1, 2, 2, 1))
    with pytest.raises(ShapeMismatchError):
        prec(words(1, 1, 2, 2), words(1, 2, 3, 1, 2, 3))


def test_prec_agrees_with_newman_on_canonicals():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(1, 4)
        s = canonicalize(random_word(rng, n, 2))
        t = canonicalize(random_word(rng, n, 2))
        assert prec(s, t) == newman_leq(s, t)


def test_crossing_numbers_are_multiset_multiplicities():
    # with bars renamed into birth order, the multiplicity of (j, i) in the
    # level-0 invariant's inversion multiset is the crossing number of the
    # pair of bars
    rng = random.Random(83)
    for _ in range(100):
        bc = random_strict_barcode(rng, rng.randint(2, 6))
        n = len(bc)
        multiset = inversion_multiset(g_k(bc, 0))
        order = sorted(range(1, n + 1), key=lambda i: bc.ends[i - 1, 0])
        birth_rank = {label: pos for pos, label in enumerate(order, start=1)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                cross = crossing_number(bc, i, j)
                assert cross in (0, 1, 2)
                a, b = sorted((birth_rank[i], birth_rank[j]), reverse=True)
                assert multiset[(a, b)] == cross


def test_doubled_words_have_small_multiplicities():
    rng = random.Random(89)
    for _ in range(200):
        s = canonicalize(random_word(rng, rng.randint(1, 6), 2))
        assert all(c in (1, 2) for c in inversion_multiset(s).values())


def test_rank():
    assert rank(g_k(B1, 0)) == 3
    total = sum(
        crossing_number(B1, i, j) for i in range(1, 4) for j in range(i + 1, 4)
    )
    assert total == 3
    assert rank(words(1, 1, 2, 2, 3, 3)) == 0
    assert rank(words(1, 2, 2, 2, 1, 1)) == 6


def profile_sum(s):
    return sum(int(prof.sum()) for _, prof in _profiles(s._array[None], s.n))


@st.composite
def rank_words(draw):
    """A word of n <= 60 symbols with m in {2, 3, 5, 9, 17} copies each, on
    both sides of the bit-row rule, canonical or not."""
    m = draw(st.sampled_from([2, 3, 5, 9, 17]))
    letters = [sym for sym in range(1, draw(st.integers(1, 60)) + 1) for _ in range(m)]
    s = W(tuple(draw(st.permutations(letters))))
    return canonicalize(s) if draw(st.booleans()) else s


@settings(deadline=None, max_examples=60)
@given(rank_words())
@example(W((5, 4, 3, 2, 1) * 5))  # m = 5, the most copies on bit rows
@example(W((5, 4, 3, 2, 1) * 9))  # m = 9, on the profile
def test_rank_matches_the_profile_sum_and_the_inversion_set(s):
    assert rank(s) == profile_sum(s) == len(inversion_set(iota(s)))


@pytest.mark.parametrize("m,profile", [(2, False), (5, False), (9, True), (17, True)])
def test_rank_walks_bit_rows_up_to_five_copies(monkeypatch, m, profile):
    rng = random.Random(m)
    cases = [random_word(rng, 40, m), canonicalize(random_word(rng, 40, m))]
    want = [len(inversion_set(iota(s))) for s in cases]
    assert [profile_sum(s) for s in cases] == want
    calls = spy_spans(monkeypatch)
    assert [rank(s) for s in cases] == want
    assert bool(calls) == profile


def test_rank_of_two_symbols_at_level_18_reads_the_profile():
    # 524 290 positions: each of the 2^k trailing ones follows every two; the
    # profile reads N·n cells in milliseconds, where bit rows take seconds
    n, k = 2, 18
    assert rank(top_element(LatticeSpec(n, k))) == n * (n - 1) // 2 * 2**k * (2**k + 1)


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(2 * n))))
def test_rank_of_g0_is_the_sum_of_crossing_numbers(ends):
    # the abstract's reading at k = 0: the rank counts the crossings, a
    # stepped pair once and a nested pair twice; distinct endpoints make
    # every such barcode 0-strict
    barcode = Barcode.from_pairs(sorted(ends[i : i + 2]) for i in range(0, len(ends), 2))
    n = len(barcode)
    total = sum(
        crossing_number(barcode, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    assert rank(g_k(barcode, 0)) == total


def test_delta_k():
    assert str(delta_k(words(1, 2, 1, 1, 2, 3, 3, 3, 2))) == "1 2 1 3 3 2"
    assert str(delta_k(words(1, 1, 1, 2, 2, 2))) == "1 1 2 2"
    with pytest.raises(ShapeMismatchError):
        delta_k(words(1, 1, 2, 2))  # m = 2
    with pytest.raises(ShapeMismatchError):
        delta_k(words(1, 1, 1, 1, 2, 2, 2, 2))  # m = 4


def test_delta_commutes_with_sampling():
    rng = random.Random(67)
    for _ in range(50):
        bc = random_strict_barcode(rng, rng.randint(1, 5))
        for k in range(3):
            if not str(f_k(bc, k + 1)):  # strictness implied by construction
                continue
            assert delta_k(f_k(bc, k + 1)) == f_k(bc, k)
            assert delta_k(g_k(bc, k + 1)) == g_k(bc, k)


def test_deeper_invariants_refine_shallower():
    # equal level-k invariants force equal level-j invariants for j < k
    rng = random.Random(71)
    for _ in range(50):
        bc = random_strict_barcode(rng, rng.randint(2, 5))
        k = rng.randint(1, 3)
        word = g_k(bc, k)
        for j in range(k - 1, -1, -1):
            word = delta_k(word)
            assert word == g_k(bc, j)


def test_phi():
    bc = Barcode.from_pairs([(1.0, 2.0), (1.5, 3.0), (2.5, 2.75)])
    relabeled = Barcode.from_pairs([(1.5, 3.0), (1.0, 2.0), (2.5, 2.75)])
    assert phi(relabeled) == (1, 3, 2)
    nested = Barcode.from_pairs([(0, 10), (1, 9), (2, 8)])
    assert phi(nested) == (3, 2, 1)
    disjoint = Barcode.from_pairs([(0, 1), (2, 3), (4, 5)])
    assert phi(disjoint) == (1, 2, 3)
    with pytest.raises(NotStrictError):
        phi(Barcode.from_pairs([(0, 1), (0, 2)]))


def test_phi_is_second_occurrence_subword():
    # phi reads the subword off g_0; the oracle sorts births and deaths apart
    assert second_occurrence_subword(words(1, 2, 1, 3, 3, 2)) == (1, 3, 2)
    assert second_occurrence_subword(words(2, 2, 1, 1, 1, 2)) == (2, 1)
    rng = random.Random(73)
    for _ in range(100):
        bc = random_strict_barcode(rng, rng.randint(1, 50))
        assert phi(bc) == two_sort_phi(bc)


# Endpoints are integers and affine maps have integer coefficients, so every
# level-k sample point (k <= 3) is exact in binary64 and no rounding can
# reorder two of them.
integer_bars = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)), min_size=1, max_size=6
)


@given(integer_bars, st.integers(0, 3), st.integers(1, 1000), st.integers(-10**6, 10**6),
       st.data())
def test_g_k_invariant_under_relabeling_and_affine_maps(bars, k, alpha, delta, data):
    barcode = Barcode.from_pairs([(b, b + length) for b, length in bars])
    assume(is_k_strict(barcode, k))
    order = data.draw(st.permutations(range(len(bars))))
    bars = barcode.bars
    shuffled = Barcode(tuple(bars[i] for i in order))
    moved = affine_transform(barcode, alpha, delta)
    assert g_k(shuffled, k) == g_k(moved, k) == g_k(barcode, k)


@given(integer_bars, st.integers(0, 2))
def test_delta_k_maps_level_k_plus_one_to_level_k(bars, k):
    barcode = Barcode.from_pairs([(b, b + length) for b, length in bars])
    assume(is_k_strict(barcode, k + 1))
    assert delta_k(f_k(barcode, k + 1)) == f_k(barcode, k)


# Endpoints on a small integer grid make ties and shared endpoints common, as
# in test_strictness_is_exact_distinctness; a wider grid makes most draws
# strict.  At k <= 3 every sample point is exact in binary64.
@given(st.sampled_from([8, 64]).flatmap(
    lambda top: st.lists(
        st.tuples(st.integers(0, top), st.integers(1, top)), min_size=1, max_size=8
    )
), st.integers(0, 3))
def test_barcode_maps_match_the_tuple_path(bars, k):
    barcode = Barcode.from_pairs([(b, b + length) for b, length in bars])
    try:
        want = tuple_f_k(barcode, k)
    except NotStrictError as expected:
        assert not is_k_strict(barcode, k)
        for call in (require_k_strict, f_k, g_k):
            with pytest.raises(NotStrictError) as info:
                call(barcode, k)
            assert info.value.k == k
            assert info.value.collisions == expected.collisions
        return
    assert require_k_strict(barcode, k).tolist() == list(want)
    labeled, canonical = f_k(barcode, k).word, g_k(barcode, k).word
    assert labeled == want
    assert canonical == dict_canonicalize(want) == canonicalize(W(want)).word
    assert {type(sym) for sym in labeled + canonical} == {int}
    for word in (want, canonical):
        assert second_occurrence_subword(W(word)) == iota_second_occurrences(word)
        if k >= 1:
            assert delta_k(W(word)).word == iota_delta_k(word)


# The memo: n, canonicity and the array, filled at most once per word.


def assert_memo_matches_a_fresh_word(s):
    """``s`` and a fresh word of its tuple compare and hash alike while the
    fresh memo is still empty, then report the same n, m, canonicity and
    read-only array."""
    fresh = W(s.word)
    assert vars(fresh) == {"word": s.word}  # nothing worked out yet
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert {s: 1}[fresh] == 1 and {fresh: 1}[s] == 1
    assert (s.n, s.m, s.is_canonical) == (fresh.n, fresh.m, fresh.is_canonical)
    assert s._array.dtype == fresh._array.dtype == np.min_scalar_type(s.n)
    assert s._array.shape == (len(s.word),) and s._array.tolist() == list(s.word)
    assert s._array is s._array
    for u in (s, fresh):
        assert not u._array.flags.writeable
        with pytest.raises(ValueError):
            u._array[0] = 1
    assert vars(s).keys() <= {"word", "n", "is_canonical", "_array"}


@settings(deadline=None)
@given(integer_bars, st.integers(0, 2), st.data())
def test_every_constructor_fills_the_memo_a_fresh_word_would(bars, k, data):
    barcode = Barcode.from_pairs([(b, b + length) for b, length in bars])
    assume(is_k_strict(barcode, k + 1))
    n, m = len(bars), (2 << k) + 1
    spec = LatticeSpec(n, k + 1)
    letters = [sym for sym in range(1, n + 1) for _ in range(m)]
    drawn = W(tuple(data.draw(st.permutations(letters))))
    labeled, s, t = f_k(barcode, k + 1), g_k(barcode, k + 1), canonicalize(drawn)
    halved = delta_k(drawn)  # canonicity not known yet: left to first use
    assert "is_canonical" not in vars(halved)
    drawn.is_canonical
    made = [
        drawn, labeled, s, t, halved, canonicalize(labeled), f_k(barcode, k), g_k(barcode, k),
        delta_k(labeled), delta_k(s), delta_k(t), delta_k(drawn),
        relabel(drawn, range(n, 0, -1)), top_element(spec),
        meet(s, t, spec, spec.positions), join(s, t, spec, spec.positions),
    ]
    for u in made[-4:]:  # relabel, the top, meet and join fill the array
        assert "_array" in vars(u) and vars(u)["n"] == n
    for u in made:
        assert_memo_matches_a_fresh_word(u)
    assert all(vars(u)["is_canonical"] for u in made[2:4] + made[-3:])


@pytest.mark.parametrize("n,k", [(3, 1), (4, 0)])
def test_lattice_elements_fill_their_memo_on_first_use(n, k):
    d = enumerate_lattice(LatticeSpec(n, k))
    assert {tuple(vars(s)) for s in d.elements} == {("word",)}  # nothing paid at build
    for i, s in enumerate(d.elements):
        assert_memo_matches_a_fresh_word(s)
        assert s.is_canonical and np.array_equal(s._array, d.words[i])
        assert d.index_of(s) == i


def test_the_memo_is_no_field():
    s = g_k(B1, 0)
    assert [field.name for field in dataclasses.fields(s)] == ["word"]
    assert vars(s).keys() == {"word", "n", "is_canonical", "_array"}
    assert repr(s) == f"Multipermutation(word={s.word!r})"
    for copied in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert vars(copied) == {"word": s.word}
        assert_memo_matches_a_fresh_word(copied)


def test_rank_and_orders_of_g_k_words_convert_no_tuple(monkeypatch):
    # g_k and join fill the memo; then the kernels read the memo's array
    # and no word reaches _word_array, while fresh words reach it as tuples.
    # s <= u, so the orders read every column of that pair
    s, t = (g_k(generate_barcode(50, seed=seed, k=1), 1) for seed in (1, 2))
    spec = LatticeSpec(50, 1)
    u = join(s, t, spec, spec.positions)
    assert "_array" in vars(u) and np.array_equal(u._array, u.word)
    pairs = [(s, t), (t, s), (s, u), (u, s)]

    def results(fresh):
        return [rank(fresh(a)) for a in (s, t, u)] + [
            order(fresh(a), fresh(b)) for order in (newman_leq, prec) for a, b in pairs
        ]

    want = results(lambda a: W(a.word))
    real, kinds = barcomb.multiperm._word_array, []

    def spy(words, n):
        kinds.append(type(words))
        return real(words, n)

    monkeypatch.setattr(barcomb.multiperm, "_word_array", spy)
    got = results(lambda a: a)
    assert got == want and want[3:] == [False, False, True, False] * 2
    assert not kinds
    assert results(lambda a: W(a.word)) == want
    assert kinds and set(kinds) == {tuple}
