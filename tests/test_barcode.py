import copy
import itertools
import json
import math
import pickle
import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from helpers import (
    entry_parse_barcode_json,
    interval_graph,
    line_parse_barcode_csv,
    tuple_sample_points,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barcomb.barcode
from barcomb.barcode import (
    Bar,
    Barcode,
    _sample_table,
    affine_transform,
    crossing_number,
    format_barcode_csv,
    format_barcode_json,
    format_from_extension,
    generate_barcode,
    has_containing_bar,
    is_k_strict,
    parse_barcode_csv,
    parse_barcode_json,
    read_barcode,
    require_k_strict,
)
from barcomb.distances import (
    bottleneck,
    check_convergence_bounds,
    perturb_preserving_invariant,
    wasserstein,
)
from barcomb.errors import (
    BarcombError,
    InvalidBarError,
    InvalidLabelError,
    InvalidLevelError,
    InvalidScaleError,
    NotStrictError,
    ParseError,
    TooLargeError,
)
from barcomb.multiperm import f_k, g_k

B1 = Barcode.from_pairs([(1.0, 2.0), (1.5, 3.0), (2.5, 2.75)])


def random_barcode(rng, n, lo=0.0, hi=1.0):
    pairs = []
    for _ in range(n):
        b = rng.uniform(lo, hi)
        d = b + rng.uniform(0.05, 1.0) * (hi - lo)
        pairs.append((b, d))
    return Barcode.from_pairs(pairs)


def test_bar_invariant():
    with pytest.raises(InvalidBarError):
        Bar(1.0, 1.0)
    with pytest.raises(InvalidBarError):
        Bar(2.0, 1.0)
    assert Bar(0.0, 1.0).length == 1.0


@pytest.mark.parametrize(
    "pair", [(0.0, float("inf")), (float("-inf"), 1.0), (float("-inf"), float("inf")),
             (float("nan"), 1.0), (0.0, float("nan"))]
)
def test_bar_rejects_non_finite_endpoints(pair):
    with pytest.raises(InvalidBarError):
        Bar(*pair)
    with pytest.raises(InvalidBarError):
        Barcode.from_pairs([(0.0, 1.0), pair])


def test_barcode_needs_a_bar():
    with pytest.raises(InvalidBarError):
        Barcode(())


def test_labels_are_one_based():
    assert B1.bars[0] == Bar(1.0, 2.0)
    assert B1.bars[2] == Bar(2.5, 2.75)
    assert crossing_number(B1, 1, 3) == 0 and crossing_number(B1, 2, 3) == 2
    for label in (0, 4):
        with pytest.raises(InvalidLabelError):
            crossing_number(B1, label, 2)


def test_sample_points_endpoints_only():
    assert _sample_table(Barcode.from_pairs([(0, 1)]), 0).tolist() == [[0.0, 1.0]]


def test_sample_points_quartiles():
    points = _sample_table(Barcode.from_pairs([(0, 1)]), 2)
    assert points.tolist() == [[0.0, 0.25, 0.5, 0.75, 1.0]]


def test_sample_points_midpoints():
    points = _sample_table(Barcode.from_pairs([(1.0, 2.5), (1.5, 4.0), (3.0, 3.5)]), 1)
    assert points.shape == (3, 3)  # a row per bar: birth, midpoint, death
    assert points[:, 1].tolist() == [1.75, 2.75, 3.25]


def test_sample_points_refine_by_halving():
    # even positions at level k+1 reproduce level k exactly, bar by bar
    rng = random.Random(7)
    for _ in range(50):
        bc = random_barcode(rng, rng.randint(1, 5))
        for k in range(4):
            coarse = _sample_table(bc, k)
            assert coarse.ravel().tolist() == [v for v, _ in tuple_sample_points(bc, k)]
            assert _sample_table(bc, k + 1)[:, ::2].tolist() == coarse.tolist()


def test_strictness_examples():
    assert is_k_strict(B1, 0)
    assert not is_k_strict(Barcode.from_pairs([(-1, 1), (-2, 2)]), 1)  # midpoint 0
    assert not is_k_strict(Barcode.from_pairs([(0, 1), (0, 2)]), 0)


def test_strictness_monotone_in_k():
    rng = random.Random(11)
    for _ in range(100):
        bc = random_barcode(rng, rng.randint(1, 5))
        for k in range(4):
            if is_k_strict(bc, k + 1):
                assert is_k_strict(bc, k)


def test_strictness_collisions_reported():
    with pytest.raises(NotStrictError) as info:
        require_k_strict(Barcode.from_pairs([(-1, 1), (-2, 2)]), 1)
    collisions = info.value.collisions
    assert collisions
    values = {v for pair in collisions for v, _ in pair}
    assert values == {0.0}


# Small integer endpoints make collisions common; at k <= 3 every sample
# point is exact in binary64, so any formula for it gives the same double.
@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=5),
    st.integers(0, 3),
)
def test_strictness_is_exact_distinctness(bars, k):
    barcode = Barcode.from_pairs([(b, b + length) for b, length in bars])
    points = sorted(
        (b + ell * length / 2**k, label)
        for label, (b, length) in enumerate(bars, start=1)
        for ell in range(2**k + 1)
    )
    distinct = len({v for v, _ in points}) == len(points)
    adjacent_equal = tuple(
        (p, q) for p, q in zip(points, points[1:]) if p[0] == q[0]
    )
    assert is_k_strict(barcode, k) == distinct
    table = _sample_table(barcode, k).tolist()
    assert sorted((v, label) for label, row in enumerate(table, 1) for v in row) == points
    if distinct:
        assert require_k_strict(barcode, k).tolist() == [label for _, label in points]
    else:
        with pytest.raises(NotStrictError) as info:
            require_k_strict(barcode, k)
        assert info.value.k == k
        assert info.value.collisions == adjacent_equal


BIG = (-1e308, 1e308)  # finite endpoints, but death - birth overflows to inf


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("pairs", [[(0, 1), BIG], [BIG, (0, 1)]])
def test_an_overflowing_bar_length_is_refused_naming_the_bar(pairs, k):
    # its points would be nan (l = 0) and inf, which no sort orders
    barcode = Barcode.from_pairs(pairs)
    label = pairs.index(BIG) + 1
    for call in (_sample_table, require_k_strict, is_k_strict, g_k):
        with pytest.raises(InvalidBarError, match=rf"^bar {label} \(-1e\+308, 1e\+308\)"):
            call(barcode, k)


def test_a_point_past_the_double_range_is_refused_at_its_level():
    # the length 1e308 is finite, but l * length overflows once l >= 2
    barcode = Barcode.from_pairs([(-1, 1), (0, 1e308)])
    assert g_k(barcode, 0).word == (1, 2, 1, 2)
    with pytest.raises(InvalidBarError, match="^bar 2 "):
        g_k(barcode, 1)


# One sort serves a level and every level below it: each barcode keeps the
# order of the highest level it found strict.  A memoized barcode must answer
# at any level, in any order of levels, as a fresh barcode of the same
# endpoints does.

TINY = 5e-324  # the least subnormal double
NORMAL = 2.0**-1022  # the least normal double


def _ulp_bars(anchor):
    """Bars a few ulps of ``anchor`` long, starting a few ulps from it."""
    ulp = math.ulp(anchor)
    return st.tuples(st.integers(0, 40), st.integers(1, 12)).map(
        lambda t: (anchor + t[0] * ulp, anchor + (t[0] + t[1]) * ulp)
    )


# Small integer grids make ties common; bars a few ulps long near the
# subnormal range make the level-k points round; lengths near the top of
# the double range make a level-k table overflow where a lower level's does
# not, and (-1e308, 1e308) overflows at every level.
level_barcodes = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 8)).map(lambda t: (t[0], t[0] + t[1])),
        min_size=1, max_size=5,
    ),
    st.sampled_from([0.0, NORMAL, -NORMAL, 1.0]).flatmap(
        lambda anchor: st.lists(_ulp_bars(anchor), min_size=1, max_size=5)
    ),
    st.lists(
        st.sampled_from([(-1.0, 1.0), (3.0, 4.0), (0.0, 1e308), (0.0, 2.0**1023),
                         (-1e308, 0.5e308), (-1e308, 1e308)]),
        min_size=1, max_size=4, unique=True,
    ),
)


def level_outcomes(make, j):
    """What ``require_k_strict``, ``is_k_strict``, ``f_k`` and ``g_k`` give
    at level j on ``make()``: each value with its dtype, or the error each
    raises, by type, message and collisions.  Each returned array is then
    overwritten, so no later call may read it."""
    out = []
    for call in (require_k_strict, is_k_strict, f_k, g_k):
        try:
            got = call(make(), j)
        except BarcombError as exc:
            out.append((type(exc), str(exc), getattr(exc, "collisions", None)))
            continue
        if isinstance(got, np.ndarray):
            out.append((got.tolist(), got.dtype))
            got[:] = 0
        elif isinstance(got, bool):
            out.append(got)
        else:
            out.append((got.word, got._array.dtype))
    return out


@settings(deadline=None)
@given(level_barcodes, st.lists(st.integers(0, 4), min_size=1, max_size=8))
@example([(0, 1), (2, 5), (3, 4)], [0, 1, 2, 3])  # ascending
@example([(0, 1), (2, 5), (3, 4)], [3, 2, 1, 0])  # descending
@example([(0, 1), (2, 5), (3, 4)], [2, 2, 0, 0, 2, 4, 4])  # repeated
@example([(0.0, 3 * TINY), (TINY, 2 * TINY), (2 * TINY, 7 * TINY)], [4, 2, 0, 3, 1])
@example([(NORMAL - 3 * TINY, NORMAL + 5 * TINY), (NORMAL, NORMAL + TINY)], [3, 0, 2])
@example([(-1.0, 1.0), (0.0, 1e308)], [1, 0, 1, 0])  # overflows at 1, not at 0
@example([(0.0, 2.0**1023), (3.0, 4.0)], [0, 1, 0])
@example([(-1, 1), (-2, 2)], [1, 0, 1, 0, 2])  # midpoint tie: strict at 0 only
def test_levels_in_any_order_match_a_fresh_barcode(pairs, levels):
    barcode = Barcode.from_pairs(pairs)
    ends = barcode.ends

    def fresh():
        return Barcode._of_ends(np.array(ends))

    for j in levels:
        assert level_outcomes(lambda: barcode, j) == level_outcomes(fresh, j)
    if barcode._order is not None:
        assert not barcode._order[1].flags.writeable
    for clone in (copy.copy(barcode), copy.deepcopy(barcode),
                  pickle.loads(pickle.dumps(barcode))):
        assert clone._order is None  # no memo is carried
        assert clone == barcode and hash(clone) == hash(barcode)
        assert repr(clone) == repr(barcode) == repr(fresh())
        for j in levels[:2]:
            assert level_outcomes(lambda: clone, j) == level_outcomes(fresh, j)


def test_one_sort_serves_every_lower_level(monkeypatch):
    calls = []
    real = barcomb.barcode._sample_table

    def spy(barcode, k):
        calls.append(k)
        return real(barcode, k)

    monkeypatch.setattr(barcomb.barcode, "_sample_table", spy)
    barcode = Barcode.from_pairs([(0.11, 1.37), (0.29, 2.53), (0.71, 0.93)])
    assert is_k_strict(barcode, 2)
    f_k(barcode, 2), f_k(barcode, 1), g_k(barcode, 0)
    assert calls == [2]
    f_k(barcode, 3)  # a level above sorts again, and serves the rest
    require_k_strict(barcode, 1), is_k_strict(barcode, 3)
    assert calls == [2, 3]


def test_crossing_number_cases():
    assert crossing_number(B1, 1, 2) == 1  # stepped
    assert crossing_number(B1, 2, 3) == 2  # nested
    assert crossing_number(B1, 1, 3) == 0  # disjoint
    assert crossing_number(B1, 2, 1) == crossing_number(B1, 1, 2)


def test_crossing_number_errors():
    with pytest.raises(InvalidLabelError):
        crossing_number(B1, 1, 1)
    with pytest.raises(InvalidLabelError):
        crossing_number(B1, 1, 9)
    with pytest.raises(NotStrictError):
        crossing_number(Barcode.from_pairs([(0, 1), (0, 2)]), 1, 2)


def test_crossing_number_ignores_ties_between_other_bars():
    # bar 3 shares its birth with bar 1 and its death with bar 2
    bc = Barcode.from_pairs([(0, 1), (0.5, 2), (0, 2), (3, 4)])
    assert not is_k_strict(bc, 0)
    assert crossing_number(bc, 1, 2) == 1  # stepped
    assert crossing_number(bc, 2, 4) == 0  # disjoint
    assert crossing_number(bc, 4, 3) == 0
    nested = Barcode.from_pairs([(0, 10), (1, 9), (1, 5)])
    assert crossing_number(nested, 1, 2) == crossing_number(nested, 3, 1) == 2


@pytest.mark.parametrize("i, j", [(1, 3), (3, 1), (2, 3), (3, 2)])
def test_crossing_number_names_its_own_tied_bars(i, j):
    bc = Barcode.from_pairs([(0, 1), (0.5, 2), (0, 2), (3, 4)])
    with pytest.raises(NotStrictError) as info:
        crossing_number(bc, i, j)
    assert info.value.k == 0
    assert {label for pair in info.value.collisions for _, label in pair} == {i, j}
    assert f"(bar {i})" in str(info.value) and f"(bar {j})" in str(info.value)


def test_require_k_strict_returns_the_sorted_points():
    rng = random.Random(31)
    for _ in range(20):
        bc = random_barcode(rng, rng.randint(1, 6))
        for k in range(3):
            labels = [label for _, label in sorted(tuple_sample_points(bc, k))]
            assert require_k_strict(bc, k).tolist() == labels
    with pytest.raises(NotStrictError):
        require_k_strict(Barcode.from_pairs([(-1, 1), (-2, 2)]), 1)


def test_sample_points_cap(monkeypatch):
    bc = Barcode.from_pairs([(0, 1), (2, 3)])
    with pytest.raises(TooLargeError, match="cap is"):
        _sample_table(bc, 40)  # would be 2^41 points; nothing is built
    with pytest.raises(TooLargeError):
        _sample_table(bc, 10**6)
    with pytest.raises(TooLargeError):
        is_k_strict(bc, 30)
    monkeypatch.setattr(barcomb.barcode, "MAX_SAMPLE_POINTS", 10)
    assert _sample_table(bc, 2).size == 10  # exactly at the cap
    with pytest.raises(TooLargeError):
        _sample_table(bc, 3)
    with pytest.raises(TooLargeError):
        _sample_table(Barcode.from_pairs([(0, 1), (2, 3), (4, 5)]), 2)


def test_negative_levels_are_invalid_levels():
    # one barcomb error that is also a ValueError, naming the level
    bc = Barcode.from_pairs([(0, 1), (2, 3)])
    for call in (
        lambda: _sample_table(bc, -1),
        lambda: g_k(bc, -1),
        lambda: is_k_strict(bc, -1),
        lambda: generate_barcode(2, seed=1, k=-1),
        lambda: barcomb.barcode.require_level_size(2, -1, "sample points"),
    ):
        with pytest.raises(InvalidLevelError, match="level -1") as info:
            call()
        assert isinstance(info.value, BarcombError)
        assert isinstance(info.value, ValueError)


def test_interval_graph():
    # the oracle behind the acceptance criteria, on fixed barcodes; on
    # 0-strict barcodes its edges are the pairs that cross
    assert interval_graph(B1) == frozenset({(1, 2), (2, 3)})
    assert interval_graph(Barcode.from_pairs([(0, 1)])) == frozenset()
    got = interval_graph(Barcode.from_pairs([(0, 10), (1, 2), (3, 4)]))
    assert got == frozenset({(1, 2), (1, 3)})
    rng = random.Random(3)
    for _ in range(30):
        bc = random_barcode(rng, rng.randint(1, 6))
        pairs = itertools.combinations(range(1, len(bc) + 1), 2)
        assert interval_graph(bc) == {p for p in pairs if crossing_number(bc, *p) >= 1}


def test_affine_transform():
    bc = Barcode.from_pairs([(0, 1), (2, 3)])
    assert affine_transform(bc, 1, 0) == bc
    assert affine_transform(bc, 2, 1).pairs() == [(1, 3), (5, 7)]
    with pytest.raises(InvalidScaleError):
        affine_transform(bc, 0, 1)
    with pytest.raises(InvalidScaleError):
        affine_transform(bc, -2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or invalid warning
        with pytest.raises(InvalidBarError, match=r"^bar 2 \(2\.0, 3\.0\) maps to \(inf, inf\)"):
            affine_transform(bc, 1e308, 0)
        with pytest.raises(InvalidBarError, match=r"^bar 1 \(0\.0, 1\.0\) maps to \(nan, inf\)"):
            affine_transform(bc, math.inf, 0)
        # both ends of bar 2 round to 1e20: finite, but no longer a bar
        near = Barcode.from_pairs([(0, 1), (0.1, 0.2)])
        with pytest.raises(InvalidBarError) as info:
            affine_transform(near, 32768.0, 1e20)
        assert str(info.value) == (
            "bar 2 (0.1, 0.2) maps to (1e+20, 1e+20) under x -> 32768.0 * x + 1e+20,"
            " which needs birth < death"
        )


def test_affine_preserves_strictness_and_graph():
    rng = random.Random(23)
    for _ in range(100):
        bc = random_barcode(rng, rng.randint(1, 5))
        alpha = rng.uniform(0.1, 10.0)
        delta = rng.uniform(-100.0, 100.0)
        moved = affine_transform(bc, alpha, delta)
        for k in range(3):
            assert is_k_strict(bc, k) == is_k_strict(moved, k)
        assert interval_graph(moved) == interval_graph(bc)


def test_has_containing_bar():
    assert has_containing_bar(Barcode.from_pairs([(0, 10), (1, 2)]))
    assert not has_containing_bar(Barcode.from_pairs([(0, 2), (1, 3)]))


def test_generate_barcode():
    a = generate_barcode(5, seed=3, k=2)
    b = generate_barcode(5, seed=3, k=2)
    assert a == b
    assert is_k_strict(a, 2)
    c = generate_barcode(4, seed=9, k=1, contained=True)
    assert has_containing_bar(c)
    assert c != generate_barcode(4, seed=10, k=1, contained=True)


def test_generate_barcode_checks_its_size_before_drawing(monkeypatch):
    draws = []
    real = barcomb.barcode.SplitMix64.uniform
    monkeypatch.setattr(
        barcomb.barcode.SplitMix64,
        "uniform",
        lambda self, lo, hi: draws.append(1) or real(self, lo, hi),
    )
    monkeypatch.setattr(barcomb.barcode, "MAX_SAMPLE_POINTS", 10)
    assert len(generate_barcode(5, seed=1)) == 5  # exactly at the cap
    assert draws
    draws.clear()
    with pytest.raises(TooLargeError, match="sample points"):
        generate_barcode(6, seed=1)
    with pytest.raises(TooLargeError):
        generate_barcode(2, seed=1, k=3)
    assert draws == []


@pytest.mark.parametrize("spread", [0.0, -1.0, float("nan"), float("inf")])
def test_generate_barcode_needs_a_finite_positive_spread(monkeypatch, spread):
    # every bar would be degenerate or non-finite, so nothing is drawn
    monkeypatch.setattr(barcomb.barcode, "SplitMix64", None)
    with pytest.raises(InvalidBarError, match="finite spread > 0"):
        generate_barcode(3, seed=1, k=1, spread=spread)


def test_csv_round_trip():
    text = format_barcode_csv(B1)
    assert parse_barcode_csv(text) == B1


def test_csv_comments_and_errors():
    assert parse_barcode_csv("# header\n0,1\n\n2,3\n") == Barcode.from_pairs(
        [(0, 1), (2, 3)]
    )
    with pytest.raises(ParseError):
        parse_barcode_csv("0,1,2\n")
    with pytest.raises(ParseError):
        parse_barcode_csv("zero,one\n")
    with pytest.raises(ParseError):
        parse_barcode_csv("# nothing else\n")
    with pytest.raises(ParseError):
        parse_barcode_csv("1,1\n")
    with pytest.raises(ParseError):
        parse_barcode_csv("0,inf\n")


def test_json_round_trip():
    assert parse_barcode_json(format_barcode_json(B1)) == B1
    with pytest.raises(ParseError):
        parse_barcode_json("{}")
    with pytest.raises(ParseError):
        parse_barcode_json("[[0]]")
    with pytest.raises(ParseError):
        parse_barcode_json("[")


@pytest.mark.parametrize(
    "csv_text, json_text",
    [
        ("0,inf\n", "[[0, Infinity]]"),
        ("-inf,1\n", "[[-Infinity, 1]]"),
        ("0,nan\n", "[[0, NaN]]"),
        ("true,2\n", "[[true, 2]]"),
        ("0,false\n", "[[0, false]]"),
        ("0,1e400\n", "[[0, 1e400]]"),
        ("0," + "9" * 400 + "\n", "[[0, " + "9" * 400 + "]]"),
    ],
    ids=["inf", "-inf", "nan", "true", "false", "1e400", "400 digits"],
)
def test_csv_and_json_reject_the_same_values(csv_text, json_text):
    with pytest.raises(ParseError):
        parse_barcode_csv(csv_text)
    with pytest.raises(ParseError):
        parse_barcode_json(json_text)


def test_read_barcode_detects_format(tmp_path):
    csv = tmp_path / "b.csv"
    csv.write_text(format_barcode_csv(B1))
    assert read_barcode(str(csv)) == B1
    js = tmp_path / "b.json"
    js.write_text(format_barcode_json(B1))
    assert read_barcode(str(js)) == B1
    odd = tmp_path / "b.dat"
    odd.write_text(format_barcode_csv(B1))
    with pytest.raises(ParseError):
        read_barcode(str(odd))
    assert read_barcode(str(odd), "csv") == B1


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_barcode_csv, "0,1\n2,inf\n", "line 2: "),
        (parse_barcode_json, "[[0, 1], [2, Infinity]]", "entry 1: "),
        (parse_barcode_csv, "0,1\n2,2\n", "line 2: "),
        (parse_barcode_json, "[[0, 1], [2, 2]]", "entry 1: "),
        (parse_barcode_csv, "# bars\n0,1\n\n3,2\n", "line 4: "),
        (parse_barcode_json, "[[0, 1], [3, 2]]", "entry 1: "),
    ],
    ids=["csv-inf", "json-inf", "csv-equal", "json-equal", "csv-reversed", "json-reversed"],
)
def test_parse_errors_name_the_line_or_entry(parse, text, where):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).startswith(where)


def test_format_from_extension():
    assert format_from_extension("dir/bars.csv") == "csv"
    assert format_from_extension("BARS.JSON") == "json"
    assert format_from_extension("bars.txt") is None
    assert format_from_extension("bars") is None
    assert format_from_extension("csv") is None


# The endpoint array: both parsers against the per-line oracles, equality and
# hashing, and the calls that must not build a ``Bar`` value.

_PAD = st.sampled_from(["", " ", "\t", "  ", "\x0c"])
_FIELD = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(width=64).map(repr),  # nan, inf, -0.0 and subnormals too
    st.sampled_from(
        ["nan", "-inf", "Infinity", "1e400", "-1e400", "9" * 400, "true", "false",
         "1_000", "0x10", "abc", "", "1 2", "\u0663", "+.5", "2."]
    ),
)
_GOOD_LINE = st.builds(
    lambda b, length, pads: f"{pads[0]}{b}{pads[1]},{pads[2]}{b + length}{pads[3]}",
    st.one_of(st.integers(-100, 100), st.floats(-100, 100)),
    st.one_of(st.integers(1, 100), st.floats(1e-3, 100)),
    st.tuples(_PAD, _PAD, _PAD, _PAD),
)
_FILLER = st.one_of(
    _PAD, st.text(max_size=8).map(lambda t: "#" + t), _PAD.map(lambda p: p + "# c")
)
_ANY_LINE = st.builds(
    lambda fields, pad: pad + ",".join(fields), st.lists(_FIELD, max_size=4), _PAD
)
_CSV_TEXT = st.builds(
    lambda lines, sep, end: sep.join(lines) + end,
    st.one_of(
        st.lists(st.one_of(_GOOD_LINE, _GOOD_LINE, _FILLER), min_size=1, max_size=8),
        st.lists(st.one_of(_GOOD_LINE, _GOOD_LINE, _FILLER, _ANY_LINE), min_size=1, max_size=8),
    ),
    st.sampled_from(["\n", "\r\n", "\r", "\x1e", "\u2028"]),
    st.sampled_from(["", "\n"]),
)
_JSON_VALUE = st.one_of(
    st.integers(-1000, 1000),
    st.floats(width=64),
    st.booleans(),
    st.integers(10**308, 10**400),  # beyond the double range
    st.integers(-(10**400), -(10**308)),
    st.none(),
    st.text(max_size=3),
)
_GOOD_ENTRY = st.builds(
    lambda b, length: [b, b + length],
    st.one_of(st.integers(-100, 100), st.floats(-100, 100)),
    st.one_of(st.integers(1, 100), st.floats(1e-3, 100)),
)
_ANY_ENTRY = st.one_of(
    st.lists(_JSON_VALUE, max_size=3),
    _JSON_VALUE,
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_INDENT = st.sampled_from([None, 0, 2])
_JSON_TEXT = st.one_of(
    st.builds(json.dumps, st.lists(_GOOD_ENTRY, min_size=1, max_size=6), indent=_INDENT),
    st.builds(
        json.dumps,
        st.lists(st.one_of(_GOOD_ENTRY, _GOOD_ENTRY, _ANY_ENTRY), max_size=6),
        indent=_INDENT,
    ),
    st.one_of(
        st.builds(json.dumps, _ANY_ENTRY),
        st.sampled_from(["", "[", "[[0, 1],]", "[[0, 1]] x", "{}"]),
    ),
)


def _parsed(parse, text):
    """The barcode ``parse`` makes of ``text``, or its ParseError message."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    assert got == want
    if isinstance(want, Barcode):
        assert got.ends.tobytes() == want.ends.tobytes()  # bit for bit


@given(_CSV_TEXT)
def test_csv_parser_matches_the_per_line_parser(text):
    _assert_same_outcome(_parsed(parse_barcode_csv, text), _parsed(line_parse_barcode_csv, text))


@given(_CSV_TEXT, st.integers(1, 12))
def test_csv_blocks_match_the_per_line_parser_wherever_they_are_cut(text, block):
    with mock.patch.object(barcomb.barcode, "_CSV_BLOCK", block):
        got = _parsed(parse_barcode_csv, text)
    _assert_same_outcome(got, _parsed(line_parse_barcode_csv, text))


def test_csv_is_read_in_blocks():
    # 200 000 lines, 6.5 MB of text: all its lines and fields as strings at
    # once took 52 MB; one block of them at a time, beside the endpoints'
    # pieces and their concatenation (3 MB each), takes about 11 MB
    text = "".join(f"{i / 7:.17g},{i / 7 + 1:.17g}\n" for i in range(200_000))
    tracemalloc.start()
    try:
        barcode = parse_barcode_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert barcode.ends[-1].tolist() == [199_999 / 7, 199_999 / 7 + 1]
    # a fault in a later block is still named by its line
    with pytest.raises(ParseError, match="^line 200002: bar \\(2.0, 1.0\\) needs birth < death$"):
        parse_barcode_csv(text + "# c\n2,1\n")


@given(_JSON_TEXT)
def test_json_parser_matches_the_per_entry_parser(text):
    _assert_same_outcome(
        _parsed(parse_barcode_json, text), _parsed(entry_parse_barcode_json, text)
    )


_BIG = "9" * 400  # an integer beyond the double range


@pytest.mark.parametrize(
    "csv_text, json_text, read",
    [
        ("0,1.5\n2,3\n", "[[0, 1.5], [2, 3]]", True),
        ("0,1\ntrue,2\n", "[[0, 1], [true, 2]]", False),
        ("0,false\n", "[[0, false]]", False),
        ('"0","1"\n', '[["0", "1"]]', False),
        ("0,1\n0\n", "[[0, 1], [0]]", False),
        ("0,1,2\n", "[[0, 1, 2]]", False),
        ("[0],[1]\n", "[[[0], [1]]]", False),
        ("0,[1]\n", "[[0, 1], [0, [1]]]", False),
        (f"0,{_BIG}\n", f"[[0, {_BIG}]]", False),
        (f"-{_BIG},0\n", f"[[0, 1], [-{_BIG}, 0]]", False),
    ],
    ids=["numbers", "true", "false", "strings", "1 element", "3 elements", "nested",
         "nested later", "big", "-big later"],
)
def test_csv_and_json_entry_checks_match_the_per_entry_parsers(csv_text, json_text, read):
    # the readers check all entries at once, and the entry at fault is still
    # named as the per-line and per-entry parsers name it
    got, want = _parsed(parse_barcode_json, json_text), _parsed(entry_parse_barcode_json, json_text)
    _assert_same_outcome(got, want)
    assert isinstance(got, Barcode) == read
    got, want = _parsed(parse_barcode_csv, csv_text), _parsed(line_parse_barcode_csv, csv_text)
    _assert_same_outcome(got, want)
    assert isinstance(got, Barcode) == read


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1\n# c\n2,1\nx,3\n1,2,3\n", "line 3: bar (2.0, 1.0) needs birth < death"),
        ("0,1\n# c\n\nx,3\n1,2,3\n", "line 4: could not convert string to float: 'x'"),
        ("0,1\n# c\n\n\n1,2,3\n", "line 5: expected 'birth,death', got '1,2,3'"),
        ("[[0, 1], [0, 1" + "0" * 400 + "], [1, 0]]", "entry 1: int too large to convert to float"),
        ("[[0, 1], [2, 1], [true, 3]]", "entry 1: bar (2.0, 1.0) needs birth < death"),
    ],
    ids=["csv-bar", "csv-number", "csv-fields", "json-overflow", "json-bar"],
)
def test_the_first_line_at_fault_is_named_whatever_its_fault(text, message):
    parse = parse_barcode_json if text.startswith("[") else parse_barcode_csv
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_equal_endpoints_are_equal_barcodes_whatever_the_sign_of_zero():
    negative = Barcode.from_pairs([(-0.0, 1.0)])
    positive = Barcode.from_pairs([(0.0, 1.0)])
    assert negative.ends.tobytes() != positive.ends.tobytes()
    assert negative == positive and hash(negative) == hash(positive)
    assert Barcode.from_pairs([(0.0, 1.0), (2.0, 3.0)]) != positive
    assert Barcode.from_pairs([(0.0, 2.0)]) != positive
    assert positive != ((0.0, 1.0),)


def test_every_constructor_gives_the_same_barcode():
    pairs = [(1.0, 2.0), (-0.5, 3.25), (2.5, 2.75)]
    barcodes = [
        Barcode.from_pairs(pairs),
        copy.deepcopy(Barcode.from_pairs(pairs)),
        pickle.loads(pickle.dumps(Barcode.from_pairs(pairs))),
        Barcode(tuple(Bar(b, d) for b, d in pairs)),
        Barcode([Bar(b, d) for b, d in pairs]),
        parse_barcode_csv("".join(f"{b},{d}\n" for b, d in pairs)),
        parse_barcode_json(json.dumps(pairs)),
        line_parse_barcode_csv(format_barcode_csv(Barcode.from_pairs(pairs))),
    ]
    for barcode in barcodes:
        assert barcode == barcodes[0] and hash(barcode) == hash(barcodes[0])
        assert barcode.pairs() == pairs
        assert barcode.bars == tuple(Bar(b, d) for b, d in pairs)
        assert not barcode.ends.flags.writeable


def test_reading_and_comparing_build_no_bar(tmp_path, monkeypatch):
    left = generate_barcode(12, seed=4, k=2, contained=True)
    right = perturb_preserving_invariant(left, 1e-6, 2, seed=9)
    files = []
    for name, barcode in (("a.csv", left), ("b.json", right)):
        path = tmp_path / name
        path.write_text(format_barcode_csv(barcode) if name.endswith(".csv")
                        else format_barcode_json(barcode))
        files.append(str(path))
    built = []
    post_init = Bar.__post_init__
    monkeypatch.setattr(Bar, "__post_init__", lambda bar: built.append(bar) or post_init(bar))
    a, b = (read_barcode(path) for path in files)
    assert (a, b) == (left, right)
    assert g_k(a, 2) == g_k(b, 2)
    bottleneck(a, b)
    for q in (1, 2):
        wasserstein(a, b, q)
    assert check_convergence_bounds(a, b, 2, 2).passed
    assert built == []
    a.bars
    assert len(built) == len(a)  # the spy sees a view being built
