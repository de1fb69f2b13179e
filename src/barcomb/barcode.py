"""Barcodes: finite lists of real intervals and their basic geometry.

A barcode is an ordered list of bars (birth, death) with birth < death.
Labels are implicit 1-based positions; relabeling is always explicit.  A
``Barcode`` holds its endpoints only, as one read-only n x 2 float64 array
checked in one vectorized pass (finite, birth < death); the CSV and JSON
parsers write that array directly, through Python's ``float`` per field (the
CSV parser a block of about 2^20 characters of lines at a time), and the
sample table, the distances and the affine maps read it, so no ``Bar``
value is built unless one is asked for.  All values are immutable and all
operations here are pure functions, so they are safe to share between
threads; a barcode's one memo, the sample order below, is idempotent, so
threads that race on it at worst sort twice.

Levels: at level k every bar contributes the 2^k + 1 points

    birth + l * (death - birth) / 2^k     for l = 0 .. 2^k,

computed directly from this formula (never by repeated addition) so rounding
cannot drift and flip an ordering.  One builder writes them as an
n x (2^k + 1) float64 array, a row per bar, from the barcode's endpoint
array; a point that is not finite, where a bar's length overflows, is
refused.  A barcode is k-strict when all of these points, over all bars,
are pairwise distinct as doubles.  The one check sorts the array with one
argsort, and the barcode keeps that order for the highest level it has
found strict.  The level-(k-1) points of a bar are its level-k points
of even l, bit for bit, so that order, restricted, orders every lower level
too: ``require_k_strict`` reads the bar labels of a level's sorted points
from it, so the level-k word needs no second sort, and a lower level needs
no table and no sort; ``is_k_strict`` is its boolean form.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from .errors import (
    InvalidBarError,
    InvalidLabelError,
    InvalidLevelError,
    InvalidScaleError,
    NotStrictError,
    ParseError,
    RetriesExhaustedError,
    TooLargeError,
)
from .rng import SplitMix64


def _bar_problem(birth: float, death: float) -> str | None:
    """Why (birth, death) is not a bar, or None when it is one."""
    if not (math.isfinite(birth) and math.isfinite(death)):
        return f"bar ({birth!r}, {death!r}) needs finite endpoints"
    if not birth < death:
        return f"bar ({birth!r}, {death!r}) needs birth < death"
    return None


@dataclass(frozen=True)
class Bar:
    """A single interval; finite endpoints with birth < death strictly."""

    birth: float
    death: float

    def __post_init__(self):
        problem = _bar_problem(self.birth, self.death)
        if problem:
            raise InvalidBarError(problem)

    @property
    def length(self) -> float:
        return self.death - self.birth


def _checked(ends: np.ndarray) -> np.ndarray:
    """A fresh n x 2 float64 array of endpoints, made read-only once one
    vectorized pass finds every row finite with birth < death.

    InvalidBarError when there is no row, and otherwise with ``Bar``'s
    message for the first row that is not a bar.
    """
    if len(ends) == 0:
        raise InvalidBarError("barcode needs at least one bar")
    bad = _first_non_bar(ends)
    if bad is not None:
        raise InvalidBarError(_bar_problem(*ends[bad].tolist()))
    ends.setflags(write=False)
    return ends


def _first_non_bar(ends: np.ndarray) -> int | None:
    """The index of the first row of an n x 2 endpoint array that is not a
    bar (finite endpoints, birth < death), or None when every row is one."""
    births, deaths = ends.T
    ok = (-np.inf < births) & (births < deaths) & (deaths < np.inf)
    return None if ok.all() else int(np.argmin(ok))


class Barcode:
    """An ordered, non-empty list of bars; label i is position i (1-based).

    A barcode is its endpoints only: ``ends`` is a read-only n x 2 float64
    array whose row i - 1 holds the birth and the death of bar i.
    ``Barcode(bars)`` takes ``Bar`` values, ``from_pairs`` (birth, death)
    pairs; ``bars`` builds ``Bar`` values from the rows when asked for.
    Barcodes are equal when their arrays are equal as numbers, so -0.0
    equals 0.0, and equal barcodes hash alike.
    """

    # ``_order`` is None, or (k, the sample order that ``_strict_order``
    # found strict at level k); no comparison, hash, repr or copy reads it
    __slots__ = ("_ends", "_order")

    def __init__(self, bars: Iterable[Bar]):
        rows = [(bar.birth, bar.death) for bar in bars]
        self._ends = _checked(np.array(rows, dtype=float).reshape(-1, 2))
        self._order = None

    @classmethod
    def _of_ends(cls, ends: np.ndarray) -> "Barcode":
        """The barcode of a fresh n x 2 float64 array, which it takes over
        once ``_checked`` passes it."""
        barcode = object.__new__(cls)
        barcode._ends = _checked(ends)
        barcode._order = None
        return barcode

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "Barcode":
        rows = [(float(b), float(d)) for b, d in pairs]
        return cls._of_ends(np.array(rows, dtype=float).reshape(-1, 2))

    @property
    def ends(self) -> np.ndarray:
        return self._ends

    def __len__(self) -> int:
        return len(self._ends)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash((self._ends + 0.0).tobytes())  # -0.0 + 0.0 is 0.0

    def __repr__(self) -> str:
        return f"Barcode.from_pairs({self.pairs()!r})"

    def __reduce__(self):
        # copies and unpickled barcodes get a checked, read-only array too
        return type(self)._of_ends, (np.array(self._ends),)

    @property
    def bars(self) -> tuple[Bar, ...]:
        """The bars as ``Bar`` values, built on each call."""
        return tuple(Bar(b, d) for b, d in self._ends.tolist())

    def _endpoints(self, label: int) -> list[float]:
        """[birth, death] of bar ``label``; InvalidLabelError out of range."""
        if not 1 <= label <= len(self._ends):
            raise InvalidLabelError(f"label {label} out of range 1..{len(self._ends)}")
        return self._ends[label - 1].tolist()

    def pairs(self) -> list[tuple[float, float]]:
        return list(map(tuple, self._ends.tolist()))


# Sample points per level, and word positions per word read at a level.
# Measured at the cap (838 860 bars at k = 2), traced: reading the 32 MB CSV
# file peaks at 61 MiB (its text, and the lines and fields of one block as
# Python strings) and keeps 13 MiB of endpoints; ``require_k_strict`` peaks
# at 100 MiB more (the float64 table, its argsort and the sorted values),
# keeps the sample order on the barcode as 16 MiB of uint32, and returns the
# word as 16 MiB of uint32 labels; levels 1 and 0, read from that order,
# then peak at 62 MiB more and sort nothing.  ``barcomb invariant``, which
# drops the barcode, relabels the word and writes its text in blocks, peaks
# at 156 MiB RSS.  ``g_k``'s word, a tuple of Python ints, would hold 144 MB
# more.
MAX_SAMPLE_POINTS = 1 << 22


def require_level_size(n: int, k: int, what: str) -> None:
    """InvalidLevelError when k < 0, and TooLargeError unless n x (2^k + 1)
    is at most ``MAX_SAMPLE_POINTS``.

    Never builds 2^k for a large k: from k = 22 on, one bar exceeds the cap.
    ``what`` names the counted items in the message.
    """
    if k < 0:
        raise InvalidLevelError(f"level {k} is negative; need k >= 0")
    if n * ((1 << min(k, 63)) + 1) > MAX_SAMPLE_POINTS:
        raise TooLargeError(
            f"level {k} has {n} x (2^{k} + 1) {what}, cap is {MAX_SAMPLE_POINTS}"
        )


def _sample_table(barcode: Barcode, k: int) -> np.ndarray:
    """The level-k sample points as an n x (2^k + 1) float64 array: row
    i - 1 holds the points of bar i, l ascending.

    Each point is birth + l * (death - birth) / 2^k in that operation order,
    so it is the double the per-bar formula gives.  Raises TooLargeError,
    before building any point, when there would be more than
    ``MAX_SAMPLE_POINTS``, and InvalidBarError, naming the first such bar,
    when a point is not finite, which happens when death - birth or
    l * (death - birth) overflows.
    """
    require_level_size(len(barcode), k, "sample points")
    step = 1 << k
    ends = barcode.ends
    births, deaths = ends[:, :1], ends[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.arange(step + 1.0) * (deaths - births)
        points /= step
        points += births
    if not np.isfinite(points).all():
        label = int(np.argmin(np.isfinite(points).all(axis=1))) + 1
        birth, death = barcode._endpoints(label)
        raise InvalidBarError(
            f"bar {label} ({birth!r}, {death!r}) has a level-{k}"
            " sample point that is not finite: its length overflows"
        )
    return points


def _strict_order(barcode: Barcode, k: int) -> tuple[int, np.ndarray]:
    """(top, order) with top >= k: ``order`` is the stable argsort of the
    flattened level-top sample table, found strict, in the narrowest
    unsigned dtype.  The barcode keeps the highest such pair it has found
    and sorts only when asked for a level above it; NotStrictError, as
    ``require_k_strict`` raises it, and InvalidBarError from
    ``_sample_table`` keep nothing.

    The table is sorted by numpy's default argsort, which is not stable
    but is several times faster on large tables (0.22 s against 0.68 s at
    the sample cap, on a shared 2-vCPU Xeon VM with AVX-512, numpy 2.4):
    when no two points are equal, the sorted order is the only one, so it
    is the stable argsort.  Only when two points tie is the table sorted
    again, stably, so that NotStrictError lists the ties in label order.

    Position (i - 1) * (2^top + 1) + l of the table holds the point l of bar
    i, and the level-k points are the level-top points with l divisible by
    2^s, s = top - k, bit for bit whenever the level-top table is finite.
    With d = fl(death - birth), fl(l * 2^s * d) = 2^s * fl(l * d): a power
    of two scales a rounded product exactly unless it overflows, which a
    finite table rules out, and in the subnormal range the integer
    multiples of d are exact.  Then fl(2^s * fl(l * d) / 2^top) and
    fl(fl(l * d) / 2^k) round the same real number once, and the same birth
    is added.  Distinct points stay distinct in any subset, so the level-top
    order, restricted to those positions, is the level-k order, and no
    level below top needs a table or a sort.  A table that is not finite
    raises at its level and stores nothing, though a lower level's table
    may be finite.  The memo is idempotent: any pair stored is right for
    its level, so threads that race on it at worst sort twice.
    """
    require_level_size(len(barcode), k, "sample points")
    memo = barcode._order
    if memo is not None and memo[0] >= k:
        return memo
    points = _sample_table(barcode, k).ravel()
    order = np.argsort(points)
    values = points[order]
    ties = np.flatnonzero(values[1:] == values[:-1])
    if ties.size:
        order = np.argsort(points, kind="stable")
        values = points[order]
        m = (1 << k) + 1
        lower = zip(values[ties].tolist(), (order[ties] // m + 1).tolist())
        upper = zip(values[ties + 1].tolist(), (order[ties + 1] // m + 1).tolist())
        raise NotStrictError(k, zip(lower, upper))
    del points, values
    order = order.astype(np.min_scalar_type(order.size - 1))
    order.setflags(write=False)
    barcode._order = memo = k, order
    return memo


def require_k_strict(barcode: Barcode, k: int) -> np.ndarray:
    """The bar labels of the level-k sample points in sorted order, in the
    smallest unsigned dtype that holds n, as a fresh array; NotStrictError,
    listing every adjacent pair of equal points as ((value, label), (value,
    label)), if any two coincide.

    The ties are listed from a stable argsort of the bar-major points, which
    keeps equal points in label order, as sorting (value, label) tuples
    does.  Doubles are compared exactly.  At k = 0 this is ordinary
    strictness: distinct births, distinct deaths, and no birth equal to any
    death.  The labels are read from ``_strict_order``, which sorts once for
    this level and every level below it.
    """
    top, order = _strict_order(barcode, k)
    m = (1 << top) + 1
    if top == k:
        labels = order // m
    else:  # the positions whose point l is divisible by 2^(top - k)
        labels, points = np.divmod(order, m)
        labels = labels[(points & ((1 << (top - k)) - 1)) == 0]
    labels = labels.astype(np.min_scalar_type(len(barcode)), copy=False)
    labels += 1
    return labels


def is_k_strict(barcode: Barcode, k: int) -> bool:
    """True iff all level-k sample points are pairwise distinct."""
    try:
        _strict_order(barcode, k)
    except NotStrictError:
        return False
    return True


def crossing_number(barcode: Barcode, i: int, j: int) -> int:
    """How bars i and j interleave: 0 disjoint, 1 stepped, 2 nested.

    The pair is ordered internally so the case analysis sees the earlier
    birth first; the result is symmetric in i and j.  Only the four
    endpoints of bars i and j are read: they must be distinct, so the three
    cases are exhaustive, else NotStrictError names the tied endpoints.
    Ties between other bars do not matter.
    """
    if i == j:
        raise InvalidLabelError(f"labels must differ, got i = j = {i}")
    (b1, d1), (b2, d2) = barcode._endpoints(i), barcode._endpoints(j)
    ties = [((a, i), (a, j)) for a in (b1, d1) if a in (b2, d2)]
    if ties:
        raise NotStrictError(0, ties)
    if b2 < b1:
        (b1, d1), (b2, d2) = (b2, d2), (b1, d1)
    if d1 < b2:
        return 0
    if d1 < d2:
        return 1
    return 2


def affine_transform(barcode: Barcode, alpha: float, delta: float) -> Barcode:
    """Map every bar (b, d) to (alpha*b + delta, alpha*d + delta), alpha > 0.

    InvalidBarError names the first bar whose image is not a bar: one that
    is not finite, or one whose ends the map rounds to one float.
    """
    if not alpha > 0:
        raise InvalidScaleError(f"scale must be positive, got {alpha!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        ends = alpha * barcode.ends + delta
    bad = _first_non_bar(ends)
    if bad is not None:
        birth, death = barcode.ends[bad].tolist()
        image = tuple(ends[bad].tolist())
        why = "is not finite" if not np.isfinite(image).all() else "needs birth < death"
        raise InvalidBarError(
            f"bar {bad + 1} ({birth!r}, {death!r}) maps to {image!r} under "
            f"x -> {alpha!r} * x + {delta!r}, which {why}"
        )
    return Barcode._of_ends(ends)


def has_containing_bar(barcode: Barcode) -> bool:
    """True iff some bar contains all others (min birth and max death)."""
    births, deaths = barcode.ends.T
    return bool(((births == births.min()) & (deaths == deaths.max())).any())


_MAX_DRAWS = 1000  # barcodes drawn by ``generate_barcode`` before it gives up


def generate_barcode(
    n: int, seed: int, k: int = 0, spread: float = 10.0, contained: bool = False
) -> Barcode:
    """A deterministic pseudo-random k-strict barcode with n bars.

    Births fall in [0, spread) and lengths in [spread/10, spread/2).  With
    ``contained`` the first bar is widened to contain all the others.  The
    result is rejection-sampled until it verifies as k-strict, which for
    continuous draws almost always succeeds on the first try; after
    ``_MAX_DRAWS`` draws RetriesExhaustedError.  InvalidBarError unless
    n >= 1 and ``spread`` is finite and positive, and TooLargeError, before
    the first draw, when the level would exceed ``MAX_SAMPLE_POINTS``.
    """
    if n < 1:
        raise InvalidBarError("need n >= 1")
    if not 0 < spread < math.inf:
        raise InvalidBarError(f"need a finite spread > 0, got {spread}")
    require_level_size(n, k, "sample points")
    rng = SplitMix64(seed)
    for _ in range(_MAX_DRAWS):
        inner = n - 1 if contained else n
        pairs = []
        for _ in range(inner):
            birth = rng.uniform(0.0, spread)
            length = rng.uniform(spread / 10.0, spread / 2.0)
            pairs.append((birth, birth + length))
        if contained:
            if pairs:
                lo = min(b for b, _ in pairs)
                hi = max(d for _, d in pairs)
            else:
                lo, hi = 0.0, spread
            pad_lo = rng.uniform(spread / 20.0, spread / 4.0)
            pad_hi = rng.uniform(spread / 20.0, spread / 4.0)
            pairs.insert(0, (lo - pad_lo, hi + pad_hi))
        candidate = Barcode.from_pairs(pairs)
        if is_k_strict(candidate, k):
            return candidate
    raise RetriesExhaustedError(f"no {k}-strict barcode after {_MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# File formats.  CSV: one "birth,death" per line, '#' starts a comment line.
# JSON: an array of 2-element arrays [birth, death].  Labels are line order.
# ---------------------------------------------------------------------------

def fmt17(x: float) -> str:
    """Format a double with 17 significant digits (round-trip exact)."""
    return f"{x:.17g}"


def _require_bar(where: str, birth: float, death: float) -> None:
    problem = _bar_problem(birth, death)
    if problem:
        raise ParseError(f"{where}: {problem}")


# Characters of CSV text converted at a time: the lines and fields of one
# block are Python strings at once, never those of the whole text.
_CSV_BLOCK = 1 << 20


def _csv_blocks(text: str) -> Iterable[str]:
    """Slices of ``text`` of about ``_CSV_BLOCK`` characters, each cut right
    after a "\n", so no line and no "\r\n" is split: their lines, in turn,
    are the lines of ``text``."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CSV_BLOCK)
        stop = len(text) if cut < 0 else cut + 1
        yield text[start:stop]
        start = stop


def _csv_values(block: str) -> np.ndarray:
    """The fields of a block's bar lines, each through Python's ``float``,
    in one pass over the fields of those lines joined; ValueError unless
    each bar line has one comma and every field is a number."""
    lines = [line for line in map(str.strip, block.splitlines()) if line and line[0] != "#"]
    if not lines:
        return np.empty(0)
    if list(map(str.count, lines, repeat(","))).count(1) != len(lines):
        raise ValueError("not two fields a line")
    fields = ",".join(lines).split(",")
    return np.fromiter(map(float, fields), float, len(fields))


def parse_barcode_csv(text: str) -> Barcode:
    """The barcode of CSV text.

    Every field goes through Python's ``float`` into the endpoint array, a
    block of lines at a time.  Only when that fails is the text parsed again
    line by line, to raise the ParseError of the first line at fault.
    """
    try:
        values = np.concatenate([_csv_values(block) for block in _csv_blocks(text)])
        return Barcode._of_ends(values.reshape(-1, 2))
    except (ValueError, InvalidBarError):
        pass
    return _parse_csv_lines(text)


def _parse_csv_lines(text: str) -> Barcode:
    """``parse_barcode_csv`` one line at a time, with its errors."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'birth,death', got {raw!r}")
        try:
            birth, death = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        _require_bar(f"line {lineno}", birth, death)
        pairs.append((birth, death))
    if not pairs:
        raise ParseError("no bars found")
    return Barcode.from_pairs(pairs)


def _is_pair(item) -> bool:
    """A [birth, death] entry: a list of two JSON numbers, no booleans."""
    return (
        isinstance(item, list)
        and len(item) == 2
        and type(item[0]) in (int, float)
        and type(item[1]) in (int, float)
    )


def parse_barcode_json(text: str) -> Barcode:
    """The barcode of JSON text: ``_barcode_of_json`` of ``_load_json``."""
    return _barcode_of_json(_load_json(text))


def _load_json(text: str):
    """The value of JSON text; ParseError when it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _barcode_of_json(data) -> Barcode:
    """The barcode of a loaded JSON value.

    Every number goes through Python's ``float``, in one pass over all
    entries, into the endpoint array.  Only when that fails are the entries
    read again one at a time, to raise the ParseError of the first entry at
    fault.
    """
    if not isinstance(data, list) or not data:
        raise ParseError("expected a non-empty JSON array of [birth, death] pairs")
    # ``_is_pair`` of every entry, in C-level passes over the entry types,
    # the entry lengths and the number types
    if set(map(type, data)) == {list} and set(map(len, data)) == {2}:
        ends = list(chain.from_iterable(data))
        if set(map(type, ends)) <= {int, float}:
            try:
                values = np.fromiter(map(float, ends), float, len(ends))
                return Barcode._of_ends(values.reshape(-1, 2))
            except (OverflowError, InvalidBarError):
                pass
    return _parse_json_entries(data)


def _parse_json_entries(data: list) -> Barcode:
    """``_barcode_of_json`` of loaded entries one at a time, with its errors."""
    pairs = []
    for idx, item in enumerate(data):
        if not _is_pair(item):
            raise ParseError(f"entry {idx}: expected [birth, death], got {item!r}")
        try:
            birth, death = float(item[0]), float(item[1])
        except OverflowError as exc:  # an integer beyond the double range
            raise ParseError(f"entry {idx}: {exc}") from exc
        _require_bar(f"entry {idx}", birth, death)
        pairs.append((birth, death))
    return Barcode.from_pairs(pairs)


def format_barcode_csv(barcode: Barcode) -> str:
    lines = [f"{fmt17(b)},{fmt17(d)}" for b, d in barcode.ends.tolist()]
    return "\n".join(lines) + "\n"


def format_barcode_json(barcode: Barcode) -> str:
    return json.dumps(barcode.ends.tolist())


_FORMATS_BY_EXTENSION = {".csv": "csv", ".json": "json"}


def format_from_extension(path: str) -> str | None:
    """``"csv"`` or ``"json"`` from the file extension, None for any other."""
    return _FORMATS_BY_EXTENSION.get(os.path.splitext(path)[1].lower())


def read_barcode(path: str, fmt: str | None = None) -> Barcode:
    """Load a barcode file; format from ``fmt`` or the file extension."""
    if fmt is None:
        fmt = format_from_extension(path)
        if fmt is None:
            raise ParseError(f"cannot infer format of {path!r}; pass fmt")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv":
        return parse_barcode_csv(text)
    if fmt == "json":
        return parse_barcode_json(text)
    raise ParseError(f"unknown barcode format {fmt!r}")
