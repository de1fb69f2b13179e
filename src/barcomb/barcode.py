"""Barcodes: finite lists of real intervals and their basic geometry.

A barcode is an ordered list of bars (birth, death) with birth < death.
Labels are implicit 1-based positions; relabeling is always explicit.  All
values are immutable and all operations here are pure functions, so they are
safe to share between threads.

Levels: at level k every bar contributes the 2^k + 1 points

    birth + l * (death - birth) / 2^k     for l = 0 .. 2^k,

computed directly from this formula (never by repeated addition) so rounding
cannot drift and flip an ordering.  A barcode is k-strict when all of these
points, over all bars, are pairwise distinct as doubles.  The one check,
``require_k_strict``, returns the sorted points, so the level-k word needs no
second sort; ``is_k_strict`` is its boolean form.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable

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


@dataclass(frozen=True)
class Bar:
    """A single interval; finite endpoints with birth < death strictly."""

    birth: float
    death: float

    def __post_init__(self):
        if not (math.isfinite(self.birth) and math.isfinite(self.death)):
            raise InvalidBarError(
                f"bar ({self.birth!r}, {self.death!r}) needs finite endpoints"
            )
        if not (self.birth < self.death):
            raise InvalidBarError(
                f"bar ({self.birth!r}, {self.death!r}) needs birth < death"
            )

    @property
    def length(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class Barcode:
    """An ordered, non-empty list of bars; label i is position i (1-based)."""

    bars: tuple[Bar, ...]

    def __post_init__(self):
        if len(self.bars) == 0:
            raise InvalidBarError("barcode needs at least one bar")

    def __len__(self) -> int:
        return len(self.bars)

    def bar(self, label: int) -> Bar:
        """The bar with 1-based label ``label``."""
        if not 1 <= label <= len(self.bars):
            raise InvalidLabelError(f"label {label} out of range 1..{len(self.bars)}")
        return self.bars[label - 1]

    def pairs(self) -> list[tuple[float, float]]:
        return [(b.birth, b.death) for b in self.bars]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "Barcode":
        return cls(tuple(Bar(float(b), float(d)) for b, d in pairs))


@dataclass(frozen=True)
class IntervalGraph:
    """Bars as vertices 1..n; an edge where two open intervals intersect."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]  # pairs (i, j) with i < j


MAX_SAMPLE_POINTS = 1 << 22  # about 0.4 GB of (value, label) tuples


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


def sample_points(barcode: Barcode, k: int) -> list[tuple[float, int]]:
    """All level-k sample points as (value, bar label), grouped by bar.

    Within a bar the points appear with l ascending, so the first is the
    birth and the last the death.  Raises TooLargeError, before building
    any point, when there would be more than ``MAX_SAMPLE_POINTS``.
    """
    require_level_size(len(barcode), k, "sample points")
    step = 1 << k
    points: list[tuple[float, int]] = []
    for label, bar in enumerate(barcode.bars, start=1):
        length = bar.death - bar.birth
        for ell in range(step + 1):
            points.append((bar.birth + ell * length / step, label))
    return points


def require_k_strict(barcode: Barcode, k: int) -> list[tuple[float, int]]:
    """The sorted level-k sample points; NotStrictError, listing every
    adjacent pair of equal points, if any two coincide.

    Doubles are compared exactly.  At k = 0 this is ordinary strictness:
    distinct births, distinct deaths, and no birth equal to any death.
    """
    points = sorted(sample_points(barcode, k))
    pairs = zip(points, points[1:])
    collisions = [(prev, cur) for prev, cur in pairs if prev[0] == cur[0]]
    if collisions:
        raise NotStrictError(k, collisions)
    return points


def is_k_strict(barcode: Barcode, k: int) -> bool:
    """True iff all level-k sample points are pairwise distinct."""
    try:
        require_k_strict(barcode, k)
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
    first, second = barcode.bar(i), barcode.bar(j)
    ends = (second.birth, second.death)
    ties = [((a, i), (a, j)) for a in (first.birth, first.death) if a in ends]
    if ties:
        raise NotStrictError(0, ties)
    if second.birth < first.birth:
        first, second = second, first
    if first.death < second.birth:
        return 0
    if first.death < second.death:
        return 1
    return 2


def interval_graph(barcode: Barcode) -> IntervalGraph:
    """Edge {i, j} iff the open intervals of bars i and j intersect."""
    n = len(barcode)
    edges = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = barcode.bars[i - 1], barcode.bars[j - 1]
            if max(a.birth, b.birth) < min(a.death, b.death):
                edges.add((i, j))
    return IntervalGraph(n, frozenset(edges))


def affine_transform(barcode: Barcode, alpha: float, delta: float) -> Barcode:
    """Map every bar (b, d) to (alpha*b + delta, alpha*d + delta), alpha > 0."""
    if not alpha > 0:
        raise InvalidScaleError(f"scale must be positive, got {alpha!r}")
    return Barcode(
        tuple(Bar(alpha * b.birth + delta, alpha * b.death + delta) for b in barcode.bars)
    )


def has_containing_bar(barcode: Barcode) -> bool:
    """True iff some bar contains all others (min birth and max death)."""
    lo = min(b.birth for b in barcode.bars)
    hi = max(b.death for b in barcode.bars)
    return any(b.birth == lo and b.death == hi for b in barcode.bars)


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


def _bar(where: str, birth: float, death: float) -> Bar:
    try:
        return Bar(birth, death)
    except InvalidBarError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def parse_barcode_csv(text: str) -> Barcode:
    bars = []
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
        bars.append(_bar(f"line {lineno}", birth, death))
    if not bars:
        raise ParseError("no bars found")
    return Barcode(tuple(bars))


def parse_barcode_json(text: str) -> Barcode:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ParseError("expected a non-empty JSON array of [birth, death] pairs")
    bars = []
    for idx, item in enumerate(data):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(type(v) in (int, float) for v in item)  # no booleans
        ):
            raise ParseError(f"entry {idx}: expected [birth, death], got {item!r}")
        try:
            birth, death = float(item[0]), float(item[1])
        except OverflowError as exc:  # an integer beyond the double range
            raise ParseError(f"entry {idx}: {exc}") from exc
        bars.append(_bar(f"entry {idx}", birth, death))
    return Barcode(tuple(bars))


def format_barcode_csv(barcode: Barcode) -> str:
    lines = [f"{fmt17(b.birth)},{fmt17(b.death)}" for b in barcode.bars]
    return "\n".join(lines) + "\n"


def format_barcode_json(barcode: Barcode) -> str:
    return json.dumps([[b.birth, b.death] for b in barcode.bars])


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
