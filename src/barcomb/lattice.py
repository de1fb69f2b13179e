"""Enumeration of the power-k barcode lattices, and their meets and joins.

The level-k lattice on n bars consists of all canonical multipermutations
with alphabet size n and multiplicity m = 2^k + 1, ordered by the Newman
relation.  Equivalently (and verified by ``verify_ideal_isomorphism``) it is
the principal ideal below the fully nested word inside the full multinomial
Newman lattice.  That lattice is never enumerated: its words are the n!
symbol relabelings of the canonical words, and the check tests them one
relabeling at a time.

Enumeration is deterministic: one private stream produces the words in
lexicographic order, each with its rank, so indices, Hasse diagrams, vertex
vectors and DOT/JSON output are byte-stable.  Covers are adjacent swaps of
an increasing symbol pair whose result is still canonical.

The DOT and JSON emitters, and the vertex writers of ``barcomb.polytope``,
format no line in Python.  A diagram converts its words, covers and ranks
to arrays once, and one private kernel, ``_text``, writes each table: the
rows are the rows of a byte matrix that starts from the constant text, the
integer columns get their decimal digits one digit column at a time, and
dropping the NUL padding leaves the text, equal byte for byte to
``json.dumps`` and to per-line f-strings.

Meets and joins need no enumeration.  Because the canonical words are a
principal ideal, they are the meets and joins of the multinomial Newman
lattice (Bennett and Birkhoff, "Two families of Newman lattices"): the join
of two words has as its inversion set the transitive closure of the union of
theirs, computed on interleaving profiles in ``barcomb.multiperm``, and
reversing words reverses the order, so the meet of s and t is the reversed
join of their reversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations
from typing import Iterator, Sequence

import numpy as np

from . import multiperm
from .barcode import require_level_size
from .errors import InvalidLevelError, NotAnElementError, TooLargeError
from .multiperm import Multipermutation, _below, _newman_join, _word_array

DEFAULT_POSITION_CAP = 16


@dataclass(frozen=True)
class LatticeSpec:
    """Bar count n >= 1 and level k >= 0; multiplicity m = 2^k + 1.

    InvalidLevelError when n < 1 or k < 0, and TooLargeError when the words
    would have more than ``barcode.MAX_SAMPLE_POINTS`` positions, the most
    any barcode of n bars can sample at level k.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidLevelError(f"need n >= 1 bars, got {self.n}")
        require_level_size(self.n, self.k, "word positions")

    @property
    def m(self) -> int:
        return (1 << self.k) + 1

    @property
    def positions(self) -> int:
        return self.n * self.m


def top_element(spec: LatticeSpec) -> Multipermutation:
    """The fully nested word: 1..n, then 2^k copies of n down to 1.

    >>> str(top_element(LatticeSpec(3, 0)))
    '1 2 3 3 2 1'
    >>> str(top_element(LatticeSpec(3, 1)))
    '1 2 3 3 3 2 2 1 1'
    """
    word = list(range(1, spec.n + 1))
    for sym in range(spec.n, 0, -1):
        word.extend([sym] * (spec.m - 1))
    return Multipermutation(tuple(word))


def _word_stream(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The canonical words of {1^m .. n^m} with their ranks, in
    lexicographic order.

    A symbol may start only after the previous symbol has appeared, which
    yields exactly the canonical words.  The rank is carried along: placing
    symbol s adds the number of larger symbols already placed.

    The completions of a prefix, and what they add to its rank, depend only
    on the counts still to place and on the largest symbol placed.  So the
    first ceil(N/2) positions are walked once per prefix, and the words of the
    last N/2 positions are built once per such state and shared by every
    prefix that reaches it.
    """
    size = n * m
    split = size - size // 2

    def moves(rem: tuple[int, ...], seen: int):
        """Each next symbol s with the state after it and its rank step."""
        for s in range(1, min(n, seen + 1) + 1):
            left = rem[s - 1]
            if left:
                larger_placed = m * (n - s) - sum(rem[s:])
                yield s, rem[: s - 1] + (left - 1,) + rem[s:], max(seen, s), larger_placed

    tails: dict[tuple[tuple[int, ...], int], tuple[list, list]] = {}

    def tail(rem: tuple[int, ...], seen: int) -> tuple[list, list]:
        """The completions of a state and the rank each adds, in order."""
        key = (rem, seen)
        if key not in tails:
            words, steps = ([], []) if any(rem) else ([()], [0])
            for s, after, after_seen, step in moves(rem, seen):
                sub_words, sub_steps = tail(after, after_seen)
                head = (s,)
                words += [head + w for w in sub_words]
                steps += [step + r for r in sub_steps]
            tails[key] = (words, steps)
        return tails[key]

    heads: list[tuple[tuple[int, ...], tuple[int, ...], int, int]] = []

    def walk(prefix: tuple[int, ...], rem: tuple[int, ...], seen: int, rnk: int):
        if len(prefix) == split:
            heads.append((prefix, rem, seen, rnk))
            return
        for s, after, after_seen, step in moves(rem, seen):
            walk(prefix + (s,), after, after_seen, rnk + step)

    walk((), (m,) * n, 0, 0)
    for prefix, rem, seen, rnk in heads:
        words, steps = tail(rem, seen)
        yield from zip([prefix + w for w in words], [rnk + r for r in steps])


def _covers(words: Sequence[tuple[int, ...]], n: int) -> tuple[tuple[int, int], ...]:
    """Cover edges (lower index, upper index), sorted, of all canonical words
    of one shape over symbols 1..n, listed in lexicographic order.

    A cover swaps an adjacent increasing pair a < b.  The result is canonical
    unless a first occurs at that position (then b, larger, first occurs
    right after it and would move ahead of a), so the swaps kept are those
    whose a has already occurred.  Read as base-(n+1) numbers the words sort
    as they are listed, and the swap at position p adds (b - a) times
    n (n+1)^(N-2-p), so the upper index is a binary search.  The numbers are
    int64 while (n+1)^N fits, else Python integers.
    """
    symbols = _word_array(words, n)
    count, size = symbols.shape
    dtype = np.int64 if (n + 1) ** size < 2**63 else object
    keys = np.zeros(count, dtype=dtype)
    for column in symbols.T:
        keys = keys * (n + 1) + column
    seen = np.maximum.accumulate(symbols, axis=1)
    lows, highs = [], []
    for p in range(1, size - 1):
        a, b = symbols[:, p], symbols[:, p + 1]
        lower = np.flatnonzero((a < b) & (a <= seen[:, p - 1]))
        step = (b[lower] - a[lower]).astype(dtype) * (n * (n + 1) ** (size - 2 - p))
        lows.append(lower)
        highs.append(np.searchsorted(keys, keys[lower] + step))
    if not lows:
        return ()
    low, high = np.concatenate(lows), np.concatenate(highs)
    order = np.lexsort((high, low))
    index = np.array(range(count), dtype=object)  # covers share one int per element
    return tuple(zip(index[low[order]], index[high[order]]))


def _digits(field: np.ndarray) -> int:
    """At least the decimal digits of every entry of an integer array: 256 <
    1000, so at most three per byte of a fixed-width dtype."""
    return len(str(field.max())) if field.dtype == object else 3 * field.itemsize


def _text(rows: int, fields: Sequence[str | np.ndarray]) -> str:
    """``rows`` lines of text, each the concatenation of ``fields``.

    A field is a constant ASCII string without NUL, the same on every row,
    or an array of ``rows`` non-negative integers written in decimal:
    unsigned, int64 or Python integers, but no uint64 beside a signed dtype,
    which numpy would stack as floats.  The rows are laid out as the rows of
    a ``uint8`` matrix, in blocks of at most ``multiperm._CELLS`` bytes:
    every row of a block starts as a copy of one template row that holds the
    constants, and each integer is right-aligned in as many columns as the
    largest of its field in the block has digits, after NUL bytes.  Dropping
    the NUL bytes leaves the text.

    >>> _text(3, ["n", np.array([0, 7, 12]), " -> ", np.array([5, 10, 9]), ";"])
    'n0 -> 5;n7 -> 10;n12 -> 9;'
    """
    numbers = [field for field in fields if not isinstance(field, str)]
    if not numbers:
        return "".join(fields) * rows
    constants = sum(len(field) for field in fields if isinstance(field, str))
    bound = constants + sum(map(_digits, numbers))
    step = multiperm._CELLS // bound or 1
    parts = []
    for lo in range(0, rows, step):
        values = np.array([field[lo : lo + step] for field in numbers])  # a row each
        sizes = [len(str(top)) for top in values.max(axis=1).tolist()]
        template, ends = b"", []  # ends: the last column of each number
        digits = iter(sizes)
        for field in fields:
            if isinstance(field, str):
                template += field.encode("ascii")
            else:
                template += bytes(next(digits))
                ends.append(len(template) - 1)
        text = bytearray(template) * values.shape[1]
        block = np.frombuffer(text, np.uint8).reshape(-1, len(template))
        for place in range(max(sizes)):  # one column of digits, right to left
            if place:
                longer = [i for i, size in enumerate(sizes) if size > place]
                values, sizes = values[longer], [sizes[i] for i in longer]
                ends = [ends[i] - 1 for i in longer]
            tens = values // 10
            codes = values - tens * 10 + 48  # the digit's ASCII code
            if place:
                codes *= values > 0  # NUL before the leading digit
            block[:, ends] = codes.T
            values = tens
        parts.append(text.translate(None, b"\0"))
    return b"".join(parts).decode("ascii")


@dataclass(frozen=True)
class HasseDiagram:
    """An enumerated barcode lattice with cover edges and rank labels."""

    spec: LatticeSpec
    elements: tuple[Multipermutation, ...]
    covers: tuple[tuple[int, int], ...]  # (lower index, upper index)
    ranks: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {s.word: i for i, s in enumerate(self.elements)}

    def index_of(self, s: Multipermutation) -> int:
        try:
            return self._index[s.word]
        except KeyError:
            raise NotAnElementError(f"{s} is not an element of this lattice") from None

    def __contains__(self, s: Multipermutation) -> bool:
        return s.word in self._index

    def meet(self, s: Multipermutation, t: Multipermutation) -> Multipermutation:
        """Greatest common lower bound; the module-level ``meet``."""
        return meet(s, t, self.spec, self.spec.positions)

    def join(self, s: Multipermutation, t: Multipermutation) -> Multipermutation:
        """Least common upper bound; the module-level ``join``."""
        return join(s, t, self.spec, self.spec.positions)

    def rank_vector(self) -> list[int]:
        """Element counts per rank, bottom to top."""
        return np.bincount(self.ranks).tolist()

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The words and the covers, one row each, and the ranks, as arrays
        for the emitters; covers and ranks in the narrowest unsigned dtype
        that holds them."""
        words = _word_array([s.word for s in self.elements], self.spec.n)
        pairs = chain.from_iterable(self.covers)
        covers = np.fromiter(pairs, np.int64, 2 * len(self.covers))
        ranks = np.array(self.ranks, dtype=np.int64)
        return (
            words,
            covers.astype(np.min_scalar_type(covers.max(initial=0))).reshape(-1, 2),
            ranks.astype(np.min_scalar_type(ranks.max(initial=0))),
        )

    def to_dot(self) -> str:
        """Graphviz source; node ids are the lexicographic element indices."""
        words, covers, ranks = self._arrays
        count = len(words)
        index = np.arange(count, dtype=np.min_scalar_type(count))
        label = _joined(words, " ")
        nodes = _text(
            count, ["  n", index, ' [label="', *label, " (rank ", ranks, ')"];\n']
        )
        edges = _text(len(covers), ["  n", covers[:, 0], " -> n", covers[:, 1], ";\n"])
        return "digraph hasse {\n  rankdir=BT;\n" + nodes + edges + "}\n"

    def to_json_dict(self) -> dict:
        return {
            "elements": [list(s.word) for s in self.elements],
            "covers": [list(edge) for edge in self.covers],
            "ranks": list(self.ranks),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict())``, written from the arrays."""
        words, covers, ranks = self._arrays
        return (
            f'{{"elements": {_json_rows(words)}, "covers": {_json_rows(covers)}, '
            f'"ranks": [{_text(len(ranks), [ranks, ", "])[:-2]}]}}'
        )


def _joined(rows: np.ndarray, separator: str) -> list:
    """The columns of an integer matrix as ``_text`` fields, with
    ``separator`` between them."""
    return [field for column in rows.T for field in (separator, column)][1:]


def _json_rows(rows: np.ndarray) -> str:
    """An integer matrix as ``json.dumps`` writes a list of its rows."""
    return "[" + _text(len(rows), ["[", *_joined(rows, ", "), "], "])[:-2] + "]"


def _check_cap(spec: LatticeSpec, cap: int) -> None:
    if spec.positions > cap:
        raise TooLargeError(
            f"lattice needs {spec.positions} positions, cap is {cap}"
        )


def enumerate_lattice(
    spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP
) -> HasseDiagram:
    """All canonical words with cover edges and ranks, in lexicographic order."""
    _check_cap(spec, cap)
    words, ranks = zip(*_word_stream(spec.n, spec.m))
    elements = tuple(map(Multipermutation._of_valid_word, words))
    return HasseDiagram(spec, elements, _covers(words, spec.n), ranks)


def _element_word(s: Multipermutation, spec: LatticeSpec) -> tuple[int, ...]:
    if s.n != spec.n or s.m != spec.m or not s.is_canonical:
        raise NotAnElementError(f"{s} is not an element of the lattice {spec}")
    return s.word


def meet(
    s: Multipermutation,
    t: Multipermutation,
    spec: LatticeSpec,
    cap: int = DEFAULT_POSITION_CAP,
) -> Multipermutation:
    """Greatest common lower bound: the reversed join of the reversals."""
    _check_cap(spec, cap)
    a, b = _element_word(s, spec), _element_word(t, spec)
    return Multipermutation(_newman_join(a[::-1], b[::-1], spec.n)[::-1])


def join(
    s: Multipermutation,
    t: Multipermutation,
    spec: LatticeSpec,
    cap: int = DEFAULT_POSITION_CAP,
) -> Multipermutation:
    """Least common upper bound, from the closed union of inversion sets."""
    _check_cap(spec, cap)
    a, b = _element_word(s, spec), _element_word(t, spec)
    return Multipermutation(_newman_join(a, b, spec.n))


def rank_vector(spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP) -> list[int]:
    """Element counts per rank, bottom to top."""
    _check_cap(spec, cap)
    return np.bincount([r for _, r in _word_stream(spec.n, spec.m)]).tolist()


@dataclass(frozen=True)
class IdealReport:
    """Result of checking canonical words against the ideal below the top."""

    spec: LatticeSpec
    canonical_count: int
    ideal_count: int
    total_words: int
    equal: bool
    missing: tuple[tuple[int, ...], ...]  # in ideal, not canonical
    extra: tuple[tuple[int, ...], ...]  # canonical, not in ideal

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "k": self.spec.k,
            "canonical_count": self.canonical_count,
            "ideal_count": self.ideal_count,
            "total_words": self.total_words,
            "equal": self.equal,
            "missing": [list(w) for w in self.missing],
            "extra": [list(w) for w in self.extra],
        }


def verify_ideal_isomorphism(
    spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP
) -> IdealReport:
    """Check that canonical words are exactly the ideal below the top.

    Every word of the full multinomial Newman lattice is exactly one
    relabeling of exactly one canonical word, and only the identity keeps a
    word canonical.  So the canonical words, relabeled by each of the n!
    symbol permutations in turn, cover the full lattice once, and each batch
    is tested against the fully nested word with the Newman test of
    ``newman_leq``.  The identity comes first: its words not below the top
    are ``extra``; the words below the top from any other relabeling are
    ``missing``.
    """
    _check_cap(spec, cap)
    n = spec.n
    top = top_element(spec).word
    words = _word_array([w for w, _ in _word_stream(n, spec.m)], n)
    identity = tuple(range(1, n + 1))
    ideal, total, missing = 0, 0, []
    for p in permutations(identity):
        batch = np.array((0, *p), dtype=words.dtype)[words]
        below = _below(batch, top, n)
        ideal += int(below.sum())
        if p == identity:  # comes first
            extra = tuple(map(tuple, batch[~below].tolist()))
        else:
            missing += map(tuple, batch[below].tolist())
        total += len(batch)
    return IdealReport(
        spec=spec,
        canonical_count=len(words),
        ideal_count=ideal,
        total_words=total,
        equal=not missing and not extra,
        missing=tuple(sorted(missing)),
        extra=extra,
    )
