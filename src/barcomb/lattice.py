"""Enumeration of the power-k barcode lattices, and their meets and joins.

The level-k lattice on n bars consists of all canonical multipermutations
with alphabet size n and multiplicity m = 2^k + 1, ordered by the Newman
relation.  Equivalently it is the principal ideal below the fully nested
word inside the full multinomial Newman lattice: the top's profile is 0 at
every first copy and m at every later one, so a word lies below it exactly
when no larger symbol precedes one of its first copies, which is when it is
canonical.  ``verify_ideal_isomorphism`` checks that shape on the top's
profile and takes the counts from the multinomial formula, enumerating
nothing; the tests keep the sweep over every relabeling of every canonical
word as its oracle.

An enumerated lattice is arrays end to end.  One private builder,
``_word_table``, returns the words as the rows of one array in
lexicographic order, with their ranks, so indices, Hasse diagrams, vertex
vectors and DOT/JSON output are byte-stable.  It builds them in one
backward pass: the copies left of each symbol are the whole state of a
canonical prefix, and each state's completions are copied from those of
the states one copy below it, so no prefix is walked and a long word of
few symbols costs memory linear in its length.  It numbers the copies of
each symbol as ``iota`` does, so its rows are the polytope's vertices, and
``_label_words`` reads the words from them.  Covers are adjacent swaps of
an increasing symbol pair whose result is still canonical; ``_covers``
writes them as (lower index, upper index) rows of one array, found by
binary search over the words read as numbers, one pass per position that
holds a swap, and ``index_of`` searches the same numbers.  A diagram holds
the words, covers and ranks as arrays, and builds its tuples of elements,
covers and ranks only when they are asked for.

The DOT and JSON emitters, the vertex writers of ``barcomb.polytope`` and
the word that ``barcomb invariant`` prints format no line in Python.  One
private kernel, ``_text_blocks``, writes each table from the arrays: the
rows are the rows of a byte matrix that starts from the constant text, the
integer columns get their decimal digits one digit column at a time, and
dropping the NUL padding leaves the text, equal byte for byte to
``json.dumps`` and to per-line f-strings.  The text comes in blocks of a few
MB (``HasseDiagram.dot_chunks`` and ``json_chunks``, and the vertex writers'
chunks), so a large diagram or vertex table can be written without holding
all of it.

Meets and joins need no enumeration.  Because the canonical words are a
principal ideal, they are the meets and joins of the multinomial Newman
lattice (Bennett and Birkhoff, "Two families of Newman lattices"): the join
of two words has as its inversion set the transitive closure of the union of
theirs, and reversing words reverses the order, so the meet of s and t is
the reversed join of their reversals.  ``barcomb.multiperm`` closes the
union on the word tuples as Python int rows (``_join_words``), at any word
length.
"""

from __future__ import annotations

import gc
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product, repeat
from typing import Iterator, Sequence

import numpy as np

from . import multiperm
from .barcode import require_level_size
from .errors import InvalidLevelError, NotAnElementError, TooLargeError
from .multiperm import Multipermutation, _frozen, _join_words, _profiles, _word_array

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
    symbols = _word_array(range(1, spec.n + 1), spec.n)
    word = np.concatenate((symbols, np.repeat(symbols[::-1], spec.m - 1)))
    return Multipermutation._of_array(word, spec.n, canonical=True)


def _word_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical words of {1^m .. n^m} in lexicographic order, as the
    rows of a count x N array of copy labels (copy r of symbol s is
    (s - 1) * m + r) in the narrowest unsigned dtype that holds N, and their
    ranks in the narrowest unsigned dtype that holds the top's.

    A symbol may start only after the previous symbol has appeared, which
    yields exactly the canonical words.  The next symbol, its label and its
    rank step depend only on the copies left of each symbol: with ``left``
    copies of s to place the next is copy m - left + 1, placing s adds the
    number of larger symbols already placed, m (n - s) less their copies
    left, and s may come next when it has copies left and s - 1 has
    appeared.  The symbols that have appeared are 1..t, each with fewer than
    m copies left, and the rest have all m, so the copies-left tuple also
    tells which have appeared, and it is the whole state.  The states are
    those tuples for t = 0..n.

    Each state's completions are built once, as one label array and one
    rank array, from the completions of the states one copy below it, in
    increasing order of the symbol placed, so they come out in
    lexicographic order.  The states are taken in increasing total of
    copies left, and only the states one copy below are kept.  Those arrays
    are column-major, so that prepending a column copies whole columns.
    The top, the state with every copy left, has one move, copy 1 of
    symbol 1 at rank step 0, and one state one copy below it,
    (m - 1, m, .., m).  That state writes its completions straight into
    columns 1.. of the row-major table, as its readers take rows, and the
    top only sets column 0, so the peak is the table and the level below
    it: 38.8 MiB traced for the 20 MiB of labels of n = 5, m = 3, where a
    separate top copy made it 57.5 MiB.  Nothing recurses, so N meets no
    depth limit.
    """
    size = n * m
    label = np.min_scalar_type(size)
    rank = np.min_scalar_type(n * (n - 1) // 2 * (m - 1) * m)
    levels = [[] for _ in range(size + 1)]  # the states by total copies left
    for started in range(n + 1):
        for head in product(range(m), repeat=started):
            state = head + (m,) * (n - started)
            levels[sum(state)].append(state)
    below = {(0,) * n: (np.empty((1, 0), label), np.zeros(1, rank))}  # all placed
    for left in range(1, size - 1):
        tables = {}
        for state in levels[left]:
            started = n - state.count(m)  # symbols 1..started have appeared
            nexts = [s for s in range(min(n, started + 1)) if state[s]]  # symbol s + 1
            subs = [below[state[:s] + (state[s] - 1,) + state[s + 1 :]] for s in nexts]
            count = sum(len(sub_ranks) for _, sub_ranks in subs)
            labels = np.empty((count, left), label, order="F")
            ranks = np.empty(count, rank)
            lo = 0
            for s, (sub_labels, sub_ranks) in zip(nexts, subs):
                hi = lo + len(sub_ranks)
                labels[lo:hi, 0] = (s + 1) * m - state[s] + 1
                labels[lo:hi, 1:] = sub_labels
                np.add(sub_ranks, m * (n - 1 - s) - sum(state[s + 1 :]), out=ranks[lo:hi])
                lo = hi
            tables[state] = labels, ranks
        del subs, sub_labels, sub_ranks  # the last state's hold on the level below
        below = tables
    # The one state one copy below the top, (m - 1, m, .., m), places copy 2
    # of symbol 1 or copy 1 of symbol 2, from the one or two states left in
    # ``below``, and the top's one move places copy 1 of symbol 1.  No larger
    # symbol has appeared at either, so every rank step is 0.
    keys = [(m - 2,) + (m,) * (n - 1), (m - 1, m - 1) + (m,) * (n - 2)][:n]
    table = np.empty((sum(len(below[key][1]) for key in keys), size), label)
    table[:, 0] = 1
    ranks, lo = [], 0
    for key, head in zip(keys, (2, m + 1)):
        sub_labels, sub_ranks = below.pop(key)  # freed once copied
        hi = lo + len(sub_ranks)
        table[lo:hi, 1] = head
        table[lo:hi, 2:] = sub_labels
        ranks.append(sub_ranks)
        lo = hi
    return table, np.concatenate(ranks)


def _label_words(labels, m: int) -> np.ndarray:
    """Rows of ``_word_table``'s copy labels as the words they label."""
    symbols = (np.asarray(labels) - 1) // m + 1
    return _word_array(symbols, int(symbols.max(initial=0)))


def _word_keys(words: np.ndarray, n: int) -> np.ndarray:
    """Words over symbols 1..n, one row each, read as base-(n+1) numbers,
    which sort as the words do.

    While (n+1)^N fits int64, each row's product with the place values
    (n+1)^(N-1-p), a running product; ``einsum`` casts the words a buffer at
    a time, so no wide copy of a large table is made.  Past int64 the keys
    are Python integers built by Horner's rule, the keys times n + 1 plus
    the next column, so nothing of N·log2(n+1) bits is held beside them:
    the N place values would take N²·log2(n+1)/2 bits."""
    size = words.shape[1]
    if (n + 1) ** size >= 2**63:
        keys = np.zeros(len(words), dtype=object)
        for column in words.T:
            keys = keys * (n + 1) + column
        return keys
    places = list(accumulate(repeat(n + 1, size - 1), operator.mul, initial=1))[::-1]
    return np.einsum("ij,j->i", words, np.array(places, dtype=np.int64))


def _covers(words: np.ndarray, n: int) -> np.ndarray:
    """Cover edges of all canonical words of one shape over symbols 1..n,
    given as rows in lexicographic order: one (lower index, upper index) row
    each, sorted, in the narrowest unsigned dtype.

    A cover swaps an adjacent increasing pair a < b.  The result is canonical
    unless a first occurs at that position (then b, larger, first occurs
    right after it and would move ahead of a), so the swaps kept are those
    whose a has already occurred.  The swap at position p adds (b - a) times
    n (n+1)^(N-2-p) to the word's key (``_word_keys``), so the upper index
    is a binary search.  Each element's covers get consecutive rows, after
    those of the elements before it; a swap further left gives a larger
    word, so filling them from the rightmost position lists them in
    increasing order, and nothing needs sorting.
    """
    count, size = words.shape
    keys = _word_keys(words, n)
    seen = np.maximum.accumulate(words, axis=1)
    inner = words[:, 1:-1]
    swaps = (inner < words[:, 2:]) & (inner <= seen[:, :-2])  # column p - 1: position p
    del seen
    per_element = swaps.sum(axis=1)
    free = np.cumsum(per_element) - per_element  # each element's next row
    pairs = np.empty((int(per_element.sum()), 2), np.min_scalar_type(max(count - 1, 0)))
    held = np.flatnonzero(swaps.any(axis=0)) + 1  # the positions that hold a swap
    for p in held[::-1].tolist():
        lower = np.flatnonzero(swaps[:, p - 1])
        a, b = words[lower, p], words[lower, p + 1]
        step = (b - a).astype(keys.dtype) * (n * (n + 1) ** (size - 2 - p))
        rows = free[lower]
        pairs[rows, 0] = lower
        pairs[rows, 1] = np.searchsorted(keys, keys[lower] + step)
        free[lower] += 1
    return pairs


def _digits(field: np.ndarray) -> int:
    """At least the decimal digits of every entry of an integer array: 256 <
    1000, so at most three per byte of a fixed-width dtype."""
    return len(str(field.max())) if field.dtype == object else 3 * field.itemsize


def _text_blocks(rows: int, fields: Sequence[str | np.ndarray]) -> Iterator[str]:
    """``rows`` lines of text, each the concatenation of ``fields``, in
    blocks of whole lines.

    A field is a constant ASCII string without NUL, the same on every row,
    or an array of ``rows`` non-negative integers written in decimal:
    unsigned, int64 or Python integers, but no uint64 beside a signed dtype,
    which numpy would stack as floats.  The rows are laid out as the rows of
    a ``uint8`` matrix, in blocks of at most ``multiperm._CELLS`` bytes:
    every row of a block starts as a copy of one template row that holds the
    constants, and each integer is right-aligned in as many columns as the
    largest of its field in the block has digits, after NUL bytes.  Dropping
    the NUL bytes leaves the text.

    >>> fields = ["n", np.array([0, 7, 12]), " -> ", np.array([5, 10, 9]), ";"]
    >>> "".join(_text_blocks(3, fields))
    'n0 -> 5;n7 -> 10;n12 -> 9;'
    """
    numbers = [field for field in fields if not isinstance(field, str)]
    if not numbers:
        yield "".join(fields) * rows
        return
    constants = sum(len(field) for field in fields if isinstance(field, str))
    bound = constants + sum(map(_digits, numbers))
    step = multiperm._CELLS // bound or 1
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
        yield text.translate(None, b"\0").decode("ascii")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a table becomes tuples or
    elements: they hold no reference cycles, so its passes, one per 700 new
    objects, would walk the heap and find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _narrowest(values) -> np.ndarray:
    """Non-negative integers as an array of the narrowest unsigned dtype that
    holds them, so equal values have equal bytes; ValueError on a negative
    one, which the cast would wrap."""
    values = np.asarray(values)
    if values.min(initial=0) < 0:
        raise ValueError(f"need non-negative integers, got {values.min()}")
    return values.astype(np.min_scalar_type(int(values.max(initial=0))), copy=False)


class HasseDiagram:
    """An enumerated barcode lattice, held as three arrays: ``words``, one
    row per element in ``_word_array``'s dtype; ``cover_array``, one
    (lower index, upper index) row per cover edge; and ``rank_array``, the
    rank of each element.  Covers and ranks take the narrowest unsigned
    dtype that holds them.

    ``elements`` (``Multipermutation`` values), ``covers`` (pairs of ints)
    and ``ranks`` are tuples built from the arrays on first use; each
    element leaves its memo to its own first use.  Diagrams
    are equal when their specs and arrays are, and hash alike then.
    ``index_of`` and ``in`` binary-search the words, so they need them in
    lexicographic order, as ``enumerate_lattice`` lists them; a value that
    is no ``Multipermutation`` is not in the diagram.
    """

    def __init__(self, spec: LatticeSpec, words, covers, ranks):
        self.spec = spec
        self.words = _frozen(_word_array(words, spec.n))
        self.cover_array = _frozen(_narrowest(covers).reshape(-1, 2))
        self.rank_array = _frozen(_narrowest(ranks))

    def _fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.words, self.cover_array, self.rank_array

    def __eq__(self, other):
        if not isinstance(other, HasseDiagram):
            return NotImplemented
        pairs = zip(self._fields(), other._fields())
        return self.spec == other.spec and all(np.array_equal(a, b) for a, b in pairs)

    def __hash__(self) -> int:
        return hash((self.spec, self.words.shape, *(a.tobytes() for a in self._fields())))

    def __repr__(self) -> str:
        return (
            f"HasseDiagram({self.spec}, {len(self.words)} elements, "
            f"{len(self.cover_array)} covers)"
        )

    @cached_property
    def elements(self) -> tuple[Multipermutation, ...]:
        with _collector_paused():
            words = tuple(zip(*self.words.T.tolist()))  # each row as a tuple
            return Multipermutation._of_valid_words(words)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:  # (lower index, upper index)
        count = len(self.words)
        shared = np.arange(max(count, 1)).astype(object)  # one int per element

        def indices(column: np.ndarray) -> list:
            ints = shared.take(column, mode="clip")
            far = np.flatnonzero(column >= count)  # only in hand-built diagrams
            ints[far] = column[far].tolist()
            return ints.tolist()

        with _collector_paused():
            return tuple(zip(*map(indices, self.cover_array.T)))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self.rank_array.tolist())

    @cached_property
    def _keys(self) -> np.ndarray:
        return _word_keys(self.words, self.spec.n)

    def _find(self, s) -> int | None:
        """The index of ``s`` among the words, or None, also when ``s`` is
        no ``Multipermutation``."""
        n = self.spec.n
        if (
            not isinstance(s, Multipermutation)
            or len(s.word) != self.words.shape[1]
            or s.n > n
        ):
            return None
        (key,) = _word_keys(s._array[None], n)
        at = int(np.searchsorted(self._keys, key))
        return at if at < len(self._keys) and self._keys[at] == key else None

    def index_of(self, s: Multipermutation) -> int:
        at = self._find(s)
        if at is None:
            raise NotAnElementError(f"{s} is not an element of this lattice")
        return at

    def __contains__(self, s) -> bool:
        return self._find(s) is not None

    def meet(self, s: Multipermutation, t: Multipermutation) -> Multipermutation:
        """Greatest common lower bound; the module-level ``meet``."""
        return meet(s, t, self.spec, self.spec.positions)

    def join(self, s: Multipermutation, t: Multipermutation) -> Multipermutation:
        """Least common upper bound; the module-level ``join``."""
        return join(s, t, self.spec, self.spec.positions)

    def rank_vector(self) -> list[int]:
        """Element counts per rank, bottom to top."""
        return np.bincount(self.rank_array).tolist()

    def dot_chunks(self) -> Iterator[str]:
        """``to_dot`` in pieces of at most a few MB, so that a large diagram
        can be written without holding its whole text."""
        words, covers, ranks = self._fields()
        count = len(words)
        index = np.arange(count, dtype=np.min_scalar_type(count))
        label = _joined(words, " ")
        yield "digraph hasse {\n  rankdir=BT;\n"
        yield from _text_blocks(
            count, ["  n", index, ' [label="', *label, " (rank ", ranks, ')"];\n']
        )
        yield from _text_blocks(
            len(covers), ["  n", covers[:, 0], " -> n", covers[:, 1], ";\n"]
        )
        yield "}\n"

    def to_dot(self) -> str:
        """Graphviz source; node ids are the lexicographic element indices."""
        return "".join(self.dot_chunks())

    def json_chunks(self) -> Iterator[str]:
        """``to_json`` in pieces of at most a few MB, like ``dot_chunks``."""
        words, covers, ranks = self._fields()
        yield '{"elements": '
        yield from _json_rows(words)
        yield ', "covers": '
        yield from _json_rows(covers)
        yield ', "ranks": '
        yield from _json_list(len(ranks), [ranks])
        yield "}"

    def to_json(self) -> str:
        """``json.dumps`` of ``{"elements": ..., "covers": ..., "ranks": ...}``,
        the three arrays as lists, written from the arrays."""
        return "".join(self.json_chunks())


def _joined(rows: np.ndarray, separator: str) -> list:
    """The columns of an integer matrix as ``_text_blocks`` fields, with
    ``separator`` between them."""
    return [field for column in rows.T for field in (separator, column)][1:]


def _json_list(rows: int, fields: Sequence[str | np.ndarray]) -> Iterator[str]:
    """``rows`` values, each the concatenation of ``fields``, as
    ``json.dumps`` writes a list of them, in pieces: every value follows a
    ", ", which the first block drops."""
    yield "["
    for i, block in enumerate(_text_blocks(rows, [", ", *fields])):
        yield block if i else block[2:]
    yield "]"


def _json_rows(rows: np.ndarray) -> Iterator[str]:
    """An integer matrix as ``json.dumps`` writes a list of its rows, in
    pieces."""
    return _json_list(len(rows), ["[", *_joined(rows, ", "), "]"])


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
    labels, ranks = _word_table(spec.n, spec.m)
    words = _label_words(labels, spec.m)
    return HasseDiagram(spec, words, _covers(words, spec.n), ranks)


def _check_element(s: Multipermutation, spec: LatticeSpec) -> None:
    if s.n != spec.n or s.m != spec.m or not s.is_canonical:
        raise NotAnElementError(f"{s} is not an element of the lattice {spec}")


def _join(
    s: Multipermutation, t: Multipermutation, spec: LatticeSpec, reverse: bool
) -> Multipermutation:
    """The join of two elements, or with ``reverse`` the reversed join of
    their reversals, their meet, joined on their tuples by ``_join_words``,
    with its memo filled."""
    _check_element(s, spec)
    _check_element(t, spec)
    step = -1 if reverse else 1
    word = _join_words(s.word[::step], t.word[::step], spec.n)[::step]
    return Multipermutation._of_array(_word_array(word, spec.n), spec.n, canonical=True)


def meet(
    s: Multipermutation,
    t: Multipermutation,
    spec: LatticeSpec,
    cap: int = DEFAULT_POSITION_CAP,
) -> Multipermutation:
    """Greatest common lower bound: the reversed join of the reversals."""
    _check_cap(spec, cap)
    return _join(s, t, spec, reverse=True)


def join(
    s: Multipermutation,
    t: Multipermutation,
    spec: LatticeSpec,
    cap: int = DEFAULT_POSITION_CAP,
) -> Multipermutation:
    """Least common upper bound, from the closed union of inversion sets."""
    _check_cap(spec, cap)
    return _join(s, t, spec, reverse=False)


def rank_vector(spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP) -> list[int]:
    """Element counts per rank, bottom to top."""
    _check_cap(spec, cap)
    return np.bincount(_word_table(spec.n, spec.m)[1]).tolist()


@dataclass(frozen=True)
class IdealReport:
    """Result of checking canonical words against the ideal below the top:
    ``ideal_count`` is None when the top does not have the nested profile."""

    spec: LatticeSpec
    canonical_count: int
    ideal_count: int | None
    total_words: int
    equal: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "k": self.spec.k,
            "canonical_count": self.canonical_count,
            "ideal_count": self.ideal_count,
            "total_words": self.total_words,
            "equal": self.equal,
        }


def verify_ideal_isomorphism(spec: LatticeSpec) -> IdealReport:
    """Check that canonical words are exactly the ideal below the top.

    A word is at or below another when its larger-pair profile
    (``_profiles``) is at most the other's at every entry.  In the top
    ``1 2 .. n n .. n .. 1 .. 1`` no larger symbol stands before a first
    copy, and every copy of every larger symbol stands before every later
    copy, so its profile is 0 at each first copy and m, which bounds
    nothing, at each later one.  So a word lies at or below the top exactly
    when no larger symbol precedes one of its first copies: when it is
    canonical.

    The check compares the top's profile, read in blocks of symbol columns
    within ``multiperm._CELLS`` entries, with that nested shape, and takes
    the counts from formulas: the shape has N!/(m!)^n words, the product of
    C(s·m, m) over s = 2..n, and relabeling acts freely on them, as first
    occurrences tell the symbols apart, so each orbit of n! words holds one
    canonical word.  ``ideal_count`` is the canonical count when the shape
    holds and None otherwise.  Nothing is enumerated, so no position cap
    applies; the tests keep the sweep over every relabeling of every
    canonical word as the oracle.
    """
    n, m = spec.n, spec.m
    symbols = np.arange(n)
    later = np.arange(m)[:, None] > 0  # every copy but the first
    nested = True
    for lo, block in _profiles(top_element(spec)._array[None], n):
        larger = symbols[lo : lo + block.shape[-1]] > symbols[:, None, None]
        nested &= bool((block[0] == m * (larger & later)).all())
    total = math.prod(math.comb(s * m, m) for s in range(2, n + 1))
    canonical = total // math.factorial(n)
    return IdealReport(spec, canonical, canonical if nested else None, total, nested)
