"""Multipermutation algebra behind the barcode invariants.

A multipermutation over alphabet {1..n} with uniform multiplicity m is a word
of length n*m in which every symbol occurs exactly m times.  The embedding
``iota`` distinguishes the copies of each symbol: the r-th occurrence of i
becomes i_r, copies of a symbol always staying in increasing copy order.

A ``Multipermutation`` holds its word as a tuple of ints, which is its
value: equality, hashing, ``repr`` and ``.word`` read the tuple alone.
Beside it each word keeps a memo of what the kernels ask for again and
again: ``n``, whether it ``is_canonical``, and its word as a read-only array
in ``_word_array``'s dtype.  Each is worked out at most once per word, and
not at all where a constructor knows it already: ``f_k``, ``g_k``,
``canonicalize`` and ``delta_k`` fill it from the arrays they compute; the
lattice's meet and join fill ``n`` and ``is_canonical`` and leave the array
to first use.  The array costs N·itemsize bytes beside the tuple, one byte
per position while n < 256.

Every order question reads one encoding of a word, its *interleaving
profile*: for each symbol i, each copy of i and each larger symbol j, the
number of copies of j that precede that copy of i.  Copies of j stay in
order, so the profile is exactly the inversion set of ``iota(s)``, and

* ``rank`` is the profile's total, the inversion count of the word;
* ``inversion_multiset`` sums the profile over copies, and ``prec`` compares
  those sums;
* ``newman_leq``, the multinomial Newman order (s <= t iff the inversion set
  of iota(s) is contained in that of iota(t)), compares profiles entrywise.

``rank``, the orders, ``inversion_multiset`` and the lattice's ideal check
read the profile from one numpy kernel, ``_profiles``, that builds it for a
batch of words: a scattered one-hot of the symbols, one ``cumsum`` along the
word and one gather at the positions of the copies.  For the orders and
``rank`` it zeroes every entry but those of larger symbols, so they compare
and sum whole arrays.
Words reach it as their memo's array, and symbols and counts take the
smallest unsigned dtype that holds n and m.  Memory is bounded by ``_CELLS``
one-hot entries: long words are walked in blocks of symbol columns.
``rank`` and ``inversion_multiset`` read every column, block by block in
column order.  The order tests read the column of the largest symbol first
(``_densest_first``): it holds (n - 1)·m entries per word, the most of any
column, and two independent words almost always fail there, so one kernel
call on one column refuses them.  Only then come
the other columns, in blocks, and a test stops at the first block where it
fails.  The lattice's ideal check reads whole profiles of chunks of words
instead, over every symbol pair, from one kernel call per chunk that zeroes
no entry.

The join of two words has as its inversion set the transitive closure of
the union of theirs (Markowsky, "Permutation lattices revisited").  One
kernel, ``_join_words``, closes that union on the word tuples: it holds
each copy's row of larger copies before it as a Python int, closes the rows
from the largest copy down with one closed row ORed per symbol block, and
inserts each copy into the word as its row is closed; it calls no numpy.
``barcomb.lattice`` builds meet and join on it.

A word is *canonical* when the first occurrences of 1, 2, ..., n appear in
that order; canonical words are exactly the orbit representatives under
symbol relabeling, so orbits are always materialized as their canonical
representative and never as a separate type.

Barcode maps: ``f_k`` reads off the bar labels of the sorted level-k sample
points of a k-strict barcode, an array that ``require_k_strict`` sorts once;
``g_k`` is its canonicalization, the labeling- and scale-invariant of the
barcode at level k, relabeled on the array by ``_canonical``, the one
first-occurrence relabeling that ``canonicalize`` uses too.  The
death-order permutation ``phi`` is read off g_0.  ``delta_k`` and
``phi`` read copy indices from one stable argsort (``_copies``).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .barcode import Barcode, require_k_strict
from .errors import InvalidWordError, NotCanonicalError, ShapeMismatchError

# One-hot entries per block of ``_profiles``: a few MB at one byte each.
_CELLS = 1 << 22


class _once:
    """A method whose result is stored on the instance at its first call, so
    later reads are plain attribute reads: ``functools.cached_property``
    without the lock it holds before Python 3.12, which costs more than
    working out a short word's memo itself."""

    def __init__(self, method):
        self.method, self.name, self.__doc__ = method, method.__name__, method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


@dataclass(frozen=True)
class Multipermutation:
    """A word over {1..n} in which every symbol occurs exactly m times.

    The tuple ``word`` is the value that equality, hashing and ``repr``
    read.  Beside it a memo holds ``n``, ``is_canonical`` and ``_array``, the
    read-only word array the kernels read, each worked out at most once; the
    array takes N·itemsize bytes beside the tuple.

    >>> s = Multipermutation((1, 2, 1, 3, 3, 2))
    >>> s.n, s.m
    (3, 2)
    >>> str(s)
    '1 2 1 3 3 2'
    """

    word: tuple[int, ...]

    def __post_init__(self):
        word = _integers(self.word, "symbols")
        object.__setattr__(self, "word", word)
        if not word:
            raise InvalidWordError("empty word")
        counts = Counter(word)
        n = len(counts)
        if counts.keys() != set(range(1, n + 1)):
            raise InvalidWordError(f"symbols must be 1..n for some n: {word}")
        m = len(word) // n
        if any(c != m for c in counts.values()):
            raise InvalidWordError(f"multiplicities must be uniform: {word}")

    @classmethod
    def _of_valid_word(cls, word: tuple[int, ...], **memo) -> "Multipermutation":
        """Wrap a tuple already known to be a valid word, skipping the checks,
        with whatever ``memo`` entries the caller knows already."""
        s = object.__new__(cls)
        object.__setattr__(s, "word", word)
        s.__dict__.update(memo)
        return s

    @classmethod
    def _of_valid_words(cls, words: Sequence[tuple[int, ...]]) -> tuple["Multipermutation", ...]:
        """``_of_valid_word`` of each word, built in one batch: no Python
        frame runs per word, and each memo is left to first use."""
        batch = tuple(map(object.__new__, repeat(cls, len(words))))
        deque(map(object.__setattr__, batch, repeat("word"), words), 0)
        return batch

    @classmethod
    def _of_array(
        cls, array: np.ndarray, n: int, canonical: bool | None = None
    ) -> "Multipermutation":
        """Wrap a valid word over {1..n}, given as a 1-D array in
        ``_word_array``'s dtype, with its memo filled: ``n``, a read-only
        view of the array and, unless ``canonical`` is None, whether the
        word is canonical."""
        array = _frozen(array)
        s = cls._of_valid_word(tuple(array.tolist()), n=n, _array=array)
        if canonical is not None:
            s.__dict__["is_canonical"] = canonical
        return s

    @_once
    def n(self) -> int:
        return max(self.word)

    @property
    def m(self) -> int:
        return len(self.word) // self.n

    @_once
    def is_canonical(self) -> bool:
        """True iff first occurrences of 1..n appear in increasing order."""
        return all(sym == r for r, sym in enumerate(dict.fromkeys(self.word), start=1))

    @_once
    def _array(self) -> np.ndarray:
        """The word as a read-only array in ``_word_array``'s dtype."""
        return _frozen(_word_array(self.word, self.n))

    def __getstate__(self) -> dict:
        """Copies and pickles carry the value alone: a copy works out its
        memo again, so its array is read-only too."""
        return {"word": self.word}

    def __str__(self) -> str:
        return " ".join(map(str, self.word))

    @classmethod
    def from_string(cls, text: str) -> "Multipermutation":
        try:
            word = tuple(int(tok) for tok in text.split())
        except ValueError as exc:
            raise InvalidWordError(f"not a word of integers: {text!r}") from exc
        return cls(word)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "word": list(self.word)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multipermutation":
        word = data.get("word") if isinstance(data, dict) else None
        if not isinstance(word, list) or not all(type(v) is int for v in word):
            # exact ints: no booleans, floats or numeric strings
            raise InvalidWordError(f"word must be a JSON array of integers: {data!r}")
        s = cls(tuple(word))
        for key, value in (("n", s.n), ("m", s.m)):
            if key in data and (type(data[key]) is not int or data[key] != value):
                raise InvalidWordError(
                    f"declared {key}={data[key]!r} but word has {key}={value}"
                )
        return s


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints, numpy integers converted.

    InvalidWordError for a bool, a float or any other type: equal values of
    those would pass as symbols (True == 1, 2.0 == 2).  The types present
    are read in one C-level pass.
    """
    values = tuple(values)
    types = set(map(type, values))
    if types <= {int}:
        return values
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in types):
        raise InvalidWordError(f"{what} must be integers: {values!r}")
    return tuple(map(int, values))


def _check_same_shape(s: Multipermutation, t: Multipermutation) -> None:
    if s.n != t.n or s.m != t.m:
        raise ShapeMismatchError(
            f"shape ({s.n},{s.m}) vs ({t.n},{t.m}) do not match"
        )


def f_k(barcode: Barcode, k: int) -> Multipermutation:
    """Labels of the sorted level-k sample points of a k-strict barcode.

    The result has alphabet size n = number of bars and multiplicity
    m = 2^k + 1.  Raises NotStrictError when sample points collide.
    """
    return Multipermutation._of_array(require_k_strict(barcode, k), len(barcode))


def relabel(s: Multipermutation, pi: Sequence[int]) -> Multipermutation:
    """Apply a symbol permutation elementwise: word'[p] = pi(word[p]).

    ``pi`` is one-line notation on {1..n}: pi[i-1] is the image of i.

    >>> str(relabel(Multipermutation((1, 2, 1, 3, 3, 2)), (2, 1, 3)))
    '2 1 2 3 3 1'
    """
    n, pi = s.n, _integers(pi, "a permutation's images")
    if sorted(pi) != list(range(1, n + 1)):
        raise InvalidWordError(f"not a permutation of 1..{n}: {pi!r}")
    return Multipermutation(tuple(pi[sym - 1] for sym in s.word))


def canonicalize(s: Multipermutation) -> Multipermutation:
    """The canonical representative of the relabeling orbit of ``s``.

    Relabels each symbol by the order of its first occurrence, so first
    occurrences come out in increasing order.  Idempotent, and constant on
    orbits: two words canonicalize equally iff one is a relabeling of the
    other.

    >>> str(canonicalize(Multipermutation((2, 1, 4, 1, 3, 3, 2, 4))))
    '1 2 3 2 4 4 1 3'
    """
    return Multipermutation._of_array(_canonical(s._array, s.m), s.n, canonical=True)


def _canonical(word: np.ndarray, m: int) -> np.ndarray:
    """A word over {1..n} with every symbol m times, relabeled by first
    occurrence: the symbol whose first occurrence comes r-th becomes r.

    One stable argsort lists the positions symbol by symbol in word order,
    so every m-th of them is a first occurrence.
    """
    firsts = np.sort(np.argsort(word, kind="stable")[::m])
    new = np.empty(len(firsts) + 1, dtype=word.dtype)
    new[word[firsts]] = np.arange(1, len(firsts) + 1)
    return new[word]


def g_k(barcode: Barcode, k: int) -> Multipermutation:
    """The level-k invariant: canonicalized ``f_k``.

    Unchanged under bar relabeling and under increasing affine maps of the
    real line; orbit equality is representative equality.
    """
    word = _canonical(require_k_strict(barcode, k), (1 << k) + 1)
    return Multipermutation._of_array(word, len(barcode), canonical=True)


def iota(s: Multipermutation | Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Distinguish copies: the r-th occurrence of symbol i becomes (i, r).

    The result is a permutation of the totally ordered set
    {1_1 < ... < 1_m < 2_1 < ... < n_m}.  Accepts a raw word as well, so it
    also applies to words with non-uniform multiplicities.

    >>> iota((1, 2, 1, 3, 2))
    ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2))
    """
    word = s.word if isinstance(s, Multipermutation) else tuple(s)
    counts = dict.fromkeys(word, 0)
    out = []
    for sym in word:
        counts[sym] += 1
        out.append((sym, counts[sym]))
    return tuple(out)


def _join_words(s: Sequence[int], t: Sequence[int], n: int) -> tuple[int, ...]:
    """Join of two words of one shape in the multinomial Newman lattice: the
    word whose inversion set is the transitive closure of the union of
    theirs, as a tuple, closed on Python ints with no numpy call.

    Number the copies 0..N-1 in the order 1_1 < ... < n_m, copy r of symbol
    s as (s - 1)·m + r, so each symbol's copies are a block of m bits.  One
    pass over each word gives each copy c its row, an int whose bit y is set
    when the larger copy y stands before c, in s or in t.  The rows are
    closed from the largest copy down: the rows of larger copies are closed
    already, so copy c's row is ORed with the closed rows of the copies it
    holds, and one closed row per symbol block is enough:

    * copy r of a symbol stands before copy r + 1 in every word, the join
      included, so the closed rows of one symbol's copies are nested: each
      holds the closed rows of the lower copies;
    * every raw row and every closed row holds a prefix of each larger
      symbol's copies, so what ``todo`` keeps of a block is an interval that
      ends at the highest copy of the block in the row.

    So the loop takes the block of the lowest copy in ``todo``, ORs the
    closed row of that block's highest copy in ``todo``, which holds the
    closed rows of every copy of the block in the row, and clears the block
    and that row from ``todo``: a copy the row holds needs nothing more, as
    its closed row is in it too.  Few symbols with many copies cost one OR
    per block, not one per copy.

    The word is built in the same loop.  Before copy c, ``order`` is the
    join restricted to the copies > c, and c stands after exactly the copies
    of its closed row, the join's inversions at c.  Those are a prefix of
    ``order``: take x in the row and a copy y > c before x in the join.  If
    y > x, y is in x's closed row, which c's row holds; if y < x, y stands
    before c as x does, and is larger than c, so it is in c's row.  So
    inserting c's symbol at the row's bit count extends ``order`` to the
    copies >= c, with no O(N²) read-out.  The rows take at most N²/8 bytes.
    """
    size = len(s)
    m = size // n
    rows = [0] * size
    for word in (s, t):
        copy = list(range(-m, size, m))  # the next copy of each symbol
        seen = 0
        for sym in word:
            c = copy[sym]
            copy[sym] = c + 1
            rows[c] |= seen >> c << c  # the larger copies seen
            seen |= 1 << c
    block = (1 << m) - 1
    order: list[int] = []
    for c in range(size - 1, -1, -1):
        row = todo = rows[c]
        while todo:
            base = (todo & -todo).bit_length() - 1
            mask = block << (base - base % m)  # the block of the lowest copy
            more = rows[(todo & mask).bit_length() - 1]
            row |= more
            todo &= ~(more | mask)
        rows[c] = row
        order.insert(row.bit_count(), c // m + 1)
    return tuple(order)


def _profiles(words: np.ndarray, n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Interleaving profiles of a batch of words of one shape, as an array.

    ``words`` is a (count, n*m) array of symbols 1..n.  Entry [c, i, r, j]
    of the (count, n, m, hi - lo) result counts the copies of symbol
    lo + j + 1 before the copy of i + 1 with index r (counted from 0) in word
    c when that symbol is larger than i + 1, and is zero otherwise.  A
    one-hot of the symbols lo + 1..hi is scattered, summed along the word,
    and read at the positions of the copies, which a stable argsort lists
    symbol by symbol in copy order.  Counts have the smallest unsigned dtype
    that holds m.
    """
    hi = n if hi is None else hi
    count, size = words.shape
    m, width = size // n, hi - lo
    dtype = np.min_scalar_type(m)
    at = np.flatnonzero((words > lo) & (words <= hi))
    seen = np.zeros((count, size, width), dtype)
    seen.reshape(-1)[at * width + (words.reshape(-1)[at] - (lo + 1))] = 1
    np.cumsum(seen, axis=1, dtype=dtype, out=seen)  # copies up to each position
    order = np.argsort(words, axis=1, kind="stable")
    order += np.arange(0, count * size, size)[:, None]  # rows of the flattened batch
    prof = seen.reshape(-1, width).take(order.ravel(), axis=0)
    prof = prof.reshape(count, n, m, width)
    prof *= np.arange(lo, hi) > np.arange(n)[:, None, None]
    return prof


def _spans(count: int, size: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Symbol columns lo..hi in blocks, each given by its first and end
    column, whose profiles for ``count`` words of ``size`` positions hold at
    most ``_CELLS`` one-hot entries, so memory stays bounded however long the
    words are."""
    width = max(1, _CELLS // (count * size))
    for start in range(lo, hi, width):
        yield start, min(start + width, hi)


def _blocks(words: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The profiles of ``words`` in blocks of symbol columns, in column
    order, each with its first column."""
    for lo, hi in _spans(*words.shape, 0, n):
        yield lo, _profiles(words, n, lo, hi)


def _densest_first(count: int, size: int, n: int) -> Iterator[tuple[int, int]]:
    """The column spans an order test reads: the largest symbol's column
    alone, the densest with (n - 1)·m entries per word, then the other
    columns in ``_spans`` blocks."""
    yield n - 1, n
    yield from _spans(count, size, 0, n - 1)


def _word_array(words: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Words of one shape over {1..n} as rows of the smallest unsigned dtype;
    an array that already has that dtype is returned uncopied."""
    return np.asarray(words, dtype=np.min_scalar_type(n))


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of an array, so a value that holds it stays hashable."""
    view = array.view()
    view.flags.writeable = False
    return view


def newman_leq(s: Multipermutation, t: Multipermutation) -> bool:
    """Multinomial Newman order: inversions of iota(s) within iota(t).

    Holds iff the profile of s is at most that of t at every entry.  The
    largest symbol's column is compared first and refuses most pairs that
    are not ordered; the other columns follow block by block, and the test
    stops at the first where s exceeds t.
    """
    _check_same_shape(s, t)
    words = np.array((s._array, t._array))
    for lo, hi in _densest_first(*words.shape, s.n):
        a, b = _profiles(words, s.n, lo, hi)
        if (a > b).any():
            return False
    return True


def inversion_multiset(s: Multipermutation) -> Counter[tuple[int, int]]:
    """Counts of out-of-order symbol pairs: (j, i) with j > i, counted once
    per position pair where a copy of j precedes a copy of i.

    >>> sorted(inversion_multiset(Multipermutation((1, 2, 3, 2, 4, 4, 1, 3))).items())
    [((2, 1), 2), ((3, 1), 1), ((3, 2), 1), ((4, 1), 2), ((4, 3), 2)]
    """
    counts: Counter[tuple[int, int]] = Counter()
    for lo, prof in _blocks(s._array[None], s.n):
        (totals,) = prof.sum(axis=2, dtype=np.min_scalar_type(s.m**2))
        for i, j in zip(*np.nonzero(totals)):
            counts[(lo + int(j) + 1, int(i) + 1)] = int(totals[i, j])
    return counts


def prec(s: Multipermutation, t: Multipermutation) -> bool:
    """Order on canonical representatives via inversion-multiset containment.

    Agrees with ``newman_leq`` on canonical words of multiplicity 2, the
    classical statement; the test suite checks this exhaustively.  Reads the
    pair counts in the column order of ``newman_leq``, the largest symbol's
    first, and stops at the first span where a count of s exceeds t's.
    """
    _check_same_shape(s, t)
    for u in (s, t):
        if not u.is_canonical:
            raise NotCanonicalError(f"not canonical: {u}")
    words, dtype = np.array((s._array, t._array)), np.min_scalar_type(s.m**2)
    for lo, hi in _densest_first(*words.shape, s.n):
        a, b = _profiles(words, s.n, lo, hi).sum(axis=2, dtype=dtype)  # pair counts
        if (a > b).any():
            return False
    return True


def rank(s: Multipermutation) -> int:
    """Total inversion count, the profile's sum: the grading of the lattices."""
    return sum(int(prof.sum()) for _, prof in _blocks(s._array[None], s.n))


def delta_k(s: Multipermutation) -> Multipermutation:
    """Delete every other occurrence of each symbol, starting with the second.

    Defined for multiplicity m = 2^(k+1) + 1, producing multiplicity
    2^k + 1; composed with the level-(k+1) barcode map it yields the
    level-k map.

    >>> str(delta_k(Multipermutation((1, 2, 1, 1, 2, 3, 3, 3, 2))))
    '1 2 1 3 3 2'
    """
    m = s.m
    if m < 3 or (m - 1) & (m - 2) != 0:
        raise ShapeMismatchError(
            f"multiplicity {m} is not 2^(k+1)+1 for any k >= 0"
        )
    word, copies = _copies(s)
    # first occurrences are copy 0 and stay, in order: canonicity is kept
    canonical = s.__dict__.get("is_canonical")
    return Multipermutation._of_array(word[copies % 2 == 0], s.n, canonical)


def _copies(s: Multipermutation) -> tuple[np.ndarray, np.ndarray]:
    """The word as an array, and the copy index, counted from 0, at each of
    its positions: one stable argsort lists the positions symbol by symbol
    in copy order."""
    word = s._array
    copies = np.empty(len(word), dtype=np.intp)
    copies[np.argsort(word, kind="stable")] = np.arange(len(word)) % s.m
    return word, copies


def second_occurrence_subword(s: Multipermutation) -> tuple[int, ...]:
    """The symbols at their second occurrences, in word order."""
    word, copies = _copies(s)
    return tuple(word[copies == 1].tolist())


def phi(barcode: Barcode) -> tuple[int, ...]:
    """Death order relative to birth order, as a permutation of {1..n}.

    With sigma sorting deaths and tau sorting births, this is tau^-1 * sigma:
    the second-occurrence subword of g_0, which labels each bar by its birth
    rank.  Raises NotStrictError unless the barcode is 0-strict.
    """
    return second_occurrence_subword(g_k(barcode, 0))
