"""Enumeration of the power-k barcode lattices, and their meets and joins.

The level-k lattice on n bars consists of all canonical multipermutations
with alphabet size n and multiplicity m = 2^k + 1, ordered by the Newman
relation.  Equivalently (and verified by ``verify_ideal_isomorphism``) it is
the principal ideal below the fully nested word inside the full multinomial
Newman lattice.

Enumeration is deterministic: elements are produced in lexicographic word
order, so indices, Hasse diagrams, and DOT/JSON output are byte-stable.
Covers are adjacent swaps of an increasing symbol pair whose result is still
canonical.

Meets and joins need no enumeration.  Because the canonical words are a
principal ideal, they are the meets and joins of the multinomial Newman
lattice (Bennett and Birkhoff, "Two families of Newman lattices"): the join
of two words has as its inversion set the transitive closure of the union of
theirs, computed on interleaving profiles in ``barcomb.multiperm``, and
reversing words reverses the order, so the meet of s and t is the reversed
join of their reversals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import NotAnElementError, TooLargeError
from .multiperm import Multipermutation, _newman_join, newman_leq, rank

DEFAULT_POSITION_CAP = 16


@dataclass(frozen=True)
class LatticeSpec:
    """Bar count n >= 1 and level k >= 0; multiplicity m = 2^k + 1."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0:
            raise ValueError(f"need n >= 1 and k >= 0, got ({self.n}, {self.k})")

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


def _iter_words(n: int, m: int, canonical_only: bool) -> Iterator[tuple[int, ...]]:
    """All multiset permutations of {1^m .. n^m} in lexicographic order.

    With ``canonical_only``, a symbol may start only after the previous
    symbol has appeared, which yields exactly the canonical words.
    """
    remaining = [m] * (n + 1)  # 1-based
    word: list[int] = []
    seen = 0  # largest symbol already placed; canonical words grow it by 1

    def backtrack() -> Iterator[tuple[int, ...]]:
        nonlocal seen
        if len(word) == n * m:
            yield tuple(word)
            return
        limit = min(n, seen + 1) if canonical_only else n
        for sym in range(1, limit + 1):
            if remaining[sym] == 0:
                continue
            remaining[sym] -= 1
            word.append(sym)
            prev_seen = seen
            seen = max(seen, sym)
            yield from backtrack()
            seen = prev_seen
            word.pop()
            remaining[sym] += 1

    return backtrack()


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
        counts = [0] * (max(self.ranks) + 1)
        for r in self.ranks:
            counts[r] += 1
        return counts

    def to_dot(self) -> str:
        """Graphviz source; node ids are the lexicographic element indices."""
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, (s, r) in enumerate(zip(self.elements, self.ranks)):
            lines.append(f'  n{i} [label="{s} (rank {r})"];')
        for lo, hi in self.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "elements": [list(s.word) for s in self.elements],
            "covers": [list(edge) for edge in self.covers],
            "ranks": list(self.ranks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


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
    elements = [
        Multipermutation(w) for w in _iter_words(spec.n, spec.m, canonical_only=True)
    ]
    index = {s.word: i for i, s in enumerate(elements)}
    covers = []
    for i, s in enumerate(elements):
        word = s.word
        for p in range(len(word) - 1):
            if word[p] < word[p + 1]:
                swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
                upper = index.get(swapped)  # None when not canonical
                if upper is not None:
                    covers.append((i, upper))
    ranks = tuple(rank(s) for s in elements)
    return HasseDiagram(spec, tuple(elements), tuple(sorted(covers)), ranks)


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
    return enumerate_lattice(spec, cap).rank_vector()


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

    Enumerates the full multinomial Newman lattice, filters by comparison
    with the fully nested word, and compares with the canonical enumeration.
    """
    _check_cap(spec, cap)
    top = top_element(spec)
    canonical = {s.word for s in enumerate_lattice(spec, cap).elements}
    ideal = set()
    total = 0
    for w in _iter_words(spec.n, spec.m, canonical_only=False):
        total += 1
        if newman_leq(Multipermutation(w), top):
            ideal.add(w)
    missing = tuple(sorted(ideal - canonical))
    extra = tuple(sorted(canonical - ideal))
    return IdealReport(
        spec=spec,
        canonical_count=len(canonical),
        ideal_count=len(ideal),
        total_words=total,
        equal=not missing and not extra,
        missing=missing,
        extra=extra,
    )
