"""Shared test fixtures: seeded barcode factories, gap measurement, and the
slow paths kept as oracles: the CSV and JSON parsers that read one line or
entry at a time into a ``Bar`` each, which the endpoint array replaced, the
barcode maps as (value, label) tuples sorted in Python, canonicalized
through a dict and halved through ``iota``, which the float64 sample table
replaced, the interval graph as a Python loop over bar pairs, the dense
bottleneck solver, the bottleneck
search over every candidate cost that the floor probe shortened, the
death-order permutation from two sorts of the bars, inversion sets of
embedded permutations, the interleaving profile as nested lists with the
orders, pair counts and the closed Newman join read off it, the Newman join
closed as a boolean matrix one symbol block at a time, which the bit rows
replaced, order, meet and join by reachability
over the covers of an enumerated lattice, the word keys built one column at
a time, the recursive word enumerator
with its swap-and-lookup cover test, the word stream of tuples and ranks
that the array word table replaced, vertex vectors built one word at a
time, the affine dimension by Bareiss elimination on the difference rows,
the decoding of a vertex vector into its word, checked to be a vertex,
the polytope's block count by walking one sorting chain over ``iota``
tuples, and the DOT, JSON and CSV writers that format one line at a
time."""

import json
import random
from collections import Counter
from functools import lru_cache
from operator import le
from typing import Iterator

import numpy as np

from barcomb.barcode import Bar, Barcode, require_k_strict
from barcomb.distances import (
    _far_covers,
    _ground_costs,
    _merge_covers,
    _witness,
    bottleneck_cost,
)
from barcomb.errors import InvalidBarError, InvalidWordError, NotStrictError, ParseError
from barcomb.lattice import HasseDiagram, LatticeSpec, top_element
from barcomb.multiperm import Multipermutation, iota, rank
from barcomb.polytope import VertexSet, integer_rank


def random_barcode(rng: random.Random, n: int, lo=0.0, hi=1.0) -> Barcode:
    pairs = []
    for _ in range(n):
        b = rng.uniform(lo, hi)
        pairs.append((b, b + rng.uniform(0.05, 1.0) * (hi - lo)))
    return Barcode.from_pairs(pairs)


def _line_bar(where: str, birth: float, death: float) -> Bar:
    try:
        return Bar(birth, death)
    except InvalidBarError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def line_parse_barcode_csv(text: str) -> Barcode:
    """CSV text parsed one line at a time, into a ``Bar`` per line."""
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
        bars.append(_line_bar(f"line {lineno}", birth, death))
    if not bars:
        raise ParseError("no bars found")
    return Barcode(tuple(bars))


def entry_parse_barcode_json(text: str) -> Barcode:
    """JSON text parsed one entry at a time, into a ``Bar`` per entry."""
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
        bars.append(_line_bar(f"entry {idx}", birth, death))
    return Barcode(tuple(bars))


def min_gap(barcode: Barcode, k: int) -> float:
    """Smallest spacing between level-k sample points."""
    values = sorted(v for v, _ in tuple_sample_points(barcode, k))
    return min(b - a for a, b in zip(values, values[1:]))


def tuple_sample_points(barcode: Barcode, k: int) -> list[tuple[float, int]]:
    """The level-k sample points as (value, label) tuples, grouped by bar,
    each from birth + l * (death - birth) / 2^k in Python floats."""
    step = 1 << k
    points = []
    for label, (birth, death) in enumerate(barcode.pairs(), start=1):
        length = death - birth
        for ell in range(step + 1):
            points.append((birth + ell * length / step, label))
    return points


def interval_graph(barcode: Barcode) -> frozenset[tuple[int, int]]:
    """The interval graph's edges: the label pairs (i, j), i < j, of bars
    whose open intervals intersect.  On a 0-strict barcode these are the
    pairs of crossing number 1 or 2."""
    pairs = barcode.pairs()
    return frozenset(
        (i, j)
        for i, (b1, d1) in enumerate(pairs, start=1)
        for j, (b2, d2) in enumerate(pairs[i:], start=i + 1)
        if max(b1, b2) < min(d1, d2)
    )


def tuple_require_k_strict(barcode: Barcode, k: int) -> list[tuple[float, int]]:
    """The sorted sample-point tuples; NotStrictError listing every adjacent
    pair of equal points, if any two coincide."""
    points = sorted(tuple_sample_points(barcode, k))
    collisions = [(p, q) for p, q in zip(points, points[1:]) if p[0] == q[0]]
    if collisions:
        raise NotStrictError(k, collisions)
    return points


def tuple_f_k(barcode: Barcode, k: int) -> tuple[int, ...]:
    """The labels of the sorted sample-point tuples."""
    return tuple(label for _, label in tuple_require_k_strict(barcode, k))


def dict_canonicalize(word: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel by first occurrence through a dict of first occurrences."""
    labels = {sym: new for new, sym in enumerate(dict.fromkeys(word), start=1)}
    return tuple(map(labels.__getitem__, word))


def iota_delta_k(word: tuple[int, ...]) -> tuple[int, ...]:
    """The symbols at their odd-numbered copies, read off ``iota``."""
    return tuple(sym for sym, copy in iota(word) if copy % 2)


def iota_second_occurrences(word: tuple[int, ...]) -> tuple[int, ...]:
    """The symbols at their second copies, read off ``iota``."""
    return tuple(sym for sym, copy in iota(word) if copy == 2)


def star_barcode(n: int, k: int, rng: random.Random) -> Barcode:
    """A containing bar plus n-1 bars inside distinct level-k cells.

    Same-invariant perturbations of these can use the full cell width, so
    aligned distances track the cell size 2^-k.
    """
    cells = 1 << k
    chosen = rng.sample(range(cells), n - 1)
    h = 1.0 / cells
    pairs = [(0.0, 1.0)]
    for cell in chosen:
        center = (cell + rng.uniform(0.4, 0.6)) * h
        width = rng.uniform(0.15, 0.3) * h
        pairs.append((center - width / 2, center + width / 2))
    return Barcode.from_pairs(pairs)


def fit_slope(xs, ys) -> float:
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    return sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )


def feasible_matching(xs: list, ys: list, threshold: float) -> list[int] | None:
    """Perfect matching using only edges of cost <= threshold, or None.

    The dense augmenting-path search that ``bottleneck`` once used, kept as
    its oracle.  Left vertices are the n bars of xs then m diagonal slots;
    right vertices are the m bars of ys then n diagonal slots, and every
    diagonal slot reaches every other.  Returns right-to-left assignments
    when a perfect matching exists.
    """
    n, m = len(xs), len(ys)
    size = n + m

    def linf(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    def diag(x):
        return (x[1] - x[0]) / 2.0

    def edge(l: int, r: int) -> bool:
        if l < n:
            if r < m:
                return linf(xs[l], ys[r]) <= threshold
            return diag(xs[l]) <= threshold
        if r < m:
            return diag(ys[r]) <= threshold
        return True

    match_right = [-1] * size  # right vertex -> left vertex

    def augment(l: int, visited: list[bool]) -> bool:
        for r in range(size):
            if not visited[r] and edge(l, r):
                visited[r] = True
                if match_right[r] == -1 or augment(match_right[r], visited):
                    match_right[r] = l
                    return True
        return False

    for l in range(size):
        if not augment(l, [False] * size):
            return None
    return match_right


def dense_bottleneck(left: Barcode, right: Barcode) -> float:
    """Bottleneck distance by binary search with ``feasible_matching``."""
    xs, ys = left.pairs(), right.pairs()
    levels = sorted(
        {0.0}
        | {max(abs(x[0] - y[0]), abs(x[1] - y[1])) for x in xs for y in ys}
        | {(x[1] - x[0]) / 2.0 for x in xs + ys}
    )
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_matching(xs, ys, levels[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return levels[lo]


def full_search_bottleneck(left: Barcode, right: Barcode) -> tuple[float, tuple]:
    """Bottleneck distance and witness pairs by binary search over every
    distinct candidate cost, from 0 up: the search ``bottleneck`` ran before
    it started at the floor, on the same probe, merge and witness steps."""
    cross, dx, dy = _ground_costs(left.ends, right.ends)
    n, m = cross.shape
    levels = np.unique(np.concatenate(([0.0], cross.ravel(), dx, dy)))
    lo, hi = 0, len(levels) - 1
    covers = np.full(n, -1), np.full(m, -1)  # the top level is never probed
    while lo < hi:
        mid = (lo + hi) // 2
        probe = _far_covers(cross, dx, dy, levels[mid])
        if probe is None:
            lo = mid + 1
        else:
            hi, covers = mid, probe
    pairs, _ = _witness(_merge_covers(*covers), cross, dx, dy)
    return bottleneck_cost(left, right, pairs), pairs


def noisy_copy(barcode: Barcode, rng: random.Random, noise: float) -> Barcode:
    """Every endpoint moved by up to ``noise``, keeping birth < death."""
    pairs = []
    for b, d in barcode.pairs():
        b2, d2 = b + rng.uniform(-noise, noise), d + rng.uniform(-noise, noise)
        pairs.append((b2, d2) if b2 < d2 else (b, d))
    return Barcode.from_pairs(pairs)


def two_sort_phi(barcode: Barcode) -> tuple[int, ...]:
    """Death order relative to birth order, tau^-1 * sigma, with sigma
    sorting the deaths and tau the births; the oracle for ``phi``."""
    require_k_strict(barcode, 0)
    n = len(barcode)
    pairs = barcode.pairs()
    by_birth = sorted(range(1, n + 1), key=lambda i: pairs[i - 1][0])
    by_death = sorted(range(1, n + 1), key=lambda i: pairs[i - 1][1])
    birth_rank = {label: pos for pos, label in enumerate(by_birth, start=1)}
    return tuple(birth_rank[label] for label in by_death)


def inversion_set(
    p: tuple[tuple[int, int], ...],
) -> frozenset[tuple[tuple[int, int], tuple[int, int]]]:
    """All pairs (x, y) with x > y in the copy order but x preceding y."""
    out = set()
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if p[a] > p[b]:
                out.add((p[a], p[b]))
    return frozenset(out)


def list_profile(word, n: int) -> list[list[list[int]]]:
    """The interleaving profile as nested lists, the array kernel's oracle.

    ``prof[i][r][j - i - 1]`` counts the copies of j > i before the copy of
    i with index r (counted from 0).
    """
    counts = [0] * (n + 1)
    prof: list[list[list[int]]] = [[] for _ in range(n + 1)]
    for sym in word:
        prof[sym].append(counts[sym + 1 :])
        counts[sym] += 1
    return prof


def list_all_pairs_profile(word, n: int) -> list[list[list[int]]]:
    """The interleaving profile over all symbol pairs, as nested lists:
    ``prof[i - 1][r][j - 1]`` counts the copies of j before the copy of i
    with index r (counted from 0) for every j != i, and is 0 for j == i.
    Its entries of j > i are those of ``list_profile``."""
    counts = [0] * n
    prof: list[list[list[int]]] = [[] for _ in range(n)]
    for sym in word:
        prof[sym - 1].append(counts[: sym - 1] + [0] + counts[sym:])
        counts[sym - 1] += 1
    return prof


def list_newman_leq(s: Multipermutation, t: Multipermutation) -> bool:
    """True iff the list profile of s is at most that of t at every entry."""
    return all(
        all(map(le, row_a, row_b))
        for rows_a, rows_b in zip(list_profile(s.word, s.n), list_profile(t.word, s.n))
        for row_a, row_b in zip(rows_a, rows_b)
    )


def list_newman_join(s, t, n: int) -> tuple[int, ...]:
    """The Newman join of two words of one shape over {1..n}, closed on list
    profiles in O(n^3 m): the array join's oracle.

    The entrywise maximum P of the two profiles is closed under
    P[i][r][l] >= P[j][P[i][r][j] - 1][l] for symbols i < j < l.  Rows of
    larger symbols are closed first and each row is raised in ascending j,
    so every count is final before it is read.  The word is rebuilt from the
    row sums, which count the larger symbols before each copy: inserting
    symbols from n down to 1 puts each copy after exactly that many larger
    symbols and the earlier copies of itself.
    """
    prof = [
        [list(map(max, a, b)) for a, b in zip(rows_s, rows_t)]
        for rows_s, rows_t in zip(list_profile(s, n), list_profile(t, n))
    ]
    for i in range(n - 1, 0, -1):
        for row in prof[i]:
            for j in range(i + 1, n):
                c = row[j - i - 1]
                if c:
                    row[j - i :] = map(max, row[j - i :], prof[j][c - 1])
    word: list[int] = []
    for i in range(n, 0, -1):
        for r, row in enumerate(prof[i]):
            word.insert(sum(row) + r, i)
    return tuple(word)


def block_newman_join(s, t, n: int) -> tuple[int, ...]:
    """The Newman join of two words of one shape over {1..n}, closed as a
    boolean matrix one symbol block at a time: the bit-row join's oracle.

    Number the copies 0..N-1 in the order 1_1 < ... < n_m; one stable
    argsort of each word gives the position of every copy.  The union is
    the strictly upper-triangular boolean matrix inv[x, y], true when copy
    y > x precedes copy x in s or in t.  It is closed one symbol block of
    rows at a time, from symbol n - 1 down to 1: a row block is raised by
    its product with the rows of the larger symbols, which are closed
    already, so one pass suffices.  Copy x of the join then stands after
    the row-sum(x) larger copies before it and the x - column-sum(x) smaller
    ones.  It takes N^2 bytes and N^3 time.
    """
    ps, pt = np.argsort(np.asarray([s, t]), axis=1, kind="stable")
    size = len(ps)
    m = size // n
    copies = np.arange(size)
    inv = ps[:, None] > ps
    inv |= pt[:, None] > pt
    inv &= copies[:, None] < copies
    for lo in range(size - 2 * m, -1, -m):
        hi = lo + m
        inv[lo:hi, hi:] |= inv[lo:hi, hi:] @ inv[hi:, hi:]
    word = np.empty(size, dtype=int)
    word[inv.sum(axis=1) + copies - inv.sum(axis=0)] = copies // m + 1
    return tuple(word.tolist())


def list_pair_counts(s: Multipermutation) -> list[list[int]]:
    """The list profile summed over copies: ``counts[i][j - i - 1]``."""
    return [list(map(sum, zip(*rows))) for rows in list_profile(s.word, s.n)]


def list_inversion_multiset(s: Multipermutation) -> Counter:
    counts: Counter = Counter()
    for i, row in enumerate(list_pair_counts(s)):
        for j, total in enumerate(row, start=i + 1):
            if total:
                counts[(j, i)] = total
    return counts


def list_prec(s: Multipermutation, t: Multipermutation) -> bool:
    """Pair counts of s at most those of t; no canonicity check."""
    pairs = zip(list_pair_counts(s), list_pair_counts(t))
    return all(all(map(le, a, b)) for a, b in pairs)


class ReachabilityOrder:
    """Order, meet and join of an enumerated lattice from its cover edges.

    Each element gets bitmasks of everything below and above it.  The meet
    of s and t is the common lower bound whose own down-set is the whole set
    of common lower bounds; there must be exactly one.  Joins are dual.
    """

    def __init__(self, diagram):
        self.diagram = diagram
        size = len(diagram.elements)
        below = [[] for _ in range(size)]
        above = [[] for _ in range(size)]
        for lo, hi in diagram.covers:
            below[hi].append(lo)
            above[lo].append(hi)
        by_rank = sorted(range(size), key=diagram.ranks.__getitem__)
        self.down = self._closure(by_rank, below)
        self.up = self._closure(by_rank[::-1], above)

    @staticmethod
    def _closure(order, neighbours):
        masks = [0] * len(order)
        for i in order:
            mask = 1 << i
            for j in neighbours[i]:
                mask |= masks[j]
            masks[i] = mask
        return masks

    def leq(self, s, t) -> bool:
        index = self.diagram.index_of
        return bool(self.down[index(t)] >> index(s) & 1)

    def _bound(self, s, t, masks):
        index = self.diagram.index_of
        common = masks[index(s)] & masks[index(t)]
        found = [i for i, mask in enumerate(masks) if mask == common]
        assert len(found) == 1, f"expected one extremal bound, got {len(found)}"
        return self.diagram.elements[found[0]]

    def meet(self, s, t):
        return self._bound(s, t, self.down)

    def join(self, s, t):
        return self._bound(s, t, self.up)


# every (n, k) with at most 12 positions, and the largest spec the benchmark
# enumerates
ORACLE_SPECS = [(n, 0) for n in range(1, 7)] + [(n, 1) for n in range(1, 5)]
ORACLE_SPECS += [(1, 2), (2, 2), (1, 3), (2, 3)]


def recursive_words(n: int, m: int, canonical_only: bool):
    """All multiset permutations of {1^m .. n^m} in lexicographic order, by
    backtracking; with ``canonical_only`` a symbol may start only after the
    previous one has appeared."""
    remaining = [m] * (n + 1)  # 1-based
    word: list[int] = []
    seen = 0

    def backtrack():
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


@lru_cache(maxsize=None)
def reference_lattice(n: int, k: int) -> HasseDiagram:
    """The lattice from ``recursive_words``: covers are the adjacent
    increasing swaps whose result is found among the canonical words, ranks
    are ``rank`` of each element."""
    spec = LatticeSpec(n, k)
    elements = [Multipermutation(w) for w in recursive_words(n, spec.m, True)]
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
    words = [s.word for s in elements]
    return HasseDiagram(spec, words, tuple(sorted(covers)), ranks)


def column_word_keys(words: np.ndarray, n: int) -> np.ndarray:
    """The lattice's word keys one column at a time: each key times n + 1
    plus the next symbol, int64 while (n+1)^N fits, else Python integers."""
    dtype = np.int64 if (n + 1) ** words.shape[1] < 2**63 else object
    keys = np.zeros(len(words), dtype=dtype)
    for column in words.T:
        keys = keys * (n + 1) + column
    return keys


def reference_vertices(n: int, k: int) -> VertexSet:
    """Vertex vectors of the reference lattice, read off ``iota``."""
    diagram = reference_lattice(n, k)
    m = diagram.spec.m
    vectors = tuple(
        tuple((sym - 1) * m + copy for sym, copy in iota(s)) for s in diagram.elements
    )
    return VertexSet(diagram.spec.positions, vectors)


def word_from_vector(vec, m) -> tuple[int, ...]:
    """The word a vertex vector labels, copy label l standing for symbol
    (l - 1) // m + 1, once the vector is checked to be one: InvalidWordError
    unless m and the entries are Python ints, m >= 1 divides N >= 1, and
    the entries are a permutation of 1..N."""
    labels = tuple(vec)
    if (
        any(type(v) is not int for v in (*labels, m))
        or m < 1
        or not labels
        or len(labels) % m
        or sorted(labels) != list(range(1, len(labels) + 1))
    ):
        raise InvalidWordError(f"not the vertex of a word of multiplicity {m}: {labels!r}")
    return tuple((label - 1) // m + 1 for label in labels)


def word_stream(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The canonical words of {1^m .. n^m} with their ranks, in
    lexicographic order, as tuples: the oracle of ``lattice._word_table``.

    A symbol may start only after the previous symbol has appeared, and
    placing symbol s adds the number of larger symbols already placed to the
    rank.  The first ceil(N/2) positions are walked once per prefix, and the
    completions of the rest are built once per state (counts still to place,
    largest symbol placed) and shared by every prefix that reaches it.
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


def word_vectors(words, n: int, m: int) -> Iterator[tuple[int, ...]]:
    """The vertex vector of each word, one word at a time: copy r of symbol
    s becomes (s - 1) * m + r, listed in word order."""
    first_labels = [0, *range(1, n * m, m)]  # indexed by symbol
    for word in words:
        label = first_labels.copy()
        vec = []
        for sym in word:
            vec.append(label[sym])
            label[sym] += 1
        yield tuple(vec)


def bareiss_affine_dimension(vertex_set: VertexSet) -> int:
    """Bareiss rank of the differences to the first vertex."""
    base, *rest = vertex_set.vectors.tolist()
    return integer_rank([[v - b for v, b in zip(vec, base)] for vec in rest])


def chain_partition_blocks(spec: LatticeSpec) -> int:
    """Blocks of the transposition graph along one maximal sorting chain:
    the oracle of ``polytope.pi_partition_blocks``.

    Walks from the identity to the fully nested permutation by moving each
    symbol-copy into place, symbols ascending and copies in descending copy
    order, each step an adjacent swap of an increasing pair.  Returns the
    number of connected components of the path graph on the N positions
    whose edges are the swap positions used.
    """
    target = list(iota(top_element(spec)))
    position = {elem: p for p, elem in enumerate(target)}
    current = sorted(target)
    used: set[int] = set()
    for sym in range(1, spec.n + 1):
        for copy in range(spec.m, 0, -1):
            elem = (sym, copy)
            cur = current.index(elem)
            tgt = position[elem]
            assert cur <= tgt, "sorting chain moved an element backwards"
            while cur < tgt:
                assert current[cur] < current[cur + 1], "swap is not a cover"
                current[cur], current[cur + 1] = current[cur + 1], current[cur]
                used.add(cur)
                cur += 1
    assert current == target
    return spec.positions - len(used)


def fstring_dot(diagram: HasseDiagram) -> str:
    """Graphviz source written one f-string per line."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, (s, r) in enumerate(zip(diagram.elements, diagram.ranks)):
        lines.append(f'  n{i} [label="{s} (rank {r})"];')
    for lo, hi in diagram.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps_json(diagram: HasseDiagram) -> str:
    """The diagram's JSON from ``json.dumps``."""
    return json.dumps(
        {
            "elements": [s.word for s in diagram.elements],
            "covers": diagram.covers,
            "ranks": diagram.ranks,
        }
    )


def joined_vertices_csv(vertex_set: VertexSet) -> str:
    """One ``",".join`` per vector."""
    lines = [",".join(str(v) for v in vec) for vec in vertex_set.vectors.tolist()]
    return "\n".join(lines) + "\n"


def dumps_vertices_json(vertex_set: VertexSet) -> str:
    return json.dumps(vertex_set.vectors.tolist())


def text_mismatch(got: str, want: str) -> str | None:
    """None when two texts are equal, else where they first differ, with
    some context: pytest's own diff of two megabyte texts takes minutes."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    at = min(len(got), len(want)) if at is None else at
    around = slice(max(0, at - 30), at + 30)
    return f"at {at} of {len(got)} / {len(want)}: {got[around]!r} != {want[around]!r}"
