"""Exact bottleneck and q-Wasserstein distances, and affine alignment.

Barcodes are compared as persistence diagrams: bar (b, d) is the plane point
(b, d), the ground metric is the sup norm, and any bar may be matched to the
diagonal instead of a partner, at cost (d - b) / 2.  Both solvers start from
the same numpy ground costs, read off the barcodes' endpoint arrays (the
n x m bar-to-bar matrix and each bar's diagonal cost), and are exact:

* bottleneck — a search over the candidate costs t.  A bar whose diagonal
  cost exceeds t must be matched to a near bar (cost <= t) of the other
  diagram, and a probe asks scipy's Hopcroft–Karp matching whether the
  near pairs can cover these bars of both sides; the graph has O(near
  pairs) edges instead of the complete (n+m)^2 augmented graph.  The first
  probe is at the floor, the largest of the bars' cheapest costs, which
  bounds the distance from below and usually is it; only when the floor
  fails are the distinct candidate costs above it binary-searched;
* wasserstein — a minimum-cost assignment on the (n+m) x (n+m) augmented
  cost matrix.  Costs are divided by a common scale before they are raised
  to the q-th power, which keeps the optimal assignment: first by the
  largest cost, so no power overflows, then, while the witness's largest
  cost powers to almost nothing (smaller costs may have underflowed to
  ties), by that cost, and the assignment is solved again.

Every distance returns a witness matching, and the reported value is the
witness's cost, its pair costs read off the ground costs: the floats that
``bottleneck_cost`` and ``wasserstein_cost`` recompute from the witness
pairs, so the two always agree exactly; the q-Wasserstein value is
M * (sum of (c / M)^q)^(1/q) with M the witness's largest pair cost.

``align`` fits the affine map sending the earliest-born bar of one barcode
onto that of the other; ``check_convergence_bounds`` verifies that aligned
distances stay within span / 2^k (and its q-Wasserstein variant) whenever
two barcodes share their level-k invariant and one bar contains all others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .barcode import (
    Barcode,
    affine_transform,
    has_containing_bar,
)
from .errors import (
    DegenerateBarError,
    InvalidBarError,
    InvalidQError,
    NotStrictError,
    PreconditionFailedError,
    RetriesExhaustedError,
)
from .multiperm import Multipermutation, g_k
from .rng import SplitMix64

BOUND_TOLERANCE = 1e-9
# A Wasserstein witness whose largest powered cost is at least this sits far
# above the subnormal range, so terms that underflowed cannot have hidden a
# better assignment.
_TINY = 2.0**-900
_MAX_DRAWS = 10000  # draws ``perturb_preserving_invariant`` makes before it gives up

# A witness pair is (left label, right label) with None meaning the diagonal;
# diagonal-to-diagonal fillers are dropped from witnesses.
Pair = tuple[int | None, int | None]


@dataclass(frozen=True)
class Matching:
    """A perfect matching between two diagrams, diagonal allowed."""

    pairs: tuple[Pair, ...]
    cost: float


@dataclass(frozen=True)
class Alignment:
    """The map x -> alpha * x + delta, alpha > 0."""

    alpha: float
    delta: float


def _cost(xs, ys, pair: Pair) -> float:
    """Ground cost of one witness pair, given both diagrams' endpoint rows."""
    l, r = pair
    if l is not None and r is not None:
        (b1, d1), (b2, d2) = xs[l - 1], ys[r - 1]
        return max(abs(b1 - b2), abs(d1 - d2))
    if l is None and r is None:
        return 0.0
    b, d = xs[l - 1] if l is not None else ys[r - 1]
    return (d - b) / 2.0


def pair_cost(left: Barcode, right: Barcode, pair: Pair) -> float:
    """Ground cost of one witness pair."""
    return _cost(left.ends.tolist(), right.ends.tolist(), pair)


def bottleneck_cost(left: Barcode, right: Barcode, pairs) -> float:
    """Max pair cost; how a bottleneck witness's cost is recomputed."""
    xs, ys = left.ends.tolist(), right.ends.tolist()
    return max((_cost(xs, ys, p) for p in pairs), default=0.0)


def wasserstein_cost(left: Barcode, right: Barcode, pairs, q: float) -> float:
    """``_lq_cost`` of the pair costs; how a q-Wasserstein witness's cost is
    recomputed."""
    xs, ys = left.ends.tolist(), right.ends.tolist()
    return _lq_cost([_cost(xs, ys, p) for p in pairs], q)


def _lq_cost(costs: list[float], q: float) -> float:
    """M * (sum of (cost / M)^q)^(1/q) in list order, M the largest cost.

    Dividing by M first keeps every power in [0, 1], so no q overflows and
    the largest cost always contributes exactly 1: the result is at least
    the largest cost.
    """
    top = max(costs, default=0.0)
    if top == 0.0:
        return 0.0
    total = 0.0
    for c in costs:
        total += (c / top) ** q
    return top * total ** (1.0 / q)


def _ground_costs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sup-norm costs between the bars of two endpoint arrays (n x m) and
    each bar's diagonal cost."""
    cross = np.maximum(
        np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
    )
    return cross, (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0


def _witness(y_of, cross, dx, dy) -> tuple[tuple[Pair, ...], list[float]]:
    """Witness pairs of a matching from left bar i to right bar y_of[i], and
    their costs in pair order.

    y_of[i] is -1 where bar i goes to the diagonal, and right bars no left
    bar reaches go there too.  Pairs with a left bar come first, by label.
    Each cost is read off the ground costs, which hold the floats ``_cost``
    computes for the same pair.
    """
    y_of = np.asarray(y_of)
    n, m = cross.shape
    matched = y_of >= 0
    reached = np.zeros(m, dtype=bool)
    reached[y_of[matched]] = True
    free = np.flatnonzero(~reached)
    # y_of[i] = -1 reads the last column, which np.where drops
    costs = np.concatenate((np.where(matched, cross[np.arange(n), y_of], dx), dy[free]))
    pairs = [(i + 1, j + 1 if j >= 0 else None) for i, j in enumerate(y_of.tolist())]
    return tuple(pairs + [(None, j + 1) for j in free.tolist()]), costs.tolist()


def _far_covers(cross, dx, dy, t: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Matchings of bar pairs of cost <= t covering each side's far bars.

    A bar is far when its diagonal cost exceeds t, so it must be matched to a
    bar of the other diagram.  A perfect matching of cost <= t exists exactly
    when one matching of the near pairs covers the far bars of both sides,
    and by the Mendelsohn–Dulmage theorem exactly when one matching covers
    the far bars of x and another those of y.  One Hopcroft–Karp call finds
    both: the graph has a row per far bar of x, reaching the bars of y near
    it (columns 0..m-1), then a row per far bar of y, reaching the bars of x
    near it (columns m..m+n-1).  Returns y_of (bar of x -> bar of y) and
    x_of (bar of y -> bar of x), -1 off the covered bars, or None.
    """
    n, m = cross.shape
    near = cross <= t
    far_x, far_y = np.flatnonzero(dx > t), np.flatnonzero(dy > t)
    k = len(far_x)
    rows_x, cols_x = np.nonzero(near[far_x])
    rows_y, cols_y = np.nonzero(near.T[far_y])
    rows = np.concatenate([rows_x, k + rows_y])
    indices = np.concatenate([cols_x, m + cols_y])
    counts = np.bincount(rows, minlength=k + len(far_y))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    data = np.ones(len(indices), dtype=np.int8)
    graph = csr_array((data, indices, indptr), shape=(len(counts), m + n))
    match = maximum_bipartite_matching(graph, perm_type="column")
    if np.any(match < 0):
        return None
    y_of, x_of = np.full(n, -1), np.full(m, -1)
    y_of[far_x] = match[:k]
    x_of[far_y] = match[k:] - m
    return y_of, x_of


def _merge_covers(y_of: np.ndarray, x_of: np.ndarray) -> list[int]:
    """One matching covering the bars of x that y_of covers and the bars of
    y that x_of covers, as a list bar of x -> bar of y or -1.

    Start from y_of.  The union of the two matchings is a set of alternating
    paths and cycles; a bar of y that x_of covers and y_of does not ends a
    path, and switching that path to x_of's edges keeps its bars of x
    covered and leaves uncovered at most a last bar of y that x_of does not
    cover (Mendelsohn–Dulmage).  Paths are disjoint, so each is switched
    once.
    """
    start = set(np.flatnonzero(x_of >= 0).tolist()) - set(y_of.tolist())
    y_of, x_of = y_of.tolist(), x_of.tolist()
    for j in start:
        while j >= 0 and x_of[j] >= 0:
            i = x_of[j]
            y_of[i], j = j, y_of[i]
    return y_of


def bottleneck(left: Barcode, right: Barcode) -> tuple[float, Matching]:
    """Exact bottleneck distance and an optimal witness matching.

    The search starts at the floor: the largest, over the bars of both
    sides, of the bar's cheapest cost, min(its diagonal cost, its cheapest
    bar of the other side).  Every bar is matched to something, so the
    distance is at least the floor, and the floor is itself a candidate
    cost.  It is probed first, and when it is feasible it is the distance:
    noisy copies of up to a few hundred bars usually need only this probe.
    Otherwise the distinct candidate costs above the floor are
    binary-searched.
    """
    cross, dx, dy = _ground_costs(left.ends, right.ends)
    n, m = cross.shape
    floor = max(
        np.minimum(dx, cross.min(axis=1)).max(), np.minimum(dy, cross.min(axis=0)).max()
    )
    covers = _far_covers(cross, dx, dy, floor)
    if covers is None:
        costs = np.concatenate((cross.ravel(), dx, dy))
        levels = np.unique(costs[costs > floor])
        lo, hi = 0, len(levels) - 1
        # no far bars at the largest level, which the search never probes:
        # every bar goes to the diagonal
        covers = np.full(n, -1), np.full(m, -1)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = _far_covers(cross, dx, dy, levels[mid])
            if probe is None:
                lo = mid + 1
            else:
                hi, covers = mid, probe
    pairs, costs = _witness(_merge_covers(*covers), cross, dx, dy)
    distance = max(costs, default=0.0)
    return distance, Matching(pairs, distance)


def wasserstein(left: Barcode, right: Barcode, q: float) -> tuple[float, Matching]:
    """Exact q-Wasserstein distance and an optimal witness matching."""
    q = float(q)
    if not (q >= 1.0 and np.isfinite(q)):
        raise InvalidQError(f"need finite q >= 1, got {q!r}")
    cross, dx, dy = _ground_costs(left.ends, right.ends)
    n, m = cross.shape
    cost = np.zeros((n + m, m + n))
    cost[:n, :m] = cross
    cost[:n, m:] = dx[:, None]
    cost[n:, :m] = dy
    # Dividing every cost by one scale s before the power leaves the optimal
    # assignment as it is.  Start from the largest cost, so nothing overflows.
    # If the witness's largest cost t makes (t/s)^q tiny, small costs may
    # have underflowed to exact ties; solve again with s = t.  Entries that
    # then overflow to inf each exceed the witness's whole sum (at most n+m)
    # and cannot be in an optimal assignment.  s falls every round.
    scale = cost.max() or 1.0
    while True:
        with np.errstate(over="ignore"):
            powered = (cost / scale) ** q
        rows, cols = linear_sum_assignment(powered)
        top = cost[rows, cols].max()
        if top == 0.0 or (top / scale) ** q >= _TINY:
            break
        scale = top
    y_of = np.full(n, -1)
    bars = (rows < n) & (cols < m)
    y_of[rows[bars]] = cols[bars]
    pairs, costs = _witness(y_of, cross, dx, dy)
    distance = _lq_cost(costs, q)
    return distance, Matching(pairs, distance)


def _earliest(barcode: Barcode) -> list[float]:
    """The bar of smallest birth, the smaller death breaking a tie and the
    first in order among equals, as ``min(barcode.pairs())`` finds it."""
    births, deaths = barcode.ends.T
    return barcode.ends[np.lexsort((deaths, births))[0]].tolist()


def align(left: Barcode, right: Barcode) -> Alignment:
    """Affine map carrying the earliest-born bar of ``right`` onto ``left``'s.

    With (b1, d1) and (b1', d1') the bars of smallest birth on each side, the
    map alpha = (d1 - b1) / (d1' - b1'), delta = b1 - alpha * b1' sends b1'
    to b1 and d1' to d1; DegenerateBarError if that ratio over- or underflows.
    """
    b1, d1 = _earliest(left)
    b1p, d1p = _earliest(right)
    alpha = (d1 - b1) / (d1p - b1p)
    delta = b1 - alpha * b1p
    if not (alpha > 0 and np.isfinite([alpha, delta]).all()):
        raise DegenerateBarError(f"no finite alignment: alpha={alpha}, delta={delta}")
    return Alignment(alpha, delta)


@dataclass(frozen=True)
class BoundReport:
    """Aligned distances against their level-k bounds."""

    d_inf: float
    d_q: float
    bound_inf: float
    bound_q: float
    alpha: float
    delta: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "d_inf": self.d_inf,
            "d_q": self.d_q,
            "bound_inf": self.bound_inf,
            "bound_q": self.bound_q,
            "alpha": self.alpha,
            "delta": self.delta,
            "pass": self.passed,
        }


def _strict_invariant(barcode: Barcode, k: int) -> Multipermutation | None:
    """``g_k`` of a k-strict barcode, or None when it is not k-strict."""
    try:
        return g_k(barcode, k)
    except NotStrictError:
        return None


def check_convergence_bounds(
    left: Barcode, right: Barcode, k: int, q: float
) -> BoundReport:
    """Align ``right`` to ``left`` and test the level-k distance bounds.

    Preconditions: both barcodes k-strict, equal level-k invariants, and a
    bar of ``left`` containing all others.  Violations raise
    PreconditionFailedError naming each failed condition.  When the
    preconditions hold the bounds are a theorem, so ``passed`` is expected
    true up to solver tolerance.
    """
    failures = []
    word = _strict_invariant(left, k)
    other = None if word is None else _strict_invariant(right, k)
    if other is None:
        failures.append("strictness")
    if other is None or word != other:
        failures.append("invariant equality")
    if not has_containing_bar(left):
        failures.append("containing bar")
    if failures:
        raise PreconditionFailedError(failures)

    alignment = align(left, right)
    aligned = affine_transform(right, alignment.alpha, alignment.delta)
    d_inf, _ = bottleneck(left, aligned)
    d_q, _ = wasserstein(left, aligned, q)
    births, deaths = left.ends.T
    span = float(deaths.max() - births.min())
    bound_inf = span / (1 << k)
    n = len(left)
    bound_q = (n - 1) ** (1.0 / q) * bound_inf
    passed = (
        d_inf <= bound_inf + BOUND_TOLERANCE and d_q <= bound_q + BOUND_TOLERANCE
    )
    return BoundReport(
        d_inf=d_inf,
        d_q=d_q,
        bound_inf=bound_inf,
        bound_q=bound_q,
        alpha=alignment.alpha,
        delta=alignment.delta,
        passed=passed,
    )


def perturb_preserving_invariant(
    barcode: Barcode, magnitude: float, k: int, seed: int
) -> Barcode:
    """Jitter endpoints without changing the level-k invariant.

    Each endpoint moves independently by uniform noise in
    [-magnitude, magnitude) drawn from a seeded deterministic stream; draws
    are rejected until the result is k-strict with the same level-k
    invariant as the input, and after ``_MAX_DRAWS`` draws
    RetriesExhaustedError; InvalidBarError, before any draw, unless
    ``magnitude`` is finite and at least 0.  Deterministic given (barcode,
    magnitude, k, seed).
    """
    if not 0 <= magnitude < np.inf:
        raise InvalidBarError(f"need a finite magnitude >= 0, got {magnitude}")
    target = g_k(barcode, k)
    rng = SplitMix64(seed)
    endpoints = range(barcode.ends.size)
    for _ in range(_MAX_DRAWS):
        # a birth's noise, then its death's, bar by bar
        noise = [rng.uniform(-magnitude, magnitude) for _ in endpoints]
        ends = barcode.ends + np.reshape(noise, (-1, 2))
        if not (ends[:, 0] < ends[:, 1]).all():
            continue
        candidate = Barcode._of_ends(ends)
        if _strict_invariant(candidate, k) == target:
            return candidate
    raise RetriesExhaustedError(
        f"no invariant-preserving perturbation after {_MAX_DRAWS} draws"
    )
