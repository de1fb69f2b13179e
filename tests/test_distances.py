import math
import random
import warnings
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barcomb.barcode
import barcomb.distances
from barcomb.barcode import Barcode, affine_transform, generate_barcode
from barcomb.distances import (
    _lq_cost,
    align,
    bottleneck,
    bottleneck_cost,
    check_convergence_bounds,
    pair_cost,
    perturb_preserving_invariant,
    wasserstein,
    wasserstein_cost,
)
from barcomb.errors import (
    DegenerateBarError,
    InvalidBarError,
    InvalidLabelError,
    InvalidQError,
    PreconditionFailedError,
    RetriesExhaustedError,
)
from barcomb.multiperm import g_k


# --- independent oracle: exhaustive search over all diagonal matchings ----

def oracle_pair_cost(left, right, pair):
    l, r = pair
    if l is not None and r is not None:
        (b1, d1), (b2, d2) = left[l - 1], right[r - 1]
        return max(abs(b1 - b2), abs(d1 - d2))
    b, d = left[l - 1] if l is not None else right[r - 1]
    return (d - b) / 2.0


def all_matchings(n, m):
    for size in range(min(n, m) + 1):
        for chosen in combinations(range(1, n + 1), size):
            for targets in permutations(range(1, m + 1), size):
                pairs = list(zip(chosen, targets))
                pairs += [(l, None) for l in range(1, n + 1) if l not in chosen]
                pairs += [(None, r) for r in range(1, m + 1) if r not in targets]
                yield pairs


def oracle_bottleneck(left, right):
    lp, rp = left.pairs(), right.pairs()
    return min(
        max((oracle_pair_cost(lp, rp, p) for p in pairs), default=0.0)
        for pairs in all_matchings(len(lp), len(rp))
    )


def lq_norm(costs, q):
    top = max(costs, default=0.0)
    if top in (0.0, math.inf):
        return top
    return top * sum((c / top) ** q for c in costs) ** (1.0 / q)


def oracle_floor(left, right):
    """Largest over all bars of min(diagonal cost, cheapest other-side bar)."""
    lp, rp = left.pairs(), right.pairs()

    def cheapest(bar, others):
        costs = [max(abs(bar[0] - o[0]), abs(bar[1] - o[1])) for o in others]
        return min([(bar[1] - bar[0]) / 2.0, *costs])

    return max([cheapest(x, rp) for x in lp] + [cheapest(y, lp) for y in rp])


def oracle_wasserstein(left, right, q):
    lp, rp = left.pairs(), right.pairs()
    return min(
        lq_norm([oracle_pair_cost(lp, rp, p) for p in pairs], q)
        for pairs in all_matchings(len(lp), len(rp))
    )


from helpers import (
    dense_bottleneck,
    fit_slope,
    full_search_bottleneck,
    min_gap,
    noisy_copy,
    random_barcode,
    star_barcode,
)


def check_witness(left, right, witness):
    lefts = sorted(l for l, _ in witness.pairs if l is not None)
    rights = sorted(r for _, r in witness.pairs if r is not None)
    assert lefts == list(range(1, len(left) + 1))
    assert rights == list(range(1, len(right) + 1))


# --------------------------------------------------------------------------

def test_bottleneck_frozen_examples():
    b = Barcode.from_pairs([(0, 2)])
    assert bottleneck(b, b) == (0.0, bottleneck(b, b)[1])
    d, w = bottleneck(b, Barcode.from_pairs([(0, 3)]))
    assert d == 1.0 and w.pairs == ((1, 1),)


def test_wasserstein_frozen_examples():
    b = Barcode.from_pairs([(0, 2)])
    assert wasserstein(b, b, 1)[0] == 0.0
    assert wasserstein(b, Barcode.from_pairs([(0, 3)]), 1)[0] == 1.0
    d, _ = wasserstein(Barcode.from_pairs([(0, 2), (5, 6)]), b, 1)
    assert d == 0.5  # lone bar goes to the diagonal


def test_invalid_q():
    b = Barcode.from_pairs([(0, 1)])
    for q in (0.5, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidQError):
            wasserstein(b, b, q)


def test_matches_oracle_on_random_pairs():
    rng = random.Random(101)
    for _ in range(60):
        left = random_barcode(rng, rng.randint(1, 3))
        right = random_barcode(rng, rng.randint(1, 3))
        d, w = bottleneck(left, right)
        assert d == pytest.approx(oracle_bottleneck(left, right), abs=1e-12)
        check_witness(left, right, w)
        assert bottleneck_cost(left, right, w.pairs) == d
        for q in (1.0, 2.0):
            dq, wq = wasserstein(left, right, q)
            assert dq == pytest.approx(oracle_wasserstein(left, right, q), abs=1e-9)
            check_witness(left, right, wq)
            assert wasserstein_cost(left, right, wq.pairs, q) == dq


def test_asymmetric_sizes():
    rng = random.Random(103)
    for _ in range(20):
        left = random_barcode(rng, 1)
        right = random_barcode(rng, 3)
        assert bottleneck(left, right)[0] == pytest.approx(
            oracle_bottleneck(left, right), abs=1e-12
        )


def test_metric_axioms_sampled():
    rng = random.Random(107)
    for _ in range(60):
        a = random_barcode(rng, rng.randint(1, 3))
        b = random_barcode(rng, rng.randint(1, 3))
        c = random_barcode(rng, rng.randint(1, 3))
        assert bottleneck(a, a)[0] == 0.0
        dab, dba = bottleneck(a, b)[0], bottleneck(b, a)[0]
        assert dab == pytest.approx(dba, abs=1e-9)
        assert dab >= 0.0
        assert dab <= bottleneck(a, c)[0] + bottleneck(c, b)[0] + 1e-9
        for q in (1.0, 2.0):
            wab = wasserstein(a, b, q)[0]
            assert wab == pytest.approx(wasserstein(b, a, q)[0], abs=1e-9)
            assert wab <= (
                wasserstein(a, c, q)[0] + wasserstein(c, b, q)[0] + 1e-9
            )


def test_large_q_approaches_bottleneck():
    rng = random.Random(109)
    for _ in range(10):
        a = random_barcode(rng, 3)
        b = random_barcode(rng, 3)
        d_inf = bottleneck(a, b)[0]
        d_64 = wasserstein(a, b, 64.0)[0]
        if d_inf > 1e-6:
            assert abs(d_64 - d_inf) / d_inf <= 0.05


def test_align():
    b = Barcode.from_pairs([(0, 1), (0.2, 0.5)])
    assert align(b, b) == align(b, b).__class__(1.0, 0.0)
    a = align(Barcode.from_pairs([(0, 1)]), Barcode.from_pairs([(10, 12)]))
    assert (a.alpha, a.delta) == (0.5, -5.0)
    # the length ratio overflows to inf (and delta to nan), or underflows to
    # zero: no finite map exists, and no non-finite one is returned
    huge = Barcode.from_pairs([(0, 1e300), (0.5, 2)])
    tiny = Barcode.from_pairs([(0, 1e-300), (1e-301, 5e-301)])
    for left, right in ((huge, tiny), (tiny, huge)):
        with pytest.raises(DegenerateBarError, match="no finite alignment"):
            align(left, right)
    # both share the level-0 invariant and huge has a containing bar, so the
    # bound check gets as far as the alignment
    with pytest.raises(DegenerateBarError):
        check_convergence_bounds(huge, tiny, 0, 1)


def test_align_round_trip():
    rng = random.Random(113)
    for _ in range(50):
        b = random_barcode(rng, rng.randint(1, 4))
        alpha = rng.uniform(0.1, 10.0)
        delta = rng.uniform(-20.0, 20.0)
        moved = affine_transform(b, alpha, delta)
        a = align(b, moved)
        assert a.alpha == pytest.approx(1.0 / alpha, rel=1e-12)
        assert a.delta == pytest.approx(-delta / alpha, rel=1e-12, abs=1e-12)
        back = affine_transform(moved, a.alpha, a.delta)
        for orig, rec in zip(b.pairs(), back.pairs()):
            assert rec[0] == pytest.approx(orig[0], rel=1e-12, abs=1e-12)
            assert rec[1] == pytest.approx(orig[1], rel=1e-12, abs=1e-12)


def test_remark_configuration():
    # the aligned map is the identity, yet the distance stays near 1/2:
    # the best matching sends both short bars to the diagonal
    eps = 0.001
    left = Barcode.from_pairs([(0, 1), (1 - eps, 1 + eps)])
    right = Barcode.from_pairs([(0, 1), (1 - eps, 2)])
    a = align(left, right)
    assert (a.alpha, a.delta) == (1.0, 0.0)
    d, _ = bottleneck(left, right)
    assert d == pytest.approx((1 + eps) / 2, abs=1e-12)
    assert d == pytest.approx(oracle_bottleneck(left, right), abs=1e-12)


def test_bound_check_passes_on_aligned_copy():
    b = generate_barcode(4, seed=5, k=2, contained=True)
    moved = affine_transform(b, 3.0, -7.0)
    report = check_convergence_bounds(b, moved, 2, 2.0)
    assert report.passed
    assert report.d_inf <= 1e-9 and report.d_q <= 1e-9
    payload = report.to_json_dict()
    assert set(payload) == {
        "d_inf", "d_q", "bound_inf", "bound_q", "alpha", "delta", "pass",
    }
    assert payload["pass"] is True


def test_bound_check_preconditions():
    strict = generate_barcode(3, seed=8, k=1, contained=True)
    not_strict = Barcode.from_pairs([(0, 1), (0, 2)])
    with pytest.raises(PreconditionFailedError) as exc:
        check_convergence_bounds(strict, not_strict, 0, 1.0)
    assert "strictness" in exc.value.failures

    other = generate_barcode(3, seed=9, k=1, contained=True)
    if g_k(other, 1) != g_k(strict, 1):
        with pytest.raises(PreconditionFailedError) as exc:
            check_convergence_bounds(strict, other, 1, 1.0)
        assert "invariant equality" in exc.value.failures

    no_container = Barcode.from_pairs([(0, 2), (1, 3)])
    with pytest.raises(PreconditionFailedError) as exc:
        check_convergence_bounds(no_container, no_container, 0, 1.0)
    assert exc.value.failures == ("containing bar",)


def test_bound_check_rejects_diverged_remark_pair():
    # the two-bar configuration whose level-k words split once 2^-k
    # undercuts the short bar's length
    eps = 0.001
    left = Barcode.from_pairs([(0, 1), (1 - eps, 1 + eps)])
    right = Barcode.from_pairs([(0, 1), (1 - eps, 2)])
    assert g_k(left, 0) == g_k(right, 0)
    with pytest.raises(PreconditionFailedError) as exc:
        check_convergence_bounds(left, right, 10, 1.0)
    assert "invariant equality" in exc.value.failures


def test_bound_check_samples_each_barcode_once(monkeypatch):
    # generate_barcode has sorted b's level-2 points already, so only the
    # moved barcode, and then the one draw, are sampled
    calls = []
    real = barcomb.barcode._sample_table

    def spy(barcode, k):
        calls.append(k)
        return real(barcode, k)

    b = generate_barcode(4, seed=5, k=2, contained=True)
    moved = affine_transform(b, 3.0, -7.0)
    monkeypatch.setattr(barcomb.barcode, "_sample_table", spy)
    check_convergence_bounds(b, moved, 2, 2.0)
    assert calls == [2]
    calls.clear()
    perturb_preserving_invariant(b, 0.0, 2, seed=1)  # the target, then one draw
    assert calls == [2]


def test_perturb_preserving_invariant(monkeypatch):
    base = generate_barcode(4, seed=21, k=2, contained=True)
    same = perturb_preserving_invariant(base, 0.0, 2, seed=1)
    assert same == base
    gap = min_gap(base, 2)
    a = perturb_preserving_invariant(base, gap / 4, 2, seed=2)
    b = perturb_preserving_invariant(base, gap / 4, 2, seed=2)
    assert a == b  # deterministic
    assert a != base
    assert g_k(a, 2) == g_k(base, 2)
    monkeypatch.setattr(barcomb.distances, "_MAX_DRAWS", 0)
    with pytest.raises(RetriesExhaustedError):
        perturb_preserving_invariant(base, gap, 2, seed=3)


@pytest.mark.parametrize("magnitude", [-0.5, -math.inf, math.inf, math.nan])
def test_perturb_needs_a_finite_non_negative_magnitude(monkeypatch, magnitude):
    # refused before the first draw, not after _MAX_DRAWS of them (0.3 s
    # at 20 bars) with RetriesExhaustedError
    base = generate_barcode(20, seed=1, k=1)
    monkeypatch.setattr(barcomb.distances, "SplitMix64", None)
    with pytest.raises(InvalidBarError, match="finite magnitude >= 0"):
        perturb_preserving_invariant(base, magnitude, 1, seed=5)


def test_aligned_distance_decays_with_level():
    rng = random.Random(127)
    levels = range(2, 9)
    averages = []
    for k in levels:
        total = 0.0
        trials = 5
        for t in range(trials):
            base = star_barcode(3, k, rng)
            moved = perturb_preserving_invariant(
                base, (1.0 / (1 << k)) / 16, k, seed=1000 * k + t
            )
            a = align(base, moved)
            aligned = affine_transform(moved, a.alpha, a.delta)
            total += bottleneck(base, aligned)[0]
        averages.append(total / trials)
    slope = fit_slope(list(levels), [math.log2(v) for v in averages])
    assert 0.8 <= -slope <= 1.2


def test_pair_cost_diagonal():
    left = Barcode.from_pairs([(0, 4)])
    right = Barcode.from_pairs([(1, 2)])
    assert pair_cost(left, right, (1, None)) == 2.0
    assert pair_cost(left, right, (None, 1)) == 0.5
    assert pair_cost(left, right, (None, None)) == 0.0


@pytest.mark.parametrize("pair", [(0, 1), (-1, 1), (1, 0), (3, 1), (1, 3), (0, None), (None, 3)])
def test_pair_costs_refuse_labels_out_of_range(pair):
    # a label is None for the diagonal or names a bar of its side: 0 is no
    # diagonal, and -1 reads no bar from the end
    left = Barcode.from_pairs([(0, 4), (1, 2)])
    right = Barcode.from_pairs([(1, 2), (0, 3)])
    witness = [(1, 1), (2, None), (None, 2)]
    assert pair_cost(left, right, (None, 2)) == 1.5
    assert bottleneck_cost(left, right, witness) == 2.0
    with pytest.raises(InvalidLabelError, match="not in 1..2"):
        pair_cost(left, right, pair)
    with pytest.raises(InvalidLabelError):
        bottleneck_cost(left, right, witness + [pair])
    with pytest.raises(InvalidLabelError):
        wasserstein_cost(left, right, [pair] + witness, 2.0)


def test_pair_costs_match_the_oracle_without_a_warning():
    # the costs of the solvers' formula, read off the endpoint arrays; bars
    # 3e308 apart have a cross cost that overflows to inf, and the last
    # bar of left a diagonal cost that does, both silently
    left = Barcode.from_pairs([(0, 4), (-1.5e308, -1.4e308), (-1e308, 1e308)])
    right = Barcode.from_pairs([(1, 2), (1.5e308, 1.6e308)])
    lp, rp = left.pairs(), right.pairs()
    pairs = [(l, r) for l in (None, 1, 2, 3) for r in (None, 1, 2) if l or r]
    want = [oracle_pair_cost(lp, rp, p) for p in pairs]
    assert want.count(math.inf) == 3
    matchings = [[(1, None), (2, None), (3, 1), (None, 2)], [(1, 1), (2, None), (None, 2)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [pair_cost(left, right, p) for p in pairs] == want
        assert bottleneck_cost(left, right, pairs) == math.inf
        assert bottleneck_cost(left, right, []) == 0.0
        for pairs in matchings:
            costs = [oracle_pair_cost(lp, rp, p) for p in pairs]
            assert bottleneck_cost(left, right, pairs) == max(costs)
            for q in (1.0, 2.0, 7.5):
                assert wasserstein_cost(left, right, pairs, q) == _lq_cost(costs, q)


def test_bottleneck_matches_dense_oracle_bit_for_bit():
    rng = random.Random(131)
    for trial in range(40):
        n = rng.randint(1, 30)
        left = random_barcode(rng, n, 0.0, 16.0)
        if trial % 3 == 0:
            right = random_barcode(rng, rng.randint(1, 30), 0.0, 16.0)
        else:
            right = noisy_copy(left, rng, 0.5)
        d, w = bottleneck(left, right)
        assert d == dense_bottleneck(left, right)
        check_witness(left, right, w)
        assert bottleneck_cost(left, right, w.pairs) == d == w.cost
        for q in (1.0, 2.0):
            dq, wq = wasserstein(left, right, q)
            check_witness(left, right, wq)
            assert wasserstein_cost(left, right, wq.pairs, q) == dq == wq.cost
            assert dq >= d


def coarse_barcode(rng, n):
    """Bars on a grid of step 1/2 with few lengths, so costs tie often."""
    pairs = []
    for _ in range(n):
        b = rng.randint(0, 8) / 2.0
        pairs.append((b, b + rng.randint(1, 4) / 2.0))
    return Barcode.from_pairs(pairs)


def test_bottleneck_matches_full_search():
    rng = random.Random(151)
    pairs = []
    for _ in range(20):
        left = random_barcode(rng, rng.randint(1, 60), 0.0, 16.0)
        pairs.append((left, noisy_copy(left, rng, 0.5)))
        pairs.append((left, random_barcode(rng, rng.randint(1, 60), 0.0, 16.0)))
        coarse = coarse_barcode(rng, rng.randint(1, 30))
        pairs.append((coarse, coarse_barcode(rng, rng.randint(1, 30))))
    # unequal sizes: a noisy copy of the first bars of the left side, and
    # independent bars beyond them when the right side is the larger
    for n, m in [(1, 60), (60, 1), (2, 59), (30, 45), (45, 30), (1, 2)]:
        left = random_barcode(rng, n, 0.0, 16.0)
        more = random_barcode(rng, m, 0.0, 16.0).pairs()[n:]
        kept = Barcode.from_pairs([*left.pairs()[:m], *more])
        pairs.append((left, noisy_copy(kept, rng, 0.25)))
    # the floor is the top level, so every bar goes to the diagonal
    pairs.append((Barcode.from_pairs([(0, 2)]), Barcode.from_pairs([(0, 4)])))
    at_floor = []
    for left, right in pairs:
        d, w = bottleneck(left, right)
        assert (d, w.pairs) == full_search_bottleneck(left, right)
        floor = oracle_floor(left, right)
        assert floor <= d
        at_floor.append(d == floor)
    # the floor probe answers most pairs; the rest need the search above it
    assert any(at_floor) and not all(at_floor)


def test_large_q_does_not_overflow():
    left = generate_barcode(20, seed=1, spread=16.0)
    right = generate_barcode(20, seed=2, spread=16.0)
    d_inf = bottleneck(left, right)[0]
    d_q, w = wasserstein(left, right, 400.0)
    assert math.isfinite(d_q) and d_q >= d_inf > 0.0
    assert wasserstein_cost(left, right, w.pairs, 400.0) == d_q


def test_large_q_does_not_underflow():
    left = generate_barcode(20, seed=3, spread=1.0)
    right = generate_barcode(20, seed=4, spread=1.0)
    d_inf = bottleneck(left, right)[0]
    assert wasserstein(left, right, 1000.0)[0] >= d_inf > 0.0


def test_huge_coordinates():
    left = Barcode.from_pairs([(0.0, 2e300)])
    right = Barcode.from_pairs([(0.0, 4e300)])
    assert wasserstein(left, right, 2.0)[0] == 2e300
    assert bottleneck(left, right)[0] == 2e300


def test_an_overflowing_bar_length_is_refused_by_name():
    # bar 2's length d - b overflows, so its diagonal cost is not finite
    big = Barcode.from_pairs([(0.0, 1.0), (-1e308, 1e308)])
    small = Barcode.from_pairs([(0.0, 1.0)])
    named = r"^bar 2 \(-1e\+308, 1e\+308\) of the {} barcode .* its length overflows$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (bottleneck, lambda a, b: wasserstein(a, b, 2.0)):
            with pytest.raises(InvalidBarError, match=named.format("first")):
                solve(big, small)
            with pytest.raises(InvalidBarError, match=named.format("second")):
                solve(small, big)


def _far_apart_bar(rng, centre):
    birth = centre + rng.uniform(-1e306, 1e306)
    return birth, birth + rng.uniform(1e305, 1e307)


def test_overflowing_cross_costs_are_never_matched():
    # bars near -1.5e308 and near 1.5e308: each cross cost between the two
    # clusters overflows to inf, and every other cost is finite
    rng = random.Random(151)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(30):
            left, right = (
                Barcode.from_pairs(
                    _far_apart_bar(rng, rng.choice((-1.5e308, 1.5e308)))
                    for _ in range(rng.randint(1, 3))
                )
                for _ in range(2)
            )
            d, w = bottleneck(left, right)
            assert d == oracle_bottleneck(left, right) < math.inf
            check_witness(left, right, w)
            for q in (1.0, 2.0, 400.0):
                dq, wq = wasserstein(left, right, q)
                assert dq == pytest.approx(oracle_wasserstein(left, right, q), rel=1e-12)
                check_witness(left, right, wq)
                assert wasserstein_cost(left, right, wq.pairs, q) == dq


def test_large_q_matches_exhaustive_oracle():
    rng = random.Random(137)
    for _ in range(30):
        left = random_barcode(rng, rng.randint(1, 3), 0.0, 16.0)
        right = random_barcode(rng, rng.randint(1, 3), 0.0, 16.0)
        for q in (8.0, 64.0, 400.0, 1000.0):
            assert wasserstein(left, right, q)[0] == pytest.approx(
                oracle_wasserstein(left, right, q), rel=1e-12
            )


def test_wasserstein_falls_toward_bottleneck_as_q_grows():
    rng = random.Random(139)
    qs = [2.0**e for e in range(11)]
    for trial in range(20):
        left = random_barcode(rng, rng.randint(1, 20), 0.0, 16.0)
        if trial % 2:
            right = noisy_copy(left, rng, 0.5)
        else:
            right = random_barcode(rng, rng.randint(1, 20), 0.0, 16.0)
        d_inf = bottleneck(left, right)[0]
        values = [wasserstein(left, right, q)[0] for q in qs]
        for big, small in zip(values, values[1:]):
            assert small <= big * (1 + 1e-12)
        # the bottleneck witness bounds d_q by (n + m)^(1/q) * d_inf
        size = len(left) + len(right)
        assert d_inf <= values[-1] <= d_inf * size ** (1 / qs[-1]) * (1 + 1e-12)


@pytest.mark.parametrize(
    "n, noisy", [(1000, True), (600, False)], ids=["1000 noisy", "600 independent"]
)
def test_large_pair_smoke(n, noisy):
    # no time assertion: the suite's run time shows a slow probe graph
    rng = random.Random(149)
    left = random_barcode(rng, n, 0.0, 16.0)
    right = noisy_copy(left, rng, 0.5) if noisy else random_barcode(rng, n, 0.0, 16.0)
    d, w = bottleneck(left, right)
    check_witness(left, right, w)
    assert bottleneck_cost(left, right, w.pairs) == d > 0.0
    if noisy:
        assert d <= 0.5


# --- hypothesis properties -------------------------------------------------

# coordinates on a 2^-10 grid keep every cost exact, so the axioms hold
# without tolerance
grid = st.integers(0, 1 << 14).map(lambda v: v / 1024.0)
lengths = st.integers(1, 1 << 13).map(lambda v: v / 1024.0)
barcodes = st.lists(st.tuples(grid, lengths), min_size=1, max_size=6).map(
    lambda bars: Barcode.from_pairs([(b, b + w) for b, w in bars])
)


@settings(max_examples=60, deadline=None)
@given(barcodes, barcodes, barcodes)
def test_bottleneck_metric_properties(a, b, c):
    assert bottleneck(a, a)[0] == 0.0
    d_ab = bottleneck(a, b)[0]
    assert d_ab == bottleneck(b, a)[0]
    assert d_ab <= bottleneck(a, c)[0] + bottleneck(c, b)[0]


@settings(max_examples=60, deadline=None)
@given(barcodes, barcodes, st.sampled_from([1.0, 1.5, 2.0, 3.0, 64.0, 1000.0]))
def test_wasserstein_at_least_bottleneck(a, b, q):
    assert wasserstein(a, b, q)[0] >= bottleneck(a, b)[0]


@settings(max_examples=60, deadline=None)
@given(barcodes, barcodes)
def test_bottleneck_at_least_floor(a, b):
    assert oracle_floor(a, b) <= bottleneck(a, b)[0]
    assert oracle_floor(a, a) == bottleneck(a, a)[0]
