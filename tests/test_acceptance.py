"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; a criterion either passes at its
stated tolerance or the suite is red.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

from helpers import fit_slope, interval_graph, min_gap, star_barcode

from barcomb.barcode import (
    Barcode,
    affine_transform,
    crossing_number,
    generate_barcode,
)
from barcomb.distances import (
    align,
    bottleneck,
    check_convergence_bounds,
    perturb_preserving_invariant,
    wasserstein,
)
from barcomb.lattice import (
    LatticeSpec,
    enumerate_lattice,
    join,
    meet,
    top_element,
    verify_ideal_isomorphism,
)
from barcomb.multiperm import (
    Multipermutation,
    canonicalize,
    delta_k,
    f_k,
    g_k,
    inversion_multiset,
    newman_leq,
    phi,
    prec,
    rank,
)
from barcomb.polytope import affine_dimension, pi_partition_blocks, vertices


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number:2d} ({title}): PASS"
        f" [{elapsed:.2f}s / {budget_seconds:.0f}s]"
    )
    assert elapsed < budget_seconds


def birth_sorted_graph(barcode):
    """Interval graph with vertices renamed into birth order."""
    order = sorted(
        range(1, len(barcode) + 1), key=lambda i: barcode.ends[i - 1, 0]
    )
    name = {label: pos for pos, label in enumerate(order, start=1)}
    return frozenset(
        tuple(sorted((name[i], name[j]))) for i, j in interval_graph(barcode)
    )


def test_criterion_01_worked_examples():
    with criterion(1, "worked examples", 1.0):
        b1 = Barcode.from_pairs([(1.0, 2.0), (1.5, 3.0), (2.5, 2.75)])
        b2 = Barcode.from_pairs([(1.5, 3.0), (1.0, 2.0), (2.5, 2.75)])
        assert str(f_k(b1, 0)) == "1 2 1 3 3 2"
        assert str(f_k(b2, 0)) == "2 1 2 3 3 1"
        assert (
            str(canonicalize(Multipermutation((2, 1, 4, 1, 3, 3, 2, 4))))
            == "1 2 3 2 4 4 1 3"
        )
        # nested pairs count twice: the (4,3) multiplicity is 2, matching the
        # three-pattern case analysis and |invm| = |inv after embedding| = 8
        assert inversion_multiset(Multipermutation((1, 2, 3, 2, 4, 4, 1, 3))) == (
            Counter({(2, 1): 2, (3, 1): 1, (4, 1): 2, (3, 2): 1, (4, 3): 2})
        )
        assert phi(b2) == (1, 3, 2)
        mid = Barcode.from_pairs([(1.0, 2.5), (1.5, 4.0), (3.0, 3.5)])
        assert str(f_k(mid, 1)) == "1 2 1 1 2 3 3 3 2"
        assert str(delta_k(f_k(mid, 1))) == str(f_k(mid, 0)) == "1 2 1 3 3 2"


def test_criterion_02_known_diagram_reconstruction():
    with criterion(2, "level-1 two-bar diagram", 1.0):
        d = enumerate_lattice(LatticeSpec(2, 1))
        assert {str(s) for s in d.elements} == {
            "1 1 1 2 2 2", "1 1 2 1 2 2", "1 1 2 2 1 2", "1 1 2 2 2 1",
            "1 2 1 1 2 2", "1 2 1 2 1 2", "1 2 1 2 2 1", "1 2 2 1 1 2",
            "1 2 2 1 2 1", "1 2 2 2 1 1",
        }
        assert d.rank_vector() == [1, 1, 2, 2, 2, 1, 1]
        assert str(top_element(LatticeSpec(2, 1))) == "1 2 2 2 1 1"
        assert max(d.ranks) == 6
        edges = {(str(d.elements[lo]), str(d.elements[hi])) for lo, hi in d.covers}
        assert edges == {
            ("1 1 1 2 2 2", "1 1 2 1 2 2"),
            ("1 1 2 1 2 2", "1 1 2 2 1 2"),
            ("1 1 2 1 2 2", "1 2 1 1 2 2"),
            ("1 1 2 2 1 2", "1 1 2 2 2 1"),
            ("1 1 2 2 1 2", "1 2 1 2 1 2"),
            ("1 1 2 2 2 1", "1 2 1 2 2 1"),
            ("1 2 1 1 2 2", "1 2 1 2 1 2"),
            ("1 2 1 2 1 2", "1 2 1 2 2 1"),
            ("1 2 1 2 1 2", "1 2 2 1 1 2"),
            ("1 2 1 2 2 1", "1 2 2 1 2 1"),
            ("1 2 2 1 1 2", "1 2 2 1 2 1"),
            ("1 2 2 1 2 1", "1 2 2 2 1 1"),
        }


def test_criterion_03_multiset_order_agrees_with_newman():
    with criterion(3, "order construction agreement", 10.0):
        d = enumerate_lattice(LatticeSpec(3, 0))
        for s in d.elements:
            for t in d.elements:
                assert prec(s, t) == newman_leq(s, t)
        rng = random.Random(4242)
        base = [sym for sym in range(1, 6) for _ in range(2)]
        for _ in range(10000):
            u, v = list(base), list(base)
            rng.shuffle(u)
            rng.shuffle(v)
            s = canonicalize(Multipermutation(tuple(u)))
            t = canonicalize(Multipermutation(tuple(v)))
            assert prec(s, t) == newman_leq(s, t)


def test_criterion_04_rank_counts_crossings():
    with criterion(4, "rank equals crossing sum", 10.0):
        for trial in range(1000):
            n = 2 + trial % 7  # 2..8
            bc = generate_barcode(n, seed=50000 + trial, k=0)
            total = sum(
                crossing_number(bc, i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
            assert rank(g_k(bc, 0)) == total


def test_criterion_05_principal_ideal():
    with criterion(5, "principal ideal isomorphism", 60.0):
        expected = {
            (2, 0): 3, (3, 0): 15, (4, 0): 105, (5, 0): 945, (6, 0): 10_395,
            (2, 1): 10, (3, 1): 280, (4, 1): 15_400, (2, 2): 126, (3, 2): 126_126,
        }
        for (n, k), count in expected.items():
            spec = LatticeSpec(n, k)
            report = verify_ideal_isomorphism(spec)
            assert report.equal
            assert report.canonical_count == report.ideal_count == count
            m = spec.m
            formula = math.factorial(n * m) // (
                math.factorial(m) ** n * math.factorial(n)
            )
            assert count == formula


def test_criterion_06_lattice_laws():
    with criterion(6, "lattice laws", 10.0):
        for n, k in [(3, 0), (2, 1)]:
            spec = LatticeSpec(n, k)
            d = enumerate_lattice(spec)
            for s in d.elements:
                assert meet(s, s, spec) == s and join(s, s, spec) == s
                for t in d.elements:
                    lo, hi = meet(s, t, spec), join(s, t, spec)
                    assert lo in d and hi in d
                    assert lo == meet(t, s, spec) and hi == join(t, s, spec)
                    assert meet(s, hi, spec) == s and join(s, lo, spec) == s


def test_criterion_07_invariance_suite():
    with criterion(7, "invariance suite", 30.0):
        for trial in range(1000):
            n = 2 + trial % 5  # 2..6
            k = trial % 4  # 0..3
            bc = generate_barcode(n, seed=60000 + trial, k=k)
            base = g_k(bc, k)

            rng = random.Random(trial)
            order = list(range(n))
            rng.shuffle(order)
            bars = bc.bars
            shuffled = Barcode(tuple(bars[i] for i in order))
            assert g_k(shuffled, k) == base

            alpha = rng.uniform(0.1, 10.0)
            delta = rng.uniform(-100.0, 100.0)
            moved = affine_transform(bc, alpha, delta)
            assert g_k(moved, k) == base

            word = base
            for j in range(k - 1, -1, -1):
                word = delta_k(word)
                assert word == g_k(bc, j)

            assert birth_sorted_graph(shuffled) == birth_sorted_graph(bc)
            assert interval_graph(moved) == interval_graph(bc)
            if trial % 5 == 0:
                jitter = perturb_preserving_invariant(
                    bc, min_gap(bc, 0) / 4, 0, seed=61000 + trial
                )
                assert g_k(jitter, 0) == g_k(bc, 0)
                assert interval_graph(jitter) == interval_graph(bc)


def test_criterion_08_convergence_bounds_and_decay():
    with criterion(8, "convergence bounds and decay", 120.0):
        violations = 0
        for trial in range(1000):
            n = 2 + trial % 5  # 2..6
            k = 1 + trial % 5  # 1..5
            q = 1.0 + trial % 3
            base = generate_barcode(n, seed=70000 + trial, k=k, contained=True)
            moved = perturb_preserving_invariant(
                base, min_gap(base, k) / 4, k, seed=80000 + trial
            )
            report = check_convergence_bounds(base, moved, k, q)
            if not report.passed:
                violations += 1
        assert violations == 0

        rng = random.Random(90001)
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


def test_criterion_09_identity_aligned_gap_configuration():
    with criterion(9, "identity-aligned gap configuration", 1.0):
        eps = 0.001
        left = Barcode.from_pairs([(0, 1), (1 - eps, 1 + eps)])
        right = Barcode.from_pairs([(0, 1), (1 - eps, 2)])
        a = align(left, right)
        assert (a.alpha, a.delta) == (1.0, 0.0)
        d, _ = bottleneck(left, right)
        # exhaustive matching puts both short bars on the diagonal, so the
        # distance is (1 + eps) / 2: bounded away from zero, as claimed
        assert abs(d - (1 + eps) / 2) <= 1e-12
        assert d > 0.4


def test_criterion_10_polytope_dimension():
    with criterion(10, "polytope dimension", 10.0):
        for n, k in [(1, 0), (2, 0), (3, 0), (2, 1)]:
            spec = LatticeSpec(n, k)
            expected = n * ((1 << k) + 1) - 2
            assert affine_dimension(vertices(spec)) == expected
            if spec.positions >= 2:
                assert pi_partition_blocks(spec) == 2


def test_criterion_11_distance_sanity():
    with criterion(11, "distance metric sanity", 30.0):
        rng = random.Random(313)

        def sample():
            pairs = []
            for _ in range(rng.randint(1, 3)):
                b = rng.uniform(0.0, 1.0)
                pairs.append((b, b + rng.uniform(0.05, 1.0)))
            return Barcode.from_pairs(pairs)

        for trial in range(1000):
            a, b, c = sample(), sample(), sample()
            q = 1.0 + trial % 2
            assert bottleneck(a, a)[0] == 0.0
            assert wasserstein(a, a, q)[0] == 0.0
            dab = bottleneck(a, b)[0]
            assert dab >= 0.0
            assert abs(dab - bottleneck(b, a)[0]) <= 1e-9
            assert dab <= bottleneck(a, c)[0] + bottleneck(c, b)[0] + 1e-9
            wab = wasserstein(a, b, q)[0]
            assert wab >= 0.0
            assert abs(wab - wasserstein(b, a, q)[0]) <= 1e-9
            assert wab <= (
                wasserstein(a, c, q)[0] + wasserstein(c, b, q)[0] + 1e-9
            )
