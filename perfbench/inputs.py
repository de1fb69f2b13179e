"""Seeded inputs for the benchmark, made without any barcomb code.

Every coordinate is a multiple of GRID and smaller than 32 in magnitude, so
it carries at most 31 significant bits.  The level-k sample points
``b + l * (d - b) / 2^k`` (k <= 3) and the maps ``x -> 2^j * x + delta`` with
``delta`` on the grid are then exact in binary64: the order of sample points
is a property of the rationals, and the invariance checks cannot be tripped
by rounding.

The generator is Python's ``random.Random`` (Mersenne Twister), whose
``randrange`` stream is stable across Python versions, so a change to
``barcomb.rng`` or ``barcomb.generate_barcode`` leaves the inputs unchanged.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

GRID = 2.0 ** -26
NOISE = 0.5  # endpoint noise of a noisy copy, against births in [0, 16)


def sample_values(pairs, k: int) -> list[tuple[float, int]]:
    """Level-k sample points as (value, 1-based label), sorted."""
    step = 1 << k
    return sorted(
        (b + ell * (d - b) / step, label)
        for label, (b, d) in enumerate(pairs, start=1)
        for ell in range(step + 1)
    )


def min_gap(pairs, k: int) -> float:
    """Smallest distance between two level-k sample points (0.0 on a tie)."""
    values = [v for v, _ in sample_values(pairs, k)]
    return min(y - x for x, y in zip(values, values[1:]))


def draw_barcode(
    rng: random.Random, n: int, k: int, spread: float = 16.0, contained: bool = False
) -> list[tuple[float, float]]:
    """n bars with births in [0, spread), lengths in [spread/10, spread/2).

    With ``contained`` the first bar is widened to contain all others.  Draws
    repeat until the barcode is k-strict, so the result depends on the seed
    alone.
    """
    units = int(spread / GRID)
    while True:
        pairs = []
        for _ in range(n - 1 if contained else n):
            birth = rng.randrange(units)
            length = rng.randrange(units // 10, units // 2)
            pairs.append((birth * GRID, (birth + length) * GRID))
        if contained:
            lo = min(b for b, _ in pairs) - rng.randrange(units // 20, units // 4) * GRID
            hi = max(d for _, d in pairs) + rng.randrange(units // 20, units // 4) * GRID
            pairs.insert(0, (lo, hi))
        if min_gap(pairs, k) > 0.0:
            return pairs


def noisy_copy(rng: random.Random, pairs, noise: float = NOISE):
    """Every endpoint moved by grid noise in [-noise, noise]; bars stay >= 1/16 long."""
    units = int(noise / GRID)
    out = []
    for b, d in pairs:
        b2 = b + rng.randrange(-units, units + 1) * GRID
        d2 = d + rng.randrange(-units, units + 1) * GRID
        out.append((b2, max(d2, b2 + 0.0625)))
    return out


def write_barcode(path: str, pairs) -> None:
    """CSV for ``.csv`` paths, a JSON array otherwise; repr round-trips."""
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".csv"):
            fh.write("# birth,death\n")
            fh.writelines(f"{b!r},{d!r}\n" for b, d in pairs)
        else:
            json.dump([[b, d] for b, d in pairs], fh)


def random_canonical_word(rng: random.Random, n: int, m: int) -> list[int]:
    """A shuffled multiset permutation, relabeled to first-occurrence order."""
    word = [sym for sym in range(1, n + 1) for _ in range(m)]
    rng.shuffle(word)
    relabel: dict[int, int] = {}
    for sym in word:
        relabel.setdefault(sym, len(relabel) + 1)
    return [relabel[sym] for sym in word]


@dataclass
class Job:
    """One operation's inputs: files on disk plus the parameters it needs."""

    name: str
    tier: str  # "small" or "large"
    params: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    known_fault: str | None = None  # fault the operation is expected to hit


# Workload make-up.  With the seed code a large-tier operation takes 0.3 to
# 3 s and a round 4 to 9 s, so a 30 s run times every operation at least
# three times; README.md has the measured figures.
INVARIANT_TIERS = {
    "small": [(50, 0)] * 6 + [(50, 1)] * 6,
    "large": [(400, 0), (160, 2), (80, 3)] * 2,
}
# Plain pairs (k is None) are a barcode and a noisy copy of it; contained
# pairs are a barcode with a containing bar and an independent one, and also
# run the level-k bound check.  A noisy copy keeps the cost of the augmenting
# path search within about 15 % from seed to seed, where independent pairs
# vary by over 20 %.
DISTANCE_TIERS = {
    "small": [(20, None)] * 16 + [(24, 1), (32, 1), (24, 2), (32, 2)],
    "large": [(60, None)] * 12,
}
# The wasserstein fault: costs raised to the power q without scaling.  The
# inputs are fixed (not drawn from --seed) so the operations fail every run.
LARGE_Q_JOBS = [
    ("large_q_overflow", 16.0, 400.0),
    ("large_q_underflow", 1.0, 1000.0),
]
LATTICE_TIERS = {
    "small": [(2, 1), (4, 0), (3, 1), (2, 2), (5, 0)],
    "large": [(6, 0), (4, 1), (2, 3)],
}
MEETJOIN_QUERIES = 16
IDEAL_CHECK_MAX_WORDS = 3000  # verify_ideal_isomorphism walks every word


def multinomial_words(n: int, m: int) -> int:
    return math.factorial(n * m) // math.factorial(m) ** n


def make_jobs(workload: str, seed: int, directory: str) -> list[Job]:
    """Write the workload's input files into ``directory`` and list its jobs."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    jobs: list[Job] = []

    def pair_files(name, a, b):
        files = {"a": os.path.join(directory, f"{name}_a.csv"),
                 "b": os.path.join(directory, f"{name}_b.json")}
        write_barcode(files["a"], a)
        write_barcode(files["b"], b)
        return files

    if workload == "invariants":
        for tier, sizes in INVARIANT_TIERS.items():
            for i, (n, k) in enumerate(sizes):
                name = f"{tier}{i}_n{n}_k{k}"
                files = pair_files(name, draw_barcode(rng, n, k), draw_barcode(rng, n, k))
                jobs.append(Job(name, tier, {"n": n, "k": k}, files))
    elif workload == "distances":
        for tier, sizes in DISTANCE_TIERS.items():
            for i, (n, k) in enumerate(sizes):
                params = {"n": n}
                if k is None:
                    name = f"{tier}{i}_n{n}_noisy"
                    a = draw_barcode(rng, n, 0)
                    b = noisy_copy(rng, a)
                else:
                    name = f"{tier}{i}_n{n}_bound_k{k}"
                    a = draw_barcode(rng, n, k, contained=True)
                    b = draw_barcode(rng, n, k)
                    # Each sample point moves by less than the perturbation
                    # magnitude, so below half the smallest gap no draw is
                    # rejected and the operation's cost does not depend on luck.
                    params.update(k=k, magnitude=0.45 * min_gap(a, k),
                                  perturb_seed=rng.randrange(2**32))
                jobs.append(Job(name, tier, params, pair_files(name, a, b)))
            if tier == "small":
                for name, spread, q in LARGE_Q_JOBS:
                    fixed = random.Random(1), random.Random(2)
                    a, b = (draw_barcode(r, 20, 0, spread=spread) for r in fixed)
                    jobs.append(Job(name, "small", {"n": 20, "q": q}, pair_files(name, a, b),
                                    known_fault="wasserstein raises costs to the power q unscaled"))
    elif workload == "lattices":
        for tier, specs in LATTICE_TIERS.items():
            for n, k in specs:
                m = (1 << k) + 1
                name = f"{tier}_n{n}_k{k}"
                path = os.path.join(directory, f"{name}_queries.json")
                queries = [[{"word": random_canonical_word(rng, n, m)} for _ in range(2)]
                           for _ in range(MEETJOIN_QUERIES)]
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"n": n, "k": k, "queries": queries}, fh)
                jobs.append(Job(name, tier, {
                    "n": n, "k": k,
                    "ideal_check": multinomial_words(n, m) <= IDEAL_CHECK_MAX_WORDS,
                }, {"queries": path}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
