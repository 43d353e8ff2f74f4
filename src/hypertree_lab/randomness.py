"""Deterministic splittable PRNG and random complex generators.

SplitMix64 keeps runs reproducible across platforms without dragging in
Python's global Mersenne Twister state; split() hands an independent
stream to a sub-task so its draws do not depend on what ran before it.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import ParameterOutOfRange, TooLarge
from .simplexes import GeneralComplex, SkeletonComplex, closure

MASK = (1 << 64) - 1
FACE_BUDGET = 10 ** 6  # candidate k-faces a random draw may enumerate


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return self.next_u64() / 2.0 ** 64

    def below(self, n: int) -> int:
        # rejection-free modulo is fine at these sizes; bias < 2^-50
        return self.next_u64() % n

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, items):
        return items[self.below(len(items))]


def random_skeleton_complex(n: int, k: int, q: float,
                            rng: SplitMix64) -> SkeletonComplex:
    """Full (k-1)-skeleton plus each k-face independently with probability q.

    Faces are visited in lexicographic order so a seed pins the complex.
    Both q and the number of candidate faces are checked before any draw.
    """
    if not 0.0 <= q <= 1.0:  # NaN fails this too
        raise ParameterOutOfRange(f"face density q={q} must lie in [0, 1]")
    if 0 <= k < n and comb(n, k + 1) > FACE_BUDGET:
        raise TooLarge(f"C({n}, {k + 1}) = {comb(n, k + 1)} candidate faces "
                       f"exceeds the budget of {FACE_BUDGET}")
    tops = [
        sigma for sigma in combinations(range(n), k + 1)
        if rng.uniform() < q
    ]
    return SkeletonComplex(n, k, frozenset(tops))


def random_general_complex(n: int, max_dim: int, n_facets: int,
                           rng: SplitMix64) -> GeneralComplex:
    """Downward closure of random facets with mixed dimensions."""
    facets = []
    verts = list(range(n))
    for _ in range(n_facets):
        d = rng.below(max_dim + 1)
        pool = verts[:]
        rng.shuffle(pool)
        facets.append(tuple(sorted(pool[:d + 1])))
    return closure(facets, n)


def random_pure_complex(n: int, d: int, n_facets: int,
                        rng: SplitMix64) -> GeneralComplex:
    """Downward closure of random d-dimensional facets, all distinct."""
    all_tops = list(combinations(range(n), d + 1))
    rng.shuffle(all_tops)
    return closure(all_tops[:max(1, min(n_facets, len(all_tops)))], n)
