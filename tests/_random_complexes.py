"""Random general and pure complexes, drawn from a SplitMix64 stream.

Only the tests draw complexes this way; the library's own random input is
randomness.random_skeleton_complex.
"""
from itertools import combinations

from hypertree_lab.randomness import SplitMix64
from hypertree_lab.simplexes import GeneralComplex, closure


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
