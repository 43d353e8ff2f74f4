import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypertree_lab.randomness import BLOCK, SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import face_count, full_skeleton
from _oracles import validate
from _random_complexes import random_general_complex, random_pure_complex
from _registry import track


def test_known_answer_vector_for_seed_zero():
    # published reference outputs for this generator
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_streams_are_deterministic_and_seed_sensitive():
    a = SplitMix64(123)
    b = SplitMix64(123)
    c = SplitMix64(124)
    xs = [a.next_u64() for _ in range(10)]
    assert xs == [b.next_u64() for _ in range(10)]
    assert xs != [c.next_u64() for _ in range(10)]


def test_uniform_and_below_ranges():
    r = SplitMix64(55)
    for _ in range(200):
        u = r.uniform()
        assert 0.0 <= u < 1.0
        assert 0 <= r.below(7) < 7


def test_shuffle_is_a_permutation():
    r = SplitMix64(8)
    xs = list(range(20))
    ys = list(xs)
    r.shuffle(ys)
    assert sorted(ys) == xs
    assert ys != xs  # astronomically unlikely to be identity


def _per_swap_shuffle(rng, items):
    """Fisher-Yates one below() per swap, as the block shuffle must behave."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("length", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_shuffle_matches_the_per_swap_loop(length, seed):
    # the outputs come in numpy blocks, the swaps in order, and the state
    # ends where the per-swap loop leaves it
    a, b = SplitMix64(seed), SplitMix64(seed)
    xs, ys = list(range(length)), list(range(length))
    a.shuffle(xs)
    _per_swap_shuffle(b, ys)
    assert xs == ys
    assert a.state == b.state


def test_random_skeleton_complex_density_extremes():
    r = SplitMix64(1)
    full = random_skeleton_complex(6, 2, 1.0, r)
    assert full == full_skeleton(6, 2)
    empty = random_skeleton_complex(6, 2, 0.0, r)
    assert empty.top_faces == frozenset()


def test_random_general_complex_is_valid():
    r = SplitMix64(77)
    for _ in range(20):
        X = random_general_complex(6, 2, 4, r)
        validate(X)
        assert X.dim <= 2


def test_random_pure_complex_is_pure():
    from hypertree_lab.garland import check_pure
    r = SplitMix64(13)
    for _ in range(20):
        X = random_pure_complex(6, 2, 5, r)
        validate(X)
        check_pure(X)
        assert X.dim == 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(2, 7), st.integers(1, 3))
def test_same_seed_same_complex(seed, n, k):
    if k > n - 1:
        return
    a = track(random_skeleton_complex(n, k, 0.5, SplitMix64(seed)))
    b = random_skeleton_complex(n, k, 0.5, SplitMix64(seed))
    assert a == b
    assert face_count(a, k) == len(a.top_faces)


def scalar_draw(n, k, q, rng):
    """The draw one candidate at a time: keep it when rng.uniform() < q."""
    return frozenset(sigma for sigma in combinations(range(n), k + 1)
                     if rng.uniform() < q)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x2545F4914F6CDD1D,
                                  0xD1B54A32D192ED03])
@pytest.mark.parametrize("n,k", [(7, 2), (9, 3), (6, 5), (1, 0), (12, 11)])
def test_draw_matches_per_candidate_uniform(seed, n, k):
    qs = (0.0, 1.0, 5e-324, math.nextafter(0.5, 0), 0.5, (k + 1) / n)
    for q in qs:
        a, b = SplitMix64(seed), SplitMix64(seed)
        X = random_skeleton_complex(n, k, q, a)
        assert X.top_faces == scalar_draw(n, k, q, b), q
        assert a.state == b.state
        # a caller that keeps drawing sees the stream it saw before
        Y = random_skeleton_complex(n, k, 0.5, a)
        assert Y.top_faces == scalar_draw(n, k, 0.5, b)
        assert a.next_u64() == b.next_u64()


def test_draw_longer_than_a_block_matches_per_candidate_uniform():
    # C(75, 3) = 67,525 candidates
    for seed, q in ((5, 3 / 75), (2**64 - 1, 0.5)):
        a, b = SplitMix64(seed), SplitMix64(seed)
        X = random_skeleton_complex(75, 2, q, a)
        assert X.top_faces == scalar_draw(75, 2, q, b)
        assert a.state == b.state
        assert a.next_u64() == b.next_u64()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(1, 9), st.integers(0, 4),
       st.floats(0.0, 1.0))
def test_draw_matches_per_candidate_uniform_on_random_seeds(seed, n, k, q):
    if k > n - 1:
        return
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert (random_skeleton_complex(n, k, q, a).top_faces
            == scalar_draw(n, k, q, b))
    assert a.state == b.state


@pytest.mark.parametrize("z", [2**53 + 1, 2**63 + 2**10, 2**63 + 2**10 + 1,
                               2**64 - 2**11, 2**64 - 1])
def test_uint64_to_float64_cast_rounds_like_python(z):
    # the draw tests z / 2**64 < q on numpy's cast of each output z
    assert np.array([z], dtype=np.uint64).astype(np.float64)[0] == float(z)
