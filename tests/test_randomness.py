from hypothesis import given, settings, strategies as st

from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import face_count, full_skeleton
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


def test_split_gives_independent_stream():
    a = SplitMix64(9)
    child = a.split()
    before = a.next_u64()
    # consuming the child must not disturb the parent
    a2 = SplitMix64(9)
    a2.split()
    for _ in range(5):
        child.next_u64()
    assert a2.next_u64() == before


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


def test_choice_picks_members():
    r = SplitMix64(3)
    pool = ["a", "b", "c"]
    assert all(r.choice(pool) in pool for _ in range(20))


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
        X.validate()
        assert X.dim <= 2


def test_random_pure_complex_is_pure():
    from hypertree_lab.garland import check_pure
    r = SplitMix64(13)
    for _ in range(20):
        X = random_pure_complex(6, 2, 5, r)
        X.validate()
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
