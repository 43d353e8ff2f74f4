from hypertree_lab.collapse import collapse, collapses_to_point
from hypertree_lab.fields import GF2, RATIONALS
from hypertree_lab.homology import betti_table
from hypertree_lab.randomness import SplitMix64
from hypertree_lab.simplexes import as_general, closure
from _random_complexes import random_general_complex
from _registry import track

RP2_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
)


def test_solid_simplex_collapses_to_point():
    X = closure([(0, 1, 2, 3)], 4)
    core, log = collapse(X)
    assert collapses_to_point(X)
    assert len(log) == 7  # 16 faces down to 2, one pair at a time
    assert len(core.faces) == 2


def test_path_collapse_log_is_deterministic():
    X = closure([(0, 1), (1, 2)], 3)
    core, log = collapse(X)
    assert log == (((0,), (0, 1)), ((1,), (1, 2)))
    assert core.faces == frozenset({(), (2,)})


def test_cycle_has_no_free_faces():
    X = closure([(0, 1), (1, 2), (0, 2)], 3)
    core, log = collapse(X)
    assert log == ()
    assert core.faces == as_general(X).faces
    assert not collapses_to_point(X)


def test_point_is_already_collapsed():
    assert collapses_to_point(closure([(0,)], 1))


def test_disconnected_edges_stop_at_two_components():
    X = closure([(0, 1), (2, 3)], 4)
    core, log = collapse(X)
    assert len(log) == 2
    assert core.dim == 0 and len(core.faces) == 3
    assert not collapses_to_point(X)


def test_closed_surface_has_no_free_faces():
    X = closure(RP2_FACETS, 6)
    core, log = collapse(X)
    assert log == ()
    assert len(core.faces) == len(as_general(X).faces)


def test_collapse_preserves_homology():
    rng = SplitMix64(271828)
    for _ in range(25):
        X = random_general_complex(6, 2, 5, rng)
        track(X)
        core, log = collapse(X)
        assert core.faces <= as_general(X).faces
        assert len(core.faces) + 2 * len(log) == len(as_general(X).faces)
        for fld in (GF2, RATIONALS):
            a = betti_table(core, fld)
            b = betti_table(X, fld)
            # tables may cover different degree ranges; absent means zero
            for j in set(a) | set(b):
                assert a.get(j, 0) == b.get(j, 0)
