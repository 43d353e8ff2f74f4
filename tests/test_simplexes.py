import copy
import pickle
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypertree_lab.errors import (
    DimensionMismatch,
    FaceNotInComplex,
    NotSandwiched,
    VertexOutOfRange,
)
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import (
    EMPTY_SIMPLEX,
    VOID,
    GeneralComplex,
    SkeletonComplex,
    _TABLE_BITS,
    _binomials,
    _bitsets,
    _lex_ranks,
    _lex_unrank,
    _link_pairs,
    _relabelled_link_tops,
    _top_array,
    all_faces,
    as_general,
    as_skeleton_complex,
    closure,
    contains,
    f_vector,
    face_count,
    faces,
    from_top_faces,
    full_skeleton,
    iter_faces,
    link,
    make_simplex,
    remove_top_face,
    subfaces,
)
from _oracles import validate
from _registry import track


def test_make_simplex_sorts_and_rejects_repeats():
    assert make_simplex([3, 1, 2]) == (1, 2, 3)
    assert make_simplex([]) == EMPTY_SIMPLEX
    with pytest.raises(DimensionMismatch):
        make_simplex([1, 1, 2])
    with pytest.raises(VertexOutOfRange):
        make_simplex([-1, 0])


def test_subfaces_and_boundary():
    assert set(subfaces((0, 1))) == {(), (0,), (1,), (0, 1)}
    assert list(subfaces(EMPTY_SIMPLEX)) == [EMPTY_SIMPLEX]
    assert len(list(subfaces((0, 1, 2)))) == 8


def test_skeleton_complex_validation():
    X = SkeletonComplex(5, 2, frozenset({(0, 1, 2), (1, 2, 3)}))
    assert set(X.ground) == {0, 1, 2, 3, 4}
    assert X.dim == 2
    with pytest.raises(VertexOutOfRange):
        SkeletonComplex(4, 2, frozenset({(0, 1, 5)}))
    with pytest.raises(DimensionMismatch):
        SkeletonComplex(5, 2, frozenset({(0, 1)}))
    with pytest.raises(DimensionMismatch):
        SkeletonComplex(5, 2, frozenset({(2, 1, 0)}))
    # no top faces: the object is the bare lower skeleton
    assert SkeletonComplex(5, 2, frozenset()).dim == 1


def test_skeleton_complex_checks_run_in_order():
    # per face: size first, then the vertex range, then strict increase
    with pytest.raises(DimensionMismatch):
        SkeletonComplex(4, 2, frozenset({(0, 9)}))
    with pytest.raises(VertexOutOfRange):
        SkeletonComplex(4, 2, frozenset({(5, 1, 0)}))
    with pytest.raises(VertexOutOfRange):
        SkeletonComplex(4, 2, frozenset({(-1, 1, 2)}))
    with pytest.raises(VertexOutOfRange):
        SkeletonComplex(4, 2, frozenset({(0, 1, 4)}))
    with pytest.raises(DimensionMismatch):
        SkeletonComplex(4, 2, frozenset({(0, 1, 1)}))
    with pytest.raises(DimensionMismatch):
        SkeletonComplex(4, 2, frozenset({(0, 2, 1)}))
    assert SkeletonComplex(4, 2, frozenset({(0, 1, 3)})).dim == 2


def _per_face_check(n, k, top_faces):
    """The constructor's per-face loop over top_faces, kept here as the
    oracle for its all-at-once check."""
    size = k + 1
    for sigma in top_faces:
        if len(sigma) != size:
            raise DimensionMismatch(f"face {sigma} does not have dimension {k}")
        if min(sigma) < 0 or max(sigma) >= n:
            raise VertexOutOfRange(f"face {sigma} leaves [0, {n})")
        if any(a >= b for a, b in zip(sigma, sigma[1:])):
            raise DimensionMismatch(f"face {sigma} is not strictly increasing")


def _outcome(build):
    try:
        build()
    except (DimensionMismatch, VertexOutOfRange, TypeError) as e:
        return type(e), str(e)
    return None


@st.composite
def _top_face_sets(draw):
    """(n, k, faces): mostly valid faces, and some too short or long, out
    of range, unsorted or repeating a vertex, often several in one set."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(3, n - 1)))
    faces = set()
    for _ in range(draw(st.integers(0, 6))):
        size = k + 1 + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        face = draw(st.lists(st.integers(-1, n), min_size=size, max_size=size))
        if draw(st.booleans()):
            face.sort()
        faces.add(tuple(face))
    return n, k, frozenset(faces)


@settings(max_examples=300, deadline=None)
@given(_top_face_sets())
@example((4, 0, frozenset()))
@example((4, 0, frozenset({(0,), (3,)})))
@example((4, 0, frozenset({(0,), (4,)})))
@example((4, 0, frozenset({(-1,)})))
@example((4, 0, frozenset({(0, 1)})))
@example((4, 2, frozenset({(0, 1, 3), (5, 1, 0)})))  # range and order
@example((4, 2, frozenset({(0, 2, 1), (0, 1, 2), (1, 2)})))
@example((4, 1, frozenset({(0, "a"), (3, 1)})))  # not comparable
@example((4, 1, frozenset({(0, "a")})))
def test_skeleton_complex_errors_match_the_per_face_loop(case):
    # the first bad face in iteration order decides, and a face failing
    # two checks raises the earlier check's error
    n, k, faces = case
    want = _outcome(lambda: _per_face_check(n, k, faces))
    assert _outcome(lambda: SkeletonComplex(n, k, faces)) == want


@st.composite
def _valid_face_lists(draw):
    """(n, k, faces): a list of k-faces on 0..n-1 in any order, often
    repeating a face."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, min(3, n - 1)))
    face = st.sets(st.integers(0, n - 1), min_size=k + 1, max_size=k + 1)
    faces = draw(st.lists(face.map(lambda f: tuple(sorted(f))), max_size=12))
    if faces and draw(st.booleans()):
        faces += draw(st.lists(st.sampled_from(faces), max_size=4))
    return n, k, draw(st.permutations(faces))


@settings(max_examples=200, deadline=None)
@given(_valid_face_lists())
@example((4, 1, [(2, 3), (0, 1), (2, 3), (0, 3)]))
@example((3, 2, []))
def test_skeleton_complex_stores_one_sorted_array_whatever_the_input(case):
    # array, list, frozenset, unsorted, repeated, int32 and generator
    # input of the same faces all give the same complex
    n, k, faces = case
    want = sorted(set(faces))
    rows = np.array(faces, dtype=np.int64).reshape(-1, k + 1)
    inputs = [rows, rows.astype(np.int32), np.asfortranarray(rows), rows[::-1],
              faces, frozenset(faces), want, iter(faces), tuple(reversed(faces))]
    built = [SkeletonComplex(n, k, faces_in) for faces_in in inputs]
    for X in built:
        assert X == built[0] and hash(X) == hash(built[0])
        assert X.top_faces == frozenset(faces)
        assert list(iter_faces(X, k)) == want
        assert face_count(X, k) == len(want) and X.dim == (k if want else k - 1)
        tops = _top_array(X)
        assert tops.dtype == np.int64 and tops.flags.c_contiguous
        assert not tops.flags.writeable
        assert tops.tolist() == [list(f) for f in want]
    # the stored array is the complex's own: the input array may change,
    # and a copy or an unpickled complex stores its own read-only array
    rows[...] = 0
    assert SkeletonComplex(n, k, want) == built[0]
    for twin in (copy.copy(built[0]), copy.deepcopy(built[0]),
                 pickle.loads(pickle.dumps(built[0]))):
        assert twin == built[0] and hash(twin) == hash(built[0])
        assert not _top_array(twin).flags.writeable


def test_the_constructor_holds_few_copies_of_a_large_top_array():
    # an int64 array is checked where it is, and sorting it gathers the
    # stored array once: the constructor's peak, the caller's array
    # included, stays below that array plus twice the stored one, where
    # a copy of the input, a sorted gather and a gather of the distinct
    # rows took about 3.4 times the stored array on top of the input
    rng = np.random.default_rng(5)
    rows = np.sort(rng.integers(0, 60, size=(200_000, 4)), axis=1)
    rows = rows[(rows[:, 1:] > rows[:, :-1]).all(axis=1)]
    tracemalloc.start()
    try:
        tops = np.concatenate([rows, rows[:len(rows) // 10]])
        tops = tops[rng.permutation(len(tops))]
        tracemalloc.reset_peak()
        X = SkeletonComplex(60, 3, tops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = _top_array(X).nbytes
    assert len(_top_array(X)) < len(rows) < len(tops)
    assert peak < tops.nbytes + 2 * stored, (peak, tops.nbytes, stored)


@settings(max_examples=300, deadline=None)
@given(_top_face_sets(), st.randoms(use_true_random=False))
@example((4, 2, frozenset({(0, 1, 3), (5, 1, 0)})), None)
@example((4, 1, frozenset({(0, 4), (2, 1)})), None)
def test_bad_array_raises_what_the_tuple_path_raises(case, rnd):
    # an array of the faces, in the order of a list of them, raises the
    # error of the same first bad face, type and message
    n, k, faces = case
    faces = sorted(faces)
    if rnd is not None:
        rnd.shuffle(faces)
    if len(set(map(len, faces))) != 1:
        return  # no array holds faces of several sizes
    want = _outcome(lambda: SkeletonComplex(n, k, faces))
    assert want == _outcome(lambda: _per_face_check(n, k, faces))
    for dtype in (np.int64, np.int32):
        assert _outcome(lambda: SkeletonComplex(n, k, np.array(faces, dtype=dtype))) == want


def test_skeleton_complex_refuses_arrays_the_tuple_path_refuses():
    # wrong width, wrong rank, non-integer vertices: the tuple path's error
    cases = [(4, 1, [(0, 1, 2)]), (4, 1, [0, 1]), (4, 1, [(0.0, 1.0)]),
             (4, 1, [(0.0, 1.5)]), (4, 0, [(0,), (2 ** 70,)])]
    for n, k, faces in cases:
        with pytest.raises(Exception) as by_tuples:
            SkeletonComplex(n, k, faces)
        with pytest.raises(type(by_tuples.value)):
            SkeletonComplex(n, k, np.array(faces))
        assert type(by_tuples.value) in (DimensionMismatch, VertexOutOfRange, TypeError)
    with pytest.raises(TypeError):
        SkeletonComplex(4, 1, [(0, 1.5)])  # never truncated to a vertex


def test_skeleton_complex_membership_is_implicit_below_top():
    X = SkeletonComplex(6, 2, frozenset({(0, 1, 2)}))
    assert contains(X, (3, 5))  # any edge, the full 1-skeleton is implied
    assert contains(X, (0, 1, 2))
    assert not contains(X, (0, 1, 3))
    assert contains(X, EMPTY_SIMPLEX)
    assert face_count(X, 1) == 15
    assert face_count(X, 2) == 1
    assert face_count(X, -1) == 1


def test_void_and_empty_distinction():
    assert VOID.is_void
    assert VOID.dim == -2
    assert not contains(VOID, EMPTY_SIMPLEX)
    just_empty = GeneralComplex(frozenset(), frozenset({EMPTY_SIMPLEX}))
    assert not just_empty.is_void
    assert just_empty.dim == -1
    assert contains(just_empty, EMPTY_SIMPLEX)
    assert f_vector(VOID) == ()
    assert f_vector(just_empty) == ()
    assert face_count(VOID, -1) == 0
    assert face_count(just_empty, -1) == 1


def test_closure_and_f_vector():
    X = track(closure([(0, 1, 2), (2, 3)], 4))
    assert f_vector(X) == (4, 4, 1)
    assert contains(X, (0, 2))
    assert not contains(X, (1, 3))
    validate(X)


def test_closure_rejects_stray_vertex():
    with pytest.raises(VertexOutOfRange):
        closure([(0, 7)], 4)


def test_general_complex_requires_empty_simplex():
    with pytest.raises(DimensionMismatch):
        GeneralComplex(frozenset({0}), frozenset({(0,)}))


def test_validate_catches_missing_subface():
    broken = GeneralComplex(frozenset({0, 1}), frozenset({(), (0,), (0, 1)}))
    with pytest.raises(DimensionMismatch):
        validate(broken)


def test_from_top_faces_checks_dimension():
    X = from_top_faces(5, 1, [(0, 1), (2, 3)])
    assert X.top_faces == frozenset({(0, 1), (2, 3)})
    with pytest.raises(DimensionMismatch):
        from_top_faces(5, 1, [(0, 1, 2)])
    # each face is sorted, repeats are dropped, and the per-face checks
    # run in input order before the range check of the whole
    X = from_top_faces(6, 2, [[2, 0, 1], (5, 3, 4), [1, 2, 0], iter([4, 5, 3])])
    assert X == SkeletonComplex(6, 2, [(0, 1, 2), (3, 4, 5)])
    for faces, error, message in [
            ([[1, 0, 7], [0, 0, 1]], DimensionMismatch, "duplicate vertex 0 in simplex (0, 0, 1)"),
            ([[1, 0, 7], [3, 1]], DimensionMismatch, "face (1, 3) does not have dimension 2"),
            ([[2, 1, 0], [1, 0, 7]], VertexOutOfRange, "face (0, 1, 7) leaves [0, 6)")]:
        with pytest.raises(error) as info:
            from_top_faces(6, 2, faces)
        assert str(info.value) == message


def test_iter_faces_is_lexicographic():
    X = closure([(0, 1, 2, 3)], 4)
    edges = list(iter_faces(X, 1))
    assert edges == sorted(edges)
    assert len(edges) == 6
    Y = SkeletonComplex(5, 1, frozenset({(3, 4), (0, 2)}))
    assert list(iter_faces(Y, 1)) == [(0, 2), (3, 4)]


def test_link_of_skeleton_complex_keeps_lower_layers_full():
    X = SkeletonComplex(6, 2, frozenset({(0, 1, 2), (0, 3, 4)}))
    L = link(X, (0,))
    assert L.ground == frozenset({1, 2, 3, 4, 5})
    assert faces(L, 0) == frozenset({(v,) for v in range(1, 6)})
    assert faces(L, 1) == frozenset({(1, 2), (3, 4)})
    L2 = link(X, (0, 1))
    assert set(L2.faces) == {(), (2,)}


def test_link_of_general_complex():
    X = closure([(0, 1, 2), (2, 3)], 4)
    L = link(X, (2,))
    assert faces(L, 0) == frozenset({(0,), (1,), (3,)})
    assert faces(L, 1) == frozenset({(0, 1)})
    with pytest.raises(FaceNotInComplex):
        link(X, (1, 3))


def test_link_of_facet_is_empty_simplex_not_void():
    X = closure([(0, 1)], 2)
    L = link(X, (0, 1))
    assert not L.is_void
    assert L.dim == -1


def test_remove_top_face():
    X = SkeletonComplex(5, 2, frozenset({(0, 1, 2), (1, 2, 3)}))
    Y = remove_top_face(X, (0, 1, 2))
    assert Y.top_faces == frozenset({(1, 2, 3)})
    with pytest.raises(FaceNotInComplex):
        remove_top_face(X, (0, 1, 3))
    # membership is read on the stored array, for faces of any size
    for sigma in [(1,), (2, 1), (3, 0, 1, 2), (0, 1, 9)]:
        with pytest.raises(FaceNotInComplex) as info:
            remove_top_face(X, sigma)
        assert str(info.value) == f"{make_simplex(sigma)} is not a top face"
    with pytest.raises(FaceNotInComplex):
        remove_top_face(SkeletonComplex(5, 2, []), (0, 1, 2))


def test_boundary_complex_of_tetrahedron():
    S2 = track(closure(combinations((0, 1, 2, 3), 3), 4))
    assert f_vector(S2) == (4, 6, 4)
    assert not contains(S2, (0, 1, 2, 3))


def test_full_skeleton_counts():
    from math import comb
    X = full_skeleton(7, 3)
    for j in range(4):
        assert face_count(X, j) == comb(7, j + 1)


def test_as_skeleton_complex_round_trip():
    X = SkeletonComplex(6, 2, frozenset({(0, 1, 2), (3, 4, 5)}))
    back = as_skeleton_complex(as_general(X))
    assert back == X


def test_as_skeleton_complex_rejects_partial_lower_layer():
    # ground has four vertices but only three appear: vertex layer short
    G = GeneralComplex(frozenset(range(4)), closure([(0, 1, 2)], 3).faces)
    with pytest.raises(NotSandwiched):
        as_skeleton_complex(G)


def test_as_skeleton_complex_compacts_sparse_ground():
    G = GeneralComplex(
        frozenset({2, 5, 9}),
        frozenset({(), (2,), (5,), (9,), (2, 5), (2, 9), (5, 9)}),
    )
    X = as_skeleton_complex(G)
    assert X.n == 3 and X.dim == 1
    assert X.top_faces == frozenset({(0, 1), (0, 2), (1, 2)})


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
               min_size=1, max_size=6))
def test_closure_always_validates(raw):
    tops = [tuple(sorted(set(t))) for t in raw]
    X = closure(tops, 7)
    validate(X)
    for s in all_faces(X):
        for b in subfaces(s):
            assert contains(X, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 7), st.integers(1, 3))
def test_link_of_vertex_in_full_skeleton(n, k):
    if k >= n - 1:
        return
    L = link(full_skeleton(n, k), (0,))
    assert as_skeleton_complex(L) == full_skeleton(n - 1, k - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**62), st.integers(2, 8), st.integers(0, 3),
       st.sampled_from((0.0, 0.3, 0.7, 1.0)))
def test_indexed_link_matches_general_link(seed, n, k, q):
    X = random_skeleton_complex(n, min(k, n - 1), q, SplitMix64(seed))
    twin = SkeletonComplex(X.n, X.k, X.top_faces)
    before = hash(X)
    G = as_general(X)
    assert G.dim == X.dim
    walk: dict = {}
    for ell in range(-1, X.k + 1):
        taus = list(combinations(range(X.n), ell + 1))
        ids, rest = _relabelled_link_tops(_top_array(X), X.n, ell)
        for t, row in zip(ids.tolist(), rest.tolist()):
            ground = [v for v in range(X.n) if v not in taus[t]]
            walk.setdefault(taus[t], []).append(tuple(ground[v] for v in row))
    for tau in all_faces(X):
        assert link(X, tau) == link(G, tau), tau
        # the numpy walk holds exactly the link's top faces, relabelled
        r = X.k - len(tau)
        assert sorted(walk.get(tau, [])) == sorted(iter_faces(link(G, tau), r))
    # taking links leaves equality and hashing alone
    assert hash(X) == before == hash(twin)
    assert X == twin and twin == X
    assert {X: 1}[twin] == 1


def _walk_by_pattern(X, ell):
    """The pairs of _link_pairs, as _relabelled_link_tops reads them before
    grouping: position pattern by pattern, top by top, each tau id read
    from a table of the (ell+1)-subsets in order and sigma minus tau
    relabelled by hand."""
    taus = {tau: t for t, tau in enumerate(combinations(range(X.n), ell + 1))}
    ids, rests = [], []
    for P in combinations(range(X.k + 1), ell + 1):
        for sigma in _top_array(X).tolist():
            tau = tuple(sigma[i] for i in P)
            ground = [v for v in range(X.n) if v not in tau]
            ids.append(taus[tau])
            rests.append([ground.index(v) for v in sigma if v not in tau])
    return np.array(ids, dtype=np.int64), np.array(rests, dtype=np.int64).reshape(len(ids), X.k - ell)


def _assert_grouped_as_by_argsort(X, ell):
    # the grouped walk is _link_pairs sorted stably by tau id, and
    # _link_pairs is the walk by pattern
    ids, rest = _relabelled_link_tops(_top_array(X), X.n, ell)
    pair_ids, pair_rest = _link_pairs(_top_array(X), X.n, ell)
    want_ids, want_rest = _walk_by_pattern(X, ell)
    assert np.array_equal(pair_ids, want_ids) and np.array_equal(pair_rest, want_rest)
    order = np.argsort(pair_ids, kind="stable")
    assert np.array_equal(ids, pair_ids[order]) and np.array_equal(rest, pair_rest[order])
    return ids


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**62), st.integers(2, 9), st.integers(0, 3),
       st.sampled_from((0.0, 0.3, 0.7, 1.0)))
def test_walk_groups_pairs_as_a_stable_argsort(seed, n, k, q):
    # the radix passes group the pairs by tau id exactly as one stable
    # argsort of the ids does, at every ell, the global walk included
    X = random_skeleton_complex(n, min(k, n - 1), q, SplitMix64(seed))
    for ell in range(-1, X.k + 1):
        _assert_grouped_as_by_argsort(X, ell)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 9), st.integers(0, 4),
       st.sampled_from((0.0, 0.3, 0.7, 1.0)))
@example(seed=0, n=7, k=3, q=0.0)  # zero tops at every ell
@example(seed=1, n=1, k=0, q=1.0)  # one vertex: ell = -1 and ell = k alone
def test_link_pairs_hold_every_pair_once_pattern_by_pattern(seed, n, k, q):
    # every pair of a top face sigma and an ell-face tau inside it comes
    # once, as tau's lexicographic rank and sigma minus tau relabelled
    # onto the vertices outside tau, pattern by pattern and top by top;
    # ell = -1 has one empty pattern, every id 0, and ell = k a zero-width rest
    X = random_skeleton_complex(n, min(k, n - 1), q, SplitMix64(seed))
    tops = list(map(tuple, _top_array(X).tolist()))
    for ell in range(-1, X.k + 1):
        ids, rest = _link_pairs(_top_array(X), X.n, ell)
        width = X.k - ell
        assert ids.dtype == rest.dtype == np.int64
        assert rest.shape == (len(tops) * comb(X.k + 1, ell + 1), width)
        taus = list(combinations(range(X.n), ell + 1))
        pairs = []
        for t, row in zip(ids.tolist(), rest.tolist()):
            ground = [v for v in range(X.n) if v not in taus[t]]
            sigma = tuple(sorted(taus[t] + tuple(ground[v] for v in row)))
            pairs.append((sigma, taus[t]))
        assert sorted(pairs) == sorted((sigma, tau) for sigma in tops
                                       for tau in combinations(sigma, ell + 1))
        want_ids, want_rest = _walk_by_pattern(X, ell)
        assert np.array_equal(ids, want_ids) and np.array_equal(rest, want_rest)
        if ell == -1:
            assert not ids.any()


def test_walk_groups_ids_of_two_digits_and_of_none():
    # C(40, 4) = 91,390 tau ids at ell = 3 need a second 16-bit pass; at
    # ell = -1 every id is 0 and no pass runs, so the walk keeps its order
    rng = np.random.default_rng(5)
    tops = {tuple(sorted(rng.choice(40, 5, replace=False).tolist())) for _ in range(300)}
    X = SkeletonComplex(40, 4, tops)
    ids = _assert_grouped_as_by_argsort(X, 3)
    assert ids.max() >= 1 << 16 and (ids < 1 << 16).any()
    ids = _assert_grouped_as_by_argsort(X, -1)
    assert not ids.any()


def test_binomial_table_holds_exactly_its_band():
    # entry (x, y) is C(x, y) for y <= s and x - y <= N - s, else 0, built
    # column by column; s > N leaves no band
    for N in range(25):
        for s in range(12):
            want = [[comb(x, y) if x - y <= N - s else 0 for y in range(s + 1)]
                    for x in range(N + 1)]
            assert _binomials(N, s).tolist() == want, (N, s)
    assert _binomials(70, 69)[70, 69] == 70


def test_unranking_lists_every_subset_in_lexicographic_order():
    # s = 0 and s = N included: one subset each, the empty one and 0..N-1
    for N in range(10):
        for s in range(N + 1):
            want = np.array(list(combinations(range(N), s)), dtype=np.int64)
            got = _lex_unrank(np.arange(comb(N, s)), N, s)
            assert np.array_equal(got, want.reshape(comb(N, s), s)), (N, s)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.data())
def test_unranking_inverts_the_lexicographic_rank(N, data):
    # C(60, 12) < 2^41, far inside int64
    s = data.draw(st.integers(0, min(N, 12)))
    ranks = np.array(data.draw(st.lists(st.integers(0, comb(N, s) - 1), max_size=30)),
                     dtype=np.int64)
    faces = _lex_unrank(ranks, N, s)
    assert faces.shape == (len(ranks), s)
    assert (faces[:, 1:] > faces[:, :-1]).all() and (faces >= 0).all() and (faces < N).all()
    assert np.array_equal(_lex_ranks(faces, _binomials(N, s)), ranks)


@pytest.mark.parametrize("width", [_TABLE_BITS, _TABLE_BITS + 1])
def test_bitsets_pack_rows_on_both_sides_of_the_table(width):
    # up to _TABLE_BITS bits each row is ORed from a table of 1 << b, past
    # it one shift at a time; either way -1 sets no bit
    rng = np.random.default_rng(width)
    pos = np.array([rng.choice(width + 1, 5, replace=False) - 1 for _ in range(300)])
    pos[0], pos[1] = [width - 1, 0, -1, 63, 64], -1
    want = [sum(1 << b for b in row if b >= 0) for row in pos.tolist()]
    assert list(_bitsets(pos, width)) == want
