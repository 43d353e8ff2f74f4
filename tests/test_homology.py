import random
import tracemalloc
from collections import Counter
from itertools import combinations, pairwise
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypertree_lab import homology
from hypertree_lab.bounds import lambda_pair
from hypertree_lab.constructions import build_X_nkl
from hypertree_lab.errors import NotSandwiched
from hypertree_lab.fields import GF2, GF3, RATIONALS, FieldSpec
from hypertree_lab.homology import (
    betti,
    betti_table,
    boundary_rank,
    complete_rank,
    link_profile,
)
from hypertree_lab.linalg import IncrementalSpan, rank_by_columns, rank_by_rows
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import (
    EMPTY_SIMPLEX,
    _TABLE_BITS,
    _binomials,
    _bitsets,
    _facet_keys,
    _lex_ranks,
    _link_pairs,
    _relabelled_link_tops,
    _top_array,
    VOID,
    GeneralComplex,
    SkeletonComplex,
    as_general,
    as_skeleton_complex,
    closure,
    face_count,
    full_skeleton,
    iter_faces,
    link,
    subfaces,
)
from _oracles import (
    boundary_matrix,
    is_hypertree,
    least_in_component,
    peel_one_at_a_time,
    validate,
)
from _random_complexes import random_general_complex
from _registry import track

# minimal 6-vertex triangulation of the projective plane; each of the 15
# edges lies in exactly two of the 10 triangles
RP2_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
)


def column_rank(M, field):
    return rank_by_columns(M.entries, M.n_rows, M.n_cols, field.p)


def cycle_graph(m):
    return closure([(i, (i + 1) % m) for i in range(m)], m)


def test_boundary_matrix_shape_and_signs():
    X = closure([(0, 1, 2)], 3)
    M = boundary_matrix(X, 1)
    assert M.n_rows == 3 and M.n_cols == 3
    # column of edge (0,1): +1 at (1,), -1 at (0,)... sign alternates
    col = {M.row_faces[i]: v for (i, j), v in M.entries.items()
           if M.col_faces[j] == (0, 1)}
    assert col == {(1,): 1, (0,): -1}
    M0 = boundary_matrix(X, 0)
    assert M0.n_rows == 1 and M0.row_faces == (EMPTY_SIMPLEX,)
    assert all(v == 1 for v in M0.entries.values())


def test_point_is_acyclic_in_reduced_homology():
    P = closure([(0,)], 1)
    assert betti_table(P, GF2) == {-1: 0, 0: 0}
    assert betti_table(VOID, GF2) == {}
    E = GeneralComplex(frozenset(), frozenset({EMPTY_SIMPLEX}))
    assert betti_table(E, RATIONALS) == {-1: 1}


def test_two_points_have_one_extra_component():
    X = closure([(0,), (1,)], 2)
    for fld in (GF2, RATIONALS):
        assert betti(X, 0, fld) == 1
        assert betti(X, -1, fld) == 0


def test_cycle_graph_has_one_loop():
    for m in (3, 5, 8):
        C = track(cycle_graph(m))
        for fld in (GF2, GF3, RATIONALS):
            assert betti(C, 0, fld) == 0
            assert betti(C, 1, fld) == 1


def test_sphere_boundary_of_simplex():
    for d in (2, 3):
        s = tuple(range(d + 2))
        S = track(closure(combinations(s, len(s) - 1), len(s)))
        for fld in (GF2, RATIONALS, FieldSpec(32003)):
            table = betti_table(S, fld)
            expected = {j: 0 for j in range(-1, d + 1)}
            expected[d] = 1
            assert table == expected


def test_projective_plane_betti_depends_on_field():
    X = track(closure(RP2_FACETS, 6))
    assert betti(X, 1, GF2) == 1
    assert betti(X, 2, GF2) == 1
    assert betti(X, 1, RATIONALS) == 0
    assert betti(X, 2, RATIONALS) == 0
    assert betti(X, 1, GF3) == 0
    # odd torsion is invisible here in every characteristic but 2
    assert betti(X, 1, FieldSpec(32003)) == 0


def test_projective_plane_top_rank_is_not_certified_by_gf2():
    # Z/2 torsion in H_1: the top map loses one rank mod 2, so the GF(2)
    # rank 9 falls short of min(10 faces, 15 rows, C(5, 2) = 10) and the
    # rational rank must come from rational elimination
    X = track(SkeletonComplex(6, 2, frozenset(RP2_FACETS)))
    assert boundary_rank(X, 2, GF2) == 9
    assert boundary_rank(X, 2, RATIONALS) == 10
    q_table = betti_table(X, RATIONALS)
    assert (q_table[1], q_table[2]) == (0, 0)
    gf2_table = betti_table(X, GF2)
    assert (gf2_table[1], gf2_table[2]) == (1, 1)
    # the same map read as the link of the apex of the cone
    cone = track(SkeletonComplex(7, 3, frozenset(t + (6,) for t in RP2_FACETS)))
    for fld, want in ((RATIONALS, (10, 0, 0)), (GF2, (10, 1, 1))):
        entry = next(e for e in link_profile(cone, 0, fld) if e.tau == (6,))
        assert (entry.f_top, entry.below, entry.top) == want


def test_a_threshold_draw_with_natural_two_torsion(monkeypatch):
    # random(seed=39,n=17,k=3,q=4/17), drawn as the command line draws it,
    # has Z/2 torsion: its top map has rank 534 over GF(2) and 535 over Q
    # and GF(3), so b_2, b_3 read 26, 7 over GF(2) and 25, 6 otherwise.
    # The lift refuses its global Q core, which takes the row route
    # under the busiest vertex's cone too
    X = track(random_skeleton_complex(17, 3, 4 / 17, SplitMix64(39)))
    assert tuple(face_count(X, j) for j in range(4)) == (17, 136, 680, 541)
    M = boundary_matrix(X, 3)
    rows = []

    def spy(entries, n_rows, n_cols, p=None):
        rows.append(p)
        return rank_by_rows(entries, n_rows, n_cols, p)

    monkeypatch.setattr(homology, "rank_by_rows", spy)
    homology._rank_cached.cache_clear()
    for fld, b in ((GF2, (26, 7)), (RATIONALS, (25, 6)), (GF3, (25, 6))):
        assert boundary_rank(X, 3, fld) == column_rank(M, fld) == 541 - b[1], fld.name
        assert (betti(X, 2, fld), betti(X, 3, fld)) == b, fld.name
    assert rows == [None, 3]


def _glue_projective_plane(S, rng):
    """S plus a relabelled RP^2_6 joined to a (k-3)-simplex, and that simplex.

    The link of the returned simplex contains the projective plane.
    """
    vs = list(range(S.n))
    rng.shuffle(vs)
    label, apex = vs[:6], tuple(sorted(vs[6:6 + S.k - 2]))
    glued = {tuple(sorted({label[v] for v in t} | set(apex))) for t in RP2_FACETS}
    return SkeletonComplex(S.n, S.k, S.top_faces | glued), apex


def test_boundary_rank_matches_column_route_on_both_branches():
    # boundary_rank over Q takes a core's rank from one of three branches:
    # a GF(2) rank that meets min(columns, rows), which leaves no
    # dependency to lift, a GF(2) rank below it that lifted kernel
    # vectors prove, or the rational row route; all must agree with the
    # column route, and the draws must reach every branch
    calls = Counter()
    lifts, rank_by_rows = homology._lifts, homology.rank_by_rows

    def lifts_spy(pos, rows):
        r2 = lifts(pos, rows)
        bound = min(len(pos), rows)
        calls["bound"] += r2 == bound
        calls["lift"] += r2 is not None and r2 < bound
        return r2

    def rank_by_rows_spy(entries, n_rows, n_cols, p=None):
        calls["rows"] += p is None
        return rank_by_rows(entries, n_rows, n_cols, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**62), st.integers(2, 10), st.integers(1, 4),
           st.floats(0.0, 1.0), st.booleans())
    @example(seed=1, n=6, k=2, q=0.0, glue=True)  # RP^2_6 alone
    @example(seed=1, n=10, k=4, q=0.5, glue=False)  # a core meets its bound
    @example(seed=4, n=9, k=3, q=0.5, glue=False)  # two cores lift
    def check(seed, n, k, q, glue):
        k = min(k, n - 1)
        rng = SplitMix64(seed)
        S = random_skeleton_complex(n, k, q, rng)
        tau = None
        if glue and 2 <= k <= n - 4:
            S, tau = _glue_projective_plane(S, rng)
        if tau is None:
            ell_faces = list(iter_faces(S, rng.below(k)))
            tau = ell_faces[rng.below(len(ell_faces))]
        complexes = (S, link(as_general(S), tau))
        homology._rank_cached.cache_clear()
        for X in complexes:
            for j in range(X.dim + 1):
                M = boundary_matrix(X, j)
                for fld in (GF2, GF3, RATIONALS):
                    assert boundary_rank(X, j, fld) == column_rank(M, fld), \
                        (j, fld.name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_lifts", lifts_spy)
        mp.setattr(homology, "rank_by_rows", rank_by_rows_spy)
        check()
    assert calls["bound"] > 0 and calls["lift"] > 0 and calls["rows"] > 0, calls


def _boundary_entries(faces):
    """The boundary map of faces, rows numbered here: (entries, rows, columns)."""
    rows, entries = {}, {}
    for c, alpha in enumerate(faces):
        for i in range(len(alpha)):
            row = rows.setdefault(alpha[:i] + alpha[i + 1:], len(rows))
            entries[(row, c)] = -1 if i % 2 else 1
    return entries, len(rows), len(faces)


def _cone_vertex(tops):
    """The vertex of a link's relabelled tops that its cone split takes:
    the least of the vertices in the most tops, 0 for no tops."""
    if not tops:
        return 0
    count = Counter(v for top in tops for v in top)
    return min(v for v in count if count[v] == max(count.values()))


def _cone_split_rank(M, v, p):
    """The cone lemma's rank of M: the c columns through v, plus the rank of
    the other columns with the rows through v and the rows alpha minus v of
    those c columns deleted, by the column route."""
    cone = [alpha for alpha in M.col_faces if v in alpha]
    drop = {tuple(x for x in alpha if x != v) for alpha in cone}
    drop.update(f for f in M.row_faces if v in f)
    keep_cols = {c for c, alpha in enumerate(M.col_faces) if v not in alpha}
    entries = {(i, c): x for (i, c), x in M.entries.items()
               if c in keep_cols and M.row_faces[i] not in drop}
    return len(cone) + rank_by_columns(entries, M.n_rows, M.n_cols, p)


RP2_CONE = SkeletonComplex(7, 3, frozenset(t + (6,) for t in RP2_FACETS))


def _random_skeleton(seed, n, k, q):
    return random_skeleton_complex(n, min(k, n - 1), q, SplitMix64(seed))


@settings(max_examples=40, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(1, 10),
                 st.integers(0, 4), st.floats(0.0, 1.0)))
@example(RP2_CONE)
@example(full_skeleton(8, 3))  # every link is complete
# the first links at ell = 0 and 1 have no tops, and the later ones do
@example(SkeletonComplex(8, 3, frozenset(
    c for c in combinations(range(2, 8), 4) if sum(c) % 3)))
def test_facet_id_link_matrix_has_the_rank_of_the_link_boundary(S):
    # the link tops of the numpy walk, relabelled onto 0..g-1 in order,
    # spell a map with the rank of the general link's boundary
    # map over every field, for every tau and every ell; the link faces
    # through v, the vertex outside tau that the cone takes, are the tops
    # through its relabelled vertex, and the cone lemma gives the same rank
    # on the link's own boundary map, as does the array route's rank of
    # each link
    G = as_general(S)
    for ell in range(-1, S.k):
        r, g = S.k - ell - 1, S.n - ell - 1
        taus = list(iter_faces(S, ell))
        ids, rest = _relabelled_link_tops(_top_array(S), S.n, ell)
        assert np.all(ids[:-1] <= ids[1:])
        f = np.bincount(ids, minlength=len(taus)).tolist()
        numbered = homology._link_rows(ids, rest, len(taus), g) if r > 0 else None
        ranks = {fld.name: homology._link_ranks(*numbered, f, fld.p)
                 for fld in (GF2, GF3, RATIONALS)} if r > 0 else {}
        for t, tau in enumerate(taus):
            M = boundary_matrix(link(G, tau), r)
            tops = rest[ids == t]
            entries, n_rows, n_cols = _boundary_entries(list(map(tuple, tops.tolist())))
            assert n_cols == M.n_cols == f[t], (ell, tau)
            cone = _cone_vertex(tops.tolist())
            v = sorted(set(range(S.n)) - set(tau))[cone]
            assert np.count_nonzero(tops == cone) == sum(v in alpha for alpha in M.col_faces)
            for fld in (GF2, GF3, RATIONALS):
                want = column_rank(M, fld)
                assert rank_by_columns(entries, n_rows, n_cols, fld.p) == want
                assert _cone_split_rank(M, v, fld.p) == want, (ell, tau)
                if r > 0:
                    assert ranks[fld.name][t] == want, (ell, tau, fld.name)


@st.composite
def _sorted_faces(draw):
    """Distinct faces of 1 to 4 vertices on 4 to 7 vertices, in sorted
    order: those through the busiest vertex are its cone part, and the
    others may share rows with them and with one another.  Faces of two
    vertices are graph edges, so the degree-1 shortcut holds."""
    m = draw(st.integers(4, 7))
    size = draw(st.integers(1, 4))
    faces = draw(st.lists(st.sampled_from(list(combinations(range(m), size))),
                          min_size=1, max_size=14, unique=True))
    return m, sorted(faces)


@settings(max_examples=150, deadline=None)
@given(_sorted_faces())
# five faces through every vertex, so the cone takes 0, then a torsion
# part: over GF(2), 5 + 4 misses 10, so over Q the rest runs the row route
@example((6, sorted(RP2_FACETS)))
# the same with no face through 0, so the cone takes 1
@example((7, sorted(tuple(v + 1 for v in t) for t in RP2_FACETS)))
# both rows of the whole column are free: rank 2, not 3
@example((3, [(0, 1), (0, 2), (1, 2)]))
# every face through the cone vertex
@example((5, [(1, 2, 3), (1, 2, 4), (1, 3, 4)]))
def test_unit_columns_are_free_pivots(case):
    # the faces through the cone vertex are unit columns in the rows
    # through it deleted: the global rank, taken as the one link of the
    # empty face, counts them and ranks the rest without their rows, which
    # must give the rank of the whole boundary map over every field; the
    # ground set has a vertex more, so that no layer is complete
    m, faces = case
    entries, n_rows, n_cols = _boundary_entries(faces)
    X = closure(faces, m + 1)
    for fld in (GF2, GF3, RATIONALS):
        want = rank_by_columns(entries, n_rows, n_cols, fld.p)
        assert boundary_rank(X, len(faces[0]) - 1, fld) == want, fld.name


def _stacked(size, blocks, cut):
    """The block-diagonal stack of the boundary maps of blocks, each a list
    of faces of size vertices ranked as its own link: every block numbers
    its rows from 0 in order of first appearance, offset by the rows of the
    blocks before (_link_rows numbers them by key instead; the peel and
    the ranks read any numbering of each block), and where cut[t] block t
    deletes its rows through vertex 0, -1 in pos.  Returns pos, at, start
    and each block's (entries, rows, columns) with its own row numbers."""
    pos, at, start, maps = [], [0], [0], []
    for faces, drop in zip(blocks, cut):
        rows, entries = {}, {}
        for c, alpha in enumerate(faces):
            column = []
            for i in range(size):
                facet = alpha[:i] + alpha[i + 1:]
                if drop and 0 in facet:
                    column.append(-1)
                    continue
                x = rows.setdefault(facet, len(rows))
                column.append(start[-1] + x)
                entries[(x, c)] = -1 if i % 2 else 1
            pos.append(column)
        maps.append((entries, len(rows), len(faces)))
        at.append(len(pos))
        start.append(start[-1] + len(rows))
    return np.array(pos, dtype=np.int64).reshape(-1, size), at, start, maps


def _link_ids(at):
    """The int32 link id of each column of a stack whose link t holds the
    columns at[t] to at[t+1]-1, as _link_rows returns them."""
    return np.repeat(np.arange(len(at) - 1, dtype=np.int32), np.diff(at))


def _check_peel(pos, at, start, maps, seed):
    """_peel against the column route and the one-at-a-time loop: per
    block, the pivots plus the core's rank are the block's rank over
    GF(2), GF(3) and Q; no rule applies to the core; and the core and
    the pivot count are those of the loop in a drawn order."""
    pivot, core, live = homology._peel(pos, start[-1])
    assert not live[-1]
    for t, (entries, n_rows, n_cols) in enumerate(maps):
        lo = at[t]
        kept = {(x, c): v for (x, c), v in entries.items()
                if core[lo + c] and live[start[t] + x]}
        for fld in (GF2, GF3, RATIONALS):
            assert int(pivot[lo:at[t + 1]].sum()) + rank_by_columns(kept, n_rows, n_cols, fld.p) \
                == rank_by_columns(entries, n_rows, n_cols, fld.p), (t, fld.name)
        per_col = Counter(c for _, c in kept)
        per_row = Counter(x for x, _ in kept)
        assert min(per_col.values(), default=2) >= 2 and min(per_row.values(), default=2) >= 2
        assert sorted(per_col) == [c for c in range(n_cols) if core[lo + c]]
    columns = [set(column) - {-1} for column in pos.tolist()]
    pivots, cols, rows = peel_one_at_a_time(columns, random.Random(seed))
    assert int(pivot.sum()) == pivots
    assert set(np.flatnonzero(core).tolist()) == cols
    assert set(np.flatnonzero(live).tolist()) == rows


# blocks that keep a core: a cycle, RP^2_6, whose every edge lies in two
# triangles, and the boundary of the 4-simplex
_CORES = {2: [(0, 1), (1, 2), (0, 2)], 3: sorted(RP2_FACETS),
          4: list(combinations(range(5), 4))}


@st.composite
def _stacks(draw):
    size = draw(st.integers(1, 4))
    m = draw(st.integers(6, 8))
    pool = list(combinations(range(m), size))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        faces = set(draw(st.lists(st.sampled_from(pool), max_size=12, unique=True)))
        if size > 1 and draw(st.booleans()):
            faces |= set(_CORES[size])
        blocks.append(sorted(faces))
    cut = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    return size, blocks, cut


_RP2_CONE_TOPS = [t + (6,) for t in sorted(RP2_FACETS)]


@settings(max_examples=150, deadline=None)
@given(_stacks(), st.integers(0, 2**32))
@example((3, [sorted(RP2_FACETS)], [False]), 0)          # RP^2_6: all core
@example((4, [_RP2_CONE_TOPS], [False]), 0)              # its cone: no core
@example((3, [sorted(RP2_FACETS)] * 3, [False, True, False]), 1)  # repeats
@example((3, [sorted(RP2_FACETS) + [(0, 1, 6), (1, 6, 7)], [], [(0, 1, 2)]],
          [False, False, False]), 2)  # a core with a tail, an empty block
@example((4, [_CORES[4], _CORES[4][:3]], [False, False]), 3)
def test_peel_pivots_and_core_rank_give_each_blocks_rank(case, seed):
    size, blocks, cut = case
    _check_peel(*_stacked(size, blocks, cut), seed)


@settings(max_examples=60, deadline=None)
@given(_stacks())
@example((3, [sorted(RP2_FACETS)] * 2, [False, True]))
def test_link_ranks_of_a_stack_match_the_column_route(case):
    # the whole route of _link_ranks on a stack drawn here: the peel, each
    # block's core renumbered from 0, packing, the Q certificate and the
    # row route on the core
    size, blocks, cut = case
    pos, at, start, maps = _stacked(size, blocks, cut)
    f = [n_cols for _, _, n_cols in maps]
    for fld in (GF2, GF3, RATIONALS):
        want = [rank_by_columns(entries, n_rows, n_cols, fld.p)
                for entries, n_rows, n_cols in maps]
        assert homology._link_ranks(pos, _link_ids(at), start, f, fld.p) == want, fld.name


def test_a_stack_that_peels_fully_packs_and_ranks_no_core(monkeypatch):
    # with no core left after the peel, _link_ranks returns the ranks at
    # once: it packs no bitset and ranks no core, over every field; so
    # does the global map of a saturated X, whose every map peels away
    pos, at, start, maps = _stacked(4, [_RP2_CONE_TOPS, _CORES[4][:3], []], [False] * 3)
    assert not homology._peel(pos, start[-1])[1].any()
    X = build_X_nkl(11, 3, 1, GF2).complex
    want = {fld.name: column_rank(boundary_matrix(X, 3), fld) for fld in (GF2, GF3, RATIONALS)}

    def refuse(*args):
        raise AssertionError("a core was packed or ranked")

    monkeypatch.setattr(homology, "_bitsets", refuse)
    monkeypatch.setattr(homology, "_map_rank", refuse)
    f = [n_cols for _, _, n_cols in maps]
    homology._rank_cached.cache_clear()
    for fld in (GF2, GF3, RATIONALS):
        assert homology._link_ranks(pos, _link_ids(at), start, f, fld.p) == \
            [rank_by_columns(entries, n_rows, n_cols, fld.p) for entries, n_rows, n_cols in maps]
        assert boundary_rank(X, 3, fld) == want[fld.name], fld.name


@settings(max_examples=40, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 10),
                 st.integers(1, 4), st.floats(0.0, 1.0)), st.integers(0, 2**32))
@example(RP2_CONE, 0)
@example(SkeletonComplex(6, 2, frozenset(RP2_FACETS)), 0)
def test_peel_of_every_link_stack_of_random_complexes(S, seed):
    # the stacks _link_rows builds, global maps included (ell = -1): each
    # link's map is its tops avoiding its cone vertex without the free rows
    for ell in range(-1, S.k - 1):
        ids, rest = _relabelled_link_tops(_top_array(S), S.n, ell)
        pos, link_ids, start = homology._link_rows(ids, rest, comb(S.n, ell + 1), S.n - ell - 1)
        # the grouped walk keeps each link's columns together
        at = np.searchsorted(link_ids, np.arange(len(start))).tolist()
        maps = []
        for t in range(len(at) - 1):
            block = pos[at[t]:at[t + 1]]
            entries = {(x - start[t], c): -1 if i % 2 else 1
                       for c, column in enumerate(block.tolist())
                       for i, x in enumerate(column) if x >= 0}
            maps.append((entries, start[t + 1] - start[t], len(block)))
        _check_peel(pos, at, start, maps, seed)


def _check_numbering(ids, rest, n_links, g):
    """_link_rows of a walk: the columns are the tops avoiding their link's cone vertex (_cone_vertex) in their
    order, each with its int32 link id; each link's rows lie in
    [start[t], start[t+1]) in the lexicographic order of their facets,
    one number per facet, and a row is free (-1) exactly when it is the
    facet without the cone vertex of a top of the same link through it.
    The same walk with links added that have no tops, so that the key
    space and the vertex count outgrow the entries, is compacted first;
    it must number the rows in the same order and give the same peel and
    the same ranks.  Returns whether the first call numbered the rows by
    key: start[t] = t * width then."""
    pos, link_ids, start = homology._link_rows(ids, rest, n_links, g)
    cones = [_cone_vertex(rest[ids == t].tolist()) for t in range(n_links)]
    through = np.array([cones[t] in top for t, top in zip(ids.tolist(), rest.tolist())],
                       dtype=bool)
    tops = rest[~through]
    assert link_ids.dtype == np.int32 and np.array_equal(link_ids, ids[~through])
    for t in range(n_links):
        v = cones[t]
        free = {tuple(x for x in top if x != v) for top in rest[ids == t].tolist() if v in top}
        number = {}
        for column, top in zip(pos[link_ids == t].tolist(), tops[link_ids == t].tolist()):
            for i, x in enumerate(column):
                facet = tuple(top[:i] + top[i + 1:])
                assert (x < 0) == (facet in free), (t, facet)
                if x >= 0:
                    assert start[t] <= x < start[t + 1], (t, x)
                    assert number.setdefault(facet, x) == x, (t, facet)
        numbers = [number[facet] for facet in sorted(number)]
        assert numbers == sorted(set(numbers)), t
    width = start[1] - start[0]
    keyed = n_links * width <= rest.size and start == [t * width for t in range(n_links + 1)]
    pad = rest.size + 1
    wide, wide_ids, wide_start = homology._link_rows(ids, rest, n_links + pad, g)
    assert wide_start[-1] <= rest.size
    assert np.array_equal(wide_ids, link_ids)
    assert np.array_equal(wide < 0, pos < 0)
    kept = pos >= 0
    assert np.array_equal(np.unique(wide[kept], return_inverse=True)[1],
                          np.unique(pos[kept], return_inverse=True)[1])
    pivot, core, live = homology._peel(pos, start[-1])
    wide_pivot, wide_core, wide_live = homology._peel(wide, wide_start[-1])
    assert np.array_equal(pivot, wide_pivot) and np.array_equal(core, wide_core)
    assert np.array_equal(live[pos], wide_live[wide])
    f = np.bincount(ids, minlength=n_links).tolist()
    for fld in (GF2, GF3, RATIONALS):
        assert homology._link_ranks(wide, wide_ids, wide_start, f + [0] * pad, fld.p) \
            == homology._link_ranks(pos, link_ids, start, f, fld.p) + [0] * pad, fld.name
    return keyed


def test_global_map_rows_are_numbered_by_key():
    # the global map of a saturated X is one link of the empty face; its
    # rows are numbered by their facets' keys, the free rows apart
    X = build_X_nkl(17, 4, 1, GF2).complex
    faces = _top_array(X)
    assert faces[0, 0] == 0
    ids = np.zeros(len(faces), dtype=np.int64)
    assert _check_numbering(ids, faces, 1, X.n)


def test_link_rows_are_numbered_by_key_on_both_branches():
    keyed = []

    @settings(max_examples=30, deadline=None)
    @given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 10),
                     st.integers(1, 4), st.floats(0.0, 1.0)))
    @example(RP2_CONE)
    @example(full_skeleton(8, 3))  # keyed at every ell
    @example(SkeletonComplex(10, 3, [(6, 7, 8, 9)]))  # compacted at ell >= 0
    def check(S):
        for ell in range(-1, S.k - 1):
            ids, rest = _relabelled_link_tops(_top_array(S), S.n, ell)
            keyed.append(_check_numbering(ids, rest, comb(S.n, ell + 1), S.n - ell - 1))

    check()
    # the walks reach both branches without the added links
    assert any(keyed) and not all(keyed)


def test_link_ranks_read_no_order_of_the_stack():
    # _link_ranks groups nothing but the core: the stack of the unsorted
    # walk, its columns then permuted together with their link ids, gives
    # the ranks of the grouped walk's stack over GF(2), GF(3) and Q, and
    # the draws keep cores, so that the core grouping runs
    seen = Counter()

    @settings(max_examples=40, deadline=None)
    @given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 10),
                     st.integers(1, 4), st.floats(0.0, 1.0)), st.integers(0, 2**32))
    @example(RP2_CONE, 0)  # lk(cone, (6,)) keeps RP^2_6 as a core over every field
    @example(SkeletonComplex(6, 2, frozenset(RP2_FACETS)), 1)
    def check(S, seed):
        rng = np.random.default_rng(seed)
        for ell in range(-1, S.k - 1):
            n_links, g = comb(S.n, ell + 1), S.n - ell - 1
            f = np.bincount(_link_pairs(_top_array(S), S.n, ell)[0], minlength=n_links).tolist()
            stacks = [homology._link_rows(*walk(_top_array(S), S.n, ell), n_links, g)
                      for walk in (_relabelled_link_tops, _link_pairs)]
            pos, link_ids, start = stacks[1]
            perm = rng.permutation(len(pos))
            stacks.append((pos[perm], link_ids[perm], start))
            seen["core"] += bool(homology._peel(pos, start[-1])[1].any())
            seen["stack"] += 1
            for fld in (GF2, GF3, RATIONALS):
                want = homology._link_ranks(*stacks[0], f, fld.p)
                for stack in stacks[1:]:
                    assert homology._link_ranks(*stack, f, fld.p) == want, (ell, fld.name)

    check()
    assert 0 < seen["core"] < seen["stack"], seen


def test_sparse_link_rows_allocate_nothing_the_size_of_the_key_space():
    # two tops on 100 vertices: 4,950 links at ell = 1, each with keys up
    # to about C(98, 2), against 60 entries; the keys met are compacted
    # before any array is sized, not even a bool per key is allocated
    X = SkeletonComplex(100, 4, [(95, 96, 97, 98, 99), (91, 93, 95, 97, 99)])
    ids, rest = _relabelled_link_tops(_top_array(X), X.n, 1)
    key_space = comb(X.n, 2) * (int(_facet_keys(rest, X.n - 2).max()) + 1)
    assert key_space >= 100 * rest.size
    tracemalloc.start()
    try:
        profile = link_profile(X, 1, GF2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < key_space // 10, (peak, key_space)
    assert sum(e.f_top for e in profile) == 2 * comb(5, 2)
    assert all(e.top == 0 and e.below == comb(X.n - 3, 2) - e.f_top for e in profile)
    # each link's busiest vertex is counted too, over every field: on 1,000
    # vertices, 499,500 links of 998 vertices each against 60 entries, so
    # a bool per (link, vertex) alone would be 498 MB; the vertices met
    # are compacted as the keys are, and only arrays of one entry per
    # link remain
    X = SkeletonComplex(1000, 4, [(995, 996, 997, 998, 999), (991, 993, 995, 997, 999)])
    n_links, g = comb(X.n, 2), X.n - 2
    for fld in (GF2, GF3, RATIONALS):
        tracemalloc.start()
        try:
            f, below, top = homology._link_betti(X, 1, fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_links * g // 10, (fld.name, peak)
        assert f.sum() == 2 * comb(5, 2) and not top.any()
        assert np.array_equal(below, comb(X.n - 3, 2) - f)


def test_facet_id_link_rank_falls_back_over_q_on_the_projective_plane(monkeypatch):
    # lk(cone, (6,)) is RP^2_6: GF(2) rank 9 misses min(10, 15, C(5, 2)),
    # so the rational rank 10 needs the row route, and only that link does
    calls = []

    def spy(entries, n_rows, n_cols, p=None):
        calls.append(p)
        return rank_by_rows(entries, n_rows, n_cols, p)

    monkeypatch.setattr(homology, "rank_by_rows", spy)
    apex = {fld.name: next(e for e in link_profile(RP2_CONE, 0, fld) if e.tau == (6,))
            for fld in (GF2, RATIONALS)}
    assert (apex["gf:2"].f_top, apex["gf:2"].top) == (10, 1)
    assert (apex["q"].f_top, apex["q"].top) == (10, 0)
    assert calls == [None]


# the octahedron, a 2-sphere on 1..6: one vertex of each antipodal pair
OCTAHEDRON = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]


def _entries(columns):
    """The entries of the map whose column c has (-1)^i in row
    columns[c][i], as _lifts reads pos; -1 is no row."""
    return {(x, c): -1 if i % 2 else 1
            for c, column in enumerate(columns) for i, x in enumerate(column) if x >= 0}


def _lift_case(faces):
    """The boundary map of faces as _lifts reads it, rows numbered from 0
    in order of first appearance: (pos, rows, GF(2) rank, entries)."""
    pos, _, start, maps = _stacked(len(faces[0]), [faces], [False])
    rows = start[1]
    return pos, rows, IncrementalSpan(2).extend(_bitsets(pos, rows)), maps[0][0]


def _check_refused(pos, rows, r2, entries):
    """_lifts refuses the map, of GF(2) rank r2 below min(columns, rows),
    and _map_rank's row route still gives the column route's rational
    rank."""
    assert r2 < min(len(pos), rows) and homology._lifts(pos, rows) is None
    want = rank_by_columns(entries, rows, len(pos))
    assert homology._map_rank(pos, rows, None) == want


def test_lifted_kernel_proves_the_rank_of_a_sphere_with_an_extra_column(monkeypatch):
    # the 8 triangles of the octahedron sum to 0 mod 2 and, signed, to its
    # fundamental cycle; (0, 1, 2) adds rows of its own, so the GF(2) rank
    # 8 misses min(9 columns, 15 rows) and the proof is needed
    faces = [(0, 1, 2)] + OCTAHEDRON
    pos, rows, r2, entries = _lift_case(faces)
    assert (len(pos), rows, r2) == (9, 15, 8)
    assert homology._lifts(pos, rows) == r2
    assert rank_by_columns(entries, rows, len(pos)) == r2
    # from the rows side: the 15 edges of the complete 2-skeleton on 6
    # vertices are fewer than its 20 triangles, and their 5 dependencies
    # are the vertex stars, which lift to coboundaries
    pos, rows, r2, entries = _lift_case(list(combinations(range(6), 3)))
    assert (len(pos), rows, r2) == (20, 15, 10)
    assert homology._lifts(pos, rows) == r2
    assert rank_by_columns(entries, rows, len(pos)) == r2
    # only the rows prove this one: among the columns, the dependency of
    # columns 0 and 3 meets rows 0, 2 and 3 with signs no lift satisfies
    columns = [[0, 3, 2], [0, 3, 2], [2, 3, 1], [3, 0, 2], [2, 0, 1]]
    entries = _entries(columns)
    pos = np.array(columns, dtype=np.int64)
    r2 = IncrementalSpan(2).extend(_bitsets(pos, 4))
    assert (r2, rank_by_columns(entries, 4, 5)) == (3, 3)
    assert homology._lifts(pos, 4) == r2
    # the global map: the cone split takes vertex 1, the least of
    # the busiest, in (0, 1, 2) and four octahedron triangles; the four
    # through 2 and not 1 are left as a core of GF(2) rank 3 < 4, a cycle
    # of edges through 2, that the proof settles, with no row route
    lifted = []
    lifts = homology._lifts

    def spy(*args):
        lifted.append(lifts(*args))
        return lifted[-1]

    def refuse(*args):
        raise AssertionError("the row route ran")

    monkeypatch.setattr(homology, "_lifts", spy)
    monkeypatch.setattr(homology, "rank_by_rows", refuse)
    X = track(closure(faces, 7))
    homology._rank_cached.cache_clear()
    assert boundary_rank(X, 2, RATIONALS) == 8
    assert lifted == [3]


def test_lifted_kernel_refuses_the_projective_plane_from_both_sides():
    # RP^2_6 alone has fewer columns (10) than rows (15); beside a disjoint
    # complete 2-skeleton on 7 vertices it has more (45 against 36), and
    # its extra GF(2) dependency among the rows is the mod-2 class that
    # no integer cocycle lifts
    k7 = [tuple(v + 6 for v in t) for t in combinations(range(7), 3)]
    for faces, shape in ((sorted(RP2_FACETS), (10, 15)), (sorted(RP2_FACETS) + k7, (45, 36))):
        pos, rows, r2, entries = _lift_case(faces)
        assert (len(pos), rows) == shape
        _check_refused(pos, rows, r2, entries)
        X = track(closure(faces, 13))
        homology._rank_cached.cache_clear()
        assert boundary_rank(X, 2, RATIONALS) == column_rank(boundary_matrix(X, 2), RATIONALS)


def test_lifted_kernel_refuses_a_dependency_that_meets_a_line_four_times():
    # four columns around row 0: their one GF(2) dependency meets row 0 in
    # all four, so it is refused, whether the four are independent over Q
    # (the first) or not (the second, whose signs would cancel in row 0)
    for columns, rank_q in (([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4]], 4),
                            ([[0, 1, 2], [0, 3, 2], [0, 3, 4], [0, 1, 4]], 3)):
        pos = np.array(columns, dtype=np.int64)
        entries = _entries(columns)
        r2 = IncrementalSpan(2).extend(_bitsets(pos, 5))
        assert (r2, rank_by_columns(entries, 5, 4)) == (3, rank_q)
        _check_refused(pos, 5, r2, entries)


@pytest.mark.parametrize("g", [30, 50])
def test_gf2_map_rank_packs_each_core_on_either_side_of_the_table(monkeypatch, g):
    # _map_rank packs a GF(2) core itself, one _bitsets call as wide as
    # the core's rows: the 435 edges of 30 vertices fit the table of
    # _TABLE_BITS bits and the 1,225 of 50 do not.  Rows through vertex 0
    # are deleted, -1, as the cone split leaves them, so the triangles
    # through 0 are unit columns; two tetrahedra's boundaries among the
    # random triangles make the rank fall short of the columns
    edges = {e: i for i, e in enumerate(combinations(range(g), 2))}
    assert (len(edges) < _TABLE_BITS) == (g == 30)
    spheres = list(combinations(range(1, 5), 3)) + list(combinations(range(g - 4, g), 3))
    tops = sorted(set(random.Random(g).sample(list(combinations(range(g), 3)), 2 * g) + spheres))
    pos = np.array([[edges[t[:i] + t[i + 1:]] for i in range(3)] for t in tops])
    pos[pos < g - 1] = -1
    entries = _entries(pos.tolist())
    widths = []

    def spy(pos, width):
        widths.append(width)
        return _bitsets(pos, width)

    monkeypatch.setattr(homology, "_bitsets", spy)
    rank = homology._map_rank(pos, len(edges), 2)
    assert widths == [len(edges)]
    assert rank == rank_by_columns(entries, len(edges), len(tops), 2)
    assert rank < len(tops)


def test_no_core_meets_more_rows_than_the_ambient_cap_leaves():
    # every core that _link_ranks hands _map_rank meets at most C(g-1, r)
    # rows less its link's cone tops and pivots (module docstring), so a
    # cap of C(g-1, r) less the rank taken before the core never falls
    # below min(columns, rows), and _map_rank takes none; checked on the
    # link stacks of random complexes, with RP^2_6 glued in or not
    seen = Counter()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**62), st.integers(5, 10), st.integers(2, 4),
           st.floats(0.1, 0.9), st.booleans())
    @example(seed=1, n=6, k=2, q=0.0, glue=True)  # RP^2_6 alone, at ell = -1
    @example(seed=2, n=8, k=3, q=0.4, glue=False)  # two cores
    @example(seed=3, n=9, k=3, q=0.4, glue=True)
    def check(seed, n, k, q, glue):
        k = min(k, n - 1)
        rng = SplitMix64(seed)
        S = random_skeleton_complex(n, k, q, rng)
        if glue and 2 <= k <= n - 4:
            S, _ = _glue_projective_plane(S, rng)
        for ell in range(-1, k - 2):
            r, g, n_links = k - ell - 1, n - ell - 1, comb(n, ell + 1)
            ids, rest = _link_pairs(_top_array(S), n, ell)
            f = np.bincount(ids, minlength=n_links)
            pos, link_ids, start = homology._link_rows(ids, rest, n_links, g)
            pivot, core, _ = homology._peel(pos, start[-1])
            cone = f - np.bincount(link_ids, minlength=n_links)
            cap = comb(g - 1, r) - cone - np.bincount(link_ids[pivot], minlength=n_links)
            met = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(homology, "_map_rank", lambda pos, rows, p: met.append(rows) or 0)
                homology._link_ranks(pos, link_ids, start, f.tolist(), 2)
            cored = np.unique(link_ids[core])
            assert len(met) == len(cored)
            assert all(rows <= cap[t] for t, rows in zip(cored.tolist(), met)), (ell, met)
            seen["cores"] += len(met)

    check()
    assert seen["cores"] > 0, seen


def test_a_lift_means_the_rational_rank_is_the_gf2_rank():
    # whatever complex reaches the proof, random, with RP^2_6 glued in, or
    # a cone over either, a map whose GF(2) rank r2 meets min(columns,
    # rows) or is proved has the column route's rational rank r2, and the
    # draws reach a proof below that minimum and a refusal
    seen = Counter()
    lifts = homology._lifts

    def spy(pos, rows):
        r2 = lifts(pos, rows)
        bound = min(len(pos), rows)
        seen["refused" if r2 is None else "bound" if r2 == bound else "lifted"] += 1
        if r2 is not None:
            assert rank_by_columns(_entries(pos.tolist()), rows, len(pos)) == r2
        return r2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**62), st.integers(4, 9), st.integers(2, 4),
           st.floats(0.1, 0.9), st.booleans(), st.booleans())
    @example(seed=1, n=6, k=2, q=0.0, glue=True, cone=True)  # the cone over RP^2_6
    @example(seed=4, n=9, k=3, q=0.5, glue=False, cone=False)  # two cores lift
    def check(seed, n, k, q, glue, cone):
        k = min(k, n - 1)
        rng = SplitMix64(seed)
        S = random_skeleton_complex(n, k, q, rng)
        if glue and 2 <= k <= n - 4:
            S, _ = _glue_projective_plane(S, rng)
        if cone:
            S = SkeletonComplex(S.n + 1, S.k + 1, frozenset(t + (S.n,) for t in S.top_faces))
        homology._rank_cached.cache_clear()
        for j in range(S.k + 1):
            boundary_rank(S, j, RATIONALS)
        for ell in range(S.k - 2):
            link_profile(S, ell, RATIONALS)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_lifts", spy)
        check()
    assert seen["lifted"] > 0 and seen["refused"] > 0, seen


def test_degree_one_ranks_over_q_run_no_rational_elimination(monkeypatch):
    # a graph's incidence map is ranked from its components and the
    # augmentation from its count, over every field alike, so over Q no
    # row elimination runs even where the rank misses its upper bound
    fallback_degrees = []

    def spy(entries, n_rows, n_cols, p=None):
        if p is None:
            per_col = Counter(c for _, c in entries)
            fallback_degrees.append(max(per_col.values(), default=0) - 1)
        return rank_by_rows(entries, n_rows, n_cols, p)

    monkeypatch.setattr(homology, "rank_by_rows", spy)
    # a triangle plus a disjoint edge: rank 3 < min(4 edges, 5 rows, 5)
    graph = ((0, 1), (1, 2), (0, 2), (3, 4))
    G1 = track(SkeletonComplex(6, 1, frozenset(graph)))
    cone = track(SkeletonComplex(7, 2, frozenset(e + (6,) for e in graph)))
    rng = SplitMix64(11)
    complexes = [G1, cone] + [
        random_skeleton_complex(n, k, 0.45, rng) for n in (5, 7, 9) for k in (1, 2, 3)]
    for X in complexes:
        homology._rank_cached.cache_clear()
        for j in (0, 1):
            want = column_rank(boundary_matrix(X, j), RATIONALS)
            assert boundary_rank(X, j, RATIONALS) == want
        G = as_general(X)
        for ell in range(max(-1, X.k - 2), X.k + 1):
            r = X.k - ell - 1
            for e in link_profile(X, ell, RATIONALS):
                M = boundary_matrix(link(G, e.tau), r)
                assert e.f_top - e.top == column_rank(M, RATIONALS), (ell, e.tau)
    assert boundary_rank(G1, 1, GF2) == 3
    assert next(e for e in link_profile(cone, 0, GF2) if e.tau == (6,)).top == 1
    assert fallback_degrees == []


def test_point_links_match_the_column_route():
    # at ell = k-1 every link is f_tau points over the empty face; its
    # Betti numbers come from counts, checked here against link() and the
    # column route on the link's augmentation map
    rng = SplitMix64(23)
    complexes = [
        SkeletonComplex(5, 2, frozenset()),                # no top faces
        SkeletonComplex(6, 2, frozenset({(0, 1, 2)})),     # most tau bare
        SkeletonComplex(4, 0, frozenset({(1,), (3,)})),    # ell = -1
        full_skeleton(6, 2),
    ] + [random_skeleton_complex(n, k, q, rng)
         for n, k, q in ((6, 1, 0.3), (7, 2, 0.2), (8, 3, 0.1), (9, 3, 4 / 9))]
    seen_bare = 0
    for X in complexes:
        ell = X.k - 1
        G = as_general(X)
        for field in (GF2, GF3, RATIONALS):
            profile = link_profile(X, ell, field)
            assert [e.tau for e in profile] == list(iter_faces(X, ell))
            for e in profile:
                L = link(G, e.tau)
                f = sum(1 for _ in iter_faces(L, 0))
                rk = column_rank(boundary_matrix(L, 0), field)
                assert (e.f_top, e.below, e.top) == (f, 1 - rk, f - rk), e
                seen_bare += f == 0
    assert seen_bare > 0


def test_point_links_build_no_facet_table(monkeypatch):
    # at ell = k-1 every link's rank is min(f_tau, 1), read from the count
    # of the walk: no row is numbered, packed or eliminated
    def refuse(*args):
        raise AssertionError("point links numbered rows or took a rank")

    for name in ("_link_ranks", "_bitsets", "_map_rank", "rank_by_rows"):
        monkeypatch.setattr(homology, name, refuse)
    X = random_skeleton_complex(9, 3, 4 / 9, SplitMix64(5))
    profile = link_profile(X, 2, RATIONALS)
    assert sum(e.f_top for e in profile) == 4 * len(X.top_faces)
    with pytest.raises(AssertionError):
        link_profile(X, 0, RATIONALS)


@settings(max_examples=40, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 10),
                 st.integers(1, 4), st.floats(0.0, 1.0)))
@example(SkeletonComplex(6, 1, frozenset()))                  # no top faces
@example(SkeletonComplex(7, 3, frozenset({(0, 1, 2, 3)})))    # most tau bare
@example(SkeletonComplex(5, 1, frozenset({(0, 1), (0, 2), (1, 2), (3, 4)})))
# long paths, whose GF(2) reductions run long: the graph itself is the
# link of the empty face at k = 1, and the link of (0, 1) at k = 3
@example(SkeletonComplex(40, 1, frozenset((i, i + 1) for i in range(39))))
@example(SkeletonComplex(20, 3, frozenset((0, 1, i, i + 1) for i in range(2, 19))))
@example(full_skeleton(7, 2))
def test_graph_links_match_the_column_route(X):
    # at ell = k-2 every link is a graph; its Betti numbers come from its
    # components over every field, checked here against link() and the
    # column route on the link's own incidence map
    ell = X.k - 2
    g = X.n - ell - 1
    G = as_general(X)
    for field in (GF2, GF3, RATIONALS):
        profile = link_profile(X, ell, field)
        assert [e.tau for e in profile] == list(iter_faces(X, ell))
        for e in profile:
            M = boundary_matrix(link(G, e.tau), 1)
            rk = column_rank(M, field)
            assert (e.f_top, e.below, e.top) == \
                (M.n_cols, g - 1 - rk, M.n_cols - rk), (e, field.name)


def test_graph_links_build_no_facet_table(monkeypatch):
    # a graph's rank is the vertices its edges meet less its components,
    # over every field, so at ell = k-2 no row is numbered, packed or
    # eliminated, and no global rank is taken either
    def refuse(*args):
        raise AssertionError("graph links eliminated or took a global rank")

    for name in ("_rank_cached", "_link_rows", "_link_ranks", "_bitsets", "rank_by_rows"):
        monkeypatch.setattr(homology, name, refuse)
    for k in (1, 2, 3, 4):
        X = random_skeleton_complex(9, k, 0.4, SplitMix64(k))
        for field in (GF2, GF3, FieldSpec(5), RATIONALS):
            profile = link_profile(X, k - 2, field)
            assert sum(e.f_top for e in profile) == \
                comb(k + 1, 2) * len(X.top_faces)
    with pytest.raises(AssertionError):
        link_profile(X, 1, GF3)


@st.composite
def _graphs(draw):
    """(nodes, edges): isolated nodes, repeated edges and loops, which no
    link has and which change nothing, or no edge at all."""
    n = draw(st.integers(0, 40))
    if not n:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=8))
    return n, edges


def _ends(edges):
    """The two ends of every edge as int64 arrays."""
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


@settings(max_examples=200, deadline=None)
@given(_graphs())
@example((0, []))                               # no node
@example((7, []))                               # no edge: every node alone
@example((5, [(3, 1)] * 4 + [(2, 2)]))          # repeats and a loop
@example((6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
def test_components_label_every_node_with_the_least_node_of_its_component(case):
    n, edges = case
    assert homology._components(n, *_ends(edges)).tolist() == least_in_component(n, edges)


def _halving_path(m):
    """The nodes along a path of 2^m nodes, numbered so that each round of
    hook and jump joins only pairs: the odd places hold the larger half,
    each the larger neighbour of two smaller ones, and the even places
    repeat the pattern on the smaller half, which is the path left after
    the round."""
    if not m:
        return [0]
    half = 1 << (m - 1)
    out = [0] * (2 * half)
    out[::2] = _halving_path(m - 1)
    out[1::2] = range(2 * half - 1, half - 1, -1)
    return out


class _CountedMinimum:
    """np.minimum, counting its .at calls: one per round of hook and jump."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, *args, **kwargs):
        return np.minimum(*args, **kwargs)

    def at(self, *args):
        self.rounds += 1
        np.minimum.at(*args)


class _CountingNumpy:
    """numpy as homology sees it, with np.minimum counted."""

    def __init__(self):
        self.minimum = _CountedMinimum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("name,n,edges,rounds", [
    # numbered along the path, each node hooks onto the one before it in
    # one round, and the jumps flatten the chain
    ("ordered path", 1024, list(pairwise(range(1024))), 1),
    # each round halves the roots: log2 of the nodes
    ("halving path", 1024, list(pairwise(_halving_path(10))), 10),
    # the largest node at the centre hooks onto 0, then every leaf does
    ("star", 1024, [(1023, leaf) for leaf in range(1023)], 2),
    ("star from 0", 1024, [(0, leaf) for leaf in range(1, 1024)], 1),
])
def test_components_rounds_on_paths_and_stars(monkeypatch, name, n, edges, rounds):
    # the number of rounds hook and jump takes, recorded on an adversarial
    # numbering of each shape and on a kind one
    counting = _CountingNumpy()
    monkeypatch.setattr(homology, "np", counting)
    label = homology._components(n, *_ends(edges))
    assert label.tolist() == [0] * n, name
    assert counting.minimum.rounds == rounds, name


def _graph_link_arrays(n, k, tops, fld):
    """(f_top, below, top) of every link of a (k-2)-face of the complex on
    n vertices with these tops, in lexicographic order of the faces: a
    link with no tops is g bare vertices, b_0 = g - 1, and each other link
    is built from its own tops and ranked by the column route."""
    ell, g = k - 2, n - k + 1
    n_links = comb(n, ell + 1)
    f, below, top = (np.zeros(n_links, dtype=np.int64), np.full(n_links, g - 1),
                     np.zeros(n_links, dtype=np.int64))
    edges = {}
    for sigma in tops:
        for tau in combinations(sigma, ell + 1):
            edges.setdefault(tau, []).append(tuple(v for v in sigma if v not in tau))
    taus = sorted(edges)
    for t, tau in zip(_lex_ranks(np.array(taus, dtype=np.int64).reshape(-1, ell + 1),
                                 _binomials(n, ell + 1)).tolist(), taus):
        rk = column_rank(boundary_matrix(closure(edges[tau], n), 1), fld)
        f[t], below[t], top[t] = len(edges[tau]), g - 1 - rk, len(edges[tau]) - rk
    return f, below, top


@pytest.mark.parametrize("n,k,tops", [
    # ell = 0: 200 links of 199 vertices, most with no tops
    (200, 2, [(0, 1, 2), (0, 2, 199), (1, 2, 199), (50, 60, 70), (0, 50, 199)]),
    # ell = 1: 19,900 links, a triangle and a path through (3, 4)
    (200, 3, [(3, 4, 10, 11), (3, 4, 11, 12), (3, 4, 10, 12), (3, 4, 150, 199),
              (3, 4, 198, 199), (5, 6, 7, 8)]),
    # ell = 1: 79,800 links of 398 vertices each
    (400, 3, [(0, 1, 2, 399), (1, 2, 3, 399), (2, 3, 200, 399)]),
    # ell = 0 on 1,000 vertices, one top through vertex 0 of its links
    (1000, 2, [(0, 1, 999), (1, 2, 999), (0, 2, 999), (5, 6, 7)]),
])
def test_sparse_graph_links_match_the_column_route(n, k, tops):
    # a few tops on hundreds of vertices at ell = k-2: the links times
    # their vertices outgrow the edge ends, so the nodes met are compacted
    X = SkeletonComplex(n, k, frozenset(tops))
    for fld in (GF2, GF3, RATIONALS):
        want = _graph_link_arrays(n, k, X.top_faces, fld)
        got = homology._link_betti(X, k - 2, fld)
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist(), fld.name


def test_sparse_graph_links_allocate_nothing_the_size_of_the_node_space():
    # two tops on 300 vertices: 44,850 links at ell = 1, each with 298
    # vertices, against 24 edge ends; the nodes met are compacted before
    # any array is sized, and not even a bool per node is allocated: the
    # peak is the few arrays of one entry per link
    X = SkeletonComplex(300, 3, [(295, 296, 297, 298), (0, 10, 150, 299)])
    node_space = comb(X.n, 2) * (X.n - 2)
    ids, ends = _link_pairs(_top_array(X), X.n, 1)
    assert node_space >= 10 ** 5 * ends.size
    tracemalloc.start()
    try:
        f, below, top = homology._link_betti(X, 1, GF2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < node_space // 4, (peak, node_space)
    assert f.sum() == 2 * comb(4, 2) and not top.any()
    assert (below == X.n - 3 - f).all()


@pytest.mark.parametrize("fld", [GF2, GF3, RATIONALS], ids=lambda f: f.name)
def test_global_graph_maps_match_the_column_route(fld):
    # the degree-1 map of a k = 1 complex, and the edge layer of a general
    # complex on a ground set with gaps and bare vertices, ranked by their
    # components, against the column route; the sparse one on 1,000
    # vertices compacts the vertices met
    rng = SplitMix64(41)
    graphs = [random_skeleton_complex(n, 1, q, rng) for n, q in ((6, 0.3), (9, 0.2), (12, 0.5))]
    graphs += [SkeletonComplex(8, 1, frozenset()), SkeletonComplex(1000, 1, [(3, 999), (3, 7)])]
    graphs += [random_general_complex(10, 2, 7, rng) for _ in range(6)]
    graphs += [GeneralComplex(frozenset({2, 5, 9, 40, 41}),
                              frozenset(closure([(5, 9), (9, 41), (5, 41), (2,)], 42).faces)),
               closure([(0, 998), (1, 2), (2, 998), (500,)], 1000)]
    for X in graphs:
        homology._rank_cached.cache_clear()
        for j in (-1, 0, 1):
            want = face_count(X, j) - sum(column_rank(boundary_matrix(X, i), fld)
                                          for i in (j, j + 1) if 0 <= i <= X.dim)
            assert betti(X, j, fld) == want, (X, j)


def _oracle_profile(X, ell, fld):
    """(tau, f_top, below, top) of every degree-ell link of X, from link()
    and the column route on the link's own boundary maps."""
    r = X.k - ell - 1
    out = []
    for tau in iter_faces(X, ell):
        L = link(X, tau)
        f = [face_count(L, j) for j in (r - 1, r)]
        rk = [column_rank(boundary_matrix(L, j), fld) if j >= 0 else 0 for j in (r - 1, r)]
        below = f[0] - rk[0] - rk[1] if r >= 0 else 0
        out.append((tau, f[1], below, f[1] - rk[1]))
    return out


def _check_against_oracle(X, fields=(GF2, GF3, RATIONALS)):
    homology._rank_cached.cache_clear()
    for fld in fields:
        for j in range(-1, X.k + 1):
            f_j = face_count(X, j)
            want = f_j - sum(column_rank(boundary_matrix(X, i), fld)
                             for i in (j, j + 1) if 0 <= i <= X.dim)
            assert betti(X, j, fld) == want, (j, fld.name)
        for ell in range(-1, X.k + 1):
            got = [tuple(e) for e in link_profile(X, ell, fld)]
            assert got == _oracle_profile(X, ell, fld), (ell, fld.name)


@settings(max_examples=30, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(1, 9),
                 st.integers(0, 4), st.floats(0.0, 1.0)))
@example(SkeletonComplex(6, 2, frozenset()))                  # no top faces
@example(SkeletonComplex(7, 3, frozenset({(0, 1, 2, 3)})))    # most tau bare
@example(SkeletonComplex(5, 0, frozenset({(1,), (3,)})))      # k = 0
@example(full_skeleton(7, 3))                                 # complete
@example(RP2_CONE)                                            # torsion in a link
def test_array_route_matches_links_and_the_column_route(X):
    # every link profile, ell from -1 to k, and every Betti number of X
    # against link() and rank_by_columns, over GF(2), GF(3) and Q
    _check_against_oracle(X)


@pytest.mark.parametrize("n,k,ell", [(11, 3, 0), (13, 4, 1)])
def test_array_route_matches_the_column_route_on_saturated_complexes(n, k, ell):
    # the saturated X of the tightness ladder, whose links all reach full
    # rank, and the sum complex it grew from
    from hypertree_lab.constructions import SumComplexSpec, build_X_nkl, sum_complex
    _check_against_oracle(build_X_nkl(n, k, ell, GF2).complex)
    _check_against_oracle(sum_complex(SumComplexSpec.make(n, range(k - ell), k)), (GF2,))


def test_array_route_relabels_a_general_ground_set():
    # a layer of a GeneralComplex that is not complete goes through the
    # array route after its ground set is relabelled onto 0..g-1
    ground = frozenset({2, 3, 5, 7, 11, 13})
    facets = [(2, 3, 5), (3, 5, 7), (5, 7, 11), (2, 7, 11), (2, 3, 13), (11, 13)]
    G = GeneralComplex(ground, frozenset(f for t in facets for f in subfaces(t)))
    validate(G)
    homology._rank_cached.cache_clear()
    for fld in (GF2, GF3, RATIONALS):
        for j in range(-1, G.dim + 1):
            want = face_count(G, j) - sum(column_rank(boundary_matrix(G, i), fld)
                                          for i in (j, j + 1) if 0 <= i <= G.dim)
            assert betti(G, j, fld) == want, (j, fld.name)
    assert [betti(G, j, GF2) for j in range(-1, 3)] == [0, 0, 2, 0]


# a file complex on 2000 vertices, k = 8: C(1999, 7) exceeds 2^63, so no
# binomial table of its links' rows holds in int64; the figures below were
# recorded from the facet-id route that the array route replaced
WIDE_FACES = """\
skeleton 2000 8
22 77 295 387 466 998 1294 1413 1699
40 312 434 641 1158 1233 1530 1557 1972
101 520 918 971 1442 1561 1709 1745 1940
101 520 918 1561 1573 1619 1709 1745 1913
101 520 918 1561 1619 1709 1745 1913 1940
101 520 1442 1561 1573 1619 1913 1939 1940
101 520 1442 1561 1573 1709 1913 1939 1940
101 971 1442 1561 1573 1709 1745 1939 1940
294 569 873 988 1235 1358 1440 1577 1824
340 626 710 809 817 845 1053 1324 1453
354 414 711 755 1113 1220 1465 1667 1812
520 918 1442 1561 1573 1619 1745 1913 1939
520 918 1442 1573 1619 1709 1745 1913 1940
918 971 1442 1561 1573 1619 1709 1939 1940
918 971 1442 1561 1573 1709 1745 1939 1940
"""


def test_array_route_on_a_wide_file_complex():
    from hypertree_lab.complex_io import parse_complex_text
    X = parse_complex_text(WIDE_FACES).complex
    below = {-1: 6235783710482296633836, 0: 49911225296506626383865, 8: 0}
    for fld in (GF2, GF3, RATIONALS):
        homology._rank_cached.cache_clear()
        assert [betti(X, j, fld) for j in (6, 7, 8)] == [0, 6235783710482296633836, 0]
        for ell, (n_links, f_top) in {-1: (1, 15), 0: (2000, 135), 8: (15, 15)}.items():
            profile = link_profile(X, ell, fld)
            assert (len(profile), sum(e.f_top for e in profile)) == (n_links, f_top)
            assert sum(e.below for e in profile) == below[ell], (ell, fld.name)
            assert sum(e.top for e in profile) == (15 if ell == 8 else 0), (ell, fld.name)


def _check_link_arrays(X, ell, fld):
    """homology._link_betti against link_profile at one degree: one entry
    per face of iter_faces(X, ell), the same three numbers per link, and
    sums that are exact Python ints, as lambda_pair returns them."""
    f, below, top = homology._link_betti(X, ell, fld)
    profile = link_profile(X, ell, fld)
    assert [e.tau for e in profile] == list(iter_faces(X, ell))
    assert list(zip(f.tolist(), below.tolist(), top.tolist())) == \
        [(e.f_top, e.below, e.top) for e in profile], (ell, fld.name)
    assert int(below.sum()) == sum(e.below for e in profile)
    assert int(top.sum()) == sum(e.top for e in profile)
    assert lambda_pair(X, ell, fld) == (int(below.sum()), int(top.sum()))


@settings(max_examples=30, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(1, 9),
                 st.integers(0, 4), st.floats(0.0, 1.0)))
@example(RP2_CONE)
@example(full_skeleton(6, 3))
def test_link_arrays_match_the_link_profile(S):
    for ell in range(-1, S.k + 1):
        for fld in (GF2, GF3, RATIONALS):
            _check_link_arrays(S, ell, fld)


def test_link_arrays_where_their_sums_outgrow_int64():
    # C(g-1, r) * links reaches 2^63 at ell = -1 and 0 of the wide file
    # complex, where below is an object array of Python ints
    from hypertree_lab.complex_io import parse_complex_text
    X = parse_complex_text(WIDE_FACES).complex
    for fld in (GF2, GF3, RATIONALS):
        for ell in (-1, 0, 8):
            _check_link_arrays(X, ell, fld)
        assert homology._link_betti(X, 0, fld)[1].dtype == object
        assert homology._link_betti(X, 8, fld)[1].dtype == np.int64
    # C(198, 11) < 2^63, but 200 links of it sum past 2^63
    rng = np.random.default_rng(3)
    X = SkeletonComplex(200, 12, {tuple(sorted(rng.choice(200, 13, replace=False).tolist()))
                                  for _ in range(6)})
    for fld in (GF2, GF3, RATIONALS):
        _check_link_arrays(X, 0, fld)
        assert lambda_pair(X, 0, fld)[0] > 1 << 63


def test_full_skeleton_betti_closed_form():
    # top reduced Betti number of the complete j-skeleton on g vertices
    for g in (4, 5, 6):
        for j in range(0, g - 1):
            X = full_skeleton(g, j)
            want = comb(g - 1, j + 1)
            assert betti(X, j, GF2) == want
            assert betti(X, j, RATIONALS) == want
            for i in range(-1, j):
                assert betti(X, i, GF2) == 0


def test_full_boundary_rank_formula():
    # the library's closed form for a complete layer, against the column
    # route on the full simplex's own boundary maps
    for g in (1, 2, 4, 5, 6, 7):
        X = full_skeleton(g, g - 1)
        # no map below degree 0 or above the top face
        assert complete_rank(g, -1) == complete_rank(g, g) == 0
        for j in range(0, g):
            M = boundary_matrix(X, j)
            for fld in (GF2, GF3, RATIONALS):
                want = column_rank(M, fld)
                assert want == comb(g - 1, j)
                assert complete_rank(g, j) == want
                assert boundary_rank(X, j, fld) == want


def test_boundary_rank_matches_direct_elimination():
    rng = SplitMix64(7)
    for _ in range(25):
        X = random_general_complex(5, 2, 4, rng)
        for fld in (GF2, RATIONALS):
            for j in range(0, X.dim + 1):
                M = boundary_matrix(X, j)
                direct = rank_by_rows(M.entries, M.n_rows, M.n_cols, fld.p)
                assert boundary_rank(X, j, fld) == direct
                assert column_rank(M, fld) == direct


def test_betti_of_skeleton_complex_equals_general_form():
    from hypertree_lab.simplexes import as_general
    X = SkeletonComplex(6, 2, frozenset({(0, 1, 2), (1, 2, 3), (3, 4, 5)}))
    track(X)
    G = as_general(X)
    for fld in (GF2, RATIONALS):
        assert betti_table(X, fld) == betti_table(G, fld)


def support_by_columns(S, fld):
    """The top faces of S whose column lies in the span of the others:
    deleting it keeps the rank of the top map, by rank_by_columns."""
    M = boundary_matrix(S, S.k)
    rank = rank_by_columns(M.entries, M.n_rows, M.n_cols, fld.p)
    return [sigma for c, sigma in enumerate(M.col_faces)
            if rank_by_columns({key: x for key, x in M.entries.items() if key[1] != c},
                               M.n_rows, M.n_cols, fld.p) == rank]


def _maybe_cone(S, cone):
    """S, or the cone over S with apex n when cone is set."""
    if not cone:
        return S
    return SkeletonComplex(S.n + 1, S.k + 1, frozenset(t + (S.n,) for t in S.top_faces))


# RP^2_6 plus the non-face (0, 1, 3): over GF(2) the sum of RP^2_6's
# triangles is the one cycle, 10 faces; over GF(3) and Q RP^2_6 has none,
# and the one cycle runs through all 11
RP2_PLUS = SkeletonComplex(6, 2, frozenset(RP2_FACETS) | {(0, 1, 3)})


@settings(max_examples=40, deadline=None)
@given(st.builds(_maybe_cone,
                 st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 8),
                           st.integers(1, 3), st.floats(0.2, 1.0)),
                 st.booleans()))
@example(as_skeleton_complex(cycle_graph(6)))  # all 6 edges
@example(SkeletonComplex(3, 2, frozenset({(0, 1, 2)})))  # acyclic: no support
@example(RP2_PLUS)
def test_cycle_support_is_the_tops_that_are_no_coloop(S):
    # a top face lies in the support of a top cycle exactly when its
    # column is no coloop: deleting it keeps the rank, read by the column
    # route, which shares no code with the fraction-free update or the
    # XOR core that the support's tagged run reduces by
    track(S)
    for fld in (GF2, GF3, RATIONALS):
        support = homology._cycle_support(S, fld.p)
        assert list(map(tuple, support.tolist())) == support_by_columns(S, fld), fld.name


def test_cycle_basis_spans_the_right_dimension():
    # the 6-cycle's top cycles are one-dimensional, and that one cycle runs
    # through all 6 edges over every field
    C = as_skeleton_complex(cycle_graph(6))
    edges = sorted(tuple(sorted((i, (i + 1) % 6))) for i in range(6))
    for fld in (GF2, GF3, RATIONALS):
        assert betti(C, 1, fld) == 1
        assert list(map(tuple, homology._cycle_support(C, fld.p).tolist())) == edges


def test_cycle_basis_empty_when_acyclic():
    # a filled triangle has no top cycle, so no top face is supported
    X = closure([(0, 1, 2)], 3)
    assert betti(X, 1, GF2) == betti(X, 2, GF2) == 0
    for fld in (GF2, GF3, RATIONALS):
        assert homology._cycle_support(as_skeleton_complex(X), fld.p).size == 0


def test_a_support_is_read_over_its_own_field():
    # RP2_PLUS has the same Betti numbers over GF(2) and Q, not the same
    # support: over GF(2) its new triangle (0, 1, 3) is a coloop
    assert betti_table(RP2_PLUS, GF2) == betti_table(RP2_PLUS, RATIONALS)
    supports = [homology._cycle_support(RP2_PLUS, fld.p).tolist()
                for fld in (GF2, GF3, RATIONALS)]
    assert supports[0] == sorted(map(list, RP2_FACETS))
    assert supports[1] == supports[2] == sorted(map(list, RP2_PLUS.top_faces))


def test_is_hypertree_on_spanning_trees():
    # a path is a 1-dimensional hypertree; a cycle is not (extra loop)
    path = closure([(0, 1), (1, 2), (2, 3)], 4)
    chk = is_hypertree(path, 1, GF2)
    assert chk.is_hypertree and bool(chk)
    assert chk.face_count_ok and chk.tb_below == 0 and chk.tb_top == 0
    cyc = cycle_graph(4)
    chk2 = is_hypertree(cyc, 1, GF2)
    assert not chk2.is_hypertree  # f_1 = 4 > 3 already fails the count
    tree_plus_isolated = closure([(0, 1), (1, 2), (3,)], 4)
    chk3 = is_hypertree(tree_plus_isolated, 1, RATIONALS)
    assert not chk3.is_hypertree


def test_is_hypertree_two_dimensional_example():
    # complete 1-skeleton on 5 vertices plus C(4,2)=6 triangles chosen to
    # kill all 1-cycles without creating 2-cycles
    tops = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4)]
    Y = SkeletonComplex(5, 2, frozenset(tops))
    chk = is_hypertree(Y, 2, RATIONALS)
    assert chk.is_hypertree
    # swap one cone face for a triangle missing vertex 0: count still right,
    # but homology appears
    bad = list(tops[:-1]) + [(1, 2, 3)]
    Y2 = SkeletonComplex(5, 2, frozenset(bad))
    chk2 = is_hypertree(Y2, 2, RATIONALS)
    assert chk2.face_count_ok and not chk2.is_hypertree


def test_is_hypertree_requires_sandwiched_input():
    missing_edge = GeneralComplex(
        frozenset(range(3)),
        frozenset({(), (0,), (1,), (2,), (0, 1), (0, 2)}),
    )
    # candidate dimension 2 needs the complete edge layer underneath
    with pytest.raises(NotSandwiched):
        is_hypertree(missing_edge, 2, GF2)
    # too-high-dimensional faces are rejected as well
    with pytest.raises(NotSandwiched):
        is_hypertree(closure([(0, 1, 2)], 3), 1, GF2)


def test_negative_betti_never_returned():
    rng = SplitMix64(31)
    for _ in range(30):
        X = random_general_complex(6, 3, 5, rng)
        track(X)
        for fld in (GF2, RATIONALS):
            for j, b in betti_table(X, fld).items():
                assert b >= 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**62))
def test_euler_characteristic_consistency(seed):
    # alternating sum of face counts equals alternating sum of Betti numbers
    rng = SplitMix64(seed)
    X = track(random_general_complex(6, 2, 5, rng))
    for fld in (GF2, GF3, RATIONALS):
        table = betti_table(X, fld)
        from hypertree_lab.simplexes import face_count
        lhs = sum((-1) ** j * face_count(X, j) for j in range(-1, X.dim + 1))
        rhs = sum((-1) ** j * b for j, b in table.items())
        assert lhs == rhs
