from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from hypertree_lab import homology
from hypertree_lab.errors import NotSandwiched
from hypertree_lab.fields import GF2, GF3, RATIONALS, FieldSpec
from hypertree_lab.homology import (
    _id_rank,
    betti,
    betti_table,
    boundary_matrix,
    boundary_rank,
    complete_rank,
    cycle_basis,
    is_hypertree,
    link_profile,
)
from hypertree_lab.linalg import rank_by_columns, rank_by_rows
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import (
    EMPTY_SIMPLEX,
    VOID,
    GeneralComplex,
    SkeletonComplex,
    as_general,
    closure,
    full_skeleton,
    iter_faces,
    link,
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
    # boundary_rank over Q either returns a GF(2) rank that meets its upper
    # bound or runs the rational row route; both must agree with the
    # column route, and the draws must reach both branches
    calls = {"q": 0, "fallback": 0}
    top_rank, rank_by_rows = homology._top_rank, homology.rank_by_rows

    def top_rank_spy(alphas, p, g):
        calls["q"] += p is None
        return top_rank(alphas, p, g)

    def rank_by_rows_spy(entries, n_rows, n_cols, p=None):
        calls["fallback"] += p is None
        return rank_by_rows(entries, n_rows, n_cols, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**62), st.integers(2, 10), st.integers(1, 4),
           st.floats(0.0, 1.0), st.booleans())
    @example(seed=1, n=6, k=2, q=0.0, glue=True)  # RP^2_6 alone
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
        mp.setattr(homology, "_top_rank", top_rank_spy)
        mp.setattr(homology, "rank_by_rows", rank_by_rows_spy)
        check()
    assert calls["fallback"] > 0
    assert calls["q"] - calls["fallback"] > 0


def _id_matrix(groups):
    """The sparse matrix that link_columns groups spell out, rows numbered here."""
    rows, entries, c = {}, {}, 0
    for keep, cols in groups:
        for ids in cols:
            for i in keep:
                entries[(rows.setdefault(ids[i], len(rows)), c)] = -1 if i % 2 else 1
            c += 1
    return entries, len(rows), c


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
def test_facet_id_link_matrix_has_the_rank_of_the_link_boundary(S):
    # the +-1 scaling lemma: the top boundary of lk(S, tau) read off the
    # facet-id table of S has the rank of the general link's boundary map
    # over every field, for every tau and every ell; the link faces through
    # v, the least vertex outside tau, come as unit columns, and the cone
    # lemma gives the same rank on the link's own boundary map
    G = as_general(S)
    for ell in range(-1, S.k + 1):
        r, g = S.k - ell - 1, S.n - ell - 1
        cap = comb(g - 1, r) if r >= 0 else 0
        links = homology.link_columns(S, ell)
        assert set(links) <= set(iter_faces(S, ell))
        for tau in iter_faces(S, ell):
            M = boundary_matrix(link(G, tau), r)
            groups = links.get(tau, [])
            entries, n_rows, n_cols = _id_matrix(groups)
            assert n_cols == M.n_cols, (ell, tau)
            v = min(set(range(S.n)) - set(tau), default=None)
            if r > 0:  # at r = 0 every column keeps one position
                units = sum(len(cols) for keep, cols in groups if len(keep) == 1)
                assert units == sum(v in alpha for alpha in M.col_faces)
            for fld in (GF2, GF3, RATIONALS):
                want = column_rank(M, fld)
                assert rank_by_columns(entries, n_rows, n_cols, fld.p) == want
                if v is not None:
                    assert _cone_split_rank(M, v, fld.p) == want, (ell, tau)
                if n_cols:
                    assert _id_rank(groups, fld.p, cap) == want, (ell, tau, fld.name)


@st.composite
def _unit_and_whole_groups(draw):
    """_id_rank groups read off one facet-id table of faces with 2 to 4
    vertices, repeats allowed: each column keeps either all its positions
    or one random position (a unit column), and runs of columns with the
    same keep may share a group.  Faces of one size share rows, so unit
    ids repeat and other columns touch them; whole columns of two
    vertices are graph incidence columns, so the degree-1 shortcut holds."""
    m = draw(st.integers(4, 7))
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3, unique=True))
    faces = draw(st.lists(
        st.sampled_from([f for size in sizes for f in combinations(range(m), size)]),
        min_size=1, max_size=14))
    groups = []
    for face, ids in zip(faces, homology.facet_ids(faces)):
        keep = (draw(st.integers(0, len(face) - 1)),) if draw(st.booleans()) \
            else tuple(range(len(face)))
        if groups and groups[-1][0] == keep and draw(st.booleans()):
            groups[-1][1].append(ids)
        else:
            groups.append((keep, [ids]))
    return groups


RP2_IDS = homology.facet_ids(RP2_FACETS)  # ids 0..14, one per edge


@settings(max_examples=150, deadline=None)
@given(_unit_and_whole_groups(), st.integers(0, 2))
# unit group first, a torsion part after it: GF(2) rank 9 + 1 misses 10 + 1
@example([((0,), [(15,)]), ((0, 1, 2), RP2_IDS)], 0)
# the same with the unit group last and in between
@example([((0, 1, 2), RP2_IDS), ((0,), [(15,)])], 0)
@example([((0, 1, 2), RP2_IDS[:5]), ((0,), [(15,)]), ((0, 1, 2), RP2_IDS[5:])], 0)
# one unit id twice
@example([((0,), [(0, 1), (0, 2)]), ((0, 1), [(1, 2)])], 0)
# both rows of the whole column are free: rank 2, not 3
@example([((0,), [(0, 5), (1, 5)]), ((0, 1), [(0, 1)])], 0)
def test_unit_columns_are_free_pivots(groups, extra):
    # one-position groups are unit columns: _id_rank counts their distinct
    # rows and ranks the rest without them, which must give the rank of
    # the whole matrix the groups spell, over every field
    entries, n_rows, n_cols = _id_matrix(groups)
    cap = rank_by_columns(entries, n_rows, n_cols, None) + extra
    for fld in (GF2, GF3, RATIONALS):
        want = rank_by_columns(entries, n_rows, n_cols, fld.p)
        assert _id_rank(groups, fld.p, cap) == want, fld.name


def test_facet_id_link_rank_falls_back_over_q_on_the_projective_plane(monkeypatch):
    # lk(cone, (6,)) is RP^2_6: GF(2) rank 9 misses min(10, 15, C(5, 2)),
    # so the rational rank 10 needs the row route
    calls = []

    def spy(entries, n_rows, n_cols, p=None):
        calls.append(p)
        return rank_by_rows(entries, n_rows, n_cols, p)

    monkeypatch.setattr(homology, "rank_by_rows", spy)
    groups = homology.link_columns(RP2_CONE, 0)[(6,)]
    assert _id_rank(groups, 2, comb(5, 2)) == 9
    assert calls == []
    assert _id_rank(groups, None, comb(5, 2)) == 10
    assert calls == [None]


def test_degree_one_ranks_over_q_run_no_rational_elimination(monkeypatch):
    # graph incidence and augmentation maps are totally unimodular, so over
    # Q the GF(2) rank is the answer even where it misses its upper bound
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


def test_cycle_basis_spans_the_right_dimension():
    C = cycle_graph(6)
    for fld in (GF2, RATIONALS):
        basis = cycle_basis(C, 1, fld)
        assert len(basis) == 1
        vec = basis[0]
        expected_support = {tuple(sorted((i, (i + 1) % 6))) for i in range(6)}
        assert set(vec) == expected_support
        # a cycle: boundary of the chain vanishes
        M = boundary_matrix(C, 1)
        col_of = {f: j for j, f in enumerate(M.col_faces)}
        sums = {}
        for (i, j), v in M.entries.items():
            for f, c in vec.items():
                if col_of[f] == j:
                    sums[i] = sums.get(i, 0) + v * c
        p = fld.p
        assert all((s % p if p else s) == 0 for s in sums.values())


def test_cycle_basis_empty_when_acyclic():
    X = closure([(0, 1, 2)], 3)
    assert cycle_basis(X, 1, GF2) == []


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
