import hashlib
import time
from collections import Counter
from itertools import combinations, islice
from math import comb

import numpy as np
import pytest

from hypertree_lab import constructions, homology, linalg
from hypertree_lab.bounds import support_property_holds
from hypertree_lab.constructions import (
    FANO_BLOCKS,
    SUM_BUDGET,
    SumComplexSpec,
    build_J,
    build_X_nkl,
    steiner_complex,
    sum_complex,
)
from hypertree_lab.errors import (
    NotPrime,
    ParameterMismatch,
    ParameterOutOfRange,
    TooLarge,
)
from hypertree_lab.fields import GF2, GF3, RATIONALS, FieldSpec, is_prime
from hypertree_lab.homology import betti, betti_table
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import (
    _TABLE_BITS,
    _binomials,
    _facet_ranks,
    _lex_ranks,
    _link_pairs,
    _relabelled_link_tops,
    _top_array,
    face_count,
    link,
)
from _greedy_oracle import lexicographic_picks
from _oracles import collapses_to_point, interval_offset, sum_complex_betti_formula
from _registry import track


def test_sum_complex_spec_validation():
    with pytest.raises(NotPrime):
        SumComplexSpec.make(6, [0], 1)
    with pytest.raises(ParameterOutOfRange):
        SumComplexSpec.make(7, [], 1)
    with pytest.raises(ParameterOutOfRange):
        SumComplexSpec.make(7, [0], 6)
    spec = SumComplexSpec.make(7, [9, 1], 2)
    assert spec.residues == frozenset({2, 1})
    assert len(spec.residues) - 1 == 1


def test_interval_offset_detection():
    assert interval_offset(SumComplexSpec.make(7, [3, 4, 5], 1)) == 3
    # wraps around the modulus
    assert interval_offset(SumComplexSpec.make(7, [6, 0, 1], 1)) == 6
    assert interval_offset(SumComplexSpec.make(7, [0, 2], 1)) is None
    assert interval_offset(SumComplexSpec.make(5, [1], 1)) == 1


def test_sum_complex_face_selection():
    X = sum_complex(SumComplexSpec.make(5, [0], 1))
    # edges of sum 0 mod 5 on vertices 0..4
    assert X.top_faces == frozenset({(1, 4), (2, 3)})
    assert X.n == 5 and X.k == 1


@pytest.mark.parametrize("heads", [5, 1 << 16], ids=["blocks", "one-block"])
@pytest.mark.parametrize("residues", [[0], [1, 2, 3], [0, 2, 5], [4, 6]],
                         ids=["one", "interval", "gaps", "pair"])
@pytest.mark.parametrize("n,s", sorted({(n, s) for n in (7, 11, 13)
                                        for s in (0, 1, 3, n // 2, n - 3, n - 2)}))
def test_sum_complex_solves_for_the_last_vertex(n, s, residues, heads, monkeypatch):
    # the same faces as filtering every (s+1)-subset by its sum, for
    # interval and other residue sets, with the s-subsets in one block or
    # in blocks of 5; at s = 0 a face is its last vertex, and from
    # 2s+1 > n on the candidates themselves are filtered
    monkeypatch.setattr(constructions, "_SUM_HEADS", heads)
    spec = SumComplexSpec.make(n, residues, s)
    want = frozenset(sigma for sigma in combinations(range(n), s + 1)
                     if sum(sigma) % n in spec.residues)
    assert sum_complex(spec).top_faces == want


def test_sum_complex_enumerates_the_smaller_side():
    # at s = n-2 there are C(1009, 1007) = 508,536 s-subsets but only
    # 1009 candidate faces, so the candidates are filtered, at once
    t0 = time.perf_counter()
    X = sum_complex(SumComplexSpec.make(1009, [0], 1007))
    assert time.perf_counter() - t0 < 1.0
    # 0 + 1 + ... + 1008 = 0 mod 1009: the face of sum 0 omits vertex 0
    assert X.top_faces == frozenset({tuple(range(1, 1009))})


def test_single_residue_closed_form_values():
    # one residue: everything concentrates one degree below the top
    assert sum_complex_betti_formula(5, 0, 1, 0) == 2
    assert sum_complex_betti_formula(7, 0, 2, 1) == 10
    assert sum_complex_betti_formula(7, 0, 2, 2) == 0
    # full residue set: complete skeleton, homology at the top
    assert sum_complex_betti_formula(5, 4, 1, 1) == 6
    assert sum_complex_betti_formula(5, 4, 1, 0) == 0
    # balanced case r = s: acyclic in both degrees
    assert sum_complex_betti_formula(7, 2, 2, 1) == 0
    assert sum_complex_betti_formula(7, 2, 2, 2) == 0


def test_formula_matches_computed_homology_small():
    # spot check; the acceptance gate does the exhaustive version
    for n, res, s in ((5, [0], 1), (7, [1, 2], 2), (7, [0, 1, 2, 3], 2)):
        spec = SumComplexSpec.make(n, res, s)
        X = track(sum_complex(spec))
        r = len(spec.residues) - 1
        for i in range(-1, s + 1):
            want = sum_complex_betti_formula(n, r, s, i)
            assert betti(X, i, RATIONALS) == want
            assert betti(X, i, GF2) == want


def test_formula_rejects_composite_modulus():
    with pytest.raises(NotPrime):
        sum_complex_betti_formula(9, 1, 1, 0)


def test_matching_family():
    X = track(build_J(10, 1))
    assert len(X.top_faces) == 5
    assert betti(X, 0, GF2) == 4
    with pytest.raises(ParameterMismatch):
        build_J(7, 1)


def test_triangle_family():
    X = track(build_J(8, 2))
    assert betti(X, 1, GF2) == 5
    assert betti(X, 1, RATIONALS) == 5
    X11 = track(build_J(11, 2))
    assert betti(X11, 1, GF2) == 12
    with pytest.raises(ParameterMismatch):
        build_J(9, 2)


def test_quadruple_family():
    X6 = track(build_J(6, 3))
    assert betti(X6, 2, GF2) == 1
    X8 = track(build_J(8, 3))
    assert betti(X8, 2, GF2) == 5
    with pytest.raises(ParameterMismatch):
        build_J(7, 3)
    with pytest.raises(ParameterMismatch):
        build_J(8, 4)


def test_quadruple_family_vertex_link_collapses():
    for n in (6, 8):
        X = build_J(n, 3)
        assert collapses_to_point(link(X, (0,)))


def test_steiner_complex_on_point_line_design():
    res = steiner_complex(FANO_BLOCKS, 7, 2)
    assert res.is_valid_design
    assert res.uncovered == 0 and res.multicovered == 0
    X = track(res.complex)
    assert face_count(X, 2) == 7
    assert betti(X, 1, GF2) == 8


def test_steiner_complex_reports_defects():
    broken = steiner_complex(list(FANO_BLOCKS)[:-1], 7, 2)
    assert not broken.is_valid_design
    assert broken.uncovered == 3  # the dropped block's edges
    assert broken.multicovered == 0
    doubled = steiner_complex(list(FANO_BLOCKS) + [(0, 1, 2)], 7, 2)
    assert not doubled.is_valid_design
    assert doubled.multicovered == 3


def _family_by_sets(n: int, k: int) -> set:
    """build_J's family as sets of vertices, one per (vertex, offsets)."""
    if k == 1:
        return {frozenset((2 * i, 2 * i + 1)) for i in range(n // 2)}
    if k == 2:
        return {frozenset((i, (i + 3 * j + 1) % n, (i + 3 * j + 2) % n))
                for i in range(n) for j in range((n - 2) // 3)}
    h = n // 2
    return {frozenset((i, (i + a) % n, (i + h) % n, (i + h + b) % n))
            for i in range(h) for a in range(1, h) for b in range(1, h)}


@pytest.mark.parametrize("k,sizes", [(1, (2, 4, 10, 30)), (2, (5, 8, 11, 32)),
                                     (3, (4, 6, 8, 10, 40))])
def test_families_are_their_vertex_sets(k, sizes):
    # each family's faces, every repeat dropped, are the sets of its
    # definition, and each is a face of k+1 distinct vertices
    for n in sizes:
        want = _family_by_sets(n, k)
        assert all(len(f) == k + 1 for f in want)
        assert build_J(n, k).top_faces == {tuple(sorted(f)) for f in want}


@pytest.mark.parametrize("seed", range(6))
def test_steiner_covers_are_counted_face_by_face(seed):
    # blocks drawn with repeats and in any vertex order; the cover count
    # of each (k-1)-face, tallied one block at a time over the distinct
    # blocks, gives the uncovered and multicovered counts
    rng = SplitMix64(seed)
    for _ in range(50):
        n = 1 + rng.below(12)
        k = rng.below(n)
        blocks = []
        for _ in range(rng.below(25)):
            pool = list(range(n))
            rng.shuffle(pool)
            blocks.append(pool[:k + 1])
        blocks += blocks[:rng.below(len(blocks) + 1)]
        tops = {tuple(sorted(b)) for b in blocks}
        cover = Counter(sigma[:i] + sigma[i + 1:] for sigma in tops for i in range(k + 1))
        res = steiner_complex(blocks, n, k)
        assert res.complex.top_faces == tops
        assert (res.uncovered, res.multicovered) == \
            (comb(n, k) - len(cover), sum(c > 1 for c in cover.values()))


def test_greedy_construction_small_case():
    rep = build_X_nkl(7, 2, 0)
    track(rep.complex)
    assert rep.lam_low == 0
    assert rep.cap_ok
    assert rep.tb_after >= rep.base_tb - rep.added_total
    # saturation kills the homology one degree below each link's top;
    # faces added for one vertex stray into other links, so the links
    # overshoot the exact spanning count and are not hypertrees
    for v in range(7):
        L = link(rep.complex, (v,))
        assert betti(L, 0, GF2) == 0
    assert rep.tb_after >= 1
    assert 0 < rep.ratio <= 1


def test_greedy_construction_order_seed_changes_little():
    a = build_X_nkl(7, 2, 0)
    b = build_X_nkl(7, 2, 0, order_seed=5)
    # different scan orders may pick different faces, but both saturate
    assert a.lam_low == b.lam_low == 0
    assert a.cap_ok and b.cap_ok


def test_greedy_construction_validates_parameters():
    with pytest.raises(NotPrime):
        build_X_nkl(8, 2, 0)
    with pytest.raises(ParameterOutOfRange):
        build_X_nkl(7, 2, 1)


def test_sum_complex_betti_table_concentration():
    # homology never appears outside the two adjacent degrees
    X = track(sum_complex(SumComplexSpec.make(7, [0, 1], 2)))
    table = betti_table(X, GF2)
    for j, b in table.items():
        if j not in (1, 2):
            assert b == 0


# sha256 of repr((sorted top faces, s_sizes, tb_after)), first 16 hex
# digits, recorded from the tuple-keyed saturate loop that the relabelled
# one replaced, the lexicographic "q" and "gf3" entries from the
# candidate-scanning loop that the closed form replaced, and (23, 4, 0)
# from the closed form that split off free rows: the greedy picks must
# not move
PICKS = {
    ((11, 3, 0), "gf2", None): "9cad3b8c2ee85564",
    ((11, 3, 0), "gf2", 1): "f958f6a87c256b68",
    ((11, 3, 0), "gf2", 7): "2d4fe08564408a56",
    ((11, 3, 0), "gf2", 12345): "507faf2f4a2f75c9",
    ((11, 3, 0), "q", 3): "fb6ff893a9829ae2",
    ((13, 3, 1), "gf2", None): "f9187717edde543c",
    ((13, 3, 1), "gf2", 1): "c7234248c96bcf30",
    ((13, 3, 1), "gf2", 7): "733cf6370353fb2e",
    ((13, 3, 1), "gf2", 12345): "442607a9a0ff20e5",
    ((13, 3, 1), "q", 3): "19fffa168a21c52a",
    ((17, 3, 0), "gf2", None): "ae3bfd32db004031",
    ((17, 3, 0), "gf2", 1): "33e1e33fe87d8309",
    ((17, 3, 0), "gf2", 7): "16854c2fbe8dc4d9",
    ((17, 3, 0), "gf2", 12345): "9f09cb1604a86672",
    ((13, 4, 1), "gf2", None): "b0480c3f398e0eee",
    ((13, 4, 1), "gf2", 1): "8a3b4aea92b2ebdb",
    ((13, 4, 1), "gf2", 7): "6b9e16c664d047c1",
    ((13, 4, 1), "gf2", 12345): "6abbd5e32cf4cd09",
    ((13, 4, 1), "q", 3): "053419f8108c8e47",
    ((11, 4, 2), "gf2", None): "c54aaebf7d262b14",
    ((11, 4, 2), "gf2", 1): "819c4e80c09b36c7",
    ((11, 4, 2), "gf2", 7): "fa2b20323ee7e46a",
    ((11, 4, 2), "gf2", 12345): "169793e886f48cf9",
    ((11, 4, 2), "q", 3): "abdedab2b2afac0d",
    ((29, 3, 1), "gf2", None): "144a7fca606b9d04",
    ((29, 3, 1), "gf2", 1): "05a49772cfc7f0e7",
    ((29, 3, 1), "gf2", 7): "d7c0e3b003db6712",
    ((29, 3, 1), "gf2", 12345): "002dab67a3d2e8f3",
    ((11, 3, 0), "q", None): "9cad3b8c2ee85564",
    ((11, 3, 0), "gf3", None): "9cad3b8c2ee85564",
    ((13, 3, 1), "q", None): "f9187717edde543c",
    ((13, 3, 1), "gf3", None): "f9187717edde543c",
    ((17, 3, 0), "q", None): "ae3bfd32db004031",
    ((17, 3, 0), "gf3", None): "ae3bfd32db004031",
    ((13, 4, 1), "q", None): "b0480c3f398e0eee",
    ((13, 4, 1), "gf3", None): "b0480c3f398e0eee",
    ((11, 4, 2), "q", None): "c54aaebf7d262b14",
    ((11, 4, 2), "gf3", None): "c54aaebf7d262b14",
    ((11, 4, 0), "q", None): "b4fd95c0681ec94a",
    ((11, 4, 0), "gf3", None): "b4fd95c0681ec94a",
    ((29, 3, 1), "q", None): "144a7fca606b9d04",
    ((29, 3, 1), "gf3", None): "144a7fca606b9d04",
    ((23, 4, 0), "gf2", None): "46c92b792cdbef1e",
}


def test_greedy_picks_are_pinned():
    fields = {"gf2": GF2, "gf3": GF3, "q": RATIONALS}
    for ((n, k, ell), fld, seed), want in PICKS.items():
        rep = build_X_nkl(n, k, ell, fields[fld], order_seed=seed)
        payload = repr((sorted(rep.complex.top_faces), rep.s_sizes, rep.tb_after))
        got = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert got == want, (n, k, ell, fld, seed)


# the PICKS hashes of three shapes, lexicographic and at order seed 3,
# recorded over GF(3), GF(5) and Q from spans on the column route's core;
# and per random(seed=s, n=12, k=3, q=0.35): b_3, the supported top faces
# and the first 16 hex digits of the sha256 of their list, recorded over
# GF(3) and Q from the column route's kernel basis
COLUMN_CORE_PICKS = {(11, 3, 0): ("9cad3b8c2ee85564", "fb6ff893a9829ae2"),
                     (13, 4, 1): ("b0480c3f398e0eee", "053419f8108c8e47"),
                     (11, 4, 0): ("b4fd95c0681ec94a", "f700907220a44142")}
COLUMN_CORE_SUPPORTS = {1: (21, 150, "e9ff7efb2f6fb601"), 2: (12, 117, "8364fcb958bf0beb"),
                        3: (26, 174, "844e438784c271bb"), 4: (13, 74, "0e418a0e4f14fb34")}


def test_the_library_never_reaches_the_column_core(monkeypatch):
    # the saturation's spans and the support's tagged run reduce by the
    # fraction-free update over odd p and Q, so with the column route's
    # core and its helpers refused they still give the results the column
    # core gave, as the oracles are kept off the lift
    def refuse(*args):
        raise AssertionError("the library reached the column route's core")

    for name in ("_reduce_low", "_subtract", "_columns", "_field_value"):
        monkeypatch.setattr(linalg, name, refuse)
    with pytest.raises(AssertionError, match="column route"):
        linalg.rank_by_columns({(0, 0): 1}, 1, 1, 3)
    homology._rank_cached.cache_clear()
    for (n, k, ell), hashes in COLUMN_CORE_PICKS.items():
        for fld in (GF3, FieldSpec(5), RATIONALS):
            for seed, want in zip((None, 3), hashes):
                rep = build_X_nkl(n, k, ell, fld, order_seed=seed)
                payload = repr((sorted(rep.complex.top_faces), rep.s_sizes, rep.tb_after))
                assert hashlib.sha256(payload.encode()).hexdigest()[:16] == want, \
                    (n, k, ell, fld.name, seed)
    for seed, (b, count, want) in COLUMN_CORE_SUPPORTS.items():
        X = random_skeleton_complex(12, 3, 0.35, SplitMix64(seed))
        for fld in (GF3, RATIONALS):
            support = homology._cycle_support(X, fld.p).tolist()
            assert (betti(X, 3, fld), len(support)) == (b, count)
            assert hashlib.sha256(repr(support).encode()).hexdigest()[:16] == want
            assert support_property_holds(X, fld)


@pytest.mark.parametrize("n,k,ell", [(11, 3, 0), (13, 3, 1), (11, 4, 1)])
def test_build_X_nkl_builds_two_facet_tables(monkeypatch, n, k, ell):
    # the re-verification reads Y's and X's top faces once for the link
    # profile and once for the global rank each, and X's reads take X's
    # own top faces, not the greedy's picks
    seen = {"rank": [], "walk": []}
    rows, walk = homology._link_rows, homology._link_pairs

    def rank_spy(link, rest, n_links, g):
        # a global rank numbers the rows of the one link of the empty face
        if n_links == 1:
            seen["rank"].append(set(map(tuple, rest.tolist())))
        return rows(link, rest, n_links, g)

    def walk_spy(tops, n_, ell_):
        seen["walk"].append(set(map(tuple, tops.tolist())))
        return walk(tops, n_, ell_)

    monkeypatch.setattr(homology, "_link_rows", rank_spy)
    monkeypatch.setattr(homology, "_link_pairs", walk_spy)
    homology._rank_cached.cache_clear()
    rep = build_X_nkl(n, k, ell, GF2)
    Y = sum_complex(SumComplexSpec.make(n, range(k - ell), k))
    assert seen["rank"] == seen["walk"] == [set(Y.top_faces), set(rep.complex.top_faces)]


def _saturated_links(Y, ell, field):
    """_saturate_links unpacked: [(tau, the faces added to lk(Y, tau))]
    for every degree-ell face tau, in lexicographic order."""
    taus, owner, picked = constructions._saturate_links(Y, ell, field, None)
    at = np.searchsorted(owner, np.arange(len(taus) + 1)).tolist()
    faces = list(map(tuple, picked.tolist()))
    return [(tau, tuple(faces[lo:hi]))
            for tau, lo, hi in zip(map(tuple, taus.tolist()), at, at[1:])]


@pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=lambda f: f.name)
@pytest.mark.parametrize("n", [7, 11, 13])
def test_closed_form_picks_equal_the_scanning_greedy(n, field):
    # every degree-ell face of every rung picks what the one-candidate-
    # at-a-time lexicographic loop picks, in the same order
    for k in (3, 4):
        for ell in range(k - 1):
            Y = sum_complex(SumComplexSpec.make(n, range(k - ell), k))
            want = lexicographic_picks(Y, ell, field.p)
            got = _saturated_links(Y, ell, field)
            assert [tau for tau, _ in got] == list(want)
            for tau, picked in got:
                assert picked == want[tau], (n, k, ell, field.name, tau)


def test_closed_form_picks_equal_the_scanning_greedy_past_the_bitset_table():
    # (23, 4, 0) has links of C(22, 3) - C(21, 2) = 1330 rows once the
    # rows through 0 are dropped, more than simplexes._TABLE_BITS, so the
    # closed form's columns are packed one shift at a time
    Y = sum_complex(SumComplexSpec.make(23, range(4), 4))
    assert comb(22, 3) - comb(21, 2) > _TABLE_BITS
    assert dict(_saturated_links(Y, 0, GF2)) == lexicographic_picks(Y, 0, 2)


# every r = 1 shape of the saturation ladder: k = 3 up to n = 29 and
# k = 4 up to n = 17, at ell = k - 2
GRAPH_RUNGS = [(n, 3) for n in (5, 7, 11, 13, 17, 19, 23, 29)] + [(n, 4) for n in (7, 11, 13, 17)]


@pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=lambda f: f.name)
def test_graph_picks_equal_the_xor_closed_form(field):
    # where every link is a graph, the least vertices of the components
    # that avoid 0 are the rows that are not keys: the components' picks
    # equal the general closed form's on the same link tops, which reads
    # them through IncrementalSpan over the field, in the same order
    for n, k in GRAPH_RUNGS:
        ell, g = k - 2, n - k + 1
        Y = sum_complex(SumComplexSpec.make(n, range(k - ell), k))
        n_links = comb(n, ell + 1)
        link, rest = _relabelled_link_tops(_top_array(Y), n, ell)
        want = constructions._closed_form_picks(link, _facet_ranks(rest, _binomials(g, 1)),
                                                n_links, g, 1, field.p)
        ids, ends = _link_pairs(_top_array(Y), n, ell)
        got = constructions._graph_picks(ends + ids[:, None] * g, n_links, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), (n, k, field.name)


@pytest.mark.parametrize("n,k,ell,seed,route", [
    (13, 3, 1, None, "_graph_picks"), (13, 4, 2, None, "_graph_picks"),
    (13, 3, 0, None, "_closed_form_picks"), (13, 4, 1, None, "_closed_form_picks"),
    (13, 3, 1, 7, "_greedy_picks"), (13, 4, 2, 7, "_greedy_picks"),
    (13, 3, 0, 7, "_greedy_picks"),
])
def test_saturation_takes_the_graph_route_only_in_lexicographic_order(
        monkeypatch, n, k, ell, seed, route):
    # the components read the lexicographic picks of graph links alone;
    # a shuffled order scans its candidates at every degree
    calls = Counter()
    for name in ("_graph_picks", "_closed_form_picks", "_greedy_picks", "_components"):
        fn = getattr(constructions, name)
        monkeypatch.setattr(constructions, name,
                            lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    Y = sum_complex(SumComplexSpec.make(n, range(k - ell), k))
    constructions._saturate_links(Y, ell, GF2, seed)
    want = {route: 1, "_components": 1} if route == "_graph_picks" else {route: 1}
    assert calls == want


def test_sum_complex_refuses_candidates_over_budget():
    # the largest README ladder rung fits; one more vertex in the top
    # face of a large ground set does not, and is refused before filtering
    assert comb(101, 4) <= SUM_BUDGET
    with pytest.raises(TooLarge, match=r"C\(1009, 7\) = \d+ candidate faces"):
        sum_complex(SumComplexSpec.make(1009, [0, 1], 6))
    with pytest.raises(TooLarge, match=r"C\(1009, 6\) = \d+ candidate faces"):
        build_X_nkl(1009, 5, 0)


def _largest_link_candidates() -> tuple[int, int]:
    """(g, r+1) with the most link candidates C(g, r+1) over the rungs
    build_X_nkl admits: prime n, 0 <= ell <= k-2, k < n-1, and
    C(n, k+1) <= SUM_BUDGET."""
    best = (0, 0, 0)
    for n in range(5, 400):
        if not is_prime(n):
            continue
        for k in range(2, n - 2):
            if comb(n, k + 1) > SUM_BUDGET:
                break
            for ell in range(k - 1):
                g, s = n - ell - 1, k - ell
                best = max(best, (comb(g, s), g, s))
    return best[1], best[2]


def test_lex_ranks_are_exact_at_the_sum_budget_edge():
    # sampled candidates of the largest admitted link, ranked in int64,
    # against their index in combinations; an overflow or a NumPy 1.x
    # promotion difference shows here
    g, s = _largest_link_candidates()
    assert comb(g, s) > 10 ** 6
    rng = SplitMix64(17)
    want = sorted({0, comb(g, s) - 1} | {rng.below(comb(g, s)) for _ in range(300)})
    it, at, faces = combinations(range(g), s), 0, []
    for i in want:
        faces.append(next(islice(it, i - at, None)))
        at = i + 1
    ranks = _lex_ranks(np.array(faces, dtype=np.int64), _binomials(g, s))
    assert ranks.dtype == np.int64
    assert ranks.tolist() == want


@pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=lambda f: f.name)
def test_closed_form_picks_equal_the_scanning_greedy_on_random_complexes(field):
    # the closed form holds for any Y, not only sum complexes; random
    # link tops give the reduced columns signs and free rows that matter
    rng = SplitMix64(2024)
    for n, k, q in ((8, 3, 0.3), (9, 3, 0.5), (8, 4, 0.4), (9, 4, 0.2)):
        Y = random_skeleton_complex(n, k, q, SplitMix64(rng.next_u64()))
        for ell in range(k - 1):
            want = lexicographic_picks(Y, ell, field.p)
            got = _saturated_links(Y, ell, field)
            assert dict(got) == want, (n, k, q, ell, field.name)
