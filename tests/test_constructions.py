import hashlib
from math import comb

import pytest

from hypertree_lab.collapse import collapses_to_point
from hypertree_lab.constructions import (
    FANO_BLOCKS,
    SumComplexSpec,
    build_J,
    build_X_nkl,
    steiner_complex,
    sum_complex,
    sum_complex_betti_formula,
)
from hypertree_lab.errors import (
    NotPrime,
    ParameterMismatch,
    ParameterOutOfRange,
)
from hypertree_lab.fields import GF2, RATIONALS
from hypertree_lab.homology import betti, betti_table
from hypertree_lab.simplexes import face_count, link
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
    assert spec.r == 1


def test_interval_offset_detection():
    assert SumComplexSpec.make(7, [3, 4, 5], 1).interval_offset() == 3
    # wraps around the modulus
    assert SumComplexSpec.make(7, [6, 0, 1], 1).interval_offset() == 6
    assert SumComplexSpec.make(7, [0, 2], 1).interval_offset() is None
    assert SumComplexSpec.make(5, [1], 1).interval_offset() == 1


def test_sum_complex_face_selection():
    X = sum_complex(SumComplexSpec.make(5, [0], 1))
    # edges of sum 0 mod 5 on vertices 0..4
    assert X.top_faces == frozenset({(1, 4), (2, 3)})
    assert X.n == 5 and X.k == 1


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
        r = spec.r
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
# one replaced: the greedy picks must not move
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
}


def test_greedy_picks_are_pinned():
    fields = {"gf2": GF2, "q": RATIONALS}
    for ((n, k, ell), fld, seed), want in PICKS.items():
        rep = build_X_nkl(n, k, ell, fields[fld], order_seed=seed)
        payload = repr((sorted(rep.complex.top_faces), rep.s_sizes, rep.tb_after))
        got = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert got == want, (n, k, ell, fld, seed)
