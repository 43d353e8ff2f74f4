import gc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from hypertree_lab import bounds, homology
from hypertree_lab.bounds import (
    BoundCertificate,
    LinkBracket,
    MonotonicityVerdict,
    TrichotomyReport,
    bound_B,
    bound_F,
    equality_trichotomy,
    lambda_pair,
    monotonicity_check,
    support_property_holds,
    verify_dual_bound,
    verify_upper_bound,
)
from hypertree_lab.constructions import FANO_BLOCKS, build_J, steiner_complex
from hypertree_lab.errors import FaceNotInComplex, InvariantViolation, ParameterOutOfRange
from hypertree_lab.fields import GF2, GF3, RATIONALS
from hypertree_lab.homology import _cycle_support, betti, link_profile
from hypertree_lab.linalg import rank_by_columns
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import (
    _top_array,
    SkeletonComplex,
    as_general,
    face_count,
    full_skeleton,
    iter_faces,
    link,
    make_simplex,
    remove_top_face,
)
from _oracles import boundary_matrix
from _registry import track


def test_bound_values_match_closed_form():
    assert bound_B(10, 1, 0) == 4
    assert bound_B(7, 2, 1) == 8
    assert bound_B(7, 2, 0) == Fraction(10, 3)
    assert bound_B(8, 3, 0) == 5
    assert bound_B(6, 3, 1) == Fraction(5, 2)
    assert bound_F(7, 2, 1) == 7
    assert bound_F(10, 1, 0) == 5
    # B + F always fills the count of possible top faces minus one vertex
    for (n, k, ell) in ((7, 2, 0), (9, 3, 1), (11, 4, 2)):
        assert bound_B(n, k, ell) + bound_F(n, k, ell) == comb(n - 1, k)


def _two_closed_forms(n, k, ell):
    """(B, F) from the two closed forms of B, each evaluated on its own
    and compared, and F as C(n-1, k) less B."""
    C = comb(k + 1, ell + 1)
    direct = Fraction(comb(n - 1, ell) * comb(n - ell - 2, k - ell), C)
    alt = comb(n - 1, k) - Fraction(comb(n, ell + 1) * comb(n - ell - 2, k - ell - 1), C)
    assert direct == alt
    return direct, comb(n - 1, k) - direct


def test_bounds_from_one_cleared_triple_equal_both_closed_forms():
    for n in range(2, 41):
        for k in range(1, n):
            for ell in range(k):
                got = bound_B(n, k, ell), bound_F(n, k, ell)
                assert got == _two_closed_forms(n, k, ell), (n, k, ell)
                assert all(type(v) is Fraction for v in got)


def test_constants_that_break_their_identity_are_an_invariant_violation(monkeypatch):
    # C(n-1, k) one too large breaks CB + CF = C * C(n-1, k) at (7, 2, 0),
    # whose other binomials are C(6, 0), C(5, 2), C(7, 1), C(5, 1), C(3, 1)
    X = random_skeleton_complex(7, 2, 0.5, SplitMix64(1))
    real = bounds.comb
    monkeypatch.setattr(bounds, "comb", lambda a, b: real(a, b) + ((a, b) == (6, 2)))
    for call in (lambda: bound_B(7, 2, 0), lambda: bound_F(7, 2, 0),
                 lambda: verify_upper_bound(X, 0, GF2),
                 lambda: equality_trichotomy(X, 0, GF2)):
        with pytest.raises(InvariantViolation, match=r"^constant mismatch: 10/3 vs 13/3$"):
            call()


@pytest.mark.parametrize("command", ["verify-bound", "trichotomy"])
def test_each_bound_command_clears_the_constants_once(command, monkeypatch):
    from hypertree_lab import cli

    calls = []
    cleared = bounds._cleared
    monkeypatch.setattr(bounds, "_cleared", lambda *a: calls.append(a) or cleared(*a))
    out = cli.run_command([command, "--in", "random(seed=1,n=8,k=3,q=0.5)", "--ell", "1"])
    assert calls == [(8, 3, 1)]
    assert (out.report.bound_value, out.report.complement_value) == \
        (bound_B(8, 3, 1), bound_F(8, 3, 1))


def test_bound_parameters_are_validated():
    with pytest.raises(ParameterOutOfRange):
        bound_B(7, 2, 2)
    with pytest.raises(ParameterOutOfRange):
        bound_B(7, 2, -1)
    with pytest.raises(ParameterOutOfRange):
        bound_B(3, 3, 0)


def test_lambda_sum_on_bare_skeleton_has_closed_form():
    # every degree-ell link of the complete (k-1)-skeleton is again a
    # complete skeleton, so the total defect is a product of binomials
    for (n, k, ell) in ((7, 2, 0), (6, 2, 0), (7, 3, 1), (6, 3, 0)):
        S = SkeletonComplex(n, k, frozenset())
        got, _ = lambda_pair(S, ell, GF2)
        want = comb(n, ell + 1) * comb(n - ell - 2, k - ell - 1)
        assert got == want


def test_lambda_sum_validates_degree():
    with pytest.raises(ParameterOutOfRange):
        lambda_pair(full_skeleton(5, 2), 3, GF2)
    with pytest.raises(ParameterOutOfRange):
        link_profile(full_skeleton(5, 2), -2, GF2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 9), st.integers(0, 4),
       st.floats(0.0, 1.0))
def test_link_profile_matches_general_links(seed, n, k, q):
    # every link through the general-complex scan, every degree j: the
    # profile's two Betti numbers are the only nonzero ones, and lambda_pair
    # holds their sums
    k = min(k, n - 1)
    S = random_skeleton_complex(n, k, q, SplitMix64(seed))
    G = as_general(S)
    for ell in range(-1, k + 1):
        r = k - ell - 1
        taus = list(iter_faces(S, ell))
        links = [link(G, tau) for tau in taus]
        for fld in (GF2, GF3, RATIONALS):
            profile = link_profile(S, ell, fld)
            assert [e.tau for e in profile] == taus
            assert [e.f_top for e in profile] == [face_count(L, r) for L in links]
            for j in range(-2, k + 2):
                want = [betti(L, j, fld) for L in links]
                got = [e.below if j == r - 1 else e.top if j == r else 0
                       for e in profile]
                assert got == want, (ell, j, fld.name)
            assert lambda_pair(S, ell, fld) == (
                sum(betti(L, r - 1, fld) for L in links),
                sum(betti(L, r, fld) for L in links))


def test_verify_upper_bound_keeps_links_out_of_the_rank_memo(monkeypatch):
    # the complex-keyed memo sees the global complex only: at most two
    # boundary ranks per complex, never a link
    memo = homology._rank_cached
    keys = []

    def spy(X, j, p):
        keys.append(type(X))
        return memo(X, j, p)

    monkeypatch.setattr(homology, "_rank_cached", spy)
    memo.cache_clear()
    X = track(random_skeleton_complex(11, 3, 0.3, SplitMix64(31)))
    for ell in range(3):
        assert verify_upper_bound(X, ell, RATIONALS).all_hold
    assert memo.cache_info().currsize <= 4
    assert keys and set(keys) == {SkeletonComplex}


def test_rank_memo_lets_verified_complexes_go():
    # the memo is keyed on the complex, so it may keep only a few of the
    # complexes a process has verified alive, not all of them
    homology._rank_cached.cache_clear()
    rng = SplitMix64(8)
    refs = []
    for _ in range(20):
        X = random_skeleton_complex(7, 2, 0.5, rng)
        assert verify_upper_bound(X, 0, GF2).all_hold
        refs.append(weakref.ref(X))
    del X
    gc.collect()
    assert sum(r() is not None for r in refs) <= 8


def test_certificate_on_bare_skeleton_is_tight():
    # with no top faces the main inequality is an equality
    S = track(SkeletonComplex(7, 2, frozenset()))
    cert = verify_upper_bound(S, 0, RATIONALS)
    assert cert.all_hold
    assert cert.lam_low == 35
    assert cert.tb_top_below == comb(6, 2)
    assert cert.f_top == 0 and cert.tb_top == 0
    C = comb(3, 1)
    assert C * cert.tb_top_below == cert.lam_low + comb(6, 0) * comb(5, 2)


def test_certificate_on_matching_family_member():
    X = track(build_J(8, 2))
    for fld in (GF2, RATIONALS):
        cert = verify_upper_bound(X, 1, fld)
        assert cert.all_hold
        assert cert.tb_top_below == 5
        assert cert.bound_value == bound_B(8, 2, 1)


def test_certificate_relations_on_random_complexes():
    rng = SplitMix64(4242)
    for _ in range(30):
        n = 5 + rng.below(3)
        k = 1 + rng.below(2)
        X = random_skeleton_complex(n, k, 0.4 + 0.5 * rng.uniform(), rng)
        track(X)
        for ell in range(0, k):
            for fld in (GF2, RATIONALS):
                assert verify_upper_bound(X, ell, fld).all_hold


def test_dual_bound_degenerates_at_minus_one():
    X = build_J(8, 2)
    v = verify_dual_bound(X, -1, GF2)
    assert v.holds
    assert v.coefficient == 1


def test_dual_bound_on_random_complexes():
    rng = SplitMix64(12)
    for _ in range(20):
        X = random_skeleton_complex(6, 2, 0.6, rng)
        track(X)
        for ell in (-1, 0, 1):
            assert verify_dual_bound(X, ell, GF2).holds
            assert verify_dual_bound(X, ell, RATIONALS).holds


def test_monotonicity_of_single_deletion():
    X = build_J(8, 2)
    sigma = sorted(X.top_faces)[0]
    v = monotonicity_check(X, sigma, 0, GF2)
    assert v.holds
    assert len(v.link_brackets) == 3  # the three vertices of sigma
    assert v.untouched_identical
    assert v.tb_before <= v.tb_after <= v.tb_before + 1


def test_monotonicity_rejects_non_top_face():
    X = build_J(8, 2)
    from itertools import combinations
    missing = next(s for s in combinations(range(8), 3)
                   if s not in X.top_faces)
    with pytest.raises(FaceNotInComplex):
        monotonicity_check(X, missing, 0, GF2)
    with pytest.raises(ParameterOutOfRange):
        monotonicity_check(X, sorted(X.top_faces)[0], 2, GF2)


def test_monotonicity_sweep_over_every_top_face():
    rng = SplitMix64(900)
    X = random_skeleton_complex(6, 2, 0.7, rng)
    track(X)
    for sigma in sorted(X.top_faces):
        for ell in (-1, 0, 1):
            assert monotonicity_check(X, sigma, ell, GF2).holds


def test_trichotomy_on_point_line_design():
    res = steiner_complex(FANO_BLOCKS, 7, 2)
    assert res.is_valid_design
    X = track(res.complex)
    rep = equality_trichotomy(X, 1, GF2)
    assert rep.applicable
    assert rep.ceiling_hit and rep.complement_hit and rep.links_are_hypertrees
    assert rep.all_equivalent
    # every one of the C(7, 2) edge links is a hypertree: both Betti numbers 0
    profile = link_profile(X, 1, GF2)
    assert sum(e.below == 0 and e.top == 0 for e in profile) == comb(7, 2)


def test_trichotomy_breaks_coherently_after_deletion():
    res = steiner_complex(FANO_BLOCKS, 7, 2)
    X = remove_top_face(res.complex, sorted(res.complex.top_faces)[0])
    track(X)
    # three edges lost their only block, so the low defect is nonzero now
    rep = equality_trichotomy(X, 1, GF2)
    assert not rep.applicable
    assert not rep.ceiling_hit
    assert not rep.complement_hit
    assert not rep.links_are_hypertrees



def _column_betti(X, j, field):
    """b_j of X from the column ranks of its boundary maps in degrees j and j+1."""
    maps = (boundary_matrix(X, j), boundary_matrix(X, j + 1))
    return maps[0].n_cols - sum(rank_by_columns(M.entries, M.n_rows, M.n_cols, field.p)
                                for M in maps)


def test_trichotomy_matches_the_column_route():
    # (a) and (b) from b_{k-1} and b_k of X, (c) and the low defect from
    # every link built by link(), each ranked by column reduction on a map
    # of tests/_oracles.py; the Fano plane at ell = 1 (every verdict True)
    # and a complete skeleton (every verdict False) have zero defect, the
    # Fano plane at ell = 0 and most draws a nonzero one
    regimes = set()

    @settings(max_examples=60, deadline=None)
    @given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(4, 8),
                     st.integers(1, 3), st.floats(0.0, 1.0)))
    @example(steiner_complex(FANO_BLOCKS, 7, 2).complex)
    @example(full_skeleton(6, 2))
    def check(S):
        G = as_general(S)
        for ell in range(S.k):
            r = S.k - ell - 1
            B, F = _two_closed_forms(S.n, S.k, ell)
            links = [link(G, tau) for tau in iter_faces(S, ell)]
            for fld in (GF2, GF3, RATIONALS):
                defects = [(_column_betti(L, r - 1, fld), _column_betti(L, r, fld))
                           for L in links]
                want = (_column_betti(S, S.k - 1, fld) == B,
                        _column_betti(S, S.k, fld) == 0 and len(S.top_faces) == F,
                        not any(low or top for low, top in defects))
                rep = equality_trichotomy(S, ell, fld)
                assert rep.lam_low == sum(low for low, _ in defects), (ell, fld.name)
                assert (rep.ceiling_hit, rep.complement_hit,
                        rep.links_are_hypertrees) == want, (ell, fld.name)
                regimes.add(rep.applicable)

    check()
    assert regimes == {True, False}


# (lam_low, lam_high, b_{k-1}, b_k, f_k) and the verdicts (a, b, c) they
# give at B = 8 and F = 7; the last four disagree at zero defect
CERTIFIED = [
    ((0, 0, 8, 0, 7), (True, True, True)),
    ((0, 2, 6, 1, 9), (False, False, False)),
    ((3, 0, 8, 0, 6), (True, False, False)),
    ((1, 1, 7, 0, 7), (False, True, False)),
    ((0, 0, 7, 0, 7), (False, True, True)),
    ((0, 0, 8, 1, 7), (True, False, True)),
    ((0, 0, 8, 0, 6), (True, False, True)),
    ((0, 4, 8, 0, 7), (True, True, False)),
]


@pytest.mark.parametrize("values,verdict", CERTIFIED)
def test_trichotomy_follows_from_the_bound_certificate_alone(monkeypatch, values,
                                                             verdict):
    # equality_trichotomy hands X to verify_upper_bound and reads nothing
    # else: the certificate decides all three verdicts, and verdicts that
    # disagree at zero defect are an invariant violation
    lam_low, lam_high, tb_below, tb_top, f_top = values
    cert = BoundCertificate(
        n=7, k=2, ell=1, field_name="gf:3", lam_low=lam_low, lam_high=lam_high,
        tb_top_below=tb_below, tb_top=tb_top, f_top=f_top,
        bound_value=Fraction(8), complement_value=Fraction(7),
        eq_upper=True, eq_dual=True, eq_step=True, eq_shift=True)
    X = object()
    calls = []
    monkeypatch.setattr(bounds, "verify_upper_bound", lambda *a: calls.append(a) or cert)
    if lam_low == 0 and len(set(verdict)) > 1:
        message = "trichotomy broke at zero defect: " + " ".join(map(str, verdict))
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            equality_trichotomy(X, 1, GF3)
    else:
        assert equality_trichotomy(X, 1, GF3) == TrichotomyReport(
            n=7, k=2, ell=1, field_name="gf:3", lam_low=lam_low,
            ceiling_hit=verdict[0], complement_hit=verdict[1],
            links_are_hypertrees=verdict[2],
            bound_value=Fraction(8), complement_value=Fraction(7))
    assert calls == [(X, 1, GF3)]


def monotonicity_by_links(S, sigma, ell, field):
    """monotonicity_check from links built one by one, with no link profile."""
    k = S.k
    s = make_simplex(sigma)
    S2 = remove_top_face(S, s)
    j = k - ell - 2
    brackets = []
    untouched = True
    lam_before = lam_after = 0
    for tau in iter_faces(S, ell):
        before = betti(link(S, tau), j, field)
        after = betti(link(S2, tau), j, field)
        lam_before += before
        lam_after += after
        if set(tau).issubset(s):
            brackets.append(LinkBracket(tau=tau, before=before, after=after))
        elif link(S, tau).faces != link(S2, tau).faces:
            untouched = False
    return MonotonicityVerdict(
        n=S.n, k=k, ell=ell, sigma=s, field_name=field.name,
        coefficient=comb(k + 1, ell + 1),
        lam_before=lam_before, lam_after=lam_after,
        tb_before=betti(S, k - 1, field), tb_after=betti(S2, k - 1, field),
        link_brackets=tuple(brackets), untouched_identical=untouched,
    )


def support_by_links(S, field, supported):
    """support_property_holds for the given top faces, one link per (sigma, tau)."""
    k = S.k
    return all(betti(link(S, tau), k - size, field) > 0
               for sigma in supported
               for size in range(k + 2) for tau in combinations(sigma, size))


def _random_skeleton(seed, n, k, q):
    return random_skeleton_complex(n, min(k, n - 1), q, SplitMix64(seed))


@settings(max_examples=40, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 8),
                 st.integers(1, 3), st.floats(0.2, 1.0)),
       st.integers(0, 2**16))
def test_monotonicity_check_matches_links_built_one_by_one(S, pick):
    if not S.top_faces:
        return
    sigma = sorted(S.top_faces)[pick % len(S.top_faces)]
    for ell in range(-1, S.k):
        for fld in (GF2, GF3, RATIONALS):
            assert monotonicity_check(S, sigma, ell, fld) == \
                monotonicity_by_links(S, sigma, ell, fld), (ell, fld.name)


@settings(max_examples=40, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 8),
                 st.integers(1, 3), st.floats(0.2, 1.0)))
def test_support_property_matches_links_built_one_by_one(S):
    # the cycle support, then every top face injected in its place: the
    # latter fails wherever a face of some top face has an acyclic link
    every = _top_array(S)
    for fld in (GF2, GF3, RATIONALS):
        supported = _cycle_support(S, fld.p)
        assert support_property_holds(S, fld) == \
            support_by_links(S, fld, map(tuple, supported.tolist()))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_cycle_support", lambda X, p: every)
            assert support_property_holds(S, fld) == \
                support_by_links(S, fld, map(tuple, every.tolist()))


def test_support_check_reads_the_top_betti_number_from_the_rank_memo(monkeypatch):
    # the link of the empty face is S, whose top array is b_k(S): once
    # betti has ranked the global top map, the support check ranks only
    # links, one walk per degree from 0 to k-1, and no global map again;
    # the links of degree k-3 and below number their rows, and those of
    # degree k-2, graphs, are labelled by their components
    S = random_skeleton_complex(12, 3, 0.4, SplitMix64(3))
    calls = Counter()
    rows, walk, components = homology._link_rows, homology._link_pairs, homology._components
    monkeypatch.setattr(homology, "_link_rows",
                        lambda *a: calls.update(["rank" if a[2] == 1 else "links"]) or rows(*a))
    monkeypatch.setattr(homology, "_link_pairs", lambda *a: calls.update(["walk"]) or walk(*a))
    monkeypatch.setattr(homology, "_components",
                        lambda *a: calls.update(["graphs"]) or components(*a))
    for fld in (GF2, GF3, RATIONALS):
        homology._rank_cached.cache_clear()
        calls.clear()
        b_k = betti(S, S.k, fld)
        assert calls.pop("rank") == 1
        holds = support_property_holds(S, fld)
        assert calls == {"walk": S.k, "links": S.k - 2, "graphs": 1}, fld.name
        # the oracle's links are ranked through the same spies
        assert b_k > 0 and holds == support_by_links(
            S, fld, map(tuple, _cycle_support(S, fld.p).tolist())), fld.name


@pytest.mark.parametrize("n,k", [(12, 3), (10, 4)])
def test_verify_bound_at_every_degree_builds_one_facet_table(monkeypatch, n, k):
    # over two fields and every ell, the global top rank, which numbers
    # the rows of the one link of the empty face, runs once per field, and
    # each link layer walks the top faces once
    calls = Counter()
    rows, walk = homology._link_rows, homology._link_pairs
    monkeypatch.setattr(homology, "_link_rows",
                        lambda *a: calls.update(["rank"] * (a[2] == 1)) or rows(*a))
    monkeypatch.setattr(homology, "_link_pairs",
                        lambda *a: calls.update(["walk"]) or walk(*a))
    homology._rank_cached.cache_clear()
    X = random_skeleton_complex(n, k, 0.4, SplitMix64(n))
    for field in (GF2, RATIONALS):
        for ell in range(k):
            assert verify_upper_bound(X, ell, field).all_hold
    assert calls == {"rank": 2, "walk": 2 * k}
