import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypertree_lab import garland
from hypertree_lab.errors import (
    InvariantViolation,
    NotPure,
    NotSandwiched,
    ParameterOutOfRange,
    TooLarge,
)
from hypertree_lab.fields import RATIONALS
from hypertree_lab.garland import (
    GUARD_BAND,
    WeightedLaplacian,
    check_link_size,
    check_pure,
    garland_check,
    garland_weights,
    laplacian_min_eigenvalue,
    weighted_laplacian,
)
from hypertree_lab.homology import betti, betti_table
from hypertree_lab.randomness import SplitMix64
from hypertree_lab.simplexes import (
    SkeletonComplex,
    as_skeleton_complex,
    closure,
    full_skeleton,
    link,
)
from _jacobi import jacobi_eigenvalues
from _random_complexes import random_pure_complex
from _registry import track


def test_weights_on_a_single_triangle():
    X = closure([(0, 1, 2)], 3)
    w = garland_weights(X)
    assert w[()] == 6          # (d+1)! per top face
    assert w[(0,)] == 2
    assert w[(0, 1)] == 1
    assert w[(0, 1, 2)] == 1


def test_weights_count_top_cofaces():
    X = closure([(0, 1, 2), (1, 2, 3)], 4)
    w = garland_weights(X)
    assert w[()] == 12
    assert w[(1, 2)] == 2      # the shared edge
    assert w[(0, 1)] == 1
    assert w[(1,)] == 4        # 2! times two cofaces
    assert w[(0,)] == 2


def test_check_pure_rejects_stray_low_facet():
    with pytest.raises(NotPure):
        check_pure(closure([(0, 1, 2), (3, 4)], 5))
    # a skeleton complex with uncovered edges is impure too
    with pytest.raises(NotPure):
        check_pure(SkeletonComplex(5, 2, frozenset({(0, 1, 2)})))
    check_pure(full_skeleton(5, 2))


def test_jacobi_matches_numpy_on_random_symmetric_matrices():
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        A = rng.uniform(-3, 3, size=(m, m))
        A = (A + A.T) / 2
        got = jacobi_eigenvalues(A)
        want = np.linalg.eigvalsh(A)
        assert np.max(np.abs(got - want)) < 1e-8
    assert jacobi_eigenvalues(np.zeros((0, 0))).size == 0
    assert np.allclose(jacobi_eigenvalues(np.array([[3.5]])), [3.5])


def test_laplacian_is_positive_semidefinite_and_kernel_counts_cycles():
    rng = SplitMix64(5)
    for _ in range(25):
        X = random_pure_complex(6, 2, 1 + rng.below(6), rng)
        track(X)
        tb = betti_table(X, RATIONALS)
        for j in range(0, X.dim + 1):
            L = weighted_laplacian(X, j).matrix
            assert np.allclose(L, L.T)
            eigs = jacobi_eigenvalues(L)
            assert eigs[0] > -1e-9
            assert abs(laplacian_min_eigenvalue(X, j) - eigs[0]) < 1e-8
            # harmonic space has the dimension of rational cohomology
            assert int(np.sum(eigs < 1e-8)) == tb.get(j, 0)


def test_jacobi_agrees_with_library_mu_on_link_laplacians():
    rng = SplitMix64(11)
    cases = [(full_skeleton(7, 2), 0), (full_skeleton(7, 3), 0),
             (full_skeleton(7, 3), 1)]
    while len(cases) < 8:
        X = SkeletonComplex(7, 2, frozenset(
            s for s in combinations(range(7), 3) if rng.uniform() < 0.7))
        try:
            check_pure(X)
        except NotPure:
            continue
        cases.append((track(X), 0))
    for X, ell in cases:
        j_link = X.k - ell - 2
        for tau, mu in garland_check(X, ell).entries:
            L = weighted_laplacian(link(X, tau), j_link).matrix
            assert abs(mu - jacobi_eigenvalues(L)[0]) < 1e-8


def _fixed_laplacian(monkeypatch, matrix):
    def fake(X, j):
        return WeightedLaplacian(j=j, faces=(), matrix=np.array(matrix))
    monkeypatch.setattr(garland, "weighted_laplacian", fake)


def test_negative_eigenvalue_is_an_invariant_violation(monkeypatch):
    _fixed_laplacian(monkeypatch, [[1.0, 0.0], [0.0, -1e-6]])
    with pytest.raises(InvariantViolation):
        laplacian_min_eigenvalue(full_skeleton(3, 1), 0)


def test_numerically_zero_eigenvalue_is_reported_as_plus_zero(monkeypatch):
    _fixed_laplacian(monkeypatch, [[1.0, 0.0], [0.0, -1e-12]])
    mu = laplacian_min_eigenvalue(full_skeleton(3, 1), 0)
    assert mu == 0.0 and math.copysign(1.0, mu) == 1.0
    assert f"{mu:.9f}" == "0.000000000"


def test_min_eigenvalue_of_complete_graph_is_one():
    # augmented degree-0 Laplacian of a complete graph has spectral gap 1
    for m in (3, 4, 5, 6):
        mu = laplacian_min_eigenvalue(full_skeleton(m, 1), 0)
        assert abs(mu - 1.0) < 1e-9


def test_laplacian_degree_bounds():
    X = closure([(0, 1, 2)], 3)
    with pytest.raises(ParameterOutOfRange):
        weighted_laplacian(X, 3)
    with pytest.raises(ParameterOutOfRange):
        weighted_laplacian(X, -1)


def test_garland_check_on_full_two_skeleton():
    X = track(full_skeleton(6, 2))
    rep = garland_check(X, 0)
    assert rep.premise == "holds"
    assert rep.threshold == Fraction(1, 2)
    assert len(rep.entries) == 6
    assert rep.min_mu > 0.5 + GUARD_BAND
    assert rep.betti_q == 0 and rep.conclusion


def test_garland_check_degree_minus_one_uses_global_gap():
    X = full_skeleton(4, 2)
    rep = garland_check(X, -1)
    assert rep.threshold == Fraction(0, 1)
    assert len(rep.entries) == 1
    assert rep.premise == "holds"
    assert betti(X, 1, RATIONALS) == 0


def test_garland_premise_fails_on_disconnected_links():
    # vertex 0 sees two vertex-disjoint triangles, so its link is a
    # disconnected graph with an eigenvalue at zero
    cone = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6)]
    rest = [tuple(c) for c in combinations(range(1, 7), 3)]
    X = track(SkeletonComplex(7, 2, frozenset(cone + rest)))
    rep = garland_check(X, 0)
    assert rep.premise == "fails"
    assert rep.min_mu < 1e-9
    # no conclusion is asserted when the premise fails; here the Betti
    # number really is nonzero
    assert rep.betti_q == 1


def test_garland_check_validates_degree():
    X = full_skeleton(5, 2)
    with pytest.raises(ParameterOutOfRange):
        garland_check(X, 1)  # must leave two degrees of headroom
    with pytest.raises(ParameterOutOfRange):
        garland_check(X, -2)


def test_premise_implies_vanishing_on_random_pure_complexes():
    # the implication itself is asserted inside garland_check; driving
    # many random complexes through it would surface a violation
    rng = SplitMix64(77)
    holds = 0
    for _ in range(40):
        X = random_pure_complex(5 + rng.below(2), 2, 4 + rng.below(8), rng)
        try:
            sk = as_skeleton_complex(X)
            check_pure(sk)
        except (NotSandwiched, NotPure):
            continue
        track(sk)
        rep = garland_check(sk, 0)
        if rep.premise == "holds":
            holds += 1
            assert rep.betti_q == 0
    assert holds >= 1  # the sweep must exercise the implication at least once


def _link_route_cases():
    """Complete skeleta, seeded random pure complexes and one with no top face."""
    cases = [full_skeleton(n, k) for n, k in ((3, 1), (5, 2), (6, 3), (7, 2), (7, 4))]
    cases.append(SkeletonComplex(6, 2, frozenset()))
    rng = SplitMix64(23)
    while len(cases) < 24:
        n = 5 + rng.below(4)
        k = 1 + rng.below(3)
        X = SkeletonComplex(n, k, frozenset(
            s for s in combinations(range(n), k + 1) if rng.uniform() < 0.6))
        try:
            check_pure(X)
        except NotPure:
            continue
        cases.append(X)
    return cases


def test_link_laplacians_read_from_x_equal_the_link_complex_route():
    # W_lk(f) = W_X(tau union f): the matrices built from X alone are the
    # ones weighted_laplacian builds from each materialised link, bit for bit
    for X in _link_route_cases():
        weights = garland_weights(X)
        for ell in range(-1, X.k - 1):
            got = list(garland._link_laplacians(X, ell, weights))
            want = sorted(combinations(range(X.n), ell + 1))
            assert [tau for tau, _ in got] == want
            for tau, L in got:
                ref = weighted_laplacian(link(X, tau), X.k - ell - 2).matrix
                assert np.array_equal(L, ref), (X, ell, tau)


def test_garland_check_builds_no_link_and_checks_purity_once(monkeypatch):
    import hypertree_lab.simplexes as simplexes

    calls = {"link": 0, "check_pure": 0}
    real_link, real_check = simplexes.link, garland.check_pure

    def spy_link(*args):
        calls["link"] += 1
        return real_link(*args)

    def spy_check(*args):
        calls["check_pure"] += 1
        return real_check(*args)

    monkeypatch.setattr(simplexes, "link", spy_link)
    monkeypatch.setattr(garland, "check_pure", spy_check)
    assert not hasattr(garland, "link")
    for X, ell in ((full_skeleton(7, 3), 0), (full_skeleton(6, 2), -1),
                   (SkeletonComplex(6, 2, frozenset()), 0)):
        calls.update(link=0, check_pure=0)
        garland_check(X, ell)
        assert calls == {"link": 0, "check_pure": 1}


def test_link_size_is_bounded_before_any_enumeration(monkeypatch, capsys):
    from hypertree_lab import cli

    def no_enumeration(*args):
        raise AssertionError("enumerated before the size bound")

    monkeypatch.setattr(garland, "check_pure", no_enumeration)
    # every link at ell = -1 is X itself: C(40, 3) = 9880 faces in degree 2
    with pytest.raises(TooLarge, match="9880 faces in degree 2"):
        garland_check(full_skeleton(40, 3), -1)
    with pytest.raises(TooLarge, match="9880 faces in degree 2"):
        check_link_size(40, 3, -1)
    # the command refuses a random input from (n, k, ell), before the draw
    monkeypatch.setattr(cli, "random_skeleton_complex", no_enumeration)
    assert cli.main(["garland", "--in", "random(seed=1,n=40,k=3,q=1.0)",
                     "--ell", "-1"]) == 2
    assert "9880 faces in degree 2 exceeds limit" in capsys.readouterr().err


def test_impure_input_is_still_refused_by_its_one_purity_check():
    with pytest.raises(NotPure):
        garland_check(SkeletonComplex(5, 2, frozenset({(0, 1, 2)})), 0)


def test_negative_link_eigenvalue_is_an_invariant_violation(monkeypatch):
    def fake(X, ell, weights):
        for tau in combinations(range(X.n), ell + 1):
            yield tau, np.array([[1.0, 0.0], [0.0, -1e-6]])

    monkeypatch.setattr(garland, "_link_laplacians", fake)
    with pytest.raises(InvariantViolation):
        garland_check(full_skeleton(5, 2), 0)
