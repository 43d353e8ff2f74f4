import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypertree_lab import garland, simplexes
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
    weighted_laplacian,
)
from hypertree_lab.homology import betti, betti_table
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import (
    SkeletonComplex,
    as_skeleton_complex,
    closure,
    f_vector,
    full_skeleton,
    link,
)
from _jacobi import jacobi_eigenvalues
from _oracles import laplacian_min_eigenvalue
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
    """Complete skeleta, seeded random pure complexes and the edge cases.

    The edge cases: no top face at k = 2 and at k = 1 (links at ell = -1
    only), and a k = 1 graph.
    """
    cases = [full_skeleton(n, k) for n, k in ((3, 1), (5, 2), (6, 3), (7, 2), (7, 4))]
    cases += [SkeletonComplex(6, 2, frozenset()), SkeletonComplex(4, 1, frozenset()),
              SkeletonComplex(5, 1, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))]
    rng = SplitMix64(23)
    while len(cases) < 26:
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


def _link_stack(X, ell):
    """Every link Laplacian of X at ell, in one array, links in tau order."""
    return np.concatenate(list(garland._link_laplacians(X, ell)))


def test_link_laplacians_read_from_x_equal_the_link_complex_route():
    # each link weighs itself from its own top faces (balancing identity)
    # and scatters its Gram matrix from facet ranks; the oracle weighs the
    # materialised link by garland_weights and multiplies out U W U^T, and
    # the two matrices agree bit for bit
    for X in _link_route_cases():
        for ell in range(-1, X.k - 1):
            got = _link_stack(X, ell)
            taus = list(combinations(range(X.n), ell + 1))
            assert len(got) == len(taus)
            for tau, L in zip(taus, got):
                ref = weighted_laplacian(link(X, tau), X.k - ell - 2).matrix
                assert np.array_equal(L, ref), (X, ell, tau)
        # ell = -1: one link, X itself
        assert np.array_equal(_link_stack(X, -1), [weighted_laplacian(X, X.k - 1).matrix])


def test_link_of_a_face_under_no_top_face_weighs_its_own_faces():
    # with no top face at all, every link, X itself at ell = -1 included,
    # is a complete skeleton with no top face: its (r-1)-faces are its
    # tops and weigh 1 each.  Where X has top faces but vertex 0 is under
    # none, the links of tau through 0 are such skeleta too, but the
    # other links have faces of weight 0, whose matrices would divide by
    # 0: X is impure, the link step returns no stack, and garland_check
    # names the face
    for n, k in ((6, 2), (7, 3), (6, 3)):
        X = SkeletonComplex(n, k, frozenset(combinations(range(1, n), k + 1)))
        for ell in range(-1, k - 1):
            assert garland._link_laplacians(X, ell) is None
            with pytest.raises(NotPure, match=r"^face \(0,\) is not under"):
                garland_check(X, ell)
    for n, k in ((6, 2), (6, 3), (4, 1)):
        X = SkeletonComplex(n, k, frozenset())
        for ell in range(-1, k - 1):
            links = _link_stack(X, ell)
            assert len(links) == math.comb(n, ell + 1)
            for tau, L in zip(combinations(range(n), ell + 1), links):
                lk = link(X, tau)
                assert lk.dim == k - ell - 2
                ref = weighted_laplacian(lk, k - ell - 2).matrix
                assert np.array_equal(L, ref), (X, ell, tau)


def test_link_stacks_do_not_depend_on_the_block_size(monkeypatch):
    # a link's matrix is assembled entry by entry, so the block it lands
    # in, first, last or alone, changes neither its matrix nor its mu
    cases = [(X, ell) for X in _link_route_cases() for ell in range(-1, X.k - 1)]
    want = [(_link_stack(X, ell), garland_check(X, ell)) for X, ell in cases]
    for (X, ell), (stack, report) in zip(cases, want):
        m = stack.shape[1]
        for block in (1, 7, 7 * m * m):
            monkeypatch.setattr(garland, "_BLOCK_DOUBLES", block)
            assert np.array_equal(_link_stack(X, ell), stack), (X, ell, block)
            assert garland_check(X, ell) == report, (X, ell, block)
        monkeypatch.undo()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14), st.data())
def test_lex_rank_is_the_index_in_combinations(g, data):
    r = data.draw(st.integers(0, g))
    faces = list(combinations(range(g), r))
    ranks = simplexes._lex_ranks(np.array(faces, dtype=np.int64).reshape(len(faces), r),
                                 simplexes._binomials(g, r))
    assert ranks.tolist() == list(range(len(faces)))


def test_lex_ranks_hold_where_middle_binomials_overflow_int64():
    # C(70, 35) > 2^63, but ranks among the 69-subsets of 70 read no
    # binomial above C(70, 69) = 70: dropping position i of 0..69 gives
    # the subset of rank 69 - i
    top = np.arange(70, dtype=np.int64)[None]
    assert simplexes._facet_ranks(top, simplexes._binomials(70, 69)).tolist() == \
        [list(range(69, -1, -1))]


def test_garland_check_builds_no_link_and_checks_purity_once(monkeypatch):
    # purity is read from the link step's counts: check_pure, which walks
    # every face, runs only on a non-pure input, to name its first
    # uncovered face, and never on a pure one or one with no top faces
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
        assert calls == {"link": 0, "check_pure": 0}
    for X, ell in ((SkeletonComplex(5, 2, frozenset({(0, 1, 2)})), 0),
                   (SkeletonComplex(7, 3, [t for t in combinations(range(7), 4)
                                           if t[:3] != (0, 1, 2)]), 1)):
        calls.update(link=0, check_pure=0)
        with pytest.raises(NotPure):
            garland_check(X, ell)
        assert calls == {"link": 0, "check_pure": 1}


def test_link_size_is_bounded_before_any_enumeration(monkeypatch, capsys):
    from hypertree_lab import cli

    def no_enumeration(*args):
        raise AssertionError("enumerated before the size bound")

    monkeypatch.setattr(garland, "_link_laplacians", no_enumeration)
    monkeypatch.setattr(garland, "_top_array", no_enumeration)
    # every link at ell = -1 is X itself: C(40, 3) = 9880 faces in degree 2
    with pytest.raises(TooLarge, match="9880 faces in degree 2"):
        garland_check(full_skeleton(40, 3), -1)
    with pytest.raises(TooLarge, match="9880 faces in degree 2"):
        check_link_size(40, 3, -1)
    # 193 rows per Laplacian, but a count table of C(200, 8) C(8, 7) entries
    with pytest.raises(TooLarge, match=f"= {math.comb(200, 8) * 8} link face counts"):
        check_link_size(200, 8, 6)
    # the command refuses a random input from (n, k, ell), before the draw
    monkeypatch.setattr(cli, "random_skeleton_complex", no_enumeration)
    assert cli.main(["garland", "--in", "random(seed=1,n=40,k=3,q=1.0)",
                     "--ell", "-1"]) == 2
    assert "9880 faces in degree 2 exceeds limit" in capsys.readouterr().err


def test_impure_input_is_still_refused_by_its_one_purity_check():
    with pytest.raises(NotPure):
        garland_check(SkeletonComplex(5, 2, frozenset({(0, 1, 2)})), 0)


def _random_skeleton(seed, n, k, q):
    k = min(k, n - 1)
    return random_skeleton_complex(n, k, q, SplitMix64(seed))


@settings(max_examples=60, deadline=None)
@given(st.builds(_random_skeleton, st.integers(0, 2**62), st.integers(2, 9),
                 st.integers(1, 3), st.floats(0.0, 1.0)))
@example(random_skeleton_complex(8, 2, 0.15, SplitMix64(1)))  # names vertex (4,)
@example(SkeletonComplex(6, 2, frozenset()))                  # no top faces
@example(SkeletonComplex(5, 1, frozenset()))
@example(SkeletonComplex(5, 1, frozenset({(0, 1), (2, 3)})))  # k = 1, vertex 4 bare
def test_garland_check_refuses_impure_input_with_check_pures_message(X):
    # the purity check counts (k-1)-faces; on a shortfall it must still
    # raise check_pure's own message, which names the first face under no
    # top face in all_faces order, however low its degree
    try:
        check_pure(X)
        want = None
    except NotPure as e:
        want = str(e)
    for ell in range(-1, X.k - 1):
        try:
            garland_check(X, ell)
            got = None
        except NotPure as e:
            got = str(e)
        assert got == want, (X, ell)


def test_first_bad_face_can_be_a_vertex():
    X = random_skeleton_complex(8, 2, 0.15, SplitMix64(1))
    with pytest.raises(NotPure, match=r"^face \(4,\) is not under"):
        garland_check(X, 0)


# a vertex under no top face, exactly one uncovered (k-1)-face, and no
# top faces at all, which is pure: (X, check_pure's message or None)
_PURITY_CASES = (
    (SkeletonComplex(5, 2, [(0, 1, 2)]), "face (3,) is not under any top-dimensional face"),
    (SkeletonComplex(7, 3, [t for t in combinations(range(7), 4) if t[:3] != (0, 1, 2)]),
     "face (0, 1, 2) is not under any top-dimensional face"),
    (SkeletonComplex(6, 2, []), None),
)


@pytest.mark.parametrize("X,message", _PURITY_CASES)
def test_purity_is_decided_alike_by_the_library_the_file_command_and_the_sweep(
        X, message, tmp_path, monkeypatch, capsys):
    # at every degree: NotPure with check_pure's message from
    # garland_check, exit 2 with that message from garland --in, and a
    # sweep row redrawn past the impure draw
    from hypertree_lab import cli, sweep
    from hypertree_lab.complex_io import write_complex_file

    path = str(tmp_path / "x.cplx")
    write_complex_file(path, X)
    pure = full_skeleton(X.n, X.k)
    for ell in range(-1, X.k - 1):
        if message is None:
            assert garland_check(X, ell).n == X.n
        else:
            with pytest.raises(NotPure) as e:
                garland_check(X, ell)
            assert str(e.value) == message
        capsys.readouterr()
        code = cli.main(["garland", "--in", path, "--ell", str(ell)])
        err = capsys.readouterr().err
        assert (code, err) == ((0, "") if message is None else (2, f"error: {message}\n"))
        draws = [X, pure]
        monkeypatch.setattr(sweep, "random_skeleton_complex", lambda *args: draws.pop(0))
        outcome = cli.run_command(["sweep", "--check", "garland", "--count", "1",
                                   "--n", str(X.n), "--k", str(X.k), "--q", "0.5",
                                   "--ell", str(ell)])
        assert outcome.exit_code == 0 and len(outcome.report) == 1
        assert len(draws) == (1 if message is None else 0)
        assert outcome.report[0].f_vector == f_vector(X if message is None else pure)


def test_negative_link_eigenvalue_is_an_invariant_violation(monkeypatch):
    def fake(X, ell):
        good, bad = [[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, -1e-6]]
        yield np.array([good] * (math.comb(X.n, ell + 1) - 1) + [bad])

    monkeypatch.setattr(garland, "_link_laplacians", fake)
    with pytest.raises(InvariantViolation, match="not positive semidefinite: -1e-06"):
        garland_check(full_skeleton(5, 2), 0)


def test_numerically_zero_link_eigenvalues_are_plus_zero(monkeypatch):
    stack = np.array([[[1.0, 0.0], [0.0, -0.0]], [[1.0, 0.0], [0.0, -1e-12]]])
    mus = garland._min_eigenvalues(stack)
    assert [math.copysign(1.0, mu) for mu in mus] == [1.0, 1.0]

    def fake(X, ell):
        yield stack[np.arange(math.comb(X.n, ell + 1)) % 2]

    monkeypatch.setattr(garland, "_link_laplacians", fake)
    rep = garland_check(full_skeleton(5, 2), 0)
    assert [f"{mu:.9f}" for _, mu in rep.entries] == ["0.000000000"] * 5
    assert f"{rep.min_mu:.9f}" == "0.000000000"


def test_complete_skeleton_builds_no_facet_id_table(monkeypatch):
    # purity is counted from the top-face array and a complete skeleton's
    # Betti number from complete_rank; only the global Q rank of a dense
    # draw numbers the rows of a boundary map
    from hypertree_lab import homology

    calls = []
    rows = homology._link_rows
    monkeypatch.setattr(homology, "_link_rows",
                        lambda *a: calls.append(a[2]) or rows(*a))
    homology._rank_cached.cache_clear()
    X = full_skeleton(8, 3)
    for ell in (-1, 0, 1):
        garland_check(X, ell)
    assert calls == []
    rng = SplitMix64(3)
    while True:
        X = random_skeleton_complex(8, 3, 0.8, rng)
        try:
            check_pure(X)
            break
        except NotPure:
            pass
    assert len(X.top_faces) < math.comb(8, 4)
    garland_check(X, 0)
    assert calls == [1]  # one link, the empty face's
