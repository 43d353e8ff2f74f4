from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hypertree_lab import linalg
from hypertree_lab.homology import _boundary_columns
from hypertree_lab.linalg import (
    IncrementalSpan,
    rank_by_columns,
    rank_by_rows,
)
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import _binomials, _facet_ranks, _top_array
from _greedy_oracle import ColumnSpan
from _oracles import boundary_matrix, kernel_basis, span_vector


def dense_rank(entries, n_rows, n_cols, p):
    """Plain dense Gaussian elimination, kept deliberately naive.

    Serves as a third opinion against both production routes.
    """
    M = [[Fraction(0)] * n_cols for _ in range(n_rows)]
    for (i, j), v in entries.items():
        M[i][j] = Fraction(v % p) if p else Fraction(v)
    rank = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(int(M[rank][col]), -1, p) if p else 1 / M[rank][col]
        M[rank] = [x * inv % p if p else x * inv for x in M[rank]]
        for r in range(n_rows):
            if r != rank and M[r][col] != 0:
                c = M[r][col]
                M[r] = [
                    (a - c * b) % p if p else a - c * b
                    for a, b in zip(M[r], M[rank])
                ]
        rank += 1
    return rank


def random_entries(rng, n_rows, n_cols, density, lo=-6, hi=6):
    out = {}
    for i in range(n_rows):
        for j in range(n_cols):
            if rng.uniform() < density:
                v = lo + rng.below(hi - lo + 1)
                if v:
                    out[(i, j)] = v
    return out


def test_rank_of_known_matrices():
    # identity, a rank-1 outer product, and a zero matrix
    eye = {(i, i): 1 for i in range(4)}
    assert rank_by_rows(eye, 4, 4) == 4
    assert rank_by_columns(eye, 4, 4) == 4
    outer = {(i, j): (i + 1) * (j + 1) for i in range(3) for j in range(5)}
    for p in (None, 2, 3, 32003):
        assert rank_by_rows(outer, 3, 5, p) == 1
        assert rank_by_columns(outer, 3, 5, p) == 1
    assert rank_by_rows({}, 3, 4) == 0
    assert rank_by_columns({}, 3, 4) == 0
    assert rank_by_rows({}, 0, 0) == 0


def test_rank_depends_on_characteristic():
    # 2x2 with determinant 2: drops rank exactly over GF(2)
    M = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 3}
    assert rank_by_rows(M, 2, 2, None) == 2
    assert rank_by_rows(M, 2, 2, 2) == 1
    assert rank_by_rows(M, 2, 2, 3) == 2
    assert rank_by_columns(M, 2, 2, 2) == 1


def test_fraction_free_route_handles_non_unit_pivots():
    # every entry even, so unit-pivot preference never fires over Q
    M = {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8,
         (2, 0): 2, (2, 1): 4}
    assert rank_by_rows(M, 3, 2, None) == 2
    assert rank_by_columns(M, 3, 2, None) == 2
    assert dense_rank(M, 3, 2, None) == 2


def test_three_routes_agree_on_random_matrices():
    rng = SplitMix64(2024)
    for trial in range(120):
        n_rows = 1 + rng.below(7)
        n_cols = 1 + rng.below(7)
        entries = random_entries(rng, n_rows, n_cols, 0.55)
        for p in (None, 2, 3, 5, 32003):
            a = rank_by_rows(entries, n_rows, n_cols, p)
            b = rank_by_columns(entries, n_rows, n_cols, p)
            c = dense_rank(entries, n_rows, n_cols, p)
            assert a == b == c, (trial, p, entries)


def test_kernel_basis_vectors_annihilate():
    rng = SplitMix64(99)
    for _ in range(40):
        n_rows = 1 + rng.below(5)
        n_cols = 1 + rng.below(6)
        entries = random_entries(rng, n_rows, n_cols, 0.5)
        for p in (None, 2, 5):
            basis = kernel_basis(entries, n_rows, n_cols, p)
            r = rank_by_rows(entries, n_rows, n_cols, p)
            assert len(basis) == n_cols - r
            for vec in basis:
                assert any(vec.values())
                for i in range(n_rows):
                    s = sum(entries.get((i, j), 0) * v for j, v in vec.items())
                    assert (s % p if p else s) == 0


def test_column_route_needs_neither_the_row_route_nor_the_xor_core(monkeypatch):
    # the oracle stays independent: with the row route, the fraction-free
    # update and the GF(2) XOR core all broken, the column route and the
    # tests' kernel basis on its core still get every answer right
    def broken(*args, **kwargs):
        raise AssertionError("the column route reached the row route's code")

    for name in ("rank_by_rows", "_fraction_free", "_tagged_kernel", "_gf2_reduce"):
        monkeypatch.setattr(linalg, name, broken)
    rng = SplitMix64(77)
    for _ in range(60):
        n_rows = 1 + rng.below(7)
        n_cols = 1 + rng.below(7)
        entries = random_entries(rng, n_rows, n_cols, 0.55)
        for p in (2, 3, None):
            r = dense_rank(entries, n_rows, n_cols, p)
            assert linalg.rank_by_columns(entries, n_rows, n_cols, p) == r
            kernel = kernel_basis(entries, n_rows, n_cols, p)
            assert len(kernel) == n_cols - r
            stacked = {(t, j): v for t, vec in enumerate(kernel) for j, v in vec.items()}
            assert dense_rank(stacked, len(kernel), n_cols, p) == len(kernel)
            for vec in kernel:
                for i in range(n_rows):
                    s = sum(entries.get((i, j), 0) * v for j, v in vec.items())
                    assert (s % p if p else s) == 0


def test_row_route_needs_neither_the_column_core_nor_the_xor_core(monkeypatch):
    # the other way round: with the column core, its helpers and the GF(2)
    # XOR core all broken, the row route still gets every rank right
    def broken(*args, **kwargs):
        raise AssertionError("the row route reached the column route's code")

    for name in ("_reduce_low", "_subtract", "_columns", "_field_value", "_gf2_reduce"):
        monkeypatch.setattr(linalg, name, broken)
    matrices = [
        # a -1 pivot over Q (the first row's first entry)
        ({(0, 0): -1, (0, 1): 1, (1, 0): 1, (1, 1): 1, (2, 0): 2, (2, 1): -3}, 3, 2),
        # no unit entry: every pivot over Q is a non-unit
        ({(0, 0): 2, (0, 1): 3, (1, 0): 4, (1, 1): 6, (2, 0): 6, (2, 1): -9,
          (2, 2): 4}, 3, 3),
        # residues 2, 3 and 4 mod 5, 2 mod 3
        ({(0, 0): 3, (0, 1): 4, (1, 0): 2, (1, 1): 4, (1, 2): 3}, 2, 3),
    ]
    rng = SplitMix64(78)
    for _ in range(60):
        n_rows = 1 + rng.below(7)
        n_cols = 1 + rng.below(7)
        matrices.append((random_entries(rng, n_rows, n_cols, 0.55), n_rows, n_cols))
    for entries, n_rows, n_cols in matrices:
        for p in (None, 2, 3, 5):
            assert linalg.rank_by_rows(entries, n_rows, n_cols, p) == \
                dense_rank(entries, n_rows, n_cols, p), (entries, p)


def test_incremental_span_tracks_rank():
    span = IncrementalSpan(None)
    assert span.add({0: 1, 2: 2})
    assert not span.add({0: 2, 2: 4})  # dependent
    assert span.add({1: 5})
    assert span.rank == 2
    assert not span.add({0: 3, 1: 5, 2: 6})  # 3 * (1, 0, 2) + (0, 5, 0)
    assert span.add({0: 1})
    assert span.rank == 3

    span2 = IncrementalSpan(2)
    assert span2.add(span_vector({0: 1, 1: 1}, 2))
    assert not span2.add(span_vector({0: 3, 1: 5}, 2))  # same vector mod 2
    assert span2.rank == 1


def test_fraction_free_span_keys_match_the_column_core():
    # the span over odd p and Q rescales each vector only by units, so it
    # keeps the keys and ranks a span on the column route's core keeps in
    # field arithmetic, non-unit and even entries included; the tagged run
    # hands back one kernel vector per line it reduces to 0, keyed there
    rng = SplitMix64(36)
    for _ in range(60):
        n_vecs, n_cols = 1 + rng.below(9), 1 + rng.below(9)
        entries = dependent_entries(rng, n_vecs, n_cols, 0.5)
        vecs = [dict() for _ in range(n_vecs)]
        for (i, j), v in entries.items():
            vecs[i][j] = v
        for p in (None, 3, 5):
            span, oracle = IncrementalSpan(p), ColumnSpan(p)
            grew = [span.add(vec) for vec in vecs]
            assert grew == [oracle.add(vec) for vec in vecs], p
            assert sorted(span.basis) == sorted(oracle.basis)
            kernel = linalg._tagged_kernel(vecs, p)
            assert [max(combo) for combo in kernel] == [t for t, g in enumerate(grew) if not g]
            for combo in kernel:
                total = {}
                for t, c in combo.items():
                    for j, v in vecs[t].items():
                        total[j] = total.get(j, 0) + c * v
                assert not any(v % p if p else v for v in total.values()), (p, combo)


def test_boundary_column_matches_boundary_matrix():
    # the columns the greedy packs from facet ranks, an int bitset over
    # GF(2) and a sparse dict otherwise, hold the boundary_matrix entries,
    # and add takes them as it takes the entries through span_vector
    X = random_skeleton_complex(8, 2, 0.5, SplitMix64(5))
    M = boundary_matrix(X, 2)
    cols = {}
    for (i, c), v in M.entries.items():
        cols.setdefault(c, {})[i] = v
    facet = _facet_ranks(_top_array(X), _binomials(X.n, 2))
    for p in (2, 3, None):
        span, oracle = IncrementalSpan(p), IncrementalSpan(p)
        packed = list(_boundary_columns(facet, M.n_rows, p))
        assert len(packed) == M.n_cols
        for c, got in enumerate(packed):
            if p == 2:
                assert got == sum(1 << i for i in cols[c])
            else:
                assert got == cols[c]
            assert span.add(got) == oracle.add(span_vector(cols[c], p))
        assert span.rank == oracle.rank == rank_by_columns(
            M.entries, M.n_rows, M.n_cols, p)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 6), st.integers(1, 6))
def test_rank_bounded_and_transpose_invariant(seed, n_rows, n_cols):
    rng = SplitMix64(seed)
    entries = random_entries(rng, n_rows, n_cols, 0.5)
    flipped = {(j, i): v for (i, j), v in entries.items()}
    for p in (None, 2):
        r = rank_by_rows(entries, n_rows, n_cols, p)
        assert 0 <= r <= min(n_rows, n_cols)
        assert r == rank_by_rows(flipped, n_cols, n_rows, p)
        assert r == rank_by_columns(entries, n_rows, n_cols, p)


def dependent_entries(rng, n_rows, n_cols, density):
    """Random integer rows, some of them integer sums of two earlier rows.

    Entries run over -6..6, so even values (which vanish mod 2) and negative
    values both occur; the summed rows make the GF(2) rank drop below
    min(n_rows, n_cols) and leave even entries where odd ones cancel.
    """
    entries = random_entries(rng, n_rows, n_cols, density)
    for i in range(2, n_rows):
        if rng.below(3) == 0:
            a, b = rng.below(i), rng.below(i)
            for j in range(n_cols):
                entries.pop((i, j), None)
                v = entries.get((a, j), 0) + entries.get((b, j), 0)
                if v:
                    entries[(i, j)] = v
    return entries


def test_gf2_bitsets_cross_word_boundaries():
    # rows meet only in columns on either side of bits 63/64 and 127/128
    edges = (0, 62, 63, 64, 65, 127, 128, 129, 199)
    entries = {}
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        entries[(i, a)] = 1
        entries[(i, b)] = -3
    last = len(edges) - 1
    for j in (0, 199):
        entries[(last, j)] = 5          # the sum of the path rows mod 2
    entries[(last + 1, 100)] = 2        # even: vanishes over GF(2)
    n_rows, n_cols = last + 2, 200
    assert rank_by_rows(entries, n_rows, n_cols, 2) == last
    assert rank_by_columns(entries, n_rows, n_cols, 2) == last
    assert rank_by_rows(entries, n_rows, n_cols, None) == last + 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 200), st.integers(1, 200),
       st.sampled_from((1.5, 4.0, 12.0)))
def test_gf2_row_route_matches_column_route(seed, n_rows, n_cols, per_row):
    rng = SplitMix64(seed)
    entries = dependent_entries(rng, n_rows, n_cols, min(0.6, per_row / n_cols))
    assert rank_by_rows(entries, n_rows, n_cols, 2) == \
        rank_by_columns(entries, n_rows, n_cols, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 160), st.integers(1, 200))
def test_gf2_incremental_span_rank_and_membership(seed, n_vecs, n_cols):
    rng = SplitMix64(seed)
    entries = dependent_entries(rng, n_vecs, n_cols, min(0.6, 6.0 / n_cols))
    vecs = [dict() for _ in range(n_vecs)]
    for (i, j), v in entries.items():
        vecs[i][j] = v
    span = IncrementalSpan(2)
    grew = sum(span.add(span_vector(vec, 2)) for vec in vecs)
    rank = rank_by_columns(entries, n_vecs, n_cols, 2)
    assert span.rank == grew == rank

    # a probe grows a copy of the span exactly when stacking it onto the
    # matrix raises the column route's rank
    probes = [vecs[rng.below(n_vecs)] for _ in range(5)]
    probes += [{j: 1 + rng.below(4) for j in range(n_cols) if rng.below(4) == 0}
               for _ in range(5)]
    for vec in probes:
        probe = IncrementalSpan(2)
        probe.basis = dict(span.basis)
        stacked = dict(entries)
        stacked.update({(n_vecs, j): v for j, v in vec.items()})
        assert probe.add(span_vector(vec, 2)) == \
            (rank_by_columns(stacked, n_vecs + 1, n_cols, 2) > rank)
    assert span.rank == rank


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**62))
def test_row_route_heap_matches_column_route_on_boundaries(seed):
    # bigger, more degenerate matrices than criterion 1 (n <= 7), so rows
    # change key many times and the heap holds many stale entries
    rng = SplitMix64(seed)
    for n in (8, 9, 10, 11):
        for k in (1, 2, 3):
            X = random_skeleton_complex(n, k, (k + 1) / n + 0.1 * rng.below(4), rng)
            for j in range(X.k + 1):
                M = boundary_matrix(X, j)
                for p in (None, 3):
                    assert rank_by_rows(M.entries, M.n_rows, M.n_cols, p) == \
                        rank_by_columns(M.entries, M.n_rows, M.n_cols, p), (n, k, j, p)
