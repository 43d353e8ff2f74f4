"""The lexicographic saturation greedy, scanned one candidate at a time.

Only the tests run it: it checks the picks that constructions reads from
the closed form.  It builds each link from Y's top faces as tuples and
adds candidates in lexicographic order until the link's top boundary map
reaches rank C(g-1, r), with none of the library's numpy walk.
"""
from itertools import combinations
from math import comb

from hypertree_lab.linalg import IncrementalSpan
from _oracles import span_vector


def boundary_column(face, rows, p):
    """Entry (-1)^i in the row of face minus its i-th vertex, as
    IncrementalSpan(p) takes it (span_vector)."""
    return span_vector({rows[face[:i] + face[i + 1:]]: -1 if i % 2 else 1
                        for i in range(len(face))}, p)


def lexicographic_picks(Y, ell: int, p):
    """tau -> the faces the greedy adds to lk(Y, tau), per degree-ell face tau."""
    n, k = Y.n, Y.k
    r = k - ell - 1
    out = {}
    for tau in combinations(range(n), ell + 1):
        ground = [v for v in range(n) if v not in tau]
        rows = {f: i for i, f in enumerate(combinations(ground, r))}
        have = {tuple(v for v in sigma if v not in tau)
                for sigma in Y.top_faces if set(tau) <= set(sigma)}
        span = IncrementalSpan(p)
        for a in sorted(have):
            span.add(boundary_column(a, rows, p))
        target = comb(len(ground) - 1, r)
        picked = []
        for a in combinations(ground, r + 1):
            if span.rank >= target:
                break
            if a not in have and span.add(boundary_column(a, rows, p)):
                picked.append(a)
        assert span.rank == target, (tau, span.rank, target)
        out[tau] = tuple(picked)
    return out
