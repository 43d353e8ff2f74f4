"""The lexicographic saturation greedy, scanned one candidate at a time.

Only the tests run it: it checks the picks that constructions reads from
the closed form.  It builds each link from Y's top faces as tuples and
adds candidates in lexicographic order until the link's top boundary map
reaches rank C(g-1, r), with none of the library's numpy walk.  Its spans
reduce on the column route's core, linalg._reduce_low, in residues mod p
or in Fraction over Q, over every field: the library's spans run the XOR
core over GF(2) and the fraction-free update otherwise, so the two share
no elimination.
"""
from itertools import combinations
from math import comb

from hypertree_lab import linalg


class ColumnSpan:
    """A row space grown one sparse dict at a time on linalg._reduce_low."""

    def __init__(self, p):
        self.p = p
        self.basis = {}

    @property
    def rank(self):
        return len(self.basis)

    def add(self, vec) -> bool:
        """Try to add vec to the span; True iff the rank grew."""
        vec = {j: x for j, v in vec.items() if (x := linalg._field_value(v, self.p))}
        low = linalg._reduce_low(vec, self.basis, self.p)
        if low is not None:
            self.basis[low] = vec
        return low is not None


def boundary_column(face, rows):
    """Entry (-1)^i in the row of face minus its i-th vertex."""
    return {rows[face[:i] + face[i + 1:]]: -1 if i % 2 else 1 for i in range(len(face))}


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
        span = ColumnSpan(p)
        for a in sorted(have):
            span.add(boundary_column(a, rows))
        target = comb(len(ground) - 1, r)
        picked = []
        for a in combinations(ground, r + 1):
            if span.rank >= target:
                break
            if a not in have and span.add(boundary_column(a, rows)):
                picked.append(a)
        assert span.rank == target, (tau, span.rank, target)
        out[tau] = tuple(picked)
    return out
