"""Correctness checks for the benchmark's outputs, run outside the timed region.

None of these reuse the library's row-elimination route or its closed-form
constants.  Ranks come from ``linalg.rank_by_columns`` (left-to-right column
reduction, which shares no code with the row route) on boundary matrices
built here; links are built here from the top faces; binomials and bounds
are evaluated here with ``math.comb``.  Each check returns a list of
problems, empty when the output is correct.
"""
from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

MASK = (1 << 64) - 1
LARGE_PRIME = 2_147_483_647


def splitmix_faces(seed: int, n: int, k: int, q: float) -> list[tuple[int, ...]]:
    """Top faces of ``random(seed=S,n=N,k=K,q=Q)``, drawn by this module.

    SplitMix64 as published (Steele, Lea, Flood 2014); each k-face in
    lexicographic order is kept when the next draw, as a fraction of 2^64,
    is below q.
    """
    state = seed & MASK
    tops = []
    for sigma in combinations(range(n), k + 1):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        if (z ^ (z >> 31)) / 2.0 ** 64 < q:
            tops.append(sigma)
    return tops


class ColumnRoute:
    """Betti numbers of sandwiched complexes through ``rank_by_columns``.

    A sandwiched complex here is the complete (r-1)-skeleton on vertices
    0..g-1 plus a set of r-faces; its only possibly nonzero reduced Betti
    numbers are b_{r-1} and b_r.  Ranks of boundary maps on complete layers
    are computed once per (g, r, p).
    """

    def __init__(self, rank_by_columns):
        self.rank = rank_by_columns
        self._full: dict[tuple[int, int, object], int] = {}

    def _boundary_rank(self, rows, cols, p, cap=None) -> int:
        """Rank over GF(p), or over Q when p is None.

        Over Q, the rank mod a large prime is a lower bound; when it already
        reaches ``cap``, an upper bound on the rank, it is the Q rank, and
        the slower Fraction elimination is skipped.
        """
        row_index = {f: i for i, f in enumerate(rows)}
        entries = {}
        for c, sigma in enumerate(cols):
            for i in range(len(sigma)):
                entries[(row_index[sigma[:i] + sigma[i + 1:]], c)] = -1 if i % 2 else 1
        if p is None and cap is not None:
            if self.rank(entries, len(rows), len(cols), LARGE_PRIME) == cap:
                return cap
        return self.rank(entries, len(rows), len(cols), p)

    def _full_rank(self, g: int, size: int, p) -> int:
        """Rank of the boundary of all (size-1)-dimensional faces on g vertices."""
        key = (g, size, p)
        if key not in self._full:
            if size == 0:
                self._full[key] = 0
            else:
                self._full[key] = self._boundary_rank(
                    list(combinations(range(g), size - 1)),
                    list(combinations(range(g), size)), p)
        return self._full[key]

    def betti_pair(self, g: int, r: int, tops, p) -> tuple[int, int]:
        """(b_{r-1}, b_r) of the complete (r-1)-skeleton on g vertices plus tops."""
        tops = sorted(tops)
        rows = list(combinations(range(g), r))
        cycles = len(rows) - self._full_rank(g, r, p)
        # the image of the top map lies in the cycles below it
        rank_top = self._boundary_rank(rows, tops, p, min(len(tops), cycles)) if tops else 0
        return cycles - rank_top, len(tops) - rank_top

    def link_betti(self, n: int, k: int, ell: int, tops, p) -> dict[tuple, tuple[int, int]]:
        """(b_{r-1}, b_r) of the link of every ell-face, r = k - ell - 1.

        The link of tau is relabelled onto 0..n-ell-2 and built from the top
        faces through tau; its lower skeleton is complete by construction.
        """
        through: dict[tuple, list[tuple]] = defaultdict(list)
        for sigma in tops:
            for tau in combinations(sigma, ell + 1):
                through[tau].append(tuple(v for v in sigma if v not in tau))
        out = {}
        for tau in combinations(range(n), ell + 1):
            rest = [v for v in range(n) if v not in tau]
            pos = {v: i for i, v in enumerate(rest)}
            link_tops = [tuple(pos[v] for v in a) for a in through.get(tau, ())]
            out[tau] = self.betti_pair(n - ell - 1, k - ell - 1, link_tops, p)
        return out


def upper_bound_ceiling(n: int, k: int, ell: int) -> Fraction:
    """B = C(n-1, ell) C(n-ell-2, k-ell) / C(k+1, ell+1)."""
    return Fraction(comb(n - 1, ell) * comb(n - ell - 2, k - ell), comb(k + 1, ell + 1))


class BoundSweepChecker:
    """Checks one ``verify-bound`` JSON report against the column route."""

    def __init__(self, route: ColumnRoute):
        self.route = route
        self._global: dict[tuple, tuple[int, int]] = {}
        self._tops: dict[tuple, list] = {}

    def check(self, seed: int, n: int, k: int, ell: int, q: float,
              payload: bytes) -> list[str]:
        problems = []
        rep = json.loads(payload)
        key = (seed, n, k)
        if key not in self._tops:
            self._tops[key] = splitmix_faces(seed, n, k, q)
            self._global[key] = self.route.betti_pair(n, k, self._tops[key], None)
        tops = self._tops[key]
        b_below, b_top = self._global[key]
        links = self.route.link_betti(n, k, ell, tops, None).values()
        lam_low = sum(b for b, _ in links)
        lam_high = sum(b for _, b in links)

        f_vec = [comb(n, i + 1) for i in range(k)] + ([len(tops)] if tops else [])
        expect = {
            "command": "verify-bound", "n": n, "k": k, "ell": ell, "field": "q",
            "f_vector": f_vec,
            "betti": {str(k - 1): b_below, str(k): b_top},
            "lambda_km2": lam_low, "lambda_km1": lam_high,
            "eq1_holds": True, "eq5_holds": True, "eq6_holds": True,
            "eq8_holds": True,
        }
        for name, want in expect.items():
            if rep.get(name) != want:
                problems.append(f"{name}: report {rep.get(name)!r}, column route {want!r}")
        B = upper_bound_ceiling(n, k, ell)
        got_B = rep.get("B") or {}
        if Fraction(int(got_B.get("num", 0)), int(got_B.get("den", 1))) != B:
            problems.append(f"B: report {got_B}, expected {B}")
        C = comb(k + 1, ell + 1)
        if not C * b_below <= lam_low + comb(n - 1, ell) * comb(n - ell - 2, k - ell):
            problems.append("upper bound violated by column-route values")
        if b_top != b_below + len(tops) - comb(n - 1, k):
            problems.append("step identity violated by column-route values")
        return problems


def check_saturation(route: ColumnRoute, n: int, k: int, ell: int, report) -> list[str]:
    """Base Betti closed form, zero low link defect, and b_{k-1} <= B over GF(2)."""
    problems = []
    base = Fraction((ell + 1) * comb(n - 1, k), k + 1)
    if base.denominator != 1 or report.base_tb != base:
        problems.append(f"base b_{k-1}={report.base_tb}, interval closed form {base}")
    tops = sorted(report.complex.top_faces)
    if report.complex.n != n or report.complex.k != k:
        problems.append("complex has the wrong shape")
    lam = sum(b for b, _ in route.link_betti(n, k, ell, tops, 2).values())
    if lam != 0 or report.lam_low != 0:
        problems.append(f"low link defect {lam} (report {report.lam_low}), want 0")
    b_below, _ = route.betti_pair(n, k, tops, 2)
    if b_below != report.tb_after:
        problems.append(f"b_{k-1}: report {report.tb_after}, column route {b_below}")
    if not b_below <= upper_bound_ceiling(n, k, ell):
        problems.append(f"b_{k-1}={b_below} exceeds B")
    return problems


def is_pure_sandwich(n: int, k: int, tops) -> bool:
    """Every (k-1)-face lies in a top face, so every face does."""
    covered = {sigma[:i] + sigma[i + 1:] for sigma in tops for i in range(k + 1)}
    return len(covered) == comb(n, k)


def check_garland(route: ColumnRoute, link, weighted_laplacian, X, ell: int,
                  complete: bool, report) -> list[str]:
    """Each link's smallest eigenvalue against eigvalsh, the verdict, and b_{k-1}.

    The library's ``link`` and ``weighted_laplacian`` rebuild each link
    Laplacian, so eigvalsh sees the same matrix the checked solver saw.
    """
    problems = []
    k = X.k
    thr = Fraction(ell + 1, k)
    mus = []
    for tau, mu in report.entries:
        L = weighted_laplacian(link(X, tau), k - ell - 2).matrix
        ref = float(np.linalg.eigvalsh(L)[0]) if L.size else float("inf")
        mus.append(ref)
        if abs(mu - ref) > 1e-8:
            problems.append(f"mu{tau}={mu!r}, eigvalsh gives {ref!r}")
    if len(report.entries) != comb(X.n, ell + 1):
        problems.append(f"{len(report.entries)} links, expected {comb(X.n, ell + 1)}")
    low = min(mus, default=float("inf"))
    clear = abs(low - float(thr)) > 1e-6
    want = "holds" if low > thr else "fails"
    if complete and report.premise != "holds":
        problems.append(f"complete skeleton premise {report.premise}")
    elif clear and report.premise != want:
        problems.append(f"premise {report.premise}, eigvalsh minimum {low} vs {thr}")
    b_below, _ = route.betti_pair(X.n, k, sorted(X.top_faces), None)
    if complete and b_below != 0:
        problems.append(f"complete skeleton has b_{k-1}={b_below} over Q")
    if report.betti_q != b_below:
        problems.append(f"betti_q: report {report.betti_q}, column route {b_below}")
    return problems
