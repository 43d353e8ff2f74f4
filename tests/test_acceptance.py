"""Release gate: twelve standalone checks, one verdict line apiece.

Each check computes its own data, appends a PASS/FAIL line that the
terminal summary prints after the run, and only then asserts.  The last
check sweeps the shared registry of every complex the suite built, so
this module is ordered to the end by the conftest hook and the sweep is
the last test in the file.
"""
import ast
import time
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import pytest

from hypertree_lab import bounds, homology
from hypertree_lab.bounds import (
    equality_trichotomy,
    monotonicity_check,
    support_property_holds,
    verify_upper_bound,
)
from hypertree_lab.constructions import (
    FANO_BLOCKS,
    SumComplexSpec,
    build_J,
    build_X_nkl,
    steiner_complex,
    sum_complex,
)
from hypertree_lab.errors import NotPure, NotSandwiched
from hypertree_lab.fields import GF2, GF3, RATIONALS, FieldSpec
from hypertree_lab.garland import GUARD_BAND, check_pure, garland_check
from hypertree_lab.homology import betti, boundary_rank
from hypertree_lab.linalg import rank_by_columns, rank_by_rows
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.simplexes import (
    as_skeleton_complex,
    full_skeleton,
    link,
    remove_top_face,
)
from _oracles import (
    boundary_matrix,
    collapses_to_point,
    is_hypertree,
    sum_complex_betti_formula,
)
from _random_complexes import random_general_complex
from _registry import ACCEPTANCE_LINES, GENERATED, track

GF32003 = FieldSpec(32003)


def record(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:2d}: {verdict} ({detail})")


def test_check_01_rank_routes_agree_across_fields():
    t0 = time.monotonic()
    rng = SplitMix64(0xC1)
    fields = (GF2, GF3, GF32003, RATIONALS)
    disagreements = 0
    for i in range(200):
        n = 4 + rng.below(4)
        if i % 3:
            X = random_general_complex(n, 1 + rng.below(3), 2 + rng.below(6), rng)
        else:
            k = 1 + rng.below(min(3, n - 2))
            X = random_skeleton_complex(n, k, 0.3 + 0.6 * rng.uniform(), rng)
        track(X)
        for j in range(0, X.dim + 2):
            M = boundary_matrix(X, j)
            for fld in fields:
                by_cols = rank_by_columns(M.entries, M.n_rows, M.n_cols, fld.p)
                if rank_by_rows(M.entries, M.n_rows, M.n_cols, fld.p) != by_cols:
                    disagreements += 1
                # the library's own route: the face-level rank and its memo
                if boundary_rank(X, j, fld) != by_cols:
                    disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60
    record(1, ok, f"200 complexes, 4 fields, row route and library route "
           f"against columns, {disagreements} disagreements, {elapsed:.1f}s")
    assert ok


def test_check_02_complete_skeleton_betti_formula():
    # the library reads complete-layer ranks from the closed form
    # C(g-1, i), so the column route checks that form independently
    bad = []
    for m in range(1, 9):
        for j in range(0, min(3, m) + 1):
            X = track(full_skeleton(m + 1, j))
            want = comb(m, j + 1)
            for fld in (GF2, RATIONALS):
                if betti(X, j, fld) != want:
                    bad.append((m, j, fld.name))
                for i in range(-1, j):
                    if betti(X, i, fld) != 0:
                        bad.append((m, j, i, fld.name))
                for i in range(0, j + 1):
                    M = boundary_matrix(X, i)
                    if rank_by_columns(M.entries, M.n_rows, M.n_cols, fld.p) != comb(m, i):
                        bad.append((m, j, i, fld.name, "column rank"))
    record(2, not bad, f"m <= 8, j <= 3, both fields, Betti numbers and "
           f"column-route ranks, {len(bad)} mismatches")
    assert not bad, bad


def test_check_03_upper_bound_inequality_random_sweep():
    rng = SplitMix64(0xC3)
    failures = 0
    for _ in range(500):
        n = 4 + rng.below(5)
        k = 1 + rng.below(min(3, n - 2))
        X = track(random_skeleton_complex(n, k, 0.3 + 0.6 * rng.uniform(), rng))
        for ell in range(k):
            for fld in (GF2, RATIONALS):
                cert = verify_upper_bound(X, ell, fld)
                if not cert.eq_upper:
                    failures += 1
    record(3, failures == 0,
           f"500 complexes, every ell < k, GF(2) and rationals, "
           f"{failures} violations")
    assert failures == 0


def test_check_04_deletion_monotonicity_and_brackets():
    rng = SplitMix64(0xC4)
    failures = 0
    pairs = 0
    while pairs < 300:
        n = 4 + rng.below(4)
        k = 1 + rng.below(min(3, n - 2))
        X = random_skeleton_complex(n, k, 0.4 + 0.5 * rng.uniform(), rng)
        if not X.top_faces:
            continue
        track(X)
        sigma = sorted(X.top_faces)[rng.below(len(X.top_faces))]
        fields = (GF2, RATIONALS) if pairs < 60 else (GF2,)
        for ell in range(-1, k):
            for fld in fields:
                if not monotonicity_check(X, sigma, ell, fld).holds:
                    failures += 1
        pairs += 1
    record(4, failures == 0,
           f"300 deletion pairs, every ell, bracket per face, "
           f"{failures} violations")
    assert failures == 0


def test_check_06_named_families_exact_values():
    t0 = time.monotonic()
    bad = []

    def expect(tag, got, want):
        if got != want:
            bad.append((tag, got, want))

    J101 = track(build_J(10, 1))
    J82 = track(build_J(8, 2))
    J112 = track(build_J(11, 2))
    J63 = track(build_J(6, 3))
    J83 = track(build_J(8, 3))
    for fld in (GF2, RATIONALS):
        expect(("J_10_1", fld.name), betti(J101, 0, fld), 4)
        expect(("J_8_2", fld.name), betti(J82, 1, fld), 5)
        expect(("J_11_2", fld.name), betti(J112, 1, fld), 12)
        expect(("J_6_3", fld.name), betti(J63, 2, fld), 1)
        expect(("J_8_3", fld.name), betti(J83, 2, fld), 5)

    for X in (J82, J112):
        for v in range(X.n):
            chk = is_hypertree(link(X, (v,)), 1, GF2)
            if not (chk.is_hypertree and chk.face_count_ok):
                bad.append(("vertex link not a tree", X.n, v))
    for X in (J63, J83):
        for v in range(X.n):
            chk = is_hypertree(link(X, (v,)), 2, GF2)
            if not (chk.is_hypertree and chk.face_count_ok):
                bad.append(("vertex link not a 2-hypertree", X.n, v))
        if not collapses_to_point(link(X, (0,))):
            bad.append(("link of 0 not collapsible", X.n))

    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120
    record(6, ok, f"5 families, links checked, {len(bad)} mismatches, "
           f"{elapsed:.1f}s")
    assert ok, bad


def test_check_07_residue_complex_closed_form_exhaustive():
    t0 = time.monotonic()
    mismatches = 0
    complexes = 0
    for n in (5, 7, 11, 13):
        for size in range(1, n):
            starts = {frozenset((t + i) % n for i in range(size))
                      for t in range(n)}
            for residues in sorted(starts, key=sorted):
                for s in (1, 2, 3):
                    if s > n - 2:
                        continue
                    spec = SumComplexSpec(n, residues, s)
                    X = track(sum_complex(spec))
                    complexes += 1
                    for i in range(-1, s + 1):
                        want = sum_complex_betti_formula(n, len(spec.residues) - 1, s, i)
                        for fld in (GF2, RATIONALS):
                            if betti(X, i, fld) != want:
                                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 600
    record(7, ok, f"{complexes} interval complexes, both fields, "
           f"{mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def test_check_08_link_betti_caps_for_interval_complexes():
    violations = 0
    for n in (7, 11, 13):
        for (k, ell) in ((2, 0), (3, 0), (3, 1)):
            residues = frozenset(range(k - ell))
            Y = track(sum_complex(SumComplexSpec(n, residues, k)))
            j = k - ell - 2
            cap = Fraction((ell + 1) * (k - ell),
                           factorial(k - ell - 1)) * n ** max(j, 0)
            for tau in combinations(range(n), ell + 1):
                if betti(link(Y, tau), j, GF2) > cap:
                    violations += 1
    record(8, violations == 0,
           f"links of every low face, 9 parameter triples, "
           f"{violations} cap violations")
    assert violations == 0


def test_check_09_greedy_saturation_certificates():
    bad = []
    ratios = []
    for n in (11, 13):
        for (k, ell) in ((2, 0), (3, 0), (3, 1)):
            rep = build_X_nkl(n, k, ell)
            track(rep.complex)
            if rep.lam_low != 0:
                bad.append((n, k, ell, "defect", rep.lam_low))
            if not rep.cap_ok:
                bad.append((n, k, ell, "cap"))
            if rep.tb_after < rep.base_tb - rep.added_total:
                bad.append((n, k, ell, "tb chain"))
            ratios.append(f"{n},{k},{ell}:{float(rep.ratio):.2f}")
    record(9, not bad, "tb/B " + " ".join(ratios) + f", {len(bad)} failures")
    assert not bad, bad


def test_check_10_extremal_trichotomy():
    cases = (
        ("fano", steiner_complex(FANO_BLOCKS, 7, 2).complex, 1),
        ("J_8_2", build_J(8, 2), 0),
        ("J_11_2", build_J(11, 2), 0),
        ("J_6_3", build_J(6, 3), 0),
        ("J_8_3", build_J(8, 3), 0),
    )
    bad = []
    for name, X, ell in cases:
        track(X)
        rep = equality_trichotomy(X, ell, GF2)
        if not (rep.applicable and rep.ceiling_hit and rep.complement_hit
                and rep.links_are_hypertrees):
            bad.append((name, "expected all three true"))
        X2 = track(remove_top_face(X, sorted(X.top_faces)[0]))
        rep2 = equality_trichotomy(X2, ell, GF2)
        if rep2.ceiling_hit or rep2.complement_hit or rep2.links_are_hypertrees:
            bad.append((name, "expected all three false after deletion"))
    record(10, not bad, f"5 families and their deletions, {len(bad)} upsets")
    assert not bad, bad


def test_check_11_spectral_premise_and_conclusion():
    bad = []
    for n in (5, 6, 7):
        X = track(full_skeleton(n, 2))
        rep = garland_check(X, 0)
        if rep.premise != "holds" or rep.min_mu <= 0.5 + GUARD_BAND:
            bad.append((n, "premise", rep.min_mu))
        if rep.betti_q != 0:
            bad.append((n, "betti", rep.betti_q))

    # random pure complexes: the implication is asserted inside the
    # checker, so any counterexample raises out of this loop
    rng = SplitMix64(0xCB)
    qs = (0.7, 0.85, 1.0)
    pure_seen = 0
    premise_held = 0
    while pure_seen < 100:
        n = 5 + rng.below(2)
        X = random_skeleton_complex(n, 2, qs[rng.below(3)], rng)
        try:
            check_pure(X)
        except NotPure:
            continue
        track(X)
        pure_seen += 1
        if garland_check(X, 0).premise == "holds":
            premise_held += 1
    ok = not bad and premise_held >= 5
    record(11, ok, f"3 complete skeleta, 100 pure complexes, "
           f"premise held {premise_held} times, {len(bad)} upsets")
    assert ok, bad


def test_check_12_cycle_support_has_homological_links():
    rng = SplitMix64(0xCC)
    kept = 0
    failures = 0
    while kept < 100:
        n = 5 + rng.below(3)
        k = 1 + rng.below(min(3, n - 2))
        X = random_skeleton_complex(n, k, 0.4 + 0.5 * rng.uniform(), rng)
        if betti(X, k, GF2) == 0:
            continue
        track(X)
        kept += 1
        if not support_property_holds(X, GF2):
            failures += 1
    record(12, failures == 0,
           f"100 complexes with top homology, {failures} support failures")
    assert failures == 0


class ColumnLinkDefects:
    """Summed link Betti numbers through rank_by_columns, built here.

    The link of a degree-ell face tau of a sandwiched complex is the
    complete (r-1)-skeleton on the g = n-ell-1 other vertices plus the
    r-faces sigma minus tau, r = k-ell-1.  This collects those r-faces from
    the top faces, builds each link's top boundary matrix here and ranks it
    by column reduction; the complete-layer ranks are cached per (g, r).
    Nothing is shared with the library's link profile or row route.
    """

    def __init__(self, p):
        self.p = p
        self.complete = {}

    def _rank(self, faces):
        rows = {}
        entries = {}
        for c, face in enumerate(faces):
            for i in range(len(face)):
                row = rows.setdefault(face[:i] + face[i + 1:], len(rows))
                entries[(row, c)] = (-1) ** i
        return rank_by_columns(entries, len(rows), len(faces), self.p)

    def _complete_rank(self, g, r):
        if (g, r) not in self.complete:
            faces = list(combinations(range(g), r + 1)) if r >= 0 else []
            self.complete[(g, r)] = self._rank(faces)
        return self.complete[(g, r)]

    def lambdas(self, S, ell):
        """(sum of b_{r-1}, sum of b_r) over the links of degree-ell faces, ell < k."""
        g, r = S.n - ell - 1, S.k - ell - 1
        tops = {}
        for sigma in S.top_faces:
            for tau in combinations(sigma, ell + 1):
                tops.setdefault(tau, []).append(
                    tuple(v for v in sigma if v not in tau))
        chains_below = comb(g, r) - self._complete_rank(g, r - 1)
        low = high = 0
        for tau in combinations(range(S.n), ell + 1):
            alphas = tops.get(tau, [])
            rk = self._rank(alphas)
            low += chains_below - rk
            high += len(alphas) - rk
        return low, high


def _check_oracles_avoid(monkeypatch, module, name, reach):
    """rank_by_columns, ColumnLinkDefects and the loops of tests/_oracles.py
    are what the library's rank route is checked against, so none of them
    reaches module.<name>: the first two and boundary_matrix run with it
    refused, while reach(X), the library's own route, does reach it, and
    the oracles' source names it nowhere (is_hypertree reads the library's
    Betti numbers by design: it checks the link complex it is handed)."""

    def refuse(*args):
        raise AssertionError(f"an oracle reached {module.__name__}.{name}")

    monkeypatch.setattr(module, name, refuse)
    X = random_skeleton_complex(9, 3, 0.5, SplitMix64(4))
    for fld in (GF2, GF3, RATIONALS):
        route = ColumnLinkDefects(fld.p)
        for ell in range(X.k):
            route.lambdas(X, ell)
        for j in range(X.k + 1):
            M = boundary_matrix(X, j)
            rank_by_columns(M.entries, M.n_rows, M.n_cols, fld.p)
    homology._rank_cached.cache_clear()
    with pytest.raises(AssertionError, match="reached"):
        reach(X)
    tree = ast.parse((Path(__file__).parent / "_oracles.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for a in node.names}
    assert name not in names


def test_the_column_oracles_never_peel(monkeypatch):
    _check_oracles_avoid(monkeypatch, homology, "_peel",
                         lambda X: boundary_rank(X, X.k, GF2))


def test_the_column_oracles_never_lift(monkeypatch):
    # the rational rank of the same X takes a lifted kernel (homology
    # docstring), which the oracles must not share
    _check_oracles_avoid(monkeypatch, homology, "_lifts",
                         lambda X: boundary_rank(X, X.k, RATIONALS))


@pytest.mark.parametrize("module,name", [(bounds, "_cycle_support"),
                                         (homology, "_dependencies")])
def test_the_column_oracles_never_read_the_cycle_support(monkeypatch, module, name):
    # the support check reads its top faces through _cycle_support, whose
    # GF(2) half shares _dependencies with the lift
    _check_oracles_avoid(monkeypatch, module, name,
                         lambda X: support_property_holds(X, GF2))


def test_check_05_step_and_shift_identities_on_registry():
    # must stay the last test in the file: the registry is complete only
    # after every other check has run.  The library reads both link
    # defects from one rank per link, which makes the shift identity hold
    # by algebra; so both defects are also recomputed by an independent
    # column route.
    t0 = time.monotonic()
    route = ColumnLinkDefects(GF2.p)
    checked = 0
    ells = 0
    failures = 0
    mismatches = 0
    for X in list(GENERATED):
        try:
            S = as_skeleton_complex(X)
        except NotSandwiched:
            continue
        if S.k < 1:
            continue
        checked += 1
        for ell in range(S.k):
            ells += 1
            cert = verify_upper_bound(S, ell, GF2)
            if not (cert.eq_step and cert.eq_shift):
                failures += 1
            if (cert.lam_low, cert.lam_high) != route.lambdas(S, ell):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and mismatches == 0 and checked >= 50
    record(5, ok, f"{checked} registry complexes, {ells} degree checks, "
           f"{failures} identity failures, {mismatches} column-route "
           f"mismatches, {elapsed:.1f}s")
    assert ok
