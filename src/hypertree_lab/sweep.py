"""Seeded randomized sweeps: one check run on many random complexes.

run_sweep returns count rows, each the RunReport the command line
prints.  Row i draws random_skeleton_complex(n, k, q) for
(n, k, q) = (ns[i % len(ns)], ks[i % len(ks)], qs[i % len(qs)]), from
SplitMix64(s) with s = root.next_u64(), root = SplitMix64(seed); the
row reports s as its seed, so any row can be drawn again on its own.  A
draw that makes no row is redrawn in its place, with the next s:

- mono: a draw with no top face, which has nothing to delete;
- garland: an impure draw.  The link step's count table decides purity
  (garland module docstring), and no face is named, as no message is
  printed.

A sweep may take 1000 draws per row asked for, 1000 count in all; past
that it is refused.

Every triple the rows reach is checked before the first draw: the
draw's own check of q and of the candidate count, then the check's
degree check of (n, k, ell) from CHECKS.  mono also refuses a triple
whose draw holds a top face with chance below 1/1000, where a row
would take more draws than its allowance on average.  Each of the
C(n, k+1) candidates is kept with chance q, independently, so a draw
holds a top face with chance 1 - (1 - q)^C(n, k+1), computed as
-expm1(C(n, k+1) log1p(-q)) so that it stays accurate as q nears 0.
q = 1 keeps every candidate, chance 1, past log1p's domain; k >= n
with q > 0 is left to the draw, which refuses that dimension.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Callable, Optional, Sequence

from .bounds import (
    check_bound_degree,
    check_deletion_degree,
    check_dual_degree,
    monotonicity_check,
    support_property_holds,
    verify_dual_bound,
    verify_upper_bound,
)
from .errors import ParameterOutOfRange
from .fields import RATIONALS, FieldSpec
from .garland import _garland_if_pure, check_link_size
from .homology import betti
from .randomness import SplitMix64, check_draw, random_skeleton_complex
from .reports import RunReport
from .simplexes import SkeletonComplex, _top_array, f_vector, face_count

DegreeCheck = Callable[[int, int, int], None]

# every check a sweep runs, with the library's check of (n, k, ell)
# behind each one that takes a degree
CHECKS: dict[str, Optional[DegreeCheck]] = {
    "bound": check_bound_degree,
    "dual": check_dual_degree,
    "mono": check_deletion_degree,
    "garland": check_link_size,
    "support": None,
}


def run_sweep(check: str, count: int, fld: FieldSpec, ns: Sequence[int],
              ks: Sequence[int], qs: Sequence[float], ell: int, seed: int,
              timing: bool = False) -> list[RunReport]:
    """count rows of check over the triples of ns, ks and qs (module
    docstring); with timing, each row carries the time of its own draw
    and check."""
    if count < 1:
        raise ParameterOutOfRange(f"sweep count {count} must be at least 1")
    degree_check = CHECKS[check]
    for i in range(min(count, len(ns) * len(ks) * len(qs))):
        n, k, q = ns[i % len(ns)], ks[i % len(ks)], qs[i % len(qs)]
        check_draw(n, k, q)
        if degree_check is not None:
            degree_check(n, k, ell)
        if check == "mono" and (k < n or q == 0):
            chance = 1.0 if q == 1 else -math.expm1(math.comb(n, k + 1) * math.log1p(-q))
            if chance * 1000 < 1:
                raise ParameterOutOfRange(
                    f"sweep --check mono: n={n} k={k} q={q} draws " + (
                        "no top face to delete" if chance == 0 else
                        f"a top face to delete with chance {chance:.4g}, below 1/1000"))
    root = SplitMix64(seed)
    rows: list[RunReport] = []
    for _ in range(1000 * count):
        i = len(rows)
        t0 = time.perf_counter()
        seed_i = root.next_u64()
        X = random_skeleton_complex(ns[i % len(ns)], ks[i % len(ks)], qs[i % len(qs)],
                                    SplitMix64(seed_i))
        row = _row(check, ell, fld, X, seed_i)
        if row is not None:
            rows.append(replace(row, elapsed_ms=(time.perf_counter() - t0) * 1000.0)
                        if timing else row)
            if len(rows) == count:
                return rows
    raise ParameterOutOfRange("sweep could not generate enough admissible complexes")


def _bound_fields(cert) -> dict:
    """Report fields of an upper-bound certificate: verify-bound, bound rows."""
    return dict(
        betti={cert.k - 1: cert.tb_top_below, cert.k: cert.tb_top},
        lam_low=cert.lam_low, lam_high=cert.lam_high,
        bound_value=cert.bound_value, complement_value=cert.complement_value,
        eq_upper=cert.eq_upper, eq_dual=cert.eq_dual,
        eq_step=cert.eq_step, eq_shift=cert.eq_shift,
        failed=not cert.all_hold)


def _dual_fields(v) -> dict:
    """Report fields of a dual-bound check: verify-dual, dual sweep rows."""
    return dict(betti={v.k: v.tb_top}, lam_high=v.lam_high, eq_dual=v.holds,
                failed=not v.holds)


def _row(check: str, ell: int, fld: FieldSpec, X: SkeletonComplex,
         seed: int) -> Optional[RunReport]:
    """The row of check on the draw X, or None for a draw to redraw."""
    base = dict(command="sweep", n=X.n, k=X.k, ell=ell, field_name=fld.name,
                f_vector=f_vector(X), seed=seed)
    if check == "bound":
        return RunReport(**base, **_bound_fields(verify_upper_bound(X, ell, fld)))
    if check == "dual":
        return RunReport(**base, **_dual_fields(verify_dual_bound(X, ell, fld)))
    if check == "mono":
        tops = face_count(X, X.k)
        if not tops:
            return None
        sigma = tuple(_top_array(X)[SplitMix64(seed ^ 0xABCDEF).below(tops)].tolist())
        v = monotonicity_check(X, sigma, ell, fld)
        return RunReport(
            **base,
            lines=(f"sigma=({','.join(map(str, sigma))})",
                   f"defect {v.lam_before}->{v.lam_after}, "
                   f"b_{v.k-1} {v.tb_before}->{v.tb_after}",
                   f"holds={v.holds}"),
            failed=not v.holds)
    if check == "garland":
        g = _garland_if_pure(X, ell)
        if g is None:
            return None
        # the Betti number is rational whatever the sweep's field, as in garland
        return RunReport(
            **dict(base, field_name=RATIONALS.name), betti={g.k - 1: g.betti_q},
            lines=(f"min_mu={g.min_mu:.9f}", f"premise={g.premise}",
                   f"conclusion={g.conclusion}"))
    # support, the last of CHECKS, which takes no degree; vacuous at b_k = 0
    tb_top = betti(X, X.k, fld)
    ok = tb_top == 0 or support_property_holds(X, fld)
    line = f"support property holds: {ok}" if tb_top else "b_k=0: support property vacuous"
    return RunReport(**dict(base, ell=None), betti={X.k: tb_top}, lines=(line,), failed=not ok)
