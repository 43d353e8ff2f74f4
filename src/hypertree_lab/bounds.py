"""Local-to-global bounds linking link homology to global Betti numbers.

For a complex X with full (k-1)-skeleton on n vertices, the central
quantity is the accumulated link defect

    lam(X, ell, j) = sum over degree-ell faces tau of the degree-j
                     Betti number of the link of tau,

evaluated at j = k-ell-2 (lambda_low, one below the top dimension of the
links) or at j = k-ell-1 (lambda_high, the top).  The certificates below tie these sums to the
degree-(k-1) and degree-k Betti numbers of X through four relations:

  upper:   C * b_{k-1}(X) <= lambda_low + C * B
  dual:    C * b_k(X)     <= lambda_high
  step:    b_k(X) = b_{k-1}(X) + f_k(X) - C(n-1, k)
  shift:   lambda_high = lambda_low + C * (f_k(X) - F)

with C = C(k+1, ell+1) and B, F the rational constants depending only on
(n, k, ell).  Every comparison is done in cleared integers: _cleared
gives the one triple (C, C * B, C * F), and B and F are reported as the
exact fractions it gives.

When lambda_low is zero the three extremal conditions coincide: b_{k-1}
hitting B, b_k vanishing at face count F, and every degree-ell link being
a hypertree one dimension down.  Each reads only numbers the certificate
of verify_upper_bound holds (b_{k-1}, b_k, f_k, B, F and both link
defects), so equality_trichotomy reads all three from it.  A sandwiched
link is a hypertree exactly when both its Betti numbers vanish, and no
link Betti number is negative (_link_betti refuses a negative b_{r-1},
and b_r = f_tau - rank is at least 0), so every link is a hypertree
exactly when lambda_low and lambda_high are both 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .errors import InvariantViolation, ParameterOutOfRange
from .fields import FieldSpec
from .homology import _cycle_support, _link_betti, betti
from .simplexes import (
    Complex,
    Simplex,
    SkeletonComplex,
    _link_pairs,
    _top_array,
    as_skeleton_complex,
    face_count,
    make_simplex,
    remove_top_face,
)


def lambda_pair(X: Complex, ell: int, field: FieldSpec) -> tuple[int, int]:
    """(lam at j = k-ell-2, lam at j = k-ell-1), summed from the link
    arrays of homology._link_betti.

    The links of degree-ell faces have homology in those two degrees only,
    so lam is 0 at every other j.
    """
    _, below, top = _link_betti(as_skeleton_complex(X), ell, field)
    return int(below.sum()), int(top.sum())


def check_bound_degree(n: int, k: int, ell: int) -> None:
    """Refuse (n, k, ell) outside 0 <= ell < k < n, where B and F are defined."""
    if not 0 <= ell < k < n:
        raise ParameterOutOfRange(
            f"need 0 <= ell < k < n, got ell={ell} k={k} n={n}")


def _cleared(n: int, k: int, ell: int) -> tuple[int, int, int]:
    """(C, CB, CF) = (C(k+1, ell+1), C * B, C * F), the constants cleared
    of their denominator C.

    B has two closed forms, C(n-1, ell) C(n-ell-2, k-ell) / C and
    C(n-1, k) - F with F = C(n, ell+1) C(n-ell-2, k-ell-1) / C; cleared,
    they agree exactly when CB + CF = C * C(n-1, k), which is checked.
    """
    check_bound_degree(n, k, ell)
    C = comb(k + 1, ell + 1)
    CB = comb(n - 1, ell) * comb(n - ell - 2, k - ell)
    CF = comb(n, ell + 1) * comb(n - ell - 2, k - ell - 1)
    if CB + CF != C * comb(n - 1, k):
        raise InvariantViolation(f"constant mismatch: {Fraction(CB, C)} vs "
                                 f"{comb(n - 1, k) - Fraction(CF, C)}")
    return C, CB, CF


def bound_B(n: int, k: int, ell: int) -> Fraction:
    """Ceiling constant for the degree-(k-1) Betti number."""
    C, CB, _ = _cleared(n, k, ell)
    return Fraction(CB, C)


def bound_F(n: int, k: int, ell: int) -> Fraction:
    """Top-face count at which the ceiling is reached."""
    C, _, CF = _cleared(n, k, ell)
    return Fraction(CF, C)


@dataclass(frozen=True)
class BoundCertificate:
    n: int
    k: int
    ell: int
    field_name: str
    lam_low: int
    lam_high: int
    tb_top_below: int
    tb_top: int
    f_top: int
    bound_value: Fraction
    complement_value: Fraction
    eq_upper: bool
    eq_dual: bool
    eq_step: bool
    eq_shift: bool

    @property
    def all_hold(self) -> bool:
        return self.eq_upper and self.eq_dual and self.eq_step and self.eq_shift


def verify_upper_bound(X: Complex, ell: int, field: FieldSpec) -> BoundCertificate:
    """Evaluate all four relations for one complex at one degree.

    The upper and dual comparisons are inequalities that must always hold;
    the step and shift relations are exact identities.  Any False in the
    certificate means the implementation or the mathematics is broken, so
    callers treat False as a hard failure, not as data.
    """
    S = as_skeleton_complex(X)
    n, k = S.n, S.k
    C, CB, CF = _cleared(n, k, ell)

    lam_low, lam_high = lambda_pair(S, ell, field)
    tb_below = betti(S, k - 1, field)
    tb_top = betti(S, k, field)
    f_top = face_count(S, k)

    return BoundCertificate(
        n=n, k=k, ell=ell, field_name=field.name,
        lam_low=lam_low, lam_high=lam_high,
        tb_top_below=tb_below, tb_top=tb_top, f_top=f_top,
        bound_value=Fraction(CB, C),
        complement_value=Fraction(CF, C),
        eq_upper=C * tb_below <= lam_low + CB,
        eq_dual=C * tb_top <= lam_high,
        eq_step=tb_top == tb_below + f_top - comb(n - 1, k),
        eq_shift=lam_high == lam_low + C * f_top - CF,
    )


@dataclass(frozen=True)
class DualBoundVerdict:
    n: int
    k: int
    ell: int
    field_name: str
    coefficient: int
    tb_top: int
    lam_high: int

    @property
    def holds(self) -> bool:
        return self.coefficient * self.tb_top <= self.lam_high


def check_dual_degree(n: int, k: int, ell: int) -> None:
    """Refuse a dual-bound degree outside [-1, k) for top dimension k."""
    if not -1 <= ell < k:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k})")


def verify_dual_bound(X: Complex, ell: int, field: FieldSpec) -> DualBoundVerdict:
    """Top-degree Betti number against the top-degree link defect.

    Valid for every degree from -1 up to k-1; at ell = -1 it degenerates
    to comparing b_k with itself.
    """
    S = as_skeleton_complex(X)
    k = S.k
    check_dual_degree(S.n, k, ell)
    return DualBoundVerdict(
        n=S.n, k=k, ell=ell, field_name=field.name,
        coefficient=comb(k + 1, ell + 1),
        tb_top=betti(S, k, field),
        lam_high=lambda_pair(S, ell, field)[1],
    )


@dataclass(frozen=True)
class LinkBracket:
    tau: Simplex
    before: int
    after: int

    @property
    def holds(self) -> bool:
        return self.before <= self.after <= self.before + 1


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Effect of deleting one top face on the defect and on each link."""

    n: int
    k: int
    ell: int
    sigma: Simplex
    field_name: str
    coefficient: int
    lam_before: int
    lam_after: int
    tb_before: int
    tb_after: int
    link_brackets: tuple[LinkBracket, ...]
    untouched_identical: bool

    @property
    def main_holds(self) -> bool:
        lhs = self.lam_after - self.lam_before
        rhs = self.coefficient * (self.tb_after - self.tb_before)
        return lhs <= rhs

    @property
    def tb_bracket_holds(self) -> bool:
        return self.tb_before <= self.tb_after <= self.tb_before + 1

    @property
    def holds(self) -> bool:
        return (self.main_holds and self.tb_bracket_holds
                and self.untouched_identical
                and all(b.holds for b in self.link_brackets))


def check_deletion_degree(n: int, k: int, ell: int) -> None:
    """Refuse a deletion-check degree outside [-1, k-1] for top dimension k."""
    if not -1 <= ell <= k - 1:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k - 1}]")


def monotonicity_check(X: Complex, sigma, ell: int,
                       field: FieldSpec) -> MonotonicityVerdict:
    """Delete the top face sigma and bound every movement it causes.

    Three things are verified at once: the defect moves by at most the
    binomial coefficient times the movement of the degree-(k-1) Betti
    number; that Betti number itself moves up by at most one; and the link
    of each degree-ell face inside sigma gains at most one unit of
    homology one degree below its top.  Links of faces not inside sigma
    must not change at all.  remove_top_face refuses a sigma that is no
    top face.
    """
    S = as_skeleton_complex(X)
    k = S.k
    check_deletion_degree(S.n, k, ell)
    s = make_simplex(sigma)
    S2 = remove_top_face(S, s)
    before = _link_betti(S, ell, field)[1]
    after = _link_betti(S2, ell, field)[1]
    # a link of a sandwiched complex is fixed by its top faces; the walk
    # of sigma alone gives the ids of the faces tau inside it, in the
    # order of combinations(s, ell + 1), and the other pairs of S's walk
    # must be S2's, in the same order: pattern by pattern, top by top
    touched = _link_pairs(np.array([s]), S.n, ell)[0]
    brackets = tuple(LinkBracket(tau=tau, before=int(before[t]), after=int(after[t]))
                     for tau, t in zip(combinations(s, ell + 1), touched.tolist()))
    kept = []
    for Y in (S, S2):
        ids, rest = _link_pairs(_top_array(Y), Y.n, ell)
        out = ~np.isin(ids, touched)
        kept.append((ids[out], rest[out]))

    return MonotonicityVerdict(
        n=S.n, k=k, ell=ell, sigma=s, field_name=field.name,
        coefficient=comb(k + 1, ell + 1),
        lam_before=int(before.sum()),
        lam_after=int(after.sum()),
        tb_before=betti(S, k - 1, field),
        tb_after=betti(S2, k - 1, field),
        link_brackets=brackets,
        untouched_identical=all(map(np.array_equal, kept[0], kept[1])),
    )


@dataclass(frozen=True)
class TrichotomyReport:
    """The three faces of extremality, evaluated independently."""

    n: int
    k: int
    ell: int
    field_name: str
    lam_low: int
    ceiling_hit: bool        # degree-(k-1) Betti number equals B
    complement_hit: bool     # degree-k Betti number 0 at face count F
    links_are_hypertrees: bool
    bound_value: Fraction
    complement_value: Fraction

    @property
    def applicable(self) -> bool:
        return self.lam_low == 0

    @property
    def all_equivalent(self) -> bool:
        return self.ceiling_hit == self.complement_hit == self.links_are_hypertrees


def equality_trichotomy(X: Complex, ell: int, field: FieldSpec) -> TrichotomyReport:
    """Evaluate the three extremality conditions at degree ell.

    Each is read from the certificate of verify_upper_bound: (a) b_{k-1}
    equals B, (b) b_k is 0 and f_k equals F, and (c) both link defects
    are 0, which says every link is a hypertree because no link Betti
    number is negative (module docstring).  The equivalence is a theorem
    only when the low defect vanishes; with a nonzero defect the three
    conditions are evaluated anyway and may disagree, and the report's
    applicable flag records which regime the complex was in.  When the
    defect is zero the three answers are asserted equal.
    """
    cert = verify_upper_bound(X, ell, field)
    a = cert.tb_top_below == cert.bound_value
    b = cert.tb_top == 0 and cert.f_top == cert.complement_value
    c = cert.lam_low == cert.lam_high == 0
    report = TrichotomyReport(
        n=cert.n, k=cert.k, ell=ell, field_name=cert.field_name, lam_low=cert.lam_low,
        bound_value=cert.bound_value, complement_value=cert.complement_value,
        ceiling_hit=a, complement_hit=b, links_are_hypertrees=c,
    )
    if cert.lam_low == 0 and not report.all_equivalent:
        raise InvariantViolation(
            f"trichotomy broke at zero defect: {a} {b} {c}")
    return report


def support_property_holds(X: SkeletonComplex, field: FieldSpec) -> bool:
    """Every face inside a cycle's support has homology atop its link.

    For each top face sigma in the support of some degree-k cycle and
    every tau inside sigma, the link of tau must have nonzero Betti number
    in degree k - dim(tau) - 2, the top degree of that link; for tau =
    sigma that is the empty face's b_{-1} = 1, so it is not read.  Those
    top faces are the ones that are no coloop of the degree-k boundary
    map, the union of the supports of every basis of the cycles
    (homology._cycle_support), so the verdict does not depend on a basis.
    Each supported top face is checked once per degree, by indexing the
    top array of _link_betti with the ids of the faces tau inside it.
    The empty face's link is S itself, whose top array is b_k(S), read
    through betti and its memo.
    """
    S = as_skeleton_complex(X)
    degrees = range(-1, S.k)
    tops = [np.array([betti(S, S.k, field)])]
    tops += [_link_betti(S, ell, field)[2] for ell in degrees[1:]]
    supported = _cycle_support(S, field.p)
    return all((top[_link_pairs(supported, S.n, ell)[0]] > 0).all()
               for ell, top in zip(degrees, tops))
