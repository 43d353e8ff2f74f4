"""Named complex families: residue-sum complexes, the greedy saturated
construction, cyclic designs, and Steiner-block complexes.

The residue-sum family fixes a prime n, a top dimension s, and a set A of
residues mod n; the top faces are the (s+1)-subsets whose vertex sum falls
in A.  When A is an interval the Betti numbers are known in closed form
and concentrate in a single degree, which makes the family the seed for
the greedy construction: start from an interval complex with a large
degree-(k-1) Betti number, then add just enough top faces to kill the
homology of every small link without giving back much of the global
homology.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from operator import sub
from typing import Iterable, Optional

from .errors import (
    InvariantViolation,
    NotPrime,
    ParameterMismatch,
    ParameterOutOfRange,
)
from .fields import GF2, FieldSpec, is_prime
from .homology import betti, link_profile
from .linalg import IncrementalSpan
from .randomness import SplitMix64
from .simplexes import (
    Simplex,
    SkeletonComplex,
    iter_faces,
    make_simplex,
)


@dataclass(frozen=True)
class SumComplexSpec:
    """Parameters (n, A, s): prime modulus, residue set, top dimension."""

    n: int
    residues: frozenset[int]
    s: int

    def __post_init__(self):
        if not is_prime(self.n):
            raise NotPrime(f"{self.n} is not prime")
        if not 0 <= self.s <= self.n - 2:
            raise ParameterOutOfRange(f"top dimension {self.s} out of range")
        if not self.residues:
            raise ParameterOutOfRange("residue set must be nonempty")
        if any(not 0 <= a < self.n for a in self.residues):
            raise ParameterOutOfRange("residues must be reduced mod n")

    @classmethod
    def make(cls, n: int, residues: Iterable[int], s: int) -> "SumComplexSpec":
        return cls(n, frozenset(a % n for a in residues), s)

    @property
    def r(self) -> int:
        return len(self.residues) - 1

    def interval_offset(self) -> Optional[int]:
        """Start t when the residues are {t, t+1, ..., t+r} mod n."""
        size = len(self.residues)
        for t in self.residues:
            if all((t + i) % self.n in self.residues for i in range(size)):
                return t
        return None


def sum_complex(spec: SumComplexSpec) -> SkeletonComplex:
    tops = frozenset(
        sigma for sigma in combinations(range(spec.n), spec.s + 1)
        if sum(sigma) % spec.n in spec.residues
    )
    return SkeletonComplex(spec.n, spec.s, tops)


def sum_complex_betti_formula(n: int, r: int, s: int, i: int) -> int:
    """Closed-form Betti number for an interval residue set of size r+1.

    All homology sits in degree s-1 (when r <= s) or degree s (when
    r >= s); every other degree is 0.  Valid only for prime n, which is
    also what makes the division exact.
    """
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")
    if not 0 <= r <= n - 1:
        raise ParameterOutOfRange(f"residue count parameter {r} out of range")
    if not 0 <= s <= n - 2:
        raise ParameterOutOfRange(f"top dimension {s} out of range")
    if i == s - 1 and r <= s:
        value = Fraction((s - r) * comb(n - 1, s), s + 1)
    elif i == s and r >= s:
        value = Fraction((r - s) * comb(n - 1, s), s + 1)
    else:
        return 0
    if value.denominator != 1:
        raise InvariantViolation(f"non-integer closed form {value}")
    return int(value)


@dataclass(frozen=True)
class ConstructionReport:
    """What the greedy saturation did and the certificates it earned."""

    n: int
    k: int
    ell: int
    field_name: str
    complex: SkeletonComplex
    base_tb: int
    tb_after: int
    added_total: int
    s_sizes: tuple[tuple[Simplex, int], ...]
    per_tau_cap: Fraction
    cap_ok: bool
    bound_value: Fraction
    lam_low: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.tb_after) / self.bound_value


def _saturate_links(Y: SkeletonComplex, ell: int, field: FieldSpec,
                    tau_seeds: dict[Simplex, Optional[int]]
                    ) -> list[tuple[Simplex, tuple[Simplex, ...]]]:
    """(tau, top faces added to lk(Y, tau)) per degree-ell face tau of Y.

    Each link gets candidates, in lexicographic order or shuffled by the
    face's seed, until its top boundary map reaches the rank C(g-1, r) of
    a hypertree, r = k-ell-1.  Every link is saturated on the ground set
    minus tau relabelled onto 0..g-1 in order, so its rows and candidates
    are numbered once per call, and the order-preserving relabelling
    leaves both the lexicographic scan and the shuffle with the same
    positions.  The candidate numbering and packed columns go out of scope
    on return, before the re-verification's own ranks run.
    """
    n, k = Y.n, Y.k
    r = k - ell - 1  # top dimension of every degree-ell link
    g = n - ell - 1
    target = comb(g - 1, r)  # top-boundary rank of a link hypertree
    rows = {f: i for i, f in enumerate(combinations(range(g), r))}
    cands = list(combinations(range(g), r + 1))
    cand_index = {a: i for i, a in enumerate(cands)}
    cols: list = [None] * len(cands)  # packed on first use
    column = IncrementalSpan(field.p).boundary_column

    # tau -> indices of Y's link tops sigma minus tau: a vertex of sigma
    # outside tau moves down by the number of tau's vertices below it
    size = ell + 1
    shifts = [tuple(sum(1 for q in P if q < i) for i in range(k + 1) if i not in P)
              for P in combinations(range(k + 1), size)]
    existing: dict[Simplex, set[int]] = {tau: set() for tau in tau_seeds}
    for sigma in Y.top_faces:
        # complementing reverses lexicographic order, so the i-th
        # (ell+1)-subset of sigma pairs with the i-th last of the rest
        for tau, rest, shift in zip(combinations(sigma, size),
                                    reversed(list(combinations(sigma, k - ell))),
                                    shifts):
            existing[tau].add(cand_index[tuple(map(sub, rest, shift))])

    results = []
    for tau, seed in tau_seeds.items():
        span = IncrementalSpan(field.p)
        have = existing[tau]
        for i in sorted(have):
            col = cols[i]
            if col is None:
                col = cols[i] = column(cands[i], rows)
            span.add(col)
        # most candidates are never scanned, so build the list only to shuffle it
        order = (i for i in range(len(cands)) if i not in have)
        if seed is not None:
            order = list(order)
            SplitMix64(seed).shuffle(order)
        picked = []
        rank = span.rank
        for i in order:
            if rank >= target:
                break
            col = cols[i]
            if col is None:
                col = cols[i] = column(cands[i], rows)
            if span.add(col):
                picked.append(i)
                rank += 1
        if rank != target:
            raise InvariantViolation(f"saturation stalled at rank {rank} of {target}")
        ground = [v for v in range(n) if v not in tau]
        results.append((tau, tuple(tuple(ground[v] for v in cands[i]) for i in picked)))
    return results


def build_X_nkl(n: int, k: int, ell: int, field: FieldSpec = GF2,
                order_seed: Optional[int] = None) -> ConstructionReport:
    """Greedy saturated complex: large global homology, acyclic small links.

    Start from the residue-sum complex with interval {0, ..., k-ell-1} and
    for each degree-ell face independently add top faces through it until
    the link's top boundary reaches full rank.  Candidates are scanned in
    lexicographic order unless order_seed shuffles them (one seed per
    face, all derived from order_seed before the first face is saturated).

    The report is only returned after three facts are re-verified through
    homology rather than the greedy state: the accumulated link defect of
    the result is 0 and each face's addition count equals the link's Betti
    number in the starting complex (one link profile of each complex), and
    the global Betti number dropped by at most the total number of
    additions.
    """
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")
    if not 0 <= ell <= k - 2:
        raise ParameterOutOfRange(f"need 0 <= ell <= k-2, got ell={ell} k={k}")
    if k >= n - 1:
        raise ParameterOutOfRange(f"need k < n-1, got k={k} n={n}")

    spec = SumComplexSpec.make(n, range(k - ell), k)
    Y = sum_complex(spec)
    base_tb = betti(Y, k - 1, field)

    taus = sorted(iter_faces(Y, ell))
    if order_seed is None:
        tau_seeds = {tau: None for tau in taus}
    else:
        root = SplitMix64(order_seed)
        tau_seeds = {tau: root.next_u64() for tau in taus}

    results = _saturate_links(Y, ell, field, tau_seeds)

    new_tops = set(Y.top_faces)
    s_sizes = []
    for tau, picked in results:
        s_sizes.append((tau, len(picked)))
        for alpha in picked:
            new_tops.add(make_simplex(tau + alpha))
    X = SkeletonComplex(n, k, frozenset(new_tops))

    # re-verify through the link profiles of Y and X, not the greedy state
    from .bounds import bound_B
    lam = sum(e.below for e in link_profile(X, ell, field))
    if lam != 0:
        raise InvariantViolation(f"link defect {lam} after saturation")
    base_below = {e.tau: e.below for e in link_profile(Y, ell, field)}
    for tau, picked in results:
        expect = base_below[tau]
        if len(picked) != expect:
            raise InvariantViolation(
                f"added {len(picked)} at {tau}, link Betti number is {expect}")
    added = sum(len(p) for _, p in results)
    tb_after = betti(X, k - 1, field)
    if tb_after < base_tb - added:
        raise InvariantViolation(
            f"Betti number fell from {base_tb} to {tb_after} with {added} additions")

    cap = Fraction((ell + 1) * (k - ell), factorial(k - ell - 1)) * n ** (k - ell - 2)
    return ConstructionReport(
        n=n, k=k, ell=ell, field_name=field.name, complex=X,
        base_tb=base_tb, tb_after=tb_after, added_total=added,
        s_sizes=tuple(s_sizes), per_tau_cap=cap,
        cap_ok=all(c <= cap for _, c in s_sizes),
        bound_value=bound_B(n, k, ell), lam_low=lam,
    )


def build_J(n: int, k: int) -> SkeletonComplex:
    """Hand-built extremal families in dimensions 1, 2, 3.

    k=1 needs n even (a perfect matching), k=2 needs n = 3t+2, k=3 needs
    n even (antipodal quadruples).  Anything else is a parameter mismatch.
    """
    if k == 1:
        if n % 2:
            raise ParameterMismatch(f"dimension 1 needs even n, got {n}")
        tops = frozenset((2 * i, 2 * i + 1) for i in range(n // 2))
        return SkeletonComplex(n, 1, tops)
    if k == 2:
        if n % 3 != 2:
            raise ParameterMismatch(f"dimension 2 needs n = 3t+2, got {n}")
        t = (n - 2) // 3
        tops = set()
        for i in range(n):
            for j in range(t):
                tops.add(make_simplex({i, (i + 3 * j + 1) % n, (i + 3 * j + 2) % n}))
        return SkeletonComplex(n, 2, frozenset(tops))
    if k == 3:
        if n % 2:
            raise ParameterMismatch(f"dimension 3 needs even n, got {n}")
        h = n // 2
        tops = set()
        for i in range(h):
            for a in range(1, h):
                for b in range(1, h):
                    tops.add(make_simplex({
                        i, (i + a) % n, (i + h) % n, (i + h + b) % n}))
        return SkeletonComplex(n, 3, frozenset(tops))
    raise ParameterMismatch(f"no construction in dimension {k}")


@dataclass(frozen=True)
class SteinerResult:
    complex: SkeletonComplex
    uncovered: int
    multicovered: int

    @property
    def is_valid_design(self) -> bool:
        return self.uncovered == 0 and self.multicovered == 0


def steiner_complex(blocks: Iterable[Iterable[int]], n: int, k: int) -> SteinerResult:
    """Complex whose top faces are the blocks of a (claimed) design.

    Validity as a covering design (every k-subset in exactly one block) is
    reported, not enforced; an invalid block list still yields a complex.
    """
    X = SkeletonComplex(n, k, frozenset(make_simplex(b) for b in blocks))
    cover: dict[Simplex, int] = {}
    for sigma in X.top_faces:
        for i in range(len(sigma)):
            f = sigma[:i] + sigma[i + 1:]
            cover[f] = cover.get(f, 0) + 1
    uncovered = sum(1 for f in combinations(range(n), k) if f not in cover)
    multi = sum(1 for c in cover.values() if c > 1)
    return SteinerResult(complex=X, uncovered=uncovered, multicovered=multi)


FANO_BLOCKS = tuple(
    tuple(sorted(((1 + i) % 7, (2 + i) % 7, (4 + i) % 7))) for i in range(7)
)
