"""Named complex families: residue-sum complexes, the greedy saturated
construction, cyclic designs, and Steiner-block complexes.

The residue-sum family fixes a prime n, a top dimension s, and a set A of
residues mod n; the top faces are the (s+1)-subsets whose vertex sum falls
in A.  When A is an interval the Betti numbers are known in closed form
and concentrate in a single degree (Linial, Meshulam and Rosenthal, DCG
2010; the tests check the formula on every interval for the primes up
to 13), which makes the family the seed for the greedy construction:
start from an interval complex with a large degree-(k-1) Betti number,
then add just enough top faces to kill the homology of every small link
without giving back much of the global homology.

In lexicographic order the greedy has a closed form.  Fix a degree-ell
face tau of Y, r = k-ell-1, and the link on the ground set minus tau
relabelled onto 0..g-1 in order, g = n-ell-1, with its rows (the
r-subsets) and candidates (the (r+1)-subsets) numbered lexicographically.
The rows through 0 are the first m0 = C(g-1, r-1).  Drop the rows
through 0 from the boundary column of every top face of lk(Y, tau), and
let the keys be the largest indices of the vectors of a basis of what is
left whose vectors have distinct largest indices (IncrementalSpan's
basis).  Then, over every field, the greedy picks exactly the candidates
0 + beta for the rows beta >= m0 that are not keys, in increasing order
of beta.

Proof.  A cone candidate 0 + beta has boundary +-beta plus rows through
0, and every cone candidate comes before every candidate avoiding 0, in
the order of beta.  Let pi drop the rows through 0.  It sends the C(g-1, r)
cone columns to +-e_beta, a basis of the coordinates left, so the cone
columns are independent and span a space W of dimension C(g-1, r), the
rank of the whole top boundary map (homology.complete_rank).  Hence W is
that map's column space: every column lies in W, pi is injective on W,
and independence may be tested after pi.  There the cone candidates
alone reach the target, so the greedy never scans past them.  Let V be
the span of the link tops' columns after pi; a link top 0 + beta is
+-e_beta, one more vector of V, so its row beta is a key.  Scan the rows
beta >= m0 upwards, assuming the span so far is V plus every e_gamma for
the rows gamma < beta scanned.  e_beta lies in that span iff some vector
of V equals e_beta up to coordinates below beta, that is, iff some
vector of V has largest index beta: iff beta is a key.  A key is skipped
and any other row is picked, and either way the assumption holds at the
next row.  After the last pick the span is all of W, so stopping at the
target rank changes nothing.  No step depends on the field.

Where every link is a graph (r = 1, ell = k-2), the rows are the g
vertices, row 0 alone passes through 0, and the keys are read from the
link's components, isolated vertices included, with no elimination:
with row 0 deleted, a vertex beta > 0 is not a key iff it is the least
vertex of a component that avoids 0.

Proof.  After pi the column of an edge ab is +-(e_b - e_a), read with
e_0 = 0.  If beta's component holds a vertex gamma < beta, 0 included,
the columns of a path from beta to gamma sum, with signs, to e_beta -
e_gamma, a vector of V with largest index beta: beta is a key.  Else
beta is the least vertex of a component C that avoids 0.  A vector of V
is a combination of the link tops' columns, and only the columns of C's
edges reach C's coordinates, each +-(e_b - e_a) with a and b in C, so
its entries there sum to 0.  A vector with largest index beta is 0 on
C's coordinates above beta, and C has none below beta, so its part on C
is c * e_beta with c = 0, and its entry at beta is 0 after all.  So beta
is not a key.  An isolated vertex is a component of its own, so it gets
a pick: the greedy picks the edge 0 + beta for the least vertex beta of
every component that avoids 0, which joins that component to 0's.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, pairwise
from math import comb, factorial
from typing import Iterable, Optional

import numpy as np

from .bounds import bound_B
from .errors import (
    InvariantViolation,
    NotPrime,
    ParameterMismatch,
    ParameterOutOfRange,
    TooLarge,
)
from .fields import GF2, FieldSpec, is_prime
from .homology import _boundary_columns, _components, _link_betti, betti
from .linalg import IncrementalSpan
from .randomness import SplitMix64
from .simplexes import (
    Simplex,
    SkeletonComplex,
    _binomials,
    _face_array,
    _facet_keys,
    _facet_ranks,
    _lex_ranks,
    _lex_unrank,
    _link_pairs,
    _relabelled_link_tops,
    _top_array,
    make_simplex,
)


# faces sum_complex may filter or build_J enumerate; the largest README
# ladder rung, (101, 3, 1), has C(101, 4) = 4,082,925; and the s-subsets
# sum_complex holds at once
SUM_BUDGET, _SUM_HEADS = 10 ** 7, 1 << 16


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


def sum_complex(spec: SumComplexSpec) -> SkeletonComplex:
    """The complex of the (s+1)-subsets whose vertex sum lies in A mod n.

    A face is an s-subset a plus v = rho - sum(a) mod n > max a for a rho
    in A, so numpy solves for v over the C(n, s) subsets, _SUM_HEADS at a
    time, unless they outnumber the C(n, s+1) candidates, then filtered.
    C(n, s+1) is refused above SUM_BUDGET before anything is enumerated.
    """
    count = comb(spec.n, spec.s + 1)
    if count > SUM_BUDGET:
        raise TooLarge(f"C({spec.n}, {spec.s + 1}) = {count} candidate faces "
                       f"exceeds the budget of {SUM_BUDGET}")
    return SkeletonComplex(spec.n, spec.s, _sum_faces(spec))


def _sum_faces(spec: SumComplexSpec) -> np.ndarray:
    """The faces of sum_complex in lexicographic order, as one (f, s+1)
    array, from the smaller of its two enumerations."""
    n, s, residues, heads = spec.n, spec.s, spec.residues, comb(spec.n, spec.s)
    if heads > comb(n, s + 1):
        return np.fromiter(chain.from_iterable(
            sigma for sigma in combinations(range(n), s + 1)
            if sum(sigma) % n in residues), dtype=np.int64).reshape(-1, s + 1)
    subsets = combinations(range(n), s)
    blocks = [np.empty((0, s + 1), dtype=np.int64)]
    for lo in range(0, heads, _SUM_HEADS):
        a = _face_array(islice(subsets, _SUM_HEADS), min(_SUM_HEADS, heads - lo), s)
        total, top = a.sum(axis=1), a.max(axis=1, initial=-1)
        heads_kept, vs = [], []
        for rho in residues:
            v = (rho - total) % n
            keep = np.flatnonzero(v > top)
            heads_kept.append(keep)
            vs.append(v[keep])
        # the s-subsets come in lexicographic order, so the faces do by
        # subset, then by last vertex
        i, v = np.concatenate(heads_kept), np.concatenate(vs)
        order = np.lexsort((v, i))
        blocks.append(np.column_stack((a[i[order]], v[order])))
    return np.concatenate(blocks)


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
                    order_seed: Optional[int]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top faces added to lk(Y, tau) per degree-ell face tau of Y.

    Returns the faces tau, as a (taus, ell+1) array in lexicographic
    order; the index there of each added face's tau; and the added faces,
    as an (adds, k-ell) array on 0..n-1, by tau and then in pick order.

    Each link gets candidates, in lexicographic order or shuffled by a
    seed per face, until its top boundary map reaches the rank C(g-1, r)
    of a hypertree, r = k-ell-1.  The faces tau come in lexicographic
    order, and their seeds are drawn from order_seed in that order.  Every
    link is saturated on the ground set minus tau relabelled onto 0..g-1
    in order, so that rows and candidates are numbered once per call.  Y's
    link tops come from one numpy walk, grouped by tau but for graph links
    in lexicographic order.  The order-preserving relabelling keeps the
    positions of the lexicographic order and of the shuffle alike.  In
    lexicographic order the picks are read from the closed form (module
    docstring), for graph links (r = 1) from one labelling of their
    components, which reads the walk's pairs in no order; a shuffled order
    scans its candidates one IncrementalSpan.add at a time, each column
    packed once from the candidates' facet ranks, as the closed form packs
    its own.
    """
    n, k, p = Y.n, Y.k, field.p
    r = k - ell - 1  # top dimension of every degree-ell link
    g = n - ell - 1
    taus = _face_array(combinations(range(n), ell + 1), comb(n, ell + 1), ell + 1)
    if order_seed is None and r == 1:
        # every link is a graph: its picks need no tau sort
        link, ends = _link_pairs(_top_array(Y), n, ell)
        # each edge end as node link * g + vertex, over the walk's array
        ends += link[:, None] * g
        del link
        owner, picked = _graph_picks(ends, len(taus), g)
    else:
        link, rest = _relabelled_link_tops(_top_array(Y), n, ell)
        if order_seed is None:
            facet = _facet_ranks(rest, _binomials(g, r))
            owner, picked = _closed_form_picks(link, facet, len(taus), g, r, p)
        else:
            root = SplitMix64(order_seed)
            seeds = [root.next_u64() for _ in range(len(taus))]
            bounds = np.searchsorted(link, np.arange(len(taus) + 1)).tolist()
            have = _lex_ranks(rest, _binomials(g, r + 1))
            owner, picked = _greedy_picks(have, bounds, g, r, seeds, p)
    # undo the relabelling: the v-th vertex outside tau is v plus the
    # number of tau's vertices tau_j with tau_j - j <= v
    below = taus - np.arange(ell + 1)
    picked = picked + (below[owner][:, None, :] <= picked[:, :, None]).sum(axis=2)
    return taus, owner, picked


def _closed_form_picks(link: np.ndarray, facet: np.ndarray, n_links: int, g: int,
                       r: int, p: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """The faces the lexicographic greedy picks, read from the closed form
    (module docstring), and the link id of each.

    link and facet hold the link id and the facet rows of each of Y's link
    tops, sorted by link id, for links on 0..g-1 with r-subsets for rows.
    Every top's column, with the rows through 0 dropped, goes through
    IncrementalSpan(p).extend, packed by _boundary_columns.  The picks are
    unranked from the rows that are not keys and come sorted by link id,
    then by face, as an (picks, r+1) array on 0..g-1.
    """
    m0 = comb(g - 1, r - 1)  # the first m0 rows pass through 0
    width = comb(g, r) - m0
    # drop the rows through 0, shift the others to start at 0; a dropped
    # row becomes -1, which _bitsets reads as no bit
    columns = _boundary_columns(np.where(facet >= m0, facet - m0, -1), width, p)
    at = np.searchsorted(link, np.arange(n_links + 1)).tolist()
    # each link's key count and keys, 8 bytes an entry
    ranks, keys = array("q"), array("q")
    for lo, hi in pairwise(at):
        span = IncrementalSpan(p)
        ranks.append(span.extend(islice(columns, hi - lo)))
        keys.extend(span.basis)
    taken = np.zeros((n_links, width), dtype=bool)
    taken[np.repeat(np.arange(n_links), ranks), np.asarray(keys, dtype=np.int64)] = True
    t, b = np.nonzero(~taken)
    return t, np.insert(_lex_unrank(b + m0, g, r), 0, 0, axis=1)


def _graph_picks(ends: np.ndarray, n_links: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges the lexicographic greedy picks in links that are graphs
    (r = 1), read from the closed form's graph case (module docstring),
    and the link id of each.

    Row a of ends holds the two ends of one of Y's link tops, each as
    node link * g + vertex, in any order.  homology._components labels
    every vertex of every link with the least node of its component, and
    each vertex beta > 0 that is its own label, the least vertex of a
    component that avoids 0, gets the edge (0, beta).  The picks come
    sorted by link id, then by beta, as a (picks, 2) array, as
    _closed_form_picks gives them.
    """
    nodes = n_links * g
    least = _components(nodes, ends[:, 0], ends[:, 1]) == np.arange(nodes)
    least[::g] = False  # vertex 0 of every link
    owner, beta = np.divmod(np.flatnonzero(least), g)
    return owner, np.column_stack((np.zeros_like(beta), beta))


def _greedy_picks(have: np.ndarray, bounds: list[int], g: int, r: int,
                  seeds: list[int], p: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """The faces the greedy picks in the order each link's seed shuffles,
    and the link id of each.

    have holds the candidate ranks of Y's link tops among the
    (r+1)-subsets of 0..g-1, grouped by link at bounds.  Every
    candidate's column is packed once, from its facet ranks, by
    _boundary_columns.  A link's tops enter its span in one extend, then
    the shuffled candidates one add at a time.  The picks come by link id,
    then in pick order, as an (picks, r+1) array on 0..g-1.
    """
    target = comb(g - 1, r)  # top-boundary rank of a link hypertree
    cands = _face_array(combinations(range(g), r + 1), comb(g, r + 1), r + 1)
    cols = list(_boundary_columns(_facet_ranks(cands, _binomials(g, r)), comb(g, r), p))
    owner, picks = [], []
    for t, seed in enumerate(seeds):
        span = IncrementalSpan(p)
        existing = set(have[bounds[t]:bounds[t + 1]].tolist())
        order = [i for i in range(len(cols)) if i not in existing]
        SplitMix64(seed).shuffle(order)
        span.extend([cols[i] for i in sorted(existing)])
        for i in order:
            if span.rank >= target:
                break
            if span.add(cols[i]):
                owner.append(t)
                picks.append(i)
        if span.rank != target:
            raise InvariantViolation(f"saturation stalled at rank {span.rank} of {target}")
    return np.array(owner, dtype=np.int64), cands[picks]


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
    number in the starting complex (the link arrays of each complex), and
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

    taus, owner, picked = _saturate_links(Y, ell, field, order_seed)
    counts = np.bincount(owner, minlength=len(taus))
    # each tau back into its picks; a face picked through two taus is
    # one face of X, which takes its tops sorted by lexicographic rank, an
    # int64 below C(n, k+1) <= SUM_BUDGET
    picked = np.sort(np.concatenate((taus[owner], picked), axis=1), axis=1)
    tops = np.concatenate((_top_array(Y), picked))
    _, first = np.unique(_lex_ranks(tops, _binomials(n, k + 1)), return_index=True)
    X = SkeletonComplex(n, k, tops[first])

    # re-verify through the homology of Y and X, read from their own top
    # faces, not the greedy state
    base_tb = betti(Y, k - 1, field)
    below = _link_betti(Y, ell, field)[1]
    bad = np.flatnonzero(counts != below)
    if len(bad):
        t = bad[0]
        raise InvariantViolation(f"added {counts[t]} at {tuple(taus[t].tolist())}, "
                                 f"link Betti number is {below[t]}")
    lam = int(_link_betti(X, ell, field)[1].sum())
    if lam != 0:
        raise InvariantViolation(f"link defect {lam} after saturation")
    added = len(owner)
    tb_after = betti(X, k - 1, field)
    if tb_after < base_tb - added:
        raise InvariantViolation(
            f"Betti number fell from {base_tb} to {tb_after} with {added} additions")

    counts = counts.tolist()
    cap = Fraction((ell + 1) * (k - ell), factorial(k - ell - 1)) * n ** (k - ell - 2)
    return ConstructionReport(
        n=n, k=k, ell=ell, field_name=field.name, complex=X,
        base_tb=base_tb, tb_after=tb_after, added_total=added,
        s_sizes=tuple(zip(map(tuple, taus.tolist()), counts)), per_tau_cap=cap,
        cap_ok=max(counts, default=0) <= cap,
        bound_value=bound_B(n, k, ell), lam_low=lam,
    )


def build_J(n: int, k: int) -> SkeletonComplex:
    """Hand-built extremal families in dimensions 1, 2, 3.

    k=1 needs n even (a perfect matching), k=2 needs n = 3t+2, k=3 needs
    n even (antipodal quadruples).  Anything else is a parameter mismatch.
    More than SUM_BUDGET faces to enumerate is refused before any is
    built.  Each family is built as one numpy array, every row sorted,
    and the constructor drops the faces built twice.
    """
    if k == 1:
        if n % 2:
            raise ParameterMismatch(f"dimension 1 needs even n, got {n}")
        _check_family_size(n, k, n // 2)
        return SkeletonComplex(n, 1, np.arange(n).reshape(-1, 2))
    if k == 2:
        if n % 3 != 2:
            raise ParameterMismatch(f"dimension 2 needs n = 3t+2, got {n}")
        t = (n - 2) // 3
        _check_family_size(n, k, n * t)
        # {i, i+3j+1, i+3j+2} mod n for every vertex i and j < t
        i, j = np.arange(n)[:, None], 3 * np.arange(t)
        tops = np.stack(np.broadcast_arrays(i, (i + j + 1) % n, (i + j + 2) % n), axis=2)
        return SkeletonComplex(n, 2, np.sort(tops.reshape(-1, 3), axis=1))
    if k == 3:
        if n % 2:
            raise ParameterMismatch(f"dimension 3 needs even n, got {n}")
        h = n // 2
        _check_family_size(n, k, h * (h - 1) ** 2)
        # {i, i+a, i+h, i+h+b} mod n for i < h and 0 < a, b < h
        i, a, b = np.ogrid[:h, 1:h, 1:h]
        tops = np.stack(np.broadcast_arrays(i, i + a, i + h, (i + h + b) % n), axis=3)
        return SkeletonComplex(n, 3, np.sort(tops.reshape(-1, 4), axis=1))
    raise ParameterMismatch(f"no construction in dimension {k}")


def _check_family_size(n: int, k: int, count: int) -> None:
    """Refuse build_J(n, k) when its loop would enumerate count > SUM_BUDGET faces."""
    if count > SUM_BUDGET:
        raise TooLarge(f"build_J({n}, {k}) enumerates {count} faces, "
                       f"more than the budget of {SUM_BUDGET}")


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
    Each block goes through make_simplex, in input order, and the
    constructor drops repeats.  The covers of the (k-1)-faces are counted
    by one np.unique over the facet keys of the stored array, so the C(n,
    k) faces on [n] are never listed.
    """
    X = SkeletonComplex(n, k, [make_simplex(b) for b in blocks])
    _, covers = np.unique(_facet_keys(_top_array(X), n), return_counts=True)
    return SteinerResult(complex=X, uncovered=comb(n, k) - len(covers),
                         multicovered=int((covers > 1).sum()))


FANO_BLOCKS = tuple(
    tuple(sorted(((1 + i) % 7, (2 + i) % 7, (4 + i) % 7))) for i in range(7)
)
