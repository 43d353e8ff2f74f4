"""Weighted Laplacians of pure complexes and local spectral certificates.

The weight of a face is the number of top-dimensional faces above it,
scaled by a factorial of the codimension so that the weight of a face
equals the sum of the weights of the facets of any face directly above it.
Kernels of the resulting symmetrized Laplacians match reduced cohomology,
so strict positivity of the right eigenvalue in every small link forces
rational acyclicity one degree below the top.

Every link weighs itself.  Weights balance: if d is the top dimension and
h a (j-1)-face, then

    W(h) = sum of W(f) over the j-faces f directly above h.

Proof: a top face above h has d-j+1 vertices outside h, so it lies above
exactly d-j+1 of those j-faces f.  Counting pairs (f, top face above f)
gives sum_f #tops(f) = (d-j+1) #tops(h), and multiplying by (d-j)! gives
sum_f (d-j)! #tops(f) = (d-j+1)! #tops(h).  The link of a degree-ell face
tau of a SkeletonComplex X on n vertices is again one: the complete
(r-1)-skeleton on the g = n-ell-1 other vertices, plus the r-faces sigma
minus tau for the top faces sigma above tau, r = k-ell-1.  Its degree-(r-1)
Laplacian needs three weights, all read from the link's own top faces,
with no weight of X: a top face weighs 1, an (r-1)-face f weighs the
number of link tops above it, and an (r-2)-face h weighs |D| w_j, the sum
of those counts over the f above h, for D the map from the (r-1)-faces.
A link with no top face has its (r-1)-faces as its tops, each of weight 1.
The sums are exact integers.

Faces are numbered by lexicographic rank, and X's top faces are read as
one array grouped by link id with each link top relabelled onto 0..g-1
(simplexes module docstring); each facet of a link top is numbered by its
rank among the r-subsets of g.

The up part needs no map U.  For (r-1)-faces f != f' of a link, the Gram
matrix U U^T has (-1)^(i+i') at (f, f') when f and f' are the faces of a
link top a that drop positions i and i', and 0 otherwise; its diagonal is
w_j.  Proof: (U U^T)[f, f'] sums U[f, a] U[f', a] over the link tops a,
and a term is nonzero only when a contains f union f'.  That union has
r+1 vertices, as many as a, so at most one top, the union itself, gives a
term; on the diagonal each top above f gives U[f, a]^2 = 1.  The down part
has the same shape: two distinct (r-1)-faces share at most one
(r-2)-face, their intersection h, so D^T W^-1 D has the one term
D[h, f] D[h, f'] / W(h) there.  Both parts are therefore scattered from
facet ids, entry by entry, and no matrix product runs: a link's matrix
does not depend on which other links share its stack, and
weighted_laplacian on a link complex, which assembles a stack of one
from garland_weights and its own integer Gram matrix U diag(w_up) U^T,
gives the same matrix bit for bit.

Every link of one ell has the same C(g, r) x C(g, r) shape, so the
Laplacians of consecutive link ids are assembled as one stack and
eigvalsh takes the whole stack at once.  A stack holds about
_BLOCK_DOUBLES doubles (128 KB), or one link where a single matrix is
larger: memory then stays within one block's arrays or one link's matrix
however many links there are, where unblocked stacks of every link of an
ell would grow with their number.

The links of a pure complex are pure: a face f of the link has tau union
f under some top face sigma of X, and sigma minus tau is a top face of
the link above f.  So X is checked for purity once, and the link step's
count table decides it.  Below the top X is complete, so it is pure when
it has no top faces or its top faces cover all C(n, k) faces of degree
k-1: every lower face lies in one of those.  The table already counts
those covers: a (k-1)-face rho holds an ell-face tau, as ell <= k-2, and
the entry of the link of tau at rho minus tau is the number of top faces
above rho.  So when X has top faces a 0 in the table is an uncovered
(k-1)-face, and none means X is pure.  The table names no face: on a 0
the link step returns None, which a sweep takes as a draw to redraw, and
only garland_check, which reports the refusal, runs check_pure to name
the first face under no top face.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, filterfalse, permutations
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    InvariantViolation,
    NotPure,
    ParameterOutOfRange,
    TooLarge,
)
from .fields import RATIONALS
from .homology import betti
from .simplexes import (
    Complex,
    Simplex,
    SkeletonComplex,
    _binomials,
    _facet_ranks,
    _relabelled_link_tops,
    _top_array,
    all_faces,
    face_count,
    iter_faces,
)

SIZE_LIMIT = 5000
# entries of the link step's table of top faces above each link face
COUNT_LIMIT = 10 ** 7

# doubles per stacked array of link Laplacians (module docstring)
_BLOCK_DOUBLES = 1 << 14


def check_pure(X: Complex) -> dict[Simplex, int]:
    """Raise NotPure unless every face lies under a top-dimensional face,
    naming the first face in all_faces order that does not.

    Returns, for each face, the number of top-dimensional faces above it.
    """
    if X.is_void or X.dim == -1:
        raise NotPure("complex has no vertices")
    # one chain over every (top, size), where a subfaces generator per top
    # face measured about 10% slower (CHANGES.md)
    counts = Counter(chain.from_iterable(
        combinations(sigma, r) for sigma in iter_faces(X, X.dim) for r in range(X.dim + 2)))
    missing = next(filterfalse(counts.__contains__, all_faces(X)), None)
    if missing is not None:
        raise NotPure(f"face {missing} is not under any top-dimensional face")
    return counts


def garland_weights(X: Complex) -> dict[Simplex, int]:
    """Face weights: (codimension)! times the number of top cofaces.

    The empty simplex gets (d+1)! times the number of top faces, which is
    the same rule applied in degree -1.  Requires a pure complex.
    """
    counts = check_pure(X)
    d = X.dim
    return {f: math.factorial(d - (len(f) - 1)) * c for f, c in counts.items()}


@dataclass(frozen=True, eq=False)
class WeightedLaplacian:
    j: int
    faces: tuple[Simplex, ...]
    matrix: np.ndarray


def _too_large(n_j: int, j: int) -> None:
    if n_j > SIZE_LIMIT:
        raise TooLarge(f"{n_j} faces in degree {j} exceeds limit {SIZE_LIMIT}")


def check_link_size(n: int, k: int, ell: int) -> None:
    """Refuse a degree-ell check on n vertices in dimension k before any work.

    Each link Laplacian of the check has one row per degree-(k-ell-2) face
    of a link on n-ell-1 vertices, C(n-ell-1, k-ell-1) of them.  The link
    step counts the tops above those faces of all C(n, ell+1) links in one
    table of C(n, k) C(k, ell+1) entries, one per (k-1)-face and
    ell-face of it, which also decides purity.  So the bounds need only
    (n, k, ell): neither X nor its links are built.
    """
    if not -1 <= ell <= k - 2:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k - 2}]")
    _too_large(math.comb(n - ell - 1, k - ell - 1), k - ell - 2)
    count = math.comb(n, k) * math.comb(k, ell + 1)
    if count > COUNT_LIMIT:
        raise TooLarge(f"a table of C({n}, {k}) C({k}, {ell + 1}) = {count} link face "
                       f"counts exceeds limit {COUNT_LIMIT}")


def _boundary(row_index: dict[Simplex, int], cols: Sequence[Simplex]) -> np.ndarray:
    """Dense boundary map: (-1)^i at (row of sigma minus sigma_i, column of sigma).

    The columns are nonempty faces of one dimension.
    """
    D = np.zeros((len(row_index), len(cols)))
    if cols:
        m = len(cols[0])
        rows = [row_index[f] for sigma in cols for f in combinations(sigma, m - 1)]
        # combinations drops the last position first
        signs = [-1.0 if i % 2 else 1.0 for i in reversed(range(m))]
        D[rows, np.repeat(np.arange(len(cols)), m)] = signs * len(cols)
    return D


DownPattern = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _down_pattern(D: np.ndarray) -> DownPattern:
    """Where D^T W^-1 D has entries, for a boundary map D.

    Returns the rows of each column in order, as an (m, j+1) array, and,
    for each ordered pair of distinct columns (a, b) sharing a row h, the
    arrays a, b, h and D[h, a] D[h, b].  A pair shares at most one row
    (module docstring), so no pair repeats.
    """
    h, a = np.nonzero(D)  # by row, then column
    rows_of = np.nonzero(D.T)[1].reshape(D.shape[1], -1)
    count = np.bincount(h, minlength=D.shape[0])
    first = np.cumsum(count) - count
    per = count[h]  # each entry pairs with every entry of its row
    left = np.repeat(np.arange(len(h)), per)
    right = first[h[left]] + np.arange(len(left)) - np.repeat(np.cumsum(per) - per, per)
    left, right = left[left != right], right[left != right]
    return (rows_of, a[left], a[right], h[left],
            D[h[left], a[left]] * D[h[left], a[right]])


def _assemble(down: DownPattern, w_below: np.ndarray, w_j: np.ndarray,
              G: np.ndarray) -> np.ndarray:
    """A stack of symmetrized Laplacians around degree j, entry by entry.

    w_below (B, rows of D) and w_j (B, m) are integer weights, and G the
    (B, m, m) integer Gram matrices U diag(w_up) U^T of the up parts, as
    floats; G is overwritten with the result.  Up part: G conjugated by
    the square roots of w_j.  Down part: the same for D^T diag(w_below)^-1 D,
    read from down = _down_pattern(D).  No matrix product runs, so each
    matrix is the same whatever else its stack holds.
    """
    rows_of, a, b, h, sign = down
    wj = w_j.astype(float)
    wb = w_below.astype(float)
    root = wj[:, :, None] * wj[:, None, :]
    np.sqrt(root, out=root)
    G /= root
    G[:, a, b] += sign * root[:, a, b] / wb[:, h]
    diag = np.zeros_like(wj)
    for p in range(rows_of.shape[1]):
        diag += wj / wb[:, rows_of[:, p]]
    i = np.arange(wj.shape[1])
    G[:, i, i] += diag
    return G


def weighted_laplacian(X: Complex, j: int) -> WeightedLaplacian:
    """Symmetrized degree-j Laplacian, augmented in degree 0.

    For j = 0 the row below is the empty simplex, so the augmentation is
    built in.  Up part present whenever j < dim.
    """
    if not 0 <= j <= X.dim:
        raise ParameterOutOfRange(f"no Laplacian in degree {j} for dim {X.dim}")
    _too_large(face_count(X, j), j)
    weights = garland_weights(X)
    below = tuple(iter_faces(X, j - 1))
    faces = tuple(iter_faces(X, j))
    above = tuple(iter_faces(X, j + 1))

    def w(fs):
        return np.array([weights[f] for f in fs], dtype=np.int64)

    D = _boundary({f: i for i, f in enumerate(below)}, faces)
    U = _boundary({f: i for i, f in enumerate(faces)}, above).astype(np.int64)
    G = (U * w(above)) @ U.T
    L = _assemble(_down_pattern(D), w(below)[None], w(faces)[None],
                  G[None].astype(float))
    return WeightedLaplacian(j=j, faces=faces, matrix=L[0])


def _link_laplacians(X: SkeletonComplex, ell: int) -> Optional[Iterator[np.ndarray]]:
    """Stacks of the degree-(r-1) Laplacians of lk(X, tau), r = k - ell - 1,
    or None when X is impure: it has top faces and a 0 among the counts
    (module docstring).

    The links come in lexicographic order of tau, each relabelled onto
    0..g-1 in order, g = n - ell - 1, and weighed from its own top faces;
    consecutive links share a stack of about _BLOCK_DOUBLES doubles
    (module docstring).  Every link has the same rows, columns and
    boundary map below degree r-1, so those are built once.
    """
    tops, n, size = _top_array(X), X.n, ell + 1
    r, g = X.k - ell - 1, n - size
    link, rest = _relabelled_link_tops(tops, n, ell)
    facet = _facet_ranks(rest, _binomials(g, r))
    m, n_links = math.comb(g, r), math.comb(n, size)
    count = np.bincount((link[:, None] * m + facet).ravel(),
                        minlength=n_links * m).reshape(n_links, m)
    if len(tops) and not count.all():
        return None

    faces = list(combinations(range(g), r))
    D = _boundary({f: i for i, f in enumerate(combinations(range(g), r - 1))}, faces)
    down = _down_pattern(D)
    # every link of a pure X has tops, unless X has none
    w_j = count if len(tops) else np.ones_like(count)
    w_below = w_j @ np.abs(D).astype(np.int64).T
    # the off-diagonal Gram entries: positions (i, i') of each link top
    pi, pj = np.array(list(permutations(range(r + 1), 2))).T
    sign = np.where((pi + pj) % 2, -1.0, 1.0)
    diag = np.arange(m)
    step = max(1, _BLOCK_DOUBLES // (m * m))

    def stacks():
        for lo in range(0, n_links, step):
            hi = min(lo + step, n_links)
            p, q = np.searchsorted(link, [lo, hi])
            G = np.zeros((hi - lo, m, m))
            G[:, diag, diag] = count[lo:hi]
            G[np.repeat(link[p:q] - lo, len(sign)), facet[p:q, pi].ravel(),
              facet[p:q, pj].ravel()] = np.tile(sign, q - p)
            yield _assemble(down, w_below[lo:hi], w_j[lo:hi], G)

    return stacks()


def _min_eigenvalues(L: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Laplacian of a stack; each must be
    positive semidefinite."""
    mu = np.linalg.eigvalsh(L)[:, 0]
    bad = np.flatnonzero(mu < -1e-9)
    if bad.size:
        raise InvariantViolation(f"Laplacian not positive semidefinite: {float(mu[bad[0]])}")
    return np.where(mu > 0.0, mu, 0.0)  # a numerically zero mu never prints as -0


GUARD_BAND = 1e-7


@dataclass(frozen=True)
class GarlandReport:
    """Spectral premise over all degree-ell links, plus the global conclusion."""

    n: int
    k: int
    ell: int
    threshold: Fraction
    entries: tuple[tuple[Simplex, float], ...]
    min_mu: float
    premise: str  # holds | fails | inconclusive
    betti_q: int  # rational Betti number one degree below the top

    @property
    def conclusion(self) -> bool:
        return self.betti_q == 0


def garland_check(X: SkeletonComplex, ell: int) -> GarlandReport:
    """Check the local spectral premise in degree ell and report the verdict.

    Premise: every degree-ell face has a link whose Laplacian one degree
    below its own top dimension has smallest eigenvalue above
    (ell+1)/k.  check_link_size bounds every link Laplacian before anything
    is enumerated.  Each link Laplacian is weighed from the link's own top
    faces, without building the link, and X is checked for purity once,
    from the same counts; an impure X raises check_pure's NotPure, which
    names its first face under no top face (module docstring).  Verdicts
    are numeric, so a guard band separates a clear pass from a margin too
    thin to trust.  When the premise holds, the rational Betti number of
    X in degree k-1 must vanish; that implication is asserted, not assumed.
    """
    report = _garland_if_pure(X, ell)
    if report is None:
        check_pure(X)
        raise InvariantViolation("(k-1)-faces uncovered but check_pure passed")
    return report


def _garland_if_pure(X: SkeletonComplex, ell: int) -> Optional[GarlandReport]:
    """garland_check's report, or None when the link step's counts find X
    impure; no face is named."""
    k = X.k
    check_link_size(X.n, k, ell)
    stacks = _link_laplacians(X, ell)
    if stacks is None:
        return None
    mus = np.concatenate([_min_eigenvalues(L) for L in stacks])
    entries = tuple(zip(combinations(range(X.n), ell + 1), mus.tolist()))
    min_mu = float(mus.min())
    thr = Fraction(ell + 1, k)
    thr_f = float(thr)
    if min_mu > thr_f + GUARD_BAND:
        premise = "holds"
    elif min_mu < thr_f - GUARD_BAND:
        premise = "fails"
    else:
        premise = "inconclusive"

    b = betti(X, k - 1, RATIONALS)
    if premise == "holds" and b != 0:
        raise InvariantViolation(
            f"spectral premise held but degree-{k-1} rational Betti number is {b}")
    return GarlandReport(
        n=X.n, k=k, ell=ell, threshold=thr, entries=entries,
        min_mu=min_mu, premise=premise, betti_q=b,
    )
