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
number of link tops above it (its row count in the map U from the tops),
and an (r-2)-face h weighs |D| w_j, the sum of those counts over the f
above h, for D the map from the (r-1)-faces.  A link with no top face has
its (r-1)-faces as its tops, each of weight 1.  The sums are exact
integers.

The links of a pure complex are pure: a face f of the link has tau union
f under some top face sigma of X, and sigma minus tau is a top face of
the link above f.  garland_check therefore checks X for purity once.
Below the top X is complete, so it is pure when it has no top faces or
its top faces cover all C(n, k) faces of degree k-1: every lower face
lies in one of those.  The facet-id table of the top faces counts them,
and only a shortfall runs check_pure, which names the first face under
no top face.  Both the link route and weighted_laplacian on a link
complex assemble their matrices with one helper from equal integer
weights, so a link Laplacian read from X equals, bit for bit, the one
weighted_laplacian builds from garland_weights of the link.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    InvariantViolation,
    NotPure,
    ParameterOutOfRange,
    TooLarge,
)
from .fields import RATIONALS
from .homology import betti, top_table
from .simplexes import (
    Complex,
    Simplex,
    SkeletonComplex,
    all_faces,
    face_count,
    iter_faces,
    relabelled_link_tops,
    subfaces,
)

SIZE_LIMIT = 5000


def _top_faces(X: Complex) -> list[Simplex]:
    return sorted(iter_faces(X, X.dim))


def check_pure(X: Complex) -> dict[Simplex, int]:
    """Raise NotPure unless every face lies under a top-dimensional face.

    Returns, for each face, the number of top-dimensional faces above it.
    """
    if X.is_void or X.dim == -1:
        raise NotPure("complex has no vertices")
    counts: dict[Simplex, int] = {}
    for sigma in _top_faces(X):
        for f in subfaces(sigma):
            counts[f] = counts.get(f, 0) + 1
    for f in all_faces(X):
        if f not in counts:
            raise NotPure(f"face {f} is not under any top-dimensional face")
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
    of a link on n-ell-1 vertices, C(n-ell-1, k-ell-1) of them, so the
    bound needs only (n, k, ell): neither X nor its links are built.
    """
    if not -1 <= ell <= k - 2:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k - 2}]")
    _too_large(math.comb(n - ell - 1, k - ell - 1), k - ell - 2)


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


def _assemble(D: np.ndarray, w_below: list[int], w_j: list[int],
              U: Optional[np.ndarray], w_up: list[int]) -> np.ndarray:
    """The symmetrized Laplacian from the boundary maps around degree j.

    Down part: conjugate the boundary pairing D through the square roots
    of the weights.  Up part, when U is given: the same for the map from
    the faces above.
    """
    sqrt_wj = np.sqrt(np.array(w_j, dtype=float))
    E = D * sqrt_wj[None, :]
    L = E.T @ (E / np.array(w_below, dtype=float)[:, None])
    if U is not None:
        F = (U * np.sqrt(np.array(w_up, dtype=float))[None, :]) / sqrt_wj[:, None]
        L = L + F @ F.T
    return (L + L.T) / 2.0


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
    L = _assemble(_boundary({f: i for i, f in enumerate(below)}, faces),
                  [weights[f] for f in below], [weights[f] for f in faces],
                  _boundary({f: i for i, f in enumerate(faces)}, above) if above else None,
                  [weights[f] for f in above])
    return WeightedLaplacian(j=j, faces=faces, matrix=L)


def _check_skeleton_pure(X: SkeletonComplex) -> None:
    """Raise NotPure unless X's top faces cover its (k-1)-faces (module docstring).

    The facet ids of the top faces are handed out from 0 in order of first
    appearance, so the largest id counts the distinct (k-1)-faces covered.
    check_pure names the first uncovered face.
    """
    tops, table = top_table(X)
    if tops and max(map(max, table)) + 1 < math.comb(X.n, X.k):
        check_pure(X)
        raise InvariantViolation("(k-1)-faces uncovered but check_pure passed")


def _link_laplacians(X: SkeletonComplex, ell: int) -> Iterator[tuple[Simplex, np.ndarray]]:
    """(tau, degree-(r-1) Laplacian of lk(X, tau)) per ell-face tau, r = k - ell - 1.

    Each link is relabelled onto 0..g-1 in order, g = n - ell - 1, and
    weighs itself from its top faces (module docstring).  One walk over
    X's sorted top faces groups the link tops sigma minus tau by tau, so
    each tau's tops come in sorted order.  Every link has the same rows,
    columns and boundary map below degree r-1, so those are built once.
    """
    n, k = X.n, X.k
    r, size = k - ell - 1, ell + 1
    g = n - size
    local = {f: i for i, f in enumerate(combinations(range(g), r))}
    D = _boundary({f: i for i, f in enumerate(combinations(range(g), r - 1))}, tuple(local))
    abs_D = np.abs(D).astype(np.int64)
    ones = np.ones(len(local), dtype=np.int64)
    ups: dict[Simplex, list[Simplex]] = {tau: [] for tau in combinations(range(n), size)}
    for tau, a in relabelled_link_tops(top_table(X)[0], k, ell):
        ups[tau].append(a)
    for tau, up in ups.items():
        if up:
            U = _boundary(local, up)
            w_j = np.count_nonzero(U, axis=1)
        else:
            U, w_j = None, ones
        yield tau, _assemble(D, abs_D @ w_j, w_j, U, [1] * len(up))


def _min_eigenvalue(L: np.ndarray) -> float:
    """Smallest eigenvalue of a Laplacian, which must be positive semidefinite."""
    if L.size == 0:
        return math.inf
    mu = float(np.linalg.eigvalsh(L)[0])
    if mu < -1e-9:
        raise InvariantViolation(f"Laplacian not positive semidefinite: {mu}")
    return max(0.0, mu)  # a numerically zero mu never prints as -0


def laplacian_min_eigenvalue(X: Complex, j: int) -> float:
    """Smallest eigenvalue of the symmetrized degree-j Laplacian."""
    return _min_eigenvalue(weighted_laplacian(X, j).matrix)


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
    is enumerated.  X is checked for purity once from its (k-1)-layer;
    each link Laplacian is then weighed from the link's own top faces,
    without building the link (module docstring).  Verdicts are numeric, so a
    guard band separates a clear pass from a margin too thin to trust.
    When the premise holds, the rational Betti number of X in degree k-1
    must vanish; that implication is asserted, not assumed.
    """
    k = X.k
    check_link_size(X.n, k, ell)
    _check_skeleton_pure(X)
    entries = tuple((tau, _min_eigenvalue(L)) for tau, L in _link_laplacians(X, ell))
    min_mu = min((mu for _, mu in entries), default=math.inf)
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
