"""Weighted Laplacians of pure complexes and local spectral certificates.

The weight of a face is the number of top-dimensional faces above it,
scaled by a factorial of the codimension so that the weight of a face
equals the sum of the weights of the facets of any face directly above it.
Kernels of the resulting symmetrized Laplacians match reduced cohomology,
so strict positivity of the right eigenvalue in every small link forces
rational acyclicity one degree below the top.

Link weights are weights of X.  Let X be pure of dimension d with weights
W_X, and let tau be a face.  A face f of lk(X, tau) lies under the link's
top face sigma minus tau exactly when tau union f lies under the top face
sigma of X, so the top faces above f in the link and above tau union f in
X are in bijection.  The link's top faces have dimension d - |tau|, so the
codimension of f in the link, d - |tau| - dim f, is the codimension
d - dim(tau union f) of tau union f in X, and the factorials agree too:

    W_lk(f) = W_X(tau union f).

The same bijection shows that the links of a pure complex are pure: tau
union f lies under some top face sigma of X, and sigma minus tau is a top
face of the link above f.  garland_check therefore checks X for purity
once and reads every link Laplacian from X: a link of a SkeletonComplex
has the complete skeleton on the ground set minus tau below its top faces,
which are the sigma minus tau for the top faces sigma through tau.  Both
routes assemble their matrices with one helper, so a link Laplacian read
from X equals, bit for bit, the one weighted_laplacian builds from the
link complex.
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
from .homology import betti
from .simplexes import (
    Complex,
    Simplex,
    SkeletonComplex,
    all_faces,
    face_count,
    iter_faces,
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


def _link_laplacians(X: SkeletonComplex, ell: int,
                     weights: dict[Simplex, int]) -> Iterator[tuple[Simplex, np.ndarray]]:
    """(tau, degree-(r-1) Laplacian of lk(X, tau)) per ell-face tau, r = k - ell - 1.

    Reads everything from X and its weights (module docstring): the rows
    and columns are the (r-2)- and (r-1)-subsets of the ground set minus
    tau, the faces above are the sigma minus tau, and each link face f
    weighs W_X(tau union f).  Every link has the same boundary map below
    degree r-1 up to relabelling, so it is built once on 0..g-1.
    """
    n, r = X.n, X.k - ell - 1
    g = n - ell - 1
    local = {f: i for i, f in enumerate(combinations(range(g), r))}
    D = _boundary({f: i for i, f in enumerate(combinations(range(g), r - 1))}, tuple(local))
    through = X._tops_through
    for tau in combinations(range(n), ell + 1):
        tset = set(tau)
        rest = [v for v in range(n) if v not in tset]
        if tau:
            tops = [s for s in min((through.get(v, ()) for v in tau), key=len)
                    if tset.issubset(s)]
        else:
            tops = list(X.top_faces)
        tops.sort()
        pos = {v: i for i, v in enumerate(rest)}
        up = [tuple(pos[v] for v in s if v not in tset) for s in tops]
        yield tau, _assemble(
            D, [weights[tuple(sorted(tau + f))] for f in combinations(rest, r - 1)],
            [weights[tuple(sorted(tau + f))] for f in combinations(rest, r)],
            _boundary(local, up) if up else None, [weights[s] for s in tops])


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
    (ell+1)/k.  The size of every link Laplacian, C(n-ell-1, k-ell-1), is
    bounded before anything is enumerated.  X is checked for purity once;
    each link Laplacian is then read from X's own weights, without
    building the link (module docstring).  Verdicts are numeric, so a
    guard band separates a clear pass from a margin too thin to trust.
    When the premise holds, the rational Betti number of X in degree k-1
    must vanish; that implication is asserted, not assumed.
    """
    k = X.k
    if not -1 <= ell <= k - 2:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k - 2}]")
    _too_large(math.comb(X.n - ell - 1, k - ell - 1), k - ell - 2)
    weights = garland_weights(X)
    entries = tuple((tau, _min_eigenvalue(L))
                    for tau, L in _link_laplacians(X, ell, weights))
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
