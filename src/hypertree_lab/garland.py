"""Weighted Laplacians of pure complexes and local spectral certificates.

The weight of a face is the number of top-dimensional faces above it,
scaled by a factorial of the codimension so that the weight of a face
equals the sum of the weights of the facets of any face directly above it.
Kernels of the resulting symmetrized Laplacians match reduced cohomology,
so strict positivity of the right eigenvalue in every small link forces
rational acyclicity one degree below the top.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvariantViolation,
    NotPure,
    ParameterOutOfRange,
    TooLarge,
)
from .fields import RATIONALS
from .homology import betti, boundary_matrix
from .simplexes import (
    Complex,
    Simplex,
    SkeletonComplex,
    all_faces,
    face_count,
    iter_faces,
    link,
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


def weighted_laplacian(X: Complex, j: int) -> WeightedLaplacian:
    """Symmetrized degree-j Laplacian, augmented in degree 0.

    Down part: conjugate the boundary pairing through the square roots of
    the weights; for j = 0 the row below is the empty simplex, so the
    augmentation is built in.  Up part present whenever j < dim.
    """
    if not 0 <= j <= X.dim:
        raise ParameterOutOfRange(f"no Laplacian in degree {j} for dim {X.dim}")
    weights = garland_weights(X)
    n_j = face_count(X, j)
    if n_j > SIZE_LIMIT:
        raise TooLarge(f"{n_j} faces in degree {j} exceeds limit {SIZE_LIMIT}")

    Bj = boundary_matrix(X, j)
    D = np.zeros((Bj.n_rows, Bj.n_cols))
    for (r, c), v in Bj.entries.items():
        D[r, c] = v
    w_j = np.array([weights[f] for f in Bj.col_faces], dtype=float)
    w_below = np.array([weights[f] for f in Bj.row_faces], dtype=float)
    sqrt_wj = np.sqrt(w_j)

    E = D * sqrt_wj[None, :]
    L = E.T @ (E / w_below[:, None])

    if face_count(X, j + 1) > 0:
        Bup = boundary_matrix(X, j + 1)
        U = np.zeros((Bup.n_rows, Bup.n_cols))
        for (r, c), v in Bup.entries.items():
            U[r, c] = v
        w_up = np.array([weights[f] for f in Bup.col_faces], dtype=float)
        F = (U * np.sqrt(w_up)[None, :]) / sqrt_wj[:, None]
        L = L + F @ F.T

    L = (L + L.T) / 2.0
    return WeightedLaplacian(j=j, faces=Bj.col_faces, matrix=L)


def laplacian_min_eigenvalue(X: Complex, j: int) -> float:
    """Smallest eigenvalue of the symmetrized degree-j Laplacian."""
    L = weighted_laplacian(X, j)
    if L.matrix.size == 0:
        return math.inf
    mu = float(np.linalg.eigvalsh(L.matrix)[0])
    if mu < -1e-9:
        raise InvariantViolation(f"Laplacian not positive semidefinite: {mu}")
    return max(0.0, mu)  # a numerically zero mu never prints as -0


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
    (ell+1)/k.  Verdicts are numeric, so a guard band separates a clear
    pass from a margin too thin to trust.  When the premise holds, the
    rational Betti number of X in degree k-1 must vanish; that implication
    is asserted, not assumed.
    """
    k = X.k
    if not -1 <= ell <= k - 2:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k - 2}]")
    check_pure(X)
    j_link = k - ell - 2
    entries = tuple((tau, laplacian_min_eigenvalue(link(X, tau), j_link))
                    for tau in sorted(iter_faces(X, ell)))
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
