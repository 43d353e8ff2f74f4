"""Boundary matrices, reduced Betti numbers, and link homology.

All homology here is reduced: the chain complex is augmented, so the empty
simplex spans a one-dimensional chain group in degree -1 and the complex
whose only face is the empty simplex has a single unit of homology there.
A nonvoid complex therefore has Betti number 0 in degree -1 as soon as it
has a vertex.

Ranks of boundary maps whose source level is a complete layer of the
simplex on the ground set come from a closed form, with no elimination.
The full simplex on g >= 1 vertices is a cone, so its augmented chain
complex is exact over every field.  Exactness at the C(g, j) faces of
degree j-1 gives rank d_{j-1} + rank d_j = C(g, j) for the degree-j map
d_j.  From rank d_{-1} = 0, induction on j with Pascal's rule
C(g, j) - C(g-1, j-1) = C(g-1, j) gives rank d_j = C(g-1, j) for
0 <= j <= g-1; no other degree has a nonzero map.  The tests check the
closed form against the column route.

Every other face-level rank reads an int array of faces, one row per
face, and numbers the rows of the boundary map with numpy.  Over GF(2)
and Q each column is packed into a Python int bitset and reduced by
IncrementalSpan(2).extend over the one XOR core, linalg._gf2_reduce.
Over Q that GF(2) rank r2 is returned when the map has degree at most 1
(below) or r2 meets the bound min(columns, rows touched, C(g-1, j)) for
j-faces on g vertices, as r2 <= rank_Q <= the bound; else, and at once
for odd p, linalg.rank_by_rows runs on the same rows.

In degree at most 1 the rank is the same over every field.  A column of
such a map has one entry, the augmentation, or the two entries +1 and -1
of an edge, so the map is a graph's signed incidence matrix or a
submatrix of one, such as the map with some rows deleted.  Such a matrix
is totally unimodular (Poincare 1900): every square submatrix has
determinant 0 or +-1.  A determinant +-1 is nonzero in every field, so
the largest nonsingular square submatrix, whose size is the rank, is the
same over every field, GF(2) included.

Before any packing, a cone lemma splits off the faces through one vertex,
over every field.  Take j-faces on a ground set V and a vertex v in V.
Every boundary column is a cycle of the full simplex on V.  A (j-1)-cycle
z supported on faces through v is 0: write z = sum c_gamma (v * gamma)
over (j-2)-faces gamma not through v; the part of its boundary away from
v is sum +-c_gamma gamma, which must vanish, so every c_gamma is 0.
Deleting the rows through v is therefore injective on the column space
and keeps the rank.  After it, the column of a face alpha through v has
one entry, in the row alpha minus v, and no other face through v shares
that row.  So the rank is c + the rank of the other columns with those c
rows deleted, for c the number of faces through v: those rows are free
pivots.  Every top map takes v = 0.

One route ranks every top boundary map, the global ones included: the
global map of a layer that is not complete is the top map of the link
of the empty face, the layer itself.  _rank_cached shifts the layer so
that its least vertex is 0 and hands it to _link_rows and _link_ranks as
one link.  _link_rows splits off the cone, the tops through 0, and
numbers each link's other rows in order of first appearance: column by
column, position by position.  Each column's bitset is then no wider
than the rows seen so far, and _link_ranks streams the bitsets into
each link's span.  On the saturated X of (n, k, ell) = (61, 3, 1), the
command construct xnkl peaked at 72 MB this way, and at 86 MB with each
link's rows numbered in lexicographic order; at (41, 4, 1) the peaks
were 310 and 381 MB (one fresh process each, two cores of an x86-64
host, Python 3.11).

link_profile reads the link homology of a complex X between consecutive
skeleta without building a link.  The link of a degree-ell face tau is
again sandwiched: the complete (r-1)-skeleton on the g = n-ell-1 other
vertices plus the r-faces sigma minus tau for the top faces sigma above
tau, with r = k-ell-1.  Its reduced homology lives in degrees r-1 and r
only, and the rank of its top boundary map gives both Betti numbers:

    b_r     = f_tau - rank
    b_{r-1} = C(g, r) - rank of the complete degree-(r-1) map - rank

where f_tau counts the link's r-faces.  The complete-layer ranks are the
closed form above, so b_{r-1} = C(g-1, r) - rank.  One walk over X's top
array gives every pair of a top face and a degree-ell face tau of it,
grouped by tau, with sigma minus tau relabelled onto 0..g-1 in order
(simplexes module docstring), which keeps the link's boundary map as it
is.  f_tau is one count of the tau ids.  A link top through the
relabelled vertex 0 is a unit column in the row of its facet without 0,
and the other columns drop those free rows.  The rows are numbered per
link, so its bitsets are no wider than the rows it touches.

At ell = k-1 (r = 0) no rank is taken.  The link of tau is its f_tau
points sigma minus tau over the empty face, and its top map is the
augmentation, whose columns are all the one row of the empty face: its
rank is min(f_tau, 1) over every field, read from the count.  At
ell = k-2 (r = 1) every link is a graph, so its GF(2) rank serves every
field (above).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import InvariantViolation, ParameterOutOfRange, TooLarge
from .fields import FieldSpec
from .linalg import (
    IncrementalSpan,
    _columns,
    kernel_basis,
    rank_by_rows,
)
from .randomness import FACE_BUDGET
from .simplexes import (
    Complex,
    Simplex,
    SkeletonComplex,
    _bitsets,
    _face_array,
    _facet_keys,
    _relabelled_link_tops,
    _top_array,
    face_count,
    iter_faces,
)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Sparse integer matrix with simplex labels on both axes."""

    n_rows: int
    n_cols: int
    entries: dict[tuple[int, int], int]
    row_faces: tuple[Simplex, ...]
    col_faces: tuple[Simplex, ...]


def boundary_matrix(X: Complex, j: int) -> SparseMatrix:
    """The degree-j boundary map; rows are (j-1)-faces, columns j-faces.

    Signs alternate with the position of the dropped vertex.  In degree 0
    the single row is the empty simplex and every entry is +1.
    """
    rows = tuple(iter_faces(X, j - 1))
    cols = tuple(iter_faces(X, j))
    row_index = {f: i for i, f in enumerate(rows)}
    entries: dict[tuple[int, int], int] = {}
    for c, sigma in enumerate(cols):
        for i in range(len(sigma)):
            face = sigma[:i] + sigma[i + 1:]
            entries[(row_index[face], c)] = -1 if i % 2 else 1
    return SparseMatrix(len(rows), len(cols), entries, rows, cols)


def _map_rank(pos: np.ndarray, bits: Optional[Iterable[int]], rows: int, cap: int,
              p: Optional[int]) -> int:
    """Rank of the map whose column a has (-1)^i in row pos[a, i] (module
    docstring).

    pos numbers the rows touched 0..rows-1, and -1 is a deleted row; cap
    bounds the rank from the ambient simplex.  bits are the columns as
    GF(2) bitsets, or None where the row route runs at once.
    """
    bound = min(len(pos), rows, cap)
    if bits is not None:
        r2 = IncrementalSpan(2).extend(bits)
        if p == 2 or r2 == bound or pos.shape[1] <= 2:
            return r2
    a, i = np.nonzero(pos >= 0)
    entries = dict(zip(zip(pos[a, i].tolist(), a.tolist()), np.where(i % 2, -1, 1).tolist()))
    return rank_by_rows(entries, rows, len(pos), p)


def complete_rank(g: int, j: int) -> int:
    """Rank of the degree-j boundary map of the full simplex on g vertices.

    C(g-1, j) for 0 <= j <= g-1, else 0 (module docstring).
    """
    return comb(g - 1, j) if 0 <= j <= g - 1 else 0


# keyed on the complex, so each entry keeps its complex alive: a few
# complexes' worth of entries is all a bound, trichotomy or sweep row reuses
@lru_cache(maxsize=8)
def _rank_cached(X: Complex, j: int, p: Optional[int]) -> int:
    g = X.n
    if face_count(X, j) == comb(g, j + 1):
        return complete_rank(g, j)
    if isinstance(X, SkeletonComplex):
        # every layer below the top is complete, and the top array is sorted
        faces = _top_array(X)
    else:
        # the ground set relabelled onto 0..g-1 in order
        faces = np.searchsorted(np.array(sorted(X.ground), dtype=np.int64),
                                _face_array(iter_faces(X, j), face_count(X, j), j + 1))
    if len(faces) and faces[0, 0]:
        # the cone split takes the least vertex, moved to 0
        faces = faces - faces[0, 0]
    # the layer is the one link of the empty face (module docstring)
    f = len(faces)
    return _link_ranks(*_link_rows(np.zeros(f, dtype=np.int64), faces, 1, g), [f], g, p)[0]


def boundary_rank(X: Complex, j: int, field: FieldSpec) -> int:
    """Rank of the degree-j boundary map of X over the given field."""
    if X.is_void or j < 0 or j > X.dim:
        return 0
    return _rank_cached(X, j, field.p)


def betti(X: Complex, j: int, field: FieldSpec) -> int:
    """Reduced Betti number of X in degree j."""
    if X.is_void or j < -1 or j > X.dim:
        return 0
    f_j = face_count(X, j) if j >= 0 else 1
    b = f_j - boundary_rank(X, j, field) - boundary_rank(X, j + 1, field)
    if b < 0:
        raise InvariantViolation(f"negative Betti number {b} in degree {j}")
    return b


def betti_table(X: Complex, field: FieldSpec) -> dict[int, int]:
    """Reduced Betti numbers in every degree from -1 up to dim."""
    if X.is_void:
        return {}
    out = {}
    for j in range(-1, X.dim + 1):
        out[j] = betti(X, j, field)
    return out


class LinkBetti(NamedTuple):
    """Homology of the link of one degree-ell face, r = k - ell - 1."""

    tau: Simplex
    f_top: int   # r-faces of the link
    below: int   # reduced Betti number in degree r-1
    top: int     # reduced Betti number in degree r


def check_link_degree(n: int, k: int, ell: int) -> None:
    """Refuse a link degree outside [-1, k] for top dimension k, or, below
    k, more than FACE_BUDGET links of faces on n vertices to walk."""
    if not -1 <= ell <= k:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k}]")
    count = comb(n, ell + 1)
    if ell < k and count > FACE_BUDGET:
        raise TooLarge(f"C({n}, {ell + 1}) = {count} links "
                       f"exceeds the budget of {FACE_BUDGET}")


def _link_rows(link: np.ndarray, rest: np.ndarray, n_links: int,
               g: int) -> tuple[np.ndarray, list[int], list[int]]:
    """The rows of every link's top boundary map, numbered per link.

    link and rest are _relabelled_link_tops of X, for links on 0..g-1
    (module docstring); the global map is the one link of the empty face.
    Returns pos, the rows of the tops avoiding 0, -1 for a free row,
    grouped by link from at[t] to at[t+1], and rows[t], the number of
    other rows touched, which each link numbers in order of first
    appearance, free rows first.
    """
    r = rest.shape[1] - 1
    keys = _facet_keys(rest, g)
    cone = rest[:, 0] == 0
    c = int(np.count_nonzero(cone))
    link_nc = link[~cone]
    # one key per (link, row) pair, the free rows of the cone columns first
    keys += link[:, None] * (int(keys.max(initial=0)) + 1)
    pairs = np.concatenate([keys[:, 0][cone], keys[~cone].ravel()])
    uniq, inv = np.unique(pairs, return_inverse=True)
    first = np.full(len(uniq), len(pairs))
    np.minimum.at(first, inv, np.arange(len(pairs)))
    # seen[i]: the rows first met before pair i, the c free rows among them
    seen = np.zeros(len(pairs) + 1, dtype=np.int64)
    seen[first + 1] = 1
    np.cumsum(seen, out=seen)
    at = np.searchsorted(link_nc, np.arange(n_links + 1))
    start = seen[c + (r + 1) * at]  # at each link's first pair
    met = first[inv[c:]].reshape(-1, r + 1)
    return (np.where(met < c, -1, seen[met] - start[link_nc][:, None]),
            at.tolist(), np.diff(start).tolist())


def _link_ranks(pos: np.ndarray, at: list[int], rows: list[int], f: list[int],
                g: int, p: Optional[int]) -> list[int]:
    """Rank of the top boundary map of every link, from _link_rows and the
    number f[t] of each link's tops.

    The tops of a link that pos leaves out pass through 0, one free row
    each.  The GF(2) bitsets are packed over GF(2) and Q, and over every
    field in degree at most 1; else the row route runs at once.  Every
    link takes this one route: a link with no tops has no columns, and in
    a complete link every row avoiding 0 is the free row of a cone top,
    so no column keeps a live row and the rank is C(g-1, r).
    """
    r = pos.shape[1] - 1
    low = complete_rank(g, r)
    bits = _bitsets(pos, max(rows, default=0)) if p in (None, 2) or r <= 1 else None
    out = []
    for t, (ft, w) in enumerate(zip(f, rows)):
        lo, hi = at[t], at[t + 1]
        cols = None if bits is None else islice(bits, hi - lo)
        u = ft - (hi - lo)
        out.append(u + _map_rank(pos[lo:hi], cols, w, low - u, p))
    return out


def link_profile(X: SkeletonComplex, ell: int, field: FieldSpec) -> list[LinkBetti]:
    """Betti numbers b_{r-1}, b_r of the link of every degree-ell face of X.

    One entry per face in iter_faces(X, ell) order; ell may run from -1
    (the link of the empty face is X) to k (the link of a top face is the
    one-face complex).  Every other reduced Betti number of these links
    is 0.
    """
    check_link_degree(X.n, X.k, ell)
    taus = list(iter_faces(X, ell))
    r = X.k - ell - 1
    if r < 0:
        # the link of a top face is the empty face alone
        return [LinkBetti(tau, 1, 0, 1) for tau in taus]
    g = X.n - ell - 1
    # every link has the complete (r-1)-skeleton on g vertices, so
    # b_{r-1} = C(g, r) - C(g-1, r-1) - rank = C(g-1, r) - rank, and
    # C(g-1, r) also caps the rank of the link's top map
    low = complete_rank(g, r)
    link, rest = _relabelled_link_tops(_top_array(X), X.n, ell)
    f = np.bincount(link, minlength=len(taus)).tolist()
    if r == 0:
        # the top map is the augmentation, of rank min(f_tau, 1)
        ranks = [min(ft, 1) for ft in f]
    else:
        numbered = _link_rows(link, rest, len(taus), g)
        del link, rest  # the walk's arrays go before the columns are packed
        ranks = _link_ranks(*numbered, f, g, field.p)
    out = []
    for tau, ft, rk in zip(taus, f, ranks):
        if low < rk:
            raise InvariantViolation(
                f"negative Betti number {low - rk} in degree {r - 1} of a link")
        out.append(LinkBetti(tau, ft, low - rk, ft - rk))
    return out


def cycle_basis(X: Complex, j: int, field: FieldSpec) -> list[dict[Simplex, object]]:
    """Chains representing a basis of degree-j homology.

    Kernel vectors of the degree-j boundary map are filtered against the
    image of the next boundary map: a representative is kept exactly when
    it enlarges the span of that image plus the representatives already
    accepted.  The number kept must equal the Betti number.
    """
    if X.is_void or j < -1 or j > X.dim:
        return []
    p = field.p
    Mj = boundary_matrix(X, j)
    kern = kernel_basis(Mj.entries, Mj.n_rows, Mj.n_cols, p)

    span = IncrementalSpan(p)
    if j + 1 <= X.dim:
        Mup = boundary_matrix(X, j + 1)
        # rows of the upper map and columns of Mj list the j-faces in the
        # same lexicographic order, so indices line up
        for vec in _columns(Mup.entries, Mup.n_cols, p):
            span.add(vec)

    reps: list[dict[Simplex, object]] = []
    for vec in kern:
        if span.add(vec):
            reps.append({Mj.col_faces[t]: coef for t, coef in sorted(vec.items())})
    expected = betti(X, j, field)
    if len(reps) != expected:
        raise InvariantViolation(
            f"cycle basis size {len(reps)} != Betti number {expected} in degree {j}")
    return reps

