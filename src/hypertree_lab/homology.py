"""Boundary matrices, reduced Betti numbers, and hypertree testing.

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

Every face-level rank but those of point and graph links (below) goes
through _id_rank, which reads its boundary map from a facet-id table: for
each face sigma, the int ids of its facets sigma minus sigma_i, handed
out in order of first appearance.  Over Q it first takes the GF(2) rank
r2 of the same map and returns it when the map has degree at most 1
(graph incidence and augmentation maps are totally unimodular) or r2
meets r2 <= rank_Q <= min(f, rows touched, C(g-1, j)); else Q
elimination runs.

Before that, a cone lemma splits off the faces through one vertex, over
every field.  Take j-faces on a ground set V and a vertex v in V.  Every
boundary column is a cycle of the full simplex on V.  A (j-1)-cycle z
supported on faces through v is 0: write z = sum c_gamma (v * gamma) over
(j-2)-faces gamma not through v; the part of its boundary away from v is
sum +-c_gamma gamma, which must vanish, so every c_gamma is 0.  Deleting
the rows through v is therefore injective on the column space and keeps
the rank.  After it, the column of a face alpha through v has one entry,
in the row alpha minus v, and no other face through v shares that row.
So the rank is c + the rank of the other columns with those c rows
deleted, for c the number of faces through v.  Both callers hand the c
faces over as unit columns: _top_rank with v the least vertex of its
faces, link_columns with v the least vertex outside tau.

link_profile reads the link homology of a complex X between consecutive
skeleta without building a link.  The link of a degree-ell face tau is
again sandwiched: the complete (r-1)-skeleton on the g = n-ell-1 other
vertices plus the r-faces sigma minus tau for the top faces sigma above
tau, with r = k-ell-1.  Its reduced homology lives in degrees r-1 and r
only, and the rank of its top boundary map gives both Betti numbers:

    b_r     = f_tau - rank
    b_{r-1} = C(g, r) - rank of the complete degree-(r-1) map - rank

where f_tau counts the link's r-faces.  That top map is read off the
facet-id table of the top faces of X, by a +-1 scaling lemma.  Adding tau
back maps the facets of the link face alpha = sigma minus tau one to one
onto the facets of sigma through tau, so alpha's column is sigma's column
restricted to the positions of sigma outside tau.  Dropping a vertex v
gives the sign (-1)^j in the link, j its position in alpha, and (-1)^i in
X, i its position in sigma; i - j counts the vertices of tau below v,
which is c(alpha) - c(alpha minus v) for c(S) the number of pairs
t < s with t in tau and s in S.  So the two matrices differ by diagonal
+-1 factors on rows and columns and have the same rank over every field.
One walk over the table per ell groups the columns by tau, then one
_id_rank per link runs on the rows its columns touch.  The complete-layer
ranks are the closed form above, so b_{r-1} = C(g-1, r) - rank.

At ell = k-1 (r = 0) no table is needed.  The link of tau is its f_tau
points sigma minus tau over the empty face, and its top map is the
augmentation, whose columns are all the one row of the empty face: its
rank is min(f_tau, 1) over every field.  So one count of the k-subsets
of the top faces gives every f_tau, and b_{-1} = 1 - [f_tau > 0],
b_0 = f_tau - [f_tau > 0].

At ell = k-2 (r = 1) no table is needed either.  Each link is a graph:
the g points and the edges sigma minus tau, and its top map is the
graph's signed incidence map.  Over every field its rank is the number of
edges in a spanning forest, g minus the number of components: the
columns of a forest are independent, as a leaf's row meets just one of
them, and every other edge closes a cycle in the forest whose columns,
signed along the cycle, sum to 0.  _forest_rank counts the merges a
union-find makes over the edges (Tarjan, JACM 1975), which is that
number.

top_table holds the top faces of one SkeletonComplex in iter_faces(X, k)
order, which is sorted order, and their facet-id table.  link_columns and
the global top rank in _rank_cached both read it, so a complex checked at
every ell builds one table, not one per ell and one more for its Betti
numbers.  The order matters: facet ids are handed out by first
appearance, so sorted faces keep the ids of the global GF(2) bitsets
close together, where frozenset order widens them and raises the
ladder's peak memory.  The memo holds one entry: the callers run one
complex's link layer and global ranks back to back, and a longer memo
would only keep stale tables alive.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Iterable, NamedTuple, Optional

from .errors import InvariantViolation, NotSandwiched, ParameterOutOfRange
from .fields import FieldSpec
from .linalg import (
    IncrementalSpan,
    _columns,
    _gf2_reduce,
    kernel_basis,
    rank_by_rows,
)
from .simplexes import (
    Complex,
    Simplex,
    SkeletonComplex,
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


def facet_ids(faces: Iterable[Simplex]) -> list[tuple[int, ...]]:
    """The facet-id table of faces: per face sigma, the ids of sigma minus sigma_i.

    faces are nonempty sorted simplices.  Entry i of a face's tuple is the
    id of the facet that drops position i.  Ids are ints handed out in
    order of first appearance, so a facet shared by several faces has one
    id.
    """
    index: dict[Simplex, int] = {}
    setdefault = index.setdefault
    table = []
    for sigma in faces:
        # combinations drops the last position first
        ids = [setdefault(f, len(index)) for f in combinations(sigma, len(sigma) - 1)]
        ids.reverse()
        table.append(tuple(ids))
    return table


IdGroups = list[tuple[tuple[int, ...], list[tuple[int, ...]]]]


def _id_rank(groups: IdGroups, p: Optional[int], cap: int) -> int:
    """Rank of the boundary map spelled out by facet ids.

    groups holds (keep, cols) pairs: each col is a facet-id tuple, and its
    column has the entry (-1)^i in the row of id col[i] for each position
    i in keep.  A one-position group ((j,), cols) spells unit columns, one
    entry each, in the row of id col[j]: those rows are free pivots.  The
    rank is their number u (distinct ids) plus the rank of the other
    columns with the free rows deleted, and everything below runs on those
    other columns alone.  Rows are renumbered by first appearance among
    the kept ids, so a link's bitsets are as short as the rows it touches,
    not as long as the table.  Over GF(2) and Q each column is packed as a
    bitset over those rows and reduced by the GF(2) core.  Over Q that
    rank r2 is returned when the map has degree at most 1 (no keep longer
    than 2: graph incidence and augmentation maps are totally unimodular,
    and so is every row deletion of them, so the rank is the same over
    every field) or r2 meets the upper bound min(columns, rows touched,
    cap - u); else the fraction-free row route runs.  cap bounds the whole
    rank from the ambient simplex: C(g-1, j) for j-faces on g vertices.
    Odd p runs the row route at once.
    """
    rows: dict[int, int] = {}
    setdefault = rows.setdefault
    rest = []
    for keep, cols in groups:
        if len(keep) == 1:
            i, = keep
            for ids in cols:
                setdefault(ids[i], len(rows))
        else:
            rest.append((keep, cols))
    # the free rows hold the low numbers: a right shift drops them
    free = len(rows)
    if not rest:
        return free
    f = 0
    if p is None or p == 2:
        basis: dict[int, int] = {}
        for keep, cols in rest:
            f += len(cols)
            for ids in cols:
                v = 0
                for i in keep:
                    v |= 1 << setdefault(ids[i], len(rows))
                v = _gf2_reduce(basis, v >> free)
                if v:
                    basis[v.bit_length() - 1] = v
        r2 = len(basis)
        # r2 is at most each bound, so meeting one meets their min
        if (p == 2 or r2 in (f, len(rows) - free, cap - free)
                or max(len(keep) for keep, _ in rest) <= 2):
            return free + r2
    entries: dict[tuple[int, int], int] = {}
    c = 0
    for keep, cols in rest:
        for ids in cols:
            for i in keep:
                row = setdefault(ids[i], len(rows)) - free
                if row >= 0:
                    entries[(row, c)] = -1 if i % 2 else 1
            c += 1
    return free + rank_by_rows(entries, len(rows) - free, c, p)


def complete_rank(g: int, j: int) -> int:
    """Rank of the degree-j boundary map of the full simplex on g vertices.

    C(g-1, j) for 0 <= j <= g-1, else 0 (module docstring).
    """
    return comb(g - 1, j) if 0 <= j <= g - 1 else 0


def _top_rank(alphas: list[Simplex], table: list[tuple[int, ...]],
              p: Optional[int], g: int) -> int:
    """Rank of the boundary map on the faces alphas, rows only where touched.

    alphas are distinct j-faces on g vertices and table is their facet-id
    table; the rank is _id_rank over it.  The faces through v, the least
    vertex of alphas, are a cone group: each keeps only position 0, the
    row alpha minus v (module docstring).
    """
    if not alphas:
        return 0
    size = len(alphas[0])
    v = min(alpha[0] for alpha in alphas)
    cone, other = [], []
    for alpha, ids in zip(alphas, table):
        (cone if alpha[0] == v else other).append(ids)
    return _id_rank([((0,), cone), (tuple(range(size)), other)], p,
                    complete_rank(g, size - 1))


# one entry (module docstring): a complex's link layer and its global top
# rank run back to back, and no caller comes back to an earlier complex
@lru_cache(maxsize=1)
def top_table(X: SkeletonComplex) -> tuple[list[Simplex], list[tuple[int, ...]]]:
    """The top faces of X in iter_faces(X, k) order, and their facet-id table."""
    tops = sorted(X.top_faces)
    return tops, facet_ids(tops)


# keyed on the complex, so each entry keeps its complex alive: a few
# complexes' worth of entries is all a bound, trichotomy or sweep row reuses
@lru_cache(maxsize=8)
def _rank_cached(X: Complex, j: int, p: Optional[int]) -> int:
    g = X.n
    if face_count(X, j) == comb(g, j + 1):
        return complete_rank(g, j)
    if isinstance(X, SkeletonComplex):
        # every layer below the top is complete
        return _top_rank(*top_table(X), p, g)
    alphas = list(iter_faces(X, j))
    return _top_rank(alphas, facet_ids(alphas), p, g)


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


def link_columns(X: SkeletonComplex, ell: int) -> dict[Simplex, IdGroups]:
    """tau -> the top boundary map of lk(X, tau), as _id_rank groups.

    One facet-id table of the top faces of X, walked once: for each
    position pattern P of size ell+1 and top face sigma, tau = sigma[P] and
    sigma's column keeps the positions outside P.  Up to +-1 scaling of
    rows and columns this is the link's top boundary map (see the module
    docstring), save that the link faces through v, the least vertex
    outside tau, form a cone group that keeps only v's position, which
    keeps the rank by the cone lemma.  That position is the first kept
    one, a, and v lies in sigma minus tau exactly when sigma[a] == a, as
    then every vertex below sigma[a] is in tau.  A degree-ell face under
    no top face is absent.  The table is top_table's, shared with the
    global top rank of X.
    """
    k1 = X.k + 1
    keeps = [tuple(i for i in range(k1) if i not in P)
             for P in combinations(range(k1), ell + 1)]
    # the first kept position; k1 where nothing is kept, so never a cone
    firsts = [keep[0] if keep else k1 for keep in keeps]
    by_pattern = [defaultdict(list) for _ in keeps]
    cones = [defaultdict(list) for _ in keeps]
    for sigma, ids in zip(*top_table(X)):
        if sigma[0]:
            # sigma[a] > a for every a: no column of sigma is a cone column
            for cols, tau in zip(by_pattern, combinations(sigma, ell + 1)):
                cols[tau].append(ids)
            continue
        m = 1  # sigma[a] == a exactly for a < m
        while m < k1 and sigma[m] == m:
            m += 1
        for a, cols, cone, tau in zip(firsts, by_pattern, cones,
                                      combinations(sigma, ell + 1)):
            (cone if a < m else cols)[tau].append(ids)
    out: dict[Simplex, IdGroups] = {}
    for keep, a, cols, cone in zip(keeps, firsts, by_pattern, cones):
        for tau, c in cone.items():
            out.setdefault(tau, []).append(((a,), c))
        for tau, c in cols.items():
            out.setdefault(tau, []).append((keep, c))
    return out


def _forest_rank(edges: Iterable[Simplex]) -> int:
    """Rank of a graph's incidence map, over every field (module docstring).

    That is the number of merges a union-find makes over the edges.  parent
    holds only the vertices that are not roots; a walk to a root points
    each vertex it steps from at that vertex's grandparent (path halving).
    """
    parent: dict[int, int] = {}
    merges = 0
    for a, b in edges:
        while a in parent:
            up = parent[a]
            parent[a] = up = parent.get(up, up)
            a = up
        while b in parent:
            up = parent[b]
            parent[b] = up = parent.get(up, up)
            b = up
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def check_link_degree(k: int, ell: int) -> None:
    """Refuse a link degree outside [-1, k] for top dimension k."""
    if not -1 <= ell <= k:
        raise ParameterOutOfRange(f"degree {ell} must lie in [-1, {k}]")


def link_profile(X: SkeletonComplex, ell: int, field: FieldSpec) -> list[LinkBetti]:
    """Betti numbers b_{r-1}, b_r of the link of every degree-ell face of X.

    One entry per face in iter_faces(X, ell) order; ell may run from -1
    (the link of the empty face is X) to k (the link of a top face is the
    one-face complex).  Every other reduced Betti number of these links
    is 0.
    """
    check_link_degree(X.k, ell)
    p = field.p
    g = X.n - ell - 1
    r = X.k - ell - 1
    # every link has the complete (r-1)-skeleton on g vertices, so
    # b_{r-1} = C(g, r) - C(g-1, r-1) - rank = C(g-1, r) - rank, and
    # C(g-1, r) also caps the rank of the link's top map
    low = complete_rank(g, r)
    if r == 0:
        # f_tau points over the empty face: the top map is the
        # augmentation, of rank min(f_tau, 1) (module docstring)
        counts = Counter(chain.from_iterable(
            combinations(sigma, ell + 1) for sigma in X.top_faces))
        return [LinkBetti(tau, f, low - min(f, 1), f - min(f, 1))
                for tau, f in ((tau, counts[tau]) for tau in iter_faces(X, ell))]
    if r == 1:
        # every link is a graph on g vertices: its top map is the incidence
        # map, of rank g - components <= low over every field.  A link's
        # edges sigma minus tau are one flat list of their ends, not a
        # tuple each, which keeps the ladder's peak memory down
        ends: dict[Simplex, list[int]] = {}
        for sigma in X.top_faces:
            # complementing reverses lexicographic order, so the i-th
            # (ell+1)-subset of sigma pairs with the i-th last pair
            pairs = list(combinations(sigma, 2))
            pairs.reverse()
            for tau, edge in zip(combinations(sigma, ell + 1), pairs):
                ends.setdefault(tau, []).extend(edge)
        out = []
        for tau in iter_faces(X, ell):
            flat = ends.get(tau, ())
            f = len(flat) // 2
            it = iter(flat)
            rk = _forest_rank(zip(it, it))
            out.append(LinkBetti(tau, f, low - rk, f - rk))
        return out
    complete = comb(g, r + 1)
    links = link_columns(X, ell)
    out = []
    for tau in iter_faces(X, ell):
        groups = links.get(tau, ())
        f = sum(len(cols) for _, cols in groups)
        if not f:
            rk = 0
        elif f == complete:
            rk = low
        else:
            rk = _id_rank(groups, p, low)
        if low < rk:
            raise InvariantViolation(
                f"negative Betti number {low - rk} in degree {r - 1} of a link")
        out.append(LinkBetti(tau, f, low - rk, f - rk))
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


@dataclass(frozen=True)
class HypertreeCheck:
    """Outcome of testing whether a complex is an r-hypertree."""

    r: int
    field_name: str
    face_count_ok: bool
    tb_below: int
    tb_top: int

    @property
    def is_hypertree(self) -> bool:
        return self.tb_below == 0 and self.tb_top == 0

    def __bool__(self) -> bool:
        return self.is_hypertree


def is_hypertree(Y: Complex, r: int, field: FieldSpec) -> HypertreeCheck:
    """Test for an r-hypertree: full skeleton below, acyclic in degrees r-1, r.

    Y must contain the complete (r-1)-skeleton of its ground set and have
    no faces above degree r.  A hypertree on g vertices necessarily has
    exactly C(g-1, r) top faces; that count is reported as a diagnostic.
    """
    if Y.is_void:
        raise NotSandwiched("void complex cannot be a hypertree candidate")
    g = Y.n
    if Y.dim > r:
        raise NotSandwiched(f"dimension {Y.dim} exceeds {r}")
    for i in range(r):
        if face_count(Y, i) != comb(g, i + 1):
            raise NotSandwiched(f"degree-{i} layer is not complete on {g} vertices")
    count_ok = face_count(Y, r) == comb(g - 1, r)
    return HypertreeCheck(
        r=r,
        field_name=field.name,
        face_count_ok=count_ok,
        tb_below=betti(Y, r - 1, field),
        tb_top=betti(Y, r, field),
    )
