"""Checks and closed forms that only the tests use.

Each one reaches the library by another route than the one it checks:
boundary_matrix builds a boundary map as a dict over the faces that
iter_faces lists, where the library numbers rows by facet keys from the
top array; is_hypertree takes a built link complex and its Betti numbers, where the
library reads links from the top array; collapse_by_rescan finds the free
faces afresh after every removal, where the library keeps coface counts;
peel_one_at_a_time takes one unit pivot at a time in a drawn order, where
the library peels in vectorised rounds; span_vector packs a GF(2) vector
one entry at a time, where the library packs numpy arrays of faces;
kernel_basis runs the column route's core, linalg._reduce_low, in
residues or Fraction, where the library's spans and cycle supports
reduce fraction-free; least_in_component joins one edge
at a time by union-find, where the library hooks and jumps every edge at
once in numpy rounds; emit_skeleton_by_face writes one face a line from
tuples, where the library formats the top array at once;
emit_facets_by_scan keeps each face that no larger kept face contains,
where the library drops every face with one vertex missing from another;
sum_complex_betti_formula knows nothing of sum_complex; validate walks
every face, where the library checks only what is cheap.
"""
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from hypertree_lab import garland, linalg
from hypertree_lab.collapse import collapse
from hypertree_lab.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotPrime,
    NotSandwiched,
    ParameterOutOfRange,
    VertexOutOfRange,
)
from hypertree_lab.fields import FieldSpec, is_prime
from hypertree_lab.homology import betti
from hypertree_lab.simplexes import (
    Complex,
    GeneralComplex,
    Simplex,
    as_general,
    face_count,
    iter_faces,
    subfaces,
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


def span_vector(vec: dict, p: Optional[int]):
    """vec as IncrementalSpan(p) takes it: over GF(2) the int bitset of
    its odd entries, with bit j for index j; over any other field the
    sparse dict itself."""
    if p != 2:
        return vec
    return sum(1 << j for j, x in vec.items() if x % 2)


def kernel_basis(entries: dict, n_rows: int, n_cols: int, p: Optional[int] = None) -> list[dict]:
    """Basis of the right kernel, as sparse column-index -> coefficient
    maps, in residues mod p or in Fraction over Q.

    Each column runs through linalg._reduce_low tagged with its own index,
    below every row, which it moves up by n_cols: the tags take the same
    steps as the rows, and a column whose rows reduce to 0 is left keyed
    on its own tag, holding the combination of the columns that killed it.
    """
    tagged = {(n_cols + i, j): v for (i, j), v in entries.items()}
    tagged.update(((j, j), 1) for j in range(n_cols))
    basis, kernel = {}, []
    for col in linalg._columns(tagged, n_cols, p):
        low = linalg._reduce_low(col, basis, p)
        basis[low] = col
        if low < n_cols:
            kernel.append(col)
    return kernel


def emit_skeleton_by_face(X) -> str:
    """The skeleton file of X written one top face at a time, each a
    " ".join of its vertices, after the header."""
    out = [f"skeleton {X.n} {X.k}"]
    out.extend(" ".join(map(str, f)) for f in iter_faces(X, X.k))
    return "\n".join(out) + "\n"


def emit_facets_by_scan(X: GeneralComplex) -> str:
    """The facets file of X, its maximal faces found by the quadratic
    scan: the faces from the largest down, each kept unless a kept face
    contains it."""
    maximal: list[Simplex] = []
    for f in sorted(X.faces, key=len, reverse=True):
        if not any(set(f) < set(m) for m in maximal):
            maximal.append(f)
    return "".join([f"facets {X.n}\n"] + [" ".join(map(str, f)) + "\n" for f in sorted(maximal)])


def least_in_component(n_nodes: int, edges) -> list[int]:
    """The least node of the component of each node 0..n_nodes-1, by
    union-find: each edge joins its ends' two sets, and every set's
    representative is its least node."""
    parent = list(range(n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(n_nodes)]


def collapse_by_rescan(X):
    """collapse as a plain loop: walk every face for the free pairs, take
    the smallest free face and its one coface, and walk again."""
    G = as_general(X)
    faces = set(G.faces)
    log = []
    while True:
        count, over = {}, {}
        for sigma in faces:
            for eta in subfaces(sigma):
                if eta != sigma and eta:
                    count[eta] = count.get(eta, 0) + 1
                    over[eta] = sigma
        free = [eta for eta, c in count.items() if c == 1]
        if not free:
            break
        eta = min(free)
        faces.discard(eta)
        faces.discard(over[eta])
        log.append((eta, over[eta]))
    return GeneralComplex(G.ground, frozenset(faces)), tuple(log)


def peel_one_at_a_time(columns, rng):
    """Peel unit pivots one at a time: take a row met by one live column,
    with that column, or a column with one live row, with that row, drawn
    by rng.choice among all that apply, until none does.

    columns lists each column's rows as a set.  Returns the pivots taken,
    the columns left and the rows they meet."""
    live = {c: set(rows) for c, rows in enumerate(columns) if rows}
    pivots = 0
    while True:
        by_row = {}
        for c, rows in live.items():
            for x in rows:
                by_row.setdefault(x, []).append(c)
        moves = sorted([(0, x) for x, cs in by_row.items() if len(cs) == 1]
                       + [(1, c) for c, rows in live.items() if len(rows) == 1])
        if not moves:
            return pivots, set(live), set(by_row)
        kind, a = rng.choice(moves)
        pivots += 1
        if kind == 0:
            del live[by_row[a][0]]
            continue
        (x,) = live[a]
        for c in by_row[x]:
            live[c].discard(x)
            if not live[c]:
                del live[c]


def collapses_to_point(X) -> bool:
    core, _ = collapse(X)
    return len(core.faces) == 2 and core.dim == 0


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


def is_hypertree(Y, r: int, field: FieldSpec) -> HypertreeCheck:
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
    return HypertreeCheck(
        r=r,
        field_name=field.name,
        face_count_ok=face_count(Y, r) == comb(g - 1, r),
        tb_below=betti(Y, r - 1, field),
        tb_top=betti(Y, r, field),
    )


def laplacian_min_eigenvalue(X, j: int) -> float:
    """Smallest eigenvalue of the symmetrized degree-j Laplacian, by the
    library's eigen step on the Laplacian built from X itself.  Both are
    read from the garland module at call time, so a test may patch them."""
    return float(garland._min_eigenvalues(garland.weighted_laplacian(X, j).matrix[None])[0])


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


def interval_offset(spec) -> Optional[int]:
    """Start t when the residues of a SumComplexSpec are {t, t+1, ..., t+r} mod n."""
    size = len(spec.residues)
    for t in spec.residues:
        if all((t + i) % spec.n in spec.residues for i in range(size)):
            return t
    return None


def validate(G: GeneralComplex) -> None:
    """Full downward-closure check; GeneralComplex runs only the cheap
    checks on construction."""
    for f in G.faces:
        if any(a >= b for a, b in zip(f, f[1:])):
            raise DimensionMismatch(f"face {f} is not strictly increasing")
        if any(v not in G.ground for v in f):
            raise VertexOutOfRange(f"face {f} leaves the ground set")
        for g in combinations(f, len(f) - 1) if f else ():
            if g not in G.faces:
                raise DimensionMismatch(f"missing subface {g} of {f}")
