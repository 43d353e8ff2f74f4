"""Simplicial complexes and the local subcomplex operators.

Two representations are used.  SkeletonComplex models a complex squeezed
between two consecutive skeleta of the full simplex on n vertices: only the
top-dimensional faces are stored and the complete lower skeleton is implied,
enumerated combinatorially on demand and never materialized.  GeneralComplex
stores an explicit downward-closed face set over an explicit ground vertex
set; a link lives on a subset of the original vertices, so the ground set
is kept rather than a bare vertex count.

Simplices are strictly increasing tuples of vertex ids; the empty tuple is
the empty simplex of dimension -1.  The complex whose only face is the empty
simplex is distinct from the void complex with no faces at all.

The numpy walks over top faces number faces by lexicographic rank.  Among
the s-subsets of 0..N-1 in lexicographic order, the increasing subset
c_0 < ... < c_{s-1} has rank

    C(N, s) - 1 - sum_i C(N-1-c_i, s-i).

Proof: a subset after c first differs from c at some position i, where it
is larger; its entries from position i on form any (s-i)-subset of the
N-1-c_i vertices above c_i.  So C(N-1-c_i, s-i) subsets come after c with
their first difference at i, and the rank is C(N, s) - 1 less all of
them.  Every term is at most C(N, s), so the ranks are exact in int64
whenever C(N, s) is.

A SkeletonComplex stores its top faces as one C-contiguous, read-only
int64 (f, k+1) array, its distinct rows in lexicographic order, whatever
order and repeats the input had.  Equality and hashing go by n, k and the
face set, which that one order makes the array's bytes.  The stored
array is the one store the library reads: the walks, the ranks, the
writer and remove_top_face's membership test read it as stored, and
producers hand the constructor arrays or lists, which it checks, sorts
and de-duplicates, never sets of face tuples.  .top_faces is a frozenset
view, built on first use, for contains, repr and callers outside the
library.

For each position pattern P of size ell+1, tau = sigma[P] is a link id,
the rank of tau among the (ell+1)-subsets of n, and sigma minus tau is a
top face of lk(X, tau).  The link lives on the ground set minus tau,
relabelled onto 0..g-1 in order, g = n-ell-1: each vertex of sigma minus
tau moves down by the number of positions of P below its own.

_link_pairs walks those pairs pattern by pattern with no sort.  Its
consumers only count, index or number by the link ids: the link ranks
and Betti numbers of homology, the bounds' lookups of the faces inside a
top face, and the lexicographic picks of constructions._saturate_links
where every link is a graph, which label the components of all links at
once.  _relabelled_link_tops sorts the same pairs by tau id, for the
callers that need each link's tops side by side: the Laplacian stacks of
garland._link_laplacians, which cut runs of consecutive links into
blocks, and constructions._saturate_links for links of dimension 2 and
up in lexicographic order, whose closed form reads each link's tops as
one contiguous span, and for every shuffled order, whose greedy scans
each link's candidates against its own tops.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations
from math import comb
from operator import ge
from typing import Iterable, Iterator, NoReturn, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    FaceNotInComplex,
    NotSandwiched,
    TooLarge,
    VertexOutOfRange,
)

Simplex = tuple[int, ...]
FVector = tuple[int, ...]

EMPTY_SIMPLEX: Simplex = ()

# candidate k-faces a random draw, links a walk, or faces collapse or
# closure may enumerate, and vertices a facets header may declare
FACE_BUDGET = 10 ** 6

# dim of the void complex (no faces, not even the empty one)
VOID_DIM = -2


def make_simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex ids into a sorted simplex tuple."""
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise DimensionMismatch(f"duplicate vertex {a} in simplex {vs}")
    if vs and vs[0] < 0:
        raise VertexOutOfRange(f"negative vertex id in {vs}")
    return vs


def subfaces(sigma: Simplex) -> Iterator[Simplex]:
    """Every face of sigma, from the empty simplex up to sigma itself."""
    for r in range(len(sigma) + 1):
        yield from combinations(sigma, r)


class SkeletonComplex:
    """Complex with full (k-1)-skeleton on [n] plus the given k-faces.

    top_faces is an (f, k+1) integer array or any iterable of vertex
    tuples, in any order and with repeats dropped; it is stored as one
    sorted array (module docstring).  Every face is checked at once on
    the array; only a failure runs the per-face loop, which names the
    first bad face in the input's order.
    """

    def __init__(self, n: int, k: int, top_faces: Union[np.ndarray, Iterable[Simplex]]):
        if not 0 <= k <= n - 1:
            raise DimensionMismatch(f"top dimension {k} invalid for n={n}")
        tops = _stored_tops(n, k, top_faces)
        tops.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_tops", tops)

    def __setattr__(self, name, value):
        raise AttributeError(f"SkeletonComplex is immutable: cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) \
            and np.array_equal(self._tops, other._tops)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SkeletonComplex(n={self.n!r}, k={self.k!r}, top_faces={self.top_faces!r})"

    def __reduce__(self):
        # a copy or unpickled complex goes through the constructor, so its
        # array is its own and read-only
        return SkeletonComplex, (self.n, self.k, self._tops)

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.k, self._tops.tobytes()))

    @cached_property
    def top_faces(self) -> frozenset[Simplex]:
        return frozenset(map(tuple, self._tops.tolist()))

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @property
    def dim(self) -> int:
        return self.k if len(self._tops) else self.k - 1

    @property
    def is_void(self) -> bool:
        return False


def _stored_tops(n: int, k: int, top_faces: Union[np.ndarray, Iterable[Simplex]]
                 ) -> np.ndarray:
    """top_faces checked and stored as SkeletonComplex keeps them: one
    C-contiguous int64 (f, k+1) array of distinct rows in lexicographic
    order."""
    size = k + 1
    faces = top_faces if isinstance(top_faces, np.ndarray) else list(top_faces)
    try:
        tops = np.asarray(faces) if len(faces) else np.empty((0, size), dtype=np.int64)
    except (TypeError, ValueError, OverflowError):  # e.g. faces of several sizes
        tops = None
    if tops is None or tops.dtype.kind not in "biu" or tops.shape[1:] != (size,):
        _first_bad_face(n, k, faces)
    tops = tops.astype(np.int64, copy=False)
    if len(tops) and not (tops[:, 0].min() >= 0 and tops[:, -1].max() < n
                          and (tops[:, 1:] > tops[:, :-1]).all()):
        _first_bad_face(n, k, faces)
    # rows in strictly increasing lexicographic order already, or sorted
    # with repeats dropped; an array of the caller's is checked where it
    # is, and the one copy or gather of it is the stored array
    prev, row = tops[:-1], tops[1:]
    after, tie = np.zeros(len(row), dtype=bool), np.ones(len(row), dtype=bool)
    for c in range(size):
        after |= tie & (row[:, c] > prev[:, c])
        tie &= row[:, c] == prev[:, c]
    if after.all():
        return np.array(tops, order="C") if isinstance(faces, np.ndarray) else tops
    order = np.lexsort(tops.T[::-1])
    tie = np.logical_and.reduce([np.diff(col[order]) == 0 for col in tops.T])
    order = order[np.insert(~tie, 0, True)]
    return tops[order]


def _first_bad_face(n: int, k: int, faces) -> NoReturn:
    """Raise the error of the first face, in the order of faces, that is
    not a strictly increasing tuple of k+1 vertices of 0..n-1; a TypeError
    when no face fails those checks, as when a vertex is a float."""
    size = k + 1
    if isinstance(faces, np.ndarray):
        faces = map(tuple, faces.tolist()) if faces.ndim == 2 else faces.tolist()
    for sigma in faces:
        if len(sigma) != size:
            raise DimensionMismatch(f"face {sigma} does not have dimension {k}")
        if min(sigma) < 0 or max(sigma) >= n:
            raise VertexOutOfRange(f"face {sigma} leaves [0, {n})")
        if any(map(ge, sigma, sigma[1:])):
            raise DimensionMismatch(f"face {sigma} is not strictly increasing")
    raise TypeError("top faces must be tuples of int64 vertex ids")


@dataclass(frozen=True)
class GeneralComplex:
    """Explicit downward-closed face set over an explicit ground set."""

    ground: frozenset[int]
    faces: frozenset[Simplex]

    def __post_init__(self):
        if self.faces and EMPTY_SIMPLEX not in self.faces:
            raise DimensionMismatch("nonvoid complex must contain the empty simplex")

    @property
    def n(self) -> int:
        return len(self.ground)

    @cached_property
    def dim(self) -> int:
        return max(self._by_dim, default=VOID_DIM)

    @property
    def is_void(self) -> bool:
        return not self.faces

    @cached_property
    def _by_dim(self) -> dict[int, frozenset[Simplex]]:
        out: dict[int, set[Simplex]] = {}
        for f in self.faces:
            out.setdefault(len(f) - 1, set()).add(f)
        return {d: frozenset(s) for d, s in out.items()}


Complex = Union[SkeletonComplex, GeneralComplex]

VOID = GeneralComplex(frozenset(), frozenset())


def from_top_faces(n: int, k: int, faces: Iterable[Iterable[int]]) -> SkeletonComplex:
    """Build the complex with full (k-1)-skeleton and exactly these k-faces.

    Each face is sorted and checked in input order; the constructor drops
    repeats.
    """
    tops = []
    for f in faces:
        sigma = make_simplex(f)
        if len(sigma) != k + 1:
            raise DimensionMismatch(f"face {sigma} does not have dimension {k}")
        tops.append(sigma)
    return SkeletonComplex(n, k, tops)


def closure(facets: Iterable[Iterable[int]], n: int) -> GeneralComplex:
    """Downward closure of the given facets on ground set [0, n).

    A facet of d vertices has 2^d faces, so more than FACE_BUDGET faces,
    that sum over the facets, is refused before any is enumerated.
    """
    facets = [make_simplex(f) for f in facets]
    count = sum(1 << len(sigma) for sigma in facets)
    if count > FACE_BUDGET:
        raise TooLarge(f"{count} faces, 2^d for each facet of d vertices, "
                       f"exceed the budget of {FACE_BUDGET}")
    faces: set[Simplex] = set()
    for sigma in facets:
        if any(v >= n for v in sigma):
            raise VertexOutOfRange(f"facet {sigma} leaves [0, {n})")
        faces.update(subfaces(sigma))
    return GeneralComplex(frozenset(range(n)), frozenset(faces))


def contains(X: Complex, sigma: Simplex) -> bool:
    if isinstance(X, SkeletonComplex):
        if len(sigma) > X.k + 1 or any(not 0 <= v < X.n for v in sigma):
            return False
        if len(sigma) == X.k + 1:
            return sigma in X.top_faces
        return True
    return sigma in X.faces


def iter_faces(X: Complex, j: int) -> Iterator[Simplex]:
    """Faces of dimension j, in lexicographic order."""
    if isinstance(X, SkeletonComplex):
        if j == -1:
            yield EMPTY_SIMPLEX
        elif j < -1 or j > X.dim:
            return
        elif j < X.k:
            yield from combinations(range(X.n), j + 1)
        else:
            yield from map(tuple, X._tops.tolist())
    else:
        yield from sorted(X._by_dim.get(j, ()))


def faces(X: Complex, j: int) -> frozenset[Simplex]:
    return frozenset(iter_faces(X, j))


def face_count(X: Complex, j: int) -> int:
    if isinstance(X, SkeletonComplex):
        if j == -1:
            return 1
        if j < -1 or j > X.dim:
            return 0
        if j < X.k:
            return comb(X.n, j + 1)
        return len(X._tops)
    if j == -1:
        return 0 if X.is_void else 1
    return len(X._by_dim.get(j, ()))


def all_faces(X: Complex) -> Iterator[Simplex]:
    """Every face of X including the empty simplex (if X is nonvoid)."""
    if isinstance(X, SkeletonComplex):
        for j in range(-1, X.dim + 1):
            yield from iter_faces(X, j)
    else:
        yield from X.faces


def f_vector(X: Complex) -> FVector:
    """Counts (f_0, ..., f_dim); empty tuple for dim < 0."""
    return tuple(face_count(X, j) for j in range(0, max(X.dim, -1) + 1))


def as_general(X: Complex) -> GeneralComplex:
    if isinstance(X, GeneralComplex):
        return X
    return GeneralComplex(X.ground, frozenset(all_faces(X)))


def link(X: Complex, tau: Iterable[int]) -> GeneralComplex:
    """Faces disjoint from tau whose union with tau lies in X.

    The result lives on the ground set of X minus tau.  The link of a facet
    is the one-face complex {empty simplex}, not the void complex.  One
    scan over every face of X serves both kinds of complex.
    """
    t = make_simplex(tau)
    if not contains(X, t):
        raise FaceNotInComplex(f"{t} is not a face")
    tset = set(t)
    out = {tuple(v for v in sigma if v not in tset)
           for sigma in all_faces(X) if tset.issubset(sigma)}
    return GeneralComplex(X.ground - tset, frozenset(out))


def _binomials(N: int, s: int) -> np.ndarray:
    """The binomials that ranks of s-subsets of 0..N-1 read, as int64.

    Entry (x, y) is C(x, y) for y <= s and x - y <= N - s, and 0 elsewhere.
    The rank formula reads only those, and each is at most C(N, s), so the
    table holds in int64 whenever C(N, s) does, even where C(N, N/2) would
    not.
    """
    out = np.zeros((N + 1, s + 1), dtype=np.int64)
    col = [1] * (N - s + 1)  # C(y + d, y) for d = 0..N-s, here at y = 0
    for y in range(s + 1):
        if y:
            col = list(accumulate(col))  # the hockey-stick identity
        out[y:y + len(col), y] = col
    return out


def _lex_ranks(faces: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Rank of each increasing row among the s-subsets of 0..N-1, in
    lexicographic order (module docstring); faces has shape (f, s) and
    binom is _binomials(N, s)."""
    N, s = len(binom) - 1, faces.shape[1]
    terms = sum((binom[N - 1 - faces[:, i], s - i] for i in range(s)),
                np.zeros(len(faces), dtype=np.int64))
    return binom[N, s] - 1 - terms


def _lex_unrank(ranks: np.ndarray, N: int, s: int) -> np.ndarray:
    """The s-subsets of 0..N-1 with the given lexicographic ranks, as an
    (f, s) int64 array: the inverse of _lex_ranks.

    R = C(N, s) - 1 - rank is sum_i C(x_i, s-i) with x_i = N-1-c_i
    strictly decreasing, R's representation in the combinatorial number
    system, so x_0 is the largest x with C(x, s) <= R, and so on down
    R - C(x_0, s) (module docstring).  Position i reads column y = s-i of
    _binomials(N, s) from x = y-1 to N-s+y-1, the range x_i can take,
    where the column strictly increases from C(y-1, y) = 0: one
    searchsorted per position.
    """
    binom = _binomials(N, s)
    rest = binom[N, s] - 1 - np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(rest), s), dtype=np.int64)
    for i in range(s):
        y = s - i
        column = binom[y - 1:N - s + y, y]
        x = np.searchsorted(column, rest, side="right") + y - 2
        rest = rest - binom[x, y]
        out[:, i] = N - 1 - x
    return out


def _face_array(faces: Iterable[Simplex], f: int, size: int) -> np.ndarray:
    """The f faces, each of size vertices, as one (f, size) int array in their order."""
    return np.fromiter(chain.from_iterable(faces), dtype=np.int64,
                       count=f * size).reshape(f, size)


def _top_array(X: SkeletonComplex) -> np.ndarray:
    """X's top faces as stored: a read-only int64 (f, k+1) array, its
    distinct rows in lexicographic order."""
    return X._tops


def _facet_ranks(tops: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Column i: the rank of each row minus its position i, for rows of
    s+1 vertices; binom is _binomials(N, s).  Vertex t of a row sits at
    position t of the facets that drop a later position and at t-1 of the
    others, so each facet's sum in the rank formula is two running sums.
    """
    f, s1 = tops.shape
    N, s = len(binom) - 1, s1 - 1
    x = N - 1 - tops
    out = np.empty((f, s1), dtype=np.int64)
    before = 0  # vertices t < i, at position t
    after = sum(binom[x[:, t], s + 1 - t] for t in range(1, s1))  # t > i, at t-1
    for i in range(s1):
        if i:
            after = after - binom[x[:, i], s + 1 - i]
        out[:, i] = binom[N, s] - 1 - before - after
        before = before + binom[x[:, i], s - i]
    return out


def _facet_keys(tops: np.ndarray, N: int) -> np.ndarray:
    """Column i: an int64 key of each row minus its position i, for rows
    of s+1 vertices of 0..N-1.

    A smaller facet gets a smaller key: its lexicographic rank where
    C(N, s) < 2^31, else its index among the distinct facets, which needs
    no binomial.  Either way a key times a count below 2^32 fits in int64.
    The rank is far cheaper: 5 ms against 0.31 s for np.unique on the
    build_X_nkl ladder's 42 link walks (best of 25, x86-64, Python 3.11).
    """
    f, s1 = tops.shape
    if comb(N, s1 - 1) < 1 << 31:
        return _facet_ranks(tops, _binomials(N, s1 - 1))
    facets = np.stack([np.delete(tops, i, axis=1) for i in range(s1)], axis=1)
    _, inv = np.unique(facets.reshape(f * s1, s1 - 1), axis=0, return_inverse=True)
    return inv.reshape(f, s1)


# widest bitsets packed from a table of 1 << b (about width^2/16 bytes,
# 64 KB here, as wide as every link row of the README's ladder), and the
# rows packed at a time, which bounds the objects in flight
_TABLE_BITS, _PACK_ROWS = 1 << 10, 1 << 10


def _bitsets(pos: np.ndarray, width: int) -> Iterator[int]:
    """Each row of pos as a Python int bitset, in order: bit b for each
    entry b >= 0, all below width, and nothing for -1.

    Up to _TABLE_BITS bits numpy ORs each row from a table of 1 << b,
    whose last entry, the one -1 reads, is 0; such a table would grow with
    the square of a wider width, so wider rows are packed one shift at a
    time.
    """
    bit = np.array([1 << b for b in range(width)] + [0], dtype=object) \
        if width <= _TABLE_BITS else None
    for lo in range(0, len(pos), _PACK_ROWS):
        block = pos[lo:lo + _PACK_ROWS]
        if bit is not None:
            yield from np.bitwise_or.reduce(bit[block], axis=1).tolist()
            continue
        for row in block.tolist():
            v = 0
            for b in row:
                if b >= 0:
                    v |= 1 << b
            yield v


def _link_pairs(tops: np.ndarray, n: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau ids, link tops) of every pair of a top face sigma and an ell-face tau of it.

    tops is _top_array(X) for X on n vertices.  Per position pattern P,
    tau = sigma[P] and sigma minus tau is relabelled onto 0..g-1, g =
    n-ell-1 (module docstring).  The pairs come pattern by pattern, in
    the order of combinations(range(k+1), ell+1), and top by top within a
    pattern, with no sort: an int64 array of ids and a (pairs, k-ell)
    int64 array.  Every pattern is read at once: row j of the tables P
    and R holds pattern j's positions and the others, and each position
    of P or R is one gather over every pattern.  Position c of R holds
    R[j, c] - c positions of P below it, its shift.
    """
    f, k1 = tops.shape
    size, width = ell + 1, k1 - ell - 1
    m = comb(k1, size)
    P = np.array(list(combinations(range(k1), size)), dtype=np.intp).reshape(m, size)
    R = np.array([[i for i in range(k1) if i not in p] for p in P.tolist()],
                 dtype=np.intp).reshape(m, width)
    shift = R - np.arange(width)
    cols = np.ascontiguousarray(tops.T)
    tau_binom = _binomials(n, size)
    x = n - 1 - cols
    link = np.full((m, f), tau_binom[n, size] - 1, dtype=np.int64)
    for i in range(size):
        link -= tau_binom[x[P[:, i]], size - i]
    rest = np.empty((m, f, width), dtype=np.int64)
    for c in range(width):
        np.subtract(cols[R[:, c]], shift[:, c, None], out=rest[:, :, c])
    return link.reshape(m * f), rest.reshape(m * f, width)


def _relabelled_link_tops(tops: np.ndarray, n: int,
                          ell: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of _link_pairs, sorted by tau id, stably.

    The sort is least significant digit first over 16-bit digits, each
    pass a stable argsort of uint16, which numpy sorts by radix: one pass
    per 16 bits of the largest id, none when every id is 0.
    """
    link, rest = _link_pairs(tops, n, ell)
    order = np.arange(len(link))
    for low in range(0, int(link.max(initial=0)).bit_length(), 16):
        step = np.argsort((link >> low).astype(np.uint16), kind="stable")
        order, link = order[step], link[step]
    return link, rest[order]


def remove_top_face(X: SkeletonComplex, sigma: Iterable[int]) -> SkeletonComplex:
    """X less the top face sigma, found on the stored array; FaceNotInComplex
    when sigma is no top face."""
    s = make_simplex(sigma)
    keep = (X._tops != s).any(axis=1) if len(s) == X.k + 1 else True
    if np.all(keep):
        raise FaceNotInComplex(f"{s} is not a top face")
    return SkeletonComplex(X.n, X.k, X._tops[keep])


def full_skeleton(n: int, k: int) -> SkeletonComplex:
    """The complete k-skeleton on n vertices as a SkeletonComplex."""
    return SkeletonComplex(n, k, _face_array(combinations(range(n), k + 1),
                                             comb(max(n, 0), k + 1), k + 1))


def as_skeleton_complex(X: Complex) -> SkeletonComplex:
    """View X as a complex squeezed between consecutive skeleta.

    Requires every layer strictly below the top dimension to be complete on
    the ground set; raises NotSandwiched otherwise.  A ground set that is
    not 0..n-1 is compacted order-preservingly first.
    """
    if isinstance(X, SkeletonComplex):
        return X
    if X.is_void or X.dim < 0:
        raise NotSandwiched("complex has no vertices")
    g = X.n
    k = X.dim
    for i in range(k):
        if face_count(X, i) != comb(g, i + 1):
            raise NotSandwiched(
                f"degree-{i} layer is not complete on {g} vertices")
    ordered = sorted(X.ground)
    if ordered == list(range(g)):
        tops = faces(X, k)
    else:
        pos = {v: i for i, v in enumerate(ordered)}
        tops = frozenset(tuple(pos[v] for v in f) for f in iter_faces(X, k))
    return SkeletonComplex(g, k, frozenset(tops))
