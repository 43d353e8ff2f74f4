"""Boundary ranks, reduced Betti numbers, link homology and cycle supports.

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

A map of degree at most 1 takes no elimination either: the augmentation
has rank min(f, 1) for its f columns, and a degree-1 map is a graph's,
ranked by its components (below).  Every other face-level rank reads an
int array of faces, one row per face, and numbers the rows of the
boundary map with numpy.  Its unit pivots are peeled first (below), and
only the core they leave is eliminated, by _map_rank, which chooses
each core's route.  Over GF(2) it packs the core's columns into Python
int bitsets, one simplexes._bitsets call per core, and reduces them by
IncrementalSpan(2).extend over the one XOR core, linalg._gf2_reduce;
that GF(2) rank r2 is the rank.  Over Q one tagged IncrementalSpan(2)
run over the core (_lifts, below) gives r2, returned where integer
kernel vectors lifted from GF(2) prove rank_Q = r2 (below), which takes
no vector at all where r2 is min(core columns, rows the core meets).
Only the rest, torsion such as that of the projective plane included,
and at once every such core over odd p, runs linalg.rank_by_rows.

No cap from the ambient simplex binds below that minimum.  A link's
map on g vertices takes r-faces to (r-1)-faces, and its core's columns
are tops avoiding vertex 0 (below), so every row the core meets is an
r-subset of the g-1 other vertices.  None is the row a cone top freed or
a pivot took, and each cone top frees a row of its own, as each pivot
takes one.  So the core meets at most C(g-1, r) rows less the link's
cone tops and pivots: the rank C(g-1, r) of the complete map less the
rank already taken never falls below min(core columns, rows the core
meets), and the tests check the count.

The lifted kernel proves rank_Q <= r2; r2 <= rank_Q always holds, as a
minor of the integer map that is nonzero mod 2 is nonzero.  Take the
side of the core with fewer lines, n of them: its columns, or the rows
it meets.  Line t packs as (v << n) | (1 << t), v its bitset over the
other side, and one IncrementalSpan(2).extend reduces them all
(_dependencies).  A basis vector kept below bit n has lost its v: it is
a GF(2) dependency, the set of lines that sums to 0 mod 2, and there are
n - r2 of them, as the lines have GF(2) rank r2.  So the one run gives
both r2 and the dependencies, and no other GF(2) pass reads the core;
where r2 = n there is no dependency, and nothing is lifted.  Each
dependency is lifted to a vector of +-1 on its lines.  Every line of the
other side must meet it in 0 or 2 entries, and each such pair fixes the
relative sign of its two lines; a walk over the dependency's lines then
assigns the signs.  A meeting of 4 or more, or a sign that conflicts,
means no lift, and the row route runs.  Each lifted vector is then
checked against the map's entries in integers, and a failure raises
InvariantViolation.  The lifted vectors
reduce mod 2 to the dependencies, which are independent, as each holds
its own highest line; so the lifted vectors are independent over Q, and
the kernel on that side has dimension at least n - r2 over Q, which
gives rank_Q <= r2.  So no core with rank_Q > r2 lifts, such as one
with the 2-torsion of the projective plane: the 10 triangles of RP^2_6
sum to 0 mod 2, but no signs make them a cycle.  Random complexes rarely
carry torsion (Luczak and Peled, DCG 2018), so nearly every core lifts.
The proof bounds the rational rank alone, so odd p keeps the row route.

Every entry of a boundary map is +-1, a unit in every field, so two
rules take a pivot with no elimination, over every field alike:

- a row rho met by one column c: rho is zero outside c, so
  rank M = 1 + rank(M - c - rho).  On a top map this is an elementary
  collapse of c through its free facet rho.
- a column c with one row rho: adding multiples of c clears rho from
  every other column, so again rank M = 1 + rank(M - c - rho); another
  column whose one row was rho is left empty.

Either rule deletes one row and one column and leaves every other entry
as it was, so the core is a submatrix of M and rank M = pivots +
rank(core) over every field.  Pivots taken at once, each with its own
row and column, form a diagonal block of +-1 with zeros beside it in
their rows (first rule) or their columns (second rule), so a round
takes them all.  Read M as a bipartite graph on its rows and columns:
each rule removes a vertex of degree 1 with its one neighbour, which is
leaf removal (Bauer and Golinelli, Eur. Phys. J. B 24, 2001).  The core
does not depend on the order of removal.  Two removals either touch
four distinct vertices, and then either one can still follow the other;
or take the same edge; or share the neighbour, and then both orders
remove the same three, the third left empty.  As removal ends, Newman's
lemma gives one core.  The rules are the weight-1 pre-pass of
structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO 1990),
and the first is the collapse step of Aronshtam, Linial, Luczak and
Meshulam (DCG 2013).

A degree-1 map is a graph's signed incidence matrix: the column of an
edge ab has +-1 in row a and -+1 in row b.  Over every field its left
kernel is spanned by the indicators of its components, isolated vertices
included: y kills the column of ab iff y_a = y_b, so y kills every
column iff it is constant on each component.  So its rank is the
vertices less the components, or, as an isolated vertex is a component
of its own, the vertices its edges meet less their components, the same
over every field.  _components labels every node of a graph with the
least node of its component by hook and jump (Shiloach and Vishkin,
J. Algorithms 3, 1982), in a few rounds of numpy calls over every edge
at once, and the rank is the count of nodes that are not their own
label: every node met but the least of its component.  _graph_ranks
takes a stack of graphs at once, as the link maps below, with node
link * g + vertex for each vertex of each link, so one _components run
labels every link and a bincount of the link of each such node gives
every rank.  Where that node space, links times g, is larger than the
edge ends, one order-keeping np.unique first compacts the nodes met, as
with the keys below.

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

One route ranks every top boundary map of degree 2 and up, the global
ones included: the global map of a layer that is not complete is the
top map of the link of the empty face, the layer itself.  _rank_cached
reads a layer of degree 0 or 1 as above, and shifts any other layer so
that its least vertex is 0 and hands it to _link_rows and _link_ranks
as one link.  _link_rows splits off the cone, the tops through 0, and
numbers each row by the key of its facet (simplexes._facet_keys, smaller for a
lexicographically smaller facet): row link * width + key, for width the
largest key plus one, so link t's rows start at t * width.  That is one
block-diagonal stack of every link's map, numbered with no sort.  Where
that key space, links times width, is larger than the entries, one
order-keeping np.unique first compacts the keys met, so no array is as
large as the key space, not even a bool per key: two tops on 1,000
vertices have 499,500 links of 998 keys each at ell = 1.  The stack's
columns come in the walk's order, each with its link id, and no step
needs a link's columns side by side but the last.  _link_ranks peels the
stack with one _peel, whose rounds each take a few numpy calls over the
whole stack, not per link, and counts each link's columns and pivots
with np.bincount of the ids.  Nothing is grouped by link but the core
columns the peel leaves, by one stable argsort of their ids; on the
lexicographic ladder's stacks there are none.  Each link's core keeps
its rows in key order, renumbered from 0, and _map_rank ranks it.
Numbered this way, construct xnkl peaked at 128 MB on the saturated X
of (n, k, ell) = (41, 4, 1), whose link and global maps all peel away
(one fresh process, two cores of an x86-64 host, Python 3.11); rows
numbered in order of first appearance, which took one np.unique over
every (link, row) pair, peaked at 188 MB.  At (101, 3, 1) the global
maps peel away and the link maps are graphs, and the rung peaks at
80 MB, where the GF(2) bases of the unpeeled maps took 840 MB.

_link_betti reads the link homology of a complex X between consecutive
skeleta without building a link, as three arrays with one entry per
link: f_tau, b_{r-1} and b_r below.  lambda_pair and
equality_trichotomy sum them, monotonicity_check indexes them by the
faces inside sigma and build_X_nkl compares them with its pick counts,
so none builds a tuple per face; link_profile is the per-face view of
the same arrays, one LinkBetti each, for the callers that name the
faces.  The link of a
degree-ell face tau is again sandwiched: the complete (r-1)-skeleton on the g = n-ell-1 other
vertices plus the r-faces sigma minus tau for the top faces sigma above
tau, with r = k-ell-1.  Its reduced homology lives in degrees r-1 and r
only, and the rank of its top boundary map gives both Betti numbers:

    b_r     = f_tau - rank
    b_{r-1} = C(g, r) - rank of the complete degree-(r-1) map - rank

where f_tau counts the link's r-faces.  The complete-layer ranks are the
closed form above, so b_{r-1} = C(g-1, r) - rank.  One walk over X's top
array (simplexes._link_pairs) gives every pair of a top face and a
degree-ell face tau of it, pattern by pattern with no sort, with sigma
minus tau relabelled onto 0..g-1 in order (simplexes module docstring),
which keeps the link's boundary map as it is.  f_tau is one count of the
tau ids.  A link top through the relabelled vertex 0 is a unit column in
the row of its facet without 0, and the other columns drop those free
rows.  Each link's core rows are renumbered from 0, so its bitsets are
no wider than the rows its core touches.

The cycle support of a sandwiched X is the set of top faces in the
support of some degree-k cycle.  X has no (k+1)-faces, so its degree-k
cycles are the kernel of the top map d_k, and a top face sigma lies in
the support of some kernel vector exactly when its column lies in the
span of the others: when sigma is no coloop of the column matroid of d_k
(Oxley, Matroid Theory, 2nd ed., 2011).  So every basis of the kernel
has the same union of supports, and _cycle_support reads that union
from one kernel run with no basis kept.  The rows through vertex 0 are
deleted first: by the cone lemma above that is injective on the column
space, so it keeps the kernel, and a top through 0 keeps one entry of
its k+1.  Then _dependencies, the lift's reduction, hands back the
dependencies among the columns, whose union is the support: each is a
kernel vector, and they span the kernel.  Over GF(2) the columns are
packed and tagged as the lift tags them; over odd p and Q one
linalg._tagged_kernel run reduces the map's +-1 columns by the
fraction-free update, each carrying its combination of the columns in a
dict of its own.  The coloops depend on the field: RP^2_6 with one more
triangle has 10 supported top faces over GF(2) and 11 over GF(3) and Q.

At ell = k-1 (r = 0) no rank is taken.  The link of tau is its f_tau
points sigma minus tau over the empty face, and its top map is the
augmentation, whose columns are all the one row of the empty face: its
rank is min(f_tau, 1) over every field, read from the count.  At
ell = k-2 (r = 1) every link is a graph, and one _graph_ranks run over
the walk's edges, numbered as nodes in place, ranks them all (above):
no row is numbered by key, peeled or packed.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .errors import InvariantViolation, ParameterOutOfRange, TooLarge
from .fields import FieldSpec
from .linalg import IncrementalSpan, _tagged_kernel, rank_by_rows
from .simplexes import (
    FACE_BUDGET,
    Complex,
    Simplex,
    SkeletonComplex,
    _bitsets,
    _face_array,
    _facet_keys,
    _link_pairs,
    _top_array,
    face_count,
    iter_faces,
)


def _map_rank(pos: np.ndarray, rows: int, p: Optional[int]) -> int:
    """Rank of the map whose column a has (-1)^i in row pos[a, i] (module
    docstring).

    pos numbers the rows touched 0..rows-1, and -1 is a deleted row.
    Over GF(2) the columns are packed as bitsets, one _bitsets call per
    core, and reduced by the XOR core.  Over Q, _lifts reads the GF(2)
    rank and returns it where lifted kernel vectors prove it; else the row
    route runs, as it does at once for odd p.
    """
    if p == 2:
        return IncrementalSpan(2).extend(_bitsets(pos, rows))
    if p is None:
        r2 = _lifts(pos, rows)
        if r2 is not None:
            return r2
    return rank_by_rows(_entries(pos), rows, len(pos), p)


def _entries(pos: np.ndarray) -> dict[tuple[int, int], int]:
    """The entries of the map whose column a has (-1)^i in row pos[a, i],
    none for -1, keyed (row, column) and inserted column by column."""
    a, i = np.nonzero(pos >= 0)
    return dict(zip(zip(pos[a, i].tolist(), a.tolist()), np.where(i % 2, -1, 1).tolist()))


def _lifts(pos: np.ndarray, rows: int) -> Optional[int]:
    """The rational rank of the map of _map_rank where +-1 integer kernel
    vectors prove its GF(2) rank r2, else None (module docstring).

    The lines are the map's columns or its rows, whichever are fewer, and
    the other side's lines meet them.  One IncrementalSpan(2) run over the
    n lines packed as (v << n) | (1 << t) leaves the GF(2) dependencies as
    its basis vectors below bit n, and r2 is n less their count.  Each is
    lifted by a walk over its lines and checked against the map's entries
    in integers; None comes at the first that does not lift.
    """
    cols = pos.tolist()
    # each line's entries: (other line, parity of the sign's exponent)
    if len(cols) <= rows:
        n, n_other = len(cols), rows
        lines = [[(o, i & 1) for i, o in enumerate(c) if o >= 0] for c in cols]
    else:
        n, n_other = rows, len(cols)
        lines = [[] for _ in range(n)]
        for a, c in enumerate(cols):
            for i, o in enumerate(c):
                if o >= 0:
                    lines[o].append((a, i & 1))
    bitsets = []
    for meet in lines:
        v = 0
        for o, _ in meet:
            v |= 1 << o
        bitsets.append(v)
    deps = _dependencies(bitsets, n, 2)
    for dep in deps:
        support = []
        while dep:
            t = dep.bit_length() - 1
            support.append(t)
            dep ^= 1 << t
        # each other line's entries in the support, which must be two
        ends: dict[int, list[tuple[int, int]]] = {}
        for t in support:
            for o, s in lines[t]:
                ends.setdefault(o, []).append((t, s))
        if any(len(pair) != 2 for pair in ends.values()):
            return None
        # x_t = (-1)^y[t]: (-1)^s x_t + (-1)^z x_u = 0 flips y by s ^ z ^ 1
        y: dict[int, int] = {}
        for root in support:
            if root in y:
                continue
            y[root] = 0
            stack = [root]
            while stack:
                t = stack.pop()
                for o, _ in lines[t]:
                    (a, s), (b, z) = ends[o]
                    u, want = a + b - t, y[t] ^ s ^ z ^ 1
                    if u not in y:
                        y[u] = want
                        stack.append(u)
                    elif y[u] != want:
                        return None
        # the lifted vector times the map, from every entry of its lines
        out = [0] * n_other
        for t, v in y.items():
            for o, s in lines[t]:
                out[o] += 1 - 2 * (s ^ v)
        if any(out):
            raise InvariantViolation("a lifted GF(2) dependency is no integer kernel vector")
    return n - len(deps)


def _boundary_columns(facet: np.ndarray, width: int, p: Optional[int]
                      ) -> Iterator[Union[int, dict[int, int]]]:
    """The boundary column of each row of facet in the form
    IncrementalSpan(p) takes: entry (-1)^i in row facet[a, i] of column a,
    and no entry for -1.  Over GF(2) the columns come packed by _bitsets
    as int bitsets below width, otherwise as sparse dicts."""
    if p == 2:
        return _bitsets(facet, width)
    signs = [-1 if i % 2 else 1 for i in range(facet.shape[1])]
    return ({b: s for b, s in zip(row, signs) if b >= 0} for row in facet.tolist())


def _dependencies(lines: Iterable[Union[int, dict[int, int]]], n: int,
                  p: Optional[int]) -> list[int]:
    """The dependencies over GF(p), or Q for p None, among n lines given
    as _boundary_columns gives them over the other side: a basis of the
    combinations of the lines that sum to 0, each as the bitset of the
    lines it combines, with distinct highest lines, n less the lines' rank
    of them.

    Over GF(2) one IncrementalSpan(2) run over line t packed as
    (v << n) | (1 << t) leaves them as its basis vectors below bit n;
    otherwise one linalg._tagged_kernel run hands them back (module
    docstring).
    """
    if p != 2:
        return [sum(1 << t for t in combo) for combo in _tagged_kernel(lines, p)]
    span = IncrementalSpan(2)
    span.extend(v << n | 1 << t for t, v in enumerate(lines))
    return [v for key, v in span.basis.items() if key < n]


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
    f = face_count(X, j)
    if f == comb(g, j + 1):
        return complete_rank(g, j)
    if j == 0:
        # the augmentation, of rank min(f, 1)
        return min(f, 1)
    if isinstance(X, SkeletonComplex):
        # every layer below the top is complete, and the top array is sorted
        faces = _top_array(X)
    else:
        # the ground set relabelled onto 0..g-1 in order
        faces = np.searchsorted(np.array(sorted(X.ground), dtype=np.int64),
                                _face_array(iter_faces(X, j), f, j + 1))
    if j == 1:
        # a graph: its vertices are the nodes of one link
        return int(_graph_ranks(faces, 1, g)[0])
    if len(faces) and faces[0, 0]:
        # the cone split takes the least vertex, moved to 0
        faces = faces - faces[0, 0]
    # the layer is the one link of the empty face (module docstring)
    return _link_ranks(*_link_rows(np.zeros(f, dtype=np.int64), faces, 1, g), [f], p)[0]


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
               g: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The rows of every link's top boundary map, as one block-diagonal stack.

    link and rest are _link_pairs of X, in any order, for links on 0..g-1
    (module docstring); the global map is the one link of the empty face.
    Returns pos, the rows of the tops avoiding 0 in their order, -1 for a
    free row; the int32 link id of each; and start: link t's rows are
    numbered from start[t] to start[t+1]-1 in increasing key order.  A
    row's number is link * width + key, width the largest key plus one,
    so start[t] = t * width and no sort is needed; where that key space
    is larger than the entries, one order-keeping np.unique first
    compacts the keys met, before any array is sized by the rows (module
    docstring).
    """
    keys = _facet_keys(rest, g)
    width = int(keys.max(initial=0)) + 1
    keys += link[:, None] * width
    start = np.arange(n_links + 1) * width
    if n_links * width > keys.size:
        met, inv = np.unique(keys, return_inverse=True)
        keys = inv.reshape(keys.shape)
        start = np.searchsorted(met, start)
    cone = rest[:, 0] == 0
    # the row of each cone top's facet without 0 is free
    free = np.zeros(int(start[-1]), dtype=bool)
    free[keys[cone, 0]] = True
    keys = keys[~cone]
    return np.where(free[keys], -1, keys), link[~cone].astype(np.int32), start.tolist()


def _components(n_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least node of the component of every node 0..n_nodes-1 of the
    graph with an edge from u[e] to v[e], by hook and jump (Shiloach and
    Vishkin, J. Algorithms 3, 1982).

    When a round starts every label is a root, a node that is its own
    label, and every edge left joins two roots.  Each edge hooks its
    larger root onto the smaller, by one np.minimum.at; then every label
    jumps to its label's label until nothing moves, which makes each
    label a root again, and each edge's ends move to their labels.  An
    edge whose ends now share a label is dropped.  A label is always a
    node of the same component and never above the node, so labels only
    fall, and a component's least node is always its own label.  Each
    round that does not finish hooks at least one root onto a smaller
    one, so the roots fall in number and the rounds end, when no edge
    has two labels: then each component's nodes share one label, which
    is its least node.
    """
    label = np.arange(n_nodes)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    while len(lo):
        np.minimum.at(label, hi, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        lo, hi = label[lo], label[hi]
        apart = np.flatnonzero(lo != hi)
        lo, hi = lo[apart], hi[apart]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return label


def _graph_ranks(ends: np.ndarray, n_links: int, g: int) -> np.ndarray:
    """Rank of the incidence map of every link that is a graph: the
    vertices its edges meet less their components (module docstring).

    Row a of ends holds the two ends of an edge, each as node link * g +
    vertex for its link's vertex on 0..g-1, in any order; that numbers
    every vertex of every link with no sort.  Where that node space is
    larger than the edge ends, one order-keeping np.unique first compacts
    the nodes met, as _link_rows does with its keys.  Every node met but
    the least of its component is not its own label, and there is one
    such per edge of a spanning forest, so that count per link is its
    rank.
    """
    size, met = n_links * g, None
    if size > ends.size:
        met, inv = np.unique(ends, return_inverse=True)
        size, ends = len(met), inv.reshape(ends.shape)
    label = _components(size, ends[:, 0], ends[:, 1])
    hooked = np.flatnonzero(label != np.arange(size))
    if met is not None:
        hooked = met[hooked]
    return np.bincount(hooked // g, minlength=n_links)


def _peel(pos: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit pivots of the map whose column a meets row pos[a, i], -1
    for no row, with rows below n_rows (module docstring).

    Taking a column by the row rule changes no other column, and taking
    a row by the column rule changes no other row, so neither rule makes
    work for the other: the row rule runs to the end first, then the
    column rule.  The row rule follows a front of rows of degree 1, whose
    one live column is the sum of the row's live columns, so its rounds
    touch the columns they take and nothing else.  The column rule takes
    the row of every column of degree 1, one pivot per such row, in
    rounds over the entries left.  Returns pivot, the columns taken with
    a pivot; core, the columns left; and live, the rows the core meets,
    with one more entry, False, for -1 to read.
    """
    m, w = pos.shape
    row = pos.ravel()
    col = np.repeat(np.arange(m), w)[row >= 0]
    row = row[row >= 0]
    # the live entries of each row, and the sum of their columns
    rdeg = np.bincount(row, minlength=n_rows + 1)
    csum = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(csum, row, col)
    pivot = np.zeros(m, dtype=bool)
    first = np.empty(m, dtype=np.int64)
    # the front: rows of degree 1, read right after the round that made
    # them so; a -1 in pos reads the spare slot n_rows, whose degree only
    # falls below 0, so it never joins the front
    front = np.flatnonzero(rdeg == 1)
    while len(front):
        cols = csum[front]
        # each column once, however many rows of degree 1 it holds
        at = np.arange(len(cols))
        first[cols] = at
        cols = cols[first[cols] == at]
        pivot[cols] = True
        rows = pos[cols].ravel()
        np.subtract.at(rdeg, rows, 1)
        np.subtract.at(csum, rows, np.repeat(cols, w))
        front = rows[rdeg[rows] == 1]
    kept = ~pivot[col]
    col, row = col[kept], row[kept]
    cdeg = np.bincount(col, minlength=m)
    owner = np.empty(n_rows, dtype=np.int64)
    while True:
        single = cdeg[col] == 1
        hit = row[single]
        if not len(hit):
            return pivot, cdeg > 0, np.bincount(row, minlength=n_rows + 1) > 0
        # one column per row takes the pivot, and the others are left empty
        owner[hit] = col[single]
        pivot[owner[hit]] = True
        rdeg[hit] = 0
        gone = rdeg[row] == 0
        np.subtract.at(cdeg, col[gone], 1)
        col, row = col[~gone], row[~gone]


def _link_ranks(pos: np.ndarray, link: np.ndarray, start: list[int], f: list[int],
                p: Optional[int]) -> list[int]:
    """Rank of the top boundary map of every link, from _link_rows and the
    number f[t] of each link's tops.

    The tops of a link that pos leaves out pass through 0, one free row
    each.  One _peel of the whole stack takes the unit pivots of every
    link, and the per-link counts of the columns and pivots are two
    bincounts of the link ids.  A link's rank is its units, its tops
    through 0 and its peeled pivots, plus the rank of the core it keeps,
    if any.  Only the core columns are grouped by link, by one stable
    argsort of their ids, and each link's core rows are renumbered from 0
    in their order for _map_rank.  The maps are of degree 2 and up, as
    those of degree 1 are graphs, ranked by _graph_ranks.  A link with
    no tops keeps no core, nor does a complete link, whose every row
    avoiding 0 is the free row of a cone top.  Where the peel leaves no
    core at all, the ranks return right after it, with no grouping,
    renumbering or packing.
    """
    n_links = len(f)
    pivot, core, live = _peel(pos, start[-1])
    # per link: its units, the tops through 0 and the peeled pivots
    ranks = (np.array(f) - np.bincount(link, minlength=n_links)
             + np.bincount(link[pivot], minlength=n_links)).tolist()
    if not core.any():
        return ranks
    # the core's columns grouped by link, each link's in their order, and
    # per link its core's columns and rows; below[x] counts the live rows under x
    order = np.flatnonzero(core)[np.argsort(link[core], kind="stable")]
    link = link[order]
    cols = np.bincount(link, minlength=n_links)
    below = np.concatenate(([0], np.cumsum(live)))
    rows = np.diff(below[start])
    pos = pos[order]
    pos = np.where(live[pos], below[pos] - below[start[:-1]][link][:, None], -1)
    del pivot, core, live, below  # the peel's arrays go before the packing
    # a link's rank is its units plus the rank of its core, if any
    ends = np.cumsum(cols).tolist()
    for t in np.flatnonzero(cols).tolist():
        lo, hi = ends[t] - int(cols[t]), ends[t]
        ranks[t] += _map_rank(pos[lo:hi], int(rows[t]), p)
    return ranks


def _link_betti(X: SkeletonComplex, ell: int, field: FieldSpec
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_top, below, top) of the link of every degree-ell face of X, as
    arrays in iter_faces(X, ell) order: its r-faces and its Betti numbers
    b_{r-1} and b_r, r = k-ell-1.

    ell may run from -1 (the link of the empty face is X) to k (the link
    of a top face is the one-face complex).  below is an object array of
    Python ints where its sum over the links could reach 2^63, else
    int64, as are f_top and top.
    """
    check_link_degree(X.n, X.k, ell)
    n_links = face_count(X, ell)
    r = X.k - ell - 1
    if r < 0:
        # the link of a top face is the empty face alone
        ones = np.ones(n_links, dtype=np.int64)
        return ones, np.zeros(n_links, dtype=np.int64), ones
    g = X.n - ell - 1
    # every link has the complete (r-1)-skeleton on g vertices, so
    # b_{r-1} = C(g, r) - C(g-1, r-1) - rank = C(g-1, r) - rank
    low = complete_rank(g, r)
    link, rest = _link_pairs(_top_array(X), X.n, ell)
    f = np.bincount(link, minlength=n_links)
    if r == 0:
        # the top map is the augmentation, of rank min(f_tau, 1)
        ranks = np.minimum(f, 1)
    elif r == 1:
        # each edge end as node link * g + vertex, over the walk's array
        rest += link[:, None] * g
        del link
        ranks = _graph_ranks(rest, n_links, g)
    else:
        numbered = _link_rows(link, rest, n_links, g)
        del link, rest  # the walk's arrays go before the columns are packed
        ranks = np.array(_link_ranks(*numbered, f.tolist(), field.p), dtype=np.int64)
    below = (low if low * n_links < 1 << 63 else np.array(low, dtype=object)) - ranks
    negative = below < 0
    if negative.any():
        raise InvariantViolation(
            f"negative Betti number {below[negative][0]} in degree {r - 1} of a link")
    return f, below, f - ranks


def link_profile(X: SkeletonComplex, ell: int, field: FieldSpec) -> list[LinkBetti]:
    """Betti numbers b_{r-1}, b_r of the link of every degree-ell face of X,
    one LinkBetti per face in iter_faces(X, ell) order (_link_betti).
    Every other reduced Betti number of these links is 0.
    """
    f, below, top = _link_betti(X, ell, field)
    return list(map(LinkBetti, iter_faces(X, ell), f.tolist(), below.tolist(), top.tolist()))


def _cycle_support(X: SkeletonComplex, p: Optional[int]) -> np.ndarray:
    """The rows of _top_array(X) in the support of some degree-k cycle over
    GF(p), or Q for p None: the top faces that are no coloop of the top
    boundary map (module docstring).  Every basis of the cycles has this
    union of supports, so no basis is built.

    The map's rows are numbered by _facet_keys, in lexicographic order,
    and the support is the union of its columns' dependencies once the
    rows through vertex 0 are deleted, which keeps the kernel.
    """
    tops = _top_array(X)
    keys = _facet_keys(tops, X.n)
    keys[tops[:, 0] == 0, 1:] = -1
    f, width = len(tops), int(keys.max(initial=0)) + 1
    union = reduce(or_, _dependencies(_boundary_columns(keys, width, p), f, p), 0)
    held = np.unpackbits(np.frombuffer(union.to_bytes(-(-f // 8), "little"), dtype=np.uint8),
                         count=f, bitorder="little").astype(bool)
    return tops[held]
