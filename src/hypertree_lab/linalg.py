"""Sparse exact rank over GF(p) and the rationals.

The library has two elimination cores, and the rank oracle a third that
shares no code with them, so agreement between the oracle and the library
is a real check and not a tautology.

The fraction-free update, _fraction_free, serves every field but GF(2).
A vector touching a pivot index where the pivot vector has entry pv and
it has entry a becomes pv * vec - a * pivot, reduced mod p when p is set.
Where pv is a unit, every pv mod p and +-1 over the rationals, the result
is divided by pv, so the vector becomes vec - (a / pv) * pivot with a / pv
taken mod p or as -a, and no pass over the vector scales it.  pv stays
only over the rationals with a non-unit pivot, and only then is the
vector's content, the gcd of its entries, stripped, so vectors stay
plain integers.  Each vector is so only ever rescaled by a unit of the
field against what the same steps in field arithmetic give: which
vectors are independent, and the largest index each keeps, do not depend
on the scaling.

rank_by_rows runs the update on sparse dict rows for every p, taking each
pivot row from a heap keyed on (row length, row index).  IncrementalSpan
over odd p and the rationals runs it on integer dict vectors, each
reduced on its largest index against a basis keyed on the largest index
of each of its vectors.  _tagged_kernel runs the same reduction with each
vector's combination of the input carried in a dict of its own, which
takes every step along and shares the content stripped: the combination
of a vector that reduces to 0 is a kernel vector, and the largest index
is found without reading the combination (homology._dependencies).

The GF(2) core, _gf2_reduce, takes a run of vectors already packed as
Python int bitsets and reduces each by XOR against a basis keyed on the
highest set bit, adding what is left.  It serves IncrementalSpan over
GF(2), whose add and extend both take packed ints only.  Through it the
face-level ranks in homology, where _map_rank packs each core it ranks,
and the saturation greedy in constructions reduce the columns numpy
packs from arrays of faces, one call per run.  Every vector of a run is
reduced: stopping once the rank reached a bound the caller knows saved
no measurable time on the saturation ladder.

The oracle's core, _reduce_low, reduces a sparse vector against a basis
keyed on each vector's largest index by one subtract helper, in residues
mod p or in Fraction, converted from integers by one helper.  Only
rank_by_columns, the column route, calls it; the tests build their
kernel bases and their scanning greedy's spans on it too.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Optional, Union

Entries = dict[tuple[int, int], int]


def _gf2_reduce(basis: dict[int, int], vecs: Iterable[int]) -> None:
    """Reduce each GF(2) bitset of vecs against basis and keep what is left.

    basis maps the highest set bit of each basis vector to that vector.
    A vector XORs away the basis vector at its highest bit until it is 0,
    when it lay in the span, or reaches a highest bit no basis vector has,
    when it joins basis there.
    """
    get = basis.get
    for v in vecs:
        while v:
            top = v.bit_length() - 1
            b = get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b


def _fraction_free(row: dict[int, int], prow: dict[int, int], a: int, pv: int,
                   p: Optional[int], combo: Optional[dict[int, int]] = None,
                   pcombo: Optional[dict[int, int]] = None) -> None:
    """row <- pv * row - a * prow in place, mod p when p is set, zeros
    dropped, up to a unit (module docstring); combo, where given, takes
    the same step with pcombo.

    Where pv is a unit, every pv mod p and +-1 over Q, the result is
    divided by pv, which leaves row - (a / pv) * prow and needs no pass
    over row.  Else, over Q, the content, the gcd of every entry of row
    and combo, is stripped from both.
    """
    if p is not None:
        a, pv = a * pow(pv, -1, p) % p, 1
    elif pv == -1:
        a, pv = -a, 1
    pairs = ((row, prow),) if combo is None else ((row, prow), (combo, pcombo))
    for vec, other in pairs:
        if pv != 1:
            for j in vec:
                vec[j] *= pv
        for j, v in other.items():
            w = vec.get(j, 0) - a * v
            if p is not None:
                w %= p
            if w:
                vec[j] = w
            else:
                vec.pop(j, None)
    if pv != 1:
        g = gcd(*(v for vec, _ in pairs for v in vec.values()))
        if g > 1:
            for vec, _ in pairs:
                for j in vec:
                    vec[j] //= g


def rank_by_rows(entries: Entries, n_rows: int, n_cols: int,
                 p: Optional[int] = None) -> int:
    """Rank via row elimination; p None means exact integer arithmetic."""
    rows: list[dict[int, int]] = [dict() for _ in range(n_rows)]
    for (i, j), v in entries.items():
        if p is not None:
            v %= p
        if v:
            rows[i][j] = v

    col_rows: dict[int, set[int]] = {}
    active: set[int] = set()
    for i, row in enumerate(rows):
        if row:
            active.add(i)
            for j in row:
                col_rows.setdefault(j, set()).add(i)

    # pivot row: fewest nonzeros, then lowest index.  Each active row i has
    # the entry (heap_key[i], i) in the heap; an entry whose row was
    # eliminated or has changed length since is stale and skipped.
    heap_key = {i: len(rows[i]) for i in active}
    heap = [(k, i) for i, k in heap_key.items()]
    heapify(heap)

    rank = 0
    while active:
        k, pi = heappop(heap)
        if pi not in active or heap_key[pi] != k:
            continue
        prow = rows[pi]
        # pivot column: fewest other rows touching it (unit entry if possible)
        pj = None
        pj_key = None
        for j, v in prow.items():
            unit = (p is not None) or v in (1, -1)
            key = (0 if unit else 1, len(col_rows[j]))
            if pj_key is None or key < pj_key:
                pj_key, pj = key, j
        rank += 1
        active.discard(pi)

        # a list: the update below drops each row it clears from col_rows[pj]
        for i in [i for i in col_rows[pj] if i != pi and i in active]:
            row = rows[i]
            _fraction_free(row, prow, row[pj], prow[pj], p)
            # only the columns prow touches can gain or lose row i
            for j in prow:
                (col_rows[j].add if j in row else col_rows[j].discard)(i)
            k = len(row)
            if not k:
                active.discard(i)
            elif k != heap_key[i]:
                heap_key[i] = k
                heappush(heap, (k, i))

        for i in col_rows[pj]:
            if i != pi:
                rows[i].pop(pj, None)
        col_rows[pj] = {pi}

    return rank


def _field_value(v: Union[int, Fraction], p: Optional[int]) -> object:
    """v in the field: its residue mod p, or a Fraction over Q."""
    return v % p if p is not None else Fraction(v)


def _columns(entries: Entries, n_cols: int,
             p: Optional[int]) -> list[dict[int, object]]:
    """The columns of entries as sparse row -> value dicts over the field."""
    cols: list[dict[int, object]] = [dict() for _ in range(n_cols)]
    for (i, j), v in entries.items():
        x = _field_value(v, p)
        if x:
            cols[j][i] = x
    return cols


def _subtract(vec: dict[int, object], other: dict[int, object], c: object,
              p: Optional[int]) -> None:
    """vec <- vec - c * other in place, mod p when p is set; zeros dropped."""
    for i, v in other.items():
        w = vec.get(i, 0) - c * v
        if p is not None:
            w %= p
        if w:
            vec[i] = w
        else:
            vec.pop(i, None)


def _reduce_low(vec: dict[int, object], basis: dict[int, dict[int, object]],
                p: Optional[int]) -> Optional[int]:
    """Reduce vec in place against basis; the free largest index, or None.

    basis maps the largest index of each basis vector to that vector, and
    vec loses its largest index to the basis vector holding it until no
    basis vector does; that index is returned, or None once vec is 0.
    Residues mod p for a prime p, Fraction for the rationals.
    """
    while vec:
        low = max(vec)
        other = basis.get(low)
        if other is None:
            return low
        if p is not None:
            c = vec[low] * pow(other[low], -1, p) % p
        else:
            c = vec[low] / other[low]
        _subtract(vec, other, c, p)
    return None


def rank_by_columns(entries: Entries, n_rows: int, n_cols: int,
                    p: Optional[int] = None) -> int:
    """Rank via left-to-right column reduction on the lowest nonzero row."""
    basis: dict[int, dict[int, object]] = {}
    for col in _columns(entries, n_cols, p):
        low = _reduce_low(col, basis, p)
        if low is not None:
            basis[low] = col
    return len(basis)


class IncrementalSpan:
    """Grow a row space one vector at a time, reporting whether each adds rank.

    Over GF(2) vectors are packed int bitsets, reduced by the XOR core;
    otherwise sparse index -> integer dicts, reduced by the fraction-free
    update on their largest index.  Basis rows are kept reduced enough to
    have distinct pivots (largest index).  Used where candidates arrive
    online and only the yes/no answer and the running rank matter; extend
    takes a run of them in one loop.
    """

    def __init__(self, p: Optional[int] = None):
        self.p = p
        self.basis: dict[int, object] = {}

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, vec: Union[int, dict[int, int]]) -> bool:
        """Try to add vec to the span; True iff the rank grew."""
        rank = len(self.basis)
        return self.extend((vec,)) > rank

    def extend(self, vecs: Iterable[Union[int, dict[int, int]]]) -> int:
        """Add each of vecs in turn; returns the rank.

        Over GF(2) vecs are packed int bitsets, the whole run reduced by
        one call of the XOR core.  Otherwise each is copied, mod p when p
        is set, and loses its largest index to the basis vector keyed
        there until it is 0 or no basis vector is, when it joins basis
        there.
        """
        p, basis = self.p, self.basis
        if p == 2:
            _gf2_reduce(basis, vecs)
            return len(basis)
        for vec in vecs:
            vec = {j: x for j, v in vec.items() if (x := v % p if p else v)}
            while vec:
                low = max(vec)
                other = basis.get(low)
                if other is None:
                    basis[low] = vec
                    break
                _fraction_free(vec, other, vec[low], other[low], p)
        return len(basis)


def _tagged_kernel(lines: Iterable[dict[int, int]], p: Optional[int]) -> list[dict[int, int]]:
    """The dependencies among integer dict lines over GF(p), or Q for p
    None: for each line t that the fraction-free update reduces to 0, in
    order, its combination of the lines, which holds t as its largest.

    The lines are reduced on their largest index as IncrementalSpan
    reduces them, each carrying its combination, {t: 1} at first, in a
    dict of its own that takes every step along, so the largest index is
    found without reading it.
    """
    basis: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    kernel = []
    for t, vec in enumerate(lines):
        vec, combo = {j: x for j, v in vec.items() if (x := v % p if p else v)}, {t: 1}
        while vec:
            low = max(vec)
            other = basis.get(low)
            if other is None:
                basis[low] = vec, combo
                break
            _fraction_free(vec, other[0], vec[low], other[0][low], p, combo, other[1])
        else:
            kernel.append(combo)
    return kernel
