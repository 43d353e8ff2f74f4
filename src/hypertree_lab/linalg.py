"""Sparse exact rank over GF(p) and the rationals.

Two independent routes are kept deliberately separate: row elimination with
a sparsity-aware pivot rule, and left-to-right column reduction that pairs
each column with its lowest surviving row.  They share no code beyond this
docstring, so agreement between them is a real check and not a tautology.
Each route has one update loop for every field.

The row route keeps sparse dict rows for every p and takes each pivot row
from a heap keyed on (row length, row index).  The chosen pivot row is
scaled first: mod p by the inverse of its pivot pv, over the rationals by
-1 when pv is -1.  Then one fraction-free update serves every field: each
other row touching the pivot column becomes pv * row - a * prow, reduced
mod p when p is set, with a the row's entry in that column.  pv is still
not 1 only over the rationals with a non-unit pivot, and only then is the
row's content stripped, so rows stay plain integers.  With pv = 1, a times
the scaled row is the multiple of the unscaled row that clears the column,
so every row holds the same values after each pivot as without the
scaling, and pivot order and rank do not change.

The column route has one core, _reduce_low, which reduces a sparse vector
against a basis keyed on each vector's largest index, and applies one
subtract helper to the vector and, for kernel bases, to its combination.
rank_by_columns, kernel_basis and IncrementalSpan over odd p and the
rationals all call it, in residues mod p or in Fraction, converted from
integers by one helper.

The GF(2) core, _gf2_reduce, takes a run of vectors already packed as
Python int bitsets and reduces each by XOR against a basis keyed on the
highest set bit, adding what is left.  It serves IncrementalSpan over
GF(2), whose add and extend both take packed ints only.  Through it the
face-level ranks in homology, where _map_rank packs each core it ranks,
and the saturation greedy in constructions reduce the columns numpy
packs from arrays of faces, one call per run.  Every vector of a run is
reduced: stopping once the rank reached a bound the caller knows saved
no measurable time on the saturation ladder.
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
        pv = prow[pj]
        rank += 1
        active.discard(pi)

        # scale prow so that one update serves every field (module docstring)
        if p is not None:
            inv = pow(pv, -1, p)
            for j in prow:
                prow[j] = prow[j] * inv % p
            pv = 1
        elif pv == -1:
            for j in prow:
                prow[j] = -prow[j]
            pv = 1
        # a list: the update below drops each row it clears from col_rows[pj]
        for i in [i for i in col_rows[pj] if i != pi and i in active]:
            # row_i <- pv * row_i - a * prow; pv != 1 only over Q, where the
            # scaling hits every entry, not only the columns prow touches
            row = rows[i]
            a = row[pj]
            if pv != 1:
                for j in row:
                    row[j] *= pv
            for j, v in prow.items():
                w = row.get(j, 0) - a * v
                if p is not None:
                    w %= p
                if w:
                    row[j] = w
                    col_rows.setdefault(j, set()).add(i)
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
            if pv != 1:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for j in row:
                        row[j] //= g
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
                p: Optional[int], combo: Optional[dict[int, object]] = None,
                combos: Optional[dict[int, dict[int, object]]] = None) -> Optional[int]:
    """Reduce vec in place against basis; the free largest index, or None.

    basis maps the largest index of each basis vector to that vector, and
    vec loses its largest index to the basis vector holding it until no
    basis vector does; that index is returned, or None once vec is 0.
    When combo is given, each step applies the same operation to combo
    with combos[index], so combo keeps vec as a combination of the input
    vectors.  Residues mod p for a prime p, Fraction for the rationals.
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
        if combo is not None:
            _subtract(combo, combos[low], c, p)
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


def kernel_basis(entries: Entries, n_rows: int, n_cols: int,
                 p: Optional[int] = None) -> list[dict[int, object]]:
    """Basis of the right kernel, as sparse column-index -> coefficient maps.

    Runs the column reduction while tracking the column operations; each
    column that reduces to zero hands back the combination that killed it.
    Rational output is in Fraction, GF(p) output in residues.
    """
    one = 1 if p is not None else Fraction(1)
    basis: dict[int, dict[int, object]] = {}
    combos: dict[int, dict[int, object]] = {}
    kernel: list[dict[int, object]] = []
    for j, col in enumerate(_columns(entries, n_cols, p)):
        combo = {j: one}
        low = _reduce_low(col, basis, p, combo, combos)
        if low is None:
            kernel.append(combo)
        else:
            basis[low] = col
            combos[low] = combo
    return kernel


class IncrementalSpan:
    """Grow a row space one vector at a time, reporting whether each adds rank.

    Over GF(2) vectors are packed int bitsets, reduced by the XOR core;
    otherwise sparse index -> value dicts, reduced by the column route's
    core.  Basis rows are kept reduced enough to have distinct pivots
    (largest index).  Used where candidates arrive online and only the
    yes/no answer and the running rank matter; extend takes a run of them
    in one loop.
    """

    def __init__(self, p: Optional[int] = None):
        self.p = p
        self.basis: dict[int, object] = {}

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, vec: Union[int, dict[int, object]]) -> bool:
        """Try to add vec to the span; True iff the rank grew."""
        rank = len(self.basis)
        return self.extend((vec,)) > rank

    def extend(self, vecs: Iterable[Union[int, dict[int, object]]]) -> int:
        """Add each of vecs in turn; returns the rank.

        Over GF(2) vecs are packed int bitsets, the whole run reduced by
        one call of the XOR core.
        """
        p, basis = self.p, self.basis
        if p == 2:
            _gf2_reduce(basis, vecs)
            return len(basis)
        for vec in vecs:
            vec = {j: x for j, v in vec.items() if (x := _field_value(v, p))}
            low = _reduce_low(vec, basis, p)
            if low is not None:
                basis[low] = vec
        return len(basis)
