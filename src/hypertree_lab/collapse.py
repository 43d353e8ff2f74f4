"""Elementary collapses down to a minimal core."""
from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import TooLarge
from .simplexes import FACE_BUDGET, Complex, GeneralComplex, Simplex, as_general, f_vector, subfaces

CollapseLog = tuple[tuple[Simplex, Simplex], ...]


def _coface_counts(faces: set[Simplex]) -> dict[Simplex, int]:
    """The proper cofaces of every nonempty face.

    A face with a single proper coface is free: that coface is
    automatically one dimension up, since anything two or more dimensions
    up would bring intermediate cofaces with it.
    """
    count: dict[Simplex, int] = {}
    for sigma in faces:
        for eta in subfaces(sigma):
            if eta != sigma and eta:
                count[eta] = count.get(eta, 0) + 1
    return count


def collapse(X: Complex) -> tuple[GeneralComplex, CollapseLog]:
    """Greedily remove free pairs, always taking the smallest free face.

    Candidates are ordered by plain tuple comparison, so shorter faces win
    ties against their own extensions.  Returns the collapsed core and the
    removal log in order.

    The coface counts are taken once.  Removing a free face eta with its
    coface sigma = eta + v changes only the counts of sigma's other
    proper faces: each loses sigma, and those without v lose eta too.
    Counts only fall, so a face turns free at most once; a heap keeps the
    free faces, and one that was removed or lost its coface since is
    skipped when it comes up.

    More than FACE_BUDGET faces, counted from the f-vector before any
    face is built, are refused.
    """
    n_faces = sum(f_vector(X))
    if n_faces > FACE_BUDGET:
        raise TooLarge(f"{n_faces} faces exceed the budget of {FACE_BUDGET}")
    G = as_general(X)
    faces = set(G.faces)
    count = _coface_counts(faces)
    free = [eta for eta, c in count.items() if c == 1]
    heapify(free)
    log: list[tuple[Simplex, Simplex]] = []
    while free:
        eta = heappop(free)
        if eta not in faces or count[eta] != 1:
            continue
        v, sigma = next((v, s) for v in G.ground if v not in eta
                        and (s := tuple(sorted(eta + (v,)))) in faces)
        faces.discard(eta)
        faces.discard(sigma)
        log.append((eta, sigma))
        for x in subfaces(sigma):
            if x and x != sigma and x != eta:
                count[x] -= 1 if v in x else 2
                if count[x] == 1:
                    heappush(free, x)
    return GeneralComplex(G.ground, frozenset(faces)), tuple(log)
