"""Elementary collapses down to a minimal core."""
from __future__ import annotations

from .simplexes import Complex, GeneralComplex, Simplex, as_general, subfaces

CollapseLog = tuple[tuple[Simplex, Simplex], ...]


def _free_pairs(faces: set[Simplex]) -> dict[Simplex, Simplex]:
    """Nonempty faces with exactly one proper coface, mapped to that coface.

    A single proper coface is automatically one dimension up: anything two
    or more dimensions up would bring intermediate cofaces with it.
    """
    count: dict[Simplex, int] = {}
    over: dict[Simplex, Simplex] = {}
    for sigma in faces:
        for eta in subfaces(sigma):
            if eta != sigma and eta:
                count[eta] = count.get(eta, 0) + 1
                over[eta] = sigma
    return {eta: over[eta] for eta, c in count.items() if c == 1}


def collapse(X: Complex) -> tuple[GeneralComplex, CollapseLog]:
    """Greedily remove free pairs, always taking the smallest free face.

    Candidates are ordered by plain tuple comparison, so shorter faces win
    ties against their own extensions.  Returns the collapsed core and the
    removal log in order.
    """
    G = as_general(X)
    faces = set(G.faces)
    log: list[tuple[Simplex, Simplex]] = []
    while True:
        free = _free_pairs(faces)
        if not free:
            break
        eta = min(free)
        sigma = free[eta]
        faces.discard(eta)
        faces.discard(sigma)
        log.append((eta, sigma))
    return GeneralComplex(G.ground, frozenset(faces)), tuple(log)
