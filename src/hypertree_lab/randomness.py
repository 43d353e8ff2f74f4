"""Deterministic PRNG and random complex generators.

SplitMix64 keeps runs reproducible across platforms without dragging in
Python's global Mersenne Twister state.  A sub-task whose draws must not
depend on what ran before it gets its own SplitMix64, seeded with one
next_u64() of its parent: each sweep row and each face the shuffled
greedy saturates.

random_skeleton_complex(n, k, q, rng) keeps the i-th of the C(n, k+1)
candidate k-faces, in lexicographic order, exactly when the i-th
rng.uniform() would be below q, and leaves rng advanced by C(n, k+1)
steps, as if it had called uniform() once per candidate.  Only the kept
ranks i become faces, unranked by simplexes._lex_unrank, so no candidate
is enumerated.  SplitMix64 is add, xorshift and multiply mod 2^64
(Steele, Lea and Flood, OOPSLA 2014), so step i of the state is
state + i*GAMMA and numpy uint64 arrays compute a whole block of outputs
with the same wrapping arithmetic.  The cast of an output to float64
rounds to nearest, as Python's float(z) does, and the division by 2^64
is exact, so the block test is the scalar test.  SplitMix64.shuffle
reads its outputs from the same blocks.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .errors import ParameterOutOfRange, TooLarge
from .simplexes import FACE_BUDGET, SkeletonComplex, _lex_unrank

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
BLOCK = 1 << 16  # candidates drawn per numpy block; bounds the draw's memory


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return self.next_u64() / 2.0 ** 64

    def below(self, n: int) -> int:
        # rejection-free modulo is fine at these sizes; bias < 2^-50
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the back: for i = len-1 down to 1, swap
        position i with below(i + 1).  The outputs come in numpy blocks of
        at most BLOCK (module docstring), the swaps run in order, and the
        state ends one step per swap on, as below() would leave it."""
        state, top = self.state, len(items) - 1
        for start in range(0, top, BLOCK):
            count = min(BLOCK, top - start)
            i = top - start - np.arange(count)
            # uint64 on both sides: NumPy 1.24 takes uint64 % int as float64
            js = _outputs((state + start * GAMMA) & MASK, count) % (i + 1).astype(np.uint64)
            for i, j in zip(i.tolist(), js.tolist()):
                items[i], items[j] = items[j], items[i]
        self.state = (state + max(top, 0) * GAMMA) & MASK


def check_draw(n: int, k: int, q: float) -> None:
    """Refuse a density outside [0, 1] or more than FACE_BUDGET candidates."""
    if not 0.0 <= q <= 1.0:  # NaN fails this too
        raise ParameterOutOfRange(f"face density q={q} must lie in [0, 1]")
    if 0 <= k < n and comb(n, k + 1) > FACE_BUDGET:
        raise TooLarge(f"C({n}, {k + 1}) = {comb(n, k + 1)} candidate faces "
                       f"exceeds the budget of {FACE_BUDGET}")


def _outputs(state: int, count: int) -> np.ndarray:
    """The next count SplitMix64 outputs after state, as a uint64 array.

    Every operand is spelled uint64 and every result is an array, so the
    arithmetic wraps mod 2^64 without an overflow warning, under the
    promotion rules of NumPy 1.24 and NumPy 2 alike.
    """
    u = np.uint64
    z = np.arange(1, count + 1, dtype=u) * u(GAMMA) + u(state)
    z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    return z ^ (z >> u(31))


def random_skeleton_complex(n: int, k: int, q: float,
                            rng: SplitMix64) -> SkeletonComplex:
    """Full (k-1)-skeleton plus each k-face independently with probability q.

    Candidates are tested in lexicographic order so a seed pins the
    complex; the draw is the per-candidate uniform() < q test, made in
    blocks of BLOCK candidates, and the kept ranks are unranked (module
    docstring).  Both q and the number of
    candidate faces are checked before any draw.
    """
    check_draw(n, k, q)
    total = comb(max(n, 0), k + 1)
    state = rng.state
    blocks = [np.empty((0, k + 1), dtype=np.int64)]
    for start in range(0, total, BLOCK):
        z = _outputs((state + start * GAMMA) & MASK, min(BLOCK, total - start))
        ranks = start + np.flatnonzero(z.astype(np.float64) / 2.0 ** 64 < q)
        blocks.append(_lex_unrank(ranks, n, k + 1))
    rng.state = (state + total * GAMMA) & MASK
    return SkeletonComplex(n, k, np.concatenate(blocks))
