"""The three workloads: their items, warm-up, timed call and check.

Items come in groups, one group per input complex: a ``bound_sweep``
complex at every ell, a ``saturation`` rung, a ``garland`` complex at every
ell.  Within a pass every item is a distinct input and items run in a
fixed order; ``run.py`` repeats the pass and starts every group from empty
memos and a freshly built input, so each pass does the same work.  Inputs
come from ``random.Random(seed)``; the library receives only the generated
inputs.  ``rounds`` sets how much work a pass does (see ``run.py``).
Timed calls look library functions up on their modules at call time, so
that the tracer's wrappers see them.

bound_sweep  the user's ``verify-bound --field q`` path at the hypertree
             threshold q = (k+1)/n: link building and exact-Q row
             elimination, no GF(2) and no eigen step.
saturation   the paper's tightness construction ``build_X_nkl`` over GF(2):
             large GF(2) eliminations and ``IncrementalSpan``, no Q
             arithmetic and no eigen step.
garland      ``garland_check`` on complete skeleta (premise holds) and on
             dense random pure complexes (premise mostly fails): the eigen
             step, which runs nowhere else; ranks are a few percent.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import checks

# (n, k); each complex is checked at every ell < k in turn
BOUND_SHAPES = ((13, 3), (15, 3), (17, 3), (10, 4), (11, 4))

# (n, k, ell): k = 3 at ell 0 and 1 for prime n from 11 to 29, k = 4 at
# ell 0, 1, 2 for prime n from 11 to 17.  Item times fall in three bands of
# seven rungs: k = 3 with n <= 13 and k = 4 with n = 11; k = 3 with n in
# {17, 19} and k = 4 with n = 13; the rest.  The median item is then the
# middle of the middle band, not an edge between two bands.
SATURATION_RUNGS = tuple(
    [(n, 3, ell) for ell in (0, 1) for n in (11, 13, 17, 19, 23, 29)]
    + [(n, 4, ell) for ell in (0, 1, 2) for n in (11, 13, 17)])

# (n, k), each at every ell <= k-2; run once per run
GARLAND_COMPLETE = ((10, 2), (12, 2), (14, 2), (8, 3), (10, 3), (12, 3))
# (n, k, q), each at every ell <= k-2; one fresh pure draw per round.  The
# seven items of a round fall in distinct time bands and the median item
# is (14, 2), so the median does not sit in a gap between bands.
GARLAND_DENSE = ((10, 2, 0.5), (12, 2, 0.5), (14, 2, 0.4),
                 (9, 3, 0.6), (10, 3, 0.55))


@dataclass(frozen=True)
class Item:
    label: str
    call: Callable[[object], object]         # timed; takes the group's input
    check: Callable[[object], list[str]]     # untimed; problems found


@dataclass(frozen=True)
class Group:
    make: Callable[[], object]               # untimed; a fresh input per pass
    items: tuple[Item, ...]


def _no_input():
    return None


def _q(n: int, k: int) -> str:
    return repr((k + 1) / n)


def bound_sweep(lib, seed: int, rounds: int, route) -> list[Group]:
    """The input is the ``random(...)`` spec, parsed anew by every call."""
    cli, reports = lib.cli, lib.reports
    checker = checks.BoundSweepChecker(route)
    rng = random.Random(seed)
    groups = []
    for _ in range(rounds):
        for n, k in BOUND_SHAPES:
            s = rng.getrandbits(63)
            q = _q(n, k)
            items = []
            for ell in range(k):
                argv = ["verify-bound", "--in", f"random(seed={s},n={n},k={k},q={q})",
                        "--ell", str(ell), "--field", "q", "--out", "json"]

                def call(_, argv=argv):
                    out = cli.run_command(argv)
                    if out.exit_code != 0:
                        raise RuntimeError(f"exit code {out.exit_code}")
                    return reports.emit_report(out.report, out.format)

                def check(payload, s=s, n=n, k=k, ell=ell, q=float(q)):
                    return checker.check(s, n, k, ell, q, payload)

                items.append(Item(f"verify-bound seed={s} n={n} k={k} ell={ell}",
                                  call, check))
            groups.append(Group(_no_input, tuple(items)))
    return groups


def bound_sweep_warmup(lib) -> None:
    out = lib.cli.run_command(["verify-bound", "--in", "random(seed=1,n=6,k=2,q=0.5)",
                               "--ell", "0", "--field", "q", "--out", "json"])
    lib.reports.emit_report(out.report, out.format)


def saturation(lib, seed: int, rounds: int, route) -> list[Group]:
    """The ladder in lexicographic candidate order, which is the paper's
    construction and does not depend on the seed.  Rounds after the first
    shuffle the candidates with seed-derived order seeds, so that every
    input stays distinct."""
    rng = random.Random(seed)
    groups = []
    for r in range(rounds):
        for n, k, ell in SATURATION_RUNGS:
            order = rng.getrandbits(63) if r else None

            def call(_, n=n, k=k, ell=ell, order=order):
                return lib.constructions.build_X_nkl(n, k, ell, lib.fields.GF2,
                                                     order_seed=order)

            def check(rep, n=n, k=k, ell=ell):
                return checks.check_saturation(route, n, k, ell, rep)

            item = Item(f"build_X_nkl({n},{k},{ell}) order={order}", call, check)
            groups.append(Group(_no_input, (item,)))
    return groups


def saturation_warmup(lib) -> None:
    lib.constructions.build_X_nkl(5, 2, 0, lib.fields.GF2)


def _pure_draw(rng: random.Random, n: int, k: int, q: float) -> frozenset:
    """Draw until the complex is pure; the discarded draws are never timed."""
    while True:
        tops = checks.splitmix_faces(rng.getrandbits(63), n, k, q)
        if tops and checks.is_pure_sandwich(n, k, tops):
            return frozenset(tops)


def garland(lib, seed: int, rounds: int, route) -> list[Group]:
    """The input is the complex, rebuilt from its top faces for every pass."""
    rng = random.Random(seed)
    inputs = [(n, k, lib.simplexes.full_skeleton(n, k).top_faces, True)
              for n, k in GARLAND_COMPLETE]
    for _ in range(rounds):
        inputs.extend((n, k, _pure_draw(rng, n, k, q), False) for n, k, q in GARLAND_DENSE)
    groups = []
    for n, k, tops, complete in inputs:
        def make(n=n, k=k, tops=tops):
            return lib.simplexes.SkeletonComplex(n, k, tops)

        X = make()
        items = []
        for ell in range(k - 1):
            def call(X, ell=ell):
                return lib.garland.garland_check(X, ell)

            def check(rep, X=X, ell=ell, complete=complete):
                return checks.check_garland(route, lib.simplexes.link,
                                            lib.garland.weighted_laplacian,
                                            X, ell, complete, rep)

            kind = "complete" if complete else f"dense f_k={len(tops)}"
            items.append(Item(f"garland n={n} k={k} ell={ell} {kind}", call, check))
        groups.append(Group(make, tuple(items)))
    return groups


def garland_warmup(lib) -> None:
    lib.garland.garland_check(lib.simplexes.full_skeleton(5, 2), 0)


def saturation_figures(reports) -> list[str]:
    return [f"round {i // len(SATURATION_RUNGS)} n={r.n} k={r.k} ell={r.ell}: "
            f"b_{r.k - 1}={r.tb_after} B={r.bound_value} b/B={float(r.ratio):.4f}"
            for i, r in enumerate(reports)]


def garland_figures(reports) -> list[str]:
    verdicts = Counter(r.premise for r in reports)
    counts = ", ".join(f"{v} {c}" for v, c in sorted(verdicts.items()))
    return [f"premise verdicts: {counts}"]


# name -> (groups, warm-up, nominal seconds per round and pass on the
#          reference host, untraced passes, reference figures printed from
#          the outputs).  Best-of-three steadies the short items of
#          bound_sweep and garland; a saturation item runs for seconds and
#          meets dozens of host-speed samples, so two passes suffice there.
WORKLOADS = {
    "bound_sweep": (bound_sweep, bound_sweep_warmup, 2.0, 3, lambda outputs: []),
    "saturation": (saturation, saturation_warmup, 15.0, 2, saturation_figures),
    "garland": (garland, garland_warmup, 1.9, 3, garland_figures),
}
