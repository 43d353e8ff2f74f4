"""Command line front end.

Exit codes: 0 when everything asserted held, 1 when a verified
mathematical assertion failed (which means an implementation bug, since
every asserted statement is a theorem), 2 for usage, parse, and parameter
errors.  All numeric output is deterministic for a fixed seed; wall time
appears only with --timing so default output is byte-stable.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .bounds import (
    check_bound_degree,
    check_dual_degree,
    equality_trichotomy,
    lambda_pair,
    verify_dual_bound,
    verify_upper_bound,
)
from .collapse import collapse
from .complex_io import parse_block_file, parse_complex_file, write_complex_file
from .constructions import (
    SumComplexSpec,
    build_J,
    build_X_nkl,
    steiner_complex,
    sum_complex,
)
from .errors import HypertreeLabError, InvariantViolation, ParameterOutOfRange
from .fields import RATIONALS, FieldSpec, parse_field
from .garland import check_link_size, garland_check
from .homology import betti_table, check_link_degree, link_profile
from .randomness import SplitMix64, random_skeleton_complex
from .reports import RunReport, emit_report
from .simplexes import Complex, SkeletonComplex, as_skeleton_complex, f_vector
from .sweep import CHECKS, DegreeCheck, _bound_fields, _dual_fields, run_sweep

RANDOM_INPUT = re.compile(
    r"random\(\s*seed=(\d+)\s*,\s*n=(\d+)\s*,\s*k=(\d+)\s*,\s*q=([0-9.eE+-]+)\s*\)\Z")

# each construction's arguments after its kind, as its usage names them:
# the spec help, and the count that construct checks
CONSTRUCTIONS = {"sum": "n A s", "xnkl": "n k l", "jnk": "n k", "steiner": "FILE"}


def build_parser() -> argparse.ArgumentParser:
    """The command line parser: every command of HANDLERS, in order.

    The options every command takes are built once, in a parent parser.
    The program parses with PARSER, this parser built at import: it
    depends on no input, and parse_args never changes it.
    """
    parser = argparse.ArgumentParser(
        prog="hypertree-lab",
        description="Exact homology, local-to-global bounds, and spectral "
                    "checks for complexes between consecutive skeleta.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="gf:2",
                        help="coefficients: gf:P for a prime P, or q (default gf:2)")
    common.add_argument("--ell", type=int, default=None,
                        help="degree of the faces whose links are examined")
    common.add_argument("--out", default="text", choices=("text", "json", "csv"))
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--in", dest="input", default=None, metavar="FILE",
                        help="complex file, or random(seed=S,n=N,k=K,q=Q)")
    common.add_argument("--timing", action="store_true",
                        help="include wall time in the report")
    common.add_argument("--relabel", action="store_true",
                        help="compact arbitrary vertex labels to 0..n-1 on read")
    common.add_argument("--out-file", default=None,
                        help="construct: where to write the complex file")

    for name in HANDLERS:
        p = sub.add_parser(name, parents=[common])
        if name == "construct":
            p.add_argument("spec", nargs="+", help=" | ".join(
                f"{kind} {usage}" for kind, usage in CONSTRUCTIONS.items()))
        elif name == "sweep":
            p.add_argument("--check", required=True, choices=tuple(CHECKS))
            p.add_argument("--count", type=int, default=20)
            p.add_argument("--n", default="7", help="comma list of vertex counts")
            p.add_argument("--k", default="2", help="comma list of top dimensions")
            p.add_argument("--q", default="0.5", help="comma list of face densities")

    return parser


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParameterOutOfRange(f"{what}: expected an integer, got {tok!r}") from None


def _load_complex(args) -> tuple[Complex, Optional[int], tuple[str, ...]]:
    """The --in complex; random(...) is drawn after HANDLERS' degree check."""
    if args.input is None:
        raise ParameterOutOfRange(f"{args.command} requires --in")
    if args.input.startswith("random("):
        m = RANDOM_INPUT.match(args.input)
        try:
            seed, n, k, q = int(m[1]), int(m[2]), int(m[3]), float(m[4])
        except (TypeError, ValueError):  # no match, or q is not a float
            raise ParameterOutOfRange(
                f"bad --in {args.input!r}: expected "
                "random(seed=S,n=N,k=K,q=Q)") from None
        check = HANDLERS[args.command][1]
        if check is not None:
            check(n, k, _need_ell(args))
        X = random_skeleton_complex(n, k, q, SplitMix64(seed))
        return X, seed, ()
    parsed = parse_complex_file(args.input, relabel=args.relabel)
    notes = ()
    if parsed.relabel_map:
        pairs = " ".join(f"{a}->{b}" for a, b in sorted(parsed.relabel_map.items()))
        notes = (f"relabeled: {pairs}",)
    return parsed.complex, None, notes


def _need_ell(args) -> int:
    if args.ell is None:
        raise ParameterOutOfRange(f"{args.command} requires --ell")
    return args.ell


def _dims(X: Complex) -> tuple[int, int]:
    if isinstance(X, SkeletonComplex):
        return X.n, X.k
    return X.n, X.dim


def cmd_betti(args) -> RunReport:
    fld = parse_field(args.field)
    X, seed, notes = _load_complex(args)
    n, k = _dims(X)
    return RunReport(
        command="betti", n=n, k=k, field_name=fld.name,
        f_vector=f_vector(X), betti=betti_table(X, fld),
        seed=seed, lines=notes)


def _ell_command(args, field: bool = True
                 ) -> tuple[SkeletonComplex, FieldSpec, RunReport]:
    """(S, fld, base) for a command that takes --ell.

    Parses --field, then --in, then --ell; garland passes field False and
    reads over the rationals, with no --field parsed.  S is the input
    between consecutive skeleta, and base the report with the fields
    every such command shares: n, k, ell, field, f-vector, seed and the
    input's notes.
    """
    fld = parse_field(args.field) if field else RATIONALS
    X, seed, notes = _load_complex(args)
    ell = _need_ell(args)
    S = as_skeleton_complex(X)
    return S, fld, RunReport(
        command=args.command, n=S.n, k=S.k, ell=ell, field_name=fld.name,
        f_vector=f_vector(S), seed=seed, lines=notes)


def cmd_links(args) -> RunReport:
    S, fld, base = _ell_command(args)
    profile = link_profile(S, base.ell, fld)
    j_low, j_high = S.k - base.ell - 2, S.k - base.ell - 1
    lines = tuple(f"tau=({','.join(map(str, e.tau))}) b_{j_low}={e.below} b_{j_high}={e.top}"
                  for e in profile)
    return replace(base, lam_low=sum(e.below for e in profile),
                   lam_high=sum(e.top for e in profile), lines=base.lines + lines)


def cmd_lambda(args) -> RunReport:
    S, fld, base = _ell_command(args)
    lam_low, lam_high = lambda_pair(S, base.ell, fld)
    return replace(base, lam_low=lam_low, lam_high=lam_high)


def cmd_verify_bound(args) -> RunReport:
    S, fld, base = _ell_command(args)
    return replace(base, **_bound_fields(verify_upper_bound(S, base.ell, fld)))


def cmd_verify_dual(args) -> RunReport:
    S, fld, base = _ell_command(args)
    v = verify_dual_bound(S, base.ell, fld)
    return replace(base, lines=base.lines + (f"coefficient={v.coefficient}",),
                   **_dual_fields(v))


def cmd_trichotomy(args) -> RunReport:
    S, fld, base = _ell_command(args)
    ell = base.ell
    rep = equality_trichotomy(S, ell, fld)
    lines = base.lines
    if not rep.applicable:
        lines += (f"link defect is {rep.lam_low}, not 0: "
                  "the three conditions need not agree here",)
    return replace(
        base, lam_low=rep.lam_low, bound_value=rep.bound_value,
        complement_value=rep.complement_value,
        tri=(rep.ceiling_hit, rep.complement_hit, rep.links_are_hypertrees),
        lines=lines)


def cmd_garland(args) -> RunReport:
    S, _, base = _ell_command(args, field=False)
    g = garland_check(S, base.ell)
    lines = [f"threshold={g.threshold} ({float(g.threshold):.6f})"]
    lines.extend(f"mu(({','.join(map(str, tau))}))={mu:.9f}" for tau, mu in g.entries)
    lines.append(f"min_mu={g.min_mu:.9f} premise={g.premise}")
    lines.append(f"rational b_{g.k - 1}={g.betti_q}")
    return replace(base, betti={g.k - 1: g.betti_q}, lines=base.lines + tuple(lines))


def cmd_collapse(args) -> RunReport:
    X, seed, notes = _load_complex(args)
    core, log = collapse(X)
    n, k = _dims(X)
    lines = list(notes)
    for eta, sigma in log:
        lines.append(
            f"removed ({','.join(map(str, eta))}) < ({','.join(map(str, sigma))})")
    lines.append(f"core has {len(core.faces)} faces")
    if len(core.faces) == 2 and core.dim == 0:
        lines.append("core is a single point")
    return RunReport(
        command="collapse", n=n, k=k, f_vector=f_vector(core),
        seed=seed, lines=tuple(lines))


def cmd_construct(args) -> RunReport:
    spec = args.spec
    fld = parse_field(args.field)
    kind = spec[0]
    if kind not in CONSTRUCTIONS:
        raise ParameterOutOfRange(f"unknown construction {kind!r}")
    if len(spec) != 1 + len(CONSTRUCTIONS[kind].split()):
        raise ParameterOutOfRange(f"usage: construct {kind} {CONSTRUCTIONS[kind]}")
    lines: list[str] = []
    if kind == "sum":
        n = _int(spec[1], "n")
        residues = [_int(t, "A") for t in spec[2].split(",")]
        s = _int(spec[3], "s")
        X = sum_complex(SumComplexSpec.make(n, residues, s))
        default_name = f"sum_{n}_{'-'.join(map(str, sorted(set(r % n for r in residues))))}_{s}.cplx"
    elif kind == "xnkl":
        n, k, ell = (_int(spec[i], "nkl"[i - 1]) for i in (1, 2, 3))
        rep = build_X_nkl(n, k, ell, fld, order_seed=args.seed)
        X = rep.complex
        lines.extend([
            f"base b_{k-1}={rep.base_tb} after additions b_{k-1}={rep.tb_after}",
            f"added {rep.added_total} top faces, per-face cap {rep.per_tau_cap} "
            f"respected: {rep.cap_ok}",
            f"link defect after saturation: {rep.lam_low}",
            f"B={rep.bound_value} ratio b/B={rep.ratio} (= {float(rep.ratio):.4f})",
        ])
        default_name = f"xnkl_{n}_{k}_{ell}.cplx"
    elif kind == "jnk":
        n = _int(spec[1], "n")
        k = _int(spec[2], "k")
        X = build_J(n, k)
        default_name = f"jnk_{n}_{k}.cplx"
    else:  # steiner
        blocks = parse_block_file(spec[1])
        sizes = {len(b) for b in blocks}
        if len(sizes) != 1:
            raise ParameterOutOfRange(f"blocks of mixed sizes {sorted(sizes)}")
        n = max(v for b in blocks for v in b) + 1
        k = sizes.pop() - 1
        res = steiner_complex(blocks, n, k)
        X = res.complex
        lines.append(
            f"design valid: {res.is_valid_design} "
            f"(uncovered {res.uncovered}, multicovered {res.multicovered})")
        stem = os.path.splitext(os.path.basename(spec[1]))[0]
        default_name = f"steiner_{stem}.cplx"

    out_path = args.out_file or default_name
    write_complex_file(out_path, X)
    lines.append(f"wrote {out_path}")
    n_, k_ = _dims(X)
    return RunReport(
        command="construct", n=n_, k=k_,
        ell=rep.ell if kind == "xnkl" else None,
        field_name=fld.name, f_vector=f_vector(X),
        betti=betti_table(X, fld), seed=args.seed, lines=tuple(lines))


def _float_list(text: str, what: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise ParameterOutOfRange(f"bad {what} list {text!r}") from None


def _int_list(text: str, what: str) -> list[int]:
    return [_int(t, what) for t in text.split(",")]


def cmd_sweep(args) -> list[RunReport]:
    return run_sweep(args.check, args.count, parse_field(args.field),
                     _int_list(args.n, "n"), _int_list(args.k, "k"),
                     _float_list(args.q, "q"), args.ell or 0, args.seed or 0,
                     args.timing)


# each command's handler, and the library's check of (n, k, ell) behind
# each command that takes --ell, run before a random(...) input is drawn
HANDLERS: dict[str, tuple[Callable, Optional[DegreeCheck]]] = {
    "betti": (cmd_betti, None),
    "links": (cmd_links, check_link_degree),
    "lambda": (cmd_lambda, check_link_degree),
    "verify-bound": (cmd_verify_bound, check_bound_degree),
    "verify-dual": (cmd_verify_dual, check_dual_degree),
    "trichotomy": (cmd_trichotomy, check_bound_degree),
    "garland": (cmd_garland, check_link_size),
    "collapse": (cmd_collapse, None),
    "construct": (cmd_construct, None),
    "sweep": (cmd_sweep, None),
}

PARSER = build_parser()


@dataclass(frozen=True)
class CommandOutcome:
    report: Union[RunReport, list]
    format: str
    exit_code: int


def run_command(argv) -> CommandOutcome:
    """Parse argv (sys.argv[1:] when None) with PARSER and run its command."""
    args = PARSER.parse_args(argv)
    t0 = time.perf_counter()
    report = HANDLERS[args.command][0](args)
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.timing and not isinstance(report, list):
        report = replace(report, elapsed_ms=elapsed)  # sweep rows carry their own
    if isinstance(report, list):
        failed = any(r.failed for r in report)
    else:
        failed = report.failed
    return CommandOutcome(report=report, format=args.out,
                          exit_code=1 if failed else 0)


def main(argv=None) -> int:
    try:
        outcome = run_command(argv)
    except InvariantViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (HypertreeLabError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(emit_report(outcome.report, outcome.format))
    sys.stdout.buffer.flush()
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
