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
from functools import cache
from typing import Callable, Optional, Union

from .bounds import (
    bound_B,
    bound_F,
    equality_trichotomy,
    lambda_pair,
    monotonicity_check,
    support_property_holds,
    verify_dual_bound,
    verify_upper_bound,
)
from .collapse import collapse
from .complex_io import parse_complex_file, write_complex_file
from .constructions import (
    SumComplexSpec,
    build_J,
    build_X_nkl,
    steiner_complex,
    sum_complex,
)
from .errors import (
    HypertreeLabError,
    InvariantViolation,
    NotPure,
    ParameterOutOfRange,
    ParseError,
)
from .fields import parse_field
from .garland import check_link_size, garland_check
from .homology import betti, betti_table, link_profile
from .randomness import SplitMix64, random_skeleton_complex
from .reports import RunReport, emit_report
from .simplexes import (
    Complex,
    SkeletonComplex,
    as_skeleton_complex,
    f_vector,
)

RANDOM_INPUT = re.compile(
    r"random\(\s*seed=(\d+)\s*,\s*n=(\d+)\s*,\s*k=(\d+)\s*,\s*q=([0-9.eE+-]+)\s*\)\Z")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    parse_args never changes a parser, so every call may share it.
    """
    parser = argparse.ArgumentParser(
        prog="hypertree-lab",
        description="Exact homology, local-to-global bounds, and spectral "
                    "checks for complexes between consecutive skeleta.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="gf:2",
                       help="coefficients: gf:P for a prime P, or q (default gf:2)")
        p.add_argument("--ell", type=int, default=None,
                       help="degree of the faces whose links are examined")
        p.add_argument("--out", default="text", choices=("text", "json", "csv"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--in", dest="input", default=None, metavar="FILE",
                       help="complex file, or random(seed=S,n=N,k=K,q=Q)")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the report")
        p.add_argument("--relabel", action="store_true",
                       help="compact arbitrary vertex labels to 0..n-1 on read")
        p.add_argument("--out-file", default=None,
                       help="construct: where to write the complex file")

    for name in ("betti", "links", "lambda", "verify-bound", "verify-dual",
                 "trichotomy", "garland", "collapse"):
        common(sub.add_parser(name))

    p_construct = sub.add_parser("construct")
    common(p_construct)
    p_construct.add_argument(
        "spec", nargs="+",
        help="sum n A s | xnkl n k l | jnk n k | steiner FILE")

    p_sweep = sub.add_parser("sweep")
    common(p_sweep)
    p_sweep.add_argument("--check", required=True,
                         choices=("bound", "dual", "mono", "garland", "support"))
    p_sweep.add_argument("--count", type=int, default=20)
    p_sweep.add_argument("--n", default="7", help="comma list of vertex counts")
    p_sweep.add_argument("--k", default="2", help="comma list of top dimensions")
    p_sweep.add_argument("--q", default="0.5", help="comma list of face densities")

    return parser


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParameterOutOfRange(f"{what}: expected an integer, got {tok!r}") from None


def _load_complex(args, before_draw: Optional[Callable[[int, int], None]] = None
                  ) -> tuple[Complex, Optional[int], tuple[str, ...]]:
    """The --in complex; before_draw(n, k) runs before a random(...) draw."""
    if args.input is None:
        raise ParameterOutOfRange(f"{args.command} requires --in")
    m = RANDOM_INPUT.match(args.input)
    if m:
        seed, n, k = int(m.group(1)), int(m.group(2)), int(m.group(3))
        q = float(m.group(4))
        if before_draw is not None:
            before_draw(n, k)
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
    X, seed, notes = _load_complex(args)
    fld = parse_field(args.field)
    n, k = _dims(X)
    return RunReport(
        command="betti", n=n, k=k, field_name=fld.name,
        f_vector=f_vector(X), betti=betti_table(X, fld),
        seed=seed, lines=notes)


def cmd_links(args) -> RunReport:
    X, seed, notes = _load_complex(args)
    fld = parse_field(args.field)
    ell = _need_ell(args)
    S = as_skeleton_complex(X)
    profile = link_profile(S, ell, fld)
    j_low, j_high = S.k - ell - 2, S.k - ell - 1
    lines = list(notes)
    for e in profile:
        lines.append(
            f"tau=({','.join(map(str, e.tau))}) "
            f"b_{j_low}={e.below} b_{j_high}={e.top}")
    return RunReport(
        command="links", n=S.n, k=S.k, ell=ell, field_name=fld.name,
        f_vector=f_vector(S), lam_low=sum(e.below for e in profile),
        lam_high=sum(e.top for e in profile),
        seed=seed, lines=tuple(lines))


def cmd_lambda(args) -> RunReport:
    X, seed, notes = _load_complex(args)
    fld = parse_field(args.field)
    ell = _need_ell(args)
    S = as_skeleton_complex(X)
    lam_low, lam_high = lambda_pair(S, ell, fld)
    return RunReport(
        command="lambda", n=S.n, k=S.k, ell=ell, field_name=fld.name,
        f_vector=f_vector(S), lam_low=lam_low, lam_high=lam_high,
        seed=seed, lines=notes)


def _bound_fields(cert) -> dict:
    """Report fields of an upper-bound certificate: verify-bound, bound rows."""
    return dict(
        betti={cert.k - 1: cert.tb_top_below, cert.k: cert.tb_top},
        lam_low=cert.lam_low, lam_high=cert.lam_high,
        bound_value=cert.bound_value, complement_value=cert.complement_value,
        eq_upper=cert.eq_upper, eq_dual=cert.eq_dual,
        eq_step=cert.eq_step, eq_shift=cert.eq_shift,
        failed=not cert.all_hold)


def _dual_fields(v) -> dict:
    """Report fields of a dual-bound check: verify-dual, dual sweep rows."""
    return dict(betti={v.k: v.tb_top}, lam_high=v.lam_high, eq_dual=v.holds,
                failed=not v.holds)


def cmd_verify_bound(args) -> RunReport:
    X, seed, notes = _load_complex(args)
    fld = parse_field(args.field)
    ell = _need_ell(args)
    cert = verify_upper_bound(X, ell, fld)
    return RunReport(
        command="verify-bound", n=cert.n, k=cert.k, ell=ell,
        field_name=fld.name, f_vector=f_vector(as_skeleton_complex(X)),
        seed=seed, lines=notes, **_bound_fields(cert))


def cmd_verify_dual(args) -> RunReport:
    X, seed, notes = _load_complex(args)
    fld = parse_field(args.field)
    ell = _need_ell(args)
    v = verify_dual_bound(X, ell, fld)
    return RunReport(
        command="verify-dual", n=v.n, k=v.k, ell=ell, field_name=fld.name,
        f_vector=f_vector(as_skeleton_complex(X)), seed=seed,
        lines=notes + (f"coefficient={v.coefficient}",), **_dual_fields(v))


def cmd_trichotomy(args) -> RunReport:
    X, seed, notes = _load_complex(args)
    fld = parse_field(args.field)
    ell = _need_ell(args)
    rep = equality_trichotomy(X, ell, fld, require_zero_defect=False)
    lines = list(notes)
    if not rep.applicable:
        lines.append(
            f"link defect is {rep.lam_low}, not 0: "
            "the three conditions need not agree here")
    return RunReport(
        command="trichotomy", n=rep.n, k=rep.k, ell=ell, field_name=fld.name,
        f_vector=f_vector(as_skeleton_complex(X)), lam_low=rep.lam_low,
        bound_value=bound_B(rep.n, rep.k, ell),
        complement_value=bound_F(rep.n, rep.k, ell),
        tri=(rep.ceiling_hit, rep.complement_hit, rep.links_are_hypertrees),
        seed=seed, lines=tuple(lines))


def cmd_garland(args) -> RunReport:
    # a random input is refused from (n, k, ell) before it is drawn
    X, seed, notes = _load_complex(
        args, lambda n, k: check_link_size(n, k, _need_ell(args)))
    ell = _need_ell(args)
    S = as_skeleton_complex(X)
    g = garland_check(S, ell)
    lines = list(notes)
    lines.append(f"threshold={g.threshold} ({float(g.threshold):.6f})")
    for tau, mu in g.entries:
        lines.append(f"mu(({','.join(map(str, tau))}))={mu:.9f}")
    lines.append(f"min_mu={g.min_mu:.9f} premise={g.premise}")
    lines.append(f"rational b_{g.k - 1}={g.betti_q}")
    return RunReport(
        command="garland", n=g.n, k=g.k, ell=ell, field_name="q",
        f_vector=f_vector(S), betti={g.k - 1: g.betti_q},
        seed=seed, lines=tuple(lines))


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


def _parse_block_file(path: str) -> list[tuple[int, ...]]:
    blocks = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                blocks.append(tuple(sorted(int(t) for t in line.split())))
            except ValueError:
                raise ParseError("bad block line", line=i) from None
    if not blocks:
        raise ParseError(f"{path}: no blocks")
    return blocks


def cmd_construct(args) -> RunReport:
    spec = args.spec
    fld = parse_field(args.field)
    kind = spec[0]
    lines: list[str] = []
    if kind == "sum":
        if len(spec) != 4:
            raise ParameterOutOfRange("usage: construct sum n A s")
        n = _int(spec[1], "n")
        residues = [_int(t, "A") for t in spec[2].split(",")]
        s = _int(spec[3], "s")
        X = sum_complex(SumComplexSpec.make(n, residues, s))
        default_name = f"sum_{n}_{'-'.join(map(str, sorted(set(r % n for r in residues))))}_{s}.cplx"
    elif kind == "xnkl":
        if len(spec) != 4:
            raise ParameterOutOfRange("usage: construct xnkl n k l")
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
        if len(spec) != 3:
            raise ParameterOutOfRange("usage: construct jnk n k")
        n = _int(spec[1], "n")
        k = _int(spec[2], "k")
        X = build_J(n, k)
        default_name = f"jnk_{n}_{k}.cplx"
    elif kind == "steiner":
        if len(spec) != 2:
            raise ParameterOutOfRange("usage: construct steiner FILE")
        blocks = _parse_block_file(spec[1])
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
    else:
        raise ParameterOutOfRange(f"unknown construction {kind!r}")

    out_path = args.out_file or default_name
    write_complex_file(out_path, X)
    lines.append(f"wrote {out_path}")
    n_, k_ = _dims(X)
    return RunReport(
        command="construct", n=n_, k=k_,
        ell=args.ell if kind == "xnkl" else None,
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
    fld = parse_field(args.field)
    ns = _int_list(args.n, "n")
    ks = _int_list(args.k, "k")
    qs = _float_list(args.q, "q")
    root = SplitMix64(args.seed if args.seed is not None else 0)
    rows: list[RunReport] = []
    made = 0
    attempts = 0
    while made < args.count:
        attempts += 1
        if attempts > 1000 * args.count:
            raise ParameterOutOfRange(
                "sweep could not generate enough admissible complexes")
        n = ns[made % len(ns)]
        k = ks[made % len(ks)]
        q = qs[made % len(qs)]
        t0 = time.perf_counter()
        seed_i = root.next_u64()
        X = random_skeleton_complex(n, k, q, SplitMix64(seed_i))
        row = _sweep_row(args, fld, X, seed_i)
        if row is None:
            continue
        if args.timing:
            row = replace(row, elapsed_ms=(time.perf_counter() - t0) * 1000.0)
        rows.append(row)
        made += 1
    return rows


def _sweep_row(args, fld, X: SkeletonComplex,
               seed_i: int) -> Optional[RunReport]:
    check = args.check
    base = dict(n=X.n, k=X.k, field_name=fld.name, f_vector=f_vector(X),
                seed=seed_i)
    if check == "bound":
        ell = args.ell if args.ell is not None else 0
        cert = verify_upper_bound(X, ell, fld)
        return RunReport(command="sweep", ell=ell, **base, **_bound_fields(cert))
    if check == "dual":
        ell = args.ell if args.ell is not None else 0
        v = verify_dual_bound(X, ell, fld)
        return RunReport(command="sweep", ell=ell, **base, **_dual_fields(v))
    if check == "mono":
        if not X.top_faces:
            return None
        ell = args.ell if args.ell is not None else 0
        sigma = SplitMix64(seed_i ^ 0xABCDEF).choice(sorted(X.top_faces))
        v = monotonicity_check(X, sigma, ell, fld)
        return RunReport(
            command="sweep", ell=ell, **base,
            lines=(f"sigma=({','.join(map(str, sigma))})",
                   f"defect {v.lam_before}->{v.lam_after}, "
                   f"b_{v.k-1} {v.tb_before}->{v.tb_after}",
                   f"holds={v.holds}"),
            failed=not v.holds)
    if check == "garland":
        ell = args.ell if args.ell is not None else 0
        try:
            g = garland_check(X, ell)
        except NotPure:
            return None  # draw another complex
        return RunReport(
            command="sweep", ell=ell, **base, betti={g.k - 1: g.betti_q},
            lines=(f"min_mu={g.min_mu:.9f}", f"premise={g.premise}",
                   f"conclusion={g.conclusion}"))
    if check == "support":
        tb_top = betti(X, X.k, fld)
        if tb_top == 0:
            return RunReport(
                command="sweep", **base, betti={X.k: 0},
                lines=("b_k=0: support property vacuous",))
        ok = support_property_holds(X, fld)
        return RunReport(
            command="sweep", **base, betti={X.k: tb_top},
            lines=(f"support property holds: {ok}",), failed=not ok)
    raise ParameterOutOfRange(f"unknown check {check!r}")


HANDLERS = {
    "betti": cmd_betti,
    "links": cmd_links,
    "lambda": cmd_lambda,
    "verify-bound": cmd_verify_bound,
    "verify-dual": cmd_verify_dual,
    "trichotomy": cmd_trichotomy,
    "garland": cmd_garland,
    "collapse": cmd_collapse,
    "construct": cmd_construct,
    "sweep": cmd_sweep,
}


@dataclass(frozen=True)
class CommandOutcome:
    report: Union[RunReport, list]
    format: str
    exit_code: int


def run_command(argv) -> CommandOutcome:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    report = HANDLERS[args.command](args)
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
