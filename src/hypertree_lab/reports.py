"""Run reports and their text / JSON / CSV serializations.

The JSON schema is part of the external interface and its key order is
fixed; every key is always present and nulls mark fields a subcommand did
not compute.  Exact rationals are serialized as numerator/denominator
strings.  Wall time is reported only on request, so that identical seeds
give byte-identical output by default.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union


@dataclass(frozen=True)
class RunReport:
    command: str
    n: Optional[int] = None
    k: Optional[int] = None
    ell: Optional[int] = None
    field_name: Optional[str] = None
    f_vector: Optional[tuple[int, ...]] = None
    betti: Optional[dict[int, int]] = None
    lam_low: Optional[int] = None
    lam_high: Optional[int] = None
    bound_value: Optional[Fraction] = None
    complement_value: Optional[Fraction] = None
    eq_upper: Optional[bool] = None
    eq_dual: Optional[bool] = None
    eq_step: Optional[bool] = None
    eq_shift: Optional[bool] = None
    tri: Optional[tuple[bool, bool, bool]] = None
    seed: Optional[int] = None
    elapsed_ms: Optional[float] = None
    lines: tuple[str, ...] = field(default=())  # extra human-oriented detail
    failed: bool = False


def _frac(x: Optional[Fraction]):
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _betti_obj(b: Optional[dict[int, int]]):
    if b is None:
        return None
    return {str(d): b[d] for d in sorted(b)}


def report_to_dict(r: RunReport) -> dict:
    return {
        "command": r.command,
        "n": r.n,
        "k": r.k,
        "ell": r.ell,
        "field": r.field_name,
        "f_vector": list(r.f_vector) if r.f_vector is not None else None,
        "betti": _betti_obj(r.betti),
        "lambda_km2": r.lam_low,
        "lambda_km1": r.lam_high,
        "B": _frac(r.bound_value),
        "F": _frac(r.complement_value),
        "eq1_holds": r.eq_upper,
        "eq5_holds": r.eq_dual,
        "eq6_holds": r.eq_step,
        "eq8_holds": r.eq_shift,
        "trichotomy": (
            {"a": r.tri[0], "b": r.tri[1], "c": r.tri[2]}
            if r.tri is not None else None),
        "seed": r.seed,
        "elapsed_ms": r.elapsed_ms,
    }


CSV_COLUMNS = (
    "command", "n", "k", "ell", "field", "f_vector", "betti",
    "lambda_km2", "lambda_km1", "B_num", "B_den", "F_num", "F_den",
    "eq1_holds", "eq5_holds", "eq6_holds", "eq8_holds",
    "tri_a", "tri_b", "tri_c", "seed", "elapsed_ms",
)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# the parts of each nested value of report_to_dict, one CSV cell apiece
_CSV_PARTS = {"B": 2, "F": 2, "trichotomy": 3}


def _csv_row(r: RunReport) -> str:
    """r's CSV cells, read from report_to_dict in key order: a list or
    the Betti numbers in one cell, a nested value in one cell per part."""
    cells = []
    for key, v in report_to_dict(r).items():
        if key in _CSV_PARTS:
            cells.extend(v.values() if v else [None] * _CSV_PARTS[key])
        elif isinstance(v, list):
            cells.append(" ".join(map(str, v)))
        elif isinstance(v, dict):
            cells.append(" ".join(f"{dim}:{b}" for dim, b in v.items()))
        else:
            cells.append(v)
    return ",".join(map(_csv_cell, cells))


def _text_block(r: RunReport) -> str:
    out = [f"[{r.command}]"]
    if r.n is not None:
        out.append(f"  n={r.n} k={r.k}"
                   + (f" ell={r.ell}" if r.ell is not None else "")
                   + (f" field={r.field_name}" if r.field_name else ""))
    if r.f_vector is not None:
        out.append("  f = (" + ", ".join(map(str, r.f_vector)) + ")")
    if r.betti is not None:
        pretty = "  ".join(f"b_{dim}={v}" for dim, v in sorted(r.betti.items()))
        out.append(f"  betti: {pretty}")
    lams = [f"lambda_km2={r.lam_low}" if r.lam_low is not None else "",
            f"lambda_km1={r.lam_high}" if r.lam_high is not None else ""]
    lams = [s for s in lams if s]
    if lams:
        out.append("  " + "  ".join(lams))
    if r.bound_value is not None:
        out.append(f"  B={r.bound_value}  F={r.complement_value}")
    eqs = [("eq1", r.eq_upper), ("eq5", r.eq_dual),
           ("eq6", r.eq_step), ("eq8", r.eq_shift)]
    shown = [f"{name}={'ok' if v else 'FAIL'}" for name, v in eqs if v is not None]
    if shown:
        out.append("  " + "  ".join(shown))
    if r.tri is not None:
        out.append("  trichotomy: a={} b={} c={}".format(*r.tri))
    if r.seed is not None:
        out.append(f"  seed={r.seed}")
    if r.elapsed_ms is not None:
        out.append(f"  elapsed_ms={r.elapsed_ms:.3f}")
    out.extend("  " + ln for ln in r.lines)
    return "\n".join(out)


Reportish = Union[RunReport, list]


def emit_report(report: Reportish, format: str = "text") -> bytes:
    """Serialize one report or a list of them; see module docstring."""
    reports = report if isinstance(report, list) else [report]
    if format == "json":
        payload = (
            [report_to_dict(r) for r in reports]
            if isinstance(report, list) else report_to_dict(report))
        return (json.dumps(payload, indent=2) + "\n").encode()
    if format == "csv":
        rows = [",".join(CSV_COLUMNS)]
        rows.extend(_csv_row(r) for r in reports)
        return ("\n".join(rows) + "\n").encode()
    if format == "text":
        return ("\n".join(_text_block(r) for r in reports) + "\n").encode()
    raise ValueError(f"unknown format {format!r}")
