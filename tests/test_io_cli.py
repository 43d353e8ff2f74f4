import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hypertree_lab
from hypertree_lab import cli
from hypertree_lab.complex_io import (
    emit_complex,
    parse_complex_text,
    write_complex_file,
)
from hypertree_lab.errors import (
    InvariantViolation,
    ParseError,
    UnrepresentableComplex,
    VertexOutOfRange,
)
from hypertree_lab.reports import CSV_COLUMNS, emit_report
from hypertree_lab.simplexes import (
    VOID,
    GeneralComplex,
    SkeletonComplex,
    as_general,
    closure,
    full_skeleton,
)
from _registry import track


# the CLI subprocess imports the package this process imported, so the
# suite runs the same code from an installed package or a plain checkout
PACKAGE_ROOT = str(Path(hypertree_lab.__file__).resolve().parent.parent)


def run_cli(*args, stdin=None):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "hypertree_lab.cli", *args],
        capture_output=True,
        input=stdin,
        env=env,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


# ---------------------------------------------------------------- file format

def test_round_trip_skeleton_complex():
    X = SkeletonComplex(6, 2, frozenset({(0, 1, 2), (3, 4, 5)}))
    text = emit_complex(X)
    back = parse_complex_text(text).complex
    assert back == X
    assert emit_complex(back) == text  # canonical form is a fixed point


def test_round_trip_general_complex():
    X = closure([(0, 1, 2), (2, 3)], 5)
    back = parse_complex_text(emit_complex(X)).complex
    assert as_general(back).faces == X.faces


def test_emit_void_and_empty():
    assert "facets 0" in emit_complex(VOID)
    with pytest.raises(UnrepresentableComplex):
        emit_complex(GeneralComplex(frozenset(), frozenset({()})))


def test_emit_requires_contiguous_ground():
    sparse = GeneralComplex(frozenset({1, 5}), frozenset({(), (1,), (5,)}))
    with pytest.raises(UnrepresentableComplex):
        emit_complex(sparse)


def test_parse_reports_line_numbers():
    bad = "skeleton 5 2\n0 1 9\n"
    with pytest.raises(VertexOutOfRange) as e:
        parse_complex_text(bad)
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_complex_text("facets\n")  # malformed header


def test_parse_with_comments_and_blank_lines():
    text = "# a complex\nfacets 4\n\n0 1 2  # triangle\n3\n"
    X = parse_complex_text(text).complex
    assert as_general(X).faces >= {(0, 1, 2), (3,)}


def test_parse_relabel_compacts_vertices():
    text = "facets 3\n5 9\n12\n"
    parsed = parse_complex_text(text, relabel=True)
    assert parsed.relabel_map == {5: 0, 9: 1, 12: 2}
    assert as_general(parsed.complex).faces >= {(0, 1), (2,)}
    with pytest.raises(VertexOutOfRange):
        parse_complex_text(text)  # without relabel the ids overflow n


def test_write_and_reread(tmp_path):
    X = track(full_skeleton(5, 1))
    p = tmp_path / "k5.cplx"
    write_complex_file(str(p), X)
    from hypertree_lab.complex_io import parse_complex_file
    back = parse_complex_file(str(p)).complex
    assert back == X


# ----------------------------------------------------------------- exit codes

def test_cli_exit_zero_on_success():
    code, out, err = run_cli(
        "betti", "--in", "random(seed=1,n=6,k=2,q=0.5)", "--out", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["command"] == "betti"


def test_cli_exit_two_on_missing_file():
    code, out, err = run_cli("betti", "--in", "/nonexistent/x.cplx")
    assert code == 2
    assert err.strip()


def test_cli_exit_two_on_bad_parameters():
    code, _, err = run_cli(
        "verify-bound", "--ell", "5", "--in", "random(seed=1,n=6,k=2,q=0.5)")
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("argv", [
    ["betti", "--in", "random(seed=1,n=6,k=2,q=1.5)"],
    ["betti", "--in", "random(seed=1,n=6,k=2,q=-3)"],
    ["sweep", "--check", "bound", "--count", "2", "--n", "6", "--k", "2",
     "--q", "1.5"],
    ["sweep", "--check", "bound", "--count", "2", "--n", "6", "--k", "2",
     "--q", "nan"],
])
def test_cli_exit_two_on_density_outside_unit_interval(argv, capsys):
    assert cli.main(argv) == 2
    assert "[0, 1]" in capsys.readouterr().err


def test_cli_exit_two_at_once_on_too_many_candidate_faces(capsys):
    t0 = time.perf_counter()
    code = cli.main(["betti", "--in", "random(seed=1,n=200,k=5,q=0.5)"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_cli_exit_two_on_parse_error(tmp_path):
    p = tmp_path / "bad.cplx"
    p.write_text("skeleton 4 1\n0 9\n")
    code, _, err = run_cli("betti", "--in", str(p))
    assert code == 2
    assert "line 2" in err


# ---------------------------------------------------------------- json output

def test_json_key_order_is_stable():
    code, out, _ = run_cli(
        "verify-bound", "--ell", "0", "--in", "random(seed=7,n=7,k=2,q=0.5)",
        "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == [
        "command", "n", "k", "ell", "field", "f_vector", "betti",
        "lambda_km2", "lambda_km1", "B", "F",
        "eq1_holds", "eq5_holds", "eq6_holds", "eq8_holds",
        "trichotomy", "seed", "elapsed_ms",
    ]
    assert payload["eq1_holds"] is True
    assert payload["eq6_holds"] is True
    assert payload["B"] is not None and set(payload["B"]) == {"num", "den"}
    assert payload["elapsed_ms"] is None  # no --timing flag given


def test_json_bytes_are_deterministic():
    args = ("lambda", "--ell", "0", "--in", "random(seed=3,n=6,k=2,q=0.6)",
            "--out", "json")
    _, a, _ = run_cli(*args)
    _, b, _ = run_cli(*args)
    assert a == b


def test_timing_flag_fills_elapsed():
    code, out, _ = run_cli(
        "betti", "--in", "random(seed=1,n=5,k=1,q=0.5)", "--out", "json",
        "--timing")
    assert code == 0
    assert json.loads(out)["elapsed_ms"] is not None


def test_sweep_rows_carry_their_own_time():
    argv = ["sweep", "--check", "bound", "--count", "3", "--n", "6",
            "--k", "2", "--seed", "5", "--out", "json"]
    t0 = time.perf_counter()
    out = cli.run_command(argv + ["--timing"])
    wall_ms = (time.perf_counter() - t0) * 1000.0
    times = [r.elapsed_ms for r in out.report]
    assert len(times) == 3 and all(t is not None and t > 0 for t in times)
    assert sum(times) <= wall_ms
    assert all(r.elapsed_ms is None for r in cli.run_command(argv).report)


def test_cached_parser_carries_nothing_between_commands():
    # the parser is built once per process; flags and values of one
    # command must not reach the next
    assert cli.build_parser() is cli.build_parser()
    argv = ["betti", "--in", "random(seed=1,n=6,k=2,q=0.5)"]
    first = cli.run_command(argv + ["--timing", "--out", "json"])
    assert first.format == "json" and first.report.elapsed_ms is not None
    second = cli.run_command(argv)
    assert second.format == "text" and second.report.elapsed_ms is None
    args = vars(cli.build_parser().parse_args(argv))
    cli.build_parser.cache_clear()
    assert args == vars(cli.build_parser().parse_args(argv))
    fresh = cli.run_command(argv)
    assert emit_report(second.report, second.format) == \
        emit_report(fresh.report, fresh.format)


def test_sweep_garland_fails_on_invariant_violation(monkeypatch, capsys):
    real = cli.garland_check
    calls = []

    def every_other_call_breaks(*args):
        calls.append(args)
        if len(calls) % 2 == 0:
            raise InvariantViolation("injected")
        return real(*args)

    monkeypatch.setattr(cli, "garland_check", every_other_call_breaks)
    code = cli.main(["sweep", "--check", "garland", "--count", "3",
                     "--seed", "1", "--n", "6", "--k", "2", "--q", "0.9"])
    assert code == 1
    assert "injected" in capsys.readouterr().err


# ----------------------------------------------------------------- csv output

def test_csv_header_and_row_count():
    code, out, _ = run_cli(
        "sweep", "--check", "bound", "--count", "3", "--n", "6", "--k", "2",
        "--seed", "5", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4


def test_sweep_json_is_an_array():
    code, out, _ = run_cli(
        "sweep", "--check", "dual", "--count", "2", "--n", "6", "--k", "2",
        "--seed", "9", "--out", "json")
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 2
    assert all(r["eq5_holds"] for r in rows)


def test_sweep_is_seed_deterministic():
    args = ("sweep", "--check", "bound", "--count", "2", "--n", "6",
            "--k", "2", "--seed", "11", "--out", "json")
    _, a, _ = run_cli(*args)
    _, b, _ = run_cli(*args)
    assert a == b


# ------------------------------------------------------------- subcommand io

def test_betti_text_output_mentions_table():
    code, out, _ = run_cli("betti", "--in", "random(seed=2,n=5,k=1,q=0.7)")
    assert code == 0
    assert "betti" in out.lower()


def test_links_lists_every_face(tmp_path):
    code, out, _ = run_cli(
        "links", "--ell", "0", "--in", "random(seed=4,n=5,k=2,q=0.8)")
    assert code == 0
    # one line per vertex
    assert sum("(" in line for line in out.splitlines()) >= 5


def test_relabel_echo(tmp_path):
    p = tmp_path / "sparse.cplx"
    p.write_text("facets 3\n5 9\n12\n")
    code, out, _ = run_cli("betti", "--in", str(p), "--relabel")
    assert code == 0
    assert "relabeled: 5->0 9->1 12->2" in out


def test_construct_sum_writes_default_file(tmp_path):
    code, out, _ = run_cli(
        "construct", "sum", "5", "0", "1", "--out-file",
        str(tmp_path / "s.cplx"))
    assert code == 0
    text = (tmp_path / "s.cplx").read_text()
    X = parse_complex_text(text).complex
    assert X.top_faces == frozenset({(1, 4), (2, 3)})


def test_construct_steiner_from_blocks(tmp_path):
    blocks = tmp_path / "fano.blocks"
    blocks.write_text("\n".join(
        " ".join(map(str, ((1 + i) % 7, (2 + i) % 7, (4 + i) % 7)))
        for i in range(7)) + "\n")
    out_file = tmp_path / "fano.cplx"
    code, out, _ = run_cli(
        "construct", "steiner", str(blocks), "--out-file", str(out_file))
    assert code == 0
    X = parse_complex_text(out_file.read_text()).complex
    assert len(X.top_faces) == 7


def test_construct_jnk(tmp_path):
    out_file = tmp_path / "j.cplx"
    code, out, _ = run_cli(
        "construct", "jnk", "8", "2", "--out-file", str(out_file))
    assert code == 0
    X = parse_complex_text(out_file.read_text()).complex
    assert len(X.top_faces) == 16
    code2, _, err = run_cli("construct", "jnk", "7", "2")
    assert code2 == 2 and err.strip()


def test_trichotomy_subcommand_json():
    code, out, _ = run_cli(
        "trichotomy", "--ell", "0", "--in", "random(seed=6,n=6,k=2,q=0.7)",
        "--out", "json")
    assert code == 0
    payload = json.loads(out)
    tri = payload["trichotomy"]
    assert set(tri) == {"a", "b", "c"}


def test_garland_subcommand_reports_premise():
    code, out, _ = run_cli("garland", "--ell", "0", "--in",
                           "random(seed=1,n=6,k=2,q=1.0)")
    assert code == 0
    assert "premise" in out.lower()


def test_collapse_subcommand():
    code, out, _ = run_cli("collapse", "--in", "random(seed=8,n=5,k=1,q=0.4)")
    assert code == 0
    assert "core" in out.lower()


# ------------------------------------------------------------- golden output

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def golden_commands():
    """The argv lists whose stdout and exit code tests/data pins."""
    out = []
    for command in ("links", "lambda", "verify-bound", "verify-dual", "trichotomy"):
        for seed in (1, 2, 3):
            for ell in range(-1, 4):
                for fld in ("gf:2", "q"):
                    out.append([command, "--in", f"random(seed={seed},n=9,k=3,q=0.4)",
                                "--ell", str(ell), "--field", fld])
    out.append(["construct", "xnkl", "11", "3", "0"])
    for check in ("bound", "dual", "mono", "support", "garland"):
        for fmt in ("text", "json"):
            out.append(["sweep", "--check", check, "--count", "4", "--seed", "5",
                        "--n", "7,8", "--k", "2,3", "--q", "0.5", "--field", "q",
                        "--out", fmt])
    # the odd-p row route, and k = 4 links over Q, where the link maps have
    # degree up to 3 (38 cases, about 0.1 s together)
    for command in ("links", "verify-bound"):
        for seed in (1, 2, 3):
            for ell in range(-1, 4):
                out.append([command, "--in", f"random(seed={seed},n=9,k=3,q=0.4)",
                            "--ell", str(ell), "--field", "gf:3"])
    for seed in (1, 2):
        for ell in range(0, 4):
            out.append(["verify-bound", "--in", f"random(seed={seed},n=10,k=4,q=0.5)",
                        "--ell", str(ell), "--field", "q"])
    return out


def run_main(argv):
    """cli.main in this process: (exit code, stdout text)."""
    buf = io.BytesIO()
    stdout = io.TextIOWrapper(buf, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
        stdout.flush()
    return code, buf.getvalue().decode()


def test_golden_cli_output(tmp_path, monkeypatch):
    # tests/data/cli_golden.json holds the exit code and stdout of every
    # golden command, and the file `construct` wrote, as recorded from the
    # code before the link-profile path (the `sweep` cases from the code
    # before the sweep rows shared their report mapping with the single
    # commands, the gf:3 and k = 4 cases from the code before the cone
    # split of face-level ranks); outputs must stay byte-identical
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert [g["argv"] for g in golden] == golden_commands()
    for g in golden:
        code, out = run_main(g["argv"])
        assert (code, out) == (g["exit"], g["stdout"]), g["argv"]
        for name, text in g.get("files", {}).items():
            assert (tmp_path / name).read_text() == text, (g["argv"], name)
