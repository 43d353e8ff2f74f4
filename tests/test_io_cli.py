import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hypertree_lab
from hypertree_lab import cli, garland, sweep
from hypertree_lab.complex_io import (
    emit_complex,
    parse_complex_text,
    write_complex_file,
)
from hypertree_lab.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotPure,
    ParseError,
    UnrepresentableComplex,
    VertexOutOfRange,
)
from hypertree_lab.fields import parse_field
from hypertree_lab.randomness import SplitMix64, random_skeleton_complex
from hypertree_lab.reports import CSV_COLUMNS, emit_report
from hypertree_lab.simplexes import (
    VOID,
    GeneralComplex,
    SkeletonComplex,
    as_general,
    closure,
    full_skeleton,
    iter_faces,
)
from _oracles import emit_facets_by_scan, emit_skeleton_by_face
from _random_complexes import random_general_complex, random_pure_complex
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


@pytest.mark.parametrize("spec,count", [
    (["sum", "1009", "0,1", "6"], "C(1009, 7) = 206894678671265736"),
    (["xnkl", "1009", "5", "0"], "C(1009, 6) = 1443930957825384"),
])
def test_construct_refuses_a_sum_complex_over_budget_at_once(spec, count, capsys,
                                                             tmp_path):
    # the candidates sum_complex would filter are counted from (n, s) alone
    t0 = time.perf_counter()
    code = cli.main(["construct", *spec, "--out-file", str(tmp_path / "x.cplx")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert f"{count} candidate faces exceeds the budget" in capsys.readouterr().err
    assert not (tmp_path / "x.cplx").exists()


@pytest.mark.parametrize("argv,message", [
    (["verify-bound", "--ell", "7"], "need 0 <= ell < k < n, got ell=7 k=3 n=70"),
    (["trichotomy", "--ell", "-1"], "need 0 <= ell < k < n, got ell=-1 k=3 n=70"),
    (["verify-dual", "--ell", "3"], "degree 3 must lie in [-1, 3)"),
    (["links", "--ell", "4"], "degree 4 must lie in [-1, 3]"),
    (["lambda", "--ell", "-2"], "degree -2 must lie in [-1, 3]"),
    (["verify-bound"], "verify-bound requires --ell"),
    (["links", "--ell", "0", "--field", "gf:4"], "4 is not prime"),
    (["betti", "--field", "gf:4"], "4 is not prime"),
])
def test_bad_degree_or_field_exits_two_before_the_draw(argv, message,
                                                      monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("drew the complex before checking the input")

    monkeypatch.setattr(cli, "random_skeleton_complex", no_draw)
    # C(70, 4) = 916,895 candidates: seconds of drawing, were it drawn
    argv = argv + ["--in", "random(seed=1,n=70,k=3,q=0.5)"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "random(seed=1,n=5,k=2)",
    "random(seed=-1,n=5,k=2,q=0.5)",
    "random(seed=1,n=5,k=2,q=0.5",
    "random(seed=1,n=5,k=2,q=0.5)x",
    "random(seed=1,n=5,k=2,q=.)",
])
def test_a_malformed_random_input_exits_two_before_any_draw_or_open(spec,
                                                                    monkeypatch):
    # a value that starts random( is never read as a file name
    def refuse(*args, **kwargs):
        raise AssertionError("drew or opened before checking the input")

    monkeypatch.setattr(cli, "random_skeleton_complex", refuse)
    monkeypatch.setattr(cli, "parse_complex_file", refuse)
    code, out, err = run_main(["betti", "--in", spec])
    assert code == 2 and out == ""
    assert err == f"error: bad --in {spec!r}: expected random(seed=S,n=N,k=K,q=Q)\n"


@pytest.mark.parametrize("argv,message", [
    (["--check", "bound", "--n", "9,70", "--k", "3", "--ell", "3"],
     "need 0 <= ell < k < n, got ell=3 k=3 n=9"),
    (["--check", "bound", "--n", "9,6", "--k", "3,2", "--ell", "2"],
     "need 0 <= ell < k < n, got ell=2 k=2 n=6"),
    (["--check", "dual", "--n", "9", "--k", "3,2", "--ell", "2"],
     "degree 2 must lie in [-1, 2)"),
    (["--check", "mono", "--n", "9", "--k", "2", "--ell", "2"],
     "degree 2 must lie in [-1, 1]"),
    (["--check", "garland", "--n", "9", "--k", "3", "--ell", "2"],
     "degree 2 must lie in [-1, 1]"),
    (["--check", "bound", "--n", "9,200", "--k", "3,5"], "budget"),
    (["--check", "bound", "--n", "9", "--k", "3", "--q", "0.5,0.5,2"],
     "must lie in [0, 1]"),
    (["--check", "bound", "--n", "9", "--k", "3", "--field", "gf:9"],
     "9 is not prime"),
    # a mono row is redrawn until it has a top face, which q = 0 never
    # draws; a row stalled there would block every row after it
    (["--check", "mono", "--n", "60", "--k", "3", "--q", "0.0", "--ell", "0"],
     "sweep --check mono: n=60 k=3 q=0.0 draws no top face to delete"),
    (["--check", "mono", "--n", "9", "--k", "2", "--q", "0.5,0", "--ell", "0"],
     "sweep --check mono: n=9 k=2 q=0.0 draws no top face to delete"),
])
def test_sweep_checks_every_shape_before_its_first_draw(argv, message,
                                                        monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("drew a complex before checking the input")

    monkeypatch.setattr(sweep, "random_skeleton_complex", no_draw)
    assert cli.main(["sweep", "--count", "3"] + argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n,k,q,chance", [
    (60, 3, "1e-9", "0.0004875"),  # 487,635 candidates
    (5, 1, "1e-4", "0.0009996"),  # 1 - (1 - q)^10
])
def test_sweep_mono_refuses_a_draw_that_rarely_holds_a_top_face(n, k, q, chance,
                                                                 monkeypatch, capsys):
    # a mono row is redrawn until it has a top face, up to 1000 draws a
    # row: a triple whose draw holds one with chance below 1/1000 is
    # refused before any draw, not retried
    def no_draw(*args):
        raise AssertionError("drew a complex before refusing the triple")

    monkeypatch.setattr(sweep, "random_skeleton_complex", no_draw)
    assert cli.main(["sweep", "--check", "mono", "--count", "1", "--n", str(n),
                     "--k", str(k), "--q", q, "--ell", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: sweep --check mono: n={n} k={k} q={float(q)} draws a top face "
        f"to delete with chance {chance}, below 1/1000\n")


def test_sweep_mono_draws_at_a_chance_of_one_in_a_thousand(monkeypatch):
    # just above the threshold, 1 - (1 - q)^10 = 0.0010006, the sweep
    # draws; each draw here is a complex with one top face
    drawn = []
    monkeypatch.setattr(sweep, "random_skeleton_complex",
                        lambda n, k, q, rng: drawn.append(q) or SkeletonComplex(n, k, [(0, 1)]))
    out = cli.run_command(["sweep", "--check", "mono", "--count", "2", "--n", "5",
                           "--k", "1", "--q", "1.001e-4", "--ell", "0"])
    assert out.exit_code == 0 and len(out.report) == 2
    assert drawn == [1.001e-4] * 2


@pytest.mark.parametrize("qs", ["1", "0.5,1"])
def test_sweep_mono_draws_at_a_density_of_one(qs):
    # q = 1 draws the complete complex, which always has a top face to delete
    out = cli.run_command(["sweep", "--check", "mono", "--count", "2", "--n", "7",
                           "--k", "2", "--q", qs, "--ell", "0"])
    assert out.exit_code == 0 and len(out.report) == 2


@pytest.mark.parametrize("count", [0, -3])
def test_sweep_refuses_a_count_below_one_before_any_draw(count, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a complex before checking the count")

    monkeypatch.setattr(sweep, "random_skeleton_complex", no_draw)
    code, out, err = run_main(["sweep", "--check", "bound", "--count", str(count)])
    assert code == 2 and out == ""
    assert err == f"error: sweep count {count} must be at least 1\n"


def test_sweep_checks_only_the_shapes_it_draws(monkeypatch):
    # rows pair n and k by index: (9, 3) and (4, 2) are drawn, (4, 3) is not
    drawn = []
    monkeypatch.setattr(sweep, "random_skeleton_complex",
                        lambda n, k, q, rng: drawn.append((n, k)) or
                        random_skeleton_complex(n, k, q, rng))
    out = cli.run_command(["sweep", "--check", "bound", "--count", "2",
                           "--n", "9,4", "--k", "3,2", "--ell", "1"])
    assert out.exit_code == 0
    assert drawn == [(9, 3), (4, 2)]


@pytest.mark.parametrize("check", ["bound", "dual", "mono", "garland", "support"])
def test_the_library_sweep_gives_the_commands_rows(check):
    # the command parses its lists and calls run_sweep, nothing more: the
    # rows are the same bytes in every format
    rows = sweep.run_sweep(check, 4, parse_field("gf:3"), [7, 8], [2, 3], [0.5], 0, 5)
    argv = ["sweep", "--check", check, "--count", "4", "--seed", "5", "--n", "7,8",
            "--k", "2,3", "--q", "0.5", "--field", "gf:3"]
    for fmt in ("text", "json", "csv"):
        out = cli.run_command(argv + ["--out", fmt])
        assert emit_report(rows, fmt) == emit_report(out.report, out.format), fmt


def test_sweep_garland_rows_report_the_rational_field():
    # a garland row's Betti number is rational whatever --field says, and
    # the row says so, as garland --in does
    argv = ["sweep", "--check", "garland", "--count", "1", "--seed", "5", "--n", "7",
            "--k", "2", "--q", "0.9"]
    formats = ("text", "json", "csv")
    want = {fmt: emit_report(cli.run_command(argv + ["--field", "q", "--out", fmt]).report,
                             fmt) for fmt in formats}
    assert b" field=q\n" in want["text"]
    for field in ([], ["--field", "gf:3"]):
        for fmt in formats:
            out = cli.run_command(argv + field + ["--out", fmt])
            assert emit_report(out.report, fmt) == want[fmt], (field, fmt)


def test_sweep_mono_redraws_a_draw_with_no_top_face(monkeypatch):
    # a draw with no top face has nothing to delete and is redrawn; the
    # row deletes the top face that below() picks among the draw's tops,
    # in lexicographic order, from the row's seed
    drawn = random_skeleton_complex(7, 2, 0.5, SplitMix64(3))
    draws = [SkeletonComplex(7, 2, []), drawn]
    monkeypatch.setattr(sweep, "random_skeleton_complex", lambda *args: draws.pop(0))
    out = cli.run_command(["sweep", "--check", "mono", "--count", "1", "--seed", "4",
                           "--n", "7", "--k", "2", "--q", "0.5", "--ell", "0"])
    root = SplitMix64(4)
    root.next_u64()
    seed = root.next_u64()
    tops = list(iter_faces(drawn, 2))
    sigma = tops[SplitMix64(seed ^ 0xABCDEF).below(len(tops))]
    assert draws == [] and out.exit_code == 0
    assert out.report[0].seed == seed
    assert out.report[0].lines[0] == f"sigma=({','.join(map(str, sigma))})"


def test_an_exhausted_garland_sweep_names_no_face(tmp_path, monkeypatch):
    # every draw of (10, 3, 0.3) here is impure: the sweep reads each
    # one's purity from the link counts, runs no check_pure, and is
    # refused after its 1000 draws; its first draw, read from a file,
    # still has its face named, by one check_pure call
    drawn, named = [], []
    real_draw, real_check = sweep.random_skeleton_complex, garland.check_pure
    monkeypatch.setattr(sweep, "random_skeleton_complex",
                        lambda *args: drawn.append(real_draw(*args)) or drawn[-1])
    monkeypatch.setattr(garland, "check_pure", lambda X: named.append(X) or real_check(X))
    code, out, err = run_main(["sweep", "--check", "garland", "--count", "1", "--seed", "1",
                               "--n", "10", "--k", "3", "--q", "0.3", "--ell", "0"])
    assert (code, out) == (2, "")
    assert err == "error: sweep could not generate enough admissible complexes\n"
    assert len(drawn) == 1000 and named == []
    with pytest.raises(NotPure) as e:
        real_check(drawn[0])
    path = str(tmp_path / "first.cplx")
    write_complex_file(path, drawn[0])
    code, out, err = run_main(["garland", "--in", path, "--ell", "0"])
    assert (code, out, err) == (2, "", f"error: {e.value}\n")
    assert len(named) == 1 and str(e.value).startswith("face (")


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
    # PARSER is built once, at import; flags and values of one command
    # must not reach the next
    argv = ["betti", "--in", "random(seed=1,n=6,k=2,q=0.5)"]
    first = cli.run_command(argv + ["--timing", "--out", "json"])
    assert first.format == "json" and first.report.elapsed_ms is not None
    second = cli.run_command(argv)
    assert second.format == "text" and second.report.elapsed_ms is None
    assert vars(cli.PARSER.parse_args(argv)) == \
        vars(cli.build_parser().parse_args(argv))
    fresh = cli.run_command(argv)
    assert emit_report(second.report, second.format) == \
        emit_report(fresh.report, fresh.format)


def test_run_command_builds_no_parser(monkeypatch):
    # the parser is built at import, where a process pays for it once;
    # a command must not build another
    def no_parser(*args, **kwargs):
        raise AssertionError("run_command built a parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    out = cli.run_command(["verify-bound", "--in", "random(seed=1,n=6,k=2,q=0.5)",
                           "--ell", "0"])
    assert out.exit_code == 0 and out.report.command == "verify-bound"


def test_sweep_garland_fails_on_invariant_violation(monkeypatch, capsys):
    real = sweep._garland_if_pure
    calls = []

    def every_other_call_breaks(*args):
        calls.append(args)
        if len(calls) % 2 == 0:
            raise InvariantViolation("injected")
        return real(*args)

    monkeypatch.setattr(sweep, "_garland_if_pure", every_other_call_breaks)
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


def test_construct_steiner_names_the_file_line_and_token_of_a_bad_block(tmp_path):
    blocks = tmp_path / "bad.blocks"
    blocks.write_text("# two blocks\n0 1 3\n1 x 4\n")
    code, out, err = run_main(["construct", "steiner", str(blocks),
                               "--out-file", str(tmp_path / "bad.cplx")])
    assert code == 2 and out == ""
    assert err == f"error: {blocks}: line 3: bad integer 'x'\n"
    assert not (tmp_path / "bad.cplx").exists()


@pytest.mark.parametrize("line,message", [
    ("0 0 1", "repeated vertex 0"),
    ("2 5 2", "repeated vertex 2"),
    ("-1 2 3", "negative vertex -1"),
    ("4 -3 -3", "negative vertex -3"),
])
def test_construct_steiner_names_the_file_and_line_of_a_repeated_or_negative_vertex(
        tmp_path, line, message):
    blocks = tmp_path / "bad.blocks"
    blocks.write_text(f"0 1 3\n\n{line}  # the bad block\n1 2 4\n")
    code, out, err = run_main(["construct", "steiner", str(blocks),
                               "--out-file", str(tmp_path / "bad.cplx")])
    assert code == 2 and out == ""
    assert err == f"error: {blocks}: line 3: {message}\n"
    assert not (tmp_path / "bad.cplx").exists()


def test_construct_jnk(tmp_path):
    out_file = tmp_path / "j.cplx"
    code, out, _ = run_cli(
        "construct", "jnk", "8", "2", "--out-file", str(out_file))
    assert code == 0
    X = parse_complex_text(out_file.read_text()).complex
    assert len(X.top_faces) == 16
    code2, _, err = run_cli("construct", "jnk", "7", "2")
    assert code2 == 2 and err.strip()


def test_construct_jnk_refuses_a_family_over_budget_at_once(tmp_path):
    # the antipodal quadruples of n = 2000 number 1000 * 999^2
    t0 = time.perf_counter()
    code, _, err = run_main(["construct", "jnk", "2000", "3",
                             "--out-file", str(tmp_path / "j.cplx")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "build_J(2000, 3) enumerates 998001000 faces, more than the budget" in err
    assert not (tmp_path / "j.cplx").exists()


@pytest.mark.parametrize("spec,message", [
    (["foo", "1", "2"], "unknown construction 'foo'"),
    (["sum", "5", "0"], "usage: construct sum n A s"),
    (["sum", "5", "0", "1", "2"], "usage: construct sum n A s"),
    (["xnkl", "7", "3"], "usage: construct xnkl n k l"),
    (["xnkl", "7", "3", "1", "0"], "usage: construct xnkl n k l"),
    (["jnk", "8"], "usage: construct jnk n k"),
    (["jnk", "8", "2", "1"], "usage: construct jnk n k"),
    (["steiner"], "usage: construct steiner FILE"),
    (["steiner", "a.blocks", "b.blocks"], "usage: construct steiner FILE"),
    (["sum", "x", "0", "1"], "n: expected an integer, got 'x'"),
    (["xnkl", "x", "3", "1"], "n: expected an integer, got 'x'"),
    (["jnk", "x", "2"], "n: expected an integer, got 'x'"),
    (["steiner", "mixed.blocks"], "blocks of mixed sizes [2, 3]"),
    # --field is parsed before the kind and its arguments
    (["foo", "--field", "gf:4"], "4 is not prime"),
    (["sum", "5", "0", "--field", "gf:4"], "4 is not prime"),
])
def test_construct_usage_errors_exit_two_with_their_message(spec, message, tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixed.blocks").write_text("0 1 2\n0 1\n")
    code, out, err = run_main(["construct", *spec])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mixed.blocks"]


# two top faces of dimension 8 on 200 and on 2000 vertices: every degree-3
# link walk and every degree-6 Garland table is refused from (n, k, ell)
# before any face is listed
OVERSIZED = {
    "links": ("--ell", "3", "C({n}, 4) = {links} links exceeds the budget of 1000000"),
    "lambda": ("--ell", "3", "C({n}, 4) = {links} links exceeds the budget of 1000000"),
    "verify-bound": ("--ell", "3", "C({n}, 4) = {links} links exceeds the budget of 1000000"),
    "garland": ("--ell", "6", "a table of C({n}, 8) C(8, 7) = {table} link face counts "
                "exceeds limit 10000000"),
}


@pytest.mark.parametrize("command", sorted(OVERSIZED))
@pytest.mark.parametrize("n", [200, 2000])
def test_oversized_link_work_is_refused_at_once(tmp_path, command, n):
    path = tmp_path / "big.cplx"
    path.write_text(f"skeleton {n} 8\n0 1 2 3 4 5 6 7 8\n1 2 3 4 5 6 7 8 9\n")
    *opts, message = OVERSIZED[command]
    t0 = time.perf_counter()
    code, out, err = run_main([command, *opts, "--in", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    want = message.format(n=n, links=comb(n, 4), table=comb(n, 8) * 8)
    assert err == f"error: {want}\n"


FACETS_2M = "facets 2000000\n0 1 2\n"


@pytest.mark.parametrize("text,command,message", [
    # collapse builds every face of its input: one top face over the
    # complete 2-skeleton on 400 vertices is refused from the f-vector
    ("skeleton 400 3\n0 1 2 3\n", "collapse",
     f"{400 + comb(400, 2) + comb(400, 3) + 1} faces exceed the budget of 1000000"),
    # a facets header's ground set is built whole, so n is refused there,
    # before any facet is read, whatever the command
    (FACETS_2M, "collapse", "facets header: 2000000 vertices exceed the budget of 1000000"),
    (FACETS_2M, "betti", "facets header: 2000000 vertices exceed the budget of 1000000"),
    # a facet of d vertices closes to 2^d faces, refused before any is
    # enumerated: one facet of 25 vertices has 33554432
    ("facets 25\n" + " ".join(map(str, range(25))) + "\n", "betti",
     "33554432 faces, 2^d for each facet of d vertices, exceed the budget of 1000000"),
])
def test_oversized_inputs_are_refused_at_once(tmp_path, text, command, message):
    path = tmp_path / "big.cplx"
    path.write_text(text)
    t0 = time.perf_counter()
    code, out, err = run_main([command, "--in", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 9), st.integers(0, 4), st.floats(0.0, 1.0))
def test_skeleton_files_are_written_as_one_face_a_line(seed, n, k, q):
    # the one-format writer gives the bytes of the per-face writer, and
    # the file parses back to the same complex
    X = random_skeleton_complex(n, min(k, n - 1), q, SplitMix64(seed))
    text = emit_complex(X)
    assert text == emit_skeleton_by_face(X)
    assert parse_complex_text(text).complex == X


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 9), st.integers(0, 4), st.integers(0, 12),
       st.booleans())
def test_facets_files_list_the_maximal_faces(seed, n, dim, count, pure):
    # the one-pass facet finder gives the bytes of the quadratic scan, and
    # the file parses back to the same complex
    rng = SplitMix64(seed)
    X = (random_pure_complex if pure else random_general_complex)(
        n, min(dim, n - 1), count, rng)
    text = emit_complex(X)
    assert text == emit_facets_by_scan(X)
    assert parse_complex_text(text).complex == X


def _malformed_skeleton(seed: int, kind: str):
    """A skeleton file of random faces, vertices in random order, blank
    and comment lines between, with one line of the given kind at a random
    position; whether it is read under relabel; and the error type and
    message that reading it raises, as the parser has always worded them."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    k = rng.randint(1, n - 2)
    relabel = kind in ("negative label", "too many labels") or \
        kind != "vertex out of range" and rng.random() < 0.5
    # under relabel the file's labels are 3 + 2v, order-preserving
    label = (lambda v: 3 + 2 * v) if relabel else (lambda v: v)
    faces = [[label(v) for v in rng.sample(range(n), k + 1)]
             for _ in range(rng.randint(0, 8))]
    used = {v for f in faces for v in f}
    spare = [label(v) for v in range(n)]  # labels in range, distinct
    if kind == "bad integer":
        bad = [str(v) for v in rng.sample(spare, k + 1)]
        tok = rng.choice(["x", "1.5", "2-", "0x3", "--"])
        bad.insert(rng.randint(0, k + 1), tok)
    elif kind == "vertex out of range":
        v = rng.choice([n + rng.randint(0, 5), -1 - rng.randint(0, 5)])
        bad = rng.sample(range(n), k) + [v]
        rng.shuffle(bad)
    elif kind == "wrong face size":
        bad = rng.sample(spare, rng.choice([k, k + 2] if k + 2 <= n else [k]))
    elif kind == "duplicate vertex":
        bad = rng.sample(spare, k)
        bad.insert(rng.randint(0, k), rng.choice(bad))
    elif kind == "negative label":
        bad = rng.sample(spare, k) + [-1 - rng.randint(0, 5)]
        rng.shuffle(bad)
    else:  # fresh labels past every one in use, one more than n in all
        top = max(spare) + 1
        bad = [top + i for i in range(max(1, n + 1 - len(used)))]
    at = rng.randint(0, len(faces))
    lines, lineno = [f"skeleton {n} {k}"], None
    for i, face in enumerate(faces[:at] + [bad] + faces[at:]):
        if rng.random() < 0.3:
            lines.append(rng.choice(["", "# note", "   "]))
        if i == at:
            lineno = len(lines) + 1
        lines.append(" ".join(map(str, face)) + (" # tail" if rng.random() < 0.2 else ""))
    text = "\n".join(lines) + "\n"
    if kind == "bad integer":
        return text, relabel, ParseError, f"line {lineno}: bad integer {tok!r}"
    if kind == "vertex out of range":
        return text, relabel, VertexOutOfRange, f"line {lineno}: vertex {v} outside [0, {n})"
    labels = sorted(used | set(bad))
    if kind == "negative label":
        return text, relabel, VertexOutOfRange, "negative vertex label"
    if kind == "too many labels":
        return text, relabel, ParseError, \
            f"{len(labels)} distinct labels exceed declared n={n}"
    face = tuple(sorted(labels.index(v) if relabel else v for v in bad))
    if kind == "wrong face size":
        return text, relabel, DimensionMismatch, f"face {face} does not have dimension {k}"
    a = next(x for x, y in zip(face, face[1:]) if x == y)
    return text, relabel, DimensionMismatch, f"duplicate vertex {a} in simplex {face}"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**62), st.sampled_from([
    "bad integer", "vertex out of range", "wrong face size", "duplicate vertex",
    "negative label", "too many labels"]))
def test_a_malformed_skeleton_line_raises_its_own_error(seed, kind):
    # one bad line anywhere in a valid file: the error type and exact
    # message name that line's fault, whatever the faces around it
    text, relabel, error, message = _malformed_skeleton(seed, kind)
    with pytest.raises(error) as info:
        parse_complex_text(text, relabel=relabel)
    assert type(info.value) is error and str(info.value) == message


def test_construct_steiner_counts_uncovered_faces_without_listing_them(tmp_path):
    # two blocks on vertices up to 100000 leave all but 6 of the C(100001, 2)
    # edges uncovered; they are counted, not enumerated
    blocks = tmp_path / "far.blocks"
    blocks.write_text("0 1 2\n3 4 100000\n")
    t0 = time.perf_counter()
    code, out, _ = run_main(["construct", "steiner", str(blocks),
                             "--out-file", str(tmp_path / "far.cplx")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert "design valid: False (uncovered 5000049994, multicovered 0)" in out
    X = parse_complex_text((tmp_path / "far.cplx").read_text()).complex
    assert X.n == 100001 and X.top_faces == frozenset({(0, 1, 2), (3, 4, 100000)})


def test_construct_xnkl_reports_the_degree_it_built_at(tmp_path):
    # --ell is not an argument of xnkl; the report names the ell it built at
    for extra in ([], ["--ell", "0"], ["--ell", "5"]):
        code, out, _ = run_main(["construct", "xnkl", "7", "3", "1", "--out", "json",
                                 "--out-file", str(tmp_path / "x.cplx")] + extra)
        assert code == 0
        assert json.loads(out)["ell"] == 1, extra


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
    # the support check's GF(2) and odd-p branches (2 cases)
    for fld in ("gf:2", "gf:3"):
        out.append(["sweep", "--check", "support", "--count", "4", "--seed", "5",
                    "--n", "7,8", "--k", "2,3", "--q", "0.5", "--field", fld])
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
    # graph links (ell = k-2) over an odd prime, and k = 1 graphs, whose
    # empty face has the graph itself as its link (12 cases)
    for command in ("links", "lambda"):
        for seed in (1, 2, 3):
            out.append([command, "--in", f"random(seed={seed},n=9,k=3,q=0.4)",
                        "--ell", "1", "--field", "gf:5"])
    for seed in (1, 2):
        for fld in ("gf:2", "gf:3", "q"):
            out.append(["links", "--in", f"random(seed={seed},n=12,k=1,q=0.2)",
                        "--ell", "-1", "--field", fld])
    # construct reports the degree it built at, whatever --ell says
    out.append(["construct", "xnkl", "11", "3", "1", "--out", "json"])
    out.append(["construct", "xnkl", "11", "3", "1", "--ell", "0"])
    # garland prints every link's mu: dense k = 3 and k = 2 draws, one
    # impure draw (exit 2), a complete skeleton and a draw with no top
    # face, whose dimension is k-1 (17 cases)
    for seed in (1, 2):
        for ell in (-1, 0, 1):
            out.append(["garland", "--in", f"random(seed={seed},n=8,k=3,q=0.6)",
                        "--ell", str(ell)])
    for seed in (1, 2, 3):
        for ell in (-1, 0):
            out.append(["garland", "--in", f"random(seed={seed},n=7,k=2,q=0.6)",
                        "--ell", str(ell)])
    for ell in (-1, 0, 1):
        out.append(["garland", "--in", "random(seed=1,n=7,k=3,q=1.0)", "--ell", str(ell)])
    for ell in (-1, 0):
        out.append(["garland", "--in", "random(seed=1,n=6,k=2,q=0.0)", "--ell", str(ell)])
    # the parser's help, top level and every command, and its usage
    # errors: no command, an unknown one, sweep without --check and a bad
    # --out; these also pin stderr (15 cases)
    out.append(["--help"])
    for command in ("betti", "links", "lambda", "verify-bound", "verify-dual",
                    "trichotomy", "garland", "collapse", "construct", "sweep"):
        out.append([command, "--help"])
    out += [[], ["bogus"], ["sweep"], ["betti", "--out", "xml"]]
    return out


def run_main(argv):
    """cli.main in this process: (exit code, stdout text, stderr text).

    argparse ends --help and a usage error with SystemExit, whose code
    is the exit code.
    """
    buf = io.BytesIO()
    stdout = io.TextIOWrapper(buf, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        stdout.flush()
    return code, buf.getvalue().decode(), err.getvalue()


def test_golden_cli_output(tmp_path, monkeypatch):
    # tests/data/cli_golden.json holds the exit code and stdout of every
    # golden command, and the file `construct` wrote, as recorded from the
    # code before the link-profile path (the `sweep` cases from the code
    # before the sweep rows shared their report mapping with the single
    # commands, the gf:2 and gf:3 `sweep --check support` cases from the
    # code that built a homology basis for the check, the gf:3 and k = 4
    # cases from the code before the cone split of face-level ranks, the
    # gf:5 and k = 1 cases from the code before graph links were read by
    # union-find, the three `construct xnkl` cases from the code that
    # reported the ell it built at, the `garland` cases from the code
    # before each link weighed itself, and the help and usage cases, with
    # their stderr, from the code before the common options became one
    # parent parser); outputs must stay byte-identical.  argparse wraps help to COLUMNS.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert [g["argv"] for g in golden] == golden_commands()
    for g in golden:
        code, out, err = run_main(g["argv"])
        assert (code, out) == (g["exit"], g["stdout"]), g["argv"]
        if "stderr" in g:
            assert err == g["stderr"], g["argv"]
        for name, text in g.get("files", {}).items():
            assert (tmp_path / name).read_text() == text, (g["argv"], name)


def test_a_leftover_argument_gets_the_usage_of_every_command(monkeypatch):
    # the error names the leftover token under a usage that lists all
    # ten commands
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(["verify-bound", "--in", "random(seed=1,n=6,k=2,q=0.5)",
                               "--bogus"])
    assert code == 2 and out == ""
    assert ("{betti,links,lambda,verify-bound,verify-dual,trichotomy,garland,"
            "collapse,construct,sweep}") in err
    assert "unrecognized arguments: --bogus" in err
