import io
import sys
from pathlib import Path

import pytest

from coopsim import cli
from coopsim.corpus import CORPUS_TEXTS

FIXTURES = Path(__file__).resolve().parent
SCENARIOS = FIXTURES.parent / "scenarios"


def test_corpus_subcommand(capsys):
    assert cli.main(["corpus"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == list(CORPUS_TEXTS)


def test_parse_canonicalizes(tmp_path, capsys):
    src = tmp_path / "stmts.txt"
    src.write_text('p[promise!pi:"A  Promise"]q\n# comment\n\n')
    assert cli.main(["parse", str(src)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == 'p[pi:"A  Promise"]q'


def test_parse_reports_errors(tmp_path, capsys):
    src = tmp_path / "stmts.txt"
    src.write_text('p[pi:"ok"]q\np[broken\n')
    assert cli.main(["parse", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out.strip() == 'p[pi:"ok"]q'
    assert "line 2" in captured.err


def test_run_trace_and_exit_codes(capsys):
    assert cli.main(["run", str(SCENARIOS / "thread2.coop"), "--trace", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t=0 trust subject=q target=m2")


def test_run_prints_its_summary_on_stderr(tmp_path, capsys):
    """Without ``--quiet``, ``run`` ends with one summary line on stderr that
    counts the trace lines, the expectations and those that failed."""
    path = SCENARIOS / "newcomers.coop"
    assert cli.main(["run", str(path), "--trace"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 14
    assert err == f"ran {path}: 14 trace lines, 6 expectations, 0 failed\n"
    bad = tmp_path / "bad.coop"
    bad.write_text("trust q p = 1\ntick 1\nexpect-trust q p = 2\nexpect-trust q p = 1\n")
    assert cli.main(["run", str(bad)]) == 1
    assert capsys.readouterr() == (
        "", f"ran {bad}: 1 trace lines, 2 expectations, 1 failed\n"
    )


def test_run_missing_file_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "no-such-file.coop"])
    assert exc.value.code == 2


def test_parse_missing_file_is_usage_error(tmp_path, capsys):
    """``parse`` reports a file it cannot read as ``run`` and ``check`` do."""
    missing = tmp_path / "no-such-file.txt"
    assert cli.main(["parse", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"coopsim: cannot read {missing}: "
        f"[Errno 2] No such file or directory: {str(missing)!r}\n"
    )


def test_check_reports_each_expectation(capsys):
    assert cli.main(["check", str(SCENARIOS / "lor.coop"), "--quiet"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    assert all(line.startswith("ok ") for line in out)


def test_check_prints_its_summary_on_stderr(capsys):
    """Without ``--quiet``, ``check`` ends with one line on stderr that
    counts the expectations that hold."""
    assert cli.main(["check", str(SCENARIOS / "lor.coop")]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 5
    assert err == "5/5 expectations hold\n"


def test_check_stdout_matches_the_pin(capsys):
    """``check --quiet`` of every shipped scenario under both TRAM policies
    and both interleavings, each block after a ``# <scenario> <tram>
    <interleave> exit=<code>`` header (CI compares the console script's
    stdout too)."""
    blocks = []
    for path in sorted(SCENARIOS.glob("*.coop")):
        for tram in ("incremental", "recency-history"):
            for order in ("file-order", "round-robin"):
                code = cli.main(["check", str(path), "--quiet", "--tram", tram,
                                 "--interleave", order])
                out, err = capsys.readouterr()
                assert err == ""
                blocks.append(f"# {path.stem} {tram} {order} exit={code}\n{out}")
    assert "".join(blocks) == (FIXTURES / "check.stdout").read_text()


def test_check_fails_on_unmet_expectation(tmp_path, capsys):
    bad = tmp_path / "bad.coop"
    bad.write_text("trust q p = 1\ntick 1\nexpect-trust q p = 2\n")
    assert cli.main(["check", str(bad), "--quiet"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_tram_override_changes_result(tmp_path):
    assert (
        cli.main(
            ["check", str(SCENARIOS / "thread1.coop"), "--tram", "recency-history",
             "--quiet"]
        )
        == 1
    )
    assert (
        cli.main(
            ["check", str(SCENARIOS / "thread1.coop"), "--tram", "incremental",
             "--quiet"]
        )
        == 0
    )


@pytest.mark.parametrize("flag,values", [
    ("--tram", ("incremental", "recency-history")),
    ("--interleave", ("file-order", "round-robin")),
])
def test_policy_flags_name_their_choices(flag, values, capsys):
    """``--help`` and an invalid choice list a policy flag's values, in the
    order its enum declares them."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "x.coop", flag, "bad"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    listed = err.partition("invalid choice: 'bad' (choose from ")[2]
    assert listed.replace("'", "") == ", ".join(values) + ")\n"
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    assert f"[{flag} {{{','.join(values)}}}]" in capsys.readouterr().out


def test_parse_errors_match_the_pinned_stderr(capsys):
    """Line, column and message of every statement error, as ``coopsim
    parse`` prints them (CI compares the console script's stderr too)."""
    assert cli.main(["parse", str(FIXTURES / "malformed_statements.txt")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (FIXTURES / "malformed_statements.stderr").read_text()


def test_scenario_load_errors_match_the_pinned_stderr(monkeypatch, capsys):
    """Each file under malformed_scenarios/ fails ``coopsim check``, and
    ``coopsim run --trace --quiet``, with exit 2 and its pinned line and
    message (CI compares the console script's stderr too)."""
    monkeypatch.chdir(FIXTURES.parent)
    paths = sorted(Path("tests/malformed_scenarios").glob("*.coop"))
    assert paths
    pinned = (FIXTURES / "malformed_scenarios.stderr").read_text(encoding="utf-8")
    for command in (["check"], ["run", "--trace", "--quiet"]):
        for path in paths:
            with pytest.raises(SystemExit) as exit_:
                cli.main([*command, str(path)])
            assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == pinned, command


def test_parse_strips_comments_as_load_does(tmp_path, capsys):
    src = tmp_path / "stmts.txt"
    src.write_text('p[pi:"b"]q  # note\np[pi:"task #1"]q # "#" here\n  # whole line\n')
    assert cli.main(["parse", str(src)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == ['p[pi:"b"]q', 'p[pi:"task #1"]q']
    assert err == ""


@pytest.mark.parametrize("command", ["run", "check"])
def test_non_utf8_scenario_is_an_input_error(tmp_path, capsys, command):
    """A byte that is not UTF-8 fails with exit 2 and the line it is on,
    not with a ``UnicodeDecodeError`` traceback and the exit of a failed
    expectation."""
    bad = tmp_path / "bad.coop"
    bad.write_bytes(b"trust q p = 1\r\ntick 1\rissue p[pi:\"caf\xc3\"]q\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, str(bad)])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"coopsim: {bad}: line 3: not UTF-8: byte 0xc3 at offset 37\n"


def test_parse_reports_a_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "stmts.txt"
    bad.write_bytes(b'p[pi:"ok"]q\n\np[pi:"\xff"]q\n')
    assert cli.main(["parse", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"coopsim: {bad}: line 3: not UTF-8: byte 0xff at offset 19\n"


def test_parse_reports_non_utf8_on_stdin(monkeypatch, capsys):
    """stdin is read as bytes and decoded as a file is, not in the locale's
    encoding, which under C or C.UTF-8 passes a bad byte through."""
    data = b'p[pi:"ok"]q\r\np[pi:"\xfe"]q\n'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert cli.main(["parse"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "coopsim: -: line 2: not UTF-8: byte 0xfe at offset 19\n"


BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_is_dropped_from_a_scenario(tmp_path, capsys):
    """A scenario saved with a UTF-8 byte-order mark runs to the same trace."""
    plain = SCENARIOS / "parking.coop"
    marked = tmp_path / "parking.coop"
    marked.write_bytes(BOM + plain.read_bytes())
    traces = []
    for path in (plain, marked):
        assert cli.main(["run", str(path), "--trace", "--quiet"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        traces.append(out)
    assert traces[0] == traces[1] != ""


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_parse_drops_a_byte_order_mark(tmp_path, monkeypatch, capsys, stdin):
    data = BOM + b'p[pi:"ok"]q\n'
    if stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        argv = ["parse"]
    else:
        src = tmp_path / "stmts.txt"
        src.write_bytes(data)
        argv = ["parse", str(src)]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ('p[pi:"ok"]q\n', "")


def test_bad_byte_after_a_byte_order_mark_reports_the_file_offset(tmp_path, capsys):
    """The offset counts the mark's three bytes, as any byte of the file."""
    bad = tmp_path / "stmts.txt"
    bad.write_bytes(BOM + b'p[pi:"ok"]q\np[pi:"\xff"]q\n')
    assert cli.main(["parse", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"coopsim: {bad}: line 2: not UTF-8: byte 0xff at offset 21\n"
