import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cycleiso import cli, constructive
from cycleiso.cli import _parse_bound, main
from cycleiso.constructive import TraceStep, construct
from cycleiso.family import Tree, build
from cycleiso.graphs import Graph, encode_graph6, parse_graph6
from cycleiso.isolation import UNBUDGETED_MAX_N, iota_exact
from util import (
    EDGE_LIST_ERRORS,
    cycle,
    diamond,
    format_edge_list,
    generalized_petersen,
    k23_with_tail,
    oracle_iota,
    step_ids,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_on_k4(capsys):
    code, out, _ = run_cli(capsys, "exact", "--graph6", "C~", "-k", "4")
    assert code == 0
    assert "iota: 1" in out


def test_exact_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "exact", "--graph6", "C~", "-k", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["iota"] == 1 and data["witness"] == [0]


def test_construct_rejects_plain_c4(capsys):
    code, _, err = run_cli(capsys, "construct", "--graph6", encode_graph6(cycle(4)), "-k", "4")
    assert code == 1
    assert "excluded graph C4" in err


def test_construct_diamond(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--graph6", encode_graph6(diamond()), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 1 and data["fallback"] is False


def _json_trace(capsys, graph6: str) -> list[dict]:
    code, out, _ = run_cli(capsys, "construct", "--graph6", graph6, "--format", "json")
    assert code == 0
    return json.loads(out)["trace"]


def _ids_trace(trace) -> list[dict]:
    return json.loads(json.dumps([dataclasses.asdict(step_ids(s)) for s in trace.steps]))


def test_construct_json_trace_lists_the_step_masks_as_ids(capsys, monkeypatch):
    # trace steps hold vertex masks; the JSON trace lists their ids
    g = parse_graph6("H?^s?C@")
    _, trace = construct(g)
    assert _json_trace(capsys, "H?^s?C@") == _ids_trace(trace) == [
        {"label": "Case 2:no-special", "working": [0, 1, 2, 3, 5], "increment": [5],
         "recursed": [[4], [6, 7, 8]]},
        {"label": "base:no-C4", "working": [], "increment": [], "recursed": []},
        {"label": "base:no-C4", "working": [], "increment": [], "recursed": []},
    ]
    # the fallback step's working set is its piece and its increment the
    # exact solver's witness
    monkeypatch.setattr(constructive, "_within_contract", lambda piece, d: False)
    _, trace = construct(g)
    assert trace.steps == (TraceStep("fallback", g.full_mask, iota_exact(g, 4).witness),)
    assert _json_trace(capsys, "H?^s?C@") == _ids_trace(trace)


def test_construct_fallback_budget_exit_code(capsys, monkeypatch, tmp_path):
    # the glued branch is refused, so the exact fallback runs, and it runs
    # out of nodes at once
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(k23_with_tail(21)))
    monkeypatch.setattr(
        "cycleiso.constructive.check_gluing_hypothesis", lambda *args: False
    )
    monkeypatch.setattr("cycleiso.constructive.FALLBACK_NODE_BUDGET", 0)
    code, out, err = run_cli(capsys, "construct", "--file", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("budget exhausted: node budget exhausted after")


def test_construct_requires_k4(capsys):
    code, _, err = run_cli(capsys, "construct", "--graph6", "C~", "-k", "5")
    assert code == 1


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--graph6", encode_graph6(diamond()), "--set", "1", "-k", "4"
    )
    assert code == 0
    assert "valid: true" in out


def test_survey_enumerate_small(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--enumerate", "5", "-k", "4", "--bound", "m+1/6",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["totals"]["records"] == 31
    assert len(data["equalities"]) == 2
    assert not data["violations"]


def test_survey_exit_code_on_violation(capsys):
    # impossible bound: iota <= -10 fails for the diamond
    code, out, _ = run_cli(
        capsys, "survey", "--graph6", encode_graph6(diamond()), "-k", "4",
        "--bound", "m-100/6",
    )
    assert code == 2
    assert encode_graph6(diamond()) in out


def test_survey_budget_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "survey", "--graph6", "F~~~w", "-k", "4", "--budget", "1"
    )
    assert code == 3


def test_survey_byte_identical_runs(capsys):
    args = ("survey", "--enumerate", "4", "-k", "3", "--bound-c3", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_check_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--graph6", encode_graph6(diamond()), "-k", "4",
        "--bound-c4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "equal" and data["extremal_class"] == "diamond"


def test_cons_and_recognize_pipeline(capsys, tmp_path):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("n 2\n0 1\n")
    code, out, _ = run_cli(capsys, "cons", "--tree", str(tree_file), "-k", "4", "--format", "json")
    assert code == 0
    g6 = json.loads(out)["graph6"]
    code, out, _ = run_cli(capsys, "recognize", "--graph6", g6, "-k", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert len(data["connection_vertices"]) == 2


def test_recognize_non_member(capsys):
    code, out, _ = run_cli(
        capsys, "recognize", "--graph6", encode_graph6(diamond()), "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"member": False}


def test_trees_subcommand(capsys):
    code, out, _ = run_cli(capsys, "trees", "-n", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 11


def test_enumerate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "4")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_unknown_flag_exits_one(capsys):
    assert run_cli(capsys, "exact", "--nonsense")[0] == 1


def test_conflicting_inputs_exit_one(capsys):
    # one check in main serves every command that reads a graph; the file is never opened
    for command in (
        ("verify", "--set", "0"),
        ("exact",),
        ("construct",),
        ("recognize",),
        ("check", "--bound-c4"),
        ("survey", "--bound-c4"),
    ):
        code, out, err = run_cli(capsys, *command, "--graph6", "C~", "--file", "nope.txt")
        assert (code, out, err) == (1, "", "error: give at most one of --graph6 and --file\n")


def test_survey_rejects_graph6_with_file(capsys, tmp_path):
    # the file would add a graph; giving both is an error, as for one-graph commands
    path = tmp_path / "extra.g6"
    path.write_text("C~\n")
    argv = ("survey", "--graph6", "C^", "--file", str(path), "--bound-c4")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: give at most one of --graph6 and --file\n"


def test_headline_survey_csv_is_pinned(capsys):
    # the exhaustive order-8 check of the (m+1)/6 bound, byte for byte: the
    # sha256 of its stdout, as pinned for the benchmark's exhaustive8 workload
    code, out, err = run_cli(capsys, "survey", "--enumerate", "8", "--bound-c4", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 + 11117 + 853 + 112 + 21 + 6 + 2 + 1 + 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "6a31790b7f7191369d6dac1237a648727cbaa27847e20687e8f41a6fab106e1e"


@pytest.mark.parametrize(
    "command",
    [
        ("verify", "--graph6", "C~", "--set", "0"),
        ("exact", "--graph6", "C~"),
        ("construct", "--graph6", "C~"),
        ("cons",),
        ("recognize", "--graph6", "C~"),
    ],
)
def test_csv_format_only_for_survey_and_check(capsys, command):
    # these commands print text or JSON only, so --format csv is a usage error
    code, out, err = run_cli(capsys, *command, "--format", "csv")
    assert (code, out) == (1, "")
    assert "invalid choice: 'csv'" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("exact", "--graph6", ""), (1, "", "error: empty graph6 string\n")),
        (
            ("survey", "--graph6", "", "--format", "csv"),
            (0, "graph6,n,m,k,iota,bound_num,bound_den,status,extremal_class\n", ""),
        ),
        (
            ("survey", "--enumerate", "2", "--graph6", ""),
            (1, "", "error: --enumerate conflicts with --graph6/--file input\n"),
        ),
    ],
)
def test_empty_graph6_is_given_not_absent(capsys, monkeypatch, argv, expected):
    # an empty --graph6 is the input: stdin, which holds a graph, is not read
    monkeypatch.setattr(sys, "stdin", io.StringIO("C~\n"))
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize(
    "command",
    [
        ("exact", "--file"),
        ("survey", "--bound-c4", "--file"),
        ("cons", "--tree"),
        ("survey", "--bound-c4", "--exclude"),
        ("check", "--graph6", "C~", "--bound-c4", "--exclude"),
    ],
)
def test_empty_file_name_is_given_not_absent(capsys, monkeypatch, command):
    # an empty file name is still a file to read: stdin, which holds an input, is not read
    stdin = io.StringIO("C~\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, *command, "")
    assert (code, out) == (1, "")
    context = "bad exclusion list: " if command[-1] == "--exclude" else ""
    assert err.startswith(f"error: {context}[Errno 2] No such file or directory: ''")
    assert stdin.read() == "C~\n"


@pytest.mark.parametrize(
    "command",
    [
        ("verify", "--set", "0"),
        ("exact",),
        ("construct",),
        ("cons",),
        ("recognize",),
        ("survey", "--bound-c4"),
        ("check", "--bound-c4"),
    ],
    ids=lambda c: c[0],
)
def test_bad_k_rejected(capsys, monkeypatch, command):
    # the preset fixes k=4 for the bound, so only the length check can refuse -k 2
    stdin = io.StringIO("C~\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_cli(capsys, *command, "-k", "2") == (
        1, "", "error: cycle length must be at least 3\n"
    )
    assert stdin.read() == "C~\n"


def test_out_of_range_vertex_set_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--graph6", "C~", "--set", "0,99", "-k", "4"
    )
    assert code == 1
    assert "error" in err


BAD_LINES = ["BADLINE", "C\u00e9"]  # the second is stored as UTF-8 bytes


def test_survey_file_stream_with_skip(capsys, tmp_path):
    stream = tmp_path / "graphs.g6"
    for bad in BAD_LINES:
        stream.write_bytes(f"C~\n{bad}\nC^\n".encode())
        code, out, err = run_cli(
            capsys, "survey", "--file", str(stream), "-k", "4", "--bound-c4",
            "--skip-bad", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["totals"]["records"] == 2
        assert err.startswith("skipped line 2: ") and err.count("\n") == 1


def test_survey_file_stream_aborts_without_skip(capsys, tmp_path):
    stream = tmp_path / "graphs.g6"
    for bad in BAD_LINES:
        stream.write_bytes(f"C~\n{bad}\n".encode())
        code, _, err = run_cli(
            capsys, "survey", "--file", str(stream), "-k", "4", "--bound-c4"
        )
        assert code == 1
        assert err.startswith("error: line 2: ")


def test_check_violation_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "check", "--graph6", encode_graph6(diamond()), "-k", "4",
        "--bound", "m-100/6",
    )
    assert code == 2


def test_check_with_an_empty_bound_numerator_exits_one(capsys):
    # read as bound 0, K4 would be a violation (exit 2)
    assert run_cli(capsys, "check", "--graph6", "C~", "-k", "4", "--bound", "/6") == (
        1, "", "error: bad bound numerator ''\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "graph, extra, code, status",
    [
        (encode_graph6(diamond()), ("--bound", "m-100/6"), 2, "violation"),
        ("F~~~w", ("--budget", "1"), 3, "budget_exhausted"),
    ],
)
def test_check_exit_codes_in_every_format(capsys, fmt, graph, extra, code, status):
    rc, out, _ = run_cli(capsys, "check", "--graph6", graph, "-k", "4", *extra, "--format", fmt)
    assert rc == code
    assert status in out


@pytest.mark.parametrize("n", ["0", "-1"])
def test_survey_enumerate_below_one_exits_one(capsys, n):
    code, out, err = run_cli(capsys, "survey", "--enumerate", n)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.fixture
def no_enumeration(monkeypatch):
    # a cold cache and a poisoned canonical form: any enumeration would raise
    def refuse(n, adj):
        raise AssertionError("enumeration started")

    survey_module = sys.modules["cycleiso.survey"]  # the package attribute is survey()
    survey_module._connected_codes.cache_clear()
    monkeypatch.setattr(survey_module, "canonical_code", refuse)


@pytest.mark.parametrize(
    "extra",
    [(), ("--format", "csv"), ("--format", "json"), ("--timing",)],
    ids=["text", "csv", "json", "timing"],
)
def test_survey_enumerate_above_eight_fails_before_enumerating(capsys, no_enumeration, extra):
    code, out, err = run_cli(capsys, "survey", "--enumerate", "9", *extra)
    assert code == 1
    assert out == ""
    assert err == (
        "error: built-in enumeration supports 1 <= n <= 8; "
        "ingest larger graphs from a graph6 stream\n"
    )


def test_survey_workers_option_is_gone(capsys, no_enumeration):
    # surveys run in one process; the option that took a worker count was removed
    code, out, err = run_cli(capsys, "survey", "--enumerate", "8", "--workers", "1")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --workers 1" in err


BUDGET_COMMANDS = [("exact",), ("check", "--bound-c4"), ("survey", "--bound-c4")]


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
def test_negative_budget_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, *command, "--graph6", "C~", "--budget", "-1")
    assert (code, out) == (1, "")
    assert "argument --budget: node budget must be at least 0" in err


def test_survey_negative_budget_fails_before_enumerating(capsys, no_enumeration):
    code, out, err = run_cli(capsys, "survey", "--enumerate", "8", "--budget", "-1")
    assert (code, out) == (1, "")
    assert "argument --budget: node budget must be at least 0" in err


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
@pytest.mark.parametrize("g6, expected", [("Bg", 0), ("C~", 3)])
def test_zero_budget_is_valid(capsys, command, g6, expected):
    assert run_cli(capsys, *command, "--graph6", g6, "--budget", "0")[0] == expected


VERIFY_12 = ("verify", "--graph6", "KhCGGC@?G?o@", "-k", "12", "--set")


# int() alone would take each of these: "1_0" as 10, "+3" as 3, "\uff11" as 1
@pytest.mark.parametrize("text", ["1_0", "+3", "\uff11", "2, 1_0"])
def test_vertex_set_ids_are_ascii_decimal(capsys, text):
    error = f"error: bad vertex set {text!r}; expected comma-separated ids\n"
    assert run_cli(capsys, *VERIFY_12, text) == (1, "", error)


@pytest.mark.parametrize(
    "argv, text",
    [
        (("exact", "--graph6", "C~", "--budget"), "1_0"),
        (("exact", "--graph6", "C~", "--budget"), "abc"),
        (("check", "--bound-c4", "--graph6", "C~", "--budget"), "+5"),
        (("exact", "--graph6", "C~", "-k"), "\uff14"),
        (("trees", "-n"), "\uff15"),
        (("enumerate", "-n"), "+3"),
        (("survey", "--enumerate"), "+3"),
    ],
)
def test_integer_options_are_ascii_decimal(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv, text)
    assert (code, out) == (1, "")
    assert f"argument {argv[-1]}: invalid int value: {text!r}\n" in err


def test_vertex_set_parts_keep_their_spaces(capsys):
    code, out, _ = run_cli(capsys, *VERIFY_12, " 3, 4 ")
    assert code == 0
    assert "set: 3,4\n" in out


NON_ASCII_EDGE_LIST = "n 3\n0 1\n1 \u00e9\n".encode()  # the last id is UTF-8 bytes


@pytest.mark.parametrize("argv", [("exact", "--file"), ("cons", "--tree")])
def test_non_ascii_input_file_cites_its_line(capsys, tmp_path, argv):
    path = tmp_path / "graph.txt"
    path.write_bytes(NON_ASCII_EDGE_LIST)
    assert run_cli(capsys, *argv, str(path)) == (
        1, "", "error: line 3: non-integer vertex id\n"
    )


@pytest.mark.parametrize(
    "text, error",
    [
        ("Cz\nBADLINE\n", "line 2: graph6 string has 7 bytes, expected 2"),
        ("\nCz\n\nBADLINE\n", "line 4: graph6 string has 7 bytes, expected 2"),
        ("Cz\nC\u00e9\n", "line 2: non-ASCII character"),
    ],
)
def test_bad_exclusion_cites_its_file_line(capsys, tmp_path, text, error):
    listing = tmp_path / "exempt.g6"
    listing.write_bytes(text.encode())
    code, out, err = run_cli(capsys, "survey", "--graph6", "Cz", "--exclude", str(listing))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bad exclusion list: {error}")


def test_order_zero_exclusion_matches_order_zero_record(capsys, tmp_path):
    listing = tmp_path / "exempt.g6"
    listing.write_text("?\n")
    code, out, _ = run_cli(capsys, "survey", "--graph6", "?", "--exclude", str(listing))
    assert (code, out) == (0, "records: 1\n  excluded: 1\n")


# only "\n" ends a line, so "n 3\r0 1\r1 5\n" is one line with a malformed header
@pytest.mark.parametrize(
    "text", ["3\n0 1\n", "C~ C~\n", "C~\x0bC~\n", "n 3\x0c0 1\n", "n 3\r0 1\r1 5\n"]
)
def test_file_with_broken_header_is_read_as_edge_list(capsys, tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert run_cli(capsys, "exact", "--file", str(path)) == (
        1, "", 'error: line 1: edge-list input must start with a "n <count>" header\n'
    )


@pytest.mark.parametrize("text, message", EDGE_LIST_ERRORS.values(), ids=EDGE_LIST_ERRORS.keys())
def test_file_edge_list_errors_cite_their_line(capsys, tmp_path, text, message):
    # a file is read as ASCII, so a non-ASCII byte fails as its replacement character would
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode())
    assert run_cli(capsys, "exact", "--file", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", EDGE_LIST_ERRORS.values(), ids=EDGE_LIST_ERRORS.keys())
def test_stdin_edge_list_errors_cite_their_line(capsys, monkeypatch, text, message):
    # stdin keeps non-ASCII characters, so "\u00b2" and "\uff11" reach the id checks as themselves
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run_cli(capsys, "cons") == (1, "", f"error: {message}\n")


def _run_module(argv: list[str], stdin: bytes) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "cycleiso.cli", *argv],
        input=stdin, capture_output=True, env=env, timeout=60,
    )


def test_commands_back_to_back_match_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process: commands run one after another
    # in one process, errors and help included, print what each prints alone
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    commands = [
        ["exact", "--graph6", "C~"],
        ["verify", "--graph6", "C~"],  # --set is required
        ["survey", "--help"],
        ["construct", "--graph6", "DIk", "--format", "json"],
        ["exact", "--budget", "1_0", "--graph6", "C~"],
        ["enumerate", "-n", "4"],
        ["--help"],
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        fresh = _run_module(argv, b"")
        assert (code, out, err) == (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()), argv


def test_stdin_lines_end_only_at_newline():
    # the real stdin, not a StringIO, splits lines only at "\n" on POSIX
    # systems, as a --file does
    proc = _run_module(["cons"], b"n 3\r0 1\r1 5\n")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert b"error: line 1: " in proc.stderr
    proc = _run_module(["exact"], b"C~\r\n")
    assert (proc.returncode, proc.stdout) == (0, b"iota: 1\nwitness: 0\nexplored: 4\n")


ONE_GRAPH_COMMANDS = [
    ("exact",),
    ("verify", "--set", "0"),
    ("construct",),
    ("recognize",),
    ("check", "--bound-c4"),
]


@pytest.mark.parametrize("command", ONE_GRAPH_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "text",
    ["\nDIk\n", "n 2\n0 1\n", "DIk\nDIk\n", "C~\r\n"],
    ids=["blank-first", "edge-list", "two-records", "crlf"],
)
def test_stdin_reads_like_a_file(capsys, monkeypatch, tmp_path, command, text):
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode())
    from_file = run_cli(capsys, *command, "--file", str(path))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run_cli(capsys, *command) == from_file


@pytest.mark.parametrize("command", ONE_GRAPH_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize(
    "text, line", [("DIk\nDIk\n", 2), ("\nDIk\n \nC~", 4)], ids=["next-line", "after-blanks"]
)
def test_second_graph6_record_names_its_line(capsys, monkeypatch, tmp_path, command, source, text, line):
    if source == "file":
        path = tmp_path / "graphs.g6"
        path.write_text(text)
        command += ("--file", str(path))
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    expected = f"error: line {line}: a second graph6 record; this command takes one graph\n"
    assert run_cli(capsys, *command) == (1, "", expected)


@pytest.mark.parametrize("command", ONE_GRAPH_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("text", ["", " \n\n\t\n"], ids=["empty", "whitespace"])
def test_blank_stdin_holds_no_graph(capsys, monkeypatch, command, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run_cli(capsys, *command) == (1, "", "error: no graph on stdin\n")


def test_survey_reads_a_graph6_stream_from_stdin(capsys, monkeypatch, tmp_path):
    # what "cycleiso enumerate -n 5 | cycleiso survey --bound-c4" reads
    code, stream, _ = run_cli(capsys, "enumerate", "-n", "5")
    assert code == 0
    path = tmp_path / "stream.g6"
    path.write_text(stream)
    expected = run_cli(capsys, "survey", "--bound-c4", "--file", str(path))
    assert "records: 21\n" in expected[1] and "  equal: 1\n" in expected[1]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    assert run_cli(capsys, "survey", "--bound-c4") == expected


def test_closed_stdout_ends_quietly():
    # order 8 prints 77,819 bytes, more than a pipe holds, so the command is
    # still writing when the reader closes the pipe after one line
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycleiso.cli", "enumerate", "-n", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline().endswith(b"\n")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize(
    "text",
    [
        "C~\n",
        "\n  C~  \n",
        ">>graph6<<C~\n",
        "n 4\n0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n",
        "n 4\r\n0 1\r\n1 2\r\n2 3\r\n3 0\r\n0 2\r\n1 3\r\n",
    ],
)
def test_file_sniffs_graph6_or_edge_list(capsys, tmp_path, text):
    # K4 written as graph6 (with blank lines, padding or a header) and as an
    # edge list, with "\n" or "\r\n" line ends
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert run_cli(capsys, "exact", "--file", str(path)) == (
        0, "iota: 1\nwitness: 0\nexplored: 4\n", ""
    )


def test_exact_prints_nodes_of_the_alive_set_memo(capsys):
    # the graph of test_isolation's REVISITED_RESIDUALS: the witness walk
    # reuses the failures deepening recorded on the same alive sets
    assert run_cli(capsys, "exact", "--graph6", "QA?OO?@?GBa?g?@@`?GC@g?@SS?") == (
        0, "iota: 2\nwitness: 7,13\nexplored: 47\n", ""
    )


def test_exact_on_the_equality_family_within_budget(capsys):
    path9 = Tree(9, tuple((i, i + 1) for i in range(8)))
    g6 = encode_graph6(build(path9, 4)[0])
    code, out, _ = run_cli(capsys, "exact", "--graph6", g6, "-k", "4", "--budget", "100")
    assert code == 0
    assert "iota: 9\n" in out


def test_survey_enumerate_holds_one_graph_per_order(capsys, monkeypatch):
    # one graph per order, pulled before solving, plus the one being checked
    survey_module = sys.modules["cycleiso.survey"]
    real = survey_module.check_graph
    gc.collect()
    # graphs alive before the run, held so that no new graph reuses an id
    before = [o for o in gc.get_objects() if isinstance(o, Graph)]
    known = {id(o) for o in before}
    live = []

    def counting(g, *args):
        live.append(sum(isinstance(o, Graph) and id(o) not in known for o in gc.get_objects()))
        return real(g, *args)

    monkeypatch.setattr(survey_module, "check_graph", counting)
    code, out, _ = run_cli(capsys, "survey", "--enumerate", "6", "--bound-c4", "--format", "csv")
    assert code == 0 and out.count("\n") == 1 + 143
    assert len(live) == 143 and max(live) <= 6 + 1


def test_survey_enumerates_every_order_before_solving(capsys, monkeypatch):
    # --timing's enumerate phase covers building every order's classes
    survey_module = sys.modules["cycleiso.survey"]
    survey_module._connected_codes.cache_clear()
    real = cli.survey

    def solving(*args, **kwargs):
        assert survey_module._connected_codes.cache_info().currsize == 5
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "survey", solving)
    assert run_cli(capsys, "survey", "--enumerate", "5", "--bound-c4")[0] == 0


def test_survey_builds_every_order_before_checking_a_graph(capsys, monkeypatch):
    # the phase --timing reports as "enumerate" ends before the first check
    survey_module = sys.modules["cycleiso.survey"]
    survey_module._connected_codes.cache_clear()
    real = survey_module.check_graph
    cached = []

    def checking(g, *args, **kwargs):
        cached.append(survey_module._connected_codes.cache_info().currsize)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(survey_module, "check_graph", checking)
    assert run_cli(capsys, "survey", "--enumerate", "5", "--bound-c4")[0] == 0
    # 1 + 1 + 2 + 6 + 21 connected graphs of orders 1..5
    assert cached == [5] * 31


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_survey_keeps_csv_rows_only_for_csv(capsys, monkeypatch, fmt):
    # text and JSON print no rows, so the report keeps none and prints the same
    real = cli.survey
    reports = []

    def recording(keep):
        def run(*args, rows, **kwargs):
            reports.append(real(*args, rows=rows or keep, **kwargs))
            return reports[-1]

        return run

    argv = ("survey", "--enumerate", "6", "--bound-c4", "--format", fmt)
    monkeypatch.setattr(cli, "survey", recording(False))
    without = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "survey", recording(True))
    assert run_cli(capsys, *argv) == without
    assert [len(r.rows) for r in reports] == [0, 143]
    assert [r.records for r in reports] == [143, 143]


@pytest.mark.parametrize(
    "source, phase",
    [(("--enumerate", "5"), "enumerate"), (("--graph6", "Cz"), "ingest")],
)
def test_survey_timing_adds_only_phase_lines(capsys, source, phase):
    base = ("survey", *source, "-k", "4", "--bound-c4")
    code, plain, _ = run_cli(capsys, *base)
    timed_code, timed, _ = run_cli(capsys, *base, "--timing")
    assert code == timed_code == 0
    lines = timed.splitlines()
    timing_lines = [ln for ln in lines if re.fullmatch(r"(\w+|wall time): \d+\.\d{3}s", ln)]
    assert [ln.split(":")[0] for ln in timing_lines] == [phase, "solve", "format", "wall time"]
    assert lines[-4:] == timing_lines
    assert "".join(ln + "\n" for ln in lines[:-4]) == plain
    _, plain_doc, _ = run_cli(capsys, *base, "--format", "json")
    _, doc, _ = run_cli(capsys, *base, "--timing", "--format", "json")
    timed_doc = json.loads(doc)
    meta = timed_doc.pop("metadata")
    assert timed_doc == json.loads(plain_doc)
    phases = [f"{phase}_s", "solve_s", "format_s"]
    assert sorted(meta) == sorted(phases + ["wall_time_s"])
    assert meta["wall_time_s"] == pytest.approx(sum(meta[key] for key in phases))
    # CSV stays the untimed table, and the same phase lines go to stderr
    _, plain_csv, _ = run_cli(capsys, *base, "--format", "csv")
    _, timed_csv, err = run_cli(capsys, *base, "--timing", "--format", "csv")
    assert timed_csv == plain_csv
    err_lines = err.splitlines()
    assert all(re.fullmatch(r"(\w+|wall time): \d+\.\d{3}s", ln) for ln in err_lines)
    assert [ln.split(":")[0] for ln in err_lines] == [phase, "solve", "format", "wall time"]


def test_survey_exclusion_file(capsys, tmp_path):
    # an order-based bound the diamond would violate, with the diamond
    # exempted by isomorphism through the exclusion list
    listing = tmp_path / "exempt.g6"
    listing.write_text(encode_graph6(diamond()) + "\n")
    code, out, _ = run_cli(
        capsys, "survey", "--graph6", encode_graph6(diamond()), "-k", "4",
        "--bound", "n-100/5", "--exclude", str(listing), "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["totals"]["by_status"] == {"excluded": 1}


def test_bound_grammar():
    spec = _parse_bound("m+1/6", 4)
    assert (spec.a, spec.b, spec.c, spec.d) == (0, 1, 1, 6)
    spec = _parse_bound("n/4", 3)
    assert (spec.a, spec.b, spec.c, spec.d) == (1, 0, 0, 4)
    spec = _parse_bound("2*n+3*m-4/7", 5)
    assert (spec.a, spec.b, spec.c, spec.d) == (2, 3, -4, 7)
    spec = _parse_bound("(m+1)/6", 4)
    assert (spec.a, spec.b, spec.c, spec.d) == (0, 1, 1, 6)
    spec = _parse_bound("2*n+m-3/7", 5)
    assert (spec.a, spec.b, spec.c, spec.d) == (2, 1, -3, 7)
    spec = _parse_bound("n-100/5", 4)
    assert (spec.a, spec.b, spec.c, spec.d) == (1, 0, -100, 5)
    spec = _parse_bound("m-100/6", 4)
    assert (spec.a, spec.b, spec.c, spec.d) == (0, 1, -100, 6)


def test_bound_grammar_errors():
    from cycleiso.cli import CliError

    with pytest.raises(CliError):
        _parse_bound("m+1", 4)
    with pytest.raises(CliError):
        _parse_bound("q+1/6", 4)
    with pytest.raises(CliError, match="bad bound term 'mn'"):
        _parse_bound("mn+1/6", 4)
    with pytest.raises(CliError, match=r"bad bound term 'x\*m'"):
        _parse_bound("x*m/6", 4)
    # a dangling sign or an empty numerator is an error, never a dropped term
    for text in ("/6", "+/6", "m+/6", "m++1/6"):
        with pytest.raises(CliError, match="bad bound numerator"):
            _parse_bound(text, 4)
    # a coefficient is ASCII digits with at most one "*" before its variable,
    # and no integer takes "_" or a non-ASCII digit, as int() alone would
    for text, term in (
        ("*m+1/6", "*m"),
        ("2**m+1/6", "2**m"),
        ("1_0/6", "1_0"),
        ("m+1*/6", "1*"),
        ("\u0663*m+1/6", "\u0663*m"),
    ):
        with pytest.raises(CliError, match=re.escape(f"bad bound term {term!r}")):
            _parse_bound(text, 4)
    for den in ("1_0", "\u0666"):
        message = f"bound denominator {den!r} is not an integer"
        with pytest.raises(CliError, match=re.escape(message)):
            _parse_bound(f"m+1/{den}", 4)


# Violators of the --conjecture preset (m+1)/(k+2): each has the iota of its
# row above the bound, found by solving cubic graphs, their truncations and
# generalised Petersen graphs beyond the order-8 enumeration.
GP = {
    (n, j): encode_graph6(generalized_petersen(n, j))
    for n, j in [(8, 2), (9, 2), (9, 3), (9, 4), (10, 1), (10, 2), (10, 3), (10, 4),
                 (13, 5), (15, 3), (15, 4), (16, 4), (16, 6), (16, 7)]
}
TRUNCATED_PRISM = "Q{O__cG@GP?a?_?O?@O?I??g?@W"  # the truncated triangular prism
CONJECTURE_PRESET_VIOLATORS = [
    ("K{O__cI@OP?b", 8, "K{O__cI@OP?b,12,18,8,2,19,10,violation,"),  # truncated tetrahedron
    ("LF`@?OH@OD?a?b", 8, "LF`@?OH@OD?a?b,13,18,8,2,19,10,violation,"),
    ("M??F?yOQ@G?C?D?B_", 8, "M??F?yOQ@G?C?D?B_,14,18,8,2,19,10,violation,"),
    ("MSP@@COCGS?gAI@D?", 9, "MSP@@COCGS?gAI@D?,14,20,9,2,21,11,violation,"),
    (GP[8, 2], 11, f"{GP[8, 2]},16,24,11,2,25,13,violation,"),
    (GP[13, 5], 12, f"{GP[13, 5]},26,39,12,3,20,7,violation,"),
    (GP[13, 5], 13, f"{GP[13, 5]},26,39,13,3,8,3,violation,"),
    (GP[9, 3], 13, f"{GP[9, 3]},18,27,13,2,28,15,violation,"),
    (TRUNCATED_PRISM, 13, f"{TRUNCATED_PRISM},18,27,13,2,28,15,violation,"),
    (TRUNCATED_PRISM, 14, f"{TRUNCATED_PRISM},18,27,14,2,7,4,violation,"),
    (GP[9, 2], 14, f"{GP[9, 2]},18,27,14,2,7,4,violation,"),
    (GP[9, 4], 14, f"{GP[9, 4]},18,27,14,2,7,4,violation,"),
    *((GP[10, j], 14, f"{GP[10, j]},20,30,14,2,31,16,violation,") for j in range(1, 5)),
    (GP[15, 3], 15, f"{GP[15, 3]},30,45,15,3,46,17,violation,"),
    (GP[15, 3], 17, f"{GP[15, 3]},30,45,17,3,46,19,violation,"),
    (GP[15, 4], 16, f"{GP[15, 4]},30,45,16,3,23,9,violation,"),
    (GP[16, 4], 18, f"{GP[16, 4]},32,48,18,3,49,20,violation,"),
    (GP[16, 6], 19, f"{GP[16, 6]},32,48,19,3,7,3,violation,"),
    (GP[16, 7], 20, f"{GP[16, 7]},32,48,20,3,49,22,violation,"),
]


@pytest.mark.parametrize("g6, k, row", CONJECTURE_PRESET_VIOLATORS)
def test_conjecture_preset_violators(capsys, g6, k, row):
    g = parse_graph6(g6)
    argv = ("survey", "--graph6", g6, "-k", str(k), "--conjecture", "--format", "csv")
    # above 20 vertices the solver needs an explicit node budget
    budget = ("--budget", "1000000") if g.n > UNBUDGETED_MAX_N else ()
    code, out, _ = run_cli(capsys, *argv, *budget)
    assert code == 2
    assert out.splitlines()[1:] == [row]
    assert oracle_iota(g, k) == int(row.split(",")[4])
