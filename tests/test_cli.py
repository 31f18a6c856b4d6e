import json
import re
import sys

import pytest

from cycleiso.cli import _parse_bound, main
from cycleiso.family import Tree, build
from cycleiso.graphs import encode_graph6, format_edge_list, parse_graph6
from util import cycle, diamond, k23_with_tail, oracle_iota


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


def test_survey_parallel_flag_identical_output(capsys):
    base = ("survey", "--enumerate", "5", "-k", "5", "--conjecture", "--format", "csv")
    _, seq, _ = run_cli(capsys, *base, "--workers", "1")
    _, par, _ = run_cli(capsys, *base, "--workers", "2")
    assert seq == par


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
    code, _, err = run_cli(
        capsys, "exact", "--graph6", "C~", "--file", "nope.txt"
    )
    assert code == 1
    assert "at most one" in err


def test_survey_rejects_graph6_with_file(capsys, tmp_path):
    # the file would add a graph; giving both is an error, as for one-graph commands
    path = tmp_path / "extra.g6"
    path.write_text("C~\n")
    argv = ("survey", "--graph6", "C^", "--file", str(path), "--bound-c4")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: give at most one of --graph6 and --file\n"


def test_bad_k_rejected(capsys):
    assert run_cli(capsys, "exact", "--graph6", "C~", "-k", "2")[0] == 1


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


def test_survey_enumerate_above_eight_fails_before_enumerating(capsys, no_enumeration):
    code, out, err = run_cli(capsys, "survey", "--enumerate", "9")
    assert code == 1
    assert out == ""
    assert err == (
        "error: built-in enumeration supports 1 <= n <= 8; "
        "ingest larger graphs from a graph6 stream\n"
    )


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_survey_worker_count_below_one_fails_before_enumerating(capsys, no_enumeration, workers):
    assert run_cli(capsys, "survey", "--enumerate", "8", "--workers", workers) == (
        1, "", "error: worker count must be at least 1\n"
    )


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


@pytest.mark.parametrize("text", ["3\n0 1\n", "C~ C~\n"])
def test_file_with_broken_header_is_read_as_edge_list(capsys, tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert run_cli(capsys, "exact", "--file", str(path)) == (
        1, "", 'error: line 1: edge-list input must start with a "n <count>" header\n'
    )


@pytest.mark.parametrize(
    "text", ["C~\n", "\n  C~  \n", ">>graph6<<C~\n", "n 4\n0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n"]
)
def test_file_sniffs_graph6_or_edge_list(capsys, tmp_path, text):
    # K4 written as graph6 (with blank lines, padding or a header) and as an edge list
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


# Violators of the --conjecture preset (m+1)/(k+2): each has iota = 2 above
# the bound, found by solving cubic and generalised Petersen graphs beyond
# the order-8 enumeration.
CONJECTURE_PRESET_VIOLATORS = [
    ("K{O__cI@OP?b", 8, "K{O__cI@OP?b,12,18,8,2,19,10,violation,"),  # truncated tetrahedron
    ("LF`@?OH@OD?a?b", 8, "LF`@?OH@OD?a?b,13,18,8,2,19,10,violation,"),
    ("M??F?yOQ@G?C?D?B_", 8, "M??F?yOQ@G?C?D?B_,14,18,8,2,19,10,violation,"),
    ("MSP@@COCGS?gAI@D?", 9, "MSP@@COCGS?gAI@D?,14,20,9,2,21,11,violation,"),
    ("OhCGKE?O@@AAAA@@?SOAa", 11, "OhCGKE?O@@AAAA@@?SOAa,16,24,11,2,25,13,violation,"),  # GP(8,2)
]


@pytest.mark.parametrize("g6, k, row", CONJECTURE_PRESET_VIOLATORS)
def test_conjecture_preset_violators(capsys, g6, k, row):
    argv = ("survey", "--graph6", g6, "-k", str(k), "--conjecture", "--format", "csv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out.splitlines()[1:] == [row]
    assert oracle_iota(parse_graph6(g6), k) == 2
