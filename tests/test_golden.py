"""Golden CLI corpus: byte-exact pins on everything the CLI prints.

Each group runs `cli.main` over a fixed command list and hashes, for every
command, its argv, exit code, stdout and stderr.  The digests were taken
from the implementation before the least-code refactor, so any change to a
report, witness, case trace, stderr line or exit code shows up here.  The
"family" digest was retaken once, when an edge-list file with a broken
header started to get the edge-list header error (citing line 1) instead
of a graph6 error; its other records were unchanged.  The "exclusions"
digest was taken from the implementation before exemptions moved into
`BoundSpec`.
Temporary file paths are replaced by a placeholder before hashing.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cycleiso.cli import main
from cycleiso.family import build, enumerate_trees
from cycleiso.graphs import encode_graph6, format_edge_list, from_edge_list, parse_graph6, relabel
from cycleiso.survey import enumerate_connected

GOLDEN = {
    "check": "843bf5a2bfc4db709a371d318ce0c1e01de5abc9f06aeb939f4fe027a963e478",
    "construct": "e6dc312724b0728cee6e3fa65f1074952966483479ac5be3c2de00f0c8b60725",
    "exclusions": "e83fed6e5cae3c52131c4220514dc88d6f6d454820d1deefe51b8eca31a3e974",
    "family": "5d252e17a44c7649a27d6b4ea8c35f77fedf9761b47497c6e3ead0d771cfbace",
    "small-graphs": "5f8951909348c438e5ec238017aacac58a4efbb716672e920c18bffcd60a2ff4",
    "survey": "553a179df0a676b8e4c3a916dfe76790b25352531b874fba62248ddd70878151",
}

C4 = "Cr"
DIAMOND = "Cz"
BUDGET_GRAPH = "F~~~w"  # K7: one solver node is never enough
HOUSE = encode_graph6(from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]))
BOWTIE = encode_graph6(from_edge_list(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]))
TWO_TRIANGLES = encode_graph6(from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def _relabelled(g6: str, perm: list[int]) -> str:
    return encode_graph6(relabel(parse_graph6(g6), perm))


def _connected(max_n: int) -> list[str]:
    return [encode_graph6(g) for n in range(1, max_n + 1) for g in enumerate_connected(n)]


def _survey_commands(tmp) -> list[list[str]]:
    exclude = tmp / "exclude.g6"
    exclude.write_text(f"{DIAMOND}\n{C4}\n")
    stream = tmp / "stream.g6"
    stream.write_text(f"C~\n\nBADLINE\n{DIAMOND}\n{BUDGET_GRAPH}\n")
    cmds = [
        ["survey", "--enumerate", "7", "-k", str(k), "--format", fmt]
        for k in (3, 4, 5)
        for fmt in ("text", "json", "csv")
    ]
    cmds += [
        ["survey", "--enumerate", "6", "-k", "3", "--bound-c3"],
        ["survey", "--enumerate", "6", "--bound-c4", "--format", "json"],
        ["survey", "--enumerate", "6", "-k", "6", "--conjecture", "--format", "csv"],
        ["survey", "--enumerate", "5", "--bound", "2*n+m-3/7", "--format", "json"],
        ["survey", "--enumerate", "5", "--bound", "n-100/5", "--exclude", str(exclude)],
        ["survey", "--enumerate", "5", "--bound", "m-100/6", "--format", "json"],
        ["survey", "--graph6", DIAMOND, "--bound", "m-100/6"],
        ["survey", "--graph6", BUDGET_GRAPH, "--budget", "1"],
        ["survey", "--graph6", BUDGET_GRAPH, "--budget", "1", "--format", "csv"],
        ["survey", "--enumerate", "6", "-k", "5", "--workers", "2", "--format", "csv"],
        ["survey", "--file", str(stream), "--skip-bad", "--budget", "10", "--format", "json"],
        ["survey", "--file", str(stream)],
        ["survey", "--enumerate", "4", "--graph6", C4],
        ["survey", "--enumerate", "4", "--bound-c3", "--conjecture"],
        ["survey", "--enumerate", "4", "--exclude", str(tmp / "missing.g6")],
    ]
    return cmds


def _check_commands(tmp) -> list[list[str]]:
    cases = [
        ["--graph6", DIAMOND, "--bound-c4"],
        ["--graph6", C4, "--bound-c4"],
        ["--graph6", DIAMOND, "--bound", "m-100/6"],
        ["--graph6", BUDGET_GRAPH, "--budget", "1"],
        ["--graph6", "D~{", "-k", "3", "--bound-c3"],
    ]
    return [
        ["check", *case, "--format", fmt]
        for case in cases
        for fmt in ("text", "json", "csv")
    ]


def _small_graph_commands(tmp) -> list[list[str]]:
    cmds = []
    for g6 in _connected(6):
        evens = ",".join(str(v) for v in range(0, ord(g6[0]) - 63, 2))
        cmds += [
            ["exact", "--graph6", g6],
            ["exact", "--graph6", g6, "-k", "3", "--format", "json"],
            ["verify", "--graph6", g6, "--set", "0"],
            ["verify", "--graph6", g6, "-k", "3", "--set", evens, "--format", "json"],
            ["recognize", "--graph6", g6],
            ["recognize", "--graph6", g6, "-k", "3", "--format", "json"],
        ]
    return cmds


def _family_commands(tmp) -> list[list[str]]:
    cmds = []
    for t in range(1, 6):
        for i, tree in enumerate(enumerate_trees(t)):
            path = tmp / f"tree{t}_{i}.txt"
            path.write_text(format_edge_list(from_edge_list(tree.n, tree.edges)))
            for k in (3, 4, 5):
                cmds.append(["cons", "--tree", str(path), "-k", str(k)])
                cmds.append(["cons", "--tree", str(path), "-k", str(k), "--format", "json"])
                if t <= 4:
                    g6 = encode_graph6(build(tree, k)[0])
                    cmds.append(["recognize", "--graph6", g6, "-k", str(k)])
                    cmds.append(["recognize", "--graph6", g6, "-k", str(k), "--format", "json"])
    bad = {
        "disconnected": "n 4\n0 1\n1 2\n2 0\n",
        "short": "n 3\n0 1\n",
        "pair": "n 3\n0 1 2\n",
        "id": "n 3\n0 x\n",
        "header": "3\n0 1\n",
    }
    for name, text in bad.items():
        path = tmp / f"bad_{name}.txt"
        path.write_text(text)
        cmds.append(["cons", "--tree", str(path)])
        cmds.append(["exact", "--file", str(path)])
    cmds += [
        ["trees", "-n", "8"],
        ["trees", "-n", "8", "--format", "json"],
        ["trees", "-n", "13"],
        ["enumerate", "-n", "7"],
        ["enumerate", "-n", "9"],
        ["exact", "--graph6", "U" + "?" * 39],
        ["exact", "--graph6", "C~", "--file", "nope.txt"],
        ["exact", "--graph6", "C~", "-k", "2"],
        ["verify", "--graph6", "C~", "--set", "0,99"],
        ["verify", "--graph6", "C~", "--set", "a"],
        ["construct", "--graph6", "C~", "-k", "5"],
        ["construct", "--graph6", C4],
    ]
    return cmds


def _construct_commands(tmp) -> list[list[str]]:
    # JSON carries the set, size, bound and the whole trace; the text form
    # prints a subset of the same fields, so n <= 6 suffices to pin it
    cmds = []
    for g6 in _connected(7):
        if g6 == C4:
            continue
        cmds.append(["construct", "--graph6", g6, "--format", "json"])
        if ord(g6[0]) - 63 <= 6:
            cmds.append(["construct", "--graph6", g6])
    return cmds


def _exclusion_commands(tmp) -> list[list[str]]:
    # exempt graphs arrive relabelled, beside graphs of the same order and
    # size (the bowtie shares n = 5, m = 6 with the house) and plain cycles
    exclude = tmp / "exclude.g6"
    exclude.write_text(f"{DIAMOND}\n{HOUSE}\n")
    house = _relabelled(HOUSE, [3, 0, 4, 2, 1])
    stream = tmp / "stream.g6"
    stream.write_text(
        "\n".join(
            [
                _relabelled(DIAMOND, [2, 3, 0, 1]),
                house,
                BOWTIE,
                DIAMOND,
                "C~",
                C4,
                "Bw",
                "Dhc",
                "D~{",
                _relabelled("Dhc", [4, 2, 0, 1, 3]),
            ]
        )
        + "\n"
    )
    cmds = [
        ["survey", "--file", str(stream), "--exclude", str(exclude), "--workers", w, "--format", fmt]
        for w in ("1", "2")
        for fmt in ("text", "json", "csv")
    ]
    cmds += [
        ["survey", "--file", str(stream), "-k", "3", "--format", "csv"],
        ["survey", "--file", str(stream), "-k", "5", "--exclude", str(exclude), "--format", "csv"],
        ["survey", "--file", str(stream), "-k", "5", "--workers", "2", "--format", "csv"],
        ["survey", "--enumerate", "5", "--exclude", str(exclude), "--format", "csv"],
    ]
    for case in (
        [house, "--exclude", str(exclude)],
        [BOWTIE, "--exclude", str(exclude)],
        [_relabelled(DIAMOND, [1, 0, 3, 2]), "--exclude", str(exclude)],
        ["Bw", "-k", "3"],
        ["Dhc", "-k", "5"],
        ["Dhc", "-k", "4"],
        [TWO_TRIANGLES, "-k", "6"],
    ):
        cmds += [["check", "--graph6", *case, "--format", fmt] for fmt in ("text", "json", "csv")]
    return cmds


GROUPS = {
    "survey": _survey_commands,
    "check": _check_commands,
    "small-graphs": _small_graph_commands,
    "family": _family_commands,
    "construct": _construct_commands,
    "exclusions": _exclusion_commands,
}


def group_digest(name: str, tmp) -> str:
    placeholder = str(tmp)
    h = hashlib.sha256()
    for argv in GROUPS[name](tmp):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        record = (
            [a.replace(placeholder, "<tmp>") for a in argv],
            code,
            out.getvalue(),
            err.getvalue().replace(placeholder, "<tmp>"),
        )
        h.update(repr(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_golden_cli_outputs(name, tmp_path):
    assert group_digest(name, tmp_path) == GOLDEN[name]
