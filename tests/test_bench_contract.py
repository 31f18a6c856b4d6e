"""The benchmark's tracer targets stay live bindings of the package.

`perfbench/tracer.py` wraps functions by (module, attribute) in the module
that calls them.  A refactor that renames such a binding, leaves a stale
copy behind, or stops calling through it would silently empty a per-layer
metric of `perfbench/run.py --trace 1` or break `--quick`; these tests
fail instead.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from cycleiso import cli, constructive, graphs, isolation
from cycleiso.family import Tree, build
from cycleiso.graphs import encode_graph6
from util import k23_with_tail

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def targets(monkeypatch) -> tuple[tuple[str, str, str], ...]:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")._TARGETS


def test_targets_are_the_defining_functions(targets):
    for module, attr, layer in targets:
        fn = getattr(sys.modules[module], attr, None)
        assert fn is not None, f"{module}.{attr} is gone"
        home = sys.modules[fn.__module__]
        assert getattr(home, fn.__name__) is fn, f"{module}.{attr} is a stale copy"
        assert inspect.isgeneratorfunction(fn) == layer.endswith("*"), f"{module}.{attr}"


def test_every_target_is_called_through(targets, monkeypatch, tmp_path, capsys):
    calls = {(module, attr): 0 for module, attr, _ in targets}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    for key in calls:
        mod = sys.modules[key[0]]
        monkeypatch.setattr(mod, key[1], counting(key, getattr(mod, key[1])))

    # what perfbench/one_pass.py calls: construct-mix, then the survey workloads
    g = graphs.parse_graph6(encode_graph6(k23_with_tail(9)))
    # only member-sized pieces reach recognize, and the tail graph has none
    member = build(Tree(1, ()), 4)[0]
    for h in (g, member):
        d, _ = constructive.construct(h)
        assert isolation.verify(h, d, 4).valid
    monkeypatch.setattr(constructive, "_within_contract", lambda piece, d: False)
    assert constructive.construct(g)[1].labels == ("fallback",)
    stream = tmp_path / "input.g6"
    stream.write_text("Cz\nC~\n")
    exclude = tmp_path / "exclude.g6"
    exclude.write_text("Cz\n")
    argvs = [
        ["survey", "--file", str(stream), "--bound-c4", "--exclude", str(exclude)],
        ["survey", "--enumerate", "3", "--bound-c4", "--format", "csv"],
        ["survey", "--graph6", encode_graph6(build(Tree(1, ()), 5)[0]), "-k", "5", "--conjecture"],
        ["exact", "--graph6", "Cz"],
        ["enumerate", "-n", "3"],
    ]
    assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)
    capsys.readouterr()
    assert [key for key, count in calls.items() if count == 0] == []
