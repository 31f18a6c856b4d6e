"""The package's internal import graph, read from the source with ast.

Each module may import only from the layers below it: graph primitives,
then cycle search, then the isolation solver and the extremal family, then
the constructive recursion, with the survey beside it and the CLI on top.
A function-local import is pinned apart from the module-level ones, since
the two differ in when the imported name is looked up.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cycleiso

PACKAGE = Path(cycleiso.__file__).resolve().parent

#: module -> (modules imported at module level, modules imported inside functions)
LAYERS = {
    "graphs": (set(), set()),
    "cycles": ({"graphs"}, set()),
    "isolation": ({"cycles", "graphs"}, set()),
    "family": ({"cycles", "graphs"}, set()),
    "constructive": ({"cycles", "family", "graphs", "isolation"}, set()),
    "survey": ({"graphs", "isolation"}, {"family"}),
    "cli": ({"constructive", "family", "graphs", "isolation", "survey"}, set()),
    "__init__": ({"constructive", "cycles", "family", "graphs", "isolation", "survey"}, set()),
}


def _package_imports(path: Path) -> tuple[set[str], set[str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    every = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module, f"{path.name}: {ast.dump(node)}"
            every.add(node.module)
    return top, every - top


def test_every_module_is_pinned():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_only_its_layers(name):
    assert _package_imports(PACKAGE / f"{name}.py") == LAYERS[name]
