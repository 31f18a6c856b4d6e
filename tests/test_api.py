"""The top-level public surface: the names `cycleiso` exports, and README's
"Library sketch" block run as written with its commented values checked."""

from __future__ import annotations

import re
from pathlib import Path

import cycleiso

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "BoundSpec",
    "BudgetExceededError",
    "CaseTrace",
    "ConsDecomposition",
    "ExactResult",
    "Graph",
    "GraphFormatError",
    "IsolationCertificate",
    "SurveyRecord",
    "SurveyReport",
    "TraceStep",
    "Tree",
    "all_cycles",
    "bound_value",
    "boundary_edge_count",
    "build",
    "check_gluing_hypothesis",
    "check_graph",
    "closed_neighborhood",
    "conjecture_bound",
    "construct",
    "encode_graph6",
    "enumerate_connected",
    "enumerate_trees",
    "from_edge_list",
    "ingest_graph6",
    "iota_exact",
    "parse_edge_list",
    "parse_graph6",
    "recognize",
    "survey",
    "verify",
]


def test_public_names_are_pinned():
    # a change to the exported names is deliberate: it edits this list too
    assert PUBLIC == sorted(PUBLIC)
    assert cycleiso.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(cycleiso, name) is not None


def test_readme_library_sketch_runs_as_commented():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S).group(1)
    ns: dict = {}
    exec(block, ns)
    g, d, big = ns["g"], ns["d"], ns["big"]
    assert ns["iota_exact"](g, 4).iota == 1
    assert ns["verify"](g, d, 4).residual == (0b1110,)
    assert (big.n, big.m) == (25, 29)
    assert ns["iota_exact"](big, 4, node_budget=10**7).iota == 5
