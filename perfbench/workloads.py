"""Workload definitions shared by run.py, the input generator and the pass runner.

Every workload is single-process (the survey runs with workers=1).  Sizes
are per pass; a run repeats passes, each in a fresh interpreter, until its
measuring time is used up.  The quick sizes drive the same code path and
the same correctness gate on a reduced input.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 1

#: per-graph solver node budget for the ingest workloads: about ten times the
#: worst case of their inputs (4,909 nodes for cons(T,4) with t=6, 1,886 for
#: cons(T,5) with t=5; random and hung graphs took at most 947 (k=4) and
#: 1,228 (k=5) over seeds 1-20)
NODE_BUDGET = 50_000

#: connected graphs per isomorphism class on 1..8 vertices (OEIS A001349)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)

WORKLOADS = {
    # the headline exhaustive command: enumeration and canonical forms dominate
    # (a traced run measures the tracing overhead on an order-7 pair)
    "exhaustive8": {"kind": "enumerate", "k": 4, "order": 8, "probe_order": 7, "quick_order": 6},
    # ingested stream at k=4 with an exclusion list: the C4 fast path of the
    # exact solver and canonical_code on large symmetric graphs dominate
    "ingest-c4": {
        "kind": "ingest", "k": 4, "n_range": (9, 30), "t_range": (2, 6),
        "random": 110, "hung": 110, "quick": {"random": 12, "hung": 12, "t_max": 4},
    },
    # ingested stream at k=5, no exclusions: the generic backtracking cycle
    # search inside the exact solver dominates; canonical forms never run
    "ingest-c5": {
        "kind": "ingest", "k": 5, "n_range": (9, 30), "t_range": (2, 5),
        "random": 450, "hung": 450, "quick": {"random": 12, "hung": 12, "t_max": 4},
    },
    # construct() then verify() per graph: the constructive recursion
    "construct-mix": {
        "kind": "construct", "k": 4, "n_range": (10, 28),
        "graphs": 4000, "quick": {"graphs": 150},
    },
}

#: percentile levels tried for a latency tail, highest first
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_level(n: int) -> float:
    """The highest of TAIL_LEVELS with at least ten of n samples beyond it."""
    return next((q for q in TAIL_LEVELS if n * (1 - q / 100) >= 10), 50.0)


def work_dir(workload: str, seed: int, quick: bool) -> Path:
    tag = "quick" if quick else "full"
    return WORK / f"{workload}-{tag}-s{seed}-p{os.getpid()}"


def child_env() -> dict:
    """Environment for every child: the checkout's sources, one survey worker."""
    env = dict(os.environ)
    env.pop("CYCLEISO_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env
