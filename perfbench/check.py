"""Correctness gate for one pass.

Checks that hold for any seed use only the benchmark's own graph6 decoder
and the input's metadata, never the program's algorithms.  At the default
seed the pass output is also pinned (golden.json, taken at the commit that
added this benchmark): the sha256 of CLI stdout for the survey workloads,
whose exit code must be 0, and the sha256 of every set and case trace for
construct-mix.

Each failing record counts once; so does each whole-output failure (exit
code, record count, digest, equality set).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from workloads import CONNECTED_COUNTS, DEFAULT_SEED, HERE, WORKLOADS

CSV_HEADER = "graph6,n,m,k,iota,bound_num,bound_den,status,extremal_class"


def decode_graph6(text: str) -> list[int]:
    """Adjacency bitmasks of a single-byte-header graph6 record."""
    n = ord(text[0]) - 63
    adj = [0] * n
    stream = [(ord(c) - 63) >> (5 - b) & 1 for c in text[1:] for b in range(6)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if stream[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return adj


def _has_c4(adj: list[int]) -> bool:
    return any(
        (adj[u] & adj[v] & ~(1 << u | 1 << v)).bit_count() >= 2
        for u, v in combinations(range(len(adj)), 2)
    )


def pinned(workload: str, seed: int, quick: bool) -> str | None:
    """Pinned output sha256 for the default seed; the exhaustive survey ignores seeds."""
    if seed != DEFAULT_SEED and WORKLOADS[workload]["kind"] != "enumerate":
        return None
    pins = json.loads((HERE / "golden.json").read_text())
    return pins.get(("quick:" if quick else "") + workload)


def check_survey(
    csv_text: str, rc: int, inputs: list[str] | None, meta: dict | None, order: int | None
) -> tuple[int, int, list[str]]:
    """(records, failed, messages) for one survey pass.

    inputs/meta describe an ingested stream; order is the --enumerate order.
    """
    failures: list[str] = []
    if rc != 0:
        failures.append(f"exit code {rc}, expected 0")
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        failures.append("missing CSV header")
        return 0, len(failures), failures
    rows = [line.split(",") for line in lines[1:]]
    bad = 0
    for row in rows:
        ok = len(row) == 9
        if ok:
            g6, n, m, k, iota, num, den, status, _ = row
            adj = decode_graph6(g6)
            bound = Fraction(int(num), int(den))
            ok = (
                int(n) == len(adj)
                and int(m) == sum(a.bit_count() for a in adj) // 2
                and bound == Fraction(int(m) + 1, int(k) + 2)
            )
            if status in ("below", "equal"):
                value = int(iota)
                ok = ok and (value < bound if status == "below" else value == bound)
            elif status != "excluded":
                ok = False  # violation or budget_exhausted
        bad += not ok
    rows = [row for row in rows if len(row) == 9]
    if order is not None:
        failures += _check_exhaustive(rows, order)
    else:
        failures += _check_ingest(rows, inputs, meta)
    failed = bad + len(failures)
    if bad:
        failures.append(f"{bad} records invalid, over the bound or out of budget")
    return len(rows), failed, failures


def _check_exhaustive(rows: list[list[str]], order: int) -> list[str]:
    failures = []
    per_order = [0] * order
    for row in rows:
        per_order[int(row[1]) - 1] += 1
    if tuple(per_order) != CONNECTED_COUNTS[:order]:
        failures.append(f"per-order counts {per_order} != {list(CONNECTED_COUNTS[:order])}")
    if len({row[0] for row in rows}) != len(rows):
        failures.append("duplicate graph6 records")
    shapes = {}
    for row in rows:
        if row[7] in ("equal", "excluded"):
            adj = decode_graph6(row[0])
            key = (row[7], row[8], tuple(sorted(a.bit_count() for a in adj)), _has_c4(adj))
            shapes[key] = shapes.get(key, 0) + 1
    want = {
        ("equal", "diamond", (2, 2, 3, 3), True): 1,
        ("equal", "extremal", (1, 2, 2, 2, 3), True): 1,
        ("excluded", "", (2, 2, 2, 2), True): 1,
    }
    if shapes != want:
        failures.append(f"equality/exclusion set {shapes} is not diamond + C4-with-pendant + C4")
    return failures


def _check_ingest(rows: list[list[str]], inputs: list[str], meta: dict) -> list[str]:
    failures = []
    if len(rows) != len(inputs):
        return [f"{len(rows)} records for {len(inputs)} inputs"]
    moved = sum(row[0] != g6 for row, g6 in zip(rows, inputs))
    if moved:
        failures.append(f"{moved} records do not match their input line")
    bad = sum(
        rows[i][7] != "equal" or rows[i][8] != "extremal" or rows[i][4] != str(t)
        for i, t in meta["cons"]
    )
    if bad:
        failures.append(f"{bad} cons(T,k) members miss equality with tag extremal")
    excluded = [i for i, row in enumerate(rows) if row[7] == "excluded"]
    want = [] if meta["excluded"] is None else [meta["excluded"]]
    if excluded != want:
        failures.append(f"excluded records {excluded}, expected {want}")
    return failures
