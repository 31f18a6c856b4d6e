"""Small-graph enumeration and bound surveys.

The enumerator yields one representative per isomorphism class of connected
graphs on up to eight vertices, built by vertex augmentation (every
connected graph has a non-cut vertex, so attaching a new vertex to every
non-empty neighbourhood subset of every (n-1)-representative reaches every
class) with canonical-form deduplication.  Canonical forms come from
iterated colour refinement plus individualisation with prefix pruning;
full permutation search only ever happens inside refinement-stable cells.

A survey evaluates iota(G, C_k) against a rational bound (a*n + b*m + c)/d
for every graph of a stream, classifies each record as below / equal /
violation / excluded, and aggregates violations and equality cases.
Violations never abort a run: a counterexample to the open conjecture
would be the most valuable possible output.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .constructive import classify_component
from .graphs import (
    Graph,
    GraphFormatError,
    bits,
    encode_graph6,
    is_connected,
    parse_graph6,
)
from .isolation import BudgetExceededError, iota_exact

ENUMERATION_MAX_N = 8

#: connected graphs per isomorphism class, order 1..8 (validated in tests)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


# -- canonical forms -----------------------------------------------------------


def _refine(adj: Sequence[int], n: int, colors: list) -> list[int]:
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in bits(adj[v]))))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[sigs[v]] for v in range(n)]
        if new == colors:
            return new
        colors = new


def _cells(colors: list[int], n: int) -> list[list[int]]:
    out: dict[int, list[int]] = {}
    for v in range(n):
        out.setdefault(colors[v], []).append(v)
    return [out[c] for c in sorted(out)]


def _encode(adj: Sequence[int], order: Sequence[int]) -> int:
    # first pair lands in the most significant bit, so integer order equals
    # lexicographic order over the pair sequence and prefixes are decisive
    code = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            code = (code << 1) | (row >> order[i] & 1)
    return code


def canonical_code(g: Graph) -> int:
    """Canonical adjacency encoding: equal codes <=> isomorphic graphs."""
    n = g.n
    if n <= 1:
        return 0
    nbits = n * (n - 1) // 2
    if g.m == 0:
        return 0
    if g.m == nbits:
        return (1 << nbits) - 1
    adj = g.adj
    best: Optional[int] = None

    def search(colors: list[int]) -> None:
        nonlocal best
        cells = _cells(colors, n)
        placed: list[int] = []
        for cell in cells:
            if len(cell) > 1:
                break
            placed.append(cell[0])
        r = len(placed)
        partial = _encode(adj, placed)
        if best is not None:
            bp = best >> (nbits - r * (r - 1) // 2)
            if partial > bp:
                return
            if partial < bp:
                best = None
        if r == n:
            if best is None or partial < best:
                best = partial
            return
        target = next(cell for cell in cells if len(cell) > 1)
        for x in target:
            split = [(colors[v], 0 if v == x else 1) for v in range(n)]
            palette = {s: i for i, s in enumerate(sorted(set(split)))}
            search(_refine(adj, n, [palette[s] for s in split]))

    search(_refine(adj, n, [0] * n))
    assert best is not None
    return best


def graph_from_code(n: int, code: int) -> Graph:
    adj = [0] * n
    nbits = n * (n - 1) // 2
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if code >> (nbits - 1 - idx) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, adj)


@lru_cache(maxsize=None)
def _connected_codes(n: int) -> tuple[int, ...]:
    if n == 1:
        return (0,)
    codes = set()
    for parent_code in _connected_codes(n - 1):
        parent = graph_from_code(n - 1, parent_code)
        base = list(parent.adj) + [0]
        for hood in range(1, 1 << (n - 1)):
            adj = list(base)
            adj[n - 1] = hood
            for u in bits(hood):
                adj[u] |= 1 << (n - 1)
            codes.add(canonical_code(Graph(n, adj)))
    return tuple(sorted(codes))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of connected graphs."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(
            f"built-in enumeration supports 1 <= n <= {ENUMERATION_MAX_N}; "
            "ingest larger graphs from a graph6 stream"
        )
    for code in _connected_codes(n):
        yield graph_from_code(n, code)


# -- graph6 ingestion ----------------------------------------------------------


@dataclass(frozen=True)
class IngestFailure:
    line_no: int
    line: str
    error: str


def ingest_graph6(
    source: Union[str, bytes, TextIO, Iterable[str]],
    skip_errors: bool = False,
    failures: Optional[list[IngestFailure]] = None,
) -> Iterator[Graph]:
    """Parse newline-separated graph6 records, tracking line numbers.

    With skip_errors a malformed line is recorded (when a failures list is
    supplied) and skipped; otherwise it aborts with the line number.
    """
    if isinstance(source, bytes):
        lines: Iterable[str] = source.decode("ascii", "replace").splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except GraphFormatError as exc:
            if not skip_errors:
                raise GraphFormatError(f"line {line_no}: {exc}") from None
            if failures is not None:
                failures.append(IngestFailure(line_no, line, str(exc)))


# -- bound specification and records ------------------------------------------


@dataclass(frozen=True)
class BoundSpec:
    """Rational bound (a*n + b*m + c)/d on iota(G, C_k), with exempt graphs."""

    k: int
    a: int = 0
    b: int = 1
    c: int = 1
    d: int = 6
    exclusions: tuple[str, ...] = ()

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("cycle length must be at least 3")
        if self.d < 1:
            raise ValueError("bound denominator must be at least 1")
        for text in self.exclusions:
            parse_graph6(text)

    def bound_for(self, n: int, m: int) -> Fraction:
        return Fraction(self.a * n + self.b * m + self.c, self.d)

    def describe(self) -> str:
        terms = []
        if self.a:
            terms.append(f"{self.a}*n")
        if self.b:
            terms.append(f"{self.b}*m")
        if self.c:
            terms.append(str(self.c))
        return f"({' + '.join(terms) or '0'})/{self.d}"

    def exclusion_keys(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (g.n, canonical_code(g)) for g in map(parse_graph6, self.exclusions)
        )


def conjecture_bound(k: int) -> BoundSpec:
    """The (m+1)/(k+2) bound instance for cycle length k."""
    return BoundSpec(k=k, a=0, b=1, c=1, d=k + 2)


@dataclass(frozen=True)
class SurveyRecord:
    graph6: str
    n: int
    m: int
    k: int
    iota: Optional[int]
    bound: Fraction
    status: str  # below | equal | violation | excluded | budget_exhausted
    extremal_class: Optional[str] = None

    CSV_HEADER = "graph6,n,m,k,iota,bound_num,bound_den,status,extremal_class"

    def csv_row(self) -> str:
        iota = "" if self.iota is None else str(self.iota)
        cls = self.extremal_class or ""
        return (
            f"{self.graph6},{self.n},{self.m},{self.k},{iota},"
            f"{self.bound.numerator},{self.bound.denominator},{self.status},{cls}"
        )

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "iota": self.iota,
            "bound": [self.bound.numerator, self.bound.denominator],
            "status": self.status,
            "extremal_class": self.extremal_class,
        }


@dataclass
class SurveyReport:
    spec: BoundSpec
    records: list[SurveyRecord] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def violations(self) -> list[SurveyRecord]:
        return [r for r in self.records if r.status == "violation"]

    @property
    def equalities(self) -> list[SurveyRecord]:
        return [r for r in self.records if r.status == "equal"]

    @property
    def budget_failures(self) -> list[SurveyRecord]:
        return [r for r in self.records if r.status == "budget_exhausted"]

    def histogram_by_n(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.records:
            out[r.n] = out.get(r.n, 0) + 1
        return out

    def totals(self) -> dict:
        statuses: dict[str, int] = {}
        for r in self.records:
            statuses[r.status] = statuses.get(r.status, 0) + 1
        return {
            "records": len(self.records),
            "by_status": dict(sorted(statuses.items())),
            "by_n": {str(k): v for k, v in sorted(self.histogram_by_n().items())},
        }

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "spec": {
                "k": self.spec.k,
                "bound": self.spec.describe(),
                "coefficients": {
                    "a": self.spec.a,
                    "b": self.spec.b,
                    "c": self.spec.c,
                    "d": self.spec.d,
                },
                "exclusions": list(self.spec.exclusions),
            },
            "totals": self.totals(),
            "violations": [r.to_dict() for r in self.violations],
            "equalities": [r.to_dict() for r in self.equalities],
        }
        if include_timing:
            out["metadata"] = {"wall_time_s": self.wall_time_s}
        return out

    def to_csv(self) -> str:
        lines = [SurveyRecord.CSV_HEADER]
        lines.extend(r.csv_row() for r in self.records)
        return "\n".join(lines) + "\n"


def _is_plain_cycle(g: Graph, k: int) -> bool:
    return g.n == k and is_connected(g) and all(d == 2 for d in g.degrees())


def _extremal_tag(g: Graph, k: int) -> Optional[str]:
    if not is_connected(g):
        return None
    if k == 4:
        cls = classify_component(g)
        if cls.tag in ("diamond", "extremal"):
            return cls.tag
        return None
    from .family import recognize

    return "extremal" if recognize(g, k) is not None else None


def check_graph(
    g: Graph,
    spec: BoundSpec,
    node_budget: Optional[int] = None,
    exclusion_keys: Optional[frozenset] = None,
) -> SurveyRecord:
    """Single-graph version of the survey pipeline."""
    g6 = encode_graph6(g)
    n, m, k = g.n, g.m, spec.k
    bound = spec.bound_for(n, m)
    if exclusion_keys is None:
        exclusion_keys = spec.exclusion_keys()
    if _is_plain_cycle(g, k) or (exclusion_keys and (n, canonical_code(g)) in exclusion_keys):
        return SurveyRecord(g6, n, m, k, None, bound, "excluded")
    try:
        iota = iota_exact(g, k, node_budget).iota
    except BudgetExceededError:
        return SurveyRecord(g6, n, m, k, None, bound, "budget_exhausted")
    if iota > bound:
        status = "violation"
    elif iota == bound:
        status = "equal"
    else:
        status = "below"
    tag = _extremal_tag(g, k) if status == "equal" else None
    return SurveyRecord(g6, n, m, k, iota, bound, status, tag)


def _worker(args) -> list[SurveyRecord]:
    # graphs travel as graph6 text: Graph refuses attribute assignment, so it cannot be pickled
    chunk, spec, node_budget, keys = args
    return [check_graph(parse_graph6(g6), spec, node_budget, keys) for g6 in chunk]


def survey(
    graphs: Iterable[Graph],
    spec: BoundSpec,
    workers: int = 1,
    node_budget: Optional[int] = None,
) -> SurveyReport:
    """Evaluate the bound for every graph of the stream.

    Records keep the input order regardless of worker count, so parallel
    and sequential runs produce identical reports.
    """
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    started = time.perf_counter()
    keys = spec.exclusion_keys()
    graphs = list(graphs)
    if workers == 1 or len(graphs) < 2 * workers:
        records = [check_graph(g, spec, node_budget, keys) for g in graphs]
    else:
        items = [encode_graph6(g) for g in graphs]
        records = [None] * len(items)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _worker, [(items[i::workers], spec, node_budget, keys) for i in range(workers)]
            )
            for i, part in enumerate(parts):
                records[i::workers] = part
    report = SurveyReport(spec=spec, records=records)
    report.wall_time_s = time.perf_counter() - started
    return report
