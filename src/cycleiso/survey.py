"""Small-graph enumeration and bound surveys.

Canonical forms come from individualisation-refinement: iterated colour
refinement, then a search that individualises each vertex of the first
non-singleton cell in turn and refines again.  Each leaf is a vertex order,
and the canonical code is the least adjacency code over the leaves; a branch
whose placed prefix already encodes above the best code is cut.  The search
also collects automorphisms: two leaves with equal codes give the
automorphism that maps the one vertex order onto the other.  A child of a
search node whose path individualised x1..xr is skipped when it lies in the
orbit of an already tried child under the found generators that fix
x1..xr pointwise (McKay-Piperno, "Practical graph isomorphism II", 2014).
An element of that group fixes x1..xr, and refinement commutes with
automorphisms, so it maps the node to itself and the tried child's subtree
onto the skipped one, leaf codes included: the least code is unchanged.
The generators found this way generate the whole automorphism group.
Empty and complete graphs skip the search: every order gives them the same
code, and their group is the symmetric group.

The enumerator yields one representative per isomorphism class of connected
graphs on up to eight vertices, built by vertex augmentation with
canonical-form deduplication.  A child of an (n-1)-representative P gets a
new vertex n-1 attached to a non-empty neighbourhood subset of P, and it is
canonicalised only if the new vertex is a least deletion: it minimises the
key (degree, sorted degrees of its neighbours) over the child's non-cut
vertices (McKay's canonical construction path, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  The filter loses no class.  Every
connected graph G has a non-cut vertex v of least key; G - v is connected,
so its class has a representative P; and the neighbourhood subset of P
that matches N(v) under an isomorphism G - v -> P gives a child isomorphic
to G whose new vertex plays v, so it has the least key and passes.  Only
one subset per orbit of Aut(P) on the subsets is tried.  An automorphism of
P that maps subset S to S' extends, fixing the new vertex, to an
isomorphism between the two children that maps new vertex to new vertex, so
the children share their class and their least-deletion verdict.

A survey evaluates iota(G, C_k) against a rational bound (a*n + b*m + c)/d
for every graph of a stream, classifies each record as below / equal /
violation / excluded, and aggregates violations and equality cases.
Violations never abort a run: a counterexample to the open conjecture
would be the most valuable possible output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .graphs import (
    Graph,
    GraphFormatError,
    adjacency_from_code,
    bits,
    encode_graph6,
    is_connected,
    parse_graph6,
    reach,
)
from .isolation import BudgetExceededError, iota_exact

ENUMERATION_MAX_N = 8
ENUMERATION_RANGE_ERROR = (
    f"built-in enumeration supports 1 <= n <= {ENUMERATION_MAX_N}; "
    "ingest larger graphs from a graph6 stream"
)

#: connected graphs per isomorphism class, order 1..8 (validated in tests)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


# -- canonical forms -----------------------------------------------------------


def _refine(nbrs: Sequence[tuple[int, ...]], colors: list) -> list[int]:
    while True:
        sigs = [(c, tuple(sorted([colors[u] for u in row]))) for c, row in zip(colors, nbrs)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _cells(colors: list[int], n: int) -> list[list[int]]:
    out: dict[int, list[int]] = {}
    for v in range(n):
        out.setdefault(colors[v], []).append(v)
    return [out[c] for c in sorted(out)]


def _encode(adj: Sequence[int], order: Sequence[int]) -> int:
    # graphs.encode_graph6's pair order under any vertex order, first pair in the
    # most significant bit: integer order is lexicographic and prefixes decisive
    code = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            code = (code << 1) | (row >> order[i] & 1)
    return code


def _orbit_ids(n: int, perms: Iterable[Sequence[int]]) -> list[int]:
    """Least vertex of each vertex's orbit under the group the perms generate."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for p in perms:
        for v in range(n):
            a, b = find(v), find(p[v])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def _symmetric_generators(n: int) -> list[tuple[int, ...]]:
    """A transposition and an n-cycle, which generate the symmetric group."""
    if n < 2:
        return []
    gens = [(1, 0) + tuple(range(2, n))]
    if n > 2:
        gens.append(tuple(range(1, n)) + (0,))
    return gens


def _canonical_search(n: int, adj: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical code of the graph (n, adj) and a generating set of its
    automorphism group (see the module docstring)."""
    nbits = n * (n - 1) // 2
    m = sum(row.bit_count() for row in adj) // 2
    if m == 0 or m == nbits:
        # empty or complete: every vertex order gives the same code
        return (1 << m) - 1, _symmetric_generators(n)
    nbrs = [tuple(bits(row)) for row in adj]
    # no leaf yet: a code of nbits + 1 bits is above every leaf and every prefix
    unset = 1 << nbits
    best = unset
    best_leaf: list[int] = []
    gens: list[tuple[int, ...]] = []
    fixed: list[int] = []  # fixed[i]: mask of the points gens[i] fixes

    def search(colors: list[int], path: int) -> None:
        nonlocal best, best_leaf
        cells = _cells(colors, n)
        placed: list[int] = []
        for cell in cells:
            if len(cell) > 1:
                break
            placed.append(cell[0])
        r = len(placed)
        partial = _encode(adj, placed)
        bp = best >> (nbits - r * (r - 1) // 2)
        if partial > bp:
            return
        if partial < bp:
            best = unset
        if r == n:
            if partial < best:
                best, best_leaf = partial, placed
                return
            # equal codes: best_leaf[i] -> placed[i] preserves adjacency
            perm = [0] * n
            for u, v in zip(best_leaf, placed):
                perm[u] = v
            gens.append(tuple(perm))
            fixed.append(sum(1 << v for v in range(n) if perm[v] == v))
            return
        target = cells[r]
        c = colors[target[0]]
        tried: list[int] = []
        orbit = list(range(n))
        known = 0
        for x in target:
            if tried:
                if known < len(gens):
                    known = len(gens)
                    stabiliser = [p for p, f in zip(gens, fixed) if not path & ~f]
                    if stabiliser:
                        orbit = _orbit_ids(n, stabiliser)
                if orbit[x] in {orbit[t] for t in tried}:
                    continue
            tried.append(x)
            # individualise x: it takes colour c, the rest of its cell and
            # every later cell move up by one
            child = [col + (col > c or (col == c and v != x)) for v, col in enumerate(colors)]
            search(_refine(nbrs, child), path | 1 << x)

    search(_refine(nbrs, [0] * n), 0)
    return best, gens


def canonical_code(g: Graph) -> int:
    """Canonical adjacency encoding: equal codes <=> isomorphic graphs."""
    return _canonical_search(g.n, g.adj)[0]


def graph_from_code(n: int, code: int) -> Graph:
    return Graph(n, adjacency_from_code(n, code))


def _is_least_deletion(adj: Sequence[int]) -> bool:
    """Whether no non-cut vertex has a smaller (degree, sorted neighbour
    degrees) key than the last vertex, itself a non-cut vertex."""
    deg = [row.bit_count() for row in adj]
    last = len(adj) - 1
    full = (1 << len(adj)) - 1

    def key(v: int) -> tuple:
        return deg[v], sorted(deg[u] for u in bits(adj[v]))

    least = key(last)
    return not any(
        deg[v] <= deg[last]
        and key(v) < least
        and reach(adj, 1 << last, full & ~(1 << v)) == full & ~(1 << v)
        for v in range(last)
    )


def _mask_orbit_representatives(n: int, gens: Sequence[Sequence[int]]) -> Iterable[int]:
    """Least mask of each orbit of the group generated by gens on 1..2^n - 1."""
    if not gens:
        return range(1, 1 << n)
    images = []
    for p in gens:
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << p[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(1 << n)
    reps = []
    for mask in range(1, 1 << n):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            h = stack.pop()
            for image in images:
                if not seen[image[h]]:
                    seen[image[h]] = 1
                    stack.append(image[h])
    return reps


@lru_cache(maxsize=None)
def _connected_codes(n: int) -> tuple[int, ...]:
    if n == 1:
        return (0,)
    codes = set()
    new = 1 << (n - 1)
    for parent_code in _connected_codes(n - 1):
        base = adjacency_from_code(n - 1, parent_code)
        _, gens = _canonical_search(n - 1, base)
        for hood in _mask_orbit_representatives(n - 1, gens):
            adj = [row | new if hood >> u & 1 else row for u, row in enumerate(base)]
            adj.append(hood)
            if _is_least_deletion(adj):
                codes.add(canonical_code(Graph(n, adj)))
    return tuple(sorted(codes))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of connected graphs."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(ENUMERATION_RANGE_ERROR)
    for code in _connected_codes(n):
        yield graph_from_code(n, code)


# -- graph6 ingestion ----------------------------------------------------------


@dataclass(frozen=True)
class IngestFailure:
    line_no: int
    line: str
    error: str


def ingest_graph6(
    source: Union[str, TextIO, Iterable[str]],
    failures: Optional[list[IngestFailure]] = None,
) -> Iterator[Graph]:
    """Parse newline-separated graph6 records, tracking line numbers.

    With a failures list a malformed line is recorded there and skipped;
    without one it aborts with the line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except GraphFormatError as exc:
            if failures is None:
                raise GraphFormatError(f"line {line_no}: {exc}") from None
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
    #: canonical codes of the exclusions by (order, size)
    _codes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("cycle length must be at least 3")
        if self.d < 1:
            raise ValueError("bound denominator must be at least 1")
        object.__setattr__(self, "_codes", {})
        for g in map(parse_graph6, self.exclusions):
            self._codes.setdefault((g.n, g.m), set()).add(canonical_code(g))

    def excludes(self, g: Graph) -> bool:
        """Plain k-cycle, or isomorphic to an exclusion.

        Isomorphic graphs share order and size, so only a graph with the
        order and size of some exclusion is canonicalised.
        """
        if g.n == self.k and is_connected(g) and all(d == 2 for d in g.degrees()):
            return True
        codes = self._codes.get((g.n, g.m))
        return codes is not None and canonical_code(g) in codes

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

    def to_json_dict(self) -> dict:
        return {
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

    def to_csv(self) -> str:
        lines = [SurveyRecord.CSV_HEADER]
        lines.extend(r.csv_row() for r in self.records)
        return "\n".join(lines) + "\n"


def _extremal_tag(g: Graph, k: int) -> Optional[str]:
    """Diamond (the only graph with n = 4, m = 5) at k = 4, else cons(T, C_k) membership."""
    if k == 4 and (g.n, g.m) == (4, 5):
        return "diamond"
    # imported here so each call reads the family module's attribute, which
    # perfbench's tracer replaces to count recognize calls
    from .family import recognize

    return "extremal" if recognize(g, k) is not None else None


def check_graph(g: Graph, spec: BoundSpec, node_budget: Optional[int] = None) -> SurveyRecord:
    """Single-graph version of the survey pipeline."""
    g6 = encode_graph6(g)
    n, m, k = g.n, g.m, spec.k
    bound = spec.bound_for(n, m)
    if spec.excludes(g):
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


def survey(
    graphs: Iterable[Graph], spec: BoundSpec, node_budget: Optional[int] = None
) -> SurveyReport:
    """Evaluate the bound for every graph of the stream, in input order."""
    return SurveyReport(spec=spec, records=[check_graph(g, spec, node_budget) for g in graphs])
