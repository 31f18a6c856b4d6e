"""Small-graph enumeration and bound surveys.

Canonical forms come from individualisation-refinement: iterated colour
refinement, then a search that individualises each vertex of the first
non-singleton cell in turn and refines again.  Each leaf is a vertex order,
and the canonical code is the least adjacency code over the leaves; a branch
whose placed prefix already encodes above the best code is cut.  The search
also collects automorphisms: two leaves with equal codes give the
automorphism that maps the one vertex order onto the other.  A child of a
search node whose path individualised x1..xr is skipped when it lies in the
orbit of an already tried child under the known generators that fix
x1..xr pointwise (McKay-Piperno, "Practical graph isomorphism II", 2014).
An element of that group fixes x1..xr, and refinement commutes with
automorphisms, so it maps the node to itself and the tried child's subtree
onto the skipped one, leaf codes included: the least code is unchanged.
The generators found this way generate the whole automorphism group.
Every graph takes the same path through the search, empty and complete
graphs included.  A union-find forest, `_merge_orbits`, gives the vertex
orbits at a search node; the node keeps its forest and merges only the
generators found since it last looked.

Twins are seeded as known automorphisms once the root branches.  Two
vertices u and v with equal open rows (adj[u] == adj[v]) or equal closed
rows (adj[u] | 1 << u == adj[v] | 1 << v) are twins, and the transposition
(u v) is an automorphism: an edge uw with w != v maps to vw, an edge since
w lies in both rows, and every edge meeting neither u nor v, and uv itself,
maps to itself.  Refinement commutes with automorphisms, so twins share a
cell of the root partition, and only those cells are scanned; each class
of twins there gives one transposition per consecutive pair.  The orbit
test above uses nothing of a generator but that it is an automorphism
fixing the node's path pointwise, however it was found, so the seeded
transpositions join the generators, with their fixed points, and the orbit
test and the jump back below use them unchanged.  Every child they let the
search skip is the image of a tried child under an element of the group
the generators generate, as for found generators, so seeded and found
generators together still generate the whole automorphism group (checked
against a brute-force count on every connected graph of order <= 7).  On
pendant leaves and twin-rich graphs this cuts most of the search: K_{1,t}
took t refinements instead of t(t+1)/2, and takes one now that settled
nodes are read off, as follows.

A search node is settled when every cell of two or more vertices of its
refined partition is a class of twins, all with equal open rows or all with
equal closed rows.  The search tests that each vertex of such a cell is an
open or a closed twin of the cell's first vertex, which suffices, as no
vertex u has both an open twin v and a closed twin w: w is a neighbour of
u, so of v, so v lies in N[w] = N[u], but an open twin is no neighbour.  A
settled partition is equitable, and stays so when a vertex x of a twin cell
C is individualised: a vertex w outside C is adjacent to all of C or to
none of it, so it has as many neighbours in {x}, and in C - x, as every
other vertex of its cell, and the vertices of C - x are all adjacent to x
(closed twins) or none is (open twins).  So refinement splits nothing below
a settled node, and the subtree of its first child is one path that places
each cell's vertices in cell order: its one leaf reads the cells in order.
The search tries no other child there.  Two twins share a cell at every
node until one of them is individualised, as their transposition fixes the
node's path and refinement commutes with it.  A node tries the first member
of a class left in its cell before the others, and the rest are in its
orbit under the seeded swaps of consecutive members, which fix the path.
So the members a path has individualised are a prefix of the class, the
members left fill the cell, and the swaps between them skip every later
child.  The search therefore reads a settled node's leaf off its partition
without refining again, and handles it as any other leaf, so codes and
generators come out as before.  At a settled root no automorphism moves a
vertex out of its cell, as refinement commutes with automorphisms, and
every permutation of a class of twins is one, so Aut(G) is the product of
the symmetric groups of the twin classes, which the twin swaps generate.  A
settled root never branches, so it seeds no swaps; _canonical_search adds
them afterwards when the generators are wanted, and canonical_code, which
discards the generators, never builds them.  4,235 of the order-<=8
enumerator's 13,854 searches have a discrete root and 6,163 more a settled
one, and its refinements fall from 36,206 to 22,148.

When a leaf repeats the best code, the search jumps back to the node where
the leaf's path leaves the best leaf's path: the first position where the
two vertex orders differ is the number of vertices that node has placed.
The new automorphism maps the best leaf's order onto the leaf's, so it
fixes every vertex placed before that position, the node's path included,
and maps the node's child on the best leaf's path onto its child on the
leaf's path, subtree onto subtree, leaf codes included.  The first subtree
has been searched, up to cuts that each drop only leaves above the best
code or images of leaves already compared, so every leaf left in the
second one is the image of a leaf already compared: abandoning it loses no
code.  The node goes on with its next child, and the orbit test there now
knows the new generator (McKay-Piperno 2014, as nauty does).  Without
seeding, this cut the generators of K_30 from 435, one per pair of
vertices, to 29; every two vertices of K_30 are closed twins, so those 29,
one per consecutive pair, now come from seeding and the search adds none.
Each node extends its parent's partial code by the rows of the vertices
it places, so no prefix is encoded twice.

Refinement works on the ordered partition, a vertex's colour being the
index of its cell.  A round ranks every vertex by (colour, sorted neighbour
colours).  The colour is the primary key, so this global sort keeps the
cells in order and splits each cell in place by its own signatures: a
round ranks signatures only inside cells of two or more vertices (a
singleton cannot split), and a discrete partition ends refinement at once.
Refinement stops at an equitable partition, where the vertices of a cell
have equally many neighbours in each cell: the first round that splits no
cell finds it.  Individualising x there splits its cell into {x} and the
rest, which changes the neighbour counts only of the neighbours of x, so
the first round after it examines only the cells that meet N(x).

The round from the unit partition sorts tuples of zeros, that is, splits
by degree, and every later cell lies inside one of its cells, so it holds
vertices of a single degree d.  For such vertices the sorted neighbour
colours compare as the base-n number W(v) = sum over neighbours u of
n^(c-1-colour(u)), c the number of cells, compares in reverse.  Digit i of
W(v) counts the neighbours of colour i, at most n - 1, so no digit carries.
Of two sorted tuples of length d, the one smaller at the first position
where they differ has more neighbours of that colour and equally many of
every smaller colour, so its W is the larger.  So a round orders a cell by
W, largest first, a sum over a weight table with no sort per vertex.  A
cell of two vertices, the commonest cell that can split, needs only its
two sums compared, and a cell whose sums all agree keeps its order.

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

Most subsets fail the least-deletion test on degree alone, so they are
never walked.  Let d0 be the least degree of a non-cut vertex of P, and L
the non-cut vertices of degree d0.  A non-cut vertex v of P stays non-cut
in the child of subset H: the child minus v is the connected P - v plus
the new vertex, joined to H - v (if H = {v}, then |H| = 1 and the rule
below never fires).  Its child degree is deg_P(v) + [v in H], and the new
vertex's is |H|, so the new vertex loses to v on degree, and the test
rejects H, when |H| > d0 + 1, or when |H| = d0 + 1 and some vertex of L
lies outside H.  The enumerator lists only the admitted subsets, those of
at most d0 vertices and those of d0 + 1 that hold L, and takes the least
subset of each orbit among them.  An automorphism of P keeps degrees and
cut vertices, so it maps L onto L, and the admitted subsets are a union of
orbits: a subset that no earlier orbit reached is the least of its own,
and applying the generators to the subsets of its orbit found so far
reaches the rest.  So the generators act on admitted subsets only, and
the representatives are those a walk over every subset would keep.

A survey evaluates iota(G, C_k) against a rational bound (a*n + b*m + c)/d
for every graph of a stream, classifies each record as below / equal /
violation / excluded, and aggregates violations and equality cases.
Violations never abort a run: a counterexample to the --conjecture preset
(m+1)/(k+2) is the most valuable possible output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import AbstractSet, Collection, Iterable, Iterator, Optional, Sequence, TextIO, Union

from .graphs import (
    Graph,
    GraphFormatError,
    adjacency_from_code,
    bits,
    connected,
    encode_graph6,
    graph_from_code,
    is_connected,
    parse_graph6,
)
from .isolation import BudgetExceededError, iota_exact

ENUMERATION_MAX_N = 8
ENUMERATION_RANGE_ERROR = (
    f"built-in enumeration supports 1 <= n <= {ENUMERATION_MAX_N}; "
    "ingest larger graphs from a graph6 stream"
)


# -- canonical forms -----------------------------------------------------------


def _refine(
    nbrs: Sequence[Collection[int]],
    cells: list[list[int]],
    touched: Optional[AbstractSet[int]] = None,
) -> list[list[int]]:
    """Refine an ordered partition of the vertices until it is equitable.

    A vertex's colour is the index of its cell.  Each round splits every
    cell by the sorted neighbour colours of its vertices; the parts take the
    cell's place, in signature order.  Singleton cells are left alone, and
    with `touched` the first round splits only the cells that meet it.
    Refinement ends when a round splits no cell, or the partition is
    discrete.

    From the unit partition the first round splits by degree.  Every
    partition of two or more cells must have cells of a single degree, as
    every partition that refinement and individualisation derive from the
    unit one has: a round then ranks a cell by the base-n weight sum of its
    vertices' neighbours, largest first (see the module docstring).  A cell
    of two vertices compares their two sums: equal sums keep the cell, and
    otherwise the larger sum goes first.  A larger cell whose sums all agree
    is kept as it is.
    """
    n = len(nbrs)
    if len(cells) == 1 and n > 1:
        parts: dict[int, list[int]] = {}
        for v in cells[0]:
            parts.setdefault(len(nbrs[v]), []).append(v)
        cells = [parts[d] for d in sorted(parts)]
        touched = None
    while len(cells) < n:
        weight = [0] * n
        w = 1
        for cell in reversed(cells):
            for v in cell:
                weight[v] = w
            w *= n
        get = weight.__getitem__
        split = []
        grew = False
        for cell in cells:
            if len(cell) == 1 or touched is not None and touched.isdisjoint(cell):
                split.append(cell)
            elif len(cell) == 2:
                u, v = cell
                a = sum(map(get, nbrs[u]))
                b = sum(map(get, nbrs[v]))
                if a == b:
                    split.append(cell)
                else:
                    split += ([u], [v]) if a > b else ([v], [u])
                    grew = True
            else:
                parts = {}
                for v in cell:
                    parts.setdefault(sum(map(get, nbrs[v])), []).append(v)
                if len(parts) == 1:
                    split.append(cell)
                else:
                    split.extend(parts[s] for s in sorted(parts, reverse=True))
                    grew = True
        if not grew:
            return cells
        cells = split
        touched = None
    return cells


def _twin_swaps(adj: Sequence[int], cells: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Transpositions of twins, one per consecutive pair of each class of
    vertices with equal open rows or equal closed rows in a cell.

    Open and closed rows share one dict: the open row of v never equals the
    closed row of u, which holds u, so u would be a neighbour of v and v a
    member of its own row.
    """
    n = len(adj)
    swaps = []
    for cell in cells:
        if len(cell) == 1:
            continue
        classes: dict[int, list[int]] = {}
        for v in cell:
            classes.setdefault(adj[v], []).append(v)
            classes.setdefault(adj[v] | 1 << v, []).append(v)
        for twins in classes.values():
            for u, v in zip(twins, twins[1:]):
                perm = list(range(n))
                perm[u], perm[v] = v, u
                swaps.append(tuple(perm))
    return swaps


def _find(root: list[int], v: int) -> int:
    while root[v] != v:
        root[v] = v = root[root[v]]
    return v


def _merge_orbits(root: list[int], perms: Iterable[Sequence[int]]) -> None:
    """Merge the orbits of vertex permutations of 0..len(root)-1 into the
    union-find forest root, whose trees are rooted at their least vertex."""
    for p in perms:
        for v, w in enumerate(p):
            if v != w:
                a, b = _find(root, v), _find(root, w)
                if a != b:
                    root[max(a, b)] = min(a, b)


def _canonical_search(
    n: int, adj: Sequence[int], *, generators: bool = True
) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical code of the graph (n, adj) and a generating set of its
    automorphism group (see the module docstring).  With generators=False
    the list is left empty when the root partition is settled."""
    nbits = n * (n - 1) // 2
    nbrs = [bits(row) for row in adj]
    # no leaf yet: a code of nbits + 1 bits is above every leaf and every prefix
    unset = 1 << nbits
    best = unset
    best_leaf: list[int] = []
    gens: list[tuple[int, ...]] = []
    fixed: list[int] = []  # fixed[i]: mask of the points gens[i] fixes
    placed = [0] * n  # placed[:r]: the vertex order of the node being searched

    def add(perm: tuple[int, ...]) -> None:
        gens.append(perm)
        fixed.append(sum(1 << v for v in range(n) if perm[v] == v))

    def search(cells: list[list[int]], path: int, r: int, partial: int) -> int:
        """Search the node of partition cells, whose first r cells are
        singletons placed by the parent and encoded in partial.  Returns the
        r of the node on the current path to resume at, n for none."""
        nonlocal best, best_leaf
        j = r
        while j < n and len(cells[j]) == 1:
            j += 1
        # a settled node has one leaf up to the twin swaps, its cells in
        # order: each cell's vertices are open or closed twins of its first
        to_place = cells[r:]
        for cell in cells[j:]:
            if len(cell) > 1:
                u = cell[0]
                row, closed = adj[u], adj[u] | 1 << u
                if any(adj[v] != row and adj[v] | 1 << v != closed for v in cell):
                    to_place = cells[r:j]
                    break
        for cell in to_place:
            for v in cell:
                row = adj[v]
                for u in placed[:r]:
                    partial = (partial << 1) | (row >> u & 1)
                placed[r] = v
                r += 1
        bp = best >> (nbits - r * (r - 1) // 2)
        if partial > bp:
            return n
        if partial < bp:
            best = unset
        if r == n:
            if partial < best:
                best, best_leaf = partial, placed[:]
                return n
            # equal codes: best_leaf[i] -> placed[i] preserves adjacency
            perm = [0] * n
            for u, v in zip(best_leaf, placed):
                perm[u] = v
            add(tuple(perm))
            # jump back to the node where this leaf's path leaves best_leaf's
            return next(i for i in range(n) if placed[i] != best_leaf[i])
        target = cells[r]
        if not path:
            # the root branches: its twin swaps are automorphisms known
            # before any leaf (see the module docstring)
            for perm in _twin_swaps(adj, cells):
                add(perm)
        root = list(range(n))  # orbits of the generators that fix path
        known = 0  # generators looked at for root so far
        tried: list[int] = []
        for x in target:
            if tried:
                if known < len(gens):
                    _merge_orbits(
                        root, [p for p, f in zip(gens[known:], fixed[known:]) if not path & ~f]
                    )
                    known = len(gens)
                if _find(root, x) in {_find(root, t) for t in tried}:
                    continue
            tried.append(x)
            # individualise x: it goes before the rest of its cell, and only
            # the cells it has neighbours in can split in the first round
            child = cells[:r] + [[x], [v for v in target if v != x]] + cells[r + 1 :]
            resume = search(_refine(nbrs, child, frozenset(nbrs[x])), path | 1 << x, r, partial)
            if resume < r:
                return resume
        return n

    cells = _refine(nbrs, [list(range(n))])
    search(cells, 0, 0, 0)
    # search's own cell refers to search: emptying it frees the search's
    # closures and partitions now rather than at the next cyclic collection
    del search
    if generators and not gens:
        # the root settled, so it seeded no swaps, and they generate Aut(G)
        # (a root that branched with no twins and found nothing has none)
        gens = _twin_swaps(adj, cells)
    return best, gens


def canonical_code(n: int, adj: Sequence[int]) -> int:
    """Canonical adjacency encoding of (n, adj): equal codes <=> isomorphic graphs."""
    return _canonical_search(n, adj, generators=False)[0]


def _is_least_deletion(adj: Sequence[int]) -> bool:
    """Whether no non-cut vertex has a smaller (degree, sorted neighbour
    degrees) key than the last vertex, itself a non-cut vertex."""
    deg = [row.bit_count() for row in adj]
    last = len(adj) - 1
    full = (1 << len(adj)) - 1
    least = None  # the last vertex's sorted neighbour degrees, once a tie needs them
    for v in range(last):
        if deg[v] > deg[last]:
            continue
        if deg[v] == deg[last]:
            if least is None:
                least = sorted(map(deg.__getitem__, bits(adj[last])))
            if sorted(map(deg.__getitem__, bits(adj[v]))) >= least:
                continue
        if connected(adj, full & ~(1 << v)):
            return False
    return True


def _least_non_cut(adj: Sequence[int]) -> tuple[int, int]:
    """Least degree d0 over the non-cut vertices of a connected graph, and
    the mask of the non-cut vertices of degree d0."""
    full = (1 << len(adj)) - 1
    d0, least = len(adj), 0
    for v, row in enumerate(adj):
        d = row.bit_count()
        if d > d0 or not connected(adj, full & ~(1 << v)):
            continue
        if d < d0:
            d0, least = d, 0
        least |= 1 << v
    return d0, least


def _admitted_hoods(n: int, d0: int, least: int) -> list[int]:
    """The non-empty masks over n vertices that the degree prefilter admits,
    in increasing order: those of at most d0 vertices, and those of d0 + 1
    vertices that hold every vertex of least."""
    ones = [1 << v for v in range(n)]
    hoods = [sum(c) for size in range(1, d0 + 2) for c in combinations(ones, size)]
    return sorted(h for h in hoods if h.bit_count() <= d0 or not least & ~h)


def _mask_orbit_representatives(gens: Sequence[Sequence[int]], hoods: Iterable[int]) -> list[int]:
    """Least mask of each orbit of the group generated by gens on hoods, in
    increasing order.  hoods must be a union of orbits, in increasing order:
    the enumerator passes its admitted hoods.

    A mask that no earlier orbit reached is the least of its own orbit, and
    the rest of that orbit is reached by applying the generators to the
    masks found so far, so only masks of hoods are ever imaged."""
    images = [[1 << w for w in p] for p in gens]
    seen = set()
    reps = []
    for hood in hoods:
        if hood in seen:
            continue
        reps.append(hood)
        seen.add(hood)
        stack = [hood]
        while stack:
            ids = bits(stack.pop())
            for image in images:
                mask = sum(map(image.__getitem__, ids))
                if mask not in seen:
                    seen.add(mask)
                    stack.append(mask)
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
        hoods = _admitted_hoods(n - 1, *_least_non_cut(base))
        for hood in _mask_orbit_representatives(gens, hoods):
            adj = [row | new if hood >> u & 1 else row for u, row in enumerate(base)]
            adj.append(hood)
            if _is_least_deletion(adj):
                codes.add(canonical_code(n, adj))
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
    error: str


def ingest_graph6(
    source: Union[str, TextIO, Iterable[str]],
    failures: Optional[list[IngestFailure]] = None,
) -> Iterator[Graph]:
    """Parse newline-separated graph6 records, tracking line numbers.

    With a failures list a malformed line is recorded there and skipped;
    without one it aborts with the line number.
    """
    lines = source.split("\n") if isinstance(source, str) else source
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except GraphFormatError as exc:
            if failures is None:
                raise GraphFormatError(f"line {line_no}: {exc}") from None
            failures.append(IngestFailure(line_no, str(exc)))


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
    #: the bounds built so far, by numerator a*n + b*m + c
    _bounds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("cycle length must be at least 3")
        if self.d < 1:
            raise ValueError("bound denominator must be at least 1")
        object.__setattr__(self, "_codes", {})
        object.__setattr__(self, "_bounds", {})
        for g in map(parse_graph6, self.exclusions):
            self._codes.setdefault((g.n, g.m), set()).add(canonical_code(g.n, g.adj))

    def excludes(self, g: Graph) -> bool:
        """Plain k-cycle, or isomorphic to an exclusion.

        Isomorphic graphs share order and size, so only a graph with the
        order and size of some exclusion is canonicalised.
        """
        if g.n == self.k and is_connected(g) and all(d == 2 for d in g.degrees()):
            return True
        codes = self._codes.get((g.n, g.m))
        return codes is not None and canonical_code(g.n, g.adj) in codes

    def bound_for(self, n: int, m: int) -> Fraction:
        total = self.a * n + self.b * m + self.c
        bound = self._bounds.get(total)
        if bound is None:
            bound = self._bounds[total] = Fraction(total, self.d)
        return bound

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
    """Running tally of a survey: counts, violations, equalities and, when
    `keep_rows` is set, the CSV rows in input order."""

    spec: BoundSpec
    keep_rows: bool = True
    records: int = 0
    rows: list[str] = field(default_factory=list)
    by_status: dict[str, int] = field(default_factory=dict)
    by_n: dict[int, int] = field(default_factory=dict)
    violations: list[SurveyRecord] = field(default_factory=list)
    equalities: list[SurveyRecord] = field(default_factory=list)

    def add(self, record: SurveyRecord) -> None:
        self.records += 1
        if self.keep_rows:
            self.rows.append(record.csv_row())
        self.by_status[record.status] = self.by_status.get(record.status, 0) + 1
        self.by_n[record.n] = self.by_n.get(record.n, 0) + 1
        if record.status == "violation":
            self.violations.append(record)
        elif record.status == "equal":
            self.equalities.append(record)

    def totals(self) -> dict:
        return {
            "records": self.records,
            "by_status": dict(sorted(self.by_status.items())),
            "by_n": {str(k): v for k, v in sorted(self.by_n.items())},
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
        return "\n".join([SurveyRecord.CSV_HEADER, *self.rows]) + "\n"


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
        iota = iota_exact(g, k, node_budget, witness=False).iota
    except BudgetExceededError:
        return SurveyRecord(g6, n, m, k, None, bound, "budget_exhausted")
    # iota against (a*n + b*m + c)/d on integers, which needs d >= 1
    scaled, total = iota * spec.d, spec.a * n + spec.b * m + spec.c
    if scaled > total:
        status = "violation"
    elif scaled == total:
        status = "equal"
    else:
        status = "below"
    tag = _extremal_tag(g, k) if status == "equal" else None
    return SurveyRecord(g6, n, m, k, iota, bound, status, tag)


def survey(
    graphs: Iterable[Graph],
    spec: BoundSpec,
    node_budget: Optional[int] = None,
    *,
    rows: bool = True,
) -> SurveyReport:
    """Evaluate the bound for every graph of the stream in input order, one
    at a time; with rows=False the report keeps no CSV rows."""
    report = SurveyReport(spec, keep_rows=rows)
    for g in graphs:
        report.add(check_graph(g, spec, node_budget))
    return report
