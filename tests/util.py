"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: cycle
existence scans raw vertex permutations or every walk of distinct vertices,
isolation numbers scan subsets in increasing size, and isomorphism
deduplication inserts whole permutation orbits into a seen-set.  They are
slow and obviously correct, which is the point.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional, Sequence

from cycleiso.constructive import CaseTrace, TraceStep
from cycleiso.cycles import _cycles
from cycleiso.family import ConsDecomposition, Tree
from cycleiso.graphs import (
    Graph,
    VertexSet,
    as_mask,
    bits,
    from_edge_list,
    mask_of,
)


def path(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diamond() -> Graph:
    return from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])


def c4_plus() -> Graph:
    # 4-cycle 0-1-2-3 with a pendant vertex 4 attached to 0
    return from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


def k23_with_tail(n: int) -> Graph:
    # K_{2,3} with parts {4, 5} and {1, 2, 3}, a pendant 0 at 5, and a tail
    # path 0-6-7-...-(n-1) grown from that pendant
    edges = [(0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]
    edges += [(0 if v == 6 else v - 1, v) for v in range(6, n)]
    return from_edge_list(n, edges)


def generalized_petersen(n: int, j: int) -> Graph:
    # GP(n, j): the outer cycle 0..n-1, the spokes i ~ n+i, and the inner
    # edges n+i ~ n+(i+j mod n)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + j) % n) for i in range(n)]
    return from_edge_list(2 * n, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return from_edge_list(a.n + b.n, edges)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the permutation old id -> perm[old id]."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, adj)


def recovered_tree(decomp: ConsDecomposition) -> Tree:
    """The anchor tree of a decomposition, renumbered to 0..t-1."""
    ids = bits(decomp.connection_vertices)
    index = {v: i for i, v in enumerate(ids)}
    return Tree(len(ids), tuple((index[u], index[v]) for u, v in decomp.tree_edges))


def format_edge_list(g: Graph) -> str:
    """g as an edge-list file: the `n <count>` header, then one `u v` line per edge."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


#: malformed edge lists and the error each gives, through parse_edge_list and
#: the CLI alike; every message cites the physical line, blank lines counted
EDGE_LIST_ERRORS = {
    "id-too-large": ("n 3\n0 1\n\n1 5\n", "line 4: edge (1, 5) outside id range 0..2"),
    "loop": ("n 3\n0 1\n2 2\n", "line 3: loop edge at vertex 2"),
    "superscript-count": ("n \u00b2\n", 'line 1: edge-list input must start with a "n <count>" header'),
    "underscore-id": ("n 12\n1_0 1\n", "line 2: non-integer vertex id"),
    "plus-id": ("n 12\n+1 2\n", "line 2: non-integer vertex id"),
    "fullwidth-id": ("n 3\n\uff11 2\n", "line 2: non-integer vertex id"),
    "negative-id": ("n 3\n0 1\n-1 2\n", "line 3: edge (-1, 2) outside id range 0..2"),
}


def increments_union(trace: CaseTrace) -> VertexSet:
    """The union of a case trace's step increments."""
    out = 0
    for step in trace.steps:
        out |= step.increment
    return out


def step_ids(step: TraceStep) -> TraceStep:
    """A trace step with its masks written as id tuples, the form whose repr
    the pinned trace digests were taken over."""
    return TraceStep(
        step.label, bits(step.working), bits(step.increment), tuple(map(bits, step.recursed))
    )


def graph_from_bitmask(n: int, mask: int) -> Graph:
    """Graph from an edge subset encoded over the pairs of range(n) in order."""
    pairs = list(combinations(range(n), 2))
    return from_edge_list(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def oracle_components(g: Graph, alive: VertexSet) -> list[tuple[VertexSet, int, int]]:
    """(vertex mask, edge count, top) of each component of the subgraph
    induced on alive, least vertex first, where top is the component's
    least vertex of maximum degree: a union-find over the edges with both
    ends in alive, whose trees are rooted at their least vertex, and
    degrees counted over those edges."""
    root = {v: v for v in range(g.n) if alive >> v & 1}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    inside = [(u, v) for u, v in g.edges() if u in root and v in root]
    degree = dict.fromkeys(root, 0)
    for u, v in inside:
        a, b = find(u), find(v)
        root[max(a, b)] = min(a, b)
        degree[u] += 1
        degree[v] += 1
    members: dict[int, list[int]] = {}
    sizes: dict[int, int] = {}
    for v in root:
        members.setdefault(find(v), []).append(v)
    for u, _ in inside:
        sizes[find(u)] = sizes.get(find(u), 0) + 1
    return [
        (mask_of(members[r]), sizes.get(r, 0), min(members[r], key=lambda v: (-degree[v], v)))
        for r in sorted(members)
    ]


def _edge_count(g: Graph, mask: VertexSet) -> int:
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _edges_out(g: Graph, a: VertexSet, b: VertexSet) -> int:
    """Edges from a to the disjoint set b."""
    return sum((g.adj[v] & b).bit_count() for v in bits(a))


def _neighbours(g: Graph, mask: VertexSet) -> VertexSet:
    out = 0
    for v in bits(mask):
        out |= g.adj[v]
    return out


def oracle_is_member(g: Graph, p: VertexSet) -> bool:
    """Is the piece p cons(T, 4) for a tree T?  Its order and size must be
    5t and 6t - 1, and it must hold t pendant squares, chordless 4-cycles
    that send one edge out, whose outer ends are t distinct vertices that
    make up the connected rest.  A cycle cannot cross a one-edge cut, so
    pendant squares are pairwise disjoint, and the size leaves t - 1 edges
    to the rest, a tree."""
    n, m = p.bit_count(), _edge_count(g, p)
    t, r = divmod(n, 5)
    if r or m != 6 * t - 1:
        return False
    squares = set()
    for u, v in combinations(bits(p), 2):
        for a, b in combinations(bits(g.adj[u] & g.adj[v] & p), 2):
            squares.add(1 << u | 1 << v | 1 << a | 1 << b)
    pendant = [c for c in squares if _edge_count(g, c) == 4 and _edges_out(g, c, p & ~c) == 1]
    covered = sum(pendant)
    rest = p & ~covered
    anchors = _neighbours(g, covered) & rest
    return (
        len(pendant) == t
        and anchors.bit_count() == t
        and anchors == rest
        and len(oracle_components(g, rest)) == 1
    )


def _limit(g: Graph, p: VertexSet) -> int:
    """The recursion's budget on a piece: floor((m+1)/6) for the diamond and
    the family members, which attain it, and floor(m/6) for any other."""
    m = _edge_count(g, p)
    special = (p.bit_count() == 4 and m == 5) or oracle_is_member(g, p)
    return (m + 1) // 6 if special else m // 6


def trace_pieces(g: Graph, trace: CaseTrace) -> list[VertexSet]:
    """The piece of each step of a construct trace, rebuilt from its
    pre-order: the components of g, least vertex first, each followed by
    the pieces its steps recurse on, depth first."""
    todo = [c[0] for c in reversed(oracle_components(g, g.full_mask))]
    pieces = []
    for step in trace.steps:
        if not todo:
            raise AssertionError(f"step {len(pieces)} has no piece left to settle")
        pieces.append(todo.pop())
        todo.extend(reversed(step.recursed))
    if todo:
        raise AssertionError(f"{len(todo)} pieces have no step")
    return pieces


def check_trace(g: Graph, d: VertexSet, trace: CaseTrace) -> None:
    """Check a construct trace as a proof, one step at a time, with no help
    from the library's recursion, solver or cycle search; raise
    AssertionError at the first step that fails.

    Each step's piece P is rebuilt from the pre-order, and its working set
    S and increment D must lie in P.  A step that recurses must have D in
    S, recurse on exactly the components of P - S (in any order) and pass
    the gluing check: S - N[D] holds no 4-cycle, and each of its components
    sends at most one edge to P - S.  A leaf's increment must isolate P.
    No step may overspend: |D| plus the children's budgets is at most P's
    budget.  With gluing and leaf isolation, the union of the increments
    isolates g, and by the budgets it meets the bound on every component;
    d must be that union."""
    union = 0
    for i, (step, p) in enumerate(zip(trace.steps, trace_pieces(g, trace))):
        s, inc, children = step.working, step.increment, step.recursed
        union |= inc
        where = f"step {i} ({step.label})"
        if (s | inc) & ~p:
            raise AssertionError(f"{where}: its sets leave the piece")
        if children:
            if inc & ~s:
                raise AssertionError(f"{where}: the increment leaves the working set")
            if set(children) != {c[0] for c in oracle_components(g, p & ~s)}:
                raise AssertionError(f"{where}: recursed pieces are not the components of P - S")
            residual = s & ~inc & ~_neighbours(g, inc)
            if oracle_first_c4(g, residual) is not None:
                raise AssertionError(f"{where}: the increment leaves a 4-cycle in S")
            for comp, _, _ in oracle_components(g, residual):
                if _edges_out(g, comp, p & ~s) > 1:
                    raise AssertionError(f"{where}: a residual component sends two edges out of S")
        elif oracle_first_c4(g, p & ~inc & ~_neighbours(g, inc)) is not None:
            raise AssertionError(f"{where}: the increment leaves a 4-cycle in its piece")
        if inc.bit_count() + sum(_limit(g, c) for c in children) > _limit(g, p):
            raise AssertionError(f"{where}: overspends its budget")
    if union != d:
        raise AssertionError("the set is not the union of the trace's increments")


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Renumbering oracle: the subgraph on `keep` with ids 0.. in increasing
    parent-id order, plus the embedding local id -> parent id."""
    m = as_mask(g, keep)
    embedding = bits(m)
    index = {v: i for i, v in enumerate(embedding)}
    adj = [0] * len(embedding)
    for i, v in enumerate(embedding):
        for u in bits(g.adj[v] & m):
            adj[i] |= 1 << index[u]
    return Graph(len(embedding), adj), embedding


def reference_graph6(n: int, adj) -> str:
    """graph6 written one pair bit at a time, x(0,1), x(0,2), x(1,2), ...,
    six bits per byte, each byte offset by 63."""
    out = [n + 63]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | adj[j] >> i & 1
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def reference_adjacency(n: int, code: int) -> list[int]:
    """Rows whose pair bits, x(0,1) most significant, are code: read one bit
    at a time from the least significant end, x(n-2, n-1)."""
    adj = [0] * n
    for j in range(n - 1, 0, -1):
        for i in range(j - 1, -1, -1):
            if code & 1:
                adj[j] |= 1 << i
                adj[i] |= 1 << j
            code >>= 1
    return adj


def reference_parse_graph6(text: str) -> tuple[int, list[int]]:
    """Order and rows of a well-formed single-header graph6 string, one
    6-bit group at a time."""
    n = ord(text[0]) - 63
    stream = 0
    for ch in text[1:]:
        stream = stream << 6 | ord(ch) - 63
    return n, reference_adjacency(n, stream >> (6 * (len(text) - 1) - n * (n - 1) // 2))


def reference_graph_error(n: int, adj) -> Optional[str]:
    """The message Graph(n, adj) must raise for rows of the right length, or
    None: every row's ids and loop first, then each (v, u) with u in row v,
    in increasing v and u, for a missing mirror bit."""
    for v, row in enumerate(adj):
        if row & ~((1 << n) - 1):
            return f"vertex {v} has a neighbour id >= {n}"
        if row >> v & 1:
            return f"vertex {v} is adjacent to itself"
    for v, row in enumerate(adj):
        for u in range(n):
            if row >> u & 1 and not adj[u] >> v & 1:
                return f"adjacency not symmetric at ({v}, {u})"
    return None


def oracle_has_k_cycle(g: Graph, k: int) -> bool:
    """Scan k-permutations for a closed walk with all consecutive pairs adjacent."""
    if g.n < k:
        return False
    adj = g.adj
    for perm in permutations(range(g.n), k):
        if perm[0] != min(perm) or perm[1] > perm[-1]:
            continue  # rotations and reflections repeat the same vertex set
        if all(adj[perm[i]] >> perm[(i + 1) % k] & 1 for i in range(k)):
            return True
    return False


def oracle_first_c4(g: Graph, alive: VertexSet) -> Optional[tuple[int, int, int, int]]:
    """The 4-cycle witness (u, a, v, b) that find_cycle(g, 4, alive) must
    return: the least pair u < v of alive with two common neighbours in
    alive, a < b the two least of them.  Scans pairs directly."""
    keep = [v for v in range(g.n) if alive >> v & 1]
    for i, u in enumerate(keep):
        for v in keep[i + 1 :]:
            common = [w for w in keep if g.adj[u] >> w & 1 and g.adj[v] >> w & 1]
            if len(common) >= 2:
                return (u, common[0], v, common[1])
    return None


def contains_cycle_generic(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """First k-cycle of the library's backtracking search, which find_cycle
    bypasses at k = 4; the two paths cross-check each other."""
    found = _cycles(g, k, g.full_mask, 1)
    return found[0] if found else None


def oracle_all_k_cycles(g: Graph, k: int) -> set[frozenset[tuple[int, int]]]:
    """Every k-cycle as its edge set, deduplicated exactly."""
    found = set()
    for perm in permutations(range(g.n), k):
        if all(g.adj[perm[i]] >> perm[(i + 1) % k] & 1 for i in range(k)):
            found.add(
                frozenset(
                    (min(perm[i], perm[(i + 1) % k]), max(perm[i], perm[(i + 1) % k]))
                    for i in range(k)
                )
            )
    return found


def oracle_canonical_cycles(g: Graph, k: int, alive: VertexSet) -> list[tuple[int, ...]]:
    """Every canonical k-cycle witness inside alive, sorted as tuples.

    A canonical witness is k distinct vertices of alive, rooted at its least
    vertex, with consecutive entries (and the last and first) adjacent and
    the second entry below the last; every cycle has exactly one."""
    keep = [v for v in range(g.n) if alive >> v & 1]
    found = []

    def grow(seq: tuple[int, ...]) -> None:
        if len(seq) == k:
            if g.adj[seq[-1]] >> seq[0] & 1 and seq[1] < seq[-1]:
                found.append(seq)
            return
        for u in keep:
            if u > seq[0] and u not in seq and g.adj[seq[-1]] >> u & 1:
                grow(seq + (u,))

    for s in keep:
        grow((s,))
    return sorted(found)


def _has_k_cycle(adj: dict[int, set[int]], keep: list[int], k: int) -> bool:
    """Scan sequences of k distinct vertices of keep whose consecutive pairs
    are adjacent, for one that closes; each cycle is tried from its least
    vertex, so the sequence grows only through larger ids."""

    def closes(seq: tuple[int, ...]) -> bool:
        if len(seq) == k:
            return seq[0] in adj[seq[-1]]
        return any(closes(seq + (u,)) for u in adj[seq[-1]] if u > seq[0] and u not in seq)

    return any(closes((s,)) for s in keep)


def oracle_is_isolating(
    g: Graph, members: tuple[int, ...], k: int, alive: Optional[VertexSet] = None
) -> bool:
    """Does alive - N[members] (all of g by default) hold no k-cycle?"""
    hood = set(members)
    for v in members:
        for u in range(g.n):
            if g.adj[v] >> u & 1:
                hood.add(u)
    alive = g.full_mask if alive is None else alive
    keep = [v for v in range(g.n) if alive >> v & 1 and v not in hood]
    adj = {
        v: {u for u in keep if g.adj[v] >> u & 1} for v in keep
    }
    return not _has_k_cycle(adj, keep, k)


def oracle_refutes(g: Graph, k: int, comp: VertexSet, alive: VertexSet, r: int) -> bool:
    """True when no r vertices of comp leave alive - N[X] free of k-cycles.

    Subsets of exactly r vertices (all of comp if it is smaller) suffice,
    since adding vertices to an isolating set keeps it isolating."""
    members = bits(comp)
    return not any(
        oracle_is_isolating(g, chosen, k, alive)
        for chosen in combinations(members, min(r, len(members)))
    )


def oracle_lex_least_witness(g: Graph, k: int) -> tuple[int, ...]:
    """Increasing-size subset scan with no pruning; combinations come in lex
    order, so the first isolating set is the lex-least optimal one."""
    for size in range(g.n + 1):
        for members in combinations(range(g.n), size):
            if oracle_is_isolating(g, members, k):
                return members
    raise AssertionError("unreachable: the whole vertex set isolates")


def oracle_iota(g: Graph, k: int) -> int:
    return len(oracle_lex_least_witness(g, k))


def oracle_refine(nbrs, colors: list) -> list[int]:
    """Colour refinement by simultaneous rounds over every vertex: each
    round ranks (colour, sorted neighbour colours) over the whole graph,
    until the ranks stop changing."""
    while True:
        sigs = [(c, tuple(sorted([colors[u] for u in row]))) for c, row in zip(colors, nbrs)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def oracle_is_least_deletion(adj) -> bool:
    """Whether no non-cut vertex has a smaller (degree, sorted neighbour
    degrees) key than the last vertex, every key built in full and every
    cut test read off oracle_components."""
    g = Graph(len(adj), adj)
    deg = g.degrees()
    last = g.n - 1

    def key(v: int) -> tuple:
        return deg[v], sorted(deg[u] for u in bits(adj[v]))

    least = key(last)
    return not any(
        key(v) < least and len(oracle_components(g, g.full_mask & ~(1 << v))) == 1
        for v in range(last)
    )


def oracle_mask_orbit_minima(g: Graph) -> list[int]:
    """Least mask of each orbit of Aut(g) on the non-empty vertex subsets,
    in increasing order; Aut(g) is every vertex permutation that maps each
    row onto the row of its image."""
    autos = [
        p for p in permutations(range(g.n))
        if all(sum(1 << p[u] for u in bits(g.adj[v])) == g.adj[p[v]] for v in range(g.n))
    ]
    return [
        mask for mask in range(1, 1 << g.n)
        if all(sum(1 << p[v] for v in bits(mask)) >= mask for p in autos)
    ]


def oracle_automorphism_count(g: Graph) -> int:
    """Order of Aut(g): count the vertex maps, built in id order, that keep
    each degree and the adjacency to every vertex mapped before."""
    n, adj = g.n, g.adj
    image = [0] * n

    def extend(x: int, used: int) -> int:
        if x == n:
            return 1
        total = 0
        for y in range(n):
            if used >> y & 1 or adj[y].bit_count() != adj[x].bit_count():
                continue
            if all((adj[x] >> w & 1) == (adj[y] >> image[w] & 1) for w in range(x)):
                image[x] = y
                total += extend(x + 1, used | 1 << y)
        return total

    return extend(0, 0)


def oracle_connected_class_count(n: int) -> int:
    """Count connected graphs on n vertices up to isomorphism.

    Iterates every edge subset; each newly seen connected graph counts one
    class and its entire permutation orbit is inserted into the seen-set.
    """
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perm_tables = []
    for perm in permutations(range(n)):
        table = []
        for u, v in pairs:
            pu, pv = perm[u], perm[v]
            table.append(pair_index[(min(pu, pv), max(pu, pv))])
        perm_tables.append(table)

    def connected(mask: int) -> bool:
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << n) - 1

    seen_masks: set[int] = set()
    count = 0
    for mask in range(1 << len(pairs)):
        if mask in seen_masks or not connected(mask):
            continue
        count += 1
        for table in perm_tables:
            image = 0
            m = mask
            while m:
                low = m & -m
                image |= 1 << table[low.bit_length() - 1]
                m ^= low
            seen_masks.add(image)
    return count


def oracle_tree_class_count(n: int) -> int:
    """Count trees on n vertices up to isomorphism via Pruefer sequences."""
    if n == 1:
        return 1
    if n == 2:
        return 1
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perm_tables = []
    for perm in permutations(range(n)):
        table = []
        for u, v in pairs:
            pu, pv = perm[u], perm[v]
            table.append(pair_index[(min(pu, pv), max(pu, pv))])
        perm_tables.append(table)

    def prufer_to_mask(seq: tuple[int, ...]) -> int:
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        mask = 0
        work = list(seq)
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        for v in work:
            leaf = leaves.pop(0)
            mask |= 1 << pair_index[(min(leaf, v), max(leaf, v))]
            degree[v] -= 1
            if degree[v] == 1:
                import bisect

                bisect.insort(leaves, v)
        u, v = leaves
        mask |= 1 << pair_index[(u, v)]
        return mask

    from itertools import product

    seen: set[int] = set()
    count = 0
    for seq in product(range(n), repeat=n - 2):
        mask = prufer_to_mask(tuple(seq))
        if mask in seen:
            continue
        count += 1
        for table in perm_tables:
            image = 0
            m = mask
            while m:
                low = m & -m
                image |= 1 << table[low.bit_length() - 1]
                m ^= low
            seen.add(image)
    return count
