"""The extremal family: trees wearing one k-cycle per vertex.

build(T, k) takes a tree T and hangs a private k-cycle off every tree
vertex by a single edge.  The result has (k+1)|V(T)| vertices and
(k+2)|V(T)| - 1 edges, the tree vertices form an isolating set, and these
graphs (together with the diamond for k = 4) are exactly the connected
graphs whose k-cycle isolation number attains (m+1)/(k+2).

Recognition inverts the construction without general subgraph-isomorphism
machinery: in a member, every constituent cycle carries exactly one vertex
of degree 3 (the attachment) with the rest of degree 2, and that degree
pattern alone makes candidate cycles chordless, pairwise disjoint and
attached by one edge each; what remains must be a tree on their anchors.
A decomposition's connection vertices are an isolating set of size
(m+1)/(k+2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cycles import all_cycles, check_length
from .graphs import (
    Graph,
    VertexSet,
    as_mask,
    bits,
    connected,
    edges_between,
    from_edge_list,
    is_connected,
    mask_of,
)

MAX_TREE_N = 12


@dataclass(frozen=True)
class Tree:
    """A tree given by its vertex count and edge list (validated on creation)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a tree has at least one vertex")
        object.__setattr__(
            self, "edges", tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        )
        g = from_edge_list(self.n, self.edges)
        if len(self.edges) != self.n - 1:
            raise ValueError("a tree on n vertices has exactly n-1 edges")
        if not is_connected(g):
            raise ValueError("tree edges do not connect all vertices")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class Constituent:
    """One cycle of the construction: its anchor tree vertex and cycle layout."""

    connection: int
    attachment: int
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class ConsDecomposition:
    """Witness that a graph is built from a tree plus one cycle per tree vertex."""

    k: int
    connection_vertices: VertexSet
    constituents: tuple[Constituent, ...]
    tree_edges: tuple[tuple[int, int], ...]

    def connection_of(self, vertex: int) -> int:
        """Connection vertex of the constituent containing `vertex`."""
        for c in self.constituents:
            if vertex == c.connection or vertex in c.cycle:
                return c.connection
        raise ValueError(f"vertex {vertex} not covered by the decomposition")


def build(tree: Tree, k: int) -> tuple[Graph, ConsDecomposition]:
    """Attach a private k-cycle to every tree vertex by one edge.

    Numbering is deterministic: tree vertices keep ids 0..t-1, then cycles
    follow in tree-vertex order, each starting at its attachment vertex.
    """
    check_length(k)
    t = tree.n
    n = (k + 1) * t
    edges = list(tree.edges)
    constituents = []
    for i in range(t):
        base = t + i * k
        cyc = tuple(range(base, base + k))
        edges.extend((cyc[j], cyc[(j + 1) % k]) for j in range(k))
        edges.append((i, base))
        constituents.append(Constituent(connection=i, attachment=base, cycle=cyc))
    g = from_edge_list(n, edges)
    decomp = ConsDecomposition(
        k=k,
        connection_vertices=(1 << t) - 1,
        constituents=tuple(constituents),
        tree_edges=tree.edges,
    )
    return g, decomp


def recognize(g: Graph, k: int, within: VertexSet | None = None) -> Optional[ConsDecomposition]:
    """Decomposition witnessing membership in the family, or None.

    With `within`, the subgraph induced on that vertex mask is recognised
    and the decomposition is given in g's ids.  After the order and size
    tests (n = (k+1)t vertices, (k+2)t - 1 edges, counted over the mask
    once the order fits), candidate constituent cycles are the k-cycles
    whose vertices all have degree 2 except exactly one of degree 3, and
    only two tests can fail: the candidates' anchors are distinct and are
    exactly the rest; the rest is connected.
    No other test is needed, since:

    1. a candidate has no chord: a chord would give two vertices of
       degree >= 3 on a cycle whose pattern allows only one;
    2. two candidates that share a vertex are the same cycle: from the
       shared vertex both follow the same forced path of degree-2
       vertices to the cycle's single degree-3 vertex, so the candidates,
       which all_cycles yields once each, are pairwise disjoint;
    3. having no chord, a candidate's attachment has exactly one
       neighbour off the cycle, its anchor;
    4. c disjoint candidates leave a rest of n - ck vertices, and c
       distinct anchors that are exactly the rest give c(k+1) = n, so the
       candidates cover tk vertices and |rest| = t(k+1) - tk = t;
    5. an edge from the rest into a cycle must end at an attachment, whose
       one outside neighbour is its anchor, and the anchors are distinct,
       so each rest vertex sends exactly one edge into the cycles;
    6. the size test leaves (k+2)t - 1 - tk - t = t - 1 edges inside the
       rest, so a connected rest is a tree; the size test also rejects
       n = 0.
    """
    check_length(k)
    alive = g.full_mask if within is None else as_mask(g, within)
    n = alive.bit_count()
    if n % (k + 1):
        return None
    t = n // (k + 1)
    adj = g.adj
    m = edges_between(adj, alive, alive) // 2
    if m != (k + 2) * t - 1:
        return None
    used = 0
    constituents = []
    for cyc in all_cycles(g, k, alive):
        degs = [(adj[v] & alive).bit_count() for v in cyc]
        if sorted(degs) != [2] * (k - 1) + [3]:
            continue
        cm = mask_of(cyc)
        used |= cm
        start = degs.index(3)
        attach = cyc[start]
        connection = bits(adj[attach] & alive & ~cm)[0]
        cycle = tuple(cyc[(start + j) % k] for j in range(k))
        constituents.append(
            Constituent(connection=connection, attachment=attach, cycle=cycle)
        )
    rest = alive & ~used
    anchors = {c.connection for c in constituents}
    if len(anchors) != len(constituents) or anchors != set(bits(rest)):
        return None
    if not connected(adj, rest):
        return None
    tree_edges = tuple(
        (u, v) for u in bits(rest) for v in bits(adj[u] & rest) if u < v
    )
    constituents.sort(key=lambda c: c.connection)
    return ConsDecomposition(
        k=k,
        connection_vertices=rest,
        constituents=tuple(constituents),
        tree_edges=tree_edges,
    )


# -- tree enumeration up to isomorphism ---------------------------------------


def tree_canonical_key(tree: Tree) -> tuple:
    """Canonical key via centre-rooted AHU encoding; equal iff isomorphic."""
    adj = tree.adjacency()
    centers = _centers(tree.n, adj)

    def encode(root: int, parent: int) -> tuple:
        return tuple(sorted(encode(c, root) for c in adj[root] if c != parent))

    return (tree.n, min(encode(c, -1) for c in centers))


def _centers(n: int, adj: list[list[int]]) -> list[int]:
    if n == 1:
        return [0]
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in adj[v]:
                if degree[u] > 0:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def enumerate_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of trees on n vertices.

    Grown by leaf attachment: every tree on n vertices arises from one on
    n-1 by deleting a leaf, so attaching a new leaf everywhere and
    deduplicating by canonical key is exhaustive.
    """
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"tree enumeration supports 1 <= n <= {MAX_TREE_N}")
    level = [Tree(1, ())]
    for size in range(2, n + 1):
        seen: dict[tuple, Tree] = {}
        for tree in level:
            for v in range(tree.n):
                grown = Tree(size, tree.edges + ((v, size - 1),))
                key = tree_canonical_key(grown)
                if key not in seen:
                    seen[key] = grown
        level = [seen[key] for key in sorted(seen)]
    return level
