"""Detection and enumeration of fixed-length cycle subgraphs.

Cycles are reported as not-necessarily-induced subgraphs: a witness is an
ordered tuple of k distinct vertices in which consecutive entries (and the
last/first pair) are adjacent.  Length 4 gets a common-neighbour fast path:
a graph has a 4-cycle exactly when two distinct vertices share at least two
common neighbours.  Everything else uses one explicit-stack depth-first
search over paths rooted at each cycle's least vertex, whose last position
draws only from the root's neighbours, so every leaf it reaches closes a
cycle; that is plenty for the desk-scale graphs this package targets.
The search, `_cycles`, returns a list of the first `limit` witnesses in
lexicographic order, or of all of them: `find_cycle` asks it for one and
`all_cycles` for every one.
"""

from __future__ import annotations

from typing import Optional

from .graphs import Graph, VertexSet

CycleWitness = tuple[int, ...]


def check_length(k: int) -> None:
    """Raise ValueError unless k is a cycle length, at least 3."""
    if k < 3:
        raise ValueError("cycle length must be at least 3")


def find_cycle(g: Graph, k: int, alive: VertexSet | None = None) -> Optional[CycleWitness]:
    """First k-cycle among the `alive` vertices in a fixed deterministic order."""
    check_length(k)
    mask = g.full_mask if alive is None else alive
    if mask.bit_count() < k:
        return None
    if k == 4:
        return _find_c4(g, mask)
    found = _cycles(g, k, mask, 1)
    return found[0] if found else None


def _find_c4(g: Graph, mask: VertexSet) -> Optional[CycleWitness]:
    """The first 4-cycle in mask as (u, a, v, b): u is the least vertex of
    mask that shares two neighbours in mask with a vertex of mask above it,
    v the least such partner, and a < b their two least common neighbours
    in mask.  For each u, `twice` collects the vertices reached from two
    neighbours of u in mask."""
    adj = g.adj
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low  # the vertices of mask above u
        u = low.bit_length() - 1
        once = twice = 0
        hood = adj[u] & mask
        while hood:
            w = hood & -hood
            hood ^= w
            row = adj[w.bit_length() - 1]
            twice |= once & row
            once |= row
        twice &= rest
        if twice:
            v = (twice & -twice).bit_length() - 1
            common = adj[u] & adj[v] & mask
            a = common & -common
            b = common ^ a
            return (u, a.bit_length() - 1, v, (b & -b).bit_length() - 1)
    return None


def _cycles(g: Graph, k: int, mask: VertexSet, limit: Optional[int] = None) -> list[CycleWitness]:
    """The first `limit` k-cycles within mask, or all of them when limit is
    None: one canonical witness each, in lex order.

    Canonical form: the cycle is rooted at its least vertex s, every other
    vertex exceeds s, and the second entry is smaller than the last (this
    kills the rotation and reflection duplicates).

    One explicit-stack DFS per root: `stack[i]` holds the candidates still
    untried for path position i, taken lowest id first.  Both ends of the
    path lie in N(s) above s, so a root needs two such neighbours and
    position 1 skips the highest of them.  Positions 2..k-2 extend the path
    through unused neighbours above s; position k-1 draws only from N(s)
    above path[1], so each of its candidates closes a canonical cycle and
    is reported without descending.  These filters drop only paths that
    cannot close canonically, and every position is tried in increasing id
    order, so witnesses come out in lexicographic tuple order: the first is
    the lex-least, which the solver's node counts and witnesses depend on.
    The search stops as soon as it holds `limit` witnesses.
    """
    adj = g.adj
    out: list[CycleWitness] = []
    last = k - 1
    path = [0] * k
    stack = [0] * k
    # roots s in increasing order; higher keeps the ids of mask above s
    higher = mask
    while higher:
        root = higher & -higher
        higher ^= root
        s = root.bit_length() - 1
        closing = adj[s] & higher
        if closing.bit_count() < 2:
            continue
        path[0] = s
        stack[1] = closing ^ (1 << (closing.bit_length() - 1))
        used = 1 << s
        i = 1
        while i:
            cand = stack[i]
            if not cand:
                i -= 1
                used ^= 1 << path[i]
                continue
            low = cand & -cand
            stack[i] = cand ^ low
            path[i] = w = low.bit_length() - 1
            if i == last:
                out.append(tuple(path))
                if len(out) == limit:
                    return out
                continue
            used |= low
            i += 1
            if i == last:
                stack[i] = adj[w] & closing & ~used & ~((2 << path[1]) - 1)
            else:
                stack[i] = adj[w] & higher & ~used
    return out


def all_cycles(g: Graph, k: int, alive: VertexSet | None = None) -> list[CycleWitness]:
    """Every k-cycle among the `alive` vertices exactly once, up to rotation/reflection."""
    check_length(k)
    return _cycles(g, k, g.full_mask if alive is None else alive)
