"""Detection and enumeration of fixed-length cycle subgraphs.

Cycles are reported as not-necessarily-induced subgraphs: a witness is an
ordered tuple of k distinct vertices in which consecutive entries (and the
last/first pair) are adjacent.  Length 4 gets a common-neighbour fast path:
a graph has a 4-cycle exactly when two distinct vertices share at least two
common neighbours.  Everything else uses pruned path backtracking, which is
plenty for the desk-scale graphs this package targets.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graphs import Graph, VertexSet, bits

CycleWitness = tuple[int, ...]


def _check_k(k: int) -> None:
    if k < 3:
        raise ValueError("cycle length must be at least 3")


def find_cycle(g: Graph, k: int, alive: VertexSet | None = None) -> Optional[CycleWitness]:
    """First k-cycle among the `alive` vertices in a fixed deterministic order."""
    _check_k(k)
    mask = g.full_mask if alive is None else alive
    if mask.bit_count() < k:
        return None
    if k == 4:
        return _find_c4(g, mask)
    for wit in _iter_cycles(g, k, mask):
        return wit
    return None


def _find_c4(g: Graph, mask: VertexSet) -> Optional[CycleWitness]:
    adj = g.adj
    for u in bits(mask):
        for v in bits(mask & ~((1 << (u + 1)) - 1)):
            common = adj[u] & adj[v] & mask
            if common.bit_count() >= 2:
                it = bits(common)
                a = next(it)
                b = next(it)
                return (u, a, v, b)
    return None


def _iter_cycles(g: Graph, k: int, mask: VertexSet) -> Iterator[CycleWitness]:
    """All k-cycles within mask, one canonical witness each.

    Canonical form: the cycle is rooted at its least vertex s, every other
    vertex exceeds s, and the second entry is smaller than the last (this
    kills the rotation and reflection duplicates).
    """
    adj = g.adj
    for s in bits(mask):
        higher = mask & ~((1 << (s + 1)) - 1)
        path = [s]
        used = 1 << s

        def extend(v: int, depth: int) -> Iterator[CycleWitness]:
            nonlocal used
            if depth == k:
                if adj[v] >> s & 1 and path[1] < v:
                    yield tuple(path)
                return
            for w in bits(adj[v] & higher & ~used):
                path.append(w)
                used |= 1 << w
                yield from extend(w, depth + 1)
                used ^= 1 << w
                path.pop()

        for w in bits(adj[s] & higher):
            path.append(w)
            used |= 1 << w
            yield from extend(w, 2)
            used ^= 1 << w
            path.pop()


def all_cycles(g: Graph, k: int, alive: VertexSet | None = None) -> list[CycleWitness]:
    """Every k-cycle among the `alive` vertices exactly once, up to rotation/reflection."""
    _check_k(k)
    return list(_iter_cycles(g, k, g.full_mask if alive is None else alive))
