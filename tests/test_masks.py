"""The vertex-mask arguments agree with a renumbered copy of the subgraph.

`all_cycles(g, k, alive)`, `recognize(g, k, within)`,
`iota_exact(g, k, budget, within)`,
`check_gluing_hypothesis(g, s, d, k, within)` and the constructive piece
records of `_split(g, alive)` work on the subgraph induced on a mask,
in g's ids.  Each must equal the same call on the `induced_subgraph` copy
with its answer mapped back through the embedding.
"""

from __future__ import annotations

import random

import pytest

from cycleiso.constructive import _split, classify_component
from cycleiso.cycles import all_cycles
from cycleiso.family import ConsDecomposition, Constituent, Tree, build, recognize
from cycleiso.graphs import Graph, component_masks, from_edge_list, mask_of
from cycleiso.isolation import check_gluing_hypothesis, iota_exact
from util import graph_from_bitmask, induced_subgraph, path, relabel


def _lift(decomp: ConsDecomposition | None, emb: tuple[int, ...]):
    if decomp is None:
        return None
    return ConsDecomposition(
        k=decomp.k,
        connection_vertices=mask_of(emb[i] for i in range(len(emb)) if decomp.connection_vertices >> i & 1),
        constituents=tuple(
            Constituent(emb[c.connection], emb[c.attachment], tuple(emb[i] for i in c.cycle))
            for c in decomp.constituents
        ),
        tree_edges=tuple((emb[u], emb[v]) for u, v in decomp.tree_edges),
    )


def _member_with_extras(seed: int) -> tuple[Graph, int]:
    """cons(T, 4) with extra vertices hung off it, shuffled; and the member's mask."""
    member, _ = build(Tree(3, ((0, 1), (1, 2))), 4)
    t = member.n
    edges = member.edges() + [(3, t), (0, t + 1), (t + 1, t + 2), (t + 2, 0), (t, t + 3)]
    perm = list(range(t + 4))
    random.Random(seed).shuffle(perm)
    g = relabel(from_edge_list(t + 4, edges), perm)
    return g, mask_of(perm[v] for v in range(t))


def _cases() -> list[tuple[Graph, int]]:
    rng = random.Random(8)
    out = [_member_with_extras(seed) for seed in range(3)]
    while len(out) < 60:
        n = rng.randint(2, 12)
        pairs = n * (n - 1) // 2
        edge_bits = sum(1 << i for i in range(pairs) if rng.random() < 0.35)
        g = graph_from_bitmask(n, edge_bits)
        out.append((g, rng.getrandbits(n)))
    return out


def _check_mask_case(g: Graph, mask: int, rng: random.Random) -> None:
    sub, emb = induced_subgraph(g, mask)

    def up(local: int) -> int:
        return mask_of(emb[i] for i in range(sub.n) if local >> i & 1)

    for k in (3, 4, 5):
        assert all_cycles(g, k, mask) == [tuple(emb[i] for i in c) for c in all_cycles(sub, k)]
        assert recognize(g, k, mask) == _lift(recognize(sub, k), emb)
        got, want = iota_exact(g, k, within=mask), iota_exact(sub, k)
        assert (got.iota, got.witness, got.explored) == (want.iota, up(want.witness), want.explored)
    for _ in range(5):
        s_local = rng.getrandbits(sub.n) if sub.n else 0
        d_local = s_local & (rng.getrandbits(sub.n) if sub.n else 0)
        assert check_gluing_hypothesis(g, up(s_local), up(d_local), 4, mask) == (
            check_gluing_hypothesis(sub, s_local, d_local, 4)
        )


def test_mask_arguments_match_the_renumbered_subgraph():
    rng = random.Random(13)
    for g, mask in _cases():
        _check_mask_case(g, mask, rng)


def test_split_counts_the_edges_of_each_piece():
    for g, mask in _cases():
        pieces = _split(g, mask)
        assert [c.mask for c in pieces] == component_masks(g, mask)
        for c in pieces:
            inside = [v for v in range(g.n) if c.mask >> v & 1]
            brute = sum(g.adj[u] >> v & 1 for u in inside for v in inside if u < v)
            assert c.m == brute


def _hung_graph(rng: random.Random) -> Graph:
    """A random tree with one to three hung 4-cycles or diamonds, shuffled."""
    n = rng.randint(3, 9)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(1, 3)):
        edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n + 3, n)]
        if rng.random() < 0.5:
            edges.append((n, n + 2))
        edges.append((rng.randrange(n), n + rng.randrange(4)))
        n += 4
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(from_edge_list(n, edges), perm)


def test_piece_record_matches_the_renumbered_piece():
    # the pieces are the components of g minus one vertex, as the
    # constructive recursion sees them after peeling
    rng = random.Random(21)
    cases = [_member_with_extras(seed)[0] for seed in range(3)]
    cases += [_hung_graph(rng) for _ in range(8)]
    tags = set()
    for g in cases:
        for v in range(g.n):
            alive = g.full_mask & ~(1 << v)
            for got, mask in zip(_split(g, alive), component_masks(g, alive), strict=True):
                sub, emb = induced_subgraph(g, mask)
                want = classify_component(sub)
                assert (got.mask, got.tag, got.m) == (mask, want.tag, want.m)
                assert got.decomposition == _lift(want.decomposition, emb)
                tags.add(got.tag)
    assert tags == {"C4", "diamond", "extremal", "other"}


def test_recognize_finds_a_member_on_a_proper_mask():
    g, mask = _member_with_extras(0)
    assert mask != g.full_mask
    assert recognize(g, 4) is None
    decomp = recognize(g, 4, mask)
    assert decomp is not None and len(decomp.constituents) == 3
    assert decomp.connection_vertices & ~mask == 0


def test_gluing_counts_only_edges_inside_the_mask():
    # S = {1} on the path 0-1-2 sends two edges out of S, but only the one
    # to 0 stays inside the mask {0, 1}
    g = path(3)
    assert not check_gluing_hypothesis(g, 0b010, 0, 4)
    assert check_gluing_hypothesis(g, 0b010, 0, 4, 0b011)
    sub, _ = induced_subgraph(g, 0b011)
    assert check_gluing_hypothesis(sub, 0b10, 0, 4)
    with pytest.raises(ValueError):
        check_gluing_hypothesis(g, 0b100, 0, 4, 0b011)
