import random
from fractions import Fraction

import pytest

from cycleiso.family import (
    Tree,
    build,
    enumerate_trees,
    recognize,
    recovered_tree,
    tree_canonical_key,
)
from cycleiso.graphs import from_edge_list, relabel
from cycleiso.isolation import iota_exact, verify
from cycleiso.survey import canonical_code
from util import cycle, diamond, oracle_iota, oracle_tree_class_count

K13_PLUS = Tree(5, ((0, 1), (0, 2), (0, 3), (1, 4)))


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, ((0, 1),))
    with pytest.raises(ValueError):
        Tree(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Tree(4, ((0, 1), (1, 2), (2, 0)))


def test_build_single_vertex_gives_pendant_cycle():
    g, decomp = build(Tree(1, ()), 4)
    assert (g.n, g.m) == (5, 5)
    assert decomp.connection_vertices == 1
    assert sorted(g.degrees()) == [1, 2, 2, 2, 3]


def test_build_flagship_tree():
    g, _ = build(K13_PLUS, 4)
    assert (g.n, g.m) == (25, 29)


def test_build_size_formula():
    for t in range(1, 6):
        tree = Tree(t, tuple((i, i + 1) for i in range(t - 1)))
        for k in (3, 4, 5):
            g, _ = build(tree, k)
            assert g.n == (k + 1) * t
            assert g.m == (k + 2) * t - 1


def test_build_rejects_bad_k():
    with pytest.raises(ValueError):
        build(Tree(1, ()), 2)


def test_recognize_pendant_cycle():
    g, _ = build(Tree(1, ()), 4)
    decomp = recognize(g, 4)
    assert decomp is not None
    assert len(decomp.constituents) == 1


def test_recognize_rejects_diamond_and_c4():
    assert recognize(diamond(), 4) is None
    assert recognize(cycle(4), 4) is None


def test_recognize_roundtrip_small_trees():
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            for k in (3, 4, 5):
                g, _ = build(tree, k)
                decomp = recognize(g, k)
                assert decomp is not None
                assert tree_canonical_key(recovered_tree(decomp)) == tree_canonical_key(tree)


def test_recognize_rejects_everything_else_small(universe8):
    # at k=4 only orders divisible by 5 can qualify; among n <= 8 that is
    # n = 5, and the pendant cycle is the only member
    member = build(Tree(1, ()), 4)[0]
    hits = [g for g in universe8 if recognize(g, 4) is not None]
    assert len(hits) == 1
    assert recognize(member, 4) is not None
    assert hits[0].n == 5 and hits[0].m == 5


def _member_codes(t: int, k: int) -> set[int]:
    """Canonical codes of cons(T, C_k) over the trees T on t vertices."""
    return {canonical_code(g.n, g.adj) for g in (build(tree, k)[0] for tree in enumerate_trees(t))}


def test_recognize_iff_isomorphic_to_a_member(universe8):
    # recognize(g, k) answers exactly when g is isomorphic to some
    # cons(T, C_k), checked against canonical codes; only graphs with a
    # member's edge count can share a member's code
    for k in range(3, 8):
        for t in range(1, 8 // (k + 1) + 1):
            n, m = (k + 1) * t, (k + 2) * t - 1
            codes = _member_codes(t, k)
            for g in universe8:
                if g.n == n:
                    member = g.m == m and canonical_code(g.n, g.adj) in codes
                    assert (recognize(g, k) is not None) == member
    # relabelled members with none, one or two edges moved
    rng = random.Random(19)
    for k in (3, 4, 5):
        for t in range(1, 5):
            codes = _member_codes(t, k)
            for tree in enumerate_trees(t):
                g, _ = build(tree, k)
                for trial in range(13):
                    edges = set(g.edges())
                    for _ in range(trial % 3):
                        gone = rng.choice(sorted(edges))
                        edges.remove(gone)
                        while (e := tuple(sorted(rng.sample(range(g.n), 2)))) in edges | {gone}:
                            pass
                        edges.add(e)
                    perm = list(range(g.n))
                    rng.shuffle(perm)
                    h = relabel(from_edge_list(g.n, sorted(edges)), perm)
                    member = canonical_code(h.n, h.adj) in codes
                    assert (recognize(h, k) is not None) == member


def test_recognize_a_moved_tree_edge_gives_another_member():
    # tree vertices keep ids 0..t-1, so moving the path edge 2-3 to 1-3
    # turns cons(P4, C_4) into cons(K_{1,3}, C_4)
    g, _ = build(Tree(4, ((0, 1), (1, 2), (2, 3))), 4)
    edges = set(g.edges()) - {(2, 3)} | {(1, 3)}
    decomp = recognize(from_edge_list(g.n, sorted(edges)), 4)
    assert decomp is not None
    star = Tree(4, ((1, 0), (1, 2), (1, 3)))
    assert tree_canonical_key(recovered_tree(decomp)) == tree_canonical_key(star)


def test_recognize_rejects_a_disconnected_rest():
    # moving the path edge 2-3 to 0-2 keeps every count but closes a
    # triangle on the anchors 0, 1, 2 and cuts anchor 3 off
    for k in (3, 4, 5):
        g, _ = build(Tree(4, ((0, 1), (1, 2), (2, 3))), k)
        edges = set(g.edges()) - {(2, 3)} | {(0, 2)}
        assert recognize(from_edge_list(g.n, sorted(edges)), k) is None


def test_recognize_rejects_ids_outside_the_graph():
    g, _ = build(Tree(1, ()), 4)
    with pytest.raises(ValueError, match="outside 0..n-1"):
        recognize(g, 4, g.full_mask | 1 << g.n)


def test_canonical_set_is_isolating_and_tight():
    for tree, k in ((Tree(1, ()), 4), (Tree(2, ((0, 1),)), 3), (K13_PLUS, 4)):
        g, decomp = build(tree, k)
        d = decomp.connection_vertices
        assert d.bit_count() == tree.n == Fraction(g.m + 1, k + 2)
        assert verify(g, d, k).valid


def test_canonical_set_two_triangles_value():
    g, decomp = build(Tree(2, ((0, 1),)), 3)
    assert (g.n, g.m) == (8, 9)
    assert oracle_iota(g, 3) == 2
    assert decomp.connection_vertices.bit_count() == 2


def test_verify_extremal_equality():
    # members are recognised and attain (m+1)/6; the diamond attains it too
    # but is no member
    for n in (1, 2, 3, 4):
        for tree in enumerate_trees(n):
            g, _ = build(tree, 4)
            assert recognize(g, 4) is not None
            assert Fraction(g.m + 1, 6) == iota_exact(g, 4, node_budget=10**6).iota
    assert recognize(diamond(), 4) is None
    assert recognize(cycle(4), 4) is None


def test_equality_on_members_exact(universe6):
    # the equality case of the (m+1)/(k+2) bound, solved rather than read off
    # the construction; at k = 4 and 5 every tree with t <= 8 (48 trees, up
    # to 48 vertices)
    for k, t_max in ((3, 3), (4, 8), (5, 8)):
        for t in range(1, t_max + 1):
            for tree in enumerate_trees(t):
                g, decomp = build(tree, k)
                res = iota_exact(g, k, node_budget=1_000)
                assert res.iota == len(decomp.constituents) == t
                assert g.m + 1 == t * (k + 2)
                assert verify(g, res.witness, k).valid


def test_enumerate_trees_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
    for n, count in expected.items():
        assert len(enumerate_trees(n)) == count


def test_enumerate_trees_matches_prufer_oracle():
    for n in range(1, 7):
        assert len(enumerate_trees(n)) == oracle_tree_class_count(n)


def test_enumerate_trees_n4_shapes():
    [a, b] = enumerate_trees(4)
    keys = {tree_canonical_key(a), tree_canonical_key(b)}
    path = Tree(4, ((0, 1), (1, 2), (2, 3)))
    star = Tree(4, ((0, 1), (0, 2), (0, 3)))
    assert keys == {tree_canonical_key(path), tree_canonical_key(star)}


def test_enumerate_trees_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_trees(13)


def test_tree_isomorphism_key():
    a = Tree(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    b = Tree(5, ((4, 3), (3, 2), (2, 1), (1, 0)))
    star = Tree(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    assert tree_canonical_key(a) == tree_canonical_key(b)
    assert tree_canonical_key(a) != tree_canonical_key(star)
