from fractions import Fraction

import pytest

from cycleiso.family import (
    Tree,
    build,
    canonical_isolating_set,
    enumerate_trees,
    expected_size,
    recognize,
    recovered_tree,
    tree_canonical_key,
    trees_isomorphic,
    verify_extremal_equality,
)
from cycleiso.graphs import vertices_of
from cycleiso.isolation import iota_exact, verify
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
            assert g.m == expected_size(t, k) == (k + 2) * t - 1


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
                assert trees_isomorphic(recovered_tree(decomp), tree)


def test_recognize_rejects_everything_else_small(universe8):
    # at k=4 only orders divisible by 5 can qualify; among n <= 8 that is
    # n = 5, and the pendant cycle is the only member
    member = build(Tree(1, ()), 4)[0]
    hits = [g for g in universe8 if recognize(g, 4) is not None]
    assert len(hits) == 1
    assert recognize(member, 4) is not None
    assert hits[0].n == 5 and hits[0].m == 5


def test_canonical_set_is_isolating_and_tight():
    for tree, k in ((Tree(1, ()), 4), (Tree(2, ((0, 1),)), 3), (K13_PLUS, 4)):
        g, decomp = build(tree, k)
        d = canonical_isolating_set(decomp)
        assert d.bit_count() == tree.n == Fraction(g.m + 1, k + 2)
        assert verify(g, d, k).valid


def test_canonical_set_two_triangles_value():
    g, decomp = build(Tree(2, ((0, 1),)), 3)
    assert (g.n, g.m) == (8, 9)
    assert oracle_iota(g, 3) == 2
    assert canonical_isolating_set(decomp).bit_count() == 2


def test_verify_extremal_equality():
    for n in (1, 2, 3, 4):
        for tree in enumerate_trees(n):
            g, _ = build(tree, 4)
            assert verify_extremal_equality(g, 4, node_budget=10**6)
    assert not verify_extremal_equality(diamond(), 4)
    assert not verify_extremal_equality(cycle(4), 4)


def test_equality_on_members_exact(universe6):
    # the equality case of the (m+1)/(k+2) bound, solved rather than read off
    # the construction; at k = 4 and 5 every tree with t <= 8 (48 trees, up
    # to 48 vertices)
    for k, t_max in ((3, 3), (4, 8), (5, 8)):
        for t in range(1, t_max + 1):
            for tree in enumerate_trees(t):
                g, decomp = build(tree, k)
                res = iota_exact(g, k, node_budget=1_000)
                assert res.iota == decomp.tree_size == t
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
    assert trees_isomorphic(a, b)
    assert not trees_isomorphic(a, star)
