import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from cycleiso import constructive
from cycleiso.constructive import (
    FALLBACK_NODE_BUDGET,
    TRACE_LABELS,
    bound_value,
    CaseTrace,
    ComponentClass,
    TraceStep,
    construct,
)
from cycleiso.family import Tree, build, enumerate_trees, recognize
from cycleiso.graphs import (
    Graph,
    bits,
    components,
    encode_graph6,
    from_edge_list,
    graph_from_code,
    mask_of,
    parse_graph6,
)
from cycleiso.isolation import BudgetExceededError, iota_exact, verify
from cycleiso.survey import _connected_codes
from util import (
    c4_plus,
    check_trace,
    complete,
    cycle,
    diamond,
    disjoint_union,
    increments_union,
    k23_with_tail,
    oracle_iota,
    oracle_is_member,
    path,
    step_ids,
    trace_pieces,
)

K13_PLUS = Tree(5, ((0, 1), (0, 2), (0, 3), (1, 4)))


def test_bound_value():
    assert bound_value(5) == 1
    assert bound_value(29) == 5
    assert bound_value(6) == Fraction(7, 6)
    with pytest.raises(ValueError):
        bound_value(-1)


def test_construct_past_id_63():
    # cons(P_13, C4) has 65 vertices, so its masks run past one 64-bit
    # word; reversed, its connection vertices take the ids 52..64
    g, _ = build(Tree(13, tuple((i, i + 1) for i in range(12))), 4)
    assert g.n == 65 and (g.m + 1) // 6 == 13
    reversed_g = from_edge_list(65, [(64 - u, 64 - v) for u, v in g.edges()])
    for h in (g, reversed_g):
        d, trace = construct(h)
        assert d.bit_count() <= 13
        assert verify(h, d, 4).valid
        assert not trace.used_fallback()


def _whole(g: Graph) -> ComponentClass:
    """The piece record of a connected graph taken whole."""
    return ComponentClass(g, *components(g.adj, g.full_mask)[0])


def test_classify():
    cases = ((cycle(4), 0), (diamond(), 1), (c4_plus(), 0), (complete(5), 0))
    classes = [ComponentClass(g, g.full_mask, g.m, top) for g, top in cases]
    assert [c.tag for c in classes] == ["C4", "diamond", "extremal", "other"]
    assert classes[2].decomposition is not None


def test_construct_c4_free_graph():
    d, trace = construct(path(7))
    assert d == 0
    assert trace.labels == ("base:no-C4",)


def test_construct_diamond():
    d, trace = construct(diamond())
    assert d.bit_count() == 1
    assert trace.labels == ("base:m<=5",)
    assert verify(diamond(), d, 4).valid


def test_construct_k4_hits_its_branch():
    d, trace = construct(complete(4))
    assert d.bit_count() == 1
    assert trace.labels == ("Case 1:K4",)


def test_construct_rejects_c4():
    with pytest.raises(ValueError):
        construct(cycle(4))
    with pytest.raises(ValueError):
        construct(disjoint_union(cycle(4), diamond()))


def test_construct_flagship_extremal_graph():
    g, _ = build(K13_PLUS, 4)
    d, trace = construct(g)
    assert d.bit_count() == 5 == bound_value(g.m)
    assert verify(g, d, 4).valid
    assert not trace.used_fallback()


def test_construct_disconnected_sums_components():
    g = disjoint_union(diamond(), complete(4))
    d, trace = construct(g)
    assert d.bit_count() == 2
    assert verify(g, d, 4).valid


def test_construct_builds_no_graph(monkeypatch):
    # every piece is a vertex mask of the input, so no renumbered copy is
    # built and sets and trace steps come out in input ids
    cases = [
        (k23_with_tail(9), (5,), ("Case 2:no-special", "base:no-C4", "base:no-C4")),
        (build(K13_PLUS, 4)[0], (0, 1, 2, 3, 4), ("Subcase 2.1(i):member",)),
        (disjoint_union(diamond(), complete(4)), (1, 4), ("base:m<=5", "Case 1:K4")),
    ]

    def no_graph(self, *args):
        raise AssertionError("construct built a Graph")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    traces = []
    for g, want, labels in cases:
        d, trace = construct(g)
        assert bits(d) == want
        assert trace.labels == labels
        traces.append(trace)
    assert traces[0].steps[0] == TraceStep(
        "Case 2:no-special", mask_of((0, 1, 2, 3, 5)), 1 << 5, (1 << 4, mask_of((6, 7, 8)))
    )
    assert traces[2].steps[1] == TraceStep("Case 1:K4", mask_of((4, 5, 6, 7)), 1 << 4)


#: sha256 over construct's set and every trace step on _hung_corpus(1, 800);
#: taken from the implementation that copied each piece into a renumbered graph
HUNG_CORPUS_DIGEST = "7974af8f3d963fd78772572bf509d3ac76cb4416d26a6b155401975ab0f08fda"

#: trace labels that construct never fires on _hung_corpus(1, 800) (16 of 28 fire)
HUNG_CORPUS_UNFIRED = frozenset(
    {
        "Case 1:K4",
        "Subcase 1.2.1(ii):member",
        "Subcase 1.2.2(i)",
        "Subcase 1.2.2:G'=C4",
        "Subcase 1.2.3(i)",
        "Subcase 1.2.3:G'=C4",
        "Subcase 1.2.4(i)",
        "Subcase 1.2.4:G'=C4",
        "Subcase 2.1(i):member",
        "Subcase 2.2(i)",
        "Subcase 2.2(i):rescue",
        "fallback",
    }
)


def _hung_corpus(seed: int, count: int) -> list[Graph]:
    """Random connected graphs (n 8-18) with up to four hung 4-cycles or
    diamonds, shuffled, so the recursion reaches pieces with neighbours
    outside them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(8, 18)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.2 / n]
        for _ in range(rng.randint(0, 4)):
            a = rng.randrange(n)
            edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n + 3, n)]
            if rng.random() < 0.5:
                edges.append((n, n + 2))
            edges.append((a, n + rng.randrange(4)))
            n += 4
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(from_edge_list(n, [(perm[u], perm[v]) for u, v in edges]))
    return out


def test_hung_corpus_digest():
    digest = hashlib.sha256()
    fired = set()
    for g in _hung_corpus(1, 800):
        try:
            d, trace = construct(g)
        except ValueError:
            digest.update(f"{encode_graph6(g)} error\n".encode())
            continue
        assert verify(g, d, 4).valid
        assert not trace.used_fallback()
        digest.update(f"{encode_graph6(g)} {d}\n".encode())
        fired.update(trace.labels)
        for s in map(step_ids, trace.steps):
            digest.update(f"{s.label} {s.working} {s.increment} {s.recursed}\n".encode())
    assert digest.hexdigest() == HUNG_CORPUS_DIGEST
    assert TRACE_LABELS - fired == HUNG_CORPUS_UNFIRED


def test_subcase_2_2_counts_only_piece_neighbours():
    # in the second step v = 0 has the neighbour 5 outside its piece;
    # counting it moves an entry vertex and gives (0, 5, 8)
    g = parse_graph6("P?iA?_SPCAD?G@_IOk?C_@W?")
    assert (g.n, g.m) == (17, 27)
    d, trace = construct(g)
    assert bits(d) == (0, 5, 7)
    assert trace.labels == ("Subcase 2.1", "Subcase 2.2(ii)", "base:no-C4")
    assert trace.steps[1] == TraceStep(
        "Subcase 2.2(ii)",
        mask_of((0, 3, 4, 7, 8, 10, 13, 14, 16)),
        mask_of((0, 7)),
        (mask_of((2, 11, 12)),),
    )


def test_trace_increments_union_is_output():
    g, _ = build(Tree(3, ((0, 1), (1, 2))), 4)
    d, trace = construct(g)
    assert increments_union(trace) == d


def test_trace_labels_are_known(universe7):
    for g in universe7:
        if _whole(g).tag == "C4":
            continue
        _, trace = construct(g)
        assert set(trace.labels) <= TRACE_LABELS


def test_exhaustive_soundness_n7(universe7):
    for g in universe7:
        if _whole(g).tag == "C4":
            continue
        d, trace = construct(g)
        size = d.bit_count()
        assert verify(g, d, 4).valid
        assert size <= (g.m + 1) // 6
        assert size >= iota_exact(g, 4).iota
        assert not trace.used_fallback()


def test_equality_cases_n7(universe7):
    attained = [
        g
        for g in universe7
        if _whole(g).tag != "C4"
        and iota_exact(g, 4).iota == bound_value(g.m)
    ]
    shapes = sorted((g.n, g.m) for g in attained)
    assert shapes == [(4, 5), (5, 5)]


def test_members_get_their_canonical_set():
    for n in range(1, 5):
        for tree in enumerate_trees(n):
            g, decomp = build(tree, 4)
            d, trace = construct(g)
            assert d == decomp.connection_vertices
            assert not trace.used_fallback()
            member_labels = [lab for lab in trace.labels if lab.endswith(":member")]
            if member_labels:
                assert recognize(g, 4) is not None
                assert d == recognize(g, 4).connection_vertices


def test_case2_star_bridge():
    # star K_{1,4} with a leaf tied to a K4 (not a special component)
    g = from_edge_list(
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4),
         (4, 5),
         (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)],
    )
    d, trace = construct(g)
    assert verify(g, d, 4).valid
    assert d.bit_count() <= g.m // 6
    assert "Case 2:star-bridge" in trace.labels


def test_fallback_replaces_a_failed_glued_branch(monkeypatch):
    # K_{2,3} plus a pendant: the top level is the glued "Case 2:no-special"
    # branch, so a refused gluing guard leaves only the exact fallback
    g = from_edge_list(6, [(0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)])
    assert construct(g)[1].labels == ("Case 2:no-special", "base:no-C4")
    monkeypatch.setattr(
        "cycleiso.constructive.check_gluing_hypothesis", lambda *args: False
    )
    d, trace = construct(g)
    assert trace.labels == ("fallback",)
    assert d == iota_exact(g, 4).witness
    assert verify(g, d, 4).valid


def test_fallback_replaces_a_leaf_that_does_not_isolate(monkeypatch):
    # K4's leaf branch handing back an empty increment meets the size bound,
    # so only the leaf's own isolation check can refuse it
    g = complete(4)
    assert construct(g)[1].labels == ("Case 1:K4",)
    monkeypatch.setattr(
        constructive, "_case1", lambda g, p: constructive._result(g, p, "Case 1:K4", p, 0)
    )
    d, trace = construct(g)
    assert trace.labels == ("fallback",)
    assert d == iota_exact(g, 4).witness
    assert verify(g, d, 4).valid


def test_fallback_replaces_a_glued_step_missing_a_piece(monkeypatch):
    # a star K_{1,4} bridged to a K_{2,3}: the glued "Case 2:star-bridge"
    # step recurses on the K_{2,3}.  Dropping that piece keeps the gluing
    # hypothesis and the size bound but leaves its 4-cycles, so only the
    # cover check refuses the step
    g = from_edge_list(
        10,
        [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5),
         (5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9)],
    )
    assert construct(g)[1].labels == ("Case 2:star-bridge", "Subcase 1.2.2(ii)", "base:no-C4")
    real = constructive._result
    dropped = []

    def dropping(g, p, label, working, direct, recursed=None):
        if recursed:
            assert constructive.check_gluing_hypothesis(g, working, direct, 4, p)
            dropped.append(direct)
            recursed = recursed[:-1]
        return real(g, p, label, working, direct, recursed)

    monkeypatch.setattr(constructive, "_result", dropping)
    d, trace = construct(g)
    assert trace.labels == ("fallback",)
    assert not verify(g, dropped[0], 4).valid
    assert d == iota_exact(g, 4).witness
    assert verify(g, d, 4).valid


def test_fallback_on_a_piece_above_20_vertices(monkeypatch):
    # the glued branch of test_fallback_replaces_a_failed_glued_branch on a
    # graph the exact solver refuses to search without a budget
    g = k23_with_tail(21)
    monkeypatch.setattr(
        "cycleiso.constructive.check_gluing_hypothesis", lambda *args: False
    )
    d, trace = construct(g)
    assert trace.labels == ("fallback",)
    assert d == iota_exact(g, 4, FALLBACK_NODE_BUDGET).witness
    assert verify(g, d, 4).valid


def test_fallback_budget_exhaustion_propagates(monkeypatch):
    monkeypatch.setattr(
        "cycleiso.constructive.check_gluing_hypothesis", lambda *args: False
    )
    monkeypatch.setattr("cycleiso.constructive.FALLBACK_NODE_BUDGET", 0)
    with pytest.raises(BudgetExceededError):
        construct(k23_with_tail(21))


def test_case2_special_component_peeled():
    # star K_{1,4} with a leaf tied to a diamond: the diamond is peeled as a
    # special component through the single-attachment subcase
    g = from_edge_list(
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4),
         (4, 5),
         (5, 6), (6, 7), (7, 8), (8, 5), (6, 8)],
    )
    d, trace = construct(g)
    assert verify(g, d, 4).valid
    assert d.bit_count() <= g.m // 6
    assert trace.labels[0].startswith("Subcase 2.1")


def _assert_sound(g, expect_label=None):
    d, trace = construct(g)
    assert verify(g, d, 4).valid
    assert d.bit_count() <= (g.m + 1) // 6
    assert not trace.used_fallback()
    if expect_label is not None:
        assert trace.labels[0] == expect_label, trace.labels
    return d, trace


# Graphs that reach the two-piece assemblies: Subcase 1.1(ii) with a piece
# on each diamond carrier, and Subcase 1.2.e(i) with a family piece beside
# a remainder that is recursed on.
TWO_PIECE_BRANCHES = [
    ("Kz_GWKO?G@_B", (4, 8), ("Subcase 1.1(ii)",), 2),
    ("Lz_GWK??G__@?D", (4, 8), ("Subcase 1.1(ii)",), 2),
    ("Lz?KGCDC??_B?B", (4, 9), ("Subcase 1.1(ii)",), 2),
    ("Mz?KGCD???a@?@?A_", (6, 9), ("Subcase 1.1(ii)",), 2),
    ("Il?KGCDG?", (6,), ("Subcase 1.2.2(i)", "base:no-C4"), 1),
    ("Il?KGCdO?", (6,), ("Subcase 1.2.3(i)", "base:no-C4"), 1),
    ("Jl?KICdC??_", (0, 4), ("Subcase 1.2.4(i)", "base:no-C4"), 1),
]


@pytest.mark.parametrize("g6, members, labels, iota", TWO_PIECE_BRANCHES)
def test_two_piece_branches(g6, members, labels, iota):
    g = parse_graph6(g6)
    d, trace = construct(g)
    assert (bits(d), trace.labels) == (members, labels)
    assert verify(g, d, 4).valid and not trace.used_fallback()
    assert oracle_iota(g, 4) == iota <= d.bit_count() <= g.m // 6


def test_two_squares_double_bridge():
    g = from_edge_list(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5)],
    )
    d, _ = _assert_sound(g, "Subcase 1.2.2:G'=C4")
    assert d.bit_count() == 1


def test_two_squares_triple_bridge():
    g = from_edge_list(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6)],
    )
    d, _ = _assert_sound(g, "Subcase 1.2.3:G'=C4")
    assert d.bit_count() == 1


def test_cube_needs_two():
    g = from_edge_list(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    d, _ = _assert_sound(g, "Subcase 1.2.4:G'=C4")
    # a single closed neighbourhood leaves a claw, so the exact value is 1;
    # the construction returns 2, still within floor((12+1)/6)
    assert d.bit_count() == 2
    assert iota_exact(g, 4).iota == 1


def test_square_tied_to_member_by_two_cycle_edges():
    cp, _ = build(Tree(1, ()), 4)
    edges = cp.edges() + [(5, 6), (6, 7), (7, 8), (8, 5), (2, 5), (3, 6)]
    _assert_sound(from_edge_list(9, edges), "Subcase 1.2.2(i)")


def test_square_tied_to_member_by_three_cycle_edges():
    cp, _ = build(Tree(1, ()), 4)
    edges = cp.edges() + [(5, 6), (6, 7), (7, 8), (8, 5), (2, 5), (3, 6), (4, 7)]
    _assert_sound(from_edge_list(9, edges), "Subcase 1.2.3(i)")


def test_member_cycle_with_full_boundary():
    cp, _ = build(Tree(1, ()), 4)
    edges = cp.edges() + [(5, 6), (6, 7), (7, 8), (8, 5),
                          (2, 5), (3, 6), (4, 7), (0, 8)]
    _assert_sound(from_edge_list(9, edges), "Subcase 1.2.4(i)")


def test_diamond_span_with_two_square_components():
    g = from_edge_list(
        12,
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3),
         (4, 5), (5, 6), (6, 7), (7, 4),
         (8, 9), (9, 10), (10, 11), (11, 8),
         (0, 4), (2, 8)],
    )
    d, _ = _assert_sound(g, "Subcase 1.1(i)")
    assert d.bit_count() == 2


def test_high_degree_member_hits_membership_branch():
    star = Tree(4, ((0, 1), (0, 2), (0, 3)))
    g, decomp = build(star, 4)
    d, trace = _assert_sound(g, "Subcase 2.1(i):member")
    assert d.bit_count() == len(decomp.constituents) == 4


def test_member_on_a_path_hits_the_pendant_membership_branch():
    # cons(P2, C4): the pendant v of the working cycle is the other tree
    # vertex, and v's one neighbour in the remaining member is its anchor
    g, decomp = build(Tree(2, ((0, 1),)), 4)
    d, trace = construct(g)
    assert d == decomp.connection_vertices == 0b11
    assert trace.steps == (
        TraceStep("Subcase 1.2.1(ii):member", mask_of(range(10)), mask_of((0, 1))),
    )


def test_pendant_branch_drops_the_anchor_of_a_stray_endpoint():
    # working cycle 0-3 with pendant 4; 4 ties the anchor 5 of one hung
    # pendant cycle and the cycle vertex 13 of another, whose anchor 10
    # is dropped since 4 already covers 13
    g = from_edge_list(
        15,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (4, 13),
         (5, 6), (6, 7), (7, 8), (8, 9), (9, 6),
         (10, 11), (11, 12), (12, 13), (13, 14), (14, 11)],
    )
    d, trace = _assert_sound(g)
    assert trace.steps == (TraceStep("Subcase 1.2.1(ii)", mask_of(range(15)), mask_of((4, 5))),)


def test_pendant_branch_with_a_stray_endpoint_in_the_hung_corpus():
    g = _hung_corpus(1, 259)[258]
    d, trace = _assert_sound(g)
    assert bits(d) == (4, 5, 10, 28)
    assert TraceStep(
        "Subcase 1.2.1(ii)", mask_of((0, 2, 5, 6, 7, 8, 21, 25, 26, 30)), 1 << 5
    ) in trace.steps


def test_refined_peel_with_diamond_remainder():
    # vertex 0 ties a 4-cycle to a diamond whose apex is the unique
    # maximum-degree vertex; {0} alone suffices
    g = from_edge_list(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1),
         (5, 6), (6, 7), (7, 8), (8, 5), (6, 8),
         (0, 6)],
    )
    d, _ = _assert_sound(g, "Subcase 2.1(i)")
    assert d.bit_count() == 1 == g.m // 6


def test_refined_peel_with_stray_attachment():
    # three cycles on a star tree, plus an extra pendant-cycle piece tied to
    # a leaf at one of the piece's cycle vertices: the anchor of the tie
    # point is dropped since the tie point itself is already covered
    base, _ = build(Tree(4, ((0, 1), (0, 2), (0, 3))), 4)
    piece, _ = build(Tree(1, ()), 4)
    off = base.n
    edges = base.edges() + [(off + u, off + v) for u, v in piece.edges()]
    edges.append((1, off + 2))
    g = from_edge_list(off + 5, edges)
    d, trace = _assert_sound(g, "Subcase 2.1(i)")
    assert d.bit_count() == 4 == g.m // 6


def test_refined_peel_drops_the_anchor_of_the_first_stray_attachment():
    # as above with two extra pieces tied to leaf 1: only the anchor of the
    # first one (vertex 20) is dropped
    base, _ = build(Tree(4, ((0, 1), (0, 2), (0, 3))), 4)
    piece, _ = build(Tree(1, ()), 4)
    off = base.n
    edges = base.edges() + [(1, off + 2), (1, off + 8)]
    edges += [(off + i + u, off + i + v) for i in (0, 5) for u, v in piece.edges()]
    g = from_edge_list(off + 10, edges)
    d, trace = _assert_sound(g, "Subcase 2.1(i)")
    assert bits(d) == (0, 1, 2, 3, 25)


def test_refined_peel_drops_the_anchor_of_a_stray_remainder():
    # vertex 1, the unique maximum-degree vertex, is a cycle vertex of the
    # remainder cons(K1, C4) on 0-4, so its anchor 0 is dropped first and
    # the stray piece on 10-14 keeps its own anchor
    g = from_edge_list(
        15,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (1, 5),
         (5, 6), (6, 7), (7, 8), (8, 9), (9, 6),
         (10, 11), (11, 12), (12, 13), (13, 14), (14, 11), (5, 13)],
    )
    d, trace = _assert_sound(g)
    assert trace.steps == (
        TraceStep("Subcase 2.1(i)", mask_of(range(5, 15)), mask_of((5, 10))),
    )


def test_rescue_branch_star_over_square():
    # K_{1,4} tied to a 4-cycle by three edges into distinct leaves: one
    # well-placed cycle vertex isolates everything
    g = from_edge_list(
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4),
         (5, 6), (6, 7), (7, 8), (8, 5),
         (1, 5), (2, 6), (3, 7)],
    )
    d, trace = _assert_sound(g)
    assert "Subcase 2.2(i):rescue" in trace.labels
    assert d.bit_count() == 1 == g.m // 6


def test_subcase_2_2_i_fires_on_the_first_order_9_graph():
    # the first connected graph of order 9, in enumeration order, whose
    # trace fires Subcase 2.2(i); no graph of order at most 8 fires it
    g = parse_graph6("H??EXw{")
    d, trace = _assert_sound(g, "Subcase 2.2(i)")
    assert bits(d) == (6, 7)
    assert trace.steps == (TraceStep("Subcase 2.2(i)", mask_of(range(9)), mask_of((6, 7))),)


def test_big_combined_graph_stays_sound():
    # several family members tied into one big graph through a hub path
    t1, _ = build(Tree(2, ((0, 1),)), 4)
    base = disjoint_union(t1, diamond())
    edges = base.edges() + [(0, base.n - 1)]
    g = from_edge_list(base.n, edges)
    d, trace = construct(g)
    assert verify(g, d, 4).valid
    assert d.bit_count() <= (g.m + 1) // 6
    assert not trace.used_fallback()


@pytest.fixture(scope="module")
def members_and_hung() -> list[Graph]:
    """cons(T, 4) for every tree T on at most six vertices, then random
    graphs with hung squares and diamonds."""
    members = [build(tree, 4)[0] for t in range(1, 7) for tree in enumerate_trees(t)]
    return members + _hung_corpus(5, 150)


def test_recognize_sees_only_member_sized_pieces(monkeypatch, members_and_hung):
    # a piece reaches recognize only when its order and size fit a member's,
    # n = 5t and m = 6t - 1; recognize counts the piece's edges itself
    calls = []
    real = constructive.recognize

    def recording(g, k, within=None):
        decomp = real(g, k, within)
        calls.append((g, within, decomp))
        return decomp

    monkeypatch.setattr(constructive, "recognize", recording)
    for g in members_and_hung:
        construct(g)
    monkeypatch.undo()
    found = 0
    for g, mask, decomp in calls:
        n = mask.bit_count()
        m = sum(1 for u, v in g.edges() if mask >> u & mask >> v & 1)
        assert n % 5 == 0 and m == 6 * (n // 5) - 1
        found += decomp is not None
    # 70 member-sized pieces, 55 of them members
    assert (len(calls), found) == (70, 55)


def test_gluing_is_checked_on_every_step_that_recurses(monkeypatch, members_and_hung):
    # a branch that recurses glues onto its working set: the guard runs once
    # per such step, on that step's working set and increment, in trace order
    calls = []
    real = constructive.check_gluing_hypothesis

    def recording(g, s, d, k, within=None):
        calls.append((s, d))
        return real(g, s, d, k, within)

    monkeypatch.setattr(constructive, "check_gluing_hypothesis", recording)
    total = 0
    for g in members_and_hung:
        calls.clear()
        trace = construct(g)[1]
        assert not trace.used_fallback()
        glued = [(step.working, step.increment) for step in trace.steps if step.recursed]
        assert calls == glued
        total += len(calls)
    assert total == 332


def test_size_test_drops_no_member(monkeypatch, members_and_hung, universe7):
    # a piece skips recognize unless its order and size fit a member's; the
    # tag it gets is still the one an unconditional recognize would give
    records = []
    real = constructive._split

    def recording(g, alive):
        pieces = real(g, alive)
        records.extend((g, c) for c in pieces)
        return pieces

    monkeypatch.setattr(constructive, "_split", recording)
    for g in members_and_hung:
        construct(g)
    monkeypatch.undo()
    assert len(records) == 1223
    records += [(g, _whole(g)) for g in universe7]
    for g, c in records:
        assert (c.tag == "extremal") == (recognize(g, 4, c.mask) is not None)


def test_trees_settle_without_a_cycle_search(monkeypatch):
    # a tree piece is settled from its edge count, which also proves its
    # empty set isolates it, so no cycle search runs at all
    searches = 0
    real = constructive.find_cycle

    def counting(*args):
        nonlocal searches
        searches += 1
        return real(*args)

    monkeypatch.setattr(constructive, "find_cycle", counting)
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            searches = 0
            d, trace = construct(from_edge_list(tree.n, tree.edges))
            assert d == 0
            assert trace.steps == (TraceStep("base:no-C4", 0, 0),)
            assert searches == 0


def test_each_search_is_a_probe_or_a_leaf_check(monkeypatch, members_and_hung):
    # every non-tree piece is probed for a 4-cycle once, and every leaf step
    # but a "base:no-C4" one is checked once; a glued step or a "base:no-C4"
    # piece is proved by its own facts, not by a second search
    searches = 0
    real_search = constructive.find_cycle

    def counting(*args):
        nonlocal searches
        searches += 1
        return real_search(*args)

    pieces = []
    real_dispatch = constructive._dispatch

    def recording(g, piece):
        pieces.append(piece)
        return real_dispatch(g, piece)

    monkeypatch.setattr(constructive, "find_cycle", counting)
    monkeypatch.setattr(constructive, "_dispatch", recording)
    for g in members_and_hung:
        searches = 0
        pieces.clear()
        trace = construct(g)[1]
        assert not trace.used_fallback()
        non_trees = sum(1 for c in pieces if c.m != c.mask.bit_count() - 1)
        checked_leaves = sum(
            1 for step in trace.steps if not step.recursed and step.label != "base:no-C4"
        )
        assert searches == non_trees + checked_leaves


def test_trees_settle_where_they_are_split(monkeypatch, members_and_hung):
    # _solve_pieces settles a tree piece with the shared "base:no-C4" step,
    # so _construct runs once per other piece, in trace order, and
    # _dispatch never sees a tree
    constructed = []
    dispatched = []
    real_construct = constructive._construct
    real_dispatch = constructive._dispatch

    def recording_construct(g, piece):
        constructed.append(piece.mask)
        return real_construct(g, piece)

    def recording_dispatch(g, piece):
        dispatched.append(piece)
        return real_dispatch(g, piece)

    monkeypatch.setattr(constructive, "_construct", recording_construct)
    monkeypatch.setattr(constructive, "_dispatch", recording_dispatch)
    steps = trees = 0
    for g in members_and_hung:
        constructed.clear()
        trace = construct(g)[1]
        assert not trace.used_fallback()
        pieces = trace_pieces(g, trace)
        tree = [
            sum((g.adj[v] & p).bit_count() for v in bits(p)) // 2 == p.bit_count() - 1
            for p in pieces
        ]
        assert constructed == [p for p, t in zip(pieces, tree) if not t]
        assert all(s.label == "base:no-C4" for s, t in zip(trace.steps, tree) if t)
        steps += len(pieces)
        trees += sum(tree)
    assert all(c.m != c.mask.bit_count() - 1 for c in dispatched)
    assert len(dispatched) == steps - trees
    # 839 pieces, 426 of them trees that never reach _construct
    assert (steps, trees) == (839, 426)


def test_construct_traces_check_as_proofs(members_and_hung, universe7):
    # the independent checker in util rebuilds each step's piece and checks
    # cover, gluing, leaf isolation and the per-step budget
    order7 = [g for g in universe7 if _whole(g).tag != "C4"]
    assert len(order7) == len(universe7) - 1
    for g in members_and_hung + order7:
        d, trace = construct(g)
        check_trace(g, d, trace)


def test_member_oracle_agrees_with_the_piece_tags(monkeypatch, members_and_hung):
    # the checker's budget rests on its own membership test; on every piece
    # the recursion splits off it must agree with the record's tag
    records = []
    real = constructive._split

    def recording(g, alive):
        pieces = real(g, alive)
        records.extend((g, c) for c in pieces)
        return pieces

    monkeypatch.setattr(constructive, "_split", recording)
    for g in members_and_hung:
        construct(g)
    assert sum(c.tag == "extremal" for _, c in records) == 55
    for g, c in records:
        assert oracle_is_member(g, c.mask) == (c.tag == "extremal")


def _broken(trace: CaseTrace, i: int, **fields) -> CaseTrace:
    steps = list(trace.steps)
    steps[i] = replace(steps[i], **fields)
    return CaseTrace(tuple(steps))


def test_trace_checker_refuses_each_broken_fact():
    g = k23_with_tail(9)
    d, trace = construct(g)
    check_trace(g, d, trace)
    assert trace.steps[0] == TraceStep(
        "Case 2:no-special", mask_of((0, 1, 2, 3, 5)), 1 << 5, (1 << 4, mask_of((6, 7, 8)))
    )
    k4 = complete(4)
    k4_set, k4_trace = construct(k4)
    cases = [
        (
            g,
            d,
            _broken(trace, 0, recursed=(1 << 4, mask_of((6, 7)))),
            "not the components of P - S",
        ),
        # with no increment, the star at 5 sends three edges to 4
        (g, 0, _broken(trace, 0, increment=0), "sends two edges out of S"),
        (k4, k4_set, _broken(k4_trace, 0, increment=0), "leaves a 4-cycle in its piece"),
        (k4, 0b11, _broken(k4_trace, 0, increment=0b11), "overspends its budget"),
        (g, d | 1, trace, "not the union"),
        (g, d, CaseTrace(trace.steps + trace.steps[-1:]), "no piece left"),
        (g, d, CaseTrace(trace.steps[:-1]), "have no step"),
    ]
    for h, h_set, h_trace, message in cases:
        with pytest.raises(AssertionError, match=message):
            check_trace(h, h_set, h_trace)


def test_construct_calls_no_validating_set_helper(monkeypatch, members_and_hung):
    # the recursion builds every mask from the input's own rows, so it
    # calls the unchecked kernels, never the public helpers that validate
    def refuse(*args):
        raise AssertionError("construct validated a mask it built itself")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cycleiso":
            for helper in ("closed_neighborhood", "boundary_edge_count"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, refuse)
    fired = set()
    for g in members_and_hung:
        d, trace = construct(g)
        assert verify(g, d, 4).valid
        fired.update(trace.labels)
    assert len(fired) >= 16


#: sha256 of the lines f"{d} {steps}\n" of construct over the 261,080 classes
#: of order 9, in code order, with each trace step written by step_ids
ORDER9_CONSTRUCT_DIGEST = "02f4655f776310abae6606b326bb8e286b837a0a6bc19b9078cbb3b7cd436436"

#: trace labels that construct never fires at order 9 (20 of 28 fire)
ORDER9_UNFIRED = frozenset(
    {
        "Subcase 1.2.1(ii):member",
        "Subcase 1.2.2:G'=C4",
        "Subcase 1.2.3:G'=C4",
        "Subcase 1.2.4:G'=C4",
        "Subcase 2.1(i):member",
        "Subcase 2.1(ii)",
        "Subcase 2.2(ii)",
        "fallback",
    }
)


@pytest.mark.slow
def test_order9_construct_sweep():
    digest = hashlib.sha256()
    fired = set()
    try:
        codes = _connected_codes(9)
    finally:
        _connected_codes.cache_clear()
    assert len(codes) == 261080
    for code in codes:
        g = graph_from_code(9, code)
        d, trace = construct(g)
        assert verify(g, d, 4).valid, code
        assert d.bit_count() <= (g.m + 1) // 6, code
        check_trace(g, d, trace)
        fired.update(trace.labels)
        digest.update(f"{d} {tuple(map(step_ids, trace.steps))}\n".encode())
    assert TRACE_LABELS - fired == ORDER9_UNFIRED
    assert digest.hexdigest() == ORDER9_CONSTRUCT_DIGEST
