import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleiso.graphs import (
    GraphFormatError,
    boundary_edge_count,
    closed_neighborhood,
    component_masks,
    encode_graph6,
    format_edge_list,
    from_edge_list,
    mask_of,
    parse_edge_list,
    parse_graph6,
    relabel,
    vertices_of,
)
from util import (
    c4_plus,
    complete,
    cycle,
    diamond,
    disjoint_union,
    graph_from_bitmask,
    induced_subgraph,
)


def test_from_edge_list_c4():
    g = cycle(4)
    assert g.m == 4
    assert g.degrees() == (2, 2, 2, 2)


def test_from_edge_list_diamond_degrees():
    assert diamond().degrees() == (2, 3, 2, 3)


def test_from_edge_list_rejects_loop():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_closed_neighborhood_on_c4():
    g = cycle(4)
    assert closed_neighborhood(g, {0}) == mask_of([3, 0, 1])


def test_closed_neighborhood_empty_and_full():
    g = diamond()
    assert closed_neighborhood(g, 0) == 0
    assert closed_neighborhood(g, g.full_mask) == g.full_mask


def test_closed_neighborhood_contains_input():
    g = c4_plus()
    for v in range(g.n):
        assert closed_neighborhood(g, {v}) & (1 << v)


def test_delete_closed_neighborhood_c4():
    g = cycle(4)
    alive = g.full_mask & ~closed_neighborhood(g, {0})
    assert alive == 1 << 2
    rest, emb = induced_subgraph(g, alive)
    assert rest.n == 1 and rest.m == 0
    assert emb == (2,)


def test_delete_closed_neighborhood_diamond_apex():
    g = diamond()
    alive = g.full_mask & ~closed_neighborhood(g, {1})
    assert alive == 0
    rest, emb = induced_subgraph(g, alive)
    assert rest.n == 0 and emb == ()


def test_delete_closed_neighborhood_pendant_cycle():
    # pendant vertex 4 anchors the cycle at 0; oracle: N[{4}] = {4, 0},
    # survivors 1, 2, 3 carry the two surviving cycle edges
    g = c4_plus()
    rest, emb = induced_subgraph(g, g.full_mask & ~closed_neighborhood(g, {4}))
    assert emb == (1, 2, 3)
    assert rest.m == 2


def test_deleted_vertices_not_adjacent_to_members():
    g = c4_plus()
    for v in range(g.n):
        alive = g.full_mask & ~closed_neighborhood(g, {v})
        for kept in vertices_of(alive):
            assert not g.adj[v] >> kept & 1 and kept != v


def test_connected_components_single():
    g = cycle(4)
    masks = component_masks(g)
    assert masks == [g.full_mask]
    sub, _ = induced_subgraph(g, masks[0])
    assert sub == g


def test_connected_components_union():
    g = disjoint_union(cycle(4), diamond())
    split = [induced_subgraph(g, m) for m in component_masks(g)]
    assert [emb for _, emb in split] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert [sub.n for sub, _ in split] == [4, 4]
    assert [sub.m for sub, _ in split] == [4, 5]


def test_connected_components_empty_graph():
    assert component_masks(from_edge_list(0, [])) == []


def test_components_partition_and_no_cross_edges():
    g = disjoint_union(c4_plus(), cycle(3))
    masks = component_masks(g)
    seen = []
    for m in masks:
        seen.extend(vertices_of(m))
    assert sorted(seen) == list(range(g.n))
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert boundary_edge_count(g, masks[i], masks[j]) == 0


def test_boundary_antipodal_c4():
    assert boundary_edge_count(cycle(4), {0}, {2}) == 0


def test_boundary_halves_c4():
    assert boundary_edge_count(cycle(4), {0, 1}, {2, 3}) == 2


def test_boundary_diamond_degree_classes():
    g = diamond()
    deg3 = {v for v in range(4) if g.degree(v) == 3}
    deg2 = {v for v in range(4) if g.degree(v) == 2}
    # oracle: count by scanning the edge list
    expected = sum(1 for u, v in g.edges() if (u in deg3) != (v in deg3))
    assert expected == 4
    assert boundary_edge_count(g, deg3, deg2) == 4


def test_boundary_rejects_overlap():
    with pytest.raises(ValueError):
        boundary_edge_count(cycle(4), {0, 1}, {1, 2})


# -- graph6 --------------------------------------------------------------------


def reference_graph6(g) -> str:
    """Independent graph6 writer: explicit bit-string assembly."""
    bits = ""
    for j in range(1, g.n):
        for i in range(j):
            bits += "1" if g.adj[i] >> j & 1 else "0"
    bits += "0" * (-len(bits) % 6)
    out = chr(g.n + 63)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i : i + 6], 2) + 63)
    return out


def test_graph6_k4_constant():
    k4 = complete(4)
    assert encode_graph6(k4) == "C~"
    assert parse_graph6("C~") == k4


def test_graph6_empty_graph():
    g = from_edge_list(0, [])
    assert encode_graph6(g) == "?"
    assert parse_graph6("?").n == 0


def test_graph6_c4_byte():
    # bits x(0,1)..x(2,3) = 1,0,1,1,0,1 -> value 45 -> byte 108 = 'l'
    assert encode_graph6(cycle(4)) == "Cl"
    assert reference_graph6(cycle(4)) == "Cl"


def test_graph6_matches_reference_small():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_bitmask(n, mask)
            assert encode_graph6(g) == reference_graph6(g)


def test_graph6_rejects_bad_length():
    with pytest.raises(GraphFormatError):
        parse_graph6("C~~")


def test_graph6_rejects_out_of_range_byte():
    with pytest.raises(GraphFormatError):
        parse_graph6("C" + chr(30))


def test_graph6_rejects_non_ascii_text():
    with pytest.raises(GraphFormatError, match="non-ASCII"):
        parse_graph6("C\u00e9")


def test_graph6_rejects_large_order_header():
    with pytest.raises(GraphFormatError):
        parse_graph6("~??" + "?" * 100)


@settings(max_examples=200)
@given(st.data())
def test_graph6_roundtrip_random(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    nbits = n * (n - 1) // 2
    mask = data.draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    g = graph_from_bitmask(n, mask)
    assert parse_graph6(encode_graph6(g)) == g


@settings(max_examples=100)
@given(st.data())
def test_relabel_preserves_structure(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    nbits = n * (n - 1) // 2
    mask = data.draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    perm = data.draw(st.permutations(range(n)))
    g = graph_from_bitmask(n, mask)
    h = relabel(g, perm)
    assert sorted(h.degrees()) == sorted(g.degrees())
    assert h.m == g.m


def test_edge_list_text_roundtrip():
    g = c4_plus()
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_text_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 1\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 3\n0\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 3\n0 x\n")
    # blank lines still count: the error cites the physical line
    with pytest.raises(GraphFormatError, match="^line 3: non-integer vertex id$"):
        parse_edge_list("n 3\n\n0 x\n")
    with pytest.raises(GraphFormatError, match='^line 2: edge-list input must start with a "n'):
        parse_edge_list("\n3\n0 1\n")


def test_graph_immutable_and_hashable():
    g = cycle(4)
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == cycle(4)
    assert len({g, cycle(4)}) == 1
    assert vertices_of(g.full_mask) == (0, 1, 2, 3)
