import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleiso.graphs import (
    GRAPH6_MAX_N,
    Graph,
    GraphFormatError,
    adjacency_from_code,
    bit_set,
    bits,
    boundary_edge_count,
    closed_neighborhood,
    component_masks,
    encode_graph6,
    from_edge_list,
    mask_of,
    parse_edge_list,
    parse_graph6,
)
from util import (
    c4_plus,
    complete,
    cycle,
    diamond,
    disjoint_union,
    format_edge_list,
    graph_from_bitmask,
    induced_subgraph,
    reference_adjacency,
    reference_graph6,
    reference_graph_error,
    reference_parse_graph6,
    relabel,
)


def random_rows(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


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


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (-1, [], "vertex count must be non-negative"),
        (3, [0b110, 0b101], "adjacency length must equal vertex count"),
        (3, [0b1010, 0b1, 0b0, 0b1], "adjacency length must equal vertex count"),
        (3, [0b1010, 0b1, 0b0], "vertex 0 has a neighbour id >= 3"),
        (3, [0b010, 0b011, 0b000], "vertex 1 is adjacent to itself"),
        (3, [0b110, 0b001, 0b000], "adjacency not symmetric at (0, 2)"),
        # rows are checked for ids and loops before any pair for symmetry
        (3, [0b010, 0b000, 0b1000], "vertex 2 has a neighbour id >= 3"),
        (3, [0b010, 0b000, 0b100], "vertex 2 is adjacent to itself"),
        (3, [-1, 0b000, 0b000], "vertex 0 has a neighbour id >= 3"),
        # (2, 1) lacks its mirror below the diagonal, but (0, 2) comes first
        (3, [0b100, 0b000, 0b010], "adjacency not symmetric at (0, 2)"),
        # every pair below the diagonal has its mirror; (1, 3) above has none
        (4, [0b0010, 0b1001, 0b0000, 0b0000], "adjacency not symmetric at (1, 3)"),
    ],
    ids=[
        "negative-n", "short", "long", "id-out-of-range", "self-loop", "asymmetric",
        "ids-before-symmetry", "loop-before-symmetry", "negative-row",
        "first-pair-in-scan-order", "pair-above-only",
    ],
)
def test_graph_constructor_error_messages(n, adj, message):
    with pytest.raises(ValueError) as err:
        Graph(n, adj)
    assert str(err.value) == message


def test_graph_constructor_matches_the_reference_on_corrupted_rows():
    rng = random.Random(16)
    for _ in range(2000):
        n = rng.randrange(1, 12)
        adj = random_rows(rng, n, rng.random())
        for _ in range(rng.randrange(1, 4)):
            v = rng.randrange(n)
            adj[v] ^= 1 << rng.randrange(n + (rng.random() < 0.1))
        message = reference_graph_error(n, adj)
        if message is None:
            assert Graph(n, adj).adj == tuple(adj)
            continue
        with pytest.raises(ValueError) as err:
            Graph(n, adj)
        assert str(err.value) == message


def test_edge_count_is_a_stored_popcount(universe7):
    rng = random.Random(7)
    graphs = universe7 + [Graph(n, random_rows(rng, n, 0.3)) for n in range(40)]
    for g in graphs:
        assert g.m == sum(row.bit_count() for row in g.adj) // 2
    with pytest.raises(AttributeError):
        graphs[-1].m = 0


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
        for kept in bits(alive):
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
        seen.extend(bits(m))
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
    deg3 = {v for v in range(4) if g.adj[v].bit_count() == 3}
    deg2 = {v for v in range(4) if g.adj[v].bit_count() == 2}
    # oracle: count by scanning the edge list
    expected = sum(1 for u, v in g.edges() if (u in deg3) != (v in deg3))
    assert expected == 4
    assert boundary_edge_count(g, deg3, deg2) == 4


def test_boundary_rejects_overlap():
    with pytest.raises(ValueError):
        boundary_edge_count(cycle(4), {0, 1}, {1, 2})


# -- graph6 --------------------------------------------------------------------


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
    assert reference_graph6(4, cycle(4).adj) == "Cl"


def test_graph6_matches_reference_small():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_bitmask(n, mask)
            assert encode_graph6(g) == reference_graph6(g.n, g.adj)


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


def test_graph6_codec_matches_the_bitwise_reference_for_every_order():
    # n(n-1)/2 mod 24 has period 48 in n, so n = 0..62 meets every fill of
    # the last 6-bit group and of the last 24-bit base64 block
    rng = random.Random(6)
    for n in range(GRAPH6_MAX_N + 1):
        nbits = n * (n - 1) // 2
        for p in (0.0, 0.05, 0.5, 0.95, 1.0):
            g = Graph(n, random_rows(rng, n, p))
            text = encode_graph6(g)
            assert text == reference_graph6(n, g.adj)
            assert reference_parse_graph6(text) == (n, list(g.adj))
            assert parse_graph6(text) == g
            assert parse_graph6(text.encode()) == g
        code = rng.getrandbits(nbits) if nbits else 0
        assert adjacency_from_code(n, code) == reference_adjacency(n, code)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        (" \n", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("~??", "graph6 orders above 62 are not supported"),
        ("~?" + "?" * 100, "graph6 orders above 62 are not supported"),
        ("#?", "bad graph6 order byte 35"),
        (b"\x7f?", "bad graph6 order byte 127"),
        ("C~~", "graph6 string has 3 bytes, expected 2"),
        ("E?", "graph6 string has 2 bytes, expected 4"),
        ("C" + chr(30), "graph6 byte 30 outside printable range 63..126"),
        ("E?\x7f" + chr(30), "graph6 byte 127 outside printable range 63..126"),
        (b"E?>\xe9", "graph6 byte 62 outside printable range 63..126"),
        ("B@", "graph6 padding bits are not zero"),
        ("D?A", "graph6 padding bits are not zero"),
        ("C\u00e9", "non-ASCII character '\u00e9' in graph6 text"),
    ],
)
def test_graph6_error_messages(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(text)
    assert str(err.value) == message


def test_graph6_header_and_whitespace_are_accepted():
    assert parse_graph6(">>graph6<<C~") == complete(4)
    assert parse_graph6(b" >>graph6<<Cl\n") == cycle(4)


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
    assert bits(g.full_mask) == (0, 1, 2, 3)


def test_graph_attributes_cannot_be_deleted():
    g = cycle(4)
    for name in ("n", "adj", "m"):
        with pytest.raises(AttributeError, match="^Graph is immutable$"):
            delattr(g, name)
    assert (g.n, g.adj, g.m) == (4, cycle(4).adj, 4)


def test_bit_set_matches_bits():
    rng = random.Random(62)
    rows = list(range(4096)) + [rng.getrandbits(rng.randint(1, 62)) for _ in range(2000)]
    for row in rows:
        assert bit_set(row) == frozenset(bits(row))


def _reference_bits(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_bits_matches_a_per_bit_reference():
    rng = random.Random(63)
    masks = [0]
    for i in range(0, 321, 8):  # every byte boundary up to 2^320
        masks += [1 << i, (1 << i) - 1, (1 << i) + 1, ((1 << i) - 1) << 1]
        masks += [(1 << i) | rng.getrandbits(max(i, 1)) for _ in range(3)]
    masks += [rng.getrandbits(rng.randint(1, 62)) for _ in range(3000)]
    masks += [rng.getrandbits(rng.randint(64, 200)) for _ in range(500)]
    masks += [rng.getrandbits(rng.randint(240, 320)) for _ in range(200)]
    masks += [rng.getrandbits(8) << rng.randint(56, 312) for _ in range(300)]
    masks.append(1 << 200)
    for mask in masks:
        assert bits(mask) == _reference_bits(mask), mask
        assert bit_set(mask) == frozenset(_reference_bits(mask))


@pytest.mark.parametrize("mask", [-1, -2, -255, -256, -(1 << 64), -(1 << 200) + 1])
def test_bits_rejects_a_negative_mask(mask):
    with pytest.raises(ValueError, match="^a vertex mask cannot be negative$"):
        bits(mask)
    with pytest.raises(ValueError, match="^a vertex mask cannot be negative$"):
        bit_set(mask)
