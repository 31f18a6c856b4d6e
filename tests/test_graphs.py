import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleiso.graphs import (
    GRAPH6_MAX_N,
    Graph,
    GraphFormatError,
    adjacency_from_code,
    bits,
    boundary_edge_count,
    closed_neighborhood,
    closed_of,
    components,
    edges_between,
    encode_graph6,
    from_edge_list,
    graph_from_code,
    mask_of,
    parse_edge_list,
    parse_graph6,
)
from util import (
    EDGE_LIST_ERRORS,
    c4_plus,
    complete,
    cycle,
    diamond,
    disjoint_union,
    format_edge_list,
    graph_from_bitmask,
    induced_subgraph,
    oracle_components,
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
    "n, edges, message",
    [
        (-1, [], "vertex count must be non-negative"),
        (3, [(0, 1), (2, 2)], "loop edge at vertex 2"),
        (3, [(0, 1), (-1, 2)], "edge (-1, 2) outside id range 0..2"),
        (3, [(1, 3)], "edge (1, 3) outside id range 0..2"),
    ],
    ids=["negative-n", "loop", "negative-id", "id-too-large"],
)
def test_from_edge_list_error_messages(n, edges, message):
    with pytest.raises(ValueError) as err:
        from_edge_list(n, edges)
    assert str(err.value) == message


def test_from_edge_list_equals_the_checked_constructor():
    # from_edge_list skips Graph's checks; its graph is the one Graph(n, rows)
    # validates, duplicates and both orders of a pair collapsing to one edge
    rng = random.Random(30)
    for _ in range(500):
        n = rng.randrange(0, 14)
        pairs = [(u, v) for v in range(n) for u in range(v)]
        edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
        edges += rng.choices(edges, k=rng.randrange(4)) if edges else []
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g, h = from_edge_list(n, edges), Graph(n, rows)
        assert (g.adj, g.m) == (h.adj, h.m) == (tuple(rows), len(set(map(frozenset, edges))))
        assert g == h and hash(g) == hash(h)


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
    assert components(g.adj, g.full_mask) == [(g.full_mask, 4)]


def test_connected_components_union():
    g = disjoint_union(cycle(4), diamond())
    comps = components(g.adj, g.full_mask)
    split = [induced_subgraph(g, mask) for mask, _ in comps]
    assert [emb for _, emb in split] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert [sub.n for sub, _ in split] == [4, 4]
    assert [sub.m for sub, _ in split] == [m for _, m in comps] == [4, 5]


def test_connected_components_empty_graph():
    assert components(from_edge_list(0, []).adj, 0) == []
    assert components(cycle(4).adj, 0) == []


def _brute_edge_count(g: Graph, mask: int) -> int:
    inside = [v for v in range(g.n) if mask >> v & 1]
    return sum(g.adj[u] >> v & 1 for u in inside for v in inside if u < v)


def test_components_count_edges_by_brute_force():
    # isolated vertices are pieces of no edges; a mask that cuts a cycle
    # leaves a path
    g = disjoint_union(from_edge_list(3, [(1, 2)]), cycle(5))
    assert components(g.adj, g.full_mask) == [(0b1, 0), (0b110, 1), (0b11111000, 5)]
    assert components(g.adj, 0b11011001) == [(0b1, 0), (0b11011000, 3)]
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 11)
        pairs = n * (n - 1) // 2
        h = graph_from_bitmask(n, rng.getrandbits(pairs) & rng.getrandbits(pairs))
        for alive in (0, h.full_mask, rng.getrandbits(n)):
            comps = components(h.adj, alive)
            assert [mask for mask, _ in comps] == [mask for mask, _ in oracle_components(h, alive)]
            assert [m for _, m in comps] == [_brute_edge_count(h, mask) for mask, _ in comps]


def test_components_partition_and_no_cross_edges():
    g = disjoint_union(c4_plus(), cycle(3))
    masks = [mask for mask, _ in components(g.adj, g.full_mask)]
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
    with pytest.raises(ValueError, match="^boundary_edge_count requires disjoint vertex sets$"):
        boundary_edge_count(cycle(4), {0, 1}, {1, 2})


OUTSIDE_IDS = "^vertex set contains ids outside 0..n-1$"


@pytest.mark.parametrize(
    "helper, sets",
    [
        (closed_neighborhood, ({4},)),
        (closed_neighborhood, (1 << 4,)),
        (closed_neighborhood, (0b1111 | 1 << 70,)),
        (closed_neighborhood, (-1,)),
        (closed_neighborhood, ({2, -1},)),
        (boundary_edge_count, ({0}, {4})),
        (boundary_edge_count, (1 << 5, 0b10)),
        (boundary_edge_count, (-2, 1)),
        (boundary_edge_count, (1, -(1 << 64))),
        (boundary_edge_count, ([-2], {0})),
    ],
)
def test_public_set_helpers_reject_ids_outside_the_graph(helper, sets):
    # the unchecked kernels behind them leave this to their callers
    with pytest.raises(ValueError, match=OUTSIDE_IDS):
        helper(cycle(4), *sets)


def _edge_scan_closed(g: Graph, s: int) -> int:
    out = s
    for u, v in g.edges():
        if s >> u & 1:
            out |= 1 << v
        if s >> v & 1:
            out |= 1 << u
    return out


def _edge_scan_between(g: Graph, a: int, b: int) -> int:
    return sum(1 for u, v in g.edges() if (a >> u & b >> v | a >> v & b >> u) & 1)


@settings(max_examples=200)
@given(st.data())
def test_mask_kernels_match_the_checked_helpers(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    nbits = n * (n - 1) // 2
    g = graph_from_bitmask(n, data.draw(st.integers(min_value=0, max_value=(1 << nbits) - 1)))
    s = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    a = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    b = data.draw(st.integers(min_value=0, max_value=g.full_mask)) & ~a
    assert closed_of(g.adj, s) == closed_neighborhood(g, s) == _edge_scan_closed(g, s)
    assert edges_between(g.adj, a, b) == boundary_edge_count(g, a, b) == _edge_scan_between(g, a, b)
    # e(S, S) counts each edge inside S from both ends
    assert edges_between(g.adj, s, s) == 2 * _edge_scan_between(g, s, s)


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


def _assert_decodes_as_checked(n: int, code: int) -> None:
    g = graph_from_code(n, code)
    checked = Graph(n, adjacency_from_code(n, code))
    assert g.adj == checked.adj and g.m == checked.m
    assert hash(g) == hash(checked) and g == checked


def test_graph_from_code_matches_the_checked_constructor(connected_codes8):
    # every code of orders <= 6, every order-7 class code and a seeded
    # sample of order-7 codes, and seeded random codes at every density for
    # n = 0, 1 and 9..30
    for n in range(7):
        for code in range(1 << (n * (n - 1) // 2)):
            _assert_decodes_as_checked(n, code)
    rng = random.Random(24)
    for code in connected_codes8[6]:
        _assert_decodes_as_checked(7, code)
    for _ in range(2000):
        _assert_decodes_as_checked(7, rng.getrandbits(21))
    for n in [0, 1, *range(9, 31)]:
        nbits = n * (n - 1) // 2
        for p in (0.0, 0.05, 0.5, 0.95, 1.0):
            code = sum(1 << b for b in range(nbits) if rng.random() < p)
            _assert_decodes_as_checked(n, code)


@pytest.mark.parametrize("n, code", [(3, 8), (3, -1), (0, 1), (1, 1), (GRAPH6_MAX_N + 1, 0)])
def test_graph_from_code_rejects_codes_outside_the_pairs(n, code):
    with pytest.raises(ValueError):
        graph_from_code(n, code)


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


def _assert_decoded_graphs_write_their_pair_bits(n: int, code: int) -> None:
    """Both decoders keep the pair bits: the parsed and the decoded graph
    each write the input line back, as the row walk writes the same rows
    built through Graph, and each is equal to, and hashes like, those rows."""
    line = reference_graph6(n, reference_adjacency(n, code))
    for g in (parse_graph6(line), graph_from_code(n, code)):
        rows = Graph(g.n, g.adj)
        assert encode_graph6(g) == line == encode_graph6(rows)
        assert g == rows and hash(g) == hash(rows)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 30, GRAPH6_MAX_N])
def test_decoded_graphs_write_their_pair_bits(n):
    rng = random.Random(28 + n)
    nbits = n * (n - 1) // 2
    for p in (0.0, 0.05, 0.5, 0.95, 1.0):
        _assert_decoded_graphs_write_their_pair_bits(
            n, sum(1 << b for b in range(nbits) if rng.random() < p)
        )


@settings(max_examples=200)
@given(st.data())
def test_decoded_graphs_write_their_pair_bits_random(data):
    n = data.draw(st.integers(min_value=0, max_value=20))
    code = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    _assert_decoded_graphs_write_their_pair_bits(n, code)


def test_kept_pair_bits_can_be_neither_set_nor_deleted():
    # the C4 0-1-2-3-0 has pair bits 101101 = 45, written "Cl"
    for g in (parse_graph6("Cl"), graph_from_code(4, 45), cycle(4)):
        with pytest.raises(AttributeError, match="^Graph is immutable$"):
            g._code = 0
        with pytest.raises(AttributeError, match="^Graph is immutable$"):
            del g._code
        assert encode_graph6(g) == "Cl"


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


@pytest.mark.parametrize("text, message", EDGE_LIST_ERRORS.values(), ids=EDGE_LIST_ERRORS.keys())
def test_edge_list_errors_cite_their_line(text, message):
    # ids are ASCII decimal integers; from_edge_list's loop and range errors gain the line
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


@pytest.mark.parametrize("sep", ["\x85", "\x0b", "\u2028"])
def test_edge_list_lines_break_only_at_newline(sep):
    # str.splitlines would also break at these, one line ahead of grep -n
    with pytest.raises(GraphFormatError, match=r"^line 3: edge \(1, 5\) outside id range 0\.\.2$"):
        parse_edge_list(f"n 3\n0 1{sep}\n1 5\n")


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


@pytest.mark.parametrize("mask", [-1, -2, -255, -256, -(1 << 64), -(1 << 200) + 1])
def test_bits_rejects_a_negative_mask(mask):
    with pytest.raises(ValueError, match="^a vertex mask cannot be negative$"):
        bits(mask)
