import gc
import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from cycleiso.family import Tree, build, enumerate_trees
from cycleiso.graphs import (
    Graph,
    GraphFormatError,
    bits,
    encode_graph6,
    from_edge_list,
    parse_graph6,
)
from cycleiso.isolation import iota_exact
from cycleiso.survey import (
    BoundSpec,
    IngestFailure,
    _admitted_hoods,
    _canonical_search,
    _connected_codes,
    _is_least_deletion,
    _least_non_cut,
    _mask_orbit_representatives,
    _refine,
    _twin_swaps,
    canonical_code,
    check_graph,
    conjecture_bound,
    enumerate_connected,
    graph_from_code,
    ingest_graph6,
    survey,
)
from util import (
    complete,
    cycle,
    diamond,
    disjoint_union,
    graph_from_bitmask,
    oracle_automorphism_count,
    oracle_components,
    oracle_connected_class_count,
    oracle_is_least_deletion,
    oracle_mask_orbit_minima,
    oracle_refine,
    path,
    relabel,
)


def test_enumerate_counts_match_known_values():
    assert [len(list(enumerate_connected(n))) for n in range(1, 8)] == [
        1, 1, 2, 6, 21, 112, 853,
    ]


def test_enumerate_counts_match_naive_oracle_small():
    for n in range(1, 6):
        assert len(list(enumerate_connected(n))) == oracle_connected_class_count(n)


@pytest.fixture
def cold_enumeration_cache():
    _connected_codes.cache_clear()
    yield
    _connected_codes.cache_clear()


def test_least_deletion_filter_matches_unfiltered_augmentation(
    cold_enumeration_cache, monkeypatch
):
    # the filter may drop candidates but never a class: rebuild each order
    # from the previous one by canonicalising every one-vertex augmentation
    calls = []

    def counting(n, adj):
        calls.append(n)
        return canonical_code(n, adj)

    # through sys.modules: the package attribute cycleiso.survey is the survey() function
    monkeypatch.setattr(sys.modules["cycleiso.survey"], "canonical_code", counting)
    _connected_codes(7)
    assert len(calls) == 1028
    monkeypatch.undo()
    for n in range(2, 8):
        codes = set()
        for parent_code in _connected_codes(n - 1):
            parent = graph_from_code(n - 1, parent_code)
            for hood in range(1, 1 << (n - 1)):
                adj = list(parent.adj) + [hood]
                for u in bits(hood):
                    adj[u] |= 1 << (n - 1)
                codes.add(canonical_code(n, adj))
        assert tuple(sorted(codes)) == _connected_codes(n)


def _symmetric_stream(seed: int, count: int) -> list[Graph]:
    """Shuffled graphs of 9-30 vertices with large symmetric cells: random
    trees with a sparse overlay and hung 4-cycles or diamonds, and
    cons(T, C_k) for random trees T at k = 4 and 5."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2:
            k = 4 + i % 4 // 2
            t = rng.randint(2, 30 // (k + 1))
            g = build(Tree(t, tuple((rng.randrange(v), v) for v in range(1, t))), k)[0]
            n, edges = g.n, g.edges()
        else:
            n = rng.randint(9, 18)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1 / n]
            for _ in range(rng.randint(0, 3)):
                a = rng.randrange(n)
                edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n + 3, n), (a, n)]
                if rng.random() < 0.5:
                    edges.append((n, n + 2))
                n += 4
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(from_edge_list(n, [(perm[u], perm[v]) for u, v in edges]))
    return out


def _oracle_least_non_cut(g: Graph) -> tuple[int, int]:
    non_cut = [
        v for v in range(g.n) if len(oracle_components(g, g.full_mask & ~(1 << v))) <= 1
    ]
    d0 = min(g.adj[v].bit_count() for v in non_cut)
    return d0, sum(1 << v for v in non_cut if g.adj[v].bit_count() == d0)


def test_least_non_cut_matches_brute_force(universe7):
    # K3-v-K3 (order 7) is the smallest graph with a cut vertex of least degree
    for g in universe7 + _symmetric_stream(5, 40):
        assert _least_non_cut(g.adj) == _oracle_least_non_cut(g)


def test_degree_prefilter_drops_only_hoods_the_filter_rejects():
    # the parent's least degree d0 over its non-cut vertices bounds every
    # child that can pass the least-deletion test
    for n in range(2, 8):
        for parent_code in _connected_codes(n - 1):
            parent = graph_from_code(n - 1, parent_code)
            d0, least = _oracle_least_non_cut(parent)
            _, gens = _canonical_search(parent.n, parent.adj)
            for hood in _mask_orbit_representatives(gens, range(1, 1 << parent.n)):
                size = hood.bit_count()
                if size > d0 + 1 or size == d0 + 1 and least & ~hood:
                    adj = [row | 1 << (n - 1) if hood >> u & 1 else row
                           for u, row in enumerate(parent.adj)]
                    assert not _is_least_deletion(adj + [hood])


def _admitted(hood: int, d0: int, least: int) -> bool:
    """The degree prefilter's rule: at most d0 vertices, or d0 + 1 that
    hold every least-degree non-cut vertex."""
    size = hood.bit_count()
    return size <= d0 or size == d0 + 1 and not least & ~hood


def _oracle_admitted_minima(g: Graph, gens, d0: int, least: int) -> list[int]:
    """Admitted masks that no element of the group gens generate maps below
    themselves, the group listed in full."""
    group = group_elements(g.n, gens)
    return [
        hood for hood in range(1, 1 << g.n)
        if _admitted(hood, d0, least)
        and all(sum(1 << p[v] for v in bits(hood)) >= hood for p in group)
    ]


def test_admitted_hood_walk_matches_brute_force(universe7):
    # the walk over admitted hoods must give exactly the orbit minima the
    # degree rule admits, for every parent the enumerator extends up to
    # order 8: Aut(P) keeps d0 and the least-degree non-cut vertices, so the
    # admitted hoods are a union of orbits
    for g in universe7:
        _, gens = _canonical_search(g.n, g.adj)
        d0, least = _oracle_least_non_cut(g)
        hoods = _admitted_hoods(g.n, d0, least)
        assert hoods == [h for h in range(1, 1 << g.n) if _admitted(h, d0, least)]
        walked = _mask_orbit_representatives(gens, hoods)
        if g.n <= 6:
            expected = [h for h in oracle_mask_orbit_minima(g) if _admitted(h, d0, least)]
        else:
            expected = _oracle_admitted_minima(g, gens, d0, least)
        assert walked == expected
        every = _mask_orbit_representatives(gens, range(1, 1 << g.n))
        assert walked == [h for h in every if _admitted(h, d0, least)]


def test_least_deletion_matches_full_key_oracle():
    # every hood of every parent of order <= 6, not only orbit representatives
    for n in range(2, 8):
        for parent_code in _connected_codes(n - 1):
            base = graph_from_code(n - 1, parent_code).adj
            for hood in range(1, 1 << (n - 1)):
                adj = [row | 1 << (n - 1) if hood >> u & 1 else row for u, row in enumerate(base)]
                adj.append(hood)
                assert _is_least_deletion(adj) == oracle_is_least_deletion(adj)


def test_least_deletion_checks_per_order_are_pinned(cold_enumeration_cache, monkeypatch):
    # the hoods the degree prefilter lets through; without it every orbit
    # representative is checked: 1, 2, 8, 44, 333 and 3,771
    survey_module = sys.modules["cycleiso.survey"]
    checks = {}
    real = survey_module._is_least_deletion

    def counting(adj):
        checks[len(adj)] = checks.get(len(adj), 0) + 1
        return real(adj)

    monkeypatch.setattr(survey_module, "_is_least_deletion", counting)
    _connected_codes(7)
    assert [checks[n] for n in range(2, 8)] == [1, 2, 6, 23, 137, 1192]


def _colours(cells: list[list[int]], n: int) -> list[int]:
    colours = [0] * n
    for i, cell in enumerate(cells):
        for v in cell:
            colours[v] = i
    return colours


def _assert_refine_matches_oracle(g: Graph, refine=_refine) -> None:
    """From the unit partition, and after individualising each vertex of the
    first non-singleton cell, as the canonical search does."""
    nbrs = [tuple(bits(row)) for row in g.adj]
    cells = refine(nbrs, [list(range(g.n))])
    assert _colours(cells, g.n) == oracle_refine(nbrs, [0] * g.n)
    r = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
    if r is None:
        return
    for x in cells[r]:
        child = cells[:r] + [[x], [v for v in cells[r] if v != x]] + cells[r + 1 :]
        expected = oracle_refine(nbrs, _colours(child, g.n))
        assert _colours(refine(nbrs, child, frozenset(nbrs[x])), g.n) == expected
        assert _colours(refine(nbrs, child), g.n) == expected


def test_refine_matches_simultaneous_rounds_on_universe7(universe7):
    for g in universe7:
        _assert_refine_matches_oracle(g)


def test_refine_matches_simultaneous_rounds_on_symmetric_graphs():
    stream = _symmetric_stream(13, 80)
    assert min(g.n for g in stream) >= 9 and max(g.n for g in stream) <= 30
    for g in stream:
        _assert_refine_matches_oracle(g)


def _mirror_pair_graphs() -> list[Graph]:
    """Paths, caterpillars and ladders: their reflections pair vertices up,
    so refinement meets many cells of two vertices."""
    out = [path(n) for n in range(2, 16)]
    for spine in range(2, 9):
        for legs in ((1,) * spine, (2,) * spine, tuple(range(spine)), (0, 1) * spine):
            edges = [(v, v + 1) for v in range(spine - 1)]
            n = spine
            for v, count in zip(range(spine), legs):
                edges += [(v, u) for u in range(n, n + count)]
                n += count
            out.append(from_edge_list(n, edges))
    for rungs in range(2, 11):
        edges = [(v, v + rungs) for v in range(rungs)]
        edges += [(v + side, v + side + 1) for side in (0, rungs) for v in range(rungs - 1)]
        out.append(from_edge_list(2 * rungs, edges))
    return out


def test_refine_settles_two_vertex_cells_like_the_oracle():
    # every pair cell handed to _refine either stays whole or splits, its
    # larger sum first; over these graphs each outcome must occur, both
    # split orders included.  Every cell keeps its vertices in their order
    # in the partition it came from, split or not.
    outcomes = {"kept": 0, "in order": 0, "swapped": 0}
    real = _refine

    def watching(nbrs, cells, touched=None):
        out = real(nbrs, cells, touched)
        position = {v: i for i, v in enumerate(v for cell in cells for v in cell)}
        assert all(sorted(cell, key=position.__getitem__) == cell for cell in out)
        at = {v: i for i, cell in enumerate(out) for v in cell}
        for cell in cells:
            if len(cell) == 2:
                u, v = cell
                outcome = "kept" if at[u] == at[v] else "in order" if at[u] < at[v] else "swapped"
                outcomes[outcome] += 1
        return out

    for g in _mirror_pair_graphs():
        _assert_refine_matches_oracle(g, watching)
    assert min(outcomes.values()) > 0, outcomes


#: sha256 of repr([_connected_codes(n) for n in range(1, 9)]); a rewrite of
#: the enumerator must reproduce every code tuple, not just the class counts
CONNECTED_CODES8_DIGEST = "d83aa67972652a3a20c9abcc71c02fd8c131a2eef38eadb97f666cfc3da8752f"


def test_enumeration_code_tuples_are_pinned(connected_codes8):
    assert [len(codes) for codes in connected_codes8] == [1, 1, 2, 6, 21, 112, 853, 11117]
    digest = hashlib.sha256(repr(connected_codes8).encode()).hexdigest()
    assert digest == CONNECTED_CODES8_DIGEST


#: sha256 of repr(_connected_codes(9)), the 261,080 classes of order 9
CONNECTED_CODES9_DIGEST = "c4373a114548b59d1da6d96f0db2a42ee818924cda667b0a35b8841e8573ef0a"


@pytest.mark.slow
def test_order9_code_tuple_is_pinned(cold_enumeration_cache):
    codes = _connected_codes(9)
    assert len(codes) == 261080
    assert hashlib.sha256(repr(codes).encode()).hexdigest() == CONNECTED_CODES9_DIGEST


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(9))


def test_no_two_representatives_isomorphic(universe6):
    codes = [canonical_code(g.n, g.adj) for g in universe6]
    assert len(set((g.n, c) for g, c in zip(universe6, codes))) == len(universe6)


def test_canonical_code_invariant_under_relabeling(universe6):
    rng = random.Random(4)
    for g in rng.sample(universe6, 40):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_code(h.n, h.adj) == canonical_code(g.n, g.adj)
        assert graph_from_code(g.n, canonical_code(g.n, g.adj)).m == g.m


def test_permutation_probing_large_orders(universe7, universe8):
    # representatives are emitted in canonical form, so probing a random
    # relabeling must land back on the representative's code
    rng = random.Random(8128)
    for pool in (universe7, universe8):
        for g in rng.sample([h for h in pool if h.n >= 7], 60):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert canonical_code(h.n, h.adj) == canonical_code(g.n, g.adj)


def petersen():
    return from_edge_list(
        10, [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )


def cube():
    return from_edge_list(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if not v >> b & 1])


def k33():
    return from_edge_list(6, [(u, v) for u in range(3) for v in range(3, 6)])


# automorphism group orders; cons(K_{1,4}, C4) may permute the four leaves
# and reflect each of the five pendant 4-cycles about its attachment vertex
AUTOMORPHISM_GROUP_ORDERS = [
    ("petersen", petersen, 120),
    ("Q3", cube, 48),
    ("K33", k33, 72),
    ("C8", lambda: cycle(8), 16),
    ("K6", lambda: complete(6), 720),
    ("empty6", lambda: graph_from_bitmask(6, 0), 720),
    ("K1", lambda: complete(1), 1),
    ("K2", lambda: complete(2), 2),
    ("cons(K14,C4)", lambda: build(Tree(5, ((0, 1), (0, 2), (0, 3), (0, 4))), 4)[0], 24 * 2**5),
]


def group_elements(n, gens) -> set[tuple[int, ...]]:
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[p[v]] for v in range(n))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def group_order(n, gens):
    return len(group_elements(n, gens))


@pytest.mark.parametrize(
    "make, order", [case[1:] for case in AUTOMORPHISM_GROUP_ORDERS],
    ids=[case[0] for case in AUTOMORPHISM_GROUP_ORDERS],
)
def test_generators_are_automorphisms_of_known_group_order(make, order):
    g = make()
    code, gens = _canonical_search(g.n, g.adj)
    assert code == canonical_code(g.n, g.adj)
    assert all(relabel(g, p) == g for p in gens)
    assert group_order(g.n, gens) == order


@pytest.mark.parametrize(
    "make, order", [case[1:] for case in AUTOMORPHISM_GROUP_ORDERS],
    ids=[case[0] for case in AUTOMORPHISM_GROUP_ORDERS],
)
def test_pruned_canonical_code_invariant_under_relabeling(make, order):
    g = make()
    code = canonical_code(g.n, g.adj)
    assert graph_from_code(g.n, code).m == g.m
    rng = random.Random(g.n)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        h_code, h_gens = _canonical_search(h.n, h.adj)
        assert h_code == code
        assert group_order(h.n, h_gens) == order


def test_generators_generate_the_whole_group_on_universe7(universe7):
    for g in universe7:
        _, gens = _canonical_search(g.n, g.adj)
        assert group_order(g.n, gens) == oracle_automorphism_count(g)


def _is_twin_class(g: Graph, cell: list[int]) -> bool:
    return len({g.adj[v] for v in cell}) == 1 or len({g.adj[v] | 1 << v for v in cell}) == 1


def _settled_nodes(g: Graph):
    """Each partition on the search's first path, from the root down to the
    first settled one, the vertex of the first non-singleton cell
    individualised at each step; the last one yielded is settled."""
    nbrs = [frozenset(bits(row)) for row in g.adj]
    cells = _refine(nbrs, [list(range(g.n))])
    while True:
        settled = all(_is_twin_class(g, cell) for cell in cells if len(cell) > 1)
        yield nbrs, cells
        if settled:
            return
        r = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        x, *rest = cells[r]
        cells = _refine(nbrs, cells[:r] + [[x], rest] + cells[r + 1 :], nbrs[x])


def _settled_pool(universe7) -> list[Graph]:
    return universe7 + _symmetric_stream(5, 40)


def test_settled_partitions_are_equitable_after_individualising(universe7):
    # a settled partition survives another refinement, whole and with any
    # vertex of a twin cell individualised; the oracle confirms each is
    # equitable.  359 of the 1,036 graphs settle below the root
    deep = 0
    for g in _settled_pool(universe7):
        *path, (nbrs, cells) = _settled_nodes(g)
        deep += bool(path)
        assert _refine(nbrs, cells) == cells
        for r, cell in enumerate(cells):
            for x in cell if len(cell) > 1 else ():
                child = cells[:r] + [[x], [v for v in cell if v != x]] + cells[r + 1 :]
                assert _refine(nbrs, child, nbrs[x]) == child
                assert _refine(nbrs, child) == child
                assert oracle_refine(nbrs, _colours(child, g.n)) == _colours(child, g.n)
    assert deep == 359


def test_settled_roots_give_the_twin_class_group(universe7):
    # Aut(G) of a settled root is the product of the twin classes' symmetric
    # groups, which the seeded swaps generate: the search finds no generator
    settled = 0
    for g in _settled_pool(universe7):
        (nbrs, cells), *deeper = _settled_nodes(g)
        if deeper:
            continue
        settled += 1
        code, gens = _canonical_search(g.n, g.adj)
        assert code == canonical_code(g.n, g.adj)
        assert gens == _twin_swaps(g.adj, cells)
        order = math.prod(math.factorial(len(cell)) for cell in cells)
        assert group_order(g.n, gens) == order == oracle_automorphism_count(g)
    assert settled == 659 + 18


def test_settled_codes_are_invariant_under_relabeling(universe7):
    rng = random.Random(27)
    for g in _settled_pool(universe7):
        code = canonical_code(g.n, g.adj)
        assert _canonical_search(g.n, g.adj)[0] == code
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert canonical_code(h.n, h.adj) == code
            assert _canonical_search(h.n, h.adj)[0] == code


def test_universe7_roots_settle_without_branching(universe7, monkeypatch):
    # 153 roots are discrete and 506 more hold twin classes only: each of
    # those 659 searches refines once, at the root, and every other branches
    discrete = sum(len(next(_settled_nodes(g))[1]) == g.n for g in universe7)
    settled = [len(list(_settled_nodes(g))) == 1 for g in universe7]
    refinements = [_search_counters([g], monkeypatch)[0] for g in universe7]
    assert (discrete, sum(settled)) == (153, 659)
    assert [count == 1 for count in refinements] == settled
    assert sum(refinements) == 1795


def test_orders_zero_and_one_settle_at_the_root():
    assert _canonical_search(0, ()) == (0, [])
    assert _canonical_search(1, (0,)) == (0, [])
    assert canonical_code(0, ()) == canonical_code(1, (0,)) == 0


def _search_counters(graphs, monkeypatch) -> tuple[int, int]:
    """Search nodes, counted as refinements, and generators over the
    searches of graphs."""
    survey_module = sys.modules["cycleiso.survey"]
    nodes = []
    real = survey_module._refine
    with monkeypatch.context() as m:
        m.setattr(survey_module, "_refine", lambda *a: nodes.append(1) or real(*a))
        generators = sum(len(_canonical_search(g.n, g.adj)[1]) for g in graphs)
    return len(nodes), generators


def test_search_counters_on_universe7_are_pinned(universe7, monkeypatch):
    # jumping back to the node where a leaf that repeats the best code
    # leaves the best leaf's path cut the nodes from 5,650 to 5,148 and the
    # generators from 1,880 to 1,575; seeding twin swaps as known
    # automorphisms cut the nodes to 3,153, and the generators rose to
    # 1,596, as a twin class gives its swaps before the search could show
    # that fewer of them suffice; reading settled nodes off their partition
    # cut the nodes to 1,795, with the same generators
    assert _search_counters(universe7, monkeypatch) == (1795, 1596)


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


# (search nodes, generators); twin-free graphs search as before seeding,
# twin-rich ones drop from t(t+1)/2 nodes (K_{1,t}), 19 (K33) and 34 (K44)
# to t, 9 and 13 with seeding, and to 1, 3 and 3 once settled nodes are
# read off: K_{1,t} settles at the root, K33 and K44 one level below it
SEARCH_COUNTERS = [
    ("petersen", petersen, (15, 4)),
    ("Q3", cube, (10, 3)),
    ("C8", lambda: cycle(8), (6, 2)),
    ("K33", k33, (3, 5)),
    ("K44", lambda: complete_bipartite(4, 4), (3, 7)),
] + [(f"K1_{t}", lambda t=t: complete_bipartite(1, t), (1, t - 1)) for t in range(2, 11)]


@pytest.mark.parametrize(
    "make, counters", [case[1:] for case in SEARCH_COUNTERS],
    ids=[case[0] for case in SEARCH_COUNTERS],
)
def test_search_counters_with_and_without_twins_are_pinned(make, counters, monkeypatch):
    assert _search_counters([make()], monkeypatch) == counters


def test_seeded_generators_are_twin_swaps(universe7):
    for g in universe7 + _symmetric_stream(6, 30) + [petersen(), cube(), k33()]:
        nbrs = [frozenset(bits(row)) for row in g.adj]
        seeded = _twin_swaps(g.adj, _refine(nbrs, [list(range(g.n))]))
        assert _canonical_search(g.n, g.adj)[1][: len(seeded)] == seeded
        for p in seeded:
            u, v = (w for w in range(g.n) if p[w] != w)
            assert g.adj[u] == g.adj[v] or g.adj[u] | 1 << u == g.adj[v] | 1 << v
            assert relabel(g, p) == g
        # the swaps join every class of open twins and every class of
        # closed twins, found here over all vertex pairs
        classes = {}
        for v in range(g.n):
            classes.setdefault(("open", g.adj[v]), []).append(v)
            classes.setdefault(("closed", g.adj[v] | 1 << v), []).append(v)
        expected = math.prod(math.factorial(len(c)) for c in classes.values())
        assert _transposition_group_order(g.n, seeded) == expected


def test_twin_swaps_on_two_vertex_cells(universe6):
    # every pair of every graph, handed over as a cell in both orders: one
    # swap for open or closed twins, as the twin oracle classes them, else none
    kinds = {"open": 0, "closed": 0, None: 0}
    for g in universe6 + [petersen(), cube(), k33()]:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.adj[u] == g.adj[v]:
                    kind = "open"
                elif g.adj[u] | 1 << u == g.adj[v] | 1 << v:
                    kind = "closed"
                else:
                    kind = None
                kinds[kind] += 1
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                expected = [tuple(swap)] if kind else []
                assert _twin_swaps(g.adj, [[u, v]]) == expected
                assert _twin_swaps(g.adj, [[v, u]]) == expected
    assert min(kinds.values()) > 0, kinds


def _transposition_group_order(n: int, gens) -> int:
    """Order of the group generated by transpositions: the symmetric group
    on each component of the graph whose edges they swap."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for p in gens:
        a, b = (v for v in range(n) if p[v] != v)
        root[find(a)] = find(b)
    roots = [find(v) for v in range(n)]
    return math.prod(math.factorial(roots.count(r)) for r in set(roots))


@pytest.mark.parametrize(
    "edges, code, generators, order",
    [
        (complete(30).edges(), (1 << 435) - 1, 29, math.factorial(30)),
        ([], 0, 29, math.factorial(30)),
        (complete(30).edges()[1:], (1 << 434) - 1, 28, 2 * math.factorial(28)),
    ],
    ids=["K30", "empty30", "K30-minus-edge"],
)
def test_symmetric_graphs_on_30_vertices(edges, code, generators, order):
    # twin classes: all 30 vertices in K30 and empty30, {0, 1} and the rest
    # in K30 minus edge 01, whose Aut is S_2 x S_28; their swaps are every
    # generator, and without seeding or the jump back the search reaches
    # about n^2/2 leaves on these graphs and keeps 379-435 generators
    g = from_edge_list(30, edges)
    found, gens = _canonical_search(g.n, g.adj)
    assert found == code and len(gens) == generators
    assert all(relabel(g, p) == g and sum(p[v] != v for v in range(30)) == 2 for p in gens)
    assert _transposition_group_order(30, gens) == order


def test_order_zero_has_code_zero():
    assert canonical_code(0, ()) == 0


def test_mask_orbit_representatives_match_brute_force(universe6):
    # empty and complete graphs go through the search like every other graph
    for g in universe6 + [graph_from_bitmask(n, 0) for n in range(1, 7)]:
        _, gens = _canonical_search(g.n, g.adj)
        reps = _mask_orbit_representatives(gens, range(1, 1 << g.n))
        assert reps == oracle_mask_orbit_minima(g)


def test_canonical_search_leaves_no_reference_cycles(cold_enumeration_cache):
    # with the collector off, whatever a search leaves in a reference cycle
    # stays unreachable until gc.collect() finds it; a clean search frees
    # everything on return.  The graphs are the truncated tetrahedron, the
    # Petersen graph, K4 and the path on 3 vertices.
    graphs = [parse_graph6(g6) for g6 in ("K{O__cI@OP?b", "IheA@GUAo", "C~", "Bg")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for g in graphs:
            canonical_code(g.n, g.adj)
            assert gc.collect() == 0
        _connected_codes(6)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_ingest_single_record():
    graphs = list(ingest_graph6("C~\n"))
    assert len(graphs) == 1 and graphs[0].m == 6


def test_ingest_empty_stream():
    assert list(ingest_graph6("")) == []


BAD_LINES = ["BADLINE", "C\u00e9"]


def test_ingest_bad_line_aborts_with_line_number():
    for bad in BAD_LINES:
        with pytest.raises(GraphFormatError) as exc:
            list(ingest_graph6(f"C~\n{bad}\n"))
        assert "line 2" in str(exc.value)


@pytest.mark.parametrize("sep", ["\x85", "\x0b", "\u2028"])
def test_ingest_lines_break_only_at_newline(sep):
    with pytest.raises(GraphFormatError, match="^line 2: "):
        list(ingest_graph6(f"C~{sep}\nBADLINE\n"))


def test_ingest_skip_mode_records_failure():
    for bad in BAD_LINES:
        failures: list[IngestFailure] = []
        graphs = list(ingest_graph6(f"C~\n{bad}\n", failures))
        assert len(graphs) == 1
        assert len(failures) == 1 and failures[0].line_no == 2


def test_bound_spec_validation():
    with pytest.raises(ValueError):
        BoundSpec(k=2)
    with pytest.raises(ValueError):
        BoundSpec(k=4, d=0)
    with pytest.raises(GraphFormatError):
        BoundSpec(k=4, exclusions=("NOT GRAPH6 %%%",))
    assert conjecture_bound(4).d == 6


def test_check_graph_diamond_equality():
    rec = check_graph(diamond(), BoundSpec(k=4, a=0, b=1, c=1, d=6))
    assert rec.status == "equal"
    assert rec.extremal_class == "diamond"


def test_check_graph_excludes_plain_cycle():
    rec = check_graph(cycle(4), BoundSpec(k=4))
    assert rec.status == "excluded"
    assert rec.iota is None


def test_check_graph_below():
    rec = check_graph(cycle(5), BoundSpec(k=4))
    assert rec.status == "below" and rec.iota == 0


def test_check_graph_user_exclusions_by_isomorphism():
    # the exclusion list entry uses a different labeling of the same graph
    g = relabel(diamond(), [2, 0, 3, 1])
    spec = BoundSpec(k=4, exclusions=(encode_graph6(g),))
    assert check_graph(diamond(), spec).status == "excluded"


def test_check_graph_budget_flag():
    rec = check_graph(complete(7), BoundSpec(k=4), node_budget=1)
    assert rec.status == "budget_exhausted"
    assert rec.iota is None


def test_survey_small_equalities(universe6):
    report = survey(universe6, BoundSpec(k=4, a=0, b=1, c=1, d=6))
    assert not report.violations
    assert sorted((r.n, r.m) for r in report.equalities) == [(4, 5), (5, 5)]
    classes = {r.extremal_class for r in report.equalities}
    assert classes == {"diamond", "extremal"}


def test_survey_order_independence(universe6):
    spec = BoundSpec(k=3, a=0, b=1, c=1, d=5)
    fwd = survey(universe6, spec)
    rev = survey(list(reversed(universe6)), spec)
    assert sorted(fwd.rows) == sorted(rev.rows)


def test_survey_streams_in_order_with_relabelled_exclusions(universe6):
    # the spec lists a diamond and K5 in other labelings; the survey takes
    # a one-shot iterator and keeps the input order
    k5 = encode_graph6(relabel(complete(5), [4, 3, 2, 1, 0]))
    report = survey(iter(universe6), BoundSpec(k=4, exclusions=("Cv", k5)))
    fields = [row.split(",") for row in report.rows]
    assert [f[0] for f in fields] == [encode_graph6(g) for g in universe6]
    excluded = [(int(f[1]), int(f[2])) for f in fields if f[7] == "excluded"]
    assert excluded == [(4, 5), (4, 4), (5, 10)]  # diamond, C4, K5


def test_survey_canonicalises_only_order_and_size_matches(monkeypatch):
    # only the diamond shares (n, m) = (4, 5) with the exclusion: one call
    # for the exclusion itself, one for the diamond
    survey_module = sys.modules["cycleiso.survey"]  # the package attribute is the function
    calls = []
    real = survey_module.canonical_code
    monkeypatch.setattr(survey_module, "canonical_code", lambda n, adj: calls.append(n) or real(n, adj))
    spec = BoundSpec(k=4, exclusions=(encode_graph6(relabel(diamond(), [3, 1, 0, 2])),))
    stream = [complete(4), diamond(), cycle(4), cycle(5), complete(5), graph_from_bitmask(4, 0)]
    report = survey(stream, spec)
    assert len(calls) == 2
    assert [row.split(",")[7] for row in report.rows][:3] == ["below", "excluded", "excluded"]


def test_survey_checks_each_graph_as_it_is_pulled(monkeypatch):
    # the survey holds one graph at a time: each pull from the stream is
    # checked before the next one
    survey_module = sys.modules["cycleiso.survey"]
    log = []
    real = survey_module.check_graph
    monkeypatch.setattr(
        survey_module, "check_graph", lambda g, *args: log.append("check") or real(g, *args)
    )

    def stream():
        for g in [diamond(), cycle(4), cycle(5)]:
            log.append("pull")
            yield g

    report = survey(stream(), BoundSpec(k=4))
    assert log == ["pull", "check"] * 3
    assert report.totals()["by_status"] == {"below": 1, "equal": 1, "excluded": 1}


def test_walk_gate_keeps_records_exact(monkeypatch, universe6):
    # check_graph skips the witness walk only where a bound proves it could
    # not have run out of budget, so each record equals the one a full walk
    # gives at every budget from the decision's nodes to the walk's end
    survey_module = sys.modules["cycleiso.survey"]
    rng = random.Random(22)
    corpus = [(g, 4) for g in universe6]
    small = [build(tree, k)[0] for k in (4, 5) for t in (1, 2) for tree in enumerate_trees(t)]
    small += [cycle(4), cycle(5), diamond()]
    for _ in range(40):
        # two components: the first walks under any budget, the last may skip
        first = rng.choice(small)
        n = rng.randint(5, min(9, 20 - first.n))
        pair = [first, graph_from_bitmask(n, rng.randrange(1 << n * (n - 1) // 2))]
        rng.shuffle(pair)
        corpus.append((disjoint_union(*pair), rng.choice((4, 5))))
    guarded = skipped = 0
    for g, k in corpus:
        spec = conjecture_bound(k)
        full = iota_exact(g, k).explored  # decision and walk nodes
        decision = iota_exact(g, k, witness=False).explored
        for budget in [*range(decision, full + 1), 10**6]:
            gated = check_graph(g, spec, budget)
            with monkeypatch.context() as m:
                m.setattr(
                    survey_module, "iota_exact", lambda g, k, b, witness: iota_exact(g, k, b)
                )
                assert check_graph(g, spec, budget) == gated, (encode_graph6(g), k, budget)
            # a walk skipped whatever the budget solves these, and the full walk does not
            guarded += budget < full
            skipped += budget >= full and iota_exact(g, k, budget, witness=False).explored < full
    assert guarded and skipped


def test_survey_violations_are_findings_not_errors():
    # an absurd bound forces violations; the run must complete and report them
    report = survey([diamond(), cycle(5)], BoundSpec(k=4, a=0, b=0, c=0, d=1))
    assert len(report.violations) == 1
    assert report.violations[0].graph6 == encode_graph6(diamond())


def test_report_shapes(universe6):
    report = survey(universe6[:30], BoundSpec(k=4))
    data = report.to_json_dict()
    assert set(data) == {"spec", "totals", "violations", "equalities"}
    assert "metadata" not in data
    csv = report.to_csv().splitlines()
    assert csv[0] == "graph6,n,m,k,iota,bound_num,bound_den,status,extremal_class"
    assert len(csv) == 31


def test_survey_histogram(universe6):
    report = survey(universe6, BoundSpec(k=4))
    assert report.totals()["by_n"] == {"1": 1, "2": 1, "3": 2, "4": 6, "5": 21, "6": 112}


def test_integer_status_matches_the_fraction_bound(universe6):
    # check_graph compares iota * d with a*n + b*m + c; the record's Fraction
    # bound, built once per numerator, orders iota the same way
    specs = [
        BoundSpec(k=4),
        BoundSpec(k=3, a=1, b=-1, c=2, d=3),
        BoundSpec(k=4, a=0, b=1, c=-3, d=1),
        conjecture_bound(5),
    ]
    seen = set()
    for spec in specs:
        for g in universe6:
            rec = check_graph(g, spec)
            assert rec.bound is spec.bound_for(g.n, g.m) == Fraction(
                spec.a * g.n + spec.b * g.m + spec.c, spec.d
            )
            if rec.iota is not None:
                fraction_status = (
                    "violation" if rec.iota > rec.bound
                    else "equal" if rec.iota == rec.bound
                    else "below"
                )
                assert rec.status == fraction_status
                seen.add(rec.status)
    assert seen == {"below", "equal", "violation"}


def test_rational_bounds_never_equal_spuriously():
    # m = 6 gives bound 7/6, never equal to an integer isolation number
    g = graph_from_bitmask(4, 0)
    spec = BoundSpec(k=4, a=0, b=1, c=1, d=6)
    rec = check_graph(complete(4), spec)
    assert rec.bound.numerator == 7 and rec.bound.denominator == 6
    assert rec.status == "below"
