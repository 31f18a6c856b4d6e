import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleiso import isolation
from cycleiso.family import Tree, build, enumerate_trees
from cycleiso.graphs import (
    Graph,
    bits,
    components,
    encode_graph6,
    from_edge_list,
    is_connected,
    mask_of,
    parse_graph6,
)
from cycleiso.isolation import (
    BudgetExceededError,
    _Search,
    check_gluing_hypothesis,
    iota_exact,
    verify,
    walk_bound,
)
from util import (
    c4_plus,
    complete,
    cycle,
    diamond,
    disjoint_union,
    graph_from_bitmask,
    induced_subgraph,
    oracle_components,
    oracle_iota,
    oracle_is_isolating,
    oracle_lex_least_witness,
    oracle_refutes,
    relabel,
)


def test_verify_diamond_apex():
    cert = verify(diamond(), {1}, 4)
    assert cert.valid
    assert len(cert.residual) == 0


def test_verify_empty_set_on_c4_free_graph():
    assert verify(cycle(5), 0, 4).valid


def test_verify_empty_set_on_c4():
    cert = verify(cycle(4), 0, 4)
    assert not cert.valid
    assert len(cert.residual) == 1


def test_verify_residual_component_masks():
    g = c4_plus()
    cert = verify(g, {4}, 4)
    assert cert.valid  # the pendant's closed neighbourhood opens the cycle
    (mask,) = cert.residual
    assert mask == mask_of([1, 2, 3])
    assert induced_subgraph(g, mask)[0].m == 2
    cert = verify(interleaved_c4_and_diamond(), 0, 4)
    assert cert.residual == (mask_of([0, 2, 4, 6]), mask_of([1, 3, 5, 7]))


def test_verify_and_gluing_match_oracles_on_small_graphs(universe6):
    # both test for a k-cycle per residual component, skipping trees and
    # components of fewer than k vertices; the booleans must not move
    rng = random.Random(6)
    for g in universe6 + [disjoint_union(cycle(4), diamond()), disjoint_union(cycle(5), cycle(3))]:
        for k in range(3, 7):
            for d in [0] + [1 << v for v in range(g.n)]:
                assert verify(g, d, k).valid == oracle_is_isolating(g, tuple(bits(d)), k)
            for _ in range(4):
                s = rng.randrange(1 << g.n)
                d = s & rng.randrange(1 << g.n)
                residual = s & ~mask_of(u for v in bits(d) for u in (v, *bits(g.adj[v])))
                expected = oracle_is_isolating(g, tuple(bits(d)), k, s) and all(
                    sum((g.adj[v] & ~s).bit_count() for v in bits(comp)) <= 1
                    for comp, _, _ in oracle_components(g, residual)
                )
                assert check_gluing_hypothesis(g, s, d, k) == expected


def interleaved_c4_and_diamond():
    """A 4-cycle on the even ids and a diamond on the odd ones."""
    return relabel(disjoint_union(cycle(4), diamond()), [0, 2, 4, 6, 1, 3, 5, 7])


def test_iota_basics():
    assert iota_exact(cycle(4), 4).iota == 1
    assert iota_exact(complete(4), 4).iota == 1
    assert iota_exact(diamond(), 4).iota == 1
    assert iota_exact(c4_plus(), 4).iota == 1


def test_vertices_need_a_witness():
    # a survey solves with witness=False: iota alone, no set to list
    res = iota_exact(cycle(4), 4, witness=False)
    assert (res.iota, res.witness) == (1, None)
    with pytest.raises(ValueError, match="witness=False"):
        res.vertices
    assert iota_exact(cycle(4), 4).vertices == (0,)


def test_iota_disjoint_union_adds():
    g = disjoint_union(cycle(4), diamond())
    res = iota_exact(g, 4)
    assert res.iota == 2
    assert verify(g, res.witness, 4).valid


def test_iota_exact_searches_components_in_input_ids(monkeypatch):
    g = interleaved_c4_and_diamond()
    built = []
    init = Graph.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    res = iota_exact(g, 4)
    assert built == []  # no component is copied into a renumbered graph
    assert res.iota == 2
    assert bits(res.witness) == (0, 1)


def test_iota_witness_always_verifies(universe6):
    for g in universe6:
        for k in (3, 4, 5):
            res = iota_exact(g, k)
            assert verify(g, res.witness, k).valid
            assert res.witness.bit_count() == res.iota


def test_iota_matches_naive_oracle_exhaustive(universe7):
    for g in universe7:
        for k in (3, 4, 5):
            assert iota_exact(g, k).iota == oracle_iota(g, k)


def test_iota_witness_is_lex_least():
    # every single vertex of C4 is optimal; the least must be returned
    assert bits(iota_exact(cycle(4), 4).witness) == (0,)
    g = disjoint_union(cycle(4), cycle(4))
    assert bits(iota_exact(g, 4).witness) == (0, 4)


def _hung_cycles(rng: random.Random, k: int, cycles: int) -> Graph:
    """A random connected base with `cycles` k-cycles each hung by one edge,
    10-14 vertices in all, shuffled.  Cycles hung near each other share
    candidates, which the packing prune must not count twice."""
    n = rng.randint(max(10, cycles * k + 1), 14)
    base = n - cycles * k
    edges = [(rng.randrange(v), v) for v in range(1, base)]
    edges += [(u, v) for u in range(base) for v in range(u + 1, base) if rng.random() < 1.5 / base]
    for i in range(cycles):
        start = base + i * k
        edges += [(start + j, start + (j + 1) % k) for j in range(k)]
        edges.append((rng.randrange(base), start + rng.randrange(k)))
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


def test_iota_lex_least_vs_oracle(universe6):
    rng = random.Random(99)
    cases = [(g, 4) for g in rng.sample([g for g in universe6 if g.n >= 5], 25)]
    # inputs where the alive-set memo and the packing prune both fire: the
    # paper's equality family and graphs with several pendant cycles
    for k in (3, 4, 5):
        for t in (1, 2, 3):
            for tree in enumerate_trees(t):
                g, _ = build(tree, k)
                perm = list(range(g.n))
                rng.shuffle(perm)
                cases.append((relabel(g, perm), k))
    for _ in range(12):
        cases.append((_hung_cycles(rng, 4, rng.randint(2, 3)), 4))
    for _ in range(4):
        cases.append((_hung_cycles(rng, 5, 2), 5))
    for g, k in cases:
        best = oracle_lex_least_witness(g, k)
        res = iota_exact(g, k)
        assert (res.iota, bits(res.witness)) == (len(best), best)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_supersets_of_valid_sets_stay_valid(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    nbits = n * (n - 1) // 2
    g = graph_from_bitmask(n, data.draw(st.integers(0, (1 << nbits) - 1)))
    base = iota_exact(g, 4).witness
    extra = data.draw(st.integers(0, g.full_mask))
    assert verify(g, base | extra, 4).valid


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_additivity_on_random_unions(data):
    n1 = data.draw(st.integers(min_value=1, max_value=6))
    n2 = data.draw(st.integers(min_value=1, max_value=6))
    g1 = graph_from_bitmask(n1, data.draw(st.integers(0, (1 << (n1 * (n1 - 1) // 2)) - 1)))
    g2 = graph_from_bitmask(n2, data.draw(st.integers(0, (1 << (n2 * (n2 - 1) // 2)) - 1)))
    k = data.draw(st.sampled_from([3, 4]))
    union = disjoint_union(g1, g2)
    assert iota_exact(union, k).iota == iota_exact(g1, k).iota + iota_exact(g2, k).iota


#: a graph of 18 vertices on which the witness phase meets residuals that
#: the iterative deepening already failed on, below the first branch
REVISITED_RESIDUALS = "QA?OO?@?GBa?g?@@`?GC@g?@SS?"


def test_memo_is_keyed_on_the_alive_set():
    g = parse_graph6(REVISITED_RESIDUALS)
    res = iota_exact(g, 4)
    assert bits(res.witness) == oracle_lex_least_witness(g, 4) == (7, 13)
    # `cycleiso exact` prints this count; a memo keyed on the alive set with
    # the lowest candidate id re-searches those residuals and prints 58
    assert res.explored == 47


def _checked_failed_entries(g, k):
    entries = 0
    for comp, _, _ in components(g.adj, g.full_mask):
        search = _Search(g, comp, k, None)
        search.solve()
        for alive, r in search.failed.items():
            assert oracle_refutes(g, k, comp, alive, r), (encode_graph6(g), k, alive, r)
        entries += len(search.failed)
    return entries


def test_every_failed_entry_is_a_refutation(universe8):
    # a failed entry answers for every candidate, whichever branch asks later
    assert _checked_failed_entries(parse_graph6(REVISITED_RESIDUALS), 4) == 9
    for k in (4, 5):
        for t in range(1, 5):
            g, _ = build(Tree(t, tuple((i, i + 1) for i in range(t - 1))), k)
            _checked_failed_entries(g, k)
    assert sum(_checked_failed_entries(g, 3) for g in universe8) == 15


@pytest.mark.parametrize("k", [4, 5])
def test_work_on_the_equality_family(k):
    # without the packing prune the count grows about fivefold per tree
    # vertex (24,448 nodes at t = 7)
    explored = []
    for t in range(5, 10):
        g, _ = build(Tree(t, tuple((i, i + 1) for i in range(t - 1))), k)
        explored.append(iota_exact(g, k, node_budget=1_000).explored)
    assert explored == [26, 34, 43, 53, 64]


@pytest.fixture
def cycle_searches(monkeypatch):
    """The alive sets the solver runs `find_cycle` on, in call order."""
    asked = []
    find_cycle = isolation.find_cycle

    def counting(g, k, alive=None):
        asked.append(alive)
        return find_cycle(g, k, alive)

    monkeypatch.setattr(isolation, "find_cycle", counting)
    return asked


def test_each_alive_set_is_searched_once(cycle_searches):
    # deepening, packing and the witness walk come back to the same residuals;
    # the search's cycle memo answers them without a second cycle search
    asked = cycle_searches

    def explored(g, k):
        # each of these graphs is connected, so one iota_exact is one search
        assert is_connected(g)
        asked.clear()
        res = iota_exact(g, k, node_budget=1_000)
        assert len(asked) == len(set(asked))
        return res.explored

    assert explored(parse_graph6(REVISITED_RESIDUALS), 4) == 47
    # a search per leaf asks 50; the last pick refutes the rest with cycles it holds
    assert len(asked) == 31
    for k in (4, 5):
        counts = []
        for t in range(4, 10):
            g, _ = build(Tree(t, tuple((i, i + 1) for i in range(t - 1))), k)
            counts.append(explored(g, k))
        assert counts[1:] == [26, 34, 43, 53, 64]


@pytest.mark.parametrize(
    "k, nodes, searches", [(3, 5230, 3231), (4, 4367, 3043), (5, 3284, 2601), (6, 2608, 2298)]
)
def test_last_pick_saves_searches_not_nodes(cycle_searches, universe7, k, nodes, searches):
    # summed over every connected graph of order <= 7; a cycle search per
    # leaf takes the same nodes and 3831, 3293, 2669 and 2298 searches (at
    # k = 6 a cycle's candidates cover nearly every vertex, so none is saved)
    assert sum(iota_exact(g, k).explored for g in universe7) == nodes
    assert len(cycle_searches) == searches


def test_last_pick_matches_the_oracle(universe6):
    rng = random.Random(5)
    for g in universe6:
        for k in (3, 4, 5):
            for alive in (g.full_mask, rng.randrange(1 << g.n), rng.randrange(1 << g.n)):
                if oracle_is_isolating(g, (), k, alive):
                    continue  # the last pick is only asked on an alive set with a cycle
                accepted = mask_of(
                    v for v in range(g.n) if oracle_is_isolating(g, (v,), k, alive)
                )
                lo = rng.randrange(g.n)
                # the whole graph, a suffix as in the witness walk, and every
                # vertex the oracle rejects, so that the answer is None
                for pool in (g.full_mask, g.full_mask >> lo << lo, g.full_mask & ~accepted):
                    search = _Search(g, g.full_mask, k, None)
                    expected = next(iter(bits(pool & accepted)), None)
                    assert search.last_pick(alive, pool) == expected
                    # every vertex tried is a node, whether searched or refuted
                    tried = pool if expected is None else pool & (2 << expected) - 1
                    assert search.explored == tried.bit_count()


def test_budget_exhaustion_carries_bounds():
    g = disjoint_union(complete(7), complete(7))
    with pytest.raises(BudgetExceededError) as exc:
        iota_exact(g, 4, node_budget=1)
    assert exc.value.lower_bound >= 0
    assert exc.value.explored >= 1


def test_walk_bound_formula():
    # T(j) = 1 + c T(j - 1) from T(0) = 1 is the geometric sum 1 + c + ... + c^j
    def closed(c, size):
        return size and c + c * sum(sum(c**i for i in range(j + 1)) for j in range(1, size))

    for c in range(8):
        for size in range(6):
            exact = walk_bound(c, size)
            assert exact == closed(c, size)
            # a capped bound passes the cap exactly when the bound does
            for cap in range(0, 2 * exact + 2):
                assert (walk_bound(c, size, cap) <= cap) == (exact <= cap)
    assert walk_bound(30, 200, 1_000) < 10**6


def _walk_ticks(g, k):
    """(component order, iota, witness walk nodes) per component search."""
    out = []
    for comp, _, _ in components(g.adj, g.full_mask):
        search = _Search(g, comp, k, None)
        if search.cycle(comp) is None:
            continue
        size, _ = search.solve(walk=False)  # unbudgeted, so the walk is skipped
        before = search.explored
        search.lex_min_witness(size)
        out.append((comp.bit_count(), size, search.explored - before))
    return out


def test_walk_bound_covers_every_witness_walk(universe7):
    rng = random.Random(22)
    corpus = [(g, k) for g in universe7 for k in (3, 4, 5, 6)]
    for k in (4, 5):
        for t in range(1, 5):
            corpus += [(build(tree, k)[0], k) for tree in enumerate_trees(t)]
    for _ in range(60):
        n1, n2 = rng.randint(3, 8), rng.randint(3, 8)
        parts = [graph_from_bitmask(n, rng.randrange(1 << n * (n - 1) // 2)) for n in (n1, n2)]
        corpus.append((disjoint_union(*parts), rng.choice((3, 4, 5))))
    tight = 0
    for g, k in corpus:
        for c, size, ticks in _walk_ticks(g, k):
            bound = walk_bound(c, size)
            assert ticks <= bound, (encode_graph6(g), k)
            tight += ticks == bound
    # the bound is reached, e.g. when only the component's top vertex isolates it
    assert tight


@pytest.mark.parametrize("budget, lower", [(0, 0), (1, 1), (2, 2), (46, 2)])
def test_budget_exhaustion_reports_the_deepening_size(budget, lower):
    # iota is 2 here and deepening takes 29 nodes, so budget 46 runs out in
    # the witness walk, where the size being witnessed is the bound
    g = parse_graph6(REVISITED_RESIDUALS)
    with pytest.raises(BudgetExceededError) as exc:
        iota_exact(g, 4, node_budget=budget)
    assert exc.value.lower_bound == lower
    assert exc.value.explored == budget + 1


def test_budget_required_beyond_twenty_vertices():
    g = from_edge_list(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(ValueError):
        iota_exact(g, 4)
    assert iota_exact(g, 4, node_budget=100).iota == 0


# -- gluing lemma --------------------------------------------------------------


def glued_diamonds():
    # two diamonds joined by a single edge between their degree-2 vertices
    return from_edge_list(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3),
         (4, 5), (5, 6), (6, 7), (7, 4), (5, 7),
         (0, 4)],
    )


def test_hypothesis_whole_graph_is_trivial():
    g = diamond()
    assert check_gluing_hypothesis(g, g.full_mask, 1 << 1, 4)


def test_hypothesis_diamond_with_pendant():
    # diamond glued at a degree-2 vertex to one external vertex; the apex
    # isolates the diamond with empty residual
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 4)])
    assert check_gluing_hypothesis(g, mask_of(range(4)), 1 << 1, 4)


def test_hypothesis_fails_on_double_boundary():
    # two 4-cycles; residual vertex 2 sends two edges across
    g = from_edge_list(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0),
         (4, 5), (5, 6), (6, 7), (7, 4),
         (2, 4), (2, 5)],
    )
    s = mask_of(range(4))
    assert verify(from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0}, 4).valid
    # oracle: G[S] - N[{0}] = {2}, which has edges to 4 and 5 outside S
    assert sum(g.adj[2] >> u & 1 for u in (4, 5)) == 2
    assert not check_gluing_hypothesis(g, s, 1 << 0, 4)


def test_hypothesis_rejects_d_outside_s():
    with pytest.raises(ValueError):
        check_gluing_hypothesis(diamond(), mask_of([0, 1]), mask_of([2]), 4)


def test_compose_whole_graph():
    # with S the whole graph, G - S is empty and the glued set is D alone
    g = diamond()
    assert check_gluing_hypothesis(g, g.full_mask, 1 << 1, 4)
    cert = verify(g, 1 << 1, 4)
    assert cert.valid and cert.members == 1 << 1


def test_compose_two_diamonds():
    g = glued_diamonds()
    assert check_gluing_hypothesis(g, mask_of(range(4)), 1 << 1, 4)
    cert = verify(g, 1 << 1 | 1 << 5, 4)
    assert cert.valid
    assert cert.members == (1 << 1) | (1 << 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_valid_whenever_hypothesis_holds(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    nbits = n * (n - 1) // 2
    g = graph_from_bitmask(n, data.draw(st.integers(0, (1 << nbits) - 1)))
    s = data.draw(st.integers(1, g.full_mask))
    d_bits = data.draw(st.integers(0, s)) & s
    if not check_gluing_hypothesis(g, s, d_bits, 4):
        return
    rest = iota_exact_on_complement(g, s)
    assert verify(g, d_bits | rest, 4).valid


def iota_exact_on_complement(g, s):
    sub, emb = induced_subgraph(g, g.full_mask & ~s)
    local = iota_exact(sub, 4).witness
    out = 0
    for i, v in enumerate(emb):
        if local >> i & 1:
            out |= 1 << v
    return out
