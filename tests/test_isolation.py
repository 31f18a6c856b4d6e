import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleiso.graphs import from_edge_list, mask_of, vertices_of
from cycleiso.isolation import (
    BudgetExceededError,
    check_gluing_hypothesis,
    compose_gluing,
    iota_exact,
    verify,
)
from util import (
    c4_plus,
    complete,
    cycle,
    diamond,
    disjoint_union,
    graph_from_bitmask,
    oracle_iota,
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


def test_verify_residual_embeddings():
    g = c4_plus()
    cert = verify(g, {4}, 4)
    assert cert.valid  # the pendant's closed neighbourhood opens the cycle
    (sub, emb), = cert.residual
    assert emb == (1, 2, 3)
    assert sub.m == 2


def test_iota_basics():
    assert iota_exact(cycle(4), 4).iota == 1
    assert iota_exact(complete(4), 4).iota == 1
    assert iota_exact(diamond(), 4).iota == 1
    assert iota_exact(c4_plus(), 4).iota == 1


def test_iota_disjoint_union_adds():
    g = disjoint_union(cycle(4), diamond())
    res = iota_exact(g, 4)
    assert res.iota == 2
    assert verify(g, res.witness, 4).valid


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
    assert vertices_of(iota_exact(cycle(4), 4).witness) == (0,)
    g = disjoint_union(cycle(4), cycle(4))
    assert vertices_of(iota_exact(g, 4).witness) == (0, 4)


def test_iota_lex_least_vs_oracle(universe6):
    from itertools import combinations

    from util import oracle_is_isolating

    rng = random.Random(99)
    for g in rng.sample([g for g in universe6 if g.n >= 5], 25):
        res = iota_exact(g, 4)
        best = next(
            members
            for size in range(g.n + 1)
            for members in combinations(range(g.n), size)
            if oracle_is_isolating(g, members, 4)
        )
        assert vertices_of(res.witness) == best


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


def test_budget_exhaustion_carries_bounds():
    g = disjoint_union(complete(7), complete(7))
    with pytest.raises(BudgetExceededError) as exc:
        iota_exact(g, 4, node_budget=1)
    assert exc.value.lower_bound >= 0
    assert exc.value.explored >= 1


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
    g = diamond()
    cert = compose_gluing(g, g.full_mask, 1 << 1, 0, 4)
    assert cert.valid and cert.members == 1 << 1


def test_compose_two_diamonds():
    g = glued_diamonds()
    cert = compose_gluing(g, mask_of(range(4)), 1 << 1, 1 << 5, 4)
    assert cert.valid
    assert cert.members == (1 << 1) | (1 << 5)


def test_compose_rejects_bad_hypothesis():
    g = cycle(4)
    with pytest.raises(ValueError):
        compose_gluing(g, mask_of([0, 1]), 0, 1 << 2, 4)


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
    cert = compose_gluing(g, s, d_bits, rest, 4)
    assert cert.valid


def iota_exact_on_complement(g, s):
    from cycleiso.graphs import induced_subgraph

    sub, emb = induced_subgraph(g, g.full_mask & ~s)
    local = iota_exact(sub, 4).witness
    out = 0
    for i, v in enumerate(emb):
        if local >> i & 1:
            out |= 1 << v
    return out
