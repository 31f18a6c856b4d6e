import random

import pytest

from cycleiso.cycles import all_cycles, find_cycle
from cycleiso.graphs import from_edge_list
from util import (
    complete,
    contains_cycle_generic,
    cycle,
    diamond,
    induced_subgraph,
    oracle_all_k_cycles,
    oracle_canonical_cycles,
    oracle_first_c4,
    oracle_has_k_cycle,
)


def witness_is_valid(g, wit, k):
    assert len(wit) == k == len(set(wit))
    for i in range(k):
        assert g.adj[wit[i]] >> wit[(i + 1) % k] & 1


def test_c4_in_c4():
    g = cycle(4)
    wit = find_cycle(g, 4)
    assert wit is not None
    witness_is_valid(g, wit, 4)


def test_c5_has_no_c4():
    assert find_cycle(cycle(5), 4) is None


def test_c6_has_no_c4_and_k4_has_one():
    assert find_cycle(cycle(6), 4) is None
    wit = find_cycle(complete(4), 4)
    witness_is_valid(complete(4), wit, 4)


def test_rejects_small_k():
    with pytest.raises(ValueError):
        find_cycle(cycle(4), 2)
    with pytest.raises(ValueError):
        all_cycles(cycle(4), 1)


def test_all_cycles_counts():
    assert len(all_cycles(cycle(4), 4)) == 1
    # K4: 4!/(2*4) = 3 orderings up to rotation/reflection; oracle agrees
    assert len(oracle_all_k_cycles(complete(4), 4)) == 3
    assert len(all_cycles(complete(4), 4)) == 3
    assert len(oracle_all_k_cycles(diamond(), 4)) == 1
    assert len(all_cycles(diamond(), 4)) == 1


def test_all_cycles_deduplicated_and_valid(universe6):
    def edge_set(wit, k):
        return frozenset(
            (min(wit[i], wit[(i + 1) % k]), max(wit[i], wit[(i + 1) % k]))
            for i in range(k)
        )

    for g in universe6:
        for k in (3, 4, 5):
            wits = all_cycles(g, k)
            assert len({edge_set(w, k) for w in wits}) == len(wits)
            for wit in wits:
                witness_is_valid(g, wit, k)
            assert {edge_set(w, k) for w in wits} == oracle_all_k_cycles(g, k)


def test_witnesses_come_in_lex_order(universe7):
    # the solver's node counts and lex-least witnesses depend on which cycle
    # comes first, so the order is pinned, not just the set of cycles
    rng = random.Random(12)
    for g in universe7:
        for alive in (g.full_mask, *(rng.getrandbits(g.n) for _ in range(3))):
            for k in range(3, 8):
                expected = oracle_canonical_cycles(g, k, alive)
                assert all_cycles(g, k, alive) == expected
                if k != 4:
                    assert find_cycle(g, k, alive) == (expected[0] if expected else None)


def test_existence_matches_oracle_exhaustive(universe7):
    for g in universe7:
        for k in range(3, g.n + 1):
            assert (find_cycle(g, k) is not None) == oracle_has_k_cycle(g, k)


def test_existence_on_disconnected_graphs(universe6):
    import random

    from util import disjoint_union

    rng = random.Random(5)
    for _ in range(40):
        g = disjoint_union(rng.choice(universe6), rng.choice(universe6))
        for k in (3, 4, 5):
            assert (find_cycle(g, k) is not None) == oracle_has_k_cycle(g, k)


def test_c4_witness_matches_pair_scan(universe7):
    # the solver's node counts depend on which 4-cycle comes first, so the
    # fast path's witness is pinned, not just its existence
    rng = random.Random(44)
    for g in universe7:
        for alive in (g.full_mask, *(rng.getrandbits(g.n) for _ in range(4))):
            assert find_cycle(g, 4, alive) == oracle_first_c4(g, alive)
    for _ in range(400):
        n = rng.randint(1, 16)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, edges)
        alive = rng.getrandbits(n)
        assert find_cycle(g, 4, alive) == oracle_first_c4(g, alive)


def test_fast_path_agrees_with_generic(universe7):
    for g in universe7:
        assert (find_cycle(g, 4) is None) == (contains_cycle_generic(g, 4) is None)


def test_deleting_witness_vertex_breaks_it(universe6):
    for g in universe6:
        wits = all_cycles(g, 4)
        for wit in wits[:3]:
            v = wit[0]
            sub, emb = induced_subgraph(g, g.full_mask & ~(1 << v))
            survivors = {
                frozenset(emb[u] for u in w) for w in all_cycles(sub, 4)
            }
            assert frozenset(wit) not in survivors
