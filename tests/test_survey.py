import json
import random
import sys

import pytest

from cycleiso.family import Tree, build
from cycleiso.graphs import Graph, GraphFormatError, bits, encode_graph6, from_edge_list, relabel
from cycleiso.survey import (
    BoundSpec,
    IngestFailure,
    _canonical_search,
    _connected_codes,
    canonical_code,
    check_graph,
    conjecture_bound,
    enumerate_connected,
    graph_from_code,
    ingest_graph6,
    survey,
)
from util import complete, cycle, diamond, graph_from_bitmask, oracle_connected_class_count


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

    def counting(g):
        calls.append(g.n)
        return canonical_code(g)

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
                codes.add(canonical_code(Graph(n, adj)))
        assert tuple(sorted(codes)) == _connected_codes(n)


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(9))


def test_no_two_representatives_isomorphic(universe6):
    codes = [canonical_code(g) for g in universe6]
    assert len(set((g.n, c) for g, c in zip(universe6, codes))) == len(universe6)


def test_canonical_code_invariant_under_relabeling(universe6):
    rng = random.Random(4)
    for g in rng.sample(universe6, 40):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(relabel(g, perm)) == canonical_code(g)
        assert graph_from_code(g.n, canonical_code(g)).m == g.m


def test_permutation_probing_large_orders(universe7, universe8):
    # representatives are emitted in canonical form, so probing a random
    # relabeling must land back on the representative's code
    rng = random.Random(8128)
    for pool in (universe7, universe8):
        for g in rng.sample([h for h in pool if h.n >= 7], 60):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(g, perm)) == canonical_code(g)


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
    ("cons(K14,C4)", lambda: build(Tree(5, ((0, 1), (0, 2), (0, 3), (0, 4))), 4)[0], 24 * 2**5),
]


def group_order(n, gens):
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
    return len(seen)


@pytest.mark.parametrize(
    "make, order", [case[1:] for case in AUTOMORPHISM_GROUP_ORDERS],
    ids=[case[0] for case in AUTOMORPHISM_GROUP_ORDERS],
)
def test_generators_are_automorphisms_of_known_group_order(make, order):
    g = make()
    code, gens = _canonical_search(g.n, g.adj)
    assert code == canonical_code(g)
    assert all(relabel(g, p) == g for p in gens)
    assert group_order(g.n, gens) == order


@pytest.mark.parametrize(
    "make, order", [case[1:] for case in AUTOMORPHISM_GROUP_ORDERS],
    ids=[case[0] for case in AUTOMORPHISM_GROUP_ORDERS],
)
def test_pruned_canonical_code_invariant_under_relabeling(make, order):
    g = make()
    code = canonical_code(g)
    assert graph_from_code(g.n, code).m == g.m
    rng = random.Random(g.n)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        h_code, h_gens = _canonical_search(h.n, h.adj)
        assert h_code == code
        assert group_order(h.n, h_gens) == order


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


def test_ingest_skip_mode_records_failure():
    for bad in BAD_LINES:
        failures: list[IngestFailure] = []
        graphs = list(ingest_graph6(f"C~\n{bad}\n", skip_errors=True, failures=failures))
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
    assert sorted(r.csv_row() for r in fwd.records) == sorted(
        r.csv_row() for r in rev.records
    )


def test_survey_parallel_matches_sequential(universe6):
    # the second spec lists a diamond and K5 in other labelings; its
    # exclusion codes travel to the workers with the pickled spec
    k5 = encode_graph6(relabel(complete(5), [4, 3, 2, 1, 0]))
    for spec in (conjecture_bound(5), BoundSpec(k=4, exclusions=("Cv", k5))):
        seq = survey(universe6, spec, workers=1)
        par = survey(universe6, spec, workers=2)
        assert json.dumps(seq.to_json_dict(), sort_keys=True) == json.dumps(
            par.to_json_dict(), sort_keys=True
        )
        assert seq.to_csv() == par.to_csv()
    assert sum(r.status == "excluded" for r in par.records) == 3  # C4, diamond, K5


def test_survey_canonicalises_only_order_and_size_matches(monkeypatch):
    # only the diamond shares (n, m) = (4, 5) with the exclusion: one call
    # for the exclusion itself, one for the diamond
    survey_module = sys.modules["cycleiso.survey"]  # the package attribute is the function
    calls = []
    real = survey_module.canonical_code
    monkeypatch.setattr(survey_module, "canonical_code", lambda g: calls.append(g) or real(g))
    spec = BoundSpec(k=4, exclusions=(encode_graph6(relabel(diamond(), [3, 1, 0, 2])),))
    stream = [complete(4), diamond(), cycle(4), cycle(5), complete(5), graph_from_bitmask(4, 0)]
    report = survey(stream, spec)
    assert len(calls) == 2
    assert [r.status for r in report.records][:3] == ["below", "excluded", "excluded"]


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
    assert report.histogram_by_n() == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_rational_bounds_never_equal_spuriously():
    # m = 6 gives bound 7/6, never equal to an integer isolation number
    g = graph_from_bitmask(4, 0)
    spec = BoundSpec(k=4, a=0, b=1, c=1, d=6)
    rec = check_graph(complete(4), spec)
    assert rec.bound.numerator == 7 and rec.bound.denominator == 6
    assert rec.status == "below"
