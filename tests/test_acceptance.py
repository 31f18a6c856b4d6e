"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The exhaustive criteria share the session-scoped
universe fixtures, so the connected-graph enumeration up to order 8 happens
once.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cycleiso.cli import main as cli_main
from cycleiso.constructive import ComponentClass, bound_value, construct
from cycleiso.family import (
    Tree,
    build,
    enumerate_trees,
    recognize,
    tree_canonical_key,
)
from cycleiso.graphs import components, encode_graph6, mask_of, parse_graph6
from cycleiso.isolation import (
    check_gluing_hypothesis,
    iota_exact,
    verify,
)
from cycleiso.survey import BoundSpec, enumerate_connected, survey
from util import (
    complete,
    cycle,
    diamond,
    disjoint_union,
    graph_from_bitmask,
    induced_subgraph,
    oracle_connected_class_count,
    recovered_tree,
    step_ids,
)

K13_PLUS = Tree(5, ((0, 1), (0, 2), (0, 3), (1, 4)))


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {verdict} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_flagship_extremal_value():
    g, _ = build(K13_PLUS, 4)
    res = iota_exact(g, 4, node_budget=10**7)
    ok = (g.n, g.m) == (25, 29) and res.iota == 5 and Fraction(g.m + 1, 6) == 5
    report(1, ok, f"n={g.n} m={g.m} iota={res.iota} (m+1)/6={Fraction(g.m + 1, 6)}")


def test_criterion_02_base_cases():
    c4 = cycle(4)
    c4p = build(Tree(1, ()), 4)[0]
    k4m = diamond()
    k4 = complete(4)
    values = {name: iota_exact(g, 4).iota for name, g in
              [("C4", c4), ("C4+", c4p), ("K4-", k4m), ("K4", k4)]}
    ok = all(v == 1 for v in values.values())
    ok &= Fraction(k4m.m + 1, 6) == 1 and Fraction(c4p.m + 1, 6) == 1
    ok &= iota_exact(k4, 4).iota < bound_value(k4.m)  # 1 < 7/6
    try:
        construct(c4)
        ok = False
    except ValueError:
        pass  # C4 is excluded, not bounded
    report(2, ok, f"iota values {values}, diamond and pendant-cycle attain exactly")


def test_criterion_03_exhaustive_k4(universe8):
    counts = [len(list(enumerate_connected(n))) for n in range(1, 9)]
    ok = counts == [1, 1, 2, 6, 21, 112, 853, 11117]
    oracle_counts = [oracle_connected_class_count(n) for n in range(1, 7)]
    ok &= counts[:6] == oracle_counts
    rep = survey(universe8, BoundSpec(k=4, a=0, b=1, c=1, d=6))
    ok &= not rep.violations
    eq = sorted((r.n, r.m, r.extremal_class) for r in rep.equalities)
    ok &= eq == [(4, 5, "diamond"), (5, 5, "extremal")]
    report(
        3,
        ok,
        f"counts={counts} (oracle-checked to n=6), violations={len(rep.violations)}, "
        f"equalities={eq}",
    )


def test_criterion_04_exhaustive_k3(universe8):
    rep = survey(universe8, BoundSpec(k=3, a=0, b=1, c=1, d=5))
    ok = not rep.violations
    eq = sorted((r.n, r.m) for r in rep.equalities)
    ok &= eq == [(4, 4), (8, 9)]
    ok &= all(r.extremal_class == "extremal" for r in rep.equalities)
    two_triangles = build(Tree(2, ((0, 1),)), 3)[0]
    ok &= any(
        r.n == 8 and r.m == 9 and recognize(parse_graph6(r.graph6), 3) is not None
        for r in rep.equalities
    )
    ok &= two_triangles.m == 9
    report(4, ok, f"violations={len(rep.violations)}, equalities={eq}")


#: sha256 over every graph of universe8: graph6, iota_exact(g, 4) (iota,
#: witness, explored), then the construct set and every trace step (label,
#: working, increment, recursed), or the rejection of the plain 4-cycle;
#: taken from the implementation before the solver moved to component masks
ORDER8_DIGEST = "8e4b53a70773f1b69a1c489a6e82705e4f980cfd49f516bd62d6ef88d686f703"

#: trace labels that construct never fires on universe8 (14 of 28 fire)
UNIVERSE8_UNFIRED = frozenset(
    {
        "Case 2:star-bridge",
        "Subcase 1.2.1(i)",
        "Subcase 1.2.1(ii):member",
        "Subcase 1.2.2(i)",
        "Subcase 1.2.3(i)",
        "Subcase 1.2.4(i)",
        "Subcase 2.1",
        "Subcase 2.1(i)",
        "Subcase 2.1(i):member",
        "Subcase 2.1(ii)",
        "Subcase 2.2(i)",
        "Subcase 2.2(i):rescue",
        "Subcase 2.2(ii)",
        "fallback",
    }
)


def test_criterion_05_constructive_exhaustive(universe8):
    checked = 0
    fallbacks = 0
    failures = []
    fired = set()
    digest = hashlib.sha256()
    from cycleiso.constructive import TRACE_LABELS

    for g in universe8:
        exact = iota_exact(g, 4)
        digest.update(f"{encode_graph6(g)} {exact.iota} {exact.witness} {exact.explored}\n".encode())
        if ComponentClass(g, *components(g.adj, g.full_mask)[0]).tag == "C4":
            with pytest.raises(ValueError) as exc:
                construct(g)
            digest.update(f"error {exc.value}\n".encode())
            continue
        checked += 1
        d, trace = construct(g)
        digest.update(f"set {d}\n".encode())
        fired.update(trace.labels)
        for s in map(step_ids, trace.steps):
            digest.update(f"{s.label} {s.working} {s.increment} {s.recursed}\n".encode())
        size = d.bit_count()
        if trace.used_fallback():
            fallbacks += 1
        if (
            not verify(g, d, 4).valid
            or size > (g.m + 1) // 6
            or size < exact.iota
            or not set(trace.labels) <= TRACE_LABELS
        ):
            failures.append(encode_graph6(g))
    ok = not failures and fallbacks == 0
    ok &= digest.hexdigest() == ORDER8_DIGEST
    unfired = TRACE_LABELS - fired
    ok &= unfired == UNIVERSE8_UNFIRED
    report(
        5,
        ok,
        f"{checked} graphs: sound sets within floor((m+1)/6), "
        f"failures={failures[:3]}, fallbacks={fallbacks}, digest={digest.hexdigest()}, "
        f"unfired={sorted(unfired)}",
    )


def test_criterion_06_family_property_suite():
    checked = 0
    ok = True
    for n in range(1, 6):
        for tree in enumerate_trees(n):
            for k in (3, 4, 5):
                g, decomp = build(tree, k)
                rec = recognize(g, k)
                ok &= rec is not None
                ok &= tree_canonical_key(recovered_tree(rec)) == tree_canonical_key(tree)
                d = rec.connection_vertices
                ok &= verify(g, d, k).valid
                budget = None if g.n <= 20 else 10**7
                iota = iota_exact(g, k, budget).iota
                ok &= iota == tree.n and Fraction(g.m + 1, k + 2) == tree.n
                checked += 1
    report(6, ok, f"{checked} (tree, k) pairs recognized, verified, exact")


def test_criterion_07_additivity_property():
    rng = random.Random(1729)
    failures = 0
    for trial in range(500):
        n1 = rng.randint(1, 7)
        n2 = rng.randint(1, 7)
        g1 = graph_from_bitmask(n1, rng.getrandbits(n1 * (n1 - 1) // 2))
        g2 = graph_from_bitmask(n2, rng.getrandbits(n2 * (n2 - 1) // 2))
        k = 3 if trial % 2 else 4
        union = disjoint_union(g1, g2)
        lhs = iota_exact(union, k).iota
        rhs = iota_exact(g1, k).iota + iota_exact(g2, k).iota
        if lhs != rhs:
            failures += 1
    report(7, failures == 0, f"500 random unions, failures={failures}")


def test_criterion_08_gluing_property():
    rng = random.Random(271828)
    accepted = 0
    attempts = 0
    failures = 0
    while accepted < 500 and attempts < 50000:
        attempts += 1
        n = rng.randint(2, 10)
        g = graph_from_bitmask(n, rng.getrandbits(n * (n - 1) // 2))
        s = rng.randint(1, g.full_mask)
        d = 0
        for v in range(n):
            if s >> v & 1 and rng.random() < 0.3:
                d |= 1 << v
        if not check_gluing_hypothesis(g, s, d, 4):
            continue
        accepted += 1
        sub, emb = induced_subgraph(g, g.full_mask & ~s)
        rest = mask_of(emb[i] for i in range(sub.n) if iota_exact(sub, 4).witness >> i & 1)
        if not verify(g, d | rest, 4).valid:
            failures += 1
    ok = accepted == 500 and failures == 0
    report(8, ok, f"accepted={accepted} instances, failures={failures}")


def test_criterion_09_conjecture_harness(universe8, capsys):
    spec = BoundSpec(k=5, a=0, b=1, c=1, d=7)
    rep = survey(universe8, spec)
    data = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
    ok = set(data) == {"spec", "totals", "violations", "equalities"}
    ok &= data["totals"]["records"] == len(universe8)
    for rec in rep.violations:
        ok &= bool(rec.graph6)
    # the exit-2 hook: a deliberately violated bound must surface the graph6
    code = cli_main(
        ["survey", "--graph6", encode_graph6(diamond()), "-k", "4", "--bound", "m-100/6"]
    )
    out = capsys.readouterr().out
    ok &= code == 2 and encode_graph6(diamond()) in out
    report(
        9,
        ok,
        f"k=5 survey: {data['totals']['records']} records, "
        f"violations={len(rep.violations)}, exit-2 hook works",
    )


def test_criterion_10_graph6_bit_exact():
    ok = parse_graph6("C~") == complete(4)
    checked = 0
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_bitmask(n, mask)
            ok &= parse_graph6(encode_graph6(g)) == g
            checked += 1
    rng = random.Random(31337)
    for _ in range(10000):
        n = rng.randint(0, 12)
        g = graph_from_bitmask(n, rng.getrandbits(n * (n - 1) // 2))
        ok &= parse_graph6(encode_graph6(g)) == g
        checked += 1
    report(10, ok, f"{checked} round trips bit-exact, C~ decodes to K4")
