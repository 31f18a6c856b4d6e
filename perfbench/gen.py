"""Seeded input generator; run once per set-up repetition in a fresh interpreter.

    python3 perfbench/gen.py --workload ingest-c4 --seed 1 --out DIR [--quick]

Writes DIR/input.g6 (one graph6 record per line), DIR/exclude.g6 for the
k=4 ingest workload, and DIR/meta.json, which only the correctness gate
reads.  The mix is fixed by quotas, so a seed changes shapes and labels,
never the mix:

* random graphs: a uniform random recursive spanning tree plus a G(n, p)
  overlay with p = 1/n (about one extra edge per vertex), so every graph is
  connected and sparse enough for the exact solver;
* hung graphs: such a base with 1-3 (ingest) or 0-3 (construct) pendant
  gadgets, each a k-cycle or a k-cycle with one chord (the diamond for
  k=4), hung by a single edge;
* cons(T, k) members: every tree shape T with 2 <= t <= t_max vertices,
  numbered as ``build`` (and ``cycleiso cons``) numbers them.  Shapes
  include the star, whose symmetric cons graph is the slowest single input
  for canonical_code; its cost depends on the labelling (2.0-2.8 s over
  three random relabellings), so these keep one fixed labelling.

Random and hung graphs get shuffled labels; the stream order is shuffled.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from workloads import WORKLOADS

from cycleiso.family import build, enumerate_trees
from cycleiso.graphs import Graph, encode_graph6, from_edge_list


def _relabel(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


def _base_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    p = 1.0 / n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def random_graph(rng: random.Random, n: int) -> Graph:
    return _relabel(rng, n, _base_edges(rng, n))


def hung_graph(rng: random.Random, n: int, gadgets: int, k: int) -> Graph:
    base = n - gadgets * k
    edges = _base_edges(rng, base)
    for i in range(gadgets):
        start = base + i * k
        cyc = [start + j for j in range(k)]
        edges.extend((cyc[j], cyc[(j + 1) % k]) for j in range(k))
        if rng.random() < 0.5:
            edges.append((cyc[0], cyc[2]))
        edges.append((rng.randrange(base), rng.choice(cyc)))
    return _relabel(rng, n, edges)


def _order_range(lo: int, hi: int, gadgets: int, k: int) -> tuple[int, int]:
    return max(lo, gadgets * k + 4), hi


def generate(workload: str, seed: int, quick: bool) -> tuple[list[Graph], list[Graph], dict]:
    """(stream, exclusions, meta) for one workload and seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    k = spec["k"]
    lo, hi = spec["n_range"]
    sizes = {**spec, **spec["quick"]} if quick else spec
    items: list[tuple[str, Graph, int]] = []
    if spec["kind"] == "construct":
        for i in range(sizes["graphs"]):
            gadgets = i % 4
            n = rng.randint(*_order_range(lo, hi, gadgets, k))
            items.append(("hung", hung_graph(rng, n, gadgets, k), 0))
    else:
        for _ in range(sizes["random"]):
            items.append(("random", random_graph(rng, rng.randint(lo, hi)), 0))
        for i in range(sizes["hung"]):
            gadgets = i % 3 + 1
            n = rng.randint(*_order_range(lo, hi, gadgets, k))
            items.append(("hung", hung_graph(rng, n, gadgets, k), 0))
        t_lo, t_hi = spec["t_range"]
        for t in range(t_lo, sizes.get("t_max", t_hi) + 1):
            for tree in enumerate_trees(t):
                items.append(("cons", build(tree, k)[0], t))
    rng.shuffle(items)
    stream = [g for _, g, _ in items]
    meta = {
        "k": k,
        "count": len(stream),
        "cons": [[i, t] for i, (kind, _, t) in enumerate(items) if kind == "cons"],
        "excluded": None,
    }
    exclusions: list[Graph] = []
    if spec["kind"] == "ingest" and k == 4:
        # exempt the plain C4 and a relabelled copy of one random stream graph
        # whose (n, m, degree sequence) is unique, so exactly that record is
        # excluded and only canonical matching can find it
        def shape(g: Graph) -> tuple:
            return (g.n, g.m, tuple(sorted(g.degrees())))

        counts: dict[tuple, int] = {}
        for g in stream:
            counts[shape(g)] = counts.get(shape(g), 0) + 1
        pick = next(
            i for i, (kind, g, _) in enumerate(items)
            if kind == "random" and counts[shape(g)] == 1
        )
        meta["excluded"] = pick
        c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        exclusions = [c4, _relabel(rng, stream[pick].n, stream[pick].edges())]
    return stream, exclusions, meta


def write(out: Path, stream: list[Graph], exclusions: list[Graph], meta: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "input.g6").write_text("".join(encode_graph6(g) + "\n" for g in stream))
    if exclusions:
        (out / "exclude.g6").write_text("".join(encode_graph6(g) + "\n" for g in exclusions))
    (out / "meta.json").write_text(json.dumps(meta))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if WORKLOADS[args.workload]["kind"] == "enumerate":
        return  # the exhaustive survey takes no input; set-up is start-up and import
    write(Path(args.out), *generate(args.workload, args.seed, args.quick))


if __name__ == "__main__":
    main()
