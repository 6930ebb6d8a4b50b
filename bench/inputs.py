"""Seeded input generators.

Every generator takes an explicit seed and draws from its own
``random.Random``, so a seed gives the same graphs and documents on every
platform.  Mixed graphs are described as plain edge triples ``(u, op, v)``
with ``op`` one of ``->``, ``<->`` and ``--``; documents are written from
those triples and expected answers are derived from them, so neither
depends on the library's own parser or serialiser.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from cyclomag import (
    ContextedDmg,
    DirectedMixedGraph,
    GeneratorConfig,
    MixedEdge,
    MixedGraph,
    random_dmg,
)


def sub_seed(seed: int, *parts) -> int:
    """A 64-bit seed derived from ``seed`` and a path of labels."""
    digest = hashlib.blake2b(repr((seed,) + parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def relabel(rng: random.Random, n: int, prefix: str) -> list[str]:
    """``n`` distinct names in random lexicographic order."""
    return [f"{prefix}{k:05d}" for k in rng.sample(range(100_000), n)]


def mixed_graph(nodes, edges) -> MixedGraph:
    build = {"->": MixedEdge.directed, "<->": MixedEdge.bidirected, "--": MixedEdge.undirected}
    return MixedGraph(tuple(nodes), tuple(build[op](u, v) for u, op, v in edges))


def mixed_edges(h: MixedGraph) -> list[tuple[str, str, str]]:
    """The edge triples of a library mixed graph."""
    out = []
    for e in h.edges:
        if e.is_undirected:
            out.append((e.a, "--", e.b))
        elif e.is_bidirected:
            out.append((e.a, "<->", e.b))
        else:
            out.append((e.directed_tail, "->", e.directed_head))
    return out


def write_doc(path: Path, nodes, edges) -> None:
    """A mixed document: one ``node`` line per node, then one line per edge."""
    lines = [f"node {v}" for v in nodes]
    lines += [f"{u} {op} {v}" for u, op, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def roundtrip_system(n: int, seed: int) -> tuple[ContextedDmg, tuple[str, ...]]:
    """A ``random_dmg`` system over ``n`` observed nodes plus n//10 latent ones.

    Edge probabilities are 2/N directed and 1/N bidirected over the N
    drawn nodes, with n//10 selection nodes; the latent nodes are a
    seeded sample of the non-selection nodes.
    """
    extra = n // 10
    total = n + extra
    c = random_dmg(GeneratorConfig(total, 2 / total, 1 / total, n_selection=n // 10, seed=seed))
    latent = random.Random(seed).sample(list(c.observed), extra)
    return c, tuple(sorted(latent))


def mark_heavy_mixed(n: int, seed: int) -> tuple[list[str], list[tuple[str, str, str]]]:
    """A random mixed graph with about 18% ``<->`` and 7% ``->`` per node pair."""
    rng = random.Random(seed)
    names = relabel(rng, n, "x")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            u = rng.random()
            if u < 0.18:
                edges.append((names[i], "<->", names[j]))
            elif u < 0.25:
                tail, head = (names[i], names[j]) if rng.random() < 0.5 else (names[j], names[i])
                edges.append((tail, "->", head))
    return names, edges


def relabelled(nodes, edges, seed: int, prefix: str):
    """The same graph under seeded fresh node names."""
    rng = random.Random(seed)
    names = dict(zip(nodes, relabel(rng, len(nodes), prefix)))
    return [names[v] for v in nodes], [(names[u], op, names[v]) for u, op, v in edges]


def planted_cyclic_system(n: int, seed: int, n_selection: int) -> ContextedDmg:
    """A sparse system whose strong components are planted three-cycles.

    Nodes sit in a seeded order.  Exactly 0.45n forward directed edges
    keep the graph acyclic except for one three-cycle over each of n//15
    disjoint runs of three consecutive nodes, so every strong component
    is a planted cycle or a single node.  Exactly n/4 bidirected edges
    join random pairs.  Fixed edge counts and component sizes keep the
    size of the abstraction steady from seed to seed.  The selection
    nodes are the last ones in the order; each has exactly two parents,
    both roots, and no other edge, so selection adds the same number of
    edges to every abstraction instead of joining a seed-dependent
    share of the graph's ancestors.
    """
    rng = random.Random(seed)
    names = relabel(rng, n, "q")
    m = n - n_selection
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    directed = {(names[i], names[j]) for i, j in rng.sample(pairs, round(0.45 * n))}
    for start in sorted(rng.sample(range(0, m - 3, 3), n // 15)):
        a, b, c = names[start : start + 3]
        directed.update({(a, b), (b, c), (c, a)})
    bidirected = [(names[i], names[j]) for i, j in rng.sample(pairs, n // 4)]
    selection = names[m:]
    heads = {h for _, h in directed}
    roots = [v for v in names[:m] if v not in heads]
    directed.update((parent, s) for s in selection for parent in rng.sample(roots, 2))
    graph = DirectedMixedGraph(tuple(names), tuple(sorted(directed)), tuple(bidirected))
    return ContextedDmg(graph, tuple(selection))


def chain_pair(k: int, seed: int):
    """A collider chain with ``k`` interior nodes that pins down one node's status.

    ``a -> v0``, ``v_i <-> v_{i+1}``, ``v_last <-> b`` and ``v_i -> c``,
    closed once by ``b <-> c`` and once by ``b -> c``.  The two graphs
    share adjacencies and unshielded colliders and differ only in the
    collider status of ``b`` on the discriminating path a, v0..v_last, b,
    c: given {v0..v_last}, ``a`` and ``c`` are m-separated in the first
    graph and connected in the second.  Returns the node list, both edge
    lists, the discriminating path and the distinguishing statement
    (a, c, Z).
    """
    rng = random.Random(seed)
    labels = ["a"] + [f"v{i}" for i in range(k)] + ["b", "c"]
    names = dict(zip(labels, relabel(rng, len(labels), "d")))
    a, b, c = names["a"], names["b"], names["c"]
    vs = [names[f"v{i}"] for i in range(k)]
    common = [(a, "->", vs[0])]
    common += [(vs[i], "<->", vs[i + 1]) for i in range(k - 1)]
    common += [(vs[-1], "<->", b)]
    common += [(v, "->", c) for v in vs]
    nodes = [a, *vs, b, c]
    collider = common + [(b, "<->", c)]
    non_collider = common + [(b, "->", c)]
    return nodes, collider, non_collider, (a, *vs, b, c), (a, c, tuple(vs))


def big_mixed(n: int, seed: int):
    """A sparse mixed graph with two halves that share no edge.

    About 1.4 edges per node: 60% ``->``, 30% ``<->`` and 10% ``--``, each
    joining two nodes of the same half.  Returns the node list, the
    edges and the two halves.
    """
    rng = random.Random(seed)
    names = relabel(rng, n, "g")
    halves = (names[: n // 2], names[n // 2 :])
    edges = []
    pairs = set()
    for half in halves:
        for _ in range(int(1.4 * len(half))):
            u, v = rng.sample(half, 2)
            if (u, v) in pairs or (v, u) in pairs:
                continue
            pairs.add((u, v))
            r = rng.random()
            op = "->" if r < 0.6 else "<->" if r < 0.9 else "--"
            edges.append((u, op, v))
    return names, edges, halves
