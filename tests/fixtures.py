"""Shared graphs and seeded generators for the test suite."""

from __future__ import annotations

import random

from cyclomag import (
    ARROWHEAD,
    TAIL,
    ContextedDmg,
    DirectedMixedGraph,
    GeneratorConfig,
    MixedEdge,
    MixedGraph,
    SeparationQuery,
    ancestors,
    random_dmg,
    represent,
    sigma_separated,
    validate,
)

# A four-node directed graph observed through one latent node (u) and one
# selection node (s); the canonical end-to-end example.
SELECTION_DG = ContextedDmg.of(
    "a -> b", "b -> a", "b -> s", "c -> s", "u -> d", "u -> b", selection=("s",)
)

# The same system after projecting the latent node out.
SELECTION_DMG = ContextedDmg.of(
    "a -> b", "b -> a", "b -> s", "c -> s", "b <-> d", selection=("s",)
)

# Its abstraction over the observed nodes.
SELECTION_ABSTRACTION = MixedGraph.of("a -- b", "b -- c", "b -> d", "a -> d")

# A bidirected chain with two directed chords; not a valid abstraction
# because the chain joins the non-adjacent pair (a, d).
INDUCING_CHAIN = MixedGraph.of("a <-> b", "b <-> c", "c <-> d", "b -> d", "c -> a")

# Gallery of valid abstractions and graphs they abstract.
UNDIRECTED_TRIANGLE = MixedGraph.of("a -- b", "b -- c", "c -- a", "a -> d")
TRIANGLE_WITH_HUB = MixedGraph.of(
    "a -- b", "b -- c", "c -- a", "a <-> d", "b <-> d", "c <-> d"
)
UNDIRECTED_FAN = MixedGraph.of("a -- b", "c -- a", "a -> d")

CYCLE_WITH_CHILD = ContextedDmg.of("a -> d", "a -> c", "b -> a", "c -> b")
FORK_WITH_SELECTION = ContextedDmg.of(
    "a -> c", "a -> b", "c -> s_bc", "b -> s_bc", "d <-> a", selection=("s_bc",)
)
HUB_CYCLE_A = ContextedDmg.of("d <-> a", "a -> b", "a -> c", "b -> a", "c -> a")
HUB_CYCLE_B = ContextedDmg.of("a -> c", "c -> b", "b -> a", "d <-> a", "d <-> b")
DOUBLE_SELECTION_FAN = ContextedDmg.of(
    "a -> d", "a -> s_a_b", "b -> s_a_b", "a -> s_a_c", "c -> s_a_c",
    selection=("s_a_c", "s_a_b"),
)
SELECTION_AND_CYCLE = ContextedDmg.of(
    "a -> d", "a -> s_a_b", "b -> s_a_b", "a -> c", "c -> a", selection=("s_a_b",)
)

# Discriminating-path gallery: same skeleton and unshielded colliders,
# opposite status of the discriminated node b.
DISC_TAIL = MixedGraph.of("a <-> q", "q -> c", "q <-> b", "b -> c")
DISC_COLLIDER = MixedGraph.of("a <-> q", "q -> c", "q <-> b", "b <-> c")
# An equivalent pair: a, v, b, c discriminates b in the first graph only,
# since the second has v -> a, so b's differing status decides nothing.
DISC_ONE_SIDED = (
    MixedGraph.of("a <-> v", "a -> b", "v <-> b", "v -> c", "b -> c"),
    MixedGraph.of("v -> a", "b -> a", "v <-> b", "v -> c", "b <-> c"),
)
# A valid pair with five differing discriminating paths: two targets b1,
# b2 of c, each reached from two chain nodes q1, q2, and one more path at
# d.  Trying c, b or the chain's first node in reverse order finds a
# different one first.
_SEVERAL = (
    "a1 <-> q1",
    "a2 <-> q2",
    "q1 -> c",
    "q2 -> c",
    "q1 <-> b1",
    "q2 <-> b1",
    "q1 <-> b2",
    "q2 <-> b2",
    "a3 <-> q3",
    "q3 -> d",
    "q3 <-> e",
)
DISC_SEVERAL = (
    MixedGraph.of(*_SEVERAL, "b1 <-> c", "b2 <-> c", "e <-> d"),
    MixedGraph.of(*_SEVERAL, "b1 -> c", "b2 -> c", "e -> d"),
)


def seeded_contexted(seed: int, max_n: int = 6, max_s: int = 2) -> ContextedDmg:
    """Deterministic random graph with size and densities drawn from the seed."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    ns = rng.randint(0, min(max_s, n - 1))
    cfg = GeneratorConfig(
        n_nodes=n,
        p_directed=rng.uniform(0.1, 0.5),
        p_bidirected=rng.uniform(0.05, 0.35),
        n_selection=ns,
        seed=seed,
    )
    return random_dmg(cfg)


def seeded_valid_mixed(seed: int, max_n: int = 6, max_s: int = 2) -> MixedGraph:
    """A random graph that passes validity checking, via abstraction."""
    return represent(seeded_contexted(seed, max_n, max_s))


def seeded_marked_mixed(seed: int, max_n: int = 8) -> MixedGraph:
    """A valid mixed graph with marks drawn at random, two arrowheads to one tail.

    Unlike abstractions of random systems, these graphs are rich in
    bidirected chains, so discriminating paths are common.  Draws until
    a graph passes validity checking.
    """
    rng = random.Random(seed)
    marks = (TAIL, ARROWHEAD, ARROWHEAD)
    while True:
        names = [f"n{i}" for i in range(rng.randint(4, max_n))]
        p = rng.uniform(0.3, 0.7)
        edges = [
            MixedEdge(u, rng.choice(marks), v, rng.choice(marks))
            for i, u in enumerate(names)
            for v in names[i + 1 :]
            if rng.random() < p
        ]
        h = MixedGraph(tuple(names), tuple(edges))
        if validate(h).valid:
            return h


def seeded_mixed_pair(seed: int, max_n: int = 5) -> tuple[ContextedDmg, ContextedDmg]:
    """Two graphs on shared nodes and selection, biased toward equal skeletons."""
    rng = random.Random(seed)
    base = seeded_contexted(seed, max_n=max_n)
    names = list(base.graph.nodes)
    sel = set(base.selection)
    directed = set(base.graph.directed)
    bidirected = set(base.graph.bidirected)
    for _ in range(rng.randint(0, 3)):
        if len(names) < 2:
            break
        u, v = rng.sample(names, 2)
        if rng.random() < 0.6:
            if u in sel:
                continue
            directed ^= {(u, v)}
        else:
            bidirected ^= {(min(u, v), max(u, v))}
    partner = ContextedDmg(
        DirectedMixedGraph(base.graph.nodes, tuple(directed), tuple(bidirected)),
        base.selection,
    )
    return base, partner


def sigma_inseparable(g: DirectedMixedGraph, s, a, b) -> bool:
    """Whether the sigma engine finds a and b connected given Z_ab = Anc({a, b} | s) - {a, b}.

    The pairwise test of ``represent``, asked of the search rather than of
    the index masks that ``sigma_inducing_exists`` reads."""
    return not sigma_separated(g, SeparationQuery(a, b, ancestors(g, set(s) | {a, b}) - {a, b})).separated


def all_subsets(items):
    items = sorted(items)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
