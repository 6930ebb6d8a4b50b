"""Oracle-free checks at sizes the exhaustive oracles cannot reach (n >= 50).

Each seeded system goes through the abstraction laws that must hold
whatever the graph: its representation is valid, the canonical
reconstruction round-trips, and sigma-separation in the system given
Z and the selection set agrees with m-separation in the representation
given Z.  Projecting latent nodes out with ``marginalize`` keeps every
sigma-separation among the nodes that remain.  Cutting a graph down to
the ancestors (sigma) or anteriors (m) of a query keeps its verdict and
witness.  The abstraction commutes with marginalising and conditioning:
a system and the canonical reconstruction of its representation have
the same representation after any latent set is projected out and any
extra selection set added.  Under many selection nodes, ``represent``
and ``sigma_inducing_exists`` agree with the pairwise inducing test,
a sigma search, on every observed pair.
"""

import itertools
import random

import pytest

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
    anteriors,
    canonical_dmg,
    m_separated,
    marginalize,
    random_dmg,
    represent,
    sigma_inducing_exists,
    sigma_separated,
    validate,
)
from fixtures import sigma_inseparable

# (nodes, seed, expected directed / bidirected edges per node, selection nodes)
SYSTEMS = [(50, 1, 1.5, 0.6, 2), (56, 2, 1.2, 0.8, 3), (60, 3, 1.2, 0.8, 2)]
QUERIES = 150


def _system(n, seed, directed, bidirected, n_selection):
    cfg = GeneratorConfig(
        n_nodes=n,
        p_directed=directed / n,
        p_bidirected=bidirected / n,
        n_selection=n_selection,
        seed=seed,
    )
    return random_dmg(cfg)


@pytest.mark.parametrize("n, seed, directed, bidirected, n_selection", SYSTEMS)
def test_abstraction_laws_hold_at_scale(n, seed, directed, bidirected, n_selection):
    c = _system(n, seed, directed, bidirected, n_selection)
    h = represent(c)
    assert validate(h).valid
    assert represent(canonical_dmg(h)) == h

    # Half the queries join a non-adjacent pair, whose verdict depends on Z.
    rng = random.Random(seed)
    observed, s = c.observed, set(c.selection)
    apart = [(a, b) for a, b in itertools.combinations(observed, 2) if not h.adjacent(a, b)]
    verdicts = set()
    for k in range(QUERIES):
        a, b = rng.choice(apart) if k % 2 else rng.sample(observed, 2)
        rest = [v for v in observed if v not in (a, b)]
        z = set(rng.sample(rest, rng.randint(0, len(rest) // 3)))
        m_side = m_separated(h, SeparationQuery(a, b, z)).separated
        sigma_side = sigma_separated(c.graph, SeparationQuery(a, b, z | s)).separated
        assert m_side == sigma_side, (a, b, sorted(z))
        verdicts.add(m_side)
    assert verdicts == {True, False}


# (nodes, seed, expected directed / bidirected edges per node), with n/5
# selection nodes that may have children.  In each, collider chains inside
# Anc(S) join 26 to 292 observed pairs that the acyclification leaves apart.
SELECTION_HEAVY = [(50, 4, 1.5, 0.8), (55, 5, 2.0, 1.0), (60, 6, 1.2, 1.2), (56, 8, 0.8, 0.6)]


@pytest.mark.parametrize("n, seed, directed, bidirected", SELECTION_HEAVY)
def test_represent_is_the_pairwise_test_under_many_selection_nodes(n, seed, directed, bidirected):
    c = random_dmg(GeneratorConfig(n, directed / n, bidirected / n, n // 5, seed), allow_selection_children=True)
    g, s = c.graph, set(c.selection)
    h = represent(c)
    expected = {(a, b) for a, b in itertools.combinations(c.observed, 2) if sigma_inseparable(g, s, a, b)}
    assert {e.endpoints for e in h.edges} == expected
    d = canonical_dmg(h)
    assert represent(d) == h
    # The masks of sigma_inducing_exists answer as the search does, here and on the reconstruction.
    for system in (c, d):
        g, s = system.graph, set(system.selection)
        for a, b in itertools.combinations(system.observed, 2):
            assert sigma_inducing_exists(g, s, a, b) == sigma_inseparable(g, s, a, b), (a, b)


@pytest.mark.parametrize("n, seed, directed, bidirected, n_selection", SYSTEMS)
def test_marginalize_preserves_sigma_separation_at_scale(n, seed, directed, bidirected, n_selection):
    c = _system(n, seed, directed, bidirected, n_selection)
    rng = random.Random(seed)
    latent = set(rng.sample(c.observed, n // 10))
    g = marginalize(c.graph, latent)
    kept, s = [v for v in c.observed if v not in latent], set(c.selection)

    # Half the queries join a pair with no edge left, whose verdict depends on Z.
    apart = [(a, b) for a, b in itertools.combinations(kept, 2) if not g.adjacent(a, b)]
    verdicts = set()
    for k in range(QUERIES):
        a, b = rng.choice(apart) if k % 2 else rng.sample(kept, 2)
        rest = [v for v in kept if v not in (a, b)]
        q = SeparationQuery(a, b, set(rng.sample(rest, rng.randint(0, len(rest) // 3))) | s)
        marginal = sigma_separated(g, q).separated
        assert marginal == sigma_separated(c.graph, q).separated, (a, b, sorted(q.z))
        verdicts.add(marginal)
    assert verdicts == {True, False}


def _induced(graph, keep):
    if isinstance(graph, DirectedMixedGraph):
        return DirectedMixedGraph(
            tuple(v for v in graph.nodes if v in keep),
            tuple((t, h) for t, h in graph.directed if t in keep and h in keep),
            tuple((a, b) for a, b in graph.bidirected if a in keep and b in keep),
        )
    return MixedGraph(
        tuple(v for v in graph.nodes if v in keep),
        tuple(e for e in graph.edges if e.a in keep and e.b in keep),
    )


def _random_marks(n, seed):
    """Random marks on random pairs: mostly not a valid abstraction."""
    rng = random.Random(seed)
    names = [f"v{i:02d}" for i in range(n)]
    return MixedGraph(
        tuple(names),
        tuple(
            MixedEdge(u, rng.choice((TAIL, ARROWHEAD)), v, rng.choice((TAIL, ARROWHEAD)))
            for u, v in itertools.combinations(names, 2)
            if rng.random() < 2.5 / n
        ),
    )


def _render(verdict):
    return verdict.separated, verdict.witness.render() if verdict.witness else None


@pytest.mark.parametrize("n, seed, directed, bidirected, n_selection", SYSTEMS)
def test_verdicts_survive_cutting_to_the_query_closure(n, seed, directed, bidirected, n_selection):
    # Every open walk lies in An(x | y | z) under sigma and in
    # Ant(x | y | z) under m, and those sets keep strong components and
    # Anc(z) whole, so the induced subgraph answers the same.
    c = _system(n, seed, directed, bidirected, n_selection)
    marked = _random_marks(n, seed)
    engines = [
        (sigma_separated, ancestors, c.graph, c.observed, set(c.selection)),
        (m_separated, anteriors, represent(c), c.observed, set()),
        (m_separated, anteriors, marked, marked.nodes, set()),
    ]
    rng = random.Random(seed)
    for separated, closure, graph, nodes, s in engines:
        verdicts = set()
        for _ in range(QUERIES):
            x, y = (set(rng.sample(nodes, rng.choice((1, 1, 2)))) for _ in "xy")
            z = set(rng.sample(nodes, rng.randint(0, len(nodes) // 3))) | s
            q = SeparationQuery(x, y, z)
            whole = separated(graph, q)
            assert _render(separated(_induced(graph, closure(graph, x | y | z)), q)) == _render(whole), q
            verdicts.add(whole.separated)
        assert verdicts == {True, False}


def _projected(c, latent, extra):
    """The representation of ``c`` with ``latent`` marginalised and ``extra`` added to the selection."""
    return represent(ContextedDmg(marginalize(c.graph, latent), c.selection + tuple(extra)))


# Small seeded systems whose selection nodes may have children, beside SYSTEMS.
_SMALL = [(n, seed, 1.6, 0.8, n // 5) for seed, n in enumerate(range(5, 25), start=10)]


@pytest.mark.parametrize("n, seed, directed, bidirected, n_selection", SYSTEMS + _SMALL)
def test_abstraction_commutes_with_marginalising_and_conditioning(n, seed, directed, bidirected, n_selection):
    # d shares only its representation with c, so each side runs its own
    # searches; the first draw has no latent set, the second no extra
    # selection, and one observed node always stays.
    cfg = GeneratorConfig(n, directed / n, bidirected / n, n_selection, seed)
    c = random_dmg(cfg, allow_selection_children=n < 50)
    d = canonical_dmg(represent(c))
    rng = random.Random(seed)
    observed = list(c.observed)
    for k in range(3):
        latent = [] if k == 0 else rng.sample(observed, rng.randint(1, len(observed) // 10 + 1))
        rest = [v for v in observed if v not in latent]
        extra = [] if k == 1 else rng.sample(rest, rng.randint(1 if k == 0 else 0, min(3, len(rest) - 1)))
        assert _projected(c, latent, extra) == _projected(d, latent, extra), (sorted(latent), sorted(extra))
