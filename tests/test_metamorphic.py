"""Oracle-free checks at sizes the exhaustive oracles cannot reach (n >= 50).

Each seeded system goes through the abstraction laws that must hold
whatever the graph: its representation is valid, the canonical
reconstruction round-trips, and sigma-separation in the system given
Z and the selection set agrees with m-separation in the representation
given Z.
"""

import itertools
import random

import pytest

from cyclomag import (
    GeneratorConfig,
    SeparationQuery,
    canonical_dmg,
    m_separated,
    random_dmg,
    represent,
    sigma_separated,
    validate,
)

# (nodes, seed, expected directed / bidirected edges per node, selection nodes)
SYSTEMS = [(50, 1, 1.5, 0.6, 2), (56, 2, 1.2, 0.8, 3), (60, 3, 1.2, 0.8, 2)]
QUERIES = 150


@pytest.mark.parametrize("n, seed, directed, bidirected, n_selection", SYSTEMS)
def test_abstraction_laws_hold_at_scale(n, seed, directed, bidirected, n_selection):
    cfg = GeneratorConfig(
        n_nodes=n,
        p_directed=directed / n,
        p_bidirected=bidirected / n,
        n_selection=n_selection,
        seed=seed,
    )
    c = random_dmg(cfg)
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
