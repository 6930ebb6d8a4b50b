"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
seeded sizes and time budgets are fixed here, not tunable.
"""

import itertools
import time

from cyclomag import (
    ARROWHEAD,
    GeneratorConfig,
    MixedGraph,
    SeparationQuery,
    ViolationKind,
    ancestors,
    canonical_dmg,
    canonical_inducing_separator,
    condition1,
    discriminating_paths,
    enumerate_simple_paths,
    inducing_paths,
    m_markov_equivalent_oracle,
    m_separated,
    m_separated_oracle,
    marginalize,
    neighborhood,
    neighborhood_complete,
    parse_graph,
    random_dmg,
    represent,
    serialize_graph,
    sigma_markov_equivalent_oracle,
    sigma_separated,
    sigma_separated_oracle,
    validate,
)
from fixtures import (
    CYCLE_WITH_CHILD,
    DISC_COLLIDER,
    DISC_TAIL,
    DOUBLE_SELECTION_FAN,
    FORK_WITH_SELECTION,
    HUB_CYCLE_A,
    HUB_CYCLE_B,
    INDUCING_CHAIN,
    SELECTION_AND_CYCLE,
    SELECTION_DG,
    SELECTION_DMG,
    SELECTION_ABSTRACTION,
    TRIANGLE_WITH_HUB,
    UNDIRECTED_FAN,
    UNDIRECTED_TRIANGLE,
    all_subsets,
    seeded_contexted,
    seeded_mixed_pair,
    seeded_valid_mixed,
)

SELECTION_DG_TEXT = """\
selection s
a -> b
b -> a
b -> s
c -> s
u -> b
u -> d
"""


def _pass(label: str) -> None:
    print(f"{label}: PASS")


def test_criterion_1_latent_selection_pipeline():
    t0 = time.monotonic()
    contexted = parse_graph(SELECTION_DG_TEXT, "dmg")
    assert contexted == SELECTION_DG
    projected = marginalize(contexted.graph, {"u"})
    assert projected == SELECTION_DMG.graph
    assert set(projected.directed) == {("a", "b"), ("b", "a"), ("b", "s"), ("c", "s")}
    assert set(projected.bidirected) == {("b", "d")}
    abstracted = represent(SELECTION_DMG.__class__(projected, contexted.selection))
    assert abstracted == MixedGraph.of("a -- b", "b -- c", "b -> d", "a -> d")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"
    _pass("criterion 1 (latent+selection pipeline, exact, <1s)")


def test_criterion_2_representation_gallery():
    cases = [
        (CYCLE_WITH_CHILD, UNDIRECTED_TRIANGLE),
        (FORK_WITH_SELECTION, UNDIRECTED_TRIANGLE),
        (HUB_CYCLE_A, TRIANGLE_WITH_HUB),
        (HUB_CYCLE_B, TRIANGLE_WITH_HUB),
        (DOUBLE_SELECTION_FAN, UNDIRECTED_FAN),
        (SELECTION_AND_CYCLE, UNDIRECTED_FAN),
    ]
    for contexted, expected in cases:
        assert represent(contexted) == expected
    _pass("criterion 2 (six-case representation gallery, exact)")


def test_criterion_3_inducing_chain_rejection():
    report = validate(INDUCING_CHAIN)
    assert not report.valid
    assert [v.kind for v in report.violations] == [ViolationKind.MAXIMALITY]
    assert report.violations[0].witness[0].render() == "a <-> b <-> c <-> d"
    _pass("criterion 3 (bidirected-chain rejection with witness)")


def test_criterion_4_roundtrip_500():
    t0 = time.monotonic()
    for seed in range(500):
        contexted = seeded_contexted(seed, max_n=6, max_s=2)
        h = represent(contexted)
        assert validate(h).valid, f"seed {seed}: representation failed validation"
        assert represent(canonical_dmg(h)) == h, f"seed {seed}: round trip broke"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"round trips took {elapsed:.1f}s"
    _pass(f"criterion 4 (500 seeded round trips, {elapsed:.1f}s < 60s)")


def test_criterion_5_separation_bridge_200():
    t0 = time.monotonic()
    for seed in range(200):
        contexted = seeded_contexted(seed, max_n=5, max_s=2)
        h = represent(contexted)
        s = set(contexted.selection)
        observed = contexted.observed
        for a, b in itertools.combinations(observed, 2):
            rest = [v for v in observed if v not in (a, b)]
            for z in all_subsets(rest):
                mixed_side = m_separated(h, SeparationQuery((a,), (b,), z)).separated
                graph_side = sigma_separated(
                    contexted.graph, SeparationQuery((a,), (b,), set(z) | s)
                ).separated
                assert mixed_side == graph_side, (seed, a, b, sorted(z))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"bridge sweep took {elapsed:.1f}s"
    _pass(f"criterion 5 (200-graph separation bridge, {elapsed:.1f}s < 300s)")


def test_criterion_6_equivalence_bridge_200():
    curated = [
        (MixedGraph.of("a -> b"), MixedGraph.of("a <-> b")),
        (MixedGraph.of("a -- b"), MixedGraph.of("a -> b")),
        (DISC_TAIL, DISC_TAIL),
        (DISC_TAIL, DISC_COLLIDER),
        (UNDIRECTED_TRIANGLE, TRIANGLE_WITH_HUB),
        (SELECTION_ABSTRACTION, SELECTION_ABSTRACTION),
    ]
    for h1, h2 in curated:
        assert condition1(h1, h2).equivalent == m_markov_equivalent_oracle(h1, h2)[0]
    equivalent_seen = 0
    for seed in range(200):
        c1, c2 = seeded_mixed_pair(seed, max_n=5)
        h1, h2 = represent(c1), represent(c2)
        cond = condition1(h1, h2).equivalent
        assert cond == m_markov_equivalent_oracle(h1, h2)[0], seed
        assert cond == sigma_markov_equivalent_oracle(c1, c2)[0], seed
        equivalent_seen += cond
    assert 0 < equivalent_seen < 200  # both outcomes exercised
    _pass(f"criterion 6 (200 equivalence pairs + curated, {equivalent_seen} equivalent)")


def test_criterion_7_engine_oracle_differential_500():
    t0 = time.monotonic()
    checked = 0
    for seed in range(500):
        contexted = seeded_contexted(seed, max_n=7, max_s=1)
        g = contexted.graph
        for a, b in itertools.combinations(g.nodes, 2):
            rest = [v for v in g.nodes if v not in (a, b)]
            for z in all_subsets(rest):
                q = SeparationQuery((a,), (b,), z)
                checked += 1
                assert (
                    sigma_separated(g, q).separated
                    == sigma_separated_oracle(g, q).separated
                ), (seed, a, b, sorted(z))
        h = represent(contexted)
        for a, b in itertools.combinations(h.nodes, 2):
            rest = [v for v in h.nodes if v not in (a, b)]
            for z in all_subsets(rest):
                q = SeparationQuery((a,), (b,), z)
                checked += 1
                assert (
                    m_separated(h, q).separated == m_separated_oracle(h, q).separated
                ), (seed, a, b, sorted(z))
    elapsed = time.monotonic() - t0
    _pass(
        f"criterion 7 (500-graph engine/oracle differential, {checked} queries, {elapsed:.1f}s)"
    )


def test_criterion_8_structural_property_suite_300():
    graphs = [seeded_valid_mixed(seed, max_n=6, max_s=2) for seed in range(300)]

    for h in graphs:
        # arrowhead-into-undirected triples: same edge type across the
        # shield, both undirected endpoints with complete neighborhoods
        for b in h.nodes:
            nbh = sorted(neighborhood(h, b))
            if not nbh:
                continue
            spikes = [e for e in h.incident_edges(b) if e.mark_at(b) is ARROWHEAD]
            for spike in spikes:
                a = spike.other(b)
                for c in nbh:
                    if c == a:
                        continue
                    ac = h.edge(a, c)
                    assert ac is not None
                    assert ac.mark_at(a) == spike.mark_at(a)
                    assert ac.mark_at(c) == spike.mark_at(b)
                    assert neighborhood_complete(h, b)
                    assert neighborhood_complete(h, c)

        # no directed or almost directed cycles
        for v, w in itertools.combinations(h.nodes, 2):
            assert not (v in ancestors(h, {w}) and w in ancestors(h, {v}))
        for e in h.edges:
            if e.is_bidirected:
                assert e.a not in ancestors(h, {e.b}) - {e.b}
                assert e.b not in ancestors(h, {e.a}) - {e.a}

        # anterior paths that start with a directed edge force ancestry
        for a in h.nodes:
            for b in h.nodes:
                if a == b:
                    continue
                for path in enumerate_simple_paths(h, a, b):
                    if len(path.edges) < 2:
                        continue
                    first = path.edges[0]
                    if not (first.is_directed and first.directed_tail == a):
                        continue
                    if all(e.mark_at(u) is not ARROWHEAD for u, e in zip(path.nodes, path.edges)):
                        assert a in ancestors(h, {b})

        # inducing-path existence is equivalent to universal
        # inseparability and to connectivity at the canonical set
        for a, b in itertools.combinations(h.nodes, 2):
            by_paths = bool(inducing_paths(h, a, b))
            zc = canonical_inducing_separator(h, a, b)
            at_canonical = not m_separated(h, SeparationQuery((a,), (b,), zc)).separated
            rest = [v for v in h.nodes if v not in (a, b)]
            never_separable = all(
                not m_separated(h, SeparationQuery((a,), (b,), z)).separated
                for z in all_subsets(rest)
            )
            assert by_paths == at_canonical == never_separable, (a, b)

        # every set separating the ends of a discriminating path
        # contains the chain, and the target exactly when non-collider
        for dp in discriminating_paths(h):
            rest = [v for v in h.nodes if v not in (dp.a, dp.c)]
            for z in all_subsets(rest):
                if m_separated(h, SeparationQuery((dp.a,), (dp.c,), z)).separated:
                    assert set(dp.nodes[1:-2]) <= set(z)
                    assert (dp.target in z) == (not dp.target_is_collider(h))
    _pass("criterion 8 (structural property suite on 300 graphs)")


def test_criterion_9_io_roundtrip_and_snapshot():
    fixture_graphs = [
        ("dmg", c)
        for c in (
            SELECTION_DG,
            SELECTION_DMG,
            CYCLE_WITH_CHILD,
            FORK_WITH_SELECTION,
            HUB_CYCLE_A,
            HUB_CYCLE_B,
            DOUBLE_SELECTION_FAN,
            SELECTION_AND_CYCLE,
        )
    ] + [
        ("mixed", h)
        for h in (
            SELECTION_ABSTRACTION,
            INDUCING_CHAIN,
            UNDIRECTED_TRIANGLE,
            TRIANGLE_WITH_HUB,
            UNDIRECTED_FAN,
            DISC_TAIL,
            DISC_COLLIDER,
        )
    ]
    for kind, graph in fixture_graphs:
        assert parse_graph(serialize_graph(graph), kind) == graph
    for seed in range(1000):
        c = seeded_contexted(seed, max_n=7, max_s=2)
        assert parse_graph(serialize_graph(c), "dmg") == c

    snapshot = random_dmg(GeneratorConfig(5, 0.3, 0.15, 1, 42))
    assert snapshot.selection == ("v5",)
    assert snapshot.graph.directed == (
        ("v1", "v3"),
        ("v1", "v4"),
        ("v1", "v5"),
        ("v2", "v5"),
        ("v3", "v2"),
        ("v3", "v4"),
        ("v4", "v1"),
        ("v4", "v2"),
    )
    assert snapshot.graph.bidirected == (("v2", "v5"), ("v3", "v4"))
    assert snapshot == random_dmg(GeneratorConfig(5, 0.3, 0.15, 1, 42))
    _pass("criterion 9 (io round trips and generator snapshot)")
