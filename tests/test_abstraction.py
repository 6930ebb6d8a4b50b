import itertools
import random
from collections import Counter

import pytest

from cyclomag import (
    ARROWHEAD,
    TAIL,
    ContextedDmg,
    DirectedMixedGraph,
    GeneratorConfig,
    InputError,
    MixedEdge,
    MixedGraph,
    PreconditionError,
    SeparationQuery,
    ViolationKind,
    Walk,
    ancestors,
    anteriors,
    canonical_dmg,
    enumerate_simple_paths,
    inducing_exists,
    inducing_paths,
    represent,
    marginalize,
    random_dmg,
    scc_index,
    sigma_separated,
    validate,
)
from fixtures import (
    CYCLE_WITH_CHILD,
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
    seeded_valid_mixed,
    sigma_inseparable,
)


# --- marginalization ----------------------------------------------------


def test_marginalize_latent_from_selection_dg():
    assert marginalize(SELECTION_DG.graph, {"u"}) == SELECTION_DMG.graph


def test_marginalize_nothing_is_identity():
    g = SELECTION_DMG.graph
    assert marginalize(g, set()) == g


def test_marginalize_fork_becomes_bidirected():
    g = DirectedMixedGraph.of("w -> a", "w -> b")
    out = marginalize(g, {"w"})
    assert out.directed == () and out.bidirected == (("a", "b"),)


def test_marginalize_unknown_node():
    with pytest.raises(InputError):
        marginalize(SELECTION_DMG.graph, {"zz"})


def test_marginalize_composes():
    for seed in range(80):
        g = seeded_contexted(seed, max_n=6, max_s=0).graph
        nodes = list(g.nodes)
        if len(nodes) < 3:
            continue
        w1, w2 = {nodes[0]}, {nodes[-1]}
        assert marginalize(marginalize(g, w1), w2) == marginalize(g, w1 | w2)


def test_marginalize_keeps_bidirected_chains():
    g = DirectedMixedGraph.of("a <- w0", "w0 <- w1", "w1 <-> w2", "w2 -> b")
    assert marginalize(g, {"w0", "w1", "w2"}).bidirected == (("a", "b"),)
    g = DirectedMixedGraph.of("u1 -> a", "u2 -> b", "u1 <-> u2", "c <- a")
    assert marginalize(g, {"u1", "u2"}) == DirectedMixedGraph.of("a -> c", "a <-> b")


def test_marginalize_cycle_through_latent_gives_no_self_loop():
    assert marginalize(DirectedMixedGraph.of("a -> w", "w -> a"), {"w"}) == DirectedMixedGraph(("a",), (), ())
    g = DirectedMixedGraph.of("a -> w0", "w0 -> w1", "w1 -> a", "w1 -> b")
    assert marginalize(g, {"w0", "w1"}) == DirectedMixedGraph.of("a -> b", "a <-> b")


def test_marginalize_preserves_sigma_separation_among_kept_nodes():
    queries = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        g = random_dmg(GeneratorConfig(n, rng.uniform(0.1, 0.5), rng.uniform(0.05, 0.35), seed=seed)).graph
        w = set(rng.sample(g.nodes, rng.randint(1, min(2, n - 2))))
        m = marginalize(g, w)
        for a, b in itertools.combinations(m.nodes, 2):
            for z in all_subsets(set(m.nodes) - {a, b}):
                q = SeparationQuery(a, b, z)
                assert sigma_separated(m, q).separated == sigma_separated(g, q).separated, (seed, sorted(w), q)
                queries += 1
    assert queries > 10_000


# --- representation -----------------------------------------------------


def test_represent_selection_dmg():
    assert represent(SELECTION_DMG) == SELECTION_ABSTRACTION


def test_represent_gallery():
    assert represent(CYCLE_WITH_CHILD) == UNDIRECTED_TRIANGLE
    assert represent(FORK_WITH_SELECTION) == UNDIRECTED_TRIANGLE
    assert represent(HUB_CYCLE_A) == TRIANGLE_WITH_HUB
    assert represent(HUB_CYCLE_B) == TRIANGLE_WITH_HUB
    assert represent(DOUBLE_SELECTION_FAN) == UNDIRECTED_FAN
    assert represent(SELECTION_AND_CYCLE) == UNDIRECTED_FAN


def test_represent_refuses_a_graph_that_is_no_contexted_dmg():
    with pytest.raises(InputError, match="^represent needs a ContextedDmg, not DirectedMixedGraph$"):
        represent(SELECTION_DMG.graph)


def test_represent_single_edge():
    assert represent(ContextedDmg.of("a -> b")) == MixedGraph.of("a -> b")


def test_represent_output_is_always_valid():
    for seed in range(120):
        h = represent(seeded_contexted(seed, max_n=6))
        assert validate(h).valid


def _dense_cycles(seed: int) -> ContextedDmg:
    # One directed cycle through every node plus random chords and
    # bidirected edges; selection nodes keep their children.
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(rng.randint(3, 10))]
    ring = rng.sample(names, len(names))
    directed = list(zip(ring, ring[1:] + ring[:1]))
    directed += [(u, v) for u in names for v in names if u != v and rng.random() < 0.2]
    bidirected = [(u, v) for u, v in itertools.combinations(names, 2) if rng.random() < 0.15]
    selection = rng.sample(names, rng.randint(0, min(3, len(names) - 2)))
    return ContextedDmg(DirectedMixedGraph(tuple(names), tuple(directed), tuple(bidirected)), tuple(selection))


def test_represent_matches_engine_on_every_pair():
    # represent decides the pairs its acyclification joins from the index;
    # the engine alone must agree on every pair, and the marks must
    # follow ancestry of the other endpoint or of the selection set.
    systems = []
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(3, 14)
        cfg = GeneratorConfig(n, rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3), rng.randint(0, min(3, n - 2)), seed)
        systems.append(random_dmg(cfg, allow_selection_children=seed % 2 == 1))
    systems += [_dense_cycles(seed) for seed in range(120)]
    systems += [canonical_dmg(seeded_valid_mixed(seed, max_n=8)) for seed in range(80)]
    two_cycles = 0
    for c in systems:
        g, s = c.graph, set(c.selection)
        two_cycles += any((h, t) in g.directed for t, h in g.directed)
        out = represent(c)
        expected = {(a, b) for a, b in itertools.combinations(c.observed, 2) if sigma_inseparable(g, s, a, b)}
        assert {e.endpoints for e in out.edges} == expected
        for e in out.edges:
            for v, w in (e.endpoints, e.endpoints[::-1]):
                assert (e.mark_at(v) is TAIL) == (v in ancestors(g, s | {w}))
    assert len(systems) >= 300 and two_cycles >= 40


def _record_sigma_queries(monkeypatch) -> list:
    """Patch the sigma engine to log the x and y of every query, and return the log."""
    from cyclomag import separation

    searched, engine = [], separation.sigma_separated

    def record(g, query):
        searched.append((tuple(sorted(query.x)), tuple(sorted(query.y))))
        return engine(g, query)

    monkeypatch.setattr(separation, "sigma_separated", record)
    return searched


def _searched_pairs(searched) -> set:
    """The pairs {x} x y over the logged queries, x one node each."""
    assert all(len(x) == 1 for x, _ in searched)
    return {frozenset((x, b)) for (x,), y in searched for b in y}


def test_represent_searches_only_separable_candidates(monkeypatch):
    searched = _record_sigma_queries(monkeypatch)
    # A 4-cycle (a, c and b, d share its component without an edge), the
    # edge d -> e, and the collider d -> e <- f.  Of the seven pairs the
    # acyclification leaves apart, six are separated without a search:
    # the collider chains from a, b and c run inside the cycle, even over
    # the whole acyclification, so none ends at a node that e or f points
    # into.  Only df is searched: d's chain d -> e ends where f points in,
    # and neither end lies in the other's T = Anc(end).
    c = ContextedDmg.of("a -> b", "b -> c", "c -> d", "d -> a", "d -> e", "f -> e")
    h = represent(c)
    assert sorted(searched) == [(("d",), ("f",))]
    assert _searched_pairs(searched) == {frozenset("df")}
    assert h == MixedGraph.of("a -- b", "b -- c", "c -- d", "a -- d", "a -- c", "b -- d", "d -> e", "f -> e")


def _acyclification(g: DirectedMixedGraph) -> tuple[set, set]:
    """The edges of the acyclification, built by its three rules: the
    pairs (u, v) of every u *-> v, and the pairs joined by u <-> v."""
    comp = scc_index(g)
    bidirected = {frozenset((u, v)) for u in g.nodes for v in comp[u]}  # each component a bidirected clique
    bidirected |= {frozenset((u, v)) for a, b in g.bidirected for u in comp[a] for v in comp[b]}  # sc(a) x sc(b)
    bidirected = {p for p in bidirected if len(p) == 2}
    heads = {(u, v) for p in bidirected for u in p for v in p if u != v}
    heads |= {(t, v) for t, h in g.directed if t not in comp[h] for v in comp[h]}  # t -> h reaches all of sc(h)
    return heads, bidirected


def _acyclification_pairs(g: DirectedMixedGraph) -> set:
    """The adjacent pairs of the acyclification."""
    return {frozenset(p) for p in _acyclification(g)[0]}


def _chain_ends(g: DirectedMixedGraph):
    """A function of a node a and a node set, giving the nodes b that a
    collider chain a *-> c1 <-> .. <-> ck <-* b of the acyclification
    joins to a with every ci in the set."""
    heads, bidirected = _acyclification(g)
    into = {v: {w for u, w in heads if u == v} for v in g.nodes}
    beside = {v: {w for p in bidirected if v in p for w in p if w != v} for v in g.nodes}

    def ends(a, inside: set) -> set:
        reached = into[a] & inside
        frontier = list(reached)
        while frontier:
            step = beside[frontier.pop()] & inside - reached
            reached |= step
            frontier += step
        return {b for b in g.nodes if reached & into[b]}

    return ends


def _chain_pairs(c: ContextedDmg, pairs: set) -> set:
    """The ``pairs`` a, b that a collider chain a *-> c1 <-> .. <-> ck <-* b
    of the acyclification joins with every ci in Anc({a, b} | S) - {a, b}."""
    ends = _chain_ends(c.graph)
    return {frozenset((a, b)) for a, b in map(sorted, pairs) if b in ends(a, ancestors(c.graph, {a, b, *c.selection}) - {a, b})}


def test_acy_is_the_acyclification_and_represent_searches_every_other_pair(monkeypatch):
    systems = [_dense_cycles(seed) for seed in range(40)]
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(4, 16)
        cfg = GeneratorConfig(n, rng.uniform(1.0, 2.5) / n, rng.uniform(0.5, 1.5) / n, rng.randint(0, n // 4), seed)
        systems.append(random_dmg(cfg, allow_selection_children=seed % 2 == 1))
    searched = _record_sigma_queries(monkeypatch)
    cyclic = chained = outside = far = plain = 0
    for c in systems:
        g = c.graph
        idx = g.index
        joined = _acyclification_pairs(g)
        for u in g.nodes:  # each node's own mask, itself included
            assert set(idx.members(idx.acy[idx.ids[u]])) == {u} | {v for p in joined if u in p for v in p}, u
        cyclic += 1 < len(set(idx.scc)) < len(g.nodes)  # a cycle beside other components
        # The pairs with one end in T = Anc(the other end) | Anc(S), where
        # Anc({a, b} | S) is that T, so its collider chains decide them.
        t = {v: ancestors(g, {v, *c.selection}) for v in c.observed}
        pairs = {frozenset(p) for p in itertools.combinations(c.observed, 2)} - joined
        in_t = {p for p in pairs if any(b in t[a] for a, b in (sorted(p), sorted(p)[::-1]))}
        chains = _chain_pairs(c, in_t)
        # A chain from a inside T joins a to its end anywhere, as T lies in
        # every Anc({a, b} | S); no chain over all of the acyclification
        # separates a from the rest.
        ends = _chain_ends(g)
        from_t = {p for a in c.observed for b in ends(a, t[a] - {a}) if (p := frozenset((a, b))) in pairs}
        beyond = {p for a in c.observed for p in pairs if a in p and not p - {a} <= ends(a, set(g.nodes) - {a})}
        chained += bool(chains)
        outside += bool(from_t - in_t)
        far += bool(beyond - in_t)
        plain += not c.selection  # T is Anc(a) alone
        searched.clear()
        h = represent(c)
        # Every pair that neither the acyclification joins nor these rules
        # decide is searched, and has its own query if it has one.  A pair
        # they separate beyond T may still sit in a group, as the ancestor
        # of a searched partner; no other pair is searched.
        left = pairs - in_t - from_t - beyond
        found = _searched_pairs(searched)
        assert left <= found <= left | beyond
        assert {frozenset((x, *y)) for (x,), y in searched if len(y) == 1} <= left
        # Of the pairs T holds, the chains join the adjacent ones; the chains from inside T join adjacent pairs only.
        adjacent = {frozenset(e.endpoints) for e in h.edges}
        assert adjacent & in_t == chains and from_t <= adjacent and not adjacent & beyond
    assert cyclic >= 40 and chained >= 20 and outside >= 10 and far >= 20 and plain >= 20


def test_pairs_joined_by_a_selection_chain_are_inseparable(monkeypatch):
    # The pairs represent decides with no search, beyond those the
    # acyclification joins, are adjacent exactly when they pass the
    # pairwise test: collider chains inside T join some, and the pairs
    # inside T that no chain joins are separated.
    systems = [_dense_cycles(seed) for seed in range(60)]
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(5, 30)
        cfg = GeneratorConfig(n, rng.uniform(1.0, 3.0) / n, rng.uniform(0.3, 1.5) / n, rng.randint(1, n // 3), seed)
        systems.append(random_dmg(cfg, allow_selection_children=seed % 2 == 1))
    systems += [canonical_dmg(seeded_valid_mixed(seed, max_n=8)) for seed in range(60)]
    searched = _record_sigma_queries(monkeypatch)
    decided = Counter()
    for c in systems:
        g, s = c.graph, set(c.selection)
        searched.clear()
        h = represent(c)
        unsearched = {frozenset(p) for p in itertools.combinations(c.observed, 2)} - _searched_pairs(searched)
        for a, b in map(sorted, unsearched - _acyclification_pairs(g)):
            adjacent = h.adjacent(a, b)
            assert adjacent == sigma_inseparable(g, s, a, b), (a, b)
            decided[adjacent] += 1
    assert decided[True] >= 1000 and decided[False] >= 2000


def _random_system(seed: int, max_n: int = 14) -> ContextedDmg:
    """A random_dmg system of 3..max_n nodes, with selection children when the seed is odd."""
    rng = random.Random(seed)
    n = rng.randint(3, max_n)
    cfg = GeneratorConfig(n, rng.uniform(0.8, 3.0) / n, rng.uniform(0.2, 1.5) / n, rng.randint(0, n // 4), seed)
    return random_dmg(cfg, allow_selection_children=seed % 2 == 1)


def _record_sigma_verdicts(monkeypatch) -> list:
    """Patch the sigma engine to log every query with its verdict, and return the log."""
    from cyclomag import separation

    log, engine = [], separation.sigma_separated

    def record(g, query):
        verdict = engine(g, query)
        log.append((query, verdict.separated))
        return verdict

    monkeypatch.setattr(separation, "sigma_separated", record)
    return log


def test_represent_groups_agree_with_the_pairwise_test(monkeypatch):
    # Sparse, dense and bidirected-heavy systems with n = 30..80, half of
    # them with selection children, and one small system with a connected
    # pair of its own.  Across the sample, represent must run a group and
    # a pair that no group takes, whose z reaches outside Anc(x | S), and
    # one such pair must come back connected.  Every group query must meet
    # the precondition of the grouping: with T = Anc(a) | Anc(S) for
    # x = {a}, z lies in T and T | y is closed under ancestors.  A group
    # that leaves out its members' ancestors outside T breaks it, though on
    # this sample it changes no output.  Every group comes back separated,
    # as a walk it leaves open ends a collider chain inside T.
    log = _record_sigma_verdicts(monkeypatch)
    systems = []
    for k, n in enumerate((30, 45, 60, 80)):
        for p_dir, p_bi in ((1.2, 0.5), (2.5, 1.2), (1.0, 2.0)):
            systems.append(random_dmg(GeneratorConfig(n, p_dir / n, p_bi / n, n // 10, k), allow_selection_children=k % 2 == 1))
    # v7 <-> v2 <-> v3 <-> v8 joins v7 and v8 here, with v2 in Anc(v7) only
    # and v3 in Anc(v8) only, so neither end's T holds the chain.
    systems.append(_random_system(625))
    cases = set()
    for c in systems:
        g, s = c.graph, set(c.selection)
        idx = g.index
        log.clear()
        h = represent(c)
        for query, separated in log:
            if len(query.y) > 1:
                cases.add("group")
                assert separated, query
                t, y = idx.union(idx.anc, idx.mask(query.x | s)), idx.mask(query.y)
                assert not idx.mask(query.z) & ~t and not idx.union(idx.anc, y) & ~(t | y), query
            if query.z - ancestors(g, query.x | s):
                cases.add("own pair" if separated else "connected own pair")
        expected = {(a, b) for a, b in itertools.combinations(c.observed, 2) if sigma_inseparable(g, s, a, b)}
        assert {e.endpoints for e in h.edges} == expected, c
    assert cases == {"group", "own pair", "connected own pair"}


def test_every_group_query_comes_back_separated(monkeypatch):
    # A group's z is T - {a} once every collider chain from a inside T is
    # decided, so a walk it left open would end a chain that R1 already
    # joined.  Only a pair's own query can come back connected.
    log = _record_sigma_verdicts(monkeypatch)
    groups = Counter()
    own = Counter()
    for seed in range(2000):
        log.clear()
        represent(_random_system(seed, max_n=26))
        for query, separated in log:
            (groups if len(query.y) > 1 else own)[separated] += 1
    assert groups[True] >= 1500 and not groups[False]
    assert own[True] >= 1000 and own[False] >= 5


def test_acy_spikes_is_the_transpose_of_acy_heads():
    # Parallel edges, selection children, and strong components of up to
    # twenty nodes; each mask against its transpose and against the
    # acyclification built by its rules.
    systems = [_dense_cycles(seed) for seed in range(40)]
    systems += [_random_system(seed) for seed in range(100)]
    systems += [random_dmg(GeneratorConfig(n, 3 / n, 1 / n, n // 10, n), allow_selection_children=True) for n in (20, 40)]
    parallel = big = 0
    for c in systems:
        g = c.graph
        idx = g.index
        heads, _ = _acyclification(g)
        for v in g.nodes:
            i = idx.ids[v]
            assert set(idx.members(idx.acy_spikes[i])) == {u for u, w in heads if w == v}, v
            assert idx.acy_spikes[i] == sum(1 << j for j, row in enumerate(idx.acy_heads) if row >> i & 1), v
        parallel += any(p in g.directed or p[::-1] in g.directed for p in g.bidirected)
        big += max(Counter(idx.scc).values()) >= 15
    assert parallel >= 20 and big >= 2


def test_represent_searches_few_pairs_on_a_sparse_system(monkeypatch):
    # The ladder's sparse shape at n = 100, with no selection node: 3,962
    # pairs that the acyclification leaves apart, 60 queries.  With the
    # pairs inside one end's T alone decided from chains it took 120.
    searched = _record_sigma_queries(monkeypatch)
    c = random_dmg(GeneratorConfig(100, 1.5 / 100, 0.8 / 100, 0, 0))
    idx = c.graph.index
    assert sum(not idx.acy[i] >> j & 1 for i, j in itertools.combinations(range(100), 2)) == 3962
    represent(c)
    assert len(searched) <= 66


def test_represent_runs_far_fewer_queries_than_pairs(monkeypatch):
    # One query per pair that the acyclification leaves apart would be
    # 3,884 and 1,907 queries here; represent runs 23 and 11, as the
    # collider closures from each node, inside T = Anc(a) | Anc(S) and
    # over the whole acyclification, decide most pairs and the rest go in
    # groups (63 and 32 with the pairs inside T alone decided).
    searched = _record_sigma_queries(monkeypatch)
    sparse = GeneratorConfig(100, 1.2 / 100, 0.5 / 100, 5, 4)
    dense = GeneratorConfig(100, 2 / 100, 1 / 100, 10, 1)
    for cfg, apart, bound in ((sparse, 3884, 25), (dense, 1907, 12)):
        c = random_dmg(cfg)
        idx = c.graph.index
        ids = [idx.ids[v] for v in c.observed]
        assert sum(not idx.acy[i] >> j & 1 for i, j in itertools.combinations(ids, 2)) == apart
        searched.clear()
        represent(c)
        assert len(searched) <= bound, cfg


def test_represent_decides_selection_chains_without_a_search(monkeypatch):
    # Of the adjacent pairs that the acyclification leaves apart here, 326
    # and 713 in the systems and 233 and 1,241 in their canonical dmgs,
    # collider chains from one end inside its T = Anc(a) | Anc(S) join all
    # but 0, 1, 0 and 0, so the queries left are nearly all separated
    # groups: 23, 11, 24 and 10 queries (63, 32, 53 and 15 when only the
    # partners inside T were decided from those chains).
    searched = _record_sigma_queries(monkeypatch)
    sparse = GeneratorConfig(100, 1.2 / 100, 0.5 / 100, 5, 4)
    dense = GeneratorConfig(100, 2 / 100, 1 / 100, 10, 1)
    for cfg, bound, canonical_bound in ((sparse, 25, 26), (dense, 12, 11)):
        c = random_dmg(cfg)
        searched.clear()
        h = represent(c)
        assert len(searched) <= bound, cfg
        searched.clear()
        assert represent(canonical_dmg(h)) == h
        assert len(searched) <= canonical_bound, cfg


def test_represent_round_trips_dense_n160_in_few_queries(monkeypatch):
    # All but 137 of the 10,296 observed pairs of this canonical dmg (991
    # nodes, 144 observed) lie inside one end's T or are joined in its
    # acyclification, and the collider closures over the whole
    # acyclification separate the 137 with no query.  Deciding the pairs
    # inside T alone left 17 separated group queries; the group queries
    # alone, with chains inside Anc(S) only, took 142.
    searched = _record_sigma_queries(monkeypatch)
    h = represent(random_dmg(GeneratorConfig(160, 2 / 160, 1 / 160, 16, 1)))
    searched.clear()
    assert represent(canonical_dmg(h)) == h
    assert not searched


# --- validity checking --------------------------------------------------


def test_inducing_chain_rejected_with_single_violation():
    report = validate(INDUCING_CHAIN)
    assert not report.valid
    kinds = [v.kind for v in report.violations]
    assert kinds == [ViolationKind.MAXIMALITY]
    witness = report.violations[0].witness[0]
    assert witness.render() == "a <-> b <-> c <-> d"


def test_validate_refuses_a_directed_mixed_graph():
    with pytest.raises(InputError, match="^validate needs a MixedGraph, not DirectedMixedGraph$"):
        validate(DirectedMixedGraph.of("a -> b", "b -> a"))


def test_triangle_with_hub_is_valid():
    assert validate(TRIANGLE_WITH_HUB).valid


def test_single_node_is_valid():
    assert validate(MixedGraph(("a",), ())).valid


def test_arrow_into_undirected_fan_must_be_shielded():
    report = validate(MixedGraph.of("a -> b", "b -- c"))
    assert not report.valid
    assert [v.kind for v in report.violations] == [ViolationKind.SIGMA_COMPLETENESS]
    assert report.violations[0].witness == ("a", "b", "c")


def test_unshielded_fan_members_must_be_adjacent():
    h = MixedGraph.of("a -> b", "b -- c", "b -- d", "a -> c", "a -> d")
    report = validate(h)
    assert [v.kind for v in report.violations] == [ViolationKind.SIGMA_COMPLETENESS]
    assert report.violations[0].witness == ("a", "b", "c", "d")


def test_ancestral_violation_reported_with_path_and_edge():
    report = validate(MixedGraph.of("a -> b", "b -> c", "c <-> a"))
    assert not report.valid
    ancestral = [v for v in report.violations if v.kind == ViolationKind.ANCESTRAL]
    assert ancestral
    path, edge = ancestral[0].witness
    assert path.nodes[0] in ("a", "c") and edge == MixedGraph.of("c <-> a").edges[0]


def test_witnesses_recheck_as_violations():
    for seed in range(300):
        # random mark soup, mostly invalid; sparser as n grows so that
        # enumerating every inducing path stays cheap
        rng = random.Random(seed)
        names = tuple(f"n{i}" for i in range(rng.randint(2, 9)))
        p_none = rng.choice([0.2, 0.45, 0.6] if len(names) <= 6 else [0.45, 0.6])
        edges = []
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if rng.random() < p_none:
                    continue
                kind = rng.choice(["->", "<-", "<->", "--"])
                if kind == "->":
                    edges.append(MixedGraph.of(f"{a} -> {b}").edges[0])
                elif kind == "<-":
                    edges.append(MixedGraph.of(f"{b} -> {a}").edges[0])
                elif kind == "<->":
                    edges.append(MixedGraph.of(f"{a} <-> {b}").edges[0])
                else:
                    edges.append(MixedGraph.of(f"{a} -- {b}").edges[0])
        h = MixedGraph(names, tuple(edges))
        report = validate(h)
        maximality = {}
        for v in report.violations:
            if v.kind is ViolationKind.MAXIMALITY:
                path = v.witness[0]
                maximality[path.start, path.end] = path
                assert not h.adjacent(path.start, path.end)
                anc_ends = ancestors(h, {path.start, path.end})
                for k in range(1, len(path.edges)):
                    node = path.nodes[k]
                    assert path.edges[k - 1].mark_at(node) is ARROWHEAD
                    assert path.edges[k].mark_at(node) is ARROWHEAD
                    assert node in anc_ends
            elif v.kind is ViolationKind.ANCESTRAL:
                path, edge = v.witness
                assert path.nodes[0] in anteriors(h, {path.nodes[-1]})
                assert edge.mark_at(path.nodes[0]) is ARROWHEAD
                # The first shortest all-tails path in enumeration order.
                tails = (
                    p
                    for p in enumerate_simple_paths(h, path.start, path.end)
                    if all(e.mark_at(u) is TAIL for u, e in zip(p.nodes, p.edges))
                )
                assert path == min(tails, key=lambda p: len(p.edges))
            elif v.kind is ViolationKind.SIGMA_COMPLETENESS:
                a, b = v.witness[0], v.witness[1]
                e = h.edge(a, b)
                assert e is not None and e.mark_at(b) is ARROWHEAD
                if len(v.witness) == 3:
                    assert not h.adjacent(v.witness[0], v.witness[2])
                else:
                    assert not h.adjacent(v.witness[2], v.witness[3])
        # The maximality witness of a pair is its first shortest inducing
        # path in enumeration order, and existence agrees with enumeration.
        for a, b in itertools.combinations(h.nodes, 2):
            paths = inducing_paths(h, a, b)
            assert inducing_exists(h, a, b) == bool(paths)
            if not h.adjacent(a, b):
                assert maximality.get((a, b)) == min(paths, key=lambda p: len(p.edges), default=None)


def _least_shortest_path(incident, a, b, may_step):
    """The least node sequence in name order among the shortest paths from
    ``a`` to ``b`` whose every step u -> w over e passes ``may_step(u, e, w)``:
    the first shortest one that enumeration yields.  ``incident`` maps each
    node to its incident edges.

    Level sets of the distance to ``b``, then the least next node one step
    closer.  ``may_step`` tests each edge on its own, so a shortest walk is
    a path.  It shares no search with the library.
    """
    dist, level = {b: 0}, [b]
    while level and a not in dist:
        nearer = []
        for w in level:
            for e in incident[w]:
                u = e.other(w)
                if u not in dist and may_step(u, e, w):
                    dist[u] = dist[w] + 1
                    nearer.append(u)
        level = nearer
    if a not in dist:
        return None
    nodes = [a]
    while nodes[-1] != b:
        u = nodes[-1]
        steps = (e.other(u) for e in incident[u] if may_step(u, e, e.other(u)))
        nodes.append(min(w for w in steps if dist.get(w) == dist[u] - 1))
    return Walk(a, tuple(next(e for e in incident[u] if e.other(u) == w) for u, w in zip(nodes, nodes[1:])))


def _reference_validate(h):
    """``validate`` as per-pair loops over ``h.edge`` and ``h.adjacent``."""
    from cyclomag.abstraction import Violation, _violation_sort_key
    from cyclomag.relations import neighborhood

    violations = []
    incident = {v: h.incident_edges(v) for v in h.nodes}
    for b in h.nodes:
        for a in sorted(anteriors(h, {b}) - {b}):
            e = h.edge(a, b)
            if e is not None and e.mark_at(a) is ARROWHEAD:
                path = _least_shortest_path(incident, a, b, lambda u, e, w: e.mark_at(u) is TAIL)
                violations.append(Violation(ViolationKind.ANCESTRAL, (path, e)))
    for a, b in itertools.combinations(h.nodes, 2):
        if not h.adjacent(a, b):
            anc_ends = ancestors(h, {a, b})

            def collider_step(u, e, w):
                into_w = w == b or (e.mark_at(w) is ARROWHEAD and w in anc_ends)
                return (u == a or e.mark_at(u) is ARROWHEAD) and into_w

            witness = _least_shortest_path(incident, a, b, collider_step)
            if witness is not None:
                violations.append(Violation(ViolationKind.MAXIMALITY, (witness,)))
    for b in h.nodes:
        nbh = sorted(neighborhood(h, b))
        spikes = sorted(e.other(b) for e in h.incident_edges(b) if e.mark_at(b) is ARROWHEAD)
        if not nbh or not spikes:
            continue
        gaps = [(c, d) for c, d in itertools.combinations(nbh, 2) if not h.adjacent(c, d)]
        for a in spikes:
            for c in nbh:
                if not h.adjacent(a, c):
                    violations.append(Violation(ViolationKind.SIGMA_COMPLETENESS, (a, b, c)))
            for c, d in gaps:
                violations.append(Violation(ViolationKind.SIGMA_COMPLETENESS, (a, b, c, d)))
    violations.sort(key=_violation_sort_key)
    return tuple(violations)


def _reference_neighborhood_complete(h, v):
    from cyclomag.relations import neighborhood

    nbh = sorted(neighborhood(h, v))
    for i, b in enumerate(nbh):
        for c in nbh[i + 1 :]:
            e = h.edge(b, c)
            if e is None or not e.is_undirected:
                return False
    return True


def _reference_unshielded_colliders(h):
    out = set()
    for b in h.nodes:
        spikes = sorted(e.other(b) for e in h.incident_edges(b) if e.mark_at(b) is ARROWHEAD)
        for a, c in itertools.combinations(spikes, 2):
            if not h.adjacent(a, c):
                out.add((a, b, c))
    return frozenset(out)


def _marked_and_abstracted(count):
    """Seeded mixed graphs with n = 2..30: random marks of all four edge
    kinds (mostly invalid), and every fourth an abstraction (valid)."""
    for seed in range(count):
        rng = random.Random(seed)
        n = 2 + seed % 29
        if seed % 4 == 3:
            cfg = GeneratorConfig(n + 2, 1.5 / n, 1.0 / n, n_selection=2, seed=seed)
            yield represent(random_dmg(cfg, allow_selection_children=seed % 8 == 3))
            continue
        names = tuple(f"n{i}" for i in range(n))
        p = rng.choice([0.1, 0.25, 0.5])
        marks = (TAIL, ARROWHEAD)
        edges = [
            MixedEdge(a, rng.choice(marks), b, rng.choice(marks))
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if rng.random() < p
        ]
        yield MixedGraph(names, tuple(edges))


def test_validate_matches_reference_loops():
    from cyclomag import neighborhood_complete, unshielded_colliders

    valid = 0
    for h in _marked_and_abstracted(160):
        report = validate(h)
        assert report.violations == _reference_validate(h)
        assert report.valid == (not report.violations)
        valid += report.valid
        assert unshielded_colliders(h) == _reference_unshielded_colliders(h)
        for v in h.nodes:
            assert neighborhood_complete(h, v) == _reference_neighborhood_complete(h, v)
    assert 40 <= valid <= 120


def test_validate_searches_only_flagged_pairs(monkeypatch):
    from cyclomag import abstraction

    searched = []
    search = abstraction._shortest_inducing_path

    def record(idx, ia, ib):
        searched.append((idx.names[ia], idx.names[ib]))
        return search(idx, ia, ib)

    monkeypatch.setattr(abstraction, "_shortest_inducing_path", record)
    apart = found = 0
    for h in _marked_and_abstracted(120):
        searched.clear()
        report = validate(h)
        flagged = [v.witness[0] for v in report.violations if v.kind is ViolationKind.MAXIMALITY]
        assert sorted(searched) == sorted((p.start, p.end) for p in flagged)
        apart += sum(not h.adjacent(a, b) for a, b in itertools.combinations(h.nodes, 2))
        found += len(flagged)
    # Most non-adjacent pairs have no inducing path and are never searched.
    assert found > 500 and apart > 2 * found


def test_validate_never_enumerates_paths(monkeypatch):
    from cyclomag import abstraction, separation

    def refuse(*args, **kwargs):
        raise AssertionError("validate enumerated paths")

    monkeypatch.setattr(separation, "_iter_inducing_paths", refuse)
    monkeypatch.setattr(abstraction, "_iter_inducing_paths", refuse)
    monkeypatch.setattr(separation, "enumerate_simple_paths", refuse)
    # Mark-heavy: about 18% <-> and 7% -> per pair.  Enumerating this
    # graph's inducing paths takes more than a minute.
    rng = random.Random(22)
    names = [f"x{i}" for i in range(22)]
    specs = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            u = rng.random()
            if u < 0.18:
                specs.append(f"{a} <-> {b}")
            elif u < 0.25:
                specs.append(f"{a} -> {b}" if rng.random() < 0.5 else f"{b} -> {a}")
    report = validate(MixedGraph.of(*specs, nodes=names))
    assert any(v.kind is ViolationKind.MAXIMALITY for v in report.violations)


def test_accepted_graphs_satisfy_structural_laws():
    from cyclomag import ARROWHEAD

    for seed in range(80):
        h = seeded_valid_mixed(seed, max_n=6)
        # no directed or almost directed cycles
        for v, w in itertools.permutations(h.nodes, 2):
            if v in ancestors(h, {w}) and w in ancestors(h, {v}):
                pytest.fail(f"directed cycle between {v} and {w}")
        for e in h.edges:
            if e.is_bidirected:
                assert e.a not in ancestors(h, {e.b}) - {e.b}
                assert e.b not in ancestors(h, {e.a}) - {e.a}
        # arrowhead-into-undirected triples force equal edge types and
        # complete neighborhoods on both undirected endpoints
        from cyclomag import neighborhood, neighborhood_complete

        for b in h.nodes:
            spikes = [e for e in h.incident_edges(b) if e.mark_at(b) is ARROWHEAD]
            nbh = neighborhood(h, b)
            if not nbh:
                continue
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


def test_anterior_implies_origin_ancestry():
    for seed in range(60):
        c = seeded_contexted(seed, max_n=5)
        h = represent(c)
        s = set(c.selection)
        for b in h.nodes:
            for a in anteriors(h, {b}):
                assert a in ancestors(c.graph, {b} | s)


# --- canonical reconstruction -------------------------------------------


def test_canonical_of_fan_introduces_selection():
    c = canonical_dmg(UNDIRECTED_FAN)
    assert c.selection == ("s_a_b", "s_a_c")
    assert set(c.graph.directed) == {
        ("a", "d"),
        ("a", "s_a_b"),
        ("b", "s_a_b"),
        ("a", "s_a_c"),
        ("c", "s_a_c"),
    }
    assert c.graph.bidirected == ()


def test_canonical_of_triangle_uses_two_cycles():
    c = canonical_dmg(UNDIRECTED_TRIANGLE)
    assert c.selection == ()
    assert set(c.graph.directed) == {
        ("a", "b"),
        ("b", "a"),
        ("b", "c"),
        ("c", "b"),
        ("c", "a"),
        ("a", "c"),
        ("a", "d"),
    }


def test_canonical_of_directed_edge_is_identity():
    c = canonical_dmg(MixedGraph.of("a -> b"))
    assert c.selection == () and c.graph == DirectedMixedGraph.of("a -> b")


def test_canonical_rejects_invalid_input():
    with pytest.raises(PreconditionError):
        canonical_dmg(INDUCING_CHAIN)


def test_canonical_selection_name_collision():
    h = MixedGraph.of("a -- b", "a -- c", "a -> d", nodes=("s_a_b",))
    c = canonical_dmg(h)
    assert "s_a_b_1" in c.selection


def test_roundtrip_on_seeded_graphs():
    for seed in range(100):
        h = represent(seeded_contexted(seed, max_n=6))
        assert represent(canonical_dmg(h)) == h


def test_maximality_rule_never_fires_without_arrow_undirected_contact():
    # Graphs with no arrowhead-meets-undirected triple behave like plain
    # ancestral graphs: dropping the contact rule changes no verdict.
    from cyclomag import ARROWHEAD, m_separated_oracle

    def has_contact(h):
        for b in h.nodes:
            marks = [e.mark_at(b) for e in h.incident_edges(b)]
            if any(m is ARROWHEAD for m in marks) and any(
                e.is_undirected for e in h.incident_edges(b)
            ):
                return True
        return False

    def m_open_no_contact_rule(h, path, z):
        anc_z = ancestors(h, set(z))
        nodes, edges = path.nodes, path.edges
        if nodes[0] in z or nodes[-1] in z:
            return False
        for k in range(1, len(edges)):
            v = nodes[k]
            if edges[k - 1].mark_at(v) is ARROWHEAD and edges[k].mark_at(v) is ARROWHEAD:
                if v not in anc_z:
                    return False
            elif v in z:
                return False
        return True

    checked = 0
    for seed in range(80):
        h = seeded_valid_mixed(seed, max_n=5)
        if has_contact(h):
            continue
        checked += 1
        for a, b in itertools.combinations(h.nodes, 2):
            rest = [v for v in h.nodes if v not in (a, b)]
            for z in all_subsets(rest):
                plain = any(
                    m_open_no_contact_rule(h, p, z) for p in enumerate_simple_paths(h, a, b)
                )
                q = SeparationQuery((a,), (b,), z)
                assert m_separated_oracle(h, q).separated == (not plain) or (a in z or b in z)
    assert checked > 20
