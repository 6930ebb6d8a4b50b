import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from cyclomag import (
    ARROWHEAD,
    ContextedDmg,
    DirectedMixedGraph,
    GeneratorConfig,
    InputError,
    MixedEdge,
    MixedGraph,
    OracleCapError,
    SeparationQuery,
    Walk,
    ancestors,
    anteriors,
    canonical_inducing_separator,
    discriminating_paths,
    enumerate_simple_paths,
    inducing_exists,
    inducing_paths,
    m_markov_equivalent_oracle,
    m_open_walk,
    m_separated,
    m_separated_oracle,
    parse_walk,
    random_dmg,
    represent,
    sigma_inducing_exists,
    sigma_inducing_paths,
    sigma_markov_equivalent_oracle,
    sigma_open_path_segments,
    sigma_open_walk,
    sigma_separated,
    sigma_separated_oracle,
)
from cyclomag import separation
from cyclomag.graphs import ARROW_THERE
from cyclomag.separation import DEFAULT_GRID_ORACLE_CAP, DEFAULT_PATH_ORACLE_CAP
from fixtures import (
    INDUCING_CHAIN,
    SELECTION_ABSTRACTION,
    SELECTION_DMG,
    all_subsets,
    seeded_contexted,
    seeded_valid_mixed,
)
from reference import m_open_walk_reference

G = SELECTION_DMG.graph
H = SELECTION_ABSTRACTION


# --- query plumbing ----------------------------------------------------------


def test_query_accepts_strings_and_iterables():
    q = SeparationQuery("a", ["b", "c"], ())
    assert q.x == frozenset({"a"}) and q.y == {"b", "c"} and q.z == frozenset()


def test_query_requires_nonempty_sides():
    with pytest.raises(InputError):
        SeparationQuery((), "b")


def test_query_is_a_frozen_slotted_value():
    q = SeparationQuery("a", ["b", "c"], {"d"})
    same = SeparationQuery({"a"}, ("c", "b"), "d")
    assert q == same and hash(q) == hash(same) and q != SeparationQuery("a", "b", "d")
    assert SeparationQuery(x="a", y="b", z="c") == SeparationQuery("a", "b", ["c"])
    assert repr(SeparationQuery("a", "b")) == "SeparationQuery(x=frozenset({'a'}), y=frozenset({'b'}), z=frozenset())"
    for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q), dataclasses.replace(q)):
        assert twin == q and hash(twin) == hash(q)
    assert not hasattr(q, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.x = frozenset("e")


# x, y and z are each read as a node set, in that order, before the
# emptiness check, so the first unreadable one decides the error.
@pytest.mark.parametrize(
    "args, error",
    [
        (((), "b", 5), TypeError),
        ((5, (), ()), TypeError),
        (((), 5), TypeError),
        ((None, "b"), TypeError),
        ((["a", ["b"]], "c"), TypeError),
        (((), [["b"]]), TypeError),
        (((), "b"), InputError),
        (("a", []), InputError),
        ((), TypeError),
        (("a", "b", "c", "d"), TypeError),
    ],
)
def test_query_rejects_bad_sets_in_argument_order(args, error):
    with pytest.raises(error):
        SeparationQuery(*args)


def test_unknown_nodes_rejected():
    with pytest.raises(InputError):
        sigma_separated(G, SeparationQuery("a", "nope"))


@pytest.mark.parametrize("x, y, z", [("a nq", "b", "c"), ("a", "zz b", "mm"), ("a", "b", "c q zz")])
def test_unknown_nodes_message_names_the_least_missing_node(x, y, z):
    query = SeparationQuery(x.split(), y.split(), z.split())
    least = min((set(x.split()) | set(y.split()) | set(z.split())) - set(G.nodes))
    for separated, graph in ((sigma_separated, G), (m_separated, H)):
        with pytest.raises(InputError, match=f"^unknown node: '{least}'$"):
            separated(graph, query)


# --- search bounds -----------------------------------------------------------


class _RecordedRows:
    """A stand-in for ``GraphIndex.rows`` that records the ids read."""

    def __init__(self, rows):
        self.rows, self.read = rows, set()

    def __getitem__(self, i):
        self.read.add(i)
        return self.rows[i]


# x <- w -> y and x -> k <- y, with a long chain of descendants below x
# that no open walk can use.
CHAIN = [f"d{i}" for i in range(12)]
CHAIN_EDGES = ["w -> x", "w -> y", "x -> k", "y -> k", "x -> d0"] + [f"{u} -> {v}" for u, v in zip(CHAIN, CHAIN[1:])]


@pytest.mark.parametrize("separated, closure, graph", [
    (sigma_separated, ancestors, DirectedMixedGraph.of(*CHAIN_EDGES)),
    (m_separated, anteriors, MixedGraph.of(*CHAIN_EDGES, "v -- w")),
])
def test_search_reads_no_row_outside_the_query_closure(separated, closure, graph):
    queries = (({"w"}, True), ({"k"}, False), ({"w", "k"}, False))
    # Build the index and its closures before the rows are wrapped.
    lives = [closure(graph, {"x", "y"} | z) for z, _ in queries]
    idx = graph.index
    recorded = idx.rows = _RecordedRows(idx.rows)
    for (z, verdict), live in zip(queries, lives):
        recorded.read.clear()
        assert separated(graph, SeparationQuery("x", "y", z)).separated is verdict
        assert recorded.read and {idx.names[i] for i in recorded.read} <= live


def test_empty_z_builds_no_closure():
    # A one-shot query without z on a large document pays for no closure.
    for separated, graph in (
        (sigma_separated, DirectedMixedGraph.of(*CHAIN_EDGES)),
        (m_separated, MixedGraph.of(*CHAIN_EDGES, "v -- w")),
    ):
        assert not separated(graph, SeparationQuery("d11", "y")).separated
        assert "anc" not in graph.index.__dict__ and "ant" not in graph.index.__dict__


# Every reachable decision of the five search tables: per in-kind (or the
# start), one mask per standing (outside Anc(z), in Anc(z) but not z, in z)
# whose bit k allows out-kind k.  The witness tables are only run outside
# Anc(z).  A fault in deriving a table from its step rule changes one.
TABLE_DECISIONS = {
    "_SIGMA": {
        "start": (0b11111111, 0b11111111, 0b11110101),
        0: (0b11111111, 0b11111111, 0b11110101),
        1: (0b11111111, 0b11111111, 0b00000000),
        2: (0b00001111, 0b11111111, 0b11110101),
        3: (0b00001111, 0b11111111, 0b11110101),
        4: (0b11111111, 0b11111111, 0b11110101),
        5: (0b11111111, 0b11111111, 0b00000000),
        6: (0b00001111, 0b11111111, 0b11110101),
        7: (0b00001111, 0b11111111, 0b11110101),
    },
    "_M": {
        "start": (0b11111111, 0b11111111, 0b00000000),
        0: (0b00001111, 0b00001111, 0b00000000),
        1: (0b00001111, 0b00001111, 0b00000000),
        2: (0b00001100, 0b11111100, 0b11110000),
        3: (0b00001100, 0b11111100, 0b11110000),
        4: (0b11111111, 0b11111111, 0b00000000),
        5: (0b11111111, 0b11111111, 0b00000000),
        6: (0b00001100, 0b11111100, 0b11110000),
        7: (0b00001100, 0b11111100, 0b11110000),
    },
    "_ANTERIOR": dict.fromkeys(("start", *range(8)), (0b00001111,)),
    "_COLLIDER_CHAIN": {"start": (0b11111111,), **{k: (0b11110000,) if k & ARROW_THERE else (0,) for k in range(8)}},
    "_DISCRIMINATING": {"start": (0b11110000,), **{k: (0b11110000,) if k & ARROW_THERE else (0,) for k in range(8)}},
}


def _allowed(decisions: dict) -> set:
    """The allowed (in-kind or start, out-kind, standing) triples of a decision map."""
    return {
        (i, out, st) for i, masks in decisions.items() for st, m in enumerate(masks) for out in range(8) if m >> out & 1
    }


@pytest.mark.parametrize("name", sorted(TABLE_DECISIONS))
def test_search_tables_keep_every_reachable_decision(name):
    arrive, masks = getattr(separation, name)
    standings = range(len(TABLE_DECISIONS[name]["start"]))
    shapes = {"start": 1, **dict(enumerate(arrive))}
    found = {
        (i, out, st) for i, shape in shapes.items() for out in range(8) for st in standings if masks[out] >> 4 * st + shape & 1
    }
    assert found == _allowed(TABLE_DECISIONS[name])


# --- walk-level sigma criterion ----------------------------------------------


def test_sigma_open_collider_with_ancestor_of_z():
    walk = parse_walk(G, "a -> b <-> d")
    assert sigma_open_walk(G, walk, {"s"})


def test_sigma_blocked_at_blockable_noncollider():
    walk = parse_walk(G, "c -> s <- b <-> d")
    assert not sigma_open_walk(G, walk, {"b", "s"})
    assert sigma_open_walk(G, walk, {"s"})


def test_sigma_trivial_walk_endpoint_rule():
    assert not sigma_open_walk(G, Walk("a"), {"a"})
    assert sigma_open_walk(G, Walk("a"), {"b"})


def test_sigma_unblockable_noncollider_inside_cycle():
    # b -> a stays inside the {a, b} component, so b cannot be blocked
    # on a walk that leaves it only through that edge.
    walk = parse_walk(G, "a <- b <-> d")
    assert sigma_open_walk(G, walk, {"b"})


# --- segment-level criterion -------------------------------------------------


def test_segments_block_endpoint_in_z():
    walk = parse_walk(G, "a -> b <-> d")
    assert not sigma_open_path_segments(G, walk, {"a"})


def test_segments_agree_on_cycle_example():
    walk = parse_walk(G, "a -> b <-> d")
    assert sigma_open_path_segments(G, walk, {"s"})


def test_segments_reject_non_path():
    e = next(iter(G.incident_edges("d")))
    walk = Walk("d", (e, e))
    with pytest.raises(InputError):
        sigma_open_path_segments(G, walk, set())


def test_walk_predicates_check_z_before_the_walk():
    foreign = Walk("b", (MixedEdge.directed("b", "qq"),))
    for predicate, graph in ((sigma_open_walk, G), (sigma_open_path_segments, G), (m_open_walk, H)):
        with pytest.raises(InputError, match="^unknown node: 'zz'$"):
            predicate(graph, foreign, {"zz", "a"})
        with pytest.raises(InputError, match="^walk edge b -> qq is not in the graph$"):
            predicate(graph, foreign, {"a"})


def test_segments_agree_with_walk_rule_everywhere():
    for seed in range(60):
        g = seeded_contexted(seed, max_n=5, max_s=0).graph
        for a, b in itertools.combinations(g.nodes, 2):
            paths = list(enumerate_simple_paths(g, a, b))
            rest = [v for v in g.nodes if v not in (a, b)]
            for z in all_subsets(rest):
                for p in paths:
                    assert sigma_open_walk(g, p, z) == sigma_open_path_segments(g, p, z)


# --- sigma engine and oracle -------------------------------------------------


def test_sigma_connected_with_witness():
    verdict = sigma_separated(G, SeparationQuery("c", "d", "s"))
    assert not verdict.separated
    assert verdict.witness.render() == "c -> s <- b <-> d"


def test_sigma_separated_after_blocking_b():
    assert sigma_separated(G, SeparationQuery("c", "d", {"b", "s"})).separated


def test_sigma_trivial_connection():
    verdict = sigma_separated(G, SeparationQuery("a", "a"))
    assert not verdict.separated and verdict.witness.is_trivial


def test_sigma_oracle_matches_examples():
    for q in (
        SeparationQuery("c", "d", "s"),
        SeparationQuery("c", "d", {"b", "s"}),
        SeparationQuery("a", "a"),
        SeparationQuery("a", "d", "s"),
    ):
        assert sigma_separated(G, q).separated == sigma_separated_oracle(G, q).separated


def test_sigma_oracle_on_disconnected_nodes():
    g = DirectedMixedGraph(("a", "b"), (), ())
    assert sigma_separated_oracle(g, SeparationQuery("a", "b")).separated


def test_sigma_engine_oracle_differential_with_witness_checks():
    for seed in range(80):
        g = seeded_contexted(seed, max_n=5, max_s=0).graph
        for a, b in itertools.combinations(g.nodes, 2):
            rest = [v for v in g.nodes if v not in (a, b)]
            for z in all_subsets(rest):
                q = SeparationQuery((a,), (b,), z)
                engine = sigma_separated(g, q)
                oracle = sigma_separated_oracle(g, q)
                assert engine.separated == oracle.separated
                if not engine.separated:
                    assert engine.witness.is_path
                    assert sigma_open_walk(g, engine.witness, z)
                    assert sigma_open_path_segments(g, oracle.witness, z)
                    # The witness is a shortest open walk, so no open path is shorter.
                    paths = enumerate_simple_paths(g, a, b)
                    assert len(engine.witness.edges) == min(len(p.edges) for p in paths if sigma_open_walk(g, p, z))


def test_sigma_symmetry():
    for seed in range(30):
        g = seeded_contexted(seed, max_n=5).graph
        nodes = g.nodes
        if len(nodes) < 2:
            continue
        a, b = nodes[0], nodes[-1]
        for z in all_subsets([v for v in nodes if v not in (a, b)]):
            assert (
                sigma_separated(g, SeparationQuery((a,), (b,), z)).separated
                == sigma_separated(g, SeparationQuery((b,), (a,), z)).separated
            )


def test_path_oracles_return_the_first_open_path_by_pair_then_enumeration_order():
    checked = 0
    for seed in range(150):
        c = seeded_contexted(seed, max_n=7, max_s=0)
        if len(c.graph.nodes) < 5:
            continue
        for graph, oracle, is_open in (
            (c.graph, sigma_separated_oracle, sigma_open_walk),
            (represent(c), m_separated_oracle, m_open_walk),
        ):
            nodes = graph.nodes
            x, y = {nodes[2], nodes[0]}, {nodes[3], nodes[1]}
            for z in all_subsets(nodes[4:]):
                expected = next(
                    (p for a in sorted(x) for b in sorted(y) for p in enumerate_simple_paths(graph, a, b) if is_open(graph, p, z)),
                    None,
                )
                verdict = oracle(graph, SeparationQuery(x, y, z))
                assert verdict.witness == expected and verdict.separated == (expected is None)
                checked += expected is not None
    assert checked > 100
    # The listings keep the enumeration order too, on dense systems where it is not by length.
    for seed in range(30):
        c = random_dmg(GeneratorConfig(6, 0.35, 0.35, 1, seed), allow_selection_children=True)
        rng = random.Random(seed)
        specs = [f"{a} {rng.choice(('->', '<-', '<->'))} {b}" for a, b in itertools.combinations(c.graph.nodes, 2) if rng.random() < 0.6]
        h, s = MixedGraph.of(*specs, nodes=c.graph.nodes), set(c.selection)
        for a, b in itertools.permutations(c.observed, 2):
            for listing, every in (
                (sigma_inducing_paths(c.graph, s, a, b), list(enumerate_simple_paths(c.graph, a, b))),
                (inducing_paths(h, a, b), list(enumerate_simple_paths(h, a, b))),
            ):
                position = {p: i for i, p in enumerate(every)}
                positions = [position[p] for p in listing]
                assert positions == sorted(positions)
    # Two more families, seeded, n <= 8: random marks with all four arrow
    # tokens, so mostly invalid mixed graphs where undirected edges meet
    # arrowheads and tails, and dmgs with parallel edges.  Each oracle
    # witness and each listing is the unpruned enumeration filtered by
    # the public predicates.
    for seed in range(40):
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randint(4, 8))]
        # The directed cycle v0 -> v1 -> v2 -> v3 -> v0 puts the chords'
        # undirected and bidirected edges inside a strong component.
        cycle = {("v0", "v1"): "->", ("v1", "v2"): "->", ("v2", "v3"): "->", ("v0", "v3"): "<-"}
        h = MixedGraph.of(
            *(
                f"{a} {cycle.get((a, b)) or rng.choice(('->', '<-', '<->', '--'))} {b}"
                for a, b in itertools.combinations(names, 2)
                if (a, b) in cycle or rng.random() < 0.35
            ),
            nodes=names,
        )
        pairs = [pair for pair in itertools.combinations(names, 2) if rng.random() < 0.35]
        g = DirectedMixedGraph.of(
            *(spec for a, b in pairs for spec in (f"{a} -> {b}", f"{b} -> {a}", f"{a} <-> {b}") if rng.random() < 0.5),
            nodes=names,
        )
        for graph, oracle, is_open in ((g, sigma_separated_oracle, sigma_open_path_segments), (h, m_separated_oracle, m_open_walk)):
            for _ in range(8):
                x, y, z = ({v for v in names if rng.random() < 0.3} for _ in range(3))
                x = (x or {names[0]}) - z
                y = (y or {names[-1]}) - z - x
                if not x or not y:
                    continue
                expected = next(
                    (p for a in sorted(x) for b in sorted(y) for p in enumerate_simple_paths(graph, a, b) if is_open(graph, p, z)),
                    None,
                )
                assert oracle(graph, SeparationQuery(x, y, z)).witness == expected
        for a, b in itertools.combinations(names, 2) if seed < 10 else ():
            s = {v for v in names if v not in (a, b) and rng.random() < 0.2}
            anc_ends = ancestors(g, {a, b} | s)
            expected = [
                p
                for p in enumerate_simple_paths(g, a, b)
                if sigma_open_walk(g, p, p.nodes[1:-1]) and _colliders(p) <= anc_ends
            ]
            assert list(sigma_inducing_paths(g, s, a, b)) == expected
            anc_ends = ancestors(h, {a, b})
            expected = [p for p in enumerate_simple_paths(h, a, b) if m_open_walk(h, p, p.nodes[1:-1]) and set(p.nodes[1:-1]) <= anc_ends]
            assert list(inducing_paths(h, a, b)) == expected


def _colliders(walk: Walk) -> set:
    """The interior nodes of ``walk`` with arrowheads on both of its edges there."""
    return {
        v
        for v, e1, e2 in zip(walk.nodes[1:], walk.edges, walk.edges[1:])
        if e1.mark_at(v) is ARROWHEAD and e2.mark_at(v) is ARROWHEAD
    }


def test_oracles_make_a_walk_only_for_the_witness(monkeypatch):
    made = []
    init = Walk.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Walk, "__init__", counted)
    # Every a-b path meets a collider at its first interior node.
    specs = ("a -> c", "b -> c", "a -> d", "b -> d", "a <-> e", "e <-> b")
    for graph, oracle in ((DirectedMixedGraph.of(*specs), sigma_separated_oracle), (MixedGraph.of(*specs[:4]), m_separated_oracle)):
        made.clear()
        assert oracle(graph, SeparationQuery("a", "b")).separated
        assert made == []
        verdict = oracle(graph, SeparationQuery("a", "b", "c"))
        assert verdict.witness.render() == "a -> c <- b" and len(made) == 1


def test_sigma_set_queries_reduce_to_pairs():
    g = seeded_contexted(17, max_n=6, max_s=0).graph
    nodes = list(g.nodes)
    x, y, z = set(nodes[:2]), set(nodes[-2:]), set(nodes[2:-2])
    expected = any(
        not sigma_separated(g, SeparationQuery((a,), (b,), z)).separated
        for a in sorted(x)
        for b in sorted(y)
    )
    assert sigma_separated(g, SeparationQuery(x, y, z)).separated == (not expected)


# --- walk-level m criterion --------------------------------------------------


def test_m_open_walk_examples():
    walk = parse_walk(H, "c -- b -> d")
    assert m_open_walk(H, walk, set())
    assert not m_open_walk(H, walk, {"b"})


def test_m_arrowhead_against_undirected_always_blocks():
    h = MixedGraph.of("x <-> w", "w -- y")
    walk = parse_walk(h, "x <-> w -- y")
    for z in all_subsets(["x", "w", "y"]):
        assert not m_open_walk(h, walk, z)


# --- m engine and oracle -----------------------------------------------------


def test_m_separation_examples():
    assert m_separated(H, SeparationQuery("c", "d", "b")).separated
    verdict = m_separated(H, SeparationQuery("c", "d"))
    assert not verdict.separated
    assert verdict.witness.render() == "c -- b -> d"


def test_adjacent_nodes_never_separated():
    for seed in range(40):
        h = seeded_valid_mixed(seed, max_n=5)
        for e in h.edges:
            rest = [v for v in h.nodes if v not in (e.a, e.b)]
            for z in all_subsets(rest):
                assert not m_separated(h, SeparationQuery((e.a,), (e.b,), z)).separated


def test_m_engine_oracle_differential():
    for seed in range(60):
        h = seeded_valid_mixed(seed, max_n=5)
        for a, b in itertools.combinations(h.nodes, 2):
            rest = [v for v in h.nodes if v not in (a, b)]
            for z in all_subsets(rest):
                q = SeparationQuery((a,), (b,), z)
                engine = m_separated(h, q)
                oracle = m_separated_oracle(h, q)
                assert engine.separated == oracle.separated
                if not engine.separated:
                    assert engine.witness.is_path
                    assert m_open_walk(h, engine.witness, z)
                    paths = enumerate_simple_paths(h, a, b)
                    shortest = min(len(p.edges) for p in paths if m_open_walk_reference(h, p, z))
                    assert len(engine.witness.edges) == shortest


def test_m_walk_semantics_on_invalid_graph():
    # u - v -> x <-> y -> v <-> w admits an open walk but no open path
    # from u to w; the verdict must still be "connected".
    h = MixedGraph.of("u -- v", "v -> x", "x <-> y", "y -> v", "v <-> w", "x -> q")
    verdict = m_separated(h, SeparationQuery("u", "w", "q"))
    assert not verdict.separated
    assert m_open_walk(h, verdict.witness, {"q"})
    assert m_separated_oracle(h, SeparationQuery("u", "w", "q")).separated


def test_m_separated_never_enumerates_paths(monkeypatch):
    from cyclomag import ARROWHEAD, TAIL, MixedEdge, relations, separation, validate

    def refuse(*args, **kwargs):
        raise AssertionError("m_separated enumerated paths")

    monkeypatch.setattr(separation, "enumerate_simple_paths", refuse)
    monkeypatch.setattr(relations, "enumerate_simple_paths", refuse)
    h = MixedGraph.of("u -- v", "v -> x", "x <-> y", "y -> v", "v <-> w", "x -> q")
    queries = [(h, "u", "w", ["q"])]
    # Random marks on every pair make mostly invalid graphs, where a
    # shortest open walk can repeat a node and is then the witness.
    rng = random.Random(0)
    while len(queries) < 3000:
        names = [f"n{i}" for i in range(rng.randint(3, 10))]
        p = rng.uniform(0.2, 0.6)
        edges = [
            MixedEdge(u, rng.choice((TAIL, ARROWHEAD)), v, rng.choice((TAIL, ARROWHEAD)))
            for u, v in itertools.combinations(names, 2)
            if rng.random() < p
        ]
        g = MixedGraph(tuple(names), tuple(edges))
        if validate(g).valid:
            continue
        for _ in range(10):
            a, b = rng.sample(names, 2)
            queries.append((g, a, b, [v for v in names if v not in (a, b) and rng.random() < 0.4]))
    walks = 0
    for g, a, b, z in queries:
        verdict = m_separated(g, SeparationQuery((a,), (b,), z))
        if not verdict.separated:
            assert m_open_walk(g, verdict.witness, z)
            walks += not verdict.witness.is_path
    assert walks >= 5


# --- oracle caps -------------------------------------------------------------


def _big_graph(n=13):
    return DirectedMixedGraph(tuple(f"n{i:02d}" for i in range(n)), (), ())


def test_oracle_cap_enforced():
    g = _big_graph()
    with pytest.raises(OracleCapError):
        sigma_separated_oracle(g, SeparationQuery("n00", "n01"))


def test_oracle_cap_env_override(monkeypatch):
    g = _big_graph()
    q = SeparationQuery("n00", "n01")
    monkeypatch.setenv("CYCLOMAG_ORACLE_CAP", "20")
    assert sigma_separated_oracle(g, q).separated
    monkeypatch.setenv("CYCLOMAG_ORACLE_CAP", "junk")
    with pytest.raises(InputError):
        sigma_separated_oracle(g, q)


def _empty_mixed(n):
    return MixedGraph(tuple(f"n{i:02d}" for i in range(n)), ())


_Q = SeparationQuery("n00", "n01")
_EXHAUSTIVE = {  # each entry point with its default cap and a call on an edgeless graph of n nodes
    "sigma_separated_oracle": (DEFAULT_PATH_ORACLE_CAP, lambda n: sigma_separated_oracle(_big_graph(n), _Q)),
    "m_separated_oracle": (DEFAULT_PATH_ORACLE_CAP, lambda n: m_separated_oracle(_empty_mixed(n), _Q)),
    "m_markov_equivalent_oracle": (
        DEFAULT_GRID_ORACLE_CAP,
        lambda n: m_markov_equivalent_oracle(_empty_mixed(n), _empty_mixed(n)),
    ),
    "sigma_markov_equivalent_oracle": (
        DEFAULT_GRID_ORACLE_CAP,
        lambda n: sigma_markov_equivalent_oracle(ContextedDmg(_big_graph(n), ()), ContextedDmg(_big_graph(n), ())),
    ),
    "inducing_paths": (DEFAULT_PATH_ORACLE_CAP, lambda n: inducing_paths(_empty_mixed(n), "n00", "n01")),
    "sigma_inducing_paths": (DEFAULT_PATH_ORACLE_CAP, lambda n: sigma_inducing_paths(_big_graph(n), (), "n00", "n01")),
    "discriminating_paths": (DEFAULT_PATH_ORACLE_CAP, lambda n: discriminating_paths(_empty_mixed(n))),
}


@pytest.mark.parametrize("name", sorted(_EXHAUSTIVE))
def test_every_exhaustive_call_has_one_cap_knob(name, monkeypatch):
    default, call = _EXHAUSTIVE[name]
    monkeypatch.delenv("CYCLOMAG_ORACLE_CAP", raising=False)
    with pytest.raises(OracleCapError, match=f"capped at {default} nodes but the graph has {default + 1}"):
        call(default + 1)
    monkeypatch.setenv("CYCLOMAG_ORACLE_CAP", str(default + 1))
    call(default + 1)
    monkeypatch.setenv("CYCLOMAG_ORACLE_CAP", "junk")
    with pytest.raises(InputError, match="CYCLOMAG_ORACLE_CAP must be an integer, got 'junk'"):
        call(default + 1)


# --- sigma-inducing paths ----------------------------------------------------


def test_sigma_inducing_exists_examples():
    assert sigma_inducing_exists(G, {"s"}, "a", "d")
    assert not sigma_inducing_exists(G, {"s"}, "c", "d")
    assert sigma_inducing_exists(G, {"s"}, "b", "c")


def test_sigma_inducing_single_edge_and_disconnected():
    g = DirectedMixedGraph.of("a -> b", nodes=("c",))
    assert sigma_inducing_exists(g, set(), "a", "b")
    assert not sigma_inducing_exists(g, set(), "a", "c")


def test_sigma_inducing_paths_examples():
    rendered = [p.render() for p in sigma_inducing_paths(G, {"s"}, "a", "d")]
    assert "a -> b <-> d" in rendered
    path = next(p for p in sigma_inducing_paths(G, {"s"}, "a", "d") if p.render() == "a -> b <-> d")
    assert path.is_into("d") and path.is_out_of("a")
    rendered_bc = [p.render() for p in sigma_inducing_paths(G, {"s"}, "b", "c")]
    assert "b -> s <- c" in rendered_bc
    empty = DirectedMixedGraph(("a", "b"), (), ())
    assert sigma_inducing_paths(empty, set(), "a", "b") == ()


def test_sigma_inducing_rejects_selection_endpoints():
    with pytest.raises(InputError):
        sigma_inducing_exists(G, {"s"}, "s", "a")
    with pytest.raises(InputError):
        sigma_inducing_paths(G, {"s"}, "a", "a")
    h = MixedGraph.of("a -> b", "c -> b", "b -- d")
    for call in (inducing_exists, inducing_paths, canonical_inducing_separator):
        with pytest.raises(InputError, match="^inducing-path endpoints must differ$"):
            call(h, "b", "b")


def test_sigma_inducing_exists_matches_enumeration():
    for seed in range(120):
        c = seeded_contexted(seed, max_n=5)
        s = set(c.selection)
        obs = c.observed
        for a, b in itertools.combinations(obs, 2):
            assert sigma_inducing_exists(c.graph, s, a, b) == bool(
                sigma_inducing_paths(c.graph, s, a, b)
            )


def test_outermost_marks_encode_ancestry():
    # When every qualifying path leaves b over a tail, b is an ancestor
    # of the other endpoint or the selection set; when some path enters
    # b and a is not such an ancestor, some path enters both ends.
    for seed in range(120):
        c = seeded_contexted(seed, max_n=5)
        s = set(c.selection)
        for a, b in itertools.combinations(c.observed, 2):
            paths = sigma_inducing_paths(c.graph, s, a, b)
            if not paths:
                continue
            if all(p.is_out_of(b) for p in paths):
                assert b in ancestors(c.graph, {a} | s)
            if any(p.is_into(b) for p in paths) and a not in ancestors(c.graph, {b} | s):
                assert any(p.is_into(a) and p.is_into(b) for p in paths)


def test_abstraction_edges_backed_by_oriented_paths():
    # Edges with an arrowhead at b in the abstraction come from a path
    # into b; bidirected edges from a path into both ends.
    from cyclomag import ARROWHEAD

    for seed in range(80):
        c = seeded_contexted(seed, max_n=5)
        h = represent(c)
        s = set(c.selection)
        for e in h.edges:
            paths = sigma_inducing_paths(c.graph, s, e.a, e.b)
            if e.mark_at(e.b) is ARROWHEAD:
                assert any(p.is_into(e.b) for p in paths)
            if e.is_bidirected:
                assert any(p.is_into(e.a) and p.is_into(e.b) for p in paths)


# --- inducing paths in mixed graphs -------------------------------------


def test_inducing_chain_found():
    rendered = [p.render() for p in inducing_paths(INDUCING_CHAIN, "a", "d")]
    assert "a <-> b <-> c <-> d" in rendered


def test_single_edge_is_inducing():
    h = MixedGraph.of("a -- b")
    assert [p.render() for p in inducing_paths(h, "a", "b")] == ["a -- b"]


def test_no_inducing_path_through_noncollider():
    assert inducing_paths(SELECTION_ABSTRACTION, "c", "d") == ()
    assert not inducing_exists(SELECTION_ABSTRACTION, "c", "d")


def test_inducing_exists_four_way_equivalence():
    for seed in range(60):
        h = seeded_valid_mixed(seed, max_n=5)
        for a, b in itertools.combinations(h.nodes, 2):
            by_paths = bool(inducing_paths(h, a, b))
            assert inducing_exists(h, a, b) == by_paths
            zc = canonical_inducing_separator(h, a, b)
            at_canonical = not m_separated(h, SeparationQuery((a,), (b,), zc)).separated
            assert at_canonical == by_paths
            rest = [v for v in h.nodes if v not in (a, b)]
            never_separable = all(
                not m_separated(h, SeparationQuery((a,), (b,), z)).separated
                for z in all_subsets(rest)
            )
            assert never_separable == by_paths
