import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomag import (
    ColliderStatus,
    ContextedDmg,
    DirectedMixedGraph,
    DomainError,
    InputError,
    MixedEdge,
    MixedGraph,
    Walk,
    ancestors,
    anteriors,
    collider_distance_sum,
    collider_status,
    descendants,
    enumerate_simple_paths,
    m_separated,
    neighborhood,
    neighborhood_complete,
    parse_walk,
    represent,
    scc_index,
    SeparationQuery,
    sigma_separated,
    strongly_connected_components,
)
from fixtures import (
    SELECTION_ABSTRACTION,
    SELECTION_DMG,
    UNDIRECTED_FAN,
    UNDIRECTED_TRIANGLE,
    seeded_contexted,
    seeded_valid_mixed,
)

C = ColliderStatus.COLLIDER
N = ColliderStatus.NON_COLLIDER


# --- construction invariants -------------------------------------------------


def test_mixed_graph_rejects_double_edges():
    with pytest.raises(InputError):
        MixedGraph(("a", "b"), (MixedEdge.directed("a", "b"), MixedEdge.bidirected("a", "b")))


def test_self_loops_rejected():
    with pytest.raises(InputError):
        DirectedMixedGraph(("a",), (("a", "a"),), ())
    with pytest.raises(InputError):
        MixedEdge.undirected("a", "a")


def test_bad_node_name_rejected():
    with pytest.raises(InputError):
        DirectedMixedGraph(("a b",), (), ())


def test_undeclared_endpoint_rejected():
    with pytest.raises(InputError):
        DirectedMixedGraph(("a",), (("a", "b"),), ())


def test_edges_normalised_to_sorted_endpoints():
    e = MixedEdge.directed("b", "a")
    assert (e.a, e.b) == ("a", "b")
    assert e.directed_tail == "b" and e.directed_head == "a"
    assert str(e) == "a <- b"


def test_selection_must_leave_an_observed_node():
    with pytest.raises(InputError):
        ContextedDmg(DirectedMixedGraph(("a",), (), ()), ("a",))


# --- strong components -------------------------------------------------------


def test_scc_empty_graph():
    assert strongly_connected_components(DirectedMixedGraph((), (), ())) == ()


def test_scc_selection_dmg():
    classes = strongly_connected_components(SELECTION_DMG.graph)
    assert classes == (frozenset({"a", "b"}), frozenset({"c"}), frozenset({"d"}), frozenset({"s"}))


def test_scc_acyclic_chain_is_singletons():
    g = DirectedMixedGraph.of("a -> b", "b -> c")
    assert strongly_connected_components(g) == (
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    )


def test_scc_ignores_bidirected_edges():
    g = DirectedMixedGraph.of("a <-> b")
    assert len(strongly_connected_components(g)) == 2


def test_scc_index_selection_dmg():
    ab = frozenset({"a", "b"})
    singles = {v: frozenset({v}) for v in "cds"}
    assert scc_index(SELECTION_DMG.graph) == {"a": ab, "b": ab, **singles}


def test_scc_sorted_by_smallest_member():
    g = DirectedMixedGraph.of("d -> c", "c -> d", "c -> b", "b -> a", "a -> b", "e <-> a", "e -> d")
    assert strongly_connected_components(g) == (
        frozenset({"a", "b"}),
        frozenset({"c", "d"}),
        frozenset({"e"}),
    )
    assert scc_index(g)["d"] == frozenset({"c", "d"})


# --- the per-graph index -------------------------------------------------------


def test_index_takes_no_part_in_equality_or_hash():
    g1 = DirectedMixedGraph.of("a -> b", "b -> a", "b <-> c")
    g2 = DirectedMixedGraph.of("b <-> c", "b -> a", "a -> b")
    h1 = MixedGraph.of("a -> b", "b -- c")
    h2 = MixedGraph.of("b -- c", "a -> b")
    ancestors(g1, {"a"})
    anteriors(h1, {"c"})
    assert "index" in vars(g1) and "index" not in vars(g2)
    assert g1 == g2 and hash(g1) == hash(g2) and repr(g1) == repr(g2)
    assert h1 == h2 and hash(h1) == hash(h2) and repr(h1) == repr(h2)
    assert {g1: 1}[g2] == 1


def test_graph_is_collected_once_unreferenced():
    # No other test builds an equal graph, so no cache could hold this one.
    c = ContextedDmg.of("p -> q", "q -> p", "q -> t", "r -> t", "q <-> u", selection=("t",))
    h = represent(c)
    sigma_separated(c.graph, SeparationQuery("p", "u", {"t"}))
    m_separated(h, SeparationQuery("p", "u"))
    strongly_connected_components(c.graph)
    refs = [weakref.ref(c.graph), weakref.ref(h)]
    del c, h
    gc.collect()
    assert [r() for r in refs] == [None, None]


def _reach_by_search(graph, start, step):
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for e in graph.incident_edges(v):
            w = e.other(v)
            if w not in seen and step(e, v, w):
                seen.add(w)
                todo.append(w)
    return frozenset(seen)


def test_cached_closures_match_plain_search():
    # Parents, children and anterior steps read straight off the marks.
    def into(e, v, w):
        return e.mark_at(w).name == "TAIL" and e.mark_at(v).name == "ARROWHEAD"

    def out_of(e, v, w):
        return e.mark_at(v).name == "TAIL" and e.mark_at(w).name == "ARROWHEAD"

    def tail_at_far_end(e, v, w):
        return e.mark_at(w).name == "TAIL"

    for seed in range(60):
        c = seeded_contexted(seed, max_n=9, max_s=2)
        for graph in (c.graph, represent(c)):
            for v in graph.nodes:
                assert ancestors(graph, {v}) == _reach_by_search(graph, v, into)
                assert descendants(graph, {v}) == _reach_by_search(graph, v, out_of)
            if isinstance(graph, MixedGraph):
                for v in graph.nodes:
                    assert anteriors(graph, {v}) == _reach_by_search(graph, v, tail_at_far_end)


# --- ancestors / anteriors ---------------------------------------------------


def test_ancestors_selection_dmg():
    assert ancestors(SELECTION_DMG.graph, {"s"}) == frozenset({"a", "b", "c", "s"})


def test_ancestors_empty_targets():
    assert ancestors(SELECTION_DMG.graph, set()) == frozenset()


def test_ancestors_unknown_node():
    with pytest.raises(InputError):
        ancestors(SELECTION_DMG.graph, {"nope"})


def test_anteriors_selection_abstraction():
    assert anteriors(SELECTION_ABSTRACTION, {"d"}) == frozenset({"a", "b", "c", "d"})


def test_anteriors_isolated_target():
    h = MixedGraph.of("a <-> b", nodes=("c",))
    assert anteriors(h, {"c"}) == frozenset({"c"})
    assert anteriors(h, {"b"}) == frozenset({"b"})


def test_anteriors_equal_ancestors_without_undirected_edges():
    h = MixedGraph.of("a -> b", "b -> c", "c <-> d")
    for v in h.nodes:
        assert anteriors(h, {v}) == ancestors(h, {v})


# --- neighborhoods -----------------------------------------------------------


def test_neighborhood_of_fan_is_incomplete():
    assert neighborhood(UNDIRECTED_FAN, "a") == frozenset({"b", "c"})
    assert not neighborhood_complete(UNDIRECTED_FAN, "a")


def test_neighborhood_of_triangle_is_complete():
    assert neighborhood(UNDIRECTED_TRIANGLE, "a") == frozenset({"b", "c"})
    assert neighborhood_complete(UNDIRECTED_TRIANGLE, "a")


def test_neighborhood_of_isolated_node():
    h = MixedGraph((("x"),), ())
    assert neighborhood(h, "x") == frozenset()
    assert neighborhood_complete(h, "x")


def test_neighborhood_unknown_node():
    with pytest.raises(InputError):
        neighborhood(UNDIRECTED_FAN, "zz")


# --- collider classification -------------------------------------------------


def test_collider_status_chain_and_collider():
    g = DirectedMixedGraph.of("a -> b", "b -> c")
    assert collider_status(g, parse_walk(g, "a -> b -> c")) == (N, N, N)
    g2 = DirectedMixedGraph.of("a -> b", "c -> b")
    assert collider_status(g2, parse_walk(g2, "a -> b <- c")) == (N, C, N)


def test_collider_status_trivial_walk():
    g = DirectedMixedGraph.of("a -> b")
    assert collider_status(g, Walk("a")) == (N,)


def test_collider_status_discriminating_chain():
    from fixtures import DISC_TAIL

    walk = parse_walk(DISC_TAIL, "a <-> q <-> b")
    assert collider_status(DISC_TAIL, walk) == (N, C, N)


def test_collider_status_rejects_foreign_walk():
    g = DirectedMixedGraph.of("a -> b")
    other = DirectedMixedGraph.of("a <-> b")
    walk = parse_walk(other, "a <-> b")
    with pytest.raises(InputError):
        collider_status(g, walk)


def test_parse_walk_rejects_missing_edges_and_bad_syntax():
    g = DirectedMixedGraph.of("a -> b")
    with pytest.raises(InputError):
        parse_walk(g, "a <- b")  # wrong orientation
    with pytest.raises(InputError):
        parse_walk(g, "a -> b ->")  # dangling arrow
    with pytest.raises(InputError):
        parse_walk(g, "a -- b")  # no undirected edges in this graph


# --- collider distance sum ---------------------------------------------------


def _cds_fixture():
    return MixedGraph.of("x <-> a", "a <-> y", "a -> m", "m -> z1")


def test_collider_distance_sum_no_colliders_is_zero():
    h = _cds_fixture()
    assert collider_distance_sum(h, parse_walk(h, "a -> m -> z1"), {"z1"}) == 0


def test_collider_distance_sum_examples():
    h = _cds_fixture()
    path = parse_walk(h, "x <-> a <-> y")
    assert collider_distance_sum(h, path, {"z1"}) == 2
    assert collider_distance_sum(h, path, {"m"}) == 1
    assert collider_distance_sum(h, path, {"a"}) == 0


def test_collider_distance_sum_undefined_without_directed_route():
    h = _cds_fixture()
    path = parse_walk(h, "x <-> a <-> y")
    with pytest.raises(DomainError):
        collider_distance_sum(h, path, {"x"})


def test_collider_distance_sum_rejects_non_path():
    h = _cds_fixture()
    e = h.edge("a", "x")
    walk = Walk("x", (e, e))
    with pytest.raises(InputError):
        collider_distance_sum(h, walk, {"z1"})


# --- simple path enumeration -------------------------------------------------


def test_paths_between_isolated_nodes():
    g = DirectedMixedGraph(("a", "b"), (), ())
    assert list(enumerate_simple_paths(g, "a", "b")) == []


def test_paths_selection_abstraction():
    rendered = [p.render() for p in enumerate_simple_paths(SELECTION_ABSTRACTION, "a", "c")]
    assert rendered == ["a -- b -- c", "a -> d <- b -- c"]


def test_parallel_edges_give_distinct_paths():
    g = DirectedMixedGraph.of("a -> b", "a <-> b")
    rendered = [p.render() for p in enumerate_simple_paths(g, "a", "b")]
    assert rendered == ["a -> b", "a <-> b"]


def test_paths_require_distinct_endpoints():
    g = DirectedMixedGraph.of("a -> b")
    with pytest.raises(InputError):
        list(enumerate_simple_paths(g, "a", "a"))


# --- property tests ----------------------------------------------------------


@st.composite
def dmgs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = [f"n{i}" for i in range(n)]
    ordered = [(a, b) for a in names for b in names if a != b]
    unordered = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    directed = draw(st.sets(st.sampled_from(ordered))) if ordered else set()
    bidirected = draw(st.sets(st.sampled_from(unordered))) if unordered else set()
    return DirectedMixedGraph(tuple(names), tuple(directed), tuple(bidirected))


@st.composite
def mixed_graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            kind = draw(st.sampled_from(["none", "->", "<-", "<->", "--"]))
            if kind == "->":
                edges.append(MixedEdge.directed(a, b))
            elif kind == "<-":
                edges.append(MixedEdge.directed(b, a))
            elif kind == "<->":
                edges.append(MixedEdge.bidirected(a, b))
            elif kind == "--":
                edges.append(MixedEdge.undirected(a, b))
    return MixedGraph(tuple(names), tuple(edges))


@given(dmgs(), st.data())
def test_ancestors_reflexive_monotone_idempotent(g, data):
    nodes = list(g.nodes)
    a = set(data.draw(st.sets(st.sampled_from(nodes))))
    b = a | set(data.draw(st.sets(st.sampled_from(nodes))))
    anc_a = ancestors(g, a)
    assert a <= anc_a
    assert anc_a <= ancestors(g, b)
    assert ancestors(g, anc_a) == anc_a


@given(mixed_graphs(), st.data())
def test_anteriors_reflexive_monotone_idempotent(h, data):
    nodes = list(h.nodes)
    a = set(data.draw(st.sets(st.sampled_from(nodes))))
    b = a | set(data.draw(st.sets(st.sampled_from(nodes))))
    ant_a = anteriors(h, a)
    assert a <= ant_a
    assert ant_a <= anteriors(h, b)
    assert anteriors(h, ant_a) == ant_a


@given(dmgs())
def test_scc_matches_mutual_ancestry(g):
    classes = strongly_connected_components(g)
    index = {v: comp for comp in classes for v in comp}
    assert sorted(v for comp in classes for v in comp) == list(g.nodes)
    for v in g.nodes:
        assert v in index[v]
        for w in g.nodes:
            mutual = v in ancestors(g, {w}) and w in ancestors(g, {v})
            assert (index[v] is index[w]) == mutual


@given(dmgs(max_n=4))
@settings(max_examples=60)
def test_path_enumeration_yields_unique_simple_paths(g):
    for a in g.nodes:
        for b in g.nodes:
            if a == b:
                continue
            paths = list(enumerate_simple_paths(g, a, b))
            assert len({(p.nodes, p.edges) for p in paths}) == len(paths)
            for p in paths:
                assert p.is_path
                assert p.start == a and p.end == b


def test_anterior_extension_in_valid_graphs():
    # In a valid abstraction, an anterior path that starts with a
    # directed edge forces direct ancestry of its far endpoint.
    checked = 0
    for seed in range(120):
        h = seeded_valid_mixed(seed, max_n=5)
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
                    if _is_anterior(path):
                        checked += 1
                        assert a in ancestors(h, {b})
    assert checked > 0


def _is_anterior(path):
    from cyclomag import TAIL

    return all(e.mark_at(u) is TAIL for u, e in zip(path.nodes, path.edges))
