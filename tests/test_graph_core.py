import dataclasses
import gc
import hashlib
import inspect
import itertools
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclomag
from cyclomag import (
    ARROWHEAD,
    TAIL,
    ContextedDmg,
    DirectedMixedGraph,
    DiscriminatingPath,
    InputError,
    MixedEdge,
    MixedGraph,
    GeneratorConfig,
    ancestors,
    anteriors,
    canonical_dmg,
    canonical_inducing_separator,
    condition1,
    descendants,
    discriminating_paths,
    enumerate_simple_paths,
    inducing_exists,
    inducing_paths,
    is_discriminating,
    m_markov_equivalent_oracle,
    m_open_walk,
    m_separated,
    m_separated_oracle,
    marginalize,
    neighborhood,
    neighborhood_complete,
    parse_graph,
    parse_walk,
    random_dmg,
    represent,
    scc_index,
    SeparationQuery,
    serialize_graph,
    sigma_inducing_exists,
    sigma_inducing_paths,
    sigma_markov_equivalent_oracle,
    sigma_open_path_segments,
    sigma_open_walk,
    sigma_separated,
    sigma_separated_oracle,
    strongly_connected_components,
    unshielded_colliders,
    validate,
)
from cyclomag import graphs
from cyclomag.graphs import ARROW_HERE, ARROW_THERE, CROSSES_SCC, GraphIndex
from cyclomag.separation import DEFAULT_PATH_ORACLE_CAP
from cyclomag.walks import Walk, check_walk
from fixtures import (
    DISC_SEVERAL,
    SELECTION_ABSTRACTION,
    SELECTION_DMG,
    UNDIRECTED_FAN,
    UNDIRECTED_TRIANGLE,
    seeded_contexted,
    seeded_valid_mixed,
)

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


def test_of_names_the_first_bad_name_in_spec_order_under_every_hash_seed():
    # Set order follows the hash seed, so each seed runs in its own process.
    src = str(Path(cyclomag.__file__).resolve().parents[1])
    code = (
        "from cyclomag import ContextedDmg, DirectedMixedGraph, InputError, MixedGraph\n"
        "for cls in (MixedGraph, DirectedMixedGraph, ContextedDmg):\n"
        "    try:\n"
        "        cls.of('1a -> 2b', '3c -> 4d', 'x9 -> 5e')\n"
        "    except InputError as e:\n"
        "        print(e)\n"
    )
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.stdout == "invalid node name: '1a'\n" * 3, (seed, done.stdout, done.stderr)


def test_undeclared_endpoint_rejected():
    with pytest.raises(InputError):
        DirectedMixedGraph(("a",), (("a", "b"),), ())


def test_edges_normalised_to_sorted_endpoints():
    e = MixedEdge.directed("b", "a")
    assert (e.a, e.b) == ("a", "b")
    assert e.directed_tail == "b" and e.directed_head == "a"
    assert str(e) == "a <- b"


def test_mixed_edge_constructor_contract():
    e, swapped = MixedEdge("a", TAIL, "b", ARROWHEAD), MixedEdge("b", ARROWHEAD, "a", TAIL)
    assert e == swapped and hash(e) == hash(swapped)
    assert (swapped.a, swapped.mark_a, swapped.b, swapped.mark_b) == ("a", TAIL, "b", ARROWHEAD)
    assert MixedEdge("b", TAIL, "a", ARROWHEAD) != e  # the marks swap with the endpoints
    assert repr(swapped) == "MixedEdge(a='a', mark_a=TAIL, b='b', mark_b=ARROWHEAD)"
    with pytest.raises(InputError, match="^self-loop on 'a'$"):
        MixedEdge("a", TAIL, "a", ARROWHEAD)
    for marks in (("tail", "arrowhead"), (TAIL, "arrowhead"), (None, ARROWHEAD), (TAIL, True)):
        with pytest.raises(InputError, match="^edge marks must be TAIL or ARROWHEAD, got "):
            MixedEdge("a", marks[0], "b", marks[1])
    bi = MixedEdge.bidirected("a", "b")
    for end in ("directed_tail", "directed_head"):
        with pytest.raises(InputError, match="^a <-> b is not a directed edge$"):
            getattr(bi, end)
    for read in (e.mark_at, e.other):
        with pytest.raises(InputError, match="^'c' is not an endpoint of a -> b$"):
            read("c")
    for name in ("a", "mark_a", "b", "mark_b"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, "z")
    assert (e.a, e.mark_a, e.b, e.mark_b) == ("a", TAIL, "b", ARROWHEAD)


@pytest.mark.parametrize(
    "edges, message",
    [
        ((MixedEdge.directed("a", "zz"), ("a", "b")), "edge a -> zz uses undeclared node"),
        ((("a", "b"), MixedEdge.directed("a", "zz")), "not a mixed edge: ('a', 'b')"),
        ((MixedEdge.directed("zz", "a"), MixedEdge.directed("a", "b"), MixedEdge.bidirected("b", "a")), "edge a <- zz uses undeclared node"),
        ((MixedEdge.directed("a", "b"), MixedEdge.bidirected("b", "a"), MixedEdge.directed("zz", "a")), "more than one edge between 'a' and 'b'"),
    ],
)
def test_mixed_graph_names_the_first_faulty_edge_in_input_order(edges, message):
    with pytest.raises(InputError) as err:
        MixedGraph(("a", "b"), edges)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "directed, bidirected, message",
    [
        (("ab",), (), "not a directed edge: 'ab'"),
        ((("a",),), (), "not a directed edge: ('a',)"),
        ((("a", "b"),), (("a", "b", "a"),), "not a bidirected edge: ('a', 'b', 'a')"),
        ((("a", "b"),), ((["a"], "b"),), "not a bidirected edge: (['a'], 'b')"),
    ],
)
def test_dmg_rejects_an_entry_that_is_not_a_pair_of_names(directed, bidirected, message):
    with pytest.raises(InputError) as err:
        DirectedMixedGraph(("a", "b"), directed, bidirected)
    assert str(err.value) == message


def test_of_builders_share_one_spec_reader():
    for build in (MixedGraph.of, DirectedMixedGraph.of, ContextedDmg.of):
        with pytest.raises(InputError, match="^bad edge spec: 'a b'$"):
            build("a -> c", "a b")
    # The dmg rejects an undirected spec before its constructor sees the self-loop.
    with pytest.raises(InputError, match="^undirected edge not allowed here: 'a -- a'$"):
        DirectedMixedGraph.of("a -- a")
    # A mixed graph builds each edge as it reads its spec; a dmg checks its edges after the last spec.
    with pytest.raises(InputError, match="^self-loop on 'a'$"):
        MixedGraph.of("a -> a", "x y")
    with pytest.raises(InputError, match="^bad edge spec: 'x y'$"):
        DirectedMixedGraph.of("a -> a", "x y")


def test_selection_must_leave_an_observed_node():
    with pytest.raises(InputError):
        ContextedDmg(DirectedMixedGraph(("a",), (), ()), ("a",))


def test_selection_node_must_be_in_the_graph():
    with pytest.raises(InputError, match="selection node 'zz' is not in the graph"):
        ContextedDmg(DirectedMixedGraph(("a", "b"), (), ()), ("zz",))
    # Membership is checked before the selection is sorted, and the least
    # missing member by str is named, whatever the set order.
    for selection in ([5, "a"], ["zz", 5]):
        with pytest.raises(InputError, match="^selection node 5 is not in the graph$"):
            ContextedDmg(DirectedMixedGraph.of("a -> b"), selection)


def test_a_contexted_dmg_refuses_a_mixed_graph():
    # Accepted, such a value lost its a -- b edge in represent, which can
    # decide every pair here from the graph's masks without a search, and
    # serialize_graph wrote a dmg document that parse_graph refuses.
    for edges in (("a -> c", "c -> b", "a -- b"), ("a -- b", "b -> c")):
        mixed = MixedGraph.of(*edges)
        with pytest.raises(InputError, match="^ContextedDmg needs a DirectedMixedGraph, not MixedGraph$"):
            ContextedDmg(mixed, ())
        with pytest.raises(InputError, match="undirected edges are not allowed in a dmg document$"):
            parse_graph(serialize_graph(mixed), "dmg")


def test_unknown_node_message_names_the_least_missing_node():
    g = DirectedMixedGraph.of("a -> b")
    # Set order follows the hash seed; the message must not.
    for missing, least in ((set("qwertyuiop"), "'e'"), (["f", "d", "c"], "'c'"), ({"zz", 3}, "3")):
        with pytest.raises(InputError, match=f"^unknown node: {least}$"):
            g.require_nodes(missing)
    with pytest.raises(InputError, match="^unknown node: 'e'$"):
        ancestors(g, set("qwertyuiop") | {"a"})


# The collider a -> ab <- c above ab -> b: the name ab is not the set {a, b}.
_AB = ("a -> ab", "c -> ab", "ab -> b")
_AB_DMG = DirectedMixedGraph.of(*_AB)
_AB_MIXED = MixedGraph.of(*_AB)


@pytest.mark.parametrize(
    "call",
    [
        lambda vs: ancestors(_AB_DMG, vs),
        lambda vs: descendants(_AB_DMG, vs),
        lambda vs: anteriors(_AB_MIXED, vs),
        lambda vs: marginalize(_AB_DMG, vs),
        lambda vs: ContextedDmg(_AB_DMG, vs),
        lambda vs: ContextedDmg.of(*_AB, selection=vs),
        lambda vs: ContextedDmg.of("a -> b", nodes=vs),
        lambda vs: DirectedMixedGraph.of("a -> b", nodes=vs),
        lambda vs: MixedGraph.of("a -- b", nodes=vs),
        lambda vs: sigma_inducing_exists(_AB_DMG, vs, "a", "c"),
        lambda vs: sigma_inducing_paths(_AB_DMG, vs, "a", "c"),
        lambda vs: sigma_open_walk(_AB_DMG, parse_walk(_AB_DMG, "a -> ab <- c"), vs),
        lambda vs: sigma_open_path_segments(_AB_DMG, parse_walk(_AB_DMG, "a -> ab <- c"), vs),
        lambda vs: m_open_walk(_AB_MIXED, parse_walk(_AB_MIXED, "a -> ab <- c"), vs),
        lambda vs: unshielded_colliders(_AB_MIXED, vs),
        lambda vs: MixedGraph(vs, ()),
        lambda vs: DirectedMixedGraph(vs, (), ()),
    ],
    ids=[
        "ancestors", "descendants", "anteriors", "marginalize", "ContextedDmg", "ContextedDmg.of-selection",
        "ContextedDmg.of-nodes", "DirectedMixedGraph.of-nodes", "MixedGraph.of-nodes", "sigma_inducing_exists",
        "sigma_inducing_paths", "sigma_open_walk", "sigma_open_path_segments", "m_open_walk",
        "unshielded_colliders", "MixedGraph", "DirectedMixedGraph",
    ],
)
def test_a_bare_string_names_one_node(call):
    assert call("ab") == call(["ab"])


@pytest.mark.parametrize(
    "call",
    [lambda: SeparationQuery(1, 2), lambda: ancestors(_AB_DMG, 5), lambda: ancestors(_AB_DMG, [["a"]])],
    ids=["SeparationQuery-int", "ancestors-int", "ancestors-unhashable"],
)
def test_a_value_that_names_no_node_set_raises_input_error(call):
    # Neither one name nor an iterable of hashable names.
    with pytest.raises(InputError, match="^not a node name or an iterable of node names: "):
        call()


# A mixed graph with an undirected edge, above the path oracles' cap, so
# a call that read it before its type would answer, or refuse its size.
_MIXED_LINE = MixedGraph.of("a -> b", "b -- c", nodes=[f"n{i:02d}" for i in range(DEFAULT_PATH_ORACLE_CAP)])
_LINE_WALK = parse_walk(_MIXED_LINE, "a -> b -- c")
_CONTEXTED = ContextedDmg.of("a -> b")
# A contexted dmg above both oracle caps, for the calls that take a mixed graph.
_CONTEXTED_LINE = ContextedDmg.of("a -> b", "b -> c", nodes=[f"n{i:02d}" for i in range(DEFAULT_PATH_ORACLE_CAP)])
_NOT_MIXED = "a discriminating path needs a MixedGraph, not ContextedDmg"
_NOT_A_GRAPH = "needs a DirectedMixedGraph or MixedGraph, not ContextedDmg"
_WRONG_TYPE = {  # each call with the message that refuses a graph of the wrong type, and the call
    "sigma_separated": (
        "sigma_separated needs a DirectedMixedGraph, not MixedGraph",
        lambda: sigma_separated(_MIXED_LINE, SeparationQuery("a", "c")),
    ),
    "sigma_separated_oracle": (
        "sigma_separated_oracle needs a DirectedMixedGraph, not MixedGraph",
        lambda: sigma_separated_oracle(_MIXED_LINE, SeparationQuery("a", "c")),
    ),
    "sigma_open_walk": (
        "sigma_open_walk needs a DirectedMixedGraph, not MixedGraph",
        lambda: sigma_open_walk(_MIXED_LINE, _LINE_WALK, ()),
    ),
    "sigma_open_path_segments": (
        "sigma_open_path_segments needs a DirectedMixedGraph, not MixedGraph",
        lambda: sigma_open_path_segments(_MIXED_LINE, _LINE_WALK, ()),
    ),
    "sigma_inducing_paths": (
        "sigma_inducing_paths needs a DirectedMixedGraph, not MixedGraph",
        lambda: sigma_inducing_paths(_MIXED_LINE, (), "a", "c"),
    ),
    "sigma_inducing_exists": (
        "sigma_inducing_exists needs a DirectedMixedGraph, not MixedGraph",
        lambda: sigma_inducing_exists(_MIXED_LINE, (), "a", "c"),
    ),
    "sigma_markov_equivalent_oracle": (
        "sigma_markov_equivalent_oracle needs two ContextedDmg values, not MixedGraph and MixedGraph",
        lambda: sigma_markov_equivalent_oracle(_MIXED_LINE, _MIXED_LINE),
    ),
    "marginalize-MixedGraph": (
        "marginalize needs a DirectedMixedGraph, not MixedGraph",
        lambda: marginalize(_MIXED_LINE, []),
    ),
    "marginalize-ContextedDmg": (
        "marginalize needs a DirectedMixedGraph, not ContextedDmg",
        lambda: marginalize(_CONTEXTED, []),
    ),
    "discriminating_paths": (_NOT_MIXED, lambda: discriminating_paths(_CONTEXTED)),
    "is_discriminating": (_NOT_MIXED, lambda: is_discriminating(_CONTEXTED, ("a", "b"), "b")),
    "DiscriminatingPath.target_is_collider": (
        _NOT_MIXED,
        lambda: DiscriminatingPath(("x", "a", "b", "c"), "b").target_is_collider(_CONTEXTED),
    ),
    "unshielded_colliders": (
        "unshielded_colliders needs a MixedGraph, not ContextedDmg",
        lambda: unshielded_colliders(_CONTEXTED),
    ),
    "represent": ("represent needs a ContextedDmg, not MixedGraph", lambda: represent(_MIXED_LINE)),
    "validate": ("validate needs a MixedGraph, not ContextedDmg", lambda: validate(_CONTEXTED_LINE)),
    "canonical_dmg": ("canonical_dmg needs a MixedGraph, not ContextedDmg", lambda: canonical_dmg(_CONTEXTED_LINE)),
    "condition1": (
        "condition1 needs two MixedGraph values, not ContextedDmg and ContextedDmg",
        lambda: condition1(_CONTEXTED_LINE, _CONTEXTED_LINE),
    ),
    "m_markov_equivalent_oracle": (
        "m_markov_equivalent_oracle needs two MixedGraph values, not ContextedDmg and ContextedDmg",
        lambda: m_markov_equivalent_oracle(_CONTEXTED_LINE, _CONTEXTED_LINE),
    ),
    "m_separated": (
        "m_separated needs a MixedGraph, not ContextedDmg",
        lambda: m_separated(_CONTEXTED_LINE, SeparationQuery("a", "c")),
    ),
    "m_separated_oracle": (
        "m_separated_oracle needs a MixedGraph, not ContextedDmg",
        lambda: m_separated_oracle(_CONTEXTED_LINE, SeparationQuery("a", "c")),
    ),
    "m_open_walk": ("m_open_walk needs a MixedGraph, not ContextedDmg", lambda: m_open_walk(_CONTEXTED_LINE, _LINE_WALK, ())),
    "inducing_exists": (
        "inducing_exists needs a MixedGraph, not ContextedDmg",
        lambda: inducing_exists(_CONTEXTED_LINE, "a", "c"),
    ),
    "inducing_paths": ("inducing_paths needs a MixedGraph, not ContextedDmg", lambda: inducing_paths(_CONTEXTED_LINE, "a", "c")),
    "canonical_inducing_separator": (
        "canonical_inducing_separator needs a MixedGraph, not ContextedDmg",
        lambda: canonical_inducing_separator(_CONTEXTED_LINE, "a", "c"),
    ),
    # The calls that answer on either graph type refuse anything else.
    "ancestors": (f"ancestors {_NOT_A_GRAPH}", lambda: ancestors(_CONTEXTED, "a")),
    "descendants": (f"descendants {_NOT_A_GRAPH}", lambda: descendants(_CONTEXTED, "a")),
    "anteriors": (f"anteriors {_NOT_A_GRAPH}", lambda: anteriors(_CONTEXTED, "a")),
    "neighborhood": (f"neighborhood {_NOT_A_GRAPH}", lambda: neighborhood(_CONTEXTED, "a")),
    "neighborhood_complete": (f"neighborhood_complete {_NOT_A_GRAPH}", lambda: neighborhood_complete(_CONTEXTED, "a")),
    "strongly_connected_components": (
        f"strongly_connected_components {_NOT_A_GRAPH}",
        lambda: strongly_connected_components(_CONTEXTED),
    ),
    "scc_index": (f"scc_index {_NOT_A_GRAPH}", lambda: scc_index(_CONTEXTED)),
    "enumerate_simple_paths": (
        f"enumerate_simple_paths {_NOT_A_GRAPH}",
        lambda: list(enumerate_simple_paths(_CONTEXTED, "a", "b")),
    ),
    "parse_walk": (f"parse_walk {_NOT_A_GRAPH}", lambda: parse_walk(_CONTEXTED, "a -> b")),
    "check_walk": (f"check_walk {_NOT_A_GRAPH}", lambda: check_walk(_CONTEXTED, Walk("a"))),
    # The graph of a ContextedDmg is checked when the value is built, before its selection is read.
    "ContextedDmg": ("ContextedDmg needs a DirectedMixedGraph, not MixedGraph", lambda: ContextedDmg(_MIXED_LINE, ("zz",))),
}


@pytest.mark.parametrize("name", sorted(_WRONG_TYPE))
def test_a_graph_of_the_wrong_type_is_refused_before_it_is_read(name):
    # An InputError naming the types, not an AttributeError, a cap error or a verdict.
    message, call = _WRONG_TYPE[name]
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


_GRAPH_CLASSES = {"_Graph", "DirectedMixedGraph", "MixedGraph", "ContextedDmg"}


def test_every_call_that_takes_a_graph_has_a_wrong_type_entry():
    # The package's functions, the public methods of its classes, and check_walk.
    calls = {"check_walk": check_walk}
    for name in cyclomag.__all__:
        obj = getattr(cyclomag, name)
        if inspect.isfunction(obj):
            calls[name] = obj
        elif inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, inspect.isroutine):
                if not attr.startswith("_") and (inspect.isfunction(member) or inspect.ismethod(member)):
                    calls[f"{name}.{attr}"] = member
    # Annotations are strings under postponed evaluation, so each names its class.
    takes_a_graph = [
        name for name, f in calls.items() if any(p.annotation in _GRAPH_CLASSES for p in inspect.signature(f).parameters.values())
    ]
    assert {"ancestors", "check_walk", "DiscriminatingPath.target_is_collider", "represent"} <= set(takes_a_graph)
    missing = [name for name in takes_a_graph if not any(key == name or key.startswith(f"{name}-") for key in _WRONG_TYPE)]
    assert missing == []


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


def _traversal_key(edge, v):
    # Reference order: neighbours by name, then tails before arrowheads
    # at v, then at the far end.
    w = edge.other(v)
    return (w, edge.mark_at(v) is ARROWHEAD, edge.mark_at(w) is ARROWHEAD)


def _incidence_graphs(seed):
    """A dmg with all three parallel edges on some pairs, and a mixed
    graph with every edge kind; node names do not sort numerically."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in rng.sample(range(40), rng.randint(2, 14))]
    directed, bidirected, mixed = [], [], []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            triple = rng.random() < 0.15
            directed += [e for e in ((a, b), (b, a)) if triple or rng.random() < 0.3]
            bidirected += [(b, a)] * (triple or rng.random() < 0.2)
            if rng.random() < 0.7:
                ma, mb = rng.choice((TAIL, ARROWHEAD)), rng.choice((TAIL, ARROWHEAD))
                mixed.append(MixedEdge(a, ma, b, mb) if rng.random() < 0.5 else MixedEdge(b, mb, a, ma))
    return DirectedMixedGraph(tuple(names), tuple(directed), tuple(bidirected)), MixedGraph(tuple(names), tuple(mixed))


def _declared_edges(g):
    """The edges a graph value was given, read from its own fields."""
    if isinstance(g, MixedGraph):
        return list(g.edges)
    return [MixedEdge.directed(*p) for p in g.directed] + [MixedEdge.bidirected(*p) for p in g.bidirected]


def _arc(e, from_b=False):
    """The ``(a, b, kind)`` arc of an edge, read from ``e.a`` or from ``e.b``."""
    (u, mark_u), (w, mark_w) = ((e.b, e.mark_b), (e.a, e.mark_a)) if from_b else ((e.a, e.mark_a), (e.b, e.mark_b))
    return u, w, ARROW_HERE * (mark_u is ARROWHEAD) + ARROW_THERE * (mark_w is ARROWHEAD)


def test_incidence_order_and_index_kinds_follow_the_marks():
    triples = kinds = 0
    for seed in range(150):
        for g in _incidence_graphs(seed):
            idx = g.index
            declared = _declared_edges(g)
            for v in g.nodes:
                edges = g.incident_edges(v)
                assert list(edges) == sorted((e for e in declared if v in e.endpoints), key=lambda e: _traversal_key(e, v))
                row = idx.rows[idx.ids[v]]
                assert len(row) == len(edges)
                for (w, kind), e in zip(row, edges):
                    u = e.other(v)
                    assert idx.names[w] == u
                    assert bool(kind & ARROW_HERE) == (e.mark_at(v) is ARROWHEAD)
                    assert bool(kind & ARROW_THERE) == (e.mark_at(u) is ARROWHEAD)
                    assert bool(kind & CROSSES_SCC) == (idx.scc[idx.ids[v]] != idx.scc[w])
                    kinds |= 1 << (kind & ~CROSSES_SCC)
                triples += 3 in Counter(e.other(v) for e in edges).values()
    # Three-way parallel-edge ties and all four edge kinds were seen.
    assert triples > 100 and kinds == 1 << 0 | 1 << 2 | 1 << 4 | 1 << 6


def _big_mixed_graph(n, seed):
    """A sparse mixed graph on n nodes, about 1.4 edges per node of every
    kind, and a directed cycle through five more nodes."""
    rng = random.Random(seed)
    names = [f"g{i}" for i in rng.sample(range(10 * n), n)]
    pairs = sorted({tuple(sorted(rng.sample(names, 2))) for _ in range(int(1.4 * n))})
    marks = (TAIL, ARROWHEAD)
    edges = [MixedEdge(a, rng.choice(marks), b, rng.choice(marks)) for a, b in pairs]
    cycle = [f"c{i}" for i in range(5)]
    edges += [MixedEdge.directed(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    edges += [MixedEdge.directed(cycle[0], names[0]), MixedEdge.bidirected(cycle[2], names[1])]
    return MixedGraph(tuple(names + cycle), tuple(edges))


def test_index_parents_and_children_are_the_directed_neighbours_in_the_rows():
    graphs = [g for seed in range(150) for g in _incidence_graphs(seed)] + [_big_mixed_graph(2000, 7)]
    for g in graphs:
        idx = g.index
        assert idx.parents == [tuple(w for w, kind in row if kind & ~CROSSES_SCC == ARROW_HERE) for row in idx.rows]
        assert idx.children == [tuple(w for w, kind in row if kind & ~CROSSES_SCC == ARROW_THERE) for row in idx.rows]
    for g, parents, children in (
        (DirectedMixedGraph.of("a -> b", "b -> a", "b -> c", "c <-> a"), ("a",), ("a", "c")),
        (MixedGraph.of("a -> b", "d -> b", "b -- c"), ("a", "d"), ()),
    ):
        assert (g.parents("b"), g.children("b")) == (parents, children)
    big = graphs[-1].index
    assert len(set(big.scc)) <= len(big.names) - 4  # the planted cycle is one component
    assert sum(map(len, big.parents)) > 1000


def _edge_list(g):
    return list({e for v in g.nodes for e in g.incident_edges(v)})


@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_rows_do_not_depend_on_input_order(seed, rng):
    def shuffled(xs, flip=lambda x: x):
        return tuple(rng.sample([flip(x) if rng.random() < 0.5 else x for x in xs], len(xs)))

    dmg, mixed = _incidence_graphs(seed)
    # One pair carries all three dmg edges whatever the seed.
    a, b = dmg.nodes[:2]
    dmg = DirectedMixedGraph(dmg.nodes, dmg.directed + ((a, b), (b, a)), dmg.bidirected + ((a, b),))
    rebuilt = (
        DirectedMixedGraph(shuffled(dmg.nodes), shuffled(dmg.directed), shuffled(dmg.bidirected, lambda p: p[::-1])),
        MixedGraph(shuffled(mixed.nodes), shuffled(mixed.edges, lambda e: MixedEdge(e.b, e.mark_b, e.a, e.mark_a))),
    )
    for g, same in zip((dmg, mixed), rebuilt):
        assert same == g and same.index.rows == g.index.rows
        # Arcs in any order, each read from either end.
        arcs = [_arc(e, rng.random() < 0.5) for e in shuffled(_edge_list(g))]
        again = GraphIndex(g.nodes, lambda: arcs)
        assert (again.rows, again.parents, again.children) == (g.index.rows, g.index.parents, g.index.children)
        for v in g.nodes:
            assert same.incident_edges(v) == g.incident_edges(v)
    assert len(dmg.incident_edges(a)) >= 3 and {e.other(a) for e in dmg.incident_edges(a)[:3]} == {b}


def test_index_rows_make_no_edge_values(monkeypatch):
    # An edge value comes from MixedEdge.__init__ or, for an index row
    # entry, from row_edge through graphs._new_edge; both are counted.
    g = DirectedMixedGraph.of("a -> b", "b -> a", "a <-> b", "d -> c", "c -> b")
    values = [g, *_incidence_graphs(3), random_dmg(GeneratorConfig(60, 2 / 60, 1 / 60, 3, 1)).graph]
    mixed = [*DISC_SEVERAL, represent(random_dmg(GeneratorConfig(15, 0.2, 0.125, 3, 0)))]  # n = 12
    made, init, new = [], MixedEdge.__init__, graphs._new_edge
    monkeypatch.setattr(MixedEdge, "__init__", lambda self, *args: made.append(self) or init(self, *args))
    monkeypatch.setattr(graphs, "_new_edge", lambda cls: made.append(cls) or new(cls))
    for value in values:
        idx = value.index
        assert (idx.adj, idx.acy, idx.anc, idx.ant, idx.und) and not made
    # Neither the discriminating-path listing nor its predicate makes one.
    for h in mixed:
        paths = discriminating_paths(h)
        assert paths and all(is_discriminating(h, dp.nodes, dp.target) for dp in paths)
        assert not any(is_discriminating(h, dp.nodes[::-1], dp.nodes[1]) for dp in paths) and not made
    assert sigma_separated(g, SeparationQuery("a", "d", "c")).separated and not made
    # A witness makes its own edges and no others.
    assert sigma_separated(g, SeparationQuery("d", "a")).witness.render() == "d -> c -> b -> a"
    assert len(made) == 3
    made.clear()
    assert len(g.incident_edges("b")) == len(made) == 4


def _handed_out(g, rng):
    """Every walk and edge value the library hands out for ``g``, as
    ``(walk or None, from-node or None, edge)`` items: incident edges,
    ``edge()``, simple paths, separation witnesses and, on a mixed graph,
    the witnesses of ``validate``."""
    out = [(None, v, e) for v in g.nodes for e in g.incident_edges(v)]
    walks = []
    separated = sigma_separated if isinstance(g, DirectedMixedGraph) else m_separated
    for u, w in itertools.permutations(g.nodes, 2):
        walks += itertools.islice(enumerate_simple_paths(g, u, w), 3)
        z = {v for v in g.nodes if v not in (u, w) and rng.random() < 0.3}
        walks += [separated(g, SeparationQuery(u, w, zz)).witness for zz in (set(), z)]
        if isinstance(g, MixedGraph):
            out.append((None, u, g.edge(u, w)))
    if isinstance(g, MixedGraph):
        for violation in validate(g).violations:
            walks += [x for x in violation.witness if isinstance(x, Walk)]
            out += [(None, None, x) for x in violation.witness if isinstance(x, MixedEdge)]
    out += [(walk, None, e) for walk in walks if walk is not None for e in walk.edges]
    return out, [walk.render() for walk in walks if walk is not None]


def _dp_walks(h1, h2):
    """The discriminating path of ``condition1(h1, h2)`` as a walk in each graph."""
    dp, _ = condition1(h1, h2).witness
    return [Walk(dp.nodes[0], tuple(h.edge(u, w) for u, w in zip(dp.nodes, dp.nodes[1:]))) for h in (h1, h2)]


def test_handed_out_edges_are_the_graphs_and_render_as_declared():
    # Edge values are made from index rows on demand, so each one must be
    # a declared edge of its graph, with the marks seen from the right end.
    dmg = DirectedMixedGraph.of("a -> b", "b -> a", "a <-> b", "b -> c", "c <-> d")
    mixed = MixedGraph.of("a -> b", "b <-> c", "c -- d", "d <- e")
    assert [[f"{v} {e.render_from(v)} {e.other(v)}" for e in g.incident_edges(v)] for g in (dmg, mixed) for v in g.nodes] == [
        ["a -> b", "a <- b", "a <-> b"],
        ["b -> a", "b <- a", "b <-> a", "b -> c"],
        ["c <- b", "c <-> d"],
        ["d <-> c"],
        ["a -> b"],
        ["b <- a", "b <-> c"],
        ["c <-> b", "c -- d"],
        ["d -- c", "d <- e"],
        ["e -> d"],
    ]
    assert [str(mixed.edge(u, w)) for u, w in ("ab", "cb", "dc", "ed")] == ["a -> b", "b <-> c", "c -- d", "d <- e"]
    assert [p.render() for p in enumerate_simple_paths(dmg, "a", "c")] == ["a -> b -> c", "a <- b -> c", "a <-> b -> c"]
    assert [sigma_separated(dmg, SeparationQuery(x, y, z)).witness.render() for x, y, z in (("a", "c", ()), ("a", "d", "c"), ("d", "a", "c"))] == [
        "a -> b -> c",
        "a -> b -> c <-> d",
        "d <-> c <- b -> a",
    ]
    assert [m_separated(mixed, SeparationQuery(x, y, "b")).witness.render() for x, y in ("ac", "ca")] == ["a -> b <-> c", "c <-> b <- a"]
    (path, edge), = (v.witness for v in validate(MixedGraph.of("a -> b", "b -> c", "a <-> c")).violations)
    assert (path.render(), str(edge)) == ("a -> b -> c", "a <-> c")
    common = ("a -> v", "v <-> b", "v -> c")
    pair = MixedGraph.of(*common, "b <-> c"), MixedGraph.of(*common, "b -> c")
    assert [w.render() for w in _dp_walks(*pair)] == ["a -> v <-> b <-> c", "a -> v <-> b -> c"]

    rng = random.Random(5)
    rendered, kinds = [], set()
    graphs = [dmg, mixed, *(g for seed in range(25) for g in _incidence_graphs(seed))]
    for g in graphs:
        declared = set(_declared_edges(g))
        items, walks = _handed_out(g, rng)
        for walk, v, e in items:
            if e is None:
                continue
            assert g.contains_edge(e) and e in declared, (walk, e)
            kinds.add((type(g), e.mark_a, e.mark_b))
        rendered += walks + [f"{v} {e.render_from(v)} {e.other(v)}" if v else str(e) for _, v, e in items if e is not None]
    for h1, h2 in (pair, pair[::-1]):
        for h, walk in zip((h1, h2), _dp_walks(h1, h2)):
            assert all(h.contains_edge(e) for e in walk.edges)
            rendered.append(walk.render())
    assert len(kinds) == 3 + 4  # a dmg has three mark pairs, a mixed graph all four
    # Every rendering, line for line, as it read while index rows still held edge values.
    assert hashlib.sha256("\n".join(rendered).encode()).hexdigest() == (
        "c34f79938b7ac5bbd76747f7da5fff83526c4069b9d26d2bfc9339c2ae72534c"
    ), len(rendered)


def test_contains_edge_on_both_graph_types():
    for seed in range(40):
        for g in _incidence_graphs(seed):
            edges = set(_edge_list(g))
            for e in edges:
                assert g.contains_edge(e)
                swapped = MixedEdge(e.a, e.mark_b, e.b, e.mark_a)
                assert g.contains_edge(swapped) == (swapped in edges)
    for g in (DirectedMixedGraph.of("a -> b", "b <-> c", nodes=("d",)), MixedGraph.of("a -> b", "b <-> c", "d -- c")):
        assert g.contains_edge(MixedEdge.directed("a", "b"))
        assert not g.contains_edge(MixedEdge.directed("b", "a"))  # marks swapped
        assert not g.contains_edge(MixedEdge.undirected("a", "b"))
        assert not g.contains_edge(MixedEdge.directed("a", "c"))  # no edge on the pair
        assert not g.contains_edge(MixedEdge.directed("a", "zz"))
        assert not g.contains_edge(MixedEdge.bidirected("yy", "zz"))
        assert not g.contains_edge(("a", "b"))
        with pytest.raises(InputError, match="^unknown node: 'zz'$"):
            g.incident_edges("zz")
    # edge() on a graph that was never indexed: each call gets a fresh one.
    specs = ("a -> b", "b <-> c")
    for a, b in (("a", "b"), ("b", "a")):
        assert MixedGraph.of(*specs).edge(a, b) == MixedEdge.directed("a", "b")
    assert MixedGraph.of(*specs).edge("a", "c") is None
    assert MixedGraph.of(*specs).edge("a", "zz") is None
    with pytest.raises(InputError, match="^unknown node: 'zz'$"):
        MixedGraph.of(*specs).edge("zz", "a")


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


# --- walks -------------------------------------------------------------------


def test_parse_walk_rejects_missing_edges_and_bad_syntax():
    g = DirectedMixedGraph.of("a -> b")
    with pytest.raises(InputError):
        parse_walk(g, "a <- b")  # wrong orientation
    with pytest.raises(InputError):
        parse_walk(g, "a -> b ->")  # dangling arrow
    with pytest.raises(InputError):
        parse_walk(g, "a -- b")  # no undirected edges in this graph


def test_walk_rejects_a_broken_chain_a_non_endpoint_and_a_foreign_edge():
    g = DirectedMixedGraph.of("a -> b", "b <-> c")
    ab, bc = MixedEdge.directed("a", "b"), MixedEdge.bidirected("b", "c")
    with pytest.raises(InputError, match="^edge b <-> c does not continue the walk at 'a'$"):
        Walk("a", (bc,))
    with pytest.raises(InputError, match="^not a mixed edge: 'x'$"):
        Walk("a", ["x"])
    walk = Walk("a", (ab, bc))
    assert walk.is_out_of("a") and walk.is_into("c") and str(walk) == "a -> b <-> c"
    assert not Walk("a").is_into("a")
    with pytest.raises(InputError, match="^'b' is not an endpoint of the walk$"):
        walk.is_into("b")
    assert check_walk(g, walk) is walk
    with pytest.raises(InputError, match="^walk edge b -> c is not in the graph$"):
        check_walk(g, Walk("a", (ab, MixedEdge.directed("b", "c"))))


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


@given(st.one_of(dmgs(), mixed_graphs()))
def test_adjacency_matches_incident_edges(g):
    idx = g.index
    for v in g.nodes:
        neighbours = {e.other(v) for e in g.incident_edges(v)}
        assert set(idx.members(idx.adj[idx.ids[v]])) == neighbours
        for w in g.nodes:
            assert g.adjacent(v, w) == (w in neighbours)
        assert not g.adjacent(v, "unknown")
    with pytest.raises(InputError):
        g.adjacent("unknown", g.nodes[0])
    if isinstance(g, MixedGraph):
        assert g.edge(g.nodes[0], "unknown") is None
        with pytest.raises(InputError):
            g.edge("unknown", g.nodes[0])


@given(st.one_of(dmgs(max_n=4), mixed_graphs(max_n=4)))
@settings(max_examples=120)
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
                # Parallel dmg edges render apart, so parsing picks the same one.
                assert parse_walk(g, p.render()) == p


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
