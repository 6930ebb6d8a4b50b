import itertools
import random

import pytest

from cyclomag import (
    ARROWHEAD,
    TAIL,
    DirectedMixedGraph,
    DiscriminatingPath,
    EquivalenceClause,
    GeneratorConfig,
    InputError,
    MixedEdge,
    MixedGraph,
    NodeSetError,
    OracleCapError,
    SeparationQuery,
    condition1,
    discriminating_paths,
    is_discriminating,
    m_markov_equivalent_oracle,
    m_separated,
    random_dmg,
    represent,
    serialize_graph,
    sigma_markov_equivalent_oracle,
    unshielded_colliders,
    validate,
)
from cyclomag.cli import cli
from fixtures import (
    CYCLE_WITH_CHILD,
    DISC_COLLIDER,
    DISC_ONE_SIDED,
    DISC_SEVERAL,
    DISC_TAIL,
    HUB_CYCLE_A,
    HUB_CYCLE_B,
    SELECTION_ABSTRACTION,
    TRIANGLE_WITH_HUB,
    UNDIRECTED_TRIANGLE,
    all_subsets,
    seeded_marked_mixed,
    seeded_mixed_pair,
    seeded_valid_mixed,
)


# --- unshielded colliders ------------------------------------------------


def test_unshielded_collider_found():
    h = MixedGraph.of("a -> b", "c -> b")
    assert unshielded_colliders(h) == frozenset({("a", "b", "c")})


def test_selection_abstraction_has_no_unshielded_colliders():
    assert unshielded_colliders(SELECTION_ABSTRACTION) == frozenset()


def test_complete_graph_has_no_unshielded_triples():
    h = MixedGraph.of("a <-> b", "b <-> c", "a <-> c")
    assert unshielded_colliders(h) == frozenset()


def test_unshielded_colliders_at_given_centres():
    h = MixedGraph.of("a -> b", "c -> b", "c <-> d", "e -> d", "a -> e")
    everything = unshielded_colliders(h)
    assert everything == frozenset({("a", "b", "c"), ("c", "d", "e")})
    assert unshielded_colliders(h, ["d"]) == frozenset({("c", "d", "e")})
    assert unshielded_colliders(h, ["a", "b"]) == frozenset({("a", "b", "c")})
    assert unshielded_colliders(h, []) == frozenset()
    with pytest.raises(InputError):
        unshielded_colliders(h, ["nope"])


# --- discriminating paths ------------------------------------------------


def test_template_path_enumerated():
    dps = discriminating_paths(DISC_TAIL)
    assert [dp.nodes for dp in dps] == [("a", "q", "b", "c")]
    assert dps[0].target == "b"
    assert not dps[0].target_is_collider(DISC_TAIL)
    assert discriminating_paths(DISC_TAIL, for_node="q") == ()


def test_collider_variant_enumerated():
    dps = discriminating_paths(DISC_COLLIDER)
    assert [dp.nodes for dp in dps] == [("a", "q", "b", "c")]
    assert dps[0].target_is_collider(DISC_COLLIDER)


def test_target_is_collider_names_a_missing_edge():
    h = MixedGraph.of("a -> b", "c -> d")
    with pytest.raises(InputError, match="^no edge between 'c' and 'b'$"):
        DiscriminatingPath(("a", "b", "c", "d"), "c").target_is_collider(h)
    with pytest.raises(InputError, match="^no edge between 'b' and 'd'$"):
        DiscriminatingPath(("a", "c", "b", "d"), "b").target_is_collider(MixedGraph.of("a -> c", "c -> b", nodes=("d",)))
    # A directed mixed graph may hold parallel edges at b, so it is refused.
    g = DirectedMixedGraph.of("a <-> q", "a -> q", "q -> c", "q <-> b", "b -> c")
    with pytest.raises(InputError, match="^a discriminating path needs a MixedGraph, not DirectedMixedGraph$"):
        DiscriminatingPath(("a", "q", "b", "c"), "b").target_is_collider(g)


def test_all_adjacent_graph_has_no_discriminating_paths():
    h = MixedGraph.of("a <-> b", "b <-> c", "a <-> c")
    assert discriminating_paths(h) == ()


def test_is_discriminating_positive_and_negative():
    assert is_discriminating(DISC_TAIL, ("a", "q", "b", "c"), "b")
    # outer nodes adjacent: never discriminating
    shielded = MixedGraph.of("a <-> q", "q -> c", "q <-> b", "b -> c", "a -> c")
    assert not is_discriminating(shielded, ("a", "q", "b", "c"), "b")
    # flipping the chain mark turns q into a non-collider
    flipped = MixedGraph.of("a <-> q", "q -> c", "q -> b", "b -> c")
    assert not is_discriminating(flipped, ("a", "q", "b", "c"), "b")
    # consecutive non-adjacency is a False, not an error
    sparse = MixedGraph.of("a <-> q", "q -> c", nodes=("b",))
    assert not is_discriminating(sparse, ("a", "q", "b", "c"), "b")
    assert not is_discriminating(DISC_TAIL, ("a", "q", "b", "c"), "q")
    # too short or repeating a node: False from the predicate, and the
    # value refuses a short sequence or a target out of place
    assert not is_discriminating(DISC_TAIL, ("q", "b", "c"), "b")
    assert not is_discriminating(DISC_TAIL, ("q", "a", "q", "b", "c"), "b")
    with pytest.raises(InputError, match="^a discriminating path has at least four nodes$"):
        DiscriminatingPath(("q", "b", "c"), "b")
    with pytest.raises(InputError, match="^the discriminated node is the second-to-last one$"):
        DiscriminatingPath(("a", "q", "b", "c"), "q")


def test_discriminating_path_keeps_its_nodes_as_a_tuple():
    listed, tupled = DiscriminatingPath(["a", "q", "b", "c"], "b"), DiscriminatingPath(("a", "q", "b", "c"), "b")
    assert listed.nodes == ("a", "q", "b", "c")
    assert listed == tupled and hash(listed) == hash(tupled)


def test_condition1_refuses_a_directed_mixed_graph():
    g = DirectedMixedGraph.of("a -> b", "b <-> c")
    h = MixedGraph.of("a -> b", "b <-> c")
    for pair, names in (((g, g), "DirectedMixedGraph and DirectedMixedGraph"), ((h, g), "MixedGraph and DirectedMixedGraph")):
        with pytest.raises(InputError, match=f"^condition1 needs two MixedGraph values, not {names}$"):
            condition1(*pair)


def test_is_discriminating_refuses_a_directed_mixed_graph():
    # A pair may hold parallel edges there, so no one edge answers for it.
    g = DirectedMixedGraph.of("a <-> q", "q -> c", "q <-> b", "b -> c", "c -> b")
    with pytest.raises(InputError, match="^a discriminating path needs a MixedGraph, not DirectedMixedGraph$"):
        is_discriminating(g, ("a", "q", "b", "c"), "b")


def test_is_discriminating_refuses_a_value_that_names_no_node_sequence():
    for nodes in (5, [["a"], "q", "b", "c"]):
        with pytest.raises(NodeSetError, match="^not a sequence of node names: "):
            is_discriminating(DISC_TAIL, nodes, "b")


_AQBC = MixedGraph.of("a <-> q", "q -> c", "q <-> b", "b -> c")  # a q b c discriminates b


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: is_discriminating(_AQBC, "aqbc", "b"), InputError, "unknown node: 'aqbc'"),
        (lambda: DiscriminatingPath("aqbc", "b"), InputError, "a discriminating path has at least four nodes"),
        (lambda: DiscriminatingPath(5, "b"), NodeSetError, "not a sequence of node names: 5"),
        (lambda: DiscriminatingPath([["a"], "q", "b", "c"], "b"), NodeSetError, r"not a sequence of node names: \[\['a'\], "),
    ],
    ids=["is_discriminating-string", "DiscriminatingPath-string", "DiscriminatingPath-int", "DiscriminatingPath-unhashable"],
)
def test_a_node_sequence_reads_a_bare_string_as_one_node(call, error, message):
    # As in every node-set argument, "aqbc" is one node, not the path a q b c.
    assert is_discriminating(_AQBC, ("a", "q", "b", "c"), "b")
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_discriminating_paths_refuse_a_directed_mixed_graph():
    # Listed once per parallel edge it could use, were it not refused.
    g = DirectedMixedGraph.of("a <-> q", "a -> q", "q -> c", "q <-> b", "b -> c")
    for for_node in (None, "b"):
        with pytest.raises(InputError, match="^a discriminating path needs a MixedGraph, not DirectedMixedGraph$"):
            discriminating_paths(g, for_node=for_node)


def test_longer_discriminating_path():
    h = MixedGraph.of(
        "a <-> v0", "v0 <-> v1", "v1 <-> b", "v0 -> c", "v1 -> c", "b -> c"
    )
    assert validate(h).valid
    dps = discriminating_paths(h, for_node="b")
    assert ("a", "v0", "v1", "b", "c") in [dp.nodes for dp in dps]


def test_enumeration_matches_predicate_on_seeded_graphs():
    # Abstractions, valid graphs rich in bidirected chains, and those
    # graphs with their marks drawn again, which are mostly invalid.
    graphs = []
    for seed in range(60):
        marked = seeded_marked_mixed(seed, max_n=6)
        rng = random.Random(seed)
        redrawn = [MixedEdge(e.a, rng.choice((TAIL, ARROWHEAD)), e.b, rng.choice((TAIL, ARROWHEAD))) for e in marked.edges]
        graphs += [seeded_valid_mixed(seed, max_n=5), marked, MixedGraph(marked.nodes, tuple(redrawn))]
    for h in graphs:
        enumerated = {(dp.nodes, dp.target) for dp in discriminating_paths(h)}
        nodes = list(h.nodes)
        for r in range(4, len(nodes) + 1):
            for seq in itertools.permutations(nodes, r):
                assert is_discriminating(h, seq, seq[-2]) == ((seq, seq[-2]) in enumerated)
        for b in nodes:
            assert {(dp.nodes, dp.target) for dp in discriminating_paths(h, for_node=b)} == {
                item for item in enumerated if item[1] == b
            }


# --- condition-based equivalence -----------------------------------------


def test_condition_reflexive():
    report = condition1(DISC_TAIL, DISC_TAIL)
    assert report.equivalent and report.failed_clause is None


def test_condition_detects_adjacency_difference():
    report = condition1(UNDIRECTED_TRIANGLE, TRIANGLE_WITH_HUB)
    assert not report.equivalent
    assert report.failed_clause is EquivalenceClause.ADJACENCY
    assert report.witness == ("b", "d")


def test_condition_mark_flip_is_equivalent():
    assert condition1(MixedGraph.of("a -> b"), MixedGraph.of("a <-> b")).equivalent


def test_condition_detects_unshielded_collider_difference():
    h1 = MixedGraph.of("a -> b", "c -> b")
    h2 = MixedGraph.of("a -> b", "b -> c")
    report = condition1(h1, h2)
    assert not report.equivalent
    assert report.failed_clause is EquivalenceClause.UNSHIELDED_COLLIDER
    assert report.witness == ("a", "b", "c")


def test_condition_detects_discriminating_difference():
    report = condition1(DISC_TAIL, DISC_COLLIDER)
    assert not report.equivalent
    assert report.failed_clause is EquivalenceClause.DISCRIMINATING_PATH
    dp, target = report.witness
    assert dp.nodes == ("a", "q", "b", "c") and target == "b"


def test_condition_requires_same_nodes():
    with pytest.raises(InputError):
        condition1(MixedGraph.of("a -> b"), MixedGraph.of("a -> c"))
    with pytest.raises(InputError, match="^equivalence needs a shared node set$"):
        m_markov_equivalent_oracle(MixedGraph.of("a -> b"), MixedGraph.of("a -> c"))


# --- exhaustive oracles ---------------------------------------------------


def test_m_oracle_examples():
    ok, cex = m_markov_equivalent_oracle(MixedGraph.of("a -> b"), MixedGraph.of("a <-> b"))
    assert ok and cex is None
    ok, cex = m_markov_equivalent_oracle(UNDIRECTED_TRIANGLE, TRIANGLE_WITH_HUB)
    assert not ok and cex is not None
    ok, _ = m_markov_equivalent_oracle(DISC_TAIL, DISC_TAIL)
    assert ok


def test_oracle_counterexample_reverifies():
    ok, cex = m_markov_equivalent_oracle(DISC_TAIL, DISC_COLLIDER)
    assert not ok
    a, b, z = cex
    q = SeparationQuery((a,), (b,), z)
    assert m_separated(DISC_TAIL, q).separated != m_separated(DISC_COLLIDER, q).separated


def test_sigma_oracle_examples():
    ok, _ = sigma_markov_equivalent_oracle(HUB_CYCLE_A, HUB_CYCLE_A)
    assert ok
    ok, _ = sigma_markov_equivalent_oracle(HUB_CYCLE_A, HUB_CYCLE_B)
    assert ok  # both abstract to the same graph
    ok, cex = sigma_markov_equivalent_oracle(CYCLE_WITH_CHILD, HUB_CYCLE_A)
    assert not ok and cex is not None


def test_sigma_oracle_requires_matching_selection():
    with pytest.raises(InputError):
        sigma_markov_equivalent_oracle(
            CYCLE_WITH_CHILD,
            HUB_CYCLE_A.__class__(HUB_CYCLE_A.graph, ("a",)),
        )


def test_oracle_caps(monkeypatch):
    big = MixedGraph(tuple(f"n{i}" for i in range(9)), ())
    monkeypatch.delenv("CYCLOMAG_ORACLE_CAP", raising=False)
    with pytest.raises(OracleCapError):
        m_markov_equivalent_oracle(big, big)
    monkeypatch.setenv("CYCLOMAG_ORACLE_CAP", "9")
    ok, _ = m_markov_equivalent_oracle(big, big)
    assert ok


# --- theorem-level agreement ----------------------------------------------


def test_condition_agrees_with_oracles_on_seeded_pairs():
    for seed in range(60):
        c1, c2 = seeded_mixed_pair(seed, max_n=4)
        h1, h2 = represent(c1), represent(c2)
        cond = condition1(h1, h2).equivalent
        assert cond == m_markov_equivalent_oracle(h1, h2)[0]
        assert cond == sigma_markov_equivalent_oracle(c1, c2)[0]


_FLIP = {TAIL: ARROWHEAD, ARROWHEAD: TAIL}


def _enumerated_condition1(h1, h2):
    """Verdict and failed clause by enumerating every discriminating path."""
    if {(e.a, e.b) for e in h1.edges} != {(e.a, e.b) for e in h2.edges}:
        return False, EquivalenceClause.ADJACENCY
    if unshielded_colliders(h1) != unshielded_colliders(h2):
        return False, EquivalenceClause.UNSHIELDED_COLLIDER
    for first, second in ((h1, h2), (h2, h1)):
        for dp in discriminating_paths(first):
            if not is_discriminating(second, dp.nodes, dp.target):
                continue
            if dp.target_is_collider(first) != dp.target_is_collider(second):
                return False, EquivalenceClause.DISCRIMINATING_PATH
    return True, None


def _valid_single_mark_flips(h):
    for i, e in enumerate(h.edges):
        for ma, mb in ((_FLIP[e.mark_a], e.mark_b), (e.mark_a, _FLIP[e.mark_b])):
            flipped = MixedGraph(h.nodes, h.edges[:i] + (MixedEdge(e.a, ma, e.b, mb),) + h.edges[i + 1 :])
            if validate(flipped).valid:
                yield flipped


def _witness_pairs():
    yield DISC_ONE_SIDED
    yield DISC_ONE_SIDED[::-1]
    yield DISC_SEVERAL
    yield DISC_SEVERAL[::-1]
    for seed in range(120):
        c1, c2 = seeded_mixed_pair(seed, max_n=5)
        yield represent(c1), represent(c2)
    for seed in range(300):
        h = seeded_marked_mixed(seed, max_n=8)
        for flipped in _valid_single_mark_flips(h):
            yield h, flipped
            yield flipped, h


def test_condition_witnesses_reverify_in_both_graphs():
    seen = set()
    for h1, h2 in _witness_pairs():
        report = condition1(h1, h2)
        assert (report.equivalent, report.failed_clause) == _enumerated_condition1(h1, h2)
        if report.equivalent:
            continue
        seen.add(report.failed_clause)
        if report.failed_clause is EquivalenceClause.ADJACENCY:
            a, b = report.witness
            assert h1.adjacent(a, b) != h2.adjacent(a, b)
        elif report.failed_clause is EquivalenceClause.UNSHIELDED_COLLIDER:
            triple = report.witness
            assert (triple in unshielded_colliders(h1)) != (triple in unshielded_colliders(h2))
        else:
            dp, target = report.witness
            assert is_discriminating(h1, dp.nodes, target)
            assert is_discriminating(h2, dp.nodes, target)
            assert dp.target_is_collider(h1) != dp.target_is_collider(h2)
            # The least differing path by c, then b, then length, then its
            # nodes read from b back to a.
            differing = [
                p
                for first, second in ((h1, h2), (h2, h1))
                for p in discriminating_paths(first)
                if is_discriminating(second, p.nodes, p.target)
                and p.target_is_collider(first) != p.target_is_collider(second)
            ]
            assert dp == min(differing, key=lambda p: (p.c, p.target, len(p.nodes), p.nodes[-2::-1]))
    assert {EquivalenceClause.ADJACENCY, EquivalenceClause.DISCRIMINATING_PATH} <= seen


def _chain_pair(k):
    """``a -> v0``, ``v_i <-> v_i+1``, ``v_last <-> b``, ``v_i -> c``, closed by ``b <-> c`` or ``b -> c``."""
    vs = [f"v{i:02d}" for i in range(k)]
    common = ["a -> v00", *(f"{u} <-> {w}" for u, w in zip(vs, vs[1:])), f"{vs[-1]} <-> b"]
    common += [f"{v} -> c" for v in vs]
    return MixedGraph.of(*common, "b <-> c"), MixedGraph.of(*common, "b -> c")


@pytest.mark.parametrize("k", range(11, 15))
def test_long_discriminating_chain_is_told_apart(k, tmp_path, capsys):
    collider, non_collider = _chain_pair(k)
    assert validate(collider).valid and validate(non_collider).valid
    report = condition1(collider, non_collider)
    assert not report.equivalent
    assert report.failed_clause is EquivalenceClause.DISCRIMINATING_PATH
    dp, target = report.witness
    assert target == "b" and len(dp.nodes) == k + 3
    assert is_discriminating(collider, dp.nodes, target)
    assert is_discriminating(non_collider, dp.nodes, target)
    assert dp.target_is_collider(collider) and not dp.target_is_collider(non_collider)
    files = [tmp_path / "collider.mixed", tmp_path / "non_collider.mixed"]
    for path, h in zip(files, (collider, non_collider)):
        path.write_text(serialize_graph(h), encoding="utf-8")
    assert cli(["equiv", *map(str, files)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "equivalent: false"


def test_condition1_never_enumerates_paths(monkeypatch):
    from cyclomag import equivalence, relations

    def refuse(*args, **kwargs):
        raise AssertionError("condition1 enumerated paths")

    monkeypatch.setattr(equivalence, "discriminating_paths", refuse)
    monkeypatch.setattr(equivalence, "is_discriminating", refuse)
    monkeypatch.setattr(relations, "enumerate_simple_paths", refuse)
    report = condition1(*_chain_pair(14))
    assert report.failed_clause is EquivalenceClause.DISCRIMINATING_PATH
    cfg = GeneratorConfig(n_nodes=50, p_directed=1.5 / 50, p_bidirected=0.6 / 50, n_selection=2, seed=1)
    h = represent(random_dmg(cfg))
    assert len(h.nodes) >= 40
    assert condition1(h, h).equivalent


def test_condition1_skips_collider_scan_on_equal_marks(monkeypatch):
    from cyclomag import equivalence

    cfg = GeneratorConfig(n_nodes=50, p_directed=1.5 / 50, p_bidirected=0.6 / 50, n_selection=2, seed=1)
    h = represent(random_dmg(cfg))
    assert validate(h).valid and unshielded_colliders(h)

    def refuse(*args, **kwargs):
        raise AssertionError("condition1 scanned colliders of graphs with equal marks")

    monkeypatch.setattr(equivalence, "unshielded_colliders", refuse)
    assert condition1(h, h).equivalent
    assert condition1(h, MixedGraph(h.nodes, h.edges)).equivalent


def test_discriminating_paths_pin_their_separating_sets():
    # Any set separating the outer pair contains every chain node, and
    # contains the discriminated node exactly when it is a non-collider.
    checked = 0
    for h in (DISC_TAIL, DISC_COLLIDER, *(seeded_valid_mixed(s, max_n=5) for s in range(60))):
        for dp in discriminating_paths(h):
            a, c = dp.a, dp.c
            rest = [v for v in h.nodes if v not in (a, c)]
            for z in all_subsets(rest):
                if not m_separated(h, SeparationQuery((a,), (c,), z)).separated:
                    continue
                checked += 1
                assert set(dp.nodes[1:-2]) <= set(z)
                assert (dp.target in z) == (not dp.target_is_collider(h))
    assert checked > 0
