import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomag import (
    ContextedDmg,
    DirectedMixedGraph,
    GeneratorConfig,
    InputError,
    MixedGraph,
    ParseError,
    export_dot,
    parse_graph,
    parse_walk,
    random_dmg,
    serialize_graph,
)
import cyclomag
from cyclomag import cli as cli_module
from cyclomag.cli import cli, main
from fixtures import (
    INDUCING_CHAIN,
    SELECTION_DG,
    SELECTION_DMG,
    SELECTION_ABSTRACTION,
    seeded_contexted,
)


# --- parsing and serialisation ------------------------------------------


def test_selection_dmg_serialises_to_golden_lines():
    assert serialize_graph(SELECTION_DMG).splitlines() == [
        "selection s",
        "a -> b",
        "b -> a",
        "b -> s",
        "c -> s",
        "b <-> d",
    ]


def test_empty_text_parses_to_empty_graph():
    h = parse_graph("", "mixed")
    assert h == MixedGraph((), ())
    assert serialize_graph(h) == serialize_graph(DirectedMixedGraph((), (), ())) == ""
    # A dmg document needs an observed node, so an empty one is refused.
    with pytest.raises(InputError, match="at least one node must be observed"):
        parse_graph("", "dmg")


def test_comments_and_blank_lines_ignored():
    c = parse_graph("\n# full line\na -> b  # trailing\n\n", "dmg")
    assert c == ContextedDmg.of("a -> b")


def test_reversed_arrow_normalises():
    assert parse_graph("b <- a", "dmg") == parse_graph("a -> b", "dmg")


def test_isolated_nodes_survive_roundtrip():
    c = parse_graph("node x\na -> b", "dmg")
    assert parse_graph(serialize_graph(c), "dmg") == c


def test_self_loop_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_graph("a -> b\na -- a", "mixed")
    assert err.value.line == 2


def test_duplicate_edge_rejected():
    with pytest.raises(ParseError) as err:
        parse_graph("a -> b\nb <- a", "dmg")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_graph("node c\na <-> b\nc -> a\n\nb <-> a", "dmg")
    assert err.value.line == 5


def test_dmg_allows_distinct_parallel_edges():
    c = parse_graph("a -> b\nb -> a\na <-> b", "dmg")
    assert c.graph.directed == (("a", "b"), ("b", "a")) and c.graph.bidirected == (("a", "b"),)


def test_mixed_document_rejects_second_edge_on_pair():
    with pytest.raises(ParseError) as err:
        parse_graph("a -> b\na <-> b", "mixed")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_graph("a -> b\nc -- a\n# comment\nb <- a", "mixed")
    assert err.value.line == 4


def test_mixed_document_rejects_selection():
    with pytest.raises(ParseError):
        parse_graph("selection s", "mixed")


def test_dmg_document_rejects_undirected():
    with pytest.raises(ParseError):
        parse_graph("a -- b", "dmg")


@st.composite
def _graph_specs(draw):
    """Edge specs for ``.of`` over a few nodes, some named like keywords,
    in every arrow the kind allows, and now and then one fault: a bad
    name, a self-loop or an undeclared selection node."""
    kind = draw(st.sampled_from(("dmg", "mixed")))
    names = draw(st.lists(st.sampled_from(("a", "b", "c", "node", "selection")), min_size=2, max_size=5, unique=True))
    pairs = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
    arrows = st.sampled_from(("->", "<-", "<->") if kind == "dmg" else ("->", "<-", "<->", "--"))
    # One edge per pair in a mixed graph; the constructor's own check is tested elsewhere.
    once = frozenset if kind == "mixed" else None
    specs = [f"{a} {draw(arrows)} {b}" for a, b in draw(st.lists(pairs, max_size=6, unique_by=once))]
    selection = draw(st.lists(st.sampled_from(names), max_size=2)) if kind == "dmg" else []
    isolated = draw(st.lists(st.sampled_from(names), max_size=2)) + selection
    fault = draw(st.sampled_from((None,) * 5 + ("1x", "self-loop") + (("selection",) if kind == "dmg" else ())))
    if fault == "1x":
        isolated.append("1x")
    elif fault == "selection":
        selection.append("zz")
    elif fault == "self-loop":
        specs.append(f"{names[0]} -> {names[0]}")
    return kind, specs, isolated, selection


def _build(kind, specs, isolated, selection):
    if kind == "mixed":
        return MixedGraph.of(*specs, nodes=isolated)
    # Not ContextedDmg.of, which would declare an undeclared selection node.
    return ContextedDmg(DirectedMixedGraph.of(*specs, nodes=isolated), selection)


@given(_graph_specs())
@settings(max_examples=300)
def test_every_graph_value_round_trips(args):
    try:
        graph = _build(*args)
    except InputError:
        return
    assert parse_graph(serialize_graph(graph), args[0]) == graph


# "a <arrow> b" read by every reader and written by every writer: the arrow
# seen from b, the document record, and the DOT line.  "=>" is no arrow.
ARROW_CASES = [
    ("->", "<-", ("->", "a", "b"), '  "a" -> "b";'),
    ("<-", "->", ("->", "b", "a"), '  "b" -> "a";'),
    ("<->", "<->", ("<->", "a", "b"), '  "a" -> "b" [dir=both];'),
    ("--", "--", ("--", "a", "b"), '  "a" -> "b" [dir=none];'),
    ("=>", None, None, None),
]


@pytest.mark.parametrize("arrow, reverse, record, dot_line", ARROW_CASES)
def test_each_arrow_through_every_reader_and_writer(arrow, reverse, record, dot_line):
    spec = f"a {arrow} b"
    if record is None:
        for build in (MixedGraph.of, DirectedMixedGraph.of):
            with pytest.raises(InputError, match=re.escape(f"bad edge spec: {spec!r}")):
                build(spec)
        for kind in ("dmg", "mixed"):
            with pytest.raises(ParseError, match="unrecognised declaration"):
                parse_graph(spec, kind)
        return
    h = MixedGraph.of(spec)
    (e,) = h.edges
    assert str(e) == spec
    assert (e.render_from("a"), e.render_from("b")) == (arrow, reverse)
    assert parse_walk(h, spec).edges == parse_walk(h, f"b {reverse} a").edges == (e,)
    assert parse_graph(spec, "mixed") == h
    assert serialize_graph(h) == "{1} {0} {2}\n".format(*record)
    assert dot_line in export_dot(h).splitlines()
    if arrow == "--":
        with pytest.raises(InputError, match=re.escape("undirected edge not allowed here: 'a -- b'")):
            DirectedMixedGraph.of(spec)
        with pytest.raises(ParseError, match="undirected edges are not allowed in a dmg document"):
            parse_graph(spec, "dmg")
        return
    g = DirectedMixedGraph.of(spec)
    assert parse_graph(spec, "dmg") == ContextedDmg(g, ())
    assert serialize_graph(g) == serialize_graph(ContextedDmg(g, ())) == "{1} {0} {2}\n".format(*record)
    assert dot_line in export_dot(g).splitlines()
    assert g.incident_edges("a") == (e,) and parse_walk(g, f"b {reverse} a").edges == (e,)


def test_unknown_declaration_rejected():
    with pytest.raises(ParseError):
        parse_graph("edge a b", "dmg")
    with pytest.raises(ParseError):
        parse_graph("a => b", "mixed")
    with pytest.raises(InputError, match="^unknown document kind: 'bogus'$"):
        parse_graph("a -> b", "bogus")


def test_writer_rejects_a_value_that_is_no_graph():
    with pytest.raises(InputError, match="^cannot export object$"):
        serialize_graph(object())


def test_bad_identifier_rejected():
    with pytest.raises(ParseError):
        parse_graph("node 1abc", "dmg")


@pytest.mark.parametrize(
    "text, kind, line, column",
    [
        ("x1 -> 1", "mixed", 1, 7),  # the bad name also occurs inside x1
        ("a -> b\n  a2b  ->  2b", "dmg", 2, 12),
        ("node -> node", "mixed", 1, 1),
        ("a -> b\nb <- a", "dmg", 2, 3),
        ("ab -> b\n b -- ab", "mixed", 2, 4),
        ("selection s", "mixed", 1, 1),
        ("  x -> y z", "dmg", 1, 1),
    ],
)
def test_parse_error_column_is_the_token_position(text, kind, line, column):
    with pytest.raises(ParseError) as err:
        parse_graph(text, kind)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, kind, message",
    [
        # The other endpoint was seen before, so only the bad name is matched.
        ("a -> b\na -> 1x", "dmg", "line 2, column 6: invalid identifier '1x'"),
        ("a -> b\n 1x <- b", "mixed", "line 2, column 2: invalid identifier '1x'"),
        ("a -> b\nb <-> x-y", "dmg", "line 2, column 7: invalid identifier 'x-y'"),
        ("a -> b\n1a -> 2b", "dmg", "line 2, column 1: invalid identifier '1a'"),
        # A bad name on a node line after valid edges.
        ("a -> b\nnode 2c", "mixed", "line 2, column 6: invalid identifier '2c'"),
        ("a -> b\nselection 9", "dmg", "line 2, column 11: invalid identifier '9'"),
    ],
)
def test_names_already_seen_skip_the_name_check_but_errors_do_not_move(text, kind, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text, kind)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, kind, message, line, column",
    [
        # The name check comes before the self-loop check.
        ("1a -> 1a", "mixed", "invalid identifier '1a'", 1, 1),
        # The self-loop check comes before the dmg undirected-edge check.
        ("a -- a", "dmg", "self-loop on 'a'", 1, 1),
        ("b <- b", "mixed", "self-loop on 'b'", 1, 1),
        # An exact repeat is a duplicate before it is a second edge on the pair.
        ("a -> b\nb <- a", "mixed", "duplicate edge b <- a", 2, 3),
        ("a -> b\nb <- a", "dmg", "duplicate edge b <- a", 2, 3),
        ("a -> b\na <-> b", "mixed", "more than one edge between 'a' and 'b'", 2, 3),
        # The document-kind check comes before the name check.
        ("selection 1x", "mixed", "selection nodes are not allowed in a mixed document", 1, 1),
        # The token count comes before everything else on a node line.
        ("node a b", "dmg", "expected: node <id>", 1, 1),
        ("1x -> b  # note", "mixed", "invalid identifier '1x'", 1, 1),
        ("node 1x # note", "dmg", "invalid identifier '1x'", 1, 6),
    ],
)
def test_the_first_check_on_a_line_decides_its_error(text, kind, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_graph(text, kind)
    assert (str(err.value), err.value.line, err.value.column) == (f"line {line}, column {column}: {message}", line, column)


@pytest.mark.parametrize("brk", ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_a_line(brk):
    # Other Unicode line breaks are whitespace inside one line, as editors and grep -n count them.
    with pytest.raises(ParseError) as err:
        parse_graph(f"a -> b\n\nc -> d{brk}1x -> c", "mixed")
    assert (err.value.line, err.value.column) == (3, 1)
    assert "unrecognised declaration" in str(err.value)


def test_carriage_return_line_ends_keep_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("a -> b\r\n# c\r\n1x -> c\r\n", "mixed")
    assert str(err.value) == "line 3, column 1: invalid identifier '1x'"
    assert parse_graph("a -> b\r\nnode c\r\n", "dmg") == parse_graph("a -> b\nnode c\n", "dmg")


def test_writing_a_parsed_graph_builds_no_index():
    for text, kind in (("a -> b\nb <-> c\nselection s\nc -> s", "dmg"), ("a -> b\nb -- c\nc <-> d", "mixed")):
        for write in (serialize_graph, export_dot):
            parsed = parse_graph(text, kind)
            graph = parsed.graph if kind == "dmg" else parsed
            write(parsed)
            assert "index" not in vars(graph)


def test_roundtrip_on_seeded_graphs():
    for seed in range(150):
        c = seeded_contexted(seed, max_n=7)
        assert parse_graph(serialize_graph(c), "dmg") == c
    assert parse_graph(serialize_graph(SELECTION_ABSTRACTION), "mixed") == SELECTION_ABSTRACTION
    # Nodes named like the declaration keywords.
    h = MixedGraph.of("node -> b", "selection -- node", "node <-> c")
    assert parse_graph(serialize_graph(h), "mixed") == h
    c = ContextedDmg.of("selection -> b", "node <-> selection", selection=("s",))
    assert parse_graph(serialize_graph(c), "dmg") == c


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80)
def test_roundtrip_property(seed):
    c = seeded_contexted(seed, max_n=6)
    assert parse_graph(serialize_graph(c), "dmg") == c


# --- dot export -----------------------------------------------------------


def test_dot_single_edge():
    out = export_dot(MixedGraph.of("a -> b"))
    assert out.count(" -> ") - out.count("dir=") == 1
    assert '"a" -> "b";' in out


def test_dot_bidirected_counts():
    out = export_dot(INDUCING_CHAIN)
    edge_lines = [line for line in out.splitlines() if "->" in line]
    assert len(edge_lines) == 5
    assert sum("dir=both" in line for line in edge_lines) == 3


def test_dot_empty_graph_is_header_and_footer():
    from cyclomag import DirectedMixedGraph

    assert export_dot(DirectedMixedGraph((), (), ())) == "digraph G {\n}\n"


def test_dot_marks_selection_nodes():
    out = export_dot(SELECTION_DMG)
    assert '"s" [shape=box];' in out


# --- generator -------------------------------------------------------------


def test_zero_probability_gives_edgeless_graph():
    c = random_dmg(GeneratorConfig(4, 0.0, 0.0, 1, 3))
    assert c.graph.directed == () and c.graph.bidirected == ()
    assert c.selection == ("v4",)


def test_same_seed_same_graph():
    cfg = GeneratorConfig(6, 0.4, 0.2, 2, 123456789)
    assert random_dmg(cfg) == random_dmg(cfg)


def test_generator_snapshot():
    c = random_dmg(GeneratorConfig(5, 0.3, 0.15, 1, 42))
    assert c.selection == ("v5",)
    assert c.graph.directed == (
        ("v1", "v3"),
        ("v1", "v4"),
        ("v1", "v5"),
        ("v2", "v5"),
        ("v3", "v2"),
        ("v3", "v4"),
        ("v4", "v1"),
        ("v4", "v2"),
    )
    assert c.graph.bidirected == (("v2", "v5"), ("v3", "v4"))


@pytest.mark.parametrize(
    "field, value",
    [("n_nodes", 3.0), ("n_selection", 1.0), ("seed", 1.5), ("p_directed", "0.3"), ("n_nodes", True)],
)
def test_generator_config_rejects_a_value_of_the_wrong_type(field, value):
    args = {"n_nodes": 3, "p_directed": 0.3, "p_bidirected": 0.1, "n_selection": 0, "seed": 0, field: value}
    with pytest.raises(InputError, match=f"^{field} must be "):
        GeneratorConfig(**args)


def test_selection_nodes_childless_by_default():
    for seed in range(25):
        c = random_dmg(GeneratorConfig(6, 0.5, 0.2, 2, seed))
        for t, _ in c.graph.directed:
            assert t not in c.selection


def test_selection_children_override():
    cfg = GeneratorConfig(6, 0.5, 0.2, 2, 11)
    loose = random_dmg(cfg, allow_selection_children=True)
    assert any(t in loose.selection for t, _ in loose.graph.directed)


def test_config_validation():
    with pytest.raises(InputError):
        GeneratorConfig(0, 0.1, 0.1)
    with pytest.raises(InputError):
        GeneratorConfig(3, 1.5, 0.1)
    with pytest.raises(InputError):
        GeneratorConfig(3, 0.1, 0.1, 3)
    with pytest.raises(InputError):
        GeneratorConfig(3, 0.1, 0.1, 0, -1)


# --- command line -----------------------------------------------------------


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_pipeline_matches_library(files, capsys):
    dg = files("dg.dmg", serialize_graph(SELECTION_DG))
    code, out, _ = run(capsys, "marginalize", dg, "--drop", "u")
    assert code == 0
    assert out == serialize_graph(SELECTION_DMG)
    dmg = files("marg.dmg", out)
    code, out, _ = run(capsys, "abstract", dmg)
    assert code == 0
    assert out == serialize_graph(SELECTION_ABSTRACTION)
    code, out, err = run(capsys, "marginalize", dg, "--drop", "s")
    assert (code, out, err) == (1, "", "error: cannot marginalize out selection node 's'\n")


def test_cli_validate_reports_witness(files, capsys):
    path = files("bad.mixed", serialize_graph(INDUCING_CHAIN))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert out.splitlines() == [
        "valid: false",
        "violation: MaximalityViolation",
        "witness: a <-> b <-> c <-> d",
    ]


def test_cli_validate_accepts(files, capsys):
    path = files("ok.mixed", serialize_graph(SELECTION_ABSTRACTION))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and out == "valid: true\n"


def test_cli_msep_and_ssep(files, capsys):
    mixed = files("h.mixed", serialize_graph(SELECTION_ABSTRACTION))
    code, out, _ = run(capsys, "msep", mixed, "--x", "c", "--y", "d", "--z", "b")
    assert code == 0 and out == "separated: true\n"
    dmg = files("g.dmg", serialize_graph(SELECTION_DMG))
    code, out, _ = run(capsys, "ssep", dmg, "--x", "c", "--y", "d", "--z", "b")
    assert code == 0 and out == "separated: true\n"
    code, out, _ = run(capsys, "ssep", dmg, "--x", "c", "--y", "d")
    assert code == 0
    assert out == "separated: false\nwitness: c -> s <- b <-> d\n"


def test_cli_canonical_and_precondition_exit(files, capsys):
    good = files("h.mixed", serialize_graph(SELECTION_ABSTRACTION))
    code, out, _ = run(capsys, "canonical", good)
    assert code == 0 and "selection s_a_b" in out
    bad = files("bad.mixed", serialize_graph(INDUCING_CHAIN))
    code, _, err = run(capsys, "canonical", bad)
    assert code == 2 and "valid" in err


def test_cli_equiv(files, capsys):
    t1 = files("t1.mixed", "a <-> q\nq -> c\nq <-> b\nb -> c\n")
    t2 = files("t2.mixed", "a <-> q\nq -> c\nq <-> b\nb <-> c\n")
    code, out, _ = run(capsys, "equiv", t1, t1)
    assert code == 0 and out == "equivalent: true\n"
    code, out, _ = run(capsys, "equiv", t1, t2)
    assert code == 0
    assert out.splitlines()[0] == "equivalent: false"
    assert "clause: DiscriminatingPath" in out
    code, out, _ = run(capsys, "equiv", t1, t2, "--oracle")
    assert code == 0 and out.splitlines()[0] == "equivalent: false"
    dmg = files("g.dmg", serialize_graph(SELECTION_DMG))
    code, out, err = run(capsys, "equiv", t1, dmg)
    assert (code, out, err) == (1, "", "error: cannot compare a mixed document with a dmg document\n")
    bad = files("bad.mixed", serialize_graph(INDUCING_CHAIN))
    code, out, err = run(capsys, "equiv", t1, bad)
    assert (code, out, err) == (2, "", f"error: {bad} is not a valid input graph\n")


def test_cli_prints_a_witness_of_node_names_as_a_tuple(files, capsys):
    fan = files("fan.mixed", "a -> b\nb -- c\n")
    chain = files("chain.mixed", "a -> b\nb -> c\n")
    collider = files("collider.mixed", "a -> b\nc -> b\n")
    shielded = files("shielded.mixed", "a -> b\nb -> c\na -> c\n")
    assert run(capsys, "validate", fan) == (
        0, "valid: false\nviolation: SigmaCompletenessViolation\nwitness: (a, b, c)\n", ""
    )
    assert run(capsys, "equiv", chain, collider) == (
        0, "equivalent: false\nclause: UnshieldedCollider\nwitness: (a, b, c)\n", ""
    )
    assert run(capsys, "equiv", chain, shielded) == (0, "equivalent: false\nclause: Adjacency\nwitness: (a, c)\n", "")


def test_cli_equiv_dmg_documents(files, capsys):
    d1 = files("g1.dmg", serialize_graph(SELECTION_DMG))
    code, out, _ = run(capsys, "equiv", d1, d1)
    assert code == 0 and out == "equivalent: true\n"
    code, out, _ = run(capsys, "equiv", d1, d1, "--oracle")
    assert code == 0 and out == "equivalent: true\n"


def test_cli_paths(files, capsys):
    dmg = files("g.dmg", serialize_graph(SELECTION_DMG))
    code, out, _ = run(capsys, "paths", dmg, "--kind", "sigma-inducing", "--a", "a", "--b", "d")
    assert code == 0
    assert "a -> b <-> d  (out of a, into d)" in out
    mixed = files("bad.mixed", serialize_graph(INDUCING_CHAIN))
    code, out, _ = run(capsys, "paths", mixed, "--kind", "inducing", "--a", "a", "--b", "d")
    assert code == 0 and "a <-> b <-> c <-> d" in out
    t1 = files("t1.mixed", "a <-> q\nq -> c\nq <-> b\nb -> c\n")
    code, out, _ = run(capsys, "paths", t1, "--kind", "discriminating")
    assert code == 0 and "(for b)" in out
    code, _, err = run(capsys, "paths", t1, "--kind", "inducing")
    assert code == 1 and "--a and --b" in err


def test_cli_random_roundtrips(capsys):
    code, out, _ = run(
        capsys, "random", "--nodes", "5", "--p-dir", "0.3", "--p-bi", "0.15",
        "--selection", "1", "--seed", "42",
    )
    assert code == 0
    assert parse_graph(out, "dmg") == random_dmg(GeneratorConfig(5, 0.3, 0.15, 1, 42))


def test_cli_export_dot(files, capsys):
    dmg = files("g.dmg", serialize_graph(SELECTION_DMG))
    code, out, _ = run(capsys, "export-dot", dmg)
    assert code == 0 and out == export_dot(SELECTION_DMG)


def test_cli_parse_error_exit_code(files, capsys):
    bad = files("broken.mixed", "a -> b\nc -?- d\n")
    code, _, err = run(capsys, "validate", bad)
    assert code == 1 and "line 2" in err


def test_cli_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.mixed")
    assert code == 1 and "cannot read" in err


def test_cli_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.mixed"
    path.write_bytes(b"a -> b\n\xff\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and out == "" and err.startswith("error: cannot read")


def test_cli_reads_a_byte_order_mark_like_no_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"a -> b\nb <-> c\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for command in ("validate", "abstract", "export-dot"):
        expected = run(capsys, command, str(plain))
        assert expected[0] == 0 and run(capsys, command, str(marked)) == expected


def test_cli_cap_message_names_only_the_environment_variable(files, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOMAG_ORACLE_CAP", raising=False)
    # Past the caps: 12 nodes for the path listings, 8 for the equivalence grid.
    long = files("chain13.mixed", "".join(f"v{i} -> v{i + 1}\n" for i in range(1, 13)))
    short = files("chain9.mixed", "".join(f"v{i} -> v{i + 1}\n" for i in range(1, 9)))
    calls = [
        ("paths", long, "--kind", "discriminating"),
        ("paths", long, "--kind", "inducing", "--a", "v1", "--b", "v13"),
        ("equiv", short, short, "--oracle"),
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "set CYCLOMAG_ORACLE_CAP to override" in err and "cap=" not in err
    monkeypatch.setenv("CYCLOMAG_ORACLE_CAP", "13")
    assert [run(capsys, *argv)[0] for argv in calls] == [0, 0, 0]


def test_cli_error_names_the_same_node_under_every_hash_seed(files):
    path = files("ab.mixed", "a -> b\n")
    src = str(Path(cyclomag.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "cyclomag.cli", "msep", path, "--x", "a", "--y", "c,d,e,f"]
    stderr = []
    for seed in ("1", "4"):  # seeds under which set order does not put 'c' first
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        stderr.append(done.stderr)
    assert stderr == ["error: unknown node: 'c'\n"] * 2


def test_cli_usage_error(capsys):
    code, _, err = run(capsys, "msep")
    assert code == 1 and "error" in err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


# --- the parser is built once ---------------------------------------------


def test_cli_builds_its_parser_once(files, capsys, monkeypatch):
    path = files("ok.mixed", "a -> b\n")
    run(capsys, "validate", path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "validate", path) == (0, "valid: true\n", "")
    assert run(capsys, "msep", path, "--x", "a", "--y", "b")[0] == 0
    assert run(capsys, "msep")[0] == 1
    assert built == []


def test_cli_runs_the_command_function_it_finds_at_call_time(files, capsys, monkeypatch):
    path = files("ok.mixed", "a -> b\n")
    run(capsys, "validate", path)
    seen = []
    monkeypatch.setattr(cli_module, "_cmd_validate", lambda args: seen.append(args.file) or 7)
    assert cli(["validate", path]) == 7
    assert seen == [path]


def test_reused_parser_keeps_no_state_between_calls(files, capsys):
    path = files("chain.mixed", "a -> c\nc -> b\n")
    calls = [
        ("msep", path, "--x", "a"),
        ("msep", path, "--x", "a", "--y", "b", "--z", "c"),
        ("msep", path, "--x", "a", "--y", "b"),
        ("validate",),
        ("equiv", path, path, "--oracle"),
        ("equiv", path, path),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli_module._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [r[:2] for r in reused] == [r[:2] for r in fresh]
    assert [r[0] for r in reused] == [1, 0, 0, 1, 0, 0]
    assert reused[1][1] == "separated: true\n" and reused[2][1].startswith("separated: false\n")
