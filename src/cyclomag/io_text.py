"""Line-oriented graph documents and DOT export.

Grammar (one declaration per line, ``#`` comments and blank lines
ignored)::

    node <id>
    selection <id>        # implies node; dmg documents only
    <id> -> <id>
    <id> <- <id>
    <id> <-> <id>
    <id> -- <id>          # mixed documents only

A line of three tokens with an arrow in the middle is an edge, so
``node`` and ``selection`` can also name nodes.  A dmg document permits
up to one edge of each type per node pair; a mixed document permits a
single edge per pair and no selection lines.

A dmg document parses to a :class:`ContextedDmg` and a mixed one to a
:class:`MixedGraph`; :func:`serialize_graph` writes any graph value as a
document.  Serialisation is normalised (sorted, minimal node lines), so
parsing a serialised graph gives back an equal graph value.
"""

from __future__ import annotations

from .errors import InputError, ParseError
from .graphs import (
    ARROWHEAD,
    ContextedDmg,
    DirectedMixedGraph,
    MixedEdge,
    MixedGraph,
    NodeId,
    _ARROW_MARKS,
    _ARROWS,
    _NAME_RE,
)

# Edge records are (kind, a, b) with kind one of "->", "<->", "--";
# "<->"/"--" records keep a < b, "->" records are tail first.
EdgeRecord = tuple[str, NodeId, NodeId]

# Serialisation order of the edge kinds: directed, bidirected, undirected.
_RANK = {"->": 0, "<->": 1, "--": 2}


def _record(e: MixedEdge) -> EdgeRecord:
    arrow = _ARROWS[2 * (e.mark_a is ARROWHEAD) + (e.mark_b is ARROWHEAD)]
    return ("->", e.b, e.a) if arrow == "<-" else (arrow, e.a, e.b)


def _records(graph) -> tuple[tuple[NodeId, ...], tuple[NodeId, ...], list[EdgeRecord]]:
    """The nodes, selection nodes and edge records of any of the three
    graph value types, a dmg's records in document order."""
    selection: tuple[NodeId, ...] = ()
    if isinstance(graph, ContextedDmg):
        selection = graph.selection
        graph = graph.graph
    if isinstance(graph, DirectedMixedGraph):
        records = [("->", t, h) for t, h in graph.directed] + [("<->", a, b) for a, b in graph.bidirected]
    elif isinstance(graph, MixedGraph):
        records = list(map(_record, graph.edges))
    else:
        raise InputError(f"cannot export {type(graph).__name__}")
    return graph.nodes, selection, records


def parse_graph(text: str, kind: str) -> MixedGraph | ContextedDmg:
    """Parse a document of the given kind: a :class:`MixedGraph` for
    ``"mixed"``, a :class:`ContextedDmg` for ``"dmg"``.

    Syntax errors raise :class:`ParseError` with line and column; a dmg
    document whose nodes are all selection nodes raises
    :class:`InputError`.
    """
    if kind not in ("dmg", "mixed"):
        raise InputError(f"unknown document kind: {kind!r}")
    dmg = kind == "dmg"
    nodes: set[NodeId] = set()
    selection: set[NodeId] = set()
    # Records by themselves in a dmg document, by node pair in a mixed one.
    edges: dict[tuple, EdgeRecord] = {}
    match = _NAME_RE.match  # only on names not yet in nodes: those passed it

    # Lines end at "\n" alone; a "\r" before it is whitespace to split().
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) == 3 and tokens[1] in _ARROW_MARKS:
            a, op, b = tokens
            if a not in nodes:
                if not match(a):
                    raise _error(f"invalid identifier {a!r}", lineno, raw, tokens, 0)
                nodes.add(a)
            if b not in nodes:
                if not match(b):
                    raise _error(f"invalid identifier {b!r}", lineno, raw, tokens, 2)
                nodes.add(b)
            if a == b:
                raise _error(f"self-loop on {a!r}", lineno, raw, tokens, 0)
            if dmg and op == "--":
                raise _error("undirected edges are not allowed in a dmg document", lineno, raw, tokens, 1)
            rec = ("->", b, a) if op == "<-" else (op, a, b) if op == "->" or a < b else (op, b, a)
            key = rec if dmg else ((a, b) if a < b else (b, a))
            if key in edges:
                if edges[key] == rec:
                    raise _error(f"duplicate edge {' '.join(tokens)}", lineno, raw, tokens, 1)
                raise _error(f"more than one edge between {key[0]!r} and {key[1]!r}", lineno, raw, tokens, 1)
            edges[key] = rec
        elif tokens[0] in ("node", "selection"):
            if len(tokens) != 2:
                raise _error(f"expected: {tokens[0]} <id>", lineno, raw)
            if tokens[0] == "selection" and not dmg:
                raise _error("selection nodes are not allowed in a mixed document", lineno, raw, tokens, 0)
            v = tokens[1]
            if v not in nodes:
                if not match(v):
                    raise _error(f"invalid identifier {v!r}", lineno, raw, tokens, 1)
                nodes.add(v)
            if tokens[0] == "selection":
                selection.add(v)
        else:
            raise _error(f"unrecognised declaration: {line.strip()!r}", lineno, raw)

    if not dmg:
        return MixedGraph(tuple(nodes), tuple([MixedEdge(a, _ARROW_MARKS[k][0], b, _ARROW_MARKS[k][1]) for k, a, b in edges.values()]))
    directed = tuple([(a, b) for k, a, b in edges if k == "->"])
    bidirected = tuple([(a, b) for k, a, b in edges if k == "<->"])
    return ContextedDmg(DirectedMixedGraph(tuple(nodes), directed, bidirected), tuple(selection))


def _error(msg: str, lineno: int, raw: str, tokens=(), i: int | None = None) -> ParseError:
    """ParseError at the start of ``tokens[i]`` in ``raw``, or at column 1."""
    column = 0
    if i is not None:
        for tok in tokens[:i]:
            column = raw.index(tok, column) + len(tok)
        column = raw.index(tokens[i], column)
    return ParseError(msg, lineno, column + 1)


def serialize_graph(graph) -> str:
    """Normalised document text of a graph value: isolated nodes, then
    selections, then edges, sorted."""
    nodes, selection, records = _records(graph)
    if isinstance(graph, MixedGraph):  # a dmg's records come in document order
        records.sort(key=lambda r: (_RANK[r[0]], r[1], r[2]))
    mentioned = set(selection)
    for _, a, b in records:
        mentioned.update((a, b))
    lines = [f"node {v}" for v in nodes if v not in mentioned]
    lines += [f"selection {v}" for v in selection]
    for kind, a, b in records:
        lines.append(f"{a} {kind} {b}")
    return "\n".join(lines) + ("\n" if lines else "")


_DOT_ATTRS = {"->": "", "<->": " [dir=both]", "--": " [dir=none]"}


def export_dot(graph) -> str:
    """Graphviz text for any of the three graph value types.

    Directed edges are plain arrows, bidirected ones carry dir=both,
    undirected ones dir=none; selection nodes get a box shape.
    """
    nodes, selection, records = _records(graph)
    boxed = set(selection)
    lines = ["digraph G {"]
    for v in nodes:
        attr = " [shape=box]" if v in boxed else ""
        lines.append(f'  "{v}"{attr};')
    lines.extend(sorted(f'  "{a}" -> "{b}"{_DOT_ATTRS[k]};' for k, a, b in records))
    lines.append("}")
    return "\n".join(lines) + "\n"
