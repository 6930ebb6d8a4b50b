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
    ARROW_HERE,
    ContextedDmg,
    DirectedMixedGraph,
    MixedEdge,
    MixedGraph,
    NodeId,
    _ARROW_MARKS,
    _ARROWS,
    _Graph,
    _NAME_RE,
)

# Serialisation order of the edge kinds: directed, bidirected, undirected.
_RANK = {"->": 0, "<->": 1, "--": 2}


def _graph_of(graph) -> tuple[_Graph, tuple[NodeId, ...]]:
    """The graph and the selection nodes of a graph value; anything else is refused."""
    graph, selection = (graph.graph, graph.selection) if isinstance(graph, ContextedDmg) else (graph, ())
    if not isinstance(graph, _Graph):
        raise InputError(f"cannot export {type(graph).__name__}")
    return graph, selection


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
    # Records (arrow, a, b), "->" tail first, else a < b: keyed by themselves in a dmg document, by node pair in a mixed one.
    edges: dict[tuple, tuple[str, NodeId, NodeId]] = {}
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
    selections, then a line per arc, an ``ARROW_HERE`` arc tail first, by
    rank and name; a dmg's arcs come in that order, a mixed graph's by node pair."""
    graph, selection = _graph_of(graph)
    edges = [(b, "->", a) if kind == ARROW_HERE else (a, _ARROWS[kind >> 1], b) for a, b, kind in graph._arcs()]
    if isinstance(graph, MixedGraph):
        edges.sort(key=lambda e: (_RANK[e[1]], e[0], e[2]))
    mentioned = set(selection).union(*edges)  # the arrows among them name no node
    lines = [f"node {v}" for v in graph.nodes if v not in mentioned]
    lines += [f"selection {v}" for v in selection]
    lines += map(" ".join, edges)
    return "\n".join(lines) + ("\n" if lines else "")


# The DOT attributes of each arrow, indexed like _ARROWS; "<-" arcs are written as "->".
_DOT_ATTRS = (" [dir=none]", "", "", " [dir=both]")


def export_dot(graph) -> str:
    """Graphviz text for any of the three graph value types, a line per arc.

    Directed edges are plain arrows, bidirected ones carry dir=both,
    undirected ones dir=none; selection nodes get a box shape.
    """
    graph, selection = _graph_of(graph)
    boxed = set(selection)
    lines = ["digraph G {"]
    for v in graph.nodes:
        attr = " [shape=box]" if v in boxed else ""
        lines.append(f'  "{v}"{attr};')
    arcs = graph._arcs()
    lines += sorted(f'  "{b}" -> "{a}";' if k == ARROW_HERE else f'  "{a}" -> "{b}"{_DOT_ATTRS[k >> 1]};' for a, b, k in arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"
