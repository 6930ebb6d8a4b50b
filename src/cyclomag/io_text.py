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
Serialisation is normalised (sorted, minimal node lines), so parsing a
serialised document reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ParseError
from .graphs import (
    ContextedDmg,
    DirectedMixedGraph,
    MixedEdge,
    MixedGraph,
    NodeId,
    _NAME_RE,
)

# Edge records are (kind, a, b) with kind one of "->", "<->", "--";
# "<->"/"--" records keep a < b, "->" records are tail first.
EdgeRecord = tuple[str, NodeId, NodeId]


@dataclass(frozen=True)
class GraphDocument:
    kind: str  # "dmg" | "mixed"
    nodes: tuple[NodeId, ...]
    selection: tuple[NodeId, ...]
    edges: tuple[EdgeRecord, ...]

    def __post_init__(self):
        if self.kind not in ("dmg", "mixed"):
            raise InputError(f"unknown document kind: {self.kind!r}")
        object.__setattr__(self, "nodes", tuple(sorted(set(self.nodes))))
        object.__setattr__(self, "selection", tuple(sorted(set(self.selection))))
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges), key=_edge_sort_key)))

    def to_contexted(self) -> ContextedDmg:
        if self.kind != "dmg":
            raise InputError("not a dmg document")
        directed = [(a, b) for k, a, b in self.edges if k == "->"]
        bidirected = [(a, b) for k, a, b in self.edges if k == "<->"]
        return ContextedDmg(
            DirectedMixedGraph(self.nodes, tuple(directed), tuple(bidirected)),
            self.selection,
        )

    def to_mixed(self) -> MixedGraph:
        if self.kind != "mixed":
            raise InputError("not a mixed document")
        edges = []
        for k, a, b in self.edges:
            if k == "->":
                edges.append(MixedEdge.directed(a, b))
            elif k == "<->":
                edges.append(MixedEdge.bidirected(a, b))
            else:
                edges.append(MixedEdge.undirected(a, b))
        return MixedGraph(self.nodes, tuple(edges))

    @classmethod
    def from_contexted(cls, c: ContextedDmg) -> "GraphDocument":
        edges = [("->", t, h) for t, h in c.graph.directed]
        edges += [("<->", a, b) for a, b in c.graph.bidirected]
        return cls("dmg", c.graph.nodes, c.selection, tuple(edges))

    @classmethod
    def from_mixed(cls, h: MixedGraph) -> "GraphDocument":
        edges = []
        for e in h.edges:
            if e.is_undirected:
                edges.append(("--", e.a, e.b))
            elif e.is_bidirected:
                edges.append(("<->", e.a, e.b))
            else:
                edges.append(("->", e.directed_tail, e.directed_head))
        return cls("mixed", h.nodes, (), tuple(edges))


def _edge_sort_key(rec: EdgeRecord):
    kind, a, b = rec
    # dmg serialisation groups directed edges before bidirected ones;
    # mixed documents sort by endpoint pair with a stable kind order.
    return ({"->": 0, "<->": 1, "--": 2}[kind], a, b)


_EDGE_OPS = ("->", "<-", "<->", "--")


def parse_graph(text: str, kind: str) -> GraphDocument:
    """Parse a document of the given kind ("dmg" or "mixed").

    Syntax errors raise :class:`ParseError` with line and column.
    """
    if kind not in ("dmg", "mixed"):
        raise InputError(f"unknown document kind: {kind!r}")
    nodes: set[NodeId] = set()
    selection: set[NodeId] = set()
    edges: set[EdgeRecord] = set()
    pairs: set[tuple[NodeId, NodeId]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()

        def err(msg: str, token: str = "") -> ParseError:
            column = raw.index(token) + 1 if token and token in raw else 1
            return ParseError(msg, lineno, column)

        def name(tok: str) -> str:
            if not _NAME_RE.match(tok):
                raise err(f"invalid identifier {tok!r}", tok)
            return tok

        if len(tokens) == 3 and tokens[1] in _EDGE_OPS:
            a, op, b = name(tokens[0]), tokens[1], name(tokens[2])
            if a == b:
                raise err(f"self-loop on {a!r}", tokens[0])
            if op == "--" and kind == "dmg":
                raise err("undirected edges are not allowed in a dmg document", op)
            if op == "<-":
                a, b = b, a
                op = "->"
            if op != "->":
                a, b = min(a, b), max(a, b)
            rec = (op, a, b)
            pair = (min(a, b), max(a, b))
            if rec in edges:
                raise err(f"duplicate edge {tokens[0]} {tokens[1]} {tokens[2]}", tokens[1])
            if kind == "mixed" and pair in pairs:
                raise err(
                    f"more than one edge between {pair[0]!r} and {pair[1]!r}", tokens[1]
                )
            pairs.add(pair)
            nodes.update(pair)
            edges.add(rec)
        elif tokens[0] == "node":
            if len(tokens) != 2:
                raise err("expected: node <id>")
            v = name(tokens[1])
            nodes.add(v)
        elif tokens[0] == "selection":
            if len(tokens) != 2:
                raise err("expected: selection <id>")
            if kind == "mixed":
                raise err("selection nodes are not allowed in a mixed document", tokens[0])
            v = name(tokens[1])
            nodes.add(v)
            selection.add(v)
        else:
            raise err(f"unrecognised declaration: {line.strip()!r}")

    return GraphDocument(kind, tuple(nodes), tuple(selection), tuple(edges))


def serialize_graph(doc: GraphDocument) -> str:
    """Normalised text: isolated nodes, then selections, then edges, sorted."""
    mentioned = set(doc.selection)
    for _, a, b in doc.edges:
        mentioned.update((a, b))
    lines = [f"node {v}" for v in doc.nodes if v not in mentioned]
    lines += [f"selection {v}" for v in doc.selection]
    for kind, a, b in doc.edges:
        lines.append(f"{a} {kind} {b}")
    return "\n".join(lines) + ("\n" if lines else "")


def export_dot(graph) -> str:
    """Graphviz text for any of the three graph value types.

    Directed edges are plain arrows, bidirected ones carry dir=both,
    undirected ones dir=none; selection nodes get a box shape.
    """
    selection: set[NodeId] = set()
    if isinstance(graph, ContextedDmg):
        selection = set(graph.selection)
        graph = graph.graph
    lines = ["digraph G {"]
    if isinstance(graph, DirectedMixedGraph):
        nodes = graph.nodes
        edge_lines = [f'  "{t}" -> "{h}";' for t, h in graph.directed]
        edge_lines += [f'  "{a}" -> "{b}" [dir=both];' for a, b in graph.bidirected]
    elif isinstance(graph, MixedGraph):
        nodes = graph.nodes
        edge_lines = []
        for e in graph.edges:
            if e.is_undirected:
                edge_lines.append(f'  "{e.a}" -> "{e.b}" [dir=none];')
            elif e.is_bidirected:
                edge_lines.append(f'  "{e.a}" -> "{e.b}" [dir=both];')
            else:
                edge_lines.append(f'  "{e.directed_tail}" -> "{e.directed_head}";')
    else:
        raise InputError(f"cannot export {type(graph).__name__}")
    for v in nodes:
        attr = " [shape=box]" if v in selection else ""
        lines.append(f'  "{v}"{attr};')
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"
