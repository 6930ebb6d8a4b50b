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
    ARROWHEAD,
    TAIL,
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
            mark_a, mark_b = _MARKS[k]
            edges.append(MixedEdge(a, mark_a, b, mark_b))
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


_KIND_RANK = {"->": 0, "<->": 1, "--": 2}
_MARKS = {"->": (TAIL, ARROWHEAD), "<->": (ARROWHEAD, ARROWHEAD), "--": (TAIL, TAIL)}  # at a, at b


def _edge_sort_key(rec: EdgeRecord):
    kind, a, b = rec
    # dmg serialisation groups directed edges before bidirected ones;
    # mixed documents sort by endpoint pair with a stable kind order.
    return (_KIND_RANK[kind], a, b)


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
    match = _NAME_RE.match

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) == 3 and tokens[1] in _EDGE_OPS:
            a, op, b = tokens
            if not (match(a) and match(b)):
                i = 2 if match(a) else 0
                raise _error(f"invalid identifier {tokens[i]!r}", lineno, raw, tokens, i)
            if a == b:
                raise _error(f"self-loop on {a!r}", lineno, raw, tokens, 0)
            if op == "--" and kind == "dmg":
                raise _error("undirected edges are not allowed in a dmg document", lineno, raw, tokens, 1)
            if op == "<-":
                a, b = b, a
                op = "->"
            pair = (a, b) if a < b else (b, a)
            rec = (op, a, b) if op == "->" else (op, *pair)
            if rec in edges:
                raise _error(f"duplicate edge {' '.join(tokens)}", lineno, raw, tokens, 1)
            if kind == "mixed" and pair in pairs:
                raise _error(f"more than one edge between {pair[0]!r} and {pair[1]!r}", lineno, raw, tokens, 1)
            pairs.add(pair)
            nodes.update(pair)
            edges.add(rec)
        elif tokens[0] in ("node", "selection"):
            if len(tokens) != 2:
                raise _error(f"expected: {tokens[0]} <id>", lineno, raw)
            if tokens[0] == "selection" and kind == "mixed":
                raise _error("selection nodes are not allowed in a mixed document", lineno, raw, tokens, 0)
            v = tokens[1]
            if not match(v):
                raise _error(f"invalid identifier {v!r}", lineno, raw, tokens, 1)
            nodes.add(v)
            if tokens[0] == "selection":
                selection.add(v)
        else:
            raise _error(f"unrecognised declaration: {line.strip()!r}", lineno, raw)

    return GraphDocument(kind, tuple(nodes), tuple(selection), tuple(edges))


def _error(msg: str, lineno: int, raw: str, tokens=(), i: int | None = None) -> ParseError:
    """ParseError at the start of ``tokens[i]`` in ``raw``, or at column 1."""
    column = 0
    if i is not None:
        for tok in tokens[:i]:
            column = raw.index(tok, column) + len(tok)
        column = raw.index(tokens[i], column)
    return ParseError(msg, lineno, column + 1)


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
