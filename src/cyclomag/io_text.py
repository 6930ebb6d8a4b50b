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
    _ARROW_MARKS,
    _NAME_RE,
    check_node_name,
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
        rank = _KIND_RANK.get(self.kind)
        if rank is None:
            raise InputError(f"unknown document kind: {self.kind!r}")
        # The checks parse_graph makes line by line, as set operations over
        # the records, so that every document serialises to text that
        # parses back to it.
        kinds, tails, heads = tuple(zip(*self.edges)) or ((), (), ())
        stray = set(kinds) - rank.keys()
        if stray:
            raise InputError(f"{min(stray)!r} edges are not allowed in a {self.kind} document")
        if self.selection and self.kind == "mixed":
            raise InputError("selection nodes are not allowed in a mixed document")
        nodes = {check_node_name(v) for v in self.nodes}
        missing = set(tails).union(heads, self.selection) - nodes
        if missing:
            raise InputError(f"{min(missing)!r} is not among the document's nodes")
        loops = {a for a, b in zip(tails, heads) if a == b}
        if loops:
            raise InputError(f"self-loop on {min(loops)!r}")
        edges = {(k, b, a) if k != "->" and b < a else (k, a, b) for k, a, b in self.edges}
        if self.kind == "mixed":
            pairs = [(a, b) if a < b else (b, a) for _, a, b in edges]
            if len(set(pairs)) < len(pairs):
                pairs.sort()
                a, b = next(p for p, q in zip(pairs, pairs[1:]) if p == q)
                raise InputError(f"more than one edge between {a!r} and {b!r}")
        object.__setattr__(self, "nodes", tuple(sorted(nodes)))
        object.__setattr__(self, "selection", tuple(sorted(set(self.selection))))
        object.__setattr__(self, "edges", tuple(sorted(edges, key=lambda r: (rank[r[0]], r[1], r[2]))))

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
            mark_a, mark_b = _ARROW_MARKS[k]
            edges.append(MixedEdge(a, mark_a, b, mark_b))
        return MixedGraph(self.nodes, tuple(edges))

    @classmethod
    def from_contexted(cls, c: ContextedDmg) -> "GraphDocument":
        return cls("dmg", c.graph.nodes, c.selection, tuple(_dmg_records(c.graph)))

    @classmethod
    def from_mixed(cls, h: MixedGraph) -> "GraphDocument":
        return cls("mixed", h.nodes, (), tuple(map(_record, h.edges)))


# The edge kinds each document kind allows, ranked in serialisation
# order: directed edges, then bidirected ones, then undirected ones.
_KIND_RANK = {"dmg": {"->": 0, "<->": 1}, "mixed": {"->": 0, "<->": 1, "--": 2}}


def _record(e: MixedEdge) -> EdgeRecord:
    arrow = e.render_from(e.a)
    return ("->", e.b, e.a) if arrow == "<-" else (arrow, e.a, e.b)


def _dmg_records(g: DirectedMixedGraph) -> list[EdgeRecord]:
    return [("->", t, h) for t, h in g.directed] + [("<->", a, b) for a, b in g.bidirected]


def parse_graph(text: str, kind: str) -> GraphDocument:
    """Parse a document of the given kind ("dmg" or "mixed").

    Syntax errors raise :class:`ParseError` with line and column.
    """
    if kind not in _KIND_RANK:
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
        if len(tokens) == 3 and tokens[1] in _ARROW_MARKS:
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


_DOT_ATTRS = {"->": "", "<->": " [dir=both]", "--": " [dir=none]"}


def export_dot(graph) -> str:
    """Graphviz text for any of the three graph value types.

    Directed edges are plain arrows, bidirected ones carry dir=both,
    undirected ones dir=none; selection nodes get a box shape.
    """
    selection: set[NodeId] = set()
    if isinstance(graph, ContextedDmg):
        selection = set(graph.selection)
        graph = graph.graph
    if isinstance(graph, DirectedMixedGraph):
        records = _dmg_records(graph)
    elif isinstance(graph, MixedGraph):
        records = map(_record, graph.edges)
    else:
        raise InputError(f"cannot export {type(graph).__name__}")
    lines = ["digraph G {"]
    for v in graph.nodes:
        attr = " [shape=box]" if v in selection else ""
        lines.append(f'  "{v}"{attr};')
    lines.extend(sorted(f'  "{a}" -> "{b}"{_DOT_ATTRS[k]};' for k, a, b in records))
    lines.append("}")
    return "\n".join(lines) + "\n"
