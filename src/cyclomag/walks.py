"""Walks over graphs and their parsing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import InputError
from .graphs import ARROWHEAD, MixedEdge, NodeId, _check_type, _Graph


@dataclass(frozen=True, init=False)
class Walk:
    """An alternating node/edge sequence.

    Only the start node and the edge sequence are stored; the node
    sequence follows because an edge can be traversed from either
    endpoint and consecutive edges must share a node.  A walk of length
    zero (a single node) is allowed.
    """

    start: NodeId
    edges: tuple[MixedEdge, ...] = ()
    _nodes: tuple = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, start: NodeId, edges: Iterable[MixedEdge] = ()):
        edges = tuple(edges)
        v = start
        nodes = [v]
        for e in edges:
            if not isinstance(e, MixedEdge):
                raise InputError(f"not a mixed edge: {e!r}")
            if v == e.a:
                v = e.b
            elif v == e.b:
                v = e.a
            else:
                raise InputError(f"edge {e} does not continue the walk at {v!r}")
            nodes.append(v)
        # The fields are frozen, so they are written to the instance dict.
        self.__dict__.update(start=start, edges=edges, _nodes=tuple(nodes))

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    @property
    def end(self) -> NodeId:
        return self._nodes[-1]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    @property
    def is_path(self) -> bool:
        return len(set(self._nodes)) == len(self._nodes)

    def is_into(self, v: NodeId) -> bool:
        """True if the walk's edge at endpoint ``v`` has an arrowhead there."""
        if self.is_trivial:
            return False
        if v == self.start:
            return self.edges[0].mark_at(v) is ARROWHEAD
        if v == self.end:
            return self.edges[-1].mark_at(v) is ARROWHEAD
        raise InputError(f"{v!r} is not an endpoint of the walk")

    def is_out_of(self, v: NodeId) -> bool:
        return not self.is_trivial and not self.is_into(v)

    def render(self) -> str:
        parts = [self.start]
        for u, e, w in zip(self._nodes, self.edges, self._nodes[1:]):
            parts += (e.render_from(u), w)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


def parse_walk(graph: _Graph, text: str) -> Walk:
    """Parse a rendered walk like ``"a -> b <-> d"`` against a graph.

    Each arrow is oriented as seen along the walk, so ``"b <- a"`` means
    the directed edge a -> b traversed from b.
    """
    _check_type(graph, _Graph, "parse_walk")
    tokens = text.split()
    if not tokens or len(tokens) % 2 == 0:
        raise InputError(f"malformed walk: {text!r}")
    names = tokens[0::2]
    arrows = tokens[1::2]
    graph.require_nodes(names)
    edges = []
    for u, arrow, w in zip(names, arrows, names[1:]):
        e = next((e for e in graph.incident_edges(u) if e.other(u) == w and e.render_from(u) == arrow), None)
        if e is None:
            raise InputError(f"graph has no edge {u} {arrow} {w}")
        edges.append(e)
    return Walk(names[0], tuple(edges))


def check_walk(graph: _Graph, walk: Walk) -> Walk:
    """Raise :class:`InputError` unless every walk edge belongs to ``graph``."""
    _check_type(graph, _Graph, "check_walk")
    graph.require_nodes([walk.start])
    for e in walk.edges:
        if not graph.contains_edge(e):
            raise InputError(f"walk edge {e} is not in the graph")
    return walk
