"""Walks over graphs, collider classification, and segment partitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from typing import TYPE_CHECKING, Union

from .errors import InputError
from .graphs import ARROWHEAD, BidirectedEdge, DirectedEdge, Edge, NodeId

if TYPE_CHECKING:
    from .graphs import DirectedMixedGraph, MixedGraph

Graph = Union["DirectedMixedGraph", "MixedGraph"]


@dataclass(frozen=True)
class Walk:
    """An alternating node/edge sequence.

    Only the start node and the edge sequence are stored; the node
    sequence follows because an edge can be traversed from either
    endpoint and consecutive edges must share a node.  A walk of length
    zero (a single node) is allowed.
    """

    start: NodeId
    edges: tuple[Edge, ...] = ()
    _nodes: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        nodes = [self.start]
        for e in self.edges:
            try:
                nodes.append(e.other(nodes[-1]))
            except InputError:
                raise InputError(
                    f"edge {e} does not continue the walk at {nodes[-1]!r}"
                ) from None
        object.__setattr__(self, "_nodes", tuple(nodes))

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

    def subwalk(self, i: int, j: int) -> "Walk":
        """Subwalk from node position i to node position j (inclusive)."""
        if not 0 <= i <= j <= len(self.edges):
            raise InputError(f"bad subwalk positions {i}, {j}")
        return Walk(self._nodes[i], self.edges[i:j])

    def reversed(self) -> "Walk":
        return Walk(self.end, tuple(reversed(self.edges)))

    def render(self) -> str:
        parts = [self.start]
        for pos, e in enumerate(self.edges):
            u = self._nodes[pos]
            w = self._nodes[pos + 1]
            if isinstance(e, DirectedEdge):
                arrow = "->" if e.tail == u else "<-"
            elif isinstance(e, BidirectedEdge):
                arrow = "<->"
            else:
                arrow = e.render_from(u)
            parts.append(arrow)
            parts.append(w)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


def parse_walk(graph: Graph, text: str) -> Walk:
    """Parse a rendered walk like ``"a -> b <-> d"`` against a graph.

    Each arrow is oriented as seen along the walk, so ``"b <- a"`` means
    the directed edge a -> b traversed from b.
    """
    from .graphs import DirectedMixedGraph, MixedGraph  # local to avoid cycle

    tokens = text.split()
    if not tokens or len(tokens) % 2 == 0:
        raise InputError(f"malformed walk: {text!r}")
    names = tokens[0::2]
    arrows = tokens[1::2]
    graph.require_nodes(names)
    edges = []
    for u, arrow, w in zip(names, arrows, names[1:]):
        if isinstance(graph, MixedGraph):
            e = graph.edge(u, w)
            if e is None or e.render_from(u) != arrow:
                raise InputError(f"graph has no edge {u} {arrow} {w}")
        elif isinstance(graph, DirectedMixedGraph):
            if arrow == "->":
                e = DirectedEdge(u, w)
            elif arrow == "<-":
                e = DirectedEdge(w, u)
            elif arrow == "<->":
                e = BidirectedEdge(u, w)
            else:
                raise InputError(f"graph has no edge {u} {arrow} {w}")
            if not graph.contains_edge(e):
                raise InputError(f"graph has no edge {u} {arrow} {w}")
        else:
            raise InputError(f"unsupported graph type: {type(graph).__name__}")
        edges.append(e)
    return Walk(names[0], tuple(edges))


def check_walk(graph: Graph, walk: Walk) -> Walk:
    """Raise :class:`InputError` unless every walk edge belongs to ``graph``."""
    graph.require_nodes([walk.start])
    for e in walk.edges:
        if not graph.contains_edge(e):
            raise InputError(f"walk edge {e} is not in the graph")
    return walk


class ColliderStatus(Enum):
    COLLIDER = "collider"
    NON_COLLIDER = "non-collider"


def collider_status(graph: Graph, walk: Walk) -> tuple[ColliderStatus, ...]:
    """Classify every walk position; endpoints always count as non-colliders.

    An interior position is a collider exactly when both incident walk
    edges carry an arrowhead at that node.  A trivial walk yields a
    single non-collider.
    """
    check_walk(graph, walk)
    colliders = set(_interior_collider_positions(walk))
    return tuple(
        ColliderStatus.COLLIDER if k in colliders else ColliderStatus.NON_COLLIDER for k in range(len(walk.nodes))
    )


def _interior_collider_positions(walk: Walk) -> list[int]:
    out = []
    for k in range(1, len(walk.edges)):
        v = walk.nodes[k]
        if walk.edges[k - 1].mark_at(v) is ARROWHEAD and walk.edges[k].mark_at(v) is ARROWHEAD:
            out.append(k)
    return out


@dataclass(frozen=True)
class Segment:
    """Maximal run of consecutive path nodes lying in one strong component."""

    nodes: tuple[NodeId, ...]
    left: NodeId
    right: NodeId
    scc_index: int


@dataclass(frozen=True)
class SegmentPartition:
    segments: tuple[Segment, ...]

    def __iter__(self):
        return iter(self.segments)


def segment_partition(g: "DirectedMixedGraph", path: Walk) -> SegmentPartition:
    """Split a simple path by the strong components of ``g``.

    Concatenating the segments reproduces the path, consecutive segments
    lie in distinct components, and all nodes of a segment share one.
    """
    check_walk(g, path)
    if not path.is_path:
        raise InputError("segment partition is defined for simple paths only")
    idx = g.index
    segments = []
    for k, run in groupby(path.nodes, key=lambda v: idx.scc[idx.ids[v]]):
        run = tuple(run)
        segments.append(Segment(run, run[0], run[-1], k))
    return SegmentPartition(tuple(segments))
