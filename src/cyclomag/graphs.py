"""Immutable graph value types.

Two graph flavours are used throughout the package:

* :class:`DirectedMixedGraph` holds directed and bidirected edges, allows
  directed cycles, and permits up to three parallel edges per node pair
  (``a -> b``, ``b -> a`` and ``a <-> b``).
* :class:`MixedGraph` holds at most one edge per node pair, where an edge
  carries one mark (tail or arrowhead) at each endpoint, giving the four
  edge types ``->``, ``<-``, ``<->`` and ``--``.

All values are frozen after construction; every operation in the package
is a pure function over them, so graphs can be shared freely across
threads and used as dictionary keys.  Each graph builds its
:class:`GraphIndex` of derived data on first use and keeps it on the
instance; the index never affects equality or hashing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Iterable, Union

from .errors import InputError

NodeId = str

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_node_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise InputError(f"invalid node name: {name!r}")
    return name


class EdgeMark(Enum):
    TAIL = "tail"
    ARROWHEAD = "arrowhead"

    def __repr__(self) -> str:  # terse reprs keep witnesses readable
        return self.name


TAIL = EdgeMark.TAIL
ARROWHEAD = EdgeMark.ARROWHEAD


@dataclass(frozen=True)
class DirectedEdge:
    """A directed edge ``tail -> head`` of a directed mixed graph."""

    tail: NodeId
    head: NodeId

    def __post_init__(self):
        if self.tail == self.head:
            raise InputError(f"self-loop on {self.tail!r}")

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.tail, self.head)

    @property
    def is_undirected(self) -> bool:
        return False

    def mark_at(self, v: NodeId) -> EdgeMark:
        if v == self.tail:
            return TAIL
        if v == self.head:
            return ARROWHEAD
        raise InputError(f"{v!r} is not an endpoint of {self}")

    def other(self, v: NodeId) -> NodeId:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise InputError(f"{v!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.tail} -> {self.head}"


@dataclass(frozen=True)
class BidirectedEdge:
    """A bidirected edge ``a <-> b``; endpoints are stored sorted."""

    a: NodeId
    b: NodeId

    def __post_init__(self):
        if self.a == self.b:
            raise InputError(f"self-loop on {self.a!r}")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)

    @property
    def is_undirected(self) -> bool:
        return False

    def mark_at(self, v: NodeId) -> EdgeMark:
        if v in (self.a, self.b):
            return ARROWHEAD
        raise InputError(f"{v!r} is not an endpoint of {self}")

    def other(self, v: NodeId) -> NodeId:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise InputError(f"{v!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a} <-> {self.b}"


@dataclass(frozen=True)
class MixedEdge:
    """The unique edge between two nodes of a :class:`MixedGraph`.

    The two marks encode the edge type: tail/arrowhead is ``a -> b``,
    arrowhead/tail is ``a <- b``, arrowhead/arrowhead is ``a <-> b`` and
    tail/tail is ``a -- b``.  Endpoints are normalised to sorted order,
    so ``(b, a)`` inputs denote the same edge with marks swapped.
    """

    a: NodeId
    mark_a: EdgeMark
    b: NodeId
    mark_b: EdgeMark

    def __post_init__(self):
        if self.a == self.b:
            raise InputError(f"self-loop on {self.a!r}")
        if self.a > self.b:
            a, ma, b, mb = self.a, self.mark_a, self.b, self.mark_b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "mark_a", mb)
            object.__setattr__(self, "b", a)
            object.__setattr__(self, "mark_b", ma)

    @classmethod
    def directed(cls, tail: NodeId, head: NodeId) -> "MixedEdge":
        return cls(tail, TAIL, head, ARROWHEAD)

    @classmethod
    def bidirected(cls, a: NodeId, b: NodeId) -> "MixedEdge":
        return cls(a, ARROWHEAD, b, ARROWHEAD)

    @classmethod
    def undirected(cls, a: NodeId, b: NodeId) -> "MixedEdge":
        return cls(a, TAIL, b, TAIL)

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)

    @property
    def is_undirected(self) -> bool:
        return self.mark_a is TAIL and self.mark_b is TAIL

    @property
    def is_bidirected(self) -> bool:
        return self.mark_a is ARROWHEAD and self.mark_b is ARROWHEAD

    @property
    def is_directed(self) -> bool:
        return self.mark_a is not self.mark_b

    @property
    def directed_tail(self) -> NodeId:
        """Tail node of a directed edge; raises for other edge types."""
        if not self.is_directed:
            raise InputError(f"{self} is not a directed edge")
        return self.a if self.mark_a is TAIL else self.b

    @property
    def directed_head(self) -> NodeId:
        if not self.is_directed:
            raise InputError(f"{self} is not a directed edge")
        return self.b if self.mark_a is TAIL else self.a

    def mark_at(self, v: NodeId) -> EdgeMark:
        if v == self.a:
            return self.mark_a
        if v == self.b:
            return self.mark_b
        raise InputError(f"{v!r} is not an endpoint of {self}")

    def other(self, v: NodeId) -> NodeId:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise InputError(f"{v!r} is not an endpoint of {self}")

    def render_from(self, v: NodeId) -> str:
        """Arrow as seen when traversing the edge starting at ``v``."""
        m_here, m_there = self.mark_at(v), self.mark_at(self.other(v))
        if m_here is TAIL and m_there is TAIL:
            return "--"
        if m_here is TAIL:
            return "->"
        if m_there is TAIL:
            return "<-"
        return "<->"

    def __str__(self) -> str:
        return f"{self.a} {self.render_from(self.a)} {self.b}"


Edge = Union[DirectedEdge, BidirectedEdge, MixedEdge]

# Sort key used everywhere an edge list must be deterministic: traversal
# from v visits neighbours in name order, breaking parallel-edge ties by
# (mark here, mark there) with tails before arrowheads.
_MARK_RANK = {TAIL: 0, ARROWHEAD: 1}


def _traversal_key(edge: Edge, v: NodeId):
    w = edge.other(v)
    return (w, _MARK_RANK[edge.mark_at(v)], _MARK_RANK[edge.mark_at(w)])


def _parse_edge_spec(spec: str) -> tuple[NodeId, str, NodeId]:
    parts = spec.split()
    if len(parts) != 3 or parts[1] not in ("->", "<-", "<->", "--"):
        raise InputError(f"bad edge spec: {spec!r}")
    return parts[0], parts[1], parts[2]


def _components(succ: list, pred: list) -> tuple[list[int], list[int]]:
    """Strong components along ``succ`` by Kosaraju's algorithm.

    ``pred`` is the reverse of ``succ``.  Returns the nodes in an order
    where each component is contiguous and comes before every component
    it reaches, and each node's component label.  Iterative, so deep
    cycles cannot overflow the stack.
    """
    seen = [False] * len(succ)
    finished: list[int] = []
    for root in range(len(succ)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    comp = [-1] * len(succ)
    order: list[int] = []
    for root in reversed(finished):
        if comp[root] >= 0:
            continue
        comp[root] = root
        i = len(order)
        order.append(root)
        while i < len(order):
            for u in pred[order[i]]:
                if comp[u] < 0:
                    comp[u] = root
                    order.append(u)
            i += 1
    return order, comp


def _reach(succ: list, order, comp: list[int]) -> list[int]:
    """Reflexive reachability bitmask of every node along ``succ``.

    ``order`` must list each strong component contiguously and after all
    those it reaches, so every member of a component shares one mask.
    """
    reach: dict[int, int] = {}
    for v in order:
        mask = reach.get(comp[v], 0) | 1 << v
        for w in succ[v]:
            mask |= reach.get(comp[w], 0)
        reach[comp[v]] = mask
    return [reach[c] for c in comp]


# Bits of the kind in a GraphIndex row.
ARROW_HERE, ARROW_THERE, CROSSES_SCC = 4, 2, 1


class GraphIndex:
    """Derived data of one graph value, built once and cached on it.

    * ``names`` and ``ids``: node ``i`` is ``names[i]``; ids follow the
      sorted node order, so ascending ids are ascending names.
    * ``rows[i]``: one ``(neighbour id, kind, edge)`` tuple per incident
      edge, in :meth:`incident_edges` order.  The kind sets
      ``ARROW_HERE`` and ``ARROW_THERE`` for arrowheads at the two ends
      and ``CROSSES_SCC`` when the edge joins two strong components.
    * ``parents[i]`` / ``children[i]``: ids across directed edges, sorted.
    * ``scc[i]``: position of the node's strong component (over directed
      edges) in :func:`~cyclomag.relations.strongly_connected_components`.
    * ``anc``, ``desc``, ``ant``: reflexive ancestor, descendant and
      anterior sets of each node as int bitmasks, built on first use.
    """

    def __init__(self, nodes: tuple[NodeId, ...], incident: dict):
        ids = {v: i for i, v in enumerate(nodes)}
        links = []
        for v in nodes:
            row = []
            for e in incident[v]:
                u = e.other(v)
                kind = ARROW_HERE * (e.mark_at(v) is ARROWHEAD) + ARROW_THERE * (e.mark_at(u) is ARROWHEAD)
                row.append((ids[u], kind, e))
            links.append(row)
        parents = [tuple(w for w, kind, _ in row if kind == ARROW_HERE) for row in links]
        children = [tuple(w for w, kind, _ in row if kind == ARROW_THERE) for row in links]
        order, comp = _components(children, parents)
        rank: dict[int, int] = {}
        scc = [rank.setdefault(c, len(rank)) for c in comp]  # numbered by smallest member
        self.names = nodes
        self.ids = ids
        self.rows = [
            tuple((w, kind + CROSSES_SCC * (scc[v] != scc[w]), e) for w, kind, e in row) for v, row in enumerate(links)
        ]
        self.parents = parents
        self.children = children
        self.scc = scc
        self._order = order

    @cached_property
    def anc(self) -> list[int]:
        return _reach(self.parents, self._order, self.scc)

    @cached_property
    def desc(self) -> list[int]:
        return _reach(self.children, reversed(self._order), self.scc)

    @cached_property
    def ant(self) -> list[int]:
        """Nodes with a path into the node whose every edge leaves a tail."""
        tail_in = [tuple(w for w, kind, _ in row if not kind & ARROW_THERE) for row in self.rows]
        tail_out = [tuple(w for w, kind, _ in row if not kind & ARROW_HERE) for row in self.rows]
        order, comp = _components(tail_in, tail_out)
        return _reach(tail_in, reversed(order), comp)

    def mask(self, vs: Iterable[NodeId]) -> int:
        ids, m = self.ids, 0
        for v in vs:
            m |= 1 << ids[v]
        return m

    def union(self, sets: list[int], mask: int) -> int:
        """Union of the per-node ``sets`` over the members of ``mask``."""
        out = 0
        for m in compress(sets, _flags(mask)):
            out |= m
        return out

    def members(self, mask: int) -> tuple[NodeId, ...]:
        """Names in ``mask``, in sorted order."""
        return tuple(compress(self.names, _flags(mask)))


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """One byte per node id, nonzero exactly where ``mask`` has the node."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _sorted_incidence(nodes: tuple[NodeId, ...], edges: Iterable[Edge]) -> dict[NodeId, tuple[Edge, ...]]:
    incident: dict[NodeId, list[Edge]] = {n: [] for n in nodes}
    for e in edges:
        for v in e.endpoints:
            incident[v].append(e)
    return {n: tuple(sorted(es, key=lambda e: _traversal_key(e, n))) for n, es in incident.items()}


class _Graph:
    """What both graph types share, including :attr:`index`.

    The index is built on first access and kept on the instance.  It is
    not a dataclass field, so it never takes part in equality, hashing or
    ``repr``, and it holds no reference back to the graph.
    """

    def __contains__(self, v: NodeId) -> bool:
        return v in self._incident

    def require_nodes(self, vs: Iterable[NodeId]) -> None:
        for v in vs:
            if v not in self._incident:
                raise InputError(f"unknown node: {v!r}")

    def incident_edges(self, v: NodeId) -> tuple[Edge, ...]:
        try:
            return self._incident[v]
        except KeyError:
            raise InputError(f"unknown node: {v!r}") from None

    @cached_property
    def index(self) -> GraphIndex:
        return GraphIndex(self.nodes, self._incident)

    def parents(self, v: NodeId) -> tuple[NodeId, ...]:
        """Nodes u with a directed edge u -> v, sorted."""
        return self._family(self.index.parents, v)

    def children(self, v: NodeId) -> tuple[NodeId, ...]:
        """Nodes w with a directed edge v -> w, sorted."""
        return self._family(self.index.children, v)

    def _family(self, lists: list, v: NodeId) -> tuple[NodeId, ...]:
        self.require_nodes([v])
        names = self.index.names
        return tuple(names[u] for u in lists[self.index.ids[v]])


@dataclass(frozen=True)
class MixedGraph(_Graph):
    """Mixed graph with at most one edge per node pair and no self-loops.

    Derived data lives in :attr:`index`, outside equality and hashing.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[MixedEdge, ...]
    _pair: dict = field(default=None, compare=False, repr=False)
    _incident: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        nodes = tuple(sorted({check_node_name(n) for n in self.nodes}))
        node_set = set(nodes)
        pair: dict[tuple[NodeId, NodeId], MixedEdge] = {}
        for e in self.edges:
            if not isinstance(e, MixedEdge):
                raise InputError(f"not a mixed edge: {e!r}")
            if e.a not in node_set or e.b not in node_set:
                raise InputError(f"edge {e} uses undeclared node")
            key = (e.a, e.b)
            if key in pair:
                raise InputError(f"more than one edge between {e.a!r} and {e.b!r}")
            pair[key] = e
        edges = tuple(sorted(pair.values(), key=lambda e: (e.a, e.b)))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_pair", pair)
        object.__setattr__(self, "_incident", _sorted_incidence(nodes, edges))

    @classmethod
    def of(cls, *edge_specs: str, nodes: Iterable[NodeId] = ()) -> "MixedGraph":
        """Build from specs like ``"a -> b"``, ``"a -- b"``, ``"a <-> b"``."""
        node_set = set(nodes)
        edges = []
        for spec in edge_specs:
            u, op, v = _parse_edge_spec(spec)
            node_set.update((u, v))
            if op == "->":
                edges.append(MixedEdge.directed(u, v))
            elif op == "<-":
                edges.append(MixedEdge.directed(v, u))
            elif op == "<->":
                edges.append(MixedEdge.bidirected(u, v))
            else:
                edges.append(MixedEdge.undirected(u, v))
        return cls(tuple(node_set), tuple(edges))

    def edge(self, a: NodeId, b: NodeId) -> MixedEdge | None:
        if a > b:
            a, b = b, a
        return self._pair.get((a, b))

    def adjacent(self, a: NodeId, b: NodeId) -> bool:
        return self.edge(a, b) is not None

    def contains_edge(self, e: Edge) -> bool:
        return isinstance(e, MixedEdge) and self.edge(e.a, e.b) == e

    def neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        return tuple(e.other(v) for e in self.incident_edges(v))

    directed_parents = _Graph.parents
    directed_children = _Graph.children

    def undirected_neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        return tuple(e.other(v) for e in self.incident_edges(v) if e.is_undirected)


@dataclass(frozen=True)
class DirectedMixedGraph(_Graph):
    """Directed mixed graph; cycles and parallel edges of distinct type allowed.

    Derived data lives in :attr:`index`, outside equality and hashing.
    """

    nodes: tuple[NodeId, ...]
    directed: tuple[tuple[NodeId, NodeId], ...]
    bidirected: tuple[tuple[NodeId, NodeId], ...]
    _incident: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        nodes = tuple(sorted({check_node_name(n) for n in self.nodes}))
        node_set = set(nodes)
        directed, bidirected = set(), set()
        for pairs, kept, arrow in ((self.directed, directed, "->"), (self.bidirected, bidirected, "<->")):
            for a, b in pairs:
                if a == b:
                    raise InputError(f"self-loop on {a!r}")
                if a not in node_set or b not in node_set:
                    raise InputError(f"edge {a} {arrow} {b} uses undeclared node")
                kept.add((a, b) if arrow == "->" else (min(a, b), max(a, b)))
        edges = [DirectedEdge(t, h) for t, h in directed] + [BidirectedEdge(a, b) for a, b in bidirected]
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "directed", tuple(sorted(directed)))
        object.__setattr__(self, "bidirected", tuple(sorted(bidirected)))
        object.__setattr__(self, "_incident", _sorted_incidence(nodes, edges))

    @classmethod
    def of(cls, *edge_specs: str, nodes: Iterable[NodeId] = ()) -> "DirectedMixedGraph":
        """Build from specs like ``"a -> b"``, ``"b <- a"``, ``"a <-> b"``."""
        node_set = set(nodes)
        directed = []
        bidirected = []
        for spec in edge_specs:
            u, op, v = _parse_edge_spec(spec)
            node_set.update((u, v))
            if op == "->":
                directed.append((u, v))
            elif op == "<-":
                directed.append((v, u))
            elif op == "<->":
                bidirected.append((u, v))
            else:
                raise InputError(f"undirected edge not allowed here: {spec!r}")
        return cls(tuple(node_set), tuple(directed), tuple(bidirected))

    def contains_edge(self, e: Edge) -> bool:
        return isinstance(e, (DirectedEdge, BidirectedEdge)) and e in self._incident.get(e.endpoints[0], ())

    def siblings(self, v: NodeId) -> tuple[NodeId, ...]:
        return tuple(e.other(v) for e in self.incident_edges(v) if isinstance(e, BidirectedEdge))

    def adjacent(self, a: NodeId, b: NodeId) -> bool:
        return any(e.other(a) == b for e in self.incident_edges(a))


@dataclass(frozen=True)
class ContextedDmg:
    """A directed mixed graph together with a designated selection-node set."""

    graph: DirectedMixedGraph
    selection: tuple[NodeId, ...]

    def __post_init__(self):
        selection = tuple(sorted(set(self.selection)))
        for s in selection:
            if s not in self.graph:
                raise InputError(f"selection node {s!r} is not in the graph")
        if len(selection) == len(self.graph.nodes):
            raise InputError("at least one node must be observed")
        object.__setattr__(self, "selection", selection)

    @classmethod
    def of(cls, *edge_specs: str, selection: Iterable[NodeId] = (), nodes: Iterable[NodeId] = ()) -> "ContextedDmg":
        selection = tuple(selection)
        return cls(DirectedMixedGraph.of(*edge_specs, nodes=tuple(nodes) + selection), selection)

    @property
    def observed(self) -> tuple[NodeId, ...]:
        sel = set(self.selection)
        return tuple(n for n in self.graph.nodes if n not in sel)
