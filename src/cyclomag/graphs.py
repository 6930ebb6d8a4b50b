"""Immutable graph value types.

Two graph flavours are used throughout the package.  Both hand out
:class:`MixedEdge` values, which carry one mark (tail or arrowhead) at
each endpoint:

* :class:`DirectedMixedGraph` holds directed and bidirected edges, allows
  directed cycles, and permits up to three parallel edges per node pair
  (``a -> b``, ``b -> a`` and ``a <-> b``).
* :class:`MixedGraph` holds at most one edge per node pair, of any of
  the four edge types ``->``, ``<-``, ``<->`` and ``--``.

All values are frozen after construction; every operation in the package
is a pure function over them, so graphs can be shared freely across
threads and used as dictionary keys.  The node checks, ``of`` and
``contains_edge`` live once, on ``_Graph``, the type that annotates a
graph of either kind.  Each graph builds its :class:`GraphIndex` on
first use, from ``(a, b, kind)`` arcs read off its own fields, and keeps
it on the instance; it never affects equality or hashing.  Its rows hold
``(neighbour id, kind)`` pairs and are the graph's only incidence
structure; the writers of :mod:`~cyclomag.io_text` read the arcs too.  A
directed mixed graph holds node pairs, not edge values, so an edge value
is made from a row entry by :func:`row_edge` only when one is handed
out: by ``incident_edges``, ``edge``, the path enumerator and the
witnesses of the searches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Callable, Collection, Iterable, Iterator

from .errors import InputError, NodeSetError

NodeId = str

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_node_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise InputError(f"invalid node name: {name!r}")
    return name


def _as_nodes(vs) -> frozenset:
    """The node set named by ``vs``: a bare string is one node, anything else an iterable of nodes."""
    if isinstance(vs, str):
        return frozenset((vs,))
    try:
        return frozenset(vs)
    except TypeError:  # not iterable, or a member is unhashable
        raise NodeSetError(f"not a node name or an iterable of node names: {vs!r}") from None


def _as_sequence(vs) -> tuple:
    """The node sequence named by ``vs``: a bare string is one node, as for :func:`_as_nodes`."""
    if isinstance(vs, str):
        return (vs,)
    try:
        seq = tuple(vs)
        hash(seq)  # raises for an unhashable member
    except TypeError:
        raise NodeSetError(f"not a sequence of node names: {vs!r}") from None
    return seq


def _check_type(value, kind: type, what: str) -> None:
    """Refuse a ``value`` that is not a ``kind``, naming both types; called before anything reads it."""
    if not isinstance(value, kind):
        wanted = "DirectedMixedGraph or MixedGraph" if kind is _Graph else kind.__name__
        raise InputError(f"{what} needs a {wanted}, not {type(value).__name__}")


class EdgeMark(Enum):
    TAIL = "tail"
    ARROWHEAD = "arrowhead"

    def __repr__(self) -> str:  # terse reprs keep witnesses readable
        return self.name


TAIL = EdgeMark.TAIL
ARROWHEAD = EdgeMark.ARROWHEAD

# Each arrow token with the marks at its (left, right) nodes.  The token
# of marks (l, r) is _ARROWS[2 * (l is ARROWHEAD) + (r is ARROWHEAD)]: a
# tuple index, because hashing an EdgeMark runs Enum.__hash__ in Python.
# The token of an arc (a, b, kind) below is _ARROWS[kind >> 1].
_ARROW_MARKS = {"--": (TAIL, TAIL), "->": (TAIL, ARROWHEAD), "<-": (ARROWHEAD, TAIL), "<->": (ARROWHEAD, ARROWHEAD)}
_ARROWS = tuple(_ARROW_MARKS)


@dataclass(frozen=True, init=False, slots=True)
class MixedEdge:
    """An edge of either graph type: one mark at each endpoint.

    The two marks encode the edge type: tail/arrowhead is ``a -> b``,
    arrowhead/tail is ``a <- b``, arrowhead/arrowhead is ``a <-> b`` and
    tail/tail is ``a -- b``.  Endpoints are normalised to sorted order,
    so ``(b, a)`` inputs denote the same edge with marks swapped.
    """

    a: NodeId
    mark_a: EdgeMark
    b: NodeId
    mark_b: EdgeMark

    def __init__(self, a: NodeId, mark_a: EdgeMark, b: NodeId, mark_b: EdgeMark):
        if a == b:
            raise InputError(f"self-loop on {a!r}")
        if not (mark_a is TAIL or mark_a is ARROWHEAD) or not (mark_b is TAIL or mark_b is ARROWHEAD):
            raise InputError(f"edge marks must be TAIL or ARROWHEAD, got {mark_a!r} and {mark_b!r}")
        if a > b:
            a, mark_a, b, mark_b = b, mark_b, a, mark_a
        _set_a(self, a)
        _set_mark_a(self, mark_a)
        _set_b(self, b)
        _set_mark_b(self, mark_b)

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
        here = self.mark_at(v)
        there = self.mark_b if v == self.a else self.mark_a
        return _ARROWS[2 * (here is ARROWHEAD) + (there is ARROWHEAD)]

    def __str__(self) -> str:
        return f"{self.a} {self.render_from(self.a)} {self.b}"


# The fields are frozen, so __init__ writes them through the slot
# descriptors, which skip the dataclass's refusing __setattr__.
_set_a, _set_mark_a, _set_b, _set_mark_b = (MixedEdge.__dict__[f].__set__ for f in ("a", "mark_a", "b", "mark_b"))
_new_edge = object.__new__


def _components(succ: list, pred: list) -> tuple[list[int], list[int]]:
    """Strong components along ``succ`` by Kosaraju's algorithm.

    ``pred`` is the reverse of ``succ``.  Returns the nodes in an order
    where each component is contiguous and comes before every component
    it reaches, and each node's component label, the id of one of its
    members.  Iterative, so deep cycles cannot overflow the stack.
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
    reach = [0] * len(succ)  # by component label; a component not yet visited reads 0
    for v in order:
        mask = reach[comp[v]] | 1 << v
        for w in succ[v]:
            mask |= reach[comp[w]]
        reach[comp[v]] = mask
    return [reach[c] for c in comp]


# Bits of the kind in a GraphIndex row.
ARROW_HERE, ARROW_THERE, CROSSES_SCC = 4, 2, 1
# A kind as seen from the other end: ARROW_HERE and ARROW_THERE swap.
_FLIP = (0, 1, 4, 5, 2, 3, 6, 7)
# The marks (here, there) of each kind.
_KIND_MARKS = tuple((ARROWHEAD if kind & ARROW_HERE else TAIL, ARROWHEAD if kind & ARROW_THERE else TAIL) for kind in range(8))


def row_edge(names, i: int, j: int, kind: int) -> MixedEdge:
    """The edge of the index row entry ``(j, kind)`` of node ``i``, named by ``names``.

    Index ids follow name order and a row holds valid marks, so the edge
    is written in its normal form without the checks of ``__init__``.
    """
    if i > j:
        i, j, kind = j, i, _FLIP[kind]
    e = _new_edge(MixedEdge)
    mark_a, mark_b = _KIND_MARKS[kind]
    _set_a(e, names[i])
    _set_mark_a(e, mark_a)
    _set_b(e, names[j])
    _set_mark_b(e, mark_b)
    return e


class GraphIndex:
    """Derived data of one graph value, built once and cached on it.

    ``arcs`` is called once per pass and yields one ``(a, b, kind)``
    triple per edge: its end nodes and its ``ARROW_HERE`` (arrowhead at
    ``a``) and ``ARROW_THERE`` (arrowhead at ``b``) bits.  A directed
    mixed graph yields them from its ``directed`` and ``bidirected``
    pairs, a mixed graph from its edges, so no edge value is made.

    * ``names`` and ``ids``: node ``i`` is ``names[i]``; ids follow the
      sorted node order, so ascending ids are ascending names.
    * ``parents[i]`` / ``children[i]``: ids across directed edges, sorted,
      collected in a first pass over the arcs and read by the strong
      component search; ``pa`` and ``ch`` hold the same sets as bitmasks,
      built on first use.  :func:`~cyclomag.abstraction.marginalize`
      closes them over the latent nodes, and ``condition1`` reads ``pa``
      for the chain nodes of a discriminating path.
    * ``rows[i]``: one ``(neighbour id, kind)`` pair per incident edge,
      each built once with its final kind in a second pass, and sorted by
      neighbour id, then kind: neighbours by name, tails before
      arrowheads here, then there.  The rows are the graph's only
      incidence structure; :func:`row_edge` makes the edge value of an
      entry for the callers that return one.  The kind sets
      ``ARROW_HERE`` and ``ARROW_THERE`` for arrowheads at the two ends
      and ``CROSSES_SCC`` when the edge joins two strong components.
    * ``scc[i]``: the label of the node's strong component (over directed
      edges), the id of one of its members; two nodes share a component
      exactly when they share a label.
    * ``adj``, ``anc``, ``desc``, ``ant``: the neighbours (over edges of
      every kind) and the reflexive ancestor, descendant and anterior
      sets of each node as int bitmasks, built on first use.  Given a
      nonempty conditioning set, the sigma search stays inside the
      ``anc`` closure of the query and the m search inside its ``ant``
      closure.
    * ``into``, ``spikes``, ``bi``, ``und``: the neighbours w of each node
      v with an arrowhead at w on an edge v - w, with one at v, over
      ``<->`` and over ``--``; bitmasks built on first use, on which the
      pair tests of ``validate`` and ``condition1`` run.
    * ``acy_bi``, ``acy_heads``, ``acy``: masks of the acyclification
      G^acy of a directed mixed graph, built on first use.  G^acy makes
      each strong component a bidirected clique, turns an edge j -> i
      that leaves sc(j) into j -> i' for every i' in sc(i), and u <-> w
      into u' <-> w' over sc(u) x sc(w).  ``acy_bi[v]`` holds v's
      bidirected neighbours there: sc(v) and sc(w) for every u <-> w with
      u in sc(v), v itself left out.  ``acy_heads[v]`` holds the nodes c
      with v *-> c: ``acy_bi[v]`` and sc(w) for every v -> w that leaves
      sc(v).  ``acy[v]`` holds all of v's neighbours and v itself:
      ``acy_heads[v]`` and the parents of sc(v) outside it.  Undirected
      edges are not read.  Sigma-separation is d-separation in G^acy, so
      no set without the two nodes separates a pair ``acy`` joins, and a
      collider chain over ``acy_heads`` and ``acy_bi`` whose interior
      lies in a conditioning set connects its ends; ``represent`` and
      ``sigma_inducing_exists`` decide pairs from them.
    """

    def __init__(self, nodes: tuple[NodeId, ...], arcs: Callable[[], Iterable[tuple[NodeId, NodeId, int]]]):
        ids = {v: i for i, v in enumerate(nodes)}
        parents: list = [[] for _ in nodes]
        children: list = [[] for _ in nodes]
        for a, b, kind in arcs():
            if kind == ARROW_THERE or kind == ARROW_HERE:
                tail, head = (ids[a], ids[b]) if kind == ARROW_THERE else (ids[b], ids[a])
                parents[head].append(tail)
                children[tail].append(head)
        parents = [tuple(sorted(p)) for p in parents]
        children = [tuple(sorted(c)) for c in children]
        order, scc = _components(children, parents)
        rows: list[list] = [[] for _ in nodes]
        for a, b, kind in arcs():
            i, j = ids[a], ids[b]
            kind |= scc[i] != scc[j]  # sets CROSSES_SCC, which is 1
            rows[i].append((j, kind))
            rows[j].append((i, _FLIP[kind]))
        self.names = nodes
        self.ids = ids
        self.rows = [tuple(sorted(row)) for row in rows]
        self.parents = parents
        self.children = children
        self.scc = scc
        self._order = order

    def _neighbours(self, heads: int, want: int) -> list[int]:  # over edges with kind & heads == want
        return [sum({1 << w for w, kind in row if kind & heads == want}) for row in self.rows]

    @cached_property
    def adj(self) -> list[int]:
        return self._neighbours(0, 0)

    @cached_property
    def pa(self) -> list[int]:
        return self._neighbours(ARROW_HERE | ARROW_THERE, ARROW_HERE)

    @cached_property
    def ch(self) -> list[int]:
        return self._neighbours(ARROW_HERE | ARROW_THERE, ARROW_THERE)

    @cached_property
    def into(self) -> list[int]:
        return self._neighbours(ARROW_THERE, ARROW_THERE)

    @cached_property
    def spikes(self) -> list[int]:
        return self._neighbours(ARROW_HERE, ARROW_HERE)

    @cached_property
    def bi(self) -> list[int]:
        return self._neighbours(ARROW_HERE | ARROW_THERE, ARROW_HERE | ARROW_THERE)

    @cached_property
    def und(self) -> list[int]:
        return self._neighbours(ARROW_HERE | ARROW_THERE, 0)

    @cached_property
    def _acyclification(self) -> tuple[list[int], list[int], list[int]]:
        """By component label, the component with its bidirected neighbours'
        components and the parents of its members; by node, its children's
        components.  Undirected edges are not read."""
        scc = self.scc
        comp = [0] * len(scc)  # members of each component, by label
        for i, k in enumerate(scc):
            comp[k] |= 1 << i
        bi, pa, out = comp[:], [0] * len(scc), [0] * len(scc)
        for i, row in enumerate(self.rows):
            for w, kind in row:
                if kind & ARROW_HERE:
                    if kind & ARROW_THERE:
                        bi[scc[i]] |= comp[scc[w]]
                    else:
                        pa[scc[i]] |= 1 << w
                elif kind & ARROW_THERE:
                    out[i] |= comp[scc[w]]
        return bi, pa, out

    @cached_property
    def acy_bi(self) -> list[int]:
        bi = self._acyclification[0]
        return [bi[k] & ~(1 << i) for i, k in enumerate(self.scc)]

    @cached_property
    def acy_heads(self) -> list[int]:
        bi, _, out = self._acyclification
        return [(bi[k] | out[i]) & ~(1 << i) for i, k in enumerate(self.scc)]

    @cached_property
    def acy(self) -> list[int]:
        bi, pa, out = self._acyclification
        return [bi[k] | pa[k] | out[i] for i, k in enumerate(self.scc)]

    @cached_property
    def anc(self) -> list[int]:
        return _reach(self.parents, self._order, self.scc)

    @cached_property
    def desc(self) -> list[int]:
        return _reach(self.children, reversed(self._order), self.scc)

    @cached_property
    def ant(self) -> list[int]:
        """Nodes with a path into the node whose every edge leaves a tail."""
        tail_in = [tuple(w for w, kind in row if not kind & ARROW_THERE) for row in self.rows]
        tail_out = [tuple(w for w, kind in row if not kind & ARROW_HERE) for row in self.rows]
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

    def closure(self, sets: list[int], frontier: int, through: int) -> int:
        """Nodes one or more steps along ``sets`` from ``frontier``, stepping on only from nodes in ``through``."""
        out = 0
        while frontier:
            step = self.union(sets, frontier) & ~out
            out |= step
            frontier = step & through
        return out

    def members(self, mask: int) -> tuple[NodeId, ...]:
        """Names in ``mask``, in sorted order."""
        return tuple(compress(self.names, _flags(mask)))

    def ids_in(self, mask: int) -> Iterator[int]:
        """Ids in ``mask``, ascending."""
        return compress(range(len(self.names)), _flags(mask))


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """One byte per node id, nonzero exactly where ``mask`` has the node."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class _Graph:
    """What both graph types share: the node checks, :meth:`of`,
    :meth:`contains_edge` and :attr:`index`.

    :meth:`of` is the one reader of edge specs.  The index is built from
    the graph's ``_arcs`` on first access and kept on the instance; its
    rows are the only incidence structure, so a graph that is only written
    or exported never builds one.  Neither the index nor the node set is a
    dataclass field, so neither takes part in equality, hashing or
    ``repr``, and the index holds no reference back to the graph.
    """

    def _set_nodes(self) -> frozenset:
        """Check the node names, sort them and keep their set, which is returned."""
        nodes = self.nodes  # a bare string is one node, as _as_nodes reads it; names are checked in input order
        node_set = frozenset(map(check_node_name, (nodes,) if isinstance(nodes, str) else nodes))
        object.__setattr__(self, "nodes", tuple(sorted(node_set)))
        object.__setattr__(self, "_node_set", node_set)
        return node_set

    @classmethod
    def of(cls, *edge_specs: str, nodes: Iterable[NodeId] = ()) -> "_Graph":
        """Build from specs like ``"a -> b"``, ``"b <- a"``, ``"a <-> b"`` and, on a mixed graph, ``"a -- b"``."""
        # Names in the order given, so that a bad name is reported in spec order, never set order.
        names = dict.fromkeys((nodes,) if isinstance(nodes, str) else nodes)

        def records():  # read lazily, so each type raises its edge errors in spec order
            for spec in edge_specs:
                parts = spec.split()
                if len(parts) != 3 or parts[1] not in _ARROW_MARKS:
                    raise InputError(f"bad edge spec: {spec!r}")
                names.update(dict.fromkeys(parts[::2]))
                yield (spec, parts[0], parts[2], *_ARROW_MARKS[parts[1]])

        edges = cls._spec_edges(records())  # the type's edge fields; reads every spec, so names is complete
        return cls(tuple(names), *edges)

    def __contains__(self, v: NodeId) -> bool:
        return v in self._node_set

    def adjacent(self, a: NodeId, b: NodeId) -> bool:
        """True when an edge joins ``a`` and ``b``; raises for an unknown ``a``."""
        self.require_nodes([a])
        ids = self.index.ids
        return b in ids and bool(self.index.adj[ids[a]] >> ids[b] & 1)

    def contains_edge(self, e: MixedEdge) -> bool:
        if not isinstance(e, MixedEdge) or e.a not in self._node_set:
            return False
        idx = self.index
        j, heads = idx.ids.get(e.b), ARROW_HERE * (e.mark_a is ARROWHEAD) + ARROW_THERE * (e.mark_b is ARROWHEAD)
        return any(w == j and kind & ~CROSSES_SCC == heads for w, kind in idx.rows[idx.ids[e.a]])

    def require_nodes(self, vs: Collection[NodeId]) -> None:
        for v in vs:
            if v not in self._node_set:
                # The least unknown node, so that the message never follows set order.
                missing = [u for u in vs if u not in self._node_set]
                raise InputError(f"unknown node: {min(missing, key=str)!r}")

    def incident_edges(self, v: NodeId) -> tuple[MixedEdge, ...]:
        """The edges at ``v``, in the order of its index row."""
        self.require_nodes([v])
        idx = self.index
        i = idx.ids[v]
        return tuple([row_edge(idx.names, i, w, kind) for w, kind in idx.rows[i]])

    @cached_property
    def index(self) -> GraphIndex:
        return GraphIndex(self.nodes, self._arcs)

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
    """Mixed graph with at most one edge per node pair and no self-loops."""

    nodes: tuple[NodeId, ...]
    edges: tuple[MixedEdge, ...]

    def __post_init__(self):
        node_set = self._set_nodes()
        pair = {}  # the first faulty edge in input order names the fault
        for e in self.edges:
            if not isinstance(e, MixedEdge):
                raise InputError(f"not a mixed edge: {e!r}")
            if e.a not in node_set or e.b not in node_set:
                raise InputError(f"edge {e} uses undeclared node")
            if (e.a, e.b) in pair:
                raise InputError(f"more than one edge between {e.a!r} and {e.b!r}")
            pair[e.a, e.b] = e
        object.__setattr__(self, "edges", tuple([pair[key] for key in sorted(pair)]))

    def _arcs(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        for e in self.edges:
            yield e.a, e.b, ARROW_HERE * (e.mark_a is ARROWHEAD) + ARROW_THERE * (e.mark_b is ARROWHEAD)

    @staticmethod
    def _spec_edges(records) -> tuple:
        return (tuple([MixedEdge(u, mark_u, v, mark_v) for _, u, v, mark_u, mark_v in records]),)

    def edge(self, a: NodeId, b: NodeId) -> MixedEdge | None:
        """The edge between ``a`` and ``b``, or None; raises for an unknown ``a``."""
        self.require_nodes([a])
        idx = self.index
        i, j = idx.ids[a], idx.ids.get(b)
        return next((row_edge(idx.names, i, w, kind) for w, kind in idx.rows[i] if w == j), None)


@dataclass(frozen=True)
class DirectedMixedGraph(_Graph):
    """Directed mixed graph; cycles and parallel edges of distinct type allowed."""

    nodes: tuple[NodeId, ...]
    directed: tuple[tuple[NodeId, NodeId], ...]
    bidirected: tuple[tuple[NodeId, NodeId], ...]

    def __post_init__(self):
        node_set = self._set_nodes()
        directed, bidirected = set(), set()
        for pairs, kept, arrow, kind in ((self.directed, directed, "->", "directed"), (self.bidirected, bidirected, "<->", "bidirected")):
            for p in pairs:
                if type(p) is not tuple or len(p) != 2 or not isinstance(p[0], str) or not isinstance(p[1], str):
                    raise InputError(f"not a {kind} edge: {p!r}")
                a, b = p
                if a == b:
                    raise InputError(f"self-loop on {a!r}")
                if a not in node_set or b not in node_set:
                    raise InputError(f"edge {a} {arrow} {b} uses undeclared node")
                kept.add((a, b) if arrow == "->" else (min(a, b), max(a, b)))
        object.__setattr__(self, "directed", tuple(sorted(directed)))
        object.__setattr__(self, "bidirected", tuple(sorted(bidirected)))

    def _arcs(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        for a, b in self.directed:
            yield a, b, ARROW_THERE
        for a, b in self.bidirected:
            yield a, b, ARROW_HERE | ARROW_THERE

    @staticmethod
    def _spec_edges(records) -> tuple:
        directed, bidirected = [], []
        for spec, u, v, mark_u, mark_v in records:
            if mark_u is mark_v is TAIL:
                raise InputError(f"undirected edge not allowed here: {spec!r}")
            (bidirected if mark_u is mark_v else directed).append((v, u) if mark_v is TAIL else (u, v))  # tail first
        return tuple(directed), tuple(bidirected)


@dataclass(frozen=True)
class ContextedDmg:
    """A directed mixed graph together with a designated selection-node set."""

    graph: DirectedMixedGraph
    selection: tuple[NodeId, ...]

    def __post_init__(self):
        _check_type(self.graph, DirectedMixedGraph, "ContextedDmg")
        selection = _as_nodes(self.selection)
        missing = [s for s in selection if s not in self.graph]
        if missing:  # the least by str, so that the message never follows set order
            raise InputError(f"selection node {min(missing, key=str)!r} is not in the graph")
        selection = tuple(sorted(selection))
        if len(selection) == len(self.graph.nodes):
            raise InputError("at least one node must be observed")
        object.__setattr__(self, "selection", selection)

    @classmethod
    def of(cls, *edge_specs: str, selection: Iterable[NodeId] = (), nodes: Iterable[NodeId] = ()) -> "ContextedDmg":
        selection = _as_nodes(selection)
        return cls(DirectedMixedGraph.of(*edge_specs, nodes=_as_nodes(nodes) | selection), selection)

    @property
    def observed(self) -> tuple[NodeId, ...]:
        sel = set(self.selection)
        return tuple(n for n in self.graph.nodes if n not in sel)
