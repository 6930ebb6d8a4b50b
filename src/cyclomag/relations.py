"""Family relations and the shared path enumerator.

Ancestor, descendant, anterior and strong-component queries are the
workhorses of every other module.  Each graph answers them from its own
:class:`~cyclomag.graphs.GraphIndex`, which computes the strong
components once and the per-node closures on first use, so a query is
a union of cached sets.  All of them are reflexive where a length-zero
walk makes sense, and all of them return frozen sets.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Union

from .errors import DomainError, InputError
from .graphs import ARROW_HERE, ARROW_THERE, DirectedMixedGraph, MixedGraph, NodeId
from .walks import Walk, _interior_collider_positions, check_walk

Graph = Union[DirectedMixedGraph, MixedGraph]


def strongly_connected_components(g: DirectedMixedGraph) -> tuple[frozenset[NodeId], ...]:
    """Partition the nodes into strong components of the directed part.

    Two nodes share a class exactly when each reaches the other over
    directed edges; bidirected edges never contribute.  Components are
    returned sorted by their smallest member.  The graph's index numbers
    the components once, in that order.
    """
    idx = g.index
    groups: dict[int, list[NodeId]] = {}
    for v, k in zip(idx.names, idx.scc):
        groups.setdefault(k, []).append(v)
    return tuple(map(frozenset, groups.values()))


def scc_index(g: DirectedMixedGraph) -> dict[NodeId, frozenset[NodeId]]:
    """Map each node to its strong component."""
    return {v: comp for comp in strongly_connected_components(g) for v in comp}


def _closure(graph: Graph, targets: Iterable[NodeId], which: str) -> frozenset[NodeId]:
    targets = set(targets)
    graph.require_nodes(targets)
    idx = graph.index
    return frozenset(idx.members(idx.union(getattr(idx, which), idx.mask(targets))))


def ancestors(graph: Graph, targets: Iterable[NodeId]) -> frozenset[NodeId]:
    """All nodes with a directed walk (length >= 0) into ``targets``.

    Reflexive: the targets are their own ancestors.  Works on both graph
    flavours; only directed edges are followed.
    """
    return _closure(graph, targets, "anc")


def descendants(graph: Graph, sources: Iterable[NodeId]) -> frozenset[NodeId]:
    return _closure(graph, sources, "desc")


def anteriors(h: MixedGraph, targets: Iterable[NodeId]) -> frozenset[NodeId]:
    """All nodes with a path into ``targets`` whose every edge leaves a tail.

    Such a path traverses ``--`` and ``->`` edges forwards only, so on a
    graph without undirected edges anteriors coincide with ancestors.
    Reflexive.
    """
    return _closure(h, targets, "ant")


def neighborhood(h: MixedGraph, v: NodeId) -> frozenset[NodeId]:
    """Nodes joined to ``v`` by undirected edges."""
    h.require_nodes([v])
    return frozenset(h.undirected_neighbors(v))


def neighborhood_complete(h: MixedGraph, v: NodeId) -> bool:
    """True when the undirected neighborhood of ``v`` forms a clique.

    Vacuously true for neighborhoods with at most one member.
    """
    nbh = sorted(neighborhood(h, v))
    for i, b in enumerate(nbh):
        for c in nbh[i + 1 :]:
            e = h.edge(b, c)
            if e is None or not e.is_undirected:
                return False
    return True


def shortest_directed_path(graph: Graph, source: NodeId, targets: Iterable[NodeId]) -> tuple[NodeId, ...] | None:
    """Node sequence of a shortest directed path from ``source`` into ``targets``.

    Deterministic: breadth-first with children visited in name order.
    Returns None when no target is reachable.
    """
    targets = set(targets)
    graph.require_nodes({source} | targets)
    walk = _shortest_walk(graph, source, targets, undirected=False)
    return None if walk is None else walk.nodes


def _shortest_walk(graph: Graph, source: NodeId, targets: set, undirected: bool) -> Walk | None:
    """A shortest walk from ``source`` into ``targets`` that leaves a tail at every step.

    Breadth-first in incident-edge order over directed edges, and over
    ``--`` edges too when ``undirected`` (which gives anterior paths).
    """
    idx = graph.index
    goal = idx.mask(targets)
    start = idx.ids[source]
    parent = {start: None}
    frontier = deque([start])
    end = start if goal >> start & 1 else None
    while end is None and frontier:
        v = frontier.popleft()
        for w, kind, e in idx.rows[v]:
            if kind & ARROW_HERE or not (kind & ARROW_THERE or undirected) or w in parent:
                continue
            parent[w] = (v, e)
            if goal >> w & 1:
                end = w
                break
            frontier.append(w)
    if end is None:
        return None
    edges = []
    while parent[end] is not None:
        end, e = parent[end]
        edges.append(e)
    return Walk(source, tuple(reversed(edges)))


def collider_distance_sum(h: MixedGraph, path: Walk, z: Iterable[NodeId]) -> int:
    """Sum over the path's colliders of the shortest directed distance to ``z``.

    Members of ``z`` sit at distance zero.  A collider with no directed
    path into ``z`` leaves the metric undefined and raises
    :class:`DomainError`.
    """
    z = set(z)
    h.require_nodes(z)
    check_walk(h, path)
    if not path.is_path:
        raise InputError("collider distance sum is defined for simple paths only")
    total = 0
    for k in _interior_collider_positions(path):
        v = path.nodes[k]
        seq = shortest_directed_path(h, v, z)
        if seq is None:
            raise DomainError(f"collider {v!r} has no directed path into the target set")
        total += len(seq) - 1
    return total


def enumerate_simple_paths(graph: Graph, a: NodeId, b: NodeId) -> Iterator[Walk]:
    """Yield every simple path between ``a`` and ``b`` exactly once.

    Paths come out in lexicographic order of their node sequences, with
    parallel edges of a directed mixed graph breaking ties by edge type,
    so the stream is deterministic.  This enumerator is the single
    substrate behind all exhaustive oracles in the package.
    """
    if a == b:
        raise InputError("path endpoints must differ")
    graph.require_nodes([a, b])
    idx = graph.index
    rows, target = idx.rows, idx.ids[b]
    on_path = [False] * len(rows)
    on_path[idx.ids[a]] = True
    node_stack = []
    edge_stack = []
    frame_stack = [iter(rows[idx.ids[a]])]
    while frame_stack:
        for w, _, e in frame_stack[-1]:
            if on_path[w]:
                continue
            if w == target:
                yield Walk(a, (*edge_stack, e))
                continue
            on_path[w] = True
            node_stack.append(w)
            edge_stack.append(e)
            frame_stack.append(iter(rows[w]))
            break
        else:
            frame_stack.pop()
            if node_stack:
                on_path[node_stack.pop()] = False
                edge_stack.pop()
