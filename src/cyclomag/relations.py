"""Family relations and the shared path enumerator.

Ancestor, descendant, anterior and strong-component queries are the
workhorses of every other module.  Each graph answers them from its own
:class:`~cyclomag.graphs.GraphIndex`, which computes the strong
components once and the per-node closures on first use, so a query is
a union of cached sets.  All of them are reflexive where a length-zero
walk makes sense, and all of them return frozen sets.

:func:`enumerate_simple_paths` is the one depth-first scan over the
index rows.  The two path oracles and the two inducing-path listings
run it with a step rule: it stops at the first blocked step and makes a
walk only for a path it hands out.  Shortest walks are not searched
here: every shortest-walk search, witnesses included, runs on the
breadth-first search in :mod:`cyclomag.separation`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import InputError
from .graphs import NodeId, _as_nodes, _check_type, _Graph, row_edge
from .walks import Walk


def strongly_connected_components(g: _Graph) -> tuple[frozenset[NodeId], ...]:
    """Partition the nodes into strong components of the directed part.

    Two nodes share a class exactly when each reaches the other over
    directed edges; bidirected edges never contribute.  Components are
    returned sorted by their smallest member: the graph's index labels
    each node's component once, and the nodes are grouped in id order.
    """
    _check_type(g, _Graph, "strongly_connected_components")
    idx = g.index
    groups: dict[int, list[NodeId]] = {}
    for v, k in zip(idx.names, idx.scc):
        groups.setdefault(k, []).append(v)
    return tuple(map(frozenset, groups.values()))


def scc_index(g: _Graph) -> dict[NodeId, frozenset[NodeId]]:
    """Map each node to its strong component."""
    _check_type(g, _Graph, "scc_index")
    return {v: comp for comp in strongly_connected_components(g) for v in comp}


def _closure(graph: _Graph, targets: Iterable[NodeId], which: str, what: str) -> frozenset[NodeId]:
    _check_type(graph, _Graph, what)
    targets = _as_nodes(targets)
    graph.require_nodes(targets)
    idx = graph.index
    return frozenset(idx.members(idx.union(getattr(idx, which), idx.mask(targets))))


def ancestors(graph: _Graph, targets: Iterable[NodeId]) -> frozenset[NodeId]:
    """All nodes with a directed walk (length >= 0) into ``targets``.

    Reflexive: the targets are their own ancestors.  Works on both graph
    flavours; only directed edges are followed.
    """
    return _closure(graph, targets, "anc", "ancestors")


def descendants(graph: _Graph, sources: Iterable[NodeId]) -> frozenset[NodeId]:
    return _closure(graph, sources, "desc", "descendants")


def anteriors(h: _Graph, targets: Iterable[NodeId]) -> frozenset[NodeId]:
    """All nodes with a path into ``targets`` whose every edge leaves a tail.

    Such a path traverses ``--`` and ``->`` edges forwards only, so on a
    graph without undirected edges anteriors coincide with ancestors.
    Reflexive.
    """
    return _closure(h, targets, "ant", "anteriors")


def neighborhood(h: _Graph, v: NodeId) -> frozenset[NodeId]:
    """Nodes joined to ``v`` by undirected edges."""
    _check_type(h, _Graph, "neighborhood")
    h.require_nodes([v])
    idx = h.index
    return frozenset(idx.members(idx.und[idx.ids[v]]))


def neighborhood_complete(h: _Graph, v: NodeId) -> bool:
    """True when the undirected neighborhood of ``v`` forms a clique.

    Vacuously true for neighborhoods with at most one member.
    """
    _check_type(h, _Graph, "neighborhood_complete")
    h.require_nodes([v])
    idx = h.index
    nbh = idx.und[idx.ids[v]]
    return all(nbh & ~idx.und[w] == 1 << w for w in idx.ids_in(nbh))


def enumerate_simple_paths(graph: _Graph, a: NodeId, b: NodeId, *, admits: Callable | None = None) -> Iterator[Walk]:
    """Yield every simple path between ``a`` and ``b`` exactly once.

    Paths come out in lexicographic order of their node sequences, with
    parallel edges of a directed mixed graph breaking ties by edge type,
    so the stream is deterministic.  The path oracles and the
    inducing-path listings scan it; the equivalence grids sweep the
    engines instead, and :func:`~cyclomag.equivalence.discriminating_paths`
    grows its own chains.

    ``admits(prev_kind, v, kind)``, when given, tests each step as it
    is taken: from node id ``v`` over its row entry ``(w, kind)``, where
    ``prev_kind`` is the kind of the step into ``v`` (None at ``a``).  A
    failed step is never extended, so the paths whose every step is
    admitted come out, in the same order.  Each step's edge is made once
    per call, and a walk only for a path that is handed out.
    """
    _check_type(graph, _Graph, "enumerate_simple_paths")
    if a == b:
        raise InputError("path endpoints must differ")
    graph.require_nodes([a, b])
    idx = graph.index
    rows, names, start, target = idx.rows, idx.names, idx.ids[a], idx.ids[b]
    on_path = [False] * len(rows)
    on_path[start] = True
    edge_stack = []  # the edge into each node of the path after the first
    made = {}  # each step's edge value, made the first time this call takes the step
    # Per path node: its id, the kind of the step into it, and its unread row entries.
    frames = [(start, None, iter(rows[start]))]
    while frames:
        v, prev, entries = frames[-1]
        for w, kind in entries:
            if on_path[w] or admits is not None and not admits(prev, v, kind):
                continue
            key = (v * len(rows) + w) << 3 | kind
            e = made.get(key)
            if e is None:
                e = made[key] = row_edge(names, v, w, kind)
            if w == target:
                yield Walk(a, (*edge_stack, e))
                continue
            on_path[w] = True
            edge_stack.append(e)
            frames.append((w, kind, iter(rows[w])))
            break
        else:
            frames.pop()
            on_path[v] = False
            del edge_stack[-1:]
