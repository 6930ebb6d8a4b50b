"""Test-side separation references that share no code with the package's criteria.

They read a mixed graph only through ``h.nodes``, ``h.edges`` and each
edge's ends and ``mark_at``, a directed mixed graph only through
``g.nodes``, ``g.directed`` and ``g.bidirected``, and a walk through its
nodes and its edges' marks.  They import nothing from ``separation``,
``relations`` or ``GraphIndex``, so a fault in a step rule, a search
table or the index cannot hide from a comparison with them.  Each
criterion of the package has one rule, shared by its engine, its oracle
and its walk predicate; these references are what audits the rules.

* :func:`m_separated_augmented` decides m-separation on valid graphs
  through the augmented graph (Richardson & Spirtes 2002, Ann. Statist.,
  Thm 3.18): X and Y are m-separated given Z exactly when Z separates
  them in the undirected graph on the anterior set of X | Y | Z, whose
  links are the edges and the collider-connected pairs.
* :func:`m_open_walk_reference` is the m walk criterion written from the
  edge marks.
* :func:`sigma_open_path_segments_reference` is the segment form of
  sigma-separation on simple paths (Forré & Mooij 2017,
  arXiv:1710.08775), with strong components computed here.
"""

from __future__ import annotations

from functools import lru_cache

from cyclomag import ARROWHEAD, TAIL, InputError, MixedEdge


def _incidence(h) -> dict:
    """Per node, its ``(edge, other end)`` pairs."""
    inc = {v: [] for v in h.nodes}
    for e in h.edges:
        inc[e.a].append((e, e.b))
        inc[e.b].append((e, e.a))
    return inc


def _reach(inc: dict, start, step, inside=None) -> set:
    """``start`` and every node reached from it over an edge ``e`` from v to u
    with ``step(e, v, u)``, staying inside ``inside`` when it is given."""
    seen, stack = set(start), list(start)
    while stack:
        v = stack.pop()
        for e, u in inc[v]:
            if u not in seen and (inside is None or u in inside) and step(e, v, u):
                seen.add(u)
                stack.append(u)
    return seen


def _anteriors(inc: dict, nodes) -> set:
    """The nodes with a path into ``nodes`` of undirected edges and edges pointing along it."""
    return _reach(inc, nodes, lambda e, v, u: e.mark_at(u) is TAIL)


def _ancestors(inc: dict, nodes) -> set:
    return _reach(inc, nodes, lambda e, v, u: e.mark_at(u) is TAIL and e.mark_at(v) is ARROWHEAD)


def m_separated_augmented(h, x, y, z) -> bool:
    """Whether ``z`` m-separates ``x`` from ``y`` in ``h``, a graph that passes validity checking.

    Two nodes of the anterior set A are collider-connected when a path
    a *-> c1 <-> ... <-> ck <-* b joins them with every ci in A, so when
    both point into one bidirected component of A.  Members of x or y
    inside z connect nothing, as in the package's queries.
    """
    x, y, z = set(x), set(y), set(z)
    inc = _incidence(h)
    keep = _anteriors(inc, x | y | z)
    links = {v: {u for e, u in inc[v] if u in keep} for v in keep}
    # Each bidirected component of A, with the nodes that have an edge
    # pointing into it, joins those nodes pairwise.
    seen = set()
    for c in keep:
        if c not in seen:
            part = _reach(inc, {c}, lambda e, v, u: e.mark_at(v) is e.mark_at(u) is ARROWHEAD, keep)
            seen |= part
            into = {u for v in part for e, u in inc[v] if u in keep and e.mark_at(v) is ARROWHEAD}
            for u in into:
                links[u] |= into - {u}
    reached = _reach({v: [(None, u) for u in links[v]] for v in keep}, x - z, lambda *_: True, keep - z)
    return not reached & (y - z)


def m_open_walk_reference(h, walk, z) -> bool:
    """Whether ``walk`` is m-open given ``z``: its ends lie outside z, no
    arrowhead meets an undirected edge, every collider is an ancestor of z
    over the directed edges, and no other interior node lies in z."""
    z = set(z)
    nodes, edges = walk.nodes, walk.edges
    if nodes[0] in z or nodes[-1] in z:
        return False
    anc_z = _ancestors(_incidence(h), z)
    for u, v, w, e, f in zip(nodes, nodes[1:], nodes[2:], edges, edges[1:]):
        into, out = e.mark_at(v) is ARROWHEAD, f.mark_at(v) is ARROWHEAD
        if into and f.mark_at(v) is f.mark_at(w) is TAIL or out and e.mark_at(u) is e.mark_at(v) is TAIL:
            return False
        if (v not in anc_z) if into and out else (v in z):
            return False
    return True


def sigma_open_path_segments_reference(g, path, z) -> bool:
    """Whether the simple ``path`` of the directed mixed graph ``g`` is sigma-open given ``z``.

    The path is cut into segments, the maximal runs of nodes in one strong
    component of ``g``, and is blocked when (a) an end lies in z, (b) a
    directed path edge that leaves its segment has its tail in z, or (c) a
    segment holds a collider while its whole component misses the
    ancestors of z.  A walk that repeats a node, or an edge ``g`` lacks, is
    refused.
    """
    nodes, edges, z = path.nodes, path.edges, set(z)
    if len(set(nodes)) != len(nodes):
        raise InputError("the segment criterion is defined for simple paths only")
    listed, parents, component = _dmg_parts(g)
    foreign = [e for e in edges if e not in listed]
    if foreign:
        raise InputError(f"walk edge {foreign[0]} is not in the graph")
    if nodes[0] in z or nodes[-1] in z:
        return False
    for u, w, e in zip(nodes, nodes[1:], edges):
        if component[u] != component[w] and any(e.mark_at(t) is TAIL and t in z for t in (u, w)):
            return False
    anc_z = _reach(parents, z, lambda *_: True)
    for v, e, f in zip(nodes[1:], edges, edges[1:]):
        if e.mark_at(v) is f.mark_at(v) is ARROWHEAD and not component[v] & anc_z:
            return False
    return True


@lru_cache(maxsize=64)
def _dmg_parts(g) -> tuple:
    """The edges of the directed mixed graph ``g`` as edge values, each
    node's parents in the form :func:`_reach` reads, and each node's
    strong component, the nodes that are both its ancestors and its
    descendants."""
    listed = {MixedEdge.directed(t, h) for t, h in g.directed} | {MixedEdge.bidirected(a, b) for a, b in g.bidirected}
    parents = {v: [] for v in g.nodes}
    children = {v: [] for v in g.nodes}
    for t, h in g.directed:
        parents[h].append((None, t))
        children[t].append((None, h))
    component = {
        v: frozenset(_reach(parents, {v}, lambda *_: True) & _reach(children, {v}, lambda *_: True)) for v in g.nodes
    }
    return listed, parents, component
