"""Test-side m-separation references that share no code with the package's criteria.

They read a mixed graph only through ``h.nodes``, ``h.edges`` and each
edge's ends and ``mark_at``, and import nothing from ``separation``,
``relations`` or ``GraphIndex``, so a fault in a step rule, a search
table or the index cannot hide from a comparison with them.

* :func:`m_separated_augmented` decides m-separation on valid graphs
  through the augmented graph (Richardson & Spirtes 2002, Ann. Statist.,
  Thm 3.18): X and Y are m-separated given Z exactly when Z separates
  them in the undirected graph on the anterior set of X | Y | Z, whose
  links are the edges and the collider-connected pairs.
* :func:`m_open_walk_reference` is the m walk criterion written from the
  edge marks.
"""

from __future__ import annotations

from cyclomag import ARROWHEAD, TAIL


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
