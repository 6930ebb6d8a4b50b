"""Separation criteria and inducing-path predicates.

Two criteria live here:

* sigma-separation on directed mixed graphs, where a non-collider can
  only block a walk if some of its on-walk out-edges leave its strong
  component, and
* m-separation on mixed graphs, which adds the unconditional rule that
  an arrowhead may never meet an undirected edge along a walk.

Each criterion ships in two independent implementations: a polynomial
reachability engine over (node, incoming edge shape) states, and an
exhaustive simple-path oracle used to audit the engine at desk scale.
The two engines are one breadth-first search over the graph's
:class:`~cyclomag.graphs.GraphIndex`, run with a different pair of
transition rules.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import InputError, OracleCapError
from .graphs import (
    ARROW_HERE,
    ARROW_THERE,
    ARROWHEAD,
    CROSSES_SCC,
    TAIL,
    DirectedEdge,
    DirectedMixedGraph,
    GraphIndex,
    MixedGraph,
    NodeId,
)
from .relations import (
    ancestors,
    _shortest_walk,
    anteriors,
    enumerate_simple_paths,
    scc_index,
)
from .walks import Walk, check_walk

DEFAULT_PATH_ORACLE_CAP = 12
DEFAULT_GRID_ORACLE_CAP = 8
ORACLE_CAP_ENV = "CYCLOMAG_ORACLE_CAP"


def resolve_oracle_cap(explicit: int | None, default: int) -> int:
    """Explicit argument wins, then the environment override, then the default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(ORACLE_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"{ORACLE_CAP_ENV} must be an integer, got {env!r}") from None
    return default


def _check_cap(n_nodes: int, explicit: int | None, default: int, what: str) -> None:
    cap = resolve_oracle_cap(explicit, default)
    if n_nodes > cap:
        raise OracleCapError(
            f"{what} is capped at {cap} nodes but the graph has {n_nodes}; "
            f"pass cap= or set {ORACLE_CAP_ENV} to override"
        )


def _as_nodes(v) -> frozenset:
    if isinstance(v, str):
        return frozenset((v,))
    return frozenset(v)


@dataclass(frozen=True)
class SeparationQuery:
    """A separation question: is ``x`` separated from ``y`` given ``z``?

    Members of ``x`` or ``y`` that also lie in ``z`` are permitted; they
    simply contribute no open walks because walk endpoints are blockable.
    """

    x: frozenset
    y: frozenset
    z: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "x", _as_nodes(self.x))
        object.__setattr__(self, "y", _as_nodes(self.y))
        object.__setattr__(self, "z", _as_nodes(self.z))
        if not self.x or not self.y:
            raise InputError("query sets x and y must be nonempty")


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    witness: Walk | None = None


def _validated(graph, query: SeparationQuery):
    graph.require_nodes(query.x | query.y | query.z)
    return set(query.x), set(query.y), set(query.z)


# ---------------------------------------------------------------------------
# sigma-separation (directed mixed graphs)
# ---------------------------------------------------------------------------


def sigma_open_walk(g: DirectedMixedGraph, walk: Walk, z: Iterable[NodeId]) -> bool:
    """Walk-level sigma criterion.

    Open given ``z`` when every collider is an ancestor of ``z`` and no
    blockable non-collider lies in ``z``.  Endpoints are always
    blockable; an interior non-collider is unblockable exactly when all
    of its on-walk out-edges stay inside its strong component.
    """
    z = set(z)
    g.require_nodes(z)
    check_walk(g, walk)
    return _sigma_walk_open(walk, z, ancestors(g, z), scc_index(g))


def _sigma_walk_open(walk: Walk, z: set, anc_z: frozenset, scc: dict) -> bool:
    """:func:`sigma_open_walk` without input checks, given Anc(z) and the component map."""
    nodes, edges = walk.nodes, walk.edges
    if nodes[0] in z or nodes[-1] in z:
        return False
    for k in range(1, len(edges)):
        v = nodes[k]
        m_in = edges[k - 1].mark_at(v)
        m_out = edges[k].mark_at(v)
        if m_in is ARROWHEAD and m_out is ARROWHEAD:
            if v not in anc_z:
                return False
        elif v in z:
            blockable = (m_in is TAIL and nodes[k - 1] not in scc[v]) or (
                m_out is TAIL and nodes[k + 1] not in scc[v]
            )
            if blockable:
                return False
    return True


def sigma_open_path_segments(g: DirectedMixedGraph, path: Walk, z: Iterable[NodeId]) -> bool:
    """Segment-level sigma criterion for simple paths.

    The path is split into maximal same-component segments and blocked
    when (a) an outer endpoint lies in ``z``, (b) a segment endpoint
    with a directed path-edge leaving its segment lies in ``z``, or (c)
    a segment contains a collider while its whole component misses the
    ancestors of ``z``.  Agrees with :func:`sigma_open_walk` on paths.
    """
    z = set(z)
    g.require_nodes(z)
    check_walk(g, path)
    if not path.is_path:
        raise InputError("the segment criterion is defined for simple paths only")
    scc = scc_index(g)
    return _sigma_segments_open(path, z, scc, {scc[v] for v in ancestors(g, z)})


def _sigma_segments_open(path: Walk, z: set, scc: dict, lit: set) -> bool:
    """:func:`sigma_open_path_segments` without input checks.

    ``scc`` maps each node to its strong component and ``lit`` holds the
    components that meet the ancestors of ``z``.  Segment boundaries are
    exactly the path edges whose endpoints lie in different components,
    so the rules are checked edge by edge.
    """
    nodes, edges = path.nodes, path.edges
    if nodes[0] in z or nodes[-1] in z:
        return False
    for k, e in enumerate(edges):
        u = nodes[k]
        if isinstance(e, DirectedEdge) and e.tail in z and nodes[k + 1] not in scc[u]:
            return False
        if k and scc[u] not in lit and edges[k - 1].mark_at(u) is ARROWHEAD and e.mark_at(u) is ARROWHEAD:
            return False
    return True


def sigma_separated(g: DirectedMixedGraph, query: SeparationQuery) -> SeparationVerdict:
    """Reachability engine for sigma-separation.

    Returns a verdict carrying an open path witness whenever the sets
    are connected.  Walk connectivity and path connectivity coincide, so
    the witness is obtained by reducing the discovered walk to a path.
    """
    return _separation(g, query, _SIGMA)


def _sigma_walk_to_path(g: DirectedMixedGraph, walk: Walk, scc) -> Walk:
    """Reduce an open walk to an open path without losing openness.

    Repeated visits always happen inside one strong component, so the
    detour between the first and last visit of that component can be
    replaced by a shortest directed path within it, oriented to match
    the edge that follows.  Each pass removes at least one repeated
    node, so the loop terminates.
    """
    guard = len(walk.nodes) + 2
    while not walk.is_path:
        guard -= 1
        if guard < 0:  # pragma: no cover - the reduction provably converges
            raise AssertionError("sigma walk-to-path reduction did not converge")
        nodes = walk.nodes
        seen: set = set()
        rep = None
        for v in nodes:
            if v in seen:
                rep = v
                break
            seen.add(v)
        comp = scc[rep]
        i = next(k for k, v in enumerate(nodes) if v in comp)
        j = max(k for k, v in enumerate(nodes) if v in comp)
        vi, vj = nodes[i], nodes[j]
        if j == len(nodes) - 1 or walk.edges[j].mark_at(vj) is TAIL:
            mid = _shortest_walk(g, vi, {vj}, undirected=False).edges
        else:
            mid = _shortest_walk(g, vj, {vi}, undirected=False).edges[::-1]
        walk = Walk(nodes[0], walk.edges[:i] + mid + walk.edges[j:])
    return walk


def sigma_separated_oracle(
    g: DirectedMixedGraph, query: SeparationQuery, cap: int | None = None
) -> SeparationVerdict:
    """Exhaustive oracle: scan every simple path with the segment criterion.

    Sound because an open walk exists iff an open path does.  Intended
    for desk-scale verification; refuses graphs above the size cap.
    """

    def open_given(z):
        scc = scc_index(g)
        lit = {scc[v] for v in ancestors(g, z)}
        return lambda path: _sigma_segments_open(path, z, scc, lit)

    return _path_oracle(g, query, cap, "the sigma path oracle", open_given)


def _path_oracle(graph, query: SeparationQuery, cap: int | None, what: str, open_given) -> SeparationVerdict:
    """The first open simple path in name order; ``open_given(z)`` builds the per-path test once."""
    _check_cap(len(graph.nodes), cap, DEFAULT_PATH_ORACLE_CAP, what)
    x, y, z = _validated(graph, query)
    overlap = sorted((x & y) - z)
    if overlap:
        return SeparationVerdict(False, Walk(overlap[0]))
    is_open = open_given(z)
    for a in sorted(x - z):
        for b in sorted(y - z):
            if a == b:
                continue
            for path in enumerate_simple_paths(graph, a, b):
                if is_open(path):
                    return SeparationVerdict(False, path)
    return SeparationVerdict(True)


# ---------------------------------------------------------------------------
# m-separation (mixed graphs)
# ---------------------------------------------------------------------------


def m_open_walk(h: MixedGraph, walk: Walk, z: Iterable[NodeId]) -> bool:
    """Walk-level m criterion.

    Open given ``z`` when no non-collider (endpoints included) lies in
    ``z``, every collider is an ancestor of ``z`` over the directed
    edges, and no arrowhead meets an undirected edge along the walk.
    """
    z = set(z)
    h.require_nodes(z)
    check_walk(h, walk)
    return _m_walk_open(walk, z, ancestors(h, z))


def _m_walk_open(walk: Walk, z: set, anc_z: frozenset) -> bool:
    """:func:`m_open_walk` without input checks, given the ancestors of ``z``."""
    nodes, edges = walk.nodes, walk.edges
    if nodes[0] in z or nodes[-1] in z:
        return False
    for k in range(1, len(edges)):
        v = nodes[k]
        e1, e2 = edges[k - 1], edges[k]
        m1, m2 = e1.mark_at(v), e2.mark_at(v)
        if (m1 is ARROWHEAD and e2.is_undirected) or (e1.is_undirected and m2 is ARROWHEAD):
            return False
        if m1 is ARROWHEAD and m2 is ARROWHEAD:
            if v not in anc_z:
                return False
        elif v in z:
            return False
    return True


def m_separated(h: MixedGraph, query: SeparationQuery) -> SeparationVerdict:
    """Reachability engine for m-separation over walks.

    The witness is reduced to a simple path whenever possible (always,
    on graphs that pass validity checking); for badly malformed graphs
    where some connected pair admits open walks but no open path, the
    open walk itself is returned.
    """
    return _separation(h, query, _M)


def _m_walk_to_path(h: MixedGraph, walk: Walk, z: set, anc_z: frozenset) -> Walk | None:
    """Reduce an m-open walk to an m-open path.

    Works by repeatedly merging the first and last visit of a repeated
    node.  When the merge would put an arrowhead against an undirected
    edge, the undirected run is bypassed through the shortcut edge that
    triples of the form arrowhead-into-undirected force to exist in any
    graph that passes validity checking.  Returns None when a needed
    shortcut is missing (possible only on invalid graphs); the caller
    falls back to path enumeration.
    """
    guard = len(walk.edges) + 2
    while not walk.is_path:
        guard -= 1
        if guard < 0:
            return None
        nodes = walk.nodes
        n_last = len(nodes) - 1
        seen: set = set()
        rep = None
        for v in nodes:
            if v in seen:
                rep = v
                break
            seen.add(v)
        i = nodes.index(rep)
        j = n_last - tuple(reversed(nodes)).index(rep)
        if i == 0 and j == n_last:
            return None
        if i == 0:
            walk = walk.subwalk(j, n_last)
            continue
        if j == n_last:
            walk = walk.subwalk(0, i)
            continue
        e_in, e_out = walk.edges[i - 1], walk.edges[j]
        m_in, m_out = e_in.mark_at(rep), e_out.mark_at(rep)
        if e_in.is_undirected and m_out is ARROWHEAD:
            k = i
            while k > 0 and walk.edges[k - 1].is_undirected:
                k -= 1
            vk, vj1 = nodes[k], nodes[j + 1]
            shortcut = h.edge(vk, vj1) if vk != vj1 else None
            if shortcut is None or shortcut.mark_at(vk) is not ARROWHEAD:
                return None
            walk = Walk(nodes[0], walk.edges[:k] + (shortcut,) + walk.edges[j + 1 :])
            continue
        if m_in is ARROWHEAD and e_out.is_undirected:
            r = j
            while r < n_last and walk.edges[r].is_undirected:
                r += 1
            vi1, vr = nodes[i - 1], nodes[r]
            shortcut = h.edge(vi1, vr) if vi1 != vr else None
            if shortcut is None or shortcut.mark_at(vr) is not ARROWHEAD:
                return None
            walk = Walk(nodes[0], walk.edges[: i - 1] + (shortcut,) + walk.edges[r:])
            continue
        # Plain merge.  If the merged node becomes a collider it is an
        # ancestor of z (an open walk that enters it with an arrowhead
        # continues with directed edges until a collider that is one);
        # if it stays a non-collider it avoided z at one occurrence.
        if m_in is ARROWHEAD and m_out is ARROWHEAD and rep not in anc_z:
            return None
        walk = Walk(nodes[0], walk.edges[:i] + walk.edges[j:])
    return walk if _m_walk_open(walk, z, anc_z) else None


def _m_witness(h: MixedGraph, walk: Walk, z: set, anc_z: frozenset, limit: int = 200_000) -> Walk:
    """An open path for an open walk: by reduction, else the first of up to
    ``limit`` enumerated paths, else the walk itself."""
    witness = _m_walk_to_path(h, walk, z, anc_z)
    if witness is not None:
        return witness
    if walk.start != walk.end:
        for count, path in enumerate(enumerate_simple_paths(h, walk.start, walk.end), 1):
            if count > limit:
                break
            if _m_walk_open(path, z, anc_z):
                return path
    return walk


def m_separated_oracle(
    h: MixedGraph, query: SeparationQuery, cap: int | None = None
) -> SeparationVerdict:
    """Exhaustive oracle: scan every simple path with the walk criterion."""

    def open_given(z):
        anc_z = ancestors(h, z)
        return lambda path: _m_walk_open(path, z, anc_z)

    return _path_oracle(h, query, cap, "the m path oracle", open_given)


# ---------------------------------------------------------------------------
# the shared reachability engine
# ---------------------------------------------------------------------------

# Both engines search one finite state space: a node together with the
# shape of the edge the walk arrived on, encoded as 4 * node id + shape.
# A criterion is two rules over an edge's kind (the bits of a graph index
# row: arrowhead here, arrowhead there, crosses strong components).
# ``arrival`` gives the shape the edge leaves at its far end; ``passes``
# decides whether a walk that reached v with a given shape may leave over
# the edge, given v's standing: outside Anc(z), in Anc(z) but not z, or
# in z.  Every blocking rule is local to these, so breadth-first search
# over the states decides exactly whether an open walk exists.  Rows are
# read in incident-edge order, which fixes the witnesses.
_ARROW = 0
_OUTSIDE, _IN_ANC, _IN_Z = 0, 1, 2

# sigma shapes: arrowhead, tail within the node's strong component, or
# tail crossing components.  With the tail cases apart, a collider needs
# only Anc(z), and a non-collider in z is blockable iff one of its
# on-walk out-edges leaves its component; both out-edges are seen here.
_S_TAIL_WITHIN, _S_TAIL_CROSS = 1, 2


def _sigma_arrival(there: bool, undirected: bool, cross: bool) -> int:
    return _ARROW if there else _S_TAIL_CROSS if cross else _S_TAIL_WITHIN


def _sigma_passes(shape: int, here: bool, undirected: bool, cross: bool, standing: int) -> bool:
    if shape == _ARROW and here:
        return standing != _OUTSIDE
    return standing != _IN_Z or not (shape == _S_TAIL_CROSS or (not here and cross))


# m shapes: arrowhead, tail of a directed edge, or undirected edge.  The
# last two differ because an arrowhead may never meet an undirected edge.
_M_TAIL, _M_UNDIR = 1, 2


def _m_arrival(there: bool, undirected: bool, cross: bool) -> int:
    return _ARROW if there else _M_UNDIR if undirected else _M_TAIL


def _m_passes(shape: int, here: bool, undirected: bool, cross: bool, standing: int) -> bool:
    if (shape == _ARROW and undirected) or (shape == _M_UNDIR and here):
        return False
    if shape == _ARROW and here:
        return standing != _OUTSIDE
    return standing != _IN_Z


def _criterion(arrival, passes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per edge kind: the arrival shape, and a mask whose bit
    4 * standing + shape is set where the edge may be taken."""
    arrive, masks = [], []
    for kind in range(8):
        here, there, cross = bool(kind & ARROW_HERE), bool(kind & ARROW_THERE), bool(kind & CROSSES_SCC)
        undirected = not here and not there
        arrive.append(arrival(there, undirected, cross))
        mask = 0
        for standing, shape in product(range(3), range(3)):
            mask |= passes(shape, here, undirected, cross, standing) << (4 * standing + shape)
        masks.append(mask)
    return tuple(arrive), tuple(masks)


_SIGMA = _criterion(_sigma_arrival, _sigma_passes)
_M = _criterion(_m_arrival, _m_passes)


def _search(idx: GraphIndex, crit: tuple, sources, goal: int, z: int, anc_z: int):
    """Breadth-first search from the ``sources`` ids over node bitmasks.

    Returns the first goal state reached, or None, and the parent map.
    The queue is first-in first-out, so testing states as they are
    pushed finds the same goal state, with the same parents, as testing
    them as they are popped.
    """
    rows, (arrive, passes) = idx.rows, crit
    parent: dict[int, tuple] = {}
    queue: deque[int] = deque()
    for a in sources:
        for w, kind, e in rows[a]:
            st = w << 2 | arrive[kind]
            if st not in parent:
                parent[st] = (None, e, a)
                if goal >> w & 1:
                    return st, parent
                queue.append(st)
    while queue:
        st = queue.popleft()
        v = st >> 2
        standing = _IN_Z if z >> v & 1 else anc_z >> v & 1  # else _IN_ANC (1) or _OUTSIDE (0)
        bit = 1 << (4 * standing + (st & 3))
        for w, kind, e in rows[v]:
            if passes[kind] & bit:
                nxt = w << 2 | arrive[kind]
                if nxt not in parent:
                    parent[nxt] = (st, e, v)
                    if goal >> w & 1:
                        return nxt, parent
                    queue.append(nxt)
    return None, parent


def _reconstruct(idx: GraphIndex, parent: dict, goal: int) -> Walk:
    edges_rev = []
    st = goal
    while True:
        prev, e, frm = parent[st]
        edges_rev.append(e)
        if prev is None:
            return Walk(idx.names[frm], tuple(reversed(edges_rev)))
        st = prev


def _separation(graph, query: SeparationQuery, crit: tuple) -> SeparationVerdict:
    x, y, z = _validated(graph, query)
    overlap = sorted((x & y) - z)
    if overlap:
        return SeparationVerdict(False, Walk(overlap[0]))
    idx = graph.index
    z_mask = idx.mask(z)
    anc_z = idx.union(idx.anc, z_mask) if z else 0  # an empty z needs no ancestor sets
    sources = sorted(idx.ids[a] for a in x - z)
    goal, parent = _search(idx, crit, sources, idx.mask(y) & ~z_mask, z_mask, anc_z)
    if goal is None:
        return SeparationVerdict(True)
    walk = _reconstruct(idx, parent, goal)
    if not walk.is_path and crit is _SIGMA:
        walk = _sigma_walk_to_path(graph, walk, scc_index(graph))
    elif not walk.is_path:
        walk = _m_witness(graph, walk, z, frozenset(idx.members(anc_z)))
    return SeparationVerdict(False, walk)


# ---------------------------------------------------------------------------
# inducing paths
# ---------------------------------------------------------------------------


def _check_inducing_args(graph, s: set, a: NodeId, b: NodeId) -> None:
    graph.require_nodes(s | {a, b})
    if a == b:
        raise InputError("inducing-path endpoints must differ")
    if a in s or b in s:
        raise InputError("inducing-path endpoints may not be selection nodes")


def sigma_inducing_paths(
    g: DirectedMixedGraph, s: Iterable[NodeId], a: NodeId, b: NodeId
) -> tuple[Walk, ...]:
    """Every simple path between ``a`` and ``b`` that no admissible set blocks.

    Qualifying paths have all colliders among the ancestors of the
    endpoints and ``s``, and every interior non-collider unblockable.
    End marks can be read off each returned walk via ``is_into``.
    """
    s = set(s)
    _check_inducing_args(g, s, a, b)
    scc = scc_index(g)
    anc_ends = ancestors(g, {a, b} | s)
    # Open given all of its interior nodes, with colliders allowed anywhere in anc_ends.
    paths = enumerate_simple_paths(g, a, b)
    return tuple(p for p in paths if _sigma_walk_open(p, set(p.nodes[1:-1]), anc_ends, scc))


def sigma_inducing_exists(
    g: DirectedMixedGraph, s: Iterable[NodeId], a: NodeId, b: NodeId
) -> bool:
    """Decide existence without enumeration.

    The endpoints admit such a path exactly when they stay connected
    after conditioning on all ancestors of the endpoints and ``s``
    (other than the endpoints themselves) together with ``s``.  That
    equivalence holds on every directed mixed graph, which keeps this
    check polynomial.
    """
    s = set(s)
    _check_inducing_args(g, s, a, b)
    idx = g.index
    ia, ib = idx.ids[a], idx.ids[b]
    z = (idx.anc[ia] | idx.anc[ib] | idx.union(idx.anc, idx.mask(s))) & ~(1 << ia | 1 << ib)
    return not sigma_separated(g, SeparationQuery((a,), (b,), idx.members(z))).separated


def inducing_paths(h: MixedGraph, a: NodeId, b: NodeId) -> tuple[Walk, ...]:
    """Simple paths whose interior nodes are all colliders and all
    ancestors of the endpoints (over the directed edges of ``h``)."""
    return tuple(_iter_inducing_paths(h, a, b))


def _iter_inducing_paths(h: MixedGraph, a: NodeId, b: NodeId) -> Iterator[Walk]:
    _check_inducing_args(h, set(), a, b)
    anc_ends = ancestors(h, {a, b})
    # Open given every interior node exactly when each of them is a
    # collider in anc_ends: a collider never meets an undirected edge.
    for path in enumerate_simple_paths(h, a, b):
        if _m_walk_open(path, set(path.nodes[1:-1]), anc_ends):
            yield path


def inducing_exists(h: MixedGraph, a: NodeId, b: NodeId) -> bool:
    """Nonemptiness of :func:`inducing_paths`, with a polynomial pre-check.

    Any inducing path keeps the endpoints connected no matter what the
    conditioning set is, so separation given the anterior set of the
    endpoints rules one out immediately.  Only when that connectivity
    test passes do we enumerate to confirm.
    """
    _check_inducing_args(h, set(), a, b)
    z = set(anteriors(h, {a, b})) - {a, b}
    if m_separated(h, SeparationQuery((a,), (b,), z)).separated:
        return False
    for _ in _iter_inducing_paths(h, a, b):
        return True
    return False


def canonical_inducing_separator(h: MixedGraph, a: NodeId, b: NodeId) -> frozenset:
    """The conditioning set that decides inseparability of a node pair.

    On graphs that pass validity checking, ``a`` and ``b`` stay
    connected given this set exactly when an inducing path joins them.
    The set consists of the anteriors of the two endpoints, the
    endpoints themselves excluded.
    """
    return frozenset(anteriors(h, {a, b}) - {a, b})

