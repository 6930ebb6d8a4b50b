"""Separation criteria and inducing-path predicates.

Two criteria live here:

* sigma-separation on directed mixed graphs, where a non-collider can
  only block a walk if some of its on-walk out-edges leave its strong
  component, and
* m-separation on mixed graphs, which adds the unconditional rule that
  an arrowhead may never meet an undirected edge along a walk.

Each criterion is one node rule, a step rule over the kinds of a node's
two walk edges and the masks of z and Anc(z).  It is run three ways: by
a polynomial reachability engine over (node, arrival shape) states, whose
search table :func:`_criterion` derives from the rule; by an exhaustive
simple-path oracle used to audit the engine at desk scale; and by the
public walk predicates.  Each engine thus shares its rule with its
oracle, so their differential audits the search, and the tests'
references, which share no code with this module, audit the rules.  Both
engines are one breadth-first search over the graph's
:class:`~cyclomag.graphs.GraphIndex`; with three more rules it finds the
shortest anterior paths, inducing paths and discriminating paths that
``validate`` and ``condition1`` return as witnesses.

The oracles and the inducing-path listings run one depth-first scan,
:func:`~cyclomag.relations.enumerate_simple_paths`, with the rule as its
step test, so a path is dropped at its first blocked step and a walk is
made only for a path that is handed out.  The walk predicates fold the
same rules over a walk's steps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Iterable, Iterator

from .errors import InputError, OracleCapError
from .graphs import (
    ARROW_HERE,
    ARROW_THERE,
    ARROWHEAD,
    CROSSES_SCC,
    DirectedMixedGraph,
    GraphIndex,
    MixedGraph,
    NodeId,
    _as_nodes,
    _check_type,
    _Graph,
    row_edge,
)
from .relations import anteriors, enumerate_simple_paths
from .walks import Walk, check_walk

DEFAULT_PATH_ORACLE_CAP = 12
DEFAULT_GRID_ORACLE_CAP = 8
ORACLE_CAP_ENV = "CYCLOMAG_ORACLE_CAP"


def _check_cap(n_nodes: int, default: int, what: str) -> None:
    """Refuse more than cap nodes: ``CYCLOMAG_ORACLE_CAP`` when it is set, else ``default``.

    Every exhaustive oracle and listing checks here, so the variable is their one override."""
    env = os.environ.get(ORACLE_CAP_ENV)
    try:
        cap = default if env is None else int(env)
    except ValueError:
        raise InputError(f"{ORACLE_CAP_ENV} must be an integer, got {env!r}") from None
    if n_nodes > cap:
        raise OracleCapError(
            f"{what} is capped at {cap} nodes but the graph has {n_nodes}; "
            f"set {ORACLE_CAP_ENV} to override"
        )


@dataclass(frozen=True, init=False, slots=True)
class SeparationQuery:
    """A separation question: is ``x`` separated from ``y`` given ``z``?

    Each set may be given as one bare node name.  Members of ``x`` or
    ``y`` that also lie in ``z`` are permitted; they simply contribute no
    open walks because walk endpoints are blockable.
    """

    x: frozenset
    y: frozenset
    z: frozenset

    def __init__(self, x, y, z=frozenset()):
        x, y, z = _as_nodes(x), _as_nodes(y), _as_nodes(z)  # all three before the emptiness check
        if not x or not y:
            raise InputError("query sets x and y must be nonempty")
        set_field = object.__setattr__  # the fields are frozen
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "z", z)


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    witness: Walk | None = None


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
    _check_type(g, DirectedMixedGraph, "sigma_open_walk")
    return _walk_open(g, walk, z, _sigma_walk_step)


def _walk_open(graph: _Graph, walk: Walk, z: Iterable[NodeId], rule) -> bool:
    """Whether the walk's ends lie outside ``z`` and the step ``rule`` admits its every step.

    ``z`` is checked before the walk.  A step's kind is read off the edge's
    marks from the node it leaves, with ``CROSSES_SCC`` as in the index rows."""
    z = _as_nodes(z)
    graph.require_nodes(z)
    check_walk(graph, walk)
    idx, nodes = graph.index, walk.nodes
    zm, ids, scc = idx.mask(z), [idx.ids[v] for v in nodes], idx.scc
    prev, anc_z = None, idx.union(idx.anc, zm)
    for u, w, i, j, e in zip(nodes, nodes[1:], ids, ids[1:], walk.edges):
        kind = ARROW_HERE * (e.mark_at(u) is ARROWHEAD) | ARROW_THERE * (e.mark_at(w) is ARROWHEAD) | (scc[i] != scc[j])
        if not rule(zm, anc_z, prev, i, kind):
            return False
        prev = kind
    return not (zm >> ids[0] | zm >> ids[-1]) & 1


# Each criterion is one step rule ``rule(z, anc_z, prev_kind, v, kind)``
# over the node masks of z and Anc(z), deciding node v.  Bound to the
# masks, a rule is the ``admits`` of
# :func:`~cyclomag.relations.enumerate_simple_paths`, so the arrowhead at v
# is ``prev_kind & ARROW_THERE`` coming in and ``kind & ARROW_HERE`` going
# out; :func:`_criterion` builds the engines' search table from it.  The
# sigma and m rules enter a walk's start (``prev_kind`` None) as over a
# tail within its component, the kind ARROW_HERE of an edge v -> u, so a
# start in z may block.  The oracles pick their ends outside z, the
# listings bind z to all other nodes, and :func:`_walk_open` tests the ends.


def _sigma_walk_step(z: int, anc_z: int, prev: int | None, v: int, kind: int) -> bool:
    """A collider lies in Anc(z); a non-collider in z has no tail at it that crosses components."""
    prev = ARROW_HERE if prev is None else prev
    if prev & ARROW_THERE and kind & ARROW_HERE:
        return anc_z >> v & 1
    crossing_tail = (not prev & ARROW_THERE and prev & CROSSES_SCC) or (not kind & ARROW_HERE and kind & CROSSES_SCC)
    return not (crossing_tail and z >> v & 1)


def sigma_separated(g: DirectedMixedGraph, query: SeparationQuery) -> SeparationVerdict:
    """Reachability engine for sigma-separation.

    Returns a verdict carrying an open path witness whenever the sets
    are connected.  Given a nonempty ``z`` the search stays inside
    An(x | y | z), which holds every open walk, so the witness is the
    one a search over the whole graph finds.  It is a shortest open walk W,
    and W never repeats a node.  Cutting out the stretch between two
    visits of a node v gives a shorter walk, so v blocks it.  As a
    non-collider in ``z``, v is blocked by a tail edge that W has at the
    same visit, so W is blocked too.  As a collider outside Anc(z), v is
    left by W over a tail v -> u; every later node descends from v, so
    none is in Anc(z) or can be a collider, and W cannot come back to v.
    So the witness is always a path.
    """
    _check_type(g, DirectedMixedGraph, "sigma_separated")
    return _separation(g, query, _SIGMA, "anc")


def sigma_separated_oracle(g: DirectedMixedGraph, query: SeparationQuery) -> SeparationVerdict:
    """Exhaustive oracle: scan every simple path with the sigma walk rule.

    Sound because an open walk exists iff an open path does.  Intended
    for desk-scale verification; refuses graphs above the size cap.
    """
    _check_type(g, DirectedMixedGraph, "sigma_separated_oracle")
    return _path_oracle(g, query, "the sigma path oracle", _sigma_walk_step)


def _path_oracle(graph: _Graph, query: SeparationQuery, what: str, rule) -> SeparationVerdict:
    """The first open simple path in name order, each pair's paths scanned under the step ``rule``."""
    _check_cap(len(graph.nodes), DEFAULT_PATH_ORACLE_CAP, what)
    x, y, z = query.x, query.y, query.z
    graph.require_nodes(x | y | z)
    overlap = sorted((x & y) - z)
    if overlap:
        return SeparationVerdict(False, Walk(overlap[0]))
    idx = graph.index
    zm = idx.mask(z)
    admits = partial(rule, zm, idx.union(idx.anc, zm))
    pairs = product(sorted(x - z), sorted(y - z))
    path = next((p for a, b in pairs for p in enumerate_simple_paths(graph, a, b, admits=admits)), None)
    return SeparationVerdict(path is None, path)


# ---------------------------------------------------------------------------
# m-separation (mixed graphs)
# ---------------------------------------------------------------------------


def m_open_walk(h: MixedGraph, walk: Walk, z: Iterable[NodeId]) -> bool:
    """Walk-level m criterion.

    Open given ``z`` when no non-collider (endpoints included) lies in
    ``z``, every collider is an ancestor of ``z`` over the directed
    edges, and no arrowhead meets an undirected edge along the walk.
    """
    _check_type(h, MixedGraph, "m_open_walk")
    return _walk_open(h, walk, z, _m_walk_step)


def _m_walk_step(z: int, anc_z: int, prev: int | None, v: int, kind: int) -> bool:
    """No arrowhead meets an undirected edge, a collider lies in Anc(z), a non-collider not in z."""
    prev = ARROW_HERE if prev is None else prev
    into, out = prev & ARROW_THERE, kind & ARROW_HERE
    if (into and not kind & (ARROW_HERE | ARROW_THERE)) or (out and not prev & (ARROW_HERE | ARROW_THERE)):
        return False
    return anc_z >> v & 1 if into and out else not z >> v & 1


def m_separated(h: MixedGraph, query: SeparationQuery) -> SeparationVerdict:
    """Reachability engine for m-separation over walks.

    The witness is a shortest open walk.  On graphs that pass validity
    checking it is a simple path; on an invalid graph it may repeat a
    node, even when some open path exists.  Given a nonempty ``z`` the
    search stays inside the anterior set Ant(x | y | z), which holds
    every open walk, and finds the same witness as a search over the
    whole graph.  Nothing is enumerated.
    """
    _check_type(h, MixedGraph, "m_separated")
    return _separation(h, query, _M, "ant")


def m_separated_oracle(h: MixedGraph, query: SeparationQuery) -> SeparationVerdict:
    """Exhaustive oracle: scan every simple path with the walk criterion."""
    _check_type(h, MixedGraph, "m_separated_oracle")
    return _path_oracle(h, query, "the m path oracle", _m_walk_step)


# ---------------------------------------------------------------------------
# the shared breadth-first search
# ---------------------------------------------------------------------------

# Every shortest-walk search of the package runs on :func:`_search`: both
# separation engines, and the anterior, inducing and discriminating path
# witnesses of ``validate`` and ``condition1``.  It searches one finite
# state space: a node together with the shape of the edge the walk
# arrived on, encoded as 4 * node id + shape.  A criterion is one step
# rule over edge kinds (the bits of a graph index row: arrowhead here,
# arrowhead there, crosses strong components), and :func:`_criterion`
# makes its table: the shape an edge of each kind leaves at its far end,
# the in-kinds the rule cannot tell apart sharing one, and whether a walk
# that reached v in a given shape may leave over the edge, given v's
# standing: outside Anc(z), in Anc(z) but not z, or in z.  Every blocking
# rule is local to a node's two walk edges, so breadth-first search over
# the states decides exactly whether an open walk exists.  Rows are read
# in incident-edge order, which fixes the witnesses.
#
# Callers pass start nodes and get a walk.  Each start is entered in
# shape 1, the class of the rule's start: under the engines a tail within
# its component, free to leave over any edge (a source lies outside z),
# under the witness tables as said below.  A start that is a goal is a
# walk of length zero.
#
# Every node of an open walk lies in the criterion's closure of
# x | y | z: the ancestors under sigma, the anteriors under m (the two
# agree on a directed mixed graph).  From a non-collider, the walk
# leaves over a tail in one direction, and the criterion makes it go on
# leaving over tails (an arrowhead meets no undirected edge under m)
# until it ends in x | y or at a collider, which lies in Anc(z).  Given a
# nonempty z the search therefore drops states outside that closure; an
# empty z leaves every node live and builds no closure.
_OUTSIDE, _IN_ANC, _IN_Z = 0, 1, 2


def _criterion(rule) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The search table of a step ``rule``: per edge kind, the shape a walk
    arrives in over it, and a mask whose bit 4 * standing + shape is set
    where a walk that arrived in that shape may leave over it.

    Two in-kinds share a shape when the rule answers alike after either,
    for every out-kind and standing.  The start's class is shape 1, the
    one :func:`_search` enters starts in; the other classes take 0, 2 and
    3 in turn, from in-kind 7 down.  A state holds two shape bits."""

    def answers(prev):  # node v = 0 has the standing
        standings = (_OUTSIDE, _IN_ANC, _IN_Z)
        return tuple(bool(rule(st == _IN_Z, st != _OUTSIDE, prev, 0, kind)) for st in standings for kind in range(8))

    shapes = {answers(None): 1}
    for prev in reversed(range(8)):
        shapes.setdefault(answers(prev), len(shapes) if len(shapes) > 1 else 0)
    if len(shapes) > 4:
        raise ValueError(f"a state holds four shapes, but the rule tells {len(shapes)} arrivals apart")
    masks = [0] * 8
    for said, shape in shapes.items():
        for i, ok in enumerate(said):  # i = 8 * standing + out-kind
            masks[i % 8] |= ok << (4 * (i // 8) + shape)
    return tuple(shapes[answers(prev)] for prev in range(8)), tuple(masks)


_SIGMA = _criterion(_sigma_walk_step)
_M = _criterion(_m_walk_step)

# The witness searches condition on nothing (z = 0), so every node stands
# outside Anc(z) and only the edge kinds decide.  An anterior path leaves
# every node over a tail.  A collider chain leaves its start over any
# edge, and a node it entered over an arrowhead only over an arrowhead at
# that node.  A discriminating chain is a collider chain whose start, like
# a node entered over an arrowhead, leaves only over one.
_ANTERIOR = _criterion(lambda z, anc_z, prev, v, kind: not kind & ARROW_HERE)
_COLLIDER_CHAIN = _criterion(
    lambda z, anc_z, prev, v, kind: prev is None or prev & ARROW_THERE and kind & ARROW_HERE
)
_DISCRIMINATING = _criterion(
    lambda z, anc_z, prev, v, kind: (prev is None or prev & ARROW_THERE) and kind & ARROW_HERE
)


def _search(rows, names, crit: tuple, starts, goal: int, live: int, z: int = 0, anc_z: int = 0):
    """The first shortest walk from the ``starts`` node ids to a ``goal`` node, or None.

    The search runs over index ``rows`` under criterion ``crit``, with
    each start entered in shape 1, and names its nodes by ``names``.
    Each state's parent entry holds the state it was reached from and the
    kind of the row entry taken, so the search makes no edge value; the
    edges of the returned walk alone are made, by ``row_edge``.
    Starts are tried in the order given, so the first start that is a
    goal node is returned as a walk of length zero.  The queue is a list
    read in order while it grows, so it is first-in first-out, and
    testing states as they are pushed finds the same goal state, with
    the same parents, as testing them as they are popped.

    States at nodes outside ``live`` are neither recorded nor queued.
    The witness searches confine their walks with it.  For the engines
    it is the closure of the query, and the witness does not change.
    Call a state useful when some run of moves takes it to a goal state.
    A useful state that the search reaches lies on an open walk, so its
    node is live; and a state with a move into a useful state is useful
    too.  Dropped states are thus all useless and never queue a useful
    one, so useful states are queued in the same order with the same
    parents, and the first goal state and its parent chain stay the
    same.  Goal nodes are live.
    """
    parent: dict[int, tuple | None] = {}
    for v in starts:
        if goal >> v & 1:
            return Walk(names[v])
        parent[v << 2 | 1] = None
    arrive, passes = crit
    queue = list(parent)
    for st in queue:  # the queue grows while it is read, first in, first out
        v = st >> 2
        standing = _IN_Z if z >> v & 1 else anc_z >> v & 1  # else _IN_ANC (1) or _OUTSIDE (0)
        bit = 1 << (4 * standing + (st & 3))
        for w, kind in rows[v]:
            if passes[kind] & bit and live >> w & 1:
                nxt = w << 2 | arrive[kind]
                if nxt not in parent:
                    if goal >> w & 1:
                        edges = [row_edge(names, v, w, kind)]
                        while parent[st] is not None:
                            prev, kind = parent[st]
                            edges.append(row_edge(names, prev >> 2, st >> 2, kind))
                            st = prev
                        return Walk(names[st >> 2], tuple(reversed(edges)))
                    parent[nxt] = (st, kind)
                    queue.append(nxt)
    return None


def _separation(graph, query: SeparationQuery, crit: tuple, closure: str) -> SeparationVerdict:
    """Run an engine on the graph index; ``closure`` names the index sets that bound the search."""
    idx = graph.index
    ids = idx.ids
    try:
        xs, ys, zs = ([ids[v] for v in side] for side in (query.x, query.y, query.z))
    except KeyError:  # some query node is unknown, so this raises and names the least one
        graph.require_nodes(query.x | query.y | query.z)
    z = anc_z = 0
    live = -1  # every bit set: given an empty z, every node is live and no closure is built
    if zs:
        anc, sets = idx.anc, getattr(idx, closure)
        live = 0
        for i in zs:
            z |= 1 << i
            anc_z |= anc[i]
            live |= sets[i]
        for i in xs + ys:
            live |= sets[i]
    sources = [i for i in sorted(xs) if not z >> i & 1]
    walk = _search(idx.rows, idx.names, crit, sources, sum(1 << i for i in ys) & ~z, live, z, anc_z)
    return SeparationVerdict(walk is None, walk)


# ---------------------------------------------------------------------------
# inducing paths
# ---------------------------------------------------------------------------


def _check_inducing_args(graph, s: set, a: NodeId, b: NodeId) -> tuple[GraphIndex, int, int]:
    graph.require_nodes([*s, a, b])  # a list, so that require_nodes names an unhashable end
    if a == b:
        raise InputError("inducing-path endpoints must differ")
    if a in s or b in s:
        raise InputError("inducing-path endpoints may not be selection nodes")
    idx = graph.index
    return idx, idx.ids[a], idx.ids[b]


def sigma_inducing_paths(g: DirectedMixedGraph, s: Iterable[NodeId], a: NodeId, b: NodeId) -> tuple[Walk, ...]:
    """Every simple path between ``a`` and ``b`` that no admissible set blocks.

    Qualifying paths have all colliders among the ancestors of the
    endpoints and ``s``, and every interior non-collider unblockable.
    End marks can be read off each returned walk via ``is_into``.
    Exponential in the worst case, so graphs above the path oracles' cap
    are refused with :class:`~cyclomag.errors.OracleCapError`.
    """
    _check_type(g, DirectedMixedGraph, "sigma_inducing_paths")
    _check_cap(len(g.nodes), DEFAULT_PATH_ORACLE_CAP, "the sigma-inducing path listing")
    s = _as_nodes(s)
    idx, ia, ib = _check_inducing_args(g, s, a, b)
    anc_ends = idx.anc[ia] | idx.anc[ib] | idx.union(idx.anc, idx.mask(s))
    # Open given all of its interior nodes, with colliders allowed anywhere
    # in anc_ends: z is every node but the two ends.
    return tuple(enumerate_simple_paths(g, a, b, admits=partial(_sigma_walk_step, ~(1 << ia | 1 << ib), anc_ends)))


def sigma_inducing_exists(g: DirectedMixedGraph, s: Iterable[NodeId], a: NodeId, b: NodeId) -> bool:
    """Decide existence without enumeration: whether a and b stay connected given Z = Anc({a, b} | s) - {a, b}.

    Sigma-separation is d-separation in the acyclification G^acy, where
    Z | {a, b} is ancestral, so every interior node of a connecting path
    lies in Z and is a collider.  :func:`_joined` tests G^acy's masks.
    """
    _check_type(g, DirectedMixedGraph, "sigma_inducing_exists")
    s = _as_nodes(s)
    idx, ia, ib = _check_inducing_args(g, s, a, b)
    z = (idx.anc[ia] | idx.anc[ib] | idx.union(idx.anc, idx.mask(s))) & ~(1 << ia | 1 << ib)
    return _joined(idx, ia, ib, idx.acy, idx.acy_heads, idx.acy_bi, z)


def inducing_paths(h: MixedGraph, a: NodeId, b: NodeId) -> tuple[Walk, ...]:
    """Simple paths whose interior nodes are all colliders and all
    ancestors of the endpoints (over the directed edges of ``h``).

    Refuses graphs above the path oracles' cap, like
    :func:`sigma_inducing_paths`.
    """
    _check_type(h, MixedGraph, "inducing_paths")
    return tuple(_iter_inducing_paths(h, a, b))


def _iter_inducing_paths(h: MixedGraph, a: NodeId, b: NodeId) -> Iterator[Walk]:
    _check_cap(len(h.nodes), DEFAULT_PATH_ORACLE_CAP, "the inducing path listing")
    idx, ia, ib = _check_inducing_args(h, set(), a, b)
    # Open given every interior node (z is every node but the ends, as for
    # sigma) exactly when each of them is a collider in Anc({a, b}): a
    # collider never meets an undirected edge.
    z = ~(1 << ia | 1 << ib)
    yield from enumerate_simple_paths(h, a, b, admits=partial(_m_walk_step, z, idx.anc[ia] | idx.anc[ib]))


def inducing_exists(h: MixedGraph, a: NodeId, b: NodeId) -> bool:
    """Nonemptiness of :func:`inducing_paths`: an edge, or a collider chain inside Anc({a, b})."""
    _check_type(h, MixedGraph, "inducing_exists")
    idx, ia, ib = _check_inducing_args(h, set(), a, b)
    return _joined(idx, ia, ib, idx.adj, idx.into, idx.bi, idx.anc[ia] | idx.anc[ib])


def _joined(idx: GraphIndex, ia: int, ib: int, adj: list[int], heads: list[int], bi: list[int], inside: int) -> bool:
    """Whether ``adj`` joins ids a and b, or a collider chain a *-> c1 <-> .. <-> ck <-* b runs inside ``inside``.

    ``heads[v]`` holds the nodes c with v *-> c, ``bi[v]`` those with v <-> c;
    a chain through a or b can be cut short there, so ``inside`` may hold them.
    """
    return bool(adj[ia] >> ib & 1 or _collider_reach(idx, heads[ia], bi, inside) & heads[ib])


def _collider_reach(idx: GraphIndex, heads: int, bi: list[int], inside: int) -> int:
    """The last nodes ck of the collider chains c1 <-> .. <-> ck that start in ``heads`` and run inside ``inside``.

    ``heads`` holds the nodes c1 with a *-> c1 for the chain's end a,
    and ``bi`` the bidirected neighbours of each node.
    """
    start = heads & inside
    return (start | idx.closure(bi, start, inside)) & inside


def _shortest_inducing_path(idx: GraphIndex, ia: int, ib: int) -> Walk | None:
    """The first shortest member of :func:`inducing_paths` between two distinct ids of ``idx``, or None.

    An interior node of an inducing path lies in Anc({a, b}) and has
    arrowheads on both sides, so a shortest inducing path is a shortest
    collider chain from ``a`` to ``b`` inside Anc({a, b}); a shortest one
    is simple.  Polynomial; nothing is enumerated.
    """
    return _search(idx.rows, idx.names, _COLLIDER_CHAIN, [ia], 1 << ib, idx.anc[ia] | idx.anc[ib])


def canonical_inducing_separator(h: MixedGraph, a: NodeId, b: NodeId) -> frozenset:
    """The conditioning set that decides inseparability of a node pair.

    On graphs that pass validity checking, ``a`` and ``b`` stay
    connected given this set exactly when an inducing path joins them.
    The set consists of the anteriors of the two endpoints, the
    endpoints themselves excluded.
    """
    _check_type(h, MixedGraph, "canonical_inducing_separator")
    _check_inducing_args(h, set(), a, b)
    return frozenset(anteriors(h, {a, b}) - {a, b})

