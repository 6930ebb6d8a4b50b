"""Markov-equivalence machinery.

Two valid mixed graphs induce the same m-separation relations exactly
when they share adjacencies, unshielded colliders, and the collider
status of the distinguished node on every discriminating path whose
node sequence discriminates in both graphs.  ``condition1`` decides
that criterion directly and in polynomial time; the exhaustive oracles
re-derive equivalence from first principles by sweeping full query
grids, which is what the desk-scale test suites compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from .errors import InputError
from .graphs import ARROW_HERE, ARROW_THERE, ContextedDmg, MixedGraph, NodeId, _as_nodes, _as_sequence, _check_type
from .separation import (
    _DISCRIMINATING,
    DEFAULT_GRID_ORACLE_CAP,
    DEFAULT_PATH_ORACLE_CAP,
    SeparationQuery,
    _check_cap,
    _search,
    m_separated,
    sigma_separated,
)

Triple = tuple[NodeId, NodeId, NodeId]


def unshielded_colliders(h: MixedGraph, centres: Iterable[NodeId] | None = None) -> frozenset[Triple]:
    """All triples (a, b, c), a < c, with both edges into b and a, c non-adjacent;
    with ``centres`` given, only those whose b is one of them."""
    _check_type(h, MixedGraph, "unshielded_colliders")
    centres = h.nodes if centres is None else _as_nodes(centres)
    h.require_nodes(centres)
    idx, out = h.index, set()
    for b in centres:
        spikes = idx.spikes[idx.ids[b]]
        for ia in idx.ids_in(spikes):
            for c in idx.members(spikes & ~idx.adj[ia] & -(2 << ia)):  # c above a
                out.add((h.nodes[ia], b, c))
    return frozenset(out)


@dataclass(frozen=True)
class DiscriminatingPath:
    """A path (a, v_0 .. v_n, b, c) that pins down the status of ``b``.

    The outer pair a, c is non-adjacent and every v_k is both a collider
    on the path and a parent of c, so any set separating a from c must
    contain all v_k; whether it may contain ``b`` then depends only on
    b's collider status.
    """

    nodes: tuple[NodeId, ...]
    target: NodeId

    def __post_init__(self):
        object.__setattr__(self, "nodes", _as_sequence(self.nodes))
        if len(self.nodes) < 4:
            raise InputError("a discriminating path has at least four nodes")
        if self.target != self.nodes[-2]:
            raise InputError("the discriminated node is the second-to-last one")

    @property
    def a(self) -> NodeId:
        return self.nodes[0]

    @property
    def c(self) -> NodeId:
        return self.nodes[-1]

    def target_is_collider(self, h: MixedGraph) -> bool:
        """Whether both path edges at the target have an arrowhead there, read from its index row."""
        _check_type(h, MixedGraph, "a discriminating path")
        b = self.target
        h.require_nodes([b])
        idx, heads = h.index, ARROW_HERE
        for v in (self.nodes[-3], self.c):
            kind = next((kind for w, kind in idx.rows[idx.ids[b]] if w == idx.ids.get(v)), None)
            if kind is None:
                raise InputError(f"no edge between {b!r} and {v!r}")
            heads &= kind
        return bool(heads)

    def render(self) -> str:
        return " ".join(self.nodes)


def is_discriminating(h: MixedGraph, nodes, b: NodeId) -> bool:
    """Predicate form: does the node sequence discriminate ``b`` in ``h``?

    Returns False (not an error) when consecutive nodes are non-adjacent
    or the shape conditions fail.  Reads the index rows of ``h``; a directed
    mixed graph, whose pairs may hold parallel edges, is refused.
    """
    _check_type(h, MixedGraph, "a discriminating path")
    nodes = _as_sequence(nodes)
    h.require_nodes(nodes)
    if len(nodes) < 4 or len(set(nodes)) != len(nodes) or b != nodes[-2]:
        return False
    idx = h.index
    ids = [idx.ids[v] for v in nodes]
    # The kind of each consecutive pair, seen from its first node: ARROW_THERE is an arrowhead at the second.
    kinds = [next((kind for w, kind in idx.rows[u] if w == v), None) for u, v in zip(ids, ids[1:])]
    c = ids[-1]
    if None in kinds or idx.adj[ids[0]] >> c & 1:
        return False
    return all(kinds[k - 1] & ARROW_THERE and kinds[k] & ARROW_HERE and idx.pa[c] >> ids[k] & 1 for k in range(1, len(ids) - 2))


def discriminating_paths(h: MixedGraph, for_node: NodeId | None = None) -> tuple[DiscriminatingPath, ...]:
    """Exhaustively enumerate discriminating paths, sorted by node sequence.

    ``for_node`` filters on the discriminated node.  Chains of node ids
    grow over the index rows of ``h``; only the paths found are named.
    Exponential in the worst case: this listing backs ``cyclomag paths``
    and the tests, while :func:`condition1` never enumerates.  Graphs
    above the path oracles' cap are refused, and so is a directed mixed
    graph, as by :func:`is_discriminating`.
    """
    _check_type(h, MixedGraph, "a discriminating path")
    _check_cap(len(h.nodes), DEFAULT_PATH_ORACLE_CAP, "the discriminating path listing")
    if for_node is not None:
        h.require_nodes([for_node])
    idx = h.index
    names, rows = idx.names, idx.rows
    found: list[DiscriminatingPath] = []
    for c, row in enumerate(rows):
        for b, _ in row:
            if for_node is not None and names[b] != for_node:
                continue
            # Grow the collider chain leftwards from b.  Every chain node
            # is a parent of c and enters the chain over an edge with an
            # arrowhead at it; links between chain nodes need arrowheads
            # at both ends.  A node that avoids c closes the chain as the
            # outer node, provided its edge points into the chain tip.  A
            # kind is seen from the tip: ARROW_HERE is an arrowhead there.
            stack = [[b]]
            while stack:
                chain = stack.pop()
                tip = chain[-1]
                for v, kind in rows[tip]:
                    if v == c or v in chain:
                        continue
                    if idx.pa[c] >> v & 1 and kind & ARROW_THERE and (tip == b or kind & ARROW_HERE):
                        stack.append(chain + [v])
                    if len(chain) >= 2 and not idx.adj[c] >> v & 1 and kind & ARROW_HERE:
                        found.append(DiscriminatingPath([names[u] for u in (v, *chain[::-1], c)], names[b]))
    found.sort(key=lambda p: p.nodes)
    return tuple(found)


class EquivalenceClause(Enum):
    ADJACENCY = "Adjacency"
    UNSHIELDED_COLLIDER = "UnshieldedCollider"
    DISCRIMINATING_PATH = "DiscriminatingPath"


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    failed_clause: EquivalenceClause | None = None
    witness: tuple | None = None


def condition1(h1: MixedGraph, h2: MixedGraph) -> EquivalenceReport:
    """Decide m-Markov equivalence of two valid mixed graphs structurally.

    Checks, in order: identical adjacencies, identical unshielded
    colliders, and matching collider status on every discriminating
    path shared by both graphs.  The first failure is reported: the
    smallest differing pair or triple, or, for the last clause, the
    first edge b - c in name order of (c, b) that closes a differing
    path, with the shortest such path whose nodes, read from b back to
    a, come first in name order.
    With adjacencies equal, colliders can differ only at nodes where a
    mark differs, so the last two clauses look only there, and equal
    marks skip them.  Polynomial throughout; no path is enumerated.
    Callers are expected to pass graphs that satisfy
    :func:`cyclomag.abstraction.validate`.
    """
    if not isinstance(h1, MixedGraph) or not isinstance(h2, MixedGraph):
        raise InputError(f"condition1 needs two MixedGraph values, not {type(h1).__name__} and {type(h2).__name__}")
    if h1.nodes != h2.nodes:
        raise InputError("equivalence needs a shared node set")

    adj1 = {(e.a, e.b) for e in h1.edges}
    adj2 = {(e.a, e.b) for e in h2.edges}
    diff = sorted(adj1 ^ adj2)
    if diff:
        return EquivalenceReport(False, EquivalenceClause.ADJACENCY, diff[0])

    idx1, idx2 = h1.index, h2.index
    moved = sum(1 << v for v, (s1, s2) in enumerate(zip(idx1.spikes, idx2.spikes)) if s1 != s2)
    if not moved:
        return EquivalenceReport(True)

    centres = idx1.members(moved)
    diff = sorted(unshielded_colliders(h1, centres) ^ unshielded_colliders(h2, centres))
    if diff:
        return EquivalenceReport(False, EquivalenceClause.UNSHIELDED_COLLIDER, diff[0])

    dp = _differing_discriminating_path(h1, h2, moved)
    if dp is not None:
        return EquivalenceReport(False, EquivalenceClause.DISCRIMINATING_PATH, (dp, dp.target))
    return EquivalenceReport(True)


def _differing_discriminating_path(h1: MixedGraph, h2: MixedGraph, moved: int) -> DiscriminatingPath | None:
    """A path that discriminates its target b in both graphs, b a collider in one only.

    The graphs share nodes and adjacencies, so their index rows line up
    entry for entry, and ``both`` keeps for each edge the arrowheads it
    has in both graphs.  For each edge b - c, the chain v_n .. v_0 and
    the outer node a form a collider chain read backwards from b.  Its
    start v_n is a parent of c in both graphs, with an arrowhead at v_n
    on b - v_n in both, after which b is a collider in exactly one.  The
    chain goes on through parents of c in both graphs, over edges with
    arrowheads at both ends in both, and ends at a node not adjacent to
    c, over an edge with an arrowhead at the chain end in both.  So the
    discriminating-chain search of :mod:`cyclomag.separation`, started
    at the v_n, kept off b and confined to those parents and the nodes
    not adjacent to c, finds a shortest such path, and a shortest one is
    simple; b is then put back in front.  Only b in ``moved``, where
    some mark differs, can close one.
    """
    idx1, idx2 = h1.index, h2.index
    heads = ARROW_HERE | ARROW_THERE
    # The walk's edges carry these joint marks, which need not be either
    # graph's, so only its nodes are read.
    both = [
        tuple([(w, k1 & k2 & heads) for (w, k1), (_, k2) in zip(row1, row2)])
        for row1, row2 in zip(idx1.rows, idx2.rows)
    ]
    names, everyone = idx1.names, (1 << len(idx1.names)) - 1
    for c, name in enumerate(names):
        ends = list(idx1.ids_in(idx1.adj[c] & moved))
        if not ends:
            continue
        chain = idx1.pa[c] & idx2.pa[c]
        far = everyone & ~idx1.adj[c] & ~(1 << c)
        for b in ends:
            # The neighbours v of b after which b is a collider: all of
            # b's spikes when c is one of them, and none otherwise.
            col1, col2 = (idx.spikes[b] if idx.spikes[b] >> c & 1 else 0 for idx in (idx1, idx2))
            starts = idx1.ids_in(chain & idx1.into[b] & idx2.into[b] & (col1 ^ col2))
            walk = _search(both, names, _DISCRIMINATING, starts, far, (chain | far) & ~(1 << b))
            if walk is not None:
                return DiscriminatingPath(walk.nodes[::-1] + (names[b], name), names[b])
    return None


CounterExample = tuple[NodeId, NodeId, frozenset]


def m_markov_equivalent_oracle(h1: MixedGraph, h2: MixedGraph) -> tuple[bool, CounterExample | None]:
    """Exhaustive equivalence check over all singleton pairs and all sets.

    Pairwise singleton queries carry the same information as set
    queries because a set query is open exactly when some member pair
    is.  Returns the lexicographically first disagreeing (a, b, Z).
    """
    if not isinstance(h1, MixedGraph) or not isinstance(h2, MixedGraph):
        names = f"{type(h1).__name__} and {type(h2).__name__}"
        raise InputError(f"m_markov_equivalent_oracle needs two MixedGraph values, not {names}")
    if h1.nodes != h2.nodes:
        raise InputError("equivalence needs a shared node set")
    _check_cap(len(h1.nodes), DEFAULT_GRID_ORACLE_CAP, "the m-equivalence oracle")
    return _grid(h1.nodes, frozenset(), lambda q: m_separated(h1, q).separated != m_separated(h2, q).separated)


def sigma_markov_equivalent_oracle(g1: ContextedDmg, g2: ContextedDmg) -> tuple[bool, CounterExample | None]:
    """Exhaustive sigma-equivalence of two contexted graphs.

    Both graphs must share nodes and selection set; conditioning sets
    always include the selection nodes.
    """
    if not isinstance(g1, ContextedDmg) or not isinstance(g2, ContextedDmg):
        names = f"{type(g1).__name__} and {type(g2).__name__}"
        raise InputError(f"sigma_markov_equivalent_oracle needs two ContextedDmg values, not {names}")
    if g1.graph.nodes != g2.graph.nodes or g1.selection != g2.selection:
        raise InputError("equivalence needs a shared node set and selection set")
    _check_cap(len(g1.graph.nodes), DEFAULT_GRID_ORACLE_CAP, "the sigma-equivalence oracle")
    s, d1, d2 = frozenset(g1.selection), g1.graph, g2.graph
    return _grid(g1.observed, s, lambda q: sigma_separated(d1, q).separated != sigma_separated(d2, q).separated)


def _grid(nodes: tuple[NodeId, ...], s: frozenset, differ) -> tuple[bool, CounterExample | None]:
    """``(False, (a, b, Z))`` for the first query of a and b given Z | s where ``differ`` holds, else ``(True, None)``.

    Pairs a < b of the sorted ``nodes`` come in order, and for each pair
    the subsets Z of the other nodes in binary counting order.
    """
    for a, b in combinations(nodes, 2):
        rest = [v for v in nodes if v not in (a, b)]
        for mask in range(1 << len(rest)):
            z = frozenset(rest[i] for i in range(len(rest)) if mask >> i & 1)
            if differ(SeparationQuery((a,), (b,), z | s)):
                return False, (a, b, z)
    return True, None
