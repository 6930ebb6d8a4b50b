"""Markov-equivalence machinery.

Two valid mixed graphs induce the same m-separation relations exactly
when they share adjacencies, unshielded colliders, and the collider
status of the distinguished node on every discriminating path whose
node sequence discriminates in both graphs.  ``condition1`` decides
that criterion directly; the exhaustive oracles re-derive equivalence
from first principles by sweeping full query grids, which is what the
desk-scale test suites compare against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import InputError
from .graphs import ARROWHEAD, ContextedDmg, MixedGraph, NodeId
from .separation import (
    DEFAULT_GRID_ORACLE_CAP,
    SeparationQuery,
    _check_cap,
    m_separated,
    sigma_separated,
)

Triple = tuple[NodeId, NodeId, NodeId]


def unshielded_colliders(h: MixedGraph) -> frozenset[Triple]:
    """All triples (a, b, c), a < c, with both edges into b and a, c non-adjacent."""
    out = set()
    for b in h.nodes:
        spikes = sorted(e.other(b) for e in h.incident_edges(b) if e.mark_at(b) is ARROWHEAD)
        for a, c in combinations(spikes, 2):
            if not h.adjacent(a, c):
                out.add((a, b, c))
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
        b = self.target
        left = h.edge(self.nodes[-3], b)
        right = h.edge(b, self.c)
        return left.mark_at(b) is ARROWHEAD and right.mark_at(b) is ARROWHEAD

    def render(self) -> str:
        return " ".join(self.nodes)


def is_discriminating(h: MixedGraph, nodes, b: NodeId) -> bool:
    """Predicate form: does the node sequence discriminate ``b`` in ``h``?

    Returns False (not an error) when consecutive nodes are non-adjacent
    or the shape conditions fail.
    """
    nodes = tuple(nodes)
    h.require_nodes(nodes)
    if len(nodes) < 4 or len(set(nodes)) != len(nodes):
        return False
    if b != nodes[-2]:
        return False
    edges = []
    for u, v in zip(nodes, nodes[1:]):
        e = h.edge(u, v)
        if e is None:
            return False
        edges.append(e)
    a, c = nodes[0], nodes[-1]
    if h.adjacent(a, c):
        return False
    for k in range(1, len(nodes) - 2):
        v = nodes[k]
        if edges[k - 1].mark_at(v) is not ARROWHEAD or edges[k].mark_at(v) is not ARROWHEAD:
            return False
        to_c = h.edge(v, c)
        if to_c is None or not to_c.is_directed or to_c.directed_head != c:
            return False
    return True


def discriminating_paths(
    h: MixedGraph, for_node: NodeId | None = None, max_interior: int | None = None
) -> tuple[DiscriminatingPath, ...]:
    """Exhaustively enumerate discriminating paths, sorted by node sequence.

    ``for_node`` filters on the discriminated node.  Enumeration is
    unbounded up to ten nodes; above that a default interior cap kicks
    in with a warning unless ``max_interior`` is given explicitly.
    """
    if for_node is not None:
        h.require_nodes([for_node])
    if max_interior is None:
        if len(h.nodes) > 10:
            max_interior = 10
            warnings.warn(
                "discriminating-path enumeration capped at 10 interior nodes; "
                "pass max_interior to override",
                stacklevel=2,
            )
        else:
            max_interior = len(h.nodes)
    found: list[DiscriminatingPath] = []
    for c in h.nodes:
        parents_c = set(h.parents(c))
        neighbours_c = [e.other(c) for e in h.incident_edges(c)]
        adjacent_c = set(neighbours_c)
        for b in neighbours_c:
            if for_node is not None and b != for_node:
                continue
            # Grow the collider chain leftwards from b.  Every chain node
            # is a parent of c and enters the chain over an edge with an
            # arrowhead at it; links between chain nodes need arrowheads
            # at both ends.  A node that avoids c closes the chain as the
            # outer node, provided its edge points into the chain tip.
            stack = [[b]]
            while stack:
                chain = stack.pop()
                tip = chain[-1]
                for e in h.incident_edges(tip):
                    v = e.other(tip)
                    if v == c or v in chain:
                        continue
                    mark_tip = e.mark_at(tip)
                    mark_v = e.mark_at(v)
                    if (
                        v in parents_c
                        and mark_v is ARROWHEAD
                        and (tip == b or mark_tip is ARROWHEAD)
                        and len(chain) - 1 < max_interior
                    ):
                        stack.append(chain + [v])
                    if len(chain) >= 2 and v not in adjacent_c and mark_tip is ARROWHEAD:
                        seq = tuple([v] + chain[::-1] + [c])
                        found.append(DiscriminatingPath(seq, b))
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
    path shared by both graphs (checked in both directions).  The first
    failure, smallest witness first, is reported.  Callers are expected
    to pass graphs that satisfy :func:`cyclomag.abstraction.validate`.
    """
    if h1.nodes != h2.nodes:
        raise InputError("equivalence needs a shared node set")

    adj1 = {(e.a, e.b) for e in h1.edges}
    adj2 = {(e.a, e.b) for e in h2.edges}
    diff = sorted(adj1 ^ adj2)
    if diff:
        return EquivalenceReport(False, EquivalenceClause.ADJACENCY, diff[0])

    uc1 = unshielded_colliders(h1)
    uc2 = unshielded_colliders(h2)
    diff = sorted(uc1 ^ uc2)
    if diff:
        return EquivalenceReport(False, EquivalenceClause.UNSHIELDED_COLLIDER, diff[0])

    for first, second in ((h1, h2), (h2, h1)):
        for dp in discriminating_paths(first):
            if not is_discriminating(second, dp.nodes, dp.target):
                continue
            if dp.target_is_collider(first) != dp.target_is_collider(second):
                return EquivalenceReport(
                    False, EquivalenceClause.DISCRIMINATING_PATH, (dp, dp.target)
                )
    return EquivalenceReport(True)


CounterExample = tuple[NodeId, NodeId, frozenset]


def m_markov_equivalent_oracle(
    h1: MixedGraph, h2: MixedGraph, cap: int | None = None
) -> tuple[bool, CounterExample | None]:
    """Exhaustive equivalence check over all singleton pairs and all sets.

    Pairwise singleton queries carry the same information as set
    queries because a set query is open exactly when some member pair
    is.  Returns the lexicographically first disagreeing (a, b, Z).
    """
    if h1.nodes != h2.nodes:
        raise InputError("equivalence needs a shared node set")
    _check_cap(len(h1.nodes), cap, DEFAULT_GRID_ORACLE_CAP, "the m-equivalence oracle")
    for a, b in combinations(h1.nodes, 2):
        rest = [v for v in h1.nodes if v not in (a, b)]
        for z in _subsets(rest):
            q = SeparationQuery((a,), (b,), z)
            if m_separated(h1, q).separated != m_separated(h2, q).separated:
                return False, (a, b, frozenset(z))
    return True, None


def sigma_markov_equivalent_oracle(
    g1: ContextedDmg, g2: ContextedDmg, cap: int | None = None
) -> tuple[bool, CounterExample | None]:
    """Exhaustive sigma-equivalence of two contexted graphs.

    Both graphs must share nodes and selection set; conditioning sets
    always include the selection nodes.
    """
    if g1.graph.nodes != g2.graph.nodes or g1.selection != g2.selection:
        raise InputError("equivalence needs a shared node set and selection set")
    _check_cap(len(g1.graph.nodes), cap, DEFAULT_GRID_ORACLE_CAP, "the sigma-equivalence oracle")
    s = set(g1.selection)
    observed = g1.observed
    for a, b in combinations(observed, 2):
        rest = [v for v in observed if v not in (a, b)]
        for z in _subsets(rest):
            q = SeparationQuery((a,), (b,), set(z) | s)
            if sigma_separated(g1.graph, q).separated != sigma_separated(g2.graph, q).separated:
                return False, (a, b, frozenset(z))
    return True, None


def _subsets(items):
    items = sorted(items)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
