"""The bridge between directed mixed graphs and their mixed-graph abstractions.

``represent`` compresses a directed mixed graph with selection nodes
into a single mixed graph over the observed nodes: a pair becomes
adjacent when no admissible conditioning set can separate it, and each
edge mark records whether the endpoint is an ancestor of the other
endpoint or of the selection set.  ``validate`` checks whether an
arbitrary mixed graph could have arisen this way, and ``canonical_dmg``
inverts the construction by building one concrete directed mixed graph
that the input abstracts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from .errors import InputError, PreconditionError
from .graphs import (
    ARROWHEAD,
    TAIL,
    ContextedDmg,
    DirectedMixedGraph,
    MixedEdge,
    MixedGraph,
    NodeId,
)
from .relations import _shortest_walk, neighborhood, neighborhood_complete
from .separation import (
    SeparationQuery,
    _iter_inducing_paths,
    canonical_inducing_separator,
    m_separated,
    sigma_inducing_exists,
)
from .walks import Walk


def marginalize(g: DirectedMixedGraph, w: Iterable[NodeId]) -> DirectedMixedGraph:
    """Project the nodes in ``w`` out of ``g``.

    A directed edge a -> b survives when some directed walk from a to b
    runs entirely through ``w``; a bidirected edge a <-> b appears when
    two such directed chains meet head-to-head at a common source or at
    a bidirected edge inside ``w``.
    """
    w = set(w)
    g.require_nodes(w)
    keep = [v for v in g.nodes if v not in w]

    def reach_through(a: NodeId) -> set[NodeId]:
        # Non-latent nodes reachable from a by directed steps whose
        # interior stays inside w.
        out: set[NodeId] = set()
        seen: set[NodeId] = set()
        frontier = deque(g.children(a))
        while frontier:
            v = frontier.popleft()
            if v in w:
                if v not in seen:
                    seen.add(v)
                    frontier.extend(g.children(v))
            else:
                out.add(v)
        return out

    def latent_sources_into(a: NodeId) -> set[NodeId]:
        # Latent nodes with a directed chain onto a running inside w.
        out: set[NodeId] = set()
        frontier = deque(u for u in g.parents(a) if u in w)
        while frontier:
            u = frontier.popleft()
            if u not in out:
                out.add(u)
                frontier.extend(p for p in g.parents(u) if p in w)
        return out

    directed = []
    for a in keep:
        for b in reach_through(a):
            if b != a:
                directed.append((a, b))

    sources = {a: latent_sources_into(a) for a in keep}
    bidirected = []
    for a, b in combinations(keep, 2):
        # Chains from each side may meet at one latent apex, or be tied
        # together by a bidirected edge between (possibly degenerate)
        # chain tops.
        if sources[a] & sources[b]:
            bidirected.append((a, b))
            continue
        tops_a = sources[a] | {a}
        tops_b = sources[b] | {b}
        found = False
        for u, v in g.bidirected:
            if (u in tops_a and v in tops_b) or (v in tops_a and u in tops_b):
                found = True
                break
        if found:
            bidirected.append((a, b))

    return DirectedMixedGraph(tuple(keep), tuple(directed), tuple(bidirected))


def represent(c: ContextedDmg) -> MixedGraph:
    """Abstract a directed mixed graph with selection nodes.

    Two observed nodes become adjacent exactly when they cannot be
    separated by any admissible conditioning set (decided polynomially
    via :func:`sigma_inducing_exists`); the mark at an endpoint is a
    tail when that endpoint is an ancestor of the other one or of the
    selection set, and an arrowhead otherwise.
    """
    g, s = c.graph, set(c.selection)
    observed = c.observed
    if not observed:
        raise InputError("at least one node must be observed")
    idx = g.index
    anc = idx.anc
    anc_s = idx.union(anc, idx.mask(s))
    edges = []
    for a, b in combinations(observed, 2):
        if not sigma_inducing_exists(g, s, a, b):
            continue
        ia, ib = idx.ids[a], idx.ids[b]
        mark_a = TAIL if (anc[ib] | anc_s) >> ia & 1 else ARROWHEAD
        mark_b = TAIL if (anc[ia] | anc_s) >> ib & 1 else ARROWHEAD
        edges.append(MixedEdge(a, mark_a, b, mark_b))
    return MixedGraph(observed, tuple(edges))


class ViolationKind(Enum):
    ANCESTRAL = "AncestralViolation"
    MAXIMALITY = "MaximalityViolation"
    SIGMA_COMPLETENESS = "SigmaCompletenessViolation"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    witness: tuple


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[Violation, ...]


def validate(h: MixedGraph) -> ValidityReport:
    """Check the three abstraction conditions and report every violation.

    In order: the ancestral condition (no edge may point back along an
    all-tails path), maximality (non-adjacent pairs admit no inducing
    path), and completeness of arrowhead-adjacent undirected fans (for
    every a *-> b -- c the pair a, c must be adjacent, and all
    undirected neighbours of such a b pairwise adjacent).  Structural
    single-edge and no-self-loop invariants are enforced by the graph
    type itself and can never fail here.
    """
    violations: list[Violation] = []
    idx = h.index

    # Ancestral condition: an anterior path from a to b forbids any edge
    # with an arrowhead at a between the two.
    for ib, b in enumerate(h.nodes):
        for a in idx.members(idx.ant[ib] & ~(1 << ib)):
            e = h.edge(a, b)
            if e is not None and e.mark_at(a) is ARROWHEAD:
                path = _shortest_walk(h, a, {b}, undirected=True)
                violations.append(Violation(ViolationKind.ANCESTRAL, (path, e)))

    # Maximality: a fast connectivity pre-check filters pairs, then an
    # actual inducing path is enumerated as the witness.  A pair that is
    # separable given the anterior candidate set can have no inducing
    # path at all, so the filter never misses a violation.
    for a, b in combinations(h.nodes, 2):
        if h.adjacent(a, b):
            continue
        z = canonical_inducing_separator(h, a, b)
        if m_separated(h, SeparationQuery((a,), (b,), z)).separated:
            continue
        witness = _shortest_inducing_path(h, a, b)
        if witness is not None:
            violations.append(Violation(ViolationKind.MAXIMALITY, (witness,)))

    # Completeness of arrowhead-adjacent undirected fans.
    for b in h.nodes:
        nbh = sorted(neighborhood(h, b))
        if not nbh:
            continue
        spikes = sorted(
            e.other(b)
            for e in h.incident_edges(b)
            if e.mark_at(b) is ARROWHEAD
        )
        for a in spikes:
            for c in nbh:
                if c != a and not h.adjacent(a, c):
                    violations.append(
                        Violation(ViolationKind.SIGMA_COMPLETENESS, (a, b, c))
                    )
            for c, d in combinations(nbh, 2):
                if not h.adjacent(c, d):
                    violations.append(
                        Violation(ViolationKind.SIGMA_COMPLETENESS, (a, b, c, d))
                    )

    violations.sort(key=_violation_sort_key)
    return ValidityReport(not violations, tuple(violations))


_KIND_ORDER = {kind: i for i, kind in enumerate(ViolationKind)}  # declaration order


def _violation_sort_key(v: Violation):
    first = v.witness[0]
    if isinstance(first, Walk):
        return (_KIND_ORDER[v.kind], len(first.edges), first.nodes)
    return (_KIND_ORDER[v.kind], 0, v.witness)


def _shortest_inducing_path(h: MixedGraph, a: NodeId, b: NodeId) -> Walk | None:
    return min(_iter_inducing_paths(h, a, b), key=lambda p: len(p.edges), default=None)


def canonical_dmg(h: MixedGraph) -> ContextedDmg:
    """Build one directed mixed graph that ``h`` abstracts.

    Directed and bidirected edges are copied.  An undirected edge whose
    endpoints both have complete neighborhoods becomes a two-cycle; any
    other undirected edge a -- b is replaced by a fresh childless
    selection node with a -> s_a_b <- b.  The result round-trips:
    ``represent(canonical_dmg(h)) == h``.
    """
    report = validate(h)
    if not report.valid:
        kinds = sorted({v.kind.value for v in report.violations})
        raise PreconditionError(
            "canonical reconstruction needs a valid input graph; found " + ", ".join(kinds)
        )
    complete = {v: neighborhood_complete(h, v) for v in h.nodes}
    taken = set(h.nodes)
    directed: list[tuple[NodeId, NodeId]] = []
    bidirected: list[tuple[NodeId, NodeId]] = []
    selection: list[NodeId] = []
    for e in h.edges:
        if e.is_undirected:
            if complete[e.a] and complete[e.b]:
                directed.append((e.a, e.b))
                directed.append((e.b, e.a))
            else:
                name = f"s_{e.a}_{e.b}"
                k = 0
                while name in taken:
                    k += 1
                    name = f"s_{e.a}_{e.b}_{k}"
                taken.add(name)
                selection.append(name)
                directed.append((e.a, name))
                directed.append((e.b, name))
        elif e.is_bidirected:
            bidirected.append((e.a, e.b))
        else:
            directed.append((e.directed_tail, e.directed_head))
    graph = DirectedMixedGraph(tuple(taken), tuple(directed), tuple(bidirected))
    return ContextedDmg(graph, tuple(selection))
