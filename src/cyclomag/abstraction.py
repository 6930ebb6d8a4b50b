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

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from . import separation
from .errors import PreconditionError
from .graphs import (
    ARROWHEAD,
    TAIL,
    ContextedDmg,
    DirectedMixedGraph,
    MixedEdge,
    MixedGraph,
    NodeId,
    _as_nodes,
    _check_type,
)
from .relations import neighborhood_complete
from .separation import (
    _ANTERIOR,
    SeparationQuery,
    _collider_reach,
    _joined,
    _search,
    _shortest_inducing_path,
)
from .separation import _iter_inducing_paths  # noqa: F401  unused; bench/tests checks the tracer wraps it here
from .walks import Walk


def marginalize(g: DirectedMixedGraph, w: Iterable[NodeId]) -> DirectedMixedGraph:
    """Project the nodes in ``w`` out of ``g``.

    A directed edge a -> b survives when some directed walk from a to b
    runs entirely through ``w``; a bidirected edge a <-> b appears when
    two such directed chains meet head-to-head at a common source or at
    a bidirected edge inside ``w``.
    """
    _check_type(g, DirectedMixedGraph, "marginalize")
    w = _as_nodes(w)
    g.require_nodes(w)
    idx = g.index
    latent = idx.mask(w)
    keep = [i for i in range(len(idx.names)) if not latent >> i & 1]
    # The tops of a are a and its latent sources.  Chains from a and b
    # meet when their tops share a latent apex or a bidirected edge
    # joins them.
    tops = {a: idx.closure(idx.pa, 1 << a, latent) & latent | 1 << a for a in keep}
    meets = {a: tops[a] & latent | idx.union(idx.bi, tops[a]) for a in keep}
    names = idx.names
    directed = [(names[a], names[b]) for a in keep for b in idx.ids_in(idx.closure(idx.ch, 1 << a, latent) & ~(latent | 1 << a))]
    bidirected = [(names[a], names[b]) for a, b in combinations(keep, 2) if meets[a] & tops[b]]
    return DirectedMixedGraph(tuple(names[a] for a in keep), tuple(directed), tuple(bidirected))


def represent(c: ContextedDmg) -> MixedGraph:
    """Abstract a directed mixed graph with selection nodes.

    Two observed nodes become adjacent exactly when they cannot be
    separated by any admissible conditioning set: a pair a, b is adjacent
    when it stays connected given Z_ab = Anc({a, b} | S) - {a, b}, the
    test of :func:`~cyclomag.separation.sigma_inducing_exists`.
    Sigma-separation is d-separation in the graph's acyclification
    G^acy, so most pairs are decided from its index masks without a
    search.  No set without the two nodes separates a pair adjacent in
    G^acy (``acy``).  Put T = Anc(a) | Anc(S).  For a partner b in T,
    Anc(b) lies in T, so Z_ab | {a, b} is T itself, and T is ancestral:
    every interior node of a path that connects a and b given Z_ab lies
    in Z_ab and is a collider.  So the pair is adjacent exactly when a
    collider chain a *-> c1 <-> .. <-> ck <-* b of G^acy runs inside
    Z_ab.  A chain through a or b can be cut short there, so one closure
    over ``acy_bi`` inside T from ``acy_heads[a]`` decides every partner
    in T both ways: b is adjacent when ``acy_heads[b]`` meets it, and
    separated otherwise.  A pair with neither end in the other's T is
    decided by separation searches.

    Those pairs are decided a group at a time, one
    :func:`~cyclomag.separation.sigma_separated` query per group.  With
    T as above, let P hold a's partners not known to be adjacent to it.
    The group Y holds a's undecided partners whose ancestors all lie in
    T | P, and those of their ancestors outside T, so T | Y is
    ancestral.  The query asks whether {a} is separated from Y given
    z = T - (Y | {a}).  Off Y | {a}, z agrees with each Z_ab, b in Y, and
    a collider of a walk from a that stops at its first node of Y lies in
    Anc(Z_ab), inside T | Y, so in z.  So a separated group separates
    each of its pairs, and a connected one joins a to the node its
    witness ends at, which leaves P before Y is built again.  A pair that
    no group takes, from either end, gets its own query, with Y = {b}
    and z = (T | Anc(b)) - {a, b}.

    The mark at an endpoint is a tail when that endpoint is an ancestor
    of the other one or of the selection set, and an arrowhead otherwise.
    """
    _check_type(c, ContextedDmg, "represent")
    g, observed = c.graph, c.observed
    idx = g.index
    ids, heads, anc = idx.ids, idx.acy_heads, idx.anc
    anc_s = idx.union(anc, idx.mask(c.selection))
    obs = idx.mask(observed)
    adjacent = list(idx.acy)  # the pairs found adjacent, on both nodes
    decided = adjacent[:]  # the pairs decided either way, on both nodes
    for ia in idx.ids_in(obs):  # every undecided partner in T = Anc(a) | Anc(S)
        t = anc[ia] | anc_s
        chained = _collider_reach(idx, heads[ia], idx.acy_bi, t)
        for ib in idx.ids_in(obs & t & ~decided[ia]):
            decided[ia] |= 1 << ib
            decided[ib] |= 1 << ia
            if heads[ib] & chained:
                adjacent[ia] |= 1 << ib
                adjacent[ib] |= 1 << ia

    def query(a: NodeId, y: int) -> None:
        ia = ids[a]
        z = (anc[ia] | anc_s | idx.union(anc, y)) & ~(y | 1 << ia)
        # Looked up on the module at each call, so a wrapped engine sees every query.
        verdict = separation.sigma_separated(g, SeparationQuery((a,), idx.members(y), idx.members(z)))
        if not verdict.separated:
            ib = ids[verdict.witness.nodes[-1]]
            adjacent[ia] |= 1 << ib
            adjacent[ib] |= 1 << ia
            y = 1 << ib
        y &= ~decided[ia]
        decided[ia] |= y
        for ib in idx.ids_in(y):
            decided[ib] |= 1 << ia

    for a in observed:
        ia = ids[a]
        t = anc[ia] | anc_s
        # Undecided partners with no ancestor adjacent to a outside T; decided covers adjacent.
        while undecided := obs & ~decided[ia] & ~idx.union(idx.desc, adjacent[ia] & ~t):
            query(a, undecided | idx.union(anc, undecided) & ~t)
    for a in observed:
        for ib in idx.ids_in(obs & ~decided[ids[a]]):
            query(a, 1 << ib)
    edges = []
    for a, b in combinations(observed, 2):
        ia, ib = ids[a], ids[b]
        if adjacent[ia] >> ib & 1:
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

    Polynomial; every pair test is a bitmask operation on the index.
    Each non-adjacent pair costs one collider closure, and only a pair
    it joins is searched for its maximality witness, the first shortest
    of its :func:`~cyclomag.separation.inducing_paths`.
    """
    _check_type(h, MixedGraph, "validate")
    violations: list[Violation] = []
    idx = h.index
    names, adj = h.nodes, idx.adj

    # Ancestral condition: an anterior path from a to b forbids any edge
    # with an arrowhead at a between the two.  The witness is the first
    # shortest such path; all of them lie inside Ant(b).
    for ib, b in enumerate(names):
        for ia in idx.ids_in(idx.ant[ib] & idx.into[ib]):
            path = _search(idx.rows, names, _ANTERIOR, [ia], 1 << ib, idx.ant[ib])
            violations.append(Violation(ViolationKind.ANCESTRAL, (path, h.edge(names[ia], b))))

    # Maximality: no inducing path may join a non-adjacent pair.  A mask
    # & -(2 << i) keeps the ids above i.
    everyone = (1 << len(names)) - 1
    for ia in range(len(names)):
        for ib in idx.ids_in(everyone & ~adj[ia] & -(2 << ia)):
            if _joined(idx, ia, ib, adj, idx.into, idx.bi, idx.anc[ia] | idx.anc[ib]):
                violations.append(Violation(ViolationKind.MAXIMALITY, (_shortest_inducing_path(idx, ia, ib),)))

    # Completeness of arrowhead-adjacent undirected fans.  A spike is never
    # an undirected neighbour (one edge per pair), and b's non-adjacent
    # neighbour pairs are the same for every spike.
    for ib, b in enumerate(names):
        nbh = idx.und[ib]
        if not nbh or not idx.spikes[ib]:
            continue
        gaps = [(names[c], names[d]) for c in idx.ids_in(nbh) for d in idx.ids_in(nbh & ~adj[c] & -(2 << c))]
        for ia in idx.ids_in(idx.spikes[ib]):
            a = names[ia]
            for c in idx.members(nbh & ~adj[ia]):
                violations.append(Violation(ViolationKind.SIGMA_COMPLETENESS, (a, b, c)))
            for c, d in gaps:
                violations.append(Violation(ViolationKind.SIGMA_COMPLETENESS, (a, b, c, d)))

    violations.sort(key=_violation_sort_key)
    return ValidityReport(not violations, tuple(violations))


_KIND_ORDER = {kind: i for i, kind in enumerate(ViolationKind)}  # declaration order


def _violation_sort_key(v: Violation):
    first = v.witness[0]
    if isinstance(first, Walk):
        return (_KIND_ORDER[v.kind], len(first.edges), first.nodes)
    return (_KIND_ORDER[v.kind], 0, v.witness)


def canonical_dmg(h: MixedGraph) -> ContextedDmg:
    """Build one directed mixed graph that ``h`` abstracts.

    Directed and bidirected edges are copied.  An undirected edge whose
    endpoints both have complete neighborhoods becomes a two-cycle; any
    other undirected edge a -- b is replaced by a fresh childless
    selection node with a -> s_a_b <- b.  The result round-trips:
    ``represent(canonical_dmg(h)) == h``.
    """
    _check_type(h, MixedGraph, "canonical_dmg")
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
