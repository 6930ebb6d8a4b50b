"""Known-answer predicates.

They restate the definitions the library implements, written apart from
it, so a verdict or witness is checked without calling the function that
produced it.  Graphs are first taken apart into plain dictionaries.
Every check raises :class:`CheckFailed` with a reason, or returns.
"""

from __future__ import annotations

TAIL, HEAD = "tail", "head"

# Marks (at the node left, at the node entered) of an edge written as
# seen along a path.
ARROW_MARKS = {"->": (TAIL, HEAD), "<-": (HEAD, TAIL), "<->": (HEAD, HEAD), "--": (TAIL, TAIL)}


class CheckFailed(Exception):
    """A verdict, witness or output disagrees with the known answer."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _reach(start, step) -> frozenset:
    seen = set(start)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in step(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def parse_path(text: str) -> tuple[list[str], list[str]]:
    """Split a rendered path such as ``a -> b <-> c`` into nodes and arrows."""
    tokens = text.split()
    require(len(tokens) % 2 == 1, f"malformed path {text!r}")
    nodes, arrows = tokens[0::2], tokens[1::2]
    require(all(op in ARROW_MARKS for op in arrows), f"malformed path {text!r}")
    return nodes, arrows


class Mixed:
    """A mixed graph as ``adj[u][v] = (mark at u, mark at v)``."""

    def __init__(self, nodes, edges):
        self.adj: dict[str, dict[str, tuple[str, str]]] = {v: {} for v in nodes}
        for u, op, v in edges:
            mu, mv = ARROW_MARKS[op]
            self.adj[u][v] = (mu, mv)
            self.adj[v][u] = (mv, mu)

    def parents(self, v: str):
        return [u for u, (mv, mu) in self.adj[v].items() if mv == HEAD and mu == TAIL]

    def ancestors(self, targets) -> frozenset:
        return _reach(targets, self.parents)

    def has_path(self, nodes, arrows) -> bool:
        return all(
            self.adj[u].get(w) == ARROW_MARKS[op] for u, op, w in zip(nodes, arrows, nodes[1:])
        )

    def into(self, u: str, v: str) -> bool:
        """An edge joins u and v with an arrowhead at v."""
        return v in self.adj[u] and self.adj[u][v][1] == HEAD

    def undirected(self, u: str, v: str) -> bool:
        return self.adj[u].get(v) == (TAIL, TAIL)


class Dmg:
    """A directed mixed graph as edge sets, with strong components."""

    def __init__(self, g):
        self.nodes = g.nodes
        self.directed = set(g.directed)
        self.bidirected = set(g.bidirected)
        self.parents = {v: [] for v in g.nodes}
        self.children = {v: [] for v in g.nodes}
        for t, h in self.directed:
            self.children[t].append(h)
            self.parents[h].append(t)
        self._scc: dict[str, frozenset] = {}

    def ancestors(self, targets) -> frozenset:
        return _reach(targets, self.parents.__getitem__)

    def scc(self, v: str) -> frozenset:
        if v not in self._scc:
            comp = self.ancestors({v}) & _reach({v}, self.children.__getitem__)
            for w in comp:
                self._scc[w] = comp
        return self._scc[v]

    def components(self) -> dict[str, str]:
        """Each node's connected part of the skeleton, named by one member."""
        nbrs = {v: set(self.parents[v]) | set(self.children[v]) for v in self.nodes}
        for a, b in self.bidirected:
            nbrs[a].add(b)
            nbrs[b].add(a)
        part: dict[str, str] = {}
        for v in self.nodes:
            if v not in part:
                for w in _reach({v}, nbrs.__getitem__):
                    part[w] = v
        return part

    def has_path(self, nodes, arrows) -> bool:
        for u, op, w in zip(nodes, arrows, nodes[1:]):
            if op == "->":
                ok = (u, w) in self.directed
            elif op == "<-":
                ok = (w, u) in self.directed
            elif op == "<->":
                ok = (min(u, w), max(u, w)) in self.bidirected
            else:
                ok = False
            if not ok:
                return False
        return True


def _interior(nodes, arrows):
    """(previous, node, next, mark in, mark out) for each interior node."""
    for k in range(1, len(nodes) - 1):
        yield nodes[k - 1], nodes[k], nodes[k + 1], ARROW_MARKS[arrows[k - 1]][1], ARROW_MARKS[arrows[k]][0]


def check_open_path(graph, kind: str, text: str, x, y, z) -> None:
    """``text`` is a simple path from x to y that is open given z.

    ``kind`` is ``"m"`` for a :class:`Mixed` graph or ``"sigma"`` for a
    :class:`Dmg`.  m-open: no endpoint or non-collider in z, every
    collider an ancestor of z, and no arrowhead meeting an undirected
    edge.  sigma-open: endpoints outside z, every collider an ancestor of
    z, and every non-collider in z unblockable, that is, each of its
    path edges that leaves it with a tail stays inside its strong
    component.
    """
    nodes, arrows = parse_path(text)
    require(graph.has_path(nodes, arrows), f"witness {text!r} is not a path of the graph")
    require(len(set(nodes)) == len(nodes), f"witness {text!r} repeats a node")
    require(nodes[0] in x and nodes[-1] in y, f"witness {text!r} does not join the query sets")
    require(nodes[0] not in z and nodes[-1] not in z, f"witness {text!r} ends in the conditioning set")
    anc_z = graph.ancestors(z)
    for (prev, v, nxt, m_in, m_out), k in zip(_interior(nodes, arrows), range(1, len(nodes))):
        if m_in == HEAD and m_out == HEAD:
            require(v in anc_z, f"collider {v} of {text!r} is not an ancestor of the conditioning set")
            continue
        if kind == "m":
            require(
                not (m_in == HEAD and arrows[k] == "--") and not (arrows[k - 1] == "--" and m_out == HEAD),
                f"arrowhead meets an undirected edge at {v} on {text!r}",
            )
            require(v not in z, f"non-collider {v} of {text!r} is conditioned on")
        elif v in z:
            comp = graph.scc(v)
            blockable = (m_in == TAIL and prev not in comp) or (m_out == TAIL and nxt not in comp)
            require(not blockable, f"blockable non-collider {v} of {text!r} is conditioned on")


def inducing_path_exists(g: Mixed, a: str, b: str) -> bool:
    """Some path joins a and b whose interior nodes are colliders and ancestors of {a, b}.

    A search over nodes: an interior node needs an arrowhead on
    both of its path edges and membership in the ancestor set, and both
    conditions are local to the node, so node reachability decides it.
    """
    anc = g.ancestors({a, b})
    seen = {a}
    frontier = [a]
    while frontier:
        u = frontier.pop()
        for w, (mu, mw) in g.adj[u].items():
            if u != a and mu != HEAD:
                continue
            if w == b:
                return True
            if w not in seen and w in anc and mw == HEAD:
                seen.add(w)
                frontier.append(w)
    return False


def stays_valid_without(nodes, edges, a: str, b: str) -> bool:
    """Removing edge a-b from a valid graph leaves it valid.

    Removal cannot create an anterior path or an inducing path for
    another pair, so only two things can break: an inducing path still
    joins a and b, or a fan condition needs the pair adjacent (some
    ``a *-> m -- b``, ``b *-> m -- a``, or ``m -- a``, ``m -- b`` with an
    arrowhead into m).
    """
    h = Mixed(nodes, [(u, op, v) for u, op, v in edges if {u, v} != {a, b}])
    if inducing_path_exists(h, a, b):
        return False
    for m in h.adj:
        und = {w for w in h.adj[m] if h.undirected(m, w)}
        if (a in und and h.into(b, m)) or (b in und and h.into(a, m)):
            return False
        if {a, b} <= und and any(h.into(w, m) for w in h.adj[m]):
            return False
    return True


def check_violation(g: Mixed, kind: str, witness: str) -> None:
    """A ``validate`` violation line names a real violation of the graph."""
    if kind == "AncestralViolation":
        path, _, edge = witness.partition("; ")
        nodes, arrows = parse_path(path)
        require(g.has_path(nodes, arrows), f"ancestral witness {path!r} is not a path")
        require(all(ARROW_MARKS[op][0] == TAIL for op in arrows), f"{path!r} is not anterior")
        a, b = nodes[0], nodes[-1]
        u, op, w = edge.split()
        require({u, w} == {a, b} and a != b, f"edge {edge!r} does not join the path ends")
        require(g.adj[u].get(w) == ARROW_MARKS[op], f"edge {edge!r} is not in the graph")
        require(g.adj[a][b][0] == HEAD, f"edge {edge!r} has no arrowhead at {a}")
    elif kind == "MaximalityViolation":
        nodes, arrows = parse_path(witness)
        require(g.has_path(nodes, arrows), f"inducing witness {witness!r} is not a path")
        require(len(set(nodes)) == len(nodes) > 2, f"{witness!r} is not a simple path of length 2 or more")
        a, b = nodes[0], nodes[-1]
        require(b not in g.adj[a], f"{a} and {b} are adjacent")
        anc = g.ancestors({a, b})
        for _, v, _, m_in, m_out in _interior(nodes, arrows):
            require(m_in == HEAD and m_out == HEAD and v in anc, f"{v} breaks inducing path {witness!r}")
    elif kind == "SigmaCompletenessViolation":
        parts = witness.strip("()").split(", ")
        require(len(parts) in (3, 4), f"malformed fan witness {witness!r}")
        a, b, *rest = parts
        require(g.into(a, b), f"no arrowhead from {a} into {b}")
        require(all(g.undirected(b, c) for c in rest), f"{rest} not all undirected neighbours of {b}")
        c, d = (a, rest[0]) if len(rest) == 1 else rest
        require(c != d and d not in g.adj[c], f"{c} and {d} are adjacent in fan {witness!r}")
    else:
        raise CheckFailed(f"unknown violation kind {kind!r}")


def discriminates(g: Mixed, nodes, b: str) -> bool:
    """``nodes`` is a discriminating path for ``b``, the second-to-last node."""
    nodes = list(nodes)
    if len(nodes) < 4 or len(set(nodes)) != len(nodes) or nodes[-2] != b:
        return False
    if any(w not in g.adj[u] for u, w in zip(nodes, nodes[1:])):
        return False
    a, c = nodes[0], nodes[-1]
    if c in g.adj[a]:
        return False
    for k in range(1, len(nodes) - 2):
        v = nodes[k]
        if not (g.into(nodes[k - 1], v) and g.into(nodes[k + 1], v)):
            return False
        if g.adj[v].get(c) != (TAIL, HEAD):
            return False
    return True


def collider_at(g: Mixed, nodes, k: int) -> bool:
    return g.into(nodes[k - 1], nodes[k]) and g.into(nodes[k + 1], nodes[k])


def check_dot(text: str, nodes, edges) -> None:
    """Graphviz text lists exactly the given nodes and edges."""
    lines = text.splitlines()
    require(lines[0] == "digraph G {" and lines[-1] == "}", "DOT output is not one digraph")
    seen_nodes, seen_edges = set(), set()
    for line in lines[1:-1]:
        body = line.strip().rstrip(";")
        if " -> " not in body:
            seen_nodes.add(body.strip('"'))
            continue
        pair, _, attr = body.partition(" [")
        u, v = (part.strip('"') for part in pair.split(" -> "))
        if attr:
            op = {"dir=both]": "<->", "dir=none]": "--"}[attr]
            u, v = min(u, v), max(u, v)
        else:
            op = "->"
        seen_edges.add((u, op, v))
    expected = {(u, op, v) if op == "->" else (min(u, v), op, max(u, v)) for u, op, v in edges}
    require(seen_nodes == set(nodes), "DOT output lists other nodes")
    require(seen_edges == expected, "DOT output lists other edges")
