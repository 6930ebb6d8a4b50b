"""Seeded random graph generation.

Randomness comes from :class:`random.Random`, the stdlib Mersenne
Twister, consuming one ``random()`` draw per candidate edge in a fixed
documented order, so a seed reproduces the same graph on every platform
and Python version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError
from .graphs import ContextedDmg, DirectedMixedGraph


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of :func:`random_dmg`; equal configs give equal graphs."""

    n_nodes: int
    p_directed: float
    p_bidirected: float
    n_selection: int = 0
    seed: int = 0

    def __post_init__(self):
        # A bool is an int, but never a count, a seed or a probability.
        for name in ("n_nodes", "n_selection", "seed", "p_directed", "p_bidirected"):
            value, number = getattr(self, name), name.startswith("p_")
            if not isinstance(value, (int, float) if number else int) or isinstance(value, bool):
                raise InputError(f"{name} must be {'a number' if number else 'an integer'}, got {value!r}")
        if self.n_nodes < 1:
            raise InputError("n_nodes must be positive")
        if self.n_selection < 0:
            raise InputError("n_selection must not be negative")
        if self.n_selection >= self.n_nodes:
            raise InputError("n_selection must leave at least one observed node")
        for p in (self.p_directed, self.p_bidirected):
            if not 0.0 <= p <= 1.0:
                raise InputError("edge probabilities must lie in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must be an unsigned 64-bit integer")


def random_dmg(cfg: GeneratorConfig, allow_selection_children: bool = False) -> ContextedDmg:
    """Draw a graph with nodes v1..vN and the last nodes as selection set.

    Draw order: one uniform draw per ordered pair (vi, vj), i and j
    ascending, accepting a directed edge when the draw falls below
    p_directed; then one draw per unordered pair i < j for bidirected
    edges.  Selection nodes are made childless afterwards (their
    outgoing directed edges are dropped) unless the override is set.
    """
    rng = random.Random(cfg.seed)
    names = [f"v{i}" for i in range(1, cfg.n_nodes + 1)]
    directed = []
    for i in range(cfg.n_nodes):
        for j in range(cfg.n_nodes):
            if i == j:
                continue
            if rng.random() < cfg.p_directed:
                directed.append((names[i], names[j]))
    bidirected = []
    for i in range(cfg.n_nodes):
        for j in range(i + 1, cfg.n_nodes):
            if rng.random() < cfg.p_bidirected:
                bidirected.append((names[i], names[j]))
    selection = tuple(names[cfg.n_nodes - cfg.n_selection :])
    if not allow_selection_children:
        sel = set(selection)
        directed = [(t, h) for t, h in directed if t not in sel]
    graph = DirectedMixedGraph(tuple(names), tuple(directed), tuple(bidirected))
    return ContextedDmg(graph, selection)
