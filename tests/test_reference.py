"""The m engine, the m oracle and ``m_open_walk`` against ``reference.py``.

The m engine's search table is derived from the m oracle's step rule, so
their differential no longer compares two independent implementations.
These tests compare both with references that share no code with them.
"""

import ast
import itertools
import random
from pathlib import Path

from cyclomag import (
    GeneratorConfig,
    MixedGraph,
    SeparationQuery,
    canonical_inducing_separator,
    enumerate_simple_paths,
    m_open_walk,
    m_separated,
    m_separated_oracle,
    random_dmg,
    represent,
)
from fixtures import all_subsets, seeded_valid_mixed
from reference import m_open_walk_reference, m_separated_augmented

FORBIDDEN = {"separation", "relations", "GraphIndex"}


def _imported(tree: ast.AST) -> set:
    """Each module path part and each name that ``tree`` imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {part for alias in node.names for part in alias.name.split(".")}
    return found


def test_reference_imports_nothing_from_the_criteria():
    sample = "from cyclomag.separation import x\nimport cyclomag.relations\nfrom cyclomag import GraphIndex\n"
    assert _imported(ast.parse(sample)) >= FORBIDDEN
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    assert not _imported(tree) & FORBIDDEN
    # Nor does it read a graph's index.
    assert "index" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_m_engine_and_oracle_agree_with_the_references_up_to_7_nodes():
    connected = 0
    for seed in range(100):
        h = seeded_valid_mixed(seed, max_n=7)
        for a, b in itertools.combinations(h.nodes, 2):
            for z in all_subsets(v for v in h.nodes if v not in (a, b)):
                q = SeparationQuery(a, b, z)
                expected = m_separated_augmented(h, {a}, {b}, z)
                engine, oracle = m_separated(h, q), m_separated_oracle(h, q)
                assert engine.separated == oracle.separated == expected
                if not expected:
                    assert m_open_walk_reference(h, engine.witness, z) and m_open_walk_reference(h, oracle.witness, z)
                    connected += 1
    assert connected > 1000


def test_m_engine_agrees_with_the_augmented_graph_at_50_to_60_nodes():
    verdicts = []
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(50, 60)
        config = GeneratorConfig(n, 1.5 / n, 0.8 / n, rng.randint(0, n // 10), seed)
        h = represent(random_dmg(config, allow_selection_children=True))
        for _ in range(20):
            a, b = rng.sample(h.nodes, 2)
            # The canonical separator separates a non-adjacent pair of a valid
            # graph; a random part of it, or a random set, may not.
            z = canonical_inducing_separator(h, a, b)
            part = {v for v in z if rng.random() < 0.7}
            for given in (z, part, {v for v in h.nodes if v not in (a, b) and rng.random() < 0.1}):
                verdict = m_separated(h, SeparationQuery(a, b, given))
                assert verdict.separated == m_separated_augmented(h, {a}, {b}, given)
                assert verdict.separated or m_open_walk_reference(h, verdict.witness, given)
                verdicts.append(verdict.separated)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_m_open_walk_agrees_with_the_reference_walk_predicate():
    # Random marks with all four arrow tokens around a directed 4-cycle, so
    # mostly invalid graphs where undirected edges meet arrowheads and tails.
    checked = 0
    for seed in range(30):
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randint(4, 7))]
        cycle = {("v0", "v1"): "->", ("v1", "v2"): "->", ("v2", "v3"): "->", ("v0", "v3"): "<-"}
        h = MixedGraph.of(
            *(
                f"{a} {cycle.get((a, b)) or rng.choice(('->', '<-', '<->', '--'))} {b}"
                for a, b in itertools.combinations(names, 2)
                if (a, b) in cycle or rng.random() < 0.4
            ),
            nodes=names,
        )
        for a, b in itertools.combinations(names, 2):
            for p in enumerate_simple_paths(h, a, b):
                for z in (set(), set(p.nodes[1:-1]), {v for v in names if rng.random() < 0.4}):
                    assert m_open_walk(h, p, z) == m_open_walk_reference(h, p, z)
                    checked += m_open_walk(h, p, z)
    assert checked > 500
