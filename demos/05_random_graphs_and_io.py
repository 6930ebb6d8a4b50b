"""Seeded random systems, text documents, and DOT export.

Everything here is reproducible: the generator consumes one draw per
candidate edge from a seeded Mersenne Twister in a documented order, so
a seed pins the graph on every platform.
"""

from cyclomag import (
    GeneratorConfig,
    export_dot,
    parse_graph,
    random_dmg,
    represent,
    serialize_graph,
    validate,
)

cfg = GeneratorConfig(n_nodes=5, p_directed=0.3, p_bidirected=0.15, n_selection=1, seed=42)
system = random_dmg(cfg)
text = serialize_graph(system)
print(f"seed {cfg.seed} always gives:")
print(text)

assert parse_graph(text, "dmg") == system
print("the document round-trips through the parser exactly\n")

summary = represent(system)
assert validate(summary).valid
print("its abstraction (valid by construction):")
print(serialize_graph(summary))

print("DOT rendering of the system (selection nodes drawn as boxes):")
print(export_dot(system))
