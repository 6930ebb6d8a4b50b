"""From a cyclic system with hidden structure to its observable summary.

We start with a directed graph over six variables where `u` is latent
(never measured) and `s` is a selection variable (the data is implicitly
conditioned on it).  Projecting `u` out gives a directed mixed graph;
abstracting over the selection node gives a single mixed graph that
records exactly which observed variables can never be separated and
which ancestral relations survive.
"""

from cyclomag import ContextedDmg, marginalize, represent, serialize_graph

full_system = ContextedDmg.of(
    "a -> b",
    "b -> a",   # a and b form a feedback loop
    "b -> s",
    "c -> s",   # b and c are both selected on
    "u -> b",
    "u -> d",   # u confounds b and d
    selection=("s",),
)
print("full system (latent u, selection s):")
print(serialize_graph(full_system))

projected = marginalize(full_system.graph, {"u"})
print("after projecting the latent node out (u's fork becomes b <-> d):")
print(serialize_graph(ContextedDmg(projected, ("s",))))

summary = represent(ContextedDmg(projected, ("s",)))
print("abstraction over the observed nodes:")
print(serialize_graph(summary))

print("reading the marks:")
print(" * a -- b : each node is an ancestor of the other (the feedback loop)")
print(" * b -- c : both are ancestors of the selection node")
print(" * a -> d, b -> d : d is not an ancestor of anything observed or selected")
