"""Which mixed graphs are valid abstractions, and how to invert one.

A mixed graph summarises some cyclic system exactly when it passes
three checks: no edge may point back along an all-tails path, every
non-adjacent pair must be separable, and an arrowhead meeting an
undirected fan forces the fan to be shielded.  For any graph that
passes, `canonical_dmg` builds one concrete system it summarises.
"""

from cyclomag import (
    MixedGraph,
    canonical_dmg,
    represent,
    serialize_graph,
    validate,
)

candidates = {
    "bidirected chain with chords": MixedGraph.of(
        "a <-> b", "b <-> c", "c <-> d", "b -> d", "c -> a"
    ),
    "arrow into an unshielded fan": MixedGraph.of("a -> b", "b -- c"),
    "undirected triangle with child": MixedGraph.of("a -- b", "b -- c", "c -- a", "a -> d"),
    "open undirected fan": MixedGraph.of("a -- b", "a -- c", "a -> d"),
}

for name, h in candidates.items():
    report = validate(h)
    print(f"{name}: {'valid' if report.valid else 'INVALID'}")
    for violation in report.violations:
        witness = violation.witness[0]
        rendered = witness.render() if hasattr(witness, "render") else str(violation.witness)
        print(f"  {violation.kind.value}: {rendered}")
print()

# The two valid candidates store different information in their
# undirected edges: a complete neighborhood can come from a feedback
# loop, an incomplete one only from selection.
for name in ("undirected triangle with child", "open undirected fan"):
    h = candidates[name]
    witness_system = canonical_dmg(h)
    print(f"one system summarised by the {name}:")
    print(serialize_graph(witness_system))
    assert represent(witness_system) == h
    print("  (abstracting it again reproduces the input exactly)\n")
