"""Cyclic directed mixed graphs and their maximal ancestral abstractions.

The package models graphs with feedback loops and latent selection,
decides sigma-separation on them, compresses them into single mixed
graphs over the observed nodes, reconstructs a witness graph from any
valid abstraction, and tests Markov equivalence both structurally and
by exhaustive oracle.
"""

from .abstraction import (
    ValidityReport,
    Violation,
    ViolationKind,
    canonical_dmg,
    marginalize,
    represent,
    validate,
)
from .equivalence import (
    DiscriminatingPath,
    EquivalenceClause,
    EquivalenceReport,
    condition1,
    discriminating_paths,
    is_discriminating,
    m_markov_equivalent_oracle,
    sigma_markov_equivalent_oracle,
    unshielded_colliders,
)
from .errors import (
    CyclomagError,
    InputError,
    NodeSetError,
    OracleCapError,
    ParseError,
    PreconditionError,
)
from .generators import GeneratorConfig, random_dmg
from .graphs import (
    ARROWHEAD,
    TAIL,
    ContextedDmg,
    DirectedMixedGraph,
    EdgeMark,
    MixedEdge,
    MixedGraph,
    NodeId,
)
from .io_text import export_dot, parse_graph, serialize_graph
from .relations import (
    ancestors,
    anteriors,
    descendants,
    enumerate_simple_paths,
    neighborhood,
    neighborhood_complete,
    scc_index,
    strongly_connected_components,
)
from .separation import (
    SeparationQuery,
    SeparationVerdict,
    canonical_inducing_separator,
    inducing_exists,
    inducing_paths,
    m_open_walk,
    m_separated,
    m_separated_oracle,
    sigma_inducing_exists,
    sigma_inducing_paths,
    sigma_open_path_segments,
    sigma_open_walk,
    sigma_separated,
    sigma_separated_oracle,
)
from .walks import Walk, parse_walk

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
