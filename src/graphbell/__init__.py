"""Exact classical bounds for graph-state Bell operators.

Build a graph, enumerate its stabilizer as a signed Pauli term list, maximize
the term sum exactly over deterministic local-hidden-variable assignments,
and bound large graphs compositionally through bridge splits. A dense
statevector oracle cross-checks the algebra on small instances.
"""

from .bounds import (
    CompositeBound,
    TreeCertificate,
    bridge_compose_bound,
    chain_bound,
    geometric_measure_lower_bound,
    ppt_scope_flag,
    subgraph_bound,
    tree_certificate,
)
from .errors import CapExceededError, EdgeListParseError, InvalidGraphError
from .graph import (
    Graph,
    GraphFamily,
    bridges,
    build_family,
    connected_components,
    from_edges,
    induced_subgraph,
    is_connected,
    is_tree,
    local_complement,
    parse_edge_list,
    parse_graph6,
    render_edge_list,
)
from .lhv import (
    Assignment,
    BoundReport,
    bell_value,
    classical_bound,
    operator_bound,
)
from .oracle import (
    SchmidtProfile,
    StateVector,
    check_stabilized,
    projector_identity_residual,
    quantum_bell_value,
    schmidt_profile,
    statevector,
)
from .stabilizer import BellOperator, bell_terms

__all__ = [
    "Assignment",
    "BellOperator",
    "BoundReport",
    "CapExceededError",
    "CompositeBound",
    "EdgeListParseError",
    "Graph",
    "GraphFamily",
    "InvalidGraphError",
    "SchmidtProfile",
    "StateVector",
    "TreeCertificate",
    "bell_terms",
    "bell_value",
    "bridge_compose_bound",
    "bridges",
    "build_family",
    "chain_bound",
    "check_stabilized",
    "classical_bound",
    "connected_components",
    "from_edges",
    "geometric_measure_lower_bound",
    "induced_subgraph",
    "is_connected",
    "is_tree",
    "local_complement",
    "operator_bound",
    "parse_edge_list",
    "parse_graph6",
    "ppt_scope_flag",
    "projector_identity_residual",
    "quantum_bell_value",
    "render_edge_list",
    "schmidt_profile",
    "statevector",
    "subgraph_bound",
    "tree_certificate",
]
