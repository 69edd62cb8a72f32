"""Graph substrate: CSR graphs, generators, traversal, IO and datasets."""

from repro.graph.graph import Graph
from repro.graph.builders import (
    from_edge_list,
    from_networkx,
    from_adjacency_matrix,
    to_networkx,
)
from repro.graph.traversal import (
    bfs_tree,
    connected_components,
    diameter,
    is_connected,
    largest_connected_component,
)
from repro.graph import generators
from repro.graph import datasets
from repro.graph import io
from repro.graph import properties

__all__ = [
    "Graph",
    "from_edge_list",
    "from_networkx",
    "from_adjacency_matrix",
    "to_networkx",
    "bfs_tree",
    "connected_components",
    "diameter",
    "is_connected",
    "largest_connected_component",
    "generators",
    "datasets",
    "io",
    "properties",
]
