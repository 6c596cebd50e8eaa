"""Global configuration selection via SSSP (paper Sec. VI-A, Fig. 6)."""

from .chain import ChainError, ChainStep, primary_chain, project_layout
from .selector import (
    ChainMatrices,
    SelectedConfiguration,
    TransposeInsertion,
    build_chain_matrices,
    select_configurations,
)
from .sssp import (
    ConfigGraph,
    SSSPError,
    shortest_path,
    shortest_path_layered,
    shortest_path_networkx,
)

__all__ = [
    "ChainError",
    "ChainMatrices",
    "ChainStep",
    "ConfigGraph",
    "SSSPError",
    "SelectedConfiguration",
    "TransposeInsertion",
    "build_chain_matrices",
    "primary_chain",
    "project_layout",
    "select_configurations",
    "shortest_path",
    "shortest_path_layered",
    "shortest_path_networkx",
]
