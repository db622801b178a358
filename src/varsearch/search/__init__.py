from .space import (
    PartitionMode,
    SearchBudget,
    SearchMethod,
    SearchResult,
    SearchSpace,
    enumerate_space,
)
from .evaluation import derive_candidate_seed, evaluate_config
from .engines import (
    exhaustive_search,
    ga_search,
    grasp_search,
    hybrid_search,
    scatter_search,
    tabu_search,
    GAParams,
    GraspParams,
    HybridParams,
    ScatterParams,
    TabuParams,
)

__all__ = [
    "PartitionMode",
    "SearchBudget",
    "SearchMethod",
    "SearchResult",
    "SearchSpace",
    "enumerate_space",
    "derive_candidate_seed",
    "evaluate_config",
    "exhaustive_search",
    "ga_search",
    "grasp_search",
    "hybrid_search",
    "scatter_search",
    "tabu_search",
    "GAParams",
    "GraspParams",
    "HybridParams",
    "ScatterParams",
    "TabuParams",
]
