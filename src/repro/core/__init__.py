"""The paper's primary contribution: AL-VC core.

Abstraction-layer construction (vertex-cover + maximum-weight greedy,
Section III.C), service-based virtual clusters, network function chains,
the O/E/O-minimizing VNF placement optimizer (Section IV.D), optical
slicing, and the network orchestrator that ties them together
(Section IV.B).
"""

from repro.core.abstraction_layer import (
    AbstractionLayer,
    AlConstructionStrategy,
    AlConstructor,
)
from repro.core.algorithms import (
    CoverResult,
    CoverStep,
    bipartite_min_vertex_cover,
    greedy_marginal_cover,
    greedy_max_weight_cover,
    natural_sort_key,
    random_cover,
)
from repro.core.branching import (
    Branch,
    BranchingChain,
    BranchingPlacement,
    BranchingPlacementSolver,
)
from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.cluster import ClusterManager, VirtualCluster
from repro.core.orchestrator import (
    NetworkOrchestrator,
    OrchestratedChain,
    ProvisioningPlan,
)
from repro.core.placement import (
    ChainPlacement,
    HostPolicy,
    PlacementAlgorithm,
    PlacementSolver,
)
from repro.core.slicing import OpticalSlice, SliceAllocator
from repro.core.tenancy import (
    QuotaExceededError,
    QuotaGuard,
    Tenant,
    TenantRegistry,
)

__all__ = [
    "AbstractionLayer",
    "Branch",
    "BranchingChain",
    "BranchingPlacement",
    "BranchingPlacementSolver",
    "AlConstructionStrategy",
    "AlConstructor",
    "ChainPlacement",
    "ChainRequest",
    "ClusterManager",
    "CoverResult",
    "CoverStep",
    "HostPolicy",
    "NetworkFunctionChain",
    "NetworkOrchestrator",
    "OpticalSlice",
    "OrchestratedChain",
    "ProvisioningPlan",
    "PlacementAlgorithm",
    "QuotaExceededError",
    "QuotaGuard",
    "PlacementSolver",
    "SliceAllocator",
    "Tenant",
    "TenantRegistry",
    "VirtualCluster",
    "bipartite_min_vertex_cover",
    "greedy_marginal_cover",
    "greedy_max_weight_cover",
    "natural_sort_key",
    "random_cover",
]
