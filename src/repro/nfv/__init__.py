"""NFV substrate: network function catalog, VNF lifecycle, NFV manager.

"NFV furnishes an environment where Network Functions (NFs) can be
virtualized into Virtual Network Functions (VNFs)" (paper Section I); the
Cloud/NFV manager "is responsible for managing the VNFs during its
lifetime, such as VNF creation, scaling, termination, and update events"
(Section IV.B).
"""

from repro.nfv.autoscaler import (
    AutoscalerPolicy,
    ScalingAction,
    VnfAutoscaler,
)
from repro.nfv.functions import (
    STANDARD_FUNCTIONS,
    FunctionCatalog,
    NetworkFunctionType,
    VnfInstance,
)
from repro.nfv.lifecycle import VnfLifecycleManager, VnfState
from repro.nfv.manager import CloudNfvManager

__all__ = [
    "AutoscalerPolicy",
    "CloudNfvManager",
    "FunctionCatalog",
    "NetworkFunctionType",
    "STANDARD_FUNCTIONS",
    "ScalingAction",
    "VnfInstance",
    "VnfAutoscaler",
    "VnfLifecycleManager",
    "VnfState",
]
