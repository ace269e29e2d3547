"""SDN substrate: controller, flow tables, routing, and update costs.

The SDN controller of the AL-VC functional architecture "provision[s],
control[s], and manage[s] the optical network and provide[s] virtual
connectivity services to users between VMs hosting VNFs" (Section IV.B).
The update-cost model quantifies the low-network-update-cost claim the
paper inherits from its companion work (reference [14]).
"""

from repro.sdn.controller import SdnController
from repro.sdn.flow_table import FlowRule, FlowTable
from repro.sdn.path_engine import PathEngine, engine_for
from repro.sdn.route_cache import NO_ROUTE, RouteCache
from repro.sdn.routing import (
    chain_path,
    k_shortest_paths,
    routes_from,
    shortest_path_in_al,
    shortest_surviving_path,
    simple_path,
)
from repro.sdn.updates import UpdateCostModel, UpdateEvent, UpdateKind

__all__ = [
    "FlowRule",
    "FlowTable",
    "NO_ROUTE",
    "PathEngine",
    "RouteCache",
    "SdnController",
    "UpdateCostModel",
    "UpdateEvent",
    "UpdateKind",
    "chain_path",
    "engine_for",
    "k_shortest_paths",
    "routes_from",
    "shortest_path_in_al",
    "shortest_surviving_path",
    "simple_path",
]
