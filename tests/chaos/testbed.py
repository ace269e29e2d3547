"""Deterministic testbed builders for the chaos suite.

Plain functions rather than fixtures: the property tests build a fresh
stateful testbed *per generated example* (pytest fixtures are created
once per test function, which would leak orchestrator state between
Hypothesis examples), and the replay tests need two bit-identical
builds side by side.
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.orchestrator import NetworkOrchestrator
from repro.nfv.functions import FunctionCatalog
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import STANDARD_SERVICES, ServiceCatalog
from repro.virtualization.vm_placement import VmPlacementEngine


def build_inventory(
    *,
    seed: int = 0,
    n_services: int = 2,
    n_racks: int = 4,
    servers_per_rack: int = 4,
    n_ops: int = 6,
    vms_per_service: int = 6,
) -> tuple[MachineInventory, list[str]]:
    """A small populated fabric: ``(inventory, service names)``."""
    fabric = build_alvc_fabric(
        n_racks=n_racks,
        servers_per_rack=servers_per_rack,
        n_ops=n_ops,
        seed=seed,
    )
    inventory = MachineInventory(fabric)
    catalog = ServiceCatalog.standard()
    services = [service.name for service in STANDARD_SERVICES[:n_services]]
    engine = VmPlacementEngine(inventory, seed=seed)
    for name in services:
        for _ in range(vms_per_service):
            engine.place(inventory.create_vm(catalog.get(name)))
    return inventory, services


def build_orchestrator(
    *,
    seed: int = 0,
    n_services: int = 2,
    engines: EngineConfig | None = None,
    **inventory_options,
) -> tuple[NetworkOrchestrator, list[str]]:
    """An orchestrator with one cluster and one live chain per service.

    Chain ids are ``chain-{index}`` where ``index`` matches the returned
    service list, so tests can map degraded chains back to clusters.
    ``engines`` selects the orchestrator's backends (and through it the
    chaos runner's simulator's).
    """
    inventory, services = build_inventory(
        seed=seed, n_services=n_services, **inventory_options
    )
    orchestrator = NetworkOrchestrator(
        inventory, placement_seed=seed, engines=engines
    )
    functions = FunctionCatalog.standard()
    for index, service in enumerate(services):
        orchestrator.cluster_manager.create_cluster(service)
        orchestrator.provision_chain(
            ChainRequest(
                tenant="t",
                chain=NetworkFunctionChain.from_names(
                    f"chain-{index}", ("firewall", "nat"), functions
                ),
                service=service,
            )
        )
    return orchestrator, services
