"""Integration: the full AL-VC pipeline over a federated fabric."""

import pytest

from repro import (
    ChainRequest,
    FunctionCatalog,
    MachineInventory,
    NetworkFunctionChain,
    NetworkOrchestrator,
    ServiceCatalog,
    build_alvc_fabric,
    validate_topology,
)
from repro.topology.federation import InterDcLink, federate, site_of


@pytest.fixture(scope="module")
def geo():
    east = build_alvc_fabric(n_racks=6, servers_per_rack=4, n_ops=6, seed=4)
    west = build_alvc_fabric(n_racks=4, servers_per_rack=4, n_ops=4, seed=5)
    federation = federate(
        {"east": east, "west": west},
        [
            InterDcLink("east", "ops-0", "west", "ops-0"),
            InterDcLink("east", "ops-3", "west", "ops-2"),
        ],
    )
    inventory = MachineInventory(federation)
    web = ServiceCatalog.standard().get("web")
    for index in range(4):
        inventory.place(inventory.create_vm(web), f"east/server-{index}")
    for index in range(4):
        inventory.place(inventory.create_vm(web), f"west/server-{index}")
    orchestrator = NetworkOrchestrator(inventory)
    cluster = orchestrator.cluster_manager.create_cluster("web")
    chain = NetworkFunctionChain.from_names(
        "chain-geo", ("firewall", "nat"), FunctionCatalog.standard()
    )
    live = orchestrator.provision_chain(
        ChainRequest(tenant="t", chain=chain, service="web")
    )
    return federation, inventory, orchestrator, cluster, live


class TestFederatedPipeline:
    def test_fabric_validates(self, geo):
        federation, *_ = geo
        assert validate_topology(federation).ok

    def test_cluster_spans_both_sites(self, geo):
        _, _, _, cluster, _ = geo
        tor_sites = {site_of(tor) for tor in cluster.tor_switches}
        assert tor_sites == {"east", "west"}

    def test_al_bridges_the_sites(self, geo):
        _, _, _, cluster, _ = geo
        al_sites = {site_of(ops) for ops in cluster.al_switches}
        assert al_sites == {"east", "west"}

    def test_chain_path_crosses_boundary(self, geo):
        *_, live = geo
        path_sites = {site_of(node) for node in live.path}
        assert path_sites == {"east", "west"}

    def test_path_confined_to_al(self, geo):
        *_, live = geo
        for node in live.path:
            if "/ops-" in node:
                assert node in live.cluster.al_switches

    def test_isolation_holds(self, geo):
        _, _, orchestrator, _, _ = geo
        orchestrator.slice_allocator.verify_isolation()

    def test_cross_site_traffic_simulation(self, geo):
        from repro.sim.simulator import FlowSimulator
        from repro.sim.traffic import TrafficConfig, TrafficGenerator

        _, inventory, orchestrator, _, _ = geo
        generator = TrafficGenerator(
            inventory,
            TrafficConfig(intra_service_probability=1.0),
            seed=0,
        )
        report = FlowSimulator(
            inventory, orchestrator.cluster_manager
        ).run(generator.flows(60))
        assert report.flows == 60
        # Intra-service traffic stays inside the geo-distributed AL.
        assert report.al_confined_flows == 60

    def test_teardown_releases_cross_site_resources(self, geo):
        _, _, orchestrator, _, live = geo
        pool_before = orchestrator.nfv_manager.pool.total_free()
        orchestrator.teardown_chain(live.chain_id)
        assert (
            orchestrator.nfv_manager.pool.total_free().cpu_cores
            >= pool_before.cpu_cores
        )
        # Re-provision works after teardown.
        chain = NetworkFunctionChain.from_names(
            "chain-geo2", ("firewall",), FunctionCatalog.standard()
        )
        orchestrator.provision_chain(
            ChainRequest(tenant="t", chain=chain, service="web")
        )
