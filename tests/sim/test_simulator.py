"""Tests for the flow-level simulator."""

import types

import pytest

from repro.core.cluster import ClusterManager
from repro.exceptions import RoutingError
from repro.ids import NodeKind
from repro.optical.conversion import ConversionModel
from repro.sim.flows import Flow
from repro.sim.simulator import (
    FlowSimulator,
    transport_conversions,
)
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import Domain, ServerSpec, TorSpec
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory

E = Domain.ELECTRONIC
O = Domain.OPTICAL


class TestTransportConversions:
    def test_no_optical_hops(self):
        assert transport_conversions([E, E, E]) == 0

    def test_single_optical_segment(self):
        assert transport_conversions([E, E, O, E, E]) == 1

    def test_two_optical_segments(self):
        assert transport_conversions([E, O, E, O, E]) == 2

    def test_empty(self):
        assert transport_conversions([]) == 0


@pytest.fixture
def clustered(populated_inventory):
    clusters = ClusterManager(populated_inventory)
    for service in populated_inventory.services_present():
        clusters.create_cluster(service)
    return populated_inventory, clusters


class TestRouting:
    def test_colocated_flow_single_node(self, clustered):
        inventory, clusters = clustered
        vms = inventory.vms_of_service("web")
        host = inventory.host_of(vms[0].vm_id)
        same_host = [
            vm for vm in vms if inventory.host_of(vm.vm_id) == host
        ]
        if len(same_host) >= 2:
            simulator = FlowSimulator(inventory, clusters)
            flow = Flow(
                flow_id="flow-0",
                source=same_host[0].vm_id,
                destination=same_host[1].vm_id,
                size_bytes=1e9,
            )
            path, confined = simulator.route(flow)
            assert path == [host]
            assert confined

    def test_intra_service_flow_confined_to_al(self, clustered):
        inventory, clusters = clustered
        simulator = FlowSimulator(inventory, clusters)
        vms = inventory.vms_of_service("web")
        flow = Flow(
            flow_id="flow-0",
            source=vms[0].vm_id,
            destination=vms[-1].vm_id,
            size_bytes=1e9,
            intra_service=True,
        )
        path, confined = simulator.route(flow)
        al = clusters.cluster_of_service("web").al_switches
        for node in path:
            if node.startswith("ops"):
                assert node in al
        assert confined or len(path) == 1

    def test_flat_simulator_never_confined(self, populated_inventory):
        simulator = FlowSimulator(populated_inventory, clusters=None)
        vms = populated_inventory.vms_of_service("web")
        hosts = {populated_inventory.host_of(vm.vm_id) for vm in vms}
        # Pick two VMs on different servers (if any).
        by_host = {}
        for vm in vms:
            by_host.setdefault(
                populated_inventory.host_of(vm.vm_id), vm
            )
        if len(by_host) >= 2:
            first, second = list(by_host.values())[:2]
            flow = Flow(
                flow_id="flow-0",
                source=first.vm_id,
                destination=second.vm_id,
                size_bytes=1e9,
            )
            _, confined = simulator.route(flow)
            assert not confined


    def test_al_that_cannot_connect_falls_back_flat(self, service_catalog):
        # An empty AL admits no OPS: a pair under one ToR stays inside
        # it, a pair across racks takes the flat fabric, unconfined.
        network = build_alvc_fabric(
            n_racks=2, servers_per_rack=2, n_ops=2, dual_homing_fraction=0.0
        )
        inventory = MachineInventory(network)
        first_tor, second_tor = network.tors()[:2]
        servers = network.servers_under(first_tor)[:2]
        servers.append(network.servers_under(second_tor)[-1])
        vms = []
        for server in servers:
            vm = inventory.create_vm(service_catalog.get("web"))
            inventory.place(vm, server)
            vms.append(vm)
        empty = types.SimpleNamespace(al_switches=frozenset())
        clusters = types.SimpleNamespace(cluster_of_service=lambda _: empty)
        simulator = FlowSimulator(inventory, clusters)
        outcomes = []
        for destination in vms[1:]:
            flow = Flow(
                flow_id="flow-0",
                source=vms[0].vm_id,
                destination=destination.vm_id,
                size_bytes=1e9,
            )
            path, confined = simulator.route(flow)
            assert len(path) > 1
            crosses_core = any(
                network.kind_of(node) is NodeKind.OPS for node in path
            )
            outcomes.append((confined, crosses_core))
        assert outcomes == [(True, False), (False, True)]
        report = simulator.run(
            [
                Flow(
                    flow_id=f"flow-{index}",
                    source=vms[0].vm_id,
                    destination=destination.vm_id,
                    size_bytes=1e9,
                )
                for index, destination in enumerate(vms[1:])
            ]
        )
        assert report.al_confined_flows == 1

    def test_unroutable_pair_raises(self, service_catalog):
        # Two islands: (server-a, tor-a) and (server-b, tor-b).
        dcn = DataCenterNetwork("split")
        for suffix in ("a", "b"):
            dcn.add_server(ServerSpec(server_id=f"server-{suffix}"))
            dcn.add_tor(TorSpec(tor_id=f"tor-{suffix}"))
            dcn.connect(f"server-{suffix}", f"tor-{suffix}")
        inventory = MachineInventory(dcn)
        web = service_catalog.get("web")
        vm_a = inventory.create_vm(web)
        vm_b = inventory.create_vm(web)
        inventory.place(vm_a, "server-a")
        inventory.place(vm_b, "server-b")
        flow = Flow(
            flow_id="flow-0",
            source=vm_a.vm_id,
            destination=vm_b.vm_id,
            size_bytes=1e9,
        )
        simulator = FlowSimulator(inventory)
        with pytest.raises(RoutingError, match="no path"):
            simulator.route(flow)
        with pytest.raises(RoutingError, match="no path"):
            simulator.run([flow])


class TestRun:
    def test_report_totals(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(inventory, seed=0)
        flows = generator.flows(100)
        report = FlowSimulator(inventory, clusters).run(flows)
        assert report.flows == 100
        assert report.total_bytes == pytest.approx(
            sum(f.size_bytes for f in flows)
        )
        assert 0 <= report.intra_service_fraction <= 1
        assert report.mean_hops >= 0

    def test_link_load_conservation(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(inventory, seed=1)
        flows = generator.flows(50)
        report = FlowSimulator(inventory, clusters).run(flows)
        assert report.max_link_load <= sum(f.size_bytes for f in flows)
        for load in report.link_load_bytes.values():
            assert load > 0

    def test_conversion_cost_uses_model(self, clustered):
        inventory, clusters = clustered
        expensive = ConversionModel(cost_per_gb=100.0)
        cheap = ConversionModel(cost_per_gb=1.0)
        generator = TrafficGenerator(inventory, seed=2)
        flows = generator.flows(30)
        costly = FlowSimulator(inventory, clusters, expensive).run(flows)
        budget = FlowSimulator(inventory, clusters, cheap).run(flows)
        if costly.total_conversions > 0:
            assert costly.total_conversion_cost == pytest.approx(
                100 * budget.total_conversion_cost
            )

    def test_empty_run(self, clustered):
        inventory, clusters = clustered
        report = FlowSimulator(inventory, clusters).run([])
        assert report.flows == 0
        assert report.mean_hops == 0.0
        assert report.max_link_load == 0.0

    def test_as_dict_keys(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(inventory, seed=4)
        report = FlowSimulator(inventory, clusters).run(generator.flows(5))
        summary = report.as_dict()
        for key in (
            "flows",
            "mean_hops",
            "mean_conversions",
            "total_energy_joules",
            "al_confined_flows",
        ):
            assert key in summary


class TestClusteringEffect:
    def test_clustered_confines_more_than_flat(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(
            inventory,
            TrafficConfig(intra_service_probability=0.9),
            seed=5,
        )
        flows = generator.flows(200)
        with_clusters = FlowSimulator(inventory, clusters).run(flows)
        without = FlowSimulator(inventory, None).run(flows)
        assert (
            with_clusters.al_confined_flows >= without.al_confined_flows
        )
