"""Tests for the event-driven fair-share flow simulator."""

import pytest

from repro.core.cluster import ClusterManager
from repro.exceptions import SimulationError, ValidationError
from repro.sim.event_simulator import (
    CompletedFlow,
    EventDrivenFlowSimulator,
    EventSimulationReport,
)
from repro.sim.fairshare import link_of
from repro.sim.flows import Flow
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import (
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    ServerSpec,
    TorSpec,
)
from repro.virtualization.machines import MachineInventory

from tests.sim.goldens import assert_golden


@pytest.fixture
def clustered(populated_inventory):
    clusters = ClusterManager(populated_inventory)
    for service in populated_inventory.services_present():
        clusters.create_cluster(service)
    return populated_inventory, clusters


def _two_remote_vms(inventory):
    """Two VMs on different servers (different services, so the flow is
    inter-service and flat-routed deterministically)."""
    web = inventory.vms_of_service("web")[0]
    sns = inventory.vms_of_service("sns")[0]
    assert inventory.host_of(web.vm_id) != inventory.host_of(sns.vm_id)
    return web, sns


class TestSingleFlow:
    def test_duration_matches_bottleneck(self, clustered):
        inventory, clusters = clustered
        source, destination = _two_remote_vms(inventory)
        flow = Flow(
            flow_id="flow-0",
            source=source.vm_id,
            destination=destination.vm_id,
            size_bytes=1e9,
            arrival_time=0.0,
            intra_service=False,
        )
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, default_bandwidth_gbps=8.0
        )
        report = simulator.run([flow])
        # 1 GB over an uncontended 8 Gbps (= 1 GB/s) path: 1 second.
        assert report.completed[0].duration == pytest.approx(1.0)
        assert report.makespan == pytest.approx(1.0)

    def test_colocated_flow_completes_instantly(
        self, inventory, service_catalog
    ):
        web = service_catalog.get("web")
        first = inventory.create_vm(web)
        second = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(first, server)
        inventory.place(second, server)
        flow = Flow(
            flow_id="flow-0",
            source=first.vm_id,
            destination=second.vm_id,
            size_bytes=1e12,
            arrival_time=2.0,
        )
        report = EventDrivenFlowSimulator(inventory).run([flow])
        record = report.completed[0]
        assert record.duration == 0.0
        assert record.hops == 0


class TestSharing:
    def test_two_flows_on_same_path_halve_rate(self, clustered):
        inventory, clusters = clustered
        source, destination = _two_remote_vms(inventory)
        flows = [
            Flow(
                flow_id=f"flow-{i}",
                source=source.vm_id,
                destination=destination.vm_id,
                size_bytes=1e9,
                arrival_time=0.0,
                intra_service=False,
            )
            for i in range(2)
        ]
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, default_bandwidth_gbps=8.0
        )
        report = simulator.run(flows)
        # Both share the path: each effectively gets 0.5 GB/s -> 2 s.
        for record in report.completed:
            assert record.duration == pytest.approx(2.0)

    def test_staggered_arrivals_fct_ordering(self, clustered):
        inventory, clusters = clustered
        source, destination = _two_remote_vms(inventory)
        early = Flow(
            flow_id="flow-early",
            source=source.vm_id,
            destination=destination.vm_id,
            size_bytes=1e9,
            arrival_time=0.0,
            intra_service=False,
        )
        late = Flow(
            flow_id="flow-late",
            source=source.vm_id,
            destination=destination.vm_id,
            size_bytes=1e9,
            arrival_time=10.0,  # after the first completes
            intra_service=False,
        )
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, default_bandwidth_gbps=8.0
        )
        report = simulator.run([early, late])
        by_id = {record.flow_id: record for record in report.completed}
        # No overlap: both get the full rate.
        assert by_id["flow-early"].duration == pytest.approx(1.0)
        assert by_id["flow-late"].duration == pytest.approx(1.0)
        assert by_id["flow-late"].completion_time == pytest.approx(11.0)


class TestWorkloads:
    def test_all_flows_complete(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(
            inventory, TrafficConfig(arrival_rate=30.0), seed=1
        )
        flows = generator.flows(120)
        report = EventDrivenFlowSimulator(inventory, clusters).run(flows)
        assert report.flows == 120
        assert report.makespan >= max(flow.arrival_time for flow in flows)

    def test_completion_after_arrival(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(inventory, seed=2)
        report = EventDrivenFlowSimulator(inventory, clusters).run(
            generator.flows(60)
        )
        for record in report.completed:
            assert record.completion_time >= record.arrival_time

    def test_fct_statistics_shape(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(inventory, seed=3)
        report = EventDrivenFlowSimulator(inventory, clusters).run(
            generator.flows(80)
        )
        stats = report.fct_statistics()
        assert 0 <= stats["median"] <= stats["p99"] <= stats["max"]
        assert stats["mean"] > 0

    def test_heavier_load_slower_fct(self, clustered):
        inventory, clusters = clustered

        def mean_fct(rate):
            generator = TrafficGenerator(
                inventory,
                TrafficConfig(arrival_rate=rate, sigma=0.5),
                seed=4,
            )
            report = EventDrivenFlowSimulator(inventory, clusters).run(
                generator.flows(150)
            )
            return report.fct_statistics()["mean"]

        # 10x the arrival rate compresses the same flows into a shorter
        # window: more contention, higher mean FCT.
        assert mean_fct(100.0) > mean_fct(10.0)

    def test_duplicate_flow_ids_rejected(self, clustered):
        inventory, clusters = clustered
        source, destination = _two_remote_vms(inventory)
        flow = Flow(
            flow_id="flow-0",
            source=source.vm_id,
            destination=destination.vm_id,
            size_bytes=1e9,
        )
        with pytest.raises(SimulationError):
            EventDrivenFlowSimulator(inventory, clusters).run([flow, flow])

    def test_empty_workload(self, clustered):
        inventory, clusters = clustered
        report = EventDrivenFlowSimulator(inventory, clusters).run([])
        assert report.flows == 0
        assert report.makespan == 0.0

    def test_utilization_bounded(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(
            inventory, TrafficConfig(arrival_rate=50.0), seed=5
        )
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        report = simulator.run(generator.flows(100))
        utilization = report.mean_link_utilization(simulator.capacities)
        assert 0.0 <= utilization <= 1.0 + 1e-9


class TestFailureInjection:
    def test_failure_reroutes_active_flow(self, clustered):
        inventory, clusters = clustered
        source, destination = _two_remote_vms(inventory)
        flow = Flow(
            flow_id="flow-0",
            source=source.vm_id,
            destination=destination.vm_id,
            size_bytes=8e9,  # long-lived at 8 Gbps
            arrival_time=0.0,
            intra_service=False,
        )
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, default_bandwidth_gbps=8.0
        )
        # Find an OPS on the flow's shortest path and kill it mid-flow.
        from repro.sdn.routing import simple_path

        path = simple_path(
            inventory.network,
            inventory.host_of(source.vm_id),
            inventory.host_of(destination.vm_id),
        )
        victim = next(node for node in path if node.startswith("ops"))
        report = simulator.run([flow], failures=[(1.0, victim)])
        assert report.failed_nodes == (victim,)
        if report.dropped:
            assert report.dropped == ("flow-0",)
        else:
            assert report.reroutes == 1
            record = report.completed[0]
            assert record.duration > 1.0  # it survived past the failure

    def test_unaffected_flows_keep_running(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(
            inventory, TrafficConfig(arrival_rate=30.0), seed=11
        )
        flows = generator.flows(60)
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        # Fail a switch no flow may even use; everything still finishes.
        victim = inventory.network.optical_switches()[-1]
        report = simulator.run(flows, failures=[(0.5, victim)])
        assert report.flows + len(report.dropped) == 60

    def test_arrivals_after_failure_avoid_the_node(self, clustered):
        inventory, clusters = clustered
        source, destination = _two_remote_vms(inventory)
        late = Flow(
            flow_id="flow-late",
            source=source.vm_id,
            destination=destination.vm_id,
            size_bytes=1e9,
            arrival_time=5.0,
            intra_service=False,
        )
        from repro.sdn.routing import simple_path

        path = simple_path(
            inventory.network,
            inventory.host_of(source.vm_id),
            inventory.host_of(destination.vm_id),
        )
        victim = next(node for node in path if node.startswith("ops"))
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        report = simulator.run([late], failures=[(0.0, victim)])
        # Either rerouted around the dead switch or dropped as
        # partitioned; never silently carried over it.
        assert victim in report.failed_nodes
        assert report.flows + len(report.dropped) == 1

    def test_unknown_failure_node_rejected(self, clustered):
        inventory, clusters = clustered
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        with pytest.raises(SimulationError):
            simulator.run([], failures=[(1.0, "mars")])

    def test_negative_failure_time_rejected(self, clustered):
        inventory, clusters = clustered
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        with pytest.raises(SimulationError):
            simulator.run([], failures=[(-1.0, "ops-0")])

    def test_simulator_reusable_after_failure_run(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(inventory, seed=12)
        flows = generator.flows(20)
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        victim = inventory.network.optical_switches()[0]
        simulator.run(flows, failures=[(0.1, victim)])
        # A later clean run sees the full fabric again.
        clean = simulator.run(flows)
        assert clean.flows == 20
        assert clean.failed_nodes == ()
        assert clean.dropped == ()

    def test_duplicate_failure_ignored(self, clustered):
        inventory, clusters = clustered
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        victim = inventory.network.optical_switches()[0]
        report = simulator.run(
            [], failures=[(0.1, victim), (0.2, victim)]
        )
        assert report.failed_nodes == (victim,)


# ----------------------------------------------------------------------
# Configuration and frozen-checksum parity
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_unknown_engine_rejected(self, clustered):
        inventory, clusters = clustered
        with pytest.raises(ValidationError):
            EventDrivenFlowSimulator(
                inventory, clusters, engines={"sim_engine": "warp"}
            )

    def test_non_positive_bandwidth_rejected(self, clustered):
        inventory, clusters = clustered
        with pytest.raises(ValidationError):
            EventDrivenFlowSimulator(
                inventory, clusters, default_bandwidth_gbps=0.0
            )

    def test_events_counted(self, clustered):
        inventory, clusters = clustered
        generator = TrafficGenerator(inventory, seed=21)
        report = EventDrivenFlowSimulator(inventory, clusters).run(
            generator.flows(30)
        )
        # At least one arrival and one completion event per flow.
        assert report.events >= 30


class TestEngineParity:
    """The data plane reproduces, bit for bit, the reports every event
    loop the simulator used to carry agreed on (the golden CRCs of
    :mod:`tests.sim.goldens`; ids, times, hops, drops, reroutes,
    makespan and busy map), with every recompute certified max-min
    fair."""

    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105, 106, 61, 62])
    def test_randomized_workload_bit_parity(self, seed):
        assert_golden(f"workload/{seed}")

    def test_parity_under_failures(self):
        assert_golden("ops_crashes/41")

    def test_route_cache_does_not_change_results(self):
        """The ``route_cache/51`` golden: 120 flows over repeated
        endpoint pairs."""
        assert_golden("route_cache/51")


# ----------------------------------------------------------------------
# Runs keep no routing state between them
# ----------------------------------------------------------------------
class TestRouteCacheIntegration:
    def test_failure_runs_do_not_poison_the_cache(self, clustered):
        """A run with failures must not leave routes through dead nodes
        cached for the next (clean) run."""
        inventory, clusters = clustered
        source, destination = _two_remote_vms(inventory)
        flow = Flow(
            flow_id="flow-0",
            source=source.vm_id,
            destination=destination.vm_id,
            size_bytes=1e9,
            arrival_time=0.0,
            intra_service=False,
        )
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, default_bandwidth_gbps=8.0
        )
        victim = inventory.network.optical_switches()[0]
        simulator.run([flow], failures=[(0.0, victim)])
        clean = simulator.run([flow])
        assert clean.flows == 1
        assert clean.completed[0].duration == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Parallel-link capacity regression (satellite bugfix)
# ----------------------------------------------------------------------
def _parallel_link_inventory(members: int) -> MachineInventory:
    """Fabric with ``members`` parallel 10 Gbps links on one trunk:

    srv-0 — tor-0 ={members}= ops-0 — tor-1 — srv-1
    """
    dcn = DataCenterNetwork("parallel")
    dcn.add_server(ServerSpec(server_id="srv-0"))
    dcn.add_server(ServerSpec(server_id="srv-1"))
    dcn.add_tor(TorSpec(tor_id="tor-0"))
    dcn.add_tor(TorSpec(tor_id="tor-1", rack=1))
    dcn.add_optical_switch(OpticalSwitchSpec(ops_id="ops-0"))
    dcn.connect("srv-0", "tor-0")
    dcn.connect("srv-1", "tor-1")
    for _ in range(members):
        dcn.connect(
            "tor-0",
            "ops-0",
            LinkSpec(domain=Domain.OPTICAL, bandwidth_gbps=10.0),
        )
    dcn.connect(
        "tor-1", "ops-0", LinkSpec(domain=Domain.OPTICAL, bandwidth_gbps=10.0)
    )
    return MachineInventory(dcn)


class TestParallelLinkCapacity:
    def test_trunk_capacity_aggregates(self, service_catalog):
        inventory = _parallel_link_inventory(members=2)
        simulator = EventDrivenFlowSimulator(inventory)
        trunk = link_of("tor-0", "ops-0")
        single = link_of("tor-1", "ops-0")
        # 2 x 10 Gbps -> 20 Gbps -> 2.5e9 bytes/s; the single-member
        # link keeps 10 Gbps.  Before the fix the trunk collapsed to
        # the last member's 10 Gbps.
        assert simulator.capacities[trunk] == pytest.approx(2.5e9)
        assert simulator.capacities[single] == pytest.approx(1.25e9)

    def test_bandwidth_override_scales_with_member_count(
        self, service_catalog
    ):
        inventory = _parallel_link_inventory(members=3)
        simulator = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=8.0
        )
        trunk = link_of("tor-0", "ops-0")
        # Override applies per physical member: 3 x 8 Gbps = 3 GB/s.
        assert simulator.capacities[trunk] == pytest.approx(3e9)

    def test_flow_uses_full_trunk_bandwidth(self, service_catalog):
        inventory = _parallel_link_inventory(members=2)
        web = service_catalog.get("web")
        first = inventory.create_vm(web)
        second = inventory.create_vm(web)
        inventory.place(first, "srv-0")
        inventory.place(second, "srv-1")
        flow = Flow(
            flow_id="flow-0",
            source=first.vm_id,
            destination=second.vm_id,
            size_bytes=1.25e9,
            arrival_time=0.0,
        )
        report = EventDrivenFlowSimulator(inventory).run([flow])
        # Bottleneck is the single 10 Gbps (=1.25 GB/s) tor-1 uplink,
        # not the 20 Gbps trunk: exactly 1 second.
        assert report.completed[0].duration == pytest.approx(1.0)


# ----------------------------------------------------------------------
# mean_link_utilization hardening (satellite bugfix)
# ----------------------------------------------------------------------
class TestMeanLinkUtilization:
    LINK = link_of("tor-0", "ops-0")
    OTHER = link_of("tor-1", "ops-0")

    def _report(self, busy):
        return EventSimulationReport(
            completed=(
                CompletedFlow(
                    flow_id="flow-0",
                    size_bytes=1e9,
                    arrival_time=0.0,
                    completion_time=2.0,
                    hops=4,
                ),
            ),
            makespan=2.0,
            link_busy_byte_seconds=busy,
        )

    def test_unknown_busy_link_raises(self):
        report = self._report({self.LINK: 1e9})
        with pytest.raises(SimulationError, match="no capacity entry"):
            report.mean_link_utilization({})

    def test_negative_capacity_raises(self):
        report = self._report({self.LINK: 1e9})
        with pytest.raises(SimulationError, match="negative capacity"):
            report.mean_link_utilization({self.LINK: -1.0})

    def test_zero_capacity_with_traffic_raises(self):
        report = self._report({self.LINK: 1e9})
        with pytest.raises(SimulationError, match="zero-capacity"):
            report.mean_link_utilization({self.LINK: 0.0})

    def test_zero_capacity_idle_link_counts_as_zero(self):
        # An idle zero-capacity link drags the mean down instead of
        # being silently skipped (the old upward bias).
        report = self._report({self.LINK: 2e9, self.OTHER: 0.0})
        value = report.mean_link_utilization(
            {self.LINK: 1e9, self.OTHER: 0.0}
        )
        assert value == pytest.approx(0.5)  # (1.0 + 0.0) / 2

    def test_normal_utilization(self):
        report = self._report({self.LINK: 1e9})
        assert report.mean_link_utilization(
            {self.LINK: 1e9}
        ) == pytest.approx(0.5)
