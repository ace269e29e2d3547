"""Property-based tests for the event-driven simulator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterManager
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceCatalog
from repro.virtualization.vm_placement import VmPlacementEngine
from repro.topology.generators import build_alvc_fabric


def _testbed(seed: int):
    dcn = build_alvc_fabric(
        n_racks=4, servers_per_rack=3, n_ops=4, seed=seed
    )
    inventory = MachineInventory(dcn)
    services = ServiceCatalog.standard()
    engine = VmPlacementEngine(inventory, seed=seed)
    for name in ("web", "sns"):
        for _ in range(4):
            engine.place(inventory.create_vm(services.get(name)))
    clusters = ClusterManager(inventory)
    for name in ("web", "sns"):
        clusters.create_cluster(name)
    return inventory, clusters


@st.composite
def workloads(draw):
    seed = draw(st.integers(min_value=0, max_value=30))
    n_flows = draw(st.integers(min_value=1, max_value=40))
    rate = draw(st.floats(min_value=1.0, max_value=200.0, allow_nan=False))
    return seed, n_flows, rate


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_every_flow_completes_after_arrival(workload):
    seed, n_flows, rate = workload
    inventory, clusters = _testbed(seed)
    generator = TrafficGenerator(
        inventory, TrafficConfig(arrival_rate=rate), seed=seed
    )
    flows = generator.flows(n_flows)
    report = EventDrivenFlowSimulator(inventory, clusters).run(flows)
    assert report.flows == n_flows
    by_id = {record.flow_id: record for record in report.completed}
    for flow in flows:
        record = by_id[flow.flow_id]
        assert record.completion_time >= flow.arrival_time - 1e-9
        assert record.size_bytes == flow.size_bytes


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_byte_conservation_on_links(workload):
    """Bytes moved over links equal each flow's size times its hops."""
    seed, n_flows, rate = workload
    inventory, clusters = _testbed(seed)
    generator = TrafficGenerator(
        inventory, TrafficConfig(arrival_rate=rate), seed=seed
    )
    flows = generator.flows(n_flows)
    report = EventDrivenFlowSimulator(inventory, clusters).run(flows)
    expected = sum(
        record.size_bytes * record.hops for record in report.completed
    )
    moved = sum(report.link_busy_byte_seconds.values())
    assert abs(moved - expected) <= 1e-6 * max(1.0, expected)


@given(workloads())
@settings(max_examples=20, deadline=None)
def test_makespan_bounds(workload):
    seed, n_flows, rate = workload
    inventory, clusters = _testbed(seed)
    generator = TrafficGenerator(
        inventory, TrafficConfig(arrival_rate=rate), seed=seed
    )
    flows = generator.flows(n_flows)
    report = EventDrivenFlowSimulator(inventory, clusters).run(flows)
    last_arrival = max(flow.arrival_time for flow in flows)
    last_completion = max(
        record.completion_time for record in report.completed
    )
    assert report.makespan >= last_arrival - 1e-9
    assert abs(report.makespan - last_completion) <= 1e-9
