"""Both simulators route every flow of the Fig. 1 testbed the same way.

The analytic :class:`FlowSimulator` and the
:class:`EventDrivenFlowSimulator` share one route rule: intra-service
flows ride their cluster's abstraction layer (the flat fabric when the
layer does not connect the pair), every other flow takes the flat
fabric, and among equal-length paths the one canonical over a BFS tree
from the source wins (:func:`resolve_tree_path`).  The keys and the
confinement count are spelled out here, independently of the code under
test.
"""

import pytest

import repro.sim.event_simulator as event_module
from repro.analysis.experiments import standard_testbed
from repro.core.cluster import ClusterManager
from repro.exceptions import RoutingError
from repro.ids import NodeKind
from repro.sim.admission import resolve_tree_path
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.simulator import FlowSimulator
from repro.sim.traffic import TrafficConfig, TrafficGenerator


def _fig1(seed):
    """E1's testbed, clusters and 400 flows for one seed."""
    inventory, _, services = standard_testbed(seed=seed)
    clusters = ClusterManager(inventory)
    for service in services:
        clusters.create_cluster(service)
    flows = TrafficGenerator(
        inventory, TrafficConfig(intra_service_probability=0.8), seed=seed
    ).flows(400)
    return inventory, clusters, flows


def _key(inventory, clusters, flow):
    """``(src_host, dst_host, AL or None)``; None when co-located."""
    source = inventory.host_of(flow.source)
    destination = inventory.host_of(flow.destination)
    if source == destination:
        return None
    al = None
    if flow.intra_service:
        service = inventory.get(flow.source).service
        al = frozenset(clusters.cluster_of_service(service).al_switches)
    return source, destination, al


def _tree_path(network, key):
    """The AL's tree path, else the flat fabric's."""
    source, destination, al = key
    if al is not None:
        try:
            return resolve_tree_path(network, source, destination, al)
        except RoutingError:
            pass
    return resolve_tree_path(network, source, destination, None)


@pytest.mark.parametrize("seed", range(5))
def test_simulators_route_fig1_flows_identically(seed, monkeypatch):
    inventory, clusters, flows = _fig1(seed)
    network = inventory.network
    plans = []
    plan_admission = event_module.plan_admission

    def capture(*args, **kwargs):
        plans.append(plan_admission(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(event_module, "plan_admission", capture)
    EventDrivenFlowSimulator(inventory, clusters).run(flows)
    (plan,) = plans

    analytic = FlowSimulator(inventory, clusters)
    confined = 0
    hops = 0
    link_load = {}
    for flow in flows:
        key = _key(inventory, clusters, flow)
        path, _ = analytic.route(flow)
        if key is None:
            assert path == [inventory.host_of(flow.source)]
            confined += 1
            continue
        assert path == plan.lookup(*key).path, flow.flow_id
        assert path == _tree_path(network, key), flow.flow_id
        al = key[2]
        if al is not None and all(
            node in al
            for node in path
            if network.kind_of(node) is NodeKind.OPS
        ):
            confined += 1
        hops += len(path) - 1
        for a, b in zip(path, path[1:]):
            link = frozenset((a, b))
            link_load[link] = link_load.get(link, 0.0) + flow.size_bytes

    report = analytic.run(flows)
    assert hops > 0
    assert report.al_confined_flows == confined
    assert report.total_hops == hops
    assert report.link_load_bytes == pytest.approx(link_load)
