"""AL-sharded simulation: planning guards + deterministic merge.

The decomposition claim (``docs/api_guide.md``): intra-service flows
confined to capacity-disjoint abstraction layers can be simulated one
cluster per shard and merged bit-identically to the global run — with
``workers=4`` output equal to ``workers=1``.  The suite pins both the
claim and every refusal path that keeps it honest.
"""

import pytest

from repro.core.cluster import ClusterManager
from repro.exceptions import SimulationError
from repro.sim.event_simulator import (
    EventDrivenFlowSimulator,
    EventSimulationReport,
)
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.flows import Flow
from repro.sim.sharding import plan_shards, simulate_sharded
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceCatalog
from repro.virtualization.vm_placement import (
    PlacementStrategy,
    VmPlacementEngine,
)

SERVICES = ("web", "map-reduce", "sns")


def _build_inventory(vms_per_service=16):
    """A testbed dense enough that most flows cross hosts — the
    conftest placement packs 6 VMs onto so few servers that nearly
    every intra-service flow would be co-located (zero links)."""
    fabric = build_alvc_fabric(
        n_racks=8,
        servers_per_rack=8,
        n_ops=8,
        dual_homing_fraction=0.25,
        seed=11,
    )
    inventory = MachineInventory(fabric)
    catalog = ServiceCatalog.standard()
    placer = VmPlacementEngine(
        inventory, strategy=PlacementStrategy.SERVICE_AFFINITY, seed=3
    )
    for service_name in SERVICES:
        for _ in range(vms_per_service):
            placer.place(inventory.create_vm(catalog.get(service_name)))
    return inventory


@pytest.fixture(scope="module")
def clustered():
    inventory = _build_inventory()
    clusters = ClusterManager(inventory)
    for service in inventory.services_present():
        clusters.create_cluster(service)
    return inventory, clusters


def _workload(inventory, count=24, seed=7):
    generator = TrafficGenerator(
        inventory,
        TrafficConfig(intra_service_probability=1.0),
        seed=seed,
    )
    return generator.flows(count)


def _degrade_schedule(inventory, clusters, flows):
    """Capacity cuts on links every shard actually loads — degrades
    never displace flows, so shard footprints stay disjoint."""
    probe = EventDrivenFlowSimulator(inventory, clusters).run(flows)
    victims = sorted(
        probe.link_busy_byte_seconds, key=lambda link: tuple(sorted(link))
    )[:3]
    return [
        FaultEvent(
            time=0.2 + 0.1 * index,
            kind=FaultKind.LINK_DEGRADE,
            target=tuple(sorted(victim)),
            severity=0.5,
        )
        for index, victim in enumerate(victims)
    ]


# ----------------------------------------------------------------------
# plan_shards: partitioning and its refusal paths
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_partitions_by_cluster_in_id_order(self, clustered):
        inventory, clusters = clustered
        flows = _workload(inventory)
        plans = plan_shards(inventory, clusters, flows)
        assert [plan.cluster_id for plan in plans] == sorted(
            plan.cluster_id for plan in plans
        )
        merged = [flow for plan in plans for flow in plan.flows]
        assert sorted(f.flow_id for f in merged) == sorted(
            f.flow_id for f in flows
        )
        for index, plan in enumerate(plans):
            assert plan.servers and plan.al_switches
            for other in plans[index + 1 :]:
                assert not (plan.servers & other.servers)
                assert not (plan.al_switches & other.al_switches)

    def test_inter_service_flow_rejected(self, clustered):
        inventory, clusters = clustered
        first, second = inventory.vms_of_service("web")[:2]
        rogue = Flow(
            flow_id="rogue",
            source=first.vm_id,
            destination=second.vm_id,
            size_bytes=1.0,
            intra_service=False,
        )
        with pytest.raises(SimulationError, match="inter-service"):
            plan_shards(inventory, clusters, [rogue])

    def test_cross_service_endpoints_rejected(self, clustered):
        inventory, clusters = clustered
        liar = Flow(
            flow_id="liar",
            source=inventory.vms_of_service("web")[0].vm_id,
            destination=inventory.vms_of_service("sns")[0].vm_id,
            size_bytes=1.0,
            intra_service=True,
        )
        with pytest.raises(SimulationError, match="spans services"):
            plan_shards(inventory, clusters, [liar])

    def test_unclustered_service_rejected(self):
        inventory = _build_inventory(vms_per_service=4)
        clusters = ClusterManager(inventory)
        clusters.create_cluster("web")  # map-reduce and sns left bare
        flows = _workload(inventory)
        orphan = next(
            flow
            for flow in flows
            if inventory.get(flow.source).service != "web"
        )
        with pytest.raises(SimulationError, match="no cluster"):
            plan_shards(inventory, clusters, [orphan])

    def test_shared_footprints_rejected(self, clustered):
        inventory, _ = clustered
        web, web_peer = inventory.vms_of_service("web")[:2]
        sns, sns_peer = inventory.vms_of_service("sns")[:2]

        class _FakeCluster:
            def __init__(self, cluster_id, al_switches):
                self.cluster_id = cluster_id
                self.al_switches = al_switches

        class _FakeManager:
            def __init__(self, mapping):
                self._mapping = mapping

            def cluster_of_service(self, service):
                return self._mapping[service]

        flows = [
            Flow("wf", web.vm_id, web_peer.vm_id, 1.0),
            Flow("sf", sns.vm_id, sns_peer.vm_id, 1.0),
        ]
        sharing_ops = _FakeManager(
            {
                "web": _FakeCluster("c-web", frozenset({"ops-0"})),
                "sns": _FakeCluster("c-sns", frozenset({"ops-0"})),
            }
        )
        with pytest.raises(SimulationError, match="share AL switches"):
            plan_shards(inventory, sharing_ops, flows)
        # Same server under both shards: both flows sit on web's host,
        # but a stateful manager files them under different clusters.
        colocated = [
            Flow("wf", web.vm_id, web_peer.vm_id, 1.0),
            Flow("sf", web.vm_id, web_peer.vm_id, 1.0),
        ]

        class _SplitManager:
            def __init__(self):
                self._calls = 0

            def cluster_of_service(self, service):
                self._calls += 1
                name = "c-a" if self._calls == 1 else "c-b"
                ops = "ops-0" if name == "c-a" else "ops-1"
                return _FakeCluster(name, frozenset({ops}))

        with pytest.raises(SimulationError, match="share servers"):
            plan_shards(inventory, _SplitManager(), colocated)


# ----------------------------------------------------------------------
# simulate_sharded: bit-identical merge, worker determinism, guards
# ----------------------------------------------------------------------
class TestShardedParity:
    def test_matches_unsharded_vector_run(self, clustered):
        inventory, clusters = clustered
        flows = _workload(inventory)
        failures = _degrade_schedule(inventory, clusters, flows)
        merged = simulate_sharded(
            inventory, clusters, flows, failures, workers=1
        )
        unsharded = EventDrivenFlowSimulator(inventory, clusters).run(
            flows, failures
        )
        assert merged == unsharded  # every field, failure events deduped

    def test_workers_four_bit_identical_to_one(self, clustered):
        inventory, clusters = clustered
        flows = _workload(inventory, count=30, seed=12)
        failures = _degrade_schedule(inventory, clusters, flows)
        sequential = simulate_sharded(
            inventory, clusters, flows, failures, workers=1
        )
        fanned_out = simulate_sharded(
            inventory, clusters, flows, failures, workers=4
        )
        assert fanned_out == sequential

    def test_windowed_run_merges_in_flight(self, clustered):
        inventory, clusters = clustered
        flows = _workload(inventory)
        horizon = sorted(flow.arrival_time for flow in flows)[
            len(flows) // 2
        ]
        # One failure inside the window, one beyond it: the merge must
        # only deduplicate the processed one.
        failures = [
            FaultEvent(
                time=horizon / 2,
                kind=FaultKind.OPS_CRASH,
                target="ops-0",
            ),
            FaultEvent(
                time=horizon + 1e9,
                kind=FaultKind.NODE_REPAIR,
                target="ops-0",
            ),
        ]
        merged = simulate_sharded(
            inventory, clusters, flows, failures, until=horizon, workers=1
        )
        unsharded = EventDrivenFlowSimulator(inventory, clusters).run(
            flows, failures, until=horizon
        )
        assert merged == unsharded
        assert merged.in_flight > 0

    def test_empty_workload_plays_failures_once(self, clustered):
        inventory, clusters = clustered
        failures = [
            FaultEvent(time=0.1, kind=FaultKind.OPS_CRASH, target="ops-2")
        ]
        report = simulate_sharded(inventory, clusters, (), failures)
        assert report.completed == ()
        assert report.failed_nodes == ("ops-2",)
        assert report.events == 1

    def test_overlapping_shard_reports_rejected(self, clustered):
        inventory, clusters = clustered
        flows = _workload(inventory)
        shared = frozenset({"tor-0", "ops-0"})

        def _fake_report():
            return EventSimulationReport(
                completed=(),
                makespan=1.0,
                link_busy_byte_seconds={shared: 5.0},
                dropped=(),
                reroutes=0,
                failed_nodes=(),
                events=1,
                in_flight=0,
            )

        class _StubRunner:
            def map(self, fn, tasks):
                return [_fake_report() for _ in tasks]

        with pytest.raises(SimulationError, match="escaped"):
            simulate_sharded(
                inventory, clusters, flows, runner=_StubRunner()
            )

    def test_batched_admission_worker_invariant(self, clustered):
        inventory, clusters = clustered
        flows = _workload(inventory, count=30, seed=21)
        failures = _degrade_schedule(inventory, clusters, flows)
        unsharded = EventDrivenFlowSimulator(inventory, clusters).run(
            flows, failures
        )
        sequential = simulate_sharded(
            inventory, clusters, flows, failures, workers=1
        )
        fanned_out = simulate_sharded(
            inventory, clusters, flows, failures, workers=4
        )
        assert sequential == unsharded
        assert fanned_out == sequential
