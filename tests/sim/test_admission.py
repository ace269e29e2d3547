"""Batched admission pipeline: plan interning, freshness, parity.

The contract is structural parity with per-pair resolution: the
planner resolves through the tree-canonical primitive
(:func:`repro.sim.admission.resolve_tree_path`), so an interned route
must equal a cold per-pair resolution — including after fault/repair
cycles force lazy re-resolution, and on both routing engines.  End to
end, batched admission reproduces the frozen report checksums that
per-event admission agreed on.
"""

import random

import pytest

from repro.config import EngineConfig
from repro.exceptions import RoutingError, ValidationError
from repro.observability.runtime import Telemetry
from repro.sdn.path_engine import engine_for
from repro.sim import event_simulator
from repro.sim.admission import (
    NO_PLAN_ROUTE,
    AdmissionPlan,
    plan_admission,
    resolve_tree_path,
)
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.sim.vector import BatchedFairShareEngine

from tests.sim.goldens import assert_golden

ENGINES = ("csr", "nx")


@pytest.fixture
def clustered(populated_inventory):
    from repro.core.cluster import ClusterManager

    clusters = ClusterManager(populated_inventory)
    for service in populated_inventory.services_present():
        clusters.create_cluster(service)
    return populated_inventory, clusters


def _host_pairs(inventory, rng, n_pairs):
    """Random distinct host pairs (flat fabric, no AL restriction)."""
    hosts = sorted(
        {inventory.host_of(vm.vm_id) for vm in inventory.all_vms()}
    )
    pairs = []
    for _ in range(n_pairs):
        a, b = rng.sample(hosts, 2)
        pairs.append((a, b, None))
    return pairs


def _link_index(inventory):
    capacities = {
        frozenset((a, b)): link.bandwidth_gbps
        for a, b, link in inventory.network.edges()
    }
    return BatchedFairShareEngine(capacities).link_index


class TestPlanResolution:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_interned_path_matches_cold_resolution(
        self, populated_inventory, engine
    ):
        rng = random.Random(7)
        pairs = _host_pairs(populated_inventory, rng, 12)
        plan = plan_admission(
            populated_inventory.network,
            pairs,
            _link_index(populated_inventory),
            engine=engine,
        )
        for source, destination, al in pairs:
            route = plan.lookup(source, destination, al)
            assert route is not NO_PLAN_ROUTE
            cold = resolve_tree_path(
                populated_inventory.network,
                source,
                destination,
                al,
                engine=engine,
            )
            assert route.path == cold
            assert len(route.links) == len(cold) - 1
            assert route.indices.shape[0] == len(route.links)

    def test_engines_agree_on_interned_paths(self, populated_inventory):
        rng = random.Random(13)
        pairs = _host_pairs(populated_inventory, rng, 12)
        plans = {
            engine: plan_admission(
                populated_inventory.network,
                pairs,
                _link_index(populated_inventory),
                engine=engine,
            )
            for engine in ENGINES
        }
        for key in pairs:
            assert (
                plans["csr"].lookup(*key).path
                == plans["nx"].lookup(*key).path
            )

    def test_unreachable_pair_interns_negative(self, populated_inventory):
        network = populated_inventory.network
        hosts = sorted(
            {
                populated_inventory.host_of(vm.vm_id)
                for vm in populated_inventory.all_vms()
            }
        )
        plan = AdmissionPlan(network, _link_index(populated_inventory))
        # An AL signature that connects nothing: the per-pair flat
        # retry still resolves, so use a bogus destination instead.
        with pytest.raises(RoutingError):
            resolve_tree_path(network, hosts[0], "no-such-host", None)

    def test_lookup_is_lazy(self, populated_inventory):
        rng = random.Random(5)
        pairs = _host_pairs(populated_inventory, rng, 4)
        plan = AdmissionPlan(
            populated_inventory.network,
            _link_index(populated_inventory),
        )
        assert len(plan) == 0
        source, destination, al = pairs[0]
        route = plan.lookup(source, destination, al)
        assert (source, destination, al) in plan
        assert route.path[0] == source and route.path[-1] == destination

    def test_telemetry_counters(self, populated_inventory):
        rng = random.Random(3)
        pairs = _host_pairs(populated_inventory, rng, 6)
        telemetry = Telemetry.enabled_instance()
        plan = plan_admission(
            populated_inventory.network,
            pairs,
            _link_index(populated_inventory),
            telemetry=telemetry,
        )
        resolved = telemetry.counter(
            "alvc_admission_pairs_resolved_total", ""
        ).value
        assert resolved == len(set(pairs))
        victim = plan.lookup(*pairs[0]).links[0]
        dropped = plan.invalidate_crossing((victim,))
        assert dropped >= 1
        assert (
            telemetry.counter(
                "alvc_admission_invalidated_pairs_total", ""
            ).value
            == dropped
        )


class TestFaultRepairReresolution:
    """S3: lazily re-resolved interned paths equal cold resolution
    after ``note_fault``/repair cycles (seeded, both engines)."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reresolution_matches_cold_engine(
        self, populated_inventory, engine
    ):
        network = populated_inventory.network
        rng = random.Random(29)
        pairs = _host_pairs(populated_inventory, rng, 10)
        plan = plan_admission(
            network, pairs, _link_index(populated_inventory), engine=engine
        )
        for cycle in range(3):
            # A fault lands on a link some interned route crosses.
            victim_route = plan.lookup(*pairs[cycle])
            victim = victim_route.links[
                rng.randrange(len(victim_route.links))
            ]
            engine_for(network).note_fault()
            dropped = plan.invalidate_crossing((victim,))
            assert dropped >= 1
            assert pairs[cycle] not in plan
            # Repair: availability flips back, no topology mutation.
            engine_for(network).note_fault()
            for key in pairs:
                route = plan.lookup(*key)
                assert route is not NO_PLAN_ROUTE
                cold = resolve_tree_path(
                    network, key[0], key[1], key[2], engine=engine
                )
                assert route.path == cold, (cycle, key)

    def test_negative_entries_survive_invalidation(
        self, populated_inventory
    ):
        network = populated_inventory.network
        plan = AdmissionPlan(network, _link_index(populated_inventory))
        hosts = sorted(
            {
                populated_inventory.host_of(vm.vm_id)
                for vm in populated_inventory.all_vms()
            }
        )
        key = (hosts[0], hosts[1], None)
        plan._routes[key] = NO_PLAN_ROUTE
        all_links = [
            frozenset((a, b)) for a, b, _ in network.edges()
        ]
        assert plan.invalidate_crossing(all_links) == 0
        assert plan.lookup(*key) is NO_PLAN_ROUTE


def _mixed_faults(rng, network):
    """Two link cuts with their repairs, two degrades and a ToR or OPS
    crash with its repair, all on OPS-adjacent trunks (the links
    inter-rack routes cross) and all over before the last arrivals, so
    the run reads its plan after every kind of fault."""
    ops = set(network.optical_switches())
    trunks = sorted(
        (a, b) for a, b, _ in network.edges() if a in ops or b in ops
    )
    failures = []
    for _ in range(2):
        target = rng.choice(trunks)
        cut_at = round(rng.uniform(0.05, 0.4), 3)
        failures += [
            FaultEvent(time=cut_at, kind=FaultKind.LINK_CUT, target=target),
            FaultEvent(
                time=cut_at + 0.15,
                kind=FaultKind.LINK_REPAIR,
                target=target,
            ),
        ]
        failures.append(
            FaultEvent(
                time=round(rng.uniform(0.05, 0.6), 3),
                kind=FaultKind.LINK_DEGRADE,
                target=rng.choice(trunks),
                severity=rng.choice([0.25, 0.5]),
            )
        )
    victim = rng.choice(sorted(ops) + sorted(network.tors()))
    crash_at = round(rng.uniform(0.05, 0.4), 3)
    kind = FaultKind.OPS_CRASH if victim in ops else FaultKind.TOR_CRASH
    failures += [
        FaultEvent(time=crash_at, kind=kind, target=victim),
        FaultEvent(
            time=crash_at + 0.2, kind=FaultKind.NODE_REPAIR, target=victim
        ),
    ]
    return failures


def _fault_links(failures, network):
    """Every link a schedule takes down or degrades (crashes take all
    links touching the victim)."""
    links = set()
    for event in failures:
        if event.kind in (FaultKind.OPS_CRASH, FaultKind.TOR_CRASH):
            links.update(
                frozenset((event.target, peer))
                for peer in network.graph.neighbors(event.target)
            )
        elif event.kind is not FaultKind.NODE_REPAIR:
            links.add(frozenset(event.target))
    return links


def _cold_route(network, source, destination, al):
    """A fresh tree-canonical resolution on the whole fabric, AL first
    and flat when the layer does not serve the pair (the plan's rule),
    on the networkx engine so it shares no traversal code with the CSR
    kernel; ``None`` when nothing connects the pair."""
    for layer in ((al, None) if al is not None else (None,)):
        try:
            return resolve_tree_path(
                network, source, destination, layer, engine="nx"
            )
        except RoutingError:
            continue
    return None


class TestPlanFreshAcrossFaults:
    """Freshness oracle: the simulator keeps one plan for the whole run
    and never invalidates it, and after seeded mixed schedules of cuts,
    repairs, degrades and node crash/repair every interned entry still
    equals a cold resolution on the whole fabric."""

    @pytest.mark.parametrize("routing", ENGINES)
    @pytest.mark.parametrize("seed", range(6))
    def test_interned_routes_equal_cold_resolution(
        self, clustered, monkeypatch, routing, seed
    ):
        inventory, clusters = clustered
        network = inventory.network
        plans, invalidations = [], []
        original = event_simulator.plan_admission

        def capture(*args, **kwargs):
            plans.append(original(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(event_simulator, "plan_admission", capture)
        monkeypatch.setattr(
            AdmissionPlan,
            "invalidate_crossing",
            lambda plan, links: invalidations.append(links) or 0,
        )
        rng = random.Random(seed)
        failures = _mixed_faults(rng, network)
        flows = TrafficGenerator(
            inventory,
            TrafficConfig(arrival_rate=50.0, sigma=0.8),
            seed=seed,
        ).flows(60)
        report = EventDrivenFlowSimulator(
            inventory, clusters, engines=EngineConfig(routing=routing)
        ).run(flows, failures=failures)

        assert invalidations == []
        (plan,) = plans
        assert report.flows + len(report.dropped) == len(flows)
        assert max(flow.arrival_time for flow in flows) > max(
            event.time for event in failures
        )
        routes = plan._routes
        faulted = _fault_links(failures, network)
        # Not vacuous: invalidation would have dropped some entries.
        assert any(
            route is not NO_PLAN_ROUTE and route.crosses(faulted)
            for route in routes.values()
        )
        for key, route in routes.items():
            cold = _cold_route(network, *key)
            if cold is None:
                assert route is NO_PLAN_ROUTE, key
            else:
                assert route is not NO_PLAN_ROUTE, key
                assert route.path == cold, key


class TestBatchedSimulatorParity:
    """End to end: batched admission reproduces the frozen checksums of
    the reports it and per-event admission agreed on."""

    def _flows(self, inventory, seed, n=25):
        generator = TrafficGenerator(
            inventory,
            TrafficConfig(arrival_rate=50.0, sigma=0.8),
            seed=seed,
        )
        return generator.flows(n)

    def test_auto_resolution(self, clustered):
        """Every configuration, including the retired selectors of old
        mappings, resolves to the batched vector data plane (the run
        manifest reports it)."""
        inventory, clusters = clustered
        for engines in (
            None,
            {"sim_engine": "incremental"},
            {"sim_engine": "vector", "admission": "per_event"},
        ):
            simulator = EventDrivenFlowSimulator(
                inventory, clusters, engines=engines
            )
            assert (simulator.engine, simulator.admission) == (
                "vector",
                "batched",
            )

    def test_admission_kwarg_validates(self, clustered):
        """The retired ``admission`` key still validates its value."""
        inventory, clusters = clustered
        with pytest.raises(ValidationError, match="requires sim_engine"):
            EventDrivenFlowSimulator(
                inventory, clusters, engines={"admission": "batched"}
            )
        with pytest.raises(ValidationError, match="unknown admission"):
            EventDrivenFlowSimulator(
                inventory,
                clusters,
                engines={"sim_engine": "vector", "admission": "psychic"},
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_matches_per_event(self, seed):
        assert_golden(f"admission/{seed}")

    @pytest.mark.parametrize("seed", [3, 4])
    def test_batched_matches_per_event_under_faults(self, seed):
        assert_golden(f"admission_faults/{seed}")

    def test_batched_emits_bulk_counters(self, clustered):
        inventory, clusters = clustered
        telemetry = Telemetry.enabled_instance()
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, telemetry=telemetry
        )
        report = simulator.run(self._flows(inventory, 11))
        assert report.flows > 0
        bulk = telemetry.counter(
            "alvc_admission_bulk_flows_total", ""
        ).value
        resolved = telemetry.counter(
            "alvc_admission_pairs_resolved_total", ""
        ).value
        assert bulk > 0
        assert 0 < resolved <= bulk + len(report.dropped)

    def test_windowed_run_parity(self, clustered):
        assert_golden("admission_window/21")
        inventory, clusters = clustered
        flows = self._flows(inventory, 21, n=40)
        report = EventDrivenFlowSimulator(inventory, clusters).run(
            flows, until=0.25
        )
        assert report.makespan == 0.25
        assert report.in_flight > 0
        assert report.flows + report.in_flight + len(report.dropped) <= 40


class TestALFallbackResolution:
    """The group fan-out mirrors the per-event AL-then-flat retry."""

    def _hosts(self, inventory):
        return sorted(
            {inventory.host_of(vm.vm_id) for vm in inventory.all_vms()}
        )

    def test_al_violating_target_falls_back_per_pair(
        self, populated_inventory
    ):
        network = populated_inventory.network
        hosts = self._hosts(populated_inventory)
        ops = sorted(network.optical_switches())
        al = frozenset(ops[:2])
        outside = ops[-1]
        assert outside not in al
        plan = AdmissionPlan(network, _link_index(populated_inventory))
        source = hosts[0]
        # The group fan-out aborts (an endpoint outside the layer), the
        # per-target retry resolves what it can, and the flat retry
        # picks up the rest — every pair still gets an entry.
        plan.resolve_source(source, [hosts[1], outside], al)
        for destination in (hosts[1], outside):
            route = plan.lookup(source, destination, al)
            assert route is not NO_PLAN_ROUTE
            assert route.path[0] == source
            assert route.path[-1] == destination

    def test_resolve_source_skips_already_interned(
        self, populated_inventory
    ):
        plan = AdmissionPlan(
            populated_inventory.network,
            _link_index(populated_inventory),
        )
        hosts = self._hosts(populated_inventory)
        plan.resolve_source(hosts[0], [hosts[1]], None)
        size = len(plan)
        plan.resolve_source(hosts[0], [hosts[1]], None)  # early return
        assert len(plan) == size

    def test_resolve_tree_path_error_branches(self):
        from repro.topology.generators import build_alvc_fabric

        # No dual homing: cross-rack pairs route through OPS only, so
        # an empty layer severs them.
        fabric = build_alvc_fabric(
            n_racks=2,
            servers_per_rack=2,
            n_ops=2,
            dual_homing_fraction=0.0,
            seed=1,
        )
        assert resolve_tree_path(fabric, "server-0", "server-2", None)
        with pytest.raises(RoutingError, match="does not connect"):
            resolve_tree_path(fabric, "server-0", "server-2", frozenset())
        with pytest.raises(RoutingError, match="no path|unknown"):
            resolve_tree_path(fabric, "server-0", "no-such-host", None)
