"""Tests for the comparison baselines."""

import pytest

from repro.baselines import (
    FlatNetworkBaseline,
    all_electronic_placement,
    random_abstraction_layer,
)
from repro.core.abstraction_layer import AlConstructionStrategy, AlConstructor
from repro.core.chaining import NetworkFunctionChain
from repro.nfv.functions import FunctionCatalog
from repro.sdn.updates import UpdateEvent, UpdateKind
from repro.sim.traffic import TrafficGenerator


class TestRandomAl:
    def test_valid_cover(self, small_fabric):
        layer = random_abstraction_layer(
            small_fabric, "cluster-x", small_fabric.servers(), seed=0
        )
        for server in small_fabric.servers():
            assert set(small_fabric.tors_of_server(server)) & layer.tor_ids

    def test_seed_controls_outcome(self, medium_fabric):
        outcomes = {
            tuple(
                sorted(
                    random_abstraction_layer(
                        medium_fabric,
                        "cluster-x",
                        medium_fabric.servers(),
                        seed=seed,
                    ).ops_ids
                )
            )
            for seed in range(8)
        }
        assert len(outcomes) > 1

    def test_respects_available_ops(self, paper_dcn):
        layer = random_abstraction_layer(
            paper_dcn,
            "cluster-x",
            paper_dcn.servers(),
            seed=0,
            available_ops=["ops-0", "ops-2", "ops-3"],
        )
        assert layer.ops_ids <= {"ops-0", "ops-2", "ops-3"}


def _exact_al(dcn):
    return AlConstructor(
        dcn, strategy=AlConstructionStrategy.EXACT
    ).construct_for_servers("cluster-x", dcn.servers())


class TestOptimalAl:
    """The exact minimum AL the baselines are measured against (E9)."""

    def test_minimum_on_paper_example(self, paper_dcn):
        assert _exact_al(paper_dcn).size == 2

    def test_never_worse_than_greedy(self, small_fabric):
        exact = _exact_al(small_fabric)
        greedy = AlConstructor(small_fabric).construct_for_servers(
            "cluster-x", small_fabric.servers()
        )
        assert exact.size <= greedy.size

    def test_never_worse_than_random(self, small_fabric):
        exact = _exact_al(small_fabric)
        for seed in range(5):
            random_layer = random_abstraction_layer(
                small_fabric, "cluster-x", small_fabric.servers(), seed=seed
            )
            assert exact.size <= random_layer.size


class TestFlatNetwork:
    def test_runs_flows(self, populated_inventory):
        baseline = FlatNetworkBaseline(populated_inventory)
        generator = TrafficGenerator(populated_inventory, seed=0)
        flows = generator.flows(50)
        report = baseline.run_flows(flows)
        assert report.flows == 50
        # Without clusters only co-located flows (single-node paths) can
        # count as confined; nothing that crosses the fabric does.
        colocated = sum(
            1
            for flow in flows
            if populated_inventory.host_of(flow.source)
            == populated_inventory.host_of(flow.destination)
        )
        assert report.al_confined_flows == colocated

    def test_update_cost_covers_core(self, populated_inventory):
        baseline = FlatNetworkBaseline(populated_inventory)
        event = UpdateEvent(
            kind=UpdateKind.VM_ARRIVAL,
            vm="vm-0",
            server=populated_inventory.network.servers()[0],
        )
        cost = baseline.update_cost(event)
        assert cost >= len(populated_inventory.network.optical_switches())

    def test_total_update_cost(self, populated_inventory):
        baseline = FlatNetworkBaseline(populated_inventory)
        servers = populated_inventory.network.servers()
        events = [
            UpdateEvent(
                kind=UpdateKind.VM_DEPARTURE, vm=f"vm-{i}", server=servers[i]
            )
            for i in range(3)
        ]
        total = baseline.total_update_cost(events)
        assert total == sum(baseline.update_cost(e) for e in events)


class TestAllElectronicPlacement:
    def test_every_position_electronic(self, function_catalog):
        chain = NetworkFunctionChain.from_names(
            "chain-0", ("firewall", "dpi", "nat"), function_catalog
        )
        placement = all_electronic_placement(chain)
        assert placement.optical_count == 0
        assert placement.conversions == 3

    def test_merge_semantics_option(self, function_catalog):
        chain = NetworkFunctionChain.from_names(
            "chain-0", ("firewall", "nat"), function_catalog
        )
        merged = all_electronic_placement(chain, merge_consecutive=True)
        assert merged.conversions == 1
