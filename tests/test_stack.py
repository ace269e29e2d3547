"""AlvcStack facade: parity with the hand-wired pipeline, telemetry
acceptance (all five provision stages traced), zero-cost disabled mode,
and the normalized-verb deprecation shims."""

import pytest

from repro import AlvcStack
from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.orchestrator import NetworkOrchestrator
from repro.exceptions import ALVCError, UnknownEntityError
from repro.nfv.functions import FunctionCatalog
from repro.observability.runtime import Telemetry
from repro.topology.generators import paper_example_topology
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceCatalog
from repro.virtualization.vm_placement import VmPlacementEngine

PROVISION_STAGES = (
    "provision.cluster_lookup",
    "provision.slice_allocation",
    "provision.placement_solve",
    "provision.deploy",
    "provision.route",
)
COMMAND_SPANS = ("provision_chain", *PROVISION_STAGES, "teardown_chain")
#: Spans of the dry-run and recovery entry points.
RECOVERY_SPANS = ("plan_chain", "vm_migration", "ops_failure")
#: Too small for 40 ``ids`` (6 cores, 16 GB each): that provision fails.
SMALL = dict(n_racks=4, servers_per_rack=4, n_ops=6, vms_per_service=3, seed=0)


def _plan_migrate_fail_repair(stack, chain):
    """One dry run, VM migration, OPS failure and repair on ``chain``."""
    orchestrator = stack.orchestrator
    stack.plan(("dpi",), service="web")
    vm = sorted(chain.cluster.vm_ids)[0]
    host = stack.inventory.host_of(vm)
    orchestrator.handle_vm_migration(
        vm, next(s for s in stack.fabric.servers() if s != host)
    )
    ops = sorted(orchestrator.chain(chain.chain_id).cluster.al_switches)[0]
    orchestrator.handle_ops_failure(ops)
    orchestrator.mark_ops_repaired(ops)


def _hand_wired_provision(seed: int = 5):
    """The pre-facade six-object dance on the Fig. 4 fixture."""
    dcn = paper_example_topology()
    inventory = MachineInventory(dcn)
    services = ServiceCatalog.standard()
    engine = VmPlacementEngine(inventory, seed=seed)
    for _ in range(4):
        engine.place(inventory.create_vm(services.get("web")))
    orchestrator = NetworkOrchestrator(
        inventory,
        placement_seed=seed,
        telemetry=Telemetry.disabled_instance(),
    )
    orchestrator.cluster_manager.create_cluster("web")
    chain = NetworkFunctionChain.from_names(
        "chain-parity", ("firewall", "nat"), FunctionCatalog.standard()
    )
    return orchestrator.provision_chain(
        ChainRequest(tenant="tenant-0", chain=chain, service="web")
    )


class TestFacadeParity:
    def test_same_outcome_as_hand_wired_pipeline_on_fig4_fixture(self):
        expected = _hand_wired_provision(seed=5)

        stack = AlvcStack.build(
            fabric=paper_example_topology(), seed=5, telemetry=False
        )
        stack.populate("web", vms=4)
        live = stack.provision(
            ("firewall", "nat"),
            service="web",
            tenant="tenant-0",
            chain_id="chain-parity",
        )

        assert live.path == expected.path
        assert live.conversions == expected.conversions
        assert live.cluster.al_switches == expected.cluster.al_switches
        assert live.cluster.tor_switches == expected.cluster.tor_switches
        assert live.placement.optical_count == expected.placement.optical_count
        assert [
            (placed.function.name, placed.host, placed.domain)
            for placed in live.placement.assignments
        ] == [
            (placed.function.name, placed.host, placed.domain)
            for placed in expected.placement.assignments
        ]

    def test_chain_object_and_name_sequence_are_equivalent(self):
        functions = FunctionCatalog.standard()
        chain = NetworkFunctionChain.from_names(
            "chain-x", ("firewall", "nat"), functions
        )
        by_object = AlvcStack.build(seed=2, telemetry=False)
        by_names = AlvcStack.build(seed=2, telemetry=False)
        live_object = by_object.provision(chain, service="web")
        live_names = by_names.provision(
            ("firewall", "nat"), service="web", chain_id="chain-x"
        )
        assert live_object.path == live_names.path
        assert live_object.conversions == live_names.conversions

    def test_provision_bootstraps_cluster_and_vms(self):
        stack = AlvcStack.build(seed=1, telemetry=False, vms_per_service=6)
        live = stack.provision(("nat",), service="web")
        assert len(live.cluster.vm_ids) == 6
        assert stack.inventory.vms_of_service("web")

    def test_plan_never_bootstraps(self):
        stack = AlvcStack.build(seed=1, telemetry=False)
        plan = stack.plan(("nat",), service="web")
        assert not plan.feasible
        assert any("no cluster" in problem for problem in plan.problems)
        with pytest.raises(UnknownEntityError):
            stack.orchestrator.cluster_manager.cluster_of_service("web")

    def test_teardown_all(self):
        stack = AlvcStack.build(seed=1, telemetry=False)
        stack.provision(("nat",), service="web")
        stack.provision(("firewall",), service="sns")
        assert stack.teardown() == 2
        assert stack.chains() == []


class TestTelemetryAcceptance:
    def test_provision_traces_all_five_pipeline_stages(self):
        stack = AlvcStack.build(seed=1, telemetry="json")
        stack.provision(("firewall", "nat"), service="web")
        stats = stack.telemetry.tracer.stats()
        for stage in PROVISION_STAGES:
            assert stage in stats, f"missing stage span {stage}"
            assert stats[stage].count == 1
        assert stats["provision_chain"].count == 1

    def test_acceptance_counters_present(self):
        stack = AlvcStack.build(seed=1, telemetry=True)
        stack.provision(("firewall", "nat"), service="web")
        metrics = stack.telemetry.registry.snapshot()
        assert "alvc_placement_conversions_saved_total" in metrics
        assert "alvc_cover_skips_total" in metrics
        assert "alvc_sdn_rules_installed_total" in metrics

    def test_snapshot_json_round_trip(self):
        import json

        stack = AlvcStack.build(seed=1, telemetry="json")
        stack.provision(("nat",), service="web")
        decoded = json.loads(stack.telemetry.to_json())
        assert set(decoded) == {"metrics", "tracing"}

    def test_disabled_telemetry_allocates_zero_metrics(self):
        stack = AlvcStack.build(seed=1, telemetry=False)
        stack.provision(("firewall", "nat"), service="web")
        stack.teardown()
        telemetry = stack.telemetry
        assert not telemetry.enabled
        assert telemetry.registry.series_count() == 0
        assert telemetry.registry.snapshot() == {}
        assert telemetry.tracer.finished_spans() == []

    def test_command_path_spans_and_counters(self):
        stack = AlvcStack.build(**SMALL, telemetry="json")
        chain = stack.provision(("firewall", "nat"), service="web")
        with pytest.raises(ALVCError):
            stack.provision(("ids",) * 40, service="streaming")
        stack.teardown(chain.chain_id)
        stats = stack.telemetry.tracer.stats()
        counts = {name: stats[name].count for name in COMMAND_SPANS}
        assert counts == {
            "provision_chain": 2,
            "provision.cluster_lookup": 2,
            "provision.slice_allocation": 2,
            "provision.placement_solve": 2,
            "provision.deploy": 2,
            "provision.route": 1,
            "teardown_chain": 1,
        }
        metrics = stack.telemetry.registry.snapshot()
        for name in (
            "alvc_chains_provisioned_total",
            "alvc_chains_provision_failures_total",
            "alvc_chains_torn_down_total",
        ):
            assert metrics[name]["series"][0]["value"] == 1

    def test_disabled_command_path_opens_no_span(self, monkeypatch):
        stack = AlvcStack.build(**SMALL, telemetry=False)
        stack.cluster("web")
        stack.cluster("streaming")
        opened = []
        tracer = stack.telemetry.tracer
        monkeypatch.setattr(
            type(tracer), "span",
            lambda self, name, **attributes: opened.append(name),
        )
        chain = stack.provision(("firewall", "nat"), service="web")
        with pytest.raises(ALVCError):
            stack.provision(("ids",) * 40, service="streaming")
        _plan_migrate_fail_repair(stack, chain)
        stack.teardown(chain.chain_id)
        assert not set(opened) & {*COMMAND_SPANS, *RECOVERY_SPANS}

    def test_recovery_and_planning_spans(self):
        stack = AlvcStack.build(**SMALL, telemetry="json")
        stack.cluster("web")
        chain = stack.provision(("firewall", "nat"), service="web")
        _plan_migrate_fail_repair(stack, chain)
        stats = stack.telemetry.tracer.stats()
        assert {name: stats[name].count for name in RECOVERY_SPANS} == {
            "plan_chain": 1,
            "vm_migration": 1,
            "ops_failure": 1,
        }

    def test_disabled_stack_shares_noop_singletons(self):
        stack = AlvcStack.build(seed=1, telemetry="off")
        registry = stack.telemetry.registry
        assert registry.counter("a_total") is registry.counter("b_total")
