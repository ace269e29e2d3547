"""Integration: the closed operations loop.

Traffic drives per-VNF load, the autoscaler reacts, the quota guard
enforces tenancy, and churn flows through migration repair — the
day-2 story assembled from the individual subsystems.
"""

import pytest

from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.orchestrator import NetworkOrchestrator
from repro.core.tenancy import QuotaGuard, Tenant, TenantRegistry
from repro.nfv.autoscaler import AutoscalerPolicy, VnfAutoscaler
from repro.nfv.functions import FunctionCatalog
from repro.sim.chain_traffic import ChainTrafficSimulator


CATALOG = FunctionCatalog.standard()


@pytest.fixture
def stack(populated_inventory):
    orchestrator = NetworkOrchestrator(populated_inventory)
    for service in ("web", "map-reduce", "sns"):
        orchestrator.cluster_manager.create_cluster(service)
    registry = TenantRegistry()
    registry.register(Tenant("tenant-a", max_chains=2))
    guard = QuotaGuard(registry, orchestrator)
    return populated_inventory, orchestrator, guard, registry


class TestTrafficDrivenAutoscaling:
    def test_load_spike_scales_then_settles(self, stack):
        inventory, orchestrator, guard, _ = stack
        live = guard.provision_chain(
            ChainRequest(
                tenant="tenant-a",
                chain=NetworkFunctionChain.from_names(
                    "chain-loop", ("nat",), CATALOG
                ),
                service="web",
                flow_size_gb=1.0,
            )
        )
        vnf = live.vnf_ids[0]
        instance = orchestrator.nfv_manager.instance_of(vnf)
        host = orchestrator.nfv_manager.pool.get(instance.host)
        baseline_used = host.used.cpu_cores

        autoscaler = VnfAutoscaler(
            orchestrator.nfv_manager,
            AutoscalerPolicy(observations_required=2),
        )
        simulator = ChainTrafficSimulator(inventory, seed=0)

        # Synthetic load signal: traffic volume relative to a nominal
        # capacity of 100 cost-units per window.
        def window_load(n_flows):
            report = simulator.run(live, n_flows=n_flows)
            return min(report.total_processing_cost / 10.0, 2.0)

        # Spike: heavy windows until the autoscaler reacts.
        scaled_up = False
        for _ in range(6):
            action = autoscaler.observe(vnf, window_load(200))
            if action is not None and action.direction == "up":
                scaled_up = True
                break
        assert scaled_up
        assert host.used.cpu_cores > baseline_used

        # Quiet: light windows shrink it back to catalog size.
        for _ in range(6):
            autoscaler.observe(vnf, 0.05)
        assert autoscaler.size_factor_of(vnf) == 1.0

    def test_quota_survives_the_loop(self, stack):
        _, orchestrator, guard, registry = stack
        first = guard.provision_chain(
            ChainRequest(
                tenant="tenant-a",
                chain=NetworkFunctionChain.from_names(
                    "chain-a", ("firewall",), CATALOG
                ),
                service="web",
            )
        )
        guard.provision_chain(
            ChainRequest(
                tenant="tenant-a",
                chain=NetworkFunctionChain.from_names(
                    "chain-b", ("firewall",), CATALOG
                ),
                service="sns",
            )
        )
        from repro.core.tenancy import QuotaExceededError

        with pytest.raises(QuotaExceededError):
            guard.provision_chain(
                ChainRequest(
                    tenant="tenant-a",
                    chain=NetworkFunctionChain.from_names(
                        "chain-c", ("firewall",), CATALOG
                    ),
                    service="map-reduce",
                )
            )
        guard.teardown_chain(first.chain_id)
        assert registry.usage_of("tenant-a").chains == 1
        guard.provision_chain(
            ChainRequest(
                tenant="tenant-a",
                chain=NetworkFunctionChain.from_names(
                    "chain-c", ("firewall",), CATALOG
                ),
                service="map-reduce",
            )
        )

    def test_migration_during_operations(self, stack):
        inventory, orchestrator, guard, _ = stack
        live = guard.provision_chain(
            ChainRequest(
                tenant="tenant-a",
                chain=NetworkFunctionChain.from_names(
                    "chain-m", ("firewall", "dpi"), CATALOG
                ),
                service="web",
            )
        )
        vm = sorted(live.cluster.vm_ids)[0]
        current = inventory.host_of(vm)
        current_rack = inventory.network.spec_of(current).rack
        demand = inventory.get(vm).demand
        target = next(
            server
            for server in inventory.network.servers()
            if inventory.network.spec_of(server).rack != current_rack
            and demand.fits_within(inventory.remaining_capacity(server))
        )
        result = orchestrator.handle_vm_migration(vm, target)
        assert result["chains_rerouted"] == 1
        # The chain is still simulable after the reroute.
        report = ChainTrafficSimulator(inventory, seed=1).run(
            orchestrator.chain(live.chain_id), n_flows=20
        )
        assert report.flows == 20
