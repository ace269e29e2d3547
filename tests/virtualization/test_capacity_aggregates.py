"""The inventory's live capacity aggregates against oracles that scan.

:class:`MachineInventory` keeps three aggregates in step with every
placement change: per-rack guest counts (behind the service-affinity
order), a free-CPU level order (behind the migration storm's coldest
server) and exact free/usable CPU totals (behind admission's headroom
and fragmentation).  Each oracle here ignores the aggregate it checks
and recomputes the answer from the raw ledger.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.service.snapshot import load_snapshot, write_snapshot
from repro.stack import AlvcStack
from repro.topology.elements import ResourceVector
from repro.virtualization.machines import MachineInventory
from repro.workload import ScenarioConfig, WorkloadRunner, generate_scenario

from tests.virtualization.test_machines import DRIFT_PAIRS, _random_step
from tests.virtualization.test_vm_placement import (
    assert_affinity_order_matches,
)
from tests.workload.conftest import SMALL_CONFIG

#: Reference VMs for the usable total: one that fits most slivers, one
#: that fits only roomy servers, and one that never fits.
REFERENCES = (
    ResourceVector(cpu_cores=1, memory_gb=2, storage_gb=10),
    ResourceVector(cpu_cores=8, memory_gb=16, storage_gb=100),
    ResourceVector(cpu_cores=1000),
)


def _free_vectors(inventory):
    """Each server's free vector recomputed from spec and used capacity."""
    network = inventory.network
    return {
        server: network.spec_of(server).capacity
        - inventory.used_capacity(server)
        for server in network.servers()
    }


def scan_levels(inventory):
    """``(cpu, ids)`` per distinct free CPU, highest first, ids sorted."""
    by_cpu: dict[float, list[str]] = {}
    for server, free in _free_vectors(inventory).items():
        by_cpu.setdefault(free.cpu_cores, []).append(server)
    return [
        (cpu, sorted(servers))
        for cpu, servers in sorted(by_cpu.items(), reverse=True)
    ]


def scan_totals(inventory, reference):
    """``(free, usable)`` CPU as correctly rounded sums (``math.fsum``)."""
    free = _free_vectors(inventory).values()
    return (
        math.fsum(vector.cpu_cores for vector in free),
        math.fsum(
            vector.cpu_cores
            for vector in free
            if reference.fits_within(vector)
        ),
    )


def brute_coldest(inventory, vm_id):
    """The migration storm's target as a scan of every server picks it."""
    current = inventory.host_of(vm_id)
    demand = inventory.get(vm_id).demand
    best = None
    for server, remaining in _free_vectors(inventory).items():
        if server == current or not demand.fits_within(remaining):
            continue
        key = (-remaining.cpu_cores, server)
        if best is None or key < best:
            best = key
    return best[1] if best else None


def assert_cpu_aggregates_match(inventory):
    """Level order and both totals equal a fresh scan of the ledger."""
    levels = [
        (cpu, list(servers)) for cpu, servers in inventory.free_cpu_levels()
    ]
    assert levels == scan_levels(inventory)
    for reference in REFERENCES:
        assert (
            inventory.free_cpu_cores(),
            inventory.usable_cpu_cores(reference),
        ) == scan_totals(inventory, reference)


# ---------------------------------------------------------------------------
# Level order and totals under random churn
# ---------------------------------------------------------------------------
class TestLevelsAndTotals:
    @pytest.mark.parametrize("seed", range(8))
    def test_track_random_mutations(
        self, small_fabric, service_catalog, seed
    ):
        inventory = MachineInventory(small_fabric)
        rng = random.Random(seed)
        assert_cpu_aggregates_match(inventory)  # builds them while idle
        for _ in range(200):
            _random_step(inventory, rng, service_catalog)
            assert_cpu_aggregates_match(inventory)

    def test_built_on_first_query_mid_churn(
        self, small_fabric, service_catalog
    ):
        # Aggregates first queried on a busy ledger start from its
        # state, not from the idle fabric.
        inventory = MachineInventory(small_fabric)
        rng = random.Random(3)
        for _ in range(80):
            _random_step(inventory, rng, service_catalog)
        assert_cpu_aggregates_match(inventory)
        for _ in range(80):
            _random_step(inventory, rng, service_catalog)
            assert_cpu_aggregates_match(inventory)

    @pytest.mark.parametrize("first, second", DRIFT_PAIRS)
    def test_totals_are_correctly_rounded(
        self, medium_fabric, web_service, first, second
    ):
        # Demands that are not binary fractions make a left-to-right sum
        # round; the totals still equal the correctly rounded sum.
        inventory = MachineInventory(medium_fabric)
        servers = medium_fabric.servers()
        rng = random.Random(int(first * 100))
        in_order_differs = False
        for step in range(240):
            placed = inventory.placed_vms()
            if placed and rng.random() < 0.3:
                inventory.remove(rng.choice(placed))
            else:
                cpu = first if step % 2 else second
                vm = inventory.create_vm(
                    web_service, ResourceVector(cpu_cores=cpu)
                )
                inventory.place(vm, rng.choice(servers))
            free = [v.cpu_cores for v in _free_vectors(inventory).values()]
            in_order = 0.0
            for cpu in free:
                in_order += cpu
            in_order_differs |= in_order != math.fsum(free)
            assert inventory.free_cpu_cores() == math.fsum(free)
            for reference in REFERENCES:
                assert inventory.usable_cpu_cores(reference) == (
                    scan_totals(inventory, reference)[1]
                )
        assert in_order_differs  # the oracle met sums that round


@pytest.fixture
def web_service(service_catalog):
    return service_catalog.get("web")


# ---------------------------------------------------------------------------
# The migration storm's coldest server
# ---------------------------------------------------------------------------
def _runner(**build):
    """A workload runner over a fresh stack (the scenario never runs)."""
    stack = AlvcStack.build(seed=0, exclusive_chains=False, **build)
    scenario = generate_scenario(ScenarioConfig(**SMALL_CONFIG), seed=0)
    return WorkloadRunner(stack, scenario)


class TestColdestServer:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_under_churn(self, service_catalog, seed):
        runner = _runner(n_racks=3, servers_per_rack=4, n_ops=4)
        inventory = runner._stack.inventory
        rng = random.Random(seed)
        for _ in range(120):
            _random_step(inventory, rng, service_catalog)
            for vm in inventory.placed_vms():
                assert runner._coldest_server(vm.vm_id) == brute_coldest(
                    inventory, vm.vm_id
                )

    def test_ties_exclusion_and_no_fit(self, web_service):
        runner = _runner(n_racks=2, servers_per_rack=2, n_ops=4)
        inventory = runner._stack.inventory
        s0, s1, s2, s3 = inventory.network.servers()

        def add(server, **demand):
            vm = inventory.create_vm(web_service, ResourceVector(**demand))
            inventory.place(vm, server)
            return vm

        def coldest(vm):
            expected = brute_coldest(inventory, vm.vm_id)
            assert runner._coldest_server(vm.vm_id) == expected
            return expected

        # Pad the stack's own VMs away: every server at 4 free cores.
        for server in (s0, s1, s2, s3):
            cpu = inventory.remaining_capacity(server).cpu_cores
            add(server, cpu_cores=cpu - 4)
        assert [cpu for cpu, _ in inventory.free_cpu_levels()] == [4.0]
        vm = add(s3, cpu_cores=1, memory_gb=1)
        assert coldest(vm) == s0  # a three-way tie goes to the lowest id
        for server in (s0, s1, s2):
            add(server, cpu_cores=2)
        # The VM's own host is now the coldest server: it is skipped.
        assert coldest(vm) == s0
        # A server with the most free CPU but no memory left does not fit.
        add(s0, memory_gb=inventory.remaining_capacity(s0).memory_gb)
        assert coldest(vm) == s1
        # No other server has the cores: there is no target at all.
        wide = add(s3, cpu_cores=3)
        assert coldest(wide) is None
        inventory.remove(wide)
        # A server with exactly the VM's cores free still fits it.
        snug = add(s3, cpu_cores=2)
        assert coldest(snug) == s0


# ---------------------------------------------------------------------------
# Snapshot round trip
# ---------------------------------------------------------------------------
class _Stop(Exception):
    """Ends a workload run at the epoch the test snapshots."""


def _assert_all_match(inventory, catalog):
    assert_affinity_order_matches(inventory, catalog)
    assert_cpu_aggregates_match(inventory)


@pytest.mark.parametrize("seed", range(3))
def test_snapshot_round_trip_mid_churn(tmp_path, service_catalog, seed):
    scenario = generate_scenario(
        ScenarioConfig(**{**SMALL_CONFIG, "days": 1.0}), seed=seed
    )
    stack = AlvcStack.build(
        seed=seed, n_racks=3, servers_per_rack=2, n_ops=4,
        vms_per_service=2, exclusive_chains=False,
    )
    path = tmp_path / "snap.alvc"

    def snapshot_mid_run(stack, epoch):
        if epoch == 6:
            write_snapshot(stack, path, journal_seq=0)
            raise _Stop

    runner = WorkloadRunner(
        stack, scenario, epoch_hook=snapshot_mid_run, chaos_rate=0.1,
        storm_period=2,
    )
    with pytest.raises(_Stop):
        runner.run()
    live = stack.inventory
    restored = load_snapshot(path).stack.inventory
    # The run queried the aggregates, so the snapshot carries them.
    assert restored._cpu_index is not None
    _assert_all_match(restored, service_catalog)
    # Identical churn on both keeps them equal to each other and to a
    # fresh scan.
    live_rng, restored_rng = random.Random(seed), random.Random(seed)
    for _ in range(120):
        done = _random_step(live, live_rng, service_catalog)
        assert _random_step(restored, restored_rng, service_catalog) == done
        _assert_all_match(restored, service_catalog)
        assert list(restored.free_cpu_levels()) == list(
            live.free_cpu_levels()
        )
        for reference in REFERENCES:
            assert restored.usable_cpu_cores(reference) == (
                live.usable_cpu_cores(reference)
            )
        assert restored.free_cpu_cores() == live.free_cpu_cores()
        assert dict(restored.rack_guests()) == dict(live.rack_guests())
