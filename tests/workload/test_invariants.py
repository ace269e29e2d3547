"""Seeded workload invariants: 200+ derandomized churn schedules.

Three families of property tests, each over a block of fixed seeds
(no randomness at test time — every failure reproduces by seed):

* **capacity conservation** — at every epoch of every run, each
  server's used-capacity ledger equals the sum of the VM records
  placed on it, nothing is over-committed, and the optoelectronic
  pool's ledgers balance.  Admission, scaling, storms, chaos and
  defrag all run during the probe.
* **tenant/AL isolation** — no tenant is ever served through another
  tenant's abstraction layer: active slices stay pairwise
  OPS-disjoint, and chains of different tenants never share a
  cluster, slice or wavelength-on-a-switch.
* **journal replay parity** — a journaled churn run restores from its
  own journal into the digest-identical control plane (failed
  provisions, rejected tenants and blocked migrations leave no trace).

A final teardown-drain test proves scaling down and tearing down never
strand wavelengths or optical capacity.
"""

from __future__ import annotations

import pytest

from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest, state_view
from repro.stack import AlvcStack
from repro.topology.elements import ResourceVector

from tests.workload.conftest import small_soak

CAPACITY_SEEDS = range(80)
ISOLATION_SEEDS = range(80, 140)
REPLAY_SEEDS = range(140, 200)


def _chaos_for(seed: int) -> float:
    """Half the seeds run with OPS chaos enabled."""
    return 0.15 if seed % 2 else 0.0

def _storm_for(seed: int) -> int:
    """A third of the seeds run periodic migration storms."""
    return 3 if seed % 3 == 0 else 0


# ---------------------------------------------------------------------------
# Capacity conservation
# ---------------------------------------------------------------------------
def _assert_capacity_conserved(stack, epoch) -> None:
    inventory = stack.inventory
    for server in stack.fabric.servers():
        placed = inventory.vms_on(server)
        total = ResourceVector.zero()
        for vm in placed:
            total = total + vm.demand
        assert inventory.used_capacity(server) == total, (
            f"epoch {epoch}: server {server} ledger diverged from "
            f"its VM records"
        )
        # remaining_capacity = capacity - used; ResourceVector refuses
        # negative components, so over-commit raises right here.
        remaining = inventory.remaining_capacity(server)
        assert remaining.cpu_cores >= 0
    pool = stack.orchestrator.nfv_manager.pool
    for ops in pool.host_ids():
        host = pool.get(ops)
        assert host.used + host.free == host.capacity, (
            f"epoch {epoch}: optical pool ledger on {ops} lost balance"
        )


@pytest.mark.parametrize("seed", CAPACITY_SEEDS)
def test_capacity_conserved_under_churn(seed):
    stack, report = small_soak(
        seed,
        epoch_hook=_assert_capacity_conserved,
        chaos_rate=_chaos_for(seed),
        storm_period=_storm_for(seed),
    )
    # The probe ran on every epoch, and the run actually churned.
    assert report.epochs == 8
    assert report.tenants_arrived >= 0
    _assert_capacity_conserved(stack, report.epochs)


# ---------------------------------------------------------------------------
# Tenant / AL isolation
# ---------------------------------------------------------------------------
def _assert_tenants_isolated(stack, epoch) -> None:
    # Slices pairwise OPS-disjoint (the AL-VC isolation guarantee).
    stack.orchestrator.slice_allocator.verify_isolation()
    by_tenant: dict[str, set] = {}
    cluster_of_tenant: dict[str, str] = {}
    slice_of_tenant: dict[str, str] = {}
    for live in stack.chains():
        tenant = live.request.tenant
        by_tenant.setdefault(tenant, set()).update(
            live.optical_slice.switches
        )
        # A tenant's chains share one slot = one cluster = one slice;
        # two tenants must never share either.
        for mapping, value in (
            (cluster_of_tenant, live.cluster.cluster_id),
            (slice_of_tenant, live.optical_slice.slice_id),
        ):
            assert mapping.setdefault(tenant, value) == value
    tenants = sorted(by_tenant)
    for i, left in enumerate(tenants):
        for right in tenants[i + 1:]:
            assert cluster_of_tenant[left] != cluster_of_tenant[right]
            assert slice_of_tenant[left] != slice_of_tenant[right]
            assert not (by_tenant[left] & by_tenant[right]), (
                f"epoch {epoch}: tenants {left} and {right} share "
                f"AL switches {by_tenant[left] & by_tenant[right]}"
            )


@pytest.mark.parametrize("seed", ISOLATION_SEEDS)
def test_no_tenant_sees_anothers_al(seed):
    stack, report = small_soak(
        seed,
        epoch_hook=_assert_tenants_isolated,
        chaos_rate=_chaos_for(seed),
        storm_period=_storm_for(seed),
    )
    _assert_tenants_isolated(stack, report.epochs)


# ---------------------------------------------------------------------------
# Journal replay parity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_journal_replay_is_digest_identical(seed, tmp_path):
    journal_path = tmp_path / "journal.alvc"
    stack, report = small_soak(
        seed,
        journal=journal_path,
        chaos_rate=_chaos_for(seed),
        storm_period=_storm_for(seed),
    )
    assert report.state_digest == state_digest(stack)
    stack.journal.close()
    restored = AlvcStack.restore(journal_path)
    try:
        assert state_digest(restored) == report.state_digest, (
            f"seed {seed}: replaying {report.journal_records} journal "
            f"records diverged from the live run"
        )
    finally:
        restored.journal.close()


@pytest.mark.parametrize("seed", [1, 6, 9])
def test_replay_parity_with_telemetry_on(seed, tmp_path):
    """Telemetry counters are replay-deterministic state too.

    The fault injector's own event counter is not: replay re-applies
    the journaled recovery commands, never the injector that drew them.
    """
    journal_path = tmp_path / "journal.alvc"
    stack, report = small_soak(
        seed,
        journal=journal_path,
        chaos_rate=0.15,
        storm_period=3,
        build_overrides={"telemetry": True},
    )
    assert report.faults_injected > 0
    assert stack.telemetry.enabled
    stack.journal.close()
    restored = restore_stack(journal_path).stack
    assert restored.telemetry.enabled
    assert state_digest(restored) == state_digest(stack)


@pytest.mark.parametrize("seed", [1, 6, 9])
def test_replay_parity_with_data_plane_telemetry(seed, tmp_path):
    """The chaos runner's data-plane counters and gauges (fair-share
    components, admission tallies) are read-path tallies, not state.

    The explicit ``sim_engine`` key is how these journals were built
    when the vector data plane was opt-in; it must still restore.
    """
    journal_path = tmp_path / "journal.alvc"
    stack, report = small_soak(
        seed,
        journal=journal_path,
        chaos_rate=0.15,
        storm_period=3,
        build_overrides={
            "telemetry": True,
            "engines": {"sim_engine": "vector"},
        },
    )
    assert report.faults_injected > 0
    names = stack.telemetry.registry.snapshot()
    assert any(name.startswith("alvc_admission_") for name in names)
    stack.journal.close()
    restored = restore_stack(journal_path).stack
    assert state_digest(restored) == state_digest(stack)


def test_run_to_run_determinism_spot_check():
    """Same seed, twice: the full report (decision log included) matches."""
    _, first = small_soak(11, chaos_rate=0.15, storm_period=3)
    _, second = small_soak(11, chaos_rate=0.15, storm_period=3)
    assert first == second


# ---------------------------------------------------------------------------
# Nothing strands on the way down
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 17, 42])
def test_full_teardown_strands_nothing(seed):
    """Tearing every surviving chain down returns all optical capacity.

    Scaling (up *and* down) ran during the soak; if a scale or a
    re-embed ever leaked a wavelength or a pool reservation, the drained
    stack could not come back to a clean optical plane.
    """
    stack, report = small_soak(seed, chaos_rate=0.1, storm_period=3)
    for live in stack.chains():
        stack.teardown(live.chain_id)
    assert stack.chains() == []
    assert stack.orchestrator.slice_allocator.slices() == []
    view = state_view(stack)
    assert view["slices"] == []
    pool = stack.orchestrator.nfv_manager.pool
    for ops in pool.host_ids():
        host = pool.get(ops)
        assert host.used == ResourceVector.zero(), (
            f"seed {seed}: optical capacity stranded on {ops} after "
            f"draining every chain"
        )
    # Only the slot service VMs remain on the servers — every VNF
    # carrier VM left with its chain.
    inventory = stack.inventory
    for vm in inventory.placed_vms():
        assert not vm.service.startswith("nfv-"), (
            f"carrier VM {vm.vm_id} stranded after teardown"
        )
