"""Memoized admission probes against a brute-force scan of every server.

:meth:`AdmissionController.headroom` and :meth:`fragmentation` read the
inventory's free-capacity index and memoize on its generation.  The
oracle here ignores both: it recomputes each figure from the raw ledger
(spec capacity minus used capacity, server by server, in fabric order)
and demands bit-for-bit equality, at every epoch, before every admission
preflight and after every failed (rolled-back) provision.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ALVCError
from repro.stack import AlvcStack
from repro.topology.elements import ResourceVector
from repro.workload import (
    AdmissionPolicy,
    ScenarioConfig,
    WorkloadRunner,
    generate_scenario,
)

from tests.workload.conftest import SMALL_BUILD, SMALL_CONFIG

#: E25's over-subscribed ``dense`` arm (two racks, heavy slot VMs, low
#: defrag threshold): admission rejects on capacity and defrag fires.
DENSE_BUILD = dict(
    n_racks=2,
    servers_per_rack=4,
    n_ops=8,
    vms_per_service=2,
    exclusive_chains=False,
)
DENSE_CONFIG = dict(
    days=2.0,
    epochs_per_day=24,
    arrival_rate=0.7,
    mean_lifetime_epochs=20.0,
    slots=6,
    slot_cpu=12.0,
    slot_memory_gb=24.0,
    slot_storage_gb=120.0,
    demand_base=0.2,
    demand_amplitude=1.2,
)
DENSE_KNOBS = dict(
    admission=AdmissionPolicy(defrag_threshold=0.25, defrag_period=6),
    chaos_rate=0.04,
    storm_period=8,
    storm_size=2,
)


def _scan(stack, reference: ResourceVector) -> tuple[float, float]:
    """``(headroom, fragmentation)`` recomputed from the raw ledger."""
    fabric = stack.fabric
    inventory = stack.inventory
    total = free = usable = 0.0
    for server in fabric.servers():
        capacity = fabric.spec_of(server).capacity
        remaining = capacity - inventory.used_capacity(server)
        total += capacity.cpu_cores
        free += remaining.cpu_cores
        if reference.fits_within(remaining):
            usable += remaining.cpu_cores
    headroom = free / total if total else 0.0
    fragmentation = 0.0 if free == 0.0 else 1.0 - usable / free
    return headroom, fragmentation


def _run_with_oracle(seed: int, build: dict, config: dict, **knobs):
    """One churn run with the oracle wired into every probe point."""
    scenario = generate_scenario(ScenarioConfig(**config), seed=seed)
    stack = AlvcStack.build(seed=seed, **build)
    reference = ResourceVector(
        cpu_cores=scenario.config.slot_cpu,
        memory_gb=scenario.config.slot_memory_gb,
        storage_gb=scenario.config.slot_storage_gb,
    )
    tally = {"probes": 0, "rollbacks": 0}

    def probe(stack, epoch=None) -> None:
        expected = _scan(stack, reference)
        for _ in range(2):  # the second read is served from the memo
            observed = (
                runner.admission.headroom(),
                runner.admission.fragmentation(),
            )
            assert observed == expected, (
                f"seed {seed}, epoch {epoch}: index {observed} != scan "
                f"{expected}"
            )
        tally["probes"] += 1

    runner = WorkloadRunner(stack, scenario, epoch_hook=probe, **knobs)
    preflight = runner.admission.preflight
    provision = stack.provision

    def checked_preflight(free_slots):
        probe(stack)
        return preflight(free_slots)

    def checked_provision(*args, **kwargs):
        try:
            return provision(*args, **kwargs)
        except ALVCError:
            probe(stack)  # the unwound state, not the half-built one
            tally["rollbacks"] += 1
            raise

    runner.admission.preflight = checked_preflight
    stack.provision = checked_provision
    report = runner.run()
    return runner, report, tally


@pytest.mark.parametrize("seed", range(6))
def test_probes_match_scan_under_churn(seed):
    _, report, tally = _run_with_oracle(
        seed, SMALL_BUILD, SMALL_CONFIG, chaos_rate=0.15, storm_period=3
    )
    assert tally["probes"] >= report.epochs


#: Seed 0's dense run also unwinds ten provisions its AL cannot route.
@pytest.mark.parametrize("seed, rollbacks", [(0, 10), (2, 0), (4, 0)])
def test_probes_match_scan_on_dense_arm(seed, rollbacks):
    runner, report, tally = _run_with_oracle(
        seed, DENSE_BUILD, DENSE_CONFIG, **DENSE_KNOBS
    )
    # The arm earns its place: defrag re-embeds under real fragmentation.
    assert runner.admission.reembedded > 0
    assert report.fragmentation_peak > DENSE_KNOBS["admission"].defrag_threshold
    assert tally["rollbacks"] == rollbacks
