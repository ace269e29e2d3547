"""A long-running stack's memory follows its live state, not its history.

The Cloud/NFV manager instantiates and terminates VNFs for as long as
the control plane runs.  A terminated VNF leaves no record in the
manager or its lifecycle (only the lifecycle's counts remember it), and
a server holds a guest set only while it hosts a VM.  After hundreds of
provision/teardown cycles the stores hold exactly the live entities, and
a further run of cycles at the same live size grows nothing but the
orchestrator's action log, which the state digest pins.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.stack import AlvcStack

#: Optical and carrier-VM VNFs both (``dpi`` and ``ids`` run in VMs).
SHAPES = (("firewall", "nat"), ("dpi",), ("proxy", "ids"), ("nat",))
SERVICES = ("web", "backup")
LIVE = 3

#: Traced bytes a run of cycles may add beyond the action log's own
#: (allocator and dict-resize noise; a cycle that kept its VNF records
#: would add several hundred bytes per cycle).
SLACK = 24 * 1024


class _Churn:
    """Provision one chain per cycle and tear down the oldest beyond
    :data:`LIVE`, counting the VNFs torn down."""

    def __init__(self, stack: AlvcStack) -> None:
        self.stack = stack
        self.live: list[str] = []
        self.cycles = 0
        self.terminated = 0

    def run(self, cycles: int) -> None:
        stack = self.stack
        for _ in range(cycles):
            index = self.cycles
            chain = stack.provision(
                SHAPES[index % len(SHAPES)],
                service=SERVICES[index % len(SERVICES)],
            )
            self.live.append(chain.chain_id)
            if len(self.live) > LIVE:
                oldest = stack.chain(self.live.pop(0))
                self.terminated += len(oldest.vnf_ids)
                stack.teardown(oldest.chain_id)
            self.cycles += 1


@pytest.fixture
def churn(tmp_path):
    stack = AlvcStack.build(
        n_racks=4,
        servers_per_rack=4,
        n_ops=6,
        vms_per_service=3,
        exclusive_chains=False,
        journal=tmp_path / "journal.alvc",
        sync="off",
    )
    churn = _Churn(stack)
    churn.run(300)
    yield churn
    stack.journal.close()


def test_stores_hold_exactly_the_live_state(churn):
    stack = churn.stack
    nfv = stack.orchestrator.nfv_manager
    live_vnfs = sorted(
        vnf for chain in stack.chains() for vnf in chain.vnf_ids
    )
    assert sorted(nfv._instances) == live_vnfs
    assert sorted(nfv.lifecycle._states) == live_vnfs
    assert nfv.lifecycle.live_vnfs() == live_vnfs
    assert [instance.vnf_id for instance in nfv.live_instances()] == live_vnfs

    inventory = stack.inventory
    occupied = {inventory.host_of(vm.vm_id) for vm in inventory.placed_vms()}
    assert set(inventory._guests) == occupied
    assert all(inventory._guests.values())
    for server in stack.fabric.servers():
        assert inventory.guest_count(server) == len(inventory.vms_on(server))

    counts = nfv.lifecycle.event_counts()
    assert churn.terminated > 0
    assert counts["terminated"] == churn.terminated
    assert counts["instantiated"] == churn.terminated + len(live_vnfs)


def _action_log_bytes(entries: list[tuple], grown: int) -> int:
    """Bytes of ``entries`` (tuples and the distinct objects they hold)
    plus ``grown``, the growth of the log's own list."""
    seen: set[int] = set()
    total = grown
    for entry in entries:
        total += sys.getsizeof(entry)
        for item in entry:
            if id(item) not in seen:
                seen.add(id(item))
                total += sys.getsizeof(item)
    return total


def test_cycles_at_a_fixed_live_size_grow_only_the_action_log(churn):
    actions = churn.stack.orchestrator._actions
    logged = len(actions)
    list_bytes = sys.getsizeof(actions)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        churn.run(500)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    log = _action_log_bytes(
        actions[logged:], sys.getsizeof(actions) - list_bytes
    )
    assert len(churn.live) == LIVE
    assert grown <= log + SLACK, (
        f"500 cycles grew {grown} traced bytes; the action log accounts "
        f"for {log}"
    )
