"""Mutation-point injection sweep: a command that fails anywhere is traceless.

A test-side undo log raises at the n-th mutation a command logs, before
that mutation happens (every store logs its inverse first; see
:mod:`repro.undo`).  For every journaled command the sweep runs n = 1,
2, ... on one journaled stack until the command commits.  After each
injected failure the live state must equal the pre-command state and
the journal must not have grown; the pre-command journal's genesis
replay and snapshot restore are checked against the same state once.
The committed run must then restore identically too, so a failure that
left a remnant behind still shows up in the command's own committed
result.  "State" is the state digest plus what it leaves out but
replay reproduces: lifecycle transition counts, flow-table churn
counters and the id allocators' cursors.

``provision_batch(on_error="collect")`` keeps going after a failed
request: there the failed request must leave no trace, so the live
stack must equal a twin that ran the batch without it.
"""

from __future__ import annotations

import pytest

from repro import undo
from repro.core.chaining import NetworkFunctionChain
from repro.exceptions import ALVCError, PlacementError
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest
from repro.stack import AlvcStack

BUILD = dict(
    n_racks=4,
    servers_per_rack=4,
    n_ops=6,
    vms_per_service=3,
    exclusive_chains=False,
    telemetry="json",
)


class _Injected(Exception):
    """The failure injected at a mutation point."""


class _FailingLog(list):
    """An undo log that raises at the ``fail_at``-th entry, counted
    across every outermost frame of one call (a lazy cluster bootstrap
    is a command of its own)."""

    def __init__(self, counter: dict) -> None:
        super().__init__()
        self._counter = counter

    def append(self, entry) -> None:
        counter = self._counter
        counter["seen"] += 1
        if counter["seen"] == counter["fail_at"]:
            counter["fired"] = True
            raise counter["error"](
                f"injected at mutation point {counter['fail_at']}"
            )
        super().append(entry)


def _call_failing_at(monkeypatch, fail_at, error, command, stack):
    """Run ``command(stack)`` with mutation point ``fail_at`` failing;
    returns the injection counter."""
    counter = {"seen": 0, "fail_at": fail_at, "fired": False, "error": error}
    enter = undo.enter

    def failing_enter() -> None:
        enter()
        if len(undo._savepoints) == 1:
            undo._log = _FailingLog(counter)

    with monkeypatch.context() as patch:
        patch.setattr(undo, "enter", failing_enter)
        command(stack)
    return counter


def _state(stack) -> tuple:
    """The state digest plus the replayed state it does not hash."""
    orchestrator = stack.orchestrator
    nfv = orchestrator.nfv_manager
    return (
        state_digest(stack),
        nfv.lifecycle.event_counts(),
        orchestrator.sdn.churn_counters(),
        [
            dict(ids._next)
            for ids in (
                stack.inventory._ids,
                nfv._ids,
                orchestrator.slice_allocator._ids,
            )
        ],
    )


def _build(tmp_path, setup):
    journal = tmp_path / "journal.alvc"
    stack = AlvcStack.build(**BUILD, journal=journal, sync="off")
    setup(stack)
    stack.snapshot(tmp_path / "stack.snap")
    return stack


def _restored_states(tmp_path) -> tuple[tuple, tuple]:
    journal = tmp_path / "journal.alvc"
    replayed = restore_stack(journal)
    restored = restore_stack(journal, tmp_path / "stack.snap")
    assert restored.source == "snapshot"
    return _state(replayed.stack), _state(restored.stack)


def _sweep(tmp_path, monkeypatch, setup, command) -> int:
    """Fail ``command`` at each of its mutation points, then commit it;
    returns how many points it has."""
    stack = _build(tmp_path, setup)
    before = _state(stack)
    records = stack.journal.next_seq
    assert _restored_states(tmp_path) == (before, before)
    fail_at = 0
    while True:
        fail_at += 1
        try:
            counter = _call_failing_at(
                monkeypatch, fail_at, _Injected, command, stack
            )
        except _Injected:
            assert _state(stack) == before, f"point {fail_at}"
            assert stack.journal.next_seq == records, f"point {fail_at}"
            continue
        assert not counter["fired"]
        break
    after = _state(stack)
    assert after != before
    stack.journal.close()
    assert _restored_states(tmp_path) == (after, after)
    return fail_at - 1


# ----------------------------------------------------------------------
# Set-ups and commands
# ----------------------------------------------------------------------
#: On the 4x4 fabric web's VNFs land as: vnf-0, vnf-1 and vnf-4 on the
#: web AL's only router ops-0, vnf-2 and vnf-3 on server-0.
WEB_CHAIN = ("firewall", "nat", "ids", "dpi", "proxy")


def _base(stack) -> None:
    stack.provision(WEB_CHAIN, service="web")
    stack.provision(("firewall",), service="streaming")
    stack.cluster("backup")


def _with_failed_ops(stack) -> None:
    _base(stack)
    stack.orchestrator.handle_ops_failure("ops-5")


def _modify(stack) -> None:
    orchestrator = stack.orchestrator
    chain = NetworkFunctionChain.from_names(
        "chain-0", ("nat", "ids"), stack.functions, 1.0
    )
    orchestrator.modify_chain("chain-0", chain)


COMMANDS = {
    "populate": (_base, lambda stack: stack.populate("backup", 3)),
    "cluster": (_base, lambda stack: stack.cluster("sns")),
    "provision": (
        _base,
        lambda stack: stack.provision(("firewall", "ids"), service="backup"),
    ),
    "teardown": (_base, lambda stack: stack.teardown("chain-0")),
    "modify": (_base, _modify),
    "upgrade": (
        _base, lambda stack: stack.orchestrator.upgrade_chain("chain-0")
    ),
    "vm_migrate": (
        _base,
        lambda stack: stack.orchestrator.handle_vm_migration(
            "vm-0", "server-4"
        ),
    ),
    "vnf_scale_electronic": (
        _base,
        lambda stack: stack.orchestrator.nfv_manager.scale("vnf-2", 1.5),
    ),
    "vnf_scale_optical": (
        _base,
        lambda stack: stack.orchestrator.nfv_manager.scale("vnf-0", 0.5),
    ),
    "vnf_migrate_electronic": (
        _base,
        lambda stack: stack.orchestrator.nfv_manager.migrate(
            "vnf-2", "server-1"
        ),
    ),
    "vnf_migrate_optical": (
        _base,
        lambda stack: stack.orchestrator.nfv_manager.migrate(
            "vnf-0", "ops-1"
        ),
    ),
    "ops_failure_replace_cluster": (
        _base, lambda stack: stack.orchestrator.handle_ops_failure("ops-0")
    ),
    "ops_failure_free_switch": (
        _base, lambda stack: stack.orchestrator.handle_ops_failure("ops-5")
    ),
    "ops_repair": (
        _with_failed_ops,
        lambda stack: stack.orchestrator.mark_ops_repaired("ops-5"),
    ),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_mutation_point_unwinds(tmp_path, monkeypatch, name):
    setup, command = COMMANDS[name]
    assert _sweep(tmp_path, monkeypatch, setup, command) > 0


def test_the_composites_cover_their_parts(tmp_path, monkeypatch):
    """``ops_failure`` on an AL router replaces the cluster, evacuates
    its VNFs and reroutes its chain; a VM migration out of the rack
    grows the AL and the slice.  Both change more than their own
    records, so their sweeps reach the stores they compose."""
    stack = _build(tmp_path, _base)
    cluster = stack.orchestrator.cluster_manager.cluster_of_service("web")
    slice_switches = stack.chain("chain-0").optical_slice.switches
    recovery = stack.orchestrator.handle_ops_failure("ops-0")
    assert recovery.recovered and recovery.vnfs_migrated == 3
    assert recovery.chains_rerouted == 1
    repaired = stack.orchestrator.cluster_manager.cluster_of_service("web")
    assert repaired.al_switches != cluster.al_switches
    moved = stack.orchestrator.handle_vm_migration("vm-1", "server-4")
    assert moved["switches_touched"] > 0
    assert stack.chain("chain-0").optical_slice.switches != slice_switches
    stack.journal.close()


BATCH = (
    {"chain": ("nat",), "service": "web", "chain_id": "b0"},
    {"chain": ("dpi", "ids"), "service": "backup", "chain_id": "b1"},
)


def test_collected_batch_failures_are_traceless(tmp_path, monkeypatch):
    """Each mutation point of a two-request ``provision_batch`` with
    ``on_error="collect"``: the failed request is collected and leaves
    no trace, and the other one commits as if batched alone."""
    fail_at = 0
    while True:
        fail_at += 1
        run = tmp_path / str(fail_at)
        run.mkdir()
        stack = _build(run, _base)
        results = []
        counter = _call_failing_at(
            monkeypatch, fail_at, PlacementError,
            lambda stack: results.extend(
                stack.provision_batch(BATCH, on_error="collect")
            ),
            stack,
        )
        if not counter["fired"]:
            break
        failed = [i for i, r in enumerate(results) if isinstance(r, ALVCError)]
        assert len(failed) == 1, f"point {fail_at}"
        twin = AlvcStack.build(**BUILD)
        _base(twin)
        twin.provision_batch(
            [item for i, item in enumerate(BATCH) if i not in failed]
        )
        live = _state(stack)
        assert live == _state(twin), f"point {fail_at}"
        stack.journal.close()
        assert _restored_states(run) == (live, live), f"point {fail_at}"
    assert fail_at > 2
