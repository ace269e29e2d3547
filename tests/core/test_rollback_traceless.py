"""Failed commands leave no trace — the replay-parity contract.

A journaled stack only journals *committed* commands; a command that
fails part-way must therefore leave every store as it found it — VNF
lifecycle entries and counts, carrier VMs, pool reservations, and every
id it drew from the vnf/vm/slice allocators — or the live stack drifts
from what replaying its journal produces.  Composite commands (a modify
is a teardown plus a provision; an electronic VNF migration swaps its
carrier VM) must be all or nothing too.  These are the direct
regression tests; ``test_unwind_sweep.py`` fails every mutation point.
"""

from __future__ import annotations

import pytest

from repro.core.chaining import NetworkFunctionChain
from repro.exceptions import (
    PlacementError,
    RoutingError,
    SlicingError,
    UnknownEntityError,
)
from repro.nfv.manager import NFV_INFRA_SERVICE
from repro.service.journal import NULL_RECORDER
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest
from repro.stack import AlvcStack
from repro.topology.elements import Domain


def _build(tmp_path=None, **overrides):
    build = dict(
        n_racks=2,
        servers_per_rack=2,
        n_ops=4,
        seed=3,
        vms_per_service=2,
        exclusive_chains=False,
    )
    if tmp_path is not None:
        build.update(journal=tmp_path / "journal.alvc", sync="off")
    build.update(overrides)
    return AlvcStack.build(**build)


class TestFailedProvisionIsTraceless:
    def _fail_second_vnf(self, stack, monkeypatch):
        """Make the second VNF deploy of the next provision fail.

        Patches both deploy paths with a shared counter — the solver
        is free to place either VNF optically or electronically.
        """
        nfv = stack.orchestrator.nfv_manager
        real = (nfv.deploy_optical, nfv.deploy_electronic)
        calls = {"n": 0}

        def _gate():
            calls["n"] += 1
            if calls["n"] == 2:
                raise PlacementError("forced mid-deploy failure")

        def flaky_optical(function_name, *, ops):
            _gate()
            return real[0](function_name, ops=ops)

        def flaky_electronic(function_name, *, server):
            _gate()
            return real[1](function_name, server=server)

        monkeypatch.setattr(nfv, "deploy_optical", flaky_optical)
        monkeypatch.setattr(nfv, "deploy_electronic", flaky_electronic)
        return nfv, real

    def test_retry_after_failure_reuses_the_rolled_back_ids(
        self, monkeypatch
    ):
        stack = _build()
        nfv, real = self._fail_second_vnf(stack, monkeypatch)
        with pytest.raises(PlacementError):
            stack.provision(("firewall", "nat"), service="web")
        # The failed attempt must not leave TERMINATED lifecycle
        # ghosts or stale instances: the retry re-allocates the very
        # same vnf ids, and `create` refuses duplicates.
        monkeypatch.setattr(nfv, "deploy_optical", real[0])
        monkeypatch.setattr(nfv, "deploy_electronic", real[1])
        live = stack.provision(
            ("firewall", "nat"), service="web", chain_id="retry"
        )
        assert live.vnf_ids == ("vnf-0", "vnf-1")
        assert nfv.lifecycle.live_vnfs() == ["vnf-0", "vnf-1"]

    def test_failure_releases_the_carrier_vm_and_capacity(
        self, monkeypatch
    ):
        stack = _build()
        inventory = stack.inventory
        # Bootstrap the cluster first so the failed provision's only
        # side effects are the deploy's own.
        stack.provision(("dpi",), service="web", chain_id="warm")
        stack.teardown("warm")
        used_before = {
            server: inventory.used_capacity(server)
            for server in stack.fabric.servers()
        }
        nfv, _ = self._fail_second_vnf(stack, monkeypatch)
        with pytest.raises(PlacementError):
            stack.provision(("firewall", "nat"), service="web")
        assert {
            server: inventory.used_capacity(server)
            for server in stack.fabric.servers()
        } == used_before
        assert not any(
            vm.service == "nfv-infra" for vm in inventory.placed_vms()
        )

    def test_live_and_replayed_stacks_stay_digest_identical(
        self, monkeypatch, tmp_path
    ):
        """The workload-soak divergence, reduced to its kernel.

        Replay never sees failed commands, so a failure that burned a
        vnf/vm/slice id on the live stack (without rewinding) makes the
        retry's ids — all digest-visible — differ between live and
        replay.
        """
        stack = _build(tmp_path)
        nfv, real = self._fail_second_vnf(stack, monkeypatch)
        with pytest.raises(PlacementError):
            stack.provision(("firewall", "nat"), service="web")
        monkeypatch.setattr(nfv, "deploy_optical", real[0])
        monkeypatch.setattr(nfv, "deploy_electronic", real[1])
        stack.provision(("firewall", "nat"), service="web")
        live_digest = state_digest(stack)
        stack.journal.close()
        restored = AlvcStack.restore(tmp_path / "journal.alvc")
        try:
            assert state_digest(restored) == live_digest
        finally:
            restored.journal.close()

    def test_slice_id_allocator_rewinds_with_the_released_slice(
        self, monkeypatch
    ):
        stack = _build()
        nfv, real = self._fail_second_vnf(stack, monkeypatch)
        with pytest.raises(PlacementError):
            stack.provision(("firewall", "nat"), service="web")
        monkeypatch.setattr(nfv, "deploy_optical", real[0])
        monkeypatch.setattr(nfv, "deploy_electronic", real[1])
        live = stack.provision(("firewall", "nat"), service="web")
        # Without the rewind the failed attempt burns slice-0 and the
        # retry lands on slice-1 — an id replay would never skip.
        assert live.optical_slice.slice_id == "slice-0"


class TestFailedProvisionLeavesNoLifecycleCount:
    def test_live_replayed_and_restored_counts_agree(self, tmp_path):
        """A provision that fails at flow install deploys and terminates
        its VNFs; replay never sees it, so the live transition counts
        must not keep them either."""
        journal = tmp_path / "journal.alvc"
        snapshot = tmp_path / "stack.snap"
        stack = AlvcStack.build(
            n_racks=16, n_ops=8, exclusive_chains=False, journal=journal,
            sync="off",
        )
        lifecycle = stack.orchestrator.nfv_manager.lifecycle
        stack.provision(("firewall", "nat"), service="web")
        before = lifecycle.event_counts()
        assert before == {"instantiated": 2, "running": 2}
        live_vnfs = lifecycle.live_vnfs()

        sdn = stack.orchestrator.sdn

        def rejecting_install(flow, path):
            raise RoutingError("controller rejected the path")

        sdn.install_path = rejecting_install
        try:
            with pytest.raises(RoutingError, match="rejected"):
                stack.provision(("firewall", "nat"), service="web")
        finally:
            del sdn.install_path
        assert lifecycle.event_counts() == before
        assert lifecycle.live_vnfs() == live_vnfs

        stack.snapshot(snapshot)
        stack.provision(("proxy", "ids"), service="web")
        counts = lifecycle.event_counts()
        stack.journal.close()
        replayed = restore_stack(journal)
        restored = restore_stack(journal, snapshot)
        assert restored.source == "snapshot"
        for other in (replayed.stack, restored.stack):
            nfv = other.orchestrator.nfv_manager
            assert nfv.lifecycle.event_counts() == counts


class _Unwind(Exception):
    """Raised inside a frame to unwind what it did."""


class TestSliceAllocatorRewind:
    def test_release_alone_burns_the_id_rewind_returns_it(self):
        stack = _build()
        stack.cluster("web")
        allocator = stack.orchestrator.slice_allocator
        stack.provision(("dpi",), service="web", chain_id="probe")
        stack.teardown("probe")
        assert allocator.slices() == []
        # release() keeps the cursor monotonic: live ids are never
        # re-issued.
        second = stack.provision(("dpi",), service="web", chain_id="kept")
        assert second.optical_slice.slice_id == "slice-1"
        stack.teardown("kept")
        # A provision whose frame unwinds hands its id back.
        with pytest.raises(_Unwind), NULL_RECORDER.operation():
            stack.provision(("dpi",), service="web", chain_id="gone")
            raise _Unwind
        assert stack.chains() == [] and allocator.slices() == []
        reused = stack.provision(("dpi",), service="web", chain_id="again")
        assert reused.optical_slice.slice_id == "slice-2"


#: ROADMAP item 5's probe stack: too small for 40 ``ids`` VNFs.
PROBE = dict(
    n_racks=4,
    servers_per_rack=4,
    n_ops=6,
    vms_per_service=3,
    exclusive_chains=False,
)


def _journaled_probe(tmp_path):
    """The probe stack, journaled, with a snapshot of its genesis."""
    stack = AlvcStack.build(
        **PROBE, journal=tmp_path / "journal.alvc", sync="off"
    )
    stack.snapshot(tmp_path / "stack.snap")
    return stack


def _assert_restores_to(stack, tmp_path, digest):
    """Live, genesis-replayed and snapshot-restored stacks all read
    ``digest``."""
    assert state_digest(stack) == digest
    stack.journal.close()
    replayed = restore_stack(tmp_path / "journal.alvc")
    restored = restore_stack(
        tmp_path / "journal.alvc", tmp_path / "stack.snap"
    )
    assert restored.source == "snapshot"
    assert state_digest(replayed.stack) == digest
    assert state_digest(restored.stack) == digest


class TestFailedModifyIsTraceless:
    def test_old_chain_survives_a_modify_that_cannot_place(self, tmp_path):
        stack = _journaled_probe(tmp_path)
        live = stack.provision(("firewall", "nat"), service="web")
        before = state_digest(stack)
        heavy = NetworkFunctionChain.from_names(
            live.chain_id, ("ids",) * 40, stack.functions, 1.0
        )
        with pytest.raises(PlacementError):
            stack.orchestrator.modify_chain(live.chain_id, heavy)
        assert [chain.chain_id for chain in stack.chains()] == ["chain-0"]
        _assert_restores_to(stack, tmp_path, before)


class TestFailedElectronicMigrateIsTraceless:
    def _carriers(self, stack):
        inventory = stack.inventory
        carriers = [
            vm.vm_id
            for vm in inventory.all_vms()
            if vm.service == NFV_INFRA_SERVICE.name
        ]
        return carriers, inventory.hosts_of(carriers)

    @pytest.mark.parametrize("target", ["no-such-server", "full"])
    def test_carrier_ids_and_counts_stay_put(self, tmp_path, target):
        stack = _journaled_probe(tmp_path)
        stack.provision(
            ("firewall", "nat", "ids", "dpi", "proxy"), service="web"
        )
        nfv = stack.orchestrator.nfv_manager
        inventory = stack.inventory
        instance = nfv.instance_of("vnf-2")
        assert instance.domain is Domain.ELECTRONIC
        error = UnknownEntityError
        if target == "full":
            error = PlacementError
            stack.populate("web", 20)  # fills the carrier's rack
            demand = instance.function.demand
            target = next(
                server
                for server in stack.fabric.servers()
                if server != instance.host
                and not demand.fits_within(
                    inventory.remaining_capacity(server)
                )
            )
        before = state_digest(stack)
        carriers = self._carriers(stack)
        vm_ids = dict(inventory._ids._next)
        counts = nfv.lifecycle.event_counts()
        with pytest.raises(error):
            nfv.migrate("vnf-2", target)
        assert self._carriers(stack) == carriers
        assert inventory._ids._next == vm_ids
        assert nfv.lifecycle.event_counts() == counts
        assert nfv.instance_of("vnf-2") == instance
        _assert_restores_to(stack, tmp_path, before)


class TestCommandInsideAnEnclosingFrame:
    """A journaled command run inside an outer undo frame commits, and
    journals, only with that frame."""

    def _stack(self, tmp_path):
        return AlvcStack.build(
            n_racks=4,
            servers_per_rack=4,
            n_ops=6,
            journal=tmp_path / "journal.alvc",
            sync="off",
        )

    def _replays_to_live(self, stack, tmp_path) -> bool:
        digest = state_digest(stack)
        stack.journal.close()
        replayed = restore_stack(tmp_path / "journal.alvc").stack
        return state_digest(replayed) == digest

    def test_unwound_outer_frame_journals_nothing(self, tmp_path):
        stack = self._stack(tmp_path)
        with pytest.raises(_Unwind), NULL_RECORDER.operation():
            # Bootstraps web's cluster (its own command), then provisions.
            stack.provision(("nat",), service="web")
            assert stack.journal.next_seq == 1
            raise _Unwind
        assert stack.orchestrator.chains() == []
        assert stack.journal.next_seq == 1
        assert self._replays_to_live(stack, tmp_path)

    def test_committed_outer_frame_journals_in_order(self, tmp_path):
        stack = self._stack(tmp_path)
        with NULL_RECORDER.operation():
            live = stack.provision(("nat",), service="web")
            stack.teardown(live.chain_id)
            stack.provision(("firewall",), service="web")
        ops = [record.op for record in stack.journal.records()]
        assert ops == [
            "genesis", "cluster", "provision", "teardown", "provision"
        ]
        assert self._replays_to_live(stack, tmp_path)


class TestRepairVsSliceConflict:
    def test_extend_refused_degrades_instead_of_crashing(self, monkeypatch):
        """An AL repair whose adopted OPS overlaps a live slice.

        Cluster bookkeeping frees an OPS as soon as an AL drops it, but
        the owning slice keeps its wavelengths until the chain tears
        down — so a *repair* can try to adopt an OPS another slice
        still holds.  The orchestrator must refuse the repair (degrade
        the chains) rather than crash or, worse, break isolation.
        """
        stack = _build()
        live = stack.provision(("firewall", "nat"), service="web")
        victim_ops = sorted(live.cluster.al_switches)[0]

        def refuse(slice_id, extra_switches):
            raise SlicingError("forced overlap")

        monkeypatch.setattr(
            stack.orchestrator.slice_allocator, "extend", refuse
        )
        recovery = stack.orchestrator.handle_ops_failure(victim_ops)
        assert not recovery.recovered
        assert live.chain_id in recovery.degraded_chains
        # Isolation survived the refused repair.
        stack.orchestrator.slice_allocator.verify_isolation()
