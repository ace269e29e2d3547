"""Failed commands leave no trace — the replay-parity contract.

A journaled stack only journals *committed* commands; a provision that
fails mid-deploy must therefore roll back every side effect — VNF
lifecycle entries, carrier VMs, pool reservations, and every id it
drew from the vnf/vm/slice allocators — or the live stack drifts from
what replaying its journal produces.  Long churn runs (the workload
soaks) hit these paths constantly; these are the direct regression
tests.
"""

from __future__ import annotations

import pytest

from repro.exceptions import PlacementError, RoutingError, SlicingError
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest
from repro.stack import AlvcStack


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


class TestSliceAllocatorRewind:
    def test_release_alone_burns_the_id_rewind_returns_it(self):
        stack = _build()
        allocator = stack.orchestrator.slice_allocator
        marks = allocator.id_marks()
        live = stack.provision(("dpi",), service="web", chain_id="probe")
        first_id = live.optical_slice.slice_id
        stack.teardown("probe")
        assert allocator.slices() == []
        # release() keeps the cursor monotonic (live ids must never be
        # re-issued) — rewinding past the mark is the explicit opt-in
        # for the nothing-was-journaled case.
        allocator.rewind_ids(marks)
        reused = stack.provision(("dpi",), service="web", chain_id="again")
        assert reused.optical_slice.slice_id == first_id


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
