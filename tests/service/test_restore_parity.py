"""Replay parity: restore reproduces a bit-identical control plane.

The headline acceptance test runs **200+ seeded op schedules** — random
interleavings of provisions, teardowns, modifications, upgrades, VM
migrations, OPS faults and repairs — against a journaled stack, then
restores from the journal (sometimes via a snapshot taken at a random
point) and asserts :func:`state_digest` equality.  Failed requests are
deliberately part of the schedules: commands journal only on commit, so
a failure must leave no trace (including the auto-numbered chain
serial).
"""

import random

import pytest

from repro.chaos import RecoveryPolicy
from repro.exceptions import ALVCError
from repro.service import ControlPlaneService
from repro.service.snapshot import state_digest, state_view

SERVICES = ("web", "streaming", "backup")
FUNCTIONS = ("firewall", "nat", "dpi", "cache", "proxy", "ids")
BUILD = dict(
    n_racks=3,
    servers_per_rack=3,
    n_ops=4,
    vms_per_service=3,
    telemetry="json",
)


def _run_schedule(stack, rng, n_ops):
    """Drive one random op schedule; failures are caught and ignored."""
    orchestrator = stack.orchestrator
    for _ in range(n_ops):
        action = rng.choice(
            (
                "provision",
                "provision",
                "provision",
                "teardown",
                "fault",
                "repair",
                "migrate_vm",
                "upgrade",
            )
        )
        try:
            if action == "provision":
                names = rng.sample(FUNCTIONS, k=rng.randint(1, 3))
                stack.provision(
                    tuple(names),
                    service=rng.choice(SERVICES),
                    flow_size_gb=rng.choice((0.5, 1.0, 2.0)),
                )
            elif action == "teardown":
                live = stack.chains()
                if live:
                    stack.teardown(rng.choice(live).chain_id)
            elif action == "fault":
                healthy = sorted(
                    set(stack.fabric.optical_switches())
                    - set(orchestrator.failed_ops)
                )
                if healthy:
                    policy = (
                        RecoveryPolicy(
                            max_attempts=2, seed=rng.randrange(100)
                        )
                        if rng.random() < 0.5
                        else None
                    )
                    orchestrator.handle_ops_failure(
                        rng.choice(healthy), policy=policy
                    )
            elif action == "repair":
                failed = sorted(orchestrator.failed_ops)
                if failed:
                    orchestrator.mark_ops_repaired(rng.choice(failed))
            elif action == "migrate_vm":
                clusters = orchestrator.cluster_manager.clusters()
                if clusters:
                    cluster = rng.choice(clusters)
                    vm = rng.choice(sorted(cluster.vm_ids))
                    server = rng.choice(sorted(stack.fabric.servers()))
                    orchestrator.handle_vm_migration(vm, server)
            elif action == "upgrade":
                live = stack.chains()
                if live:
                    orchestrator.upgrade_chain(rng.choice(live).chain_id)
        except ALVCError:
            # Failed commands are never journaled; parity must survive.
            pass


class TestReplayParity:
    def test_200_seeded_schedules_restore_bit_identical(self, tmp_path):
        mismatches = []
        for schedule in range(200):
            rng = random.Random(schedule)
            state_dir = tmp_path / f"s{schedule}"
            with ControlPlaneService.open(
                state_dir, sync="off", seed=schedule % 7, **BUILD
            ) as service:
                _run_schedule(service.stack, rng, n_ops=6)
                if schedule % 4 == 0:
                    service.snapshot()  # snapshot at a "random" point
                    _run_schedule(service.stack, rng, n_ops=3)
                live_digest = service.digest()
            with ControlPlaneService.open(state_dir, sync="off") as restored:
                if restored.digest() != live_digest:
                    mismatches.append(schedule)
        assert mismatches == []

    def test_100_long_schedules_restore_bit_identical(self, tmp_path):
        # Thirty ops reach provisions that fail late, after placement,
        # slicing and deploy have counted (a route lost to a failed
        # OPS): the counts must leave with the failed command.
        mismatches = []
        for schedule in range(100):
            state_dir = tmp_path / f"s{schedule}"
            with ControlPlaneService.open(
                state_dir, sync="off", seed=schedule % 7, **BUILD
            ) as service:
                _run_schedule(
                    service.stack, random.Random(schedule), n_ops=30
                )
                live_digest = service.digest()
            with ControlPlaneService.open(state_dir, sync="off") as restored:
                if restored.digest() != live_digest:
                    mismatches.append(schedule)
        assert mismatches == []

    def test_mismatch_diagnosis_via_state_view(self, tmp_path):
        # The diffable view exists so a parity failure names the
        # component that diverged; check the two render identically.
        rng = random.Random(42)
        with ControlPlaneService.open(
            tmp_path / "v", sync="off", seed=3, **BUILD
        ) as service:
            _run_schedule(service.stack, rng, n_ops=8)
            live_view = state_view(service.stack)
        with ControlPlaneService.open(tmp_path / "v", sync="off") as restored:
            assert state_view(restored.stack) == live_view

    def test_restored_stack_keeps_journaling(self, tmp_path):
        with ControlPlaneService.open(
            tmp_path / "w", sync="off", seed=1, **BUILD
        ) as service:
            service.stack.provision(("firewall",), service="web")
            seq = service.journal.next_seq
        with ControlPlaneService.open(tmp_path / "w", sync="off") as again:
            # Fresh service here, so this journals two records: the
            # streaming cluster bootstrap plus the provision itself.
            again.stack.provision(("nat",), service="streaming")
            assert again.journal.next_seq == seq + 2
            digest = again.digest()
        with ControlPlaneService.open(tmp_path / "w", sync="off") as third:
            assert third.digest() == digest
            assert [c.chain_id for c in third.stack.chains()] == [
                "chain-0",
                "chain-1",
            ]

    def test_auto_serial_survives_failed_provisions(self, tmp_path):
        with ControlPlaneService.open(
            tmp_path / "serial", sync="off", seed=0, **BUILD
        ) as service:
            stack = service.stack
            stack.provision(("firewall",), service="web")
            # Default clusters are exclusive: a second chain on the same
            # cluster fails — and must not burn an auto-numbered id.
            with pytest.raises(ALVCError):
                stack.provision(("nat",), service="web")
            live = stack.provision(("dpi",), service="streaming")
            assert live.chain_id == "chain-1"
            digest = service.digest()
        with ControlPlaneService.open(tmp_path / "serial", sync="off") as r:
            assert r.digest() == digest


class TestRestoreFallbacks:
    def test_truncated_final_record_restores_the_prefix(self, tmp_path):
        with ControlPlaneService.open(
            tmp_path / "torn", sync="off", seed=5, **BUILD
        ) as service:
            stack = service.stack
            stack.provision(("firewall", "nat"), service="web")
            stack.provision(("dpi",), service="streaming")
            digest_before_last = service.digest()
            stack.teardown("chain-1")
        journal_path = tmp_path / "torn" / "journal.alvc"
        blob = journal_path.read_bytes()
        journal_path.write_bytes(blob[:-7])  # crash mid-final-append
        with ControlPlaneService.open(tmp_path / "torn", sync="off") as r:
            assert r.restore_result.truncated
            assert r.digest() == digest_before_last
            assert [c.chain_id for c in r.stack.chains()] == [
                "chain-0",
                "chain-1",
            ]

    def test_snapshot_written_mid_op_falls_back_to_genesis(self, tmp_path):
        with ControlPlaneService.open(
            tmp_path / "midop", sync="off", seed=5, **BUILD
        ) as service:
            service.stack.provision(("firewall", "nat"), service="web")
            service.snapshot()
            service.stack.provision(("dpi",), service="streaming")
            digest = service.digest()
        snapshot_path = tmp_path / "midop" / "snapshot.alvc"
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(blob[: len(blob) // 2])  # torn write
        with ControlPlaneService.open(tmp_path / "midop", sync="off") as r:
            assert r.restore_result.source == "genesis"
            assert r.restore_result.snapshot_error is not None
            assert r.digest() == digest

    def test_good_snapshot_short_circuits_replay(self, tmp_path):
        with ControlPlaneService.open(
            tmp_path / "short", sync="off", seed=5, **BUILD
        ) as service:
            service.stack.provision(("firewall",), service="web")
            service.stack.provision(("nat",), service="backup")
            service.snapshot()
            service.stack.provision(("dpi",), service="streaming")
            digest = service.digest()
        with ControlPlaneService.open(tmp_path / "short", sync="off") as r:
            assert r.restore_result.source == "snapshot"
            # Only the tail: the streaming bootstrap + its provision.
            assert r.restore_result.replayed == 2
            assert r.digest() == digest

    def test_build_kwargs_rejected_for_existing_journal(self, tmp_path):
        from repro.exceptions import ValidationError

        with ControlPlaneService.open(
            tmp_path / "argue", sync="off", seed=5, **BUILD
        ):
            pass
        with pytest.raises(ValidationError, match="genesis"):
            ControlPlaneService.open(tmp_path / "argue", n_racks=9)

    def test_stack_restore_classmethod(self, tmp_path):
        from repro.stack import AlvcStack

        with ControlPlaneService.open(
            tmp_path / "cm", sync="off", seed=2, **BUILD
        ) as service:
            service.stack.provision(("firewall",), service="web")
            digest = service.digest()
        restored = AlvcStack.restore(tmp_path / "cm")
        assert state_digest(restored) == digest
        assert restored.journal is not None
        restored.journal.close()
