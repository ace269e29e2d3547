"""Snapshot write/load, torn-write detection, and the state digest."""

import copyreg
import io
import json
import pickle

import pytest

from repro.exceptions import SnapshotError
from repro.nfv.lifecycle import VnfState
from repro.observability import Telemetry
from repro.observability.runtime import NULL_TELEMETRY
from repro.service import ControlPlaneService
from repro.service.snapshot import (
    load_snapshot,
    state_digest,
    state_view,
    write_snapshot,
)
from repro.stack import AlvcStack
from repro.topology.elements import ResourceVector

BUILD = dict(n_racks=3, servers_per_rack=3, n_ops=4, seed=11)


def _stack(**overrides):
    return AlvcStack.build(**{**BUILD, "telemetry": "json", **overrides})


class TestDigest:
    def test_identical_builds_have_equal_digests(self):
        assert state_digest(_stack()) == state_digest(_stack())

    def test_mutation_changes_the_digest(self):
        stack = _stack()
        before = state_digest(stack)
        stack.provision(("firewall",), service="web")
        assert state_digest(stack) != before

    def test_view_covers_the_restorable_surface(self):
        stack = _stack()
        stack.provision(("firewall", "nat"), service="web")
        view = state_view(stack)
        for key in (
            "chains",
            "clusters",
            "vms",
            "servers",
            "instances",
            "optical_free",
            "flows",
            "slices",
            "failed_ops",
            "degraded_chains",
            "counters",
            "metrics",
        ):
            assert key in view
        assert view["counters"]["chain_serial"] == 1
        assert view["chains"][0]["chain_id"] == "chain-0"

    def test_digest_ignores_service_infra_metrics(self):
        stack = _stack()
        before = state_digest(stack)
        stack.telemetry.counter(
            "alvc_restore_total", "stack restores completed"
        ).inc()
        stack.telemetry.counter(
            "alvc_journal_records_total", "journal records appended"
        ).inc(5)
        assert state_digest(stack) == before


class TestSnapshotRoundTrip:
    def test_round_trip_restores_equal_state(self, tmp_path):
        stack = _stack()
        stack.provision(("firewall", "nat"), service="web")
        path = write_snapshot(stack, tmp_path / "snap.alvc", journal_seq=7)
        loaded = load_snapshot(path)
        assert loaded.journal_seq == 7
        assert state_digest(loaded.stack) == state_digest(stack)
        # The restored stack is live, not a husk: it can keep mutating.
        loaded.stack.provision(("dpi",), service="streaming")

    def test_snapshot_of_journaled_stack_detaches_recorder(self, tmp_path):
        with ControlPlaneService.open(
            tmp_path / "state", sync="off", **BUILD, telemetry="json"
        ) as service:
            service.stack.provision(("firewall",), service="web")
            service.snapshot()  # must not choke on the open journal
            loaded = load_snapshot(service.snapshot_path)
            assert loaded.journal_seq == service.journal.next_seq
            # The live stack still journals after the snapshot — two
            # records here: the backup cluster bootstrap + the provision.
            service.stack.provision(("nat",), service="backup")
            assert service.journal.next_seq == loaded.journal_seq + 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.alvc")

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.alvc"
        path.write_bytes(b"definitely not a snapshot at all........")
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(path)

    def test_truncated_payload_raises(self, tmp_path):
        stack = _stack()
        path = write_snapshot(stack, tmp_path / "snap.alvc", journal_seq=1)
        blob = path.read_bytes()
        path.write_bytes(blob[:-64])  # crash mid-write
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_corrupted_payload_fails_crc(self, tmp_path):
        stack = _stack()
        path = write_snapshot(stack, tmp_path / "snap.alvc", journal_seq=1)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="CRC"):
            load_snapshot(path)

    def test_atomic_replace_keeps_previous_snapshot(self, tmp_path):
        stack = _stack()
        path = tmp_path / "snap.alvc"
        write_snapshot(stack, path, journal_seq=1)
        stack.provision(("firewall",), service="web")
        write_snapshot(stack, path, journal_seq=2)
        assert load_snapshot(path).journal_seq == 2
        assert not (tmp_path / "snap.alvc.tmp").exists()


class TestLiveStateView:
    def test_equal_used_vectors_render_their_own_values(self):
        stack = _stack()
        inventory = stack.inventory
        first, second = stack.fabric.servers()[:2]
        # Equal vectors, spelled differently: rows are shared by
        # identity, so neither spelling may stand in for the other.
        inventory._used[first] = ResourceVector(1, 2, 3)
        inventory._used[second] = ResourceVector(1.0, 2.0, 3.0)
        servers = state_view(stack)["servers"]
        assert json.dumps(servers[first]) == "[1, 2, 3]"
        assert json.dumps(servers[second]) == "[1.0, 2.0, 3.0]"

    def test_actions_render_as_lists(self):
        stack = _stack()
        chain = stack.provision(("firewall",), service="web")
        stack.teardown(chain.chain_id)
        canonical = json.dumps(state_view(stack)["counters"]["actions"])
        assert json.loads(canonical)[-2:] == [
            ["provision", chain.chain_id],
            ["delete", chain.chain_id],
        ]


class TestOldLayoutSnapshot:
    """Snapshots written while terminated VNFs and idle servers' empty
    guest sets were kept still restore, and drop both on load."""

    def test_restores_to_the_same_digest_holding_live_records(
        self, tmp_path
    ):
        with ControlPlaneService.open(
            tmp_path / "state", sync="off", **BUILD
        ) as service:
            stack = service.stack
            nfv = stack.orchestrator.nfv_manager
            inventory = stack.inventory
            gone = stack.provision(("firewall", "dpi"), service="web")
            kept = stack.provision(("nat",), service="streaming")
            records = {vnf: nfv.instance_of(vnf) for vnf in gone.vnf_ids}
            stack.teardown(gone.chain_id)
            digest = state_digest(stack)
            # The old layout: terminated records kept, a set per server.
            lifecycle = nfv.lifecycle
            for vnf, instance in records.items():
                nfv._instances[vnf] = instance
                lifecycle._states[vnf] = VnfState.TERMINATED
            for server in stack.fabric.servers():
                inventory._guests.setdefault(server, set())
            try:
                service.snapshot()
            finally:
                for vnf in records:
                    del nfv._instances[vnf]
                    del lifecycle._states[vnf]
                for server in stack.fabric.servers():
                    if not inventory._guests[server]:
                        del inventory._guests[server]
            assert state_digest(stack) == digest
            # A tail after the snapshot replays onto the loaded state.
            stack.provision(("proxy",), service="backup")
            digest = state_digest(stack)
        with ControlPlaneService.open(tmp_path / "state", sync="off") as r:
            assert r.restore_result.source == "snapshot"
            restored = r.stack
            assert state_digest(restored) == digest
            nfv = restored.orchestrator.nfv_manager
            live = sorted(
                vnf for chain in restored.chains() for vnf in chain.vnf_ids
            )
            assert kept.vnf_ids[0] in live
            assert sorted(nfv._instances) == live
            assert nfv.lifecycle.live_vnfs() == live
            assert VnfState.TERMINATED not in set(
                nfv.lifecycle._states.values()
            )
            guests = restored.inventory._guests
            assert all(guests.values())
            assert set(guests) == {
                restored.inventory.host_of(vm.vm_id)
                for vm in restored.inventory.placed_vms()
            }


class TestTelemetryPickling:
    """Snapshots carry the stack's telemetry; ``enabled`` is derived."""

    @pytest.mark.parametrize(
        "telemetry", [Telemetry.enabled_instance(), NULL_TELEMETRY]
    )
    def test_round_trip_keeps_enabled(self, telemetry):
        restored = pickle.loads(pickle.dumps(telemetry))
        assert restored.enabled is telemetry.enabled
        assert type(restored.registry) is type(telemetry.registry)

    @pytest.mark.parametrize(
        "telemetry", [Telemetry.enabled_instance(), NULL_TELEMETRY]
    )
    def test_stream_without_the_enabled_slot_restores(self, telemetry):
        """Streams written while ``enabled`` was a property hold only
        the registry and tracer slots."""

        class OldLayout(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is Telemetry:
                    state = {"registry": obj.registry, "tracer": obj.tracer}
                    return copyreg.__newobj__, (Telemetry,), (None, state)
                return NotImplemented

        buffer = io.BytesIO()
        OldLayout(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(telemetry)
        restored = pickle.loads(buffer.getvalue())
        assert restored.enabled is telemetry.enabled
