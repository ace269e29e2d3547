"""Snapshot write/load, torn-write detection, and the state digest."""

import copyreg
import io
import pickle

import pytest

from repro.exceptions import SnapshotError
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
