"""Framing, CRC, torn tails, group commit, and recorder depth guards."""

import json
import pickle
import struct
import zlib

import pytest

from repro.exceptions import JournalCorruptError, JournalError, ValidationError
from repro.observability import Telemetry
from repro.service.journal import (
    MAGIC,
    NULL_RECORDER,
    Journal,
    OpRecorder,
    read_journal,
)

HEADER_SIZE = len(MAGIC) + 4
FRAME_PREFIX = struct.Struct("<II")


def _journal(tmp_path, name="j.alvc", **kwargs):
    kwargs.setdefault("sync", "off")
    return Journal(tmp_path / name, **kwargs)


class TestAppendRead:
    def test_round_trip(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("genesis", {"build": {"seed": 1}})
            journal.append("teardown", {"chain_id": "c-0"})
            journal.append(
                "al_reconfig",
                {"action": "extend", "cost": 1, "rebuilt": False},
                nested=True,
            )
        result = read_journal(tmp_path / "j.alvc")
        assert not result.truncated
        assert result.dropped_bytes == 0
        assert [r.op for r in result.records] == [
            "genesis",
            "teardown",
            "al_reconfig",
        ]
        assert [r.seq for r in result.records] == [0, 1, 2]
        assert result.records[2].nested

    def test_append_assigns_monotonic_seq(self, tmp_path):
        with _journal(tmp_path) as journal:
            first = journal.append("genesis", {"build": {}})
            second = journal.append("ops_repair", {"ops": "ops-0"})
        assert (first, second) == (0, 1)
        assert [record.seq for record in journal.records()] == [0, 1]

    def test_schema_violation_rejected_at_append(self, tmp_path):
        with _journal(tmp_path) as journal:
            with pytest.raises(JournalError, match="missing required"):
                journal.append("teardown", {})
            assert journal.next_seq == 0

    def test_unserializable_data_rejected(self, tmp_path):
        with _journal(tmp_path) as journal:
            with pytest.raises(JournalError, match="JSON"):
                journal.append("teardown", {"chain_id": object()})

    def test_failed_encodes_leave_the_encoder_clean(self, tmp_path):
        """A non-serializable and a self-referencing payload each raise
        and write nothing; the same dicts, mended, then append."""
        with _journal(tmp_path) as journal:
            journal.append("genesis", {"build": {}})
            size = journal.path.stat().st_size
            opaque = {"chain_id": "c-0", "handle": object()}
            looped = {"chain_id": "c-1"}
            looped["self"] = looped
            for data in (opaque, looped):
                with pytest.raises(JournalError, match="JSON"):
                    journal.append("teardown", data)
                assert journal.next_seq == 1
                assert journal.path.stat().st_size == size
            # A failed encode marks the containers it had entered; left
            # marked, the mended dicts would now read as circular.
            del opaque["handle"], looped["self"]
            assert journal.append("teardown", opaque) == 1
            assert journal.append("teardown", looped) == 2
        records = read_journal(tmp_path / "j.alvc").records
        assert [record.data for record in records[1:]] == [
            {"chain_id": "c-0"},
            {"chain_id": "c-1"},
        ]

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = _journal(tmp_path)
        journal.close()
        assert journal.closed
        with pytest.raises(JournalError, match="closed"):
            journal.append("genesis", {"build": {}})
        journal.close()  # idempotent

    def test_journal_never_pickles(self, tmp_path):
        with _journal(tmp_path) as journal:
            with pytest.raises(JournalError, match="not picklable"):
                pickle.dumps(journal)

    def test_unknown_sync_mode(self, tmp_path):
        with pytest.raises(ValidationError, match="sync"):
            Journal(tmp_path / "j.alvc", sync="sometimes")


class TestCorruption:
    def _written(self, tmp_path, n=3):
        with _journal(tmp_path) as journal:
            journal.append("genesis", {"build": {}})
            for index in range(n - 1):
                journal.append("teardown", {"chain_id": f"c-{index}"})
        return tmp_path / "j.alvc"

    def test_bad_magic_raises(self, tmp_path):
        path = self._written(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"NOTAMAGI" + blob[len(MAGIC):])
        with pytest.raises(JournalCorruptError, match="bad magic"):
            read_journal(path)

    def test_future_format_version_raises(self, tmp_path):
        path = self._written(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC):HEADER_SIZE] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(JournalCorruptError, match="format v99"):
            read_journal(path)

    def test_torn_tail_tolerated_and_reported(self, tmp_path):
        path = self._written(tmp_path, n=3)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])  # crash mid-final-frame
        result = read_journal(path)
        assert result.truncated
        assert result.dropped_bytes > 0
        assert len(result.records) == 2  # final record lost, rest intact

    def test_mid_journal_crc_flip_drops_everything_after(self, tmp_path):
        path = self._written(tmp_path, n=3)
        blob = bytearray(path.read_bytes())
        # Find the second frame's payload start and flip one byte.
        offset = HEADER_SIZE
        length, _ = FRAME_PREFIX.unpack_from(blob, offset)
        second = offset + FRAME_PREFIX.size + length
        payload_at = second + FRAME_PREFIX.size
        blob[payload_at] ^= 0xFF
        path.write_bytes(bytes(blob))
        result = read_journal(path)
        assert result.truncated
        assert len(result.records) == 1  # only the genesis survived

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "gap.alvc"
        record = {
            "seq": 5,  # first record must be seq 0
            "op": "ops_repair",
            "data": {"ops": "ops-0"},
            "nested": False,
            "v": 1,
        }
        payload = json.dumps(record).encode()
        path.write_bytes(
            MAGIC
            + struct.pack("<I", 1)
            + FRAME_PREFIX.pack(len(payload), zlib.crc32(payload))
            + payload
        )
        with pytest.raises(JournalCorruptError, match="sequence gap"):
            read_journal(path)

    def test_reopen_truncates_torn_tail_then_appends(self, tmp_path):
        path = self._written(tmp_path, n=3)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with Journal(path, sync="off") as journal:
            assert journal.next_seq == 2  # torn record dropped
            journal.append("ops_repair", {"ops": "ops-1"})
        result = read_journal(path)
        assert not result.truncated
        assert [r.seq for r in result.records] == [0, 1, 2]
        assert result.records[-1].op == "ops_repair"


class TestGroupCommit:
    def test_batch_syncs_once(self, tmp_path):
        sink = Telemetry.enabled_instance()
        with _journal(tmp_path, sync="always", telemetry=sink) as journal:
            with journal.batch():
                journal.append("genesis", {"build": {}})
                for index in range(9):
                    journal.append("teardown", {"chain_id": f"c-{index}"})
        families = sink.registry.snapshot()
        syncs = families["alvc_journal_syncs_total"]["series"][0]["value"]
        # One group commit + one on close.
        assert syncs == 2

    def test_serial_appends_sync_each(self, tmp_path):
        sink = Telemetry.enabled_instance()
        with _journal(tmp_path, sync="always", telemetry=sink) as journal:
            journal.append("genesis", {"build": {}})
            for index in range(9):
                journal.append("teardown", {"chain_id": f"c-{index}"})
        families = sink.registry.snapshot()
        syncs = families["alvc_journal_syncs_total"]["series"][0]["value"]
        assert syncs == 11  # ten appends + close

    def test_batch_is_reentrant(self, tmp_path):
        with _journal(tmp_path) as journal:
            with journal.batch():
                journal.append("genesis", {"build": {}})
                with journal.batch():
                    journal.append("teardown", {"chain_id": "c"})
            assert len(journal.records()) == 2


class TestOpRecorder:
    def test_only_outermost_frame_records(self, tmp_path):
        with _journal(tmp_path) as journal:
            recorder = OpRecorder(journal)
            with recorder.operation() as outer:
                assert outer
                with recorder.operation() as inner:
                    assert not inner
                    recorder.record("ops_repair", ops="ops-9")  # swallowed
                recorder.record("genesis", build={})
            ops = [record.op for record in journal.records()]
        assert ops == ["genesis"]

    def test_annotations_always_written(self, tmp_path):
        with _journal(tmp_path) as journal:
            recorder = OpRecorder(journal)
            with recorder.operation(), recorder.operation():
                recorder.annotate(
                    "al_reconfig", action="extend", cost=1, rebuilt=False
                )
            records = journal.records()
        assert records[0].nested

    def test_suspended_writes_nothing(self, tmp_path):
        with _journal(tmp_path) as journal:
            recorder = OpRecorder(journal)
            with recorder.suspended():
                assert not recorder.active
                with recorder.operation():
                    recorder.record("genesis", build={})
                    recorder.annotate(
                        "al_reconfig", action="x", cost=0, rebuilt=False
                    )
            assert journal.records() == []
            assert recorder.active

    def test_lone_record_skips_group_commit(self, tmp_path):
        with _journal(tmp_path) as journal:
            recorder = OpRecorder(journal)
            batches = []
            batch = journal.batch
            journal.batch = lambda: batches.append(1) or batch()
            with recorder.operation():
                recorder.record("genesis", build={})
            assert batches == []
            with recorder.operation():
                recorder.record("ops_repair", ops="ops-0")
                recorder.annotate(
                    "al_reconfig", action="x", cost=0, rebuilt=False
                )
            assert batches == [1]
            assert journal.next_seq == 3

    def test_enclosing_undo_frame_holds_the_flush(self, tmp_path):
        with _journal(tmp_path) as journal:
            recorder = OpRecorder(journal)
            with NULL_RECORDER.operation():
                with recorder.operation() as outermost:
                    assert outermost
                    recorder.record("genesis", build={})
                assert journal.next_seq == 0
            assert journal.next_seq == 1

    def test_unwound_enclosing_frame_drops_the_records(self, tmp_path):
        class Unwind(Exception):
            pass

        with _journal(tmp_path) as journal:
            recorder = OpRecorder(journal)
            with pytest.raises(Unwind):
                with NULL_RECORDER.operation():
                    with recorder.operation():
                        recorder.record("genesis", build={})
                    raise Unwind
            assert journal.next_seq == 0
            # An inner savepoint that unwinds drops only its own records.
            with NULL_RECORDER.operation():
                with recorder.operation():
                    recorder.record("genesis", build={})
                with pytest.raises(Unwind):
                    with NULL_RECORDER.operation():
                        with recorder.operation():
                            recorder.record("ops_repair", ops="ops-0")
                        raise Unwind
                with recorder.operation():
                    recorder.record("ops_repair", ops="ops-1")
            ops = [(r.op, r.data) for r in journal.records()]
        assert ops == [
            ("genesis", {"build": {}}),
            ("ops_repair", {"ops": "ops-1"}),
        ]

    def test_null_recorder_is_inert(self):
        with NULL_RECORDER.operation() as outermost:
            assert not outermost
        NULL_RECORDER.record("genesis", build={})
        NULL_RECORDER.annotate("al_reconfig", action="x", cost=0, rebuilt=False)
        assert NULL_RECORDER.journal is None
        assert not NULL_RECORDER.active
