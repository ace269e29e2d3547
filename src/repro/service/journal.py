"""The append-only state journal and its recorder hooks.

File format
-----------

An 12-byte header (magic ``ALVCJRNL`` + little-endian u32 format
version) followed by frames, one per record::

    u32 payload_length | u32 crc32(payload) | payload (UTF-8 JSON)

The payload is ``json.dumps(record.to_dict(), sort_keys=True,
separators=(",", ":"))``, byte for byte, although :meth:`Journal.append`
encodes only the record's ``data`` (see there).  The CRC protects every
byte of the payload; the length prefix makes a torn final write
detectable.  Reads tolerate a truncated or torn *tail*
(the crash-mid-append case): everything after the last intact frame is
dropped and reported, and re-opening for append truncates the file back
to the last intact frame so new records never interleave with garbage.
A bad magic or version — the file is not a journal at all — raises
:class:`~repro.exceptions.JournalCorruptError` instead.

Durability
----------

``sync="always"`` (the default) fsyncs after every committed record —
one op, one disk round-trip.  :meth:`Journal.batch` turns that into
group commit: appends inside the context are flushed with a *single*
fsync at exit, which is where the batched front-end's throughput win
over serial submission comes from (E23).  ``sync="off"`` leaves
flushing to the OS (tests, replay benchmarks).

Recorder
--------

:class:`OpRecorder` is the hook object the orchestrator, the NFV
manager, the reconfigurators and the stack facade call at their
mutation commit points.  Records are written *after* the mutation
commits (the command either fully happened or raised and was unwound by
:mod:`repro.undo`, so there is no half-state to log); inside an
enclosing undo frame, only once that frame's scope commits.  A depth
guard keeps composite operations single-record: when
``stack.provision`` calls ``orchestrator.provision_chain`` which calls
``nfv.deploy_optical``, only the outermost frame journals a command;
inner components may still emit ``nested=True`` annotation records.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro import undo
from repro.exceptions import JournalCorruptError, JournalError, ValidationError
from repro.observability.runtime import Telemetry, current_telemetry
from repro.service.records import (
    RECORD_VERSION,
    SCHEMAS,
    OpRecord,
    check_record,
)

MAGIC = b"ALVCJRNL"
FORMAT_VERSION = 1
_HEADER = MAGIC + struct.pack("<I", FORMAT_VERSION)
_FRAME = struct.Struct("<II")
#: The payload's encoding: a frame's payload is
#: ``_ENCODER.encode(record.to_dict())``, byte for byte.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _floatstr(value: float) -> str:
    """``JSONEncoder``'s float spelling with ``allow_nan=True``."""
    if value != value:
        return "NaN"
    if value == json.encoder.INFINITY:
        return "Infinity"
    if value == -json.encoder.INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _data_encoder(markers: dict, make_c=json.encoder.c_make_encoder):
    """``_ENCODER``'s encoder, built once with ``markers`` as its
    circular-reference markers: ``JSONEncoder.encode`` builds (and
    wraps) a fresh one for every call.  Called as ``encode(data, 0)``,
    it returns the chunks of ``data``'s JSON.  ``make_c`` is ``_json``'s
    encoder factory; without it the pure-Python encoder is used."""
    if make_c is not None:
        return make_c(
            markers, _ENCODER.default, json.encoder.encode_basestring_ascii,
            _ENCODER.indent, _ENCODER.key_separator, _ENCODER.item_separator,
            _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
        )
    return json.encoder._make_iterencode(
        markers, _ENCODER.default, json.encoder.encode_basestring_ascii,
        _ENCODER.indent, _floatstr, _ENCODER.key_separator,
        _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys,
        True,
    )


#: The shared encoder's markers, emptied after a failed encode (see
#: :meth:`Journal.append`).
_MARKERS: dict = {}
_encode_data = _data_encoder(_MARKERS)
#: Each op's JSON string: the ops a record may carry are the schema's.
_OP_JSON = {
    op: json.encoder.encode_basestring_ascii(op) for op in SCHEMAS
}

#: Recognized durability policies.
SYNC_MODES = ("always", "off")


class Journal:
    """An append-only, CRC-framed log of :class:`OpRecord` frames.

    Open an existing journal (or create a new one) with the
    constructor; the tail is scanned on open so appends continue from
    the last intact record.  Use :func:`read_journal` for read-only
    access without taking the file over.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync: str = "always",
        telemetry: Telemetry | None = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValidationError(
                f"unknown sync mode {sync!r} "
                f"(expected one of {', '.join(SYNC_MODES)})"
            )
        self._path = Path(path)
        self._sync = sync
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._batch_depth = 0
        self._batch_dirty = False
        if self._path.exists() and self._path.stat().st_size > 0:
            records, good_size, truncated = _scan(self._path)
            if truncated:
                # Drop the torn tail so new frames never follow garbage.
                with open(self._path, "r+b") as handle:
                    handle.truncate(good_size)
                self._count(
                    "alvc_journal_truncated_tail_total",
                    "torn journal tails dropped on open",
                )
            self._next_seq = records[-1].seq + 1 if records else 0
            self._handle = open(self._path, "ab")
        else:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "wb")
            self._handle.write(_HEADER)
            self._handle.flush()
            self._next_seq = 0

    # ------------------------------------------------------------------
    def _count(self, name: str, help: str, amount: int = 1) -> None:
        if self._telemetry.enabled:
            self._telemetry.counter(name, help).inc(amount)

    @property
    def path(self) -> Path:
        """Where the journal lives on disk."""
        return self._path

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will get."""
        return self._next_seq

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._handle is None

    def append(self, op: str, data: dict, *, nested: bool = False) -> int:
        """Validate, frame, and durably append one record.

        Returns the record's assigned ``seq``.  The payload is
        ``OpRecord(seq, op, data, nested).to_dict()`` encoded by
        :data:`_ENCODER`, byte for byte, but only ``data`` goes through
        the encoder: the record's other keys are spliced around it in
        their sorted order.

        Raises:
            JournalError: on schema violations, a payload that is not
                JSON-serializable, or a closed journal.  Nothing is
                written then.
        """
        if self._handle is None:
            raise JournalError("journal is closed")
        seq = self._next_seq
        check_record(seq, op, data)
        try:
            encoded = "".join(_encode_data(data, 0))
        except (TypeError, ValueError) as exc:
            # A failed encode leaves its open containers marked, and a
            # later payload at a reused address would read as circular.
            _MARKERS.clear()
            raise JournalError(
                f"record op={op!r} is not JSON-serializable: {exc}"
            ) from None
        payload = (
            f'{{"data":{encoded},"nested":{"true" if nested else "false"},'
            f'"op":{_OP_JSON[op]},"seq":{seq},"v":{RECORD_VERSION}}}'
        ).encode()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(frame)
        self._next_seq = seq + 1
        if self._batch_depth:
            self._batch_dirty = True
        else:
            self._commit()
        if self._telemetry.enabled:
            self._count(
                "alvc_journal_records_total", "journal records appended"
            )
            self._count(
                "alvc_journal_bytes_total",
                "journal bytes written (frames incl. headers)",
                len(frame),
            )
        return seq

    def _commit(self) -> None:
        self._handle.flush()
        if self._sync == "always":
            os.fsync(self._handle.fileno())
            self._count(
                "alvc_journal_syncs_total", "journal fsync round-trips"
            )

    def batch(self) -> "_GroupCommit":
        """Group commit: one flush+fsync for every append inside.

        Re-entrant; only the outermost exit commits.
        """
        return _GroupCommit(self)

    def records(self) -> list[OpRecord]:
        """Every intact record currently on disk (flushes first)."""
        if self._handle is not None:
            self._handle.flush()
        return read_journal(self._path).records

    def close(self) -> None:
        """Flush, sync, and release the file handle (idempotent)."""
        if self._handle is None:
            return
        self._commit()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Snapshots pickle the object graph the journal hooks hang off;
    # the journal itself (an open file) never rides along.
    def __reduce__(self):
        raise JournalError(
            "Journal objects are not picklable; snapshots must detach "
            "recorders first (write_snapshot does this)"
        )


class _GroupCommit:
    """The context manager :meth:`Journal.batch` returns.

    A plain ``__enter__``/``__exit__`` pair rather than a generator:
    the recorder enters one per journaled command.  The depth lives on
    the journal.
    """

    __slots__ = ("_journal",)

    def __init__(self, journal: Journal) -> None:
        self._journal = journal

    def __enter__(self) -> None:
        self._journal._batch_depth += 1

    def __exit__(self, *exc_info) -> None:
        journal = self._journal
        journal._batch_depth -= 1
        if journal._batch_depth == 0 and journal._batch_dirty:
            journal._batch_dirty = False
            if journal._handle is not None:
                journal._commit()


class ReadResult:
    """What :func:`read_journal` found: records plus tail diagnosis."""

    __slots__ = ("records", "truncated", "dropped_bytes")

    def __init__(
        self, records: list[OpRecord], truncated: bool, dropped_bytes: int
    ) -> None:
        self.records = records
        self.truncated = truncated
        self.dropped_bytes = dropped_bytes


def read_journal(path: str | Path) -> ReadResult:
    """Read every intact record of a journal file.

    A torn/truncated tail is tolerated (``truncated=True``,
    ``dropped_bytes`` counts the unreadable remainder); a bad header
    raises :class:`JournalCorruptError`.
    """
    records, good_size, truncated = _scan(Path(path))
    dropped = Path(path).stat().st_size - good_size
    return ReadResult(records, truncated, dropped)


def _scan(path: Path) -> tuple[list[OpRecord], int, bool]:
    """Parse ``path``; returns (records, last-intact offset, torn?)."""
    blob = path.read_bytes()
    if len(blob) < len(_HEADER) or blob[: len(MAGIC)] != MAGIC:
        raise JournalCorruptError(
            f"{path} is not an AL-VC journal (bad magic)"
        )
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version > FORMAT_VERSION:
        raise JournalCorruptError(
            f"{path} uses journal format v{version}; this build reads "
            f"up to v{FORMAT_VERSION}"
        )
    records: list[OpRecord] = []
    offset = len(_HEADER)
    good = offset
    truncated = False
    expected_seq = 0
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            truncated = True
            break
        length, crc = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(blob):
            truncated = True
            break
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            # A torn write at the tail and real corruption look the
            # same from here; everything after the last intact frame is
            # untrustworthy either way, so stop and report.
            truncated = True
            break
        try:
            record = OpRecord.from_dict(json.loads(payload))
        except (json.JSONDecodeError, JournalError) as exc:
            raise JournalCorruptError(
                f"{path}: frame at byte {offset} carries an invalid "
                f"record: {exc}"
            ) from None
        if record.seq != expected_seq:
            raise JournalCorruptError(
                f"{path}: sequence gap at byte {offset} "
                f"(expected seq {expected_seq}, found {record.seq})"
            )
        expected_seq += 1
        records.append(record)
        offset = end
        good = end
    return records, good, truncated


# ----------------------------------------------------------------------
# Recorder hooks
# ----------------------------------------------------------------------
class OpRecorder:
    """Journal hook shared by the stack, orchestrator and NFV manager.

    ``operation()`` frames one public mutation; ``record`` journals the
    command only from the outermost frame, so composite operations
    (stack → orchestrator → NFV) log exactly once, through the entry
    point the caller actually used — which is what makes replay
    entry-point-agnostic.  ``annotate`` writes ``nested=True`` detail
    records for any frame depth.

    Writes made inside a frame are buffered and flushed only when the
    outermost frame exits cleanly: a command that raises journals
    nothing — not even the annotations its partial progress emitted —
    and every frame is a :mod:`repro.undo` savepoint, so it changes
    nothing either.  That is the invariant replay parity rests on.  A
    lone record is appended as it is; two or more share one group
    commit.  When the outermost frame sits inside an enclosing undo
    frame (say :data:`NULL_RECORDER`'s), the flush waits for that scope
    to commit and is dropped if the scope unwinds the command instead.
    """

    __slots__ = ("_journal", "_depth", "_suspended", "_pending", "_frame")

    def __init__(self, journal: Journal) -> None:
        self._journal = journal
        self._depth = 0
        self._suspended = 0
        self._pending: list[tuple[str, dict, bool]] = []
        self._frame = _OperationFrame(self)

    @property
    def journal(self) -> Journal:
        """The journal this recorder appends to."""
        return self._journal

    @property
    def active(self) -> bool:
        """False while suspended (replay) or after the journal closed."""
        return not self._suspended and not self._journal.closed

    def operation(self) -> "_OperationFrame":
        """Frame one public mutation; enters as True at the outermost
        level.

        A clean exit of the outermost frame flushes the frame's buffered
        records; an exception discards them and unwinds the frame's
        mutations.
        """
        return self._frame

    def _flush(self, pending: list) -> None:
        if not self.active:
            return
        journal = self._journal
        if len(pending) == 1:
            op, data, nested = pending[0]
            journal.append(op, data, nested=nested)
            return
        with journal.batch():
            for op, data, nested in pending:
                journal.append(op, data, nested=nested)

    def record(self, op: str, **data) -> None:
        """Journal a command record iff this is the outermost operation."""
        if self._depth > 1 or not self.active:
            return
        if self._depth == 1:
            self._pending.append((op, data, False))
        else:
            self._journal.append(op, data)

    def annotate(self, op: str, **data) -> None:
        """Journal a nested annotation record (never replayed)."""
        if not self.active:
            return
        if self._depth >= 1:
            self._pending.append((op, data, True))
        else:
            self._journal.append(op, data, nested=True)

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Scope in which nothing is journaled (replay runs under this)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1


class _OperationFrame:
    """The context manager :meth:`OpRecorder.operation` returns.

    A plain ``__enter__``/``__exit__`` pair rather than a generator:
    every public mutation enters one, several per command.  The depth
    lives on the recorder, so each recorder reuses one frame.
    """

    __slots__ = ("_recorder",)

    def __init__(self, recorder: OpRecorder) -> None:
        self._recorder = recorder

    def __enter__(self) -> bool:
        undo.enter()
        recorder = self._recorder
        recorder._depth += 1
        return recorder._depth == 1

    def __exit__(self, exc_type, exc, traceback) -> None:
        recorder = self._recorder
        recorder._depth -= 1
        if recorder._depth:
            undo.leave(exc_type is not None)
            return
        # Leave the undo frame before the flush: the journal write
        # commits the command, so what the flush changes (the journal's
        # own metrics) is never unwound.  Inside an enclosing undo
        # frame the command commits only with that frame's scope.
        pending, recorder._pending = recorder._pending, []
        undo.leave(exc_type is not None)
        if (
            exc_type is None
            and pending
            and not undo.defer((recorder._flush, pending))
        ):
            recorder._flush(pending)


class _NullFrame:
    """:meth:`NullRecorder.operation`'s frame: never the outermost
    journal frame, but still a :mod:`repro.undo` savepoint."""

    __slots__ = ()

    def __enter__(self) -> bool:
        undo.enter()
        return False

    def __exit__(self, exc_type, exc, traceback) -> None:
        undo.leave(exc_type is not None)


_NULL_FRAME = _NullFrame()


class NullRecorder:
    """The no-op recorder unjournaled components run with (zero cost)."""

    __slots__ = ()

    journal = None
    active = False

    def operation(self) -> _NullFrame:
        return _NULL_FRAME

    def record(self, op: str, **data) -> None:
        pass

    def annotate(self, op: str, **data) -> None:
        pass

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        yield


#: Shared no-op recorder instance (components default to this).
NULL_RECORDER = NullRecorder()
