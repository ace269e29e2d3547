"""Crash-point sweep: a journal cut anywhere restores a live state.

A crash can stop the journal at any byte: on a record boundary, inside
a record, a few bytes into the next frame, between the records of one
``Journal.batch`` group commit, or after a snapshot was taken.  For
seeded 30-op schedules (the schedules of :mod:`test_restore_parity`),
every such cut must restore a state the live stack actually passed
through.  The live digest is recorded before every op and after every
journal append, and each restore's digest must be one of them.
"""

import random
import struct

import pytest

from repro.service import ControlPlaneService
from repro.service.journal import MAGIC
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest
from tests.service.test_restore_parity import BUILD, _run_schedule

#: Seed 7 fails if a failed provision leaves the metric counts its
#: placement took behind (``MetricsRegistry.rewind`` removed).
SEEDS = range(10)
N_OPS = 30
#: Ops run before the mid-schedule snapshot.
SNAPSHOT_AFTER = 12
#: Ops ``[start, stop)`` committed as one ``Journal.batch`` group.
GROUP = (16, 24)
#: How far into the next frame a torn tail reaches.
TORN_BYTES = 3

_HEADER_SIZE = len(MAGIC) + 4
_FRAME = struct.Struct("<II")


class LiveRun:
    """One schedule's journal bytes and the digests it passed through."""

    def __init__(self, state_dir, seed):
        self.passed = set()
        rng = random.Random(seed)
        with ControlPlaneService.open(
            state_dir, sync="off", seed=seed % 7, **BUILD
        ) as service:
            journal = service.journal
            append = journal.append

            def recording_append(op, data, *, nested=False):
                record = append(op, data, nested=nested)
                self.passed.add(service.digest())
                return record

            journal.append = recording_append

            def run(n_ops):
                for _ in range(n_ops):
                    self.passed.add(service.digest())
                    _run_schedule(service.stack, rng, n_ops=1)

            run(SNAPSHOT_AFTER)
            service.snapshot()
            self.snapshot_seq = journal.next_seq
            run(GROUP[0] - SNAPSHOT_AFTER)
            with journal.batch():
                group_start = journal.next_seq
                run(GROUP[1] - GROUP[0])
                self.group = range(group_start, journal.next_seq)
            run(N_OPS - GROUP[1])
            self.final = service.digest()
        self.passed.add(self.final)
        self.blob = (state_dir / "journal.alvc").read_bytes()
        self.snapshot = (state_dir / "snapshot.alvc").read_bytes()
        #: ``ends[seq]``: the byte offset just past record ``seq``.
        self.ends = []
        offset = _HEADER_SIZE
        while offset < len(self.blob):
            (length, _) = _FRAME.unpack_from(self.blob, offset)
            offset += _FRAME.size + length
            self.ends.append(offset)

    def restore(self, directory, size, *, snapshot=False):
        """Digest and restore result of the journal cut at *size*."""
        directory.mkdir()
        (directory / "journal.alvc").write_bytes(self.blob[:size])
        snapshot_path = directory / "snapshot.alvc"
        if snapshot:
            snapshot_path.write_bytes(self.snapshot)
        result = restore_stack(directory / "journal.alvc", snapshot_path)
        return state_digest(result.stack), result


@pytest.mark.parametrize("seed", SEEDS)
def test_every_crash_point_restores_a_live_state(seed, tmp_path):
    live = LiveRun(tmp_path / "live", seed)
    ends = live.ends
    # The group commit and the snapshot fall inside the journal, so the
    # cuts below reach between grouped records and past the snapshot.
    assert len(live.group) >= 2
    assert 0 < live.snapshot_seq < len(ends)
    cuts = 0

    def check(size, *, snapshot=False, torn=False):
        nonlocal cuts
        cuts += 1
        digest, result = live.restore(
            tmp_path / f"cut{cuts}", size, snapshot=snapshot
        )
        assert digest in live.passed, (seed, size, snapshot)
        assert result.truncated == torn
        assert result.source == ("snapshot" if snapshot else "genesis")
        return digest

    # Every record boundary from genesis on, then a torn tail a few
    # bytes into the next frame and a cut halfway through it; both
    # drop the partial frame and restore the boundary's state.
    for seq, end in enumerate(ends):
        at_boundary = check(end)
        if seq + 1 < len(ends):
            assert check(end + TORN_BYTES, torn=True) == at_boundary
            middle = (end + ends[seq + 1]) // 2
            assert check(middle, torn=True) == at_boundary
    assert at_boundary == live.final

    # With the mid-schedule snapshot beside the journal, every cut at
    # or past the snapshot's position restores snapshot plus tail.
    for seq in range(live.snapshot_seq - 1, len(ends)):
        check(ends[seq], snapshot=True)
        if seq + 1 < len(ends):
            check(ends[seq] + TORN_BYTES, snapshot=True, torn=True)
