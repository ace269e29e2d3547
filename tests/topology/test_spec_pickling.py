"""Pickling of the fabric's spec types, old streams included.

The spec types (``ResourceVector``, ``ServerSpec``, ``TorSpec``,
``OpticalSwitchSpec``, ``LinkSpec``) pickle as a constructor call on
their field values.  Before that, they pickled as frozen slotted
dataclasses do by default: ``copyreg.__newobj__`` plus a field-value
list handed to ``__setstate__``.  Snapshots written that way must still
load and restore to the same state.  ``_legacy_dumps`` rebuilds that
old stream byte for byte, so the tests need no committed fixture.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle
import types

import pytest

from repro.service import snapshot as snapshot_module
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest, write_snapshot
from repro.stack import AlvcStack
from repro.topology.elements import (
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    ResourceVector,
    ServerSpec,
    TorSpec,
)
from repro.topology.generators import build_alvc_fabric

from tests.topology.test_fabric_fingerprint import fabric_fingerprint

SPEC_TYPES = (ResourceVector, ServerSpec, TorSpec, OpticalSwitchSpec, LinkSpec)


class _DataclassStatePickler(pickle.Pickler):
    """Writes the spec types the way the dataclass default did."""

    def reducer_override(self, obj):
        if type(obj) in SPEC_TYPES:
            state = [getattr(obj, field.name) for field in dataclasses.fields(obj)]
            return copyreg.__newobj__, (type(obj),), state
        return NotImplemented


def _legacy_dumps(obj) -> bytes:
    buffer = io.BytesIO()
    _DataclassStatePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def _links(dcn) -> dict:
    return {(a, b): dcn.link_of(a, b) for a, b, _ in dcn.edges()}


@pytest.fixture(scope="module")
def fabric():
    return build_alvc_fabric(n_racks=24, servers_per_rack=4, n_ops=8,
                             core_layout="ring", seed=5)


@pytest.mark.parametrize(
    "spec",
    [
        ResourceVector(1.5, 2.0, 0.25),
        ServerSpec("server-9", ResourceVector(8, 16, 64), rack=3),
        TorSpec("tor-2", rack=2, port_count=24),
        OpticalSwitchSpec("ops-1", 16, 8, ResourceVector(4, 8, 64)),
        LinkSpec(Domain.OPTICAL, 40.0),
    ],
    ids=lambda spec: type(spec).__name__,
)
def test_spec_round_trips_both_streams(spec):
    new = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    old = _legacy_dumps(spec)
    assert new != old
    for blob in (new, old):
        loaded = pickle.loads(blob)
        assert type(loaded) is type(spec)
        assert loaded == spec


@pytest.mark.parametrize("dumps", [pickle.dumps, _legacy_dumps],
                         ids=["constructor", "dataclass-state"])
def test_fabric_round_trip_keeps_structure(fabric, dumps):
    loaded = pickle.loads(dumps(fabric))
    assert loaded.topology_generation == fabric.topology_generation
    assert fabric_fingerprint(loaded) == fabric_fingerprint(fabric)
    assert _links(loaded) == _links(fabric)
    # The loaded fabric stays mutable and keeps counting.
    loaded.connect("tor-0", "ops-3")
    assert loaded.topology_generation == fabric.topology_generation + 1


def test_constructor_stream_is_smaller(fabric):
    assert len(pickle.dumps(fabric)) < len(_legacy_dumps(fabric))


def test_old_snapshot_restores_to_the_same_digest(tmp_path, monkeypatch):
    journal = tmp_path / "state.alvc"
    stack = AlvcStack.build(n_racks=4, servers_per_rack=4, n_ops=6,
                            seed=0, journal=journal, sync="off")
    first = stack.provision(("firewall", "nat"), service="web")
    stack.provision(("dpi",), service="backup")
    stack.teardown(first.chain_id)
    seq = stack.journal.next_seq
    legacy_pickle = types.SimpleNamespace(
        dump=lambda obj, handle, protocol: handle.write(_legacy_dumps(obj)),
        loads=pickle.loads,
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    )
    with monkeypatch.context() as patch:
        patch.setattr(snapshot_module, "pickle", legacy_pickle)
        write_snapshot(stack, tmp_path / "state.snap", journal_seq=seq)
    stack.provision(("cache",), service="web")  # a tail to replay
    live = state_digest(stack)
    stack.journal.close()

    restored = restore_stack(journal, tmp_path / "state.snap")
    assert restored.source == "snapshot"
    assert restored.replayed == 1
    assert state_digest(restored.stack) == live
    assert (restored.stack.fabric.topology_generation
            == stack.fabric.topology_generation)
    assert _links(restored.stack.fabric) == _links(stack.fabric)
