"""Pickling of the fabric and its spec types, old streams included.

The spec types (``ResourceVector``, ``ServerSpec``, ``TorSpec``,
``OpticalSwitchSpec``, ``LinkSpec``) pickle as a constructor call on
their field values.  Before that, they pickled as frozen slotted
dataclasses do by default: ``copyreg.__newobj__`` plus a field-value
list handed to ``__setstate__``.  Older still, the fabric kept its nodes
and links in an ``nx.Graph`` held as ``_graph``, where it now keeps the
same two dicts itself.  Snapshots written either way must still load
and restore to the same state.  ``_legacy_dumps`` rebuilds the
dataclass-state stream byte for byte and ``_graph_layout_dumps`` adds
the ``nx.Graph`` layout on top, so the tests need no committed fixture.
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
from repro.topology.datacenter import DataCenterNetwork
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


def _graph_layout_state(dcn: DataCenterNetwork) -> dict:
    """The fabric's attributes as they were while it held an ``nx.Graph``."""
    import networkx as nx

    graph = nx.Graph(name=dcn.name)
    graph._node = dcn._node
    graph._adj = dcn._adj
    # A used fabric's graph held its cached node and edge views too.
    assert graph.nodes and graph.edges is not None
    state = {"name": dcn.name, "_graph": graph}
    state.update(
        (key, value) for key, value in vars(dcn).items()
        if key not in ("name", "_node", "_adj", "_link_caches")
    )
    return state


class _GraphLayoutPickler(_DataclassStatePickler):
    """Also writes the fabric with its dicts inside an ``nx.Graph``."""

    def reducer_override(self, obj):
        if type(obj) is DataCenterNetwork:
            return (copyreg.__newobj__, (DataCenterNetwork,),
                    _graph_layout_state(obj))
        return super().reducer_override(obj)


def _dumps_with(pickler_type, obj) -> bytes:
    buffer = io.BytesIO()
    pickler_type(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def _legacy_dumps(obj) -> bytes:
    return _dumps_with(_DataclassStatePickler, obj)


def _graph_layout_dumps(obj) -> bytes:
    return _dumps_with(_GraphLayoutPickler, obj)



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


@pytest.mark.parametrize(
    "dumps", [pickle.dumps, _legacy_dumps, _graph_layout_dumps],
    ids=["constructor", "dataclass-state", "graph-layout"],
)
def test_fabric_round_trip_keeps_structure(fabric, dumps):
    loaded = pickle.loads(dumps(fabric))
    assert "_graph" not in vars(loaded)
    assert loaded.topology_generation == fabric.topology_generation
    assert fabric_fingerprint(loaded) == fabric_fingerprint(fabric)
    assert _links(loaded) == _links(fabric)
    # The loaded fabric stays mutable, keeps counting and keeps its
    # memos coherent: a connect drops the adjacency memos it warmed.
    assert loaded.tor_weight("tor-0") == fabric.tor_weight("tor-0")
    servers = loaded.servers()
    loaded.connect("tor-0", "ops-3")
    assert loaded.topology_generation == fabric.topology_generation + 1
    tor_degree = len(loaded.servers_under("tor-0")) + len(
        loaded.ops_of_tor("tor-0"))
    assert loaded.tor_weight("tor-0") == tor_degree
    assert loaded.servers() == servers


def test_graph_layout_stream_holds_an_nx_graph(fabric):
    import networkx as nx

    blob = _graph_layout_dumps(fabric)
    assert b"networkx" in blob and b"networkx" not in pickle.dumps(fabric)
    assert type(pickle.loads(blob)._node) is dict
    assert nx.utils.graphs_equal(pickle.loads(blob).graph, fabric.graph)


def test_constructor_stream_is_smaller(fabric):
    assert len(pickle.dumps(fabric)) < len(_legacy_dumps(fabric))


def _assert_old_snapshot_restores(tmp_path, monkeypatch, old_dumps):
    journal = tmp_path / "state.alvc"
    stack = AlvcStack.build(n_racks=4, servers_per_rack=4, n_ops=6,
                            seed=0, journal=journal, sync="off")
    first = stack.provision(("firewall", "nat"), service="web")
    stack.provision(("dpi",), service="backup")
    stack.teardown(first.chain_id)
    seq = stack.journal.next_seq
    legacy_pickle = types.SimpleNamespace(
        dump=lambda obj, handle, protocol: handle.write(old_dumps(obj)),
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


def test_old_snapshot_restores_to_the_same_digest(tmp_path, monkeypatch):
    _assert_old_snapshot_restores(tmp_path, monkeypatch, _legacy_dumps)


def test_graph_layout_snapshot_restores_to_the_same_digest(tmp_path,
                                                           monkeypatch):
    _assert_old_snapshot_restores(tmp_path, monkeypatch, _graph_layout_dumps)
