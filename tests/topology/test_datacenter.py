"""Tests for the DataCenterNetwork fabric graph."""

import collections

import pytest

from repro.exceptions import (
    DuplicateEntityError,
    TopologyError,
    UnknownEntityError,
)
from repro.ids import NodeKind
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
from repro.virtualization.machines import MachineInventory


@pytest.fixture
def tiny():
    """server-0 — tor-0 — ops-0, plus an optoelectronic ops-1."""
    dcn = DataCenterNetwork("tiny")
    dcn.add_server(ServerSpec(server_id="server-0"))
    dcn.add_tor(TorSpec(tor_id="tor-0"))
    dcn.add_optical_switch(OpticalSwitchSpec(ops_id="ops-0"))
    dcn.add_optical_switch(
        OpticalSwitchSpec(
            ops_id="ops-1", compute=ResourceVector(cpu_cores=2, memory_gb=4)
        )
    )
    dcn.connect("server-0", "tor-0")
    dcn.connect("tor-0", "ops-0")
    dcn.connect("tor-0", "ops-1")
    return dcn


class TestConstruction:
    def test_duplicate_node_rejected(self, tiny):
        with pytest.raises(DuplicateEntityError):
            tiny.add_server(ServerSpec(server_id="server-0"))

    def test_duplicate_across_kinds_rejected(self, tiny):
        with pytest.raises(DuplicateEntityError):
            tiny.add_tor(TorSpec(tor_id="server-0"))

    def test_self_loop_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.connect("tor-0", "tor-0")

    def test_server_to_server_rejected(self, tiny):
        tiny.add_server(ServerSpec(server_id="server-1"))
        with pytest.raises(TopologyError):
            tiny.connect("server-0", "server-1")

    def test_server_to_ops_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.connect("server-0", "ops-0")

    def test_connect_unknown_node_raises(self, tiny):
        with pytest.raises(UnknownEntityError):
            tiny.connect("server-0", "tor-99")


class TestDomainInference:
    def test_server_tor_link_is_electronic(self, tiny):
        assert tiny.link_of("server-0", "tor-0").domain is Domain.ELECTRONIC

    def test_tor_ops_link_is_optical(self, tiny):
        assert tiny.link_of("tor-0", "ops-0").domain is Domain.OPTICAL

    def test_ops_ops_link_is_optical(self, tiny):
        tiny.connect("ops-0", "ops-1")
        assert tiny.link_of("ops-0", "ops-1").domain is Domain.OPTICAL

    def test_explicit_link_spec_preserved(self, tiny):
        tiny.add_server(ServerSpec(server_id="server-1"))
        custom = LinkSpec(domain=Domain.ELECTRONIC, bandwidth_gbps=40.0)
        tiny.connect("server-1", "tor-0", link=custom)
        assert tiny.link_of("server-1", "tor-0").bandwidth_gbps == 40.0

    def test_link_of_missing_edge_raises(self, tiny):
        with pytest.raises(UnknownEntityError):
            tiny.link_of("ops-0", "ops-1")


class TestQueries:
    def test_kind_of(self, tiny):
        assert tiny.kind_of("server-0") is NodeKind.SERVER
        assert tiny.kind_of("tor-0") is NodeKind.TOR
        assert tiny.kind_of("ops-0") is NodeKind.OPS

    def test_kind_of_unknown_raises(self, tiny):
        with pytest.raises(UnknownEntityError):
            tiny.kind_of("nonexistent")

    def test_spec_of_returns_dataclass(self, tiny):
        assert tiny.spec_of("server-0").server_id == "server-0"

    def test_servers_sorted(self, tiny):
        tiny.add_server(ServerSpec(server_id="server-1"))
        assert tiny.servers() == ["server-0", "server-1"]

    def test_optoelectronic_routers_filters_compute(self, tiny):
        assert tiny.optoelectronic_routers() == ["ops-1"]

    def test_tors_of_server(self, tiny):
        assert tiny.tors_of_server("server-0") == ["tor-0"]

    def test_tors_of_server_wrong_kind_raises(self, tiny):
        with pytest.raises(TopologyError):
            tiny.tors_of_server("tor-0")

    def test_servers_under(self, tiny):
        assert tiny.servers_under("tor-0") == ["server-0"]

    def test_servers_under_wrong_kind_raises(self, tiny):
        with pytest.raises(TopologyError):
            tiny.servers_under("ops-0")

    def test_ops_of_tor(self, tiny):
        assert tiny.ops_of_tor("tor-0") == ["ops-0", "ops-1"]

    def test_tors_of_ops(self, tiny):
        assert tiny.tors_of_ops("ops-0") == ["tor-0"]

    def test_tors_of_ops_wrong_kind_raises(self, tiny):
        with pytest.raises(TopologyError):
            tiny.tors_of_ops("tor-0")

    def test_has_node(self, tiny):
        assert tiny.has_node("server-0")
        assert not tiny.has_node("server-99")

    def test_has_link_either_direction(self, tiny):
        assert tiny.has_link("server-0", "tor-0")
        assert tiny.has_link("tor-0", "server-0")
        assert not tiny.has_link("server-0", "ops-0")
        assert not tiny.has_link("server-99", "tor-0")

    def test_nodes_in_insertion_order(self, tiny):
        assert list(tiny.nodes()) == ["server-0", "tor-0", "ops-0", "ops-1"]

    def test_neighbors_in_link_order(self, tiny):
        assert list(tiny.neighbors("tor-0")) == ["server-0", "ops-0", "ops-1"]
        with pytest.raises(UnknownEntityError):
            tiny.neighbors("tor-404")

    def test_degree_counts_a_trunk_once(self, tiny):
        assert tiny.degree("tor-0") == 3
        assert tiny.degree("ops-0") == 1
        tiny.connect("tor-0", "ops-0")
        assert tiny.degree("tor-0") == 3
        with pytest.raises(UnknownEntityError):
            tiny.degree("ops-404")

    def test_connected_components(self, tiny):
        assert tiny.connected_components() == [
            {"server-0", "tor-0", "ops-0", "ops-1"}
        ]
        tiny.add_optical_switch(OpticalSwitchSpec(ops_id="ops-2"))
        tiny.add_tor(TorSpec(tor_id="tor-1"))
        tiny.connect("tor-1", "ops-2")
        assert tiny.connected_components() == [
            {"server-0", "tor-0", "ops-0", "ops-1"},
            {"ops-2", "tor-1"},
        ]
        assert DataCenterNetwork("empty").connected_components() == []


class TestWeights:
    def test_tor_weight_counts_in_and_out(self, tiny):
        # 1 server + 2 OPS uplinks.
        assert tiny.tor_weight("tor-0") == 3

    def test_ops_weight_is_degree(self, tiny):
        assert tiny.ops_weight("ops-0") == 1
        tiny.connect("ops-0", "ops-1")
        assert tiny.ops_weight("ops-0") == 2

    def test_paper_example_weights(self, paper_dcn):
        # Fig. 4: ToR 1 has four incoming and two outgoing connections.
        weights = {tor: paper_dcn.tor_weight(tor) for tor in paper_dcn.tors()}
        assert weights == {"tor-0": 6, "tor-1": 5, "tor-2": 4, "tor-3": 3}


class TestViews:
    def test_optical_core_contains_only_ops(self, tiny):
        core = tiny.optical_core()
        assert set(core.nodes) == {"ops-0", "ops-1"}

    def test_optical_core_is_a_copy(self, tiny):
        core = tiny.optical_core()
        core.add_node("intruder")
        assert not tiny.has_node("intruder")

    def test_graph_view_is_read_only(self, tiny):
        with pytest.raises(Exception):
            tiny.graph.add_node("intruder")

    def test_summary_counts(self, tiny):
        summary = tiny.summary()
        assert summary["servers"] == 1
        assert summary["tors"] == 1
        assert summary["optical_switches"] == 2
        assert summary["optoelectronic_routers"] == 1
        assert summary["links"] == 3
        assert summary["optical_links"] == 2
        assert summary["electronic_links"] == 1

    def test_edges_yield_linkspecs(self, tiny):
        edges = list(tiny.edges())
        assert len(edges) == 3
        assert all(isinstance(link, LinkSpec) for _, _, link in edges)


class TestParallelLinks:
    """Reconnecting an already-connected pair forms a trunk (a LAG)
    instead of silently overwriting the first link's spec."""

    def test_reconnect_aggregates_bandwidth(self, tiny):
        dcn = tiny
        assert dcn.link_of("tor-0", "ops-0").bandwidth_gbps == 10.0
        dcn.connect(
            "tor-0",
            "ops-0",
            LinkSpec(domain=Domain.OPTICAL, bandwidth_gbps=40.0),
        )
        trunk = dcn.link_of("tor-0", "ops-0")
        assert trunk.bandwidth_gbps == 50.0
        assert trunk.domain is Domain.OPTICAL

    def test_parallel_count_tracked(self, tiny):
        assert tiny.parallel_links("tor-0", "ops-0") == 1
        tiny.connect("tor-0", "ops-0")
        tiny.connect("tor-0", "ops-0")
        assert tiny.parallel_links("tor-0", "ops-0") == 3

    def test_parallel_links_missing_edge_raises(self, tiny):
        with pytest.raises(UnknownEntityError):
            tiny.parallel_links("server-0", "ops-0")

    def test_domain_mismatch_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.connect(
                "tor-0",
                "ops-0",
                LinkSpec(domain=Domain.ELECTRONIC, bandwidth_gbps=10.0),
            )

    def test_trunks_iterates_counts(self, tiny):
        tiny.connect("tor-0", "ops-0")
        by_pair = {
            frozenset((a, b)): (link, count)
            for a, b, link, count in tiny.trunks()
        }
        link, count = by_pair[frozenset(("tor-0", "ops-0"))]
        assert count == 2
        assert link.bandwidth_gbps == 20.0
        _, single = by_pair[frozenset(("server-0", "tor-0"))]
        assert single == 1

    def test_parallel_links_do_not_add_edges(self, tiny):
        before = tiny.summary()["links"]
        tiny.connect("tor-0", "ops-0")
        assert tiny.summary()["links"] == before


class TestAccessorCaching:
    """Memoized accessors must never serve stale adjacency or weights."""

    def test_weights_update_after_late_connect(self, tiny):
        # Warm every cache first.
        assert tiny.tor_weight("tor-0") == 3  # 1 server + 2 OPS uplinks
        assert tiny.ops_weight("ops-0") == 1
        assert tiny.tors_of_server("server-0") == ["tor-0"]
        # A late topology change must invalidate the memo tables.
        tiny.add_server(ServerSpec(server_id="server-1"))
        tiny.connect("server-1", "tor-0")
        assert tiny.tor_weight("tor-0") == 4
        assert tiny.servers_under("tor-0") == ["server-0", "server-1"]

    def test_kind_lists_update_after_late_add(self, tiny):
        assert tiny.servers() == ["server-0"]
        tiny.add_server(ServerSpec(server_id="server-1"))
        assert tiny.servers() == ["server-0", "server-1"]

    def test_kind_lists_scanned_once_per_kind(self, monkeypatch):
        # Kind lists depend on nodes and specs only, so a connect keeps
        # them: a fabric build (whose dual-homing pass reads servers()
        # before connecting) and the inventory over it scan each kind
        # at most once.
        scans = collections.Counter()
        scan = DataCenterNetwork._nodes_of_kind

        def counting_scan(self, kind):
            scans[kind] += 1
            return scan(self, kind)

        monkeypatch.setattr(DataCenterNetwork, "_nodes_of_kind", counting_scan)
        dcn = build_alvc_fabric(n_racks=512, servers_per_rack=8, n_ops=128,
                                seed=0)
        MachineInventory(dcn)
        dcn.optoelectronic_routers()
        dcn.tors()
        assert scans == {NodeKind.SERVER: 1, NodeKind.TOR: 1, NodeKind.OPS: 1}
        # A connect keeps the memo, which still equals a fresh scan.
        generation = dcn.topology_generation
        dcn.connect("server-0", "tor-7")
        assert dcn.topology_generation == generation + 1
        for kind in NodeKind:
            assert dcn._kind_list(kind) == tuple(sorted(scan(dcn, kind)))
        assert dcn.optoelectronic_routers() == sorted(
            ops for ops in scan(dcn, NodeKind.OPS)
            if dcn.spec_of(ops).is_optoelectronic
        )
        assert scans == {NodeKind.SERVER: 1, NodeKind.TOR: 1, NodeKind.OPS: 1}
        # A node addition still drops it.
        dcn.add_optical_switch(OpticalSwitchSpec(ops_id="ops-999"))
        assert dcn.optical_switches()[-1] == "ops-999"
        assert scans[NodeKind.OPS] == 2

    def test_connect_keeps_kind_lists_and_drops_adjacency_memos(self, tiny):
        assert tiny.optoelectronic_routers() == ["ops-1"]
        assert tiny.tor_weight("tor-0") == 3
        tiny.add_tor(TorSpec(tor_id="tor-1"))
        assert tiny.tors() == ["tor-0", "tor-1"]
        tiny.connect("server-0", "tor-1")
        assert tiny._kind_list_cache
        assert not tiny._tor_weight_cache
        assert tiny.tors_of_server("server-0") == ["tor-0", "tor-1"]
        assert tiny.tors() == ["tor-0", "tor-1"]

    def test_attachment_map_updates_after_late_connect(self, tiny):
        assert tiny.server_attachment_map() == {"server-0": ("tor-0",)}
        tiny.add_tor(TorSpec(tor_id="tor-1"))
        tiny.connect("server-0", "tor-1")
        assert tiny.server_attachment_map() == {
            "server-0": ("tor-0", "tor-1")
        }

    def test_parallel_link_merge_invalidates(self, tiny):
        assert tiny.ops_of_tor("tor-0") == ["ops-0", "ops-1"]
        before = tiny.tor_weight("tor-0")
        # Reconnecting an existing pair aggregates a trunk; adjacency is
        # unchanged but the cache must still be dropped safely.
        tiny.connect("tor-0", "ops-0")
        assert tiny.ops_of_tor("tor-0") == ["ops-0", "ops-1"]
        assert tiny.tor_weight("tor-0") == before

    def test_link_rates_follow_trunks(self, tiny):
        pair = frozenset(("tor-0", "ops-0"))
        rates = tiny.link_bytes_per_second()
        assert rates == {
            frozenset((a, b)): link.bandwidth_gbps * 1e9 / 8
            for a, b, link, _ in tiny.trunks()
        }
        # Each call hands out its own dict: a caller's edit is not served
        # to the next caller.
        rates[pair] = 0.0
        assert tiny.link_bytes_per_second()[pair] == 10.0 * 1e9 / 8
        # A parallel link widens the trunk, and the memo follows it.
        tiny.connect("tor-0", "ops-0")
        assert tiny.link_bytes_per_second()[pair] == 20.0 * 1e9 / 8
        tiny.set_caching(False)
        assert tiny.link_bytes_per_second()[pair] == 20.0 * 1e9 / 8

    def test_set_caching_returns_previous_state(self, tiny):
        assert tiny.caching_enabled
        assert tiny.set_caching(False) is True
        assert not tiny.caching_enabled
        assert tiny.set_caching(True) is False
        assert tiny.caching_enabled

    def test_disabled_caching_matches_enabled(self, tiny):
        cached = (
            tiny.tors_of_server("server-0"),
            tiny.ops_of_tor("tor-0"),
            tiny.tor_weight("tor-0"),
            tiny.server_attachment_map(),
        )
        tiny.set_caching(False)
        uncached = (
            tiny.tors_of_server("server-0"),
            tiny.ops_of_tor("tor-0"),
            tiny.tor_weight("tor-0"),
            tiny.server_attachment_map(),
        )
        assert cached == uncached

    def test_cached_accessors_validate_kind_and_existence(self, tiny):
        tiny.tors_of_server("server-0")  # warm
        with pytest.raises(TopologyError):
            tiny.tors_of_server("tor-0")
        with pytest.raises(UnknownEntityError):
            tiny.tors_of_server("server-404")

    def test_returned_lists_are_fresh_copies(self, tiny):
        first = tiny.ops_of_tor("tor-0")
        first.append("ops-tampered")
        assert tiny.ops_of_tor("tor-0") == ["ops-0", "ops-1"]
