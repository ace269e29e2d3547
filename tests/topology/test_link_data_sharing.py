"""Default links share one data dict, and a trunk never writes it.

Every single default link of a domain points at one shared
``{"link", "parallel"}`` dict instead of a fresh one per link.  Sharing
is safe only because link data is copy-on-write: a parallel member
gives its pair a new dict.  These tests pin both halves, and that a
pickled fabric keeps its trunks.
"""

from __future__ import annotations

import pickle

from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import Domain, LinkSpec
from repro.topology.generators import build_alvc_fabric


def _edge_data(dcn: DataCenterNetwork) -> dict[tuple[str, str], dict]:
    graph = dcn.graph
    return {(a, b): dict(graph.edges[a, b]) for a, b in graph.edges}


def _fabric() -> DataCenterNetwork:
    return build_alvc_fabric(n_racks=4, servers_per_rack=4, n_ops=4, seed=3)


def test_default_links_of_a_domain_share_one_dict():
    dcn = _fabric()
    by_domain: dict[Domain, set[int]] = {}
    for a, b in dcn.graph.edges:
        data = dcn._adj[a][b]
        assert data is dcn._adj[b][a]
        by_domain.setdefault(data["link"].domain, set()).add(id(data))
    assert set(by_domain) == {Domain.OPTICAL, Domain.ELECTRONIC}
    assert all(len(ids) == 1 for ids in by_domain.values())


def test_parallel_member_leaves_every_other_pair_unchanged():
    dcn = _fabric()
    tor = dcn.tors()[0]
    ops = dcn.ops_of_tor(tor)[0]
    server = dcn.servers_under(tor)[0]
    before = _edge_data(dcn)
    dcn.connect(tor, ops)
    dcn.connect(server, tor, LinkSpec(Domain.ELECTRONIC, bandwidth_gbps=25))
    after = _edge_data(dcn)
    assert after.keys() == before.keys()
    changed = {pair for pair in before if after[pair] != before[pair]}
    assert changed == {
        pair
        for pair in before
        if set(pair) in ({tor, ops}, {server, tor})
    }
    assert dcn.parallel_links(tor, ops) == 2
    assert dcn.link_of(tor, ops).bandwidth_gbps == (
        2 * LinkSpec(Domain.OPTICAL).bandwidth_gbps
    )
    assert dcn.parallel_links(server, tor) == 2
    # The trunk's new dict is shared by its two directions only.
    assert dcn._adj[tor][ops] is dcn._adj[ops][tor]
    other = dcn.ops_of_tor(dcn.tors()[1])[0]
    assert dcn._adj[tor][ops] is not dcn._adj[dcn.tors()[1]][other]


def test_pickle_round_trip_keeps_trunks():
    dcn = _fabric()
    tor = dcn.tors()[0]
    ops = dcn.ops_of_tor(tor)[0]
    dcn.connect(tor, ops)
    dcn.connect(tor, ops)
    loaded = pickle.loads(pickle.dumps(dcn, protocol=pickle.HIGHEST_PROTOCOL))
    assert list(loaded.trunks()) == list(dcn.trunks())
    assert loaded.parallel_links(tor, ops) == 3
    # Loaded links stay copy-on-write: a member added after the load
    # touches its own pair only.
    before = _edge_data(loaded)
    server = loaded.servers_under(tor)[0]
    loaded.connect(server, tor)
    after = _edge_data(loaded)
    assert [pair for pair in before if after[pair] != before[pair]] == [
        pair for pair in before if set(pair) == {server, tor}
    ]
