"""The fabric's own adjacency dicts agree with networkx.

``DataCenterNetwork`` keeps its nodes and links in plain dicts laid out
as ``nx.Graph`` lays out its own, and hands networkx a view over them
only on demand.  Over generated fabrics with dual homing, trunks (a
pair connected more than once), late links and detached islands, every
structural query must equal networkx run on ``dcn.graph``, and the
fabric must iterate as an ``nx.Graph`` fed the same mutations would.
"""

from unittest import mock

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import NodeKind
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import (
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    TorSpec,
)
from repro.topology.generators import build_alvc_fabric

fabric_params = st.fixed_dictionaries(
    {
        "n_racks": st.integers(min_value=1, max_value=8),
        "servers_per_rack": st.integers(min_value=1, max_value=5),
        "n_ops": st.integers(min_value=3, max_value=6),  # a ring needs 3
        "tor_uplinks": st.integers(min_value=1, max_value=3),
        "dual_homing_fraction": st.floats(
            min_value=0, max_value=1, allow_nan=False
        ),
        "core_layout": st.sampled_from(["none", "ring", "full_mesh"]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)

extra_mutations = st.fixed_dictionaries(
    {
        # Indices into the built fabric's links: reconnect = a trunk.
        "trunks": st.lists(st.integers(min_value=0), max_size=6),
        "trunk_gbps": st.sampled_from([None, 25.0, 40.0]),
        # (ToR index, OPS index) links made after the build.
        "late_links": st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
            max_size=4,
        ),
        # Detached ToR–OPS islands, and switches with no link at all.
        "islands": st.integers(min_value=0, max_value=2),
        "loners": st.integers(min_value=0, max_value=2),
    }
)


def _recorded_fabric(params, extra):
    """Build a fabric, returning it and its mutation log."""
    log = []
    add_node = DataCenterNetwork._add_node
    connect = DataCenterNetwork.connect

    def recording_add_node(self, node_id, kind, spec):
        add_node(self, node_id, kind, spec)
        log.append((node_id,))

    def recording_connect(self, a, b, link=None):
        connect(self, a, b, link)
        log.append((a, b))

    with mock.patch.object(DataCenterNetwork, "_add_node",
                           recording_add_node), \
            mock.patch.object(DataCenterNetwork, "connect",
                              recording_connect):
        dcn = build_alvc_fabric(**params)
        links = [(a, b) for a, b, _ in dcn.edges()]
        for index in extra["trunks"]:
            a, b = links[index % len(links)]
            domain = dcn.link_of(a, b).domain
            gbps = extra["trunk_gbps"]
            dcn.connect(a, b, None if gbps is None else LinkSpec(domain, gbps))
        tors, ops = dcn.tors(), dcn.optical_switches()
        for tor_index, ops_index in extra["late_links"]:
            dcn.connect(tors[tor_index % len(tors)], ops[ops_index % len(ops)])
        for island in range(extra["islands"]):
            tor = dcn.add_tor(TorSpec(tor_id=f"tor-island-{island}"))
            switch = dcn.add_optical_switch(
                OpticalSwitchSpec(ops_id=f"ops-island-{island}")
            )
            dcn.connect(switch, tor)
        for loner in range(extra["loners"]):
            dcn.add_optical_switch(OpticalSwitchSpec(ops_id=f"ops-loner-{loner}"))
    return dcn, log


@given(fabric_params, extra_mutations)
@settings(max_examples=60, deadline=None)
def test_fabric_iterates_as_an_nx_graph_fed_the_same_mutations(params, extra):
    dcn, log = _recorded_fabric(params, extra)
    oracle = nx.Graph()
    for entry in log:
        if len(entry) == 1:
            oracle.add_node(entry[0])
        else:
            oracle.add_edge(*entry)
    assert list(dcn.nodes()) == list(oracle)
    for node in oracle:
        assert list(dcn.neighbors(node)) == list(oracle.adj[node])
    assert [(a, b) for a, b, _ in dcn.edges()] == list(oracle.edges())
    assert [(a, b) for a, b, _, _ in dcn.trunks()] == list(oracle.edges())


@given(fabric_params, extra_mutations)
@settings(max_examples=60, deadline=None)
def test_fabric_queries_equal_networkx_on_its_view(params, extra):
    dcn, _ = _recorded_fabric(params, extra)
    graph = dcn.graph
    nodes = list(graph)
    assert list(dcn.nodes()) == nodes
    for node in nodes:
        assert list(graph.adj[node]) == list(dcn.neighbors(node))
        assert dcn.degree(node) == graph.degree(node)
    for a in nodes:
        for b in nodes:
            assert dcn.has_link(a, b) == graph.has_edge(a, b)
    assert dcn.connected_components() == list(nx.connected_components(graph))

    assert [(a, b, link) for a, b, link in dcn.edges()] == [
        (a, b, link) for a, b, link in graph.edges(data="link")
    ]
    assert [(a, b, link, count) for a, b, link, count in dcn.trunks()] == [
        (a, b, data["link"], data.get("parallel", 1))
        for a, b, data in graph.edges(data=True)
    ]

    kinds = dict(graph.nodes(data="kind"))
    optical = sum(
        1 for _, _, link in graph.edges(data="link")
        if link.domain is Domain.OPTICAL
    )
    summary = dcn.summary()
    assert summary == {
        "servers": sum(kind is NodeKind.SERVER for kind in kinds.values()),
        "tors": sum(kind is NodeKind.TOR for kind in kinds.values()),
        "optical_switches": sum(
            kind is NodeKind.OPS for kind in kinds.values()
        ),
        "optoelectronic_routers": sum(
            1 for node, kind in kinds.items()
            if kind is NodeKind.OPS
            and graph.nodes[node]["spec"].is_optoelectronic
        ),
        "links": graph.number_of_edges(),
        "optical_links": optical,
        "electronic_links": graph.number_of_edges() - optical,
    }
