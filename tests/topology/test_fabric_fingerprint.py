"""Pinned structural fingerprints of the fabrics the benchmarks build.

Every stack build, genesis replay and snapshot restore re-creates its
fabric, and ``state_view`` hashes ``topology_generation`` into every
state digest.  A fabric that builds faster must therefore build *the
same*: the same nodes in the same order with the same kinds and spec
values, the same adjacency order at every node, the same trunk specs
and parallel counts, and the same generation.  Each checksum below was
pinned before the mutation fast path went in; a drift fails by name.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.analysis.experiments import standard_testbed
from repro.topology.builder import TopologyBuilder
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import Domain, LinkSpec
from repro.topology.generators import build_alvc_fabric, build_leaf_spine


def fabric_fingerprint(dcn: DataCenterNetwork) -> str:
    """A digest of everything a fabric build decides, in order."""
    digest = hashlib.sha256()

    def feed(value: object) -> None:
        digest.update(repr(value).encode())
        digest.update(b"\n")

    graph = dcn.graph
    feed(dcn.name)
    for node in graph.nodes:
        spec = dcn.spec_of(node)
        feed((node, dcn.kind_of(node).value, type(spec).__name__,
              dataclasses.astuple(spec)))
    for node in graph.nodes:
        feed((node, tuple(graph.adj[node])))
    for a, b, link, count in dcn.trunks():
        feed((a, b, link.domain.value, link.bandwidth_gbps, count))
    feed(dcn.topology_generation)
    return digest.hexdigest()[:16]


def _trunk_fabric() -> DataCenterNetwork:
    builder = TopologyBuilder("trunk")
    core = builder.add_optical_core(3, optoelectronic_every=2,
                                    interconnect="full_mesh")
    tor, servers = builder.add_rack(servers=3, uplinks=core[:2])
    dcn = builder.build()
    dcn.connect(tor, core[0])  # a second default member on one pair
    dcn.connect(tor, core[0], LinkSpec(Domain.OPTICAL, bandwidth_gbps=40.0))
    dcn.connect(servers[0], tor, LinkSpec(Domain.ELECTRONIC, 25.0))
    dcn.connect(core[1], core[2])
    return dcn


FABRICS = {
    # benchmarks/e2e: chain-stream (full size) and tenant-month/flows.
    "alvc-512x8-128ops": lambda: build_alvc_fabric(
        n_racks=512, servers_per_rack=8, n_ops=128, seed=0),
    "alvc-128x8-48ops": lambda: build_alvc_fabric(
        n_racks=128, servers_per_rack=8, n_ops=48, seed=0),
    # E21's sweep scale.
    "e21-seed0": lambda: build_alvc_fabric(
        n_racks=128, servers_per_rack=8, n_ops=32,
        dual_homing_fraction=0.4, seed=0),
    "e21-seed1": lambda: build_alvc_fabric(
        n_racks=128, servers_per_rack=8, n_ops=32,
        dual_homing_fraction=0.4, seed=1),
    "ring-core": lambda: build_alvc_fabric(
        n_racks=12, servers_per_rack=4, n_ops=6, core_layout="ring",
        seed=3),
    "torus-core": lambda: build_alvc_fabric(
        n_racks=12, servers_per_rack=4, n_ops=9, core_layout="torus",
        tor_uplinks=1, seed=2),
    # Single uplinks over a layout-free core: islands that get bridged.
    "bridged-islands": lambda: build_alvc_fabric(
        n_racks=12, servers_per_rack=3, n_ops=6, tor_uplinks=1, seed=4),
    "parallel-trunk": _trunk_fabric,
    "leaf-spine": build_leaf_spine,
    "standard-testbed": lambda: standard_testbed(seed=0)[0].network,
}

PINNED = {
    "alvc-512x8-128ops": "b843f1d23e7287de",
    "alvc-128x8-48ops": "374a43193df16719",
    "e21-seed0": "2816d919e9b8cb21",
    "e21-seed1": "079274ae9b19a7db",
    "ring-core": "ca51c6f852ed408b",
    "torus-core": "972c81a3c551c7cd",
    "bridged-islands": "1e65d47aa4443386",
    "parallel-trunk": "14f0037a6de90b6a",
    "leaf-spine": "caca3ea5bbc6b58d",
    "standard-testbed": "4566802fa0dc4817",
}

GENERATIONS = {
    "alvc-512x8-128ops": 10857,
    "alvc-128x8-48ops": 2743,
    "e21-seed0": 2872,
    "e21-seed1": 2863,
    "ring-core": 152,
    "torus-core": 157,
    "bridged-islands": 119,
    "parallel-trunk": 19,
    "leaf-spine": 142,
    "standard-testbed": 168,
}


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_fabric_fingerprint_is_pinned(name):
    dcn = FABRICS[name]()
    assert dcn.topology_generation == GENERATIONS[name]
    assert fabric_fingerprint(dcn) == PINNED[name]


def test_generation_counts_one_per_node_and_link_member():
    dcn = _trunk_fabric()
    members = sum(count for _, _, _, count in dcn.trunks())
    assert dcn.topology_generation == dcn.graph.number_of_nodes() + members


def test_trunk_aggregates_its_members():
    dcn = _trunk_fabric()
    tor, ops = "tor-0", "ops-0"
    assert dcn.parallel_links(tor, ops) == 3
    assert dcn.link_of(tor, ops) == LinkSpec(Domain.OPTICAL, 60.0)
    assert dcn.parallel_links("server-0", tor) == 2
    assert dcn.link_of("server-0", tor) == LinkSpec(Domain.ELECTRONIC, 35.0)
