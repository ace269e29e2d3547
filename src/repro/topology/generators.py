"""Topology generators: the paper's worked example plus parameterized fabrics.

``paper_example_topology`` reproduces the Fig. 4 configuration exactly and is
the fixture for experiment E4.  ``build_alvc_fabric`` generates AL-VC fabrics
of arbitrary scale for the sweep experiments, and the fat-tree / leaf-spine
generators provide conventional electronic baselines (experiment E2).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.exceptions import TopologyError
from repro.ids import server_id, tor_id
from repro.topology.builder import TopologyBuilder
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import (
    DEFAULT_OPTOELECTRONIC_CAPACITY,
    ResourceVector,
)

if TYPE_CHECKING:
    import networkx as nx


def paper_example_topology() -> DataCenterNetwork:
    """The Fig. 4 worked example: 4 ToRs, 4 OPSs, 6 dual-homed machines.

    The paper walks through AL construction on a fabric where:

    * ToR 1 (``tor-0``) has **four incoming connections** (machines
      ``server-0..3``) and **two outgoing** (``ops-0``, ``ops-1``), so the
      maximum-weight stage selects it first (weight 4 + 2 = 6);
    * ToR 2 (``tor-1``) is tried next but its machines (``server-1``,
      ``server-2``) are *already covered* by ToR 1, so it is skipped;
    * ToR 3 (``tor-2``) covers the remaining machines (``server-4``,
      ``server-5``) and completes the machine cover;
    * ToR N (``tor-3``) is never considered — everything is covered.

    The OPS stage then covers the selected ToRs {``tor-0``, ``tor-2``} with
    the maximum-weight OPSs, yielding the abstraction layer
    ``{ops-0, ops-2}``.
    """
    builder = TopologyBuilder("paper-fig4")
    ops = [builder.add_optical_switch(compute=DEFAULT_OPTOELECTRONIC_CAPACITY)
           for _ in range(4)]
    dcn = builder.build()

    # ToRs with explicit machine-side and OPS-side degrees chosen so the
    # greedy weight order is tor-0 (6) > tor-1 (5) > tor-2 (4) > tor-3 (3).
    from repro.topology.elements import ServerSpec, TorSpec

    tors = [dcn.add_tor(TorSpec(tor_id=tor_id(i), rack=i)) for i in range(4)]
    uplinks = {
        tors[0]: [ops[0], ops[1]],
        tors[1]: [ops[1], ops[2], ops[3]],
        tors[2]: [ops[2], ops[3]],
        tors[3]: [ops[0], ops[3]],
    }
    for tor, tor_uplinks in uplinks.items():
        for switch in tor_uplinks:
            dcn.connect(tor, switch)

    servers = [dcn.add_server(ServerSpec(server_id=server_id(i), rack=i // 2))
               for i in range(6)]
    attachments = {
        servers[0]: [tors[0]],
        servers[1]: [tors[0], tors[1]],
        servers[2]: [tors[0], tors[1]],
        servers[3]: [tors[0]],
        servers[4]: [tors[2]],
        servers[5]: [tors[2], tors[3]],
    }
    for server, server_tors in attachments.items():
        for tor in server_tors:
            dcn.connect(server, tor)
    return dcn


def build_alvc_fabric(
    *,
    n_racks: int = 8,
    servers_per_rack: int = 16,
    n_ops: int = 4,
    tor_uplinks: int = 2,
    dual_homing_fraction: float = 0.25,
    optoelectronic_every: int = 1,
    optoelectronic_compute: ResourceVector = DEFAULT_OPTOELECTRONIC_CAPACITY,
    core_layout: str = "none",
    seed: int = 0,
) -> DataCenterNetwork:
    """Generate a randomized AL-VC fabric (paper Fig. 2 at scale).

    Each rack's ToR uplinks to ``tor_uplinks`` OPSs (one deterministic
    round-robin uplink for connectivity, the rest sampled), and a
    ``dual_homing_fraction`` of servers also attach to a neighbouring
    rack's ToR — the redundancy that lets AL construction drop ToRs.

    Args:
        n_racks: number of racks (one ToR each).
        servers_per_rack: servers behind each ToR.
        n_ops: size of the optical core.
        tor_uplinks: OPS uplinks per ToR (clamped to ``n_ops``).
        dual_homing_fraction: fraction of servers attached to a second ToR.
        optoelectronic_every: every n-th OPS is optoelectronic (0 = none).
        optoelectronic_compute: compute capacity of optoelectronic OPSs.
        core_layout: OPS interconnect (``"none"``, ``"ring"``,
            ``"full_mesh"``, ``"torus"``).
        seed: RNG seed; the same seed always yields the same fabric.
    """
    if n_racks <= 0 or servers_per_rack <= 0 or n_ops <= 0:
        raise TopologyError("fabric dimensions must be positive")
    if not 0 <= dual_homing_fraction <= 1:
        raise TopologyError(
            f"dual_homing_fraction must be in [0, 1], got {dual_homing_fraction}"
        )
    rng = random.Random(seed)
    uplink_count = min(tor_uplinks, n_ops)
    builder = TopologyBuilder(f"alvc-{n_racks}x{servers_per_rack}")
    core = builder.add_optical_core(
        n_ops,
        optoelectronic_every=optoelectronic_every,
        compute=optoelectronic_compute,
        interconnect=core_layout,
    )

    rack_tors: list[str] = []
    for rack in range(n_racks):
        first_uplink = core[rack % n_ops]
        others = [switch for switch in core if switch != first_uplink]
        extra = rng.sample(others, uplink_count - 1) if uplink_count > 1 else []
        tor, _ = builder.add_rack(
            servers=servers_per_rack, uplinks=[first_uplink, *extra]
        )
        rack_tors.append(tor)

    dcn = builder.build()
    # With fewer racks than switches the round-robin can leave core
    # switches with no uplink at all; attach each leftover to a ToR so the
    # fabric stays connected (no operator racks an unattached switch).
    for index, ops in enumerate(core):
        if not dcn.tors_of_ops(ops):
            dcn.connect(rack_tors[index % n_racks], ops)
    # Single-uplink ToRs over a layout-free core can still split the
    # fabric into islands; bridge each extra component to the first one
    # through a ToR↔OPS link (one data center, paper Fig. 2).
    components = sorted(dcn.connected_components(), key=min)
    if len(components) > 1:
        core_set = set(core)
        tor_set = set(rack_tors)
        anchor_ops = next(
            node for node in sorted(components[0]) if node in core_set
        )
        for component in components[1:]:
            bridge_tor = next(
                node for node in sorted(component) if node in tor_set
            )
            dcn.connect(bridge_tor, anchor_ops)
    if n_racks > 1 and dual_homing_fraction > 0:
        # Group servers by their home rack first: connecting as we iterate
        # would make freshly dual-homed servers look like rack members of
        # their second ToR and cascade extra attachments.
        home_rack: dict[int, list[str]] = {}
        for server in dcn.servers():
            home_rack.setdefault(dcn.spec_of(server).rack, []).append(server)
        for rack, tor in enumerate(rack_tors):
            neighbour = rack_tors[(rack + 1) % n_racks]
            for server in home_rack.get(rack, []):
                if rng.random() < dual_homing_fraction:
                    dcn.connect(server, neighbour)
    return dcn


def build_leaf_spine(
    *,
    n_leaf: int = 4,
    n_spine: int = 2,
    servers_per_leaf: int = 16,
    optoelectronic_every: int = 1,
) -> DataCenterNetwork:
    """A leaf-spine fabric: every leaf (ToR) connects to every spine (OPS)."""
    builder = TopologyBuilder(f"leaf-spine-{n_leaf}x{n_spine}")
    spines = builder.add_optical_core(
        n_spine, optoelectronic_every=optoelectronic_every
    )
    for _ in range(n_leaf):
        builder.add_rack(servers=servers_per_leaf, uplinks=list(spines))
    return builder.build()


def build_fat_tree(k: int) -> nx.Graph:
    """A classic k-ary fat-tree as a plain (all-electronic) graph.

    Used only as the conventional-DCN baseline in topology experiments
    (E2): it is not a :class:`DataCenterNetwork` because the AL-VC model
    has no aggregation tier.  Nodes carry a ``layer`` attribute in
    ``{"core", "agg", "edge", "server"}``.

    Args:
        k: pod count; must be even.  Yields ``k^3/4`` servers.
    """
    if k <= 0 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity must be a positive even number, got {k}")
    import networkx as nx

    graph = nx.Graph(name=f"fat-tree-{k}")
    half = k // 2
    cores = [f"core-{i}" for i in range(half * half)]
    graph.add_nodes_from(cores, layer="core")
    server_index = 0
    for pod in range(k):
        aggs = [f"agg-{pod}-{i}" for i in range(half)]
        edges = [f"edge-{pod}-{i}" for i in range(half)]
        graph.add_nodes_from(aggs, layer="agg")
        graph.add_nodes_from(edges, layer="edge")
        for i, agg in enumerate(aggs):
            for j in range(half):
                graph.add_edge(agg, cores[i * half + j])
            for edge in edges:
                graph.add_edge(agg, edge)
        for edge in edges:
            for _ in range(half):
                server = f"server-{server_index}"
                server_index += 1
                graph.add_node(server, layer="server")
                graph.add_edge(edge, server)
    return graph
