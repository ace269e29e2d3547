"""Fluent builder for assembling data-center fabrics rack by rack.

Generators in :mod:`repro.topology.generators` use this builder; it is also
part of the public API so users can describe custom fabrics without touching
graph internals.
"""

from __future__ import annotations

from repro.exceptions import TopologyError
from repro.ids import ops_id, server_id, tor_id
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import (
    DEFAULT_OPTOELECTRONIC_CAPACITY,
    DEFAULT_SERVER_CAPACITY,
    OpticalSwitchSpec,
    ResourceVector,
    ServerSpec,
    TorSpec,
)


class TopologyBuilder:
    """Incrementally build a :class:`DataCenterNetwork`.

    Typical use::

        builder = TopologyBuilder("demo")
        core = builder.add_optical_core(4, optoelectronic_every=2)
        for rack in range(8):
            builder.add_rack(servers=16, uplinks=[core[rack % 4], core[(rack + 1) % 4]])
        dcn = builder.build()
    """

    def __init__(self, name: str = "dcn") -> None:
        self._dcn = DataCenterNetwork(name)
        self._next_server = 0
        self._next_tor = 0
        self._next_ops = 0
        self._built = False

    # ------------------------------------------------------------------
    def add_optical_switch(
        self,
        *,
        compute: ResourceVector | None = None,
        port_count: int = 32,
        wavelengths: int = 40,
    ) -> str:
        """Add a single OPS; pass ``compute`` to make it optoelectronic."""
        spec = OpticalSwitchSpec(
            ops_id=ops_id(self._next_ops),
            port_count=port_count,
            wavelengths=wavelengths,
            compute=compute if compute is not None else ResourceVector.zero(),
        )
        self._next_ops += 1
        return self._dcn.add_optical_switch(spec)

    def add_optical_core(
        self,
        count: int,
        *,
        optoelectronic_every: int = 1,
        compute: ResourceVector = DEFAULT_OPTOELECTRONIC_CAPACITY,
        interconnect: str = "none",
    ) -> list[str]:
        """Add ``count`` OPSs and optionally interconnect them.

        Args:
            count: number of optical switches.
            optoelectronic_every: every n-th switch gets compute capacity
                (``1`` = all optoelectronic, ``0`` = none).
            compute: capacity given to optoelectronic switches.
            interconnect: core layout among the OPSs — ``"none"``,
                ``"full_mesh"``, ``"ring"``, ``"torus"`` (2D, requires a
                square count), or ``"hypercube"`` (requires a power-of-two
                count).  Layouts follow the OPS data-center topologies of
                the paper's reference [29].
        """
        if count <= 0:
            raise TopologyError(f"optical core needs at least 1 switch, got {count}")
        switches = []
        for index in range(count):
            is_oer = optoelectronic_every > 0 and index % optoelectronic_every == 0
            switches.append(
                self.add_optical_switch(
                    compute=compute if is_oer else ResourceVector.zero()
                )
            )
        self._interconnect_core(switches, interconnect)
        return switches

    def _interconnect_core(self, switches: list[str], layout: str) -> None:
        count = len(switches)
        if layout == "none":
            return
        if layout == "full_mesh":
            for i in range(count):
                for j in range(i + 1, count):
                    self._dcn.connect(switches[i], switches[j])
            return
        if layout == "ring":
            if count < 3:
                raise TopologyError(f"ring layout needs >=3 switches, got {count}")
            for i in range(count):
                self._dcn.connect(switches[i], switches[(i + 1) % count])
            return
        if layout == "torus":
            side = _square_side(count)
            for i in range(count):
                row, col = divmod(i, side)
                right = row * side + (col + 1) % side
                down = ((row + 1) % side) * side + col
                for j in (right, down):
                    if j != i and not self._dcn.has_link(
                        switches[i], switches[j]
                    ):
                        self._dcn.connect(switches[i], switches[j])
            return
        if layout == "hypercube":
            if count < 2 or count & (count - 1) != 0:
                raise TopologyError(
                    f"hypercube layout needs a power-of-two switch count, "
                    f"got {count}"
                )
            dimensions = count.bit_length() - 1
            for i in range(count):
                for bit in range(dimensions):
                    j = i ^ (1 << bit)
                    if i < j:
                        self._dcn.connect(switches[i], switches[j])
            return
        raise TopologyError(f"unknown optical core layout {layout!r}")

    # ------------------------------------------------------------------
    def add_rack(
        self,
        *,
        servers: int,
        uplinks: list[str],
        server_capacity: ResourceVector = DEFAULT_SERVER_CAPACITY,
        extra_tors: list[str] | None = None,
    ) -> tuple[str, list[str]]:
        """Add one rack: a ToR, its servers, and its OPS uplinks.

        Args:
            servers: number of servers in the rack.
            uplinks: OPS ids this rack's ToR connects to ("each TOR is
                connected to multiple OPSs", Section III.B).
            server_capacity: capacity of each server.
            extra_tors: existing ToR ids the servers also attach to
                (dual-homing).

        Returns:
            ``(tor_id, [server ids])``.
        """
        if servers <= 0:
            raise TopologyError(f"rack needs at least 1 server, got {servers}")
        if not uplinks:
            raise TopologyError("rack ToR needs at least one OPS uplink")
        rack_index = self._next_tor
        tor = self._dcn.add_tor(TorSpec(tor_id=tor_id(rack_index), rack=rack_index))
        self._next_tor += 1
        for ops in uplinks:
            self._dcn.connect(tor, ops)
        rack_servers = []
        for _ in range(servers):
            server = self._dcn.add_server(
                ServerSpec(
                    server_id=server_id(self._next_server),
                    capacity=server_capacity,
                    rack=rack_index,
                )
            )
            self._next_server += 1
            self._dcn.connect(server, tor)
            for other_tor in extra_tors or []:
                self._dcn.connect(server, other_tor)
            rack_servers.append(server)
        return tor, rack_servers

    # ------------------------------------------------------------------
    def build(self) -> DataCenterNetwork:
        """Finalize and return the network. The builder is single-use."""
        if self._built:
            raise TopologyError("TopologyBuilder.build() may only be called once")
        self._built = True
        return self._dcn


def _square_side(count: int) -> int:
    side = round(count**0.5)
    if side * side != count:
        raise TopologyError(f"torus layout needs a square switch count, got {count}")
    return side
