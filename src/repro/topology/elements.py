"""Value types describing physical network elements.

These are *specifications* — immutable descriptions attached to graph nodes
and edges by :class:`repro.topology.datacenter.DataCenterNetwork`.  Mutable
runtime state (remaining capacity, hosted VNFs, flow tables) lives in the
subsystem that owns it, never on the topology.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from repro.exceptions import ValidationError


class Domain(enum.Enum):
    """Transmission domain of a link or hosting domain of a function.

    The paper's hybrid fabric propagates large flows through the optical
    domain and small ones through the electronic domain (Section IV.D);
    every optical↔electronic boundary crossing costs one O/E/O conversion.
    """

    ELECTRONIC = "electronic"
    OPTICAL = "optical"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def other(self) -> "Domain":
        """The opposite domain."""
        if self is Domain.ELECTRONIC:
            return Domain.OPTICAL
        return Domain.ELECTRONIC


@dataclasses.dataclass(frozen=True, slots=True)
class ResourceVector:
    """A bundle of compute resources (demand or capacity).

    Used uniformly for server capacity, VM demand, VNF demand and the
    limited buffer/storage/processing of optoelectronic routers
    (Section IV.D: "optoelectronic routers ... have a limited buffer,
    storage, and processing capability").
    """

    cpu_cores: float = 0.0
    memory_gb: float = 0.0
    storage_gb: float = 0.0

    def __post_init__(self) -> None:
        # Hot path: every vector arithmetic result lands here, so test
        # the three fields directly (NaN and inf both fail the chained
        # comparison) and only name the culprit on failure.
        if (
            0 <= self.cpu_cores < math.inf
            and 0 <= self.memory_gb < math.inf
            and 0 <= self.storage_gb < math.inf
        ):
            return
        for name in ("cpu_cores", "memory_gb", "storage_gb"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )

    def __reduce__(self):
        return ResourceVector, (self.cpu_cores, self.memory_gb, self.storage_gb)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu_cores=self.cpu_cores + other.cpu_cores,
            memory_gb=self.memory_gb + other.memory_gb,
            storage_gb=self.storage_gb + other.storage_gb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise difference; raises if any component would go negative."""
        return ResourceVector(
            cpu_cores=self.cpu_cores - other.cpu_cores,
            memory_gb=self.memory_gb - other.memory_gb,
            storage_gb=self.storage_gb - other.storage_gb,
        )

    def scaled(self, factor: float) -> "ResourceVector":
        """Return this vector scaled by a non-negative factor."""
        if factor < 0:
            raise ValidationError(f"scale factor must be non-negative, got {factor}")
        return ResourceVector(
            cpu_cores=self.cpu_cores * factor,
            memory_gb=self.memory_gb * factor,
            storage_gb=self.storage_gb * factor,
        )

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True if this demand fits inside ``capacity`` component-wise."""
        return (
            self.cpu_cores <= capacity.cpu_cores
            and self.memory_gb <= capacity.memory_gb
            and self.storage_gb <= capacity.storage_gb
        )

    def is_zero(self) -> bool:
        """True if every component is exactly zero."""
        return self.cpu_cores == 0 and self.memory_gb == 0 and self.storage_gb == 0

    @staticmethod
    def zero() -> "ResourceVector":
        """The all-zero resource vector."""
        return ResourceVector()

    @staticmethod
    def total(vectors) -> "ResourceVector":
        """Component-wise sum of an iterable of vectors."""
        result = ResourceVector()
        for vector in vectors:
            result = result + vector
        return result


@dataclasses.dataclass(frozen=True, slots=True)
class ServerSpec:
    """A physical server in a rack, hosting virtual machines."""

    server_id: str
    capacity: ResourceVector = dataclasses.field(
        default_factory=lambda: ResourceVector(
            cpu_cores=32, memory_gb=128, storage_gb=2048
        )
    )
    rack: int = 0

    def __reduce__(self):
        return ServerSpec, (self.server_id, self.capacity, self.rack)


@dataclasses.dataclass(frozen=True, slots=True)
class TorSpec:
    """A Top-of-Rack switch: the electronic/optical boundary of a rack.

    ToR switches "produce electronic packets and they need to be converted
    into optical packets before sending over the optical domain"
    (Section III.B) — every ToR therefore carries an E/O + O/E transceiver.
    """

    tor_id: str
    rack: int = 0
    port_count: int = 48

    def __reduce__(self):
        return TorSpec, (self.tor_id, self.rack, self.port_count)


@dataclasses.dataclass(frozen=True, slots=True)
class OpticalSwitchSpec:
    """An Optical Packet Switch in the core, possibly optoelectronic.

    A plain OPS only forwards optical packets.  An *optoelectronic router*
    additionally has a small compute capacity and can host low-demand VNFs
    in the optical domain (Section IV.D); ``compute`` is zero for plain
    OPSs.
    """

    ops_id: str
    port_count: int = 32
    wavelengths: int = 40
    compute: ResourceVector = dataclasses.field(default_factory=ResourceVector)

    def __reduce__(self):
        return OpticalSwitchSpec, (
            self.ops_id, self.port_count, self.wavelengths, self.compute
        )

    @property
    def is_optoelectronic(self) -> bool:
        """True if this switch can host VNFs (has non-zero compute)."""
        return not self.compute.is_zero()


@dataclasses.dataclass(frozen=True, slots=True)
class LinkSpec:
    """A physical link between two topology nodes."""

    domain: Domain
    bandwidth_gbps: float = 10.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValidationError(
                f"bandwidth must be positive, got {self.bandwidth_gbps}"
            )

    def __reduce__(self):
        return LinkSpec, (self.domain, self.bandwidth_gbps)


# Reference capacities used by generators and examples.  The optoelectronic
# capacity is deliberately an order of magnitude below a server's: the paper
# stresses that these routers can only host VNFs "with low resource demands".
DEFAULT_SERVER_CAPACITY = ResourceVector(cpu_cores=32, memory_gb=128, storage_gb=2048)
DEFAULT_OPTOELECTRONIC_CAPACITY = ResourceVector(
    cpu_cores=4, memory_gb=8, storage_gb=64
)
