"""Service types and the service catalog.

A *service type* is the unit of clustering in AL-VC: every virtual cluster
hosts the VMs of exactly one service.  "The number of services in a data
center is defined by the network operator" (Section I), so the catalog is
open — the constants below are the services the paper names plus common
data-center roles from its motivation (Section III.A: "file servers, data
servers, backup servers, etc.").
"""

from __future__ import annotations

import dataclasses

from repro import undo
from repro.exceptions import DuplicateEntityError, UnknownEntityError, ValidationError
from repro.topology.elements import ResourceVector


@dataclasses.dataclass(frozen=True, slots=True)
class ServiceType:
    """A network service offered by the data center.

    Attributes:
        name: unique service name (also used to derive the cluster id).
        vm_demand: typical resource demand of one VM of this service.
        traffic_intensity: relative rate at which this service's machines
            generate flows (used by the traffic generator).
    """

    name: str
    vm_demand: ResourceVector = dataclasses.field(
        default_factory=lambda: ResourceVector(
            cpu_cores=2, memory_gb=4, storage_gb=50
        )
    )
    traffic_intensity: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("service name must be non-empty")
        if self.traffic_intensity < 0:
            raise ValidationError(
                f"traffic_intensity must be non-negative, "
                f"got {self.traffic_intensity}"
            )


# Services the paper names explicitly (Fig. 1: web, map-reduce, SNS) plus
# the storage-oriented roles of Section III.A.
WEB = ServiceType(
    "web",
    vm_demand=ResourceVector(cpu_cores=2, memory_gb=4, storage_gb=20),
    traffic_intensity=1.0,
)
MAP_REDUCE = ServiceType(
    "map-reduce",
    vm_demand=ResourceVector(cpu_cores=8, memory_gb=32, storage_gb=200),
    traffic_intensity=2.5,
)
SNS = ServiceType(
    "sns",
    vm_demand=ResourceVector(cpu_cores=4, memory_gb=8, storage_gb=100),
    traffic_intensity=1.5,
)
DATABASE = ServiceType(
    "database",
    vm_demand=ResourceVector(cpu_cores=8, memory_gb=64, storage_gb=500),
    traffic_intensity=1.2,
)
FILE_SERVER = ServiceType(
    "file-server",
    vm_demand=ResourceVector(cpu_cores=2, memory_gb=8, storage_gb=1000),
    traffic_intensity=0.8,
)
BACKUP = ServiceType(
    "backup",
    vm_demand=ResourceVector(cpu_cores=1, memory_gb=4, storage_gb=1000),
    traffic_intensity=0.3,
)
STREAMING = ServiceType(
    "streaming",
    vm_demand=ResourceVector(cpu_cores=4, memory_gb=16, storage_gb=300),
    traffic_intensity=3.0,
)

STANDARD_SERVICES: tuple[ServiceType, ...] = (
    WEB,
    MAP_REDUCE,
    SNS,
    DATABASE,
    FILE_SERVER,
    BACKUP,
    STREAMING,
)


class ServiceCatalog:
    """Registry of the services a data-center operator offers."""

    def __init__(self, services=()) -> None:
        self._services: dict[str, ServiceType] = {}
        for service in services:
            self.register(service)

    @classmethod
    def standard(cls) -> "ServiceCatalog":
        """Catalog pre-populated with :data:`STANDARD_SERVICES`."""
        return cls(STANDARD_SERVICES)

    def register(self, service: ServiceType) -> ServiceType:
        """Add a service; duplicate names are rejected."""
        if service.name in self._services:
            raise DuplicateEntityError("service", service.name)
        undo.setitem(self._services, service.name, service)
        return service

    def get(self, name: str) -> ServiceType:
        """Look up a service by name."""
        try:
            return self._services[name]
        except KeyError:
            raise UnknownEntityError("service", name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._services

    def __len__(self) -> int:
        return len(self._services)

    def names(self) -> list[str]:
        """All registered service names, sorted."""
        return sorted(self._services)

    def all(self) -> list[ServiceType]:
        """All registered services, sorted by name."""
        return [self._services[name] for name in self.names()]
