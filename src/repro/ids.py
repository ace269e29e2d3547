"""Typed entity identifiers used throughout the library.

Entities live as nodes of a :class:`networkx.Graph`, so their ids must be
hashable, comparable, and cheap.  We use plain strings with a conventional
``<kind>-<index>`` shape, produced and parsed by the helpers below, plus a
:class:`NodeKind` enum stored as a node attribute.

Using strings (rather than wrapper classes) keeps graph dumps readable and
lets user code construct ids by hand when convenient; the helpers exist so
library code never spells the prefixes inline.
"""

from __future__ import annotations

import enum

from repro import undo

# Type aliases documenting intent at call sites.  They are all ``str`` at
# runtime; the naming convention is enforced by the constructors below.
ServerId = str
TorId = str
OpsId = str
VmId = str
ClusterId = str
VnfId = str
ChainId = str
SliceId = str
TenantId = str
FlowId = str


class NodeKind(enum.Enum):
    """Role of a node in the physical data-center topology."""

    SERVER = "server"
    TOR = "tor"
    OPS = "ops"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_SEPARATOR = "-"


def server_id(index: int) -> ServerId:
    """Id of the ``index``-th physical server."""
    return f"server{_SEPARATOR}{index}"


def tor_id(index: int) -> TorId:
    """Id of the ``index``-th Top-of-Rack switch."""
    return f"tor{_SEPARATOR}{index}"


def ops_id(index: int) -> OpsId:
    """Id of the ``index``-th optical packet switch."""
    return f"ops{_SEPARATOR}{index}"


def vm_id(index: int) -> VmId:
    """Id of the ``index``-th virtual machine."""
    return f"vm{_SEPARATOR}{index}"


def cluster_id(name: str) -> ClusterId:
    """Id of the virtual cluster serving ``name`` (typically a service name)."""
    return f"cluster{_SEPARATOR}{name}"


def vnf_id(index: int) -> VnfId:
    """Id of the ``index``-th virtual network function instance."""
    return f"vnf{_SEPARATOR}{index}"


def chain_id(index: int) -> ChainId:
    """Id of the ``index``-th network function chain."""
    return f"chain{_SEPARATOR}{index}"


def slice_id(index: int) -> SliceId:
    """Id of the ``index``-th optical slice."""
    return f"slice{_SEPARATOR}{index}"


def flow_id(index: int) -> FlowId:
    """Id of the ``index``-th traffic flow."""
    return f"flow{_SEPARATOR}{index}"


def index_of(entity_id: str) -> int:
    """Return the numeric index embedded in an id produced by this module.

    Raises:
        ValueError: if the id does not end in an integer index.
    """
    _, _, tail = entity_id.rpartition(_SEPARATOR)
    try:
        return int(tail)
    except ValueError:
        raise ValueError(f"id {entity_id!r} has no numeric index") from None


def kind_prefix(entity_id: str) -> str:
    """Return the kind prefix of an id (``"server"`` for ``"server-3"``)."""
    head, _, _ = entity_id.rpartition(_SEPARATOR)
    return head or entity_id


class IdAllocator:
    """Monotonic per-prefix id allocator.

    Components that create entities dynamically (VNF instances, flows,
    slices) use one allocator so ids never collide within a run.  An
    allocation inside a failed command is undone (:mod:`repro.undo`), so
    a replayed history allocates the exact same ids the live run did.
    """

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def allocate(self, factory) -> str:
        """Return ``factory(n)`` for the next unused ``n`` of that factory."""
        key = factory.__name__
        index = self._next.get(key, 0)
        undo.setitem(self._next, key, index + 1)
        return factory(index)

    def reserve(self, factory, count: int) -> list[str]:
        """Allocate ``count`` consecutive ids at once."""
        return [self.allocate(factory) for _ in range(count)]
