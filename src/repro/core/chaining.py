"""Network function chains (paper Section IV.A).

"An NFC is defined as a set of Network Functions (NFs), packet processing
order (simple or complex), network resource requirements (node and links),
and network forwarding graph."  :class:`NetworkFunctionChain` captures all
four: the ordered function list is the simple processing order, and
:meth:`forwarding_graph` derives the DAG form for complex orders.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.exceptions import ChainValidationError
from repro.ids import ChainId, TenantId
from repro.nfv.functions import NetworkFunctionType
from repro.topology.elements import ResourceVector

if TYPE_CHECKING:
    import networkx as nx


@dataclasses.dataclass(frozen=True)
class NetworkFunctionChain:
    """An ordered service chain of network function types.

    Attributes:
        chain_id: unique chain id.
        functions: the NFs in packet-processing order.  The same function
            type may appear more than once (each occurrence becomes its own
            VNF instance).
        bandwidth_gbps: link requirement of the chain's path.
        partial_order: declared precedence pairs ``(before, after)``
            between chain positions (arXiv 1705.10554's partial-order
            constraints).  The chain's sequence must already satisfy
            every pair — validation rejects a pair the fixed processing
            order violates, so both the greedy and exact placement paths
            honor the same contract (neither reorders a chain).
        anti_affinity: position pairs that must not share an
            optoelectronic router when both land in the optical domain
            (fault-isolation constraint); enforced by every placement
            algorithm, greedy and exact alike.
    """

    chain_id: ChainId
    functions: tuple[NetworkFunctionType, ...]
    bandwidth_gbps: float = 1.0
    partial_order: tuple[tuple[int, int], ...] = ()
    anti_affinity: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.functions:
            raise ChainValidationError(
                f"chain {self.chain_id} must contain at least one function"
            )
        if self.bandwidth_gbps <= 0:
            raise ChainValidationError(
                f"chain {self.chain_id} bandwidth must be positive, "
                f"got {self.bandwidth_gbps}"
            )
        for before, after in self.partial_order:
            self._check_position(before, "partial_order")
            self._check_position(after, "partial_order")
            if before >= after:
                raise ChainValidationError(
                    f"chain {self.chain_id} partial-order pair "
                    f"({before}, {after}) conflicts with the chain's "
                    f"processing order (position {before} does not "
                    f"precede {after})"
                )
        for first, second in self.anti_affinity:
            self._check_position(first, "anti_affinity")
            self._check_position(second, "anti_affinity")
            if first == second:
                raise ChainValidationError(
                    f"chain {self.chain_id} anti-affinity pair "
                    f"({first}, {second}) names the same position twice"
                )

    def _check_position(self, position: int, knob: str) -> None:
        if not isinstance(position, int) or isinstance(position, bool):
            raise ChainValidationError(
                f"chain {self.chain_id} {knob} positions must be ints, "
                f"got {position!r}"
            )
        if not 0 <= position < len(self.functions):
            raise ChainValidationError(
                f"chain {self.chain_id} {knob} position {position} is out "
                f"of range for a {len(self.functions)}-function chain"
            )

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self) -> Iterator[NetworkFunctionType]:
        return iter(self.functions)

    @property
    def function_names(self) -> tuple[str, ...]:
        """Names of the functions in processing order."""
        return tuple(function.name for function in self.functions)

    def total_demand(self) -> ResourceVector:
        """Aggregate node resource requirement of the chain."""
        return ResourceVector.total(
            function.demand for function in self.functions
        )

    def positions_of(self, function_name: str) -> list[int]:
        """Chain positions (0-based) where a function name occurs."""
        return [
            index
            for index, function in enumerate(self.functions)
            if function.name == function_name
        ]

    def forwarding_graph(self) -> nx.DiGraph:
        """The chain's network forwarding graph.

        Nodes are ``(position, function name)`` pairs plus the virtual
        ``"ingress"`` and ``"egress"`` endpoints; edges follow the packet
        processing order.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.chain_id)
        nodes = ["ingress"] + [
            (index, function.name)
            for index, function in enumerate(self.functions)
        ] + ["egress"]
        graph.add_nodes_from(nodes)
        graph.add_edges_from(zip(nodes, nodes[1:]))
        for before, after in self.partial_order:
            graph.add_edge(
                nodes[before + 1], nodes[after + 1], constraint="precedence"
            )
        return graph

    def anti_affinity_conflicts(self) -> dict[int, frozenset]:
        """Position -> positions it must not share an optical host with."""
        conflicts: dict[int, set] = {}
        for first, second in self.anti_affinity:
            conflicts.setdefault(first, set()).add(second)
            conflicts.setdefault(second, set()).add(first)
        return {
            position: frozenset(others)
            for position, others in conflicts.items()
        }

    @staticmethod
    def from_names(
        chain_id: ChainId,
        names: Sequence[str],
        catalog,
        bandwidth_gbps: float = 1.0,
        *,
        partial_order: Sequence[tuple[int, int]] = (),
        anti_affinity: Sequence[tuple[int, int]] = (),
    ) -> "NetworkFunctionChain":
        """Build a chain from function names using a catalog."""
        return NetworkFunctionChain(
            chain_id=chain_id,
            functions=tuple(catalog.get(name) for name in names),
            bandwidth_gbps=bandwidth_gbps,
            partial_order=tuple(
                (int(a), int(b)) for a, b in partial_order
            ),
            anti_affinity=tuple(
                (int(a), int(b)) for a, b in anti_affinity
            ),
        )


@dataclasses.dataclass(frozen=True)
class ChainRequest:
    """A tenant's request to orchestrate one NFC over one cluster.

    "Considering the per-user/per-application scenario, AL-VC can be
    modified in such a way that one VC host only one NFC" (Section IV.C):
    the request names the service whose cluster will carry the chain.

    Attributes:
        tenant: requesting tenant.
        chain: the chain to deploy.
        service: service name identifying the target cluster.
        flow_size_gb: expected size of a flow of this application, which
            scales the O/E/O conversion cost.
    """

    tenant: TenantId
    chain: NetworkFunctionChain
    service: str
    flow_size_gb: float = 1.0

    def __post_init__(self) -> None:
        if self.flow_size_gb <= 0:
            raise ChainValidationError(
                f"flow size must be positive, got {self.flow_size_gb}"
            )
