"""VNF lifecycle state machine.

Section IV.B: the Cloud/NFV manager handles "VNF creation, scaling,
termination, and update events during the life cycle of VNF".  Every
transition is validated and counted per target state so orchestration
experiments can count management actions.
"""

from __future__ import annotations

import enum

from repro.exceptions import LifecycleError, UnknownEntityError
from repro.ids import VnfId


class VnfState(enum.Enum):
    """States a VNF instance moves through."""

    INSTANTIATED = "instantiated"
    RUNNING = "running"
    SCALING = "scaling"
    UPDATING = "updating"
    TERMINATED = "terminated"

    # Members are singletons, so identity hashing is exact; it skips
    # Enum.__hash__, a Python-level call, on every counted transition.
    __hash__ = object.__hash__


# Legal transitions: the paper's creation / scaling / update / termination
# events.  SCALING and UPDATING are transient management states that return
# to RUNNING.
_TRANSITIONS: dict[VnfState, frozenset[VnfState]] = {
    VnfState.INSTANTIATED: frozenset({VnfState.RUNNING, VnfState.TERMINATED}),
    VnfState.RUNNING: frozenset(
        {VnfState.SCALING, VnfState.UPDATING, VnfState.TERMINATED}
    ),
    VnfState.SCALING: frozenset({VnfState.RUNNING, VnfState.TERMINATED}),
    VnfState.UPDATING: frozenset({VnfState.RUNNING, VnfState.TERMINATED}),
    VnfState.TERMINATED: frozenset(),
}


class VnfLifecycleManager:
    """Tracks the lifecycle state of every VNF instance.

    All mutations go through :meth:`transition`, which enforces the state
    machine and counts the transition under its target state.
    """

    def __init__(self) -> None:
        self._states: dict[VnfId, VnfState] = {}
        # Transitions into each state, keyed in first-occurrence order.
        self._counts: dict[VnfState, int] = {}

    def create(self, vnf: VnfId) -> None:
        """Register a new VNF in the INSTANTIATED state."""
        if vnf in self._states:
            raise LifecycleError(f"{vnf} already exists")
        self._states[vnf] = VnfState.INSTANTIATED
        counts = self._counts
        counts[VnfState.INSTANTIATED] = (
            counts.get(VnfState.INSTANTIATED, 0) + 1
        )

    def transition(self, vnf: VnfId, to: VnfState) -> None:
        """Move a VNF to a new state, enforcing legality."""
        current = self.state_of(vnf)
        if to not in _TRANSITIONS[current]:
            raise LifecycleError(
                f"illegal transition {current.value} -> {to.value} for {vnf}"
            )
        self._states[vnf] = to
        self._counts[to] = self._counts.get(to, 0) + 1

    # Convenience wrappers naming the paper's lifecycle events -----------
    def start(self, vnf: VnfId) -> None:
        """INSTANTIATED → RUNNING."""
        self.transition(vnf, VnfState.RUNNING)

    def scale(self, vnf: VnfId) -> None:
        """RUNNING → SCALING (complete with :meth:`finish_management`)."""
        self.transition(vnf, VnfState.SCALING)

    def update(self, vnf: VnfId) -> None:
        """RUNNING → UPDATING (complete with :meth:`finish_management`)."""
        self.transition(vnf, VnfState.UPDATING)

    def finish_management(self, vnf: VnfId) -> None:
        """SCALING/UPDATING → RUNNING."""
        self.transition(vnf, VnfState.RUNNING)

    def terminate(self, vnf: VnfId) -> None:
        """Any live state → TERMINATED."""
        self.transition(vnf, VnfState.TERMINATED)

    def discard(self, vnf: VnfId) -> None:
        """Forget a VNF entirely (the rollback half of a failed command).

        Unlike :meth:`terminate`, which keeps the id on record in the
        TERMINATED state, this erases it — a transaction that failed and
        returned its ids to the allocator must leave no trace, or the
        re-allocated ids would trip :meth:`create`'s duplicate check.
        Unknown ids are ignored.  Pair it with :meth:`rewind_counts` to
        take back the transitions too.
        """
        self._states.pop(vnf, None)

    def count_marks(self) -> dict[VnfState, int]:
        """Snapshot the transition counts (pair with :meth:`rewind_counts`)."""
        return dict(self._counts)

    def rewind_counts(self, marks: dict[VnfState, int]) -> None:
        """Rewind the transition counts to a :meth:`count_marks` snapshot.

        A failed command journals nothing, so replay never counts its
        transitions; the live counts must forget them as well.
        """
        self._counts = dict(marks)

    # Queries -------------------------------------------------------------
    def state_of(self, vnf: VnfId) -> VnfState:
        """Current state of a VNF."""
        try:
            return self._states[vnf]
        except KeyError:
            raise UnknownEntityError("vnf", vnf) from None

    def __contains__(self, vnf: VnfId) -> bool:
        return vnf in self._states

    def live_vnfs(self) -> list[VnfId]:
        """Ids of VNFs not yet terminated, sorted."""
        return sorted(
            vnf
            for vnf, state in self._states.items()
            if state is not VnfState.TERMINATED
        )

    def event_counts(self) -> dict[str, int]:
        """Number of transitions into each state (for reports)."""
        return {state.value: count for state, count in self._counts.items()}
