"""VNF lifecycle state machine.

Section IV.B: the Cloud/NFV manager handles "VNF creation, scaling,
termination, and update events during the life cycle of VNF".  Every
transition is validated and counted per target state so orchestration
experiments can count management actions.

Only live VNFs are held: termination is counted and drops the VNF, so
the manager's memory follows the live set, not the history of every
VNF ever launched.  A terminated id is unknown.
"""

from __future__ import annotations

import enum

from repro import undo
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


# Legal transitions between live states: the paper's creation / scaling /
# update events.  SCALING and UPDATING are transient management states that
# return to RUNNING.  Termination is legal from every live state and leaves
# no state behind (VnfLifecycleManager.terminate).
_TRANSITIONS: dict[VnfState, frozenset[VnfState]] = {
    VnfState.INSTANTIATED: frozenset({VnfState.RUNNING}),
    VnfState.RUNNING: frozenset({VnfState.SCALING, VnfState.UPDATING}),
    VnfState.SCALING: frozenset({VnfState.RUNNING}),
    VnfState.UPDATING: frozenset({VnfState.RUNNING}),
}


class VnfLifecycleManager:
    """Tracks the lifecycle state of every live VNF instance.

    Every transition is checked against the state machine and counted
    under its target state; termination is counted and drops the VNF
    (:meth:`terminate`).
    """

    def __init__(self) -> None:
        # Live VNFs only: TERMINATED is counted, never stored.
        self._states: dict[VnfId, VnfState] = {}
        # Transitions into each state, keyed in first-occurrence order.
        self._counts: dict[VnfState, int] = {}

    def __setstate__(self, state: dict) -> None:
        # Pickled while terminated VNFs were kept: drop them.
        states = state["_states"]
        state["_states"] = {
            vnf: current
            for vnf, current in states.items()
            if current is not VnfState.TERMINATED
        }
        self.__dict__.update(state)

    def create(self, vnf: VnfId) -> None:
        """Register a new VNF in the INSTANTIATED state."""
        if vnf in self._states:
            raise LifecycleError(f"{vnf} already exists")
        to = VnfState.INSTANTIATED
        counts = self._counts
        undo.push((self._restore, vnf, None, to, counts.get(to)))
        self._states[vnf] = to
        counts[to] = counts.get(to, 0) + 1

    def launch(self, vnf: VnfId) -> None:
        """:meth:`create` then :meth:`start`, as one step: both
        transitions are counted, and one inverse undoes them."""
        if vnf in self._states:
            raise LifecycleError(f"{vnf} already exists")
        created, running = VnfState.INSTANTIATED, VnfState.RUNNING
        counts = self._counts
        undo.push((
            self._unlaunch, vnf, counts.get(created), counts.get(running)
        ))
        self._states[vnf] = running
        counts[created] = counts.get(created, 0) + 1
        counts[running] = counts.get(running, 0) + 1

    def _unlaunch(
        self, vnf: VnfId, created: int | None, running: int | None
    ) -> None:
        """Undo one :meth:`launch`."""
        self._restore(vnf, None, VnfState.RUNNING, running)
        if created is None:
            del self._counts[VnfState.INSTANTIATED]
        else:
            self._counts[VnfState.INSTANTIATED] = created

    def transition(self, vnf: VnfId, to: VnfState) -> None:
        """Move a VNF to a new state, enforcing legality (TERMINATED
        is :meth:`terminate`)."""
        if to is VnfState.TERMINATED:
            self.terminate(vnf)
            return
        current = self.state_of(vnf)
        if to not in _TRANSITIONS[current]:
            raise LifecycleError(
                f"illegal transition {current.value} -> {to.value} for {vnf}"
            )
        counts = self._counts
        undo.push((self._restore, vnf, current, to, counts.get(to)))
        self._states[vnf] = to
        counts[to] = counts.get(to, 0) + 1

    def _restore(
        self,
        vnf: VnfId,
        state: VnfState | None,
        counted: VnfState,
        count: int | None,
    ) -> None:
        """Undo one :meth:`create` or :meth:`transition`: a VNF or a
        count it made is dropped."""
        if state is None:
            del self._states[vnf]
        else:
            self._states[vnf] = state
        if count is None:
            del self._counts[counted]
        else:
            self._counts[counted] = count

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
        """Any live state → TERMINATED: counted, and the VNF dropped."""
        undo.push(self._terminating(vnf))
        self._drop(vnf)

    def _terminating(self, vnf: VnfId) -> tuple:
        """The inverse of terminating ``vnf``, as an undo entry.

        Every held state is live and may terminate, so the lookup is
        the only check.  Split from :meth:`_drop` so the NFV manager can
        fold this inverse into its own one entry per termination.

        Raises:
            UnknownEntityError: on an unknown (or terminated) VNF.
        """
        to = VnfState.TERMINATED
        return (
            self._restore, vnf, self.state_of(vnf), to, self._counts.get(to)
        )

    def _drop(self, vnf: VnfId) -> None:
        """Terminate ``vnf`` unlogged (see :meth:`_terminating`)."""
        del self._states[vnf]
        counts = self._counts
        to = VnfState.TERMINATED
        counts[to] = counts.get(to, 0) + 1

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
        return sorted(self._states)

    def event_counts(self) -> dict[str, int]:
        """Number of transitions into each state (for reports)."""
        return {state.value: count for state, count in self._counts.items()}
