"""Exception hierarchy for the AL-VC library.

Every error raised by the library derives from :class:`ALVCError`, so callers
can catch a single base class at API boundaries while still being able to
distinguish configuration mistakes from runtime resource exhaustion.
"""

from __future__ import annotations


class ALVCError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ALVCError, ValueError):
    """A caller-supplied value fails domain validation.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    call sites keep working, while new code can catch :class:`ALVCError`
    at API boundaries — no bare built-in exceptions leak from public
    paths.
    """


class TelemetryError(ALVCError):
    """The observability subsystem was used inconsistently.

    Raised for malformed metric names, kind conflicts (registering one
    name as both counter and gauge), negative counter increments, and
    unknown telemetry modes.
    """


class TopologyError(ALVCError):
    """The physical topology is malformed or an element is missing."""


class UnknownEntityError(ALVCError):
    """An id does not refer to any known entity."""

    def __init__(self, kind: str, entity_id: object) -> None:
        self.kind = kind
        self.entity_id = entity_id
        super().__init__(f"unknown {kind}: {entity_id!r}")


class DuplicateEntityError(ALVCError):
    """An entity with the same id already exists."""

    def __init__(self, kind: str, entity_id: object) -> None:
        self.kind = kind
        self.entity_id = entity_id
        super().__init__(f"duplicate {kind}: {entity_id!r}")


class InsufficientResourcesError(ALVCError):
    """A request cannot be satisfied with the remaining physical resources.

    Raised, for example, when abstraction-layer construction runs out of
    unassigned optical switches (the paper forbids sharing one OPS between
    two abstraction layers), or when a VNF does not fit on any
    optoelectronic router.
    """


class CoverInfeasibleError(InsufficientResourcesError):
    """No subset of the candidate sets can cover the requested universe."""

    def __init__(self, uncovered: frozenset) -> None:
        self.uncovered = uncovered
        super().__init__(
            f"cover infeasible: {len(uncovered)} element(s) cannot be covered "
            f"by any candidate (sample: {sorted(map(str, uncovered))[:5]})"
        )


class PlacementError(ALVCError):
    """A VNF or VM placement request could not be satisfied."""


class ChainValidationError(ALVCError):
    """A network function chain definition is invalid."""


class SlicingError(ALVCError):
    """An optical slice could not be allocated or is used inconsistently."""


class LifecycleError(ALVCError):
    """An illegal VNF lifecycle transition was requested."""


class SimulationError(ALVCError):
    """The discrete-event simulation was driven incorrectly."""


class RepeatedLinkError(SimulationError):
    """A flow's route crosses some link more than once.

    The data plane water-fills loop-free routes only: every route the
    simulator installs is a simple path, so a route that repeats a link
    is refused before the fair-share engine reserves, interns or counts
    anything for it.
    """


class RoutingError(ALVCError):
    """No feasible path exists for a routing request."""


class JournalError(ALVCError):
    """A state-journal record could not be written or validated."""


class JournalCorruptError(JournalError):
    """The journal file's framing or checksums are unreadable."""


class SnapshotError(ALVCError):
    """A state snapshot could not be written, read, or verified."""
