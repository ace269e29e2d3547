"""Wavelength assignment for optical slices.

When the orchestrator "logically divide[s] the optical network into virtual
slices" (Section IV.B), slices sharing an optical link must use distinct
wavelengths.  The assigner gives each slice one wavelength index per OPS it
uses, reusing indices across disjoint slices — a first-fit colouring over
the slice-conflict graph.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from repro import undo
from repro.exceptions import SlicingError
from repro.ids import OpsId, SliceId


@dataclasses.dataclass(frozen=True, slots=True)
class WavelengthAssignment:
    """The wavelength index granted to one slice on each of its switches."""

    slice_id: SliceId
    wavelength: int
    switches: frozenset


class WavelengthAssigner:
    """Assigns wavelengths to slices with per-switch capacity limits.

    Two slices may share a wavelength index only if their switch sets are
    disjoint.  Since AL-VC slices are OPS-disjoint by construction (one OPS
    cannot be part of two ALs), the common case assigns wavelength 0 to
    every slice; overlap support exists for non-AL uses of the assigner.
    """

    def __init__(self, wavelengths_per_switch: Mapping[OpsId, int]) -> None:
        for ops, count in wavelengths_per_switch.items():
            if count <= 0:
                raise SlicingError(
                    f"{ops} must offer at least 1 wavelength, got {count}"
                )
        self._capacity = dict(wavelengths_per_switch)
        self._assignments: dict[SliceId, WavelengthAssignment] = {}

    @classmethod
    def from_network(cls, dcn) -> "WavelengthAssigner":
        """Assigner over all OPSs of a fabric, using their spec capacity."""
        return cls(
            {
                ops: dcn.spec_of(ops).wavelengths
                for ops in dcn.optical_switches()
            }
        )

    def assign(
        self, slice_id: SliceId, switches: Iterable[OpsId]
    ) -> WavelengthAssignment:
        """Grant the slice the lowest wavelength free on all its switches.

        Raises:
            SlicingError: if the slice is already assigned, uses an unknown
                switch, or no common wavelength index is free.
        """
        if slice_id in self._assignments:
            raise SlicingError(f"slice {slice_id} already has a wavelength")
        switch_set = frozenset(switches)
        if not switch_set:
            raise SlicingError(f"slice {slice_id} uses no switches")
        unknown = switch_set - self._capacity.keys()
        if unknown:
            raise SlicingError(
                f"slice {slice_id} uses unknown switches: {sorted(unknown)}"
            )
        taken: set[int] = set()
        for assignment in self._assignments.values():
            if assignment.switches & switch_set:
                taken.add(assignment.wavelength)
        limit = min(self._capacity[ops] for ops in switch_set)
        wavelength = next(
            (index for index in range(limit) if index not in taken), None
        )
        if wavelength is None:
            raise SlicingError(
                f"no free wavelength for slice {slice_id} "
                f"(limit {limit}, taken {sorted(taken)})"
            )
        assignment = WavelengthAssignment(
            slice_id=slice_id, wavelength=wavelength, switches=switch_set
        )
        undo.setitem(self._assignments, slice_id, assignment)
        return assignment

    def extend(
        self, slice_id: SliceId, extra_switches: Iterable[OpsId]
    ) -> WavelengthAssignment:
        """Grow a slice's switch set, keeping its wavelength.

        The existing wavelength index must be available on every added
        switch (within its capacity and unused by overlapping slices).

        Raises:
            SlicingError: when the slice is unknown, a switch is unknown,
                or the wavelength is unavailable on an added switch.
        """
        current = self.assignment_of(slice_id)
        additions = frozenset(extra_switches) - current.switches
        if not additions:
            return current
        unknown = additions - self._capacity.keys()
        if unknown:
            raise SlicingError(
                f"slice {slice_id} extension uses unknown switches: "
                f"{sorted(unknown)}"
            )
        for ops in additions:
            if current.wavelength >= self._capacity[ops]:
                raise SlicingError(
                    f"wavelength {current.wavelength} exceeds {ops}'s "
                    f"capacity {self._capacity[ops]}"
                )
        for other in self._assignments.values():
            if other.slice_id == slice_id:
                continue
            if other.switches & additions and (
                other.wavelength == current.wavelength
            ):
                raise SlicingError(
                    f"wavelength {current.wavelength} already used by "
                    f"{other.slice_id} on the added switches"
                )
        extended = WavelengthAssignment(
            slice_id=slice_id,
            wavelength=current.wavelength,
            switches=current.switches | additions,
        )
        undo.setitem(self._assignments, slice_id, extended)
        return extended

    def release(self, slice_id: SliceId) -> None:
        """Return a slice's wavelength to the pool."""
        if slice_id not in self._assignments:
            raise SlicingError(f"slice {slice_id} has no wavelength assignment")
        undo.pop(self._assignments, slice_id)

    def assignment_of(self, slice_id: SliceId) -> WavelengthAssignment:
        """The assignment of one slice."""
        try:
            return self._assignments[slice_id]
        except KeyError:
            raise SlicingError(
                f"slice {slice_id} has no wavelength assignment"
            ) from None

    def assignments(self) -> list[WavelengthAssignment]:
        """All active assignments, sorted by slice id."""
        return [self._assignments[key] for key in sorted(self._assignments)]
