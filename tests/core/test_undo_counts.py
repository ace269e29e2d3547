"""How many undo entries a committed command logs.

Every public mutation logs one inverse (:mod:`repro.undo`), and a
committed command pays for each.  These counts pin that cost per
provision and per teardown of each chain shape the chain-stream
benchmark runs, so a change that adds inverses to the control path has
to update them on purpose.  A shape's VNFs land optically or in carrier
VMs, so the counts also pin where they land.
"""

from __future__ import annotations

import pytest

from repro import undo
from repro.stack import AlvcStack


class _CountingLog(list):
    def __init__(self, counts: list[int]) -> None:
        super().__init__()
        self._counts = counts

    def append(self, entry) -> None:
        self._counts[-1] += 1
        super().append(entry)


def _count(monkeypatch, command) -> int:
    """Entries ``command()`` logs across its outermost frames."""
    counts = [0]
    enter = undo.enter

    def counting_enter() -> None:
        enter()
        if len(undo._savepoints) == 1:
            undo._log = _CountingLog(counts)

    with monkeypatch.context() as patch:
        patch.setattr(undo, "enter", counting_enter)
        command()
    return counts[0]


@pytest.fixture
def stack(tmp_path):
    stack = AlvcStack.build(
        n_racks=4,
        servers_per_rack=4,
        n_ops=6,
        vms_per_service=3,
        exclusive_chains=False,
        journal=tmp_path / "journal.alvc",
        sync="off",
    )
    stack.provision(("nat",), service="web")  # the slice is shared after
    yield stack
    stack.journal.close()


#: shape -> (entries per provision, entries per teardown).  An optical
#: VNF logs 4 on provision (its id, the router's booking, the instance
#: and its launch) and 2 on teardown (its lifecycle, the booking); a
#: carrier-VM VNF logs 6 (the VM's id, the VM, its placement, the VNF's
#: id, the instance, its launch) and 3 (its lifecycle, the carrier, the
#: VM).  The chain adds its flow rules when its path has a link, one
#: commit of the orchestrator's stores, and on provision its id serial.
#: ``dpi`` and ``ids`` run in carrier VMs, the other functions
#: optically.
ENTRIES = {
    ("firewall", "nat"): (4 + 4 + 3, 2 + 2 + 2),
    ("dpi",): (6 + 2, 3 + 1),
    ("proxy", "ids"): (4 + 6 + 3, 2 + 3 + 2),
    ("nat",): (4 + 3, 2 + 2),
}


@pytest.mark.parametrize("shape", list(ENTRIES))
def test_entries_per_committed_command(stack, monkeypatch, shape):
    provisioned = []
    logged = _count(
        monkeypatch,
        lambda: provisioned.append(stack.provision(shape, service="web")),
    )
    chain_id = provisioned[0].chain_id
    torn = _count(monkeypatch, lambda: stack.teardown(chain_id))
    assert (logged, torn) == ENTRIES[shape]
