"""Placement state moved by a failed command is rewound with it.

The round-robin cursor, the random strategy's generator and the random
AL strategy's generator change as a command draws from them; a command
that raises must leave them where it found them, so later placements
equal those of a history without the failed command.
"""

from __future__ import annotations

import pytest

from repro.core.abstraction_layer import AlConstructionStrategy, AlConstructor
from repro.exceptions import PlacementError
from repro.service.journal import NULL_RECORDER
from repro.service.snapshot import state_digest
from repro.stack import AlvcStack
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.vm_placement import PlacementStrategy


def _build(strategy: PlacementStrategy) -> AlvcStack:
    return AlvcStack.build(
        n_racks=2, servers_per_rack=2, n_ops=4, placement_strategy=strategy
    )


def _hosts(stack: AlvcStack, vms) -> list[str]:
    return [stack.inventory.host_of(vm.vm_id) for vm in vms]


def test_failed_populate_rewinds_the_round_robin_cursor():
    stack = _build(PlacementStrategy.ROUND_ROBIN)
    with pytest.raises(PlacementError):
        stack.populate("web", 10000)
    assert stack.inventory.all_vms() == []
    assert stack.engine._rr_cursor == 0


@pytest.mark.parametrize(
    "strategy", [PlacementStrategy.ROUND_ROBIN, PlacementStrategy.RANDOM]
)
def test_next_placement_ignores_a_failed_populate(strategy):
    failed, twin = _build(strategy), _build(strategy)
    with pytest.raises(PlacementError):
        failed.populate("web", 10000)
    assert _hosts(failed, failed.populate("web", 5)) == _hosts(
        twin, twin.populate("web", 5)
    )
    assert state_digest(failed) == state_digest(twin)


class _Unwind(Exception):
    pass


def test_unwound_random_cover_rewinds_its_generator():
    fabric = build_alvc_fabric(n_racks=4, servers_per_rack=4, n_ops=8)
    servers = fabric.servers()[:10]

    def constructor() -> AlConstructor:
        return AlConstructor(
            fabric, strategy=AlConstructionStrategy.RANDOM, seed=5
        )

    rewound, twin, drifted = constructor(), constructor(), constructor()
    with pytest.raises(_Unwind):
        with NULL_RECORDER.operation():
            rewound.construct_for_servers("c-0", servers)
            raise _Unwind
    drifted.construct_for_servers("c-0", servers)
    expected = twin.construct_for_servers("c-0", servers)
    assert rewound.construct_for_servers("c-0", servers) == expected
    # The check has teeth: a second draw differs from the first.
    assert drifted.construct_for_servers("c-0", servers) != expected
