"""Tests for the VNF lifecycle state machine."""

import pytest

from repro.exceptions import LifecycleError, UnknownEntityError
from repro.nfv.lifecycle import VnfLifecycleManager, VnfState
from repro.service.journal import NULL_RECORDER


@pytest.fixture
def manager():
    return VnfLifecycleManager()


class TestCreation:
    def test_create_starts_instantiated(self, manager):
        manager.create("vnf-0")
        assert manager.state_of("vnf-0") is VnfState.INSTANTIATED

    def test_duplicate_create_rejected(self, manager):
        manager.create("vnf-0")
        with pytest.raises(LifecycleError):
            manager.create("vnf-0")

    def test_create_counted(self, manager):
        assert manager.create("vnf-0") is None
        assert manager.event_counts() == {"instantiated": 1}


class TestTransitions:
    def test_full_happy_path(self, manager):
        manager.create("vnf-0")
        manager.start("vnf-0")
        manager.scale("vnf-0")
        manager.finish_management("vnf-0")
        manager.update("vnf-0")
        manager.finish_management("vnf-0")
        manager.terminate("vnf-0")
        # Termination is counted and drops the VNF: its id is unknown.
        assert manager.event_counts()["terminated"] == 1
        assert "vnf-0" not in manager
        with pytest.raises(UnknownEntityError):
            manager.state_of("vnf-0")

    def test_cannot_scale_before_running(self, manager):
        manager.create("vnf-0")
        with pytest.raises(LifecycleError):
            manager.scale("vnf-0")

    def test_cannot_update_while_scaling(self, manager):
        manager.create("vnf-0")
        manager.start("vnf-0")
        manager.scale("vnf-0")
        with pytest.raises(LifecycleError):
            manager.update("vnf-0")

    def test_terminated_is_final(self, manager):
        manager.create("vnf-0")
        manager.terminate("vnf-0")
        with pytest.raises(UnknownEntityError):
            manager.start("vnf-0")
        assert "vnf-0" not in manager
        assert manager.event_counts() == {"instantiated": 1, "terminated": 1}

    def test_terminate_from_any_live_state(self, manager):
        for index, prepare in enumerate(
            [
                lambda m, v: None,
                lambda m, v: m.start(v),
                lambda m, v: (m.start(v), m.scale(v)),
                lambda m, v: (m.start(v), m.update(v)),
            ]
        ):
            vnf = f"vnf-{index}"
            manager.create(vnf)
            prepare(manager, vnf)
            manager.terminate(vnf)
            assert vnf not in manager
            assert manager.event_counts()["terminated"] == index + 1
        assert manager.live_vnfs() == []

    def test_unknown_vnf_raises(self, manager):
        with pytest.raises(UnknownEntityError):
            manager.state_of("vnf-9")
        with pytest.raises(UnknownEntityError):
            manager.start("vnf-9")


class TestJournal:
    def test_counts_keyed_in_first_transition_order(self, manager):
        manager.create("vnf-0")
        manager.start("vnf-0")
        manager.terminate("vnf-0")
        manager.create("vnf-1")
        assert list(manager.event_counts().items()) == [
            ("instantiated", 2),
            ("running", 1),
            ("terminated", 1),
        ]

    def test_event_counts(self, manager):
        manager.create("vnf-0")
        manager.start("vnf-0")
        manager.scale("vnf-0")
        manager.finish_management("vnf-0")
        counts = manager.event_counts()
        assert counts["instantiated"] == 1
        assert counts["running"] == 2  # start + finish_management
        assert counts["scaling"] == 1

    def test_rewind_counts_restores_a_mark(self, manager):
        manager.create("vnf-0")
        with pytest.raises(LifecycleError), NULL_RECORDER.operation():
            manager.start("vnf-0")
            manager.scale("vnf-0")
            manager.create("vnf-1")
            manager.create("vnf-1")  # a duplicate: the frame unwinds
        assert manager.state_of("vnf-0") is VnfState.INSTANTIATED
        assert "vnf-1" not in manager
        assert manager.event_counts() == {"instantiated": 1}
        manager.create("vnf-1")
        assert manager.event_counts() == {"instantiated": 2}

    def test_live_vnfs_excludes_terminated(self, manager):
        manager.create("vnf-0")
        manager.create("vnf-1")
        manager.terminate("vnf-0")
        assert manager.live_vnfs() == ["vnf-1"]

    def test_contains(self, manager):
        manager.create("vnf-0")
        assert "vnf-0" in manager
        assert "vnf-1" not in manager


class TestIllegalTransitionPaths:
    """Rejected transitions must neither move state nor touch the journal."""

    def test_double_start_rejected(self, manager):
        manager.create("vnf-0")
        manager.start("vnf-0")
        with pytest.raises(LifecycleError):
            manager.start("vnf-0")
        assert manager.state_of("vnf-0") is VnfState.RUNNING

    def test_finish_management_while_running_rejected(self, manager):
        manager.create("vnf-0")
        manager.start("vnf-0")
        with pytest.raises(LifecycleError):
            manager.finish_management("vnf-0")
        assert manager.state_of("vnf-0") is VnfState.RUNNING

    def test_double_terminate_rejected(self, manager):
        manager.create("vnf-0")
        manager.terminate("vnf-0")
        with pytest.raises(UnknownEntityError):
            manager.terminate("vnf-0")
        # The refused second terminate is not counted.
        assert manager.event_counts()["terminated"] == 1

    def test_update_before_start_rejected(self, manager):
        manager.create("vnf-0")
        with pytest.raises(LifecycleError):
            manager.update("vnf-0")
        assert manager.state_of("vnf-0") is VnfState.INSTANTIATED

    def test_rejected_transition_leaves_no_count(self, manager):
        manager.create("vnf-0")
        before = manager.event_counts()
        with pytest.raises(LifecycleError):
            manager.scale("vnf-0")
        assert manager.event_counts() == before

    def test_error_names_both_states(self, manager):
        manager.create("vnf-0")
        manager.start("vnf-0")
        manager.scale("vnf-0")
        with pytest.raises(LifecycleError) as excinfo:
            manager.update("vnf-0")
        message = str(excinfo.value)
        assert "scaling" in message and "updating" in message
        # A terminated VNF is gone, so its error names the id instead.
        manager.terminate("vnf-0")
        with pytest.raises(UnknownEntityError) as excinfo:
            manager.start("vnf-0")
        assert "vnf-0" in str(excinfo.value)
