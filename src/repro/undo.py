"""One undo scope per command: a command that raises leaves no trace.

The journal records only commands that commit, so replay parity needs
every failed command to leave the stack exactly as it found it.  That
contract lives here, once.  Every public mutation enters a frame
(:meth:`repro.service.journal.OpRecorder.operation`, or the no-op
recorder's frame when no journal is attached); the outermost frame opens
the scope, and each frame is a savepoint in it.

While a scope is open, each mutable store logs an inverse at its own
mutation primitive through :func:`push` (or the dict, set and list
helpers below), always *before* it mutates, so a failure at any point
leaves no inverse of a change that did not happen.  An inverse restores
saved values instead of recomputing them: a free-capacity vector
released in another order than it was reserved differs in its last
bits, so undoing a reservation puts back the vector that stood before
it.  A frame that exits cleanly keeps its entries for the enclosing
frame (the outermost drops them); a frame that raises runs its own
entries newest first and re-raises.  Work that must wait for the scope
to commit — a journal frame's flush, when the frame is nested in an
enclosing undo frame — is held by :func:`defer`.

Derived memos — the path engine's CSR arrays, the orchestrator's
segment memo and cluster contexts — are never logged: they are keyed on
the state they derive from, so a restored state finds them valid or
rebuilds them.  Nothing is logged while no scope is open, so code that
mutates a store outside any command pays one global read per mutation.

The scope is process-wide, not per stack: a store logs without holding
a reference to it, so no constructor or snapshot carries one.  Commands
run one at a time on one thread, as the journal recorder's frame depth
already assumes.

An inverse that restores a deleted key puts it back at the end of its
dict's iteration order; every reader of the logged stores orders by id
or looks keys up, so the order does not show.
"""

from __future__ import annotations

#: The open scope's inverses as ``(function, *args)``, oldest first;
#: ``None`` outside every command and while a frame unwinds.
_log: list | None = None
#: ``len(_log)`` at the entry of each open frame, innermost last.
_savepoints: list[int] = []
#: What the open scope runs once it commits, as ``(function, *args)``,
#: oldest first (:func:`defer`).
_commits: list = []

_MISSING = object()


def push(entry: tuple) -> None:
    """Log ``entry``, a ``(function, *args)`` tuple, to be called as
    ``function(*args)`` if the open frame raises.

    A no-op outside every command.  Entries logged while a frame
    unwinds are dropped, so nothing an inverse does is logged again.
    """
    if _log is not None:
        _log.append(entry)


def enter() -> None:
    """Open a frame: a new scope at the outermost level, else a
    savepoint in the open one."""
    global _log
    if not _savepoints:
        _log = []
    _savepoints.append(len(_log) if _log is not None else 0)


def leave(failed: bool) -> None:
    """Close the innermost frame, unwinding its entries when ``failed``.

    Closing the outermost frame closes the scope: then the work
    :func:`defer` held back runs, in order, unless the scope unwound.
    """
    global _log
    start = _savepoints.pop()
    log = _log
    commits = ()
    try:
        if failed and log is not None:
            entries = log[start:]
            del log[start:]
            _log = None
            for entry in reversed(entries):
                entry[0](*entry[1:])
    finally:
        _log = log if _savepoints else None
        if _commits and not _savepoints:
            commits = _commits[:]
            del _commits[:]
    if not failed:
        for entry in commits:
            entry[0](*entry[1:])


def defer(entry: tuple) -> bool:
    """Hold ``entry``, a ``(function, *args)`` tuple, until the open
    scope commits; returns False, running nothing, when no scope is
    open.

    The entry is dropped if the frame open now unwinds: what commits
    with the scope (a journal write) must not outlive a change the
    scope takes back.
    """
    if not _savepoints:
        return False
    if _log is not None:
        _log.append((list.pop, _commits))
    _commits.append(entry)
    return True


# ----------------------------------------------------------------------
# Logged container mutations
# ----------------------------------------------------------------------
def setitem(mapping: dict, key, value) -> None:
    """``mapping[key] = value``, logging the old value (or absence)."""
    if _log is not None:
        old = mapping.get(key, _MISSING)
        if old is _MISSING:
            _log.append((dict.pop, mapping, key))
        else:
            _log.append((dict.__setitem__, mapping, key, old))
    mapping[key] = value


def pop(mapping: dict, key):
    """``mapping.pop(key)`` (raising ``KeyError`` when absent), logging
    the removed value."""
    value = mapping[key]
    if _log is not None:
        _log.append((dict.__setitem__, mapping, key, value))
    del mapping[key]
    return value


def add(members: set, member) -> None:
    """``members.add(member)``, logged when it adds."""
    if member not in members:
        if _log is not None:
            _log.append((set.discard, members, member))
        members.add(member)


def discard(members: set, member) -> None:
    """``members.discard(member)``, logged when it removes."""
    if member in members:
        if _log is not None:
            _log.append((set.add, members, member))
        members.discard(member)


def append(items: list, item) -> None:
    """``items.append(item)``, logged."""
    if _log is not None:
        _log.append((list.pop, items))
    items.append(item)


def save_random(rng) -> None:
    """Log ``rng``'s state (a :class:`random.Random`) before a draw, so
    an unwound command leaves the generator where it found it."""
    if _log is not None:
        _log.append((rng.setstate, rng.getstate()))
