"""Classification of lingering goroutines into the paper's Table IV taxonomy."""

from __future__ import annotations

import enum
from collections import Counter
from typing import Dict, Iterable

from repro.profiling import GoroutineRecord
from repro.runtime.goroutine import (
    EXTERNALLY_WAKEABLE_STATES,
    GoroutineState,
)


class BlockType(enum.Enum):
    """Rows of Table IV: what a non-terminated goroutine is stuck on."""

    CHAN_RECV = "chan receive (non-nil chan)"
    CHAN_RECV_NIL = "chan receive (nil chan)"
    CHAN_SEND = "chan send (non-nil chan)"
    CHAN_SEND_NIL = "chan send (nil chan)"
    SELECT = "select (>0 cases)"
    SELECT_NO_CASES = "select (0 cases)"
    IO_WAIT = "IO wait"
    SYSCALL = "System call"
    SLEEP = "Sleep"
    RUNNING = "Running/Runnable"
    COND_WAIT = "Condition Wait"
    SEMACQUIRE = "Semaphore Acquire"


#: BlockTypes that are message-passing partial-deadlock candidates.
MESSAGE_PASSING_TYPES = frozenset(
    {
        BlockType.CHAN_RECV,
        BlockType.CHAN_RECV_NIL,
        BlockType.CHAN_SEND,
        BlockType.CHAN_SEND_NIL,
        BlockType.SELECT,
        BlockType.SELECT_NO_CASES,
    }
)

#: BlockTypes that *guarantee* a partial deadlock (paper Section VI-D).
GUARANTEED_DEADLOCK_TYPES = frozenset(
    {
        BlockType.CHAN_RECV_NIL,
        BlockType.CHAN_SEND_NIL,
        BlockType.SELECT_NO_CASES,
    }
)

#: States whose wakeup may come from outside the process, mapped to
#: their Table IV rows.  Derived from the scheduler's shared
#: ``EXTERNALLY_WAKEABLE_STATES`` — the deadlock detector, goleak, and
#: the repro.gc root set all consult the same predicate, never a second
#: hand-maintained list.
_EXTERNALLY_WAKEABLE_ROWS = {
    GoroutineState.IO_WAIT: BlockType.IO_WAIT,
    GoroutineState.SYSCALL: BlockType.SYSCALL,
}
assert set(_EXTERNALLY_WAKEABLE_ROWS) == EXTERNALLY_WAKEABLE_STATES

#: The same set at the BlockType level, for report consumers.
EXTERNALLY_WAKEABLE_TYPES = frozenset(_EXTERNALLY_WAKEABLE_ROWS.values())


def is_externally_wakeable(record: GoroutineRecord) -> bool:
    """Shared predicate: can something outside the process wake this?

    True exactly when the scheduler's global-deadlock check would also
    give the goroutine the benefit of the doubt.
    """
    return record.state in EXTERNALLY_WAKEABLE_STATES


# Module globals, not Enum class attributes: ``classify`` runs once per
# lingering record, and a class-attribute load costs a metaclass lookup.
_BLOCKED_RECV = GoroutineState.BLOCKED_RECV
_BLOCKED_SEND = GoroutineState.BLOCKED_SEND
_BLOCKED_SELECT = GoroutineState.BLOCKED_SELECT
_SLEEPING = GoroutineState.SLEEPING
_COND_WAIT = GoroutineState.COND_WAIT
_SEMACQUIRE = GoroutineState.SEMACQUIRE
_CHAN_RECV = BlockType.CHAN_RECV
_CHAN_RECV_NIL = BlockType.CHAN_RECV_NIL
_CHAN_SEND = BlockType.CHAN_SEND
_CHAN_SEND_NIL = BlockType.CHAN_SEND_NIL
_SELECT = BlockType.SELECT
_SELECT_NO_CASES = BlockType.SELECT_NO_CASES
_SLEEP = BlockType.SLEEP
_COND_WAIT_ROW = BlockType.COND_WAIT
_SEMACQUIRE_ROW = BlockType.SEMACQUIRE
_RUNNING_ROW = BlockType.RUNNING


def classify(record: GoroutineRecord) -> BlockType:
    """Map one lingering goroutine to its Table IV row."""
    state = record.state
    if state is _BLOCKED_RECV:
        if record.wait_detail == "nil":
            return _CHAN_RECV_NIL
        return _CHAN_RECV
    if state is _BLOCKED_SEND:
        if record.wait_detail == "nil":
            return _CHAN_SEND_NIL
        return _CHAN_SEND
    if state is _BLOCKED_SELECT:
        if record.wait_detail in ("0", None):
            return _SELECT_NO_CASES
        return _SELECT
    if state in EXTERNALLY_WAKEABLE_STATES:
        return _EXTERNALLY_WAKEABLE_ROWS[state]
    if state is _SLEEPING:
        return _SLEEP
    if state is _COND_WAIT:
        return _COND_WAIT_ROW
    if state is _SEMACQUIRE:
        return _SEMACQUIRE_ROW
    return _RUNNING_ROW


def census(records: Iterable[GoroutineRecord]) -> Dict[BlockType, int]:
    """Count lingering goroutines per block type (regenerates Table IV)."""
    counts: Counter = Counter(classify(record) for record in records)
    return {block_type: counts.get(block_type, 0) for block_type in BlockType}


def message_passing_share(counts: Dict[BlockType, int]) -> float:
    """Fraction of lingering goroutines stuck on message passing.

    The paper reports >80%: select 51% + chan receive 32% + chan send ~1.7%.
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    mp = sum(counts.get(bt, 0) for bt in MESSAGE_PASSING_TYPES)
    return mp / total
