"""Goroutine profiles: instantaneous snapshots of every goroutine's stack.

This is the pprof analog LeakProf consumes.  A profile records, for each
goroutine, its wait state and a call stack whose top frames are the
*runtime* frames Go would show (Fig 4 of the paper)::

    runtime.gopark          <- blocked indicator
    runtime.chansend        <- send-operation sub-stack
    runtime.chansend1
    server.ComputeCost$1    <- sender function (the blocking user frame)

Grouping blocked goroutines by ``(state, blocking location)`` is the core
signal of the paper's Section V.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.runtime.goroutine import Goroutine, GoroutineState
from repro.runtime.stack import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Runtime

#: Synthetic runtime frames per wait state, mirroring Fig 4.
_RUNTIME_FRAMES: Dict[GoroutineState, Tuple[str, ...]] = {
    GoroutineState.BLOCKED_SEND: (
        "runtime.gopark",
        "runtime.chansend",
        "runtime.chansend1",
    ),
    GoroutineState.BLOCKED_RECV: (
        "runtime.gopark",
        "runtime.chanrecv",
        "runtime.chanrecv1",
    ),
    GoroutineState.BLOCKED_SELECT: ("runtime.gopark", "runtime.selectgo"),
    GoroutineState.SLEEPING: ("runtime.gopark", "time.Sleep"),
    GoroutineState.IO_WAIT: ("runtime.gopark", "runtime.netpollblock"),
    GoroutineState.SYSCALL: ("runtime.gopark", "runtime.entersyscallblock"),
    GoroutineState.SEMACQUIRE: ("runtime.gopark", "sync.runtime_Semacquire"),
    GoroutineState.COND_WAIT: ("runtime.gopark", "sync.runtime_notifyListWait"),
}

#: Placeholder location for synthetic runtime frames.
_RUNTIME_LOCATION = ("runtime/proc.go", 0)


def runtime_frames_for(state: GoroutineState) -> Tuple[Frame, ...]:
    """The synthetic runtime sub-stack shown for a goroutine in ``state``."""
    names = _RUNTIME_FRAMES.get(state, ())
    return tuple(Frame(name, *_RUNTIME_LOCATION) for name in names)


@dataclass(frozen=True, slots=True)
class GoroutineRecord:
    """One goroutine's entry in a profile (immutable snapshot).

    The keyword constructor is the public one; the read path builds
    records through :func:`make_record`, which makes equal objects.
    """

    gid: int
    name: str
    state: GoroutineState
    user_frames: Tuple[Frame, ...]
    creation_ctx: Optional[Frame]
    wait_seconds: float = 0.0
    #: "nil" | "chan" for channel ops; number of parked arms for selects.
    wait_detail: Optional[str] = None
    #: repro.gc verdict from the runtime's last sweep ("live" /
    #: "possible" / "proven"), or None when no sweep annotated it.
    proof: Optional[str] = None

    @property
    def frames(self) -> Tuple[Frame, ...]:
        """Full stack: synthetic runtime frames, then user frames, leaf first."""
        return runtime_frames_for(self.state) + self.user_frames

    @property
    def blocking_location(self) -> Optional[str]:
        """``file:line`` of the top user frame — the leak grouping key."""
        if not self.user_frames:
            return None
        return self.user_frames[0].location

    @property
    def blocking_function(self) -> Optional[str]:
        if not self.user_frames:
            return None
        return self.user_frames[0].function

    @property
    def is_blocked(self) -> bool:
        return self.state.channel_blocked

    def signature(self) -> Tuple[str, Optional[str]]:
        """The (state, location) pair LeakProf aggregates on."""
        return (self.state.value, self.blocking_location)

    def aged(self, wait_seconds: float) -> "GoroutineRecord":
        """This record with its ``wait_seconds`` replaced."""
        return make_record(
            self.gid,
            self.name,
            self.state,
            self.user_frames,
            self.creation_ctx,
            wait_seconds,
            self.wait_detail,
            self.proof,
        )


# A profile read builds one record per live goroutine, so records are
# filled through their slot descriptors: the frozen dataclass
# ``__init__`` pays one ``object.__setattr__`` per field, well over
# twice the cost.
(
    _set_gid,
    _set_name,
    _set_state,
    _set_user_frames,
    _set_creation_ctx,
    _set_wait_seconds,
    _set_wait_detail,
    _set_proof,
) = (getattr(GoroutineRecord, f.name).__set__ for f in fields(GoroutineRecord))


def make_record(
    gid: int,
    name: str,
    state: GoroutineState,
    user_frames: Tuple[Frame, ...],
    creation_ctx: Optional[Frame],
    wait_seconds: float,
    wait_detail: Optional[str],
    proof: Optional[str],
) -> GoroutineRecord:
    """The record constructor of the read path: every field, by position.

    Equal, hash-equal, repr-equal and pickle-equal to the keyword-built
    ``GoroutineRecord`` with the same fields.
    """
    record = object.__new__(GoroutineRecord)
    _set_gid(record, gid)
    _set_name(record, name)
    _set_state(record, state)
    _set_user_frames(record, user_frames)
    _set_creation_ctx(record, creation_ctx)
    _set_wait_seconds(record, wait_seconds)
    _set_wait_detail(record, wait_detail)
    _set_proof(record, proof)
    return record


# Enum class attributes are slow lookups; the record walk binds them once.
_SEND = GoroutineState.BLOCKED_SEND
_RECV = GoroutineState.BLOCKED_RECV
_SELECT = GoroutineState.BLOCKED_SELECT


def snapshot_goroutine(goro: Goroutine, now: float) -> GoroutineRecord:
    """Record one live goroutine (the ``runtime.Stacks`` API analog)."""
    wait_detail: Optional[str] = None
    state = goro.state
    waiting_on = goro.waiting_on
    if state is _SEND or state is _RECV:
        wait_detail = "nil" if getattr(waiting_on, "is_nil", False) else "chan"
    elif state is _SELECT:
        arms = len(waiting_on) if isinstance(waiting_on, tuple) else 0
        wait_detail = str(arms)
    wait_seconds = 0.0
    blocked_since = goro.blocked_since
    if blocked_since is not None:
        wait_seconds = max(0.0, now - blocked_since)
    return make_record(
        goro.gid,
        goro.name,
        state,
        goro.stack(),
        goro.creation_ctx,
        wait_seconds,
        wait_detail,
        goro.gc_verdict,
    )


@dataclass
class GoroutineProfile:
    """A pprof goroutine profile: all goroutines of one process at an instant."""

    taken_at: float
    process: str
    records: List[GoroutineRecord] = field(default_factory=list)
    #: Optional fleet metadata attached by the collector.
    service: Optional[str] = None
    instance: Optional[str] = None

    @classmethod
    def take(
        cls,
        runtime: "Runtime",
        service: Optional[str] = None,
        instance: Optional[str] = None,
    ) -> "GoroutineProfile":
        """Snapshot ``runtime`` (negligible overhead, like pprof capture).

        A thin adapter over the snapshot plane: the runtime is frozen
        into a :class:`repro.snapshot.RuntimeSnapshot`, which holds its
        records from that instant, and the profile is built from that —
        the same path a profile shipped from a worker process takes.  An
        idle process is detected from the O(1) goroutine counter, so
        profiling a fleet of mostly-healthy instances skips the record
        walk entirely on the instances with nothing to report.
        """
        from repro.snapshot import snapshot_runtime  # deferred: imports us

        return cls.from_snapshot(snapshot_runtime(runtime), service, instance)

    @classmethod
    def from_snapshot(
        cls,
        snapshot,
        service: Optional[str] = None,
        instance: Optional[str] = None,
    ) -> "GoroutineProfile":
        """Build a profile from a :class:`repro.snapshot.RuntimeSnapshot`.

        This is the canonical constructor: snapshots are what cross the
        shard boundary, and a profile built here from a shipped snapshot
        is byte-identical to one taken against the live runtime.
        """
        return cls(
            snapshot.taken_at,
            snapshot.process,
            list(snapshot.records),
            service,
            instance,
        )

    def __len__(self) -> int:
        return len(self.records)

    def blocked(self) -> List[GoroutineRecord]:
        """Goroutines blocked on channel operations (leak candidates)."""
        return [r for r in self.records if r.state.channel_blocked]

    def by_state(self) -> Counter:
        """Histogram of wait states (the raw material of Table IV)."""
        return Counter(r.state for r in self.records)

    def group_by_location(self) -> Dict[Tuple[str, str], int]:
        """Count channel-blocked goroutines per (state, source location).

        This is the aggregation of the paper's Section V-A: "every goroutine
        can be categorized based on what type of channel operation it is
        blocked on and further grouped by operation source location".
        """
        counts: Counter = Counter()
        for record in self.blocked():
            location = record.blocking_location
            if location is not None:
                counts[(record.state.value, location)] += 1
        return dict(counts)

    def top_blocked_location(self) -> Optional[Tuple[Tuple[str, str], int]]:
        """The single location with the most blocked goroutines, if any."""
        groups = self.group_by_location()
        if not groups:
            return None
        key = max(groups, key=groups.get)
        return key, groups[key]
