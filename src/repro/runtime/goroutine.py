"""The goroutine record: scheduling state, stacks, and memory accounting."""

from __future__ import annotations

import enum
from typing import Any, Optional, Tuple, TYPE_CHECKING

from .stack import Frame, capture_stack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import Runtime


class GoroutineState(enum.Enum):
    """Scheduling states, matching the wait reasons in the paper's Table IV."""

    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED_SEND = "chan send"
    BLOCKED_RECV = "chan receive"
    BLOCKED_SELECT = "select"
    SLEEPING = "sleep"
    IO_WAIT = "io_wait"
    SYSCALL = "syscall"
    SEMACQUIRE = "semacquire"
    COND_WAIT = "cond_wait"
    DONE = "done"
    PANICKED = "panicked"


#: States in which a goroutine is parked and cannot run until woken.
BLOCKED_STATES = frozenset(
    {
        GoroutineState.BLOCKED_SEND,
        GoroutineState.BLOCKED_RECV,
        GoroutineState.BLOCKED_SELECT,
        GoroutineState.SLEEPING,
        GoroutineState.IO_WAIT,
        GoroutineState.SYSCALL,
        GoroutineState.SEMACQUIRE,
        GoroutineState.COND_WAIT,
    }
)

#: States the runtime cannot prove anything about because the wakeup comes
#: from outside the process (network readiness, kernel return).  The single
#: source of truth shared by the scheduler's global-deadlock check, goleak's
#: classification, and the repro.gc mark engine's root set — one predicate,
#: not three lists.
EXTERNALLY_WAKEABLE_STATES = frozenset(
    {GoroutineState.IO_WAIT, GoroutineState.SYSCALL}
)

#: Channel-blocked states (candidate partial deadlocks).
CHANNEL_BLOCKED_STATES = frozenset(
    {
        GoroutineState.BLOCKED_SEND,
        GoroutineState.BLOCKED_RECV,
        GoroutineState.BLOCKED_SELECT,
    }
)

#: Default goroutine stack size in bytes (Go starts goroutines at 8 KiB;
#: 2 KiB initially in modern Go, but 8 KiB is the paper-era steady state).
DEFAULT_STACK_BYTES = 8 * 1024

# Each state carries a small-int index into the runtime's census array:
# state transitions are the hottest bookkeeping in the interpreter, and
# Enum.__hash__ is a Python-level call we cannot afford per step.  For
# the same reason each state carries the predicates every profile read
# asks per goroutine: ``alive`` (not DONE or PANICKED), ``blocked`` (in
# BLOCKED_STATES) and ``channel_blocked`` (in CHANNEL_BLOCKED_STATES).
for _index, _state in enumerate(GoroutineState):
    _state.census_index = _index
    _state.alive = _state not in (GoroutineState.DONE, GoroutineState.PANICKED)
    _state.blocked = _state in BLOCKED_STATES
    _state.channel_blocked = _state in CHANNEL_BLOCKED_STATES
del _index, _state


#: Hot-path constants: RUNNABLE and its census slot (a module global is
#: far cheaper to load than an Enum class attribute).
_RUNNABLE = GoroutineState.RUNNABLE
_RUNNABLE_INDEX = _RUNNABLE.census_index


class _Parked:
    """Type of :data:`PARKED` (a named singleton for readable reprs)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "PARKED"


#: What an op handler returns when it parked the running goroutine or
#: threw into it.  Any other return value is the goroutine's resume
#: value: the op completed, and the step loop resumes it with that value.
PARKED = _Parked()


class Goroutine:
    """A single goroutine: a generator plus scheduler metadata.

    Attributes mirror what Go's runtime tracks per ``g``: status, the wait
    reason, where it blocked, where it was created, and — for the paper's
    memory-leak accounting — the stack and heap bytes it pins while alive.
    """

    __slots__ = (
        "gid",
        "name",
        "gen",
        "state",
        "runtime",
        "created_at",
        "creation_ctx",
        "blocked_since",
        "waiting_on",
        "pending_value",
        "pending_exception",
        "stack_bytes",
        "retained_bytes",
        "result",
        "panic",
        "is_main",
        "gc_verdict",
        "_cached_stack",
    )

    def __init__(
        self,
        gid: int,
        gen: Any,
        runtime: "Runtime",
        name: str,
        created_at: float,
        creation_ctx: Optional[Frame],
        stack_bytes: int = DEFAULT_STACK_BYTES,
        is_main: bool = False,
    ):
        self.gid = gid
        self.name = name
        self.gen = gen
        self.runtime = runtime
        self.state = _RUNNABLE
        self.created_at = created_at
        self.creation_ctx = creation_ctx
        self.blocked_since: Optional[float] = None
        #: The channel(s) this goroutine is parked on, if any.
        self.waiting_on: Any = None
        #: Value injected into the generator on next resume.
        self.pending_value: Any = None
        #: Exception thrown into the generator on next resume (panics).
        self.pending_exception: Optional[BaseException] = None
        self.stack_bytes = stack_bytes
        self.retained_bytes = 0
        self.result: Any = None
        self.panic: Optional[BaseException] = None
        self.is_main = is_main
        #: Verdict string from the last repro.gc sweep ("live" /
        #: "possible" / "proven"), or None when no sweep has run.  Stale
        #: verdicts are cleared the moment the goroutine is woken.
        self.gc_verdict: Optional[str] = None
        self._cached_stack: Optional[Tuple[Frame, ...]] = None

    # -- scheduling helpers -------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the goroutine occupies the process address space."""
        return self.state.alive

    @property
    def blocked(self) -> bool:
        return self.state.blocked

    @property
    def channel_blocked(self) -> bool:
        return self.state.channel_blocked

    # NOTE: every state change below mirrors its delta into the runtime's
    # census array — that invariant is what makes ``num_goroutines``,
    # ``blocked_goroutines_count`` and ``state_census`` O(1) reads.  The
    # updates are inlined (rather than a shared helper) because these are
    # the hottest three functions in the interpreter.  They are also the
    # only ways into and out of a blocked state, so they mark the gid in
    # the runtime's ``_delta`` set (a shard worker's unshipped changes):
    # a parked goroutine's profile entry is fixed until it is woken.

    def block(self, state: GoroutineState, waiting_on: Any = None) -> None:
        """Park the goroutine; records when and on what it blocked.

        The park-time stack is NOT captured here: a suspended generator
        chain cannot change while parked, so :meth:`stack` snapshots it
        lazily on first read — blocking stays O(1) and profilers still see
        the exact block-site stack.
        """
        runtime = self.runtime
        census = runtime._state_census
        census[self.state.census_index] -= 1
        census[state.census_index] += 1
        self.state = state
        self.waiting_on = waiting_on
        self.blocked_since = runtime.now
        self._cached_stack = None
        if runtime._delta is not None:
            runtime._delta.add(self.gid)

    def make_runnable(self, value: Any = None) -> None:
        """Wake the goroutine with ``value`` as the result of its last op.

        Only ever called on *another* goroutine — by a delivery, a timer
        or a sync primitive.  The running goroutine's own op hands its
        resume value back to the step loop instead (see
        :data:`PARKED`).
        """
        runtime = self.runtime
        census = runtime._state_census
        census[self.state.census_index] -= 1
        census[_RUNNABLE_INDEX] += 1
        self.state = _RUNNABLE
        self.waiting_on = None
        self.blocked_since = None
        self.pending_value = value
        self.gc_verdict = None
        self._cached_stack = None
        runtime._run_queue.append(self)
        if runtime._delta is not None:
            runtime._delta.add(self.gid)

    def throw(self, exc: BaseException) -> None:
        """Wake the goroutine by throwing ``exc`` at its suspension point."""
        runtime = self.runtime
        census = runtime._state_census
        census[self.state.census_index] -= 1
        census[_RUNNABLE_INDEX] += 1
        self.state = _RUNNABLE
        self.waiting_on = None
        self.blocked_since = None
        self.pending_exception = exc
        self.gc_verdict = None
        self._cached_stack = None
        runtime._run_queue.append(self)
        if runtime._delta is not None:
            runtime._delta.add(self.gid)

    # -- introspection (what goleak/leakprof consume) -----------------------

    def stack(self) -> Tuple[Frame, ...]:
        """Current call stack, leaf first.

        For a blocked goroutine the stack is captured lazily on first read
        and cached until the goroutine wakes: a suspended generator chain
        is stable, so the snapshot is identical to one taken at block time
        — but goroutines that park and wake without ever being profiled
        never pay for frame walking (the paper's always-on-profiling
        overhead concern, §V-B).
        """
        cached = self._cached_stack
        if cached is None:
            cached = capture_stack(self.gen)
            if self.state.blocked:
                self._cached_stack = cached
        return cached

    def blocking_frame(self) -> Optional[Frame]:
        """The leaf user frame — the source location of the blocking op."""
        stack = self.stack()
        return stack[0] if stack else None

    @property
    def footprint_bytes(self) -> int:
        """Memory pinned by this goroutine while alive (stack + heap)."""
        if not self.alive:
            return 0
        return self.stack_bytes + self.retained_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Goroutine {self.gid} {self.name!r} {self.state.value}"
            f"{' main' if self.is_main else ''}>"
        )
