"""The cooperative scheduler and virtual clock — our stand-in for the Go runtime.

A :class:`Runtime` owns a set of goroutines (generators), a run queue, and
a timer heap over a deterministic virtual clock.  Goroutines are resumed
round-robin; every effect they yield is interpreted here.  All
non-determinism (select arm choice) flows through a seeded RNG, so entire
experiments are reproducible bit-for-bit.

The runtime also keeps the books the paper's tools need:

* live goroutines with stacks and wait reasons (consumed by goleak and the
  pprof-analog profiler),
* resident-set-size accounting (stacks + retained heap + channel buffers +
  undelivered payloads of parked senders), and
* a CPU meter fed by ``burn`` effects (consumed by the fleet simulator).

All of that bookkeeping is *incremental*: counters are adjusted at the only
points where state can change (spawn/block/wake/finish, alloc/free, channel
payload mutations, timer push/fire/cancel), so every monitoring read —
``rss()``, ``num_goroutines``, ``blocked_goroutines_count``,
``state_census()`` — is O(1) regardless of how many goroutines have leaked.
Cost scales with work done, not with population; the full scans survive
only behind ``audit=True`` for the equivalence test suite.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import types
import weakref
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import random

from repro import obs
from repro.obs.fold import Tally, fold
from repro.obs.registry import monotonic as _monotonic

from .channel import Channel, NIL_CHANNEL
from .errors import GlobalDeadlock, LeakReclaimed, Panic, SchedulerExhausted
from .goroutine import (
    BLOCKED_STATES,
    DEFAULT_STACK_BYTES,
    EXTERNALLY_WAKEABLE_STATES,
    PARKED,
    Goroutine,
    GoroutineState,
)
from .ops import (
    AllocOp,
    BurnOp,
    FreeOp,
    GoOp,
    Op,
    ParkOp,
    RecvOp,
    SelectOp,
    SendOp,
    SleepOp,
    WaitOp,
    YieldOp,
)
from .selects import resolve_select
from .stack import Frame, leaf_frame

#: Default per-run scheduling-step budget.
DEFAULT_MAX_STEPS = 10_000_000

#: Baseline process RSS before any goroutine exists (Go runtime + binary).
DEFAULT_BASE_RSS = 16 * 1024 * 1024

_PARK_STATES = {
    "io_wait": GoroutineState.IO_WAIT,
    "syscall": GoroutineState.SYSCALL,
    "semacquire": GoroutineState.SEMACQUIRE,
    "cond_wait": GoroutineState.COND_WAIT,
    "sleep": GoroutineState.SLEEPING,
}

# States and census-array slots used on the interpreter hot path (see
# GoroutineState.census_index in repro.runtime.goroutine).
# Module globals, not Enum class attributes: the latter cost a
# metaclass lookup on every load.
_RUNNABLE = GoroutineState.RUNNABLE
_RUNNING = GoroutineState.RUNNING
_SLEEPING = GoroutineState.SLEEPING
_DONE = GoroutineState.DONE
_PANICKED = GoroutineState.PANICKED
_RUNNABLE_IDX = _RUNNABLE.census_index
_RUNNING_IDX = _RUNNING.census_index
#: Picks the blocked states' census slots out in one C call.
_BLOCKED_SLOTS = operator.itemgetter(
    *sorted(s.census_index for s in BLOCKED_STATES)
)
#: ``(state, census slot)`` in enum order: ``state_census`` walks this
#: tuple rather than the enum's generator on every snapshot.
_CENSUS_SLOTS = tuple((s, s.census_index) for s in GoroutineState)
#: ``(state value, census slot)`` in enum order, for ``census_by_value``.
_CENSUS_VALUE_SLOTS = tuple((s.value, s.census_index) for s in GoroutineState)

#: Park states the Go deadlock detector ignores (IO may complete externally).
#: Alias of the shared set in :mod:`repro.runtime.goroutine` so the
#: scheduler, goleak, and the repro.gc mark engine agree by construction.
_EXTERNALLY_WAKEABLE = EXTERNALLY_WAKEABLE_STATES


#: Timer-heap compaction: rebuild once the heap holds at least this many
#: entries AND more than half of them are cancelled tombstones.
_TIMER_COMPACT_MIN = 32


def body_name(fn: Callable[..., Any]) -> str:
    """A goroutine's default name: its body's ``__qualname__``.

    ``functools.partial`` bodies (parameterised tests and handlers) are
    named by the function they wrap; ``str(fn)``, which would carry a
    per-process address, is the last resort.
    """
    inner = fn
    while isinstance(inner, functools.partial):
        inner = inner.func
    name = getattr(inner, "__qualname__", None)
    return name if name is not None else str(fn)


class _ChannelSet:
    """The runtime's channels, held weakly: a lean ``WeakSet``.

    Each channel is held by a ``weakref`` whose death callback is the
    set's own C-level ``discard``, so registering and retiring a channel
    never runs Python code (``make_chan`` sits on the per-request path).
    """

    __slots__ = ("_refs", "_discard")

    def __init__(self) -> None:
        self._refs: set = set()
        self._discard = self._refs.discard

    def add(self, channel: Channel) -> None:
        self._refs.add(weakref.ref(channel, self._discard))

    def __iter__(self):
        for ref in list(self._refs):
            channel = ref()
            if channel is not None:
                yield channel


class _Timer:
    """A scheduled callback on the virtual clock.

    Carries the bookkeeping flags that keep the runtime's timer census
    O(1): ``_counted`` (contributes to the live non-GC-timer count) and
    ``_in_heap`` (a cancellation while scheduled leaves a tombstone the
    heap compacts lazily).
    """

    __slots__ = ("when", "callback", "cancelled", "runtime", "_counted", "_in_heap")

    def __init__(self, runtime: "Runtime", when: float, callback: Callable[[], None]):
        self.when = when
        self.callback = callback
        self.cancelled = False
        self.runtime = runtime
        self._counted = True
        self._in_heap = True

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        runtime = self.runtime
        if self._counted:
            runtime._live_timer_count -= 1
            self._counted = False
        if self._in_heap:
            runtime._cancelled_in_heap += 1
            runtime._maybe_compact_timers()


class Ticker:
    """Repeating timer delivering virtual timestamps on a capacity-1 channel.

    Mirrors ``time.Ticker``: ticks are *dropped* when the channel is full
    (a slow receiver never backs up the ticker), and :meth:`stop` ends
    delivery without closing the channel — which is why abandoned tickers
    in receive loops are the paper's §VI-A2 leak pattern.
    """

    def __init__(self, runtime: "Runtime", interval: float):
        if interval <= 0:
            raise ValueError("non-positive ticker interval")
        self.channel = runtime.make_chan(1, label="time.Tick")
        self._runtime = runtime
        self._interval = interval
        self._stopped = False
        self._schedule()

    def _schedule(self) -> None:
        self._timer = self._runtime.call_later(self._interval, self._fire)

    def _fire(self) -> None:
        if self._stopped or self.channel.closed:
            return
        if len(self.channel.buffer) < self.channel.capacity or (
            self.channel.has_recv_waiter()
        ):
            self.channel.try_send(self._runtime.now)
        self._schedule()

    def stop(self) -> None:
        """Stop tick delivery (does not close the channel, as in Go)."""
        self._stopped = True
        self._timer.cancel()


class Runtime:
    """A single simulated Go process."""

    def __init__(
        self,
        seed: int = 0,
        panic_mode: str = "raise",
        base_rss: int = DEFAULT_BASE_RSS,
        stack_bytes: int = DEFAULT_STACK_BYTES,
        name: str = "process",
    ):
        if panic_mode not in ("raise", "record"):
            raise ValueError("panic_mode must be 'raise' or 'record'")
        self.name = name
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self.panic_mode = panic_mode
        self.base_rss = base_rss
        self.default_stack_bytes = stack_bytes
        self.steps = 0
        self.cpu_seconds = 0.0
        self.goroutines_spawned = 0
        self.goroutines_finished = 0
        self._goroutines: Dict[int, Goroutine] = {}
        self._run_queue: Deque[Goroutine] = deque()
        self._timers: List[Tuple[float, int, _Timer]] = []
        self._timer_seq = itertools.count()
        self._channels = _ChannelSet()
        self.main: Optional[Goroutine] = None
        self.panics: List[Tuple[Goroutine, BaseException]] = []
        # -- incremental accounting: every introspection read is O(1) ------
        #: Live goroutines per state, indexed by ``state.census_index``
        #: (maintained by block/make_runnable/throw and the lifecycle
        #: methods below; an array because enum hashing is too slow for
        #: the per-step transition path).
        self._state_census: List[int] = [0] * len(GoroutineState)
        #: Goroutines occupying the address space (alive).
        self._live_count = 0
        #: Σ (stack + retained heap) over alive goroutines.
        self._goroutine_bytes = 0
        #: Σ (buffered + pending-send payload) over owned channels;
        #: channels report deltas here (see Channel._charge).
        self._chan_bytes = 0
        #: Non-cancelled, non-GC timers currently scheduled.
        self._live_timer_count = 0
        #: Cancelled tombstones still sitting in the heap.
        self._cancelled_in_heap = 0
        #: Per-op-type dispatch: type(op) -> handler returning the resume
        #: value or PARKED.  Sends and receives are dispatched inline by
        #: the step loop; a type found in neither is not an effect.
        self._handlers: Dict[type, Callable[[Goroutine, Op], Any]] = {
            SelectOp: resolve_select,
            GoOp: self._do_go,
            SleepOp: self._do_sleep,
            ParkOp: self._do_park,
            AllocOp: self._do_alloc,
            FreeOp: self._do_free,
            BurnOp: self._do_burn,
            WaitOp: self._do_wait,
            YieldOp: self._do_yield,
        }
        #: External objects pinned as GC roots (e.g. fleet request sources
        #: holding channel handles from outside the runtime).
        self.gc_roots: List[Any] = []
        #: Lazily-created repro.gc state (tracker + engine + reports).
        self._gc_state: Optional[Any] = None
        self._gc_timer: Optional[_Timer] = None
        #: Optional snapshot.delta.DeltaTracker for streaming shipping;
        #: fed at the same mutation points as the gc tracker.
        self._delta: Optional[Any] = None
        #: Runs not yet folded into the registry (seconds and steps),
        #: drained by whoever owns them (see repro.obs.fold).  Keep the
        #: instance attributes at 29 or fewer: past that CPython 3.11
        #: gives every runtime a full ``__dict__`` and the step loop's
        #: attribute loads slow down.
        self.run_tally = Tally()

    # ------------------------------------------------------------------
    # Channels and timers
    # ------------------------------------------------------------------

    def make_chan(self, capacity: int = 0, label: Optional[str] = None) -> Channel:
        """``make(chan T, capacity)`` — registers the channel for RSS books.

        The channel reports payload byte deltas to this runtime as they
        happen; ``rss()`` never re-walks channel contents.
        """
        channel = Channel(capacity, label=label)
        channel._rt = self
        self._channels.add(channel)
        return channel

    @property
    def nil_chan(self) -> Any:
        """The nil channel (all operations block forever)."""
        return NIL_CHANNEL

    def call_later(self, delay: float, callback: Callable[[], None]) -> _Timer:
        """Schedule ``callback`` at virtual time ``now + delay``."""
        return self.call_at(self.now + delay, callback)

    def call_at(self, when: float, callback: Callable[[], None]) -> _Timer:
        timer = _Timer(self, when, callback)
        self._live_timer_count += 1
        heapq.heappush(self._timers, (when, next(self._timer_seq), timer))
        return timer

    def _popped(self, timer: _Timer) -> None:
        """Census upkeep for a timer that just left the heap."""
        timer._in_heap = False
        if timer.cancelled:
            self._cancelled_in_heap -= 1
        elif timer._counted:
            self._live_timer_count -= 1
            timer._counted = False

    def _exempt_timer(self, timer: _Timer) -> None:
        """Drop a timer from the pending-work census (the GC sweep timer)."""
        if timer._counted:
            self._live_timer_count -= 1
            timer._counted = False

    def _maybe_compact_timers(self) -> None:
        """Lazily rebuild the heap once >50% of its entries are tombstones.

        Keeps the heap size proportional to *live* timers under
        start/stop ticker churn instead of growing without bound.  The
        heap is rebuilt in place: a cancel can land while
        :meth:`_advance_clock` holds the list.
        """
        heap = self._timers
        if len(heap) < _TIMER_COMPACT_MIN or self._cancelled_in_heap * 2 <= len(heap):
            return
        for entry in heap:
            if entry[2].cancelled:
                entry[2]._in_heap = False
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0

    def after(self, delay: float) -> Channel:
        """``time.After(delay)`` — capacity-1 channel receiving a timestamp."""
        channel = self.make_chan(1, label="time.After")

        def fire() -> None:
            if not channel.closed:
                channel.try_send(self.now)

        self.call_later(delay, fire)
        return channel

    def tick(self, interval: float) -> Channel:
        """``time.Tick(interval)`` — a ticker channel nobody can stop."""
        return Ticker(self, interval).channel

    def new_ticker(self, interval: float) -> Ticker:
        """``time.NewTicker(interval)`` — a stoppable ticker."""
        return Ticker(self, interval)

    # ------------------------------------------------------------------
    # Goroutine lifecycle
    # ------------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        creation_ctx: Optional[Frame] = None,
        stack_bytes: Optional[int] = None,
        is_main: bool = False,
    ) -> Goroutine:
        """Start ``fn(*args)`` as a goroutine (the external ``go`` keyword)."""
        return self._spawn(fn, args, name, creation_ctx, stack_bytes, is_main)

    def _spawn(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        name: Optional[str],
        creation_ctx: Optional[Frame],
        stack_bytes: Optional[int],
        is_main: bool,
    ) -> Goroutine:
        gen = fn(*args)
        if gen.__class__ is not types.GeneratorType and not hasattr(gen, "send"):
            raise TypeError(
                f"goroutine body {fn!r} must be a generator function "
                "(use 'yield' for channel ops; plain functions cannot block)"
            )
        # gids count from 1 in spawn order: the spawn count is the last one
        gid = self.goroutines_spawned + 1
        goro = Goroutine(
            gid,
            gen,
            self,
            name or body_name(fn),
            self.now,
            creation_ctx,
            stack_bytes or self.default_stack_bytes,
            is_main,
        )
        self._goroutines[gid] = goro
        self.goroutines_spawned = gid
        self._live_count += 1
        self._state_census[_RUNNABLE_IDX] += 1
        self._goroutine_bytes += goro.stack_bytes
        if self._gc_state is not None:
            self._gc_state.tracker.mark_dirty(gid)
        if self._delta is not None:
            self._delta.mark(gid)
        if is_main:
            self.main = goro
        self._run_queue.append(goro)
        return goro

    def _finish(self, goro: Goroutine, result: Any) -> None:
        self._state_census[goro.state.census_index] -= 1
        self._live_count -= 1
        self._goroutine_bytes -= goro.stack_bytes + goro.retained_bytes
        goro.state = _DONE
        goro.result = result
        goro.retained_bytes = 0
        goro.gen = None  # release frames so channels/values can be collected
        self.goroutines_finished += 1
        if self._gc_state is not None:
            self._gc_state.tracker.forget(goro.gid)
        if self._delta is not None:
            self._delta.on_finish(goro.gid)
        # Done goroutines leave the address space entirely; a main's
        # reaper reads its result from the goroutine it holds.
        self._goroutines.pop(goro.gid, None)

    def _record_panic(self, goro: Goroutine, exc: BaseException) -> None:
        self._state_census[goro.state.census_index] -= 1
        self._live_count -= 1
        self._goroutine_bytes -= goro.stack_bytes + goro.retained_bytes
        goro.state = _PANICKED
        goro.panic = exc
        goro.retained_bytes = 0
        goro.gen = None
        self.panics.append((goro, exc))
        self._goroutines.pop(goro.gid, None)
        if self._gc_state is not None:
            self._gc_state.tracker.forget(goro.gid)
        if self._delta is not None:
            self._delta.on_finish(goro.gid)
        if self.panic_mode == "raise":
            raise exc

    # ------------------------------------------------------------------
    # The interpreter
    # ------------------------------------------------------------------

    def _run(self, limit: int, deadline: Optional[float], advance: bool) -> bool:
        """The step loop: run goroutines until the queue is empty.

        With ``advance`` the clock then jumps to the next timer and the
        loop goes on until nothing is runnable and no timer (within
        ``deadline``) can change that.  Returns True when it stopped
        because ``self.steps`` reached ``limit`` with work still queued.

        Each step resumes one goroutine and interprets the op it yields.
        A handler returns the goroutine's resume value when the op
        completed, or :data:`PARKED` when it parked the goroutine (or
        threw into it).  A completed op re-queues the goroutine — unless
        the run queue is empty and the step budget allows another step:
        then the FIFO would pop this same goroutine next, so it runs on
        in place, skipping the RUNNING -> RUNNABLE -> RUNNING census
        flips, the ``pending_value`` round trip and the deque append and
        pop.  Steps and their order are exactly those of the plain FIFO.

        The step count lives in a local and is written back whenever
        anything else can run: before the clock advances (timer
        callbacks, e.g. a reclaiming sweep, run nested loops) and on exit.
        """
        run_queue = self._run_queue
        popleft = run_queue.popleft
        census = self._state_census
        handlers = self._handlers
        steps = self.steps
        try:
            while True:
                while run_queue:
                    if steps >= limit:
                        return True
                    goro = popleft()
                    if goro.state is not _RUNNABLE:
                        continue  # stale queue entry (finished or re-parked)
                    census[_RUNNABLE_IDX] -= 1
                    census[_RUNNING_IDX] += 1
                    goro.state = _RUNNING
                    gen = goro.gen
                    gid = goro.gid
                    value = goro.pending_value
                    goro.pending_value = None
                    exc = goro.pending_exception
                    if exc is not None:
                        goro.pending_exception = None
                    while True:
                        steps += 1
                        # Frame locals can only change while the goroutine
                        # runs, so this is where the trackers are told.
                        if self._gc_state is not None:
                            self._gc_state.tracker.mark_dirty(gid)
                        if self._delta is not None:
                            self._delta.mark(gid)
                        try:
                            if exc is None:
                                op = gen.send(value)
                            else:
                                op = gen.throw(exc)
                                exc = None
                        except StopIteration as stop:
                            self._finish(goro, stop.value)
                            break
                        except LeakReclaimed:
                            # The reclaimer's controlled unwind reached the
                            # top of the goroutine: a Goexit-style exit.
                            self._finish(goro, None)
                            break
                        except Panic as panic:
                            self._record_panic(goro, panic)
                            break
                        kind = op.__class__
                        if kind is RecvOp:
                            value = op.channel.recv_op(goro, op.want_ok)
                        elif kind is SendOp:
                            value = op.channel.send_op(goro, op.value)
                        else:
                            handler = handlers.get(kind)
                            if handler is None:
                                raise TypeError(
                                    f"goroutine {goro.name!r} yielded "
                                    f"non-effect {op!r}"
                                )
                            value = handler(goro, op)
                        if value is PARKED:
                            break
                        if run_queue or steps >= limit:
                            census[_RUNNING_IDX] -= 1
                            census[_RUNNABLE_IDX] += 1
                            goro.state = _RUNNABLE
                            goro.pending_value = value
                            run_queue.append(goro)
                            break
                if not advance:
                    return False
                self.steps = steps
                if not self._advance_clock(deadline):
                    return False
                steps = self.steps
        finally:
            self.steps = steps

    # Op handlers: each returns the running goroutine's resume value, or
    # PARKED when the goroutine parked (or was thrown into).

    def _do_go(self, goro: Goroutine, op: GoOp) -> None:
        self._spawn(op.fn, op.args, op.name, leaf_frame(goro.gen), None, False)

    def _do_alloc(self, goro: Goroutine, op: AllocOp) -> None:
        goro.retained_bytes += op.nbytes
        self._goroutine_bytes += op.nbytes

    def _do_free(self, goro: Goroutine, op: FreeOp) -> None:
        freed = min(goro.retained_bytes, op.nbytes)
        goro.retained_bytes -= freed
        self._goroutine_bytes -= freed

    def _do_burn(self, goro: Goroutine, op: BurnOp) -> None:
        self.cpu_seconds += op.cpu_seconds

    def _do_wait(self, goro: Goroutine, op: WaitOp) -> Any:
        primitive = op.primitive
        if primitive._try_acquire(goro):
            return None
        primitive._park(goro)
        goro.block(primitive.wait_state, primitive)
        return PARKED

    def _do_yield(self, goro: Goroutine, op: YieldOp) -> None:
        return None

    def _do_sleep(self, goro: Goroutine, op: SleepOp) -> Any:
        duration = op.duration
        if duration <= 0:
            return None
        goro.block(_SLEEPING, None)

        def wake() -> None:
            if goro.state is _SLEEPING:
                goro.make_runnable(None)

        self.call_at(self.now + duration, wake)
        return PARKED

    def _do_park(self, goro: Goroutine, op: ParkOp) -> Any:
        state = _PARK_STATES.get(op.reason)
        if state is None:
            raise ValueError(f"unknown park reason {op.reason!r}")
        goro.block(state, None)
        if op.duration is not None:
            blocked_state = state

            def wake() -> None:
                if goro.state is blocked_state:
                    goro.make_runnable(None)

            self.call_later(op.duration, wake)
        return PARKED

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------

    def run_until_quiescent(
        self,
        deadline: Optional[float] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        detect_global_deadlock: bool = False,
    ) -> None:
        """Run until nothing is runnable and no timer can change that.

        ``deadline`` bounds the virtual clock — necessary for workloads
        with unstoppable tickers, which otherwise never quiesce.  With
        ``detect_global_deadlock`` the runtime mimics Go's fatal
        ``all goroutines are asleep`` check.

        Instrumentation rides at *run* granularity, never per step: the
        run adds its wall time and steps to :attr:`run_tally`; a
        standalone call like this one folds it and its gc timer's sweeps
        on return, with the queue depth it started with (:mod:`repro.obs.fold`).
        """
        depth = len(self._run_queue)
        try:
            self._quiesce(deadline, max_steps, detect_global_deadlock)
        finally:
            self._fold(depth)

    def _fold(self, depth: Optional[int] = None) -> None:
        """Fold a standalone call's runs and sweeps (:mod:`repro.obs.fold`)."""
        state = self._gc_state
        sweeps = None if state is None else state.tally.take()
        latest = state.reports[-1] if state and state.reports else None
        fold((self.run_tally.take(), (), sweeps), depth, latest)

    def _quiesce(self, deadline: Optional[float],
                 max_steps: int = DEFAULT_MAX_STEPS,
                 detect_global_deadlock: bool = False) -> None:
        """:meth:`run_until_quiescent` without the fold: the run stays
        in :attr:`run_tally` for its window's owner to drain."""
        counted = obs.default_registry().enabled
        if counted:
            started = _monotonic()
        steps_before = self.steps
        try:
            exhausted = self._run(steps_before + max_steps, deadline, True)
        finally:
            if counted:
                self.run_tally.add(
                    _monotonic() - started, self.steps - steps_before
                )
        if exhausted:
            raise SchedulerExhausted(self.steps)
        if (
            detect_global_deadlock
            and self.main is not None
            and self.main.alive
            and not self._has_pending_timers(deadline)
        ):
            live = [g for g in self._goroutines.values() if g.alive]
            if live and all(
                g.blocked and g.state not in _EXTERNALLY_WAKEABLE for g in live
            ):
                raise GlobalDeadlock(len(live))
        if deadline is not None and self.now < deadline:
            self.now = deadline

    def _has_pending_timers(self, deadline: Optional[float]) -> bool:
        """Is there scheduled work (excluding the GC sweep timer)?

        O(1) for the unbounded case via the live-timer counter; the
        deadline-bounded form (used once per deadlock check, never per
        step) falls back to a walk over the — lazily compacted — heap.
        The GC sweep timer never counts as pending work: GC must not mask
        a deadlock nor keep the process alive.
        """
        if self._live_timer_count == 0:
            return False
        if deadline is None:
            return True
        for when, _seq, timer in self._timers:
            if timer.cancelled or timer is self._gc_timer:
                continue
            if when <= deadline:
                return True
        return False

    def idle_until(self, deadline: float) -> bool:
        """Would running to ``deadline`` change nothing but the clock?

        True when the run queue is empty and no timer is due by
        ``deadline``.  Unlike :meth:`_has_pending_timers` this counts
        the gc sweep timer: a reclaiming sweep ends goroutines.
        """
        if self._run_queue:
            return False
        for when, _seq, timer in self._timers:
            if when <= deadline and not timer.cancelled:
                return False
        return True

    def _advance_clock(self, deadline: Optional[float]) -> bool:
        """Jump to the next timer (within deadline) and fire everything due."""
        timers = self._timers
        while timers:
            when, _seq, timer = timers[0]
            if timer.cancelled:
                self._popped(heapq.heappop(timers)[2])
                continue
            if deadline is not None and when > deadline:
                return False
            if (
                deadline is None
                and timer is self._gc_timer
                and not self._has_pending_timers(None)
            ):
                # Only the self-rescheduling sweep timer remains: firing
                # it can never make a goroutine runnable, so an
                # unbounded run would spin forever.  Quiesce instead —
                # exactly like a real GC, sweeps don't keep the process
                # alive.
                return False
            break
        else:
            return False
        now = self.now
        if when > now:
            self.now = now = when
        # Fire the head, then everything else due at the same instant.
        heappop = heapq.heappop
        while True:
            timer = heappop(timers)[2]
            self._popped(timer)
            if not timer.cancelled:
                timer.callback()
            if not timers or timers[0][0] > now:
                return True

    def run(
        self,
        main_fn: Callable[..., Any],
        *args: Any,
        deadline: Optional[float] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        detect_global_deadlock: bool = True,
    ) -> Any:
        """Run ``main_fn(*args)`` as the main goroutine to completion.

        Returns the main goroutine's return value.  Goroutines leaked by
        the program remain parked in the runtime afterwards — that residue
        is what :mod:`repro.goleak` inspects.
        """
        goro = self.spawn(main_fn, *args, is_main=True)
        self.run_until_quiescent(
            deadline=deadline,
            max_steps=max_steps,
            detect_global_deadlock=detect_global_deadlock,
        )
        return self._reap_main(goro)

    def serve(self, body: Callable[..., Any], name: str, deadline: float) -> None:
        """Serve one request: run ``body(self)`` as the main goroutine.

        The fleet's request path, one call per request.  ``body`` comes
        with its parameters bound and ``name`` precomputed
        (:attr:`repro.fleet.workload.Handler.main`).  The run goes to
        ``deadline`` with no deadlock check — a window's last request
        runs on through the window's idle tail — and counts one run for
        the window's owner to fold; main is then reaped as :meth:`run` does.
        """
        goro = self._spawn(body, (self,), name, None, None, True)
        self._quiesce(deadline)
        self._reap_main(goro)

    def _reap_main(self, goro: Goroutine) -> Any:
        """After a run: raise the main goroutine's panic, or return its
        result (``_finish`` already dropped it from the table if done)."""
        if goro.state is _PANICKED:
            raise goro.panic
        if goro.state is _DONE and self.main is goro:
            self.main = None
        return goro.result

    def advance(self, duration: float, max_steps: int = DEFAULT_MAX_STEPS) -> None:
        """Advance the virtual clock by ``duration``, running whatever wakes."""
        self.run_until_quiescent(deadline=self.now + duration, max_steps=max_steps)

    # ------------------------------------------------------------------
    # Introspection: the data goleak / pprof / the fleet model consume
    # ------------------------------------------------------------------

    def live_goroutines(self) -> List[Goroutine]:
        """Every goroutine currently occupying the address space.

        This is the one deliberately O(n) introspection call: profilers
        need the actual records.  Monitoring reads (``num_goroutines``,
        ``blocked_goroutines_count``, ``rss``, ``state_census``) are
        counter reads and never touch per-goroutine state.
        """
        return [g for g in self._goroutines.values() if g.state.alive]

    @property
    def num_goroutines(self) -> int:
        """Live goroutine count — an O(1) counter read."""
        return self._live_count

    def blocked_goroutines(self) -> List[Goroutine]:
        """The parked goroutine *records* (an O(n) walk, for tools that
        need the objects).  Monitoring wants :attr:`blocked_goroutines_count`."""
        return [g for g in self._goroutines.values() if g.blocked]

    @property
    def blocked_goroutines_count(self) -> int:
        """How many goroutines are parked right now — O(1), no iteration."""
        return sum(_BLOCKED_SLOTS(self._state_census))

    def state_census(self, audit: bool = False) -> Dict[GoroutineState, int]:
        """Live goroutines per scheduling state (nonzero entries only).

        O(1) from the incrementally-maintained counters.  ``audit=True``
        recomputes the census by scanning every goroutine — the debug path
        the property test suite uses to prove counter/scan equivalence.
        """
        if audit:
            scanned: Dict[GoroutineState, int] = {}
            for goro in self._goroutines.values():
                if goro.alive:
                    scanned[goro.state] = scanned.get(goro.state, 0) + 1
            return scanned
        census = self._state_census
        return {
            state: census[index]
            for state, index in _CENSUS_SLOTS
            if census[index]
        }

    def census_by_value(self) -> Dict[str, int]:
        """:meth:`state_census` keyed by each state's ``value`` string.

        The form snapshots and stat rows carry, built in one pass
        instead of re-keying the enum-keyed census.
        """
        census = self._state_census
        return {
            value: census[index]
            for value, index in _CENSUS_VALUE_SLOTS
            if census[index]
        }

    def rss(self, audit: bool = False) -> int:
        """Modeled resident set size of this process, in bytes.

        An O(1) counter read: goroutine stacks/heap and channel payload
        bytes are maintained incrementally at their mutation points.
        ``audit=True`` recomputes the total with the original full scan
        over every goroutine and channel (debug only — monitoring at
        fleet scale must never pay population-proportional cost).
        """
        if not audit:
            return self.base_rss + self._goroutine_bytes + self._chan_bytes
        total = self.base_rss
        for goro in self._goroutines.values():
            total += goro.footprint_bytes
        for channel in self._channels:
            total += channel._scan_buffered_bytes()
            total += channel._scan_pending_send_bytes()
        return total

    # ------------------------------------------------------------------
    # Reachability GC (the repro.gc proof engine's runtime entry points)
    # ------------------------------------------------------------------

    def gc(self, full: bool = False, policy: Optional[Any] = None) -> Any:
        """Run one reachability sweep; returns a :class:`repro.gc.GCReport`.

        Classifies every parked goroutine as LIVE / POSSIBLY_LEAKED /
        PROVEN_LEAKED from the runtime's own books (see
        :mod:`repro.gc.mark`) and — depending on ``policy``, a
        :class:`repro.gc.ReclaimPolicy` (``None`` observes) — reclaims
        proven leaks in place.  Incremental by default: only subgraphs
        dirtied since the previous sweep are re-scanned and goroutines
        already proven leaked are never re-marked (a proof is stable: an
        unreachable channel can never become reachable again).  ``full``
        forces a from-scratch re-mark.  The sweep is folded on return.
        """
        from repro.gc.sweep import run_sweep  # deferred: repro.gc imports us

        report = run_sweep(self, full=full, policy=policy)
        self._fold()
        return report

    def enable_gc(self, interval: float, policy: Optional[Any] = None) -> None:
        """Schedule incremental sweeps every ``interval`` virtual seconds.

        The sweep timer keeps rescheduling itself but never counts as
        pending work: a run without a ``deadline`` still quiesces once
        the sweep timer is the only thing left on the clock, and the
        global-deadlock check ignores it.  Its sweeps fold with the run.
        """
        from repro.gc.sweep import run_sweep  # deferred: repro.gc imports us
        if interval <= 0:
            raise ValueError("non-positive gc interval")
        self.disable_gc()

        def sweep_and_reschedule() -> None:
            run_sweep(self, policy=policy)
            self._gc_timer = self.call_later(interval, sweep_and_reschedule)
            self._exempt_timer(self._gc_timer)

        self._gc_timer = self.call_later(interval, sweep_and_reschedule)
        self._exempt_timer(self._gc_timer)

    def disable_gc(self) -> None:
        """Cancel the periodic sweep (sweep state and proofs are kept)."""
        if self._gc_timer is not None:
            self._gc_timer.cancel()
            self._gc_timer = None

    @property
    def gc_reports(self) -> List[Any]:
        """Reports of every sweep this runtime has run, oldest first."""
        if self._gc_state is None:
            return []
        return self._gc_state.reports

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Runtime {self.name!r} t={self.now:.3f} "
            f"goroutines={self.num_goroutines} steps={self.steps}>"
        )
