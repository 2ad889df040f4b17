"""The reference tracker: who can still touch each channel?

A goroutine leak is *provable* exactly when no live entity holds a
sendable/receivable/closable handle to any channel the goroutine is
parked on.  This module maintains that goroutine → channel/primitive
reference graph incrementally from the runtime's own books:

* **goroutine references** come from walking each goroutine's suspended
  generator chain and scanning frame locals (closures, containers,
  contexts, tickers, payloads, sub-generators, bound methods — anything
  a handle can hide inside).  Frame locals can only change while a
  goroutine runs, so the scheduler marks a goroutine *dirty* on every
  step and the tracker re-scans only dirty goroutines per sweep.
* **channel-content references** cover handles in flight: values sitting
  in a channel's buffer or attached to parked senders may themselves
  contain channels, which a future receiver would obtain.  Channels
  carry a mutation :attr:`~repro.runtime.channel.Channel.version`; the
  tracker re-scans contents only when the version moved.
* **timer references** cover wakeups the virtual clock will deliver:
  ``time.After`` closures, ticker fire callbacks, context-timeout
  cancellations, and sleep/park wake closures (which reference the
  goroutine itself).

The scan is deliberately conservative: unknown objects are traversed
field-by-field, and only the runtime and goroutine records themselves
are opaque.  Over-approximating references can only demote a proof to
LIVE — never produce a false PROVEN_LEAKED verdict.
"""

from __future__ import annotations

import types
import weakref
from typing import Any, Dict, FrozenSet, List, Set, Tuple, TYPE_CHECKING

from repro.runtime.channel import Channel, NilChannel
from repro.runtime.goroutine import Goroutine
from repro.runtime.sync import Cond, Mutex, Semaphore, WaitGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Runtime

#: A goroutine parked on one of these can be woken through it.
Parkable = Any  # Channel | WaitGroup | Mutex | Semaphore | Cond

_SYNC_PRIMITIVES = (WaitGroup, Mutex, Semaphore, Cond)

#: Leaf values that cannot hold a channel handle.
_ATOMIC = (
    type(None),
    bool,
    int,
    float,
    complex,
    str,
    bytes,
    bytearray,
    memoryview,
    range,
    slice,
)

#: Types never traversed: either they reach the whole world (Runtime),
#: are graph *nodes* handled explicitly (Goroutine), or carry no user
#: state (modules, classes, code objects).
_OPAQUE = (
    Goroutine,
    NilChannel,
    types.ModuleType,
    types.CodeType,
    types.BuiltinFunctionType,
    type,
)


def _is_runtime(value: Any) -> bool:
    # Avoid importing Runtime at module scope (it imports lazily into us);
    # duck-type on the one attribute combination only a Runtime has.
    return hasattr(value, "_run_queue") and hasattr(value, "_goroutines")


def _is_parkable(value: Any) -> bool:
    if isinstance(value, Channel):
        return True
    if isinstance(value, _SYNC_PRIMITIVES):
        return True
    # Extension protocol: custom primitives usable with WaitOp.
    return hasattr(value, "wait_state") and hasattr(value, "_park")


class ValueScanner:
    """Bounded, cycle-safe traversal collecting parkables and goroutines."""

    def __init__(self) -> None:
        self.refs: Set[Parkable] = set()
        self.goroutines: Set[int] = set()
        self.visited = 0
        self._seen: Set[int] = set()

    def scan(self, *values: Any) -> "ValueScanner":
        stack: List[Any] = list(values)
        while stack:
            value = stack.pop()
            if isinstance(value, _ATOMIC):
                continue
            marker = id(value)
            if marker in self._seen:
                continue
            self._seen.add(marker)
            self.visited += 1
            if isinstance(value, Goroutine):
                self.goroutines.add(value.gid)
                continue
            if isinstance(value, _OPAQUE) or _is_runtime(value):
                continue
            if isinstance(value, Channel):
                # Channel *contents* are a separate edge kind (see
                # ReferenceTracker.channel_refs); holding the handle is
                # what matters here.
                self.refs.add(value)
                continue
            if _is_parkable(value):
                self.refs.add(value)
                # fall through: a Cond reaches its Mutex, etc.
            self._push_referents(value, stack)
        return self

    def _push_referents(self, value: Any, stack: List[Any]) -> None:
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
            return
        if isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
            return
        if isinstance(value, types.GeneratorType):
            frame = value.gi_frame
            while frame is not None:
                stack.extend(frame.f_locals.values())
                sub = getattr(value, "gi_yieldfrom", None)
                if isinstance(sub, types.GeneratorType):
                    value, frame = sub, sub.gi_frame
                else:
                    frame = None
            return
        if isinstance(value, types.MethodType):
            stack.append(value.__self__)
            stack.append(value.__func__)
            return
        if isinstance(value, types.FunctionType):
            for cell in value.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # pragma: no cover - empty cell
                    pass
            stack.extend(value.__defaults__ or ())
            return
        if isinstance(value, types.FrameType):
            stack.extend(value.f_locals.values())
            return
        # functools.partial and friends.
        for attribute in ("func", "args", "keywords"):
            if hasattr(value, attribute):
                stack.append(getattr(value, attribute))
        # Arbitrary objects: traverse instance state (dict and slots).
        instance_dict = getattr(value, "__dict__", None)
        if isinstance(instance_dict, dict):
            stack.extend(instance_dict.values())
        for klass in type(value).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in ("__dict__", "__weakref__"):
                    continue
                try:
                    stack.append(getattr(value, slot))
                except AttributeError:
                    pass


def scan_values(*values: Any) -> Tuple[FrozenSet[Parkable], FrozenSet[int], int]:
    """One-shot scan: (parkable refs, goroutine gids, values visited)."""
    scanner = ValueScanner().scan(*values)
    return frozenset(scanner.refs), frozenset(scanner.goroutines), scanner.visited


class ReferenceTracker:
    """Incrementally maintained reference graph over one runtime."""

    def __init__(self, runtime: "Runtime"):
        self._runtime = runtime
        #: gid → parkables the goroutine's frames reference.
        self._cache: Dict[int, FrozenSet[Parkable]] = {}
        self._dirty: Set[int] = {
            gid for gid, g in runtime._goroutines.items() if g.alive
        }
        #: channel → (version at scan time, parkables inside its values).
        self._chan_cache: "weakref.WeakKeyDictionary[Channel, Tuple[int, FrozenSet[Parkable]]]" = (
            weakref.WeakKeyDictionary()
        )
        # Cumulative effort counters (the overhead benchmark's metric).
        self.goroutines_scanned = 0
        self.channels_scanned = 0
        self.values_visited = 0

    # -- scheduler-facing hooks ---------------------------------------------

    def mark_dirty(self, gid: int) -> None:
        self._dirty.add(gid)

    def forget(self, gid: int) -> None:
        self._cache.pop(gid, None)
        self._dirty.discard(gid)

    # -- sweep-facing API ----------------------------------------------------

    def sync(self, full: bool = False) -> int:
        """Refresh caches; returns how many goroutines were re-scanned."""
        goroutines = self._runtime._goroutines
        if full:
            self._cache.clear()
            self._chan_cache.clear()
            self._dirty = {gid for gid, g in goroutines.items() if g.alive}
        rescanned = 0
        for gid in list(self._dirty):
            goro = goroutines.get(gid)
            if goro is None or not goro.alive:
                self._dirty.discard(gid)
                continue
            self._cache[gid] = self._scan_goroutine(goro)
            rescanned += 1
        self._dirty.clear()
        return rescanned

    def refs_of(self, gid: int) -> FrozenSet[Parkable]:
        return self._cache.get(gid, frozenset())

    def _scan_goroutine(self, goro: Goroutine) -> FrozenSet[Parkable]:
        scanner = ValueScanner()
        scanner.scan(goro.gen, goro.pending_value)
        waiting = goro.waiting_on
        if isinstance(waiting, tuple):
            scanner.scan(*waiting)
        elif waiting is not None:
            scanner.scan(waiting)
        self.goroutines_scanned += 1
        self.values_visited += scanner.visited
        return frozenset(scanner.refs)

    def channel_refs(self) -> Dict[Channel, FrozenSet[Parkable]]:
        """Parkables reachable *through* each channel's undelivered values."""
        out: Dict[Channel, FrozenSet[Parkable]] = {}
        for channel in list(self._runtime._channels):
            cached = self._chan_cache.get(channel)
            if cached is not None and cached[0] == channel.version:
                out[channel] = cached[1]
                continue
            scanner = ValueScanner()
            scanner.scan(*channel.buffer)
            scanner.scan(
                *(w.value for w in channel.send_waiters if not w.stale)
            )
            refs = frozenset(scanner.refs)
            self._chan_cache[channel] = (channel.version, refs)
            self.channels_scanned += 1
            self.values_visited += scanner.visited
            out[channel] = refs
        return out

    def timer_refs(self) -> Tuple[FrozenSet[Parkable], FrozenSet[int]]:
        """(parkables, goroutine gids) the pending timers can wake.

        The runtime's own GC sweep timer is skipped: a sweep classifies
        and reclaims but never delivers a wakeup to user code, so it is
        not a root (the same exemption the scheduler's deadlock check
        applies).  The timer heap is lazily compacted by the runtime, so
        cancelled-ticker tombstones no longer inflate this walk.
        """
        runtime = self._runtime
        scanner = ValueScanner()
        for _when, _seq, timer in runtime._timers:
            if not timer.cancelled and timer is not runtime._gc_timer:
                scanner.scan(timer.callback)
        self.values_visited += scanner.visited
        return frozenset(scanner.refs), frozenset(scanner.goroutines)

    def work(self) -> int:
        """Cumulative scan effort (scans + values visited)."""
        return (
            self.goroutines_scanned
            + self.channels_scanned
            + self.values_visited
        )
