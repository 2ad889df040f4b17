"""The mark engine: GC-style reachability over goroutines and channels.

From the GC roots — goroutines the scheduler can or will run again
(runnable, running, sleeping, IO-wait, syscall), live timers, and
externally pinned objects (``Runtime.gc_roots``) — the engine floods the
reference graph maintained by :mod:`repro.gc.refs` and classifies every
parked goroutine:

* **PROVEN_LEAKED** — no live entity can ever perform the complementary
  operation (or a close) on anything the goroutine is parked on.  This
  is a *proof*, not a heuristic: references only propagate by copying,
  so an unreachable channel can never become reachable again and the
  verdict is stable forever.  Nil-channel ops, empty selects, and the
  timer-orbit case (below) are the special forms.
* **POSSIBLY_LEAKED** — the goroutine cannot be revived through anything
  the engine can see, but its wake condition is not fully known (e.g. a
  bare ``park("semacquire")`` with no primitive attached).
* **LIVE** — some root, live timer, or revivable goroutine still holds a
  handle that can wake it.

**Timer orbits.**  A goroutine looping on ``<-time.After(p)`` is woken
by the clock forever, so plain reachability calls it live.  But when its
entire connected component — the channels it references and everything
parked on them — is cut off from every core-live goroutine and pinned
root, no code in the program can ever stop it, signal it, or observe it
again.  The engine proves that *isolation* and flags the orbit as
PROVEN_LEAKED (the paper's §VI-A2 timer loops, 44% of receive leaks).

Incremental mode re-marks only the non-proven population (proofs are
stable, see above) over the incrementally refreshed reference graph, so
steady-state sweeps cost O(changes), not O(heap).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.runtime.channel import Channel
from repro.runtime.goroutine import (
    EXTERNALLY_WAKEABLE_STATES,
    Goroutine,
    GoroutineState,
)

from .refs import Parkable, ReferenceTracker, scan_values

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Runtime

#: Goroutine states that are GC roots: the scheduler can or will resume
#: them regardless of channel reachability.
ROOT_STATES = frozenset(
    {
        GoroutineState.RUNNABLE,
        GoroutineState.RUNNING,
        GoroutineState.SLEEPING,
    }
) | EXTERNALLY_WAKEABLE_STATES


class Verdict(enum.Enum):
    """The three verdict tiers of one sweep."""

    LIVE = "live"
    POSSIBLY_LEAKED = "possible"
    PROVEN_LEAKED = "proven"


# Module globals, not Enum class attributes: the classification loop
# loads these once per parked goroutine per sweep, and a class-attribute
# load costs a metaclass lookup.
_LIVE = Verdict.LIVE
_POSSIBLY_LEAKED = Verdict.POSSIBLY_LEAKED
_PROVEN_LEAKED = Verdict.PROVEN_LEAKED
_BLOCKED_SELECT = GoroutineState.BLOCKED_SELECT


@dataclass(frozen=True)
class LeakProof:
    """Why one goroutine can never be woken (or reached) again."""

    gid: int
    name: str
    state: str  # wait-reason string, e.g. "chan send"
    park_site: Optional[str]  # file:line of the blocking operation
    channels: Tuple[str, ...]  # labels of the unreachable parkables
    reason: str  # "unreachable" | "nil-channel" | "empty-select" | "timer-orbit"
    proven_at: float  # virtual time of the proving sweep

    @property
    def summary(self) -> str:
        where = f" at {self.park_site}" if self.park_site else ""
        what = f" on {', '.join(self.channels)}" if self.channels else ""
        return (
            f"goroutine {self.gid} ({self.name}) [{self.state}]{where}{what}: "
            f"{self.reason}"
        )


@dataclass
class MarkResult:
    """Everything one mark pass computed."""

    verdicts: Dict[int, Verdict] = field(default_factory=dict)
    proofs: Dict[int, LeakProof] = field(default_factory=dict)
    goroutines_marked: int = 0
    objects_reached: int = 0

    def count(self, verdict: Verdict) -> int:
        return sum(1 for v in self.verdicts.values() if v is verdict)


def _wake_set(goro: Goroutine) -> Optional[Tuple[Parkable, ...]]:
    """What can wake this parked goroutine; () if provably nothing,
    None if unknown (bare park with no primitive attached)."""
    waiting = goro.waiting_on
    if waiting is None:
        return None
    if isinstance(waiting, tuple):  # select: the parked (non-nil) arms
        return tuple(c for c in waiting if not getattr(c, "is_nil", False))
    if getattr(waiting, "is_nil", False):  # nil channel op
        return ()
    return (waiting,)


def _labels(goro: Goroutine) -> Tuple[str, ...]:
    wake = _wake_set(goro)
    if not wake:
        return ()
    return tuple(
        getattr(obj, "label", type(obj).__name__) for obj in wake
    )


def mark(
    runtime: "Runtime",
    tracker: ReferenceTracker,
    skip: FrozenSet[int] = frozenset(),
) -> MarkResult:
    """One mark pass; ``skip`` holds gids whose PROVEN verdict stands."""
    result = MarkResult()
    goros: Dict[int, Goroutine] = {
        gid: g
        for gid, g in runtime._goroutines.items()
        if g.alive and gid not in skip
    }
    refs: Dict[int, FrozenSet[Parkable]] = {
        gid: tracker.refs_of(gid) for gid in goros
    }
    chan_refs = tracker.channel_refs()
    timer_objs, timer_gids = tracker.timer_refs()

    parked_on: Dict[Parkable, List[int]] = {}
    wake_sets: Dict[int, Optional[Tuple[Parkable, ...]]] = {}
    for gid, goro in goros.items():
        if goro.state in ROOT_STATES:
            continue
        wake = _wake_set(goro)
        wake_sets[gid] = wake
        for obj in wake or ():
            parked_on.setdefault(obj, []).append(gid)

    live: Set[int] = set()
    reachable: Set[Parkable] = set()
    worklist: deque = deque()  # ("goro", gid) | ("obj", parkable)

    def flood() -> None:
        while worklist:
            kind, item = worklist.popleft()
            if kind == "goro":
                if item in live or item not in goros:
                    continue
                live.add(item)
                result.goroutines_marked += 1
                for obj in refs.get(item, ()):
                    worklist.append(("obj", obj))
            else:
                if item in reachable:
                    continue
                reachable.add(item)
                result.objects_reached += 1
                for obj in chan_refs.get(item, ()):
                    worklist.append(("obj", obj))
                for gid in parked_on.get(item, ()):
                    worklist.append(("goro", gid))

    # Phase 1 — core roots: goroutines the scheduler will run again and
    # externally pinned handles.  No timers yet.
    for gid, goro in goros.items():
        if goro.state in ROOT_STATES:
            worklist.append(("goro", gid))
    if runtime.gc_roots:
        pinned, _gids, visited = scan_values(*runtime.gc_roots)
        tracker.values_visited += visited
        for obj in pinned:
            worklist.append(("obj", obj))
    flood()
    core_live = frozenset(live)
    core_reachable = frozenset(reachable)

    # Phase 2 — the virtual clock: channels timers will feed and
    # goroutines timers will wake directly (sleeps, timed parks).
    for obj in timer_objs:
        worklist.append(("obj", obj))
    for gid in timer_gids:
        worklist.append(("goro", gid))
    flood()

    # Classification.
    holders: Dict[Parkable, List[int]] = {}
    for gid, objs in refs.items():
        for obj in objs:
            holders.setdefault(obj, []).append(gid)

    for gid, goro in goros.items():
        if goro.state in ROOT_STATES:
            result.verdicts[gid] = _LIVE
            continue
        if gid in live:
            if (
                gid not in core_live
                and gid not in timer_gids
                and goro.channel_blocked
                and _isolated(
                    gid, refs, wake_sets, chan_refs, parked_on, holders,
                    core_live, core_reachable,
                )
            ):
                result.verdicts[gid] = _PROVEN_LEAKED
                result.proofs[gid] = _proof(runtime, goro, "timer-orbit")
            else:
                result.verdicts[gid] = _LIVE
            continue
        wake = wake_sets.get(gid)
        if wake is None:
            result.verdicts[gid] = _POSSIBLY_LEAKED
            continue
        result.verdicts[gid] = _PROVEN_LEAKED
        if wake == ():
            if goro.state is _BLOCKED_SELECT:
                reason = "empty-select"
            else:
                reason = "nil-channel"
        else:
            reason = "unreachable"
        result.proofs[gid] = _proof(runtime, goro, reason)
    return result


def _proof(runtime: "Runtime", goro: Goroutine, reason: str) -> LeakProof:
    frame = goro.blocking_frame()
    return LeakProof(
        gid=goro.gid,
        name=goro.name,
        state=goro.state.value,
        park_site=frame.location if frame is not None else None,
        channels=_labels(goro),
        reason=reason,
        proven_at=runtime.now,
    )


def _isolated(
    start_gid: int,
    refs: Dict[int, FrozenSet[Parkable]],
    wake_sets: Dict[int, Optional[Tuple[Parkable, ...]]],
    chan_refs: Dict[Channel, FrozenSet[Parkable]],
    parked_on: Dict[Parkable, List[int]],
    holders: Dict[Parkable, List[int]],
    core_live: FrozenSet[int],
    core_reachable: FrozenSet[Parkable],
) -> bool:
    """Is this goroutine's connected component cut off from all core-live
    code?  BFS over the *undirected* reference graph; any touch of a
    core-live goroutine or core-reachable object disproves isolation."""
    seen_goros: Set[int] = set()
    seen_objs: Set[Parkable] = set()
    pending: deque = deque([("goro", start_gid)])
    while pending:
        kind, item = pending.popleft()
        if kind == "goro":
            if item in core_live:
                return False
            if item in seen_goros:
                continue
            seen_goros.add(item)
            for obj in refs.get(item, ()):
                pending.append(("obj", obj))
            for obj in wake_sets.get(item) or ():
                pending.append(("obj", obj))
        else:
            if item in core_reachable:
                return False
            if item in seen_objs:
                continue
            seen_objs.add(item)
            for obj in chan_refs.get(item, ()):
                pending.append(("obj", obj))
            for gid in parked_on.get(item, ()):
                pending.append(("goro", gid))
            for gid in holders.get(item, ()):
                pending.append(("goro", gid))
    return True
