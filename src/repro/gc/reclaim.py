"""The reclaimer: safely unwind proven-leaked goroutines in place.

Once the mark engine proves a goroutine can never be woken, redeploying
the process is no longer the only remedy: the runtime can raise a
:class:`~repro.runtime.errors.LeakReclaimed` panic at the goroutine's
park site (the ``runtime.Goexit`` analog) and let its generator chain
unwind.  ``finally`` blocks run; a goroutine that *catches* the unwind
and keeps executing survives, is reported as such, and will simply be
re-examined by later sweeps.

Reclamation releases everything the leak pinned through the existing
RSS accounting: the goroutine's stack, its retained heap, and any
undelivered payloads parked in channel send queues (which are purged so
no stale waiter can ever be completed).

Behavior is governed by :class:`ReclaimPolicy`:

* ``observe`` — never unwind; sweeps only classify and annotate.
* ``reclaim`` — unwind every proven leak immediately.
* ``reclaim-and-report`` — unwind and retain the full
  :class:`~repro.gc.mark.LeakProof` of each reclaimed goroutine on the
  stats object for downstream reporting (tickets, dashboards).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, TYPE_CHECKING

from repro.runtime.channel import Channel, payload_bytes
from repro.runtime.errors import LeakReclaimed
from repro.runtime.goroutine import Goroutine

from .mark import LeakProof

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Runtime

#: Scheduler steps allowed per reclaimed goroutine during the unwind
#: drain — a runaway ``finally`` cannot hang the sweep.
UNWIND_STEP_BUDGET = 1_000


class ReclaimPolicy(enum.Enum):
    """What a sweep may do with proven leaks."""

    OBSERVE = "observe"
    RECLAIM = "reclaim"
    RECLAIM_AND_REPORT = "reclaim-and-report"

    @property
    def reclaims(self) -> bool:
        return self is not ReclaimPolicy.OBSERVE


@dataclass
class ReclaimStats:
    """Outcome of one reclamation pass."""

    attempted: int = 0
    reclaimed: int = 0  # unwound to completion
    survived: int = 0  # caught the unwind and kept running
    stack_bytes_released: int = 0
    heap_bytes_released: int = 0
    payload_bytes_released: int = 0
    unwind_panics: int = 0  # real panics raised by finally blocks
    #: Proofs of the reclaimed goroutines (reclaim-and-report only).
    reports: List[LeakProof] = field(default_factory=list)

    @property
    def bytes_released(self) -> int:
        return (
            self.stack_bytes_released
            + self.heap_bytes_released
            + self.payload_bytes_released
        )


def _purge_waiters(goro: Goroutine) -> int:
    """Remove the goroutine's parked waiters; returns payload bytes freed.

    Byte accounting: each purged non-stale send waiter's payload is
    charged back to its channel (keeping the runtime's incremental RSS
    counters exact), and any select tickets left behind are disarmed so
    their payload registrations can never double-release.
    """
    waiting = goro.waiting_on
    released = 0
    channels: List[Channel] = []
    orphaned_tickets = []
    if isinstance(waiting, Channel):
        channels = [waiting]
    elif isinstance(waiting, tuple):
        channels = [c for c in waiting if isinstance(c, Channel)]
    elif waiting is not None:
        # Sync primitive: drop the goroutine from its internal wait list.
        waiters = getattr(waiting, "_waiters", None)
        if waiters is not None:
            kept = [w for w in waiters if w is not goro]
            if isinstance(waiters, deque):
                waiters.clear()
                waiters.extend(kept)
            else:
                waiters[:] = kept
    for channel in channels:
        for queue_name in ("send_waiters", "recv_waiters"):
            queue = getattr(channel, queue_name)
            kept = deque()
            for waiter in queue:
                if waiter.goro is goro:
                    if queue_name == "send_waiters" and not waiter.stale:
                        nbytes = payload_bytes(waiter.value)
                        released += nbytes
                        channel._charge_pending(-nbytes)
                    if waiter.ticket is not None:
                        orphaned_tickets.append(waiter.ticket)
                    continue
                kept.append(waiter)
            setattr(channel, queue_name, kept)
        channel.version += 1
    # Every waiter of these tickets belonged to the purged goroutine, so
    # nothing can complete them anymore; drop their registrations outright.
    for ticket in orphaned_tickets:
        ticket.pending_sends = None
    return released


def reclaim_goroutines(
    runtime: "Runtime",
    targets: Iterable[Goroutine],
    proofs: Optional[dict] = None,
    keep_reports: bool = False,
) -> ReclaimStats:
    """Unwind ``targets`` (proven leaks) and drain the resulting steps.

    Panics raised by unwinding code are *recorded* (never re-raised),
    regardless of the runtime's ``panic_mode`` — a reclamation sweep must
    not take down the process it is trying to heal.
    """
    stats = ReclaimStats()
    victims: List[Goroutine] = []
    for goro in targets:
        if not goro.alive or not goro.blocked:
            continue
        stats.attempted += 1
        stats.stack_bytes_released += goro.stack_bytes
        stats.heap_bytes_released += goro.retained_bytes
        stats.payload_bytes_released += _purge_waiters(goro)
        site = goro.blocking_frame()
        goro.throw(
            LeakReclaimed(
                f"leak reclaimed at {site.location if site else 'unknown'}"
            )
        )
        victims.append(goro)

    # Drain the unwinds synchronously.  Safe re-entrantly: this runs
    # either outside any run loop or inside a timer callback, where the
    # outer loop's invariant is an empty run queue — which is exactly
    # the state we leave behind.
    previous_mode = runtime.panic_mode
    previous_panics = len(runtime.panics)
    runtime.panic_mode = "record"
    try:
        budget = UNWIND_STEP_BUDGET * max(1, len(victims))
        runtime._run(runtime.steps + budget, None, advance=False)
    finally:
        runtime.panic_mode = previous_mode
    stats.unwind_panics = len(runtime.panics) - previous_panics

    for goro in victims:
        if goro.alive:
            stats.survived += 1
            # The unwind was caught: the goroutine kept its stack/heap.
            stats.stack_bytes_released -= goro.stack_bytes
            stats.heap_bytes_released -= goro.retained_bytes
        else:
            stats.reclaimed += 1
            if keep_reports and proofs is not None:
                proof = proofs.get(goro.gid)
                if proof is not None:
                    stats.reports.append(proof)
    return stats
