"""Go channels: unbuffered rendezvous, buffered queues, close, nil channels.

Semantics follow the Go memory model:

* Unbuffered send blocks until a receiver is ready (and vice versa).
* Buffered send blocks only when the buffer is full; receive blocks only
  when the buffer is empty and no sender is parked.
* ``close`` wakes every parked receiver with the zero value and ``ok=False``
  and *panics* every parked sender (``send on closed channel``), exactly as
  the Go runtime does.
* Send/receive on a nil channel blocks forever; a select arm on a nil
  channel is never ready.

Memory accounting: values wrapped in :class:`Payload` carry a byte size that
is charged to the channel while buffered and to the receiving goroutine's
retained heap once delivered (freed when that goroutine exits).  This is the
mechanism by which a leaked goroutine pins heap, per the paper's Section II.

Accounting is *incremental*: every buffer or parked-sender mutation adjusts
running byte counters on the channel and reports the delta to the owning
runtime, so ``Runtime.rss()`` is a counter read instead of a walk over every
channel.  Select send-arms register their payload on the shared
:class:`SelectTicket`; when any sibling arm fires, the ticket releases every
registered payload at once — the moment those waiters become stale.  A
``weakref.finalize`` hook returns a collected channel's remaining bytes to
the runtime, mirroring how the old ``WeakSet`` scan simply stopped seeing
dead channels.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Tuple

from .errors import (
    CloseOfClosedChannel,
    CloseOfNilChannel,
    Panic,
    SendOnClosedChannel,
)
from .goroutine import PARKED, Goroutine, GoroutineState

_BLOCKED_SEND = GoroutineState.BLOCKED_SEND
_BLOCKED_RECV = GoroutineState.BLOCKED_RECV

_chan_ids = itertools.count(1)

#: Indices into a channel's accounting cell (shared with its finalizer).
_BUFFERED = 0
_PENDING = 1


def _return_channel_bytes(runtime_ref: "weakref.ref", acct: List[int]) -> None:
    """Finalizer: a collected channel's bytes leave the runtime's books.

    Mirrors the scan-based accounting, where a garbage-collected channel
    silently dropped out of the ``WeakSet`` walk.  Takes the mutable
    accounting cell (never the channel itself, which is already dead).
    """
    runtime = runtime_ref()
    if runtime is not None:
        runtime._chan_bytes -= acct[_BUFFERED] + acct[_PENDING]


@dataclass(frozen=True, slots=True)
class Payload:
    """A channel value annotated with a heap size for RSS modeling."""

    value: Any
    nbytes: int = 0


def payload_bytes(value: Any) -> int:
    """Heap bytes attributed to ``value`` (0 unless it is a Payload)."""
    return value.nbytes if isinstance(value, Payload) else 0


class SelectTicket:
    """Shared completion token for all waiters of one select statement.

    When any arm of a select fires, its ticket is marked done; stale
    waiters left enqueued on sibling channels are skipped and garbage-
    collected lazily on the next queue scan (the standard "dequeue and
    discard" scheme Go's runtime uses for select).

    Send arms carrying :class:`Payload` bytes register them here so the
    instant the ticket completes — when every sibling becomes stale — the
    bytes leave each channel's pending-send counter without any queue walk.
    """

    __slots__ = ("done", "pending_sends")

    def __init__(self) -> None:
        self.done = False
        #: Lazily-built [(channel, nbytes), ...] of parked send-arm payloads.
        self.pending_sends: Optional[List[Tuple["Channel", int]]] = None

    def register_payload(self, channel: "Channel", nbytes: int) -> None:
        if self.pending_sends is None:
            self.pending_sends = []
        self.pending_sends.append((channel, nbytes))

    def release_payloads(self) -> None:
        """Drop every registered payload from its channel's pending books."""
        if self.pending_sends is not None:
            for channel, nbytes in self.pending_sends:
                channel._charge_pending(-nbytes)
            self.pending_sends = None


class Waiter:
    """A goroutine parked on one channel operation (possibly a select arm)."""

    __slots__ = ("goro", "value", "want_ok", "ticket", "case_index")

    def __init__(
        self,
        goro: Goroutine,
        value: Any = None,
        want_ok: bool = False,
        ticket: Optional[SelectTicket] = None,
        case_index: int = 0,
    ):
        self.goro = goro
        self.value = value
        self.want_ok = want_ok
        self.ticket = ticket
        self.case_index = case_index

    @property
    def stale(self) -> bool:
        return self.ticket is not None and self.ticket.done


def _claim(waiters: Deque[Waiter]) -> Optional[Waiter]:
    """Pop and claim the first waiter in ``waiters`` that can still complete.

    A plain op needs no claim.  A select arm claims its ticket, which
    releases every sibling's registered payload; arms whose select
    already fired are stale and dropped.
    """
    while waiters:
        waiter = waiters.popleft()
        ticket = waiter.ticket
        if ticket is None:
            return waiter
        if not ticket.done:
            ticket.done = True
            ticket.release_payloads()
            return waiter
    return None


class Channel:
    """A Go channel of a given ``capacity`` (0 = unbuffered)."""

    __slots__ = (
        "cid",
        "capacity",
        "label",
        "buffer",
        "send_waiters",
        "recv_waiters",
        "closed",
        "version",
        "_rt",
        "_acct",
        "_fin",
        "__weakref__",
    )

    def __init__(
        self,
        capacity: int = 0,
        label: Optional[str] = None,
    ):
        if capacity < 0:
            raise ValueError("negative channel capacity")
        self.cid = next(_chan_ids)
        self.capacity = capacity
        self.label = label or f"chan#{self.cid}"
        self.buffer: Deque[Any] = deque()
        self.send_waiters: Deque[Waiter] = deque()
        self.recv_waiters: Deque[Waiter] = deque()
        self.closed = False
        #: Monotonic mutation counter (buffer, waiter queues, close).  The
        #: repro.gc reference tracker compares it against the version it
        #: last scanned to skip channels whose contents cannot have changed.
        self.version = 0
        #: Owning runtime (set by ``Runtime.make_chan``); byte deltas are
        #: reported to it so process RSS never re-walks channels.
        self._rt: Optional[Any] = None
        #: [buffered bytes, pending-send bytes] — a mutable cell shared
        #: with the finalizer so collection can return the remainder.
        self._acct: List[int] = [0, 0]
        self._fin: Optional[Any] = None

    # -- byte accounting -----------------------------------------------------

    def _charge(self, index: int, delta: int) -> None:
        """Adjust one byte counter and mirror the delta on the owner."""
        self._acct[index] += delta
        runtime = self._rt
        if runtime is not None:
            runtime._chan_bytes += delta
            if self._fin is None:
                # First payload byte on an owned channel: arrange for the
                # contribution to be returned when the channel is GC'd.
                self._fin = weakref.finalize(
                    self, _return_channel_bytes, weakref.ref(runtime), self._acct
                )

    def _charge_buffered(self, delta: int) -> None:
        if delta:
            self._charge(_BUFFERED, delta)

    def _charge_pending(self, delta: int) -> None:
        if delta:
            self._charge(_PENDING, delta)

    # -- introspection -------------------------------------------------------

    #: Class constant (not a property: ``is_nil`` is checked on every
    #: send/recv, and a Python-level property call is measurable there).
    is_nil = False

    @property
    def buffered_bytes(self) -> int:
        """Heap bytes pinned by values sitting in the buffer (O(1) read)."""
        return self._acct[_BUFFERED]

    @property
    def pending_send_bytes(self) -> int:
        """Heap bytes pinned by parked senders' undelivered values (O(1)).

        This is the memory-leak mechanism of the paper's Listing 1: a
        sender blocked forever keeps its message (and everything reachable
        from it) live.
        """
        return self._acct[_PENDING]

    def _scan_buffered_bytes(self) -> int:
        """Debug/audit path: recompute buffered bytes by walking the deque."""
        return sum(payload_bytes(v) for v in self.buffer)

    def _scan_pending_send_bytes(self) -> int:
        """Debug/audit path: recompute pending bytes by walking the queue."""
        return sum(
            payload_bytes(w.value) for w in self.send_waiters if not w.stale
        )

    def __len__(self) -> int:
        return len(self.buffer)

    def _peek_recv_waiter(self) -> Optional[Waiter]:
        for waiter in self.recv_waiters:
            if not waiter.stale:
                return waiter
        return None

    def _peek_send_waiter(self) -> Optional[Waiter]:
        for waiter in self.send_waiters:
            if not waiter.stale:
                return waiter
        return None

    def has_recv_waiter(self) -> bool:
        """True when a receiver is parked and claimable right now.

        The public form of the waiter peek — used by tickers to decide
        whether a tick can be handed straight to a receiver.
        """
        return self._peek_recv_waiter() is not None

    def has_send_waiter(self) -> bool:
        """True when a sender is parked and claimable right now."""
        return self._peek_send_waiter() is not None

    def send_ready(self) -> bool:
        """Would a send complete without blocking right now?

        Note: a send on a *closed* channel is "ready" in select semantics —
        it proceeds immediately, by panicking.
        """
        if self.closed:
            return True
        if self.recv_waiters and self._peek_recv_waiter() is not None:
            return True
        return len(self.buffer) < self.capacity

    def recv_ready(self) -> bool:
        """Would a receive complete without blocking right now?"""
        if self.buffer:
            return True
        if self.send_waiters and self._peek_send_waiter() is not None:
            return True
        return self.closed

    # -- operations (invoked by the scheduler) -------------------------------

    def try_send(self, value: Any) -> bool:
        """Attempt a non-blocking send; True on success.

        Raises :class:`SendOnClosedChannel` if the channel is closed.
        """
        if self.closed:
            raise SendOnClosedChannel()
        receiver = _claim(self.recv_waiters) if self.recv_waiters else None
        if receiver is not None:
            self.version += 1
            self._deliver(receiver, value, ok=True)
            return True
        if len(self.buffer) < self.capacity:
            self.version += 1
            self.buffer.append(value)
            if isinstance(value, Payload):
                self._charge_buffered(value.nbytes)
            return True
        return False

    def try_recv(self) -> Tuple[bool, Any, bool]:
        """Attempt a non-blocking receive.

        Returns ``(completed, value, ok)``.  ``ok`` is False only when the
        channel is closed and drained (Go's zero-value receive).
        """
        if self.buffer:
            self.version += 1
            value = self.buffer.popleft()
            if isinstance(value, Payload):
                self._charge(_BUFFERED, -value.nbytes)
            # A parked sender can now move its value into the freed slot.
            sender = _claim(self.send_waiters) if self.send_waiters else None
            if sender is not None:
                moved = sender.value
                if isinstance(moved, Payload):
                    # Select arms settle via the ticket's claim.
                    if sender.ticket is None:
                        self._charge(_PENDING, -moved.nbytes)
                    self._charge(_BUFFERED, moved.nbytes)
                self.buffer.append(moved)
                self._wake_sender(sender)
            return True, value, True
        if self.send_waiters:
            sender = _claim(self.send_waiters)
            if sender is not None:
                self.version += 1
                value = sender.value
                if sender.ticket is None and isinstance(value, Payload):
                    self._charge(_PENDING, -value.nbytes)
                self._wake_sender(sender)
                return True, value, True
        if self.closed:
            return True, None, False
        return False, None, False

    def send_op(self, goro: Goroutine, value: Any) -> Any:
        """``ch <- value`` for the running ``goro``, in one call.

        Hands the value to a parked receiver or the buffer and returns
        ``None`` (the send's resume value), or parks ``goro`` on the
        channel — or throws ``send on closed channel`` into it — and
        returns :data:`PARKED`.
        """
        try:
            if self.try_send(value):
                return None
        except Panic as exc:
            goro.throw(exc)
            return PARKED
        self.version += 1
        if isinstance(value, Payload):
            self._charge_pending(value.nbytes)
        self.send_waiters.append(Waiter(goro, value))
        goro.block(_BLOCKED_SEND, self)
        return PARKED

    def recv_op(self, goro: Goroutine, want_ok: bool) -> Any:
        """``<-ch`` for the running ``goro``, in one call.

        Returns the received value (``(value, ok)`` with ``want_ok``), or
        parks ``goro`` on the channel and returns :data:`PARKED`.  A
        receive that must park — the common case — never leaves this
        method.
        """
        if self.buffer or self.send_waiters or self.closed:
            completed, value, ok = self.try_recv()
            if completed:
                if isinstance(value, Payload):
                    value = value.value
                return (value, ok) if want_ok else value
        self.version += 1
        self.recv_waiters.append(Waiter(goro, None, want_ok))
        goro.block(_BLOCKED_RECV, self)
        return PARKED

    def _settle_pending(self, waiter: Waiter) -> None:
        """A parked sender just completed: its payload leaves the books.

        Select arms are settled by the ticket (which releases every
        sibling's registration, including this one's); plain sends are
        settled here.
        """
        if waiter.ticket is None:
            self._charge_pending(-payload_bytes(waiter.value))

    def park_sender(self, waiter: Waiter) -> None:
        self.version += 1
        nbytes = payload_bytes(waiter.value)
        if nbytes:
            self._charge_pending(nbytes)
            if waiter.ticket is not None:
                waiter.ticket.register_payload(self, nbytes)
        self.send_waiters.append(waiter)

    def park_receiver(self, waiter: Waiter) -> None:
        self.version += 1
        self.recv_waiters.append(waiter)

    def close(self) -> None:
        """Close the channel, waking receivers and panicking parked senders."""
        if self.closed:
            raise CloseOfClosedChannel()
        self.closed = True
        self.version += 1
        while (waiter := _claim(self.recv_waiters)) is not None:
            self._deliver(waiter, None, ok=False)
        while (waiter := _claim(self.send_waiters)) is not None:
            # The undelivered payload dies with the panicked send.
            self._settle_pending(waiter)
            waiter.goro.throw(SendOnClosedChannel())

    # -- wakeup plumbing ------------------------------------------------------

    def _deliver(self, waiter: Waiter, value: Any, ok: bool) -> None:
        """Hand ``value`` to a parked receiver and make it runnable.

        Delivered values are assumed to be processed and released promptly
        by healthy receivers; heap pinned by *leaked* goroutines is modeled
        explicitly via ``alloc`` and by :attr:`pending_send_bytes`.
        """
        if isinstance(value, Payload):
            value = value.value
        if waiter.ticket is not None:
            if waiter.want_ok:
                resumed: Any = (waiter.case_index, (value, ok))
            else:
                resumed = (waiter.case_index, value)
        elif waiter.want_ok:
            resumed = (value, ok)
        else:
            resumed = value
        waiter.goro.make_runnable(resumed)

    def _wake_sender(self, waiter: Waiter) -> None:
        if waiter.ticket is not None:
            waiter.goro.make_runnable((waiter.case_index, None))
        else:
            waiter.goro.make_runnable(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return (
            f"<Channel {self.label} cap={self.capacity} len={len(self.buffer)}"
            f" {state} sendq={len(self.send_waiters)} recvq={len(self.recv_waiters)}>"
        )


class NilChannel:
    """The nil channel: every operation blocks forever, close panics.

    A shared singleton is exposed as :data:`NIL_CHANNEL`; comparing against
    it mirrors ``ch == nil`` checks in Go code.
    """

    __slots__ = ()

    cid = 0
    label = "nil"
    capacity = 0
    closed = False
    version = 0
    is_nil = True

    @property
    def buffered_bytes(self) -> int:
        return 0

    @property
    def pending_send_bytes(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def send_ready(self) -> bool:
        return False

    def recv_ready(self) -> bool:
        return False

    def has_recv_waiter(self) -> bool:
        return False

    def has_send_waiter(self) -> bool:
        return False

    def try_send(self, value: Any) -> bool:
        return False

    def try_recv(self) -> Tuple[bool, Any, bool]:
        return False, None, False

    def park_sender(self, waiter: Waiter) -> None:
        """Parked forever; the waiter is intentionally dropped."""

    def park_receiver(self, waiter: Waiter) -> None:
        """Parked forever; the waiter is intentionally dropped."""

    def send_op(self, goro: Goroutine, value: Any) -> Any:
        goro.block(_BLOCKED_SEND, self)
        return PARKED

    def recv_op(self, goro: Goroutine, want_ok: bool) -> Any:
        goro.block(_BLOCKED_RECV, self)
        return PARKED

    def close(self) -> None:
        raise CloseOfNilChannel()

    def __repr__(self) -> str:  # pragma: no cover
        return "<Channel nil>"


#: The canonical nil channel.
NIL_CHANNEL = NilChannel()
