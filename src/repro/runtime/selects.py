"""Resolution of Go ``select`` statements.

Mirrors the Go runtime's ``selectgo``: poll all arms for readiness, fire a
uniformly random ready arm, fall back to ``default`` if present, otherwise
park the goroutine on *every* arm's channel with a shared completion
ticket so that the first arm to fire cancels its siblings.
"""

from __future__ import annotations

from typing import Any, List

from .channel import SelectTicket, Waiter
from .errors import Panic
from .goroutine import PARKED, Goroutine, GoroutineState
from .ops import DEFAULT_CASE, RecvCase, SelectOp, SendCase

_BLOCKED_SELECT = GoroutineState.BLOCKED_SELECT


def resolve_select(goro: Goroutine, op: SelectOp) -> Any:
    """Execute one select statement on behalf of the running ``goro``.

    Returns the goroutine's resume value ``(index, value)`` when an arm
    or the default fired, or parks it across all arms and returns
    :data:`~repro.runtime.goroutine.PARKED`.  A select with zero cases
    and no default blocks forever, as in Go.
    """
    cases = op.cases
    if not cases and not op.has_default:
        goro.block(_BLOCKED_SELECT, ())
        return PARKED

    ready: List[int] = []
    for index, case in enumerate(cases):
        channel = case.channel
        if isinstance(case, RecvCase):
            if channel.recv_ready():
                ready.append(index)
        elif isinstance(case, SendCase):
            if channel.send_ready():
                ready.append(index)
        else:  # pragma: no cover - builder functions prevent this
            raise TypeError(f"not a select case: {case!r}")

    if ready:
        index = ready[0] if len(ready) == 1 else goro.runtime.rng.choice(ready)
        case = cases[index]
        if isinstance(case, RecvCase):
            completed, value, ok = case.channel.try_recv()
            assert completed, "ready recv case must complete"
            return (index, (value, ok)) if case.want_ok else (index, value)
        try:
            sent = case.channel.try_send(case.value)
        except Panic as exc:
            goro.throw(exc)
            return PARKED
        assert sent, "ready send case must complete"
        return (index, None)

    if op.has_default:
        return (DEFAULT_CASE, None)

    ticket = SelectTicket()
    parked_channels = []
    for index, case in enumerate(cases):
        channel = case.channel
        if channel.is_nil:
            # nil-channel arms are never ready; Go simply ignores them.
            continue
        if isinstance(case, RecvCase):
            waiter = Waiter(
                goro, want_ok=case.want_ok, ticket=ticket, case_index=index
            )
            channel.park_receiver(waiter)
        else:
            waiter = Waiter(goro, value=case.value, ticket=ticket, case_index=index)
            channel.park_sender(waiter)
        parked_channels.append(channel)
    goro.block(_BLOCKED_SELECT, tuple(parked_channels))
    return PARKED
