"""Injector adapters: how a :class:`FaultSchedule` reaches each layer.

Product code never imports this module and is never monkeypatched by
it.  Instead, every hardened layer grew an *injectable hook* —

* :class:`~repro.fleet.shard.ShardedFleet` accepts ``chaos=`` (an object
  with a ``plan(shard, op_index, command)`` method),
* :class:`~repro.ingest.store.IngestStore` accepts ``fault_hook=`` (a
  callable of the operation name),
* :class:`~repro.ingest.daemon.IngestServer` accepts ``fault_injector=``
  (an object with ``on_request(method, endpoint)``),
* :class:`~repro.ingest.client.IngestClient` accepts ``transport=`` (a
  callable performing the actual HTTP exchange) —

and the adapters here implement those hooks by consulting one shared
schedule.  The same hooks are how *tests* wedge in hand-written faults
without any schedule at all.
"""

from __future__ import annotations

import sqlite3
from typing import Optional, Tuple

from .schedule import FaultKind, FaultSchedule

#: What :meth:`ShardChaos.plan` can tell the fleet to do to a message.
KILL = "kill"
DROP = "drop"
CORRUPT = "corrupt"

#: Seconds a ``DAEMON_STALL`` fault without its own ``param`` stalls.
STALL_SECONDS = 0.2


class ShardChaos:
    """Shard-boundary faults: worker kills, dropped/corrupt messages.

    ``plan`` is consulted by :class:`~repro.fleet.shard.ShardedFleet`
    once per outbound command with the hook coordinate
    ``(shard, op_index)`` — ``op_index`` counts every message the parent
    has addressed to that shard since ``start()``, so a pinned
    ``KILL_WORKER`` at ``(1, 4)`` kills shard 1 exactly when its fourth
    command is in flight, replay after replay.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule

    def plan(self, shard: int, op_index: int, command: str) -> Optional[str]:
        if self.schedule.fires(FaultKind.KILL_WORKER, shard, op_index):
            return KILL
        if self.schedule.fires(FaultKind.DROP_MESSAGE, shard, op_index):
            return DROP
        if self.schedule.fires(FaultKind.CORRUPT_MESSAGE, shard, op_index):
            return CORRUPT
        return None


class StoreChaos:
    """Sqlite-layer faults, shaped like real contention/corruption.

    Usable directly as :class:`IngestStore`'s ``fault_hook``: called
    with the operation name before the operation touches the database;
    raising here is indistinguishable (to callers) from sqlite itself
    failing.  Hook coordinate: ``(op, per-op call ordinal)``.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._calls: dict = {}

    def __call__(self, op: str) -> None:
        ordinal = self._calls.get(op, 0)
        self._calls[op] = ordinal + 1
        if self.schedule.fires(FaultKind.SQLITE_ERROR, op, ordinal):
            raise sqlite3.OperationalError(
                f"database is locked (chaos: {op}#{ordinal})"
            )


class DaemonChaos:
    """Daemon-side faults: stalled and 5xx-failing requests.

    Plugs into :class:`IngestServer(fault_injector=...)`; consulted at
    the top of request routing with coordinate
    ``(endpoint, per-endpoint request ordinal)``.  Returns ``None`` (no
    fault), ``("stall", seconds)``, or ``("error", status)``.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._requests: dict = {}

    def on_request(
        self, method: str, endpoint: str
    ) -> Optional[Tuple[str, float]]:
        ordinal = self._requests.get(endpoint, 0)
        self._requests[endpoint] = ordinal + 1
        record = self.schedule.fires(FaultKind.DAEMON_STALL, endpoint, ordinal)
        if record is not None:
            return ("stall", record.param or STALL_SECONDS)
        record = self.schedule.fires(FaultKind.DAEMON_5XX, endpoint, ordinal)
        if record is not None:
            return ("error", record.param or 503.0)
        return None


class TransportChaos:
    """Client-side network faults wrapping a real transport.

    Shaped like :class:`IngestClient`'s ``transport`` callable.  When
    the schedule fires, raises ``urllib.error.URLError`` — the same
    exception a dead daemon or a timed-out socket produces — before the
    wire is ever touched; otherwise delegates to ``inner``.
    Coordinate: ``(attempt ordinal,)`` across the client's lifetime.
    """

    def __init__(self, schedule: FaultSchedule, inner):
        self.schedule = schedule
        self.inner = inner
        self._attempts = 0

    def __call__(self, req, timeout: float):
        from urllib import error

        ordinal = self._attempts
        self._attempts += 1
        if self.schedule.fires(FaultKind.DAEMON_STALL, "transport", ordinal):
            raise error.URLError(TimeoutError("chaos: injected stall"))
        return self.inner(req, timeout)


def poison_profile_text(seed: int = 0) -> str:
    """A profile body no dialect parser survives.

    Archives can acquire such rows without the upload path ever seeing
    them — operator backfills, schema drift between daemon versions, a
    parser regression after the bytes were accepted.  The sweep must
    treat them as dead letters, not grenades.
    """
    return (
        "goroutine \x00 [poisoned, seed="
        + str(seed)
        + "]:\n\tnot-a-frame\n\x00\x00garbage trailer\n"
    )
