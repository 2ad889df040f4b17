"""Delta snapshots: the wire half of the streaming observation plane.

A batch :class:`~repro.snapshot.InstanceSnapshot` ships every goroutine
record every time it crosses a process boundary.  A leak detector needs
far less: LeakProf judges a source location by how many goroutines are
blocked there (§V-A), so per instance the answer grows with the number
of *signatures*, not with the number of parked goroutines.

This module holds what a shard worker ships.  What changed since the
last ship is a plain set of gids on the runtime, ``runtime._delta``: a
goroutine's profile entry (wait state, blocking frame, verdict) is
fixed from the moment it parks until it is woken, so a gid is added
only where it parks (``Goroutine.block``), wakes
(``Goroutine.make_runnable``, ``Goroutine.throw``) or takes a new gc
verdict (``repro.gc.sweep``).  A filed goroutine is woken before it can
finish, so its wake is what unfiles it.  At a ship boundary the worker
drains the set into its per-instance signature index
(``repro.fleet.shard``).

:data:`SignatureEntry` and :data:`WireDelta` are what one ship carries
per changed signature and per instance.  Entries hold *absolute*
values, so applying one twice changes nothing, which is what lets
journal-replay crash recovery re-apply an in-flight window.

The representative travels as a :data:`WireRecord`: a record template
with ``wait_seconds=0.0`` plus ``blocked_since``; its age is a
parent-side function of (ship time − blocked_since), exactly the
formula ``snapshot_goroutine`` uses.

Addresses: across the worker boundary an instance is named only by its
**slot**, its fixed position in the fleet (service-add, then index
order).  Delta entries, stat rows and checkpoint entries all name slots;
which shard owns a slot is known only to the parent.

Stat rows: an instance's O(1) counters travel as one fixed-layout
``_ROW`` (:func:`pack_row`), never as a pickled object.  A worker's reply
carries the packed rows of every instance its command touched as one
compressed **stat block**, in the order of the reply's slots; the parent
unpacks them with :func:`unpack_rows` and indexes each row with the
``F_*`` field constants.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, List, Optional, Tuple

from repro.profiling import GoroutineRecord, snapshot_goroutine

#: One record on the wire: (template with wait_seconds=0, blocked_since).
WireRecord = Tuple[GoroutineRecord, Optional[float]]

#: One changed signature: (state, location, count, least gid, any member
#: proven, representative).  Count 0 removes the signature (its least
#: gid is then 0 and its representative None).
SignatureEntry = Tuple[str, str, int, int, bool, Optional[WireRecord]]

#: One instance's delta payload: (slot, full, entries) — ``full=True``
#: replaces the parent's signature set wholesale (init / restart /
#: anti-entropy resync).  The counters ride the reply's stat block, not
#: the delta.
WireDelta = Tuple[int, bool, List[SignatureEntry]]


#: t, cpu_percent (doubles), then rss, blocked, goroutines: what the
#: parent's histories, instance mirrors and representative ages read.
_ROW = struct.Struct("=ddqqq")

ROW_BYTES = _ROW.size

#: Field indices into one unpacked row tuple.
F_T = 0
F_CPU = 1
F_RSS = 2
F_BLOCKED = 3
F_GOROUTINES = 4


def pack_row(instance: Any) -> bytes:
    """Pack one live instance's counters into a stat row.

    The worker hot path: every field is an O(1) counter read.
    """
    runtime = instance.runtime
    return _ROW.pack(
        runtime.now, instance.cpu_utilization(), instance.rss(),
        runtime.blocked_goroutines_count, runtime.num_goroutines,
    )


def unpack_rows(rows: bytes) -> Iterator[Tuple]:
    """The rows of an opened stat block, one unpacked tuple each."""
    return _ROW.iter_unpack(rows)


def wire_record(goro) -> WireRecord:
    """``goro``'s record as it travels: an unaged template plus the
    instant it blocked."""
    template = snapshot_goroutine(goro, 0.0)
    if template.wait_seconds != 0.0:  # pragma: no cover - negative clock
        template = template.aged(0.0)
    return (template, goro.blocked_since)

