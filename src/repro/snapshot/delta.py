"""Delta snapshots: the wire half of the streaming observation plane.

A batch :class:`~repro.snapshot.InstanceSnapshot` ships every goroutine
record every time it crosses a process boundary.  At fleet scale almost
none of those records changed since the last ship — a parked goroutine's
stack, state, and creation context are immutable while it stays parked;
only its *age* moves, and age is recomputable from ``blocked_since``.

This module makes that observation structural, worker-side and on the
wire:

* :class:`DeltaTracker` lives worker-side, attached to a runtime as
  ``runtime._delta`` (mirroring the ``gc.refs`` dirty-gid machinery).
  The scheduler marks goroutines dirty at the only points their record
  can change (spawn, step, gc-verdict stamp) and reports finishes; at a
  ship boundary :meth:`DeltaTracker.collect` drains the dirty set into
  record templates plus tombstones for goroutines that finished after
  having been shipped.
* :data:`WireRecord` and :data:`WireDelta` are what one ship carries
  per record and per instance.

Record templates carry ``wait_seconds=0.0`` on the wire; ages are a
parent-side function of (ship time − blocked_since), exactly the formula
``snapshot_goroutine`` uses.  The parent folds deltas into its one
record per instance (``repro.fleet.shard``), which upserts and deletes,
so application is idempotent and journal-replay crash recovery can
re-apply an in-flight window without double counting.

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
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.profiling import GoroutineRecord, snapshot_goroutine
from repro.runtime import GoroutineState

#: One record on the wire: (template with wait_seconds=0, blocked_since).
WireRecord = Tuple[GoroutineRecord, Optional[float]]

#: One instance's delta payload:
#: (slot, full, records, tombstones, gc) — ``full=True`` replaces the
#: parent's record of the instance wholesale (init / restart / anti-entropy resync), ``gc`` is a
#: GCSnapshot field tuple or None.  The counters ride the reply's stat
#: block, not the delta.
WireDelta = Tuple[int, bool, List[WireRecord], Tuple[int, ...], Optional[Tuple]]


#: The census order of a row: one count per ``GoroutineState`` value.
STATE_VALUES = tuple(state.value for state in GoroutineState)
#: t, cpu_percent (doubles), then rss, blocked, goroutines,
#: requests_window, requests_total, steps, windows, census[...]
_ROW = struct.Struct("=dd" + "q" * (7 + len(STATE_VALUES)))

ROW_BYTES = _ROW.size

#: Field indices into one unpacked row tuple.
F_T = 0
F_CPU = 1
F_RSS = 2
F_BLOCKED = 3
F_GOROUTINES = 4
F_CENSUS = 9


def pack_row(instance: Any) -> bytes:
    """Pack one live instance's counters into a stat row.

    The worker hot path: every field is an O(1) counter read.  The
    census is the runtime's census array, one count per
    ``GoroutineState`` in definition (``census_index``) order.
    """
    runtime = instance.runtime
    metrics = instance.metrics
    return _ROW.pack(
        runtime.now, instance.cpu_utilization(), instance.rss(),
        runtime.blocked_goroutines_count, runtime.num_goroutines,
        metrics[-1].requests_served if metrics else 0,
        instance.requests_served, runtime.steps, len(metrics),
        *runtime._state_census,
    )


def unpack_rows(rows: bytes) -> Iterator[Tuple]:
    """The rows of an opened stat block, one unpacked tuple each."""
    return _ROW.iter_unpack(rows)


class DeltaTracker:
    """Worker-side change tracker for one runtime (``runtime._delta``).

    The scheduler feeds it through two hooks — :meth:`mark` wherever a
    goroutine's observable record can change (spawn, step, gc-verdict
    stamp) and :meth:`on_finish` when one leaves the address space.
    ``shipped`` is the set of gids the parent's record currently holds;
    a finish only becomes a tombstone when the parent knew the gid.
    A tracker resumed after a checkpoint starts from the restored live
    gids: at a checkpoint nothing is unshipped, so the parent holds
    exactly those, and no gc-enabled instance is ever checkpointed.
    """

    __slots__ = ("dirty", "finished", "shipped", "gc_sweeps")

    def __init__(self, shipped: Iterable[int] = ()):
        self.dirty: set = set()
        self.finished: set = set()
        self.shipped: set = set(shipped)
        #: sweep_index of the last GC report shipped (0 = none yet).
        self.gc_sweeps = 0

    def mark(self, gid: int) -> None:
        self.dirty.add(gid)

    def on_finish(self, gid: int) -> None:
        self.dirty.discard(gid)
        if gid in self.shipped:
            self.shipped.discard(gid)
            self.finished.add(gid)

    @staticmethod
    def _encode(goro) -> WireRecord:
        template = snapshot_goroutine(goro, 0.0)
        if template.wait_seconds != 0.0:  # pragma: no cover - negative clock
            template = template.aged(0.0)
        return (template, goro.blocked_since)

    def collect(
        self, runtime, full: bool = False
    ) -> Tuple[bool, List[WireRecord], Tuple[int, ...]]:
        """Drain pending changes into ``(full, records, tombstones)``.

        ``full=True`` re-ships every live record and resets the tracker
        — the anti-entropy resync and the init/restart baseline.
        """
        records: List[WireRecord] = []
        if full:
            self.dirty.clear()
            self.finished.clear()
            self.shipped.clear()
            for goro in runtime._goroutines.values():
                if goro.alive:
                    records.append(self._encode(goro))
                    self.shipped.add(goro.gid)
            return (True, records, ())
        for gid in sorted(self.dirty):
            goro = runtime._goroutines.get(gid)
            if goro is None or not goro.alive:  # pragma: no cover - guard
                continue  # finished before this ship; on_finish handled it
            records.append(self._encode(goro))
            self.shipped.add(gid)
        self.dirty.clear()
        tombstones = tuple(sorted(self.finished))
        self.finished.clear()
        return (False, records, tombstones)

    def gc_state(self, runtime, full: bool = False) -> Optional[Tuple]:
        """GC verdict tallies to ship, or None when nothing new.

        Deduplicated on the sweep counter: a window without a sweep
        ships no GC block at all.  ``full`` always reports the current
        state (the parent's record is being replaced wholesale).
        """
        reports = runtime.gc_reports
        if not reports:
            return None
        last = reports[-1]
        if not full and last.sweep_index == self.gc_sweeps:
            return None
        self.gc_sweeps = last.sweep_index
        return (
            last.sweep_index, last.at, last.live,
            last.possibly_leaked, last.proven_leaked,
        )
