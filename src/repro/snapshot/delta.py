"""Delta snapshots: the streaming half of the observation plane.

A batch :class:`~repro.snapshot.InstanceSnapshot` ships every goroutine
record every time it crosses a process boundary.  At fleet scale almost
none of those records changed since the last ship — a parked goroutine's
stack, state, and creation context are immutable while it stays parked;
only its *age* moves, and age is recomputable from ``blocked_since``.

This module makes that observation structural:

* :class:`DeltaTracker` lives worker-side, attached to a runtime as
  ``runtime._delta`` (mirroring the ``gc.refs`` dirty-gid machinery).
  The scheduler marks goroutines dirty at the only points their record
  can change (spawn, step, gc-verdict stamp) and reports finishes; at a
  ship boundary :meth:`DeltaTracker.collect` drains the dirty set into
  record templates plus tombstones for goroutines that finished after
  having been shipped.
* :class:`InstanceView` lives parent-side: an upsert/delete map of
  record templates that :meth:`InstanceView.snapshot` materializes into
  a full :class:`~repro.snapshot.InstanceSnapshot` — byte-identical to
  ``snapshot_instance`` against the live instance (property-tested in
  ``tests/test_streaming_delta.py``), with ``wait_seconds`` recomputed
  from each record's shipped ``blocked_since``.

Record templates carry ``wait_seconds=0.0`` on the wire; ages are a
parent-side function of (ship time − blocked_since), exactly the formula
``snapshot_goroutine`` uses.  Delta application is idempotent (upserts
and deletes), which is what lets journal-replay crash recovery re-apply
an in-flight window without double counting.

Watermarks: every delta reply a worker ships is tagged with the shard's
window sequence number, and each view keeps the highest window it has
folded in.  A delta older than the view's watermark is *dropped*
(:meth:`InstanceView.apply` returns ``False``) — the defense that makes
out-of-phase ingestion safe: a late or replayed delta arriving after a
tombstone (or after any newer state) cannot resurrect dead records.
Equal-window re-application stays idempotent, which is what crash replay
relies on.

Addresses: across the worker boundary an instance is named only by its
**slot**, its fixed position in the fleet (service-add, then index
order).  Delta entries, stat rows and checkpoint entries all name slots;
which shard owns a slot is known only to the parent.

Stat rows: an instance's O(1) counters travel as one fixed-layout
``_ROW`` (:func:`pack_row`), never as a pickled object.  A worker's reply
carries the packed rows of every instance its command touched as one
compressed **stat block**, in the order of the reply's slots.  When the
reply commits, the parent unpacks each row (:func:`unpack_rows`) and
:meth:`InstanceView.commit` makes it the view's committed row and raises
the view's watermark to the reply's window, so every view the commit
touched reads the committed window at once, whether or not its reply
carried a delta entry for it.  The fleet's one parent record per
instance (``repro.fleet.shard``) owns the view, next to the instance's
signature index.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.profiling import GoroutineRecord, snapshot_goroutine
from repro.runtime import GoroutineState

from .model import (
    GCSnapshot,
    InstanceSnapshot,
    RuntimeSnapshot,
    make_instance_snapshot,
)

#: One record on the wire: (template with wait_seconds=0, blocked_since).
WireRecord = Tuple[GoroutineRecord, Optional[float]]

#: One instance's delta payload:
#: (slot, full, records, tombstones, gc) — ``full=True`` replaces the
#: view wholesale (init / restart / anti-entropy resync), ``gc`` is a
#: GCSnapshot field tuple or None.  The counters ride the reply's stat
#: block, not the delta.
WireDelta = Tuple[int, bool, List[WireRecord], Tuple[int, ...], Optional[Tuple]]


_STATE_VALUES = tuple(state.value for state in GoroutineState)
#: t, cpu_percent (doubles), then rss, blocked, goroutines,
#: requests_window, requests_total, steps, windows, census[...]
_ROW = struct.Struct("=dd" + "q" * (7 + len(_STATE_VALUES)))

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
    ``shipped`` is the set of gids the parent's view currently holds;
    a finish only becomes a tombstone when the parent knew the gid.
    A tracker resumed after a checkpoint starts from the restored live
    gids: at a checkpoint nothing is unshipped, so the view holds
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
        state (the view is being replaced wholesale).
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


class InstanceView:
    """Parent-side materialized view of one remote instance.

    Holds the record templates the deltas built up plus the committed
    stat row; :meth:`snapshot` reconstructs the full ``InstanceSnapshot``
    without touching the worker.  Application is idempotent, so a
    crash-replayed window lands harmlessly; application of a delta
    *older* than the view's window watermark is refused (:meth:`apply`
    returns ``False``), so a late delta arriving after a tombstone
    cannot resurrect dead records.
    """

    __slots__ = ("service", "index", "name", "base_rss", "slot",
                 "records", "gc", "window", "row")

    def __init__(
        self, service: str, index: int, name: str, base_rss: int, slot: int
    ):
        self.service = service
        self.index = index
        self.name = name
        self.base_rss = base_rss
        #: The instance's stat-row slot in its fleet.
        self.slot = slot
        #: gid -> (template with wait_seconds=0, blocked_since)
        self.records: Dict[int, WireRecord] = {}
        self.gc: Optional[GCSnapshot] = None
        #: Highest shard window folded into this view (the watermark).
        self.window: int = -1
        #: The committed stat row, unpacked (None before the first
        #: commit); index it with the ``F_*`` field constants.
        self.row: Optional[Tuple] = None

    def commit(self, row: Tuple, window: int) -> None:
        """Make ``row``, from a reply at ``window``, the committed row."""
        self.row = row
        if window > self.window:
            self.window = window

    def apply(self, delta: WireDelta, window: int) -> bool:
        """Fold one wire delta in.

        ``window`` is the shard watermark the delta was shipped at; a
        delta older than the view's own watermark is dropped and
        ``False`` returned.
        """
        _slot, full, records, tombstones, gc = delta
        if window < self.window and not full:
            return False
        if window > self.window:
            self.window = window
        if full:
            self.records.clear()
            self.gc = GCSnapshot(*gc) if gc is not None else None
        elif gc is not None:
            self.gc = GCSnapshot(*gc)
        for template, blocked_since in records:
            self.records[template.gid] = (template, blocked_since)
        for gid in tombstones:
            self.records.pop(gid, None)
        return True

    def record_at(self, gid: int) -> GoroutineRecord:
        """One record materialized at the view's current instant."""
        template, blocked_since = self.records[gid]
        if blocked_since is None:
            return template
        age = max(0.0, self.row[F_T] - blocked_since)
        if age == 0.0:
            return template
        return template.aged(age)

    def snapshot(self) -> InstanceSnapshot:
        """Materialize the full ``InstanceSnapshot``-equivalent state."""
        row = self.row
        if row is None:
            raise RuntimeError(
                f"view of {self.name!r} has no stats yet (not initialized)"
            )
        (t, cpu_percent, rss_bytes, blocked, goroutines,
         requests_window, requests_total, steps, windows) = row[F_T:F_CENSUS]
        runtime = RuntimeSnapshot(
            process=self.name,
            taken_at=t,
            num_goroutines=goroutines,
            blocked_goroutines=blocked,
            rss_bytes=rss_bytes,
            base_rss=self.base_rss,
            state_census={
                value: count
                for value, count in zip(_STATE_VALUES, row[F_CENSUS:])
                if count
            },
            steps=steps,
            gc=self.gc,
            records=tuple(
                self.record_at(gid) for gid in sorted(self.records)
            ),
        )
        last_metrics = None
        if windows:
            from repro.fleet.service import InstanceMetrics  # deferred cycle

            last_metrics = InstanceMetrics(
                t=t,
                rss_bytes=rss_bytes,
                goroutines=goroutines,
                cpu_percent=cpu_percent,
                requests_served=requests_window,
                blocked_goroutines=blocked,
            )
        return make_instance_snapshot(
            self.service,
            self.name,
            requests_total,
            cpu_percent,
            runtime,
            last_metrics,
        )
