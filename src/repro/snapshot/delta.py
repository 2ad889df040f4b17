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

Watermarks: every delta batch a worker ships is tagged with the shard's
window sequence number, and :meth:`InstanceView.apply` keeps the highest
window it has folded in.  A delta older than the view's watermark is
*dropped* (``apply`` returns ``False``) — the defense that makes
out-of-phase ingestion safe: a late or replayed delta arriving after a
tombstone (or after any newer state) cannot resurrect dead records.
Equal-window re-application stays idempotent, which is what crash replay
relies on.

Stat rows: an instance's O(1) counters travel as one fixed-layout
``_ROW`` (:func:`pack_row`), never as a pickled object.  A worker's reply
carries the packed rows of every instance its command touched as one
compressed **stat block**; the parent copies them into the slots of one
:class:`RowCache` buffer, and views read their counters back out of it
lazily (:func:`stats_from_raw`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.profiling import GoroutineRecord, snapshot_goroutine
from repro.runtime import GoroutineState

from .model import GCSnapshot, InstanceSnapshot, RuntimeSnapshot

#: One record on the wire: (template with wait_seconds=0, blocked_since).
WireRecord = Tuple[GoroutineRecord, Optional[float]]

#: One instance's delta payload:
#: (service, index, full, records, tombstones, gc) — ``full=True``
#: replaces the view wholesale (init / restart / anti-entropy resync),
#: ``gc`` is a GCSnapshot field tuple or None.  The counters ride the
#: reply's stat block, not the delta.
WireDelta = Tuple[
    str, int, bool, List[WireRecord], Tuple[int, ...], Optional[Tuple],
]


@dataclass(frozen=True)
class InstanceStats:
    """One instance's O(1) counters at a ship boundary.

    The unpacked form of one stat row: everything here is a counter
    read, and the fields are exactly what :meth:`InstanceView.snapshot`
    needs to rebuild ``RuntimeSnapshot``'s eager half plus
    ``last_metrics``.
    """

    t: float
    rss_bytes: int
    blocked: int
    cpu_percent: float
    goroutines: int
    requests_window: int
    requests_total: int
    steps: int
    windows: int
    #: Nonzero census entries as (state-value, count) pairs, in
    #: GoroutineState definition order — the same content and order
    #: ``RuntimeSnapshot.of`` derives from ``state_census()``.
    census: Tuple[Tuple[str, int], ...]


def instance_stats(instance: Any) -> InstanceStats:
    """Read one live instance's counters (all O(1) reads)."""
    runtime = instance.runtime
    metrics = instance.metrics
    return InstanceStats(
        t=runtime.now,
        rss_bytes=instance.rss(),
        blocked=runtime.blocked_goroutines_count,
        cpu_percent=instance.cpu_utilization(),
        goroutines=runtime.num_goroutines,
        requests_window=metrics[-1].requests_served if metrics else 0,
        requests_total=instance.requests_served,
        steps=runtime.steps,
        windows=len(metrics),
        census=tuple(
            (state.value, count)
            for state, count in runtime.state_census().items()
        ),
    )


_STATES = tuple(GoroutineState)
_STATE_VALUES = tuple(state.value for state in _STATES)
#: shard, window (the watermark), then t, cpu_percent (doubles), then
#: rss, blocked, goroutines, requests_window, requests_total, steps,
#: windows, census[...]
_ROW = struct.Struct("=qqdd" + "q" * (7 + len(_STATES)))

ROW_BYTES = _ROW.size

#: Every field is 8 bytes wide, so a run of stat rows is also a flat
#: sequence of ``NUM_FIELDS`` machine words — which is what lets
#: :meth:`RowCache.sample_columns` read a strided slice as a *column*.
NUM_FIELDS = ROW_BYTES // 8

#: The leading fields (watermark + the sample-relevant gauges) as their
#: own struct, for cheap partial unpacks of a raw row.
_HEAD = struct.Struct("=qqddqqq")

#: Field indices into one unpacked row tuple.
F_SHARD = 0
F_WINDOW = 1
F_T = 2
F_CPU = 3
F_RSS = 4
F_BLOCKED = 5
F_GOROUTINES = 6
F_CENSUS = 11


def pack_row(instance: Any, shard: int, window: int) -> bytes:
    """Pack one live instance's counters into a stat row.

    The worker hot path: the same reads as :func:`instance_stats`,
    without building the intermediate :class:`InstanceStats` (and its
    census tuple) for every instance every window.
    """
    runtime = instance.runtime
    metrics = instance.metrics
    census = runtime.state_census()
    return _ROW.pack(
        shard, window,
        runtime.now, instance.cpu_utilization(), instance.rss(),
        runtime.blocked_goroutines_count, runtime.num_goroutines,
        metrics[-1].requests_served if metrics else 0,
        instance.requests_served, runtime.steps, len(metrics),
        *(census.get(state, 0) for state in _STATES),
    )


def stats_from_raw(raw: bytes) -> InstanceStats:
    """Materialize one raw stat row into an :class:`InstanceStats`."""
    row = _ROW.unpack(raw)
    (t, cpu_percent, rss_bytes, blocked, goroutines,
     requests_window, requests_total, steps, windows) = row[F_T:F_CENSUS]
    return InstanceStats(
        t=t, rss_bytes=rss_bytes, blocked=blocked,
        cpu_percent=cpu_percent, goroutines=goroutines,
        requests_window=requests_window, requests_total=requests_total,
        steps=steps, windows=windows,
        census=tuple(
            (value, count)
            for value, count in zip(_STATE_VALUES, row[F_CENSUS:])
            if count
        ),
    )


class RowCache:
    """The parent's committed stat rows: one buffer, one row per slot.

    :meth:`write` copies a reply's rows into their slots; every other
    slot keeps its previous row, so an ``only=`` advance or a restart
    touches exactly the instances it ran.  :meth:`commit` bumps
    ``epoch``, the key consumers — materialized
    :class:`InstanceView`\\ s, the instance mirrors, per-service sampling
    — use to notice new rows and read them through lazily.
    """

    __slots__ = ("buf", "epoch", "_cols", "_cols_epoch")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.epoch = 0
        self._cols: Optional[Tuple[list, ...]] = None
        self._cols_epoch = -1

    def allocate(self, count: int) -> None:
        """Size the buffer for ``count`` slots (zeroed until written)."""
        self.buf = bytearray(count * ROW_BYTES)

    def write(self, slots: Sequence[int], rows: bytes) -> None:
        """Copy ``rows`` (one per slot, in ``slots`` order) into place."""
        buf = self.buf
        src = memoryview(rows)
        for pos, slot in enumerate(slots):
            off = slot * ROW_BYTES
            buf[off:off + ROW_BYTES] = src[
                pos * ROW_BYTES:(pos + 1) * ROW_BYTES
            ]

    def commit(self) -> None:
        self.epoch += 1

    def raw(self, slot: int) -> Optional[bytes]:
        """The slot's current raw row (None before the buffer exists)."""
        off = slot * ROW_BYTES
        if off + ROW_BYTES > len(self.buf):
            return None
        return bytes(self.buf[off:off + ROW_BYTES])

    def head(self, slot: int) -> Optional[Tuple]:
        """The slot's leading fields, ``F_SHARD..F_GOROUTINES``."""
        off = slot * ROW_BYTES
        if off + ROW_BYTES > len(self.buf):
            return None
        return _HEAD.unpack_from(self.buf, off)

    def sample_columns(self, count: int) -> Tuple[list, ...]:
        """``(t, cpu, rss, blocked, goroutines)`` columns, one value per
        slot — the per-service sample aggregation reads slices of these.

        Built once per epoch with zero-copy ``memoryview`` casts and
        C-level strided ``tolist`` extraction.
        """
        if self._cols_epoch == self.epoch and self._cols is not None:
            return self._cols
        region = memoryview(self.buf)[: count * ROW_BYTES]
        as_q = region.cast("q")
        as_d = region.cast("d")
        self._cols = (
            as_d[F_T::NUM_FIELDS].tolist(),
            as_d[F_CPU::NUM_FIELDS].tolist(),
            as_q[F_RSS::NUM_FIELDS].tolist(),
            as_q[F_BLOCKED::NUM_FIELDS].tolist(),
            as_q[F_GOROUTINES::NUM_FIELDS].tolist(),
        )
        self._cols_epoch = self.epoch
        return self._cols


class DeltaTracker:
    """Worker-side change tracker for one runtime (``runtime._delta``).

    The scheduler feeds it through two hooks — :meth:`mark` wherever a
    goroutine's observable record can change (spawn, step, gc-verdict
    stamp) and :meth:`on_finish` when one leaves the address space.
    ``shipped`` is the set of gids the parent's view currently holds;
    a finish only becomes a tombstone when the parent knew the gid.
    """

    __slots__ = ("dirty", "finished", "shipped", "gc_sweeps")

    def __init__(self, shipped: Tuple[int, ...] = (), gc_sweeps: int = 0):
        self.dirty: set = set()
        self.finished: set = set()
        self.shipped: set = set(shipped)
        #: sweep_index of the last GC report shipped (0 = none yet).
        self.gc_sweeps = gc_sweeps

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
            template = replace(template, wait_seconds=0.0)
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

    Holds the record templates the deltas built up plus the latest
    counter block; :meth:`snapshot` reconstructs the full
    ``InstanceSnapshot`` without touching the worker.  Application is
    idempotent, so a crash-replayed window lands harmlessly; application
    of a delta *older* than the view's window watermark is refused
    (:meth:`apply` returns ``False``), so a late delta arriving after a
    tombstone cannot resurrect dead records.
    """

    __slots__ = ("service", "index", "name", "base_rss", "records",
                 "gc", "window", "_stats", "_row", "_cache", "_slot",
                 "_epoch")

    def __init__(self, service: str, index: int, name: str, base_rss: int):
        self.service = service
        self.index = index
        self.name = name
        self.base_rss = base_rss
        #: gid -> (template with wait_seconds=0, blocked_since)
        self.records: Dict[int, WireRecord] = {}
        self.gc: Optional[GCSnapshot] = None
        #: Highest shard window folded into this view (the watermark).
        self.window: int = -1
        self._stats: Optional[InstanceStats] = None
        #: Raw stat row backing ``stats`` (lazy unpack).
        self._row: Optional[bytes] = None
        #: Bound :class:`RowCache` the view reads counters through, plus
        #: its slot there and the last epoch pulled.
        self._cache: Optional[RowCache] = None
        self._slot = -1
        self._epoch = -1

    def bind_cache(self, cache: RowCache, slot: int) -> None:
        """Attach the view to the fleet's committed row cache.

        The fleet commits one buffer of stat rows per window instead of
        pushing ~20-field tuples into every view; the view pulls its own
        row out lazily, only when a snapshot or suspect query actually
        asks for :attr:`stats`.
        """
        self._cache = cache
        self._slot = slot

    def _refresh(self) -> None:
        cache = self._cache
        if cache is None or cache.epoch == self._epoch:
            return
        self._epoch = cache.epoch
        raw = cache.raw(self._slot)
        if raw is None or raw == self._row:
            return
        self._stats = None
        self._row = raw
        window = _HEAD.unpack_from(raw)[F_WINDOW]
        if window > self.window:
            self.window = window

    @property
    def stats(self) -> Optional[InstanceStats]:
        self._refresh()
        if self._stats is None and self._row is not None:
            self._stats = stats_from_raw(self._row)
        return self._stats

    def apply(self, delta: WireDelta, window: Optional[int] = None) -> bool:
        """Fold one wire delta in.

        ``window`` is the shard watermark the delta was shipped at; a
        delta older than the view's own watermark is dropped and
        ``False`` returned (the caller must then skip scorer feeding
        too).  ``window=None`` (untagged legacy ingest) always applies.
        """
        _svc, _idx, full, records, tombstones, gc = delta
        if window is not None:
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
        age = max(0.0, self.stats.t - blocked_since)
        if age == 0.0:
            return template
        return replace(template, wait_seconds=age)

    def snapshot(self) -> InstanceSnapshot:
        """Materialize the full ``InstanceSnapshot``-equivalent state."""
        stats = self.stats
        if stats is None:
            raise RuntimeError(
                f"view of {self.name!r} has no stats yet (not initialized)"
            )
        runtime = RuntimeSnapshot(
            process=self.name,
            taken_at=stats.t,
            num_goroutines=stats.goroutines,
            blocked_goroutines=stats.blocked,
            rss_bytes=stats.rss_bytes,
            base_rss=self.base_rss,
            state_census=dict(stats.census),
            steps=stats.steps,
            gc=self.gc,
            records=tuple(
                self.record_at(gid) for gid in sorted(self.records)
            ),
        )
        last_metrics = None
        if stats.windows:
            from repro.fleet.service import InstanceMetrics  # deferred cycle

            last_metrics = InstanceMetrics(
                t=stats.t,
                rss_bytes=stats.rss_bytes,
                goroutines=stats.goroutines,
                cpu_percent=stats.cpu_percent,
                requests_served=stats.requests_window,
                blocked_goroutines=stats.blocked,
            )
        return InstanceSnapshot(
            service=self.service,
            name=self.name,
            requests_served=stats.requests_total,
            cpu_percent=stats.cpu_percent,
            runtime=runtime,
            last_metrics=last_metrics,
        )
