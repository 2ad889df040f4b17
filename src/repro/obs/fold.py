"""Run, window and sweep counts: plain tallies, folded into the registry.

A runtime tallies its runs, its gc state its sweeps and a fleet instance
its windows, lock-free (one thread drives each).  Their owner drains
them into one :data:`Stats` value that :func:`fold`, the only writer of
these series, adds to the default registry: ``Service.advance_window``
once per window, ``ShardedFleet`` once per delta reply it ingests (its
worker drained the command's instances), a standalone ``Runtime.gc`` or
run on return.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Tuple

from repro import obs

from .registry import DEFAULT_BUCKETS

#: A drained tally, ``(amount, {bucket slot: count}, seconds)``; sweeps,
#: the bytes released and a part per phase; and the run tally (amount:
#: steps), each service's window tally (amount: requests) and the sweeps
#: (``None`` if no drained runtime has gc state).
Part = Tuple[int, Dict[int, int], float]
GCPart = Tuple[int, Part, Part, Part]
Stats = Tuple[Part, Tuple[Tuple[str, Part], ...], Optional[GCPart]]


class Tally:
    """Events counted into histogram buckets, with an amount each.

    A run adds its seconds and steps, a window its seconds and requests.
    Counts are sparse: an instance-window's runs fill a bucket or two.
    """

    __slots__ = ("amount", "counts", "seconds")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.amount = 0
        self.counts: Dict[int, int] = {}
        self.seconds = 0.0

    def add(self, seconds: float, amount: int) -> None:
        self.amount += amount
        self.seconds += seconds
        counts = self.counts
        slot = bisect_left(DEFAULT_BUCKETS, seconds)
        counts[slot] = counts.get(slot, 0) + 1

    def merge(self, other: "Tally") -> None:
        """Move ``other``'s events into this tally, leaving it empty."""
        if other.counts:
            self.amount += other.amount
            self.seconds += other.seconds
            counts = self.counts
            for slot, n in other.counts.items():
                counts[slot] = counts.get(slot, 0) + n
            other.clear()

    def take(self) -> Part:
        """This tally as a :data:`Part`; it is left empty."""
        part = (self.amount, self.counts, self.seconds)
        self.clear()
        return part


class GCTally:
    """Sweeps: a :class:`Tally` per phase (sync counts sweeps, mark adds
    new proofs, reclaim the goroutines reclaimed) and the bytes released."""

    __slots__ = ("released", "sync", "mark", "reclaim")

    def __init__(self) -> None:
        self.released = 0
        self.sync, self.mark, self.reclaim = Tally(), Tally(), Tally()

    def merge(self, other: "GCTally") -> None:
        self.released += other.released
        other.released = 0
        self.sync.merge(other.sync)
        self.mark.merge(other.mark)
        self.reclaim.merge(other.reclaim)

    def take(self) -> GCPart:
        released, self.released = self.released, 0
        return released, self.sync.take(), self.mark.take(), self.reclaim.take()


def fold(stats: Stats, depth: Optional[int] = None, verdicts: Any = None) -> None:
    """Add one drained :data:`Stats` value to the default registry.

    A standalone call passes the run queue it started with (``depth``)
    and its latest :class:`~repro.gc.GCReport` (``verdicts``, set if
    ``stats`` holds a sweep); a fleet passes neither, as its latest sweep
    would depend on shard order.  With the registry disabled the value is
    discarded and no family is created.
    """
    registry = obs.default_registry()
    if not registry.enabled:
        return
    (steps, counts, seconds), windows, gc = stats
    if counts:
        registry.counter(
            "repro_sched_runs_total",
            "run_until_quiescent calls (one per request, idle window "
            "or advance)",
        ).inc(sum(counts.values()))
        registry.counter(
            "repro_sched_steps_total",
            "Scheduler steps interpreted across all runtimes",
        ).inc(steps)
        registry.histogram(
            "repro_sched_run_seconds",
            "Wall-clock duration of one run_until_quiescent call",
        ).labels().merge(counts, seconds)
        if depth is not None:
            registry.gauge(
                "repro_sched_run_queue_depth",
                "Runnable goroutines queued when the last run started",
            ).set(depth)
    for service, (requests, counts, seconds) in windows:
        registry.histogram(
            "repro_fleet_window_seconds",
            "Wall-clock duration of one instance observation window",
            ("service",),
        ).labels(service).merge(counts, seconds)
        registry.counter(
            "repro_fleet_windows_total",
            "Observation windows served, by service",
            ("service",),
        ).labels(service).inc(sum(counts.values()))
        registry.counter(
            "repro_fleet_requests_total",
            "Requests served inside observation windows, by service",
            ("service",),
        ).labels(service).inc(requests)
    if gc is None or not gc[1][1]:
        return
    released, (_, swept, _), (proofs, _, _), (reclaimed, reclaims, _) = gc
    phases = registry.histogram(
        "repro_gc_phase_seconds",
        "Wall-clock duration of one gc sweep phase",
        ("phase",),
    )
    for phase, (_, counts, seconds) in zip(("sync", "mark", "reclaim"), gc[1:]):
        if counts:
            phases.labels(phase).merge(counts, seconds)
    registry.counter(
        "repro_gc_sweeps_total", "Reachability sweeps executed"
    ).inc(sum(swept.values()))
    registry.counter(
        "repro_gc_proofs_total", "Leak proofs newly established"
    ).inc(proofs)
    if reclaims:
        registry.counter(
            "repro_gc_reclaimed_goroutines_total",
            "Proven-leaked goroutines reclaimed in place",
        ).inc(reclaimed)
        registry.counter(
            "repro_gc_reclaimed_bytes_total",
            "Bytes released by goroutine reclamation",
        ).inc(released)
    if verdicts is not None:
        gauge = registry.gauge(
            "repro_gc_verdicts",
            "Verdict counts from the most recent sweep",
            ("verdict",),
        )
        for verdict in ("live", "possibly_leaked", "proven_leaked"):
            gauge.labels(verdict).set(getattr(verdicts, verdict))


def _count(value: Any) -> bool:
    return type(value) is int and value >= 0


def well_formed(stats: Any) -> bool:
    """Is ``stats`` a :data:`Stats` value with no negative count and no
    slot out of range?  The check a value from another process passes
    before it is folded."""
    try:
        runs, windows, gc = stats
        parts = [runs, *(part for name, part in windows if type(name) is str)]
        named = len(parts) == len(windows) + 1
        if gc is not None:
            released, *phases = gc
            named = named and _count(released) and len(phases) == 3
            parts += phases
        return named and all(
            _count(amount) and type(seconds) is float and type(counts) is dict
            and all(
                _count(slot) and slot <= len(DEFAULT_BUCKETS) and _count(n)
                for slot, n in counts.items()
            )
            for amount, counts, seconds in parts
        )
    except (TypeError, ValueError):
        return False
