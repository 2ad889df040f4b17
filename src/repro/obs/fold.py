"""Run and window counts: plain tallies, folded into the registry.

A runtime tallies its runs and a fleet instance its windows in a plain,
lock-free :class:`Tally` (one thread drives each).  Their owner drains
them into one :data:`Stats` value that :func:`fold` adds to the default
registry: ``Service.advance_window`` once per window, ``ShardedFleet``
once per delta reply it ingests (its worker drained the instances the
command touched), a standalone ``Runtime.run_until_quiescent`` on return.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Tuple

from repro import obs

from .registry import DEFAULT_BUCKETS

#: A drained tally, ``(amount, {bucket slot: count}, seconds)``, and the
#: drained run tally (amount: steps) with each service's window tally
#: (amount: requests).
Part = Tuple[int, Dict[int, int], float]
Stats = Tuple[Part, Tuple[Tuple[str, Part], ...]]


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


def fold(stats: Stats, depth: Optional[int] = None) -> None:
    """Add one drained :data:`Stats` value to the default registry.

    ``depth``, the run queue a standalone run started with, sets
    ``repro_sched_run_queue_depth``; fleets leave it alone.  With the
    registry disabled the value is discarded and no family is created.
    """
    registry = obs.default_registry()
    if not registry.enabled:
        return
    (steps, counts, seconds), windows = stats
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


def _count(value: Any) -> bool:
    return type(value) is int and value >= 0


def well_formed(stats: Any) -> bool:
    """Is ``stats`` a :data:`Stats` value with no negative count and no
    slot out of range?  The check a value from another process passes
    before it is folded."""
    try:
        runs, windows = stats
        parts = [runs, *(part for name, part in windows if type(name) is str)]
        return len(parts) == len(windows) + 1 and all(
            _count(amount) and type(seconds) is float and type(counts) is dict
            and all(
                _count(slot) and slot <= len(DEFAULT_BUCKETS) and _count(n)
                for slot, n in counts.items()
            )
            for amount, counts, seconds in parts
        )
    except (TypeError, ValueError):
        return False
