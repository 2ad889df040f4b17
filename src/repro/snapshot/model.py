"""The serializable observation plane.

Every tool in this repo — the LeakProf sweep, goleak verification, gc
verdict reporting, remedy verification, goroutine profiling — used to
reach straight into a live :class:`~repro.runtime.Runtime`.  That tied
observation to the process owning the runtime, which is exactly what
blocks scaling the fleet simulator across worker processes.

This module is the decoupling point: a :class:`RuntimeSnapshot` is an
immutable, picklable value holding one runtime's state at an instant —
the O(1) counters the runtime maintains incrementally and the
per-goroutine profile records, all built when the snapshot is taken,
the way a Go goroutine profile is a copy made at capture time.
Observers consume snapshots; live-runtime entry points
(``GoroutineProfile.take``, ``goleak.find``, ``leakprof.sweep``) are
thin adapters that snapshot first.  A snapshot read after its runtime
has moved on still describes the instant it was taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.profiling import GoroutineProfile, GoroutineRecord, snapshot_goroutine

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard (fleet imports us)
    from repro.runtime.scheduler import Runtime


@dataclass(frozen=True)
class GCSnapshot:
    """Verdict tallies from the runtime's most recent repro.gc sweep."""

    sweeps: int
    at: float
    live: int
    possibly_leaked: int
    proven_leaked: int


@dataclass(slots=True)
class RuntimeSnapshot:
    """A picklable value: one runtime's state at an instant.

    Mirrors the Runtime monitoring surface (``rss()``,
    ``num_goroutines``, ``blocked_goroutines_count``, ``state_census``)
    so counter consumers can read a snapshot and a live runtime
    interchangeably, and adds :attr:`records` — the goroutine profile
    records (with repro.gc ``proof`` annotations) the detection tools
    group and classify.  The read path builds it through :meth:`of`.
    """

    process: str
    taken_at: float
    num_goroutines: int
    blocked_goroutines: int
    rss_bytes: int
    base_rss: int
    state_census: Dict[str, int]
    steps: int = 0
    gc: Optional[GCSnapshot] = None
    records: Tuple[GoroutineRecord, ...] = ()

    @classmethod
    def of(cls, runtime: "Runtime") -> "RuntimeSnapshot":
        """Freeze ``runtime``'s observable state, records included.

        An idle runtime (``num_goroutines == 0``) skips the record walk
        and the census reads.  Equal to the keyword-built snapshot; the
        slots are filled directly, without the ``__init__`` call.
        """
        gc: Optional[GCSnapshot] = None
        reports = runtime.gc_reports
        if reports:
            last = reports[-1]
            gc = GCSnapshot(
                sweeps=last.sweep_index,
                at=last.at,
                live=last.live,
                possibly_leaked=last.possibly_leaked,
                proven_leaked=last.proven_leaked,
            )
        taken_at = runtime.now
        live = runtime._live_count
        snapshot = object.__new__(cls)
        snapshot.process = runtime.name
        snapshot.taken_at = taken_at
        snapshot.num_goroutines = live
        snapshot.rss_bytes = runtime.rss()
        snapshot.base_rss = runtime.base_rss
        snapshot.steps = runtime.steps
        snapshot.gc = gc
        if live:
            snapshot.blocked_goroutines = runtime.blocked_goroutines_count
            snapshot.state_census = runtime.census_by_value()
            # The goroutine table holds exactly the live goroutines.
            snapshot.records = tuple([
                snapshot_goroutine(goro, taken_at)
                for goro in runtime._goroutines.values()
            ])
        else:  # idle: every census slot is 0
            snapshot.blocked_goroutines = 0
            snapshot.state_census = {}
            snapshot.records = ()
        return snapshot

    # -- the Runtime-compatible monitoring surface ---------------------------

    @property
    def blocked_goroutines_count(self) -> int:
        """Alias matching ``Runtime.blocked_goroutines_count``."""
        return self.blocked_goroutines

    def rss(self) -> int:
        """Alias matching ``Runtime.rss()``."""
        return self.rss_bytes

    def profile(
        self,
        service: Optional[str] = None,
        instance: Optional[str] = None,
    ) -> GoroutineProfile:
        """The pprof-analog profile of this snapshot."""
        return GoroutineProfile.from_snapshot(self, service, instance)

    def __hash__(self):
        # Explicit: ``state_census`` is a dict, so no generated hash works.
        return hash((self.process, self.taken_at, self.num_goroutines))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RuntimeSnapshot {self.process!r} t={self.taken_at:.3f} "
            f"goroutines={self.num_goroutines} blocked={self.blocked_goroutines}>"
        )


class InstanceSnapshot(NamedTuple):
    """One service instance frozen at an instant.

    Satisfies the :class:`repro.leakprof.Profilable` protocol, so a
    LeakProf sweep consumes live instances and shipped snapshots
    identically — which is what lets instances live in worker processes.
    A named tuple, so the read path builds it with one ``tuple.__new__``
    call over every field by position.
    """

    service: str
    name: str
    requests_served: int
    cpu_percent: float
    runtime: RuntimeSnapshot
    #: The instance's most recent window sample, if it has served one.
    last_metrics: Optional[Any] = None

    def profile(self) -> GoroutineProfile:
        """The pprof endpoint LeakProf sweeps, from the frozen state."""
        return GoroutineProfile.from_snapshot(
            self.runtime, self.service, self.name
        )

    def rss(self) -> int:
        return self.runtime.rss_bytes

    def leaked_goroutines(self) -> int:
        return self.runtime.blocked_goroutines

    def cpu_utilization(self) -> float:
        return self.cpu_percent


@dataclass(frozen=True)
class ServiceSnapshot:
    """A whole service frozen at an instant: history plus every instance."""

    name: str
    deploys: int
    taken_at: float
    history: Tuple[Any, ...] = ()
    instances: Tuple[InstanceSnapshot, ...] = field(default_factory=tuple)

    def profiles(self) -> List[GoroutineProfile]:
        return [snapshot.profile() for snapshot in self.instances]


_new = tuple.__new__


def snapshot_runtime(runtime: "Runtime") -> RuntimeSnapshot:
    """Freeze one runtime (the main entry point of the plane)."""
    return RuntimeSnapshot.of(runtime)


def snapshot_instance(instance: Any) -> InstanceSnapshot:
    """Freeze one :class:`~repro.fleet.ServiceInstance` (duck-typed)."""
    metrics = instance.metrics
    return _new(InstanceSnapshot, (
        instance.service,
        instance.name,
        instance.requests_served,
        instance.cpu_utilization(),
        RuntimeSnapshot.of(instance.runtime),
        metrics[-1] if metrics else None,
    ))


def snapshot_service(service: Any) -> ServiceSnapshot:
    """Freeze one :class:`~repro.fleet.Service` (duck-typed)."""
    return ServiceSnapshot(
        name=service.config.name,
        deploys=service.deploys,
        taken_at=service.now,
        history=tuple(service.history),
        instances=tuple(
            snapshot_instance(instance) for instance in service.instances
        ),
    )
