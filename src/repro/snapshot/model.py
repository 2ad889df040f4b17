"""The serializable observation plane.

Every tool in this repo — the LeakProf sweep, goleak verification, gc
verdict reporting, remedy verification, goroutine profiling — used to
reach straight into a live :class:`~repro.runtime.Runtime`.  That tied
observation to the process owning the runtime, which is exactly what
blocks scaling the fleet simulator across worker processes.

This module is the decoupling point: a :class:`RuntimeSnapshot` is an
immutable, picklable view of one runtime at an instant, built from the
O(1) counters the runtime maintains incrementally plus lazily-
materialized profile stacks.  Observers consume snapshots; live-runtime
entry points (``GoroutineProfile.take``, ``goleak.find``,
``leakprof.sweep``) are thin adapters that snapshot first.

Laziness contract
-----------------
Counter fields (RSS, censuses) are copied eagerly at snapshot time — an
O(1) operation.  The per-goroutine profile records are materialized on
first access to :attr:`RuntimeSnapshot.records` (or on pickling, which
forces materialization so a snapshot crossing a process boundary is
self-contained).  Materialize before resuming the source runtime: an
unmaterialized snapshot holds live goroutine references (pinning their
memory until the records are built), and materializing after the source
runtime has advanced raises ``RuntimeError`` rather than silently
returning records inconsistent with the eagerly-copied counters.  A
snapshot of a quiescent runtime taken and read within one observation
step — the only pattern the tools use — is always exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

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


class RuntimeSnapshot:
    """Immutable, picklable view of one runtime at an instant.

    Mirrors the Runtime monitoring surface (``rss()``,
    ``num_goroutines``, ``blocked_goroutines_count``, ``state_census``)
    so counter consumers can read a snapshot and a live runtime
    interchangeably, and adds :attr:`records` — the goroutine profile
    records (with repro.gc ``proof`` annotations) the detection tools
    group and classify.
    """

    __slots__ = (
        "process",
        "taken_at",
        "num_goroutines",
        "blocked_goroutines",
        "rss_bytes",
        "base_rss",
        "state_census",
        "steps",
        "gc",
        "_records",
        "_source",
        "_source_rt",
    )

    def __init__(
        self,
        process: str,
        taken_at: float,
        num_goroutines: int,
        blocked_goroutines: int,
        rss_bytes: int,
        base_rss: int,
        state_census: Dict[str, int],
        steps: int = 0,
        gc: Optional[GCSnapshot] = None,
        records: Optional[Tuple[GoroutineRecord, ...]] = None,
        _source: Optional[Sequence[Any]] = None,
        _source_rt: Optional[Any] = None,
    ):
        self.process = process
        self.taken_at = taken_at
        self.num_goroutines = num_goroutines
        self.blocked_goroutines = blocked_goroutines
        self.rss_bytes = rss_bytes
        self.base_rss = base_rss
        self.state_census = dict(state_census)
        self.steps = steps
        self.gc = gc
        self._records = tuple(records) if records is not None else None
        self._source = list(_source) if _source else None
        self._source_rt = _source_rt if self._records is None else None

    @classmethod
    def of(cls, runtime: "Runtime") -> "RuntimeSnapshot":
        """Freeze ``runtime``'s observable state (O(1) except records).

        Counters are copied now; profile records stay lazy — an idle
        runtime (``num_goroutines == 0``) never pays for a record walk,
        and a snapshot whose records are never read costs only the
        counter copy.  The slots are filled directly: every value read
        here is already a fresh object, so ``__init__``'s defensive
        copies would only copy them again.
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
        snapshot = object.__new__(cls)
        snapshot.process = runtime.name
        snapshot.taken_at = runtime.now
        snapshot.num_goroutines = live = runtime.num_goroutines
        snapshot.blocked_goroutines = runtime.blocked_goroutines_count
        snapshot.rss_bytes = runtime.rss()
        snapshot.base_rss = runtime.base_rss
        snapshot.state_census = runtime.census_by_value()
        snapshot.steps = runtime.steps
        snapshot.gc = gc
        snapshot._records = None
        snapshot._source = runtime.live_goroutines() if live else None
        snapshot._source_rt = runtime
        return snapshot

    # -- the Runtime-compatible monitoring surface ---------------------------

    @property
    def blocked_goroutines_count(self) -> int:
        """Alias matching ``Runtime.blocked_goroutines_count``."""
        return self.blocked_goroutines

    def rss(self) -> int:
        """Alias matching ``Runtime.rss()``."""
        return self.rss_bytes

    # -- profile records -----------------------------------------------------

    @property
    def records(self) -> Tuple[GoroutineRecord, ...]:
        """Profile records, materialized on first read and cached.

        Raises ``RuntimeError`` if the source runtime has advanced since
        the snapshot was taken — a stale materialization would pair this
        instant's counters with some later instant's stacks, and a loud
        failure beats a silently inconsistent observation.
        """
        if self._records is None:
            source_rt = self._source_rt
            if source_rt is not None and (
                source_rt.steps != self.steps or source_rt.now != self.taken_at
            ):
                raise RuntimeError(
                    f"snapshot of {self.process!r} taken at "
                    f"t={self.taken_at:g}/step={self.steps} cannot "
                    "materialize records: the source runtime has advanced "
                    f"(t={source_rt.now:g}/step={source_rt.steps}); "
                    "read .records (or pickle) before resuming the runtime"
                )
            source = self._source
            self._source = None
            self._source_rt = None
            if source:
                taken_at = self.taken_at
                self._records = tuple(
                    [snapshot_goroutine(goro, taken_at) for goro in source]
                )
            else:
                self._records = ()
        return self._records

    def profile(
        self,
        service: Optional[str] = None,
        instance: Optional[str] = None,
        exclude: Sequence[int] = (),
    ) -> GoroutineProfile:
        """The pprof-analog profile of this snapshot."""
        return GoroutineProfile.from_snapshot(
            self, service=service, instance=instance, exclude=exclude
        )

    # -- pickling (forces materialization: shipped snapshots are complete) ---

    def __getstate__(self):
        return {
            "process": self.process,
            "taken_at": self.taken_at,
            "num_goroutines": self.num_goroutines,
            "blocked_goroutines": self.blocked_goroutines,
            "rss_bytes": self.rss_bytes,
            "base_rss": self.base_rss,
            "state_census": self.state_census,
            "steps": self.steps,
            "gc": self.gc,
            "records": self.records,
        }

    def __setstate__(self, state):
        self.__init__(**state)

    @property
    def stale(self) -> bool:
        """True when records are unmaterialized and can no longer be
        built consistently (the source runtime has advanced)."""
        if self._records is not None:
            return False
        source_rt = self._source_rt
        return source_rt is not None and (
            source_rt.steps != self.steps or source_rt.now != self.taken_at
        )

    def _counter_state(self):
        """The eagerly-copied fields — always safe to compare."""
        return (
            self.process,
            self.taken_at,
            self.num_goroutines,
            self.blocked_goroutines,
            self.rss_bytes,
            self.base_rss,
            self.state_census,
            self.steps,
            self.gc,
        )

    def __eq__(self, other) -> bool:
        """Counter-first equality that never forces a stale materialization.

        The eager counters are compared first (cheap, always available);
        only when they agree are records compared — and a side whose
        records are unmaterialized *and* stale is treated as unequal
        rather than raising: equality is a query, not an observation, so
        it must not blow up on a snapshot that merely expired.
        """
        if not isinstance(other, RuntimeSnapshot):
            return NotImplemented
        if self._counter_state() != other._counter_state():
            return False
        if self.stale or other.stale:
            return False
        return self.records == other.records

    def __hash__(self):  # pragma: no cover - snapshots are not set members
        return hash((self.process, self.taken_at, self.num_goroutines))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RuntimeSnapshot {self.process!r} t={self.taken_at:.3f} "
            f"goroutines={self.num_goroutines} blocked={self.blocked_goroutines}>"
        )


@dataclass(frozen=True, slots=True)
class InstanceSnapshot:
    """One service instance frozen at an instant.

    Satisfies the :class:`repro.leakprof.Profilable` protocol, so a
    LeakProf sweep consumes live instances and shipped snapshots
    identically — which is what lets instances live in worker processes.
    The read path builds it through :func:`make_instance_snapshot`.
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


# Filled through slot descriptors, like profile records: one instance
# snapshot per instance per sweep.
(
    _set_service,
    _set_name,
    _set_requests_served,
    _set_cpu_percent,
    _set_runtime,
    _set_last_metrics,
) = (getattr(InstanceSnapshot, f.name).__set__ for f in fields(InstanceSnapshot))


def make_instance_snapshot(
    service: str,
    name: str,
    requests_served: int,
    cpu_percent: float,
    runtime: RuntimeSnapshot,
    last_metrics: Optional[Any],
) -> InstanceSnapshot:
    """Every field by position; equal to the keyword-built snapshot."""
    snapshot = object.__new__(InstanceSnapshot)
    _set_service(snapshot, service)
    _set_name(snapshot, name)
    _set_requests_served(snapshot, requests_served)
    _set_cpu_percent(snapshot, cpu_percent)
    _set_runtime(snapshot, runtime)
    _set_last_metrics(snapshot, last_metrics)
    return snapshot


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


def snapshot_runtime(runtime: "Runtime") -> RuntimeSnapshot:
    """Freeze one runtime (the main entry point of the plane)."""
    return RuntimeSnapshot.of(runtime)


def snapshot_instance(instance: Any) -> InstanceSnapshot:
    """Freeze one :class:`~repro.fleet.ServiceInstance` (duck-typed)."""
    metrics = instance.metrics
    return make_instance_snapshot(
        instance.service,
        instance.name,
        instance.requests_served,
        instance.cpu_utilization(),
        RuntimeSnapshot.of(instance.runtime),
        metrics[-1] if metrics else None,
    )


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
