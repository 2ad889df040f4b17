"""A simulated service instance: one process with a runtime and a workload.

Each instance owns a :class:`~repro.runtime.Runtime`; every request runs a
handler as a short-lived main goroutine.  Buggy handlers leak goroutines
*into the instance's runtime* — the accumulation, RSS growth, and profile
signatures all emerge from the same mechanics the tools detect, nothing is
injected artificially.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro import obs
from repro.obs.fold import GCTally, Stats, Tally
from repro.obs.registry import monotonic as _monotonic
from repro.profiling import GoroutineProfile
from repro.runtime import Runtime

from .cpu import CpuModel, DAY
from .workload import RequestMix, TrafficShape

if TYPE_CHECKING:  # pragma: no cover
    from repro.gc import ReclaimPolicy

#: Default observation window: one hour of virtual time.
WINDOW_SECONDS = 3600.0


def windows_in(days: float, window: float) -> int:
    """Whole windows in ``days`` of virtual time.

    Callers write ``days`` as ``k * window / 86_400``; the round trip can
    land a hair under ``k`` (``23 * 600 / 86_400`` gives
    22.999999999999996 windows), so a tiny tolerance keeps it at ``k``.
    """
    return int(days * DAY / window + 1e-9)


_instance_ids = itertools.count()

#: The CPU model of instances built without one.  Immutable, so they
#: share it, and with it its memoized baseline.
_DEFAULT_CPU_MODEL = CpuModel()


@dataclass
class InstanceMetrics:
    """One sample of an instance's health (a monitoring datapoint).

    Sampling is O(1) per instance: every field comes from the runtime's
    incrementally-maintained counters, so monitoring cost scales with the
    number of instances — never with how many goroutines each has leaked.
    """

    t: float
    rss_bytes: int
    goroutines: int
    cpu_percent: float
    requests_served: int
    #: Parked goroutines at sample time (the leak signal, an O(1) read).
    blocked_goroutines: int = 0


class ServiceInstance:
    """One deployed copy of a service."""

    def __init__(
        self,
        service: str,
        mix: RequestMix,
        traffic: TrafficShape,
        cpu_model: Optional[CpuModel] = None,
        base_rss: int = 256 * 1024 * 1024,
        seed: int = 0,
        name: Optional[str] = None,
        start_time: float = 0.0,
        gc_interval: Optional[float] = None,
        gc_policy: Optional[ReclaimPolicy] = None,
    ):
        self.service = service
        self.mix = mix
        self.traffic = traffic
        self.cpu_model = cpu_model or _DEFAULT_CPU_MODEL
        self.name = name or f"{service}/i-{next(_instance_ids)}"
        self.runtime = Runtime(
            seed=seed,
            base_rss=base_rss,
            name=self.name,
            panic_mode="record",
        )
        self.runtime.now = start_time
        #: Per-instance reachability-sweep cadence (virtual seconds).
        #: When set, repro.gc sweeps fire on the window's clock — inside
        #: request runs, the last of which carries the idle tail — and
        #: annotate the profiles LeakProf later collects (and, with a
        #: reclaiming policy, vanquish proven leaks without a redeploy).
        self.gc_interval = gc_interval
        self.gc_policy = gc_policy
        if gc_interval is not None:
            self.runtime.enable_gc(gc_interval, policy=gc_policy)
        self.requests_served = 0
        #: The last window's sample (None before the first window).
        self.last_metrics: Optional[InstanceMetrics] = None
        #: Windows not yet folded into the registry (seconds and
        #: requests), drained by the window's owner (see :func:`drain`).
        self.window_tally = Tally()

    # -- serving -------------------------------------------------------------

    def advance_window(self, window: float = WINDOW_SECONDS) -> InstanceMetrics:
        """Serve one window's traffic, then record a metrics sample.

        Each request is one :meth:`Runtime.serve` call: its main
        goroutine runs to a 30 s deadline (plus whatever it leaks).  The
        window's idle tail, where leaked goroutines just sit and timers
        and sweeps fire, rides the last request's run: its deadline is
        the one a separate tail advance would reach.  A window with no
        request idles in one plain run to the window's end.

        Instrumented at window granularity, into :attr:`window_tally`,
        which the window's owner drains (:func:`drain`) and folds by
        service — never by instance, which would be unbounded
        cardinality under churn.  The parked-goroutine count is read
        once and feeds both the sample and the CPU model.
        """
        counted = obs.default_registry().enabled
        started = _monotonic() if counted else 0.0
        runtime = self.runtime
        end = runtime.now + window
        request_count = self.traffic.requests_at(runtime.now)
        if request_count:
            sample_handler = self.mix.sample
            rng = runtime.rng
            serve = runtime.serve
            last = request_count - 1
            for index in range(request_count):
                body, name = sample_handler(rng).main
                deadline = runtime.now + 30.0
                if index == last:
                    deadline += max(0.0, end - deadline)
                serve(body, name, deadline)
                self.requests_served += 1
        else:
            runtime._quiesce(runtime.now + max(0.0, end - runtime.now))
        # Counter reads only: a sample never touches per-goroutine state.
        now = runtime.now
        blocked = runtime.blocked_goroutines_count
        sample = InstanceMetrics(
            t=now,
            rss_bytes=runtime.rss(),
            goroutines=runtime.num_goroutines,
            cpu_percent=self.cpu_model.utilization(now, blocked),
            requests_served=request_count,
            blocked_goroutines=blocked,
        )
        self.last_metrics = sample
        if counted:
            self.window_tally.add(_monotonic() - started, request_count)
        return sample

    # -- observability (what the paper's infra sees) -------------------------

    def rss(self) -> int:
        """O(1): the runtime's incremental RSS counter."""
        return self.runtime.rss()

    def leaked_goroutines(self) -> int:
        """O(1): the runtime's parked-goroutine census, not a scan."""
        return self.runtime.blocked_goroutines_count

    def cpu_utilization(self) -> float:
        """The CPU model at the runtime's clock and parked count.

        Between windows this is the last sample's ``cpu_percent``: the
        model is a pure function of those two readings, so when both
        still match the sample's, its value is reused.
        """
        runtime = self.runtime
        now = runtime.now
        blocked = runtime.blocked_goroutines_count
        last = self.last_metrics
        if (
            last is not None
            and last.t == now
            and last.blocked_goroutines == blocked
        ):
            return last.cpu_percent
        return self.cpu_model.utilization(now, blocked)

    def profile(self) -> GoroutineProfile:
        """The pprof endpoint LeakProf sweeps."""
        return self.snapshot().profile()

    def snapshot(self):
        """Freeze this instance into a picklable observation snapshot.

        The same object a sharded fleet ships across its worker
        boundary; every observer (LeakProf sweeps, goleak, remedy
        verification) consumes this instead of live runtime internals.
        """
        from repro.snapshot import snapshot_instance  # deferred: imports fleet

        return snapshot_instance(self)


def drain(instances: Iterable[ServiceInstance]) -> Stats:
    """Empty ``instances``' run, window and sweep tallies into one
    :data:`~repro.obs.fold.Stats` value, services in first-seen order.

    The fleet's one drain: ``Service.advance_window`` folds it once per
    window and a shard worker ships it in its reply.
    """
    runs = Tally()
    windows: Dict[str, Tally] = {}
    sweeps: Optional[GCTally] = None
    for instance in instances:
        runtime = instance.runtime
        runs.merge(runtime.run_tally)
        tally = windows.get(instance.service)
        if tally is None:
            tally = windows[instance.service] = Tally()
        tally.merge(instance.window_tally)
        if runtime._gc_state is not None:
            sweeps = sweeps or GCTally()
            sweeps.merge(runtime._gc_state.tally)
    return runs.take(), tuple(
        (service, tally.take())
        for service, tally in windows.items()
        if tally.counts
    ), None if sweeps is None else sweeps.take()
