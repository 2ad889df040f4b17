"""Services, fleets, deploys and fixes (Figs 1, 2, 6 and Table V).

A :class:`Service` owns N instances built from a config; ``deploy`` swaps
the request mix and restarts every instance — redeploys clear accumulated
leaks, which is exactly why the paper notes leaks "get elided" by fast
deploy cycles and why Fig 1's RSS collapses when the fix lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import obs
from repro.obs.fold import fold

from .cpu import CpuModel
from .determinism import aggregate_sample, build_instance
from .service import ServiceInstance, WINDOW_SECONDS, drain, windows_in
from .workload import RequestMix, TrafficShape

if TYPE_CHECKING:  # pragma: no cover
    from repro.gc import ReclaimPolicy

@dataclass
class ServiceConfig:
    """Everything needed to (re)start a service's instances."""

    name: str
    mix: RequestMix
    instances: int = 2
    traffic: TrafficShape = field(default_factory=TrafficShape)
    cpu_model: CpuModel = field(default_factory=CpuModel)
    base_rss: int = 256 * 1024 * 1024
    #: Scale factor: how many real instances each simulated one stands for.
    instances_represented: int = 1
    #: Per-instance repro.gc sweep cadence in virtual seconds (None = off).
    gc_interval: Optional[float] = None
    #: repro.gc.ReclaimPolicy applied by those sweeps (None = observe only).
    gc_policy: Optional[ReclaimPolicy] = None

    def with_mix(self, mix: RequestMix) -> "ServiceConfig":
        return replace(self, mix=mix)


@dataclass
class ServiceSample:
    """One fleet-level observation of a service.

    Aggregated purely from per-instance counter reads (O(instances)):
    monitoring a service whose leak has parked millions of goroutines
    costs the same as monitoring a healthy one — the Fig 6 regime.
    """

    t: float
    total_rss_bytes: int
    peak_instance_rss: int
    total_blocked_goroutines: int
    peak_instance_blocked: int
    mean_cpu_percent: float
    max_cpu_percent: float
    #: Live goroutines across instances (scaled), an O(1)-per-instance read.
    total_goroutines: int = 0


class RolloutBase:
    """The rollout rules every service handle shares, written once.

    :class:`Service` (live instances) and
    :class:`repro.fleet.shard.ShardedService` (remote ones) both derive
    from it.  A subclass holds ``config``, ``deploys``, ``history`` and
    ``instances`` (each exposing ``mix``), and implements one hook:

    ``_restart(indices, mix)`` restarts exactly the instances at
    ``indices`` (a non-empty list, except for a full :meth:`deploy` of
    an empty service) on ``mix`` from the service's current ``now``,
    built at the current deploy generation, so that afterwards
    ``instances[i].mix == mix`` for each of them.  The base class bumps
    ``deploys`` after the hook returns and never touches an instance
    itself.
    """

    config: ServiceConfig
    deploys: int
    history: List[ServiceSample]
    instances: List

    def _restart(self, indices: List[int], mix: RequestMix) -> None:
        raise NotImplementedError

    def deploy(self, mix: Optional[RequestMix] = None) -> None:
        """Roll out new code: fresh processes, leaks gone, new mix live."""
        if mix is not None:
            self.config = self.config.with_mix(mix)
        self._restart(list(range(len(self.instances))), self.config.mix)
        self.deploys += 1

    # -- staged rollouts (the repro.remedy hooks) ----------------------------

    def partial_deploy(
        self,
        mix: RequestMix,
        count: Optional[int] = None,
        indices: Optional[List[int]] = None,
    ) -> List[int]:
        """Restart only some instances on ``mix`` (canary / percentage ramp).

        Unlike :meth:`deploy`, the untouched instances keep serving — and
        keep their accumulated leaks, which is what lets a canary be
        compared against still-leaky peers.  Instances are chosen lowest
        index first among those not already on ``mix``; returns the indices
        restarted.  When every instance ends up on ``mix`` the service
        config is updated, so a later full :meth:`deploy` keeps the fix.

        Mixes are compared *structurally*: two independently-built but
        equal :class:`RequestMix` objects count as the same code, so a
        rollout driven from a config copy (or from across a shard
        boundary, where only pickled copies exist) never restarts
        instances that already run the fix.
        """
        if indices is None:
            eligible = [
                index
                for index, instance in enumerate(self.instances)
                if instance.mix != mix
            ]
            if count is None:
                count = len(eligible)
            indices = eligible[: max(0, count)]
        indices = list(indices)
        if indices:
            self._restart(indices, mix)
            self.deploys += 1
        if all(instance.mix == mix for instance in self.instances):
            self.config = self.config.with_mix(mix)
        return indices

    def instances_on(self, mix: RequestMix) -> List[int]:
        """Indices of instances currently serving ``mix`` (structurally)."""
        return [
            index
            for index, instance in enumerate(self.instances)
            if instance.mix == mix
        ]

    def peak_rss(self) -> int:
        """Highest fleet-wide RSS observed so far."""
        return max((s.total_rss_bytes for s in self.history), default=0)

    def peak_instance_rss(self) -> int:
        return max((s.peak_instance_rss for s in self.history), default=0)


class Service(RolloutBase):
    """A named service: config + running instances + its history."""

    def __init__(self, config: ServiceConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.deploys = 0
        self.instances: List[ServiceInstance] = [
            self._make_instance(index, config.mix, 0.0)
            for index in range(config.instances)
        ]
        self.history: List[ServiceSample] = []
        self.deploys += 1

    def _make_instance(
        self, index: int, mix: RequestMix, start_time: float
    ) -> ServiceInstance:
        # The shared helper (repro.fleet.determinism) is what the shard
        # workers also call: seed derivation and construction cannot
        # drift between serial and sharded execution.
        return build_instance(
            self.config, self.seed, self.deploys, index, mix, start_time
        )

    def _restart(self, indices: List[int], mix: RequestMix) -> None:
        start_time = self.now
        for index in indices:
            self.instances[index] = self._make_instance(index, mix, start_time)

    @property
    def now(self) -> float:
        return self.instances[0].runtime.now if self.instances else 0.0

    def advance_window(self, window: float = WINDOW_SECONDS) -> ServiceSample:
        """Advance every instance one window and aggregate a sample.

        The aggregation folds the sample each instance just took — O(1)
        runtime counters read once, at the end of its window — so no
        per-goroutine or per-channel state is touched and the sweep
        stays cheap even at a 8.6M-blocked-goroutine peak.
        """
        samples = [
            instance.advance_window(window) for instance in self.instances
        ]
        sample = aggregate_sample(
            self.now,
            (
                (s.rss_bytes, s.blocked_goroutines, s.cpu_percent,
                 s.goroutines)
                for s in samples
            ),
            self.config.instances_represented,
        )
        self.history.append(sample)
        fold(drain(self.instances))
        publish_health(self.config.name, sample, len(self.instances))
        return sample


class Fleet:
    """All services under observation — what LeakProf sweeps daily."""

    def __init__(self) -> None:
        self.services: Dict[str, Service] = {}

    def add(self, service: Service) -> "Fleet":
        self.services[service.config.name] = service
        return self

    def __iter__(self):
        return iter(self.services.values())

    def all_instances(self) -> List[ServiceInstance]:
        instances: List[ServiceInstance] = []
        for service in self.services.values():
            instances.extend(service.instances)
        return instances

    def snapshots(self):
        """Freeze every instance, in service-add then index order.

        The in-process analog of :meth:`repro.fleet.shard.ShardedFleet.
        snapshots`: both produce the same ordering, so a LeakProf daily
        run sees identical input either way.
        """
        return [instance.snapshot() for instance in self.all_instances()]

    def advance_window(self, window: float = WINDOW_SECONDS) -> None:
        for service in self.services.values():
            service.advance_window(window)

    def run_days(
        self,
        days: float,
        window: float = WINDOW_SECONDS,
    ) -> None:
        """Advance the whole fleet ``days`` of virtual time."""
        for _ in range(windows_in(days, window)):
            self.advance_window(window)


def publish_health(service: str, sample: ServiceSample, instances: int) -> None:
    """Set ``repro_fleet_service_health`` from a committed window's sample."""
    registry = obs.default_registry()
    if registry.enabled:
        health = registry.gauge(
            "repro_fleet_service_health",
            "Latest aggregated service sample, by service/field",
            ("service", "field"),
        )
        health.labels(service, "rss_bytes").set(sample.total_rss_bytes)
        health.labels(service, "blocked_goroutines").set(
            sample.total_blocked_goroutines
        )
        health.labels(service, "instances").set(instances)


CAPACITY_GRANULARITY_GB = 1.0


def capacity_for(peak_instance_rss: int, safety: float = 1.3) -> float:
    """Provisioned per-instance memory (GB) for an observed peak RSS.

    Owners provision peak × safety rounded up to the allocator's step
    (``CAPACITY_GRANULARITY_GB``): Table V's "Capacity (GB) per instance".
    """
    gb = peak_instance_rss * safety / (1024 ** 3)
    steps = max(1, -(-gb // CAPACITY_GRANULARITY_GB))  # ceil division
    return steps * CAPACITY_GRANULARITY_GB
