"""Staged fleet rollout of a verified fix: canary → ramp → full → drain.

The paper's Table V deltas come from owners deploying fixes to whole
services; this module replays that as a guarded, staged deployment on
top of :mod:`repro.fleet`.  Each stage restarts a larger share of the
service's instances onto the fixed request mix (via
``Service.partial_deploy``), serves a few observation windows, and gates
on canary health: updated instances must not accumulate blocked
goroutines and must not out-grow the still-leaky legacy instances in
RSS.  An unhealthy canary aborts the rollout and rolls the updated
instances back to the old mix — the fix never reaches the full fleet.

The final result reports the service-wide RSS recovery the way Table V
does: peak utilization before the fix versus after the drain windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.fleet import Service, WINDOW_SECONDS
from repro.fleet.workload import RequestMix


@dataclass(frozen=True)
class RolloutStage:
    """One ramp step: the cumulative fraction of instances on the fix."""

    name: str
    fraction: float  # of the service's instances, cumulative


#: Canary one quarter (at least one instance), then half, then everyone.
DEFAULT_STAGES: Tuple[RolloutStage, ...] = (
    RolloutStage("canary", 0.25),
    RolloutStage("ramp", 0.5),
    RolloutStage("full", 1.0),
)

#: Blocked goroutines a stage's updated instances may gain and still
#: pass: a fix that adds any is not healthy.
BLOCKED_GROWTH_TOLERANCE = 0


@dataclass
class StageReport:
    """Observations from one rollout stage's windows."""

    stage: str
    target_instances: int
    newly_deployed: int
    blocked_growth_updated: int  # blocked-goroutine delta on fixed instances
    mean_rss_updated: float
    mean_rss_legacy: Optional[float]  # None once no leaky instance remains
    healthy: bool

    @property
    def summary(self) -> str:
        legacy = (
            f"{self.mean_rss_legacy / (1024 ** 2):.1f} MiB"
            if self.mean_rss_legacy is not None
            else "-"
        )
        verdict = "ok" if self.healthy else "ABORT"
        return (
            f"{self.stage}: {self.target_instances} instance(s) on fix "
            f"(+{self.newly_deployed}), blocked growth "
            f"{self.blocked_growth_updated:+d}, RSS fixed "
            f"{self.mean_rss_updated / (1024 ** 2):.1f} MiB vs legacy "
            f"{legacy} [{verdict}]"
        )


@dataclass
class RolloutResult:
    """The Table V-style before/after story for one service."""

    service: str
    completed: bool
    aborted_stage: Optional[str]
    stages: List[StageReport] = field(default_factory=list)
    peak_rss_before: int = 0  # service-wide peak while leaky (bytes)
    peak_instance_rss_before: int = 0
    post_rss: int = 0  # service-wide RSS after full rollout + drain
    post_instance_rss: int = 0

    @property
    def rss_recovery(self) -> float:
        """1 - after/before, the 'saved' column of Table V.

        An aborted rollout recovered nothing, whatever post_rss holds.
        """
        if not self.completed or self.peak_rss_before <= 0:
            return 0.0
        return 1.0 - self.post_rss / self.peak_rss_before

    @property
    def summary(self) -> str:
        gib = 1024**3
        if not self.completed:
            return (
                f"{self.service}: rollout aborted at stage "
                f"{self.aborted_stage!r}; fleet rolled back"
            )
        return (
            f"{self.service}: peak {self.peak_rss_before / gib:.2f} GB -> "
            f"{self.post_rss / gib:.2f} GB service-wide "
            f"({self.rss_recovery:.0%} recovered)"
        )


class StagedRollout:
    """Execute a guarded, staged deployment of a fixed request mix."""

    def __init__(
        self,
        stages: Tuple[RolloutStage, ...] = DEFAULT_STAGES,
        windows_per_stage: int = 2,
        drain_windows: int = 2,
        window: float = WINDOW_SECONDS,
    ):
        if not stages or stages[-1].fraction < 1.0:
            raise ValueError("rollout stages must end with a full deploy")
        self.stages = stages
        self.windows_per_stage = windows_per_stage
        self.drain_windows = drain_windows
        self.window = window

    def execute(self, service: Service, fixed_mix: RequestMix) -> RolloutResult:
        old_mix = service.config.mix
        result = RolloutResult(
            service=service.config.name,
            completed=False,
            aborted_stage=None,
            peak_rss_before=service.peak_rss(),
            peak_instance_rss_before=service.peak_instance_rss(),
        )
        with obs.default_tracer().span(
            "remedy.rollout", service=service.config.name
        ) as root:
            updated: List[int] = []
            for stage in self.stages:
                report = self._run_stage(
                    service, fixed_mix, stage, updated, result
                )
                self._record_stage(stage.name, report.healthy)
                if not report.healthy:
                    # Bad canary: roll updated instances back to old code.
                    service.partial_deploy(old_mix, indices=updated)
                    result.aborted_stage = stage.name
                    root.attributes.update(outcome="aborted", stage=stage.name)
                    self._record_rollout("aborted")
                    return result
            for _ in range(self.drain_windows):
                service.advance_window(self.window)
            result.completed = True
            result.post_rss = (
                service.history[-1].total_rss_bytes if service.history else 0
            )
            result.post_instance_rss = max(
                instance.rss() for instance in service.instances
            )
            root.attributes.update(
                outcome="completed", recovery=round(result.rss_recovery, 4)
            )
            self._record_rollout("completed")
        return result

    def _run_stage(
        self,
        service: Service,
        fixed_mix: RequestMix,
        stage: RolloutStage,
        updated: List[int],
        result: RolloutResult,
    ) -> StageReport:
        """One ramp step (traced as a ``remedy.stage`` child span)."""
        with obs.default_tracer().span(
            "remedy.stage", stage=stage.name
        ) as span:
            target = min(
                len(service.instances),
                max(1, math.ceil(stage.fraction * len(service.instances))),
            )
            newly = service.partial_deploy(
                fixed_mix, count=target - len(updated)
            )
            updated.extend(newly)
            blocked_before = self._blocked(service, updated)
            for _ in range(self.windows_per_stage):
                service.advance_window(self.window)
            blocked_growth = self._blocked(service, updated) - blocked_before
            mean_updated = self._mean_rss(service, updated)
            legacy = [
                index
                for index in range(len(service.instances))
                if index not in updated
            ]
            mean_legacy = self._mean_rss(service, legacy) if legacy else None
            healthy = blocked_growth <= BLOCKED_GROWTH_TOLERANCE and (
                mean_legacy is None or mean_updated <= mean_legacy
            )
            report = StageReport(
                stage=stage.name,
                target_instances=target,
                newly_deployed=len(newly),
                blocked_growth_updated=blocked_growth,
                mean_rss_updated=mean_updated,
                mean_rss_legacy=mean_legacy,
                healthy=healthy,
            )
            result.stages.append(report)
            span.attributes.update(
                target=target, healthy=healthy, blocked_growth=blocked_growth
            )
        return report

    @staticmethod
    def _record_stage(stage: str, healthy: bool) -> None:
        reg = obs.default_registry()
        if reg.enabled:
            reg.counter(
                "repro_remedy_rollout_stages_total",
                "Rollout stage transitions, by stage and gate outcome",
                ("stage", "outcome"),
            ).labels(stage, "ok" if healthy else "abort").inc()

    @staticmethod
    def _record_rollout(outcome: str) -> None:
        reg = obs.default_registry()
        if reg.enabled:
            reg.counter(
                "repro_remedy_rollouts_total",
                "Staged rollouts executed, by outcome",
                ("outcome",),
            ).labels(outcome).inc()

    @staticmethod
    def _blocked(service: Service, indices: List[int]) -> int:
        return sum(
            service.instances[index].leaked_goroutines() for index in indices
        )

    @staticmethod
    def _mean_rss(service: Service, indices: List[int]) -> float:
        if not indices:
            return 0.0
        return sum(
            service.instances[index].rss() for index in indices
        ) / len(indices)
