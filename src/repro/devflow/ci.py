"""CI pipeline simulation: the GoLeak deployment story (Fig 5, §VI).

A weekly stream of pull requests flows through CI.  Each PR carries a test
target; leaky PRs embed one of the paper's leak patterns.  Before GoLeak
is deployed (week 22 in the paper) leaks sail into the monorepo at a
median of ~5/week — plus a 47-leak project migration in week 21.  After
deployment, the instrumented test gate blocks leaky PRs; the only leaks
that still land are "critical" PRs waved through by adding their locations
to the suppression list (~1/week in the paper's first weeks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.goleak import SuppressionList, TestTarget, verify_test_main
from repro.patterns import PATTERNS, healthy

#: Leak patterns a buggy PR may introduce, with rough prevalence weights
#: (receive-ish and select-ish causes dominate per §VI-A/C).
_PR_PATTERN_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("unclosed_range", 0.25),
    ("timer_loop", 0.25),
    ("contract_violation", 0.20),
    ("premature_return", 0.12),
    ("timeout_leak", 0.08),
    ("ncast", 0.06),
    ("double_send", 0.04),
)

#: Mean critical (must-land) PRs per week.
CRITICAL_RATE = 1.0

_HEALTHY_BODIES = (
    healthy.fan_out_fan_in,
    healthy.request_response,
    healthy.waitgroup_barrier,
    healthy.bounded_timeout,
)


@dataclass
class PullRequest:
    """One PR: a package's test target plus ground truth about it."""

    pr_id: int
    week: int
    target: TestTarget
    introduces_leak: bool
    pattern: Optional[str] = None
    critical: bool = False  # critical PRs get suppressed-through when blocked


@dataclass
class WeekStats:
    """One bar of Fig 5."""

    week: int
    prs: int
    leaky_prs: int
    blocked: int
    leaks_merged: int  # new leaks that landed in the monorepo this week
    suppression_size: int


class CIPipeline:
    """The PR gate: run the target's tests, GoLeak-verify, block or merge."""

    def __init__(self, suppressions: Optional[SuppressionList] = None):
        self.goleak_enabled = False
        self.suppressions = suppressions or SuppressionList()
        self.merged_leaks: List[PullRequest] = []

    def enable_goleak(self) -> None:
        self.goleak_enabled = True

    def submit(self, pr: PullRequest, seed: int = 0) -> bool:
        """Run CI for one PR.  Returns True if the PR merges."""
        if not self.goleak_enabled:
            if pr.introduces_leak:
                self.merged_leaks.append(pr)
            return True
        result = verify_test_main(pr.target, self.suppressions, seed=seed)
        if not result.failed:
            if pr.introduces_leak:
                # a leak the tests do not exercise would land silently;
                # PR generators below always exercise their leaks.
                self.merged_leaks.append(pr)
            return True
        if pr.critical:
            # the §VI escape hatch: land now, suppress, fix later
            for record in result.leaks:
                self.suppressions.add(
                    record.blocking_function or record.name
                )
            self.merged_leaks.append(pr)
            return True
        return False  # PR blocked; author must fix


class FixGate:
    """The remediation gate: no fix ships to the fleet unverified.

    Remediation candidates ride the same instrumented CI as feature PRs —
    the fixed workload runs as a test target under ``verify_test_main``
    and must come back leak-free.  Only a green gate advances the bug
    report FIX_PROPOSED → FIX_VERIFIED; :class:`BugDatabase` then refuses
    DEPLOYED for anything that skipped this step.
    """

    def __init__(self, suppressions: Optional[SuppressionList] = None):
        self.suppressions = suppressions or SuppressionList()
        self.checks_run = 0
        self.rejections = 0

    def check(self, package: str, fix_body, seed: int = 0):
        """Run the candidate fix through an instrumented test target."""
        target = TestTarget(package).add("TestFixLeakFree", fix_body)
        self.checks_run += 1
        result = verify_test_main(target, self.suppressions, seed=seed)
        if result.failed:
            self.rejections += 1
        return result

    def admit(self, bug_db, report, package: str, fix_body,
              seed: int = 0) -> bool:
        """Gate one proposed fix; on green, mark the report FIX_VERIFIED.

        ``report`` must already be FIX_PROPOSED (the BugDatabase raises
        otherwise), so a fix can neither skip proposal nor verification
        on its way to DEPLOYED.
        """
        result = self.check(package, fix_body, seed=seed)
        if result.failed:
            return False
        bug_db.mark_fix_verified(report)
        return True


class PRGenerator:
    """Synthesizes the weekly PR stream with the paper's leak rates."""

    def __init__(self, seed: int = 0, prs_per_week: int = 40,
                 leak_rate: float = 5.0):
        self.rng = random.Random(seed)
        self.prs_per_week = prs_per_week
        self.leak_rate = leak_rate
        self._next_id = 0

    def _sample_pattern(self) -> str:
        point = self.rng.random()
        cumulative = 0.0
        for name, weight in _PR_PATTERN_WEIGHTS:
            cumulative += weight
            if point <= cumulative:
                return name
        return _PR_PATTERN_WEIGHTS[-1][0]

    def _poisson(self, mean: float) -> int:
        import math

        limit = math.exp(-mean)
        product = self.rng.random()
        count = 0
        while product > limit:
            product *= self.rng.random()
            count += 1
        return count

    def _make_pr(self, week: int, leaky: bool, critical: bool = False,
                 pattern: Optional[str] = None) -> PullRequest:
        self._next_id += 1
        package = f"pkg/w{week}/pr{self._next_id}"
        target = TestTarget(package)
        if leaky:
            pattern = pattern or self._sample_pattern()
            target.add(f"TestFeature{self._next_id}", PATTERNS[pattern].leaky)
            target.add("TestSmoke", healthy.request_response)
        else:
            body = self.rng.choice(_HEALTHY_BODIES)
            target.add(f"TestFeature{self._next_id}", body)
        return PullRequest(
            pr_id=self._next_id,
            week=week,
            target=target,
            introduces_leak=leaky,
            pattern=pattern if leaky else None,
            critical=critical,
        )

    def week_of_prs(self, week: int, extra_leaks: int = 0) -> List[PullRequest]:
        """The PR stream for one week; ``extra_leaks`` models migrations."""
        leaky_count = self._poisson(self.leak_rate) + extra_leaks
        critical_count = self._poisson(CRITICAL_RATE)
        prs: List[PullRequest] = []
        for index in range(leaky_count):
            prs.append(self._make_pr(week, leaky=True,
                                     critical=index < critical_count))
        for _ in range(max(0, self.prs_per_week - leaky_count)):
            prs.append(self._make_pr(week, leaky=False))
        self.rng.shuffle(prs)
        return prs


@dataclass
class DevFlowResult:
    """Everything the Fig 5 benchmark needs."""

    weeks: List[WeekStats] = field(default_factory=list)
    initial_suppression_size: int = 0
    initial_partial_deadlocks: int = 0


def simulate(
    weeks: int = 25,
    deploy_week: int = 22,
    migration_week: int = 21,
    migration_leaks: int = 47,
    leak_rate: float = 5.0,
    prs_per_week: int = 40,
    seed: int = 0,
    initial_suppression_size: int = 1040,
    initial_partial_deadlocks: int = 857,
) -> DevFlowResult:
    """Run the 25-week window of Fig 5.

    ``initial_*`` model the §IV-A bootstrap: the offline trial run seeded
    the suppression list with 1040 locations, 857 of them channel partial
    deadlocks (the rest other runaway goroutines).
    """
    generator = PRGenerator(seed=seed, prs_per_week=prs_per_week,
                            leak_rate=leak_rate)
    suppressions = SuppressionList(
        {f"legacy.leak{i}" for i in range(initial_suppression_size)}
    )
    pipeline = CIPipeline(suppressions)
    result = DevFlowResult(
        initial_suppression_size=initial_suppression_size,
        initial_partial_deadlocks=initial_partial_deadlocks,
    )
    for week in range(1, weeks + 1):
        if week == deploy_week:
            pipeline.enable_goleak()
        extra = migration_leaks if week == migration_week else 0
        prs = generator.week_of_prs(week, extra_leaks=extra)
        merged_before = len(pipeline.merged_leaks)
        blocked = 0
        for pr in prs:
            if not pipeline.submit(pr, seed=seed + pr.pr_id):
                blocked += 1
        result.weeks.append(
            WeekStats(
                week=week,
                prs=len(prs),
                leaky_prs=sum(1 for pr in prs if pr.introduces_leak),
                blocked=blocked,
                leaks_merged=len(pipeline.merged_leaks) - merged_before,
                suppression_size=len(suppressions),
            )
        )
    return result


def projected_annual_prevention(leak_rate: float = 5.0) -> int:
    """The paper's ≈260/year estimate: 52 weeks × ~5 leaks/week."""
    return round(52 * leak_rate)
