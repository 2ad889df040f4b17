"""Report generation, deduplication and the bug database (§V-A, Fig 3).

After ranking, LeakProf "determines source code ownership and alerts the
owners of the top N-most impactful blocking locations"; Fig 3 shows
reports flowing through a deduplicating Bug DB before being filed.  Each
report carries the offending operation, the blocked-goroutine count, the
representative profile and the memory footprint over time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .impact import LeakCandidate

_report_ids = itertools.count(1)


class ReportStatus(enum.Enum):
    """Triage lifecycle matching the paper's 33 → 24 → 21 funnel.

    The FIX_* / DEPLOYED states extend the funnel with the automated
    remediation lifecycle (:mod:`repro.remedy`): a proposed fix must be
    verified leak-free before it may be deployed.
    """

    OPEN = "open"
    ACKNOWLEDGED = "acknowledged"
    FIX_PROPOSED = "fix_proposed"  # remedy engine attached a candidate fix
    FIX_VERIFIED = "fix_verified"  # candidate passed goleak + RSS checks
    DEPLOYED = "deployed"  # fix rolled out fleet-wide
    FIXED = "fixed"
    REJECTED = "rejected"  # triaged as false positive / won't fix


#: Legal transitions of the remediation lifecycle; the CI gate
#: (:class:`repro.devflow.ci.FixGate`) relies on this ordering.  A stalled
#: remediation (gate rejection, aborted canary) may re-propose — FIX_*
#: states loop back through FIX_PROPOSED — but DEPLOYED is only ever
#: reachable from FIX_VERIFIED.
_REMEDIATION_PREDECESSORS = {
    ReportStatus.FIX_PROPOSED: (
        ReportStatus.OPEN,
        ReportStatus.ACKNOWLEDGED,
        ReportStatus.FIX_PROPOSED,
        ReportStatus.FIX_VERIFIED,
    ),
    ReportStatus.FIX_VERIFIED: (ReportStatus.FIX_PROPOSED,),
    ReportStatus.DEPLOYED: (ReportStatus.FIX_VERIFIED,),
}


@dataclass
class LeakReport:
    """One filed alert: everything a service owner needs to triage."""

    report_id: int
    candidate: LeakCandidate
    owner: Optional[str] = None
    status: ReportStatus = ReportStatus.OPEN
    filed_at: float = 0.0
    #: (time, rss_bytes) samples supporting the "memory footprint over
    #: time" section of the report.
    memory_footprint: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def summary(self) -> str:
        c = self.candidate
        return (
            f"[{self.status.value}] {c.service or '?'} {c.state} at "
            f"{c.location}: peak {c.peak_instance_count} blocked goroutines "
            f"in one instance, {c.total_blocked} fleet-wide across "
            f"{c.instances_affected} instances (RMS {c.rms_blocked:.1f})"
        )


class BugDatabase:
    """Deduplicating store of leak reports (the Bug DB of Fig 3).

    Identity is the candidate key (service, state, location): re-detecting
    a known leak on a later daily run must not re-alert the owners.
    """

    def __init__(self) -> None:
        self._by_key: Dict[Tuple[Optional[str], str, str], LeakReport] = {}

    def _next_report_id(self) -> int:
        """Allocate the next report id.

        Process-global by default; persistent stores override this so ids
        survive restarts without colliding.
        """
        return next(_report_ids)

    def _persist(self, report: LeakReport) -> None:
        """Record ``report``'s new state.

        Called after every filing and every status transition.  A no-op
        here; persistent stores override it to write through.
        """

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, candidate: LeakCandidate) -> bool:
        return candidate.key in self._by_key

    def file(
        self,
        candidate: LeakCandidate,
        owner: Optional[str] = None,
        filed_at: float = 0.0,
        memory_footprint: Optional[Sequence[Tuple[float, int]]] = None,
    ) -> Optional[LeakReport]:
        """File a report unless one already exists; None means duplicate."""
        if candidate.key in self._by_key:
            return None
        report = LeakReport(
            report_id=self._next_report_id(),
            candidate=candidate,
            owner=owner,
            filed_at=filed_at,
            memory_footprint=list(memory_footprint or ()),
        )
        self._by_key[candidate.key] = report
        self._persist(report)
        return report

    def get(self, candidate: LeakCandidate) -> Optional[LeakReport]:
        return self._by_key.get(candidate.key)

    def all_reports(self) -> List[LeakReport]:
        return list(self._by_key.values())

    def by_status(self, status: ReportStatus) -> List[LeakReport]:
        return [r for r in self._by_key.values() if r.status is status]

    # -- triage transitions -------------------------------------------------

    def acknowledge(self, report: LeakReport) -> None:
        if report.status is ReportStatus.OPEN:
            report.status = ReportStatus.ACKNOWLEDGED
        self._persist(report)

    def mark_fixed(self, report: LeakReport) -> None:
        report.status = ReportStatus.FIXED
        self._persist(report)

    def reject(self, report: LeakReport) -> None:
        report.status = ReportStatus.REJECTED
        self._persist(report)

    # -- remediation transitions (enforced ordering) ------------------------

    def _advance(self, report: LeakReport, to: ReportStatus) -> None:
        allowed = _REMEDIATION_PREDECESSORS[to]
        if report.status not in allowed:
            raise ValueError(
                f"report #{report.report_id}: illegal transition "
                f"{report.status.value} -> {to.value} (requires one of "
                f"{sorted(s.value for s in allowed)})"
            )
        report.status = to
        self._persist(report)

    def propose_fix(self, report: LeakReport) -> None:
        """A remediation candidate exists (remedy engine or human)."""
        self._advance(report, ReportStatus.FIX_PROPOSED)

    def mark_fix_verified(self, report: LeakReport) -> None:
        """The candidate passed verification (goleak + RSS regression)."""
        self._advance(report, ReportStatus.FIX_VERIFIED)

    def mark_deployed(self, report: LeakReport) -> None:
        """The verified fix finished its staged rollout fleet-wide."""
        self._advance(report, ReportStatus.DEPLOYED)

    def funnel(self) -> Dict[str, int]:
        """The paper's reported/acknowledged/fixed counts."""
        reports = self.all_reports()
        resolved = (ReportStatus.FIXED, ReportStatus.DEPLOYED)
        triaged = (
            ReportStatus.ACKNOWLEDGED,
            ReportStatus.FIX_PROPOSED,
            ReportStatus.FIX_VERIFIED,
        ) + resolved
        acknowledged = [r for r in reports if r.status in triaged]
        fixed = [r for r in reports if r.status in resolved]
        return {
            "reported": len(reports),
            "acknowledged": len(acknowledged),
            "fixed": len(fixed),
        }
