"""Remediation tickets: the paper's triage funnel, automated.

A :class:`RemediationTicket` extends a filed
:class:`~repro.leakprof.reports.LeakReport` with everything the engine
learns downstream: the diagnosis, the proposed fix, the verification
verdict, and the rollout outcome.  Status lives on the underlying report
inside the :class:`~repro.leakprof.reports.BugDatabase`, whose
transition rules enforce the gate ordering — a ticket cannot reach
DEPLOYED without first being FIX_PROPOSED and FIX_VERIFIED.

Ownership flows through the same
:class:`~repro.leakprof.ownership.OwnershipRouter` LeakProf alerts with:
the team that owns the blocking location is the assignee who would
review the automated fix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.leakprof.ownership import OwnershipRouter
from repro.leakprof.reports import BugDatabase, LeakReport, ReportStatus

from .diagnose import Diagnosis
from .fixes import FixProposal
from .rollout import RolloutResult
from .verify import VerificationResult

_ticket_ids = itertools.count(1)


@dataclass
class RemediationTicket:
    """One leak's journey from detection to deployment."""

    ticket_id: int
    report: LeakReport
    diagnosis: Diagnosis
    assignee: str
    proposal: Optional[FixProposal] = None
    verification: Optional[VerificationResult] = None
    rollout: Optional[RolloutResult] = None
    notes: List[str] = field(default_factory=list)

    @property
    def status(self) -> ReportStatus:
        return self.report.status

    @property
    def deployed(self) -> bool:
        return self.status is ReportStatus.DEPLOYED

    @property
    def summary(self) -> str:
        candidate = self.report.candidate
        return (
            f"ticket #{self.ticket_id} [{self.status.value}] "
            f"{candidate.service or '?'} {candidate.state} at "
            f"{candidate.location} -> {self.diagnosis.summary} "
            f"(assignee: {self.assignee})"
        )


class TicketTracker:
    """Lifecycle bookkeeping over the Bug DB's remediation states."""

    def __init__(
        self,
        bug_db: Optional[BugDatabase] = None,
        router: Optional[OwnershipRouter] = None,
    ):
        self.bug_db = bug_db if bug_db is not None else BugDatabase()
        self.router = router or OwnershipRouter()
        self.tickets: List[RemediationTicket] = []

    def open(self, report: LeakReport, diagnosis: Diagnosis) -> RemediationTicket:
        """Open (or reopen) the remediation ticket for a filed report.

        A report whose earlier remediation stalled keeps its ticket: the
        retry appends to the same history instead of forking a new one.
        """
        for ticket in self.tickets:
            if ticket.report is report:
                ticket.diagnosis = diagnosis
                ticket.notes.append("reopened: remediation retry")
                return ticket
        ticket = RemediationTicket(
            ticket_id=next(_ticket_ids),
            report=report,
            diagnosis=diagnosis,
            assignee=self.router.route(report.candidate.location),
        )
        self.tickets.append(ticket)
        return ticket

    def propose(self, ticket: RemediationTicket, proposal: FixProposal) -> None:
        """Attach a candidate fix; report advances to FIX_PROPOSED."""
        self.bug_db.propose_fix(ticket.report)
        ticket.proposal = proposal
        ticket.notes.append(f"proposed: {proposal.summary}")

    def record_verification(
        self,
        ticket: RemediationTicket,
        verification: VerificationResult,
        gate_passed: bool = True,
    ) -> bool:
        """File the verification verdict; advance only on a full pass.

        ``gate_passed`` carries the CI :class:`~repro.devflow.ci.FixGate`
        outcome — both the engine's own verification and the gate must be
        green for the report to reach FIX_VERIFIED.
        """
        if ticket.proposal is None:
            raise ValueError(
                f"ticket #{ticket.ticket_id}: nothing to verify (no proposal)"
            )
        ticket.verification = verification
        ticket.notes.append(f"verification: {verification.summary}")
        if not verification.passed:
            return False
        if not gate_passed:
            ticket.notes.append("CI fix gate rejected the candidate")
            return False
        self.bug_db.mark_fix_verified(ticket.report)
        return True

    def record_rollout(
        self, ticket: RemediationTicket, rollout: RolloutResult
    ) -> bool:
        """File the rollout outcome; DEPLOYED only after a completed ramp.

        The underlying BugDatabase transition raises if the ticket never
        passed verification, so an unverified fix cannot be recorded as
        deployed even by a buggy caller.
        """
        ticket.rollout = rollout
        ticket.notes.append(f"rollout: {rollout.summary}")
        if not rollout.completed:
            return False
        self.bug_db.mark_deployed(ticket.report)
        return True

    # -- reporting ----------------------------------------------------------

    def by_status(self, status: ReportStatus) -> List[RemediationTicket]:
        return [t for t in self.tickets if t.status is status]

    def funnel(self) -> Dict[str, int]:
        """Ticket counts per lifecycle stage (the automated Table V funnel)."""
        counts: Dict[str, int] = {}
        for ticket in self.tickets:
            counts[ticket.status.value] = counts.get(ticket.status.value, 0) + 1
        return counts
