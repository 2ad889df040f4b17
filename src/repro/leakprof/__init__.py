"""LeakProf: production goroutine-leak detection (paper Section V)."""

from .collector import Profilable, SweepStats, sweep
from .detector import DEFAULT_THRESHOLD, Suspect, scan_fleet, scan_profile
from .filters import is_trivially_nonblocking
from .impact import LeakCandidate, aggregate, rank_by_impact
from .ownership import OwnershipRouter
from .pipeline import DailyRunResult, LeakProf
from .reports import BugDatabase, LeakReport, ReportStatus

__all__ = [
    "BugDatabase",
    "DEFAULT_THRESHOLD",
    "DailyRunResult",
    "LeakCandidate",
    "LeakProf",
    "LeakReport",
    "OwnershipRouter",
    "Profilable",
    "ReportStatus",
    "Suspect",
    "SweepStats",
    "aggregate",
    "is_trivially_nonblocking",
    "rank_by_impact",
    "scan_fleet",
    "scan_profile",
    "sweep",
]
