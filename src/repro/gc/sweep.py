"""Sweep orchestration: tracker sync → mark → (optionally) reclaim.

One :func:`run_sweep` is what ``Runtime.gc()`` executes and what the
periodic scheduler timer installed by ``Runtime.enable_gc()`` fires.
State persists across sweeps on the runtime (``runtime._gc_state``):

* the :class:`~repro.gc.refs.ReferenceTracker` with its dirty sets,
* the set of goroutines already proven leaked (proofs are stable, so
  incremental sweeps never re-mark them),
* the report history (``runtime.gc_reports``), and
* ``tally``, the sweeps not yet folded (a sweep writes no metric).

Every sweep also stamps each live goroutine's ``gc_verdict``, which is
how proofs flow outward: goroutine profiles snapshot the verdict, the
pprof text format carries it across the wire, and LeakProf promotes
proven suspects past its threshold and transient filters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.obs.fold import GCTally

from .mark import LeakProof, MarkResult, Verdict, mark
from .reclaim import ReclaimPolicy, ReclaimStats, reclaim_goroutines
from .refs import ReferenceTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Runtime


@dataclass
class GCReport:
    """Everything one sweep observed and did."""

    at: float  # virtual time of the sweep
    sweep_index: int
    incremental: bool
    goroutines_total: int
    goroutines_rescanned: int  # dirty re-scans this sweep
    goroutines_marked: int  # flood visits this sweep
    objects_reached: int
    live: int
    possibly_leaked: int
    proven_leaked: int  # total standing proofs (carried + new)
    newly_proven: List[LeakProof] = field(default_factory=list)
    reclaim: Optional[ReclaimStats] = None
    work: int = 0  # scan + mark effort units (deterministic)
    wall_seconds: float = 0.0

    @property
    def summary(self) -> str:
        verdictline = (
            f"live={self.live} possible={self.possibly_leaked} "
            f"proven={self.proven_leaked} (+{len(self.newly_proven)} new)"
        )
        mode = "incremental" if self.incremental else "full"
        tail = ""
        if self.reclaim is not None and self.reclaim.attempted:
            tail = (
                f"; reclaimed {self.reclaim.reclaimed}/"
                f"{self.reclaim.attempted} "
                f"({self.reclaim.bytes_released} bytes)"
            )
        return f"gc[{mode}] t={self.at:g}: {verdictline}{tail}"


class GCState:
    """Per-runtime sweep state hanging off ``runtime._gc_state``."""

    def __init__(self, runtime: "Runtime"):
        self.tracker = ReferenceTracker(runtime)
        self.proven: Dict[int, LeakProof] = {}
        self.reports: List[GCReport] = []
        self.tally = GCTally()


def run_sweep(
    runtime: "Runtime",
    full: bool = False,
    policy: Optional[ReclaimPolicy] = None,
) -> GCReport:
    """Execute one sweep over ``runtime`` (the ``Runtime.gc`` backend).

    ``policy`` decides what happens to proven leaks; ``None`` is
    ``ReclaimPolicy.OBSERVE``.
    """
    state = runtime._gc_state
    if state is None:
        state = runtime._gc_state = GCState(runtime)
    tracker = state.tracker
    started = time.perf_counter()
    work_before = tracker.work()

    if full:
        state.proven.clear()
    rescanned = tracker.sync(full=full)
    synced = time.perf_counter()

    # Prune proofs of goroutines that already left (reclaimed earlier).
    alive_gids = {
        gid for gid, g in runtime._goroutines.items() if g.alive
    }
    for gid in list(state.proven):
        if gid not in alive_gids:
            state.proven.pop(gid)

    result: MarkResult = mark(runtime, tracker, skip=frozenset(state.proven))
    state.tally.sync.add(synced - started, 0)
    state.tally.mark.add(time.perf_counter() - synced, len(result.proofs))

    # Stamp verdicts: fresh ones from this mark pass, carried proofs for
    # the goroutines the incremental pass skipped.
    verdicts: Dict[int, Verdict] = dict(result.verdicts)
    for gid in state.proven:
        verdicts[gid] = Verdict.PROVEN_LEAKED
    delta = runtime._delta
    for gid, verdict in verdicts.items():
        goro = runtime._goroutines.get(gid)
        if goro is not None and goro.alive:
            value = verdict.value
            if goro.gc_verdict != value:
                goro.gc_verdict = value
                if delta is not None:
                    # A verdict change alters the shipped record.
                    delta.add(gid)

    newly_proven = list(result.proofs.values())
    state.proven.update(result.proofs)

    reclaim_stats: Optional[ReclaimStats] = None
    if policy is not None and policy.reclaims and state.proven:
        reclaim_started = time.perf_counter()
        targets = [
            runtime._goroutines[gid]
            for gid in state.proven
            if gid in runtime._goroutines
        ]
        reclaim_stats = reclaim_goroutines(
            runtime,
            targets,
            proofs=state.proven,
            keep_reports=policy is ReclaimPolicy.RECLAIM_AND_REPORT,
        )
        state.tally.reclaim.add(
            time.perf_counter() - reclaim_started, reclaim_stats.reclaimed
        )
        state.tally.released += reclaim_stats.bytes_released
        # Reclaimed goroutines are gone; survivors were woken by the
        # unwind (wherever they parked next is a new state) and must be
        # re-proven — or not — by the next sweep.
        for goro in targets:
            state.proven.pop(goro.gid, None)

    counts = {verdict: 0 for verdict in Verdict}
    for verdict in verdicts.values():
        counts[verdict] += 1

    report = GCReport(
        at=runtime.now,
        sweep_index=len(state.reports) + 1,
        incremental=not full,
        goroutines_total=len(alive_gids),
        goroutines_rescanned=rescanned,
        goroutines_marked=result.goroutines_marked,
        objects_reached=result.objects_reached,
        live=counts[Verdict.LIVE],
        possibly_leaked=counts[Verdict.POSSIBLY_LEAKED],
        proven_leaked=counts[Verdict.PROVEN_LEAKED],
        newly_proven=newly_proven,
        reclaim=reclaim_stats,
        work=(tracker.work() - work_before)
        + result.goroutines_marked
        + result.objects_reached,
        wall_seconds=time.perf_counter() - started,
    )
    state.reports.append(report)
    return report
