"""repro.gc — reachability-based leak *proof* engine with live reclamation.

The paper's two detectors are heuristic by construction: GoLeak needs a
test exit point (Fact 1) and LeakProf needs a 10K-blocked threshold plus
a transient filter (§V-A).  This package adds a third detection tier
with zero false positives: a garbage-collection-style reachability
analysis over the runtime's own books that *proves* a parked goroutine
can never be woken — and can then safely unwind ("vanquish") it in
place, recovering its stack, retained heap, and pinned payloads without
a redeploy.

Layers::

    refs.py     the goroutine -> channel/primitive reference graph,
                maintained incrementally (dirty goroutines, channel
                mutation versions, timer closures)
    mark.py     GC roots -> flood -> LIVE / POSSIBLY_LEAKED /
                PROVEN_LEAKED verdicts, with the timer-orbit isolation
                proof for self-sustaining timer loops
    reclaim.py  LeakReclaimed unwinds behind ReclaimPolicy
                (observe / reclaim / reclaim-and-report)
    sweep.py    sweep orchestration, GCReport, per-runtime state

Entry points live on the runtime itself::

    report = rt.gc()                          # one observe sweep
    rt.gc(policy=ReclaimPolicy.RECLAIM)       # sweep + unwind proven leaks
    rt.enable_gc(interval=3600.0, policy=...) # periodic sweeps

and the proofs flow outward automatically: goroutine profiles carry a
``proof`` annotation, LeakProf promotes proven suspects past its
threshold/transient filters, ``goleak.verify_none(strategy=
"reachability")`` reports exactly the proven set, and
``remedy.diagnose`` skips its probe phase when a proof already names
the unreachable channel and park site.
"""

from .mark import LeakProof, MarkResult, ROOT_STATES, Verdict, mark
from .reclaim import ReclaimPolicy, ReclaimStats, reclaim_goroutines
from .refs import ReferenceTracker, scan_values
from .sweep import GCReport, GCState, run_sweep

__all__ = [
    "GCReport",
    "GCState",
    "LeakProof",
    "MarkResult",
    "ReclaimPolicy",
    "ReclaimStats",
    "ReferenceTracker",
    "ROOT_STATES",
    "Verdict",
    "mark",
    "reclaim_goroutines",
    "run_sweep",
    "scan_values",
]
