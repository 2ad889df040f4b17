"""Proof beats threshold: catching (and vanquishing) a slow leak.

Run with:  PYTHONPATH=src python examples/gc_vs_threshold.py

The paper's LeakProf needs ~10K goroutines blocked at one source
location before it reports anything (§V-A, Criterion 1) — a slow leak
in a modestly-sized service can hide below that bar for weeks, pinning
memory the whole time.  This walkthrough runs such a service and shows
the third detection tier added by ``repro.gc``:

1. the threshold detector sees *nothing* after three observation
   windows, while
2. a reachability sweep *proves* every leaked goroutine from its first
   occurrence (zero false positives on the healthy traffic), which
3. LeakProf then promotes past its threshold/transient filters via the
   ``proof`` annotation on the collected profiles, and finally
4. a reclaiming sweep unwinds the proven leaks in place, recovering the
   pinned RSS without a redeploy.
"""

from repro.fleet import Fleet, RequestMix, Service, ServiceConfig, TrafficShape
from repro.gc import ReclaimPolicy
from repro.leakprof import LeakProf
from repro.patterns import healthy, timeout_leak
from repro.runtime import DEFAULT_BASE_RSS

MIB = 1024 * 1024


def build_fleet(gc_interval=None):
    mix = (
        RequestMix()
        .add(
            "checkout",
            timeout_leak.leaky,
            weight=1.0,
            payload_bytes=256 * 1024,
        )
        .add("browse", healthy.request_response, weight=4.0)
        .add("search", healthy.bounded_timeout, weight=2.0)
    )
    config = ServiceConfig(
        name="storefront",
        mix=mix,
        instances=2,
        traffic=TrafficShape(requests_per_window=50),
        base_rss=DEFAULT_BASE_RSS,
        gc_interval=gc_interval,
    )
    return Fleet().add(Service(config, seed=42))


def main():
    print("== 1. The slow leak LeakProf's threshold cannot see ==")
    fleet = build_fleet()
    for _ in range(3):
        fleet.advance_window()
    instance = fleet.services["storefront"].instances[0]
    blocked = instance.leaked_goroutines()
    rss = instance.rss() / MIB
    print(
        f"after 3 windows: {blocked} goroutines blocked, "
        f"RSS {rss:.1f} MiB on {instance.name}"
    )
    result = LeakProf().daily_run(fleet.all_instances())
    print(
        f"LeakProf @ 10K threshold: {len(result.suspects)} suspects, "
        f"{len(result.new_reports)} reports filed  <- the leak hides\n"
    )

    print("== 2.+3. Per-instance reachability sweeps annotate profiles ==")
    fleet = build_fleet(gc_interval=1800.0)  # sweep twice per window
    for _ in range(3):
        fleet.advance_window()
    instance = fleet.services["storefront"].instances[0]
    report = instance.runtime.gc_reports[-1]
    print(f"last sweep on {instance.name}: {report.summary}")
    proof = report.newly_proven[0] if report.newly_proven else None
    if proof is None:  # all proofs landed in earlier sweeps
        earlier = [r for r in instance.runtime.gc_reports if r.newly_proven]
        proof = earlier[-1].newly_proven[0]
    print(f"sample proof: {proof.summary}")
    result = LeakProf().daily_run(fleet.all_instances())
    promoted = [s for s in result.suspects if s.proof == "proven"]
    print(
        f"LeakProf @ 10K threshold + proofs: {len(promoted)} proven "
        f"suspects promoted, {len(result.new_reports)} reports filed\n"
    )

    print("== 4. Vanquish in place: reclaim instead of redeploy ==")
    before_rss = instance.rss() / MIB
    before_blocked = instance.leaked_goroutines()
    reclaim_report = instance.runtime.gc(
        policy=ReclaimPolicy.RECLAIM_AND_REPORT
    )
    after_rss = instance.rss() / MIB
    stats = reclaim_report.reclaim
    print(
        f"{instance.name}: {before_blocked} blocked / {before_rss:.1f} MiB "
        f"-> {instance.leaked_goroutines()} blocked / {after_rss:.1f} MiB"
    )
    print(
        f"reclaimed {stats.reclaimed}/{stats.attempted} proven leaks, "
        f"released {stats.bytes_released / MIB:.1f} MiB "
        f"({len(stats.reports)} proofs reported), no redeploy needed"
    )
    recovered = 1.0 - (after_rss - 16.0) / max(0.001, before_rss - 16.0)
    print(f"leaked-RSS recovery: {recovered:.0%}")


if __name__ == "__main__":
    main()
