"""The serializable observation plane (repro.snapshot).

Two guarantees are tested here:

1. **Pickle round-trips** — every snapshot type survives the process
   boundary losslessly (the sharded fleet's whole transport rests on
   this).
2. **Snapshot-vs-live parity** — every observer (profiling, the
   LeakProf sweep, goleak, remedy verification) produces byte-identical
   results whether it consumes the live runtime or its frozen snapshot.
"""

import pickle

from repro.fleet import (
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ServiceInstance,
    TrafficShape,
)
from repro.goleak import find, verify_none
from repro.leakprof import LeakProf, sweep
from repro.patterns import healthy, timeout_leak
from repro.profiling import GoroutineProfile, dump_text
from repro.remedy import judge_snapshots, settle_and_snapshot
from repro.runtime import Runtime
from repro.snapshot import (
    GCSnapshot,
    InstanceSnapshot,
    RuntimeSnapshot,
    snapshot_instance,
    snapshot_runtime,
)


def _leaky_runtime(calls=5, seed=3):
    rt = Runtime(seed=seed, name="snaptest", panic_mode="record")
    for _ in range(calls):
        rt.run(
            timeout_leak.leaky,
            rt,
            deadline=rt.now + 30.0,
            detect_global_deadlock=False,
        )
    return rt


def _leaky_instance(seed=4):
    mix = RequestMix().add(
        "checkout", timeout_leak.leaky, weight=1.0, payload_bytes=32 * 1024
    )
    instance = ServiceInstance(
        service="payments",
        mix=mix,
        traffic=TrafficShape(requests_per_window=12),
        seed=seed,
        name="payments/i-0",
    )
    instance.advance_window(3600.0)
    return instance


def _leaky_service(instances=2, seed=5):
    mix = RequestMix().add(
        "checkout", timeout_leak.leaky, weight=1.0, payload_bytes=32 * 1024
    )
    service = Service(
        ServiceConfig(
            name="payments",
            mix=mix,
            instances=instances,
            traffic=TrafficShape(requests_per_window=10),
        ),
        seed=seed,
    )
    service.advance_window(3600.0)
    return service


class TestPickleRoundTrips:
    def test_runtime_snapshot_round_trip(self):
        snap = snapshot_runtime(_leaky_runtime())
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, RuntimeSnapshot)
        assert clone == snap
        assert clone.records == snap.records
        assert clone.state_census == snap.state_census
        assert clone.rss() == snap.rss_bytes

    def test_instance_snapshot_round_trip(self):
        snap = snapshot_instance(_leaky_instance())
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, InstanceSnapshot)
        assert clone == snap
        assert clone.leaked_goroutines() == snap.leaked_goroutines()
        assert dump_text(clone.profile()) == dump_text(snap.profile())

    def test_gc_snapshot_round_trip(self):
        rt = _leaky_runtime()
        rt.gc()
        snap = snapshot_runtime(rt)
        assert isinstance(snap.gc, GCSnapshot)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.gc == snap.gc
        assert clone.gc.proven_leaked > 0

    def test_idle_runtime_snapshot_has_no_records(self):
        rt = Runtime(seed=0, name="idle")
        snap = snapshot_runtime(rt)
        assert snap.num_goroutines == 0
        assert snap.records == ()
        assert pickle.loads(pickle.dumps(snap)).records == ()


class TestSnapshotEquality:
    """Snapshots are values: they compare field by field."""

    def test_materialized_snapshots_compare_by_value(self):
        rt = _leaky_runtime()
        a = snapshot_runtime(rt)
        b = snapshot_runtime(rt)
        assert a.records == b.records
        assert a == b
        assert a == pickle.loads(pickle.dumps(a))

    def test_counter_mismatch_short_circuits_before_records(self):
        rt_a = Runtime(seed=0, name="a")
        rt_b = _leaky_runtime()
        # different counters: unequal
        assert snapshot_runtime(rt_a) != snapshot_runtime(rt_b)

    def test_eq_against_other_types(self):
        rt = Runtime(seed=0, name="a")
        assert snapshot_runtime(rt) != "not a snapshot"
        assert snapshot_runtime(rt) != object()


class TestSnapshotVsLiveParity:
    def test_profile_take_equals_from_snapshot(self):
        rt = _leaky_runtime()
        live = GoroutineProfile.take(rt, service="svc", instance="i-0")
        frozen = snapshot_runtime(rt).profile(service="svc", instance="i-0")
        assert dump_text(live) == dump_text(frozen)
        assert live.records == frozen.records

    def test_snapshot_counters_match_runtime(self):
        rt = _leaky_runtime()
        snap = snapshot_runtime(rt)
        assert snap.num_goroutines == rt.num_goroutines
        assert snap.blocked_goroutines == rt.blocked_goroutines_count
        assert snap.blocked_goroutines_count == rt.blocked_goroutines_count
        assert snap.rss_bytes == rt.rss()
        assert snap.state_census == {
            state.value: count for state, count in rt.state_census().items()
        }

    def test_sweep_parity_live_vs_snapshots(self):
        """The CI parity gate: a LeakProf sweep must not care whether it
        got live instances or shipped snapshots."""
        service = _leaky_service()
        profiles_live, stats_live = sweep(service.instances)
        profiles_snap, stats_snap = sweep(
            [snapshot_instance(i) for i in service.instances]
        )
        assert [dump_text(p) for p in profiles_live] == [
            dump_text(p) for p in profiles_snap
        ]
        assert stats_live == stats_snap

    def test_daily_run_parity_live_vs_snapshots(self):
        fleet = Fleet().add(_leaky_service())
        result_live = LeakProf(threshold=10).daily_run(
            fleet.all_instances(), now=1.0
        )
        result_snap = LeakProf(threshold=10).daily_run(
            fleet.snapshots(), now=1.0
        )
        assert result_live.suspects == result_snap.suspects
        assert result_live.sweep_stats == result_snap.sweep_stats
        assert [c.location for c in result_live.candidates] == [
            c.location for c in result_snap.candidates
        ]

    def test_goleak_find_on_snapshot_matches_live(self):
        rt = _leaky_runtime()
        live_leaks = find(rt)  # live adapter (may advance the clock)
        snap_leaks = find(snapshot_runtime(rt))  # judged as-is
        assert [r.gid for r in live_leaks] == [r.gid for r in snap_leaks]
        assert live_leaks == snap_leaks

    def test_goleak_reachability_on_snapshot(self):
        rt = _leaky_runtime()
        rt.gc()
        snap = snapshot_runtime(rt)
        proven = find(snap, strategy="reachability")
        assert proven
        assert all(r.proof == "proven" for r in proven)
        # And an across-the-boundary copy judges identically.
        shipped = pickle.loads(pickle.dumps(snap))
        assert find(shipped, strategy="reachability") == proven

    def test_verify_none_accepts_snapshot(self):
        rt = Runtime(seed=1, name="clean")
        rt.run(healthy.request_response, rt, detect_global_deadlock=False)
        verify_none(snapshot_runtime(rt))  # must not raise

    def test_remedy_judges_shipped_snapshots(self):
        """Remedy verification over pickled snapshots: the conclusion a
        shard worker's observation supports is the one the parent gets."""
        baseline = settle_and_snapshot(_leaky_runtime(calls=8))

        fixed_rt = Runtime(seed=3, name="fixed", panic_mode="record")
        for _ in range(8):
            fixed_rt.run(
                timeout_leak.fixed,
                fixed_rt,
                deadline=fixed_rt.now + 30.0,
                detect_global_deadlock=False,
            )
        candidate = settle_and_snapshot(fixed_rt)

        local = judge_snapshots(baseline, candidate, calls=8)
        shipped = judge_snapshots(
            pickle.loads(pickle.dumps(baseline)),
            pickle.loads(pickle.dumps(candidate)),
            calls=8,
        )
        assert local.passed
        assert shipped == local
