"""repro.gc: reference tracking, mark verdicts, proofs, and reclamation."""

import pytest

from repro.gc import ReclaimPolicy, ReferenceTracker, Verdict
from repro.goleak import LeakError, find, verify_none
from repro.leakprof import LeakProf
from repro.leakprof.detector import scan_profile
from repro.patterns import (
    contract_violation,
    healthy,
    ncast,
    premature_return,
    timer_loop,
    unclosed_range,
)
from repro.profiling import GoroutineProfile, dump_text, parse_text
from repro.remedy.diagnose import diagnose
from repro.runtime import (
    Mutex,
    Payload,
    Runtime,
    WaitGroup,
    go,
    park,
    recv,
    send,
    sleep,
)


def run_leaky(fn, seed=0, **params):
    import functools

    rt = Runtime(seed=seed, panic_mode="record")
    body = functools.partial(fn, **params) if params else fn
    rt.run(body, rt, deadline=5.0, detect_global_deadlock=False)
    return rt


class TestReferenceTracker:
    def test_scan_finds_channels_in_frame_locals(self):
        rt = run_leaky(premature_return.leaky)
        tracker = ReferenceTracker(rt)
        tracker.sync()
        (leaked,) = rt.blocked_goroutines()
        refs = tracker.refs_of(leaked.gid)
        assert any(getattr(r, "label", "") == "discount" for r in refs)

    def test_scan_finds_channels_behind_objects(self):
        """Worker.ch hides inside an instance attribute, not a local."""
        rt = run_leaky(contract_violation.leaky)
        tracker = ReferenceTracker(rt)
        tracker.sync()
        (listener,) = rt.blocked_goroutines()
        labels = {getattr(r, "label", "") for r in tracker.refs_of(listener.gid)}
        assert {"worker.ch", "worker.done"} <= labels

    def test_incremental_sync_rescans_only_dirty(self):
        rt = run_leaky(ncast.leaky)
        rt.gc()  # creates tracker, full initial scan
        tracker = rt._gc_state.tracker
        assert tracker.sync() == 0  # nothing ran since: nothing dirty
        rt.run(
            ncast.leaky, rt, deadline=rt.now + 5.0,
            detect_global_deadlock=False,
        )
        rescanned = tracker.sync()
        assert 0 < rescanned < len(rt._goroutines) + 10

    def test_channel_content_references_are_seen(self):
        """A channel handle buffered inside another channel counts."""

        def main(rt):
            inner = rt.make_chan(0, label="inner")
            outer = rt.make_chan(1, label="outer")

            def waiter():
                yield recv(inner)

            yield go(waiter)
            yield send(outer, Payload(inner, 64))
            # outer (holding inner) stays referenced by main's caller: pin
            rt.gc_roots.append(outer)
            return outer

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=5.0, detect_global_deadlock=False)
        report = rt.gc()
        # inner is reachable only through outer's buffered payload, which
        # a pinned root holds -> the waiter must be LIVE, not proven.
        assert report.proven_leaked == 0
        assert report.live == 1


    def test_cache_holds_only_live_goroutines(self):
        """A goroutine leaves the cache when it leaves the runtime
        (finished, panicked or reclaimed), so after every window of a
        reclaiming fleet the cached gids are live ones, while the
        observer's unreclaimed proofs stay cached."""
        from repro.fleet import (
            Fleet, RequestMix, Service, ServiceConfig, TrafficShape,
        )

        def config(name, mix, **gc):
            return Service(ServiceConfig(
                name=name, mix=mix, instances=2,
                traffic=TrafficShape(requests_per_window=8), **gc,
            ), seed=57)

        fleet = Fleet().add(config(
            "reclaim",
            RequestMix()
            .add("early", premature_return.leaky, weight=2.0)
            .add("ok", healthy.request_response, weight=1.0),
            gc_interval=600.0, gc_policy=ReclaimPolicy.RECLAIM,
        )).add(config(
            "observe", RequestMix().add("leak", ncast.leaky, weight=1.0),
            gc_interval=900.0,
        ))
        cached = 0
        for _ in range(6):
            fleet.advance_window(3600.0)
            for instance in fleet.all_instances():
                rt = instance.runtime
                keys = set(rt._gc_state.tracker._cache)
                assert keys <= {g.gid for g in rt.live_goroutines()}
                cached += len(keys)
        assert cached > 0
        assert any(
            r.reclaim is not None and r.reclaim.reclaimed
            for i in fleet.all_instances() for r in i.runtime.gc_reports
        )


class TestMarkVerdicts:
    def test_all_registered_leaky_patterns_are_proven(self):
        from repro.patterns import PATTERNS

        for name, pattern in PATTERNS.items():
            rt = run_leaky(pattern.leaky)
            report = rt.gc()
            assert report.proven_leaked >= pattern.leaks_per_call, name
            assert report.possibly_leaked == 0, name

    def test_healthy_counterparts_have_zero_false_positives(self):
        from repro.patterns import PATTERNS
        from repro.remedy.fixes import drained

        for name, pattern in PATTERNS.items():
            if pattern.fixed is None:
                continue
            rt = run_leaky(drained(pattern.fixed))
            report = rt.gc()
            assert report.proven_leaked == 0, name
            assert report.possibly_leaked == 0, name

    def test_live_goroutine_holding_the_channel_blocks_proof(self):
        def main(rt):
            ch = rt.make_chan(0, label="held")

            def sender():
                yield send(ch, "x")

            def slow_receiver():
                yield sleep(60.0)  # sleeping: a GC root holding ch
                yield recv(ch)

            yield go(sender)
            yield go(slow_receiver)

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        report = rt.gc()
        assert report.proven_leaked == 0  # receiver will drain the sender
        rt.advance(120.0)
        assert rt.num_goroutines == 0  # and indeed it did

    def test_timer_orbit_is_proven_but_pending_sleep_is_not(self):
        rt = run_leaky(timer_loop.leaky)
        report = rt.gc()
        assert report.proven_leaked == 1
        assert report.newly_proven[0].reason == "timer-orbit"

        def napper(rt):
            def fire_and_forget():
                yield sleep(30.0)

            yield go(fire_and_forget)

        rt2 = Runtime(seed=0)
        rt2.run(napper, rt2, deadline=1.0, detect_global_deadlock=False)
        report2 = rt2.gc()
        assert report2.proven_leaked == 0  # sleeping goroutines are roots

    def test_unreachable_sync_primitive_is_proven(self):
        def main(rt):
            wg = WaitGroup()
            wg.add(1)  # never done(): the waiter can prove nothing helps

            def stuck():
                yield wg.wait()

            yield go(stuck)

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        report = rt.gc()
        assert report.proven_leaked == 1

    def test_reachable_sync_primitive_stays_live(self):
        def main(rt):
            mu = Mutex()

            def hold_then_release():
                yield mu.lock()
                yield sleep(10.0)
                mu.unlock()

            def second():
                yield mu.lock()
                mu.unlock()

            yield go(hold_then_release)
            yield go(second)

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        report = rt.gc()
        assert report.proven_leaked == 0

    def test_bare_park_is_possibly_leaked(self):
        def main(rt):
            def runaway():
                yield park("semacquire")  # no primitive attached: unknown

            yield go(runaway)

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        report = rt.gc()
        assert report.possibly_leaked == 1
        assert report.proven_leaked == 0

    def test_io_wait_goroutines_are_roots_not_leaks(self):
        def main(rt):
            def poller():
                yield park("io_wait")  # externally wakeable

            yield go(poller)

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        report = rt.gc()
        assert report.live == 1
        assert report.proven_leaked == 0

    def test_proof_is_stable_and_skipped_incrementally(self):
        rt = run_leaky(ncast.leaky)
        first = rt.gc()
        assert first.proven_leaked == 4
        second = rt.gc()
        assert second.proven_leaked == 4
        assert second.newly_proven == []
        # the proven population is not re-marked
        assert second.goroutines_marked == 0
        assert second.goroutines_rescanned == 0

    def test_verdicts_stamped_on_goroutines(self):
        rt = run_leaky(premature_return.leaky)
        rt.gc()
        (leaked,) = rt.blocked_goroutines()
        assert leaked.gc_verdict == Verdict.PROVEN_LEAKED.value


class TestReclaim:
    def test_reclaim_unwinds_and_releases_rss(self):
        rt = run_leaky(ncast.leaky, payload_bytes=32 * 1024)
        before = rt.rss()
        report = rt.gc(policy=ReclaimPolicy.RECLAIM)
        assert report.reclaim.attempted == 4
        assert report.reclaim.reclaimed == 4
        assert report.reclaim.survived == 0
        assert rt.num_goroutines == 0
        assert rt.rss() == rt.base_rss < before
        # pending payloads of parked senders were purged
        assert report.reclaim.payload_bytes_released == 4 * 32 * 1024

    def test_reclaim_and_report_keeps_proofs(self):
        rt = run_leaky(unclosed_range.leaky)
        report = rt.gc(policy=ReclaimPolicy.RECLAIM_AND_REPORT)
        assert len(report.reclaim.reports) == 3
        assert all(p.park_site for p in report.reclaim.reports)

    def test_observe_policy_never_unwinds(self):
        rt = run_leaky(ncast.leaky)
        report = rt.gc(policy=ReclaimPolicy.OBSERVE)
        assert report.reclaim is None
        assert rt.num_goroutines == 4

    def test_survivor_that_recovers_is_counted(self):
        def main(rt):
            ch = rt.make_chan(0, label="guarded")

            def stubborn():
                from repro.runtime import LeakReclaimed

                try:
                    yield recv(ch)
                except LeakReclaimed:
                    pass  # recover() and keep going
                yield park("io_wait")  # lives on, externally wakeable

            yield go(stubborn)

        rt = Runtime(seed=0, panic_mode="record")
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        report = rt.gc(policy=ReclaimPolicy.RECLAIM)
        assert report.reclaim.attempted == 1
        assert report.reclaim.survived == 1
        assert report.reclaim.reclaimed == 0
        assert rt.num_goroutines == 1
        # the survivor is re-evaluated (and found live) by the next sweep
        follow_up = rt.gc()
        assert follow_up.proven_leaked == 0

    def test_finally_blocks_run_during_unwind(self):
        cleaned = []

        def main(rt):
            ch = rt.make_chan(0, label="doomed")

            def worker():
                try:
                    yield recv(ch)
                finally:
                    cleaned.append(True)

            yield go(worker)

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        rt.gc(policy=ReclaimPolicy.RECLAIM)
        assert cleaned == [True]
        assert rt.num_goroutines == 0

    def test_periodic_sweeps_reclaim_during_fleet_windows(self):
        from repro.fleet import RequestMix, ServiceInstance, TrafficShape

        instance = ServiceInstance(
            service="s",
            mix=RequestMix().add("h", premature_return.leaky, weight=1.0),
            traffic=TrafficShape(requests_per_window=20),
            seed=5,
            gc_interval=600.0,
            gc_policy=ReclaimPolicy.RECLAIM,
        )
        instance.advance_window()
        # leaks were created, proven, and vanquished inside the window
        assert instance.leaked_goroutines() == 0
        reclaimed = sum(
            r.reclaim.reclaimed
            for r in instance.runtime.gc_reports
            if r.reclaim is not None
        )
        assert reclaimed > 0


class TestIntegration:
    def test_goleak_reachability_strategy(self):
        rt = run_leaky(premature_return.leaky)
        leaks = find(rt, strategy="reachability")
        assert len(leaks) == 1
        assert leaks[0].proof == "proven"
        with pytest.raises(LeakError):
            verify_none(rt, strategy="reachability")

    def test_goleak_reachability_clean_mid_run(self):
        """A snapshot mid-run misreports working goroutines; a proof
        sweep does not."""

        def main(rt):
            ch = rt.make_chan(0)

            def worker():
                yield sleep(50.0)
                yield send(ch, "late but healthy")

            yield go(worker)
            return (yield recv(ch))

        rt = Runtime(seed=0)
        goro = rt.spawn(main, rt, is_main=True)
        rt.run_until_quiescent(deadline=1.0)
        assert goro.alive  # mid-run: main parked, worker sleeping
        verify_none(rt, strategy="reachability")  # proof engine: no leak
        rt.run_until_quiescent(deadline=100.0)
        assert not goro.alive

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="reachability"):
            find(Runtime(seed=0), strategy="psychic")

    def test_profile_and_pprof_carry_proof_annotations(self):
        rt = run_leaky(premature_return.leaky)
        rt.gc()
        profile = GoroutineProfile.take(rt)
        (record,) = profile.records
        assert record.proof == "proven"
        round_tripped = parse_text(dump_text(profile))
        assert round_tripped.records[0].proof == "proven"
        # profiles without annotations still round-trip as None
        rt2 = run_leaky(premature_return.leaky)
        profile2 = parse_text(dump_text(GoroutineProfile.take(rt2)))
        assert profile2.records[0].proof is None

    def test_leakprof_promotes_proven_suspects_past_threshold(self):
        rt = run_leaky(premature_return.leaky)
        profile = GoroutineProfile.take(rt, service="svc", instance="i-0")
        assert scan_profile(profile, threshold=10_000) == []  # below bar
        rt.gc()
        annotated = GoroutineProfile.take(rt, service="svc", instance="i-0")
        suspects = scan_profile(annotated, threshold=10_000)
        assert len(suspects) == 1
        assert suspects[0].proof == "proven"
        assert suspects[0].count == 1  # one occurrence suffices

    def test_daily_run_files_reports_from_proofs(self):
        from repro.fleet import (
            Fleet,
            RequestMix,
            Service,
            ServiceConfig,
            TrafficShape,
        )

        config = ServiceConfig(
            name="svc",
            mix=RequestMix().add("h", premature_return.leaky, weight=1.0),
            instances=1,
            traffic=TrafficShape(requests_per_window=10),
            gc_interval=600.0,
        )
        fleet = Fleet().add(Service(config, seed=1))
        fleet.advance_window()
        result = LeakProf().daily_run(fleet.all_instances())
        assert result.new_reports
        assert all(s.proof == "proven" for s in result.suspects)

    def test_diagnose_skips_probe_phase_on_unambiguous_proof(self):
        import importlib

        from repro.patterns import guaranteed

        diag = importlib.import_module("repro.remedy.diagnose")

        rt = run_leaky(guaranteed.leaky_nil_recv)
        rt.gc()
        (record,) = GoroutineProfile.take(rt).records
        saved, diag._default_index = diag._default_index, None
        try:
            diagnosis = diagnose(record)
            # nil-channel proofs pin exactly one pattern, so the probed
            # index was never built: the proof short-circuits.
            assert diag._default_index is None
            assert diagnosis.confidence == "proof"
            assert diagnosis.pattern.name == "nil_recv"
        finally:
            diag._default_index = saved

    def test_diagnose_still_fingerprints_ambiguous_proofs(self):
        """A proven chan-send leak has several candidate shapes; the
        proof must not bypass fingerprinting (which IDs it exactly)."""
        rt = run_leaky(ncast.leaky)
        rt.gc()
        record = GoroutineProfile.take(rt).records[0]
        assert record.proof == "proven"
        diagnosis = diagnose(record)
        assert diagnosis.pattern.name == "ncast"
        assert diagnosis.confidence == "exact"

    def test_shared_externally_wakeable_predicate(self):
        from repro.goleak import is_externally_wakeable
        from repro.runtime import EXTERNALLY_WAKEABLE_STATES
        from repro.runtime.scheduler import _EXTERNALLY_WAKEABLE

        assert _EXTERNALLY_WAKEABLE is EXTERNALLY_WAKEABLE_STATES

        def main(rt):
            def io_bound():
                yield park("io_wait")

            yield go(io_bound)

        rt = Runtime(seed=0)
        rt.run(main, rt, deadline=1.0, detect_global_deadlock=False)
        (record,) = GoroutineProfile.take(rt).records
        assert is_externally_wakeable(record)
        assert record.state in EXTERNALLY_WAKEABLE_STATES

    def test_gc_determinism_same_seed_same_reports(self):
        def one_run():
            rt = run_leaky(ncast.leaky, seed=9)
            rt.run(
                timer_loop.leaky, rt, deadline=rt.now + 2.0,
                detect_global_deadlock=False,
            )
            report = rt.gc()
            return (
                report.live,
                report.possibly_leaked,
                report.proven_leaked,
                sorted(p.summary for p in report.newly_proven),
            )

        assert one_run() == one_run()

    def test_sweep_timer_never_keeps_the_process_alive(self):
        """An undeadlined run must quiesce even though the periodic
        sweep timer perpetually reschedules itself, and the sweep timer
        must not mask the global-deadlock check."""
        from repro.runtime import GlobalDeadlock

        rt = Runtime(seed=0)
        rt.enable_gc(1.0)
        assert rt.run(healthy.fan_out_fan_in, rt) is not None  # returns

        rt2 = Runtime(seed=0)
        rt2.enable_gc(1.0)

        def stuck_main(rt):
            ch = rt.make_chan(0)
            yield recv(ch)

        with pytest.raises(GlobalDeadlock):
            rt2.run(stuck_main, rt2)

    def test_enable_disable_gc(self):
        rt = Runtime(seed=0)
        rt.enable_gc(0.5)
        rt.run(healthy.fan_out_fan_in, rt, deadline=3.0,
               detect_global_deadlock=False)
        assert len(rt.gc_reports) > 0
        count = len(rt.gc_reports)
        rt.disable_gc()
        rt.advance(5.0)
        assert len(rt.gc_reports) == count
        with pytest.raises(ValueError):
            rt.enable_gc(0.0)
