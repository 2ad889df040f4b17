"""LeakProf: thresholds, transient filter, RMS ranking, dedup, pipeline."""

import functools
from types import SimpleNamespace

from repro.fleet.shard import _RowMirror, _ship
from repro.leakprof import (
    BugDatabase,
    LeakProf,
    OwnershipRouter,
    is_trivially_nonblocking,
    rank_by_impact,
    scan_profile,
)
from repro.leakprof.detector import SignatureAccumulator
from repro.profiling import GoroutineProfile, GoroutineRecord, snapshot_goroutine
from repro.patterns import healthy, premature_return, timer_loop, timeout_leak
from repro.runtime import Frame, GoroutineState, Runtime


def leaky_profile(pattern, n_calls, service="svc", instance="i-0", seed=0,
                  **params):
    """Build a profile with ``n_calls`` invocations of a leaky pattern."""
    rt = Runtime(seed=seed, name=instance)
    body = functools.partial(pattern, **params) if params else pattern
    for _ in range(n_calls):
        rt.run(body, rt, deadline=rt.now + 1.0, detect_global_deadlock=False)
    return GoroutineProfile.take(rt, service=service, instance=instance)


class TestCriterion1Threshold:
    def test_below_threshold_ignored(self):
        profile = leaky_profile(premature_return.leaky, n_calls=50)
        assert scan_profile(profile, threshold=100) == []

    def test_at_threshold_reported(self):
        profile = leaky_profile(premature_return.leaky, n_calls=100)
        suspects = scan_profile(profile, threshold=100)
        assert len(suspects) == 1
        assert suspects[0].count == 100
        assert suspects[0].state == "chan send"

    def test_distinct_locations_counted_separately(self):
        rt = Runtime(seed=1, name="i-0")
        for _ in range(60):
            rt.run(premature_return.leaky, rt, detect_global_deadlock=False)
        for _ in range(60):
            rt.run(
                timeout_leak.leaky,
                rt,
                deadline=rt.now + 1.0,
                detect_global_deadlock=False,
            )
        profile = GoroutineProfile.take(rt, service="s", instance="i-0")
        suspects = scan_profile(profile, threshold=50)
        assert len(suspects) == 2
        assert {s.count for s in suspects} == {60}

    def test_healthy_service_produces_no_suspects(self):
        rt = Runtime(seed=2, name="i-1")
        for _ in range(200):
            rt.run(healthy.request_response, rt, detect_global_deadlock=False)
        profile = GoroutineProfile.take(rt, service="s", instance="i-1")
        assert scan_profile(profile, threshold=10) == []


class TestCriterion2TransientFilter:
    def test_timer_loop_recv_is_trivially_nonblocking(self):
        """10K reporters parked on <-time.After are NOT a leak report."""
        profile = leaky_profile(timer_loop.leaky, n_calls=30)
        blocked = profile.blocked()
        assert blocked, "timer loops should show as blocked receives"
        assert all(is_trivially_nonblocking(r) for r in blocked)
        assert scan_profile(profile, threshold=10) == []

    def test_filter_can_be_disabled(self):
        profile = leaky_profile(timer_loop.leaky, n_calls=30)
        suspects = scan_profile(
            profile, threshold=10, apply_transient_filter=False
        )
        assert len(suspects) == 1

    def test_ticker_stop_select_is_transient(self):
        """healthy.ticker_with_stop parks in a select over ticker+done...

        ...which contains a non-transient `done` arm — but `done` is a
        context-style arm; the paper treats ctx.Done as transient.  Our
        filter keys on the call names; the `done` channel here is a plain
        channel, so the select is kept (conservative behaviour).
        """
        rt = Runtime(seed=3, name="i")
        stop_probe = []

        def main(rt):
            result = yield from healthy.ticker_with_stop(rt, period=0.5)
            stop_probe.append(result)

        rt.run(main, rt, detect_global_deadlock=False)
        profile = GoroutineProfile.take(rt)
        # everything exited: nothing to filter either way
        assert len(profile) == 0

    def test_real_leak_not_filtered(self):
        profile = leaky_profile(premature_return.leaky, n_calls=20)
        assert not any(
            is_trivially_nonblocking(r) for r in profile.blocked()
        )

    def test_context_done_select_is_transient(self):
        """A select over (ctx.done, time.After) only is transient."""
        from repro.runtime import case_recv, go, select
        from repro.runtime import context as goctx

        def waiter(rt, ctx):
            yield select(case_recv(ctx.done()), case_recv(rt.after(30.0)))

        def main(rt):
            ctx = goctx.background(rt)
            yield go(waiter, rt, ctx)

        rt = Runtime(seed=4)
        rt.run(main, rt, deadline=0.0, detect_global_deadlock=False)
        profile = GoroutineProfile.take(rt)
        (record,) = profile.blocked()
        assert is_trivially_nonblocking(record)


def parked(gid, location, proof=None, state=GoroutineState.BLOCKED_SEND):
    """A hand-built record parked at ``location`` ("file:line")."""
    file, line = location.split(":")
    return GoroutineRecord(
        gid=gid,
        name=f"g{gid}",
        state=state,
        user_frames=(Frame("f", file, int(line)),),
        creation_ctx=None,
        proof=proof,
    )


class TestScoringCore:
    def test_order_and_representative_follow_profile_position(self):
        """Go ``debug=2`` dumps list gids unsorted: signatures come out in
        first-appearance order, represented by their first (proven)
        record, not by their least gid."""
        records = [
            parked(9, "a:20"),
            parked(8, "a:10"),
            parked(7, "a:20", proof="proven"),
            parked(6, "a:10"),
            parked(5, "a:20"),
        ]
        profile = GoroutineProfile(0.0, "p", records, "svc", "i-0")
        got = [
            (s.location, s.count, s.representative.gid, s.proof)
            for s in scan_profile(profile, threshold=2)
        ]
        assert got == [("a:20", 3, 7, "proven"), ("a:10", 2, 8, None)]

    def test_refile_paths_match_batch_scan(self):
        """Every refile path of a shard worker's signature index, shipped
        as absolute per-signature entries into the parent's record,
        answers exactly what ``scan_profile`` answers over the surviving
        goroutines, with one summary per signature."""
        runtime = SimpleNamespace(_goroutines={})
        index = SignatureAccumulator()
        record = _RowMirror(0, "svc", 0, "i-0", shard=0, mix=None)

        def ship(gids, full=False, window=1):
            delta = (0, full, _ship(index, runtime, gids))
            assert record.apply(delta, window)
            return delta

        def upsert(rec):
            runtime._goroutines[rec.gid] = _Parked(rec)
            return ship([rec.gid])

        def assert_parity():
            profile = GoroutineProfile(0.0, "p", [
                snapshot_goroutine(goro, 0.0)
                for _gid, goro in sorted(runtime._goroutines.items())
            ], "svc", "i-0")
            expected = scan_profile(profile, threshold=2)
            assert record.suspects(threshold=2) == expected
            assert set(record.summaries) == {
                r.signature() for r in profile.blocked()
            }
            return [(s.location, s.count, s.representative.gid, s.proof)
                    for s in expected]

        for gid, location in enumerate(
            ["a:10", "a:20", "a:10", "a:20", "a:10", "a:30"], start=1
        ):
            upsert(parked(gid, location))
        assert assert_parity() == [("a:10", 3, 1, None), ("a:20", 2, 2, None)]

        moved = upsert(parked(1, "a:20"))  # moves to another signature
        assert [entry[:5] for entry in moved[2]] == [
            ("chan send", "a:10", 2, 3, False),
            ("chan send", "a:20", 3, 1, False),
        ]
        assert assert_parity() == [("a:20", 3, 1, None), ("a:10", 2, 3, None)]

        upsert(parked(4, "a:20", proof="proven"))
        upsert(parked(6, "a:30", proof="proven"))
        assert assert_parity() == [
            ("a:20", 3, 4, "proven"), ("a:10", 2, 3, None),
            ("a:30", 1, 6, "proven"),
        ]

        upsert(parked(4, "a:20"))  # proven -> unproven
        assert assert_parity() == [
            ("a:20", 3, 1, None), ("a:10", 2, 3, None),
            ("a:30", 1, 6, "proven"),
        ]

        for gid in (1, 5):  # finish; a:10 loses its last member below
            del runtime._goroutines[gid]
            ship([gid])
        removed = upsert(parked(3, "a:10", state=GoroutineState.RUNNABLE))
        assert removed[2] == [("chan send", "a:10", 0, 0, False, None)]
        assert assert_parity() == [("a:20", 2, 2, None), ("a:30", 1, 6, "proven")]

        # a stale delta is refused by the record: a:10 stays removed
        assert not record.apply(moved, window=0)
        assert assert_parity() == [("a:20", 2, 2, None), ("a:30", 1, 6, "proven")]

        # a full reship replaces the signature set
        runtime._goroutines.clear()
        index = SignatureAccumulator()
        ship(runtime._goroutines, full=True)
        assert record.summaries == {}
        assert record.suspects(threshold=2) == []
        for gid in (7, 8):
            upsert(parked(gid, "a:40"))
        assert assert_parity() == [("a:40", 2, 7, None)]


class _Parked:
    """A goroutine stand-in whose ``snapshot_goroutine`` record is
    ``record`` with its wait detail filled in."""

    waiting_on = None
    blocked_since = None

    def __init__(self, record):
        self.gid, self.name, self.state, self._frames, self.creation_ctx = (
            record[:5]
        )
        self.gc_verdict = record.proof

    def stack(self):
        return self._frames


class TestImpactRanking:
    def test_rms_prefers_concentrated_leaks(self):
        """One instance with 10K blocked outranks many with a few hundred."""
        concentrated = [
            leaky_profile(
                premature_return.leaky, 400, service="hot", instance="i-0",
            )
        ]
        diffuse = [
            leaky_profile(
                timeout_leak.leaky,
                60,
                service="warm",
                instance=f"i-{k}",
                seed=k,
            )
            for k in range(4)
        ]
        suspects = []
        for profile in concentrated + diffuse:
            suspects.extend(scan_profile(profile, threshold=50))
        ranked = rank_by_impact(suspects)
        assert ranked[0].service == "hot"
        assert ranked[0].peak_instance_count == 400
        assert ranked[1].instances_affected == 4
        assert ranked[1].total_blocked == 240

    def test_top_n_truncates(self):
        profiles = [
            leaky_profile(
                premature_return.leaky, 60, service=f"svc-{k}",
                instance="i", seed=k,
            )
            for k in range(5)
        ]
        suspects = []
        for profile in profiles:
            suspects.extend(scan_profile(profile, threshold=50))
        assert len(rank_by_impact(suspects)) == 5
        assert len(rank_by_impact(suspects, top_n=2)) == 2


class TestBugDatabase:
    def _candidate(self, service="svc"):
        profile = leaky_profile(premature_return.leaky, 60, service=service)
        suspects = scan_profile(profile, threshold=50)
        return rank_by_impact(suspects)[0]

    def test_dedup_on_refile(self):
        db = BugDatabase()
        candidate = self._candidate()
        assert db.file(candidate) is not None
        assert db.file(candidate) is None  # duplicate
        assert len(db) == 1

    def test_funnel_counts(self):
        db = BugDatabase()
        reports = [
            db.file(self._candidate(service=f"s{k}")) for k in range(4)
        ]
        db.acknowledge(reports[0])
        db.acknowledge(reports[1])
        db.mark_fixed(reports[1])
        db.reject(reports[2])
        funnel = db.funnel()
        assert funnel == {"reported": 4, "acknowledged": 2, "fixed": 1}

    def test_report_summary_text(self):
        db = BugDatabase()
        report = db.file(self._candidate(), owner="payments-team")
        assert "chan send" in report.summary
        assert report.owner == "payments-team"


class TestOwnership:
    def test_longest_prefix_wins(self):
        router = OwnershipRouter(
            {
                "src/repro/patterns": "patterns-team",
                "src/repro": "platform-team",
            }
        )
        assert router.route("src/repro/patterns/ncast.py:31") == "patterns-team"
        assert router.route("src/repro/runtime/channel.py:10") == "platform-team"
        assert router.route("elsewhere/x.py:1") == "unowned"


class _FakeInstance:
    def __init__(self, profile):
        self._profile = profile

    def profile(self):
        return self._profile


class TestPipeline:
    def test_daily_run_end_to_end(self):
        instances = [
            _FakeInstance(
                leaky_profile(
                    premature_return.leaky, 120, service="payments",
                    instance=f"i-{k}", seed=k,
                )
            )
            for k in range(3)
        ] + [
            _FakeInstance(
                leaky_profile(timer_loop.leaky, 120, service="metrics",
                              instance="i-9")
            )
        ]
        router = OwnershipRouter({"": "platform"})
        leakprof = LeakProf(threshold=100, top_n=5, router=router)
        result = leakprof.daily_run(instances, now=1.0)
        # the timer-loop service is filtered by Criterion 2
        assert {r.candidate.service for r in result.new_reports} == {"payments"}
        assert result.new_reports[0].owner == "platform"
        assert result.sweep_stats.instances_swept == 4
        assert result.sweep_stats.bytes_transferred > 0

    def test_second_run_dedupes(self):
        instance = _FakeInstance(
            leaky_profile(premature_return.leaky, 120, service="payments")
        )
        leakprof = LeakProf(threshold=100)
        first = leakprof.daily_run([instance])
        second = leakprof.daily_run([instance])
        assert len(first.new_reports) == 1
        assert len(second.new_reports) == 0
        assert len(second.duplicates) == 1

    def test_text_roundtrip_preserves_detection(self):
        instance = _FakeInstance(
            leaky_profile(premature_return.leaky, 120, service="svc")
        )
        with_text = LeakProf(threshold=100).daily_run([instance])
        without = LeakProf(threshold=100).analyze_profiles([instance.profile()])
        assert len(with_text.new_reports) == len(without.new_reports) == 1
        assert (
            with_text.new_reports[0].candidate.location
            == without.new_reports[0].candidate.location
        )
