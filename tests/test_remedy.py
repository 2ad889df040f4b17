"""Tests for repro.remedy: diagnosis, fixes, verification, rollout,
tickets, the CI gate, and the end-to-end engine."""

import math

import pytest

from repro.devflow import FixGate
from repro.fleet import Fleet, RequestMix, Service, ServiceConfig, TrafficShape
from repro.leakprof import BugDatabase, LeakProf, OwnershipRouter, ReportStatus
from repro.patterns import PATTERNS, healthy, ncast, timeout_leak
from repro.remedy import (
    FIX_STRATEGIES,
    RemedyEngine,
    SignatureIndex,
    StagedRollout,
    TicketTracker,
    UnfixableLeak,
    diagnose,
    drained,
    exercise,
    probe_pattern,
    propose_fix,
    remix,
    verify_fix,
)
from repro.runtime import Runtime

MIB = 1024 * 1024

FIXABLE = sorted(
    name for name, p in PATTERNS.items() if p.fixed is not None
)
UNFIXABLE = sorted(
    name for name, p in PATTERNS.items() if p.fixed is None
)


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


class TestDiagnose:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_every_pattern_diagnoses_itself_exactly(self, name):
        """Probed signatures identify each pattern's own leaks exactly."""
        records = probe_pattern(PATTERNS[name])
        assert records, f"{name} probe produced no lingering goroutines"
        for record in records:
            diagnosis = diagnose(record)
            assert diagnosis is not None
            assert diagnosis.pattern.name == name
            assert diagnosis.confidence == "exact"

    def test_registry_strategy_metadata_is_complete(self):
        """Every fixable pattern names a catalog strategy; none dangle."""
        for pattern in PATTERNS.values():
            if pattern.fixed is not None:
                assert pattern.fix_strategy in FIX_STRATEGIES, pattern.name
            else:
                assert pattern.fix_strategy is None, pattern.name

    def test_unknown_stack_falls_back_to_cause_prior(self):
        """Unrecognized code still gets the category's most likely cause."""

        def bespoke_worker(ch):
            from repro.runtime import send

            yield send(ch, "payload nobody receives")

        def main(rt):
            from repro.runtime import go

            ch = rt.make_chan(0)
            yield go(bespoke_worker, ch)

        rt = Runtime(seed=7)
        rt.run(main, rt, detect_global_deadlock=False)
        from repro.goleak import find

        (record,) = find(rt)
        diagnosis = diagnose(record)
        assert diagnosis.confidence == "prior"
        assert diagnosis.category == "send"
        # highest send-cause prior in PAPER_CAUSE_MIX
        assert diagnosis.pattern.name == "premature_return"

    def test_nil_detail_pins_guaranteed_deadlock(self):
        """wait_detail == 'nil' identifies §VI-D regardless of stack names."""
        from repro.goleak import find
        from repro.runtime import NIL_CHANNEL, go, recv

        def bespoke_nil(rt):
            def stuck():
                yield recv(NIL_CHANNEL)

            yield go(stuck)

        rt = Runtime(seed=3)
        rt.run(bespoke_nil, rt, detect_global_deadlock=False)
        (record,) = find(rt)
        diagnosis = diagnose(record)
        assert diagnosis.pattern.name == "nil_recv"
        assert not diagnosis.fixable

    def test_suspect_and_record_agree(self):
        """Diagnosing a LeakProf Suspect uses its representative record."""
        from repro.leakprof import scan_profile
        from repro.profiling import GoroutineProfile

        rt = Runtime(seed=5)
        for _ in range(10):
            rt.run(
                timeout_leak.leaky, rt, deadline=rt.now + 30.0,
                detect_global_deadlock=False,
            )
        profile = GoroutineProfile.take(rt, service="svc", instance="i-0")
        (suspect,) = scan_profile(profile, threshold=5)
        diagnosis = diagnose(suspect)
        assert diagnosis.pattern.name == "timeout_leak"

    def test_index_is_deterministic(self):
        one = SignatureIndex.build()
        two = SignatureIndex.build()
        assert one._exact == two._exact
        assert one._loose == two._loose


# ---------------------------------------------------------------------------
# fixes
# ---------------------------------------------------------------------------


class TestFixes:
    @pytest.mark.parametrize("name", FIXABLE)
    def test_propose_fix_matches_registry_strategy(self, name):
        diagnosis = diagnose(probe_pattern(PATTERNS[name])[0])
        proposal = propose_fix(diagnosis)
        assert proposal.strategy.name == PATTERNS[name].fix_strategy
        assert proposal.package == f"fix/{name}"

    @pytest.mark.parametrize("name", UNFIXABLE)
    def test_guaranteed_deadlocks_are_unfixable(self, name):
        diagnosis = diagnose(probe_pattern(PATTERNS[name])[0])
        with pytest.raises(UnfixableLeak):
            propose_fix(diagnosis)

    def test_drained_invokes_cleanup_handle(self):
        """A fix returning a stop() closure stays leak-free when drained."""
        from repro.goleak import find
        from repro.patterns import timer_loop

        rt = Runtime(seed=0)
        rt.run(
            drained(timer_loop.fixed), rt, deadline=rt.now + 30.0,
            detect_global_deadlock=False,
        )
        assert find(rt) == []

    def test_drained_is_idempotent(self):
        harness = drained(timeout_leak.fixed)
        assert drained(harness) is harness

    def test_remix_swaps_only_the_diagnosed_handler(self):
        mix = (
            RequestMix()
            .add("checkout", timeout_leak.leaky, weight=2.0,
                 payload_bytes=64 * 1024)
            .add("ping", healthy.request_response, weight=1.0)
        )
        diagnosis = diagnose(probe_pattern(PATTERNS["timeout_leak"])[0])
        proposal = propose_fix(diagnosis)
        fixed_mix, swapped = remix(mix, proposal)
        assert swapped == 1
        assert fixed_mix.handlers[0].body is proposal.fixed_body
        # weight and bound params survive the rewrite
        assert fixed_mix.handlers[0].weight == 2.0
        assert dict(fixed_mix.handlers[0].params) == {
            "payload_bytes": 64 * 1024
        }
        # the healthy handler is untouched
        assert fixed_mix.handlers[1] is mix.handlers[1]

    def test_remix_reports_inapplicable_diagnosis(self):
        mix = RequestMix().add("ping", healthy.request_response)
        diagnosis = diagnose(probe_pattern(PATTERNS["ncast"])[0])
        _, swapped = remix(mix, propose_fix(diagnosis))
        assert swapped == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    @pytest.mark.parametrize("name", FIXABLE)
    def test_catalog_fixes_verify_clean(self, name):
        diagnosis = diagnose(probe_pattern(PATTERNS[name])[0])
        result = verify_fix(propose_fix(diagnosis), calls=8)
        assert result.passed, result.summary
        assert result.leaks_baseline > 0
        assert result.leaks_candidate == 0
        assert result.rss_recovery >= 0.75

    def test_bogus_fix_is_rejected(self):
        """A 'fix' that still leaks must not pass verification."""
        diagnosis = diagnose(probe_pattern(PATTERNS["timeout_leak"])[0])
        proposal = propose_fix(diagnosis)
        bogus = type(proposal)(
            pattern=proposal.pattern,
            strategy=proposal.strategy,
            fixed_body=drained(proposal.pattern.leaky),  # still the bug!
        )
        result = verify_fix(bogus, calls=8)
        assert not result.passed
        assert result.reason == "candidate still leaks goroutines"

    def test_exercise_runs_with_params(self):
        rt = exercise(
            ncast.leaky, calls=3, params={"n_items": 4, "payload_bytes": 1024}
        )
        # 3 calls x (4 - 1) leaked senders each
        assert len(rt.blocked_goroutines()) == 9


# ---------------------------------------------------------------------------
# rollout + fleet hooks
# ---------------------------------------------------------------------------


def _leaky_service(instances=4, seed=1, payload=256 * 1024):
    mix = RequestMix().add(
        "checkout", timeout_leak.leaky, weight=1.0, payload_bytes=payload
    )
    return Service(
        ServiceConfig(
            name="payments",
            mix=mix,
            instances=instances,
            traffic=TrafficShape(requests_per_window=40),
            base_rss=64 * MIB,
        ),
        seed=seed,
    )


class TestPartialDeploy:
    def test_partial_deploy_restarts_only_chosen_instances(self):
        service = _leaky_service()
        for _ in range(4):
            service.advance_window(3600.0)
        fixed = RequestMix().add(
            "checkout", timeout_leak.fixed, weight=1.0,
            payload_bytes=256 * 1024,
        )
        leaked_before = [i.leaked_goroutines() for i in service.instances]
        assert all(n > 0 for n in leaked_before)
        restarted = service.partial_deploy(fixed, count=1)
        assert restarted == [0]
        assert service.instances[0].leaked_goroutines() == 0
        # untouched instances keep their leaks (and their old mix)
        assert [
            i.leaked_goroutines() for i in service.instances[1:]
        ] == leaked_before[1:]
        assert service.instances_on(fixed) == [0]
        # config flips only once everyone is on the new mix
        assert service.config.mix is not fixed
        service.partial_deploy(fixed)
        assert service.config.mix is fixed

    def test_full_coverage_over_stages(self):
        service = _leaky_service(instances=5)
        fixed = RequestMix().add("checkout", timeout_leak.fixed, weight=1.0)
        seen = []
        for fraction in (0.25, 0.5, 1.0):
            target = max(1, math.ceil(fraction * 5))
            seen += service.partial_deploy(fixed, count=target - len(seen))
        assert seen == [0, 1, 2, 3, 4]


class TestStagedRollout:
    def test_healthy_rollout_completes_and_recovers(self):
        service = _leaky_service()
        for _ in range(6):
            service.advance_window(3600.0)
        fixed = RequestMix().add(
            "checkout", timeout_leak.fixed, weight=1.0,
            payload_bytes=256 * 1024,
        )
        rollout = StagedRollout(
            windows_per_stage=1, drain_windows=2, window=3600.0
        )
        result = rollout.execute(service, fixed)
        assert result.completed
        assert result.aborted_stage is None
        assert [s.stage for s in result.stages] == ["canary", "ramp", "full"]
        assert all(s.healthy for s in result.stages)
        assert result.post_rss < result.peak_rss_before
        assert result.rss_recovery > 0.0
        # everyone ends up on the fix
        assert len(service.instances_on(fixed)) == len(service.instances)

    def test_bad_fix_aborts_at_canary_and_rolls_back(self):
        service = _leaky_service()
        for _ in range(4):
            service.advance_window(3600.0)
        old_mix = service.config.mix
        # A genuinely different build (new handler name + payload) that
        # still carries the leak.  It must differ *structurally* from the
        # old mix: partial_deploy compares mixes by equality, so an
        # identical mix would correctly be a no-op deploy, not a canary.
        still_leaky = RequestMix().add(
            "checkout_v2", timeout_leak.leaky, weight=1.0,
            payload_bytes=257 * 1024,
        )
        rollout = StagedRollout(
            windows_per_stage=1, drain_windows=1, window=3600.0
        )
        result = rollout.execute(service, still_leaky)
        assert not result.completed
        assert result.aborted_stage == "canary"
        assert not result.stages[0].healthy
        # an aborted rollout recovered nothing, whatever post_rss defaulted to
        assert result.rss_recovery == 0.0
        # rollback: every instance is back on the original mix
        assert service.instances_on(old_mix) == [0, 1, 2, 3]

    def test_stages_must_end_full(self):
        from repro.remedy import RolloutStage

        with pytest.raises(ValueError):
            StagedRollout(stages=(RolloutStage("canary", 0.25),))


# ---------------------------------------------------------------------------
# tickets + lifecycle gating
# ---------------------------------------------------------------------------


def _filed_report(bug_db):
    rt = Runtime(seed=2)
    for _ in range(8):
        rt.run(
            timeout_leak.leaky, rt, deadline=rt.now + 30.0,
            detect_global_deadlock=False,
        )
    from repro.leakprof import rank_by_impact, scan_profile
    from repro.profiling import GoroutineProfile

    profile = GoroutineProfile.take(rt, service="payments", instance="i-0")
    (candidate,) = rank_by_impact(scan_profile(profile, threshold=5))
    return bug_db.file(candidate, owner="payments-team")


class TestTickets:
    def test_lifecycle_happy_path(self):
        bug_db = BugDatabase()
        tracker = TicketTracker(bug_db=bug_db)
        report = _filed_report(bug_db)
        diagnosis = diagnose(report.candidate.representative)
        ticket = tracker.open(report, diagnosis)
        assert ticket.status is ReportStatus.OPEN

        proposal = propose_fix(diagnosis)
        tracker.propose(ticket, proposal)
        assert ticket.status is ReportStatus.FIX_PROPOSED

        verification = verify_fix(proposal, calls=6)
        assert tracker.record_verification(ticket, verification)
        assert ticket.status is ReportStatus.FIX_VERIFIED

    def test_cannot_deploy_unverified_fix(self):
        """The gate ordering: DEPLOYED requires FIX_VERIFIED first."""
        bug_db = BugDatabase()
        tracker = TicketTracker(bug_db=bug_db)
        report = _filed_report(bug_db)
        diagnosis = diagnose(report.candidate.representative)
        ticket = tracker.open(report, diagnosis)
        tracker.propose(ticket, propose_fix(diagnosis))

        from repro.remedy import RolloutResult

        rollout = RolloutResult(
            service="payments", completed=True, aborted_stage=None
        )
        with pytest.raises(ValueError, match="illegal transition"):
            tracker.record_rollout(ticket, rollout)
        assert ticket.status is ReportStatus.FIX_PROPOSED

    def test_gate_rejection_blocks_verification(self):
        bug_db = BugDatabase()
        tracker = TicketTracker(bug_db=bug_db)
        report = _filed_report(bug_db)
        diagnosis = diagnose(report.candidate.representative)
        ticket = tracker.open(report, diagnosis)
        proposal = propose_fix(diagnosis)
        tracker.propose(ticket, proposal)
        verification = verify_fix(proposal, calls=6)
        assert not tracker.record_verification(
            ticket, verification, gate_passed=False
        )
        assert ticket.status is ReportStatus.FIX_PROPOSED

    def test_bug_db_transition_enforcement(self):
        bug_db = BugDatabase()
        report = _filed_report(bug_db)
        with pytest.raises(ValueError):
            bug_db.mark_fix_verified(report)  # skipped FIX_PROPOSED
        bug_db.propose_fix(report)
        with pytest.raises(ValueError):
            bug_db.mark_deployed(report)  # skipped FIX_VERIFIED
        bug_db.mark_fix_verified(report)
        bug_db.mark_deployed(report)
        assert report.status is ReportStatus.DEPLOYED
        funnel = bug_db.funnel()
        assert funnel == {"reported": 1, "acknowledged": 1, "fixed": 1}

    def test_engine_keeps_an_empty_bug_database(self, tmp_path):
        """An empty database is falsy (``__len__``) but still the one the
        tracker writes through: a new tenant's transitions persist."""
        from repro.ingest import IngestStore, PersistentBugDatabase

        bug_db = BugDatabase()
        assert RemedyEngine(bug_db=bug_db).tracker.bug_db is bug_db

        path = str(tmp_path / "bugs.sqlite")
        store = IngestStore(path)
        store.register_tenant("acme", "tok", threshold=3)
        persistent = PersistentBugDatabase(store, "acme")
        engine = RemedyEngine(bug_db=persistent)
        assert engine.tracker.bug_db is persistent
        report = _filed_report(persistent)
        diagnosis = diagnose(report.candidate.representative)
        ticket = engine.tracker.open(report, diagnosis)
        engine.tracker.propose(ticket, propose_fix(diagnosis))
        store.close()

        store = IngestStore(path)
        (reopened,) = PersistentBugDatabase(store, "acme").all_reports()
        assert reopened.status is ReportStatus.FIX_PROPOSED
        store.close()

    def test_stalled_remediation_may_repropose(self):
        """Retries loop back through FIX_PROPOSED without opening DEPLOYED."""
        bug_db = BugDatabase()
        report = _filed_report(bug_db)
        bug_db.propose_fix(report)
        bug_db.propose_fix(report)  # retry after e.g. a gate rejection
        bug_db.mark_fix_verified(report)
        bug_db.propose_fix(report)  # retry after e.g. an aborted canary
        assert report.status is ReportStatus.FIX_PROPOSED
        with pytest.raises(ValueError):
            bug_db.mark_deployed(report)  # verification is still mandatory


class TestFixGate:
    def test_gate_passes_real_fix_and_advances_status(self):
        bug_db = BugDatabase()
        report = _filed_report(bug_db)
        bug_db.propose_fix(report)
        gate = FixGate()
        ok = gate.admit(
            bug_db, report, "fix/timeout_leak", drained(timeout_leak.fixed)
        )
        assert ok
        assert report.status is ReportStatus.FIX_VERIFIED
        assert gate.checks_run == 1
        assert gate.rejections == 0

    def test_gate_rejects_leaky_candidate(self):
        bug_db = BugDatabase()
        report = _filed_report(bug_db)
        bug_db.propose_fix(report)
        gate = FixGate()
        assert not gate.admit(
            bug_db, report, "fix/timeout_leak", timeout_leak.leaky
        )
        assert report.status is ReportStatus.FIX_PROPOSED
        assert gate.rejections == 1


# ---------------------------------------------------------------------------
# the engine, end to end
# ---------------------------------------------------------------------------


class TestRemedyEngine:
    def _fleet(self, pattern=timeout_leak.leaky, payload=512 * 1024):
        mix = RequestMix().add(
            "checkout", pattern, weight=1.0, payload_bytes=payload
        )
        fleet = Fleet()
        fleet.add(
            Service(
                ServiceConfig(
                    name="payments",
                    mix=mix,
                    instances=4,
                    traffic=TrafficShape(requests_per_window=40),
                    base_rss=64 * MIB,
                ),
                seed=1,
            )
        )
        return fleet

    def test_daily_run_remediates_to_deployed(self):
        fleet = self._fleet()
        for _ in range(6):
            fleet.advance_window(3600.0)
        engine = RemedyEngine(
            router=OwnershipRouter({"": "payments-team"}),
            rollout=StagedRollout(
                windows_per_stage=1, drain_windows=1, window=3600.0
            ),
            verify_calls=8,
        )
        leakprof = LeakProf(
            threshold=100, top_n=5, remediator=engine.remediator(fleet)
        )
        result = leakprof.daily_run(fleet.all_instances(), now=1.0)
        assert len(result.new_reports) == 1
        (ticket,) = result.remediations
        assert ticket.deployed
        assert ticket.diagnosis.pattern.name == "timeout_leak"
        assert ticket.diagnosis.confidence == "exact"
        assert ticket.assignee == "payments-team"
        assert ticket.verification.passed
        assert ticket.rollout.completed
        assert ticket.rollout.post_rss < ticket.rollout.peak_rss_before
        # the service now serves the fixed mix everywhere
        payments = fleet.services["payments"]
        assert all(
            h.body.__qualname__.startswith("drained[")
            for h in payments.config.mix.handlers
        )

    def test_unfixable_leak_stops_at_open(self):
        from repro.patterns import guaranteed

        mix = RequestMix().add("poke", guaranteed.leaky_nil_recv, weight=1.0)
        fleet = Fleet()
        fleet.add(
            Service(
                ServiceConfig(
                    name="legacy",
                    mix=mix,
                    instances=2,
                    traffic=TrafficShape(requests_per_window=40),
                    base_rss=64 * MIB,
                ),
                seed=4,
            )
        )
        for _ in range(4):
            fleet.advance_window(3600.0)
        engine = RemedyEngine(
            rollout=StagedRollout(windows_per_stage=1, window=3600.0),
            verify_calls=4,
        )
        leakprof = LeakProf(
            threshold=50, top_n=5, apply_transient_filter=False,
            remediator=engine.remediator(fleet),
        )
        result = leakprof.daily_run(fleet.all_instances(), now=1.0)
        assert result.remediations, "nil-channel leak should be reported"
        ticket = result.remediations[0]
        assert ticket.status is ReportStatus.OPEN
        assert ticket.proposal is None
        assert any("unfixable" in note for note in ticket.notes)

    def test_stalled_remediation_is_retried_next_run(self):
        """A gate-rejected fix gets another attempt on the next daily run."""

        class FlakyGate(FixGate):
            def __init__(self):
                super().__init__()
                self.reject_next = True

            def check(self, package, fix_body, seed=0):
                result = super().check(package, fix_body, seed=seed)
                if self.reject_next:
                    self.reject_next = False
                    result.test_failures.append("flaky infra")
                return result

        fleet = self._fleet()
        for _ in range(6):
            fleet.advance_window(3600.0)
        engine = RemedyEngine(
            gate=FlakyGate(),
            rollout=StagedRollout(
                windows_per_stage=1, drain_windows=1, window=3600.0
            ),
            verify_calls=6,
        )
        leakprof = LeakProf(
            threshold=100, top_n=5, remediator=engine.remediator(fleet)
        )
        first = leakprof.daily_run(fleet.all_instances(), now=1.0)
        (ticket,) = first.remediations
        assert ticket.status is ReportStatus.FIX_PROPOSED
        assert any("gate rejected" in note for note in ticket.notes)

        fleet.advance_window(3600.0)  # the leak keeps growing meanwhile
        second = leakprof.daily_run(fleet.all_instances(), now=2.0)
        (retried,) = second.remediations
        assert retried is ticket  # same ticket, reopened — not a fork
        assert any("reopened" in note for note in ticket.notes)
        assert ticket.deployed
        assert len(engine.tracker.tickets) == 1

    def test_dedup_means_no_double_remediation(self):
        fleet = self._fleet()
        for _ in range(6):
            fleet.advance_window(3600.0)
        engine = RemedyEngine(
            rollout=StagedRollout(
                windows_per_stage=1, drain_windows=1, window=3600.0
            ),
            verify_calls=6,
        )
        leakprof = LeakProf(
            threshold=100, top_n=5, remediator=engine.remediator(fleet)
        )
        first = leakprof.daily_run(fleet.all_instances(), now=1.0)
        assert len(first.remediations) == 1
        again = leakprof.daily_run(fleet.all_instances(), now=2.0)
        assert again.remediations == []
        assert len(engine.tracker.tickets) == 1
