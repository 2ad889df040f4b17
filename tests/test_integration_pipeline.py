"""End-to-end integration: the full Fig 3 loop on one runtime population.

Exercises the complete lifecycle across module boundaries:

    developer writes leaky code
      -> goleak blocks the PR in CI
      -> a critical variant is suppressed through and ships
      -> the leak accumulates in production
      -> LeakProf's daily sweep reports it (text-profile transport)
      -> the owner is routed, triages via the bug DB, and ships the fix
      -> the next sweep is quiet and memory is recovered
"""


from repro.devflow import CIPipeline, PRGenerator
from repro.fleet import Fleet, RequestMix, Service, ServiceConfig, TrafficShape
from repro.goleak import SuppressionList, TestTarget, verify_test_main
from repro.leakprof import LeakProf, OwnershipRouter, ReportStatus
from repro.patterns import timeout_leak

MIB = 1024 * 1024


class TestFig3Loop:
    def test_full_lifecycle(self):
        # -- CI: the leaky PR is blocked --------------------------------
        target = TestTarget("pkg/checkout").add(
            "TestCheckout", timeout_leak.leaky
        )
        result = verify_test_main(target)
        assert result.failed
        leak_function = result.leaks[0].blocking_function

        # -- the escape hatch: suppress and ship -------------------------
        suppressions = SuppressionList({leak_function})
        shipped = verify_test_main(target, suppressions)
        assert not shipped.failed
        assert len(shipped.suppressed) == 1

        # -- production: the leak accumulates ----------------------------
        leaky = RequestMix().add(
            "checkout", timeout_leak.leaky, weight=1.0,
            payload_bytes=128 * 1024,
        )
        fixed = RequestMix().add(
            "checkout", timeout_leak.fixed, weight=1.0,
            payload_bytes=128 * 1024,
        )
        service = Service(
            ServiceConfig(
                name="checkout", mix=leaky, instances=3,
                traffic=TrafficShape(requests_per_window=50),
                base_rss=128 * MIB,
            ),
            seed=11,
        )
        fleet = Fleet().add(service)
        for _ in range(5):
            fleet.advance_window()
        assert service.peak_instance_rss() > 140 * MIB

        # -- LeakProf: sweep (via text profiles), report, route ----------
        router = OwnershipRouter({"": "checkout-team"})
        leakprof = LeakProf(threshold=100, top_n=5, router=router)
        run1 = leakprof.daily_run(fleet.all_instances(), now=1.0)
        assert len(run1.new_reports) == 1
        report = run1.new_reports[0]
        assert report.owner == "checkout-team"
        assert report.candidate.state == "chan send"
        # the report points at the actual send in the pattern source
        assert "timeout_leak.py" in report.candidate.location

        # -- triage and fix ----------------------------------------------
        leakprof.bug_db.acknowledge(report)
        service.deploy(fixed)
        for _ in range(3):
            fleet.advance_window()
        leakprof.bug_db.mark_fixed(report)
        assert report.status is ReportStatus.FIXED
        assert all(i.rss() == 128 * MIB for i in service.instances)

        # -- the next sweep is quiet --------------------------------------
        run2 = leakprof.daily_run(fleet.all_instances(), now=2.0)
        assert run2.new_reports == []
        assert run2.suspects == []

    def test_ci_and_production_agree_on_the_leak_site(self):
        """goleak (tests) and leakprof (production) blame the same line."""
        target = TestTarget("pkg/x").add("TestX", timeout_leak.leaky)
        ci_result = verify_test_main(target)
        ci_location = ci_result.leaks[0].blocking_location

        service = Service(
            ServiceConfig(
                name="x", mix=RequestMix().add(
                    "x", timeout_leak.leaky, weight=1.0
                ),
                instances=1,
                traffic=TrafficShape(requests_per_window=150,
                                     diurnal_fraction=0.0),
            ),
            seed=2,
        )
        Fleet().add(service).advance_window()
        prod = LeakProf(threshold=100).daily_run(service.instances)
        prod_location = prod.new_reports[0].candidate.location
        assert ci_location == prod_location


class TestDevflowToGoleakCoupling:
    def test_pipeline_gate_uses_real_goleak_verdicts(self):
        """The CI sim's blocks come from actual leak detection, not labels."""
        generator = PRGenerator(seed=9, prs_per_week=0)
        pipeline = CIPipeline()
        pipeline.enable_goleak()
        leaky_pr = generator._make_pr(week=1, leaky=True,
                                      pattern="unclosed_range")
        clean_pr = generator._make_pr(week=1, leaky=False)
        assert not pipeline.submit(leaky_pr, seed=1)
        assert pipeline.submit(clean_pr, seed=2)
        # sabotage check: a "leaky" PR whose fix is applied passes the gate
        from repro.patterns import unclosed_range

        fixed_pr = generator._make_pr(week=1, leaky=False)
        fixed_pr.target.tests[0].body = unclosed_range.fixed
        assert pipeline.submit(fixed_pr, seed=3)
