"""GoLeak: find/verify_none/verify_test_main, options, classification."""

import pytest

from repro.goleak import (
    BlockType,
    LeakError,
    SuppressionList,
    TestTarget,
    census,
    classify,
    find,
    ignore_any_function,
    ignore_created_by,
    ignore_current,
    ignore_top_function,
    max_retries,
    message_passing_share,
    trial_run,
    auto_instrument,
    verify_none,
    verify_test_main,
)
from repro.gc import ReclaimPolicy
from repro.goleak import api as goleak_api
from repro.profiling import GoroutineProfile
from repro.patterns import (
    PATTERNS,
    contract_violation,
    guaranteed,
    healthy,
    premature_return,
    timer_loop,
    unclosed_range,
)
from repro.runtime import Runtime, go, sleep


def run_leaky(pattern, seed=0, **params):
    rt = Runtime(seed=seed)
    rt.run(pattern, rt, deadline=5.0, detect_global_deadlock=False, **params)
    return rt


class TestFind:
    def test_finds_leaked_sender(self):
        rt = run_leaky(premature_return.leaky)
        leaks = find(rt)
        assert len(leaks) == 1
        assert leaks[0].state.value == "chan send"

    def test_clean_runtime_reports_nothing(self):
        rt = Runtime()
        rt.run(healthy.fan_out_fan_in, rt)
        assert find(rt) == []

    def test_retry_tolerates_slow_goroutines(self):
        """A goroutine needing 1.5s to finish is NOT a leak under retries."""
        rt = Runtime()

        def main(rt):
            def slow():
                yield sleep(1.5)

            yield go(slow)

        rt.run(main, rt, deadline=0.0)  # stop the clock at test end
        assert rt.num_goroutines == 1  # still sleeping when test ends
        leaks = find(rt, max_retries(retries=20, interval=0.1))
        assert leaks == []

    def test_retry_budget_exhaustion_still_reports(self):
        rt = run_leaky(premature_return.leaky)
        leaks = find(rt, max_retries(retries=2, interval=0.01))
        assert len(leaks) == 1


def _retried(name, monkeypatch, idle_exit, gc_interval=None):
    """``find`` on PATTERNS[name]'s leaky residue: (leaks, clock,
    advances, snapshots), with the idle early exit on or off (off is
    the full retry loop)."""
    rt = Runtime(seed=3, name=name, panic_mode="record")
    rt.run(PATTERNS[name].leaky, rt, deadline=5.0,
           detect_global_deadlock=False)
    if gc_interval is not None:
        rt.enable_gc(gc_interval, policy=ReclaimPolicy.RECLAIM)
    advances, snapshots = [], []
    advance, snapshot = Runtime.advance, goleak_api.snapshot_runtime
    with monkeypatch.context() as patch:
        patch.setattr(Runtime, "advance", lambda self, *a, **kw: (
            advances.append(self.now), advance(self, *a, **kw)))
        patch.setattr(goleak_api, "snapshot_runtime", lambda runtime: (
            snapshots.append(runtime.now), snapshot(runtime))[1])
        if not idle_exit:
            patch.setattr(Runtime, "idle_until", lambda self, deadline: False)
        leaks = find(rt)
    return leaks, rt.now, advances, len(snapshots)


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_idle_early_exit_equals_the_full_retry_loop(name, monkeypatch):
    """Same leaks, records (``wait_seconds`` included), clock and runs;
    at most as many snapshots."""
    fast = _retried(name, monkeypatch, idle_exit=True)
    full = _retried(name, monkeypatch, idle_exit=False)
    assert fast[0] == full[0]
    assert [r.wait_seconds for r in fast[0]] == [
        r.wait_seconds for r in full[0]]
    assert repr(fast[1]) == repr(full[1])
    assert fast[2] == full[2]
    assert fast[3] <= full[3]


def test_idle_early_exit_judges_a_parked_leak_once_more(monkeypatch):
    """A leak parked with no timer: every retry still runs (the clock
    and the run count stay), but only the first and last snapshots are
    taken."""
    leaks, _now, advances, snapshots = _retried(
        "premature_return", monkeypatch, idle_exit=True)
    assert len(leaks) == 1 and len(advances) == 20 and snapshots == 2
    assert _retried("premature_return", monkeypatch, False)[3] == 21


def test_a_pending_timer_still_retries(monkeypatch):
    """A due gc sweep timer counts as pending work: a reclaiming sweep
    can end the leak, so every retry is judged."""
    fast = _retried("premature_return", monkeypatch, True, gc_interval=1.0)
    full = _retried("premature_return", monkeypatch, False, gc_interval=1.0)
    assert fast == full
    assert fast[0] == [] and fast[3] > 2
    # The slow sleeper of test_retry_tolerates_slow_goroutines: its
    # timer is pending, so the loop waits for it.
    rt = Runtime()

    def main(rt):
        def slow():
            yield sleep(1.5)

        yield go(slow)

    rt.run(main, rt, deadline=0.0)
    assert not rt.idle_until(2.0) and rt.idle_until(1.4)
    assert find(rt, max_retries(retries=20, interval=0.1)) == []


class TestVerifyNone:
    def test_raises_with_formatted_stacks(self):
        rt = run_leaky(premature_return.leaky)
        with pytest.raises(LeakError) as excinfo:
            verify_none(rt)
        message = str(excinfo.value)
        assert "found unexpected goroutines: 1" in message
        assert "runtime.gopark" in message
        assert "chan send" in message
        assert "created by" in message

    def test_passes_on_clean_runtime(self):
        rt = Runtime()
        rt.run(healthy.waitgroup_barrier, rt)
        verify_none(rt)  # must not raise

    def test_all_fixed_variants_verify_clean(self):
        from repro.patterns import PATTERNS

        for name, pattern in PATTERNS.items():
            if pattern.fixed is None:
                continue
            rt = Runtime(seed=11)
            stop = rt.run(
                pattern.fixed, rt, deadline=5.0, detect_global_deadlock=False
            )
            if name == "timer_loop":
                stop()
                rt.advance(1.0)
            verify_none(rt)


class TestOptions:
    def test_ignore_top_function(self):
        rt = run_leaky(premature_return.leaky)
        leak = find(rt)[0]
        assert find(rt, ignore_top_function(leak.blocking_function)) == []

    def test_ignore_any_function(self):
        rt = run_leaky(premature_return.leaky)
        assert find(rt, ignore_any_function("_get_discount")) == []
        assert len(find(rt, ignore_any_function("unrelated"))) == 1

    def test_ignore_created_by(self):
        rt = run_leaky(premature_return.leaky)
        creator = find(rt)[0].creation_ctx.function
        assert find(rt, ignore_created_by(creator)) == []

    def test_ignore_current_masks_preexisting(self):
        rt = run_leaky(premature_return.leaky)
        baseline = ignore_current(GoroutineProfile.take(rt).records)
        # Introduce a *new* leak after the baseline snapshot.
        rt.run(unclosed_range.leaky, rt, detect_global_deadlock=False)
        leaks = find(rt, baseline)
        assert len(leaks) == 3  # only the new range-loop consumers
        assert all(l.state.value == "chan receive" for l in leaks)

    def test_bad_option_rejected(self):
        rt = Runtime()
        with pytest.raises(TypeError):
            find(rt, 42)


class TestSuppressionList:
    def test_suppressed_leaks_do_not_fail_target(self):
        target = TestTarget("pkg/payments").add(
            "TestComputeCost", premature_return.leaky
        )
        result = verify_test_main(target)
        assert result.failed
        suppressions = SuppressionList(
            {result.leaks[0].blocking_function}
        )
        result2 = verify_test_main(target, suppressions)
        assert not result2.failed
        assert len(result2.suppressed) == 1

    def test_add_remove(self):
        sup = SuppressionList()
        sup.add("pkg.leaker")
        assert "pkg.leaker" in sup and len(sup) == 1
        sup.remove("pkg.leaker")
        assert len(sup) == 0

    def test_new_leak_still_blocks_with_suppressions(self):
        target = (
            TestTarget("pkg/mixed")
            .add("TestOld", premature_return.leaky)
            .add("TestNew", unclosed_range.leaky)
        )
        old = verify_test_main(TestTarget("pkg/old").add("t", premature_return.leaky))
        suppressions = SuppressionList({old.leaks[0].blocking_function})
        result = verify_test_main(target, suppressions)
        assert result.failed  # the range-loop leak is new
        assert len(result.suppressed) == 1
        assert len(result.leaks) == 3


class TestVerifyTestMain:
    def test_clean_target_passes(self):
        target = (
            TestTarget("pkg/clean")
            .add("TestFanOut", healthy.fan_out_fan_in)
            .add("TestReqResp", healthy.request_response)
            .add("TestBarrier", healthy.waitgroup_barrier)
        )
        result = verify_test_main(target)
        assert not result.failed
        assert result.tests_run == 3

    def test_leaky_target_fails_whole_target(self):
        target = (
            TestTarget("pkg/dirty")
            .add("TestClean", healthy.request_response)
            .add("TestLeaky", premature_return.leaky)
        )
        result = verify_test_main(target)
        assert result.failed
        assert result.leak_types() == [BlockType.CHAN_SEND]

    def test_test_exception_reported(self):
        def exploding(rt):
            yield sleep(0)
            raise ValueError("assertion failed")

        target = TestTarget("pkg/broken").add("TestBoom", exploding)
        result = verify_test_main(target)
        assert result.failed
        assert "TestBoom" in result.test_failures[0]


class TestInstrumentation:
    def test_auto_instrument_wraps_all_targets(self):
        targets = [
            TestTarget("pkg/a").add("t", healthy.request_response),
            TestTarget("pkg/b").add("t", premature_return.leaky),
        ]
        instrumented = auto_instrument(targets)
        results = [it.run() for it in instrumented]
        assert [r.failed for r in results] == [False, True]

    def test_trial_run_seeds_suppression_list(self):
        targets = auto_instrument(
            [
                TestTarget("pkg/a").add("t", premature_return.leaky),
                TestTarget("pkg/b").add("t", unclosed_range.leaky),
                TestTarget("pkg/c").add("t", timer_loop.leaky),
                TestTarget("pkg/d").add("t", healthy.fan_out_fan_in),
            ]
        )
        report = trial_run(targets)
        # premature_return + unclosed_range leak on channels; the timer
        # loop is a non-channel runaway (blocked in chan receive on a
        # timer channel... it IS a chan receive) — count entries instead.
        assert report.total_suppressed >= 3
        # After seeding, the same targets no longer fail.
        for instrumented in targets:
            result = instrumented.run(suppressions=report.suppression_list)
            assert not result.failed


class TestClassification:
    def test_each_pattern_classifies_to_paper_category(self):
        expectations = {
            premature_return.leaky: BlockType.CHAN_SEND,
            unclosed_range.leaky: BlockType.CHAN_RECV,
            contract_violation.leaky: BlockType.SELECT,
            guaranteed.leaky_nil_recv: BlockType.CHAN_RECV_NIL,
            guaranteed.leaky_nil_send: BlockType.CHAN_SEND_NIL,
            guaranteed.leaky_empty_select: BlockType.SELECT_NO_CASES,
        }
        for pattern, expected in expectations.items():
            rt = run_leaky(pattern)
            leak = find(rt)[0]
            assert classify(leak) is expected, pattern

    def test_census_counts_by_type(self):
        rt = Runtime(seed=5)
        rt.run(premature_return.leaky, rt, detect_global_deadlock=False)
        rt.run(unclosed_range.leaky, rt, detect_global_deadlock=False)
        rt.run(contract_violation.leaky, rt, detect_global_deadlock=False)
        counts = census(GoroutineProfile.take(rt).records)
        assert counts[BlockType.CHAN_SEND] == 1
        assert counts[BlockType.CHAN_RECV] == 3
        assert counts[BlockType.SELECT] == 1
        assert counts[BlockType.IO_WAIT] == 0

    def test_message_passing_share(self):
        rt = Runtime(seed=5)
        rt.run(premature_return.leaky, rt, detect_global_deadlock=False)
        counts = census(GoroutineProfile.take(rt).records)
        assert message_passing_share(counts) == 1.0
        assert message_passing_share({}) == 0.0
