"""Profiling: snapshots, Fig 4 stack signatures, pprof text round-trip."""

import pytest

from repro.profiling import (
    GoroutineProfile,
    dump_text,
    parse_text,
    runtime_frames_for,
)
from repro.runtime import GoroutineState, Runtime
from repro.patterns import premature_return, timeout_leak, unclosed_range


def leaky_runtime(pattern=premature_return.leaky, seed=0, **params):
    rt = Runtime(seed=seed)
    rt.run(pattern, rt, deadline=5.0, detect_global_deadlock=False, **params)
    return rt


class TestSnapshot:
    def test_take_captures_live_goroutines(self):
        rt = leaky_runtime()
        profile = GoroutineProfile.take(rt)
        assert len(profile) == 1
        assert profile.records[0].state is GoroutineState.BLOCKED_SEND

    def test_wait_seconds_grows_with_clock(self):
        rt = leaky_runtime()
        first = GoroutineProfile.take(rt).records[0].wait_seconds
        rt.advance(10.0)
        second = GoroutineProfile.take(rt).records[0].wait_seconds
        assert second >= first + 9.9

    def test_service_metadata_attached(self):
        rt = leaky_runtime()
        profile = GoroutineProfile.take(rt, service="svc", instance="i-3")
        assert profile.service == "svc"
        assert profile.instance == "i-3"


class TestFig4Signature:
    """The stack signature of Fig 4: gopark on top, op sub-stack, user frame."""

    def test_blocked_send_stack_shape(self):
        rt = leaky_runtime()
        record = GoroutineProfile.take(rt).records[0]
        names = [frame.function for frame in record.frames]
        assert names[0] == "runtime.gopark"
        assert names[1] == "runtime.chansend"
        assert names[2] == "runtime.chansend1"
        assert "_get_discount" in names[3]

    def test_blocked_recv_stack_shape(self):
        rt = leaky_runtime(unclosed_range.leaky)
        record = GoroutineProfile.take(rt).records[0]
        names = [frame.function for frame in record.frames]
        assert names[:3] == [
            "runtime.gopark",
            "runtime.chanrecv",
            "runtime.chanrecv1",
        ]

    def test_select_stack_shape(self):
        from repro.patterns import contract_violation

        rt = leaky_runtime(contract_violation.leaky)
        record = GoroutineProfile.take(rt).records[0]
        names = [frame.function for frame in record.frames]
        assert names[:2] == ["runtime.gopark", "runtime.selectgo"]

    def test_blocking_location_is_send_site(self):
        rt = leaky_runtime()
        record = GoroutineProfile.take(rt).records[0]
        assert record.blocking_location.endswith(
            f"premature_return.py:{_send_line()}"
        )

    def test_runtime_frames_empty_for_running(self):
        assert runtime_frames_for(GoroutineState.RUNNING) == ()


def _send_line():
    """Line number of the blocking send in premature_return._get_discount."""
    import inspect

    source, start = inspect.getsourcelines(premature_return._get_discount)
    for offset, line in enumerate(source):
        if "yield send(ch" in line:
            return start + offset
    raise AssertionError("send line not found")


class TestGrouping:
    def test_group_by_location_counts_leaks(self):
        rt = Runtime(seed=1)
        for _ in range(7):
            rt.run(
                premature_return.leaky, rt,
                detect_global_deadlock=False,
            )
        profile = GoroutineProfile.take(rt)
        groups = profile.group_by_location()
        assert len(groups) == 1
        ((state, location), count), = groups.items()
        assert state == "chan send"
        assert count == 7

    def test_top_blocked_location(self):
        rt = Runtime(seed=1)
        for _ in range(3):
            rt.run(premature_return.leaky, rt, detect_global_deadlock=False)
        rt.run(unclosed_range.leaky, rt, detect_global_deadlock=False)
        profile = GoroutineProfile.take(rt)
        (state, _location), count = profile.top_blocked_location()
        assert count == 3
        assert state == "chan send"

    def test_by_state_histogram(self):
        rt = leaky_runtime(unclosed_range.leaky)
        histogram = GoroutineProfile.take(rt).by_state()
        assert histogram[GoroutineState.BLOCKED_RECV] == 3

    def test_empty_profile(self):
        rt = Runtime()
        profile = GoroutineProfile.take(rt)
        assert len(profile) == 0
        assert profile.top_blocked_location() is None
        assert profile.group_by_location() == {}


class TestPprofText:
    def test_round_trip_preserves_detection_fields(self):
        rt = leaky_runtime(timeout_leak.leaky)
        rt.advance(3.0)
        original = GoroutineProfile.take(rt, service="svc", instance="i-1")
        parsed = parse_text(dump_text(original))
        assert parsed.process == original.process
        assert parsed.service == "svc"
        assert parsed.instance == "i-1"
        assert parsed.taken_at == pytest.approx(original.taken_at)
        assert len(parsed) == len(original)
        for before, after in zip(original.records, parsed.records):
            assert after.gid == before.gid
            assert after.state is before.state
            assert after.blocking_location == before.blocking_location
            assert after.wait_seconds == pytest.approx(before.wait_seconds)
            assert [f.function for f in after.frames] == [
                f.function for f in before.frames
            ]

    def test_round_trip_groups_identically(self):
        rt = Runtime(seed=2)
        for _ in range(5):
            rt.run(premature_return.leaky, rt, detect_global_deadlock=False)
        original = GoroutineProfile.take(rt)
        parsed = parse_text(dump_text(original))
        assert parsed.group_by_location() == original.group_by_location()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_text("not a profile")
        with pytest.raises(ValueError):
            parse_text("")

    def test_dump_contains_created_by(self):
        rt = leaky_runtime()
        text = dump_text(GoroutineProfile.take(rt))
        assert "created by" in text
        assert "runtime.gopark" in text
