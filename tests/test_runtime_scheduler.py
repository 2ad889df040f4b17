"""Scheduler behaviour: virtual clock, timers, deadlock detection, stacks."""

import functools
import gc
import weakref

import pytest

from repro.runtime import (
    GlobalDeadlock,
    Panic,
    Runtime,
    SchedulerExhausted,
    burn,
    capture_stack,
    go,
    gosched,
    park,
    recv,
    send,
    sleep,
)


class TestVirtualClock:
    def test_sleep_advances_clock(self):
        rt = Runtime()

        def main(rt):
            yield sleep(2.5)

        rt.run(main, rt)
        assert rt.now == pytest.approx(2.5)

    def test_sleeps_run_concurrently(self):
        rt = Runtime()

        def main(rt):
            def sleeper():
                yield sleep(3.0)

            for _ in range(10):
                yield go(sleeper)
            yield sleep(3.0)

        rt.run(main, rt)
        assert rt.now == pytest.approx(3.0)  # parallel, not 33s

    def test_zero_sleep_is_noop(self):
        rt = Runtime()

        def main(rt):
            yield sleep(0)

        rt.run(main, rt)
        assert rt.now == 0.0

    def test_after_fires_at_deadline(self):
        rt = Runtime()

        def main(rt):
            ch = rt.after(1.5)
            stamp = yield recv(ch)
            return stamp

        stamp = rt.run(main, rt)
        assert stamp == pytest.approx(1.5)

    def test_tick_delivers_repeatedly(self):
        rt = Runtime()

        def main(rt):
            ch = rt.tick(1.0)
            stamps = []
            for _ in range(3):
                stamps.append((yield recv(ch)))
            return stamps

        stamps = rt.run(main, rt, deadline=10.0)
        assert stamps == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_ticker_drops_ticks_when_full(self):
        rt = Runtime()

        def main(rt):
            ch = rt.tick(1.0)
            yield sleep(5.0)  # 5 ticks elapse; only 1 buffered
            first = yield recv(ch)
            return first, len(ch)

        first, buffered = rt.run(main, rt, deadline=20.0)
        assert first == pytest.approx(1.0)
        assert buffered == 0

    def test_stopped_ticker_stops(self):
        rt = Runtime()

        def main(rt):
            ticker = rt.new_ticker(1.0)
            yield recv(ticker.channel)
            ticker.stop()
            yield sleep(5.0)
            return len(ticker.channel)

        buffered = rt.run(main, rt)
        assert buffered == 0

    def test_advance_runs_timers_within_window(self):
        rt = Runtime()
        fired = []
        rt.call_later(1.0, lambda: fired.append(1))
        rt.call_later(5.0, lambda: fired.append(5))
        rt.advance(2.0)
        assert fired == [1]
        assert rt.now == pytest.approx(2.0)
        rt.advance(4.0)
        assert fired == [1, 5]

    def test_cancelled_timer_does_not_fire(self):
        rt = Runtime()
        fired = []
        timer = rt.call_later(1.0, lambda: fired.append(1))
        timer.cancel()
        rt.advance(2.0)
        assert fired == []


class TestDeadlockDetection:
    def test_all_blocked_raises_global_deadlock(self):
        rt = Runtime()

        def main(rt):
            ch = rt.make_chan(0)
            yield recv(ch)  # nobody will ever send

        with pytest.raises(GlobalDeadlock):
            rt.run(main, rt)

    def test_partial_deadlock_is_not_fatal(self):
        rt = Runtime()

        def main(rt):
            ch = rt.make_chan(0)

            def child():
                yield recv(ch)

            yield go(child)
            # main returns; child leaks -> partial, not global, deadlock

        rt.run(main, rt)
        assert rt.num_goroutines == 1

    def test_io_wait_suppresses_fatal_check(self):
        """Go's detector ignores goroutines in syscalls/netpoll."""
        rt = Runtime()

        def main(rt):
            def io_bound():
                yield park("io_wait")

            yield go(io_bound)
            ch = rt.make_chan(0)

            def child():
                yield recv(ch)

            yield go(child)
            yield sleep(0.1)

        rt.run(main, rt)  # must not raise
        states = sorted(g.state.value for g in rt.live_goroutines())
        assert states == ["chan receive", "io_wait"]

    def test_timed_park_wakes(self):
        rt = Runtime()

        def main(rt):
            yield park("syscall", duration=2.0)
            return "back"

        assert rt.run(main, rt) == "back"
        assert rt.now == pytest.approx(2.0)

    def test_unknown_park_reason_rejected(self):
        rt = Runtime()

        def main(rt):
            yield park("napping")

        with pytest.raises(ValueError):
            rt.run(main, rt)


class TestSchedulerMechanics:
    def test_state_predicates_match_their_sets(self):
        from repro.runtime.goroutine import (
            BLOCKED_STATES,
            CHANNEL_BLOCKED_STATES,
            GoroutineState,
        )

        for state in GoroutineState:
            assert state.blocked == (state in BLOCKED_STATES)
            assert state.channel_blocked == (state in CHANNEL_BLOCKED_STATES)

    def test_spawn_requires_generator(self):
        rt = Runtime()

        def not_a_generator(rt):
            return 42

        with pytest.raises(TypeError):
            rt.run(not_a_generator, rt)

    @pytest.mark.parametrize("yielded", [42, None, "send", object()],
                             ids=["int", "none", "str", "object"])
    def test_yielding_a_non_effect_raises_type_error(self, yielded):
        rt = Runtime()

        def main(rt):
            yield gosched()
            yield yielded

        with pytest.raises(TypeError) as raised:
            rt.run(main, rt)
        assert str(raised.value) == (
            f"goroutine {main.__qualname__!r} yielded non-effect {yielded!r}"
        )
        assert rt.steps == 2

    def test_max_steps_guard(self):
        rt = Runtime()

        def main(rt):
            while True:
                yield gosched()

        with pytest.raises(SchedulerExhausted):
            rt.run(main, rt, max_steps=1000)

    def test_panic_mode_record_collects_panics(self):
        rt = Runtime(panic_mode="record")

        def main(rt):
            def bomber():
                ch = rt.make_chan(0)
                ch.close()
                yield send(ch, 1)

            yield go(bomber)
            yield sleep(0.1)
            return "survived"

        assert rt.run(main, rt) == "survived"
        assert len(rt.panics) == 1
        goro, exc = rt.panics[0]
        assert "closed channel" in str(exc)

    def test_user_panic_propagates(self):
        rt = Runtime()

        def main(rt):
            yield sleep(0)
            raise Panic("boom")

        with pytest.raises(Panic, match="boom"):
            rt.run(main, rt)

    def test_burn_accumulates_cpu_seconds(self):
        rt = Runtime()

        def main(rt):
            yield burn(0.25)
            yield burn(0.75)

        rt.run(main, rt)
        assert rt.cpu_seconds == pytest.approx(1.0)

    def test_goroutine_counters(self):
        rt = Runtime()

        def main(rt):
            def child():
                yield sleep(0.1)

            for _ in range(4):
                yield go(child)
            yield sleep(1.0)

        rt.run(main, rt)
        assert rt.goroutines_spawned == 5  # 4 children + main
        assert rt.goroutines_finished == 5
        assert rt.num_goroutines == 0

    def test_run_is_reusable(self):
        rt = Runtime()

        def main(rt):
            yield sleep(1.0)
            return rt.now

        assert rt.run(main, rt) == pytest.approx(1.0)
        assert rt.run(main, rt) == pytest.approx(2.0)  # clock persists

    def test_determinism_across_identical_runtimes(self):
        def main(rt):
            ch = rt.make_chan(0)
            out = []

            def worker(i):
                yield sleep(0.1 * (i % 3))
                yield send(ch, i)

            for i in range(20):
                yield go(worker, i)
            for _ in range(20):
                out.append((yield recv(ch)))
            return out

        def one_run():
            rt = Runtime(seed=42)
            return rt.run(main, rt)

        assert one_run() == one_run()

    def test_partial_bodies_are_named_by_their_function(self):
        """A ``functools.partial`` body is named by the function it wraps,
        never by its ``repr`` (which carries a per-process address)."""
        names = []

        class RecordingRuntime(Runtime):
            def _spawn(self, fn, args, name, *rest):
                goro = super()._spawn(fn, args, name, *rest)
                names.append(goro.name)
                return goro

        def child(n):
            yield sleep(0.01 * n)

        def main(rt, n):
            yield go(functools.partial(child, n))
            yield go(functools.partial(functools.partial(child), n=n))
            yield go(child, n)
            yield sleep(1.0)

        rt = RecordingRuntime()
        rt.run(functools.partial(main, n=2), rt)
        child_name = child.__qualname__
        assert names == [main.__qualname__] + [child_name] * 3
        assert not any("0x" in name for name in names)

    def test_goleak_targets_and_fleet_handlers_spawn_no_address_names(self):
        from repro.fleet import RequestMix, ServiceInstance, TrafficShape
        from repro.goleak import TestCase, TestTarget, verify_test_main
        from repro.patterns import healthy, timeout_leak

        names = []

        class RecordingRuntime(Runtime):
            def _spawn(self, fn, args, name, *rest):
                goro = super()._spawn(fn, args, name, *rest)
                names.append(goro.name)
                return goro

        target = TestTarget(package="pkg/names", tests=[
            TestCase("TestFan", functools.partial(
                healthy.fan_out_fan_in, n_workers=2, n_items=4)),
            TestCase("TestBarrier", functools.partial(
                healthy.waitgroup_barrier, n=3)),
        ])
        verify_test_main(target, runtime=RecordingRuntime())
        mix = RequestMix().add(
            "checkout", timeout_leak.leaky, payload_bytes=1024
        )
        instance = ServiceInstance(
            service="svc", mix=mix,
            traffic=TrafficShape(requests_per_window=3), seed=1,
        )
        instance.runtime.__class__ = RecordingRuntime
        instance.advance_window(3600.0)
        assert "fan_out_fan_in" in names and "leaky" in names
        assert not any("0x" in name for name in names)


class TestStackCapture:
    def test_blocked_stack_has_leaf_first(self):
        rt = Runtime()

        def inner(ch):
            yield send(ch, "x")  # <- blocking site (leaf)

        def outer(ch):
            yield from inner(ch)

        def main(rt):
            ch = rt.make_chan(0)
            yield go(outer, ch, name="leaker")
            yield sleep(0.1)

        rt.run(main, rt)
        (leaked,) = rt.live_goroutines()
        frames = leaked.stack()
        assert frames[0].function.endswith("inner")
        assert frames[-1].function.endswith("outer")

    def test_creation_context_recorded(self):
        rt = Runtime()

        def child():
            yield send(rt.make_chan(0), 1)

        def main(rt):
            yield go(child)
            yield sleep(0.1)

        rt.run(main, rt)
        (leaked,) = rt.live_goroutines()
        assert leaked.creation_ctx is not None
        assert "main" in leaked.creation_ctx.function

    def test_blocking_frame_location_is_stable(self):
        rt = Runtime()

        def child(ch):
            yield send(ch, 1)

        def main(rt):
            ch = rt.make_chan(0)
            yield go(child, ch)
            yield go(child, ch)
            yield sleep(0.1)

        rt.run(main, rt)
        locs = {g.blocking_frame().location for g in rt.live_goroutines()}
        assert len(locs) == 1  # both blocked at the same source line

    def test_go_creation_context_is_the_spawning_leaf_frame(self):
        """``go`` records ``capture_stack(spawner)[0]``, one Frame object
        per source line."""
        rt = Runtime()
        seen = []

        def child():
            # The spawner is still suspended at its ``go``.
            seen.append(capture_stack(rt.main.gen)[0])
            yield send(rt.make_chan(0), 1)

        def spawn_two():
            for _ in range(2):
                yield go(child)

        def main(rt):
            yield from spawn_two()
            yield sleep(0.1)

        rt.run(main, rt)
        first, second = sorted(rt.live_goroutines(), key=lambda g: g.gid)
        assert first.creation_ctx == seen[0]
        assert first.creation_ctx.function.endswith("spawn_two")
        assert first.creation_ctx is second.creation_ctx

    def test_frame_interning_keeps_no_generated_code_alive(self):
        source = (
            "def body(rt):\n"
            "    yield go(child)\n"
            "    yield sleep(0.1)\n"
        )
        code = compile(source, "<fuzz-interning>", "exec")

        def child():
            yield send(rt.make_chan(0), 1)

        namespace = {"go": go, "sleep": sleep, "child": child}
        exec(code, namespace)
        rt = Runtime()
        rt.run(namespace["body"], rt)
        (leaked,) = rt.live_goroutines()
        assert leaked.creation_ctx.file == "<fuzz-interning>"
        body_code = weakref.ref(namespace["body"].__code__)
        del namespace, code, leaked
        rt = None
        gc.collect()
        assert body_code() is None

    def test_capture_stack_of_running_generator(self):
        def gen():
            yield 1

        g = gen()
        next(g)
        frames = capture_stack(g)
        assert len(frames) == 1
        assert frames[0].function.endswith("gen")


def test_finished_mains_leave_the_goroutine_table():
    """A main goroutine that outlives its run leaves ``_goroutines``
    when it finishes, like any other goroutine: in the lingering-main
    fleet the table holds exactly the live goroutines after every
    window."""
    from test_request_pins import CASES, serial

    configs, windows, window = CASES["lingering-main"]
    fleet = serial(configs())
    for _ in range(windows):
        fleet.advance_window(window)
        for instance in fleet.all_instances():
            runtime = instance.runtime
            assert len(runtime._goroutines) == runtime.num_goroutines, (
                instance.name
            )
