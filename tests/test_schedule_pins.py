"""Pinned schedules: the interpreter takes the same steps in the same order.

Every registered leaky body, every healthy body and a stream of
goleak-ci-style test targets run here on a fresh runtime, and each run
is reduced to the figures a schedule change would move: steps,
``run_until_quiescent`` calls, the final virtual clock, the state census
and a digest of every live goroutine's ``(gid, state, leaf location)``.
The pinned values were taken from the interpreter before its step loop
was reworked (handlers returning the resume value, a goroutine whose op
completes running on in place), so any reordering of the run queue, a
lost or extra step or a goroutine parked at another line fails here.
Locations are reduced to file basenames so the pins hold in any checkout.

Two cases pin the loop's edges: a ``max_steps`` budget raises
``SchedulerExhausted`` at the same step count with the goroutine that
was running left RUNNABLE at the head of the queue, and a run with a
shard worker's change set (``Runtime._delta``) attached takes the same
schedule as one without.
"""

import functools
import hashlib
import inspect
import os
import random

import pytest

from repro.goleak import TestCase, TestTarget, verify_test_main
from repro.patterns import PATTERNS, healthy
from repro.runtime import (
    GoroutineState,
    Runtime,
    SchedulerExhausted,
    alloc,
    go,
    gosched,
    recv,
    send,
)

HEALTHY = sorted(
    (name, fn)
    for name, fn in inspect.getmembers(healthy, inspect.isfunction)
    if fn.__module__ == healthy.__name__ and not name.startswith("_")
)
BODIES = [
    (name, pattern.leaky) for name, pattern in sorted(PATTERNS.items())
] + [(f"healthy.{name}", fn) for name, fn in HEALTHY]

#: The goleak-ci benchmark's healthy test bodies and leaky share.
TARGET_HEALTHY = (
    (healthy.fan_out_fan_in, {"n_workers": 8, "n_items": 64}),
    (healthy.fan_out_fan_in, {"n_workers": 4, "n_items": 32}),
    (healthy.waitgroup_barrier, {"n": 32}),
    (healthy.ticker_with_stop, {"iterations": 20}),
    (healthy.request_response, {}),
    (healthy.bounded_timeout, {}),
)
TARGET_LEAKY = tuple(sorted(PATTERNS))
TARGETS = 30


class CountingRuntime(Runtime):
    """A runtime that counts its ``run_until_quiescent`` calls."""

    runs = 0

    def run_until_quiescent(self, *args, **kwargs):
        self.runs += 1
        return super().run_until_quiescent(*args, **kwargs)


def leaf_location(goro):
    frame = goro.blocking_frame()
    if frame is None:
        return None
    return f"{os.path.basename(frame.file)}:{frame.line}"


def observe(rt):
    """The figures a schedule change would move, paths as basenames."""
    live = sorted(
        (g.gid, g.state.value, leaf_location(g)) for g in rt.live_goroutines()
    )
    digest = hashlib.sha256(repr(live).encode()).hexdigest()[:16]
    census = tuple(sorted(rt.census_by_value().items()))
    return (rt.steps, rt.runs, round(rt.now, 9), census, digest)


def run_body(body, tracker=None):
    rt = CountingRuntime(seed=7)
    rt._delta = tracker
    rt.run(body, rt, deadline=60.0, detect_global_deadlock=False)
    return rt


def target(index):
    """goleak-ci-style target ``index``: ~20 tests, 5% of them leaky."""
    rng = random.Random(1_000_003 + index)
    tests = []
    for number in range(rng.randint(18, 22)):
        if rng.random() < 0.05:
            body = PATTERNS[rng.choice(TARGET_LEAKY)].leaky
        else:
            fn, params = rng.choice(TARGET_HEALTHY)
            body = functools.partial(fn, **params)
        tests.append(TestCase(f"Test{number}", body))
    return TestTarget(package=f"pkg/t{index}", tests=tests)


def run_target(index):
    rt = CountingRuntime(seed=index)
    result = verify_test_main(target(index), runtime=rt)
    leaks = tuple(sorted(record.gid for record in result.leaks))
    return observe(rt) + (leaks, len(result.test_failures))


# (steps, runs, clock, census, live digest) per body, from the parent
# interpreter.
BODY_PINS = {
    "contract_violation": (7, 1, 60.0, (("select", 1),), "244778a45cc82759"),
    "contract_violation_context": (7, 1, 60.0, (("select", 1),), "07d9b1f0550d0fea"),
    "double_send": (6, 1, 60.0, (("chan send", 1),), "18f1cf3e51539aef"),
    "empty_select": (3, 1, 60.0, (("select", 1),), "4b2379a922f8331c"),
    "ncast": (18, 1, 60.0, (("chan send", 4),), "272254273f3dcee3"),
    "nil_recv": (3, 1, 60.0, (("chan receive", 1),), "0985722afbb10998"),
    "nil_send": (3, 1, 60.0, (("chan send", 1),), "1bd34bce745737fa"),
    "premature_return": (5, 1, 60.0, (("chan send", 1),), "4a6e288445d61371"),
    "timeout_leak": (5, 1, 60.0, (("chan send", 1),), "db6131d0ab6e580e"),
    "timer_loop": (123, 1, 60.0, (("chan receive", 1),), "3439492d3655b5b1"),
    "unclosed_range": (17, 1, 60.0, (("chan receive", 3),), "27f2eebc2c40e2b8"),
    "healthy.bounded_timeout": (6, 1, 60.0, (), "4f53cda18c2baa0c"),
    "healthy.fan_out_fan_in": (45, 1, 60.0, (), "4f53cda18c2baa0c"),
    "healthy.request_response": (6, 1, 60.0, (), "4f53cda18c2baa0c"),
    "healthy.ticker_with_stop": (9, 1, 60.0, (), "4f53cda18c2baa0c"),
    "healthy.waitgroup_barrier": (20, 1, 60.0, (), "4f53cda18c2baa0c"),
}

# (steps, runs, clock, census, live digest, leak gids, test failures)
# per target index, from the parent interpreter.
TARGET_PINS = {
    0: (1257, 42, 662.0, (("select", 2),), "01ebd4971b79cafd", (29, 66), 0),
    1: (2560, 41, 632.0, (("chan receive", 1),), "b9b781c929d4afd3", (106,), 0),
    2: (1827, 40, 602.0, (("select", 1),), "da801e5c6e232e9e", (48,), 0),
    3: (1547, 40, 602.0, (("chan receive", 1), ("chan send", 1)), "9d3b975b04202aaf", (4, 116), 0),
    4: (2733, 40, 602.0, (("chan receive", 1), ("chan send", 2)), "7e0552b6a9d6a654", (133, 139, 141), 0),
    5: (1170, 40, 602.0, (("chan receive", 1), ("select", 1)), "006eb832ab0bfa46", (53, 103), 0),
    6: (1438, 42, 662.0, (("chan send", 1), ("select", 1)), "265d6239dc65e209", (27, 132), 0),
    7: (1590, 19, 570.0, (), "4f53cda18c2baa0c", (), 0),
    8: (1905, 22, 660.0, (), "4f53cda18c2baa0c", (), 0),
    9: (1507, 41, 632.0, (("select", 1),), "a904622b836017c8", (77,), 0),
    10: (1946, 42, 662.0, (("chan receive", 3), ("chan send", 4)), "d6a8a0ffa31cd0fe", (48, 49, 50, 51, 82, 83, 84), 0),
    11: (2088, 42, 662.0, (("select", 1),), "00641f385addef3b", (45,), 0),
    12: (1254, 19, 570.0, (), "4f53cda18c2baa0c", (), 0),
    13: (2621, 40, 602.0, (("chan send", 1),), "867e08518b82d353", (186,), 0),
    14: (2471, 42, 662.0, (("chan receive", 1),), "eddce5bc1568c4b5", (55,), 0),
    15: (1903, 20, 600.0, (), "4f53cda18c2baa0c", (), 0),
    16: (1187, 19, 570.0, (), "4f53cda18c2baa0c", (), 0),
    17: (2479, 21, 630.0, (), "4f53cda18c2baa0c", (), 0),
    18: (2506, 42, 662.0, (("chan receive", 1), ("select", 1)), "551c57ec8432a197", (22, 74), 0),
    19: (1618, 22, 660.0, (), "4f53cda18c2baa0c", (), 0),
    20: (2329, 41, 632.0, (("chan receive", 1),), "378e119dce5b2afe", (46,), 0),
    21: (2572, 42, 662.0, (("chan receive", 1), ("chan send", 1), ("select", 1)), "26fcc5fe4b1756ab", (110, 112, 235), 0),
    22: (2341, 42, 662.0, (("chan receive", 1), ("chan send", 1)), "4ae5b477a6c16c3b", (64, 82), 0),
    23: (1842, 22, 660.0, (), "4f53cda18c2baa0c", (), 0),
    24: (1703, 20, 600.0, (), "4f53cda18c2baa0c", (), 0),
    25: (1858, 39, 572.0, (("chan send", 2), ("select", 1)), "178e5e75aa300a20", (128, 130, 132), 0),
    26: (1573, 38, 542.0, (("chan receive", 1),), "a7fcd4936dbfb11a", (58,), 0),
    27: (2312, 42, 662.0, (("chan receive", 3),), "725d073ca6eaaa16", (7, 8, 9), 0),
    28: (738, 38, 542.0, (("select", 1),), "365b359a854dd9d7", (23,), 0),
    29: (1267, 41, 632.0, (("chan receive", 4),), "a9286c531dcee2f8", (48, 83, 84, 85), 0),
}


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_body_schedule_is_pinned(name, body):
    assert observe(run_body(body)) == BODY_PINS[name]


@pytest.mark.parametrize("index", range(TARGETS))
def test_target_schedule_is_pinned(index):
    assert run_target(index) == TARGET_PINS[index]


@pytest.mark.parametrize("name,body", BODIES, ids=[n for n, _ in BODIES])
def test_delta_tracker_leaves_the_schedule_alone(name, body):
    tracker = set()
    with_tracker = run_body(body, tracker)
    assert observe(with_tracker) == observe(run_body(body))
    # Every goroutine still parked was marked when it parked.
    assert {
        g.gid for g in with_tracker.live_goroutines() if g.blocked
    } <= tracker


SPINS = 50
ROUNDS = 20


def spinner(rt):
    """One goroutine whose every op completes: each step could run in place."""
    for _ in range(SPINS):
        yield alloc(8)
        yield gosched()
    return SPINS


def ping_pong(rt):
    ping, pong = rt.make_chan(0), rt.make_chan(0)

    def echo():
        while True:
            value = yield recv(ping)
            yield send(pong, value)

    yield go(echo)
    for i in range(ROUNDS):
        yield send(ping, i)
        yield recv(pong)
    return ROUNDS


# (max_steps, steps at the raise, gid at the head of the run queue) from
# the parent interpreter.
EXHAUSTED_PINS = {
    "ping_pong": (17, 17, 2),
    "spinner": (9, 9, 1),
}


@pytest.mark.parametrize("case", sorted(EXHAUSTED_PINS))
def test_max_steps_raises_at_the_pinned_step(case):
    body, result = {
        "spinner": (spinner, SPINS),
        "ping_pong": (ping_pong, ROUNDS),
    }[case]
    max_steps, steps, head_gid = EXHAUSTED_PINS[case]
    rt = Runtime(seed=3)
    with pytest.raises(SchedulerExhausted) as info:
        rt.run(body, rt, max_steps=max_steps)
    assert info.value.steps == steps == rt.steps
    head = rt._run_queue[0]
    assert head.gid == head_gid
    assert head.state is GoroutineState.RUNNABLE
    # The interrupted run resumes where it stopped.
    main = rt.main
    rt.run_until_quiescent()
    assert main.state is GoroutineState.DONE
    assert main.result == result
