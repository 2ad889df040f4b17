"""Pinned fleet runs: a request's run and its window's idle tail.

Each case runs a small fleet window by window and reduces it to two
digests.  The *observed* digest covers what a LeakProf sweep and the
fleet's monitoring see: every service's ``ServiceSample`` history and,
after every window, every instance's snapshot (counters, last metrics
sample and goroutine records).  The *internal* digest covers what only
the live runtime holds: steps, ``goroutines_spawned``/``_finished``,
the clock, CPU seconds, ``rng.getstate()``, every metrics sample and,
with sweeps on, every gc report's counts.

The pinned values were taken while a window still paid a separate
``run_until_quiescent`` for its idle tail after its last request; the
tail now rides that request's run, so any shift in the clock, a timer
fired in another run or one more RNG draw fails here.  Frame files are
reduced to basenames, so the pins hold in any checkout, and frames in
this module's own handlers count lines from the handler's ``def``.

The cases cover the edges of that fold: a handler whose main goroutine
outlives the 30 s request deadline (and one that outlives the window),
windows whose requests overrun the window, windows with no request, a
service whose periodic sweeps reclaim proven leaks, and the sharded
fleet at 1 and 2 shards, whose observed digest must equal serial's.
"""

import hashlib
import os
import random

import pytest

from repro.fleet import (
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ServiceInstance,
    ShardedFleet,
    TrafficShape,
)
from repro.gc import ReclaimPolicy
from repro.patterns import healthy, premature_return, timeout_leak
from repro.runtime import Panic, go, recv, send, sleep
from repro.snapshot import snapshot_instance


def _late_worker(ch, work_seconds):
    yield sleep(work_seconds)
    yield send(ch, "done")


def lingering(rt, linger=45.0, work_seconds=20.0):
    """A handler whose main goroutine sleeps past its request deadline.

    Its worker's send completes only once main wakes and receives, so
    both finish ``linger`` seconds after the request started.
    """
    ch = rt.make_chan(0, label="late")
    yield go(_late_worker, ch, work_seconds)
    yield sleep(linger)
    yield recv(rt.after(1.0))
    return (yield recv(ch))


def lingering_mix():
    return (
        RequestMix()
        .add("late", lingering, weight=2.0)
        .add("stuck", lingering, weight=1.0, linger=5000.0)
        .add("checkout", timeout_leak.leaky, weight=1.0,
             payload_bytes=4096)
    )


def _frame(frame):
    if frame is None:
        return None
    line = frame.line
    if frame.file == __file__:
        # this module's handlers: lines count from their ``def``, so the
        # pins survive edits elsewhere in the module
        line -= globals()[frame.function].__code__.co_firstlineno
    return (frame.function, os.path.basename(frame.file), line)


def _record(record):
    return (
        record.gid,
        record.name,
        record.state.value,
        tuple(_frame(f) for f in record.user_frames),
        _frame(record.creation_ctx),
        record.wait_seconds,
        record.wait_detail,
        record.proof,
    )


def _snapshot(snap):
    rt = snap.runtime
    return (
        snap.service,
        snap.name,
        snap.requests_served,
        snap.cpu_percent,
        snap.last_metrics,
        rt.taken_at,
        rt.num_goroutines,
        rt.blocked_goroutines,
        rt.rss_bytes,
        sorted(rt.state_census.items()),
        rt.gc,
        tuple(_record(r) for r in rt.records),
    )


def _gc_report(report):
    reclaim = report.reclaim
    return (
        report.at,
        report.live,
        report.possibly_leaked,
        report.proven_leaked,
        len(report.newly_proven),
        None if reclaim is None else (reclaim.reclaimed, reclaim.survived,
                                      reclaim.bytes_released),
    )


def _internal(instance, samples):
    rt = instance.runtime
    return (
        instance.name,
        rt.steps,
        rt.goroutines_spawned,
        rt.goroutines_finished,
        rt.now,
        rt.cpu_seconds,
        rt.rng.getstate(),
        instance.requests_served,
        tuple(samples),
        tuple(_gc_report(r) for r in rt.gc_reports),
    )


def digests(fleet, windows, window):
    """Run ``windows`` windows; return (observed, internal) hex digests.

    ``internal`` is None for a sharded fleet, whose runtimes live in its
    workers.  An instance keeps only its last window's sample, so the
    serial fleet's samples are collected here, window by window.
    """
    observed = hashlib.sha256()
    samples = {}
    for _ in range(windows):
        fleet.advance_window(window)
        if isinstance(fleet, ShardedFleet):
            snaps = fleet.snapshots()
        else:
            snaps = [snapshot_instance(i) for i in fleet.all_instances()]
            for instance in fleet.all_instances():
                samples.setdefault(instance.name, []).append(
                    instance.last_metrics
                )
        for snap in snaps:
            observed.update(repr(_snapshot(snap)).encode())
    for name, service in fleet.services.items():
        observed.update(repr((name, service.history)).encode())
    if isinstance(fleet, ShardedFleet):
        return observed.hexdigest(), None
    internal = hashlib.sha256()
    for instance in fleet.all_instances():
        internal.update(
            repr(_internal(instance, samples[instance.name])).encode()
        )
    return observed.hexdigest(), internal.hexdigest()


# -- the fleets ----------------------------------------------------------------

PERFBENCH_WINDOW = 43_200.0


def perfbench_configs(seed, instances=4):
    """The perfbench fleet's shape: five services, one timeout_leak."""
    rng = random.Random(seed)
    leaky_index = rng.randrange(5)
    out = []
    for n in range(5):
        if n == leaky_index:
            mix = RequestMix().add(
                "checkout", timeout_leak.leaky, weight=1.0,
                payload_bytes=16 * 1024,
            )
        else:
            mix = RequestMix().add(
                "ping", healthy.request_response, weight=1.0
            )
        config = ServiceConfig(
            name=f"svc-{n:02d}",
            mix=mix,
            instances=instances,
            traffic=TrafficShape(requests_per_window=1),
            base_rss=64 * 1024 * 1024,
        )
        out.append((config, rng.randrange(1, 1_000_000)))
    return out


def serial(configs):
    fleet = Fleet()
    for config, seed in configs:
        fleet.add(Service(config, seed=seed))
    return fleet


def lingering_configs():
    return [(
        ServiceConfig(
            name="late",
            mix=lingering_mix(),
            instances=3,
            traffic=TrafficShape(requests_per_window=4),
        ),
        21,
    )]


def overrun_configs():
    # 6 requests x 30 s > a 120 s window: requests push the clock past
    # the window's end, so the window has no idle tail at all.
    return [(
        ServiceConfig(
            name="overrun",
            mix=lingering_mix(),
            instances=2,
            traffic=TrafficShape(requests_per_window=6,
                                 diurnal_fraction=0.5),
        ),
        33,
    )]


def idle_configs():
    # requests_at swings over [0, 2] and a surge of 0x silences hours
    # 6-9, so some windows serve no request at all.
    return [(
        ServiceConfig(
            name="idle",
            mix=RequestMix()
            .add("checkout", timeout_leak.leaky, weight=1.0,
                 payload_bytes=2048)
            .add("late", lingering, weight=1.0)
            .add("stuck", lingering, weight=1.0, linger=5000.0),
            instances=3,
            traffic=TrafficShape(
                requests_per_window=1,
                diurnal_fraction=2.0,
                surges=((6 * 3600.0, 9 * 3600.0, 0.0),),
            ),
        ),
        45,
    )]


def reclaiming_configs():
    return [
        (
            ServiceConfig(
                name="reclaim",
                mix=RequestMix()
                .add("early", premature_return.leaky, weight=2.0)
                .add("late", lingering, weight=1.0),
                instances=2,
                traffic=TrafficShape(requests_per_window=8),
                gc_interval=600.0,
                gc_policy=ReclaimPolicy.RECLAIM,
            ),
            57,
        ),
        (
            ServiceConfig(
                name="observe",
                mix=RequestMix().add("checkout", timeout_leak.leaky,
                                     weight=1.0, payload_bytes=1024),
                instances=2,
                traffic=TrafficShape(requests_per_window=5),
                gc_interval=900.0,
            ),
            58,
        ),
    ]


#: case -> (configs, windows, window seconds)
CASES = {
    "perfbench-seed1": (lambda: perfbench_configs(1), 14, PERFBENCH_WINDOW),
    "perfbench-seed7": (lambda: perfbench_configs(7), 14, PERFBENCH_WINDOW),
    # a window of 1000/3 s: no window edge is a whole number of seconds
    "lingering-main": (lingering_configs, 12, 1000.0 / 3),
    "overrun": (overrun_configs, 10, 120.0),
    "zero-request": (idle_configs, 24, 3600.0),
    "gc-reclaim": (reclaiming_configs, 6, 3600.0),
}

#: case -> (observed, internal), taken while the idle tail had a run of
#: its own.
PINS = {
    "gc-reclaim": (
        "ce4c1772106c7d2421f05a6e59b8500d6e188345e60123bd4f3fab159579968d",
        "bf5c35d9a50d21379a29c81249a078e627166f421b832f31a5306ed811f25f3d",
    ),
    "lingering-main": (
        "f8a1e97d6d4d08d7d7f96a7c9fa5d095bcfe93316688f1dca6cbe4a01ab20791",
        "356b5984d9536892680a25bf495a1395e061042148e358cb519341535822b9bf",
    ),
    "overrun": (
        "26265941091b47394846f4f776dbd8608cfa3ac1c6e210406dc3d001e3288742",
        "400e9699c98d6a1daa64bb5132f38c890452e6c530f7eefe504c684f94e27208",
    ),
    "perfbench-seed1": (
        "93e5148a9dc05f0f90f363fd5759d19c28a1da14573178470ccd413688e6ada1",
        "015d0df0a5e3a6a2ba517d0b6f2221981ebd0ed09057d6fbd3f00e02059fb3f4",
    ),
    "perfbench-seed7": (
        "8dc9f4730aed936278cc920570a93bc73aaecc92796d0d18afb3c2f1b9987b86",
        "c21fa8c5ab490fb098acd55ede7e0e463f541ce53f68047712178f9841ae2ff3",
    ),
    "zero-request": (
        "e44aaf30bef1bb96f3cc9a03a0949539e1b1307aa4c860059fe5fb40ffd10bae",
        "ae0023de38909be7eaba937da1b892237b0a28680d048257f93fbf994a6c35f5",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_digests_pinned(case):
    configs, windows, window = CASES[case]
    assert digests(serial(configs()), windows, window) == PINS[case]


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_matches_serial_pin(shards):
    configs, windows, window = CASES["perfbench-seed1"]
    with ShardedFleet(shards=shards) as fleet:
        for config, seed in configs():
            fleet.add_service(config, seed=seed)
        fleet.start()
        observed, _ = digests(fleet, windows, window)
    assert observed == PINS["perfbench-seed1"][0]


def test_cases_exercise_their_edges():
    """Each case really reaches the edge it is named for."""
    configs, windows, window = CASES["zero-request"]
    fleet = serial(configs())
    served = []
    for _ in range(windows):
        fleet.advance_window(window)
        served += [i.last_metrics.requests_served
                   for i in fleet.all_instances()]
    assert 0 in served and max(served) >= 2

    configs, windows, window = CASES["overrun"]
    fleet = serial(configs())
    fleet.advance_window(window)
    instance = fleet.all_instances()[0]
    assert instance.last_metrics.requests_served * 30.0 > window
    assert instance.runtime.now > window

    configs, windows, window = CASES["gc-reclaim"]
    fleet = serial(configs())
    for _ in range(windows):
        fleet.advance_window(window)
    reports = fleet.services["reclaim"].instances[0].runtime.gc_reports
    assert sum(r.reclaim.reclaimed for r in reports if r.reclaim) > 0

    configs, windows, window = CASES["lingering-main"]
    fleet = serial(configs())
    fleet.advance_window(window)
    # a 5000 s request outlives its 30 s deadline and the whole window
    assert any(
        r.name == "lingering"
        for i in fleet.all_instances()
        for r in snapshot_instance(i).runtime.records
    )


def panicking(rt, after=0.0):
    """A handler whose main goroutine panics ``after`` seconds in."""
    if after:
        yield sleep(after)
    raise Panic("handler failed")


@pytest.mark.parametrize("after", [0.0, 60.0])
def test_main_goroutine_panic_raises_from_the_window(after):
    """A request's main goroutine panicking is fatal to the window, also
    when it panics past its 30 s deadline inside the idle tail its run
    carries; the runtime still records the panic."""
    instance = ServiceInstance(
        service="s",
        mix=RequestMix().add("boom", panicking, weight=1.0, after=after),
        traffic=TrafficShape(requests_per_window=1, diurnal_fraction=0.0),
        seed=3,
    )
    with pytest.raises(Panic, match="handler failed"):
        instance.advance_window(600.0)
    assert [goro.name for goro, _exc in instance.runtime.panics] == [
        "panicking"
    ]

