"""Scheduler & monitoring throughput, against pinned absolute baselines.

The paper's fleet evidence (Fig 6: ~10.7k instances, 8.6M blocked
goroutines at peak) only works if interpreting goroutines is cheap and
*observing* an instance costs O(1), not O(population).  This bench
measures both as absolute rates:

* **raw step throughput** — steps/sec of a channel ping-pong workload
  whose channel ops sit one ``yield from`` helper deep;
* **fleet-window sampling** — windows/sec over 1k service instances
  holding 100k parked leaked goroutines in total, sampled with the O(1)
  counter reads.  The same windows are also sampled through the full
  scans (the ``audit=True`` paths) that the counters replaced, and the
  counters must stay at least 5x faster.

The emitted JSON doubles as the CI regression gate: the committed
``baseline_steps_per_sec`` and ``baseline_windows_per_sec`` are pinned,
and a fresh run failing to reach 70% of either (>30% regression) fails
the benchmarks job.
"""

from __future__ import annotations

import json
import time

from repro.fleet import RequestMix, ServiceInstance, TrafficShape
from repro.runtime import Runtime
from repro.runtime.ops import alloc, go, recv, send

from _emit import ARTIFACT_DIR, emit
from conftest import print_table

SEED = 5
PING_ROUNDS = 20_000
FLEET_INSTANCES = 1_000
LEAKS_PER_INSTANCE = 100  # 100k parked leaked goroutines fleet-wide
SAMPLING_WINDOWS = 3
WINDOW = 3600.0

#: CI gate: fail when a measured rate drops >30% below its pinned value.
REGRESSION_TOLERANCE = 0.30


# ---------------------------------------------------------------------------
# Raw step throughput: channel ping-pong
# ---------------------------------------------------------------------------


def run_ping_pong(rounds: int) -> Runtime:
    """Two goroutines exchanging ``rounds`` messages over unbuffered chans.

    The channel ops live one ``yield from`` helper deep, mirroring how
    every workload in this repo blocks (pattern bodies, ``chan_range``,
    the remedy ``drained`` harness all delegate to sub-generators) — the
    park-site stack is a real chain, as it is in production Go.
    """
    rt = Runtime(seed=SEED)

    def transmit(ch, value):
        yield send(ch, value)

    def receive(ch):
        return (yield recv(ch))

    def player_a(ping, pong, done):
        for _ in range(rounds):
            yield from transmit(ping, 1)
            yield from receive(pong)
        yield from transmit(done, True)

    def player_b(ping, pong):
        for _ in range(rounds):
            yield from receive(ping)
            yield from transmit(pong, 1)

    def main(rt):
        ping = rt.make_chan()
        pong = rt.make_chan()
        done = rt.make_chan()
        yield go(player_a, ping, pong, done)
        yield go(player_b, ping, pong)
        yield from receive(done)

    rt.run(main, rt)
    return rt


def measure_steps_per_sec() -> float:
    run_ping_pong(500)  # warmup
    best = 0.0
    for _ in range(2):
        start = time.perf_counter()
        rt = run_ping_pong(PING_ROUNDS)
        elapsed = time.perf_counter() - start
        best = max(best, rt.steps / elapsed)
    return best


# ---------------------------------------------------------------------------
# Fleet-window sampling: 1k instances, 100k parked leaked goroutines
# ---------------------------------------------------------------------------


def build_leaky_fleet():
    def victim(ch):
        yield alloc(2048)
        yield recv(ch)  # parked forever: the leak

    def leak_seed(rt):
        ch = rt.make_chan()
        for _ in range(LEAKS_PER_INSTANCE):
            yield go(victim, ch)

    instances = []
    for index in range(FLEET_INSTANCES):
        instance = ServiceInstance(
            service="fleetbench",
            mix=RequestMix(),
            traffic=TrafficShape(requests_per_window=0),
            seed=SEED * 1000 + index,
            name=f"fleetbench/i-{index}",
        )
        instance.runtime.run(
            leak_seed, instance.runtime, detect_global_deadlock=False
        )
        instances.append(instance)
    return instances


def scan_window(instance: ServiceInstance, window: float) -> None:
    """``advance_window`` sampled through the full scans (audit paths)."""
    rt = instance.runtime
    t = rt.now
    rt.advance(max(0.0, (t + window) - rt.now))
    rt.rss(audit=True)
    len(rt.live_goroutines())
    instance.cpu_model.utilization(rt.now, len(rt.blocked_goroutines()))


def measure_windows_per_sec(instances, scans: bool) -> float:
    start = time.perf_counter()
    for _ in range(SAMPLING_WINDOWS):
        if scans:
            for instance in instances:
                scan_window(instance, WINDOW)
        else:
            for instance in instances:
                instance.advance_window(WINDOW)
    elapsed = time.perf_counter() - start
    return SAMPLING_WINDOWS / elapsed


# ---------------------------------------------------------------------------
# The bench
# ---------------------------------------------------------------------------


def test_sched_and_sampling_throughput():
    steps_per_sec = measure_steps_per_sec()

    instances = build_leaky_fleet()
    total_parked = sum(i.runtime.blocked_goroutines_count for i in instances)
    assert total_parked == FLEET_INSTANCES * LEAKS_PER_INSTANCE
    scan_wps = measure_windows_per_sec(instances, scans=True)
    windows_per_sec = measure_windows_per_sec(instances, scans=False)
    sampling_speedup = windows_per_sec / scan_wps

    artifact = ARTIFACT_DIR / "BENCH_sched_throughput.json"
    committed = {}
    if artifact.exists():
        committed = json.loads(artifact.read_text())
    baseline_steps = committed.get("baseline_steps_per_sec") or round(
        steps_per_sec
    )
    baseline_windows = committed.get("baseline_windows_per_sec") or round(
        windows_per_sec, 3
    )

    print_table(
        "Scheduler & monitoring throughput (absolute, against pins)",
        ["metric", "measured", "pinned baseline", "floor"],
        [
            (
                "steps/sec (ping-pong)",
                f"{steps_per_sec:,.0f}",
                f"{baseline_steps:,}",
                f"{(1.0 - REGRESSION_TOLERANCE) * baseline_steps:,.0f}",
            ),
            (
                f"fleet windows/sec ({FLEET_INSTANCES} inst, {total_parked:,} parked)",
                f"{windows_per_sec:.3f}",
                f"{baseline_windows:.3f}",
                f"{(1.0 - REGRESSION_TOLERANCE) * baseline_windows:.3f}",
            ),
            (
                "fleet windows/sec through full scans",
                f"{scan_wps:.3f}",
                "",
                f"counters {sampling_speedup:.1f}x faster (>= 5x)",
            ),
        ],
    )

    emit(
        "sched_throughput",
        metric="steps_per_sec",
        value=round(steps_per_sec),
        unit="steps/s",
        seed=SEED,
        windows_per_sec=round(windows_per_sec, 3),
        scan_windows_per_sec=round(scan_wps, 3),
        sampling_speedup=round(sampling_speedup, 1),
        fleet_instances=FLEET_INSTANCES,
        parked_leaked_goroutines=total_parked,
        sampling_windows=SAMPLING_WINDOWS,
        ping_rounds=PING_ROUNDS,
        baseline_steps_per_sec=baseline_steps,
        baseline_windows_per_sec=baseline_windows,
    )

    assert sampling_speedup >= 5.0, (
        f"fleet-window sampling only {sampling_speedup:.1f}x faster"
    )
    # CI regression gates against the committed baselines.
    floor = (1.0 - REGRESSION_TOLERANCE) * baseline_steps
    assert steps_per_sec >= floor, (
        f"steps/sec regressed >30%: {steps_per_sec:,.0f} < {floor:,.0f} "
        f"(baseline {baseline_steps:,})"
    )
    floor = (1.0 - REGRESSION_TOLERANCE) * baseline_windows
    assert windows_per_sec >= floor, (
        f"windows/sec regressed >30%: {windows_per_sec:.3f} < {floor:.3f} "
        f"(baseline {baseline_windows:.3f})"
    )
