"""The two fleet workloads: ``fleet-serial`` and ``fleet-async``.

Both run the same fleet: five services, one of which carries the
paper's §V ``timeout_leak`` handler while the others serve
``healthy.request_response``, at one request per instance per 12-hour
window.  An episode is one simulated week (14 windows) of a freshly
built fleet; a run repeats identical episodes until its time budget is
spent, so the per-window cost never depends on how fast earlier windows
ran.  The op is one committed window.

* ``fleet-serial`` advances an in-process :class:`repro.fleet.Fleet` and
  runs a full ``snapshot_instance`` -> ``.profile()`` -> ``scan_fleet``
  sweep every window.
* ``fleet-async`` drives :class:`repro.fleet.ShardedFleet` (2 shards)
  through ``begin_advance``/``poll`` with a lead bound of 2 and asks the
  online scorer for ``suspects()`` at each watermark step.  After the
  measured phase its histories and suspects are compared with a serial
  reference computed for the same seed.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from harness import (
    OFF,
    Outcome,
    Spans,
    median,
    peak_rss_mb,
    proc_peak_rss_mb,
    series_total,
)

from repro import obs
from repro.fleet import (
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ShardedFleet,
    TrafficShape,
)
from repro.leakprof import scan_fleet
from repro.patterns import healthy, timeout_leak
from repro.snapshot import snapshot_instance

WINDOW = 43_200.0
SERVICES = 5
SHARDS = 2
LEAD = 2


@dataclass(frozen=True)
class Size:
    instances_per_service: int
    windows: int

    @property
    def threshold(self) -> int:
        # The leaky service parks one goroutine per request, so this is
        # crossed early in the week: most windows' detection passes then
        # report suspects, and the read side's median sits inside that
        # regime instead of on the edge between empty and full answers.
        return max(2, self.windows // 4)

    @property
    def instances(self) -> int:
        return self.instances_per_service * SERVICES


FULL = Size(instances_per_service=50, windows=14)
TINY = Size(instances_per_service=2, windows=4)


def configs(seed: int, size: Size) -> List[Tuple[ServiceConfig, int]]:
    """The fleet for ``seed``: which service leaks and every service seed."""
    rng = random.Random(seed)
    leaky_index = rng.randrange(SERVICES)
    out = []
    for n in range(SERVICES):
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
            instances=size.instances_per_service,
            traffic=TrafficShape(requests_per_window=1),
            base_rss=64 * 1024 * 1024,
        )
        out.append((config, rng.randrange(1, 1_000_000)))
    return out


def expected_suspects(seed: int, size: Size) -> List[List[tuple]]:
    """Construction-time expectation, per window (index 0 = window 1).

    The leaky handler parks one goroutine per request at one location,
    so after window ``w`` each leaky instance holds the requests served
    so far; it is a suspect once that reaches the threshold.  Healthy
    services never are.
    """
    leaky = [
        config for config, _seed in configs(seed, size)
        if config.mix.handlers[0].body is timeout_leak.leaky
    ]
    expected = []
    served = 0
    for w in range(size.windows):
        served += leaky[0].traffic.requests_at(w * WINDOW)
        expected.append([
            (config.name, f"{config.name}/i-{index}", "chan send", served)
            for config in leaky
            for index in range(config.instances)
            if served >= size.threshold
        ])
    return expected


_LEAK_FILE = Path(timeout_leak.__file__).name


def suspects_match(suspects, expected: List[tuple]) -> bool:
    """Do ``suspects`` equal the expectation, all at the leak's location?"""
    got = [(s.service, s.instance, s.state, s.count) for s in suspects]
    return got == expected and all(
        _LEAK_FILE in s.location for s in suspects
    )


def build_serial(seed: int, size: Size = FULL) -> Fleet:
    fleet = Fleet()
    for config, service_seed in configs(seed, size):
        fleet.add(Service(config, seed=service_seed))
    return fleet


def build_sharded(seed: int, size: Size = FULL) -> ShardedFleet:
    fleet = ShardedFleet(shards=SHARDS)
    for config, service_seed in configs(seed, size):
        fleet.add_service(config, seed=service_seed)
    return fleet.start()


def _histories(fleet) -> Dict[str, list]:
    return {name: list(svc.history) for name, svc in fleet.services.items()}


# -- fleet-serial --------------------------------------------------------------


def serial_episode(fleet: Fleet, size: Size, spans: Spans):
    """Run one week on ``fleet``.

    Returns per-window wall ms, the detection-sweep part of it (ms), and
    each window's ``scan_fleet`` suspects.
    """
    times: List[float] = []
    sweeps: List[float] = []
    per_window: List[list] = []
    for _window in range(size.windows):
        started = perf_counter()
        op = spans.begin_op("fleet-serial.window")
        token = spans.begin("fleet.advance")
        fleet.advance_window(WINDOW)
        spans.end(token)
        advanced = perf_counter()
        profiles = []
        for instance in fleet.all_instances():
            token = spans.begin("snapshot.freeze")
            snap = snapshot_instance(instance)
            spans.end(token)
            token = spans.begin("profiling.profile")
            profiles.append(snap.profile())
            spans.end(token)
        token = spans.begin("leakprof.scan")
        suspects = scan_fleet(profiles, threshold=size.threshold)
        spans.end(token)
        spans.end_op(op)
        done = perf_counter()
        times.append((done - started) * 1e3)
        sweeps.append((done - advanced) * 1e3)
        per_window.append(suspects)
    return times, sweeps, per_window


def run_serial(seed: int, seconds: Optional[float] = None,
               episodes: Optional[int] = None, spans: Spans = OFF,
               corrupt: bool = False, size: Size = FULL) -> Outcome:
    """Closed loop of serial episodes; every window's suspects checked."""
    out = Outcome()
    expected = expected_suspects(seed, size)
    first: Optional[Dict[str, list]] = None
    reg = obs.default_registry()
    runs0 = series_total(reg, "repro_sched_runs_total")
    steps0 = series_total(reg, "repro_sched_steps_total")
    while out.more(seconds, episodes):
        fleet = build_serial(seed, size)
        gc.collect()
        cpu0, wall0 = process_time(), perf_counter()
        times, sweeps, per_window = serial_episode(fleet, size, spans)
        cpu_s, wall_s = process_time() - cpu0, perf_counter() - wall0
        out.op_ms.extend(times)
        out.scan_ms.extend(sweeps)
        out.add_episode(size.instances * size.windows, wall_s, cpu_s)
        histories = _histories(fleet)
        # Every episode replays the same inputs, so histories must repeat.
        if first is None:
            first = histories
        for window, suspects in enumerate(per_window):
            if corrupt:
                suspects = suspects[1:]
            out.check(
                suspects_match(suspects, expected[window])
                and all(
                    histories[name][window] == first[name][window]
                    for name in first
                ),
                f"window {window + 1}: output differs from expectation",
            )
        del fleet
    out.peak_rss_mb = peak_rss_mb()
    if spans.enabled:
        runs = series_total(reg, "repro_sched_runs_total") - runs0
        steps = series_total(reg, "repro_sched_steps_total") - steps0
        windows = len(out.op_ms)
        selfs = spans.self_ms_by_name()
        layers = {
            f"{span}_ms": selfs.get(span, 0.0) / windows
            for span in ("fleet.advance", "snapshot.freeze",
                         "profiling.profile", "leakprof.scan")
        }
        for name, value in layers.items():
            out.layers[name] = (value, "ms")
        op_ms = spans.total_ms_by_name()["fleet-serial.window"] / windows
        out.layers["layers.coverage_pct"] = (
            100.0 * sum(layers.values()) / op_ms, "%")
        out.layers["runtime.runs"] = (runs / out.total_units, "runs/unit")
        out.layers["runtime.steps"] = (
            steps / out.total_units, "steps/unit")
        out.layers["runtime.steps_per_run"] = (steps / runs, "steps/run")
    return out


# -- fleet-async -------------------------------------------------------------


def async_episode(fleet: ShardedFleet, size: Size, spans: Spans):
    """Pump one week through ``fleet`` with a lead bound.

    Returns per-window commit latency (ms, from the first ``begin_advance``
    of that window to the ``suspects()`` answer at its commit), each
    ``suspects()`` query's ms, and the ``(watermark, suspects)`` pairs
    queried at each watermark step.
    """
    sent = list(fleet.shard_windows)
    begun: Dict[int, float] = {}
    latencies: List[float] = []
    queries: List[float] = []
    queried: List[Tuple[int, list]] = []
    op = spans.begin_op("fleet-async.episode")
    while fleet.watermark < size.windows:
        issued = False
        for shard in range(SHARDS):
            if sent[shard] > fleet.shard_windows[shard]:
                continue  # its advance is still in flight
            nxt = sent[shard] + 1
            if nxt > size.windows or nxt - fleet.watermark > LEAD:
                continue
            token = spans.begin("fleet.shard.begin")
            fleet.begin_advance(shard, WINDOW)
            spans.end(token)
            begun.setdefault(nxt, perf_counter())
            sent[shard] = nxt
            issued = True
        before = fleet.watermark
        token = spans.begin("fleet.shard.poll")
        fleet.poll(timeout=0.0 if issued else 0.05)
        spans.end(token)
        if fleet.watermark > before:
            asked = perf_counter()
            token = spans.begin("leakprof.streaming.query")
            suspects = fleet.suspects(threshold=size.threshold)
            spans.end(token)
            done = perf_counter()
            queries.append((done - asked) * 1e3)
            queried.append((fleet.watermark, suspects))
            for window in range(before + 1, fleet.watermark + 1):
                latencies.append((done - begun[window]) * 1e3)
    spans.end_op(op)
    return latencies, queries, queried


def run_async(seed: int, seconds: Optional[float] = None,
              episodes: Optional[int] = None, spans: Spans = OFF,
              corrupt: bool = False, size: Size = FULL) -> Outcome:
    """Closed loop of sharded async episodes, checked against serial."""
    out = Outcome()
    results = []
    spawn_s: List[float] = []
    worker_rss: List[float] = []
    parent_cpu = worker_cpu = 0.0
    wire: Dict[str, int] = {}
    stale = resyncs = spread = 0
    while out.more(seconds, episodes):
        gc.collect()  # keep the last episode's garbage out of the forks
        started = perf_counter()
        fleet = build_sharded(seed, size)
        spawn_s.append(perf_counter() - started)
        try:
            cpu0, wall0 = process_time(), perf_counter()
            latencies, queries, queried = async_episode(fleet, size, spans)
            episode_cpu = process_time() - cpu0
            episode_wall = perf_counter() - wall0
            histories = _histories(fleet)
            worker_rss.append(max(
                proc_peak_rss_mb(child.pid)
                for child in multiprocessing.active_children()
            ))
        finally:
            fleet.close()
        parent_cpu += episode_cpu
        worker_cpu += fleet.worker_cpu_seconds
        out.op_ms.extend(latencies)
        out.scan_ms.extend(queries)
        out.add_episode(size.instances * size.windows, episode_wall,
                        episode_cpu + fleet.worker_cpu_seconds)
        for command, nbytes in fleet.wire_bytes_by_command.items():
            wire[command] = wire.get(command, 0) + nbytes
        stale += fleet.stale_deltas
        resyncs += fleet.full_resyncs
        spread = max(spread, fleet.max_window_spread)
        if corrupt:
            queried = [(w, suspects[1:]) for w, suspects in queried]
        results.append((histories, dict(queried)))
    out.peak_rss_mb = peak_rss_mb()
    # Outside the measured phase: the serial reference for this seed.
    expected = expected_suspects(seed, size)
    reference = build_serial(seed, size)
    _times, _sweeps, ref_suspects = serial_episode(reference, size, OFF)
    ref_histories = _histories(reference)
    for histories, queried in results:
        for window in range(size.windows):
            suspects = queried.get(window + 1, ref_suspects[window])
            out.check(
                suspects == ref_suspects[window]
                and suspects_match(suspects, expected[window])
                and all(
                    histories[name][window] == ref_histories[name][window]
                    for name in ref_histories
                ),
                f"window {window + 1}: output differs from serial",
            )
    if spans.enabled:
        windows = out.episodes * size.windows
        selfs = spans.self_ms_by_name()
        begin_ms = selfs.get("fleet.shard.begin", 0.0)
        poll_ms = selfs.get("fleet.shard.poll", 0.0)
        query_ms = selfs.get("leakprof.streaming.query", 0.0)
        out.layers["fleet.shard.begin_ms"] = (begin_ms / windows, "ms")
        out.layers["fleet.shard.poll_ms"] = (poll_ms / windows, "ms")
        out.layers["leakprof.streaming.query_ms"] = (query_ms / len(out.scan_ms), "ms")
        # The parent's episode wall is tiled by these three (poll includes
        # waiting on the workers), so they should cover nearly all of it.
        out.layers["layers.coverage_pct"] = (
            100.0 * (begin_ms + poll_ms + query_ms)
            / spans.total_ms_by_name()["fleet-async.episode"], "%")
        out.layers["fleet.shard.parent_cpu_ms"] = (
            parent_cpu * 1e3 / windows, "ms")
        out.layers["fleet.shard.worker_cpu_ms"] = (
            worker_cpu * 1e3 / windows, "ms")
        out.layers["fleet.shard.wire_bytes"] = (
            sum(wire.values()) / windows, "B")
        for command in ("advance", "init"):
            out.layers[f"fleet.shard.wire_bytes.{command}"] = (
                wire.get(command, 0) / windows, "B")
        out.layers["fleet.shard.stale_deltas"] = (stale, "count")
        out.layers["fleet.shard.full_resyncs"] = (resyncs, "count")
        out.layers["fleet.shard.max_window_spread"] = (spread, "windows")
        out.layers["fleet.shard.spawn_s"] = (median(spawn_s), "s")
        out.layers["fleet.worker_rss_mb"] = (median(worker_rss), "MB")
    return out
