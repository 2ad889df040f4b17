"""Observability overhead: the instrumented hot path vs metrics off.

The paper's production bar is that monitoring must be featherlight
(<1% CPU for LeakProf's collection plane); :mod:`repro.obs` holds itself
to the same discipline by instrumenting at *run/window granularity*,
never per interpreter step: a run adds its wall time and steps to its
runtime's plain tally, an instance-window its wall time and requests to
the instance's, and :mod:`repro.obs.fold` publishes them once per
service-window (or per standalone run).  Two workloads gate it, each run
with the default registry enabled and disabled, interleaved so
thermal/JIT drift hits both sides equally:

* ``test_obs_overhead`` — the ping-pong from ``bench_sched_throughput``:
  20k rounds in one run, so per-run recording amortizes to ~0.  Gate:
  ``OBS_OVERHEAD_TOLERANCE`` (5%) of steps/sec, best of 3 pairs.
* ``test_obs_overhead_fleet`` — an in-process week of a 250-instance
  fleet with a LeakProf sweep (snapshot -> profile -> scan) after every
  window.  Each run is a request of a few interpreter steps and every
  instance-window is timed, so little amortizes.  Gate:
  ``FLEET_OBS_OVERHEAD_TOLERANCE`` (20%) of CPU seconds, the median over
  alternating pairs; the JSON also records their interquartile range.

Both figures land in ``BENCH_obs_overhead.json``; either gate failing
fails the benchmarks job.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from typing import Any, Dict

from repro import obs
from repro.fleet import Fleet, RequestMix, Service, ServiceConfig, TrafficShape
from repro.leakprof import scan_fleet
from repro.patterns import healthy, timeout_leak
from repro.snapshot import snapshot_instance

from _emit import emit
from bench_sched_throughput import PING_ROUNDS, SEED, run_ping_pong
from conftest import print_table

#: CI gate: instrumentation may cost at most this fraction of steps/sec.
OBS_OVERHEAD_TOLERANCE = 0.05

#: Interleaved (disabled, enabled) measurement pairs; best-of wins, so a
#: single noisy pair cannot fake a regression on either side.
PAIRS = 3

#: CI gate: on the fleet week, metrics may cost at most this fraction of
#: the CPU seconds the same week takes with them off.
FLEET_OBS_OVERHEAD_TOLERANCE = 0.20

#: The fleet week: 5 services x 50 instances, 14 twelve-hour windows,
#: one request per instance-window; service 0 carries the §V leak, which
#: crosses the sweep's suspect threshold early in the week.
FLEET_SERVICES = 5
FLEET_INSTANCES = 50
FLEET_WINDOWS = 14
FLEET_WINDOW_SECONDS = 43_200.0
FLEET_THRESHOLD = 3

#: Alternating one-episode (off, on) pairs; the gate reads the median of
#: the per-pair ratios, so one noisy episode moves it by at most a rank.
FLEET_PAIRS = 15

#: Both gates' figures, re-emitted after each test so the JSON carries
#: whichever have run (CI runs both).
_RECORD: Dict[str, Any] = {"metric": "steps_per_sec_overhead", "value": None}


def _emit_record() -> None:
    record = dict(_RECORD)
    emit("obs_overhead", record.pop("metric"), record.pop("value"),
         unit="fraction", seed=SEED, python=platform.python_version(),
         cpus=os.cpu_count(), **record)


def _one_run() -> float:
    start = time.perf_counter()
    rt = run_ping_pong(PING_ROUNDS)
    return rt.steps / (time.perf_counter() - start)


def measure_pair() -> tuple:
    """(steps/sec with obs disabled, steps/sec with obs enabled)."""
    obs.configure(enabled=False, trace_enabled=False)
    disabled = _one_run()
    obs.configure(enabled=True, trace_enabled=True)
    enabled = _one_run()
    return disabled, enabled


def test_obs_overhead():
    was_enabled = obs.enabled()
    try:
        obs.configure(enabled=False, trace_enabled=False)
        run_ping_pong(500)  # warmup
        best_disabled = 0.0
        best_enabled = 0.0
        for _ in range(PAIRS):
            disabled, enabled = measure_pair()
            best_disabled = max(best_disabled, disabled)
            best_enabled = max(best_enabled, enabled)
    finally:
        obs.configure(enabled=was_enabled, trace_enabled=was_enabled)
        obs.reset()

    overhead = max(0.0, 1.0 - best_enabled / best_disabled)

    print_table(
        "Observability overhead (ping-pong steps/sec)",
        ["metric", "obs off", "obs on", "overhead"],
        [
            (
                "steps/sec (best of 3)",
                f"{best_disabled:,.0f}",
                f"{best_enabled:,.0f}",
                f"{overhead:.2%}",
            )
        ],
    )

    _RECORD.update(
        value=round(overhead, 4),
        steps_per_sec_disabled=round(best_disabled),
        steps_per_sec_enabled=round(best_enabled),
        ping_rounds=PING_ROUNDS,
        pairs=PAIRS,
        tolerance=OBS_OVERHEAD_TOLERANCE,
    )
    _emit_record()

    assert overhead <= OBS_OVERHEAD_TOLERANCE, (
        f"instrumentation costs {overhead:.2%} of steps/sec "
        f"(tolerance {OBS_OVERHEAD_TOLERANCE:.0%}): "
        f"{best_enabled:,.0f} on vs {best_disabled:,.0f} off"
    )


def _fleet() -> Fleet:
    fleet = Fleet()
    for n in range(FLEET_SERVICES):
        if n == 0:
            mix = RequestMix().add(
                "checkout", timeout_leak.leaky, weight=1.0,
                payload_bytes=16 * 1024,
            )
        else:
            mix = RequestMix().add("ping", healthy.request_response,
                                   weight=1.0)
        config = ServiceConfig(
            name=f"svc-{n:02d}",
            mix=mix,
            instances=FLEET_INSTANCES,
            traffic=TrafficShape(requests_per_window=1),
            base_rss=64 * 1024 * 1024,
        )
        fleet.add(Service(config, seed=SEED + n))
    return fleet


def _fleet_week(enabled: bool) -> tuple:
    """One week, advance plus sweep per window: (CPU seconds, outputs)."""
    obs.configure(enabled=enabled, trace_enabled=enabled)
    fleet = _fleet()
    # Reap the previous week's runtimes now, not inside the timed loop.
    gc.collect()
    suspects = []
    start = time.process_time()
    for _ in range(FLEET_WINDOWS):
        fleet.advance_window(FLEET_WINDOW_SECONDS)
        profiles = [
            snapshot_instance(instance).profile()
            for instance in fleet.all_instances()
        ]
        suspects.append(scan_fleet(profiles, threshold=FLEET_THRESHOLD))
    cpu = time.process_time() - start
    histories = {name: svc.history for name, svc in fleet.services.items()}
    return cpu, (histories, suspects)


def test_obs_overhead_fleet():
    was_enabled = obs.enabled()
    off: list = []
    on: list = []
    try:
        _cpu, reference = _fleet_week(True)  # warmup
        for pair in range(FLEET_PAIRS):
            # Alternate which side goes first so drift cancels out.
            for enabled in ((False, True) if pair % 2 == 0 else (True, False)):
                cpu, outputs = _fleet_week(enabled)
                (on if enabled else off).append(cpu)
                assert outputs == reference, (
                    "metrics on/off changed the fleet's histories or suspects"
                )
    finally:
        obs.configure(enabled=was_enabled, trace_enabled=was_enabled)
        obs.reset()

    ratios = [enabled / disabled - 1.0 for enabled, disabled in zip(on, off)]
    overhead = statistics.median(ratios)
    low, _median, high = statistics.quantiles(ratios, n=4)
    units = FLEET_SERVICES * FLEET_INSTANCES * FLEET_WINDOWS

    print_table(
        "Observability overhead (fleet week, CPU per instance-window)",
        ["metric", "obs off", "obs on", "overhead"],
        [
            (
                f"us/instance-window (median of {FLEET_PAIRS} pairs)",
                f"{statistics.median(off) / units * 1e6:,.1f}",
                f"{statistics.median(on) / units * 1e6:,.1f}",
                f"{overhead:.2%}",
            )
        ],
    )

    _RECORD["fleet"] = {
        "metric": "cpu_seconds_overhead",
        "value": round(overhead, 4),
        "unit": "fraction",
        "statistic": "median of per-pair (on / off - 1)",
        "pair_overheads": [round(r, 4) for r in ratios],
        "iqr": [round(low, 4), round(high, 4)],
        "cpu_us_per_instance_window_disabled": round(
            statistics.median(off) / units * 1e6, 2),
        "cpu_us_per_instance_window_enabled": round(
            statistics.median(on) / units * 1e6, 2),
        "services": FLEET_SERVICES,
        "instances_per_service": FLEET_INSTANCES,
        "windows": FLEET_WINDOWS,
        "pairs": FLEET_PAIRS,
        "tolerance": FLEET_OBS_OVERHEAD_TOLERANCE,
    }
    _emit_record()

    assert overhead <= FLEET_OBS_OVERHEAD_TOLERANCE, (
        f"instrumentation costs {overhead:.2%} of the fleet week's CPU "
        f"(tolerance {FLEET_OBS_OVERHEAD_TOLERANCE:.0%}); per-pair "
        f"overheads {[f'{r:.1%}' for r in ratios]}"
    )
