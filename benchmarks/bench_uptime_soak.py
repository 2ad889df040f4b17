"""Uptime soak: does the simulator's own cost grow with uptime?

LeakProf targets long-running production instances, but perfbench's
episodes are one fresh week.  This bench runs the perfbench
``fleet-serial`` fleet (5 services x 50 instances, one §V
``timeout_leak`` service, one request per instance per 12-hour window,
seed 1) for 8 weeks (112 windows), timing every window's advance and
its read side: ``snapshot_instance`` -> ``.profile()`` -> ``scan_fleet``.
The leak parks one goroutine per leaky request, so the read side grows
with uptime while the advance should not.

Per week it records the median read and advance milliseconds, their
ratio, the process RSS, and the largest goroutine table and live count
of any runtime.  It is a measurement: the only assertion is that every
runtime's goroutine table holds exactly its live goroutines after every
window (finished goroutines leave the table).  The JSON also carries
``reference``: soaks recorded when this bench was added, at its parent
commit and at its own, which a run keeps as they are.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_uptime_soak.py -q -s``
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import resource
import statistics
import time
from typing import Dict, List

from repro.fleet import Fleet, RequestMix, Service, ServiceConfig, TrafficShape
from repro.leakprof import scan_fleet
from repro.patterns import healthy, timeout_leak
from repro.snapshot import snapshot_instance

from _emit import ARTIFACT_DIR, emit
from conftest import print_table

SEED = 1
SERVICES = 5
INSTANCES = 50
WINDOW_SECONDS = 43_200.0
WINDOWS_PER_WEEK = 14
WEEKS = 8
#: perfbench's fleet-serial threshold for a 14-window episode.
THRESHOLD = 3


def _fleet(seed: int) -> Fleet:
    """perfbench's fleet-serial fleet for ``seed`` (same draws)."""
    rng = random.Random(seed)
    leaky_index = rng.randrange(SERVICES)
    fleet = Fleet()
    for n in range(SERVICES):
        if n == leaky_index:
            mix = RequestMix().add(
                "checkout", timeout_leak.leaky, weight=1.0,
                payload_bytes=16 * 1024,
            )
        else:
            mix = RequestMix().add("ping", healthy.request_response, weight=1.0)
        config = ServiceConfig(
            name=f"svc-{n:02d}",
            mix=mix,
            instances=INSTANCES,
            traffic=TrafficShape(requests_per_window=1),
            base_rss=64 * 1024 * 1024,
        )
        fleet.add(Service(config, seed=rng.randrange(1, 1_000_000)))
    return fleet


def _rss_mb() -> float:
    """Current RSS in MB (peak RSS where /proc is missing)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def soak(seed: int = SEED, weeks: int = WEEKS) -> List[Dict]:
    """One soak; a row of figures per week."""
    fleet = _fleet(seed)
    runtimes = [instance.runtime for instance in fleet.all_instances()]
    gc.collect()
    rows = []
    for week in range(1, weeks + 1):
        advance_ms, read_ms = [], []
        largest_table = largest_live = 0
        for _ in range(WINDOWS_PER_WEEK):
            started = time.perf_counter()
            fleet.advance_window(WINDOW_SECONDS)
            advanced = time.perf_counter()
            scan_fleet(
                [snapshot_instance(i).profile() for i in fleet.all_instances()],
                threshold=THRESHOLD,
            )
            done = time.perf_counter()
            advance_ms.append((advanced - started) * 1e3)
            read_ms.append((done - advanced) * 1e3)
            for runtime in runtimes:
                table = len(runtime._goroutines)
                assert table == runtime.num_goroutines, (
                    f"{runtime.name}: {table} goroutine-table entries, "
                    f"{runtime.num_goroutines} live"
                )
                largest_table = max(largest_table, table)
                largest_live = max(largest_live, runtime.num_goroutines)
        read, advance = statistics.median(read_ms), statistics.median(advance_ms)
        rows.append({
            "week": week,
            "read_ms_p50": round(read, 3),
            "advance_ms_p50": round(advance, 3),
            "read_over_advance": round(read / advance, 3),
            "rss_mb": round(_rss_mb(), 1),
            "max_goroutine_table": largest_table,
            "max_live_goroutines": largest_live,
        })
    return rows


def test_uptime_soak():
    started = time.perf_counter()
    rows = soak()
    elapsed = time.perf_counter() - started
    print_table(
        f"Uptime soak: fleet-serial fleet, seed {SEED}, "
        f"{WEEKS} weeks ({elapsed:.1f} s)",
        ["week", "read ms", "advance ms", "read/advance", "RSS MB",
         "table", "live"],
        [[r["week"], r["read_ms_p50"], r["advance_ms_p50"],
          r["read_over_advance"], r["rss_mb"], r["max_goroutine_table"],
          r["max_live_goroutines"]] for r in rows],
    )
    path = ARTIFACT_DIR / "BENCH_uptime_soak.json"
    reference = None
    if path.exists():
        reference = json.loads(path.read_text()).get("reference")
    emit(
        "uptime_soak", "read_over_advance_week8", rows[-1]["read_over_advance"],
        unit="ratio", seed=SEED, windows=WEEKS * WINDOWS_PER_WEEK,
        seconds=round(elapsed, 2), python=platform.python_version(),
        cpus=os.cpu_count(), weeks=rows, reference=reference,
    )
