"""Fleet scale-out: continuous detection, single-process vs sharded.

The paper's regime is thousands of service instances monitored
*continuously*; ``Fleet.advance_window`` steps them serially and every
detection pass re-sweeps the world, so a production-scale week is
wall-clock bound in one Python process.  This bench drives the same
simulated week through two execution planes and records the results in
``BENCH_fleet_scale.json``:

* **single process** — advance serially, then snapshot + profile +
  ``scan_fleet`` every window (the batch sweep the paper starts from);
* **sharded** — workers ship per-signature deltas (each changed
  signature's count, least gid, proof flag and one representative
  record) plus one compressed block of O(1) stat rows per reply; the
  parent's online scorer answers each window's suspect query from
  those summaries with **zero** wire traffic, and the final daily run
  pulls full snapshots from the workers once.  Run in lockstep at 1, 2
  and ``SHARDS`` shards, and with free-running (watermarked async)
  windows at 2 shards.

Four assertions gate the result:

* **determinism** — ``ServiceSample`` histories, the per-window suspect
  lists, and the final LeakProf daily run must be byte-identical to the
  single-process reference for the 1-, 2- and ``SHARDS``-shard lockstep
  runs; the async run's histories and final daily run must be too.
  Parallelism that changed a single sample would be a wrong answer
  delivered faster.  This gate always applies.
* **speedup** — the ``SHARDS``-shard lockstep run must beat serial by
  ``FLEET_SCALE_MIN_SPEEDUP`` (default 2.5x).  Enforced only when the
  machine exposes at least ``SHARDS`` CPUs — parallel speedup is a
  hardware property, and a 1-CPU container can only time-slice; the
  JSON records ``cpus`` and ``min_speedup_enforced`` so every number is
  interpretable.
* **protocol overhead** — a 1-shard lockstep run must cost at most
  ``FLEET_SCALE_MAX_PROTOCOL_OVERHEAD`` (default 1.05x) of serial,
  measured in **CPU seconds** (worker compute reported at ``stop`` +
  parent compute over the window loop, against serial's process time).
  This is the software half of the speedup story — on k cores the
  speedup is ~k divided by this — and CPU time is what makes it
  *always* enforceable, on any host: wall-clock ratios on a loaded
  shared machine swing +/-15% from scheduler contention alone, CPU
  ratios don't.
* **wire economy** — the ``SHARDS``-shard run must move fewer than
  ``FLEET_SCALE_MAX_BYTES_RATIO`` (default 25%) of the bytes a window's
  full snapshots take pickled (``snapshot_instance`` over every
  instance, measured in the serial run, outside its timer) — what
  shipping whole snapshots back each window would cost.  Deltas that
  silently grew back into full snapshots would still be "correct",
  just pointless.  The final snapshot pull counts in these bytes; the
  JSON records each run's ``wire_bytes_by_command`` so advance bytes and
  the pull's (``snapshots``) can be read apart.

CI runs a reduced size via the ``FLEET_SCALE_*`` environment knobs (see
.github/workflows/ci.yml).  Only a run at the committed size
(``FULL_SIZE``: 2000 instances, 14 windows) writes
``BENCH_fleet_scale.json``; any other size writes
``BENCH_fleet_scale_reduced.json``, which is not committed, so a reduced
run never replaces the full-size record.
"""

from __future__ import annotations

import gc
import os
import pickle
import time

from repro.fleet import (
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ShardedFleet,
    TrafficShape,
)
from repro.leakprof import LeakProf, scan_fleet
from repro.patterns import healthy, timeout_leak
from repro.snapshot import snapshot_instance

from _emit import emit
from conftest import print_table

SEED = 11
WINDOW = 43_200.0  # 12h windows: 14 per simulated week

#: (instances, windows) of the committed ``BENCH_fleet_scale.json``.
FULL_SIZE = (2000, 14)
#: Reduced-size knobs for CI; defaults reproduce the committed run.
INSTANCES = int(os.environ.get("FLEET_SCALE_INSTANCES", str(FULL_SIZE[0])))
WINDOWS = int(os.environ.get("FLEET_SCALE_WINDOWS", str(FULL_SIZE[1])))
SHARDS = int(os.environ.get("FLEET_SCALE_SHARDS", "4"))
MIN_SPEEDUP = float(os.environ.get("FLEET_SCALE_MIN_SPEEDUP", "2.5"))
#: The always-on software gate: one shard's advance + delta-ship +
#: online scoring may cost at most this factor of serial advance +
#: in-process sweep.
MAX_PROTOCOL_OVERHEAD = float(
    os.environ.get("FLEET_SCALE_MAX_PROTOCOL_OVERHEAD", "1.05")
)
#: Sharded bytes-per-window must stay under this fraction of a window's
#: pickled full snapshots.
MAX_BYTES_RATIO = float(os.environ.get("FLEET_SCALE_MAX_BYTES_RATIO", "0.25"))
#: The runs feeding *enforced ratios* (serial, 1-shard and
#: ``SHARDS``-shard lockstep) are timed per-window best-of-N: the
#: simulated week is deterministic, so repeat wall-clocks differ only
#: by scheduler noise, and the elementwise-minimum window profile is
#: the robust estimator — a single whole-run timing on a shared host
#: can swing the ratio +/-15% (and a sustained CPU-steal burst can
#: poison every window of one whole repeat, which run-level minima
#: cannot dodge).
TIMING_REPEATS = int(os.environ.get("FLEET_SCALE_TIMING_REPEATS", "3"))

try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux
    CPUS = os.cpu_count() or 1

#: Criterion-1 threshold scaled to the run: the leaky service parks one
#: goroutine per request, so half the windows' worth is comfortably
#: above noise and below the accumulated total at any run size.
THRESHOLD = max(2, WINDOWS // 2)

#: Five services share the fleet; one carries the paper's timeout leak.
N_SERVICES = 5


def _mix(leaky: bool) -> RequestMix:
    if leaky:
        return RequestMix().add(
            "checkout", timeout_leak.leaky, weight=1.0,
            payload_bytes=16 * 1024,
        )
    return RequestMix().add("ping", healthy.request_response, weight=1.0)


def _configs():
    per_service = max(1, INSTANCES // N_SERVICES)
    configs = []
    for n in range(N_SERVICES):
        configs.append(
            (
                ServiceConfig(
                    name=f"svc-{n:02d}",
                    mix=_mix(leaky=(n == 0)),
                    instances=per_service,
                    traffic=TrafficShape(requests_per_window=1),
                    base_rss=64 * 1024 * 1024,
                ),
                SEED + n,
            )
        )
    return configs


def _run_single(measure_bytes: bool = False):
    """Serial advance + a full snapshot/profile/scan sweep per window.

    ``measure_bytes`` also pickles each window's snapshot list, after
    the window's timers stop: the wire-economy gate's denominator.
    """
    fleet = Fleet()
    for config, seed in _configs():
        fleet.add(Service(config, seed=seed))
    per_window = []
    window_times = []
    snapshot_bytes = []
    cpu_seconds = 0.0
    # Collect the previous run's fleet graph now, not mid-measurement:
    # 2k runtimes of cyclic garbage reaped inside the timed region is
    # a large source of run-to-run ratio noise.
    gc.collect()
    for _ in range(WINDOWS):
        cpu_start = time.process_time()
        start = time.perf_counter()
        fleet.advance_window(WINDOW)
        snaps = [snapshot_instance(inst) for inst in fleet.all_instances()]
        per_window.append(
            scan_fleet([snap.profile() for snap in snaps], threshold=THRESHOLD)
        )
        window_times.append(time.perf_counter() - start)
        cpu_seconds += time.process_time() - cpu_start
        if measure_bytes:
            snapshot_bytes.append(len(pickle.dumps(snaps)))
    result = LeakProf(threshold=THRESHOLD).daily_run(
        fleet.all_instances(), now=1.0
    )
    histories = {name: svc.history for name, svc in fleet.services.items()}
    return (window_times, cpu_seconds, per_window, histories, result,
            snapshot_bytes)


def _run_sharded(shards: int):
    """Sharded lockstep advance + one online suspect query per window."""
    gc.collect()  # keep prior runs' garbage out of the forked workers
    with ShardedFleet(shards=shards) as fleet:
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        fleet.start()  # worker launch + instance build: not timed, same
        # as single-process construction staying outside its timer
        per_window = []
        window_times = []
        gc.collect()
        parent_cpu_start = time.process_time()
        for _ in range(WINDOWS):
            start = time.perf_counter()
            fleet.advance_window(WINDOW)
            per_window.append(fleet.suspects(threshold=THRESHOLD))
            window_times.append(time.perf_counter() - start)
        parent_cpu = time.process_time() - parent_cpu_start
        result = LeakProf(threshold=THRESHOLD).daily_run(
            fleet.snapshots(), now=1.0
        )
        histories = {
            name: svc.history for name, svc in fleet.services.items()
        }
        run = {
            "window_times": window_times,
            "per_window": per_window,
            "histories": histories,
            "result": result,
            "bytes_per_window": fleet.wire_bytes_total / WINDOWS,
            "wire_bytes_by_command": dict(fleet.wire_bytes_by_command),
        }
    # Workers report post-construction CPU seconds in their stop reply
    # (collected by close()): worker compute + parent compute is the
    # boundary's true cost, independent of host scheduling.
    run["cpu_seconds"] = parent_cpu + fleet.worker_cpu_seconds
    return run


def _run_async(shards: int):
    """The same week with shards free-running (``run_days(max_lead=2)``).

    Histories and the final daily run only: the suspect set is checked
    per watermark step by the streaming property suites.
    """
    gc.collect()
    with ShardedFleet(shards=shards) as fleet:
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        fleet.start()
        fleet.run_days(
            WINDOWS * WINDOW / 86_400.0, window=WINDOW, max_lead=2
        )
        return {
            "histories": {
                name: svc.history for name, svc in fleet.services.items()
            },
            "result": LeakProf(threshold=THRESHOLD).daily_run(
                fleet.snapshots(), now=1.0
            ),
            "bytes_per_window": fleet.wire_bytes_total / WINDOWS,
            "wire_bytes_by_command": dict(fleet.wire_bytes_by_command),
        }


def _min_profile(best, times):
    return times if best is None else [min(a, b) for a, b in zip(best, times)]


def test_fleet_scale_sharding():
    total = max(1, INSTANCES // N_SERVICES) * N_SERVICES

    # Repeats are *interleaved* (serial, sharded, serial, sharded, ...),
    # not batched per plane: host load varies on minute scales, and
    # measuring one plane's repeats back-to-back would let a single
    # load epoch systematically penalize one side of every enforced
    # ratio.  Results are asserted identical across repeats, so only
    # the first repeat's are kept.
    single_times = None
    single_cpu = None
    single_pw = single_hist = single_run = None
    snapshot_bytes = None
    lockstep = {}
    # The overhead ratio is sampled per repeat from *adjacent* runs (this
    # repeat's serial CPU against this repeat's 1-shard CPU): even CPU
    # seconds inflate on an oversubscribed host (steal accounting, cache
    # thrash from a competing process), but a load epoch spans both runs
    # of one repeat, so the paired ratio stays honest where a
    # min-over-repeats numerator against a min-over-repeats denominator
    # would pair measurements taken under different load.
    overhead_samples = []
    for repeat in range(TIMING_REPEATS):
        times, cpu, pw, hist, run, sizes = _run_single(
            measure_bytes=repeat == 0
        )
        single_times = _min_profile(single_times, times)
        single_cpu = cpu if single_cpu is None else min(single_cpu, cpu)
        if repeat == 0:
            single_pw, single_hist, single_run = pw, hist, run
            snapshot_bytes = sum(sizes) / WINDOWS
        for shards in sorted({1, 2, SHARDS}):
            if repeat == 0:
                lockstep[shards] = _run_sharded(shards)
                if shards == 1:
                    overhead_samples.append(
                        lockstep[1]["cpu_seconds"] / cpu
                    )
            elif shards in (1, SHARDS):  # only enforced-ratio runs repeat
                again = _run_sharded(shards)
                lockstep[shards]["window_times"] = _min_profile(
                    lockstep[shards]["window_times"],
                    again["window_times"],
                )
                lockstep[shards]["cpu_seconds"] = min(
                    lockstep[shards]["cpu_seconds"], again["cpu_seconds"]
                )
                if shards == 1:
                    overhead_samples.append(again["cpu_seconds"] / cpu)
    single_s = sum(single_times)
    for run in lockstep.values():
        run["seconds"] = sum(run["window_times"])
    async_run = _run_async(2)

    def _parity(run):
        return (
            run["histories"] == single_hist
            and run["per_window"] == single_pw
            and run["result"].suspects == single_run.suspects
            and run["result"].sweep_stats == single_run.sweep_stats
        )

    parity_by_shards = {
        str(shards): _parity(run) for shards, run in lockstep.items()
    }
    async_parity = (
        async_run["histories"] == single_hist
        and async_run["result"].suspects == single_run.suspects
        and async_run["result"].sweep_stats == single_run.sweep_stats
    )

    speedup = single_s / lockstep[SHARDS]["seconds"]
    # CPU seconds, not wall-clock, best paired sample of N: the overhead
    # gate is a claim about software work, and the simulated week is
    # deterministic — repeats differ only by what the host did to them.
    protocol_overhead = min(overhead_samples)
    bytes_ratio = lockstep[SHARDS]["bytes_per_window"] / snapshot_bytes

    rows = [
        (
            "single process",
            f"{single_s:.2f}s",
            f"({snapshot_bytes / 1024:.0f} KiB pickled)",
            "reference",
        ),
    ]
    for shards, run in lockstep.items():
        rows.append(
            (
                f"{shards}-shard lockstep",
                f"{run['seconds']:.2f}s",
                f"{run['bytes_per_window'] / 1024:.1f} KiB",
                "identical" if parity_by_shards[str(shards)] else "DIVERGED",
            )
        )
    rows.append(
        (
            "2-shard async",
            "",
            f"{async_run['bytes_per_window'] / 1024:.1f} KiB",
            "identical" if async_parity else "DIVERGED",
        )
    )
    rows.append(("speedup", f"{speedup:.2f}x", "", f"on {CPUS} CPU(s)"))
    rows.append(
        (
            "1-shard protocol overhead",
            f"{protocol_overhead:.2f}x",
            "",
            "CPU seconds",
        )
    )
    rows.append(
        ("sharded/snapshot bytes", f"{bytes_ratio:.1%}", "", "per window")
    )
    print_table(
        f"Fleet scale-out: {total} instances x {WINDOWS} windows, "
        f"continuous detection ({SHARDS} shards)",
        ["execution", "wall-clock", "wire/window", "results"],
        rows,
    )

    emit(
        "fleet_scale" if (INSTANCES, WINDOWS) == FULL_SIZE
        else "fleet_scale_reduced",
        metric="sharded_speedup",
        value=round(speedup, 2),
        unit="x",
        seed=SEED,
        instances=total,
        windows=WINDOWS,
        window_seconds=WINDOW,
        shards=SHARDS,
        cpus=CPUS,
        threshold=THRESHOLD,
        min_speedup_enforced=MIN_SPEEDUP if CPUS >= SHARDS else None,
        protocol_overhead_1shard=round(protocol_overhead, 3),
        max_protocol_overhead=MAX_PROTOCOL_OVERHEAD,
        single_process_seconds=round(single_s, 3),
        sharded_seconds=round(lockstep[SHARDS]["seconds"], 3),
        single_process_cpu_seconds=round(single_cpu, 3),
        lockstep_1shard_cpu_seconds=round(
            lockstep[1]["cpu_seconds"], 3
        ),
        protocol_overhead_samples=[
            round(sample, 3) for sample in overhead_samples
        ],
        bytes_per_window={
            "snapshot_pickle": round(snapshot_bytes),
            **{
                f"lockstep_{shards}shard": round(run["bytes_per_window"])
                for shards, run in lockstep.items()
            },
            "async_2shard": round(async_run["bytes_per_window"]),
        },
        wire_bytes_by_command={
            **{
                f"lockstep_{shards}shard": run["wire_bytes_by_command"]
                for shards, run in lockstep.items()
            },
            "async_2shard": async_run["wire_bytes_by_command"],
        },
        bytes_ratio_vs_snapshot_pickle=round(bytes_ratio, 4),
        max_bytes_ratio=MAX_BYTES_RATIO,
        histories_identical=all(
            run["histories"] == single_hist for run in lockstep.values()
        )
        and async_run["histories"] == single_hist,
        leakprof_suspects_identical=(
            all(parity_by_shards.values()) and async_parity
        ),
        parity_by_shards=parity_by_shards,
        parity_async_2shard=async_parity,
        leak_suspects=len(single_run.suspects),
    )

    for shards, run in lockstep.items():
        assert parity_by_shards[str(shards)], (
            f"{shards}-shard lockstep run diverged from serial"
        )
    assert async_parity, "2-shard async run diverged from serial"
    assert single_run.suspects, "the leaky service produced no suspects"
    assert bytes_ratio < MAX_BYTES_RATIO, (
        f"sharded run ships {bytes_ratio:.1%} of a window's pickled "
        f"snapshots (>= {MAX_BYTES_RATIO:.0%}) — the delta plane stopped "
        f"paying"
    )
    assert protocol_overhead <= MAX_PROTOCOL_OVERHEAD, (
        f"shard boundary costs {protocol_overhead:.2f}x serial "
        f"(> {MAX_PROTOCOL_OVERHEAD}x) — too expensive to ever "
        f"reach {MIN_SPEEDUP}x at {SHARDS} workers"
    )
    if CPUS >= SHARDS:
        assert speedup >= MIN_SPEEDUP, (
            f"sharded run only {speedup:.2f}x faster (< {MIN_SPEEDUP}x) "
            f"at {SHARDS} workers on {CPUS} CPUs"
        )
