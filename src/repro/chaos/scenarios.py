"""Canned chaos scenarios: fixed fault schedules with machine-checked
invariants.

Each scenario is the chaos-plane analogue of a fuzz corpus entry: a
:class:`~repro.chaos.schedule.FaultSchedule` pinned at exact hook
coordinates, a deterministic pipeline run under it, and a dictionary of
named invariants that must all hold.  CI replays them via
``python -m repro.chaos replay --fail-on-invariant``; a failing run
ships its schedule JSON as the artifact a developer replays locally.

The invariants are the subsystem contracts, not smoke checks:

* ``worker_kill`` — a shard worker SIGKILL'd mid-week leaves the
  4-shard ``ServiceSample`` histories and LeakProf suspects
  byte-identical to a fault-free single-process run;
* ``checkpoint_crash`` — workers SIGKILL'd both right after a
  checkpoint and mid-delta-ship recover via checkpoint-restore plus a
  journal tail bounded by the checkpoint cadence, with byte-identical
  histories and online-scorer suspects;
* ``rebalance_crash`` — a mid-week :meth:`ShardedFleet.rebalance` moves
  an instance between workers, then *both* the eviction source and the
  adoption target are SIGKILL'd while the week finishes asynchronously;
  journal replay re-runs the evict/adopt commands and the histories and
  suspects stay byte-identical to a fault-free single-process run;
* ``poison_profile`` — a parser-crashing archive row is dead-lettered,
  every other tenant still runs, and the second sweep no longer trips;
* ``sqlite_lock`` — repeated ``database is locked`` failures isolate to
  the afflicted tenant, open its breaker, and the half-open probe heals
  it without losing its FILED report;
* ``daemon_flake`` — a 503-then-stall daemon still accepts the upload
  (client retry + timeout budget) and the report funnel stays intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs

from .inject import DaemonChaos, ShardChaos, StoreChaos, poison_profile_text
from .schedule import FaultKind, FaultSchedule


@dataclass
class ScenarioResult:
    """One scenario run: which invariants held, under which schedule."""

    name: str
    seed: int
    invariants: Dict[str, bool]
    details: Dict[str, object] = field(default_factory=dict)
    schedule_json: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(self.invariants.values())

    def failed_invariants(self) -> List[str]:
        return [name for name, held in self.invariants.items() if not held]

    def summary(self) -> Dict[str, object]:
        return {
            "scenario": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "invariants": self.invariants,
            "details": self.details,
        }


def _leak_profile_text(seed: int = 7, rounds: int = 6) -> str:
    """A simulator-dialect profile carrying a genuine timeout leak."""
    from repro.patterns import timeout_leak
    from repro.profiling import GoroutineProfile, dump_text
    from repro.runtime import Runtime

    rt = Runtime(seed=seed, name="i-0")
    for _ in range(rounds):
        rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
    return dump_text(
        GoroutineProfile.take(rt, service="sim", instance="i-0")
    )


# ---------------------------------------------------------------------------
# worker_kill: the parity tentpole


def _fleet_configs():
    from repro.fleet import RequestMix, ServiceConfig, TrafficShape
    from repro.patterns import healthy, timeout_leak

    leaky = RequestMix().add(
        "checkout", timeout_leak.leaky, weight=1.0, payload_bytes=32 * 1024
    )
    clean = RequestMix().add("ping", healthy.request_response, weight=1.0)
    return [
        (
            ServiceConfig(
                name="payments",
                mix=leaky,
                instances=3,
                traffic=TrafficShape(requests_per_window=12),
            ),
            1,
        ),
        (
            ServiceConfig(
                name="search",
                mix=clean,
                instances=2,
                traffic=TrafficShape(requests_per_window=12),
            ),
            2,
        ),
    ]


def worker_kill(seed: int = 0) -> ScenarioResult:
    """SIGKILL a shard worker mid-week; histories must not notice.

    A fault-free single-process :class:`repro.fleet.Fleet` is the
    reference; a 4-shard fleet runs the same week with a pinned
    ``KILL_WORKER`` on shard 1's fourth command (an ``advance`` in
    flight).  Supervision must respawn + journal-replay the worker so
    the ``ServiceSample`` histories and the LeakProf daily-run suspects
    are byte-identical, and ``close()`` must leave no live children.
    """
    from repro.fleet import Fleet, Service, ShardedFleet
    from repro.leakprof import LeakProf

    windows = 6  # a "week" at scenario scale: enough for the leak trend

    reference = Fleet()
    for config, svc_seed in _fleet_configs():
        reference.add(Service(config, seed=svc_seed + seed))
    for _ in range(windows):
        reference.advance_window(3600.0)
    ref_histories = {n: s.history for n, s in reference.services.items()}
    ref_result = LeakProf(threshold=20).daily_run(
        reference.all_instances(), now=1.0
    )

    schedule = FaultSchedule(seed=seed).pin(FaultKind.KILL_WORKER, 1, 3)
    fleet = ShardedFleet(
        shards=4, chaos=ShardChaos(schedule), worker_deadline=10.0
    )
    for config, svc_seed in _fleet_configs():
        fleet.add_service(config, seed=svc_seed + seed)
    fleet.start()
    try:
        for _ in range(windows):
            fleet.advance_window(3600.0)
        histories = {n: s.history for n, s in fleet.services.items()}
        result = LeakProf(threshold=20).daily_run(fleet.snapshots(), now=1.0)
    finally:
        fleet.close()

    return ScenarioResult(
        name="worker_kill",
        seed=seed,
        invariants={
            "fault_fired": schedule.fired_count(FaultKind.KILL_WORKER) == 1,
            "worker_respawned": fleet.worker_restarts == 1,
            "history_parity": histories == ref_histories,
            "suspects_parity": result.suspects == ref_result.suspects,
            "leak_still_visible": any(
                s.total_blocked_goroutines > 0
                for s in ref_histories["payments"]
            ),
            "no_live_children": fleet.live_workers() == 0,
        },
        details={
            "windows": windows,
            "worker_restarts": fleet.worker_restarts,
            "fired": [r.kind.value for r in schedule.fired],
        },
        schedule_json=schedule.to_json(),
    )


# ---------------------------------------------------------------------------
# checkpoint_crash: restore-then-tail recovery under the streaming plane


def checkpoint_crash(seed: int = 0) -> ScenarioResult:
    """SIGKILL workers around checkpoints; recovery is restore + tail.

    A 2-shard *streaming* fleet checkpoints every 2 windows over a
    6-window run, so each shard's command sequence is ``init(0),
    adv(1), adv(2), ckpt(3), adv(4), adv(5), ckpt(6), adv(7), adv(8),
    ckpt(9)``.  Two pinned kills probe both recovery shapes: shard 1
    dies at op 4 — the first delta-ship *after* a checkpoint — and
    shard 0 dies at op 7, mid-week with a checkpoint behind it.  Both
    respawns must restore from the latest checkpoint and replay only
    the journal tail (bounded by the cadence, never the whole run),
    and the parent's materialized views plus online suspect scorer
    must come out byte-identical to a fault-free single-process week.
    """
    from repro.fleet import Fleet, Service, ShardedFleet
    from repro.leakprof import LeakProf

    windows = 6
    checkpoint_every = 2

    reference = Fleet()
    for config, svc_seed in _fleet_configs():
        reference.add(Service(config, seed=svc_seed + seed))
    for _ in range(windows):
        reference.advance_window(3600.0)
    ref_histories = {n: s.history for n, s in reference.services.items()}
    ref_result = LeakProf(threshold=20).daily_run(
        reference.all_instances(), now=1.0
    )

    schedule = (
        FaultSchedule(seed=seed)
        .pin(FaultKind.KILL_WORKER, 1, 4)
        .pin(FaultKind.KILL_WORKER, 0, 7)
    )
    fleet = ShardedFleet(
        shards=2,
        chaos=ShardChaos(schedule),
        worker_deadline=10.0,
        checkpoint_every=checkpoint_every,
    )
    for config, svc_seed in _fleet_configs():
        fleet.add_service(config, seed=svc_seed + seed)
    fleet.start()
    try:
        for _ in range(windows):
            fleet.advance_window(3600.0)
        histories = {n: s.history for n, s in fleet.services.items()}
        result = LeakProf(threshold=20).streaming_run(fleet, now=1.0)
        journal_tails = [len(journal) for journal in fleet._journal]
    finally:
        fleet.close()

    return ScenarioResult(
        name="checkpoint_crash",
        seed=seed,
        invariants={
            "faults_fired": schedule.fired_count(FaultKind.KILL_WORKER) == 2,
            "workers_respawned": fleet.worker_restarts == 2,
            "restored_from_checkpoint": fleet.restores_performed == 2,
            "checkpoints_accepted": fleet.checkpoints_taken
            == 3 * fleet.num_shards
            and fleet.checkpoints_declined == 0,
            "replay_bounded_by_cadence": fleet.replay_lengths != []
            and max(fleet.replay_lengths) <= checkpoint_every,
            "journals_truncated": journal_tails == [0, 0],
            "history_parity": histories == ref_histories,
            "suspects_parity": result.suspects == ref_result.suspects,
            "leak_still_visible": any(
                s.total_blocked_goroutines > 0
                for s in ref_histories["payments"]
            ),
            "no_live_children": fleet.live_workers() == 0,
        },
        details={
            "windows": windows,
            "checkpoint_every": checkpoint_every,
            "replay_lengths": list(fleet.replay_lengths),
            "fired": [r.kind.value for r in schedule.fired],
        },
        schedule_json=schedule.to_json(),
    )


# ---------------------------------------------------------------------------
# rebalance_crash: evict/adopt survive SIGKILL on both sides of a move


def rebalance_crash(seed: int = 0) -> ScenarioResult:
    """Rebalance mid-week, then SIGKILL both sides; nothing may notice.

    A 2-shard streaming fleet advances 3 lockstep windows, then
    :meth:`ShardedFleet.rebalance` moves ``payments/i-2`` from shard 0
    (its round-robin home) to shard 1 via checkpoint blobs.  Per-shard
    command sequences are then fixed: shard 0 runs ``init(0), adv(1..3),
    evict(4), adv(5..7)`` and shard 1 runs ``init(0), adv(1..3),
    adopt(4), adv(5..7)``.  Two pinned kills land *after* the move —
    shard 0 (the eviction source) at op 5 and shard 1 (the adoption
    target) at op 6 — while the remaining 3 windows run through
    :meth:`run_days_async`, so both journal replays must re-execute
    their half of the rebalance (re-evict / re-adopt the blob) to
    rebuild the post-move topology.  Histories and online-scorer
    suspects must come out byte-identical to a fault-free
    single-process week, and the moved instance must still live on
    shard 1 afterwards.
    """
    from repro.fleet import Fleet, Service, ShardedFleet
    from repro.leakprof import LeakProf

    windows = 6
    moved = ("payments", 2)

    reference = Fleet()
    for config, svc_seed in _fleet_configs():
        reference.add(Service(config, seed=svc_seed + seed))
    for _ in range(windows):
        reference.advance_window(3600.0)
    ref_histories = {n: s.history for n, s in reference.services.items()}
    ref_result = LeakProf(threshold=20).daily_run(
        reference.all_instances(), now=1.0
    )

    schedule = (
        FaultSchedule(seed=seed)
        .pin(FaultKind.KILL_WORKER, 0, 5)
        .pin(FaultKind.KILL_WORKER, 1, 6)
    )
    fleet = ShardedFleet(
        shards=2,
        chaos=ShardChaos(schedule),
        worker_deadline=10.0,
    )
    for config, svc_seed in _fleet_configs():
        fleet.add_service(config, seed=svc_seed + seed)
    fleet.start()
    try:
        for _ in range(3):
            fleet.advance_window(3600.0)
        applied = fleet.rebalance({moved: 1})
        fleet.run_days_async(3 * 3600.0 / 86400.0, window=3600.0)
        histories = {n: s.history for n, s in fleet.services.items()}
        result = LeakProf(threshold=20).streaming_run(fleet, now=1.0)
        moved_shard = fleet._key_shard[moved]
    finally:
        fleet.close()

    return ScenarioResult(
        name="rebalance_crash",
        seed=seed,
        invariants={
            "faults_fired": schedule.fired_count(FaultKind.KILL_WORKER) == 2,
            "workers_respawned": fleet.worker_restarts == 2,
            "rebalance_applied": applied == {moved: 1}
            and fleet.rebalances == 1
            and fleet.instances_moved == 1,
            "move_survived_replay": moved_shard == 1,
            "history_parity": histories == ref_histories,
            "suspects_parity": result.suspects == ref_result.suspects,
            "leak_still_visible": any(
                s.total_blocked_goroutines > 0
                for s in ref_histories["payments"]
            ),
            "no_live_children": fleet.live_workers() == 0,
        },
        details={
            "windows": windows,
            "moved": list(moved),
            "watermark": fleet.watermark,
            "max_window_spread": fleet.max_window_spread,
            "fired": [r.kind.value for r in schedule.fired],
        },
        schedule_json=schedule.to_json(),
    )


# ---------------------------------------------------------------------------
# poison_profile: dead-letter isolation


def poison_profile(seed: int = 0) -> ScenarioResult:
    """One tenant's archive holds a parser-crashing row; nobody dies.

    The sweep must quarantine the poison row (bytes kept verbatim in the
    dead-letter table), still scan the tenant's healthy uploads, leave
    every other tenant untouched, and *not* trip again on the next
    sweep — a dead letter is inspected once, not re-thrown daily.
    """
    from repro.ingest import IngestStore, MultiTenantScheduler

    store = IngestStore()
    store.register_tenant("acme", "tok-a", threshold=3)
    store.register_tenant("globex", "tok-b", threshold=3)
    healthy_text = _leak_profile_text(seed=seed + 7)
    store.store_profile(
        "acme", healthy_text, dialect="simulator", goroutines=6
    )
    store.store_profile(
        "acme",
        poison_profile_text(seed=seed),
        dialect="simulator",
        goroutines=0,
    )
    store.store_profile(
        "globex", healthy_text, dialect="simulator", goroutines=6
    )
    scheduler = MultiTenantScheduler(store)
    first = scheduler.run_once(now=1.0)
    second = scheduler.run_once(now=2.0)
    exposition = obs.render()
    invariants = {
        "poisoned_tenant_ran": first["acme"].error is None,
        "poisoned_tenant_scanned_rest": first["acme"].profiles_scanned == 1,
        "other_tenant_isolated": first["globex"].error is None
        and first["globex"].profiles_scanned == 1,
        "quarantined_once": first["acme"].quarantined == 1
        and store.quarantine_count("acme") == 1,
        "dead_letter_sticky": second["acme"].quarantined == 0
        and second["acme"].error is None,
        "bytes_kept_verbatim": store.quarantined("acme")[0].body
        == poison_profile_text(seed=seed),
        "metric_exposed": "repro_ingest_quarantined_total" in exposition,
    }
    store.close()
    return ScenarioResult(
        name="poison_profile",
        seed=seed,
        invariants=invariants,
        details={
            "first": {k: v.summary() for k, v in first.items()},
            "second": {k: v.summary() for k, v in second.items()},
        },
    )


# ---------------------------------------------------------------------------
# sqlite_lock: breaker lifecycle under storage contention


def sqlite_lock(seed: int = 0) -> ScenarioResult:
    """sqlite locks out one tenant three sweeps running; the breaker
    opens, the other tenant never notices, and the half-open probe heals.

    ``profiles_for`` call ordinals (tenants sweep in name order, one
    call per tenant per sweep): acme gets 0, 2, 4 on sweeps 1-3 —
    those are pinned to raise ``database is locked``.  With
    ``breaker_threshold=3, cooldown=1``: sweep 3 opens acme's breaker,
    sweep 4 skips it, sweep 5 probes half-open and closes.  Sweep 5
    must also file acme's leak report — failures delayed it, never
    lost it.
    """
    from repro.ingest import BreakerState, IngestStore, MultiTenantScheduler

    schedule = (
        FaultSchedule(seed=seed)
        .pin(FaultKind.SQLITE_ERROR, "profiles_for", 0)
        .pin(FaultKind.SQLITE_ERROR, "profiles_for", 2)
        .pin(FaultKind.SQLITE_ERROR, "profiles_for", 4)
    )
    store = IngestStore(fault_hook=StoreChaos(schedule))
    store.register_tenant("acme", "tok-a", threshold=3)
    store.register_tenant("globex", "tok-b", threshold=3)
    store.store_profile(
        "acme",
        _leak_profile_text(seed=seed + 7),
        dialect="simulator",
        goroutines=6,
    )
    scheduler = MultiTenantScheduler(
        store, breaker_threshold=3, breaker_cooldown=1
    )
    sweeps = [scheduler.run_once(now=float(n)) for n in range(1, 6)]
    breaker = scheduler.breaker("acme")
    acme_reports = store.load_reports("acme")
    invariants = {
        "failures_isolated": all(
            sweep["globex"].error is None for sweep in sweeps
        ),
        "three_failures_reported": all(
            sweeps[n]["acme"].error is not None and not sweeps[n]["acme"].skipped
            for n in range(3)
        ),
        "breaker_opened_then_skipped": sweeps[3]["acme"].skipped,
        "half_open_probe_healed": sweeps[4]["acme"].error is None
        and breaker.state is BreakerState.CLOSED,
        "report_delayed_not_lost": len(acme_reports) == 1,
        "all_faults_consumed": schedule.fired_count(FaultKind.SQLITE_ERROR)
        == 3,
    }
    store.close()
    return ScenarioResult(
        name="sqlite_lock",
        seed=seed,
        invariants=invariants,
        details={
            "sweeps": [
                {k: v.summary() for k, v in sweep.items()} for sweep in sweeps
            ],
            "breaker": breaker.state.name,
        },
        schedule_json=schedule.to_json(),
    )


# ---------------------------------------------------------------------------
# daemon_flake: client resilience against a misbehaving daemon


def daemon_flake(seed: int = 0) -> ScenarioResult:
    """The daemon 503s the first upload and stalls the second; the
    client's retry/timeout budget absorbs both and no report is lost.
    """
    from repro.ingest import (
        IngestClient,
        IngestServer,
        IngestStore,
        MultiTenantScheduler,
        RetryPolicy,
    )

    # The daemon keys chaos (like its metrics) on the *normalized*
    # endpoint label, so pins stay bounded even with per-tenant paths.
    schedule = (
        FaultSchedule(seed=seed)
        .pin(FaultKind.DAEMON_5XX, "tenant_profiles", 0, param=503.0)
        .pin(FaultKind.DAEMON_STALL, "tenant_profiles", 1, param=0.05)
    )
    store = IngestStore()
    store.register_tenant("acme", "tok-a", threshold=3)
    server = IngestServer(
        store, fault_injector=DaemonChaos(schedule)
    ).start()
    try:
        client = IngestClient(
            server.url,
            "acme",
            "tok-a",
            timeout=5.0,
            retry=RetryPolicy(attempts=3, base_delay=0.01, seed=seed),
        )
        first = client.upload(
            _leak_profile_text(seed=seed + 7), instance="i-1"
        )
        second = client.upload(
            _leak_profile_text(seed=seed + 8), instance="i-2"
        )
        results = MultiTenantScheduler(store).run_once(now=1.0)
        reports = store.load_reports("acme")
    finally:
        server.close()
        store.close()
    return ScenarioResult(
        name="daemon_flake",
        seed=seed,
        invariants={
            "upload_survived_5xx": first.get("dialect") == "simulator",
            "upload_survived_stall": second.get("dialect") == "simulator",
            "both_faults_fired": schedule.fired_count() == 2,
            "archive_complete": results["acme"].profiles_scanned == 2,
            "report_filed": len(reports) == 1,
        },
        details={"fired": [r.kind.value for r in schedule.fired]},
        schedule_json=schedule.to_json(),
    )


#: The replayable suite, in CI order (cheapest first).
SCENARIOS: Dict[str, Callable[[int], ScenarioResult]] = {
    "poison_profile": poison_profile,
    "sqlite_lock": sqlite_lock,
    "daemon_flake": daemon_flake,
    "worker_kill": worker_kill,
    "checkpoint_crash": checkpoint_crash,
    "rebalance_crash": rebalance_crash,
}


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        ) from None
    return scenario(seed)
