"""repro.chaos — deterministic fault injection and the recovery plane.

The property under test everywhere here: **faults are invisible in the
results**.  A SIGKILL'd shard worker, a dropped or corrupted pipe
message, a locked sqlite file, a flaky daemon, a poison profile — each
is injected from a pinned, replayable :class:`FaultSchedule`, and the
pipeline must produce byte-identical histories, complete sweeps, and an
intact report funnel anyway.
"""

import json
import pickle
import zlib
from urllib import error as urlerror

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.chaos import (
    FaultKind,
    FaultSchedule,
    SCENARIOS,
    ShardChaos,
    StoreChaos,
    poison_profile_text,
    run_scenario,
)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.scenarios import ScenarioResult
from repro.fleet import (
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ShardedFleet,
    TrafficShape,
)
from repro.ingest import (
    BreakerState,
    CircuitBreaker,
    IngestClient,
    IngestError,
    IngestStore,
    MultiTenantScheduler,
    RetryPolicy,
)
from repro.patterns import healthy, timeout_leak
from repro.snapshot import snapshot_instance
from repro.snapshot.delta import ROW_BYTES


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


# ---------------------------------------------------------------------------
# FaultSchedule: the replayable seed


class TestFaultSchedule:
    def test_pinned_event_fires_once_at_exact_coordinate(self):
        schedule = FaultSchedule().pin(FaultKind.KILL_WORKER, 1, 4)
        assert schedule.fires(FaultKind.KILL_WORKER, 1, 3) is None
        assert schedule.fires(FaultKind.KILL_WORKER, 0, 4) is None
        record = schedule.fires(FaultKind.KILL_WORKER, 1, 4)
        assert record is not None and record.at == (1, 4)
        # consumed: the same coordinate never fires twice
        assert schedule.fires(FaultKind.KILL_WORKER, 1, 4) is None
        assert schedule.fired_count(FaultKind.KILL_WORKER) == 1

    def test_rate_decisions_are_per_coordinate_and_order_independent(self):
        """The decision at one hook must not depend on how many other
        hooks were consulted first — that's what makes rates replayable."""
        coords = [(shard, op) for shard in range(4) for op in range(25)]

        def decide(order):
            schedule = FaultSchedule(seed=42).rate(FaultKind.DROP_MESSAGE, 0.3)
            return {
                c: schedule.fires(FaultKind.DROP_MESSAGE, *c) is not None
                for c in order
            }

        forward = decide(coords)
        backward = decide(list(reversed(coords)))
        assert forward == backward
        fired = sum(forward.values())
        assert 0 < fired < len(coords), "rate 0.3 should fire some, not all"

    def test_max_faults_caps_the_blast_radius(self):
        schedule = FaultSchedule(seed=1, max_faults=2).rate(
            FaultKind.SQLITE_ERROR, 1.0
        )
        fired = [
            schedule.fires(FaultKind.SQLITE_ERROR, "op", n) for n in range(10)
        ]
        assert sum(1 for r in fired if r is not None) == 2

    def test_json_round_trip_replays_identically(self):
        original = (
            FaultSchedule(seed=9, max_faults=5)
            .rate(FaultKind.DROP_MESSAGE, 0.25)
            .pin(FaultKind.KILL_WORKER, 2, 7, param=1.5)
        )
        clone = FaultSchedule.from_json(original.to_json())
        assert clone.seed == original.seed
        assert clone.max_faults == 5
        assert clone.rates == original.rates
        assert clone.events == original.events
        coords = [(s, o) for s in range(3) for o in range(10)]
        assert [
            original.fires(FaultKind.DROP_MESSAGE, *c) is not None
            for c in coords
        ] == [
            clone.fires(FaultKind.DROP_MESSAGE, *c) is not None
            for c in coords
        ]

    def test_fired_faults_count_into_the_chaos_metric(self):
        FaultSchedule().pin(FaultKind.DAEMON_5XX, "x", 0).fires(
            FaultKind.DAEMON_5XX, "x", 0
        )
        assert 'repro_chaos_faults_injected_total{kind="daemon_5xx"} 1' in (
            obs.render()
        )


# ---------------------------------------------------------------------------
# Shard supervision: crash recovery with byte-identical histories


def _leaky_mix():
    return RequestMix().add(
        "checkout", timeout_leak.leaky, weight=1.0, payload_bytes=32 * 1024
    )


def _clean_mix():
    return RequestMix().add("ping", healthy.request_response, weight=1.0)


def _configs():
    return [
        (
            ServiceConfig(
                name="payments",
                mix=_leaky_mix(),
                instances=3,
                traffic=TrafficShape(requests_per_window=12),
            ),
            1,
        ),
        (
            ServiceConfig(
                name="search",
                mix=_clean_mix(),
                instances=2,
                traffic=TrafficShape(requests_per_window=12),
            ),
            2,
        ),
    ]


def _reference_histories(windows, seed_offset=0):
    fleet = Fleet()
    for config, seed in _configs():
        fleet.add(Service(config, seed=seed + seed_offset))
    for _ in range(windows):
        fleet.advance_window(3600.0)
    return {n: s.history for n, s in fleet.services.items()}


def _sharded_run(
    windows, chaos=None, shards=4, seed_offset=0, deadline=10.0, **kwargs
):
    fleet = ShardedFleet(
        shards=shards, chaos=chaos, worker_deadline=deadline, **kwargs
    )
    for config, seed in _configs():
        fleet.add_service(config, seed=seed + seed_offset)
    fleet.start()
    try:
        for _ in range(windows):
            fleet.advance_window(3600.0)
        return {n: s.history for n, s in fleet.services.items()}, fleet
    finally:
        fleet.close()


def _unlisted(slots, block, pos):
    """``slots`` and its stat ``block`` without the slot at ``pos``."""
    rows = zlib.decompress(block)
    block = zlib.compress(
        rows[:pos * ROW_BYTES] + rows[(pos + 1) * ROW_BYTES:], 1
    )
    return slots[:pos] + slots[pos + 1:], block


class _TamperOnce:
    """A shard pipe whose next delta reply has its stat block spoiled.

    ``"named_slot"`` makes the reply name ``slot`` in place of its first
    slot (the rows stay well-formed, so only ownership can refuse it);
    ``"negative_steps"`` leaves the block alone and spoils the reply's
    run and window counts instead, and ``"negative_released"`` its sweep
    counts.  ``"dropped_slot"`` drops a slot with no delta entry, row
    and all, so the reply is well-formed but misses an instance its
    command addressed.  The ``*_entry`` tampers spoil the first delta entry: it
    names a slot another shard owns, or a slot of its own shard whose
    slot and row the reply no longer lists, or it loses its last field.
    """

    def __init__(self, conn, tamper, slot=None):
        self._conn = conn
        self._tamper = tamper
        self._slot = slot

    def recv_bytes(self):
        buf = self._conn.recv_bytes()
        kind, payload = pickle.loads(buf)
        if self._tamper is None or kind != "delta":
            return buf
        window, slots, block, entries, stats = payload
        if self._tamper == "truncated":
            block = zlib.compress(zlib.decompress(block)[:-1], 1)
        elif self._tamper == "foreign_slot":
            slots = (slots[0] + 1,) + slots[1:]
        elif self._tamper == "named_slot":
            slots = (self._slot,) + slots[1:]
        elif self._tamper == "negative_slot":
            slots = (-1,) + slots[1:]
        elif self._tamper == "float_slot":
            slots = (float(slots[0]),) + slots[1:]
        elif self._tamper == "negative_steps":
            runs, windows, sweeps = stats
            stats = ((-1,) + runs[1:], windows, sweeps)
        elif self._tamper == "negative_released":
            runs, windows, _sweeps = stats
            stats = (runs, windows, (-1,) + ((0, {}, 0.0),) * 3)
        elif self._tamper == "dropped_slot":
            with_entry = {entry[0] for entry in entries}
            slots, block = _unlisted(slots, block, next(
                pos for pos, slot in enumerate(slots)
                if slot not in with_entry
            ))
        elif self._tamper.endswith("_entry"):
            assert entries, "no delta entry to spoil"
            entry = entries[0]
            if self._tamper == "foreign_entry":
                entry = (entry[0] + 1,) + entry[1:]
            elif self._tamper == "unlisted_entry":
                slots, block = _unlisted(slots, block, slots.index(entry[0]))
            else:
                entry = entry[:-1]
            entries = [entry] + entries[1:]
        else:
            block = b"not a zlib stream"
        self._tamper = None
        return pickle.dumps((kind, (window, slots, block, entries, stats)))

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestShardSupervision:
    def test_worker_kill_mid_week_keeps_history_byte_identical(self):
        """The acceptance gate: SIGKILL a worker with an advance in
        flight; respawn + journal replay must hide it completely."""
        reference = _reference_histories(6)
        schedule = FaultSchedule().pin(FaultKind.KILL_WORKER, 1, 3)
        histories, fleet = _sharded_run(6, chaos=ShardChaos(schedule))
        assert schedule.fired_count(FaultKind.KILL_WORKER) == 1
        assert fleet.worker_restarts == 1
        assert histories == reference
        assert fleet.live_workers() == 0

    def test_dropped_and_corrupted_messages_recover_identically(self):
        """A swallowed command expires the recv deadline; a corrupted one
        draws an error reply.  Both converge on respawn + replay."""
        reference = _reference_histories(4)
        schedule = (
            FaultSchedule()
            .pin(FaultKind.DROP_MESSAGE, 0, 2)
            .pin(FaultKind.CORRUPT_MESSAGE, 2, 3)
        )
        histories, fleet = _sharded_run(
            4, chaos=ShardChaos(schedule), deadline=1.0
        )
        assert fleet.worker_restarts == 2
        assert histories == reference

    def test_kill_during_snapshot_read_still_answers(self):
        """A non-mutating command is re-sent (not replayed) after the
        respawn; the LeakProf sweep sees a complete snapshot set.

        The read is a ``resync()`` — every worker reships its full
        snapshot state — since ``snapshots()`` itself is answered from
        the parent's views without touching the wire.
        """
        reference = Fleet()
        for config, seed in _configs():
            reference.add(Service(config, seed=seed))
        reference.advance_window(3600.0)
        schedule = FaultSchedule().pin(FaultKind.KILL_WORKER, 1, 2)
        fleet = ShardedFleet(
            shards=2, chaos=ShardChaos(schedule), worker_deadline=10.0
        )
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        fleet.start()
        try:
            fleet.advance_window(3600.0)
            fleet.resync()  # op 2 on each shard: kill in flight
            snaps = fleet.snapshots()
        finally:
            fleet.close()
        assert schedule.fired_count(FaultKind.KILL_WORKER) == 1
        assert fleet.worker_restarts == 1
        assert fleet.full_resyncs == 1
        assert snaps == [
            snapshot_instance(inst) for inst in reference.all_instances()
        ]

    @pytest.mark.parametrize(
        "tamper",
        ["truncated", "foreign_slot", "not_zlib", "negative_slot",
         "float_slot", "negative_steps", "negative_released",
         "foreign_entry", "unlisted_entry", "short_entry", "dropped_slot"],
    )
    def test_bad_stat_block_respawns_worker(self, tamper):
        """Negative controls for the reply checks: a reply whose block
        is short, names a slot another shard owns, names a negative or
        non-integer slot, or does not inflate, whose run counts hold a
        negative step count, whose sweep counts hold negative released
        bytes, whose delta entry names a slot another shard owns, a
        slot the reply does not list, or is short, or which leaves out
        an addressed slot with no entry, is a garbling worker
        — respawned and replayed, with the results unchanged.  (Slot -1
        would index shard 0's own last record, slot 4.)"""
        reference = _reference_histories(3)
        fleet = ShardedFleet(shards=2, worker_deadline=10.0)
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        fleet.start()
        try:
            fleet.advance_window(3600.0)
            # shard 0 owns the even slots, shard 1 the odd ones
            fleet._conns[0] = _TamperOnce(fleet._conns[0], tamper)
            fleet.advance_window(3600.0)
            fleet.advance_window(3600.0)
            histories = {n: s.history for n, s in fleet.services.items()}
        finally:
            fleet.close()
        assert fleet.worker_restarts == 1
        spans = obs.default_tracer().find("chaos.respawn")
        assert [span.attributes["reason"] for span in spans] == [
            "undecodable reply"
        ]
        assert histories == reference

    def test_ownership_check_follows_a_rebalance(self):
        """After a move, the instance's former shard no longer owns its
        slot: a block from that shard naming the moved slot is refused
        (one respawn, histories unchanged), while the new owner's rows
        for it are accepted."""
        reference = _reference_histories(3)
        fleet = ShardedFleet(shards=2, worker_deadline=10.0)
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        fleet.start()
        try:
            fleet.advance_window(3600.0)
            moved = ("payments", 2)
            record = fleet.services["payments"].instances[2]
            assert record.shard == 0  # round-robin home: slot 2, shard 0
            assert fleet.rebalance({moved: 1}) == {moved: 1}
            assert record.shard == 1 and fleet.worker_restarts == 0
            fleet._conns[0] = _TamperOnce(
                fleet._conns[0], "named_slot", slot=record.view.slot
            )
            fleet.advance_window(3600.0)
            fleet.advance_window(3600.0)
            histories = {n: s.history for n, s in fleet.services.items()}
        finally:
            fleet.close()
        assert fleet.worker_restarts == 1
        spans = obs.default_tracer().find("chaos.respawn")
        assert [span.attributes["reason"] for span in spans] == [
            "undecodable reply"
        ]
        assert record.shard == 1
        assert histories == reference

    def test_crash_loop_trips_max_respawns(self):
        schedule = FaultSchedule().rate(FaultKind.KILL_WORKER, 1.0)
        fleet = ShardedFleet(
            shards=2,
            chaos=ShardChaos(schedule),
            worker_deadline=5.0,
            max_respawns=2,
        )
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        try:
            with pytest.raises(RuntimeError, match="crash-loop"):
                fleet.start()
                for _ in range(8):
                    fleet.advance_window(3600.0)
        finally:
            fleet.close()
        assert fleet.live_workers() == 0

    def test_close_escalates_past_already_dead_workers(self):
        """close() must reap everything even when a worker was killed
        out from under the fleet and nobody exchanged since."""
        fleet = ShardedFleet(shards=3)
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        fleet.start()
        fleet._procs[1].kill()  # crash-shaped: no supervision ran
        fleet.close()
        assert fleet.live_workers() == 0

    def test_worker_restarts_surface_as_metric_and_span(self):
        schedule = FaultSchedule().pin(FaultKind.KILL_WORKER, 0, 1)
        _histories, _fleet = _sharded_run(2, chaos=ShardChaos(schedule))
        exposition = obs.render()
        assert 'repro_chaos_worker_restarts_total{shard="0"} 1' in exposition
        spans = obs.default_tracer().find("chaos.respawn")
        assert len(spans) == 1
        assert spans[0].attributes["shard"] == 0

    def test_fault_coordinates_of_a_lockstep_script_are_pinned(self):
        """Every canned ``FaultSchedule`` names its faults by
        ``(shard, op_index)``, so the command each coordinate lands on
        is part of the contract: a refactor of how windows advance must
        issue exactly this sequence."""

        class _Log:
            def __init__(self):
                self.calls = []

            def plan(self, shard, op_index, command):
                self.calls.append((shard, op_index, command))
                return None

        log = _Log()
        fleet = ShardedFleet(shards=2, chaos=log, checkpoint_every=2)
        for config, seed in _configs():
            fleet.add_service(config, seed=seed)
        fleet.start()
        try:
            for _ in range(2):
                fleet.advance_window(3600.0)
            fleet.run_days(3 * 3600.0 / 86_400.0, window=3600.0)
            fleet.services["payments"].advance_window(3600.0)
            # payments/2 lives on shard 0, search/0 on shard 1
            fleet.rebalance({("payments", 2): 1, ("search", 0): 0})
            fleet.resync()
            fleet.checkpoint()
        finally:
            fleet.close()

        def both(op, command):
            return [(0, op, command), (1, op, command)]

        assert log.calls == [
            *both(0, "init"),
            *both(1, "advance"),
            *both(2, "advance"),
            *both(3, "checkpoint"),
            *both(4, "advance"),
            *both(5, "advance"),
            *both(6, "checkpoint"),
            *both(7, "advance"),
            *both(8, "advance"),  # payments only
            *both(9, "evict"),
            (1, 10, "adopt"),
            (0, 10, "adopt"),
            *both(11, "resync"),
            *both(12, "checkpoint"),
        ]

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_fault_storms_never_change_results(self, seed):
        """Property form of the tentpole: under a seeded storm of kills
        and drops (bounded blast radius), histories still match a
        fault-free run — and nothing hangs."""
        reference = _reference_histories(3, seed_offset=seed % 17)
        schedule = (
            FaultSchedule(seed=seed, max_faults=2)
            .rate(FaultKind.KILL_WORKER, 0.08)
            .rate(FaultKind.DROP_MESSAGE, 0.08)
        )
        histories, fleet = _sharded_run(
            3,
            chaos=ShardChaos(schedule),
            seed_offset=seed % 17,
            deadline=1.0,
            max_respawns=16,
        )
        assert histories == reference
        assert fleet.worker_restarts == len(schedule.fired)


# ---------------------------------------------------------------------------
# Resilience primitives


class TestRetryPolicy:
    def test_delays_are_deterministic_per_key_and_distinct_across_keys(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, seed=5)
        first = list(policy.delays("POST /x #0"))
        again = list(policy.delays("POST /x #0"))
        other = list(policy.delays("POST /x #1"))
        assert first == again
        assert first != other
        assert len(first) == 3

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, max_delay=0.4, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.4, 0.4]


class TestCircuitBreaker:
    def test_lifecycle_closed_open_half_open_closed(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1)
        for run in (1, 2, 3):
            assert breaker.allow(run)
            breaker.record_failure(run)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(4)  # cooling down
        assert breaker.allow(5)  # half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record_failure(1)
        assert breaker.allow(3)
        breaker.record_failure(3)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(4)

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure(1)
        breaker.record_success()
        breaker.record_failure(2)
        assert breaker.state is BreakerState.CLOSED


class _FlakyTransport:
    """Fails the first ``failures`` calls, then answers 200."""

    def __init__(self, failures, exc_factory):
        self.failures = failures
        self.calls = 0
        self._exc_factory = exc_factory

    def __call__(self, req, timeout):
        self.calls += 1
        if self.calls <= self.failures:
            raise self._exc_factory()
        import io
        from contextlib import closing

        return closing(io.BytesIO(b'{"ok": true}'))


def _http_503():
    return urlerror.HTTPError(
        "http://x", 503, "unavailable", {}, None
    )


class TestClientRetries:
    def _client(self, transport, **kwargs):
        sleeps = []
        client = IngestClient(
            "http://127.0.0.1:1",
            "acme",
            "tok",
            transport=transport,
            retry=RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0),
            sleep=sleeps.append,
            **kwargs,
        )
        return client, sleeps

    def test_5xx_retries_then_succeeds(self):
        transport = _FlakyTransport(2, _http_503)
        client, sleeps = self._client(transport)
        assert client.healthz() == {"ok": True}
        assert transport.calls == 3
        assert sleeps == [0.01, 0.02]
        assert (
            'repro_ingest_client_retries_total{reason="http_503"} 2'
            in obs.render()
        )

    def test_network_errors_exhaust_into_599(self):
        transport = _FlakyTransport(99, lambda: urlerror.URLError("refused"))
        client, _sleeps = self._client(transport)
        with pytest.raises(IngestError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 599
        assert transport.calls == 3  # attempts bounded the damage

    def test_4xx_is_a_verdict_never_retried(self):
        def forbidden(req, timeout):
            raise urlerror.HTTPError("http://x", 403, "forbidden", {}, None)

        client, sleeps = self._client(forbidden)
        with pytest.raises(IngestError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 403
        assert sleeps == []

    def test_retry_budget_is_client_wide(self):
        transport = _FlakyTransport(99, _http_503)
        client, _sleeps = self._client(transport, retry_budget=1)
        with pytest.raises(IngestError):
            client.healthz()
        assert transport.calls == 2  # 1 try + the whole budget


# ---------------------------------------------------------------------------
# Ingest chaos: quarantine, breaker sweeps, store faults


class TestIngestChaos:
    def test_store_fault_hook_raises_like_sqlite(self):
        schedule = FaultSchedule().pin(
            FaultKind.SQLITE_ERROR, "profiles_for", 0
        )
        store = IngestStore(fault_hook=StoreChaos(schedule))
        store.register_tenant("acme", "tok")
        import sqlite3

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.profiles_for("acme")
        assert store.profiles_for("acme") == []  # pinned fault consumed
        store.close()

    def test_poison_profile_quarantined_not_fatal(self):
        store = IngestStore()
        store.register_tenant("acme", "tok", threshold=3)
        store.store_profile(
            "acme", poison_profile_text(), dialect="simulator", goroutines=0
        )
        scheduler = MultiTenantScheduler(store)
        results = scheduler.run_once(now=1.0)
        assert results["acme"].error is None
        assert results["acme"].quarantined == 1
        assert store.quarantine_count("acme") == 1
        assert len(store.profiles_for("acme")) == 0
        assert (
            'repro_ingest_quarantined_total{tenant="acme"} 1' in obs.render()
        )
        store.close()

    def test_breaker_gauge_and_transitions_exported(self):
        schedule = FaultSchedule()
        for ordinal in range(3):
            schedule.pin(FaultKind.SQLITE_ERROR, "profiles_for", ordinal)
        store = IngestStore(fault_hook=StoreChaos(schedule))
        store.register_tenant("acme", "tok")
        scheduler = MultiTenantScheduler(
            store, breaker_threshold=3, breaker_cooldown=1
        )
        for now in (1.0, 2.0, 3.0):
            scheduler.run_once(now=now)
        exposition = obs.render()
        assert 'repro_ingest_breaker_state{tenant="acme"} 1' in exposition
        assert (
            'repro_ingest_breaker_transitions_total{tenant="acme",to="open"} 1'
            in exposition
        )
        assert (
            'repro_ingest_tenant_failures_total{tenant="acme"} 3' in exposition
        )
        store.close()


# ---------------------------------------------------------------------------
# The canned scenario suite (what CI's chaos-smoke replays)


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_invariants_hold(self, name):
        result = run_scenario(name, seed=0)
        assert result.ok, (
            f"{name} broke invariants {result.failed_invariants()}: "
            f"{result.details}"
        )

    def test_unknown_scenario_is_a_loud_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("nope")


class TestChaosCLI:
    def test_list_names_every_scenario(self, capsys):
        assert chaos_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_replay_one_scenario_json(self, capsys):
        assert (
            chaos_main(
                ["replay", "--scenario", "poison_profile", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["scenario"] == "poison_profile"
        assert payload["ok"] is True

    def test_failing_invariant_gates_and_ships_its_schedule(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(seed):
            return ScenarioResult(
                name="broken",
                seed=seed,
                invariants={"always": False},
                schedule_json=FaultSchedule(seed=seed).to_json(),
            )

        monkeypatch.setitem(SCENARIOS, "broken", broken)
        out_dir = tmp_path / "artifacts"
        code = chaos_main(
            [
                "replay",
                "--scenario",
                "broken",
                "--fail-on-invariant",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 1
        artifact = out_dir / "broken.schedule.json"
        assert artifact.exists()
        FaultSchedule.from_json(artifact.read_text())  # replayable blob
