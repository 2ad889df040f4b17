"""Streaming detection plane: delta snapshots, stat blocks,
checkpoint/restore, and online suspect scoring.

The load-bearing property: the parent's materialized
:class:`~repro.snapshot.InstanceView` state — reconstructed purely from
incremental deltas, tombstones and O(1) stat rows — must be
**indistinguishable** from ``snapshot_instance`` run in-process, and the
online scorer's suspect list must be list-equal to the batch
``scan_fleet`` sweep over those snapshots.  Everything else (resync,
checkpoints, rebalancing) preserves that invariant under churn.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.fleet import (
    CheckpointUnsupported,
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ShardedFleet,
    TrafficShape,
    checkpoint_instance,
    restore_instance,
)
from repro.leakprof import LeakProf, scan_fleet
from repro.patterns import healthy, timeout_leak
from repro.runtime import GoroutineState, go, sleep
from repro.snapshot import snapshot_instance
from repro.snapshot.delta import instance_stats, pack_row, stats_from_raw

WINDOW = 3600.0


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def leaky_mix(payload=32 * 1024):
    return RequestMix().add(
        "checkout", timeout_leak.leaky, weight=1.0, payload_bytes=payload
    )


def clean_mix():
    return RequestMix().add("ping", healthy.request_response, weight=1.0)


def camper(rt, payload_bytes=1024):
    """A handler whose child outlives the request — and the *window*.

    The child sleeps past the 3600 s window boundary, so it ships as a
    live (SLEEPING) record in one delta and must come back as a
    tombstone in the next.  Exercises the full dirty → shipped →
    finished lifecycle across windows.
    """

    def linger():
        yield sleep(5000.0)

    yield go(linger)


def lingering_mix():
    return RequestMix().add("bg", camper, weight=1.0)


def _configs(lingering=False):
    return [
        (
            ServiceConfig(
                name="payments",
                mix=lingering_mix() if lingering else leaky_mix(),
                instances=3,
                traffic=TrafficShape(requests_per_window=12),
            ),
            1,
        ),
        (
            ServiceConfig(
                name="search",
                mix=clean_mix(),
                instances=2,
                traffic=TrafficShape(requests_per_window=12),
            ),
            2,
        ),
    ]


def _serial_reference(windows, seed_offset=0, lingering=False):
    """Per-window snapshot lists + final histories from one process."""
    fleet = Fleet()
    for config, seed in _configs(lingering):
        fleet.add(Service(config, seed=seed + seed_offset))
    per_window = []
    for _ in range(windows):
        fleet.advance_window(WINDOW)
        snaps = [snapshot_instance(inst) for inst in fleet.all_instances()]
        for snap in snaps:
            snap.runtime.records  # materialize before the runtime moves on
        per_window.append(snaps)
    histories = {n: s.history for n, s in fleet.services.items()}
    return per_window, histories


class TestViewParity:
    """Delta-reconstructed views ≡ in-process snapshot_instance."""

    @settings(max_examples=3, deadline=None)
    @given(
        seed_offset=st.integers(min_value=0, max_value=10_000),
        windows=st.integers(min_value=1, max_value=4),
    )
    def test_views_match_snapshots_across_shard_counts(
        self, seed_offset, windows
    ):
        reference, ref_hist = _serial_reference(windows, seed_offset)
        for shards in (1, 2, 4):
            with ShardedFleet(shards=shards) as fleet:
                for config, seed in _configs():
                    fleet.add_service(config, seed=seed + seed_offset)
                fleet.start()
                for w in range(windows):
                    fleet.advance_window(WINDOW)
                    assert fleet.snapshots() == reference[w], (
                        f"{shards}-shard views diverged at window {w}"
                    )
                assert {
                    n: s.history for n, s in fleet.services.items()
                } == ref_hist

    def test_tombstones_remove_finished_goroutines_from_views(self):
        """Goroutines alive at one ship and dead at the next must leave
        the views via explicit tombstones (streaming never reships the
        world, so a missed tombstone is a permanent ghost record)."""
        reference, _ = _serial_reference(3, lingering=True)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs(lingering=True):
                fleet.add_service(config, seed=seed)
            fleet.start()
            gids_per_window = []
            for w in range(3):
                fleet.advance_window(WINDOW)
                assert fleet.snapshots() == reference[w]
                gids_per_window.append({
                    key: set(view.records)
                    for key, view in fleet._views.items()
                    if key[0] == "payments"
                })
        # non-vacuity: campers shipped in window 1 died in window 2, so
        # some gids must have *left* a view between consecutive windows
        departed = [
            gids_per_window[w][key] - gids_per_window[w + 1][key]
            for w in range(2)
            for key in gids_per_window[w]
        ]
        assert any(departed), "no goroutine ever left a view; vacuous test"

    def test_anti_entropy_resync_preserves_parity(self):
        reference, ref_hist = _serial_reference(4)
        with ShardedFleet(shards=2, resync_every=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            for w in range(4):
                fleet.advance_window(WINDOW)
                assert fleet.snapshots() == reference[w]
            assert fleet.full_resyncs == 2
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
            assert "repro_fleet_full_resync_total 2" in obs.render()

    def test_use_shm_false_ships_stats_inline_with_identical_results(self):
        """Every advance reply carries its shard's stat rows inline: the
        fleet has no shared-memory plane, the counters are counted as
        advance wire bytes, and the results equal the serial fleet's."""
        reference, ref_hist = _serial_reference(3)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            for w in range(3):
                before = fleet.wire_bytes_by_command.get("advance", 0)
                fleet.advance_window(WINDOW)
                assert fleet.snapshots() == reference[w]
                assert fleet.wire_bytes_by_command["advance"] > before
            assert not hasattr(fleet, "_stat_plane")
            assert fleet.wire_bytes_total > 0
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist


class TestOnlineScorer:
    """fleet.suspects() ≡ scan_fleet over the same snapshots."""

    @settings(max_examples=3, deadline=None)
    @given(
        seed_offset=st.integers(min_value=0, max_value=10_000),
        threshold=st.sampled_from([1, 3, 20]),
    )
    def test_suspects_match_batch_scan_every_window(
        self, seed_offset, threshold
    ):
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed + seed_offset)
            fleet.start()
            for _ in range(3):
                fleet.advance_window(WINDOW)
                batch = scan_fleet(
                    [s.profile() for s in fleet.snapshots()],
                    threshold=threshold,
                )
                assert fleet.suspects(threshold=threshold) == batch

    def test_streaming_run_matches_daily_run(self):
        """LeakProf.streaming_run (online scorer, zero wire traffic)
        files the same reports as daily_run over shipped snapshots."""
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            for _ in range(3):
                fleet.advance_window(WINDOW)
            batch = LeakProf(threshold=3).daily_run(fleet.snapshots(), now=1.0)
            streamed = LeakProf(threshold=3).streaming_run(fleet, now=1.0)
        assert streamed.suspects == batch.suspects
        assert [r.candidate for r in streamed.new_reports] == [
            r.candidate for r in batch.new_reports
        ]

    def test_deploy_resets_scorer_state(self):
        """A restart reseeds instances; the scorer must forget the old
        incarnation's signatures or counts double across generations."""
        serial = Fleet()
        for config, seed in _configs():
            serial.add(Service(config, seed=seed))
        for _ in range(2):
            serial.advance_window(WINDOW)
        serial.services["payments"].deploy(leaky_mix())
        serial.advance_window(WINDOW)
        expected = scan_fleet(
            [snapshot_instance(i).profile() for i in serial.all_instances()],
            threshold=1,
        )
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            for _ in range(2):
                fleet.advance_window(WINDOW)
            fleet.services["payments"].deploy(leaky_mix())
            fleet.advance_window(WINDOW)
            assert fleet.suspects(threshold=1) == expected


class TestCheckpointRestore:
    """Generator-free instance serialization: exact or declined."""

    def _instance(self, windows=2):
        service = Service(
            ServiceConfig(
                name="payments",
                mix=leaky_mix(),
                instances=1,
                traffic=TrafficShape(requests_per_window=12),
            ),
            seed=7,
        )
        for _ in range(windows):
            service.advance_window(WINDOW)
        return service.instances[0]

    def test_round_trip_is_behaviorally_exact(self):
        original = self._instance()
        restored = restore_instance(checkpoint_instance(original))
        assert snapshot_instance(restored) == snapshot_instance(original)
        # not just a frozen replica: both worlds keep evolving in lockstep
        original.advance_window(WINDOW)
        restored.advance_window(WINDOW)
        assert snapshot_instance(restored) == snapshot_instance(original)
        assert restored.metrics == original.metrics
        # the stat row round-trips through a compressed stat block with
        # every census field in use (a live runtime never has them all)
        census = {state: pos + 1 for pos, state in enumerate(GoroutineState)}
        restored.runtime.state_census = lambda: dict(census)
        block = zlib.compress(pack_row(restored, 3, 4), 1)
        assert stats_from_raw(zlib.decompress(block)) == instance_stats(
            restored
        )

    def test_declines_mid_flight_state(self):
        instance = self._instance()

        def runnable():
            yield sleep(0.001)

        instance.runtime.spawn(runnable, name="runnable")
        with pytest.raises(CheckpointUnsupported, match="runnable"):
            checkpoint_instance(instance)

    def test_declines_gc_machinery(self):
        service = Service(
            ServiceConfig(
                name="payments",
                mix=leaky_mix(),
                instances=1,
                traffic=TrafficShape(requests_per_window=12),
                gc_interval=600.0,
            ),
            seed=7,
        )
        service.advance_window(WINDOW)
        with pytest.raises(CheckpointUnsupported, match="gc"):
            checkpoint_instance(service.instances[0])

    def test_fleet_checkpoint_truncates_journals(self):
        reference, ref_hist = _serial_reference(4)
        with ShardedFleet(shards=2, checkpoint_every=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            for w in range(4):
                fleet.advance_window(WINDOW)
                assert fleet.snapshots() == reference[w]
            assert fleet.checkpoints_taken == 2 * fleet.num_shards
            assert fleet.checkpoints_declined == 0
            # window 4 checkpointed; nothing mutating has run since
            assert all(len(j) == 0 for j in fleet._journal)
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
            exposition = obs.render()
        assert "repro_fleet_checkpoint_seconds" in exposition
        assert 'repro_fleet_checkpoint_bytes_count{shard="0"}' in exposition
        spans = obs.default_tracer().find("fleet.checkpoint")
        assert spans and spans[0].attributes["taken"] == 2

    def test_async_interleavings_commit_identical_windows(self):
        """Arbitrary out-of-phase driving commits the same windows.

        Shard 0 runs up to two windows ahead of shard 1; snapshots,
        suspects, and histories must equal the lockstep (serial)
        reference at every *committed* watermark along the way."""
        reference, ref_hist = _serial_reference(3)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()

            def check():
                w = fleet.watermark
                if w > 0:
                    assert fleet.snapshots() == reference[w - 1]
                    assert fleet.suspects(threshold=1) == scan_fleet(
                        [s.profile() for s in reference[w - 1]], threshold=1
                    )

            assert fleet.advance_shard(0, WINDOW) == 1
            assert fleet.shard_windows == (1, 0)
            assert fleet.watermark == 0
            assert fleet.advance_shard(1, WINDOW) == 1
            assert fleet.watermark == 1
            check()
            fleet.advance_shard(0, WINDOW)
            fleet.advance_shard(0, WINDOW)  # shard 0 sprints to window 3
            assert fleet.shard_windows == (3, 1)
            assert fleet.watermark == 1  # nothing new committed
            assert fleet.max_window_spread == 2
            check()
            fleet.advance_shard(1, WINDOW)
            assert fleet.watermark == 2
            check()
            fleet.advance_shard(1, WINDOW)
            assert fleet.watermark == 3
            check()
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
            exposition = obs.render()
            assert "repro_fleet_watermark 3" in exposition
            assert 'repro_fleet_shard_window{shard="0"} 3' in exposition

    @settings(max_examples=3, deadline=None)
    @given(
        seed_offset=st.integers(min_value=0, max_value=10_000),
        max_lead=st.integers(min_value=1, max_value=3),
    )
    def test_run_days_async_matches_lockstep(self, seed_offset, max_lead):
        windows = 4
        reference, ref_hist = _serial_reference(windows, seed_offset)
        for shards in (1, 2, 4):
            with ShardedFleet(shards=shards) as fleet:
                for config, seed in _configs():
                    fleet.add_service(config, seed=seed + seed_offset)
                fleet.start()
                fleet.run_days_async(
                    windows * WINDOW / 86_400.0,
                    window=WINDOW,
                    max_lead=max_lead,
                )
                assert fleet.watermark == windows
                assert fleet.snapshots() == reference[-1]
                assert fleet.suspects(threshold=1) == scan_fleet(
                    [s.profile() for s in reference[-1]], threshold=1
                )
                assert {
                    n: s.history for n, s in fleet.services.items()
                } == ref_hist

    def test_begin_advance_guards(self):
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.begin_advance(0, WINDOW)
            with pytest.raises(RuntimeError, match="in flight"):
                fleet.begin_advance(0, WINDOW)
            # lockstep exchanges must not slip past async replies
            # (public entry points barrier first; the guard is the net)
            with pytest.raises(RuntimeError, match="drain"):
                fleet._exchange([(1, ("resync", None))])
            fleet.join_shard(0)
            # window 2 of shard 0 was registered at 3600 s; shard 1 may
            # not advance its window 1 with different seconds
            fleet.advance_shard(0, WINDOW)
            with pytest.raises(ValueError, match="already begun"):
                fleet.begin_advance(1, WINDOW / 2)

    def test_watermark_regression_rejected(self):
        """A reply tagged with a stale or skipped window is refused —
        the parent never ingests state it cannot order."""
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            with pytest.raises(RuntimeError, match="watermark violation"):
                fleet._note_window(0, 3, advance=True)  # skips window 2
            with pytest.raises(RuntimeError, match="watermark regression"):
                fleet._note_window(0, 0, advance=False)

    def test_late_delta_after_tombstone_is_dropped(self):
        """A delta older than the view watermark cannot resurrect dead
        records — the guard that makes out-of-phase ingestion safe."""
        reference, _ = _serial_reference(3, lingering=True)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs(lingering=True):
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            key = ("payments", 0)
            view = fleet._views[key]
            held_at_w1 = dict(view.records)
            fleet.advance_window(WINDOW)
            departed = set(held_at_w1) - set(view.records)
            assert departed, "no camper died between windows; vacuous test"
            # replay window 1's records straight at the view: refused
            stale = (
                "payments", 0, False,
                [held_at_w1[gid] for gid in sorted(departed)], (), None,
            )
            assert view.apply(stale, window=1) is False
            assert not departed & set(view.records), "ghost resurrected"
            # and through the fleet ingest path: counted, scorer unfed
            before = fleet.suspects(threshold=1)
            fleet._apply_deltas((1, (), b"", [stale]))
            assert fleet.stale_deltas == 1
            assert fleet.suspects(threshold=1) == before
            assert fleet.snapshots() == reference[1]
            assert "repro_fleet_stale_deltas_total 1" in obs.render()

    def test_gc_enabled_shard_declines_and_keeps_journal(self):
        config = ServiceConfig(
            name="payments",
            mix=leaky_mix(),
            instances=2,
            traffic=TrafficShape(requests_per_window=12),
            gc_interval=600.0,
        )
        with ShardedFleet(shards=1, checkpoint_every=1) as fleet:
            fleet.add_service(config, seed=1)
            fleet.start()
            fleet.advance_window(WINDOW)
            assert fleet.checkpoints_taken == 0
            assert fleet.checkpoints_declined == 1
            # the journal survives: replay is still the recovery path
            assert len(fleet._journal[0]) > 0
        # a decline is surfaced, not just counted on the object
        assert 'repro_fleet_checkpoints_total{result="declined"} 1' in (
            obs.render()
        )


class TestRebalance:
    """Instance moves via checkpoint blobs: invisible to every observer."""

    def test_manual_rebalance_mid_run_preserves_parity(self):
        reference, ref_hist = _serial_reference(4)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            fleet.advance_window(WINDOW)
            moved = ("payments", 2)  # round-robin home: shard 0
            assert fleet._key_shard[moved] == 0
            applied = fleet.rebalance({moved: 1})
            assert applied == {moved: 1}
            assert fleet._key_shard[moved] == 1
            assert fleet.services["payments"].shard_of[2] == 1
            assert fleet.services["payments"].instances[2].shard == 1
            assert fleet.rebalances == 1 and fleet.instances_moved == 1
            # the move itself changed nothing observable
            assert fleet.snapshots() == reference[1]
            for w in (2, 3):
                fleet.advance_window(WINDOW)
                assert fleet.snapshots() == reference[w]
                assert fleet.suspects(threshold=1) == scan_fleet(
                    [s.profile() for s in reference[w]], threshold=1
                )
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
            assert "repro_fleet_rebalance_moves_total 1" in obs.render()

    def test_queries_mid_rebalance_answer_at_watermark(self):
        """With shards out of phase around a rebalance, suspects and
        snapshots always reflect the committed watermark — never the
        sprinting shard's future, never the move."""
        reference, _ = _serial_reference(3)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            fleet.advance_shard(0, WINDOW)  # shard 0 ahead: windows (2, 1)
            assert fleet.watermark == 1
            before = fleet.suspects(threshold=1)
            assert before == scan_fleet(
                [s.profile() for s in reference[0]], threshold=1
            )
            # rebalance barriers: shard 1 catches up to window 2 first,
            # then the move runs — and the suspect set is still exactly
            # the lockstep answer at the new watermark
            fleet.rebalance({("payments", 2): 1})
            assert fleet.watermark == 2
            assert fleet.snapshots() == reference[1]
            assert fleet.suspects(threshold=1) == scan_fleet(
                [s.profile() for s in reference[1]], threshold=1
            )

    def test_declined_eviction_rolls_back_atomically(self):
        """One clean source evicts, the next (gc-enabled) declines: the
        whole rebalance aborts and the evicted instances go home."""
        def gc_configs():
            pairs = _configs()
            payments, seed = pairs[0]
            return [
                (
                    ServiceConfig(
                        name=payments.name,
                        mix=payments.mix,
                        instances=payments.instances,
                        traffic=payments.traffic,
                        gc_interval=600.0,
                    ),
                    seed,
                ),
                pairs[1],
            ]

        serial = Fleet()
        for config, seed in gc_configs():
            serial.add(Service(config, seed=seed))
        for _ in range(3):
            serial.advance_window(WINDOW)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in gc_configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            fleet.advance_window(WINDOW)
            owners = dict(fleet._key_shard)
            # search/1 lives on shard 0 (clean, evicts fine);
            # payments/1 lives on shard 1 and is gc-enabled (declines)
            with pytest.raises(CheckpointUnsupported, match="declined"):
                fleet.rebalance({("search", 1): 1, ("payments", 1): 0})
            assert fleet._key_shard == owners
            assert fleet.rebalances == 0 and fleet.instances_moved == 0
            fleet.advance_window(WINDOW)
            assert fleet.snapshots() == [
                snapshot_instance(inst) for inst in serial.all_instances()
            ]
            assert {
                n: s.history for n, s in fleet.services.items()
            } == {n: s.history for n, s in serial.services.items()}

    def test_maybe_rebalance_lag_trigger_and_cooldown(self):
        reference, ref_hist = _serial_reference(3)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            fleet.advance_window(WINDOW)
            # balanced EMAs: no move
            assert fleet.maybe_rebalance(lag=2.0, emas={0: 1.0, 1: 0.9}) == {}
            # shard 0 lags 10x: its upper key half moves to shard 1
            # shard 0 lags 10x: the upper half of its sorted keys
            # ([payments/0, payments/2, search/1] -> search/1) moves over
            moves = fleet.maybe_rebalance(lag=2.0, emas={0: 10.0, 1: 1.0})
            assert moves == {("search", 1): 1}
            assert fleet.rebalances == 1
            # cooldown: an immediate re-trigger is suppressed
            assert fleet.maybe_rebalance(lag=2.0, emas={1: 10.0, 0: 1.0}) == {}
            fleet.advance_window(WINDOW)
            assert fleet.snapshots() == reference[2]
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
