"""Streaming detection plane: delta snapshots, stat blocks,
checkpoint/restore, and online suspect scoring.

The load-bearing property: the parent's record of each instance
(``repro.fleet.shard._RowMirror``) — reconstructed purely from
incremental deltas, tombstones and O(1) stat rows — must be
**indistinguishable** from ``snapshot_instance`` run in-process, and the
suspect list of the per-instance signature indexes must be list-equal
to the batch ``scan_fleet`` sweep over those snapshots.  Everything
else (resync, checkpoints, rebalancing) preserves that invariant under
churn.
"""

import multiprocessing
import pickle
import threading
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
from repro.fleet import shard as shard_module
from repro.leakprof import LeakProf, scan_fleet
from repro.patterns import healthy, timeout_leak
from repro.runtime import GoroutineState, go, sleep
from repro.snapshot import snapshot_instance
from repro.snapshot.delta import F_CENSUS, pack_row, unpack_rows

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
        per_window.append(
            [snapshot_instance(inst) for inst in fleet.all_instances()]
        )
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
                    record.key: set(record.records)
                    for record in fleet.services["payments"].instances
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
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            for w in range(4):
                fleet.advance_window(WINDOW)
                if w % 2 == 1:  # after windows 2 and 4
                    fleet.resync()
                assert fleet.snapshots() == reference[w]
            assert fleet.full_resyncs == 2
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
            assert "repro_fleet_full_resync_total 2" in obs.render()

    def test_stats_ship_inline_on_every_advance_reply(self):
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
        """LeakProf.streaming_run (signature indexes, zero wire traffic)
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
        """A restart reseeds instances; the signature index must forget
        the old incarnation's signatures or counts double across
        generations."""
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
        census = [pos + 1 for pos in range(len(GoroutineState))]
        restored.runtime._state_census[:] = census
        block = zlib.compress(pack_row(restored), 1)
        (row,) = unpack_rows(zlib.decompress(block))
        runtime, metrics = restored.runtime, restored.metrics
        (t, cpu_percent, rss_bytes, blocked, goroutines,
         requests_window, requests_total, steps, windows) = row[:F_CENSUS]
        assert t == runtime.now
        assert cpu_percent == restored.cpu_utilization()
        assert rss_bytes == restored.rss()
        assert blocked == runtime.blocked_goroutines_count
        assert goroutines == runtime.num_goroutines
        assert requests_window == metrics[-1].requests_served
        assert requests_total == restored.requests_served
        assert steps == runtime.steps
        assert windows == len(metrics)
        assert row[F_CENSUS:] == tuple(census)

    def test_resumed_trackers_ship_like_the_unmoved_instances(
        self, monkeypatch
    ):
        """A checkpoint entry is ``(slot, blob)``, with no tracker state:
        a worker that restores the checkpoint, or adopts its entries,
        resumes each tracker with exactly the gids the source tracker
        had shipped, and its next ship equals the source's.  The workers
        run on threads, so the test sees their instances."""
        built, restored = {}, []

        def build(config, seed, deploy_gen, index, mix, start_time):
            inst = _build_instance(
                config, seed, deploy_gen, index, mix, start_time
            )
            built[index] = inst
            return inst

        def restore(blob):
            inst = restore_instance(blob)
            restored.append(inst)
            return inst

        _build_instance = shard_module._build_instance
        monkeypatch.setattr(shard_module, "_build_instance", build)
        monkeypatch.setattr(shard_module, "restore_instance", restore)
        config = ServiceConfig(
            name="payments",
            mix=leaky_mix(),
            instances=2,
            traffic=TrafficShape(requests_per_window=12),
        )
        pipes, threads = [], []

        def worker():
            conn, child = multiprocessing.Pipe()
            thread = threading.Thread(
                target=shard_module._shard_worker, args=(child,), daemon=True
            )
            thread.start()
            pipes.append(conn)
            threads.append(thread)

            def ask(*message):
                conn.send(message)
                assert conn.poll(30.0), f"no reply to {message[0]!r}"
                return conn.recv()

            return ask

        try:
            source, by_restore, by_adopt = worker(), worker(), worker()
            source("init", [(config, 7, 0, ((0, 0), (3, 1)), 0.0)])
            for _ in range(2):
                source("advance", WINDOW, None)
            kind, window, state = source("checkpoint")
            assert (kind, window) == ("checkpoint", 2) and state["ok"]
            entries = state["entries"]
            assert [slot for slot, _blob in entries] == [0, 3]
            shipped = [set(built[i].runtime._delta.shipped) for i in (0, 1)]
            assert all(shipped), "nothing shipped; vacuous test"
            assert by_restore("restore", (window, entries)) == ("ok", 2, None)
            assert by_adopt("adopt", entries) == ("adopted", 0, None)
            assert len(restored) == 4
            for inst, gids in zip(restored, shipped + shipped):
                tracker = inst.runtime._delta
                assert tracker.shipped == gids
                assert not tracker.dirty and not tracker.finished
                assert tracker.gc_sweeps == 0
            ships = [
                ask("advance", WINDOW, None)
                for ask in (source, by_restore, by_adopt)
            ]
            # kind, window, (slots, stat block, delta entries, tallies)
            kind, window, (slots, block, deltas, _stats) = ships[0]
            assert (kind, window, slots) == ("delta", 3, (0, 3)) and deltas
            assert ships[1][:2] == ("delta", 3)
            assert ships[1][2][:3] == (slots, block, deltas)
            assert ships[2][:2] == ("delta", 1)
            assert ships[2][2][:3] == (slots, block, deltas)
        finally:
            for conn, thread in zip(pipes, threads):
                if thread.is_alive():
                    conn.send(("stop",))
                thread.join(timeout=10.0)
            for conn in pipes:
                conn.close()
        assert not any(thread.is_alive() for thread in threads)

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

            def step(shard):
                fleet.begin_advance(shard, WINDOW)
                fleet.drain()
                return fleet.shard_windows[shard]

            assert step(0) == 1
            assert fleet.shard_windows == (1, 0)
            assert fleet.watermark == 0
            assert step(1) == 1
            assert fleet.watermark == 1
            check()
            step(0)
            step(0)  # shard 0 sprints to window 3
            assert fleet.shard_windows == (3, 1)
            assert fleet.watermark == 1  # nothing new committed
            assert fleet.max_window_spread == 2
            check()
            step(1)
            assert fleet.watermark == 2
            check()
            step(1)
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
    def test_run_days_with_lead_matches_lockstep(self, seed_offset, max_lead):
        windows = 4
        reference, ref_hist = _serial_reference(windows, seed_offset)
        for shards in (1, 2, 4):
            with ShardedFleet(shards=shards) as fleet:
                for config, seed in _configs():
                    fleet.add_service(config, seed=seed + seed_offset)
                fleet.start()
                fleet.run_days(
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

    def test_checkpoint_cadence_under_a_lead(self):
        """``checkpoint_every`` still fires while shards run ahead of
        the watermark: every shard checkpoints, every journal ends
        shorter than the run, and the results equal the serial run."""
        windows = 6
        reference, ref_hist = _serial_reference(windows)
        with ShardedFleet(shards=2, checkpoint_every=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.run_days(windows * WINDOW / 86_400.0, window=WINDOW,
                           max_lead=3)
            assert fleet.watermark == windows
            assert all(ckpt is not None for ckpt in fleet._checkpoints)
            assert fleet.checkpoints_taken >= fleet.num_shards
            assert fleet.checkpoints_declined == 0
            assert all(len(journal) < windows for journal in fleet._journal)
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
            fleet.drain()
            # window 2 of shard 0 was registered at 3600 s; shard 1 may
            # not advance its window 1 with different seconds
            fleet.begin_advance(0, WINDOW)
            fleet.drain()
            assert fleet.shard_windows == (2, 0)
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

    def test_checkpoint_reply_window_is_checked(self):
        """A checkpoint reply's window gets the check every reply gets:
        one that is not the shard watermark is refused before it can
        become a restore base."""

        class ShiftedWindow:
            """A shard pipe whose next ``kind`` reply names the next
            window."""

            def __init__(self, conn, kind):
                self._conn = conn
                self._kind = kind

            def recv_bytes(self):
                buf = self._conn.recv_bytes()
                kind, window, payload = pickle.loads(buf)
                if kind != self._kind:
                    return buf
                self._kind = None
                return pickle.dumps((kind, window + 1, payload))

            def __getattr__(self, name):
                return getattr(self._conn, name)

        with ShardedFleet(shards=1) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            assert fleet.checkpoint() == 1
            base = fleet._checkpoints[0]
            assert base[0] == 1
            fleet._conns[0] = ShiftedWindow(fleet._conns[0], "checkpoint")
            with pytest.raises(RuntimeError, match="watermark regression"):
                fleet.checkpoint()
            assert fleet._checkpoints[0] is base
            assert fleet.checkpoints_taken == 1

    def test_late_delta_after_tombstone_is_dropped(self):
        """A delta older than the view watermark cannot resurrect dead
        records — the guard that makes out-of-phase ingestion safe."""
        reference, _ = _serial_reference(3, lingering=True)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs(lingering=True):
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            record = fleet.services["payments"].instances[0]
            held_at_w1 = dict(record.records)
            fleet.advance_window(WINDOW)
            departed = set(held_at_w1) - set(record.records)
            assert departed, "no camper died between windows; vacuous test"
            # replay window 1's records straight at the record: refused
            stale = (
                record.slot, False,
                [held_at_w1[gid] for gid in sorted(departed)], (), None,
            )
            assert record.apply(stale, window=1) is False
            assert not departed & set(record.records), "ghost resurrected"
            # and through the fleet ingest path: counted, signatures unfed
            before = fleet.suspects(threshold=1)
            fleet._apply_deltas((1, (), b"", [stale]))
            assert fleet.stale_deltas == 1
            assert fleet.suspects(threshold=1) == before
            assert fleet.snapshots() == reference[1]
            assert "repro_fleet_stale_deltas_total 1" in obs.render()

    def test_every_view_reads_the_watermark_after_each_commit(self):
        """A committed stat row raises its view's watermark, so after
        every commit each view's ``window`` is the fleet watermark —
        also for instances whose reply carried no delta entry, read
        without materializing anything."""
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            apply_deltas = fleet._apply_deltas
            idle = set()

            def spy(payload):
                named = {delta[0] for delta in payload[3]}
                idle.update(
                    slot for slot in payload[1] if slot not in named
                )
                apply_deltas(payload)

            fleet._apply_deltas = spy
            fleet.start()

            def windows():
                return {record.window for record in fleet._by_slot}

            assert windows() == {0}
            for w in (1, 2):
                fleet.advance_window(WINDOW)
                assert fleet.watermark == w
                assert windows() == {w}
            assert idle, "every reply named every instance; vacuous test"
            # out of phase: a buffered reply moves no view until it commits
            fleet.begin_advance(0, WINDOW)
            fleet.drain()
            assert fleet.shard_windows == (3, 2)
            assert windows() == {2}
            fleet.begin_advance(1, WINDOW)
            fleet.drain()
            assert fleet.watermark == 3
            assert windows() == {3}

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
            record = fleet.services["payments"].instances[2]
            assert record.shard == 0
            applied = fleet.rebalance({moved: 1})
            assert applied == {moved: 1}
            assert record.shard == 1
            assert fleet.services["payments"].instances[2] is record
            assert fleet.rebalances == 1 and fleet.instances_moved == 1
            assert fleet.worker_restarts == 0
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
            fleet.begin_advance(0, WINDOW)
            fleet.drain()  # shard 0 ahead: windows (2, 1)
            assert fleet.shard_windows == (2, 1)
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
            def owners():
                return {
                    record.key: record.shard
                    for service in fleet.services.values()
                    for record in service.instances
                }

            before = owners()
            # search/1 lives on shard 0 (clean, evicts fine);
            # payments/1 lives on shard 1 and is gc-enabled (declines)
            with pytest.raises(CheckpointUnsupported, match="declined"):
                fleet.rebalance({("search", 1): 1, ("payments", 1): 0})
            assert owners() == before
            assert fleet.rebalances == 0 and fleet.instances_moved == 0
            fleet.advance_window(WINDOW)
            assert fleet.snapshots() == [
                snapshot_instance(inst) for inst in serial.all_instances()
            ]
            assert {
                n: s.history for n, s in fleet.services.items()
            } == {n: s.history for n, s in serial.services.items()}

    def test_rebalance_input_checks(self):
        """Bad keys and shards raise before anything moves; moves onto
        an instance's current shard are a no-op."""
        reference, ref_hist = _serial_reference(3)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            fleet.advance_window(WINDOW)
            owners = {
                record.key: record.shard
                for service in fleet.services.values()
                for record in service.instances
            }
            with pytest.raises(KeyError, match="unknown instance"):
                fleet.rebalance({("payments", 2): 1, ("payments", 9): 1})
            with pytest.raises(ValueError, match="no shard 2"):
                fleet.rebalance({("payments", 2): 1, ("search", 0): 2})
            # every move targets the instance's current shard
            assert fleet.rebalance(dict(owners)) == {}
            assert fleet.rebalances == 0 and fleet.instances_moved == 0
            assert {
                record.key: record.shard
                for service in fleet.services.values()
                for record in service.instances
            } == owners
            assert fleet.worker_restarts == 0
            fleet.advance_window(WINDOW)
            assert fleet.snapshots() == reference[2]
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
