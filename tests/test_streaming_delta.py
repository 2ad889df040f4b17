"""Streaming detection plane: delta snapshots, stat blocks,
checkpoint/restore, and online suspect scoring.

The load-bearing property: the parent's record of each instance
(``repro.fleet.shard._RowMirror``) — built purely from per-signature
deltas and O(1) stat rows — holds one summary per signature, and the
suspect list judged from those summaries must be list-equal to the
batch ``scan_fleet`` sweep over the snapshots pulled from the workers,
which must be **indistinguishable** from ``snapshot_instance`` run
in-process.  Everything else (resync, checkpoints, rebalancing)
preserves that invariant under churn.
"""

import multiprocessing
import pickle
import threading
import zlib
from collections import Counter

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
from repro.gc import ReclaimPolicy
from repro.leakprof import LeakProf, scan_fleet
from repro.leakprof.detector import SignatureAccumulator
from repro.patterns import healthy, premature_return, timeout_leak
from repro.runtime import (
    NIL_CHANNEL,
    Runtime,
    case_recv,
    go,
    recv,
    select,
    send,
    sleep,
)
from repro.snapshot import snapshot_instance
from repro.snapshot.delta import (
    F_BLOCKED,
    F_CPU,
    F_GOROUTINES,
    F_RSS,
    F_T,
    pack_row,
    unpack_rows,
)

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
    """A handler whose children outlive the request — and the *window*.

    One child sleeps past the 3600 s window boundary, then wakes the
    other, which waits on a channel until then: the waiter is a member
    of its signature at one ship and finished by a later one.
    Exercises the full dirty → filed → finished lifecycle across
    windows.
    """
    ch = rt.make_chan(0, label="late")

    def linger():
        yield sleep(5000.0)
        yield send(ch, None)

    def wait():
        yield recv(ch)

    yield go(linger)
    yield go(wait)


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


def assert_summaries_only(fleet, snapshots):
    """Each parent record holds one summary per signature of its
    instance's snapshot, with the signature's member count, and no other
    field that can grow with the instance's goroutines."""
    for record, snapshot in zip(fleet._by_slot, snapshots):
        assert record.name == snapshot.name
        assert {
            signature: entry[2]
            for signature, entry in record.summaries.items()
        } == Counter(
            r.signature() for r in snapshot.runtime.records
            if r.is_blocked and r.blocking_location is not None
        )
        sized = [
            getattr(record, field) for field in type(record).__slots__
            if isinstance(getattr(record, field), (dict, list, set))
        ]
        assert sized == [record.summaries]


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
                    assert_summaries_only(fleet, reference[w])
                    assert fleet.suspects(threshold=1) == scan_fleet(
                        [s.profile() for s in reference[w]], threshold=1
                    )
                    assert fleet.snapshots() == reference[w], (
                        f"{shards}-shard views diverged at window {w}"
                    )
                # non-vacuity: the leak parks more goroutines than it
                # forms signatures
                parked = sum(
                    entry[2]
                    for record in fleet._by_slot
                    for entry in record.summaries.values()
                )
                signatures = sum(
                    len(record.summaries) for record in fleet._by_slot
                )
                assert parked > signatures > 0
                assert {
                    n: s.history for n, s in fleet.services.items()
                } == ref_hist

    def test_finished_goroutines_leave_the_summaries(self):
        """Goroutines blocked at one ship and finished by the next must
        leave their signature's count (a finish is just a dirty gid the
        worker unfiles; streaming never reships the world, so a missed
        finish is a permanent ghost member)."""
        reference, _ = _serial_reference(3, lingering=True)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs(lingering=True):
                fleet.add_service(config, seed=seed)
            fleet.start()
            for w in range(3):
                fleet.advance_window(WINDOW)
                assert_summaries_only(fleet, reference[w])
                assert fleet.snapshots() == reference[w]
        # non-vacuity: waiters blocked at one window finished by the next
        blocked = [
            {
                (snapshot.name, r.gid)
                for snapshot in reference[w]
                for r in snapshot.runtime.records if r.is_blocked
            }
            for w in range(3)
        ]
        assert any(blocked[w] - blocked[w + 1] for w in range(2)), (
            "no blocked goroutine ever finished; vacuous test"
        )

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

    def test_suspects_match_batch_scan_with_sweeps_spanning_windows(self):
        """gc sweeps every 1800 s over 600 s windows: a window with no
        sweep ships no verdict, and the next sweep restamps goroutines
        that parked windows ago without waking them."""
        configs = [
            ServiceConfig(
                name="observe", mix=leaky_mix(), instances=2,
                traffic=TrafficShape(requests_per_window=3),
                gc_interval=1800.0,
            ),
            ServiceConfig(
                name="reclaim",
                mix=RequestMix().add(
                    "early", premature_return.leaky, weight=1.0
                ),
                instances=1,
                traffic=TrafficShape(requests_per_window=3),
                gc_interval=1800.0,
                gc_policy=ReclaimPolicy.RECLAIM,
            ),
        ]
        proofs = set()
        with ShardedFleet(shards=2) as fleet:
            for n, config in enumerate(configs):
                fleet.add_service(config, seed=31 + n)
            fleet.start()
            for _ in range(8):
                fleet.advance_window(600.0)
                snapshots = fleet.snapshots()
                batch = scan_fleet(
                    [s.profile() for s in snapshots], threshold=1
                )
                assert fleet.suspects(threshold=1) == batch
                proofs |= {
                    r.proof for s in snapshots for r in s.runtime.records
                }
        assert {"proven", None} <= proofs, "no sweep stamped; vacuous"

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
        assert restored.last_metrics == original.last_metrics
        # the stat row round-trips through a compressed stat block
        block = zlib.compress(pack_row(restored), 1)
        (row,) = unpack_rows(zlib.decompress(block))
        runtime = restored.runtime
        assert runtime.blocked_goroutines_count, "nothing parked; vacuous"
        assert row[F_T] == runtime.now
        assert row[F_CPU] == restored.cpu_utilization()
        assert row[F_RSS] == restored.rss()
        assert row[F_BLOCKED] == runtime.blocked_goroutines_count
        assert row[F_GOROUTINES] == runtime.num_goroutines
        assert len(row) == 5

    def test_resumed_trackers_ship_like_the_unmoved_instances(
        self, monkeypatch
    ):
        """A checkpoint entry is ``(slot, blob)``, with no tracker or
        index state: a worker that restores the checkpoint, or adopts
        its entries, resumes each tracker clean and re-indexes the
        restored goroutines, so its next ship (absolute per-signature
        counts) and its pull equal the source's.  The workers run on
        threads, so the test sees their instances."""
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
            assert all(
                built[i].runtime.blocked_goroutines_count for i in (0, 1)
            ), "nothing blocked; vacuous test"
            assert by_restore("restore", (window, entries)) == ("ok", 2, None)
            assert by_adopt("adopt", entries) == ("adopted", 0, None)
            assert len(restored) == 4
            for inst in restored:
                assert not inst.runtime._delta
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
            # the entries carry every member, not just this window's
            counts = {entry[1]: entry[2] for _slot, _full, signature_entries
                      in deltas for entry in signature_entries}
            assert counts and max(counts.values()) > 12
            pulls = [
                (slots, pickle.loads(zlib.decompress(blob)))
                for _kind, _window, (slots, blob) in (
                    ask("snapshots") for ask in (source, by_restore, by_adopt)
                )
            ]
            assert pulls[0] == pulls[1] == pulls[2]
            assert len(pulls[0][1]) == 2
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

        Shard 0 runs up to two windows ahead of shard 1; suspects must
        equal the lockstep (serial) reference at every *committed*
        watermark along the way, and snapshots — a pull, which barriers
        first — whenever the shards are level.  A pull while a shard
        runs ahead answers at the post-barrier watermark."""
        reference, ref_hist = _serial_reference(4)
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()

            def check():
                w = fleet.watermark
                if w > 0:
                    assert fleet.suspects(threshold=1) == scan_fleet(
                        [s.profile() for s in reference[w - 1]], threshold=1
                    )
                    if set(fleet.shard_windows) == {w}:
                        assert fleet.snapshots() == reference[w - 1]

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
            step(0)  # shard 0 one ahead; the pull catches shard 1 up
            assert fleet.shard_windows == (4, 3)
            assert fleet.snapshots() == reference[3]
            assert fleet.shard_windows == (4, 4)
            assert fleet.watermark == 4
            check()
            assert {
                n: s.history for n, s in fleet.services.items()
            } == ref_hist
            exposition = obs.render()
            assert "repro_fleet_watermark 4" in exposition
            assert 'repro_fleet_shard_window{shard="0"} 4' in exposition

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

    def test_stale_delta_cannot_resurrect_a_signature(self):
        """A delta older than the record's watermark cannot bring back a
        signature a newer delta removed — the guard that makes
        out-of-phase ingestion safe."""
        serial = Fleet()
        for config, seed in _configs():
            serial.add(Service(config, seed=seed))
        serial.advance_window(WINDOW)
        serial.services["payments"].deploy(clean_mix())
        serial.advance_window(WINDOW)
        reference = [snapshot_instance(i) for i in serial.all_instances()]
        with ShardedFleet(shards=2) as fleet:
            for config, seed in _configs():
                fleet.add_service(config, seed=seed)
            fleet.start()
            fleet.advance_window(WINDOW)
            record = fleet.services["payments"].instances[0]
            held_at_w1 = list(record.summaries.values())
            assert held_at_w1, "no signature at window 1; vacuous test"
            fleet.services["payments"].deploy(clean_mix())
            fleet.advance_window(WINDOW)
            assert record.window == 2 and record.summaries == {}
            # replay window 1's entries straight at the record: refused
            stale = (record.slot, False, held_at_w1)
            assert record.apply(stale, window=1) is False
            assert record.summaries == {}, "ghost resurrected"
            # and through the fleet ingest path: counted, summaries unfed
            before = fleet.suspects(threshold=1)
            fleet._apply_deltas((1, (), b"", [stale]))
            assert fleet.stale_deltas == 1
            assert fleet.suspects(threshold=1) == before
            assert fleet.snapshots() == reference
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


def _sender(ch):
    yield send(ch, 1)


def _receiver(ch):
    yield recv(ch)


def _selector(a, b):
    yield select(case_recv(a), case_recv(b))


def _nil_waiter():
    yield recv(NIL_CHANNEL)


class TestChangeMarks:
    """A worker ships the gids in ``runtime._delta``, which only a park
    (``Goroutine.block``), a wake (``make_runnable``, ``throw``) and a
    new gc verdict add to.  After every ship the worker's incremental
    signature index, and the entries the parent folded, must equal a
    fresh index of the live goroutines: any missing mark leaves a
    member filed, unfiled or stamped with an old verdict."""

    def test_each_transition_ships_what_a_reindex_would(self):
        rt = Runtime(seed=1, panic_mode="record")
        rt._delta = set()
        index, mirror = SignatureAccumulator(), {}

        def ship():
            entries = shard_module._ship(index, rt, rt._delta)
            rt._delta.clear()
            for entry in entries:
                if entry[2]:
                    mirror[entry[:2]] = entry
                else:
                    mirror.pop(entry[:2], None)
            fresh = SignatureAccumulator()
            full = shard_module._ship(fresh, rt, rt._goroutines)
            assert (index._sigs, index._sig_of) == (
                fresh._sigs, fresh._sig_of
            )
            assert mirror == {entry[:2]: entry for entry in full}
            return {entry[:3] for entry in entries}

        held, ready, c, d, closing = (rt.make_chan(0) for _ in range(5))
        rt.gc_roots.append(held)  # its waiter stays live until unpinned
        # parks on send, receive, select and a nil channel
        rt.spawn(_sender, held)
        waiter = rt.spawn(_receiver, ready)
        rt.spawn(_selector, c, d)
        rt.spawn(_nil_waiter)
        doomed = rt.spawn(_sender, closing)
        rt.run_until_quiescent()
        parked = ship()
        assert [entry[0] for entry in sorted(parked)] == [
            "chan receive", "chan receive", "chan send", "select",
        ]
        send_signature = index.signature_of(doomed.gid)
        waiter_signature = index.signature_of(waiter.gid)

        # a wake by delivery: the waiter takes the value and finishes
        rt.spawn(_sender, ready)
        rt.run_until_quiescent()
        assert not waiter.alive
        assert ship() == {waiter_signature + (0,)}

        # one ship later, close() panics the sender parked on it
        closing.close()
        rt.run_until_quiescent()
        assert [goro for goro, _exc in rt.panics] == [doomed]
        assert ship() == {send_signature + (1,)}

        # verdict flips with no wake: first stamps, then live -> proven
        assert rt.gc().proven_leaked == 2
        assert len(ship()) == 3
        rt.gc_roots.remove(held)
        assert rt.gc().proven_leaked == 3
        assert ship() == {send_signature + (1,)}
        assert mirror[send_signature][4] is True

        # a reclaim unwinds every proven leak
        assert rt.gc(policy=ReclaimPolicy.RECLAIM).reclaim.reclaimed == 3
        rt.run_until_quiescent()
        assert len(ship()) == 3
        assert not mirror and not rt.live_goroutines()
