"""Incremental-accounting audit suite.

The runtime's monitoring reads (``rss``, ``num_goroutines``,
``blocked_goroutines_count``, ``state_census``) are O(1) counter reads
maintained at every mutation point.  This suite proves two things:

1. **Equivalence** — after randomized workloads mixing spawn / send /
   recv / select / close / alloc / free / tickers / reclaim, the counters
   agree exactly with the retained full-scan ``audit=True`` paths, across
   200+ seeded runs.
2. **O(1)-ness** — the default read paths perform no per-goroutine or
   per-channel iteration at all, observed through spy containers, and
   cancelled timers cannot accumulate in the heap.
"""

from __future__ import annotations

import random
import weakref

from repro.gc import ReclaimPolicy
from repro.runtime import Runtime
from repro.runtime.channel import Payload
from repro.runtime.ops import (
    alloc,
    burn,
    case_recv,
    case_send,
    free,
    go,
    gosched,
    park,
    recv,
    select,
    send,
    sleep,
)

N_SEEDS = 220


def _assert_books_match(rt: Runtime) -> None:
    """Every counter must equal its from-scratch recomputation."""
    assert rt.rss() == rt.rss(audit=True)
    assert rt.state_census() == rt.state_census(audit=True)
    assert rt.num_goroutines == len(rt.live_goroutines())
    assert rt.blocked_goroutines_count == len(rt.blocked_goroutines())
    for channel in list(rt._channels):
        assert channel.buffered_bytes == channel._scan_buffered_bytes()
        assert channel.pending_send_bytes == channel._scan_pending_send_bytes()


def _run_random_workload(seed: int, reclaim: bool) -> Runtime:
    rng = random.Random(seed)
    rt = Runtime(seed=seed, panic_mode="record")
    chans = [
        rt.make_chan(rng.choice([0, 0, 1, 2, 4]))
        for _ in range(rng.randint(2, 4))
    ]

    def child(depth):
        for _ in range(rng.randint(1, 5)):
            roll = rng.randrange(12)
            ch = rng.choice(chans)
            if roll == 0:
                yield send(ch, Payload("blob", rng.choice([0, 64, 4096, 1 << 16])))
            elif roll == 1:
                yield recv(ch)
            elif roll == 2:
                arms = []
                for _ in range(rng.randint(1, 3)):
                    target = rng.choice(chans + [rt.nil_chan])
                    if rng.random() < 0.5:
                        arms.append(case_recv(target))
                    else:
                        arms.append(
                            case_send(target, Payload("sel", rng.choice([0, 128, 2048])))
                        )
                yield select(*arms, default=rng.random() < 0.3)
            elif roll == 3:
                yield alloc(rng.choice([128, 1024, 65536]))
            elif roll == 4:
                yield free(rng.choice([64, 1024, 4096]))
            elif roll == 5:
                yield sleep(rng.uniform(0.1, 2.0))
            elif roll == 6 and depth < 2:
                yield go(child, depth + 1)
            elif roll == 7:
                yield gosched()
            elif roll == 8:
                if not ch.closed:
                    ch.close()
            elif roll == 9:
                ticker = rt.new_ticker(rng.uniform(0.5, 1.5))
                if rng.random() < 0.7:
                    ticker.stop()
            elif roll == 10:
                yield park("io_wait", duration=rng.choice([None, 1.0]))
            else:
                yield burn(0.001)
        if rng.random() < 0.3:
            yield recv(rng.choice(chans))  # sometimes leak at the end

    def root(rt):
        for _ in range(rng.randint(2, 6)):
            yield go(child, 0)
        yield sleep(rng.uniform(0.0, 1.0))

    rt.spawn(root, rt)
    rt.run_until_quiescent(deadline=rt.now + 8.0)
    _assert_books_match(rt)
    if reclaim:
        rt.gc(policy=ReclaimPolicy.RECLAIM)
        _assert_books_match(rt)
    rt.run_until_quiescent(deadline=rt.now + 8.0)
    _assert_books_match(rt)
    return rt


class TestCounterScanEquivalence:
    def test_randomized_workloads(self):
        """Counters ≡ full recompute after arbitrary op mixes (observe only)."""
        for seed in range(0, N_SEEDS, 2):
            _run_random_workload(seed, reclaim=False)

    def test_randomized_workloads_with_reclaim(self):
        """The reclaimer's queue purges keep the byte counters exact too."""
        for seed in range(1, N_SEEDS, 2):
            _run_random_workload(seed, reclaim=True)

    def test_select_payload_release_on_sibling_fire(self):
        """A select send-arm's payload leaves the books when a sibling fires."""
        rt = Runtime()

        def selector(a, b):
            yield select(case_send(a, Payload("x", 1 << 20)), case_recv(b))

        def main(rt):
            a = rt.make_chan(0)
            b = rt.make_chan(0)
            yield go(selector, a, b)
            yield gosched()
            # selector parked on both arms: payload is pending on `a`
            assert rt.rss() - rt.base_rss >= (1 << 20)
            _assert_books_match(rt)
            yield send(b, "wake")  # fires the recv arm; send arm goes stale
            return a

        a = rt.run(main, rt)
        assert a.pending_send_bytes == 0
        assert rt.rss() == rt.base_rss
        _assert_books_match(rt)


class _SpyDict(dict):
    """Dict that counts every content walk (iteration / values())."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


class _SpyWeakSet(weakref.WeakSet):
    """WeakSet that counts every iteration."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _leaky_runtime(n: int = 50) -> Runtime:
    rt = Runtime()

    def victim(ch):
        yield alloc(1024)
        yield recv(ch)

    def main(rt):
        ch = rt.make_chan()
        for _ in range(n):
            yield go(victim, ch)

    rt.run(main, rt)
    assert rt.blocked_goroutines_count == n
    return rt


class TestReadsAreO1:
    def test_census_reads_never_iterate(self):
        """The default read paths touch no per-goroutine/per-channel state."""
        rt = _leaky_runtime()
        spy_goroutines = _SpyDict(rt._goroutines)
        spy_channels = _SpyWeakSet(rt._channels)
        rt._goroutines = spy_goroutines
        rt._channels = spy_channels

        rt.rss()
        assert rt.num_goroutines == 50
        assert rt.blocked_goroutines_count == 50
        rt.state_census()
        assert spy_goroutines.walks == 0
        assert spy_channels.walks == 0

        # ... while the audit path is the one doing the scanning.
        rt.rss(audit=True)
        rt.state_census(audit=True)
        assert spy_goroutines.walks > 0
        assert spy_channels.walks > 0

    def test_audit_and_fast_paths_agree_on_the_leak(self):
        rt = _leaky_runtime()
        assert rt.rss() == rt.rss(audit=True)
        assert rt.rss() - rt.base_rss == 50 * (rt.default_stack_bytes + 1024)


class TestTimerHeapCompaction:
    def test_cancelled_timers_do_not_accumulate(self):
        """Regression: every cancel used to leave a tombstone forever."""
        rt = Runtime()
        for _ in range(10_000):
            rt.call_later(1000.0, lambda: None).cancel()
        assert len(rt._timers) < 64
        assert not rt._has_pending_timers(None)

    def test_ticker_churn_keeps_heap_bounded(self):
        rt = Runtime()

        def main(rt):
            for _ in range(2_000):
                ticker = rt.new_ticker(5.0)
                ticker.stop()
                yield gosched()

        rt.run(main, rt)
        assert len(rt._timers) < 64

    def test_live_timers_survive_compaction(self):
        rt = Runtime()
        fired = []
        keeper = rt.call_later(7.0, lambda: fired.append("keeper"))
        for _ in range(1_000):
            rt.call_later(1000.0, lambda: None).cancel()
        assert len(rt._timers) < 64
        assert rt._has_pending_timers(None)
        rt.advance(10.0)
        assert fired == ["keeper"]
        assert keeper.cancelled is False


class TestPublicWaiterPeek:
    def test_has_recv_waiter(self):
        rt = Runtime()
        ch = rt.make_chan()

        def receiver(ch):
            yield recv(ch)

        def main(rt):
            yield go(receiver, ch)
            yield gosched()

        rt.run(main, rt)
        assert ch.has_recv_waiter()
        assert not ch.has_send_waiter()

    def test_has_send_waiter(self):
        rt = Runtime()
        ch = rt.make_chan()

        def sender(ch):
            yield send(ch, "v")

        def main(rt):
            yield go(sender, ch)
            yield gosched()

        rt.run(main, rt)
        assert ch.has_send_waiter()
        assert not ch.has_recv_waiter()

    def test_nil_channel_has_no_waiters(self):
        rt = Runtime()
        assert not rt.nil_chan.has_recv_waiter()
        assert not rt.nil_chan.has_send_waiter()
