"""Upload admission control: per-tenant token buckets.

The paper's deployment fetches ~200K profile files per daily sweep; an
*ingestion* service inverts the flow and must protect itself from any
one tenant flooding the archive.  A classic token bucket per tenant:
``rate`` uploads/second sustained, bursts up to ``burst``.  Time is
injected so tests (and the deterministic simulator) can drive it with a
virtual clock.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict


class TokenBucket:
    """One tenant's budget: ``burst`` capacity refilled at ``rate``/s."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def try_acquire(self, now: float) -> bool:
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class RateLimiter:
    """Per-key token buckets behind one lock (the daemon is threaded)."""

    def __init__(
        self,
        rate: float = 10.0,
        burst: float = 20.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}

    def allow(self, key: str) -> bool:
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[key] = bucket
            return bucket.try_acquire(now)
