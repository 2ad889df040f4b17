"""Request workloads for service instances: handler mixes and traffic shapes."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.analysis.stats import diurnal
from repro.runtime.scheduler import body_name

from .cpu import DAY
from .memo import Memoized


@dataclass(frozen=True)
class Handler(Memoized):
    """One request handler: a pattern body plus its share of traffic.

    ``body`` is a generator function ``(rt, **params)``; parameters are
    bound here so the instance just spawns it per request.
    """

    name: str
    body: Callable
    weight: float = 1.0
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def main(self) -> Tuple[Callable, str]:
        """``(body with params bound, goroutine name)``, built once.

        What :meth:`repro.runtime.Runtime.serve` spawns as a request's
        main goroutine, named as ``spawn`` would name that body.
        """
        memo = self._memo
        if memo is None:
            body = self.body
            if self.params:
                body = functools.partial(body, **dict(self.params))
            memo = self.__dict__["_memo"] = (body, body_name(body))
        return memo


@dataclass
class RequestMix(Memoized):
    """A weighted set of handlers; sampling is deterministic under a seed.

    Grow ``handlers`` through :meth:`add`, which drops the memoized
    weight table.
    """

    handlers: List[Handler] = field(default_factory=list)

    def add(self, name: str, body: Callable, weight: float = 1.0,
            **params) -> "RequestMix":
        self.handlers.append(
            Handler(name, body, weight, tuple(sorted(params.items())))
        )
        self.__dict__.pop("_memo", None)
        return self

    def sample(self, rng) -> Handler:
        """One handler, by weight: one ``rng.uniform`` draw."""
        memo = self._memo
        if memo is None:
            table = []
            cumulative = 0.0
            for handler in self.handlers:
                cumulative += handler.weight
                table.append((cumulative, handler))
            memo = self.__dict__["_memo"] = (
                sum(h.weight for h in self.handlers), tuple(table)
            )
        total, table = memo
        point = rng.uniform(0, total)
        for cumulative, handler in table:
            if point <= cumulative:
                return handler
        return self.handlers[-1]


@dataclass(frozen=True)
class TrafficShape(Memoized):
    """Requests per window, with the fleet's characteristic diurnal swing.

    The last instant's request count is memoized: every instance of a
    service shares its shape and starts its window at the same instant.
    """

    requests_per_window: int = 100
    diurnal_fraction: float = 0.3  # +-30% swing around the mean
    #: Optional (start, end, multiplier) windows modeling outages or load
    #: imbalance — the unusual circumstances the paper says activate
    #: partial deadlocks in just a few instances (§V-A).
    surges: Tuple[Tuple[float, float, float], ...] = ()

    def requests_at(self, t_seconds: float) -> int:
        memo = self._memo
        if memo is not None and memo[0] == t_seconds:
            return memo[1]
        base = self.requests_per_window
        swing = base * self.diurnal_fraction
        value = diurnal(t_seconds, base - swing / 2, swing, period=DAY)
        for start, end, multiplier in self.surges:
            if start <= t_seconds < end:
                value *= multiplier
        count = max(0, int(round(value)))
        self.__dict__["_memo"] = (t_seconds, count)
        return count
