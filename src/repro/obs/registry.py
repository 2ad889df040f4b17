"""The metrics registry: Counter / Gauge / Histogram with Prometheus text.

Dependency-free self-observability for the detection stack.  The design
constraint is the paper's own bar: instrumentation must be featherlight
enough to leave on in production.  Looking a series up — the registry's
get-or-create by name, then ``labels()`` stringifying each label value —
costs microseconds, so the hottest paths tally runs and windows in
plain fields that :mod:`repro.obs.fold` adds once per window.  A record
is an ``enabled`` check, a lock and a float add; a histogram adds one
bisect for its bucket.  No formatting, no I/O.  Exposition
(:func:`render_prometheus`) walks the registry only when something
actually scrapes it.

Three metric kinds, all label-aware:

* :class:`Counter` — monotonically increasing (``_total`` by convention);
* :class:`Gauge` — a value that goes both ways (queue depths, census);
* :class:`Histogram` — cumulative buckets with ``_sum``/``_count``.

A :class:`MetricsRegistry` is the unit of isolation: the process-wide
default registry (see :mod:`repro.obs`) carries the pipeline series,
while each :class:`~repro.ingest.IngestServer` owns a private one so two
daemons in one process never bleed counters into each other.  Setting
``registry.enabled = False`` turns every recording call into an early
return — the uninstrumented baseline the overhead benchmark compares
against.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Monotonic clock every recorded duration is read from (never virtual).
monotonic = time.perf_counter

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets, in seconds (sub-millisecond through 10s).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")


def escape_label_value(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def escape_help(text: str) -> str:
    """Escape a HELP line for the Prometheus text format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _CounterChild:
    __slots__ = ("_value", "_lock", "_registry")

    def __init__(self, registry: "MetricsRegistry"):
        self._value = 0.0
        self._lock = threading.Lock()
        self._registry = registry

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        return [("", {}, self._value)]


class _GaugeChild:
    __slots__ = ("_value", "_lock", "_registry")

    def __init__(self, registry: "MetricsRegistry"):
        self._value = 0.0
        self._lock = threading.Lock()
        self._registry = registry

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        return [("", {}, self._value)]


class _HistogramChild:
    __slots__ = ("_buckets", "_counts", "_sum", "_count", "_lock", "_registry")

    def __init__(self, registry: "MetricsRegistry", buckets: Tuple[float, ...]):
        self._buckets = buckets  # sorted, excludes +Inf
        self._counts = [0] * (len(buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()
        self._registry = registry

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        # The first bound >= value; NaN compares false against every
        # bound, so it is pinned to +Inf (bisect alone would say 0).
        index = (
            bisect.bisect_left(self._buckets, value)
            if value == value
            else len(self._buckets)
        )
        with self._lock:
            self._sum += value
            self._count += 1
            self._counts[index] += 1

    def merge(self, counts: Dict[int, int], total: float) -> None:
        """Add drained observations, ``counts`` mapping a bucket's index
        (``+Inf`` last) to how many landed in it, summing to ``total``."""
        if not self._registry.enabled:
            return
        with self._lock:
            for index, n in counts.items():
                self._counts[index] += n
                self._count += n
            self._sum += total

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def bucket_values(self) -> List[Tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self._buckets, self._counts):
            running += n
            out.append((bound, running))
        out.append((_INF, self._count))
        return out

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        out: List[Tuple[str, Dict[str, str], float]] = []
        for bound, cumulative in self.bucket_values():
            out.append(("_bucket", {"le": format_value(bound)}, cumulative))
        out.append(("_sum", {}, self._sum))
        out.append(("_count", {}, float(self._count)))
        return out


class _Metric:
    """One metric family: a name, a kind, and children per label set."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        registry: Optional["MetricsRegistry"] = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"bad label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            # Label-less metrics act as their own single child.
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, *values, **kwargs):
        """The child for one concrete label set (created on first use)."""
        child = self._children.get(values)
        if child is not None and not kwargs:
            return child  # label values already strings: the common case
        if kwargs:
            if values:
                raise ValueError("pass label values positionally OR by name")
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as missing:
                raise ValueError(f"missing label {missing}") from None
        values = tuple(map(str, values))
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} wants labels {self.labelnames}, got {values}"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(values, self._make_child())
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(labelvalues, child)`` pairs in deterministic (sorted) order."""
        return sorted(self._children.items(), key=lambda item: item[0])

    # -- label-less convenience: delegate to the single child ---------------

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {self.labelnames}; use .labels()"
            )
        return self._children[()]


class Counter(_Metric):
    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._registry)

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    @property
    def value(self) -> float:
        return self._solo().value

    @property
    def total(self) -> float:
        """Sum over every child (all label sets)."""
        return sum(child.value for child in self._children.values())


class Gauge(_Metric):
    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._registry)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    @property
    def value(self) -> float:
        return self._solo().value


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        registry: Optional["MetricsRegistry"] = None,
        buckets: Optional[Sequence[float]] = None,
    ):
        raw = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        cleaned = tuple(sorted(b for b in raw if b != _INF))
        if not cleaned:
            raise ValueError("histogram needs at least one finite bucket")
        if "le" in labelnames:
            raise ValueError("'le' is reserved for histogram buckets")
        self.buckets = cleaned
        super().__init__(name, help_text, labelnames, registry)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._registry, self.buckets)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def sum(self) -> float:
        return self._solo().sum

    @property
    def count(self) -> int:
        return self._solo().count


class MetricsRegistry:
    """A namespace of metrics with Prometheus text exposition.

    ``enabled=False`` short-circuits every recording call (the metric
    objects stay registered, their values frozen) — flipping the flag is
    how the overhead benchmark isolates instrumentation cost.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- get-or-create factories (idempotent, validated on conflict) --------

    def _register(self, klass, name, help_text, labelnames, **opts) -> _Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, klass) or (
                tuple(labelnames) != metric.labelnames
            ):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind} with labels {metric.labelnames}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = klass(
                    name, help_text, labelnames, registry=self, **opts
                )
                self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    # -- introspection -------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        """Every registered family, sorted by name (deterministic output)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def clear(self) -> None:
        """Drop every metric (tests; a fresh start, not a zeroing)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-data view of every metric — the fleet/observer API.

        Counters and gauges map label tuples to values; histograms map
        them to ``{"count", "sum", "buckets"}`` dicts.  Keys are
        ``"label=value,..."`` strings (``""`` for label-less metrics) so
        the snapshot is JSON-able as-is.
        """
        out: Dict[str, Dict] = {}
        for metric in self.metrics():
            series: Dict[str, object] = {}
            for labelvalues, child in metric.children():
                key = ",".join(
                    f"{name}={value}"
                    for name, value in zip(metric.labelnames, labelvalues)
                )
                if isinstance(child, _HistogramChild):
                    series[key] = {
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            format_value(le): n
                            for le, n in child.bucket_values()
                        },
                    }
                else:
                    series[key] = child.value
            out[metric.name] = {"type": metric.kind, "samples": series}
        return out

    def render(self) -> str:
        """This registry alone, in Prometheus text format."""
        return render_prometheus(self)


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Expose one or more registries as Prometheus text format 0.0.4.

    Families are emitted name-sorted; within a family, children are
    sorted by label values — byte-identical output for identical state,
    so scrapes diff cleanly.  When registries collide on a name the
    first one wins (the daemon renders its private registry ahead of the
    process default).
    """
    seen: Dict[str, _Metric] = {}
    for registry in registries:
        for metric in registry.metrics():
            seen.setdefault(metric.name, metric)
    lines: List[str] = []
    for name in sorted(seen):
        metric = seen[name]
        if metric.help_text:
            lines.append(f"# HELP {name} {escape_help(metric.help_text)}")
        lines.append(f"# TYPE {name} {metric.kind}")
        for labelvalues, child in metric.children():
            base = list(zip(metric.labelnames, labelvalues))
            for suffix, extra, value in child.samples():
                pairs = base + sorted(extra.items())
                if pairs:
                    rendered = ",".join(
                        f'{label}="{escape_label_value(str(v))}"'
                        for label, v in pairs
                    )
                    label_blob = "{" + rendered + "}"
                else:
                    label_blob = ""
                lines.append(
                    f"{name}{suffix}{label_blob} {format_value(value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "render_prometheus",
    "escape_label_value",
    "escape_help",
    "format_value",
    "monotonic",
]
