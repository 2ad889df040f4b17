"""repro.obs — self-observability for the detection stack.

The paper's core discipline is that in-production leak detection must be
featherlight; this package is how the repo holds *itself* to that bar.
It is dependency-free (stdlib only) and split in four:

* :mod:`repro.obs.registry` — Counter/Gauge/Histogram metrics with
  labels, the monotonic clock, and Prometheus text exposition;
* :mod:`repro.obs.trace` — nested Span/Tracer pipeline tracing with an
  in-memory ring-buffer exporter (queryable in tests, dumpable as JSON);
* :mod:`repro.obs.parse` — the exposition-format parser (round-trip
  tests, the CLI, CI scrape gates);
* :mod:`repro.obs.fold` — the one path run, window and gc sweep counts
  take into the registry.

Process-wide defaults live here: every instrumented subsystem (runtime
scheduler, gc sweeps, LeakProf runs, ingest scans, remedy rollouts,
fleet windows) records into :func:`default_registry` and traces into
:func:`default_tracer`, so one ``obs.snapshot()`` / ``obs.render()``
shows the whole pipeline.  ``configure(enabled=False)`` turns all of it
off — the uninstrumented baseline ``benchmarks/bench_obs_overhead.py``
measures against.  It gates two workloads with metrics on: ≤5% steps/sec
on a scheduler ping-pong, and ≤20% CPU on an in-process fleet week, where
runs are a few steps each; runs, windows and sweeps are tallied in plain
fields and folded once per window (:mod:`repro.obs.fold`).

Ingest daemons additionally keep a *private* registry each (so two
servers in one process never mix counters); their ``/metrics`` endpoint
merges the private registry with this module's default.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .parse import (
    ParsedFamily,
    ParsedSample,
    PromParseError,
    parse_prometheus_text,
    sample_value,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    monotonic,
    render_prometheus,
)
from .trace import Span, Tracer

_default_registry = MetricsRegistry()
_default_tracer = Tracer()


def default_registry() -> MetricsRegistry:
    """The process-wide registry all pipeline instrumentation records to."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one (tests)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def default_tracer() -> Tracer:
    """The process-wide tracer all pipeline spans attach to."""
    return _default_tracer


def set_default_tracer(tracer: Tracer) -> Tracer:
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def configure(
    enabled: Optional[bool] = None, trace_enabled: Optional[bool] = None
) -> None:
    """Flip metrics and/or tracing on the process-wide defaults."""
    if enabled is not None:
        _default_registry.enabled = enabled
    if trace_enabled is not None:
        _default_tracer.enabled = trace_enabled


def enabled() -> bool:
    return _default_registry.enabled


def reset() -> None:
    """Drop all default-registry metrics and retained traces (tests)."""
    _default_registry.clear()
    _default_tracer.clear()


# -- convenience pass-throughs on the defaults ------------------------------


def counter(
    name: str, help_text: str = "", labelnames: Sequence[str] = ()
) -> Counter:
    return _default_registry.counter(name, help_text, labelnames)


def gauge(
    name: str, help_text: str = "", labelnames: Sequence[str] = ()
) -> Gauge:
    return _default_registry.gauge(name, help_text, labelnames)


def histogram(
    name: str,
    help_text: str = "",
    labelnames: Sequence[str] = (),
    buckets=None,
) -> Histogram:
    return _default_registry.histogram(name, help_text, labelnames, buckets)


def span(name: str, **attributes):
    """``with obs.span("leakprof.sweep"):`` on the default tracer."""
    return _default_tracer.span(name, **attributes)


def snapshot() -> Dict[str, Dict]:
    """Plain-data snapshot of every pipeline metric (the fleet API).

    O(series) and read-only: a fleet driver can call this every window
    to ship its own health next to the workloads it simulates.
    """
    return _default_registry.snapshot()


def render() -> str:
    """The default registry in Prometheus text format."""
    return _default_registry.render()


def summary(max_traces: int = 3) -> str:
    """Human-readable end-of-run digest: non-zero metrics + span trees.

    What the examples print so each run doubles as an instrumentation
    smoke test.
    """
    lines = ["-- metrics (non-zero) --"]
    for name, family in sorted(snapshot().items()):
        for key, value in family["samples"].items():
            if isinstance(value, dict):
                if not value["count"]:
                    continue
                mean_ms = value["sum"] / value["count"] * 1000.0
                shown = (
                    f"count={value['count']} mean={mean_ms:.2f}ms"
                )
            else:
                if not value:
                    continue
                shown = (
                    str(int(value)) if float(value).is_integer() else
                    f"{value:.4f}"
                )
            label_blob = f"{{{key}}}" if key else ""
            lines.append(f"  {name}{label_blob} {shown}")
    if len(lines) == 1:
        lines.append("  (none recorded)")
    roots = _default_tracer.roots()
    if roots:
        lines.append(f"-- traces (last {min(max_traces, len(roots))} of "
                     f"{len(roots)}) --")
        for root in roots[-max_traces:]:
            for line in root.render().splitlines():
                lines.append(f"  {line}")
    return "\n".join(lines)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "ParsedFamily",
    "ParsedSample",
    "PromParseError",
    "Span",
    "Tracer",
    "configure",
    "counter",
    "default_registry",
    "default_tracer",
    "enabled",
    "gauge",
    "histogram",
    "monotonic",
    "parse_prometheus_text",
    "render",
    "render_prometheus",
    "reset",
    "sample_value",
    "set_default_registry",
    "set_default_tracer",
    "snapshot",
    "span",
    "summary",
]
