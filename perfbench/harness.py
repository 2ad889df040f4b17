"""Shared plumbing for the leak-stack benchmark: paths, spans, stats, set-up.

Everything here is benchmark-side.  The product (``src/repro``) is only
imported and called through its public API; the per-layer numbers come
from spans this module records around those calls and from the counters
the product already exports through :mod:`repro.obs`.
"""

from __future__ import annotations

import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (traces, temporary sqlite stores) lives here.
OUT = ROOT / ".perfbench_out"


def use_checkout_sources() -> None:
    """Import the product from this checkout's ``src`` and nowhere else.

    Raises ``SystemExit`` (no result printed) when the sources are absent,
    e.g. in a directory holding only the benchmark's own files.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no product sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # The ingest workload talks HTTP to 127.0.0.1 only; never via a proxy.
    for key in ("no_proxy", "NO_PROXY"):
        os.environ[key] = "127.0.0.1,localhost"


def stop_helpers() -> None:
    """Stop every helper process this process started, and reap each.

    The sharded fleet's shared-memory stat plane makes ``multiprocessing``
    launch a resource-tracker process, which otherwise outlives this one.
    Fleet workers are stopped by ``ShardedFleet.close``; any still alive
    here (an error path) are killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (as numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """High-water RSS of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """High-water RSS of another live process (``VmHWM``), 0.0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- reading the product's own exports ---------------------------------------


def series_total(registry, name: str, **labels) -> float:
    """Sum of a counter/gauge family's children matching ``labels``."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for values, child in metric.children():
        bound = dict(zip(metric.labelnames, values))
        if all(bound.get(k) == v for k, v in labels.items()):
            total += child.value
    return total


def histogram_total(registry, name: str, **labels) -> Tuple[float, int]:
    """``(sum, count)`` of a histogram family's children matching ``labels``."""
    metric = registry.get(name)
    if metric is None:
        return 0.0, 0
    total, count = 0.0, 0
    for values, child in metric.children():
        bound = dict(zip(metric.labelnames, values))
        if all(bound.get(k) == v for k, v in labels.items()):
            total += child.sum
            count += child.count
    return total, count


# -- spans -------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent and op id.

    ``begin``/``end`` bracket one call into a product layer.  Spans opened
    while an op is open share that op's id.  A span opened on another
    thread (the ingest daemon's handler threads) with no open span of its
    own is parented to the op's root span.  A disabled recorder records
    nothing; its methods return at once.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: (span id, parent id or -1, op id, name, start, end)
        self.records: List[Tuple[int, int, int, str, float, float]] = []
        self._local = threading.local()
        self._next = 0
        self._op = -1
        self._op_span = -1

    def _stack(self) -> List[Tuple[int, str, float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, name: str):
        if not self.enabled:
            return None
        self._op += 1
        token = self.begin(name)
        self._op_span = token[0]
        return token

    def end_op(self, token) -> None:
        if token is None:
            return
        self.end(token)
        self._op_span = -1

    def begin(self, name: str):
        if not self.enabled:
            return None
        stack = self._stack()
        ident = self._next
        self._next += 1
        parent = stack[-1][0] if stack else self._op_span
        stack.append((ident, name, time.perf_counter()))
        return (ident, parent)

    def end(self, token) -> None:
        if token is None:
            return
        end = time.perf_counter()
        ident, name, start = self._stack().pop()
        self.records.append((ident, token[1], self._op, name, start, end))

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _ident, parent, _op, _name, start, end in self.records:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: Dict[int, float] = {}
        for ident, _parent, _op, _name, start, end in self.records:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(ident, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[ident] = (end - start) - covered
        return out

    def self_ms_by_name(self) -> Dict[str, float]:
        """Total self time per span name, in milliseconds."""
        selfs = self.self_times()
        totals: Dict[str, float] = {}
        for ident, _parent, _op, name, _start, _end in self.records:
            totals[name] = totals.get(name, 0.0) + selfs[ident] * 1e3
        return totals

    def total_ms_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for _ident, _parent, _op, name, start, end in self.records:
            totals[name] = totals.get(name, 0.0) + (end - start) * 1e3
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for ident, parent, op, name, start, end in self.records:
                out.write(json.dumps({
                    "id": ident, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                }) + "\n")


OFF = Spans(enabled=False)


# -- set-up time from a cold process -----------------------------------------


def cold_setups(workload: str, seed: int, count: int) -> List[Dict[str, float]]:
    """Start ``count`` fresh interpreters that import the product and build
    ``workload``'s system up to its first op.

    ``setup_s`` is this process's wall time from launching the child until
    the child reports ready; the child itself reports ``import_s`` and
    ``build_s``.  Each child tears its system down and is waited for.
    """
    script = Path(__file__).resolve().parent / "coldstart.py"
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(script), workload, str(seed)],
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or not line:
            raise RuntimeError(f"cold start of {workload} failed ({code})")
        sample = json.loads(line)
        sample["setup_s"] = ready - started
        samples.append(sample)
    return samples


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]]) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


@dataclass
class Outcome:
    """What one measured pass of a workload produced.

    A pass is a sequence of identical episodes.  Per episode it keeps the
    units of work done, the wall seconds of its op loop (system builds
    excluded) and the CPU seconds spent, workers included.  ``layers``
    maps a per-layer metric name to ``(value, unit)``.
    """

    units: List[int] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    scan_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: (op_ms, scan_ms) lengths at each episode's end.
    ends: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def episodes(self) -> int:
        return len(self.units)

    @property
    def total_units(self) -> int:
        return sum(self.units)

    def add_episode(self, units: int, wall_s: float, cpu_s: float) -> None:
        """Close an episode whose op and scan samples are already in."""
        self.ends.append((len(self.op_ms), len(self.scan_ms)))
        self.units.append(units)
        self.wall_s.append(wall_s)
        self.cpu_s.append(cpu_s)

    def units_per_s(self) -> float:
        """Units per wall second of op loop, over the whole pass."""
        return sum(self.units) / sum(self.wall_s)

    def cpu_us_per_unit(self) -> float:
        """CPU microseconds per unit, over the whole pass."""
        return sum(self.cpu_s) * 1e6 / sum(self.units)

    def episode_percentile(self, samples: str, q: float) -> float:
        """Mean over episodes of each episode's ``q`` percentile of
        ``samples`` (``"op_ms"`` or ``"scan_ms"``).

        Taking the percentile per episode keeps a stall of a few ops from
        moving it; the mean then averages over the host's speed, which
        drifts over tens of seconds, instead of snapping to one state.
        """
        values = getattr(self, samples)
        column = 0 if samples == "op_ms" else 1
        starts = [0] + [end[column] for end in self.ends[:-1]]
        per_episode = [
            percentile(values[start:end[column]], q)
            for start, end in zip(starts, self.ends)
        ]
        return sum(per_episode) / len(per_episode)

    def check(self, ok: bool, message: str) -> None:
        """Count one output-checked op; a wrong output is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)

    def count_checks(self, other: "Outcome") -> None:
        """Add another pass's checked ops to this one's counts."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)

    def more(self, seconds: Optional[float], episodes: Optional[int]) -> bool:
        """Start another episode?  A fixed count, else until the time
        budget is spent (always at least one)."""
        if episodes is not None:
            return self.episodes < episodes
        return self.episodes == 0 or sum(self.wall_s) < seconds
