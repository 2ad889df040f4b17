"""The ``goleak-ci`` workload: the Goleak gate a CI job runs per test target.

A seeded stream of test targets of about 20 tests each goes through
``verify_test_main`` (the ``goleak.VerifyTestMain`` analog) and then
``goleak.find(strategy="reachability")``.  Most tests are sized healthy
bodies; about 5% are a registered pattern's ``leaky`` body.  The op is one
verified target.  Target ``i`` of a seed is a pure function of
``(seed, i)``, so every pass over the same indices runs the same tests.
"""

from __future__ import annotations

import functools
import random
from time import perf_counter, process_time
from typing import Optional, Tuple

from harness import (
    OFF, Outcome, Spans, histogram_total, peak_rss_mb, series_total,
)

from repro import obs
from repro.goleak import TestCase, TestTarget, find, verify_test_main
from repro.patterns import PATTERNS, healthy
from repro.runtime.scheduler import Runtime

#: Healthy bodies, sized so the interpreter step loop dominates a test.
HEALTHY = (
    (healthy.fan_out_fan_in, {"n_workers": 8, "n_items": 64}),
    (healthy.fan_out_fan_in, {"n_workers": 4, "n_items": 32}),
    (healthy.waitgroup_barrier, {"n": 32}),
    (healthy.ticker_with_stop, {"iterations": 20}),
    (healthy.request_response, {}),
    (healthy.bounded_timeout, {}),
)
LEAKY = tuple(sorted(PATTERNS))
LEAKY_SHARE = 0.05
#: Targets per episode: the unit over which rates are taken.
TARGETS_PER_EPISODE = 25


class _TracedCase(TestCase):
    """A test case whose run records a ``runtime.run`` span."""

    __test__ = False
    spans: Spans = OFF

    def run(self, runtime: Runtime) -> None:
        token = self.spans.begin("runtime.run")
        try:
            super().run(runtime)
        finally:
            self.spans.end(token)


def target(seed: int, index: int, spans: Spans = OFF) -> Tuple[TestTarget, bool]:
    """Test target ``index`` of ``seed``, and whether it holds a leaky test."""
    rng = random.Random(seed * 1_000_003 + index)
    tests = []
    leaky = False
    for number in range(rng.randint(18, 22)):
        if rng.random() < LEAKY_SHARE:
            body = PATTERNS[rng.choice(LEAKY)].leaky
            leaky = True
        else:
            fn, params = rng.choice(HEALTHY)
            body = functools.partial(fn, **params)
        if spans.enabled:
            case = _TracedCase(f"Test{number}", body)
            case.spans = spans
        else:
            case = TestCase(f"Test{number}", body)
        tests.append(case)
    return TestTarget(package=f"pkg/t{index}", tests=tests), leaky


def verify(seed: int, index: int, spans: Spans = OFF):
    """The op: run and verify one target.

    Returns the op's ms, the reachability ``find`` part of it (ms), and
    the check inputs.
    """
    tgt, leaky = target(seed, index, spans)
    started = perf_counter()
    op = spans.begin_op("goleak-ci.target")
    runtime = Runtime(seed=index, name=f"test:{tgt.package}")
    token = spans.begin("goleak.verify")
    result = verify_test_main(tgt, runtime=runtime)
    spans.end(token)
    verified = perf_counter()
    token = spans.begin("goleak.find")
    proven = find(runtime, strategy="reachability")
    spans.end(token)
    spans.end_op(op)
    done = perf_counter()
    return ((done - started) * 1e3, (done - verified) * 1e3,
            leaky, result, proven)


def target_ok(leaky: bool, result, proven) -> bool:
    """A target fails exactly when it holds a leaky test, healthy tests
    never error, and every proven leak is in the exit-point residue."""
    residue = {record.gid for record in result.leaks}
    return (
        result.failed == leaky
        and (leaky or not result.test_failures)
        and {record.gid for record in proven} <= residue
    )


def run(seed: int, seconds: Optional[float] = None,
        episodes: Optional[int] = None, spans: Spans = OFF,
        corrupt: bool = False) -> Outcome:
    """Closed loop over the target stream, ``TARGETS_PER_EPISODE`` targets
    to an episode; every target's verdict checked."""
    out = Outcome()
    reg = obs.default_registry()
    runs0 = series_total(reg, "repro_sched_runs_total")
    steps0 = series_total(reg, "repro_sched_steps_total")
    sweep0, _ = histogram_total(reg, "repro_gc_phase_seconds")
    proven_total = possibly_total = 0.0
    index = 0
    while out.more(seconds, episodes):
        wall_s = cpu_s = 0.0
        for _ in range(TARGETS_PER_EPISODE):
            cpu0 = process_time()
            op_ms, find_ms, leaky, result, proven = verify(seed, index, spans)
            cpu_s += process_time() - cpu0
            wall_s += op_ms / 1e3
            if spans.enabled:
                proven_total += series_total(
                    reg, "repro_gc_verdicts", verdict="proven_leaked")
                possibly_total += series_total(
                    reg, "repro_gc_verdicts", verdict="possibly_leaked")
            if corrupt:
                leaky = not leaky
            out.check(target_ok(leaky, result, proven),
                      f"target {index}: verdict differs from its tests")
            out.op_ms.append(op_ms)
            out.scan_ms.append(find_ms)
            index += 1
        out.add_episode(TARGETS_PER_EPISODE, wall_s, cpu_s)
    out.peak_rss_mb = peak_rss_mb()
    if spans.enabled:
        runs = series_total(reg, "repro_sched_runs_total") - runs0
        steps = series_total(reg, "repro_sched_steps_total") - steps0
        sweep_s = histogram_total(reg, "repro_gc_phase_seconds")[0] - sweep0
        selfs = spans.self_ms_by_name()
        layers = {
            "runtime.run_ms": selfs.get("runtime.run", 0.0) / index,
            "goleak.verify_ms": selfs.get("goleak.verify", 0.0) / index,
            "goleak.find_ms": selfs.get("goleak.find", 0.0) / index,
        }
        for name, value in layers.items():
            out.layers[name] = (value, "ms")
        op_ms = spans.total_ms_by_name()["goleak-ci.target"] / index
        out.layers["layers.coverage_pct"] = (
            100.0 * sum(layers.values()) / op_ms, "%")
        out.layers["gc.sweep_ms"] = (sweep_s * 1e3 / index, "ms")
        out.layers["gc.proven"] = (proven_total / index, "count/unit")
        out.layers["gc.possibly"] = (possibly_total / index, "count/unit")
        out.layers["runtime.runs"] = (runs / index, "runs/unit")
        out.layers["runtime.steps"] = (steps / index, "steps/unit")
        out.layers["runtime.steps_per_run"] = (steps / runs, "steps/run")
    return out


def first_target(seed: int) -> Tuple[TestTarget, Runtime]:
    """What a CI job holds before its first verification (cold set-up)."""
    tgt, _leaky = target(seed, 0)
    return tgt, Runtime(seed=0, name=f"test:{tgt.package}")
