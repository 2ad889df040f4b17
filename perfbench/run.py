"""One-command benchmark of the goroutine-leak detection stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-serial --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fleet-serial``  in-process ``Fleet``, full detection sweep per window;
* ``fleet-async``   ``ShardedFleet(shards=2)``, watermarked async windows;
* ``goleak-ci``     ``verify_test_main`` + reachability ``find`` per target;
* ``ingest-mixed``  HTTP uploads to ``IngestServer`` beside admin scans.

``--trace 0`` measures the named workload with the product's metrics at
their shipped default (on) and the benchmark's spans off, and prints the
end-to-end metrics.  ``--trace 1`` records spans around every call into a
product layer and reads the product's own counters, and prints the
per-layer metrics: the named workload is traced for ``--seconds``, every
other workload for a short fixed slice, so each per-layer metric is
measured on the workload it belongs to.  Spans are written to
``.perfbench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: End-to-end metric -> unit (every workload reports every one).
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "cpu_us_per_unit": "us",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "scan_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Share of the parent's median by which each end-to-end metric may worsen.
#: Every time gets the widest bound: on a shared 2-CPU host the CPU speed
#: itself swings by up to a quarter between runs (see perfbench/README.md).
BOUNDS = {
    "setup_s": 0.25,
    "units_per_s": 0.25,
    "cpu_us_per_unit": 0.25,
    "op_ms_p50": 0.25,
    "op_ms_p90": 0.25,
    "scan_ms_p50": 0.25,
    "peak_rss_mb": 0.1,
}

#: Per-layer metric (without its workload prefix) -> unit, per workload.
PER_LAYER = {
    "fleet-serial": {
        "fleet.advance_ms": "ms",
        "snapshot.freeze_ms": "ms",
        "profiling.profile_ms": "ms",
        "leakprof.scan_ms": "ms",
        "runtime.runs": "runs/unit",
        "runtime.steps": "steps/unit",
        "runtime.steps_per_run": "steps/run",
        "obs.overhead_pct": "%",
    },
    "fleet-async": {
        "fleet.shard.begin_ms": "ms",
        "fleet.shard.poll_ms": "ms",
        "leakprof.streaming.query_ms": "ms",
        "fleet.shard.parent_cpu_ms": "ms",
        "fleet.shard.worker_cpu_ms": "ms",
        "fleet.shard.wire_bytes": "B",
        "fleet.shard.wire_bytes.advance": "B",
        "fleet.shard.wire_bytes.init": "B",
        "fleet.shard.stale_deltas": "count",
        "fleet.shard.full_resyncs": "count",
        "fleet.shard.max_window_spread": "windows",
        "fleet.shard.spawn_s": "s",
        "fleet.worker_rss_mb": "MB",
    },
    "goleak-ci": {
        "runtime.run_ms": "ms",
        "goleak.verify_ms": "ms",
        "goleak.find_ms": "ms",
        "gc.sweep_ms": "ms",
        "gc.proven": "count/unit",
        "gc.possibly": "count/unit",
        "runtime.runs": "runs/unit",
        "runtime.steps": "steps/unit",
        "runtime.steps_per_run": "steps/run",
        "obs.overhead_pct": "%",
    },
    "ingest-mixed": {
        "profiling.parse_ms": "ms",
        "ingest.store_ms": "ms",
        "ingest.http_ms": "ms",
        "ingest.sweep_ms": "ms",
        "leakprof.analyze_ms": "ms",
        "remedy.diagnose_ms": "ms",
        "ingest.scan_run_ms": "ms",
        "ingest.scan_reparse_ratio": "ratio",
        "layers.scan_coverage_pct": "%",
    },
}
#: Reported for every workload.
COMMON_LAYERS = {
    "layers.coverage_pct": "%",
    "trace.overhead_pct": "%",
    "setup.import_s": "s",
    "setup.build_s": "s",
}

#: Cold starts per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Cold starts per workload in a traced run.
TRACED_SETUP_SAMPLES = 3
#: Episodes of a workload traced alongside another.
TRACED_SLICE = {
    "fleet-serial": 4,
    "fleet-async": 4,
    "goleak-ci": 6,
    "ingest-mixed": 1,
}
#: Alternating rounds behind trace.overhead_pct and obs.overhead_pct.
OVERHEAD_ROUNDS = {
    "fleet-serial": 5,
    "fleet-async": 4,
    "goleak-ci": 12,
    "ingest-mixed": 2,
}


def per_layer_units():
    """Every per-layer metric name (workload-prefixed) -> unit."""
    out = {}
    for workload, layers in PER_LAYER.items():
        for name, unit in {**layers, **COMMON_LAYERS}.items():
            out[f"{workload}.{name}"] = unit
    return out


def runner(workload: str, tiny: bool = False):
    """The workload's ``run(seed, seconds=, episodes=, spans=, corrupt=)``,
    at its smoke-test size when ``tiny``."""
    if workload in ("fleet-serial", "fleet-async"):
        import wl_fleet as module

        run = module.run_serial if workload == "fleet-serial" else (
            module.run_async)
    elif workload == "goleak-ci":
        import wl_goleak

        return wl_goleak.run  # tiny targets would skip the step loop
    else:
        import wl_ingest as module

        run = module.run
    return functools.partial(run, size=module.TINY) if tiny else run


def _budget(workload: str, seconds: float, tiny: bool, slice_: bool):
    """Run length: ``--seconds``, a traced slice, or one tiny episode."""
    if tiny:
        return {"episodes": 1}
    if slice_:
        return {"episodes": TRACED_SLICE[workload]}
    return {"seconds": seconds}


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool = False):
    """Measure one workload untraced; returns (outcome, metrics)."""
    setups = harness.cold_setups(
        workload, seed, 1 if tiny else SETUP_SAMPLES)
    run = runner(workload, tiny)
    # One unmeasured episode first: lazy set-up a long-lived process pays
    # once (e.g. the remedy pattern index on the first scan) stays out.
    warmup = run(seed, episodes=1)
    out = run(seed, **_budget(workload, seconds, tiny, slice_=False))
    out.count_checks(warmup)
    values = {
        "setup_s": harness.median([s["setup_s"] for s in setups]),
        "units_per_s": out.units_per_s(),
        "cpu_us_per_unit": out.cpu_us_per_unit(),
        "op_ms_p50": out.episode_percentile("op_ms", 50),
        "op_ms_p90": out.episode_percentile("op_ms", 90),
        "scan_ms_p50": out.episode_percentile("scan_ms", 50),
        "peak_rss_mb": out.peak_rss_mb,
    }
    return out, {
        name: harness.metric(values[name], unit)
        for name, unit in END_TO_END.items()
    }


def traced(named: str, seed: int, seconds: float, tiny: bool = False):
    """Per-layer metrics of every workload; returns (checks, metrics),
    ``checks`` counting the checked ops of every pass."""
    from repro import obs

    checks = harness.Outcome()
    values = {}
    for workload in PER_LAYER:
        run = runner(workload, tiny)
        warmup = run(seed, episodes=1)
        spans = harness.Spans(enabled=True)
        out = run(seed, spans=spans,
                  **_budget(workload, seconds, tiny, workload != named))
        spans.write(harness.OUT / f"trace-{workload}-seed{seed}.jsonl.gz")
        layers = dict(out.layers)
        passes = [warmup, out]
        # Overheads compare one-episode passes in alternation (untraced,
        # traced, metrics off), so host speed drift cancels out of the
        # per-round CPU ratios whose medians are reported.
        tracing, metrics_on = [], []
        for _ in range(OVERHEAD_ROUNDS[workload]):
            plain = run(seed, episodes=1)
            with_spans = run(seed, episodes=1,
                             spans=harness.Spans(enabled=True))
            passes += [plain, with_spans]
            tracing.append(
                with_spans.cpu_us_per_unit() / plain.cpu_us_per_unit())
            if "obs.overhead_pct" in PER_LAYER[workload]:
                obs.configure(enabled=False)
                try:
                    bare = run(seed, episodes=1)
                finally:
                    obs.configure(enabled=True)
                passes.append(bare)
                metrics_on.append(
                    plain.cpu_us_per_unit() / bare.cpu_us_per_unit())
        layers["trace.overhead_pct"] = (
            100.0 * (harness.median(tracing) - 1.0), "%")
        if metrics_on:
            layers["obs.overhead_pct"] = (
                100.0 * (harness.median(metrics_on) - 1.0), "%")
        setups = harness.cold_setups(
            workload, seed, 1 if tiny else TRACED_SETUP_SAMPLES)
        layers["setup.import_s"] = (
            harness.median([s["import_s"] for s in setups]), "s")
        layers["setup.build_s"] = (
            harness.median([s["build_s"] for s in setups]), "s")
        for done in passes:
            checks.count_checks(done)
        for name, (value, unit) in layers.items():
            values[f"{workload}.{name}"] = harness.metric(value, unit)
    units = per_layer_units()
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step: {sorted(missing)}")
    return checks, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(PER_LAYER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.use_checkout_sources()
    try:
        if args.trace:
            out, metrics = traced(args.workload, args.seed, args.seconds)
        else:
            out, metrics = end_to_end(args.workload, args.seed, args.seconds)
    finally:
        harness.stop_helpers()
    for error in out.errors:
        print(f"check failed: {error}", file=sys.stderr)
    harness.emit(out.failed == 0 and out.attempted > 0, out.attempted,
                 out.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
