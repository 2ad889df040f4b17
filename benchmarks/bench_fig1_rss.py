"""Fig 1: resident set size of a leaky service before and after the fix.

Paper: a production microservice's RSS climbs to ~6 GiB; deploying the
partial-deadlock fix on day ~4 collapses it to ~650 MiB — a 9.2×
reduction.  We run a service whose handler carries the paper's timeout
leak (Listing 8), deploy the capacity-1 fix mid-window, and measure the
same ratio.
"""

import pytest

from repro.fleet import Fleet, RequestMix, Service, ServiceConfig, TrafficShape
from repro.fleet.service import windows_in
from repro.patterns import timeout_leak

from _emit import emit
from conftest import print_series

GIB = 1024**3
MIB = 1024**2

#: Paper values.
PAPER_PEAK_GIB = 6.0
PAPER_AFTER_MIB = 650
PAPER_REDUCTION = 9.2

#: Sampling window: 3 h of virtual time.
WINDOW = 3 * 3600.0


def run_fig1(days_before=3.0, days_after=1.0, seed=7):
    leaky = RequestMix().add(
        "handle", timeout_leak.leaky, weight=1.0, payload_bytes=4608 * 1024
    )
    fixed = RequestMix().add(
        "handle", timeout_leak.fixed, weight=1.0, payload_bytes=4608 * 1024
    )
    config = ServiceConfig(
        name="rss-service",
        mix=leaky,
        instances=2,
        traffic=TrafficShape(requests_per_window=50),
        base_rss=650 * MIB,
    )
    service = Service(config, seed=seed)
    fleet = Fleet().add(service)
    series = []

    def run_days(days):
        for _ in range(windows_in(days, WINDOW)):
            fleet.advance_window(WINDOW)
            series.append(
                (service.now / 86_400.0, service.peak_instance_rss())
            )

    run_days(days_before)
    peak_before = service.peak_instance_rss()
    service.deploy(fixed)
    run_days(days_after)
    after = max(i.rss() for i in service.instances)
    return peak_before, after, series


def test_fig1_rss_reduction(benchmark):
    peak_before, after, series = benchmark.pedantic(
        run_fig1, rounds=1, iterations=1
    )
    reduction = peak_before / after
    print_series(
        "Fig 1: RSS over time (day, peak instance RSS)",
        [(f"{day:.2f}", f"{rss / GIB:.2f} GiB") for day, rss in series[::2]],
    )
    print(
        f"\npeak before fix: {peak_before / GIB:.2f} GiB "
        f"(paper ~{PAPER_PEAK_GIB} GiB)\n"
        f"after fix:       {after / MIB:.0f} MiB (paper ~{PAPER_AFTER_MIB} MiB)\n"
        f"reduction:       {reduction:.1f}x (paper {PAPER_REDUCTION}x)"
    )
    emit(
        "fig1_rss",
        metric="rss_reduction",
        value=round(reduction, 2),
        unit="x",
        seed=7,
        peak_before_bytes=peak_before,
        after_bytes=after,
    )
    # Shape assertions: multi-GiB growth, collapse to baseline, ~9x ratio.
    assert peak_before > 3 * GIB
    assert after == 650 * MIB
    assert reduction == pytest.approx(PAPER_REDUCTION, rel=0.25)
