"""Statistical model of Uber's Go monorepo (paper Tables I and II).

Constants below are the paper's measured values; the generator samples a
scaled-down synthetic monorepo from them and the scanner re-counts, so the
reproduced tables match in *ratio* with sampling noise shrinking as the
scale grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Table I — package population.
TOTAL_PACKAGES = 119_816
MP_PACKAGES = 4_699  # message passing
SM_PACKAGES = 6_627  # shared memory
BOTH_PACKAGES = 2_416  # MP ∩ SM


@dataclass(frozen=True)
class GroupFiles:
    """Files and effective lines of code for one Table I row."""

    source_files: int
    source_eloc: int
    test_files: int
    test_eloc: int


#: Table I rows (files in thousands in the paper; exact counts here).
TABLE1_FILES: Dict[str, GroupFiles] = {
    "mp": GroupFiles(22_000, 3_390_000, 15_000, 4_810_000),
    "sm": GroupFiles(29_000, 4_870_000, 20_000, 6_170_000),
    "both": GroupFiles(13_000, 2_280_000, 10_000, 3_260_000),
    "all": GroupFiles(260_000, 46_310_000, 142_000, 29_370_000),
}

#: Table II — feature totals over MP packages, (source, tests).
TABLE2_FEATURES: Dict[str, Tuple[int, int]] = {
    "functions_anonymous": (31_000, 41_785),
    "functions_named": (1_025_687, 32_666),
    "functions_chan_param": (2_410, 565),
    "functions_chan_return": (1_387, 1_387),
    "go_keyword": (11_136, 3_745),
    "go_wrapper": (5_342, 366),
    "chan_unbuffered": (3_006, 3_444),
    "chan_size1": (1_295, 1_175),
    "chan_const": (328, 435),
    "chan_dynamic": (2_018, 270),
    "sends": (7_803, 3_440),
    "receives": (9_584, 6_586),
    "closes": (4_078, 2_117),
    "select_blocking": (3_046, 965),
    "select_nonblocking": (1_052, 430),
}

#: Derived Table II aggregates, for convenience and assertions.
GOROUTINE_TOTALS = (16_478, 4_111)
CHAN_ALLOC_TOTALS = (6_647, 5_324)
SELECT_TOTALS = (4_098, 1_395)

#: Table II select-case distribution (blocking selects, source):
#: P50 = 2, P90 = 3, max = 11, mode = 2.  The discrete pmf below realizes
#: those statistics.
SELECT_CASE_PMF: Tuple[Tuple[int, float], ...] = (
    (2, 0.62),
    (3, 0.30),
    (4, 0.045),
    (5, 0.02),
    (6, 0.008),
    (7, 0.003),
    (8, 0.002),
    (9, 0.001),
    (10, 0.0005),
    (11, 0.0005),
)

#: Test-column distribution: P50 = 2, P90 = 2, max = 6, mode = 2.
SELECT_CASE_PMF_TESTS: Tuple[Tuple[int, float], ...] = (
    (2, 0.91),
    (3, 0.06),
    (4, 0.02),
    (5, 0.006),
    (6, 0.004),
)

#: Paper headline: ~2000 goroutines per production process at the median
#: (vs ~256 threads for Java).
MEDIAN_GOROUTINES_PER_PROCESS = 2_000


def mp_feature_means() -> Dict[str, Tuple[float, float]]:
    """Per-MP-package feature means (source, tests)."""
    return {
        feature: (source / MP_PACKAGES, tests / MP_PACKAGES)
        for feature, (source, tests) in TABLE2_FEATURES.items()
    }
