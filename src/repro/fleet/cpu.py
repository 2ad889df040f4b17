"""CPU utilization model (paper Fig 2).

Production CPU has two components in the paper's narrative:

* a *diurnal* request-driven baseline (the crests and troughs of Fig 2),
* the burn of leaked timer-loop goroutines (§VI-A2): each leaked reporter
  wakes every ``period`` seconds and does a little work, so the extra
  utilization is proportional to the number of leaked goroutines.

Simulating millions of timer wakeups step-by-step would drown the
scheduler, so the per-leak burn is computed analytically from the leak
count — the same quantity the runtime would accumulate through ``burn``
effects (validated at small scale in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import diurnal

from .memo import Memoized

#: Seconds per day.
DAY = 86_400.0


@dataclass(frozen=True)
class CpuModel(Memoized):
    """Utilization (in percent) as a function of time and leak count."""

    base_percent: float = 6.0
    diurnal_amplitude: float = 12.0
    #: CPU seconds burned per wakeup of one leaked timer goroutine.
    cpu_per_wakeup: float = 0.004
    #: Wakeup period of the leaked reporter loops, seconds.
    wakeup_period: float = 60.0
    cores: int = 4

    def baseline(self, t_seconds: float) -> float:
        """Healthy diurnal utilization in percent.

        The last instant's value is memoized: every instance of a
        service shares its model and samples at the same instant.
        """
        memo = self._memo
        if memo is not None and memo[0] == t_seconds:
            return memo[1]
        value = diurnal(
            t_seconds, self.base_percent, self.diurnal_amplitude, period=DAY
        )
        self.__dict__["_memo"] = (t_seconds, value)
        return value

    def leak_burn(self, leaked_timer_goroutines: int) -> float:
        """Extra utilization (percent of total capacity) from leaks."""
        busy_fraction = (
            leaked_timer_goroutines
            * self.cpu_per_wakeup
            / self.wakeup_period
            / self.cores
        )
        return 100.0 * busy_fraction

    def utilization(self, t_seconds: float, leaked_timer_goroutines: int) -> float:
        """Total utilization in percent, capped at 100."""
        return min(
            100.0,
            self.baseline(t_seconds) + self.leak_burn(leaked_timer_goroutines),
        )
