"""Temporal-fault detector placement — paper §3.

A cost overrun is hard to observe directly (it would require metering
CPU consumption continuously), but the admission control already gives
us, for every task, a date after each activation by which the job *must*
have finished: its worst-case response time.  **A worst-case response
time overrun implies a cost overrun.**

The paper therefore attaches to each task one *periodic* detector with

* period  = the task's period, and
* offset  = the task's worst-case response time (or the allowance-
  adjusted WCRT, depending on the treatment),

so a single extra real-time task per thread covers every job.  On jRate
the ``PeriodicTimer`` only achieves good precision when the first
release is a multiple of 10 ms, so the paper "voluntarily rounds the
release values of the detectors" — producing the 1/2/3 ms detector
delays visible in Figure 4.  :class:`Rounding` models that quirk (and
its absence) explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from repro.core.task import Task, TaskSet
from repro.units import MS

__all__ = ["RoundingMode", "Rounding", "DetectorSpec", "plan_detectors"]


class RoundingMode(enum.Enum):
    """How a detector release value is aligned to the timer resolution."""

    NONE = "none"  # exact timers (ideal VM)
    UP = "up"  # next multiple of the resolution (jRate-safe: never early)
    DOWN = "down"
    NEAREST = "nearest"


@dataclass(frozen=True)
class Rounding:
    """A rounding policy: *mode* applied at *resolution* nanoseconds."""

    mode: RoundingMode = RoundingMode.NONE
    resolution: int = 10 * MS  # jRate PeriodicTimer granularity (§6.2)

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")

    def apply(self, value: int) -> int:
        """Round *value* (ns) according to the policy."""
        if self.mode is RoundingMode.NONE:
            return value
        res = self.resolution
        if self.mode is RoundingMode.UP:
            return -(-value // res) * res
        if self.mode is RoundingMode.DOWN:
            return (value // res) * res
        # NEAREST, ties round up (matches 'round half away from zero'
        # for the positive durations used here).
        return ((value + res // 2) // res) * res


#: Exact timers: what an ideal RTSJ VM provides.
EXACT = Rounding(RoundingMode.NONE)
#: The jRate quirk: detector releases rounded up to 10 ms (29→30, 58→60,
#: 87→90 — exactly the delays reported under Figure 4).
JRATE_10MS = Rounding(RoundingMode.UP, 10 * MS)


@dataclass(frozen=True)
class DetectorSpec:
    """Placement of the periodic detector watching one task.

    ``offset`` is the delay after each job release at which the detector
    checks the job-finished flag; ``nominal_offset`` is the un-rounded
    threshold it approximates (their difference is the detector *delay*
    the paper measures in §6.2).
    """

    task_name: str
    period: int
    offset: int
    nominal_offset: int

    @property
    def delay(self) -> int:
        """Detection lateness introduced by timer rounding (>= 0 for
        round-up policies)."""
        return self.offset - self.nominal_offset

    def fire_time(self, release: int) -> int:
        """Absolute check time for a job released at *release*."""
        return release + self.offset


def plan_detectors(
    taskset: TaskSet,
    thresholds: Mapping[str, int],
    rounding: Rounding = EXACT,
) -> dict[str, DetectorSpec]:
    """Build one :class:`DetectorSpec` per task.

    *thresholds* maps task name to the nominal check delay (WCRT for
    plain detection, allowance-adjusted WCRT for §4.2, etc.).
    """
    specs: dict[str, DetectorSpec] = {}
    for task in taskset:
        nominal = thresholds[task.name]
        if nominal < 0:
            raise ValueError(f"{task.name}: negative detector threshold")
        specs[task.name] = DetectorSpec(
            task_name=task.name,
            period=task.period,
            offset=rounding.apply(nominal),
            nominal_offset=nominal,
        )
    return specs
