"""RTSJ (`javax.realtime`) emulation over the simulator.

API shape mirrors the spec (camelCase methods kept for fidelity with
the paper's code), including the paper's ``javax.realtime.extended``
package: :class:`RealtimeThreadExtended` and
:class:`FeasibilityAnalysis`.
"""

from repro.rtsj.extended import FeasibilityAnalysis, RealtimeThreadExtended
from repro.rtsj.params import (
    AperiodicParameters,
    PeriodicParameters,
    PriorityParameters,
    ProcessingGroupParameters,
    ReleaseParameters,
    SchedulingParameters,
    SporadicParameters,
)
from repro.rtsj.scheduler import (
    ExtendedPriorityScheduler,
    JRatePriorityScheduler,
    MultiprocessorPriorityScheduler,
    PriorityScheduler,
    RIPriorityScheduler,
    Scheduler,
)
from repro.rtsj.system import RealtimeSystem
from repro.rtsj.thread import RealtimeThread
from repro.rtsj.time import AbsoluteTime, HighResolutionTime, RelativeTime
from repro.rtsj.timer import AsyncEvent, AsyncEventHandler, OneShotTimer, PeriodicTimer

__all__ = [
    "HighResolutionTime",
    "RelativeTime",
    "AbsoluteTime",
    "SchedulingParameters",
    "PriorityParameters",
    "ReleaseParameters",
    "PeriodicParameters",
    "AperiodicParameters",
    "SporadicParameters",
    "Scheduler",
    "PriorityScheduler",
    "RIPriorityScheduler",
    "JRatePriorityScheduler",
    "ExtendedPriorityScheduler",
    "MultiprocessorPriorityScheduler",
    "ProcessingGroupParameters",
    "RealtimeThread",
    "RealtimeSystem",
    "AsyncEvent",
    "AsyncEventHandler",
    "OneShotTimer",
    "PeriodicTimer",
    "RealtimeThreadExtended",
    "FeasibilityAnalysis",
]
