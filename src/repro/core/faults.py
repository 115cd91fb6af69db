"""Temporal-fault models — paper §3.

A *fault* is a job taking more CPU time than its declared cost ``C_i``
"either because it was underestimated, or because of an external event".
This module describes faults declaratively so the simulator can inject
them and the experiment harness can sweep them:

* :class:`CostOverrun` — one specific job of one task runs for
  ``C_i + extra`` (the paper's §6 experiments inject exactly one such
  overrun into the highest-priority task, "the most unfavourable case");
* :class:`CostUnderrun` — a job completing early (negative extra); used
  by the §7 future-work under-run study (:mod:`repro.core.underrun`);
* :class:`RandomFaults` — seeded random overruns for ablation sweeps.

A :class:`FaultModel` is anything with ``demand(task_name, job, base)``
returning the actual execution demand of a job; the simulator queries it
at each release.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Iterable, Protocol

from repro.rng import stable_hash

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FaultModel",
    "NoFaults",
    "CostOverrun",
    "CostUnderrun",
    "FaultInjector",
    "RandomFaults",
    "job_seeds",
    "uniform_extras",
]


class FaultModel(Protocol):
    """Source of actual per-job execution demands."""

    def demand(self, task_name: str, job: int, base_cost: int) -> int:
        """Actual execution demand (ns) of job *job* of *task_name*,
        given the declared cost *base_cost*."""
        ...


class NoFaults:
    """Every job consumes exactly its declared cost."""

    def demand(self, task_name: str, job: int, base_cost: int) -> int:
        return base_cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NoFaults()"


@dataclass(frozen=True)
class CostOverrun:
    """Job *job* (0-based) of *task_name* overruns its cost by *extra* ns."""

    task_name: str
    job: int
    extra: int

    def __post_init__(self) -> None:
        if self.extra <= 0:
            raise ValueError("overrun extra must be > 0 (use CostUnderrun)")
        if self.job < 0:
            raise ValueError("job index must be >= 0")


@dataclass(frozen=True)
class CostUnderrun:
    """Job *job* of *task_name* completes *saved* ns early."""

    task_name: str
    job: int
    saved: int

    def __post_init__(self) -> None:
        if self.saved <= 0:
            raise ValueError("underrun saved must be > 0")
        if self.job < 0:
            raise ValueError("job index must be >= 0")


class FaultInjector:
    """A :class:`FaultModel` built from explicit per-job deviations.

    Multiple deviations targeting the same job accumulate.  Demands are
    floored at 1 ns — a job always executes *something* (the paper's
    stop mechanism itself assumes the loop body runs at least once).
    """

    def __init__(self, deviations: Iterable[CostOverrun | CostUnderrun] = ()):
        self._delta: dict[tuple[str, int], int] = {}
        for dev in deviations:
            self.add(dev)

    def add(self, deviation: CostOverrun | CostUnderrun) -> None:
        key = (deviation.task_name, deviation.job)
        delta = deviation.extra if isinstance(deviation, CostOverrun) else -deviation.saved
        total = self._delta.get(key, 0) + delta
        if total == 0:
            # Deviations cancelled out exactly: the job is not faulty.
            self._delta.pop(key, None)
        else:
            self._delta[key] = total

    def demand(self, task_name: str, job: int, base_cost: int) -> int:
        return max(base_cost + self._delta.get((task_name, job), 0), 1)

    @property
    def deviations(self) -> dict[tuple[str, int], int]:
        """Copy of the (task, job) → delta map (for reports)."""
        return dict(self._delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjector({self._delta!r})"


#: SplitMix64's increment (the golden-ratio word): the counter of job
#: ``j`` sits at ``key + (2j + 1)·γ`` and its size draw one γ later, so
#: the two hashes of every job come from disjoint counters.
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
#: Largest ``max_extra``: keeps ``cost + extra`` inside int64 in the
#: population stepper's demand table.
_MAX_EXTRA = 1 << 62

# The draw below is written once, as integer arithmetic that a Python
# int and a numpy ``uint64`` array evaluate identically: the 64-bit
# masks make Python ints wrap the way numpy products do, and no partial
# sum ever exceeds 2⁶⁴ − 1.  ``RandomFaults.demand`` feeds it one job's
# counter; ``uniform_extras`` feeds it a whole population's.


def _mix64(z):
    """The SplitMix64 finalizer: a bijective 64-bit avalanche mix."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mulhi(a, b):
    """``⌊a·b / 2⁶⁴⌋`` for 64-bit words, from 32-bit limbs."""
    a0, a1 = a & 0xFFFFFFFF, a >> 32
    b0, b1 = b & 0xFFFFFFFF, b >> 32
    mid = a1 * b0 + ((a0 * b0) >> 32)
    mid2 = a0 * b1 + (mid & 0xFFFFFFFF)
    return a1 * b1 + (mid >> 32) + (mid2 >> 32)


def _draw(state, rate, max_extra):
    """The overrun of the job whose counter is *state* (0 if none)."""
    faulty = (_mix64(state) >> 11) * 2.0**-53 < rate
    size = 1 + _mulhi(_mix64((state + _GAMMA) & _MASK64), max_extra)
    return size * faulty


@dataclass(frozen=True)
class RandomFaults:
    """Seeded random overruns for ablation sweeps.

    Each job of each task independently overruns with probability
    *rate*; the overrun size is uniform on ``[1, max_extra]`` ns.
    The draw is a keyed counter hash, a pure function of ``(seed,
    task_name, job)``, so demand queries are order-independent and
    repeatable (the simulator may query a job more than once):

    * ``key = stable_hash(seed, task_name)`` — stable *across
      processes*, unlike the salted builtin ``hash``;
    * ``s = key + (2·job + 1)·γ (mod 2⁶⁴)``, ``h1 = mix64(s)`` and
      ``h2 = mix64(s + γ)``, with the SplitMix64 finalizer;
    * the job is faulty iff ``(h1 >> 11)·2⁻⁵³ < rate``, and then
      ``extra = 1 + ⌊h2·max_extra / 2⁶⁴⌋`` — biased by at most
      ``max_extra / 2⁶⁴``, with no rejection loop.
    """

    rate: float
    max_extra: int
    seed: int = 0

    def __post_init__(self) -> None:
        if (
            isinstance(self.rate, bool)
            or not isinstance(self.rate, Real)
            or not 0.0 <= self.rate <= 1.0
        ):
            raise ValueError(f"rate must be a finite real in [0, 1], got {self.rate!r}")
        if (
            isinstance(self.max_extra, bool)
            or not isinstance(self.max_extra, int)
            or not 1 <= self.max_extra <= _MAX_EXTRA
        ):
            raise ValueError(
                f"max_extra must be an int in [1, 2**62], got {self.max_extra!r}"
            )

    def demand(self, task_name: str, job: int, base_cost: int) -> int:
        state = (stable_hash(self.seed, task_name) + (2 * job + 1) * _GAMMA) & _MASK64
        return base_cost + _draw(state, self.rate, self.max_extra)


def job_seeds(seed: int, task_name: str, count: int) -> np.ndarray:
    """The ``RandomFaults`` counters of jobs ``0 .. count-1`` of
    *task_name*: one ``uint64`` state per job."""
    import numpy as np  # on first use: ``import repro`` stays numpy-free

    jobs = np.arange(count, dtype=np.uint64)
    return (jobs * 2 + 1) * _GAMMA + stable_hash(seed, task_name)


def uniform_extras(states: np.ndarray, rates: np.ndarray, maxes: np.ndarray) -> np.ndarray:
    """Per-job overruns (int64) for :func:`job_seeds` states: element
    ``i`` is what ``RandomFaults(rates[i], maxes[i], seed).demand``
    adds to the cost of the job whose counter is ``states[i]``."""
    return _draw(states, rates, maxes.astype("uint64")).astype("int64")
