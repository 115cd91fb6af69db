"""Anomaly flight recorder: bounded trace ring + replayable bundles.

When a 10k-system sweep surfaces one anomalous system — a deadline
miss where the analysis said feasible, or a batched-vs-exact
fingerprint divergence — the interesting evidence is gone by the time
anyone looks: population code deliberately discards traces (memory
discipline, lint rule RT011) and the system itself was drawn from a
seed deep inside a chunk.  The flight recorder closes that gap the way
an aircraft recorder does: a bounded :class:`RingSink` keeps the *last
N* trace events of whatever simulation is currently running, and when
a trigger fires, :class:`FlightRecorder.capture` dumps a
**self-contained replay bundle**: the sweep/spec identity, the exact
task set, the fault model, the treatment, the expected schedule
fingerprint and the tail of the trace ring.

``python -m repro.obs replay bundle.json`` (:func:`replay`) rebuilds
the system from the bundle alone — no sweep, no cache — re-runs the
exact engine and asserts a bit-identical schedule fingerprint, turning
every captured anomaly into a deterministic regression check.

Triggers wired in ``repro.exec.sweep``:

* ``miss-despite-feasible`` — a point whose task set passes
  :func:`repro.core.feasibility.is_feasible` yet missed a deadline in
  simulation (with faults injected this is *expected* — the analysis
  models declared costs — which makes it the perfect seeded anomaly
  for end-to-end tests; without faults it would be an oracle bug);
* ``stepper-divergence`` — the ``verify`` stepper ran a
  classifier-eligible system through both the vectorized stepper and
  the exact engine and their record fingerprints disagreed;
* ``oracle-divergence`` — the differential sim-vs-analysis oracle
  (``tests/oracle``) failed an invariant while a recorder was active.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.sim.trace import TraceEvent

__all__ = [
    "BUNDLE_SCHEMA",
    "RingSink",
    "AnomalyReport",
    "FlightRecorder",
    "ReplayResult",
    "load_bundle",
    "replay",
]

#: Version 2: ``RandomFaults`` draws are a counter hash (the same fault
#: fields replay a different schedule than version 1 recorded).
BUNDLE_SCHEMA = 2

#: Default ring capacity: enough for the closing few hyperperiods of a
#: small system while keeping per-worker memory bounded.
DEFAULT_RING_CAPACITY = 512


class RingSink:
    """Keep only the most recent *capacity* trace events.

    The bounded drop-in for :class:`~repro.sim.trace.MemorySink` in
    population/sweep code (lint rule RT011): O(capacity) memory however
    long the horizon, with the interesting tail — the events leading up
    to the anomaly — always retained.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.emitted += 1

    def close(self) -> None:
        pass

    def clear(self) -> None:
        """Reset between systems so a tail never spans two simulations."""
        self._events.clear()
        self.emitted = 0

    def tail(self) -> list[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


# -- bundle (de)serialisation -------------------------------------------------
def _tasks_to_data(taskset: Iterable[Any]) -> list[dict[str, Any]]:
    out = []
    for t in taskset:
        row: dict[str, Any] = {
            "name": t.name,
            "cost": t.cost,
            "period": t.period,
            "priority": t.priority,
            "deadline": t.deadline,
            "offset": t.offset,
        }
        if t.mk is not None:
            row["mk"] = [t.mk.m, t.mk.k]
        out.append(row)
    return out


def _tasks_from_data(data: Sequence[Mapping[str, Any]]):
    from repro.core.task import Task, TaskSet
    from repro.core.weakly_hard import MKConstraint

    return TaskSet(
        Task(
            name=str(t["name"]),
            cost=int(t["cost"]),
            period=int(t["period"]),
            priority=int(t["priority"]),
            deadline=int(t["deadline"]),
            offset=int(t.get("offset", 0)),
            mk=(
                MKConstraint(int(t["mk"][0]), int(t["mk"][1]))
                if t.get("mk") is not None
                else None
            ),
        )
        for t in data
    )


def _faults_to_data(faults: Any) -> dict[str, Any] | None:
    """Fault models as data.  Only the models sweeps construct are
    supported — exactly the ones an anomaly bundle can meet."""
    from repro.core.faults import FaultInjector, NoFaults, RandomFaults

    if faults is None or isinstance(faults, NoFaults):
        return None
    if isinstance(faults, RandomFaults):
        return {
            "kind": "random",
            "rate": faults.rate,
            "max_extra": faults.max_extra,
            "seed": faults.seed,
        }
    if isinstance(faults, FaultInjector):
        return {
            "kind": "injector",
            "deviations": [
                [task, job, delta]
                for (task, job), delta in sorted(faults.deviations.items())
            ],
        }
    raise TypeError(f"cannot serialise fault model {faults!r} into a flight bundle")


def _faults_from_data(data: Mapping[str, Any] | None):
    from repro.core.faults import (
        CostOverrun,
        CostUnderrun,
        FaultInjector,
        RandomFaults,
    )

    if data is None:
        return None
    if data["kind"] == "random":
        return RandomFaults(
            rate=float(data["rate"]),
            max_extra=data["max_extra"],
            seed=int(data["seed"]),
        )
    if data["kind"] == "injector":
        return FaultInjector(
            CostOverrun(task, job, delta)
            if delta > 0
            else CostUnderrun(task, job, -delta)
            for task, job, delta in data["deviations"]
        )
    raise ValueError(f"unknown fault model kind {data['kind']!r}")


@dataclass(frozen=True)
class AnomalyReport:
    """One trigger firing: what looked wrong, and how to rebuild it."""

    kind: str  # e.g. "miss-despite-feasible", "stepper-divergence"
    detail: str
    taskset: Any
    horizon: int
    faults: Any = None
    treatment: str | None = None
    #: The exact-engine schedule fingerprint replay must reproduce
    #: (empty when the trigger has no reference fingerprint).
    expected_fingerprint: str = ""
    observed_fingerprint: str = ""
    #: Where in the sweep the anomaly sits (free-form identity fields).
    context: tuple[tuple[str, Any], ...] = ()

    def bundle(self, events: Sequence[TraceEvent] = ()) -> dict[str, Any]:
        return {
            "schema": BUNDLE_SCHEMA,
            "kind": self.kind,
            "detail": self.detail,
            "context": dict(self.context),
            "system": {
                "tasks": _tasks_to_data(self.taskset),
                "horizon": self.horizon,
                "faults": _faults_to_data(self.faults),
                "treatment": self.treatment,
            },
            "expected_fingerprint": self.expected_fingerprint,
            "observed_fingerprint": self.observed_fingerprint,
            "ring_tail": [e.to_dict() for e in events],
        }


class FlightRecorder:
    """Owns the trace ring and writes anomaly bundles to *out_dir*.

    Deliberately cheap while nothing is wrong: the steady-state cost is
    the ring append per trace event; serialisation happens only when a
    trigger fires.  Bundle file names are deterministic functions of
    the report identity, so re-running the same sweep overwrites rather
    than accumulates.
    """

    def __init__(
        self,
        out_dir: str | Path,
        *,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ):
        self.out_dir = Path(out_dir)
        self.ring = RingSink(ring_capacity)
        self.bundles: list[str] = []

    def capture(
        self, report: AnomalyReport, events: Sequence[TraceEvent] | None = None
    ) -> Path:
        """Write *report* as a replay bundle; *events* defaults to the
        current ring tail.  Returns the bundle path."""
        from repro.rng import stable_hash

        if events is None:
            events = self.ring.tail()
        doc = report.bundle(events)
        key = stable_hash(
            report.kind,
            tuple(sorted(dict(report.context).items(), key=lambda kv: kv[0])),
            report.expected_fingerprint,
        )
        path = self.out_dir / f"flight-{report.kind}-{key:08x}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        name = str(path)
        if name not in self.bundles:
            self.bundles.append(name)
        return path


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-running a bundle through the exact engine."""

    bundle: str
    kind: str
    expected_fingerprint: str
    replayed_fingerprint: str
    released: int = 0
    misses: int = 0

    @property
    def ok(self) -> bool:
        """Bit-identical schedule: the bundle reproduces (bundles with
        no reference fingerprint trivially verify the re-run itself)."""
        return (
            not self.expected_fingerprint
            or self.replayed_fingerprint == self.expected_fingerprint
        )

    def describe(self) -> str:
        verdict = "REPRODUCED" if self.ok else "DIVERGED"
        expected = self.expected_fingerprint or "(none recorded)"
        return (
            f"{verdict} {self.bundle} [{self.kind}]\n"
            f"  expected fingerprint: {expected}\n"
            f"  replayed fingerprint: {self.replayed_fingerprint}\n"
            f"  jobs released: {self.released}, deadline misses: {self.misses}"
        )


def load_bundle(path: str | Path) -> dict[str, Any]:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(f"{path}: unsupported flight bundle schema {doc.get('schema')!r}")
    return doc


def replay(path: str | Path) -> ReplayResult:
    """Re-run a bundle's system through the exact engine and compare
    schedule fingerprints.

    Imports the exec/sim stack lazily: ``repro.obs`` must stay
    importable without dragging the simulator in (and the exec layer
    imports ``repro.obs`` itself).
    """
    from repro.core.treatments import TreatmentKind
    from repro.exec.sim import run_simulation
    from repro.rng import stable_hash
    from repro.sim.batch import sim_job_records

    doc = load_bundle(path)
    system = doc["system"]
    try:
        faults = _faults_from_data(system["faults"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    taskset = _tasks_from_data(system["tasks"])
    treatment = TreatmentKind(system["treatment"]) if system["treatment"] else None
    result = run_simulation(
        taskset,
        horizon=int(system["horizon"]),
        faults=faults,
        treatment=treatment,
    )
    records = sim_job_records(result)
    return ReplayResult(
        bundle=str(path),
        kind=str(doc["kind"]),
        expected_fingerprint=str(doc.get("expected_fingerprint", "")),
        replayed_fingerprint=f"{stable_hash(records):08x}",
        released=len(records),
        misses=sum(1 for r in records if r[4]),
    )
