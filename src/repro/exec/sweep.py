"""Resumable population sweeps: frozen specs, chunked execution.

A :class:`SweepSpec` freezes an entire Monte-Carlo experiment — axis
grid × replicates × generator parameters — behind a stable content hash
(the same :func:`repro.rng.stable_hash` discipline as
:class:`~repro.exec.spec.ExperimentSpec`).  Expansion is deterministic:
cells are the cartesian product of the axes in declaration order, each
cell carries ``replicates`` systems, and system ``(cell, r)`` is drawn
by :func:`repro.workloads.population.generate_population` from a key
that never mentions chunking — the same systems appear for any chunk
size or worker count.

Execution reuses the whole exec stack instead of reinventing it: the
sweep expands into ordinary ``ExperimentSpec`` chunks (builder
``"sweep.chunk"``, the sweep definition embedded in ``params``) run by
any :class:`~repro.exec.executor.Executor`.  That buys, for free:

* **content-addressed chunk results** via ``ResultCache`` — a killed
  sweep keeps every finished chunk on disk (executors store results as
  they stream in) and a re-invocation recomputes only the rest;
* **process fan-out** via ``PoolExecutor`` (``--jobs N``);
* **manifests** via :func:`~repro.exec.manifest.build_manifest`, whose
  fingerprint is identical for serial, parallel and batched/exact runs:
  chunk results carry only mode-independent data (the classifier's
  ``eligible`` verdict, never the route actually taken).

Within a chunk, systems the classifier accepts — including the
paper's core fault + treatment workload (injected cost overruns under
detect-only, immediate-stop or equitable-allowance detectors) — run on
the vectorized stepper (:func:`repro.sim.batch.simulate_batch`); the
rest go through the exact engine in :func:`_exact_fallback` — the one
sanctioned per-system ``simulate`` loop in population code (lint rule
RT010) — and each fallback reason feeds a
``sweep_fallback_total{reason=...}`` telemetry counter so coverage
regressions show up on the dashboard.  Either way a point is
admitted and planned once: the same :class:`TreatmentPlan` drives
whichever route runs it, and both routes return a
:class:`~repro.sim.batch.BatchSystemResult`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Iterable, Mapping, Sequence

from repro.core.faults import FaultModel, RandomFaults
from repro.core.feasibility import is_feasible
from repro.core.weakly_hard import MKConstraint
from repro.core.treatments import TreatmentKind, TreatmentPlan, plan_treatment
from repro.exec.executor import ExecutionResult, Executor
from repro.exec.manifest import build_manifest, manifest_fingerprint
from repro.exec.sim import run_simulation
from repro.exec.spec import ExperimentSpec
from repro.obs import runtime as obs_runtime
from repro.obs.flight import AnomalyReport
from repro.rng import stable_hash
from repro.sim.batch import BatchSystemResult, classify, simulate_batch
from repro.workloads.population import PopulationConfig, generate_population

__all__ = [
    "SWEEP_AXES",
    "SweepSpec",
    "PointRecord",
    "SweepChunk",
    "SweepResult",
    "chunk_specs",
    "build_chunk",
    "run_sweep",
    "summarize_cells",
]

#: Axis names a sweep may grid over; anything else is a spec error.
SWEEP_AXES = ("utilization", "n", "deadline_factor", "fault_rate", "treatment")

#: One cell of the axis grid: ``((axis, value), ...)`` in axis order.
Cell = tuple[tuple[str, Any], ...]

#: One system's run: ``(taskset, horizon, faults, plan)``.
Work = tuple[Any, int, FaultModel | None, TreatmentPlan | None]


def _check_axis_value(axis: str, value: Any) -> None:
    """Raise a one-line ``ValueError`` naming *axis* when *value* is not
    one the sweep can run."""
    try:
        if axis == "treatment":
            known = [kind.value for kind in TreatmentKind]
            if value and value not in known:
                raise ValueError(f"unknown treatment; known: {', '.join(known)}")
        elif axis == "fault_rate":
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError("must be in [0, 1]")
        elif axis == "n":
            PopulationConfig(n=int(value))
        else:
            PopulationConfig(**{axis: float(value)})
    except (TypeError, ValueError) as err:
        raise ValueError(f"sweep {axis}={value!r}: {err}") from None


@dataclass(frozen=True)
class SweepSpec:
    """Frozen description of one population sweep."""

    name: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    replicates: int = 1
    base_seed: int = 0
    #: Generator defaults for axes the grid does not sweep.
    n: int = 4
    utilization: float = 0.7
    deadline_factor: float = 1.0
    period_lo: int = 10_000
    period_hi: int = 1_000_000
    period_granularity: int = 1_000
    #: Horizon = ``horizon_periods`` × the system's largest period.
    horizon_periods: int = 4
    treatment: str | None = None
    fault_rate: float = 0.0
    #: Overrun sizes are uniform on ``[1, fault_scale × min period]``.
    fault_scale: float = 0.5
    #: Keep only analysis-feasible draws; a treatment requires it.
    feasible_only: bool = False
    #: Optional weakly-hard constraint ``(m, K)`` attached to every
    #: task of every generated system (None = classic hard deadlines).
    #: The weakly-hard treatments need it; it routes treated systems to
    #: the exact engine (classifier reason ``weakly-hard-treatment``).
    mk: tuple[int, int] | None = None
    chunk_size: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep needs a name")
        seen = set()
        for axis, values in self.axes:
            if axis not in SWEEP_AXES:
                raise ValueError(
                    f"unknown sweep axis {axis!r}; known: {', '.join(SWEEP_AXES)}"
                )
            if axis in seen:
                raise ValueError(f"duplicate sweep axis {axis!r}")
            seen.add(axis)
            if not values:
                raise ValueError(f"axis {axis!r} needs at least one value")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.horizon_periods < 1:
            raise ValueError("horizon_periods must be >= 1")
        if self.mk is not None:
            MKConstraint(*self.mk)  # validates 1 <= K, 0 <= m <= K
        periods = dict(
            period_lo=self.period_lo,
            period_hi=self.period_hi,
            period_granularity=self.period_granularity,
        )
        try:
            PopulationConfig(**periods)
        except (TypeError, ValueError) as err:
            fields = ", ".join(f"{k}={v!r}" for k, v in periods.items())
            raise ValueError(f"sweep {fields}: {err}") from None
        # Every value a point can take per axis — the grid's when swept,
        # the field default otherwise — is checked here, so a bad spec
        # fails before its first chunk rather than inside it.
        swept = dict(self.axes)
        for axis in SWEEP_AXES:
            for value in swept.get(axis, (getattr(self, axis),)):
                _check_axis_value(axis, value)
        if any(swept.get("treatment", (self.treatment,))) and not self.feasible_only:
            # Admission control rejects infeasible systems, and which
            # draws are infeasible is luck: require the generator filter.
            raise ValueError(
                "sweep treatment needs feasible_only=True "
                "(admission control rejects infeasible systems)"
            )

    @classmethod
    def make(
        cls, *, axes: Mapping[str, Sequence[Any]] | None = None, **kwargs: Any
    ) -> "SweepSpec":
        """Build a spec from a plain axes mapping (declaration order is
        preserved — it defines cell enumeration order)."""
        frozen = tuple((name, tuple(values)) for name, values in (axes or {}).items())
        return cls(axes=frozen, **kwargs)

    # -- identity ------------------------------------------------------------
    def canonical(self) -> str:
        parts = [(f.name, getattr(self, f.name)) for f in fields(self)]
        return repr(parts)

    def sweep_hash(self) -> str:
        """Stable content hash (hex), identical in every process."""
        return f"{stable_hash(self.canonical()):08x}"

    # -- expansion -----------------------------------------------------------
    @property
    def cells(self) -> tuple[Cell, ...]:
        names = [axis for axis, _ in self.axes]
        grids = [values for _, values in self.axes]
        return tuple(
            tuple(zip(names, combo)) for combo in itertools.product(*grids)
        )

    @property
    def total_points(self) -> int:
        return len(self.cells) * self.replicates

    def to_params(self) -> dict[str, Any]:
        """The spec as a plain mapping, embeddable in chunk params."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_params(cls, frozen: Iterable[tuple[str, Any]]) -> "SweepSpec":
        """Inverse of :meth:`to_params` after spec param freezing."""
        data = dict(frozen)
        data["axes"] = tuple(
            (str(axis), tuple(values)) for axis, values in data["axes"]
        )
        if data.get("mk") is not None:
            data["mk"] = (int(data["mk"][0]), int(data["mk"][1]))
        return cls(**data)


@dataclass(frozen=True)
class PointRecord:
    """One system's outcome within a sweep — identical whichever
    stepper produced it (the batched==exact contract)."""

    ordinal: int
    cell: Cell
    index: int  # replicate index within the cell
    eligible: bool  # classifier verdict (not the route taken)
    analysis_feasible: bool
    released: int
    completed: int
    misses: int
    stopped: int
    detections: int
    collateral: int
    fingerprint: str

    def describe(self) -> str:
        cell = ",".join(f"{k}={v}" for k, v in self.cell)
        return (
            f"{self.ordinal:6d} [{cell}] r{self.index:03d} "
            f"elig={int(self.eligible)} feas={int(self.analysis_feasible)} "
            f"jobs={self.released} done={self.completed} miss={self.misses} "
            f"stop={self.stopped} det={self.detections} "
            f"coll={self.collateral} fp={self.fingerprint}"
        )


@dataclass(frozen=True)
class SweepChunk:
    """The cached value of one chunk spec."""

    sweep_name: str
    sweep_hash: str
    start: int
    points: tuple[PointRecord, ...]

    def render(self) -> str:
        header = (
            f"sweep {self.sweep_name} [{self.sweep_hash}] "
            f"points {self.start}..{self.start + len(self.points) - 1}"
        )
        return "\n".join([header] + [p.describe() for p in self.points])

    def claims(self) -> list:
        return []


@dataclass
class SweepResult:
    """Everything one sweep run produced."""

    spec: SweepSpec
    results: list[ExecutionResult]
    points: list[PointRecord]
    manifest: dict
    artifacts: dict[str, str]

    def fingerprint(self) -> str:
        return manifest_fingerprint(self.manifest)

    def by_cell(self) -> dict[Cell, list[PointRecord]]:
        cells: dict[Cell, list[PointRecord]] = {}
        for p in self.points:
            cells.setdefault(p.cell, []).append(p)
        return cells


# -- expansion helpers ------------------------------------------------------
def chunk_specs(sweep: SweepSpec) -> list[ExperimentSpec]:
    """The sweep as a list of ordinary executor specs, one per chunk.

    The full sweep definition rides in each chunk's params, so a chunk
    spec is self-contained (and its content hash covers everything that
    can change the result — the resume guarantee)."""
    sweep_params = sweep.to_params()
    specs = []
    for j, lo in enumerate(range(0, sweep.total_points, sweep.chunk_size)):
        count = min(sweep.chunk_size, sweep.total_points - lo)
        specs.append(
            ExperimentSpec.make(
                name=f"{sweep.name}-chunk{j:04d}",
                builder="sweep.chunk",
                seed=sweep.base_seed,
                params={"sweep": sweep_params, "start": lo, "count": count},
            )
        )
    return specs


def _points_slice(
    sweep: SweepSpec, start: int, count: int
) -> list[tuple[int, Cell, int]]:
    """Points ``start .. start + count - 1`` as (ordinal, cell, r)."""
    cells = sweep.cells
    out = []
    for ordinal in range(start, min(start + count, sweep.total_points)):
        cell = cells[ordinal // sweep.replicates]
        out.append((ordinal, cell, ordinal % sweep.replicates))
    return out


def _cell_config(sweep: SweepSpec, cell: Cell) -> PopulationConfig:
    values = dict(cell)
    return PopulationConfig(
        n=int(values.get("n", sweep.n)),
        utilization=float(values.get("utilization", sweep.utilization)),
        deadline_factor=float(values.get("deadline_factor", sweep.deadline_factor)),
        period_lo=sweep.period_lo,
        period_hi=sweep.period_hi,
        period_granularity=sweep.period_granularity,
    )


def _cell_treatment(sweep: SweepSpec, cell: Cell) -> TreatmentKind | None:
    value = dict(cell).get("treatment", sweep.treatment)
    return TreatmentKind(value) if value else None


def _workload_cell(cell: Cell) -> Cell:
    """*cell* without the treatment axis.  The treatment is a response
    to faults, not part of the workload: cells differing only in
    treatment draw the same systems and the same fault pattern, so
    treatment comparisons are paired, not independent samples."""
    return tuple((k, v) for k, v in cell if k != "treatment")


def _cell_faults(sweep: SweepSpec, cell: Cell, r: int, taskset) -> FaultModel | None:
    rate = float(dict(cell).get("fault_rate", sweep.fault_rate))
    if rate == 0.0:
        return None
    max_extra = max(1, int(sweep.fault_scale * min(t.period for t in taskset)))
    return RandomFaults(
        rate=rate,
        max_extra=max_extra,
        seed=stable_hash(sweep.base_seed, "faults", _workload_cell(cell), r),
    )


def _exact_fallback(work: list[Work]) -> list[tuple[BatchSystemResult, list]]:
    """The classifier fallback: the one sanctioned per-system simulate
    loop in population code (RT010).  Every system the vectorized
    stepper cannot model byte-exactly runs the real engine here, under
    the plan :func:`build_chunk` already made for it.

    Returns ``(result, ring_tail)`` per system: when a flight recorder
    is active, its bounded trace ring is cleared before each simulation
    and the surviving tail captured after, so an anomaly bundle for
    system *i* carries the closing events of *that* system's schedule
    and never a neighbour's.
    """
    cfg = obs_runtime.current()
    ring = cfg.flight.ring if cfg is not None and cfg.flight is not None else None
    out = []
    for taskset, horizon, faults, plan in work:
        if ring is not None:
            ring.clear()
        result = run_simulation(taskset, horizon=horizon, faults=faults, treatment=plan)
        tail = ring.tail() if ring is not None else []
        out.append((BatchSystemResult.from_exact(result, faults), tail))
    return out


def build_chunk(spec: ExperimentSpec, stepper: str = "batched") -> SweepChunk:
    """Materialise one chunk spec: generate its systems, plan each
    treated one, route each through the classifier, run both paths,
    summarise.

    *stepper* selects how classifier-eligible systems execute —
    ``"batched"`` (vectorized), ``"exact"`` (per-system engine) or
    ``"verify"`` (batched, then re-run on the exact engine and compare
    record fingerprints, dumping a flight bundle on divergence).  It
    deliberately lives outside the spec: the produced records are
    bit-identical either way, so cached chunks and manifest
    fingerprints are stepper-independent.
    """
    if stepper not in ("batched", "exact", "verify"):
        raise ValueError(f"unknown stepper {stepper!r}")
    sweep = SweepSpec.from_params(spec.param("sweep"))
    start = int(spec.param("start"))
    count = int(spec.param("count"))
    points = _points_slice(sweep, start, count)

    # Generate per cell (contiguous replicate ranges, since points are
    # cell-major) — chunk boundaries never influence the systems.
    systems: list[Any] = []
    for cell, group in itertools.groupby(points, key=lambda p: p[1]):
        rs = [r for _, _, r in group]
        systems.extend(
            generate_population(
                len(rs),
                _cell_config(sweep, cell),
                seed=sweep.base_seed,
                key=("cell",) + tuple(v for _, v in _workload_cell(cell)),
                start=rs[0],
                feasible_only=sweep.feasible_only,
            )
        )
    if sweep.mk is not None:
        # Attach after generation so the drawn systems are identical to
        # the unconstrained sweep's (the mk field never perturbs the
        # generator's stream — comparisons stay paired).
        constraint = MKConstraint(*sweep.mk)
        systems = [
            ts.with_mk({t.name: constraint for t in ts}) for ts in systems
        ]
    # The generator filter already ran the hard analysis on every
    # system it kept (an (m, K) constraint does not change it).
    if sweep.feasible_only:
        feasible = [True] * len(systems)
    else:
        feasible = [is_feasible(ts) for ts in systems]

    horizons = [sweep.horizon_periods * max(t.period for t in ts) for ts in systems]
    faults = [
        _cell_faults(sweep, cell, r, ts)
        for (_, cell, r), ts in zip(points, systems)
    ]
    treatments = [_cell_treatment(sweep, cell) for _, cell, _ in points]
    reasons = [
        classify(ts, faults=f, treatment=t, horizon=h)
        for ts, f, t, h in zip(systems, faults, treatments, horizons)
    ]
    eligible = [reason is None for reason in reasons]
    # Admission control, once per treated point whatever the stepper:
    # the one plan drives the vectorized stepper and the exact engine
    # alike.  NO_DETECTION passes the same gate but installs nothing,
    # so neither route gets a plan (as ``simulate`` does).
    plans: list[TreatmentPlan | None] = [None] * len(systems)
    for i, kind in enumerate(treatments):
        if kind is not None:
            plan = plan_treatment(systems[i], kind)
            if kind.installs_detectors:
                plans[i] = plan

    def _work(idx: list[int]) -> list[Work]:
        return [(systems[i], horizons[i], faults[i], plans[i]) for i in idx]

    vector_idx = [i for i, ok in enumerate(eligible) if ok and stepper != "exact"]
    exact_idx = [i for i, ok in enumerate(eligible) if not ok or stepper == "exact"]
    by_index: dict[int, BatchSystemResult] = {}
    tails: dict[int, list] = {}
    if vector_idx:
        batched = simulate_batch(
            [systems[i] for i in vector_idx],
            [horizons[i] for i in vector_idx],
            faults=[faults[i] for i in vector_idx],
            plans=[plans[i] for i in vector_idx],
        )
        by_index.update(zip(vector_idx, batched))
    if exact_idx:
        for i, (result, tail) in zip(exact_idx, _exact_fallback(_work(exact_idx))):
            by_index[i] = result
            tails[i] = tail
    results = [by_index[i] for i in range(len(systems))]
    fingerprints = [f"{stable_hash(r.records):08x}" for r in results]

    cfg = obs_runtime.current()
    flight = cfg.flight if cfg is not None else None

    def _anomaly(
        i: int, kind: str, detail: str, tail: list, expected: str, observed: str = ""
    ) -> None:
        assert flight is not None
        ordinal, cell, r = points[i]
        treatment = treatments[i]
        flight.capture(
            AnomalyReport(
                kind=kind,
                detail=detail,
                taskset=systems[i],
                horizon=horizons[i],
                faults=faults[i],
                treatment=treatment.value if treatment is not None else None,
                expected_fingerprint=expected,
                observed_fingerprint=observed,
                context=(
                    ("sweep", sweep.name),
                    ("sweep_hash", sweep.sweep_hash()),
                    ("spec_hash", spec.spec_hash()),
                    ("ordinal", ordinal),
                    ("cell", dict(cell)),
                    ("replicate", r),
                ),
            ),
            events=tail,
        )

    if stepper == "verify" and vector_idx:
        # The batch-vs-exact check the classifier's contract rests on:
        # every vectorized system re-runs on the real engine; a record
        # fingerprint mismatch is a stepper bug and gets a bundle.
        for i, (exact, tail) in zip(vector_idx, _exact_fallback(_work(vector_idx))):
            exact_fp = f"{stable_hash(exact.records):08x}"
            if exact_fp != fingerprints[i] and flight is not None:
                _anomaly(
                    i,
                    "stepper-divergence",
                    f"vectorized stepper fingerprint {fingerprints[i]} "
                    f"!= exact engine {exact_fp}",
                    tail,
                    expected=exact_fp,
                    observed=fingerprints[i],
                )

    out = []
    for i, ((ordinal, cell, r), result) in enumerate(zip(points, results)):
        point = PointRecord(
            ordinal=ordinal,
            cell=cell,
            index=r,
            eligible=eligible[i],
            analysis_feasible=feasible[i],
            released=result.released,
            completed=result.completed,
            misses=result.misses,
            stopped=result.stopped,
            detections=result.detections,
            collateral=result.collateral_task_count,
            fingerprint=fingerprints[i],
        )
        out.append(point)
        if flight is not None and point.analysis_feasible and point.misses > 0:
            # The analysis models declared costs only, so with faults
            # injected this is the expected (and replayable) anomaly;
            # without faults it would be an oracle violation.
            _anomaly(
                i,
                "miss-despite-feasible",
                f"analysis-feasible system missed {point.misses} "
                f"deadline(s) ({point.released} jobs released)",
                tails.get(i, []),
                expected=point.fingerprint,
            )

    if cfg is not None and cfg.metrics is not None:
        registry = cfg.metrics.registry
        registry.counter("sweep_chunks_total").inc()
        registry.counter("sweep_points_total").inc(len(out))
        registry.counter("sweep_points_batched_total").inc(len(vector_idx))
        registry.counter("sweep_points_exact_total").inc(len(exact_idx))
        # Per-reason fallback counters (only for reasons that occurred,
        # so fully-vectorized sweeps keep their golden counter set).
        fallback: dict[str, int] = {}
        for reason in reasons:
            if reason is not None:
                fallback[reason] = fallback.get(reason, 0) + 1
        for reason in sorted(fallback):
            registry.counter("sweep_fallback_total", reason=reason).inc(
                fallback[reason]
            )
    return SweepChunk(
        sweep_name=sweep.name,
        sweep_hash=sweep.sweep_hash(),
        start=start,
        points=tuple(out),
    )


def run_sweep(
    sweep: SweepSpec, *, executor: Executor, stepper: str = "batched"
) -> SweepResult:
    """Run every chunk of *sweep* through *executor* and assemble the
    manifest.  Interrupted runs resume for free: finished chunks come
    back from the executor's cache, only the rest recompute."""
    specs = chunk_specs(sweep)
    if executor.progress is not None:
        executor.progress.emit(
            "run_started",
            run=sweep.name,
            sweep_hash=sweep.sweep_hash(),
            total_specs=len(specs),
            total_points=sweep.total_points,
        )
    results = executor.run(specs, partial(build_chunk, stepper=stepper))
    points = [p for r in results for p in r.value.points]
    manifest, artifacts = build_manifest(results, executor=executor)
    if executor.progress is not None:
        executor.progress.emit(
            "run_finished",
            run=sweep.name,
            fingerprint=manifest_fingerprint(manifest),
        )
    return SweepResult(
        spec=sweep,
        results=results,
        points=points,
        manifest=manifest,
        artifacts=artifacts,
    )


def summarize_cells(points: Sequence[PointRecord]) -> list[str]:
    """Per-cell acceptance summary lines (CLI + exhibit rendering)."""
    cells: dict[Cell, list[PointRecord]] = {}
    for p in points:
        cells.setdefault(p.cell, []).append(p)
    lines = []
    for cell, group in cells.items():
        total = len(group)
        feas = sum(1 for p in group if p.analysis_feasible)
        clean = sum(1 for p in group if p.misses == 0 and p.stopped == 0)
        misses = sum(p.misses for p in group)
        stops = sum(p.stopped for p in group)
        dets = sum(p.detections for p in group)
        coll = sum(p.collateral for p in group)
        label = ",".join(f"{k}={v}" for k, v in cell) or "-"
        lines.append(
            f"[{label}] systems={total} analysis-feasible={feas} "
            f"miss-free={clean} misses={misses} stops={stops} "
            f"detections={dets} collateral={coll}"
        )
    return lines
