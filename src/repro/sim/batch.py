"""Vectorized simulation of task-system *populations*.

The paper's claims are per-system; evaluating them over populations
(thousands of generated systems swept across utilization, task count
and fault rate) makes per-system event loops the bottleneck.  This
module adds a numpy stepper that solves hundreds of independent
systems at once for the cases the sweeps hit most — preemptive
fixed-priority, periodic releases, no locks, no servers, zero
context-switch cost — including the paper's core workload: injected
cost overruns with detector-based treatments:

* the inputs are a handful of ``(systems, tasks)`` int64 arrays plus a
  flat per-job *demand* table precomputed from the fault model
  (bit-for-bit the values the exact engine draws, since both sides
  evaluate the same ``RandomFaults`` counter hash);
* the schedule is solved one priority level at a time, the view of the
  paper's busy-window analysis: a level's jobs run in the processor
  time the levels above it leave free, so each job's end is a closed
  form of its release, its demand, its detector instant and its
  predecessor's end (:func:`_level_pass`).  Only release, completion
  and stop instants are ever evaluated — there is no per-event loop;
* a stopping treatment (§4.1 immediate stop, §4.2 equitable allowance)
  cuts a job at ``release + offset`` of its detector unless it
  completes by then, also when it waited behind its predecessor;
* deadline misses and detect-only detections are evaluated in closed
  form afterwards: a released job missed iff its absolute deadline
  lies within the horizon and it did not finish by then — where a job
  *stopped exactly at* its deadline still misses, because the
  DEADLINE_CHECK rank precedes DETECTOR — and a detect-only job is
  flagged iff it was unfinished when its detector fired (detect-only
  never alters the schedule).

Results are **bit-identical** to :func:`repro.sim.simulation.simulate`
run per system — :func:`schedule_fingerprint` hashes the per-job
``(name, index, release, finished, missed, stopped, detected)`` records
of either path and the equivalence suite asserts equality over hundreds
of ``derive_rng``-seeded systems, fault schedules and treatments.

Systems that need anything richer are rejected by :func:`classify`
with a machine-readable reason and must be routed to the exact
per-system engine by the caller's classifier fallback (see
``repro.exec.sweep``; lint rule RT010 keeps that routing honest).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.detection import RoundingMode
from repro.core.faults import (
    FaultInjector,
    FaultModel,
    NoFaults,
    RandomFaults,
    job_seeds,
    uniform_extras,
)
from repro.core.task import TaskSet
from repro.core.treatments import TreatmentKind, TreatmentPlan
from repro.rng import stable_hash
from repro.sim.simulation import SimResult
from repro.sim.vm import EXACT_VM, NoOverhead, VMProfile

__all__ = [
    "HORIZON_LIMIT",
    "JobRecord",
    "BatchSystemResult",
    "classify",
    "simulate_batch",
    "sim_job_records",
    "schedule_fingerprint",
]

#: One job's observable outcome: ``(task name, job index, release,
#: finished_at or -1, deadline_missed, was_stopped, fault_detected)``.
#: The shared vocabulary of the batched and exact paths — fingerprints
#: hash a sorted tuple of these.
JobRecord = tuple[str, int, int, int, bool, bool, bool]

#: Largest horizon the stepper accepts.  Every instant the level pass
#: forms stays below ``2 * horizon + 5`` and so within int64; longer
#: runs take the exact engine (:func:`classify` reason
#: ``horizon-beyond-int64``).  A job demand (declared cost plus the
#: fault model's largest extra) must stay below it too, so the demand
#: table holds it in int64 (reason ``demand-beyond-int64``).
HORIZON_LIMIT = 1 << 61

#: Fault models the stepper can expand into a per-job demand table:
#: their draws are keyed per ``(task, job)`` (order-independent), so
#: precomputing the table reproduces the exact engine's queries
#: bit-for-bit.  An opaque :class:`FaultModel` implementation might
#: depend on query order and stays on the exact engine.
_TABLE_FAULTS = (NoFaults, FaultInjector, RandomFaults)


@dataclass(frozen=True)
class BatchSystemResult:
    """One system's outcome, whichever route produced it.

    The vectorized stepper aggregates the counters from the same arrays
    the records come from (prefix sums, not a Python pass over the
    tuples), so consumers on the hot path never re-iterate millions of
    records; :meth:`from_exact` derives them from an exact-engine run.
    The stepper-parity suite pins the two equal."""

    horizon: int
    records: tuple[JobRecord, ...]
    released: int
    #: Jobs that finished *normally* (stopped jobs end but do not
    #: complete — the same convention the exact path's summary uses).
    completed: int
    misses: int
    #: Jobs terminated by a stopping treatment (§4.1 / §4.2).
    stopped: int
    #: Jobs flagged by a detector (for stopping treatments this equals
    #: ``stopped``; detect-only flags without ending the job).
    detections: int
    #: Distinct tasks with at least one missed or stopped job.
    failed_task_count: int
    #: Failed tasks that were *not* themselves granted extra demand —
    #: the paper's collateral-failure count (failed minus faulty).
    collateral_task_count: int

    @classmethod
    def from_exact(
        cls, result: SimResult, faults: FaultModel | None = None
    ) -> "BatchSystemResult":
        """The same result from an exact-engine run of *result.taskset*
        under *faults*."""
        records = sim_job_records(result)
        failed = {r[0] for r in records if r[4] or r[5]}
        # A task is *faulty* when any of its released jobs was granted
        # demand above the declared cost (the paper's definition), as
        # the fault model itself answers it.
        faulty: set[str] = set()
        if faults is not None:
            costs = {t.name: t.cost for t in result.taskset}
            faulty = {
                name
                for name, k, *_ in records
                if faults.demand(name, k, costs[name]) > costs[name]
            }
        return cls(
            horizon=result.horizon,
            records=records,
            released=len(records),
            completed=sum(1 for r in records if r[3] >= 0 and not r[5]),
            misses=sum(1 for r in records if r[4]),
            stopped=sum(1 for r in records if r[5]),
            detections=sum(1 for r in records if r[6]),
            failed_task_count=len(failed),
            collateral_task_count=len(failed - faulty),
        )


def classify(
    taskset: TaskSet,
    *,
    faults: FaultModel | None = None,
    treatment: TreatmentKind | TreatmentPlan | None = None,
    vm: VMProfile = EXACT_VM,
    arrivals: Any = None,
    sections: Any = None,
    horizon: int | None = None,
) -> str | None:
    """Why this configuration cannot take the vectorized path, or
    ``None`` when it can.

    The stepper models exactly what :func:`simulate` does for the
    preemptive fixed-priority case — including per-job cost-deviation
    faults (:class:`FaultInjector` / :class:`RandomFaults`) and the
    detect-only, immediate-stop and equitable-allowance treatments on
    an ideal VM; every other knob routes the system to the exact
    engine.  Reasons are stable machine-readable codes (they feed the
    ``sweep_fallback_total{reason=...}`` telemetry counters):

    * ``opaque-fault-model`` — a fault model whose draws cannot be
      precomputed per ``(task, job)``;
    * ``system-allowance`` — §4.3's residual-grant book-keeping stays
      on the exact engine;
    * ``weakly-hard-treatment`` — the (m, K) treatments (SKIP_JOB /
      DEGRADE / MISS_BUDGET) drop or reshape individual jobs and keep
      per-window miss state, which the stepper does not model;
    * ``detector-fire-cost`` / ``stop-poll-overhead`` — VM overheads
      that perturb the schedule around detector events;
    * ``rounding-can-zero-detectors`` — DOWN/NEAREST timer rounding can
      place a detector *at* the release instant, whose semantics depend
      on engine event order (round-UP and exact timers cannot);
    * ``zero-detector-offset`` — an explicit plan that already did;
    * ``context-switch-cost`` / ``sporadic-arrivals`` /
      ``critical-sections`` / ``duplicate-priorities`` — as before;
    * ``horizon-beyond-int64`` — a *horizon* past :data:`HORIZON_LIMIT`;
    * ``demand-beyond-int64`` — a task whose cost plus the fault
      model's largest extra reaches :data:`HORIZON_LIMIT`.

    *horizon*, when given, also lets a :class:`FaultInjector` whose
    deviations all target jobs released after the horizon count as
    trivial (they cannot influence the schedule).
    """
    if horizon is not None and horizon > HORIZON_LIMIT:
        return "horizon-beyond-int64"
    if faults is not None and not _trivial_faults(faults, taskset, horizon):
        if not isinstance(faults, _TABLE_FAULTS):
            return "opaque-fault-model"
    if _demand_beyond_int64(taskset, faults, horizon) is not None:
        return "demand-beyond-int64"
    kind = treatment.kind if isinstance(treatment, TreatmentPlan) else treatment
    if kind is not None and kind is not TreatmentKind.NO_DETECTION:
        if kind.weakly_hard:
            return "weakly-hard-treatment"
        if kind is TreatmentKind.SYSTEM_ALLOWANCE:
            return "system-allowance"
        if vm.detector_fire_cost != 0:
            return "detector-fire-cost"
        if kind.stops_tasks and not isinstance(vm.stop_poll_overhead, NoOverhead):
            return "stop-poll-overhead"
        if isinstance(treatment, TreatmentPlan):
            if any(d.offset <= 0 for d in treatment.detectors.values()):
                return "zero-detector-offset"
        elif vm.timer_rounding.mode in (RoundingMode.DOWN, RoundingMode.NEAREST):
            return "rounding-can-zero-detectors"
    if vm.context_switch != 0:
        return "context-switch-cost"
    if arrivals:
        return "sporadic-arrivals"
    if sections:
        return "critical-sections"
    priorities = [t.priority for t in taskset]
    if len(set(priorities)) != len(priorities):
        return "duplicate-priorities"
    return None


def _trivial_faults(
    faults: FaultModel, taskset: TaskSet | None = None, horizon: int | None = None
) -> bool:
    """Fault models under which every demand equals the declared cost.

    With *taskset* and *horizon*, a :class:`FaultInjector` is also
    trivial when every deviation targets an unknown task or a job whose
    release lies beyond the horizon — such jobs are never released, so
    the deviations cannot influence the schedule."""
    if isinstance(faults, NoFaults):
        return True
    if isinstance(faults, FaultInjector):
        if not faults.deviations:
            return True
        if taskset is None or horizon is None:
            return False
        by_name = {t.name: t for t in taskset}
        return all(
            name not in by_name or by_name[name].release_time(job) > horizon
            for name, job in faults.deviations
        )
    if isinstance(faults, RandomFaults):
        return faults.rate == 0.0
    return False


def _demand_beyond_int64(
    taskset: TaskSet, faults: FaultModel | None, horizon: int | None
) -> str | None:
    """The first task whose cost plus the largest extra *faults* can
    grant it reaches :data:`HORIZON_LIMIT`, or ``None``."""
    extra = 0
    if faults is not None and not _trivial_faults(faults, taskset, horizon):
        if isinstance(faults, RandomFaults):
            extra = faults.max_extra
        elif isinstance(faults, FaultInjector):
            extra = max([0, *faults.deviations.values()])
    for task in taskset:
        if task.cost + extra >= HORIZON_LIMIT:
            return task.name
    return None


def simulate_batch(
    systems: Sequence[TaskSet],
    horizons: Sequence[int],
    *,
    faults: Sequence[FaultModel | None] | None = None,
    plans: Sequence[TreatmentPlan | None] | None = None,
) -> list[BatchSystemResult]:
    """Run every system on the vectorized stepper.

    *faults* and *plans* (when given) align with *systems*: the fault
    model supplying per-job demands and the treatment plan supplying
    detector offsets of each system.  Every system is solved level by
    level (see :func:`_level_pass`); the cost is linear in the jobs
    released, whatever the mix of systems.  Callers must have routed
    each system through :func:`classify` first; the only checks repeated
    here are the cheap ones (everything else is configuration the
    stepper never sees).
    """
    if len(systems) != len(horizons):
        raise ValueError("need one horizon per system")
    fault_list = list(faults) if faults is not None else [None] * len(systems)
    plan_list = list(plans) if plans is not None else [None] * len(systems)
    if len(fault_list) != len(systems) or len(plan_list) != len(systems):
        raise ValueError("faults/plans must align with systems")
    if not systems:
        return []
    for ts, fm, plan, h in zip(systems, fault_list, plan_list, horizons):
        if h <= 0:
            raise ValueError("horizon must be > 0")
        if h > HORIZON_LIMIT:
            raise ValueError(f"horizon {h} exceeds the stepper's limit {HORIZON_LIMIT}")
        prios = [t.priority for t in ts]
        if len(set(prios)) != len(prios):
            raise ValueError("duplicate priorities: classify() should have rejected this system")
        if fm is not None and not isinstance(fm, _TABLE_FAULTS):
            raise ValueError("opaque fault model: classify() should have rejected this system")
        if plan is not None and plan.kind is TreatmentKind.SYSTEM_ALLOWANCE:
            raise ValueError("system allowance: classify() should have rejected this system")
        name = _demand_beyond_int64(ts, fm, h)
        if name is not None:
            raise ValueError(
                f"task {name!r}: cost plus largest fault extra reaches the "
                f"stepper's limit {HORIZON_LIMIT}"
            )
    # The level pass keys (system, instant) pairs as ``system * stride +
    # instant`` with ``stride = horizon + 2``; a batch whose keys would
    # not fit in int64 runs in slabs that do (at least three systems
    # each, since horizons stay within HORIZON_LIMIT).
    slab = np.iinfo(np.int64).max // (max(horizons) + 2)
    results: list[BatchSystemResult] = []
    for lo in range(0, len(systems), slab):
        hi = lo + slab
        results += _simulate(systems[lo:hi], horizons[lo:hi], fault_list[lo:hi], plan_list[lo:hi])
    return results


def _demand_table(
    systems: Sequence[TaskSet],
    fault_list: Sequence[FaultModel | None],
    cost: np.ndarray,
    counts: np.ndarray,
    job_base: np.ndarray,
    counts_flat: np.ndarray,
) -> np.ndarray:
    """The flat per-job demand table: declared costs overlaid with the
    fault models' deviations, aligned with the flat result slots.

    A :class:`FaultInjector` is applied sparsely through
    ``FaultModel.demand`` itself (only its deviation keys are visited)
    — the same calls the exact engine makes at each release, bit-exact
    by construction.  A :class:`RandomFaults` draw is needed for every
    released job; :func:`~repro.core.faults.uniform_extras` evaluates
    the same counter hash as ``RandomFaults.demand`` over all of them
    at once."""
    demand_flat = np.repeat(cost.reshape(-1), counts_flat)
    # (destination slot base, job counters, rate, max_extra) per
    # (system, task) segment — gathered chunk-wide so the whole chunk
    # is drawn in one vector pass.
    segments: list[tuple[int, np.ndarray, float, int]] = []
    for s, fm in enumerate(fault_list):
        if fm is None or isinstance(fm, NoFaults):
            continue
        tasks = list(systems[s])
        if isinstance(fm, FaultInjector):
            col = {t.name: i for i, t in enumerate(tasks)}
            for (name, job), _delta in fm.deviations.items():
                c = col.get(name)
                if c is not None and job < int(counts[s, c]):
                    demand_flat[int(job_base[s, c]) + job] = fm.demand(
                        name, job, tasks[c].cost
                    )
        elif fm.rate > 0.0:
            for c, task in enumerate(tasks):
                n = int(counts[s, c])
                if n:
                    segments.append(
                        (
                            int(job_base[s, c]),
                            job_seeds(fm.seed, task.name, n),
                            fm.rate,
                            fm.max_extra,
                        )
                    )
    if segments:
        sizes = [seeds.size for _, seeds, _, _ in segments]
        extras = uniform_extras(
            np.concatenate([seeds for _, seeds, _, _ in segments]),
            np.repeat(np.array([rate for _, _, rate, _ in segments]), sizes),
            np.repeat(np.array([m for _, _, _, m in segments], dtype=np.int64), sizes),
        )
        pos = 0
        for base, seeds, _, _ in segments:
            demand_flat[base : base + seeds.size] += extras[pos : pos + seeds.size]
            pos += seeds.size
    return demand_flat


def _simulate(
    systems: Sequence[TaskSet],
    horizons: Sequence[int],
    fault_list: Sequence[FaultModel | None],
    plan_list: Sequence[TreatmentPlan | None],
) -> list[BatchSystemResult]:
    """One vectorized pass over *systems* (see :func:`simulate_batch`)."""
    count = len(systems)
    width = max(len(ts) for ts in systems)

    # Padded (systems, tasks) parameter arrays; tasks come priority-
    # sorted out of TaskSet, so column order IS priority order.
    cost = np.zeros((count, width), dtype=np.int64)
    period = np.ones((count, width), dtype=np.int64)
    deadline = np.zeros((count, width), dtype=np.int64)
    offset = np.zeros((count, width), dtype=np.int64)
    valid = np.zeros((count, width), dtype=bool)
    horizon = np.asarray(list(horizons), dtype=np.int64)[:, None]
    for s, ts in enumerate(systems):
        # Past horizon + 1 a period, deadline or offset changes nothing
        # observable; clipping keeps their sums within int64.
        never = int(horizons[s]) + 1
        for i, task in enumerate(ts):
            cost[s, i] = task.cost
            period[s, i] = min(task.period, never)
            deadline[s, i] = min(task.deadline, never)
            offset[s, i] = min(task.offset, never)
            valid[s, i] = True

    # Per-(system, task) job counts over the horizon (the engine only
    # ever schedules releases at or before it), and flat result slots.
    counts = np.where(
        valid & (offset <= horizon), (horizon - offset) // period + 1, 0
    )
    counts_flat = counts.reshape(-1)
    job_base = np.concatenate(([0], np.cumsum(counts_flat)[:-1])).reshape(count, width)
    total_jobs = int(counts_flat.sum())
    ks = np.arange(total_jobs, dtype=np.int64) - np.repeat(job_base.reshape(-1), counts_flat)
    rel_flat = np.repeat(offset.reshape(-1), counts_flat) + ks * np.repeat(
        period.reshape(-1), counts_flat
    )

    # Fault model → flat per-job demand table (bit-exact draws).
    demand_flat = _demand_table(systems, fault_list, cost, counts, job_base, counts_flat)

    # Treatment plans → per-task detector offsets, clipped to horizon +
    # 1 (a later instant is never observed).  Stopping kinds cut jobs in
    # the level pass; detect-only is schedule-neutral and resolved in
    # closed form after it.
    hbc = np.broadcast_to(horizon, (count, width))
    stop_after, detect_after = hbc + 1, hbc + 1
    for s, plan in enumerate(plan_list):
        if plan is None or plan.kind is TreatmentKind.NO_DETECTION:
            continue
        after = stop_after if plan.kind.stops_tasks else detect_after
        for c, task in enumerate(systems[s]):
            spec = plan.detector_for(task.name)
            if spec is not None:
                after[s, c] = min(spec.offset, int(after[s, c]))
    finished, stopped = _level_pass(
        counts, job_base, rel_flat, demand_flat, stop_after, horizon[:, 0]
    )

    # Closed-form per-job outcomes over the flat slots.
    dl_flat = rel_flat + np.repeat(deadline.reshape(-1), counts_flat)
    hz_flat = np.repeat(hbc.reshape(-1), counts_flat)
    # A job stopped exactly at its deadline still misses: the engine
    # runs DEADLINE_CHECK (rank 2) before DETECTOR (rank 3) at the same
    # instant, so the check sees the job unfinished.  A job *completing*
    # at the deadline meets it (COMPLETION is rank 0).
    missed = (dl_flat <= hz_flat) & (
        (finished < 0) | (finished > dl_flat) | (stopped & (finished == dl_flat))
    )
    # Detect-only detections in closed form: the detector at
    # release+offset flags the job iff it had not finished by then
    # (the schedule itself is identical to the untreated run).
    det_at = rel_flat + np.repeat(detect_after.reshape(-1), counts_flat)
    detected = stopped | ((det_at <= hz_flat) & ((finished < 0) | (finished > det_at)))

    # Per-task / per-system aggregates at C speed — the counters
    # consumers read instead of re-iterating the record tuples.
    jobs_per_sys = counts.sum(axis=1)
    sys_completed = _per_task(job_base, counts, (finished >= 0) & ~stopped).sum(axis=1)
    sys_missed = _per_task(job_base, counts, missed).sum(axis=1)
    sys_stopped = _per_task(job_base, counts, stopped).sum(axis=1)
    sys_detected = _per_task(job_base, counts, detected).sum(axis=1)
    task_failed = _per_task(job_base, counts, missed | stopped) > 0
    # A task is *faulty* when any of its released jobs was granted
    # demand above the declared cost (the paper's definition); failed
    # tasks that are not faulty are collateral damage.
    faulty = demand_flat > np.repeat(cost.reshape(-1), counts_flat)
    task_faulty = _per_task(job_base, counts, faulty) > 0
    failed_tasks = task_failed.sum(axis=1)
    collateral_tasks = (task_failed & ~task_faulty).sum(axis=1)
    # The record tuples and their column lists are the pass's memory
    # peak: drop the per-job arrays no record needs first.
    del demand_flat, faulty, dl_flat, hz_flat, det_at

    results: list[BatchSystemResult] = []
    ks_l = ks.tolist()
    rel_l = rel_flat.tolist()
    fin_l = finished.tolist()
    miss_l = missed.tolist()
    stop_l = stopped.tolist()
    det_l = detected.tolist()
    for s, ts in enumerate(systems):
        tasks = list(ts)
        records: list[JobRecord] = []
        # Emit in task-name order: record tuples sort by name first and
        # job index second, so the concatenation is already sorted.
        for i in sorted(range(len(tasks)), key=lambda j: tasks[j].name):
            base = int(job_base[s, i])
            end = base + int(counts[s, i])
            records.extend(
                zip(  # C-level tuple assembly: millions of records per sweep
                    itertools.repeat(tasks[i].name),
                    ks_l[base:end],
                    rel_l[base:end],
                    fin_l[base:end],
                    miss_l[base:end],
                    stop_l[base:end],
                    det_l[base:end],
                )
            )
        results.append(
            BatchSystemResult(
                horizon=int(horizon[s, 0]),
                records=tuple(records),
                released=int(jobs_per_sys[s]),
                completed=int(sys_completed[s]),
                misses=int(sys_missed[s]),
                stopped=int(sys_stopped[s]),
                detections=int(sys_detected[s]),
                failed_task_count=int(failed_tasks[s]),
                collateral_task_count=int(collateral_tasks[s]),
            )
        )
    return results


def _per_task(job_base: np.ndarray, counts: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``(systems, tasks)`` counts of the set flat slots in *mask*: prefix
    sums over the contiguous per-task job segments (exact for empty
    segments, e.g. a task whose offset lies beyond the horizon)."""
    cum = np.concatenate(([0], np.cumsum(mask)))
    return cum[job_base + counts] - cum[job_base]


def _level_pass(
    counts: np.ndarray,
    job_base: np.ndarray,
    rel: np.ndarray,
    demand: np.ndarray,
    stop_after: np.ndarray,
    horizon: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(finished, stopped)`` over the flat job slots, solved one
    priority level (task column) at a time (DESIGN.md §3.10).

    Level c sees the CPU through its *supply* ``S_c(t)``, the time in
    ``[0, t)`` the levels above leave free.  In supply units job k runs
    in ``[A_k, E_k)``, ``A_k = max(E_{k-1}, S_c(r_k))``, ``E_k =
    min(A_k + d_k, S_c(stop_k))`` with ``stop_k = r_k + stop_after``:
    a completion wins a tie with its detector, and happens at the first
    instant the supply reaches ``A_k + d_k``.  The steps are maps ``x ->
    min(max(x + d, lo), hi)``, closed under composition, so a segmented
    prefix scan gives every ``E_k``.  Removing the windows from ``S_c``
    gives ``S_{c+1}``."""
    count, width = counts.shape
    # Keys and caps: every instant below is at most horizon + 1 < stride.
    stride = int(horizon.max()) + 2
    finished = np.full(rel.size, -1, dtype=np.int64)
    stopped = np.zeros(rel.size, dtype=bool)
    above: list[_Level] = []
    for c in range(width):
        n = counts[:, c]
        s = np.repeat(np.arange(count), n)
        if s.size == 0:
            continue
        k = np.arange(s.size) - np.repeat(np.cumsum(n) - n, n)
        idx = job_base[s, c] + k
        h = horizon[s]
        r = rel[idx]
        stop = np.minimum(r + stop_after[s, c], h + 1)
        # Supply at every release and detector instant, through the
        # levels above.
        at_release, at_stop = r, stop
        for level in above:
            at_release = level.free(s, at_release)
            at_stop = level.free(s, at_stop)
        # A demand of stride or more never completes: capping demands
        # and their sums there keeps every sum below within int64.
        d = np.minimum(demand[idx], stride)
        shift, lo, hi = d.copy(), np.minimum(at_release + d, at_stop), at_stop.copy()
        step = 1
        while step < n.max():
            # Compose each job's map after the one `step` jobs earlier
            # in the same task (Hillis-Steele scan, one task a segment).
            by, lo_l, hi_l = shift[step:], lo[step:], hi[step:]
            new_shift = np.minimum(shift[:-step] + by, stride)
            new_lo = np.clip(lo[:-step] + by, lo_l, hi_l)
            new_hi = np.clip(hi[:-step] + by, lo_l, hi_l)
            same_task = k[step:] >= step
            np.copyto(lo_l, new_lo, where=same_task)
            np.copyto(hi_l, new_hi, where=same_task)
            np.copyto(by, new_shift, where=same_task)
            step *= 2
        end = np.minimum(np.maximum(shift, lo), hi)
        start = np.concatenate(([0], end[:-1]))
        start[k == 0] = 0
        np.maximum(start, at_release, out=start)
        reach = start + d
        done = reach <= at_stop
        at = reach[done]
        for level in reversed(above):
            at = level.first(s[done], at)
        finished[idx[done]] = np.where(at <= h[done], at, -1)
        cut = ~done & (stop <= h)
        finished[idx[cut]] = stop[cut]
        stopped[idx[cut]] = True
        if c + 1 < width:
            above.append(_Level(s, start, end, stride, count))
    return finished, stopped


class _Level:
    """One level's busy windows ``[start, end)``, in its own supply
    units, as the map from its supply to the supply of the level below.

    Windows of all systems share one sorted int64 key space,
    ``system * stride + instant``, so each map is one ``searchsorted``
    over the batch."""

    def __init__(
        self, sys_: np.ndarray, start: np.ndarray, end: np.ndarray, stride: int, count: int
    ) -> None:
        self.stride = stride
        key = sys_ * stride
        #: Busy supply before each window, and before each system's first.
        self.busy = np.concatenate(([0], np.cumsum(end - start)))
        self.busy_base = self.busy[np.searchsorted(sys_, np.arange(count))]
        self.key_start = key + start
        # Shifted by one (``key_end[i]`` ends window ``i - 1``); the
        # leading 0 never exceeds a query key.
        self.key_end = np.concatenate(([0], key + end))
        #: Supply left to the level below when each window starts.
        self.key_free = self.key_start - (self.busy[:-1] - self.busy_base[sys_])

    def free(self, sys_: np.ndarray, supply: np.ndarray) -> np.ndarray:
        """The supply left below this level at this level's *supply*."""
        key = sys_ * self.stride + supply
        i = np.searchsorted(self.key_start, key)
        # Windows starting before *supply*, less the part of the last
        # one still ahead of it (only ever in the same system).
        busy = self.busy[i] - self.busy_base[sys_] - np.maximum(self.key_end[i] - key, 0)
        return supply - busy

    def first(self, sys_: np.ndarray, free: np.ndarray) -> np.ndarray:
        """The least supply of this level at which :meth:`free` reaches
        *free*."""
        i = np.searchsorted(self.key_free, sys_ * self.stride + free)
        return free + self.busy[i] - self.busy_base[sys_]


def sim_job_records(result: SimResult) -> tuple[JobRecord, ...]:
    """The :data:`JobRecord` view of an exact-engine run (sorted)."""
    records = sorted(
        (
            job.name,
            job.index,
            job.release,
            job.finished_at if job.finished_at is not None else -1,
            bool(job.deadline_missed),
            bool(job.was_stopped),
            bool(job.fault_detected),
        )
        for job in result.jobs.values()
    )
    return tuple(records)


def schedule_fingerprint(result: SimResult | BatchSystemResult) -> str:
    """Stable content hash of one system's schedule outcome.

    Identical for a vectorized and an exact run of the same system —
    the bit-equivalence contract the batch suite enforces.
    """
    records = (
        result.records
        if isinstance(result, BatchSystemResult)
        else sim_job_records(result)
    )
    return f"{stable_hash(records):08x}"
