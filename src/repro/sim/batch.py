"""Vectorized lock-step simulation of task-system *populations*.

The paper's claims are per-system; evaluating them over populations
(thousands of generated systems swept across utilization, task count
and fault rate) makes per-system event loops the bottleneck.  This
module adds a numpy stepper that advances hundreds of independent
systems at once for the cases the sweeps hit most — preemptive
fixed-priority, periodic releases, no locks, no servers, zero
context-switch cost — including the paper's core workload: injected
cost overruns with detector-based treatments:

* state is a handful of ``(systems, tasks)`` int64 arrays
  (``next_release``, head-job ``remaining``, released/done counters)
  plus a flat per-job *demand* table precomputed from the fault model
  (bit-for-bit the values the exact engine draws, since both sides
  evaluate the same ``RandomFaults`` counter hash);
* each step advances every system to its *own* next event instant
  (completion, detector stop or release) and applies all simultaneous
  events in the engine's rank order — completions, then detector
  stops, then releases (:class:`repro.sim.engine.Rank` semantics,
  reproduced in closed form);
* a stopping treatment (§4.1 immediate stop, §4.2 equitable allowance)
  contributes one pending stop instant per task: ``release + offset``
  of the *head* job's detector.  Only head jobs can be stopped — the
  previous job of the same thread always ends at or before its own
  detector instant, which precedes the next job's — so a single
  per-column stop time is exact, not an approximation;
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

#: Sentinel "no pending event" instant (far beyond any horizon).
_INF = np.int64(1 << 62)

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
      ``critical-sections`` / ``duplicate-priorities`` — as before.

    *horizon*, when given, lets a :class:`FaultInjector` whose
    deviations all target jobs released after the horizon count as
    trivial (they cannot influence the schedule).
    """
    if faults is not None and not _trivial_faults(faults, taskset, horizon):
        if not isinstance(faults, _TABLE_FAULTS):
            return "opaque-fault-model"
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


#: Systems stepped together.  Lock-step cost per bucket is
#: ``max(event count) x per-iteration overhead``, so buckets are filled
#: with event-count-sorted systems: heterogeneous populations (wide
#: log-uniform periods) then pay the busy systems' iteration count only
#: for the buckets that contain them, not for everyone.
_BUCKET = 512


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
    detector offsets of each system.  Systems are stepped in
    event-count-sorted buckets (an internal layout choice — every
    system is independent, so results are identical to any other
    grouping).  Callers must have routed each system through
    :func:`classify` first; the only checks repeated here are the cheap
    ones (everything else is configuration the stepper never sees).
    """
    if len(systems) != len(horizons):
        raise ValueError("need one horizon per system")
    fault_list = list(faults) if faults is not None else [None] * len(systems)
    plan_list = list(plans) if plans is not None else [None] * len(systems)
    if len(fault_list) != len(systems) or len(plan_list) != len(systems):
        raise ValueError("faults/plans must align with systems")
    if not systems:
        return []
    for ts, fm, plan in zip(systems, fault_list, plan_list):
        prios = [t.priority for t in ts]
        if len(set(prios)) != len(prios):
            raise ValueError("duplicate priorities: classify() should have rejected this system")
        if fm is not None and not isinstance(fm, _TABLE_FAULTS):
            raise ValueError("opaque fault model: classify() should have rejected this system")
        if plan is not None and plan.kind is TreatmentKind.SYSTEM_ALLOWANCE:
            raise ValueError("system allowance: classify() should have rejected this system")
    if len(systems) <= _BUCKET:
        return _step_lockstep(systems, list(horizons), fault_list, plan_list)
    weights = [
        sum(
            (h - t.offset) // t.period + 1
            for t in ts
            if t.offset <= h
        )
        for ts, h in zip(systems, horizons)
    ]
    order = sorted(range(len(systems)), key=lambda i: (weights[i], i))
    results: list[BatchSystemResult | None] = [None] * len(systems)
    for lo in range(0, len(order), _BUCKET):
        idx = order[lo : lo + _BUCKET]
        for i, res in zip(
            idx,
            _step_lockstep(
                [systems[i] for i in idx],
                [horizons[i] for i in idx],
                [fault_list[i] for i in idx],
                [plan_list[i] for i in idx],
            ),
        ):
            results[i] = res
    return [r for r in results if r is not None]


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
        extras = uniform_extras(
            np.concatenate([seeds for _, seeds, _, _ in segments]),
            np.concatenate(
                [np.full(seeds.size, rate) for _, seeds, rate, _ in segments]
            ),
            np.concatenate(
                [
                    np.full(seeds.size, m, dtype=np.int64)
                    for _, seeds, _, m in segments
                ]
            ),
        )
        pos = 0
        for base, seeds, _, _ in segments:
            demand_flat[base : base + seeds.size] += extras[pos : pos + seeds.size]
            pos += seeds.size
    return demand_flat


def _step_lockstep(
    systems: Sequence[TaskSet],
    horizons: Sequence[int],
    fault_list: Sequence[FaultModel | None],
    plan_list: Sequence[TreatmentPlan | None],
) -> list[BatchSystemResult]:
    """One lock-step pass over *systems* (see :func:`simulate_batch`)."""
    count = len(systems)
    width = max(len(ts) for ts in systems)

    # Padded (systems, tasks) parameter arrays; tasks come priority-
    # sorted out of TaskSet, so column order IS dispatch order and the
    # running task of a system is its first column with backlog.
    cost = np.zeros((count, width), dtype=np.int64)
    period = np.ones((count, width), dtype=np.int64)
    deadline = np.zeros((count, width), dtype=np.int64)
    offset = np.zeros((count, width), dtype=np.int64)
    valid = np.zeros((count, width), dtype=bool)
    horizon = np.asarray(list(horizons), dtype=np.int64)[:, None]
    if np.any(horizon <= 0):
        raise ValueError("horizon must be > 0")
    for s, ts in enumerate(systems):
        for i, task in enumerate(ts):
            cost[s, i] = task.cost
            period[s, i] = task.period
            deadline[s, i] = task.deadline
            offset[s, i] = task.offset
            valid[s, i] = True

    # Per-(system, task) job counts over the horizon (the engine only
    # ever schedules releases at or before it), and flat result slots.
    counts = np.where(
        valid & (offset <= horizon), (horizon - offset) // period + 1, 0
    )
    counts_flat = counts.reshape(-1)
    job_base = np.concatenate(([0], np.cumsum(counts_flat)[:-1])).reshape(count, width)
    total_jobs = int(counts_flat.sum())
    finished = np.full(total_jobs, -1, dtype=np.int64)
    stopped = np.zeros(total_jobs, dtype=bool)
    detected = np.zeros(total_jobs, dtype=bool)

    # Fault model → flat per-job demand table (bit-exact draws).
    demand_flat = _demand_table(systems, fault_list, cost, counts, job_base, counts_flat)

    # Treatment plans → per-task detector offsets and per-system mode
    # flags.  Stopping kinds feed the event loop (a stop cancels the
    # head job's remaining demand); detect-only is schedule-neutral and
    # resolved in closed form after the loop.
    det = np.full((count, width), _INF, dtype=np.int64)
    stops_on = np.zeros(count, dtype=bool)
    detect_only = np.zeros(count, dtype=bool)
    for s, plan in enumerate(plan_list):
        if plan is None or plan.kind is TreatmentKind.NO_DETECTION:
            continue
        if plan.kind.stops_tasks:
            stops_on[s] = True
        else:
            detect_only[s] = True
        for c, task in enumerate(systems[s]):
            spec = plan.detector_for(task.name)
            if spec is not None:
                det[s, c] = spec.offset
    has_stops = bool(stops_on.any())

    # Mutable stepper state.
    next_rel = np.where(valid & (offset <= horizon), offset, _INF)
    released = np.zeros((count, width), dtype=np.int64)
    done = np.zeros((count, width), dtype=np.int64)
    head_rem = np.zeros((count, width), dtype=np.int64)
    now = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)

    horizon1 = horizon[:, 0]
    hbc = np.broadcast_to(horizon, (count, width))
    last_slot = max(total_jobs - 1, 0)
    while True:
        active = released > done
        any_active = active.any(axis=1)
        run_idx = np.argmax(active, axis=1)  # first backlogged column = running task
        t_complete = now + head_rem[rows, run_idx]
        t_complete[~any_active] = _INF
        t_next = np.minimum(t_complete, next_rel.min(axis=1))
        if has_stops:
            # Pending stop instant per column: the *head* job's detector
            # (release + offset).  Newly activated heads always have
            # stop instants strictly in the future (or beyond the
            # horizon), so one instant per column covers every job.
            stop_at = np.where(
                active & stops_on[:, None],
                offset + done * period + det,
                _INF,
            )
            t_next = np.minimum(t_next, stop_at.min(axis=1))
        live = t_next <= horizon1
        if not live.any():
            break
        # Mask finished systems out of every instant comparison below
        # (no event time is negative, so -1 matches nothing).
        t_next[~live] = -1
        # Charge the running head for the interval it just executed.
        charge = live & any_active
        head_rem[rows[charge], run_idx[charge]] -= (t_next - now)[charge]
        now[live] = t_next[live]
        # Completions first (Rank.COMPLETION precedes everything): the
        # head job ends, and the next backlogged job of the same thread
        # — if any — becomes the head immediately, within this instant.
        comp = charge & (t_complete == t_next)
        if comp.any():
            cr, cc = rows[comp], run_idx[comp]
            finished[job_base[cr, cc] + done[cr, cc]] = t_next[comp]
            done[cr, cc] += 1
            # Backlog head activation: the next job's own demand (the
            # clipped gather is a no-op write when the column idles).
            slot = np.minimum(job_base[cr, cc] + done[cr, cc], last_slot)
            head_rem[cr, cc] = demand_flat[slot]
        # Detector stops next (Rank.STOP/DETECTOR precede RELEASE): any
        # head whose detector instant is now and that did not complete
        # at this instant ends as stopped-and-detected.  Heads freshly
        # activated by a completion above never match (their detector
        # instants are strictly later), mirroring the engine where a
        # detector only ever fires for the job it was armed with.
        if has_stops:
            stop_hit = (
                stops_on[:, None]
                & (released > done)
                & (offset + done * period + det == t_next[:, None])
            )
            if stop_hit.any():
                sr, sc = np.nonzero(stop_hit)
                slot = job_base[sr, sc] + done[sr, sc]
                finished[slot] = t_next[sr]
                stopped[slot] = True
                detected[slot] = True
                done[sr, sc] += 1
                nxt = np.minimum(job_base[sr, sc] + done[sr, sc], last_slot)
                head_rem[sr, sc] = demand_flat[nxt]
        # Then releases: every task whose next release is this instant.
        rel = next_rel == t_next[:, None]
        if rel.any():
            was_idle = released == done
            released[rel] += 1
            fresh = rel & was_idle
            if fresh.any():
                fr, fc = np.nonzero(fresh)
                head_rem[fr, fc] = demand_flat[job_base[fr, fc] + done[fr, fc]]
            nxt = next_rel[rel] + period[rel]
            next_rel[rel] = np.where(nxt <= hbc[rel], nxt, _INF)

    if not np.array_equal(released, counts):  # pragma: no cover - invariant
        raise AssertionError("stepper released a different job set than the closed form")

    # Closed-form per-job outcomes over the flat slots.
    ks = np.arange(total_jobs, dtype=np.int64) - np.repeat(
        job_base.reshape(-1), counts_flat
    )
    rel_flat = np.repeat(offset.reshape(-1), counts_flat) + ks * np.repeat(
        period.reshape(-1), counts_flat
    )
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
    if detect_only.any():
        det_off = np.repeat(
            np.where(detect_only[:, None], det, _INF).reshape(-1), counts_flat
        )
        det_at = rel_flat + det_off
        detected |= (det_at <= hz_flat) & ((finished < 0) | (finished > det_at))

    # Per-system / per-task aggregates at C speed: prefix sums over the
    # contiguous flat job segments (exact for empty segments, e.g. a
    # task whose offset lies beyond the horizon) — the counters
    # consumers read instead of re-iterating the record tuples.
    jobs_per_sys = counts.sum(axis=1)
    sys_starts = np.concatenate(([0], np.cumsum(jobs_per_sys)[:-1]))
    sys_ends = sys_starts + jobs_per_sys
    cum_completed = np.concatenate(([0], np.cumsum((finished >= 0) & ~stopped)))
    cum_missed = np.concatenate(([0], np.cumsum(missed)))
    cum_stopped = np.concatenate(([0], np.cumsum(stopped)))
    cum_detected = np.concatenate(([0], np.cumsum(detected)))
    sys_completed = cum_completed[sys_ends] - cum_completed[sys_starts]
    sys_missed = cum_missed[sys_ends] - cum_missed[sys_starts]
    sys_stopped = cum_stopped[sys_ends] - cum_stopped[sys_starts]
    sys_detected = cum_detected[sys_ends] - cum_detected[sys_starts]
    flat_starts = job_base.reshape(-1)
    flat_ends = flat_starts + counts_flat
    cum_failed = np.concatenate(([0], np.cumsum(missed | stopped)))
    task_failed = (cum_failed[flat_ends] - cum_failed[flat_starts]).reshape(
        count, width
    ) > 0
    # A task is *faulty* when any of its released jobs was granted
    # demand above the declared cost (the paper's definition); failed
    # tasks that are not faulty are collateral damage.
    cum_faulty = np.concatenate(
        ([0], np.cumsum(demand_flat > np.repeat(cost.reshape(-1), counts_flat)))
    )
    task_faulty = (cum_faulty[flat_ends] - cum_faulty[flat_starts]).reshape(
        count, width
    ) > 0
    failed_tasks = task_failed.sum(axis=1)
    collateral_tasks = (task_failed & ~task_faulty).sum(axis=1)

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
