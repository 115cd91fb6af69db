"""Bit-equivalence of the vectorized population stepper.

The contract of :mod:`repro.sim.batch` is that for every system the
classifier admits, :func:`simulate_batch` produces the *same* job
records — and therefore the same fingerprint — as the exact engine run
one system at a time.  This suite pins that over hundreds of generated
systems plus hand-built stress cases (offsets beyond the horizon,
permanent overload, completion exactly at a deadline or release), and
— since the stepper models the paper's core workload — over injected
cost deviations under every supported treatment (detect-only,
immediate stop, equitable allowance).
"""

import pytest

from repro.core.detection import Rounding, RoundingMode
from repro.core.faults import (
    CostOverrun,
    CostUnderrun,
    FaultInjector,
    NoFaults,
    RandomFaults,
)
from repro.core.task import Task, TaskSet
from repro.core.treatments import TreatmentKind, plan_treatment
from repro.exec.sim import run_simulation
from repro.exec.sweep import _exact_fallback
from repro.rng import derive_rng
from repro.sim.batch import (
    HORIZON_LIMIT,
    BatchSystemResult,
    _trivial_faults,
    classify,
    schedule_fingerprint,
    sim_job_records,
    simulate_batch,
)
from repro.sim.vm import ConstantOverhead, VMProfile
from repro.workloads.population import PopulationConfig, generate_population

#: The treatment kinds the vectorized stepper models (None = untreated).
SUPPORTED_TREATMENTS = (
    None,
    TreatmentKind.DETECT_ONLY,
    TreatmentKind.IMMEDIATE_STOP,
    TreatmentKind.EQUITABLE_ALLOWANCE,
)


def exact_records(ts: TaskSet, horizon: int, faults=None, treatment=None):
    return sim_job_records(
        run_simulation(ts, horizon=horizon, faults=faults, treatment=treatment)
    )


def batched_one(ts: TaskSet, horizon: int, faults=None, treatment=None):
    """One system through the batched route exactly as ``build_chunk``
    drives it: plan the treatment (admission gate included), then step."""
    plan = None
    if treatment is not None and treatment.installs_detectors:
        plan = plan_treatment(ts, treatment)
    (b,) = simulate_batch([ts], [horizon], faults=[faults], plans=[plan])
    return b


def assert_parity(ts: TaskSet, horizon: int, faults=None, treatment=None):
    """Records, fingerprint and every counter equal between routes."""
    b = batched_one(ts, horizon, faults, treatment)
    result = run_simulation(ts, horizon=horizon, faults=faults, treatment=treatment)
    exact = sim_job_records(result)
    assert b.records == exact
    assert schedule_fingerprint(b) == schedule_fingerprint(result)
    assert b.released == len(exact)
    assert b.completed == sum(1 for r in exact if r[3] >= 0 and not r[5])
    assert b.misses == sum(1 for r in exact if r[4])
    assert b.stopped == sum(1 for r in exact if r[5])
    assert b.detections == sum(1 for r in exact if r[6])
    costs = {t.name: t.cost for t in ts}
    faulty = (
        {
            name
            for name, k, *_ in exact
            if faults.demand(name, k, costs[name]) > costs[name]
        }
        if faults is not None
        else set()
    )
    failed = {r[0] for r in exact if r[4] or r[5]}
    assert b.failed_task_count == len(failed)
    assert b.collateral_task_count == len(failed - faulty)
    assert BatchSystemResult.from_exact(result, faults) == b
    return b


def small_periods(**overrides) -> PopulationConfig:
    """Population knobs scaled down so the exact engine stays fast."""
    defaults = dict(period_lo=20, period_hi=400, period_granularity=1)
    defaults.update(overrides)
    return PopulationConfig(**defaults)


def stress_systems() -> list[tuple[TaskSet, int]]:
    """Hand-built (system, horizon) pairs covering the edge geometry."""
    return [
        # Offset beyond the horizon: zero released jobs.
        (TaskSet([Task("only", cost=2, period=380, deadline=120, offset=1088, priority=1)]), 320),
        # One task with zero jobs, one with many.
        (
            TaskSet(
                [
                    Task("late", cost=5, period=100, deadline=80, offset=900, priority=2),
                    Task("busy", cost=3, period=10, deadline=10, priority=1),
                ]
            ),
            200,
        ),
        # Permanent overload (cost == period): every deadline in range misses.
        (TaskSet([Task("full", cost=50, period=50, deadline=30, priority=1)]), 300),
        # Completion exactly at the deadline (meets it) and at a release.
        (TaskSet([Task("edge", cost=10, period=10, deadline=10, priority=1)]), 100),
        # Two tasks, completion of hi coincides with release of lo.
        (
            TaskSet(
                [
                    Task("hi", cost=4, period=8, deadline=8, priority=10),
                    Task("lo", cost=3, period=12, deadline=12, offset=4, priority=5),
                ]
            ),
            96,
        ),
        # Horizon shorter than every period: at most the initial jobs.
        (
            TaskSet(
                [
                    Task("a", cost=2, period=70, deadline=9, priority=3),
                    Task("b", cost=9, period=90, deadline=60, offset=5, priority=2),
                ]
            ),
            50,
        ),
        # Backlogged task (deadline > period would be unusual, keep
        # constrained but overloaded pair instead).
        (
            TaskSet(
                [
                    Task("p", cost=7, period=10, deadline=10, priority=9),
                    Task("q", cost=8, period=15, deadline=15, priority=4),
                ]
            ),
            150,
        ),
    ]


class TestEquivalence:
    def test_generated_population_bit_identical(self):
        """200+ generated systems across three cells: records, counters
        and fingerprints all equal the exact engine's."""
        systems: list[TaskSet] = []
        for cell, (u, n) in enumerate([(0.5, 3), (0.75, 4), (0.97, 5)]):
            systems.extend(
                generate_population(
                    70,
                    small_periods(n=n, utilization=u, deadline_factor=0.9),
                    seed=5150,
                    key=("eqcell", cell),
                )
            )
        assert len(systems) == 210
        horizons = [4 * max(t.period for t in ts) for ts in systems]
        batch = simulate_batch(systems, horizons)
        misses_seen = 0
        for ts, h, b in zip(systems, horizons, batch):
            result = run_simulation(ts, horizon=h)
            exact = sim_job_records(result)
            assert b.records == exact
            assert schedule_fingerprint(b) == schedule_fingerprint(result)
            assert b.horizon == h
            assert b.released == len(exact)
            assert b.completed == sum(1 for r in exact if r[3] >= 0)
            assert b.misses == sum(1 for r in exact if r[4])
            assert b.failed_task_count == len({r[0] for r in exact if r[4]})
            misses_seen += b.misses
        # The U=0.97 cell guarantees the suite exercises misses.
        assert misses_seen > 0

    @pytest.mark.parametrize(
        "ts,horizon", stress_systems(), ids=lambda v: v if isinstance(v, int) else None
    )
    def test_stress_geometry(self, ts, horizon):
        (b,) = simulate_batch([ts], [horizon])
        exact = exact_records(ts, horizon)
        assert b.records == exact
        assert b.released == len(exact)
        assert b.completed == sum(1 for r in exact if r[3] >= 0)
        assert b.misses == sum(1 for r in exact if r[4])
        assert b.failed_task_count == len({r[0] for r in exact if r[4]})

    def test_huge_task_fields_do_not_wrap(self):
        """A deadline, period or offset at or past the int64 range
        changes nothing observable and must not wrap into a spurious
        miss."""
        ts = TaskSet(
            [
                Task("a", cost=1, period=10, deadline=2**63 - 1, priority=3),
                Task("b", cost=2, period=2**64, deadline=2**65, priority=2),
                Task("c", cost=1, period=7, deadline=7, offset=2**70, priority=1),
            ]
        )
        (b,) = simulate_batch([ts], [30])
        assert b.records == exact_records(ts, 30)
        assert b.misses == 0

    def test_zero_job_system_counters(self):
        """A system whose only task releases nothing must report all
        zeros — the empty-segment case of the counter aggregation."""
        ts = TaskSet([Task("t", cost=1, period=10, deadline=10, offset=999, priority=1)])
        (b,) = simulate_batch([ts], [100])
        assert b.records == ()
        assert (b.released, b.completed, b.misses, b.failed_task_count) == (0, 0, 0, 0)
        assert (b.stopped, b.detections, b.collateral_task_count) == (0, 0, 0)

    def test_bucketed_run_matches_single_systems(self):
        """A large mixed batch returns results in input order, each
        equal to running that system alone: systems solved side by
        side never influence each other."""
        systems = generate_population(
            600, small_periods(n=2, utilization=0.6), seed=99, key=("bucket",)
        )
        horizons = [2 * max(t.period for t in ts) for ts in systems]
        together = simulate_batch(systems, horizons)
        assert len(together) == 600
        for probe in (0, 17, 299, 511, 512, 599):
            (alone,) = simulate_batch([systems[probe]], [horizons[probe]])
            assert together[probe] == alone


class TestFaultTreatmentEquivalence:
    """The paper's core workload on the vectorized stepper: injected
    cost deviations under each supported treatment, bit-identical to
    the exact engine."""

    def _fault_model(self, ts: TaskSet, i: int, seed: int):
        """Alternate between the two supported fault families, both
        drawn from ``derive_rng`` streams so every schedule is random
        yet replayable from (seed, i) alone."""
        min_period = min(t.period for t in ts)
        if i % 3 == 0:
            return RandomFaults(
                rate=0.6, max_extra=min_period, seed=derive_rng(seed, "rf", i).randrange(2**31)
            )
        rng = derive_rng(seed, "schedule", i)
        deviations = []
        for task in ts:
            for _ in range(rng.randrange(0, 3)):
                job = rng.randrange(0, 12)
                if rng.random() < 0.8:
                    deviations.append(CostOverrun(task.name, job, rng.randrange(1, min_period)))
                elif task.cost > 1:
                    deviations.append(CostUnderrun(task.name, job, rng.randrange(1, task.cost)))
        return FaultInjector(deviations)

    def test_fault_treatment_corpus_bit_identical(self):
        """200+ feasible systems with random fault schedules, cycling
        through every supported treatment: records, fingerprints and
        miss/stop/detection/collateral counters all equal the exact
        engine's, and the corpus provably exercises stops, detections
        and collateral damage."""
        systems: list[TaskSet] = []
        for cell, (u, n) in enumerate([(0.5, 3), (0.65, 4), (0.75, 5)]):
            systems.extend(
                generate_population(
                    70,
                    small_periods(n=n, utilization=u, deadline_factor=0.95),
                    seed=777,
                    key=("fteq", cell),
                    feasible_only=True,
                )
            )
        assert len(systems) == 210
        totals = {"stopped": 0, "detections": 0, "misses": 0, "collateral": 0}
        for i, ts in enumerate(systems):
            horizon = 3 * max(t.period for t in ts)
            faults = self._fault_model(ts, i, seed=777)
            treatment = SUPPORTED_TREATMENTS[i % len(SUPPORTED_TREATMENTS)]
            assert classify(ts, faults=faults, treatment=treatment, horizon=horizon) is None
            b = assert_parity(ts, horizon, faults, treatment)
            totals["stopped"] += b.stopped
            totals["detections"] += b.detections
            totals["misses"] += b.misses
            totals["collateral"] += b.collateral_task_count
        # The corpus must actually exercise the treated code paths.
        assert all(v > 0 for v in totals.values()), totals

    def test_batched_sweep_sized_run_matches_exact(self):
        """Faulted + treated systems through one big simulate_batch
        call equal per-system exact runs."""
        systems = generate_population(
            60,
            small_periods(n=3, utilization=0.6, deadline_factor=0.95),
            seed=31,
            key=("ftbatch",),
            feasible_only=True,
        )
        horizons = [3 * max(t.period for t in ts) for ts in systems]
        faults = [self._fault_model(ts, i, seed=31) for i, ts in enumerate(systems)]
        kinds = [SUPPORTED_TREATMENTS[i % 4] for i in range(len(systems))]
        plans = [
            plan_treatment(ts, k) if k is not None and k.installs_detectors else None
            for ts, k in zip(systems, kinds)
        ]
        batch = simulate_batch(systems, horizons, faults=faults, plans=plans)
        for ts, h, fm, k, b in zip(systems, horizons, faults, kinds, batch):
            assert b.records == exact_records(ts, h, fm, k)

    def test_arbitrary_deadline_corpus_bit_identical(self):
        """Deadlines up to 3x the period under the stopping treatments:
        detector offsets then exceed the period, so a job can wait
        behind a predecessor that is itself stopped.  The corpus must
        contain such plans and such backlogged stops."""
        systems: list[TaskSet] = []
        for cell, (factor, n, u) in enumerate([(1.8, 3, 0.7), (2.5, 4, 0.75), (3.0, 3, 0.8)]):
            systems.extend(
                generate_population(
                    60,
                    small_periods(n=n, utilization=u, deadline_factor=factor),
                    seed=1808,
                    key=("arbdl", cell),
                    feasible_only=True,
                )
            )
        beyond_period = backlogged_stops = 0
        for i, ts in enumerate(systems):
            treatment = (TreatmentKind.IMMEDIATE_STOP, TreatmentKind.EQUITABLE_ALLOWANCE)[i % 2]
            horizon = 4 * max(t.period for t in ts)
            plan = plan_treatment(ts, treatment)
            periods = {t.name: t.period for t in ts}
            beyond_period += any(d.offset > periods[name] for name, d in plan.detectors.items())
            b = assert_parity(ts, horizon, self._fault_model(ts, i, seed=1808), treatment)
            release = {(r[0], r[1]): r[2] for r in b.records}
            backlogged_stops += sum(
                1
                for name, k, _, finished, _, stopped, _ in b.records
                if stopped and release.get((name, k + 1), finished) < finished
            )
        assert beyond_period > 0 and backlogged_stops > 0, (beyond_period, backlogged_stops)

    def test_detector_completion_tie_is_not_a_stop(self):
        """A job completing exactly at its detector instant completes:
        COMPLETION outranks DETECTOR in the engine, and the level
        recurrence cuts a job only when its demand exceeds the supply
        at its detector instant."""
        ts = TaskSet([Task("a", cost=2, period=10, deadline=10, priority=1)])
        b = assert_parity(ts, 100, None, TreatmentKind.IMMEDIATE_STOP)
        assert b.stopped == 0 and b.detections == 0

    def test_overrun_is_stopped_at_detector(self):
        """An overrunning job is cut at release + WCRT, detected, and
        — having ended before its deadline — does not miss."""
        ts = TaskSet([Task("a", cost=2, period=10, deadline=10, priority=1)])
        faults = FaultInjector([CostOverrun("a", 3, 7)])
        b = assert_parity(ts, 100, faults, TreatmentKind.IMMEDIATE_STOP)
        assert b.stopped == 1 and b.detections == 1 and b.misses == 0

    def test_detect_only_flags_without_stopping(self):
        ts = TaskSet(
            [
                Task("hi", cost=2, period=10, deadline=10, priority=9),
                Task("lo", cost=3, period=15, deadline=15, priority=1),
            ]
        )
        faults = FaultInjector([CostOverrun("hi", 1, 6)])
        b = assert_parity(ts, 90, faults, TreatmentKind.DETECT_ONLY)
        assert b.stopped == 0 and b.detections > 0

    def test_underrun_under_treatment(self):
        """Early completions never trip a detector."""
        ts = TaskSet([Task("a", cost=5, period=10, deadline=10, priority=1)])
        faults = FaultInjector([CostUnderrun("a", k, 3) for k in range(5)])
        b = assert_parity(ts, 100, faults, TreatmentKind.IMMEDIATE_STOP)
        assert b.stopped == 0 and b.detections == 0

    def test_collateral_damage_under_immediate_stop(self):
        """An overrunning mid-priority job runs until its detector at
        the *worst-case* response time; in windows with less than
        worst-case interference that grants it real extra CPU, budget
        the low task's analysis never accounted for — the classic
        collateral scenario of §4.1."""
        ts = TaskSet(
            [
                Task("a", cost=2, period=10, deadline=10, priority=9),
                Task("b", cost=3, period=15, deadline=15, priority=5),
                Task("c", cost=5, period=18, deadline=14, priority=1),
            ]
        )
        faults = FaultInjector([CostOverrun("b", k, 9) for k in range(12)])
        b = assert_parity(ts, 120, faults, TreatmentKind.IMMEDIATE_STOP)
        assert b.stopped > 0
        assert b.collateral_task_count >= 1

    def test_deviation_beyond_horizon_is_inert(self):
        """A deviation targeting a job released after the horizon
        changes nothing — on either route."""
        ts = TaskSet([Task("a", cost=2, period=10, deadline=10, priority=1)])
        faults = FaultInjector([CostOverrun("a", 50, 9)])
        b = assert_parity(ts, 100, faults, TreatmentKind.IMMEDIATE_STOP)
        clean = batched_one(ts, 100, None, TreatmentKind.IMMEDIATE_STOP)
        assert b.records == clean.records

    def test_equitable_allowance_detects_later_than_immediate(self):
        """The §4.2 detectors fire at the allowance-adjusted WCRT, so a
        moderate overrun that the hard stop would cut survives."""
        ts = TaskSet(
            [
                Task("hi", cost=2, period=20, deadline=20, priority=9),
                Task("lo", cost=4, period=30, deadline=30, priority=1),
            ]
        )
        faults = FaultInjector([CostOverrun("hi", k, 2) for k in range(8)])
        hard = assert_parity(ts, 180, faults, TreatmentKind.IMMEDIATE_STOP)
        soft = assert_parity(ts, 180, faults, TreatmentKind.EQUITABLE_ALLOWANCE)
        assert soft.stopped <= hard.stopped
        assert soft.collateral_task_count == 0


class TestClassify:
    def clean(self) -> TaskSet:
        return TaskSet(
            [
                Task("a", cost=1, period=10, priority=2),
                Task("b", cost=2, period=20, priority=1),
            ]
        )

    def test_plain_system_is_eligible(self):
        assert classify(self.clean()) is None

    def test_trivial_fault_models_are_eligible(self):
        assert classify(self.clean(), faults=NoFaults()) is None
        assert classify(self.clean(), faults=FaultInjector([])) is None
        assert classify(self.clean(), faults=RandomFaults(rate=0.0, max_extra=5, seed=1)) is None

    def test_real_faults_are_eligible(self):
        """The paper's fault models vectorize now (ISSUE 9 tentpole)."""
        faults = FaultInjector([CostOverrun("a", 0, 5)])
        assert classify(self.clean(), faults=faults) is None
        rnd = RandomFaults(rate=0.5, max_extra=5, seed=1)
        assert classify(self.clean(), faults=rnd) is None

    def test_opaque_fault_model_rejected(self):
        class MeteredFaults:
            def demand(self, task_name, job, base_cost):
                return base_cost

        assert classify(self.clean(), faults=MeteredFaults()) == "opaque-fault-model"

    def test_supported_treatments_are_eligible(self):
        for kind in (
            TreatmentKind.NO_DETECTION,
            TreatmentKind.DETECT_ONLY,
            TreatmentKind.IMMEDIATE_STOP,
            TreatmentKind.EQUITABLE_ALLOWANCE,
        ):
            assert classify(self.clean(), treatment=kind) is None

    def test_system_allowance_stays_exact(self):
        assert (
            classify(self.clean(), treatment=TreatmentKind.SYSTEM_ALLOWANCE)
            == "system-allowance"
        )

    def test_vm_overheads_reject_treatments(self):
        firing = VMProfile(name="fire", detector_fire_cost=1)
        assert (
            classify(self.clean(), treatment=TreatmentKind.DETECT_ONLY, vm=firing)
            == "detector-fire-cost"
        )
        polling = VMProfile(name="poll", stop_poll_overhead=ConstantOverhead(2))
        assert (
            classify(self.clean(), treatment=TreatmentKind.IMMEDIATE_STOP, vm=polling)
            == "stop-poll-overhead"
        )
        # Detect-only never stops, so the poll overhead is irrelevant.
        assert classify(self.clean(), treatment=TreatmentKind.DETECT_ONLY, vm=polling) is None

    def test_down_rounding_rejects_treatments(self):
        vm = VMProfile(name="down", timer_rounding=Rounding(RoundingMode.DOWN, 100))
        assert (
            classify(self.clean(), treatment=TreatmentKind.IMMEDIATE_STOP, vm=vm)
            == "rounding-can-zero-detectors"
        )
        # Round-up timers (the jRate quirk) keep offsets positive.
        up = VMProfile(name="up", timer_rounding=Rounding(RoundingMode.UP, 100))
        assert classify(self.clean(), treatment=TreatmentKind.DETECT_ONLY, vm=up) is None

    def test_context_switch_rejected(self):
        vm = VMProfile(name="slow", context_switch=3)
        assert "context-switch" in classify(self.clean(), vm=vm)

    def test_arrivals_and_sections_rejected(self):
        assert "arrival" in classify(self.clean(), arrivals={"a": (0, 5)})
        assert "section" in classify(self.clean(), sections=[object()])

    def test_duplicate_priorities_rejected(self):
        ts = TaskSet(
            [
                Task("a", cost=1, period=10, priority=1),
                Task("b", cost=2, period=20, priority=1),
            ]
        )
        assert "priorities" in classify(ts)

    def test_simulate_batch_refuses_what_classify_rejects(self):
        ts = TaskSet(
            [
                Task("a", cost=1, period=10, priority=1),
                Task("b", cost=2, period=20, priority=1),
            ]
        )
        with pytest.raises(ValueError, match="classify"):
            simulate_batch([ts], [100])

    def test_simulate_batch_refuses_opaque_faults_and_system_allowance(self):
        ts = self.clean()

        class MeteredFaults:
            def demand(self, task_name, job, base_cost):
                return base_cost

        with pytest.raises(ValueError, match="classify"):
            simulate_batch([ts], [100], faults=[MeteredFaults()])
        plan = plan_treatment(ts, TreatmentKind.SYSTEM_ALLOWANCE)
        with pytest.raises(ValueError, match="classify"):
            simulate_batch([ts], [100], plans=[plan])


class TestTrivialFaults:
    """Horizon-aware triviality of FaultInjector schedules (ISSUE 9
    satellite): deviations aimed past the sweep horizon are inert."""

    def taskset(self) -> TaskSet:
        return TaskSet(
            [
                Task("a", cost=1, period=10, priority=2),
                Task("b", cost=2, period=20, offset=5, priority=1),
            ]
        )

    def test_beyond_horizon_deviations_are_trivial(self):
        # a#12 releases at 120, b#6 at 125 — both after horizon 100.
        faults = FaultInjector(
            [CostOverrun("a", 12, 5), CostOverrun("b", 6, 5)]
        )
        assert _trivial_faults(faults, self.taskset(), 100)
        assert classify(self.taskset(), faults=faults, horizon=100) is None

    def test_in_horizon_deviation_is_not_trivial(self):
        faults = FaultInjector([CostOverrun("a", 12, 5)])
        assert not _trivial_faults(faults, self.taskset(), 120)

    def test_unknown_task_deviation_is_trivial(self):
        faults = FaultInjector([CostOverrun("ghost", 0, 5)])
        assert _trivial_faults(faults, self.taskset(), 100)

    def test_without_horizon_stays_conservative(self):
        faults = FaultInjector([CostOverrun("a", 12, 5)])
        assert not _trivial_faults(faults)
        assert not _trivial_faults(faults, self.taskset(), None)


class TestValidation:
    def test_length_mismatch(self):
        ts = TaskSet([Task("t", cost=1, period=10, priority=1)])
        with pytest.raises(ValueError, match="one horizon per system"):
            simulate_batch([ts], [100, 200])

    def test_faults_plans_mismatch(self):
        ts = TaskSet([Task("t", cost=1, period=10, priority=1)])
        with pytest.raises(ValueError, match="align"):
            simulate_batch([ts], [100], faults=[None, None])
        with pytest.raises(ValueError, match="align"):
            simulate_batch([ts], [100], plans=[])

    def test_nonpositive_horizon(self):
        ts = TaskSet([Task("t", cost=1, period=10, priority=1)])
        with pytest.raises(ValueError, match="horizon"):
            simulate_batch([ts], [0])

    def test_empty_batch(self):
        assert simulate_batch([], []) == []

    @pytest.mark.parametrize("treatment", [None, TreatmentKind.IMMEDIATE_STOP])
    def test_horizon_at_the_limit_matches_exact(self, treatment):
        """At HORIZON_LIMIT the stepper still equals the exact engine,
        also in a batch whose keys need several int64 slabs, with a
        job overrunning into its detector and one unfinished at the
        horizon."""
        h = HORIZON_LIMIT
        ts = TaskSet(
            [
                Task("hi", cost=3, period=h // 2, deadline=h // 4, priority=2),
                Task("lo", cost=h // 3, period=h // 2 + 1, deadline=h // 2, offset=5, priority=1),
            ]
        )
        faults = FaultInjector([CostOverrun("lo", 1, h // 3)])
        assert classify(ts, faults=faults, treatment=treatment, horizon=h) is None
        b = assert_parity(ts, h, faults, treatment)
        assert any(r[3] == -1 for r in b.records)
        assert b.stopped == (treatment is not None)
        plan = plan_treatment(ts, treatment) if treatment is not None else None
        batch = simulate_batch([ts] * 7, [h] * 7, faults=[faults] * 7, plans=[plan] * 7)
        assert all(other == b for other in batch)

    @pytest.mark.parametrize("horizon", [HORIZON_LIMIT + 1, 2**62 + 5])
    def test_horizon_beyond_the_limit_is_refused(self, horizon):
        ts = TaskSet(
            [
                Task("a", cost=1, period=10, priority=2),
                Task("b", cost=1, period=15, priority=1),
            ]
        )
        assert classify(ts, horizon=horizon) == "horizon-beyond-int64"
        with pytest.raises(ValueError, match=f"horizon {horizon} exceeds") as err:
            simulate_batch([ts], [horizon])
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "cost,faults",
        [
            (2**63, None),
            (2**63 - 5, RandomFaults(rate=1.0, max_extra=100, seed=3)),
            (2**63, FaultInjector([CostOverrun("a", 0, 100)])),
        ],
        ids=["cost", "random-extra", "injected-extra"],
    )
    def test_demand_beyond_the_limit_takes_the_exact_engine(self, cost, faults):
        """A demand past int64 used to raise OverflowError or wrap into
        a negative finish instant; it is routed to the exact engine,
        and the stepper called directly refuses it on one line."""
        ts = TaskSet([Task("a", cost=cost, period=2**64, deadline=2**64, priority=1)])
        assert classify(ts, faults=faults, horizon=100) == "demand-beyond-int64"
        ((routed, _),) = _exact_fallback([(ts, 100, faults, None)])
        assert routed.records == exact_records(ts, 100, faults) == (
            ("a", 0, 0, -1, False, False, False),
        )
        with pytest.raises(ValueError, match="task 'a': cost plus largest") as err:
            simulate_batch([ts], [100], faults=[faults])
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "cost,faults",
        [
            (HORIZON_LIMIT - 1, None),
            (HORIZON_LIMIT - 101, RandomFaults(rate=1.0, max_extra=100, seed=3)),
            (HORIZON_LIMIT - 101, FaultInjector([CostOverrun("a", 0, 100)])),
        ],
        ids=["cost", "random-extra", "injected-extra"],
    )
    def test_demand_one_below_the_limit_matches_exact(self, cost, faults):
        """Cost plus largest extra at HORIZON_LIMIT - 1 stays on the
        stepper and completes at its demand, as on the exact engine."""
        ts = TaskSet([Task("a", cost=cost, period=2**64, deadline=2**64, priority=1)])
        assert classify(ts, faults=faults, horizon=HORIZON_LIMIT) is None
        b = assert_parity(ts, HORIZON_LIMIT, faults)
        ((_, _, _, finished, *_),) = b.records
        assert cost <= finished < HORIZON_LIMIT
