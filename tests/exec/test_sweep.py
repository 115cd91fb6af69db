"""Sweep layer contracts: frozen identity, chunking, route parity.

The promises under test, in the order a sweep makes them:

* a :class:`SweepSpec` has a stable content hash that moves exactly
  when the definition moves;
* expansion into chunk specs is deterministic and the chunk size never
  changes which *points* come out (only how they are grouped);
* serial, pooled, batched and exact runs of the same sweep agree point
  for point and manifest fingerprint for manifest fingerprint;
* a re-run against the same cache recomputes nothing.
"""

import dataclasses

import pytest

from repro.exec.cache import ResultCache
from repro.exec.executor import LocalExecutor, PoolExecutor
from repro.exec.sweep import (
    SweepSpec,
    build_chunk,
    chunk_specs,
    run_sweep,
    summarize_cells,
)


def small_sweep(**overrides) -> SweepSpec:
    kwargs = dict(
        name="unit-sweep",
        axes={"utilization": (0.5, 0.9), "n": (2, 3)},
        replicates=6,
        base_seed=404,
        deadline_factor=0.9,
        period_lo=50,
        period_hi=5_000,
        period_granularity=10,
        horizon_periods=2,
        chunk_size=5,
    )
    kwargs.update(overrides)
    return SweepSpec.make(**kwargs)


class TestSweepSpec:
    def test_hash_is_stable_across_instances(self):
        assert small_sweep().sweep_hash() == small_sweep().sweep_hash()

    def test_hash_moves_with_the_definition(self):
        base = small_sweep().sweep_hash()
        assert small_sweep(base_seed=405).sweep_hash() != base
        assert small_sweep(replicates=7).sweep_hash() != base
        assert small_sweep(axes={"utilization": (0.5,)}).sweep_hash() != base

    def test_round_trips_through_params(self):
        sweep = small_sweep()
        assert SweepSpec.from_params(sweep.to_params().items()) == sweep

    def test_cells_follow_axis_declaration_order(self):
        sweep = small_sweep()
        assert sweep.cells[0] == (("utilization", 0.5), ("n", 2))
        assert sweep.cells[-1] == (("utilization", 0.9), ("n", 3))
        assert sweep.total_points == 4 * 6

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"name": ""}, "name"),
            ({"axes": {"bogus": (1,)}}, "unknown sweep axis"),
            ({"axes": {"n": ()}}, "at least one value"),
            ({"replicates": 0}, "replicates"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"horizon_periods": 0}, "horizon_periods"),
        ],
    )
    def test_validation(self, kwargs, match):
        base = dict(name="s", axes={"n": (2,)})
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            SweepSpec.make(**base)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"treatment": "bogus", "feasible_only": True}, "treatment='bogus': unknown treatment"),
            ({"axes": {"treatment": ("skip-job", "bogus")}, "feasible_only": True}, "treatment='bogus'"),
            ({"fault_rate": 1.5}, r"fault_rate=1\.5: must be in \[0, 1\]"),
            ({"axes": {"fault_rate": (0.2, -0.1)}}, r"fault_rate=-0\.1"),
            ({"axes": {"utilization": (0.5, 1.5)}}, r"utilization=1\.5: utilization must be"),
            ({"axes": {"n": (3, 0)}}, "n=0: n must be >= 1"),
            ({"axes": {"deadline_factor": (0,)}}, "deadline_factor=0: deadline factor"),
            ({"axes": {"n": ("three",)}}, "n='three'"),
            ({"treatment": "immediate-stop"}, "treatment needs feasible_only=True"),
            ({"axes": {"treatment": (None, "detect-only")}}, "treatment needs feasible_only=True"),
            ({"period_lo": 0}, "period_lo=0, .*need 0 < period_lo <= period_hi"),
            ({"period_lo": 500, "period_hi": 400}, "period_lo=500, period_hi=400, .*need 0 <"),
            ({"period_granularity": 0}, "period_granularity=0: period granularity must be"),
            ({"period_hi": "big"}, "period_hi='big'"),
        ],
    )
    def test_bad_values_fail_fast_on_one_line(self, kwargs, match):
        """Rejected at construction — before any chunk runs — with a
        one-line message naming the field."""
        base = dict(name="s", axes={"n": (2,)})
        base.update(kwargs)
        with pytest.raises(ValueError, match=match) as err:
            SweepSpec.make(**base)
        assert "\n" not in str(err.value)

    def test_swept_axis_overrides_a_bad_default(self):
        """Only values a point can take are checked: a swept axis makes
        the field default irrelevant."""
        SweepSpec.make(name="s", axes={"treatment": (None,)}, treatment="immediate-stop")
        SweepSpec.make(name="s", axes={"utilization": (0.5,)}, utilization=2.0)

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(name="s", axes=(("n", (2,)), ("n", (3,))))


class TestChunking:
    def test_chunk_specs_cover_the_sweep_exactly(self):
        sweep = small_sweep()  # 24 points, chunk 5 -> 5 chunks
        specs = chunk_specs(sweep)
        assert len(specs) == 5
        spans = [(s.param("start"), s.param("count")) for s in specs]
        assert spans == [(0, 5), (5, 5), (10, 5), (15, 5), (20, 4)]
        assert all(s.builder == "sweep.chunk" for s in specs)

    def test_chunk_size_does_not_change_the_points(self):
        """Same sweep, different chunking: the manifest differs (it
        covers the chunk structure) but every point is identical."""
        a = run_sweep(small_sweep(chunk_size=5), executor=LocalExecutor())
        b = run_sweep(small_sweep(chunk_size=24), executor=LocalExecutor())
        assert a.points == b.points

    def test_points_are_ordinal_ordered(self):
        result = run_sweep(small_sweep(), executor=LocalExecutor())
        assert [p.ordinal for p in result.points] == list(range(24))


class TestRouteParity:
    def test_serial_pool_and_stepper_agree(self):
        sweep = small_sweep()
        serial = run_sweep(sweep, executor=LocalExecutor())
        pooled = run_sweep(sweep, executor=PoolExecutor(2))
        exact = run_sweep(sweep, executor=LocalExecutor(), stepper="exact")
        assert serial.points == pooled.points == exact.points
        assert (
            serial.fingerprint() == pooled.fingerprint() == exact.fingerprint()
        )

    def test_counters_match_between_steppers(self):
        """The stepper's array-side counters equal the record-side
        summary — including on a hot cell that actually misses."""
        sweep = small_sweep(axes={"utilization": (0.98,)}, replicates=12, n=4)
        batched = run_sweep(sweep, executor=LocalExecutor()).points
        exact = run_sweep(sweep, executor=LocalExecutor(), stepper="exact").points
        assert batched == exact
        assert sum(p.misses for p in batched) > 0

    def test_unknown_stepper_rejected(self):
        (spec,) = chunk_specs(small_sweep(chunk_size=24))
        with pytest.raises(ValueError, match="stepper"):
            build_chunk(spec, stepper="quantum")


class TestResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        sweep = small_sweep()
        first = LocalExecutor(ResultCache(tmp_path))
        cold = run_sweep(sweep, executor=first)
        second = LocalExecutor(ResultCache(tmp_path))
        warm = run_sweep(sweep, executor=second)
        assert second.stats.cache_hits == len(chunk_specs(sweep))
        assert second.stats.computed == 0
        assert warm.points == cold.points
        assert warm.fingerprint() == cold.fingerprint()

    def test_partial_cache_recomputes_only_missing_chunks(self, tmp_path):
        sweep = small_sweep()
        specs = chunk_specs(sweep)
        # Warm the cache with the first three chunks only.
        LocalExecutor(ResultCache(tmp_path)).run(specs[:3], build_chunk)
        ex = LocalExecutor(ResultCache(tmp_path))
        result = run_sweep(sweep, executor=ex)
        assert ex.stats.cache_hits == 3
        assert ex.stats.computed == len(specs) - 3
        assert len(result.points) == sweep.total_points

    def test_definition_change_misses_the_cache(self, tmp_path):
        LocalExecutor(ResultCache(tmp_path)).run(
            chunk_specs(small_sweep()), build_chunk
        )
        ex = LocalExecutor(ResultCache(tmp_path))
        run_sweep(small_sweep(base_seed=405), executor=ex)
        assert ex.stats.cache_hits == 0


class TestSummaries:
    def test_summarize_cells_one_line_per_cell(self):
        result = run_sweep(small_sweep(), executor=LocalExecutor())
        lines = summarize_cells(result.points)
        assert len(lines) == 4
        assert all("systems=6" in line for line in lines)

    def test_feasible_only_sweep_reports_full_feasibility(self):
        sweep = small_sweep(
            axes={"utilization": (0.6,)}, replicates=8, feasible_only=True
        )
        result = run_sweep(sweep, executor=LocalExecutor())
        assert all(p.analysis_feasible for p in result.points)

    def test_fault_sweep_points_are_eligible_and_stepper_independent(self):
        """Fault cells vectorize now (ISSUE 9): every point is
        classifier-eligible and the batched and exact routes agree
        point for point and fingerprint for fingerprint."""
        sweep = small_sweep(
            axes={"fault_rate": (0.0, 0.5)}, replicates=4, fault_scale=1.0, horizon_periods=2
        )
        batched = run_sweep(sweep, executor=LocalExecutor())
        exact = run_sweep(sweep, executor=LocalExecutor(), stepper="exact")
        assert all(p.eligible for p in batched.points)
        assert batched.points == exact.points
        assert batched.fingerprint() == exact.fingerprint()
        faulted = [p for p in batched.points if dict(p.cell)["fault_rate"] == 0.5]
        assert sum(p.misses for p in faulted) > 0

    def test_treated_fault_sweep_routes_batched_with_parity(self):
        """The paper's core workload — faults + stopping treatment —
        through both routes: identical points, and the treatment
        actually stops jobs somewhere in the grid."""
        sweep = small_sweep(
            axes={
                "fault_rate": (0.4,),
                "treatment": ("immediate-stop", "equitable-allowance", "detect-only"),
            },
            replicates=4,
            fault_scale=1.0,
            horizon_periods=2,
            feasible_only=True,
            utilization=0.6,
            n=3,
        )
        batched = run_sweep(sweep, executor=LocalExecutor())
        exact = run_sweep(sweep, executor=LocalExecutor(), stepper="exact")
        assert all(p.eligible for p in batched.points)
        assert batched.points == exact.points
        assert batched.fingerprint() == exact.fingerprint()
        assert sum(p.detections for p in batched.points) > 0


def treated_sweep(**overrides) -> SweepSpec:
    """Faults under every batched treatment, on feasible systems."""
    kwargs = dict(
        axes={
            "fault_rate": (0.4,),
            "treatment": ("immediate-stop", "equitable-allowance", "detect-only", "no-detection"),
        },
        replicates=4,
        fault_scale=1.0,
        feasible_only=True,
        utilization=0.6,
        n=3,
    )
    kwargs.update(overrides)
    return small_sweep(**kwargs)


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so calls are counted; returns the counter."""
    calls = {"n": 0}
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOneDecisionPerPoint:
    """Admission, planning and the record's analysis run once per point
    whatever the stepper — the exact engine reuses the chunk's plan."""

    @pytest.mark.parametrize("stepper", ["batched", "exact", "verify"])
    def test_one_plan_per_treated_point(self, monkeypatch, stepper):
        import repro.exec.sweep as sweep_mod
        import repro.sim.simulation as simulation

        planned = _counting(monkeypatch, sweep_mod, "plan_treatment")

        def no_replan(*args, **kwargs):
            raise AssertionError("simulate() planned a sweep point again")

        monkeypatch.setattr(simulation, "plan_treatment", no_replan)
        sweep = treated_sweep()
        run_sweep(sweep, executor=LocalExecutor(), stepper=stepper)
        assert planned["n"] == sweep.total_points

    def test_untreated_points_are_not_planned(self, monkeypatch):
        import repro.exec.sweep as sweep_mod

        planned = _counting(monkeypatch, sweep_mod, "plan_treatment")
        run_sweep(small_sweep(), executor=LocalExecutor(), stepper="exact")
        assert planned["n"] == 0

    def test_feasible_only_sweep_reuses_the_filter_verdict(self, monkeypatch):
        import repro.exec.sweep as sweep_mod

        analysed = _counting(monkeypatch, sweep_mod, "is_feasible")
        result = run_sweep(treated_sweep(), executor=LocalExecutor())
        assert analysed["n"] == 0
        assert all(p.analysis_feasible for p in result.points)

    def test_unfiltered_sweep_analyses_each_point_once(self, monkeypatch):
        import repro.exec.sweep as sweep_mod

        analysed = _counting(monkeypatch, sweep_mod, "is_feasible")
        sweep = small_sweep()
        run_sweep(sweep, executor=LocalExecutor())
        assert analysed["n"] == sweep.total_points

    def test_no_detection_equals_the_untreated_run(self):
        """NO_DETECTION passes admission and installs nothing: its
        points match the untreated sweep's on every stepper."""
        untreated = treated_sweep(axes={"fault_rate": (0.4,)})
        base = run_sweep(untreated, executor=LocalExecutor()).points
        for stepper in ("batched", "exact"):
            treated = run_sweep(
                treated_sweep(axes={"fault_rate": (0.4,), "treatment": ("no-detection",)}),
                executor=LocalExecutor(),
                stepper=stepper,
            ).points
            assert [dataclasses.replace(p, cell=()) for p in treated] == [
                dataclasses.replace(p, cell=()) for p in base
            ]


def _bundle_kinds(executor) -> list[str]:
    from repro.obs.flight import load_bundle

    return [load_bundle(path)["kind"] for path in executor.telemetry.flight_bundles]


class TestVerifyStepper:
    """``--stepper verify``: batched points, plus an exact re-run of
    every vectorized point that bundles any fingerprint mismatch."""

    def _executor(self, tmp_path):
        from repro.obs.runtime import WorkerObs

        return LocalExecutor(worker_obs=WorkerObs(telemetry=True, flight_dir=str(tmp_path)))

    def test_verify_equals_batched_with_zero_divergence_bundles(self, tmp_path):
        sweep = treated_sweep()
        batched = run_sweep(sweep, executor=LocalExecutor())
        executor = self._executor(tmp_path)
        verified = run_sweep(sweep, executor=executor, stepper="verify")
        assert verified.points == batched.points
        assert verified.fingerprint() == batched.fingerprint()
        assert sum(p.stopped for p in verified.points) > 0
        assert "stepper-divergence" not in _bundle_kinds(executor)

    def test_a_diverging_record_writes_exactly_one_bundle(self, tmp_path, monkeypatch):
        import repro.exec.sweep as sweep_mod

        original = sweep_mod.simulate_batch
        tampered = {"done": False}

        def diverging(*args, **kwargs):
            results = original(*args, **kwargs)
            if not tampered["done"]:
                tampered["done"] = True
                first = results[0]
                results[0] = dataclasses.replace(first, records=first.records[:-1])
            return results

        monkeypatch.setattr(sweep_mod, "simulate_batch", diverging)
        executor = self._executor(tmp_path)
        run_sweep(treated_sweep(), executor=executor, stepper="verify")
        assert _bundle_kinds(executor).count("stepper-divergence") == 1


class TestWeaklyHardRoutes:
    """``SweepSpec.mk`` with the treatments the stepper does not model:
    every point takes the exact route under the chunk's single plan,
    and the fallback counters name why."""

    TREATMENTS = ("skip-job", "degrade", "miss-budget", "system-allowance")

    def _sweep(self) -> SweepSpec:
        return treated_sweep(
            axes={"fault_rate": (0.4,), "treatment": self.TREATMENTS},
            replicates=3,
            mk=(1, 3),
            utilization=0.8,
        )

    def test_steppers_agree_and_every_point_falls_back(self):
        from repro.obs.runtime import WorkerObs

        sweep = self._sweep()
        executor = LocalExecutor(worker_obs=WorkerObs(telemetry=True))
        batched = run_sweep(sweep, executor=executor)
        exact = run_sweep(sweep, executor=LocalExecutor(), stepper="exact")
        verify = run_sweep(sweep, executor=LocalExecutor(), stepper="verify")
        assert batched.points == exact.points == verify.points
        assert batched.fingerprint() == exact.fingerprint() == verify.fingerprint()
        assert not any(p.eligible for p in batched.points)
        counters = executor.telemetry.counter_map()
        per_kind = sweep.replicates
        assert counters["sweep_points_exact_total"] == sweep.total_points
        assert counters.get("sweep_points_batched_total", 0) == 0
        assert counters["sweep_fallback_total{reason=weakly-hard-treatment}"] == 3 * per_kind
        assert counters["sweep_fallback_total{reason=system-allowance}"] == per_kind
        assert sum(p.misses + p.stopped for p in batched.points) > 0
