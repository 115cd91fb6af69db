"""Anomaly flight recorder: triggers, bundles, bit-identical replay.

The seeded-anomaly recipe: a sweep over *analytically feasible* systems
(``feasible_only=True``) with a fault axis — ``analysis_feasible``
ignores faults, so injected overruns produce deadline misses on systems
the analysis admitted, and every such point must fire the
``miss-despite-feasible`` trigger with a bundle whose replay reproduces
the exact engine's schedule fingerprint bit for bit.
"""

import json

import pytest

from repro.core.faults import CostOverrun, FaultInjector, RandomFaults
from repro.core.task import Task, TaskSet
from repro.exec.executor import LocalExecutor, PoolExecutor
from repro.exec.sweep import SweepSpec, run_sweep
from repro.obs.cli import main as obs_main
from repro.obs.flight import (
    DEFAULT_RING_CAPACITY,
    AnomalyReport,
    FlightRecorder,
    RingSink,
    load_bundle,
    replay,
)
from repro.obs.runtime import ObsConfig, WorkerObs, activate
from repro.sim.trace import EventKind, TraceEvent


def fault_sweep() -> SweepSpec:
    return SweepSpec.make(
        name="flight-sweep",
        axes={"utilization": (0.7, 0.95)},
        replicates=6,
        base_seed=5,
        n=3,
        period_lo=50,
        period_hi=5_000,
        period_granularity=10,
        horizon_periods=2,
        chunk_size=4,
        fault_rate=0.3,
        feasible_only=True,
    )


def _random_faults_report() -> AnomalyReport:
    return AnomalyReport(
        kind="stepper-divergence",
        detail="unit",
        taskset=TaskSet((Task(name="T1", cost=10, period=50, priority=1),)),
        horizon=100,
        faults=RandomFaults(rate=0.5, max_extra=7, seed=3),
    )


def _event(time: int) -> TraceEvent:
    return TraceEvent(kind=EventKind.RELEASE, time=time, task="T1", job=0)


class TestRingSink:
    def test_bounded(self):
        ring = RingSink(4)
        for i in range(10):
            ring.emit(_event(i))
        tail = ring.tail()
        assert len(tail) == 4
        assert [e.time for e in tail] == [6, 7, 8, 9]

    def test_clear(self):
        ring = RingSink(4)
        ring.emit(_event(1))
        ring.clear()
        assert len(ring) == 0

    def test_default_capacity(self):
        ring = RingSink()
        for i in range(DEFAULT_RING_CAPACITY + 10):
            ring.emit(_event(i))
        assert len(ring) == DEFAULT_RING_CAPACITY


class TestCapture:
    def _report(self) -> AnomalyReport:
        ts = TaskSet(
            (
                Task(name="T1", cost=10, period=50, priority=1),
                Task(name="T2", cost=20, period=100, priority=2),
            )
        )
        return AnomalyReport(
            kind="miss-despite-feasible",
            detail="unit",
            taskset=ts,
            horizon=200,
            faults=FaultInjector([CostOverrun("T1", 0, 5)]),
            treatment=None,
            expected_fingerprint="deadbeef",
            context=(("ordinal", 7),),
        )

    def test_bundle_path_is_deterministic(self, tmp_path):
        a = FlightRecorder(tmp_path / "a").capture(self._report())
        b = FlightRecorder(tmp_path / "b").capture(self._report())
        assert a.name == b.name

    def test_bundle_is_self_contained(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.ring.emit(_event(42))
        path = recorder.capture(self._report())
        doc = load_bundle(path)
        assert doc["kind"] == "miss-despite-feasible"
        assert doc["system"]["horizon"] == 200
        assert doc["system"]["faults"]["kind"] == "injector"
        assert [e["time"] for e in doc["ring_tail"]] == [42]
        assert doc["context"] == {"ordinal": 7}

    def test_unsupported_schema_rejected(self, tmp_path):
        bad = tmp_path / "bundle.json"
        bad.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="schema"):
            load_bundle(bad)

    def test_schema_1_bundle_rejected(self, tmp_path):
        """Schema 1 predates the counter-hash ``RandomFaults`` draw: its
        fault fields would replay a different schedule, so loading it is
        a one-line error rather than a false divergence."""
        report = _random_faults_report()
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**report.bundle(), "schema": 1}))
        with pytest.raises(ValueError, match="unsupported flight bundle schema 1$"):
            load_bundle(old)
        assert obs_main(["replay", str(old)]) == 2

    @pytest.mark.parametrize("max_extra", [2**70, 2.5])
    def test_bad_max_extra_rejected(self, tmp_path, max_extra):
        report = _random_faults_report()
        path = FlightRecorder(tmp_path).capture(report)
        doc = json.loads(path.read_text())
        doc["system"]["faults"]["max_extra"] = max_extra
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^\S+\.json: max_extra must be") as info:
            replay(path)
        assert "\n" not in str(info.value)

    def test_random_faults_round_trip(self, tmp_path):
        report = _random_faults_report()
        doc = load_bundle(FlightRecorder(tmp_path).capture(report))
        assert doc["system"]["faults"] == {
            "kind": "random",
            "rate": 0.5,
            "max_extra": 7,
            "seed": 3,
        }


class TestSeededAnomaly:
    @pytest.mark.parametrize("make_executor", [
        lambda obs: LocalExecutor(worker_obs=obs),
        lambda obs: PoolExecutor(2, worker_obs=obs),
    ])
    def test_sweep_produces_replayable_bundles(self, tmp_path, make_executor):
        executor = make_executor(WorkerObs(telemetry=True, flight_dir=str(tmp_path)))
        result = run_sweep(fault_sweep(), executor=executor)
        anomalous = [
            p for p in result.points if p.analysis_feasible and p.misses > 0
        ]
        assert anomalous, "seeded recipe must produce miss-despite-feasible points"
        bundles = executor.telemetry.flight_bundles
        assert len(bundles) == len(anomalous)
        verdict = replay(bundles[0])
        assert verdict.ok, verdict.describe()
        assert verdict.expected_fingerprint == verdict.replayed_fingerprint
        assert verdict.misses > 0

    def test_replay_detects_divergence(self, tmp_path):
        executor = LocalExecutor(
            worker_obs=WorkerObs(telemetry=True, flight_dir=str(tmp_path))
        )
        run_sweep(fault_sweep(), executor=executor)
        path = executor.telemetry.flight_bundles[0]
        doc = json.loads(open(path).read())
        doc["expected_fingerprint"] = "0" * 8
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        verdict = replay(tampered)
        assert not verdict.ok
        assert "DIVERGED" in verdict.describe()


class TestOracleTrigger:
    def test_oracle_failure_captures_uni_bundle(self, tmp_path):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "oracle_for_flight",
            Path(__file__).parent.parent / "oracle" / "test_sim_vs_analysis.py",
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        recorder = FlightRecorder(tmp_path)
        params = {"seed": 42, "n": 3, "u_ppm": 900_000, "d_ppm": 1_000_000}
        with activate(ObsConfig(flight=recorder)):
            mod._capture_flight("uni", params, "synthetic divergence")
            mod._capture_flight("mp", params, "must be ignored")
        assert len(recorder.bundles) == 1
        verdict = replay(recorder.bundles[0])
        assert verdict.ok, verdict.describe()
