"""The span recorder's arithmetic and the per-layer report's names."""

import json
import re
from pathlib import Path

import pytest

import run
from tracing import LAYERS, PER_LAYER, SpanRecorder, instrument, layer_report, self_times
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _nested_calls(clock_values):
    """exec.chunk( core.plan( core.analysis() ), sim.step() ) under a
    clock that returns *clock_values* in call order."""
    ticks = iter(clock_values)
    rec = SpanRecorder(clock=lambda: next(ticks))
    leaf = rec.wrap("core.analysis", lambda: None)
    plan = rec.wrap("core.plan", lambda: leaf())
    step = rec.wrap("sim.step", lambda: [], attrs=lambda a, k, r: {"systems": 0, "jobs": 0})

    def chunk():
        plan()
        step()
        return type("Chunk", (), {"points": (1, 2)})()

    rec.wrap("exec.chunk", chunk, attrs=lambda a, k, r: {"systems": len(r.points)})()
    return rec


def test_self_time_subtracts_direct_children():
    # chunk 0..100, plan 10..40, analysis 20..30, step 50..90
    rec = _nested_calls([0, 10, 20, 30, 40, 50, 90, 100])
    assert [s.name for s in rec.spans] == ["exec.chunk", "core.plan", "core.analysis", "sim.step"]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == [30, 20, 10, 40]


def test_layer_self_times_and_unattributed_add_up_to_wall():
    rec = _nested_calls([0, 10, 20, 30, 40, 50, 90, 100])
    report = layer_report(rec.spans, wall_ns=120)
    assert report["exec.self_s"] == pytest.approx(30e-9)
    assert report["core.self_s"] == pytest.approx(30e-9)
    assert report["sim.self_s"] == pytest.approx(40e-9)
    assert report["exec.unattributed_s"] == pytest.approx(20e-9)
    total = sum(report[f"{layer}.self_s"] for layer in LAYERS) + report["exec.unattributed_s"]
    assert total == pytest.approx(report["bench.traced_wall_s"])
    assert report["core.plan_s"] == pytest.approx(30e-9)  # inclusive of its child
    assert report["core.analyses_per_system"] == 1.0  # (1 analysis + 1 plan) / 2 systems


def test_instrument_restores_the_original_functions():
    import repro.exec.sweep as sweep

    before = sweep.plan_treatment
    with instrument(SpanRecorder()):
        assert sweep.plan_treatment is not before
    assert sweep.plan_treatment is before


def test_traced_sweep_pass_adds_up_to_its_wall(small_sweep):
    wl = small_sweep("fault-sweep", 77, replicates=20, prefix=2)
    rec = SpanRecorder()
    with instrument(rec):
        t0 = rec.clock()
        wl.run_pass(rec)
        wall_ns = rec.clock() - t0
    report = layer_report(rec.spans, wall_ns)
    total = sum(report[f"{layer}.self_s"] for layer in LAYERS) + report["exec.unattributed_s"]
    assert total == pytest.approx(report["bench.traced_wall_s"], rel=1e-9)
    assert report["bench.systems"] == 80
    assert report["sim.batched_share"] == 1.0
    assert report["core.plan.calls"] == 80


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    for name, _unit in run.END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_report_produces_every_per_layer_metric():
    rec = _nested_calls([0, 10, 20, 30, 40, 50, 90, 100])
    produced = set(layer_report(rec.spans, wall_ns=120)) | {"bench.trace_overhead"}
    assert produced == {name for name, _ in PER_LAYER}
