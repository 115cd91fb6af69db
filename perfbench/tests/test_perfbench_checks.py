"""The correctness checks behind ``passed_share`` count corrupted output."""

import copy
import dataclasses
import json

from repro.exec.sweep import PointRecord

import workloads


def _point(index, **changes):
    base = PointRecord(
        ordinal=index, cell=(("fault_rate", 0.2),), index=index, eligible=True,
        analysis_feasible=True, released=10, completed=10, misses=0, stopped=0,
        detections=0, collateral=0, fingerprint=f"{index:08x}",
    )
    return dataclasses.replace(base, **changes)


def test_a_corrupted_point_is_counted():
    points = [_point(i) for i in range(4)]
    expected = {(p.cell, p.index): p for p in points}
    assert workloads.failed_points(points, expected, oracle=False) == 0
    points[2] = dataclasses.replace(points[2], fingerprint="deadbeef")
    assert workloads.failed_points(points, expected, oracle=False) == 1


def test_ordinal_alone_does_not_fail_a_point():
    points = [_point(i) for i in range(3)]
    expected = {(p.cell, p.index): dataclasses.replace(p, ordinal=p.ordinal + 100) for p in points}
    assert workloads.failed_points(points, expected, oracle=False) == 0


def test_oracle_counts_a_feasible_point_that_missed():
    points = [_point(0), _point(1, misses=1), _point(2, analysis_feasible=False, misses=3)]
    assert workloads.failed_points(points, {}, oracle=True) == 1
    assert workloads.failed_points(points, {}, oracle=False) == 0


def test_sweep_check_counts_a_corrupted_point_against_the_exact_prefix(small_sweep):
    wl = small_sweep("nofault-sweep", 78, replicates=6, prefix=3)
    points = wl.run_pass()
    assert wl.check(points) == (30, 0)
    points[1] = dataclasses.replace(points[1], completed=points[1].completed + 1)
    assert wl.check(points) == (30, 1)


def test_a_corrupted_or_missing_exhibit_is_counted():
    golden = json.loads(workloads.GOLDEN_MANIFEST.read_text())
    manifest = copy.deepcopy(golden)
    for exhibit in manifest["exhibits"]:
        exhibit["wall_s"] = 0.5  # volatile: stripped before comparing
    total = len(golden["exhibits"])
    assert workloads.failed_exhibits(manifest, golden) == (total, 0)
    manifest["exhibits"][3]["artifact_sha256"] = "0" * 64
    assert workloads.failed_exhibits(manifest, golden) == (total, 1)
    del manifest["exhibits"][5]
    assert workloads.failed_exhibits(manifest, golden) == (total, 2)
