"""The benchmark's workloads: their inputs, one pass, and its checks.

Each workload is built by :func:`make` from the seed alone.  ``make``
performs the workload's set-up: it imports the ``repro`` entry modules
the workload runs through and builds its specs, which is what
``setup_s`` times in a fresh process.  A pass runs through the serial
:class:`~repro.exec.executor.LocalExecutor`; every check runs outside
the timed region.

* ``exhibits`` — all registered exhibits along the path
  ``python -m repro.experiments all`` takes (registry → LocalExecutor →
  build_manifest), with a fresh empty result cache each pass.  One
  operation is one exhibit, checked against the committed golden
  manifest.  The inputs are the paper's fixed systems: the seed is
  recorded but changes nothing.
* ``fault-sweep``, ``nofault-sweep`` — population sweeps seeded by
  ``base_seed``.  One operation is one system, checked against the
  first pass, and for a prefix of every cell against the same sweep
  run through the exact engine (``stepper="exact"``); ``nofault-sweep``
  adds the differential oracle (an analysis-feasible system never
  misses a deadline).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from tracing import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_MANIFEST = ROOT / "tests" / "experiments" / "golden_manifest.json"

#: Sweep workloads: SweepSpec fields, the replicates per cell the exact
#: prefix check re-runs, and whether the no-fault oracle applies.
SWEEPS: Mapping[str, dict[str, Any]] = {
    "fault-sweep": dict(
        spec=dict(
            axes={
                "fault_rate": (0.2, 0.4),
                "treatment": ("immediate-stop", "equitable-allowance"),
            },
            replicates=600, n=3, utilization=0.65, period_lo=50,
            period_hi=5_000, period_granularity=10, horizon_periods=3,
            fault_scale=1.0, feasible_only=True,
        ),
        prefix=25,
        oracle=False,
    ),
    "nofault-sweep": dict(
        spec=dict(
            axes={"utilization": (0.5, 0.6, 0.7, 0.8, 0.9)},
            replicates=500, n=4, deadline_factor=0.9, horizon_periods=6,
        ),
        prefix=20,
        oracle=True,
    ),
}

NAMES = ("exhibits",) + tuple(SWEEPS)


def make(name: str, seed: int, workdir: Path) -> "ExhibitsWorkload | SweepWorkload":
    """Set up workload *name* for *seed*; passes write under *workdir*."""
    if name == "exhibits":
        return ExhibitsWorkload(workdir)
    if name in SWEEPS:
        return SweepWorkload(name, seed, **SWEEPS[name])
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


# -- exhibits -----------------------------------------------------------------
def failed_exhibits(manifest: dict, golden: dict) -> tuple[int, int]:
    """(exhibits checked, exhibits differing from *golden*), comparing
    the volatile-stripped manifest exhibit by exhibit.  An exhibit
    missing on either side counts as failed."""
    from repro.exec.manifest import strip_volatile

    got = {e["name"]: e for e in strip_volatile(manifest)["exhibits"]}
    want = {e["name"]: e for e in golden["exhibits"]}
    names = got.keys() | want.keys()
    return len(names), sum(1 for n in names if got.get(n) != want.get(n))


class ExhibitsWorkload:
    """Every registered exhibit, computed and cached from scratch."""

    def __init__(self, workdir: Path):
        from repro.experiments.registry import all_specs

        self.workdir = workdir
        self.specs = all_specs()
        self.passes = 0
        self._golden: dict | None = None

    @property
    def size(self) -> int:
        return len(self.specs)

    def run_pass(self, recorder: SpanRecorder | None = None) -> dict:
        """One pass; returns its manifest.  With *recorder*, the calls
        the benchmark itself makes into the builders, the cache and the
        manifest are recorded as spans."""
        from repro.exec.cache import ResultCache
        from repro.exec.executor import LocalExecutor
        from repro.exec.manifest import build_manifest
        from repro.experiments.registry import build_exhibit

        self.passes += 1
        cache = ResultCache(self.workdir / f"cache-{self.passes:03d}")
        build, manifest_of = build_exhibit, build_manifest
        if recorder is not None:
            cache.get = recorder.wrap("exec.cache.get", cache.get)  # type: ignore[method-assign]
            cache.put = recorder.wrap("exec.cache.put", cache.put)  # type: ignore[method-assign]
            build = recorder.wrap("experiments.build", build_exhibit)
            manifest_of = recorder.wrap("exec.manifest", build_manifest)
        executor = LocalExecutor(cache)
        manifest, _artifacts = manifest_of(executor.run(self.specs, build), executor=executor)
        return manifest

    def check(self, manifest: dict) -> tuple[int, int]:
        if self._golden is None:
            self._golden = json.loads(GOLDEN_MANIFEST.read_text())
        return failed_exhibits(manifest, self._golden)


# -- sweeps -------------------------------------------------------------------
def _outcome(point: Any) -> Any:
    """A point record without its ordinal (which depends on the number
    of replicates), for comparing runs of different sizes."""
    return dataclasses.replace(point, ordinal=0)


def failed_points(
    points: Sequence[Any],
    expected: Mapping[tuple, Any],
    *,
    oracle: bool,
) -> int:
    """How many of *points* fail a check: a point whose ``(cell,
    index)`` is in *expected* must match that record (ordinal aside),
    and with *oracle* an analysis-feasible point must miss no deadline."""
    failed = 0
    for p in points:
        want = expected.get((p.cell, p.index))
        if (want is not None and _outcome(p) != _outcome(want)) or (
            oracle and p.analysis_feasible and p.misses > 0
        ):
            failed += 1
    return failed


class SweepWorkload:
    """One seeded population sweep, run serially."""

    def __init__(
        self, name: str, seed: int, *, spec: dict[str, Any], prefix: int, oracle: bool
    ):
        from repro.exec.sweep import SweepSpec

        self.sweep = SweepSpec.make(
            name=f"bench-{name}", base_seed=seed, chunk_size=spec["replicates"], **spec
        )
        self.prefix = dataclasses.replace(self.sweep, replicates=prefix, chunk_size=prefix)
        self.oracle = oracle
        self._expected: dict[tuple, Any] | None = None

    @property
    def size(self) -> int:
        return self.sweep.total_points

    def run_pass(self, recorder: SpanRecorder | None = None) -> list:
        """One pass; returns its point records.  The sweep layers are
        traced through :func:`tracing.instrument`, so *recorder* is not
        needed here."""
        from repro.exec.executor import LocalExecutor
        from repro.exec.sweep import run_sweep

        return run_sweep(self.sweep, executor=LocalExecutor()).points

    def check(self, points: list) -> tuple[int, int]:
        """The first call runs the exact-engine prefix and takes *points*
        (the exact records on the prefix) as the reference every later
        pass must reproduce."""
        from repro.exec.executor import LocalExecutor
        from repro.exec.sweep import run_sweep

        if self._expected is None:
            exact = run_sweep(self.prefix, executor=LocalExecutor(), stepper="exact").points
            exact_by_key = {(p.cell, p.index): p for p in exact}
            failed = failed_points(points, exact_by_key, oracle=self.oracle)
            self._expected = {(p.cell, p.index): p for p in points} | exact_by_key
            return len(points), failed
        return len(points), failed_points(points, self._expected, oracle=self.oracle)
