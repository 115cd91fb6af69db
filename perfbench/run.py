"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fault-sweep --seed 77 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (several fresh processes importing the workload's entry modules
and building its specs), then one untimed warm-up pass and timed passes
of identical inputs for ``--seconds``.  A fixed calibration task runs
before every set-up probe (:func:`calibrate_startup`) and timed pass
(:func:`calibrate`) and after the last, and times are reported scaled
to the reference host's speed: on a shared host the speed of the CPU itself drifts for minutes
at a time, and the scaling takes that drift out (see
``perfbench/README.md``).
``--trace 1`` alternates untraced and traced passes instead and reports
the per-layer metrics of :mod:`tracing`.  Either way every pass is
checked for correct output outside the timed region, and the last line
of standard output is one JSON object::

    {"correct": true, "attempted": 12000, "failed": 0, "metrics": {...}}

A record with the host fingerprint, the revision, the seed and the raw
per-pass samples behind every reported number is written under
``perfbench/_runs/`` (with ``--trace 1``, also the raw spans of the
reported traced pass).  A run whose checks fail exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import workloads
from tracing import PER_LAYER, SpanRecorder, instrument, layer_report, seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

#: End-to-end metrics (tracing off), with units.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("systems_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "share"),
)

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 7
#: Timed passes run even when ``--seconds`` is already used up.
MIN_PASSES = 3
#: Seconds :func:`calibrate` and :func:`calibrate_startup` take on the
#: reference host (the one the README's numbers come from) at its
#: fastest, when its other tenants are quiet.
REFERENCE_CALIBRATION_S = 0.25
REFERENCE_STARTUP_S = 0.1


class Tally:
    """Operations checked and operations that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def _timed(fn: Callable[..., Any], *args: Any) -> tuple[int, float, Any]:
    """(wall ns, CPU s, result) of one call; garbage from the previous
    pass is collected first so it is not charged to this one."""
    gc.collect()
    c0 = time.process_time()  # noqa: RT002 - host-side benchmark timing, not simulated time
    t0 = time.perf_counter_ns()  # noqa: RT002 - host-side benchmark timing, not simulated time
    out = fn(*args)
    wall = time.perf_counter_ns() - t0  # noqa: RT002 - host-side benchmark timing, not simulated time
    return wall, time.process_time() - c0, out  # noqa: RT002 - host-side benchmark timing, not simulated time


def calibrate() -> float:
    """Seconds a fixed task takes on this host right now: a CPython dict
    loop, a numpy loop over a small array and one over a 1 MiB array,
    the kinds of work the program mixes, twice each and interleaved."""
    import numpy as np

    t0 = time.perf_counter()  # noqa: RT002 - host-side benchmark timing, not simulated time
    for _ in range(2):
        counts: dict[int, int] = {}
        for i in range(200_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i % 7
        small = np.random.default_rng(1).random(4096)
        for _ in range(750):
            small = np.where(np.cumsum(small) > 10, small * 0.5, small + 0.1)
            np.argsort(small[:256])
        large = np.random.default_rng(1).random(1 << 17)
        for _ in range(100):
            large = np.where(np.cumsum(large) > 1000, large * 0.5, large + 0.1)
    return time.perf_counter() - t0  # noqa: RT002 - host-side benchmark timing, not simulated time


def calibrate_startup() -> float:
    """Seconds a fresh interpreter takes on this host right now to start
    and import numpy: the kind of work a set-up probe does."""
    t0 = time.perf_counter()  # noqa: RT002 - host-side benchmark timing, not simulated time
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdin=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0  # noqa: RT002 - host-side benchmark timing, not simulated time


def at_reference_speed(host_s: list[float], calibration_s: list[float], reference_s: float) -> list[float]:
    """The times *host_s*, each scaled to the reference host's speed by
    the mean of the calibrations just before and after it
    (``calibration_s`` holds one more entry than *host_s*), which take
    *reference_s* there."""
    return [
        t * reference_s / ((a + b) / 2)
        for t, a, b in zip(host_s, calibration_s[:-1], calibration_s[1:], strict=True)
    ]


def trimmed_mean(values: list[float]) -> float:
    """Mean of three or more *values* without the smallest and the
    largest (the median of three)."""
    return statistics.fmean(sorted(values)[1:-1])


# -- set-up ---------------------------------------------------------------------
def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has set the
    workload up (``--probe`` mode prints ``ready`` at that point)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()  # noqa: RT002 - host-side benchmark timing, not simulated time
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as child:
        assert child.stdout is not None
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0  # noqa: RT002 - host-side benchmark timing, not simulated time
        child.communicate(timeout=120)
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {child.returncode})")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[float, dict]:
    """``setup_s``, the median set-up time of fresh processes at the
    reference host's speed, calibrated by fresh processes too:
    (setup_s, samples)."""
    probes: list[float] = []
    cals = [calibrate_startup()]
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(workload, seed))
        cals.append(calibrate_startup())
    return statistics.median(at_reference_speed(probes, cals, REFERENCE_STARTUP_S)), {"setup_s": probes, "setup_calibration_s": cals}


# -- provenance -----------------------------------------------------------------
def host_fingerprint() -> dict[str, Any]:
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` directly; ``unknown``
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- runs -----------------------------------------------------------------------
def run_timed(wl: Any, budget_s: float, tally: Tally) -> tuple[dict, dict]:
    """Warm-up pass, then timed passes for *budget_s*, with a calibration
    before each and after the last: (metrics, samples).  ``wall_s`` is
    the mean pass time at the reference host's speed, without the
    fastest and the slowest pass; a pass is not started when it would
    end after *budget_s*."""
    tally.add(wl.check(wl.run_pass()))
    walls: list[float] = []
    cpus: list[float] = []
    cals = [calibrate()]
    start = time.perf_counter()  # noqa: RT002 - host-side benchmark timing, not simulated time
    while len(walls) < MIN_PASSES or (
        time.perf_counter() - start + walls[-1] + cals[-1] < budget_s  # noqa: RT002 - host-side benchmark timing, not simulated time
    ):
        wall_ns, cpu_s, out = _timed(wl.run_pass)
        walls.append(seconds(wall_ns))
        cpus.append(cpu_s)
        cals.append(calibrate())
        tally.add(wl.check(out))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_s = trimmed_mean(at_reference_speed(walls, cals, REFERENCE_CALIBRATION_S))
    metrics = {
        "wall_s": wall_s,
        "systems_per_s": wl.size / wall_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    return metrics, {"wall_s": walls, "cpu_s": cpus, "calibration_s": cals}


def run_traced(wl: Any, budget_s: float, tally: Tally) -> tuple[dict, dict, list]:
    """Warm-up pass, then untraced and traced passes in turn for
    *budget_s*: (per-layer metrics, samples, raw spans).  The metrics and
    spans are those of the fastest traced pass, whole, so its layer self
    times and unattributed time still add up to its wall."""
    tally.add(wl.check(wl.run_pass()))
    plain: list[float] = []
    traced: list[float] = []
    reports: list[dict[str, float]] = []
    spans: list[list] = []
    deadline = time.perf_counter() + budget_s  # noqa: RT002 - host-side benchmark timing, not simulated time
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:  # noqa: RT002 - host-side benchmark timing, not simulated time
        wall_ns, _, out = _timed(wl.run_pass)
        plain.append(seconds(wall_ns))
        tally.add(wl.check(out))
        recorder = SpanRecorder()
        with instrument(recorder):
            wall_ns, _, out = _timed(wl.run_pass, recorder)
        traced.append(seconds(wall_ns))
        reports.append(layer_report(recorder.spans, wall_ns))
        if traced[-1] == min(traced):
            spans = [s.as_list() for s in recorder.spans]
        tally.add(wl.check(out))
    metrics = dict(reports[traced.index(min(traced))])
    metrics["bench.trace_overhead"] = min(traced) / min(plain) - 1
    samples = {"wall_s": plain, "traced_wall_s": traced, "per_layer": reports}
    return metrics, samples, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not workloads.GOLDEN_MANIFEST.is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Keep the program's own `git rev-parse` (run manifests) inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = RUNS / f"{stem}.work"
    if args.probe:
        workloads.make(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0

    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
    wl = workloads.make(args.workload, args.seed, workdir)
    tally = Tally()
    spans: list[list] = []
    try:
        if args.trace:
            metrics, samples, spans = run_traced(wl, args.seconds, tally)
            units = dict(PER_LAYER)
        else:
            metrics, samples = run_timed(wl, args.seconds, tally)
            metrics["setup_s"] = setup_s
            metrics["passed_share"] = 1 - tally.failed / tally.attempted
            samples.update(setup_samples)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from repro.exec.cache import code_version

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": wl.size,
        "host": host_fingerprint(),
        "git_rev": git_revision(),
        "code_version": code_version(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "samples": samples,
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (RUNS / f"{stem}.spans.json").write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"], "spans": spans})
        )

    host = record["host"]
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, python {host['python']}, "
          f"numpy {host['numpy']}; rev {record['git_rev']}, code {record['code_version']}")
    print(f"record: {(RUNS / f'{stem}.json').relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
