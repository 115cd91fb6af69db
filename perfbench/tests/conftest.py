"""Make the benchmark's modules and the repro sources importable."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]


@pytest.fixture
def small_sweep():
    """Factory for a benchmark sweep workload cut down to *replicates*
    per cell, with an exact-engine prefix of *prefix* per cell."""
    import workloads

    def make(name, seed, replicates, prefix):
        settings = workloads.SWEEPS[name]
        spec = {**settings["spec"], "replicates": replicates}
        return workloads.SweepWorkload(name, seed, spec=spec, prefix=prefix, oracle=settings["oracle"])

    return make
