"""Unit tests for the fault models (paper §3)."""

import numpy as np
import pytest

from repro.core.faults import (
    CostOverrun,
    CostUnderrun,
    FaultInjector,
    NoFaults,
    RandomFaults,
    job_seeds,
    uniform_extras,
)
from repro.rng import stable_hash


class TestNoFaults:
    def test_identity(self):
        model = NoFaults()
        assert model.demand("t", 0, 100) == 100
        assert model.demand("t", 99, 7) == 7


class TestDeviationValidation:
    def test_overrun_positive(self):
        with pytest.raises(ValueError):
            CostOverrun("t", 0, 0)
        with pytest.raises(ValueError):
            CostOverrun("t", 0, -5)

    def test_underrun_positive(self):
        with pytest.raises(ValueError):
            CostUnderrun("t", 0, 0)

    def test_job_nonnegative(self):
        with pytest.raises(ValueError):
            CostOverrun("t", -1, 5)
        with pytest.raises(ValueError):
            CostUnderrun("t", -1, 5)


class TestFaultInjector:
    def test_targets_only_named_job(self):
        inj = FaultInjector([CostOverrun("a", 2, 10)])
        assert inj.demand("a", 2, 100) == 110
        assert inj.demand("a", 1, 100) == 100
        assert inj.demand("b", 2, 100) == 100

    def test_underrun(self):
        inj = FaultInjector([CostUnderrun("a", 0, 30)])
        assert inj.demand("a", 0, 100) == 70

    def test_accumulation(self):
        inj = FaultInjector([CostOverrun("a", 0, 10), CostOverrun("a", 0, 5)])
        assert inj.demand("a", 0, 100) == 115

    def test_floor_at_one(self):
        inj = FaultInjector([CostUnderrun("a", 0, 1000)])
        assert inj.demand("a", 0, 100) == 1

    def test_add_after_construction(self):
        inj = FaultInjector()
        inj.add(CostOverrun("a", 3, 7))
        assert inj.demand("a", 3, 10) == 17

    def test_deviations_copy(self):
        inj = FaultInjector([CostOverrun("a", 0, 10)])
        devs = inj.deviations
        devs[("a", 0)] = 999
        assert inj.demand("a", 0, 100) == 110


class TestRandomFaults:
    def test_deterministic_for_seed(self):
        a = RandomFaults(rate=0.5, max_extra=100, seed=42)
        b = RandomFaults(rate=0.5, max_extra=100, seed=42)
        demands_a = [a.demand("t", i, 50) for i in range(50)]
        demands_b = [b.demand("t", i, 50) for i in range(50)]
        assert demands_a == demands_b

    def test_repeated_queries_stable(self):
        model = RandomFaults(rate=1.0, max_extra=100, seed=1)
        first = model.demand("t", 3, 50)
        assert model.demand("t", 3, 50) == first

    def test_rate_zero_never_faults(self):
        model = RandomFaults(rate=0.0, max_extra=100, seed=1)
        assert all(model.demand("t", i, 50) == 50 for i in range(100))

    def test_rate_one_always_faults(self):
        model = RandomFaults(rate=1.0, max_extra=100, seed=1)
        assert all(model.demand("t", i, 50) > 50 for i in range(100))

    def test_extra_bounded(self):
        model = RandomFaults(rate=1.0, max_extra=10, seed=3)
        assert all(50 < model.demand("t", i, 50) <= 60 for i in range(100))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="^rate must be"):
            RandomFaults(rate=1.5, max_extra=10)
        with pytest.raises(ValueError, match="^max_extra must be"):
            RandomFaults(rate=0.5, max_extra=0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"rate": -0.1, "max_extra": 10}, "rate"),
            ({"rate": float("nan"), "max_extra": 10}, "rate"),
            ({"rate": float("inf"), "max_extra": 10}, "rate"),
            ({"rate": "0.5", "max_extra": 10}, "rate"),
            ({"rate": True, "max_extra": 10}, "rate"),
            ({"rate": 0.5, "max_extra": -3}, "max_extra"),
            ({"rate": 0.5, "max_extra": 2.5}, "max_extra"),
            ({"rate": 0.5, "max_extra": 10.0}, "max_extra"),
            ({"rate": 0.5, "max_extra": True}, "max_extra"),
            ({"rate": 0.5, "max_extra": 2**62 + 1}, "max_extra"),
            ({"rate": 0.5, "max_extra": 2**70}, "max_extra"),
        ],
    )
    def test_each_bad_field_fails_fast(self, kwargs, field):
        """One-line errors naming the field, at construction — before a
        bad bound can overflow the stepper's int64 demand table or
        fail at the first demand query."""
        with pytest.raises(ValueError, match=f"^{field} must be") as info:
            RandomFaults(**kwargs)
        assert "\n" not in str(info.value)

    def test_bounds_accepted(self):
        RandomFaults(rate=0, max_extra=1)
        RandomFaults(rate=1, max_extra=2**62)

    def test_equal_and_hashable_after_demand(self):
        """Equality is by fields alone: answering a query must not
        change it, and equal models hash equally."""
        a = RandomFaults(rate=0.5, max_extra=10, seed=1)
        b = RandomFaults(rate=0.5, max_extra=10, seed=1)
        a.demand("t", 0, 5)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def _spec_extra(fm: RandomFaults, name: str, job: int) -> int:
    """The documented draw, restated with unbounded Python ints."""
    mask, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix64(z: int) -> int:
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    s = (stable_hash(fm.seed, name) + (2 * job + 1) * gamma) & mask
    if (mix64(s) >> 11) / 2**53 >= fm.rate:
        return 0
    return 1 + mix64((s + gamma) & mask) * fm.max_extra // 2**64


def _vector_extras(fm: RandomFaults, name: str, count: int) -> list[int]:
    extras = uniform_extras(
        job_seeds(fm.seed, name, count),
        np.full(count, fm.rate),
        np.full(count, fm.max_extra, dtype=np.int64),
    )
    assert extras.dtype == np.int64
    return extras.tolist()


class TestVectorDraw:
    """``job_seeds`` + ``uniform_extras`` evaluate the same counter hash
    as ``RandomFaults.demand``: scalar and vector draws are equal."""

    MAXES = sorted(
        {1, 2, 3, 2**32, 2**62}
        | {2**k + d for k in (2, 7, 16, 31, 32, 33, 53, 61) for d in (-1, 1)}
    )

    @pytest.mark.parametrize("max_extra", MAXES)
    @pytest.mark.parametrize("rate", [0.0, 1.0, 0.3])
    def test_scalar_equals_vector(self, rate, max_extra):
        for seed in (0, 7, 2**31 + 5):
            fm = RandomFaults(rate=rate, max_extra=max_extra, seed=seed)
            scalar = [fm.demand("tau_1", j, 100) - 100 for j in range(64)]
            assert scalar == [_spec_extra(fm, "tau_1", j) for j in range(64)]
            assert _vector_extras(fm, "tau_1", 64) == scalar
            assert all(0 <= x <= max_extra for x in scalar)

    def test_unicode_task_name(self):
        fm = RandomFaults(rate=0.5, max_extra=1000, seed=3)
        name = "τ_ünïcode\u2603"
        assert _vector_extras(fm, name, 40) == [
            fm.demand(name, j, 0) for j in range(40)
        ]
        assert _vector_extras(fm, name, 40) != _vector_extras(fm, "tau", 40)

    def test_empty(self):
        assert job_seeds(1, "a", 0).shape == (0,)
        assert _vector_extras(RandomFaults(rate=0.5, max_extra=9), "a", 0) == []

    def test_mixed_rows(self):
        """One call covers segments with different rates and bounds."""
        models = [
            RandomFaults(rate=0.2, max_extra=5, seed=1),
            RandomFaults(rate=0.9, max_extra=2**40 + 3, seed=2),
        ]
        states = np.concatenate([job_seeds(m.seed, "t", 30) for m in models])
        rates = np.repeat([m.rate for m in models], 30)
        maxes = np.repeat(np.array([m.max_extra for m in models], dtype=np.int64), 30)
        assert uniform_extras(states, rates, maxes).tolist() == [
            m.demand("t", j, 0) for m in models for j in range(30)
        ]

    def test_distribution(self):
        """10⁵ draws at rate 0.3 on [1, 1000]: the faulty share is within
        ±0.006 of 0.3 and the mean extra within ±7 of 500.5 (both about
        four standard errors)."""
        fm = RandomFaults(rate=0.3, max_extra=1000, seed=2006)
        extras = np.array(_vector_extras(fm, "tau_1", 100_000))
        faulty = extras[extras > 0]
        assert abs(faulty.size / extras.size - 0.3) < 0.006
        assert abs(faulty.mean() - 500.5) < 7
        assert faulty.min() == 1 and faulty.max() == 1000
