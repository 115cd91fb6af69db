"""Times are scaled to the reference host's speed by their neighbouring
calibrations, so a host that slows down uniformly reads the same."""

import pytest

import run


def test_each_time_is_scaled_by_the_calibrations_around_it():
    ref = 0.25
    # Pass 0 sits between calibrations at reference speed, passes 1 and 2
    # each between one at reference speed and one twice as slow.
    cals = [ref, ref, 2 * ref, ref]
    assert run.at_reference_speed([1.0, 3.0, 3.0], cals, ref) == pytest.approx([1.0, 2.0, 2.0])


def test_a_uniformly_slower_host_reads_the_same():
    times, cals = [1.0, 1.2, 0.9, 1.1], [0.41, 0.39, 0.40, 0.42, 0.38]
    slow = 1.7
    scaled = run.at_reference_speed([t * slow for t in times], [c * slow for c in cals], 0.4)
    assert scaled == pytest.approx(run.at_reference_speed(times, cals, 0.4))


def test_trimmed_mean_drops_the_fastest_and_the_slowest():
    assert run.trimmed_mean([5.0, 1.0, 2.0, 3.0, 100.0]) == pytest.approx(10 / 3)
    assert run.trimmed_mean([3.0, 1.0, 2.0]) == 2.0


def test_calibrations_must_surround_every_time():
    with pytest.raises(ValueError):
        run.at_reference_speed([1.0, 1.0], [0.4, 0.4], 0.4)
