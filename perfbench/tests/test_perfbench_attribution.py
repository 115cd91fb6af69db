"""An injected slowdown of one entry point shows up in that layer.

A test-only wrapper makes ``simulate_batch`` (the ``sim`` layer's batch
stepper, at the name ``repro.exec.sweep`` binds) 30% slower by
busy-waiting for 0.3x each call's own duration.  Traced passes with and
without it, in turn, must name ``sim`` as the layer whose self time grew
most, by at least half the injected time.  Each side takes each layer's
fastest pass, so a slow spell of a shared host does not decide it.
"""

import time

import repro.exec.sweep as sweep_module

from tracing import LAYERS, SpanRecorder, instrument, layer_report, seconds

SLOWDOWN = 0.3
PASSES = 5


def _slowed(fn, injected):
    def slow(*args, **kwargs):
        t0 = time.perf_counter_ns()  # noqa: RT002 - host-side benchmark timing, not simulated time
        out = fn(*args, **kwargs)
        extra = int((time.perf_counter_ns() - t0) * SLOWDOWN)  # noqa: RT002 - host-side benchmark timing, not simulated time
        until = time.perf_counter_ns() + extra  # noqa: RT002 - host-side benchmark timing, not simulated time
        while time.perf_counter_ns() < until:  # noqa: RT002 - host-side benchmark timing, not simulated time
            pass
        injected[-1] += extra
        return out

    return slow


def _traced_pass(wl):
    rec = SpanRecorder()
    with instrument(rec):
        t0 = rec.clock()
        wl.run_pass(rec)
        wall_ns = rec.clock() - t0
    return layer_report(rec.spans, wall_ns)


def test_thirty_percent_slowdown_is_attributed_to_its_layer(monkeypatch, small_sweep):
    wl = small_sweep("fault-sweep", 77, replicates=100, prefix=1)
    original = sweep_module.simulate_batch
    injected: list[int] = []
    base, slow = [], []
    wl.run_pass()  # warm-up
    for _ in range(PASSES):
        monkeypatch.setattr(sweep_module, "simulate_batch", original)
        base.append(_traced_pass(wl))
        injected.append(0)
        monkeypatch.setattr(sweep_module, "simulate_batch", _slowed(original, injected))
        slow.append(_traced_pass(wl))

    def fastest(reports, layer):
        return min(r[f"{layer}.self_s"] for r in reports)

    growth = {layer: fastest(slow, layer) - fastest(base, layer) for layer in LAYERS}
    assert max(growth, key=growth.get) == "sim", growth
    assert growth["sim"] >= 0.5 * seconds(min(injected)), (growth, injected)  # noqa: RT001 - host seconds
