"""Tests of the benchmark's own code: inputs, statistics, checks, tracer
and host-speed adjustment.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

MODELS = ("alexnet", "lstm", "resnet-50")
CATALOGUE = {
    "gradpim": ("gradpim", ("gradpim",)),
    "hmc-hetero": ("hetero-pim", ("cpu", "gpu", "hetero-pim")),
    "neurotrainer": ("neurotrainer", ("neurotrainer",)),
}


# -- inputs -----------------------------------------------------------------
def test_dse_points_repeat_for_a_seed_and_differ_across_seeds():
    first = inputs.dse_points(7, MODELS, CATALOGUE)
    assert first == inputs.dse_points(7, MODELS, CATALOGUE)
    assert first != inputs.dse_points(8, MODELS, CATALOGUE)


def test_dse_points_hold_the_same_work_for_every_seed():
    for seed in range(5):
        points = inputs.dse_points(seed, MODELS, CATALOGUE)
        keys = [inputs.point_key(p) for p in points]
        assert len(set(keys)) == len(keys)
        faulted = [p for p in points if p.get("faults")]
        pll = [p for p in points if p["frequency_scale"] != 1.0]
        assert len(faulted) == len(MODELS) * len(CATALOGUE)
        assert len(pll) == len(MODELS) * inputs.PLL_POINTS_PER_MODEL
        assert len(points) == len(MODELS) * 5 + len(pll) + len(faulted)
        assert {p["steps"] for p in points} == {inputs.SWEEP_STEPS}


def test_serve_stream_repeats_for_a_seed_and_differs_across_seeds():
    first = inputs.serve_stream(3)
    assert first == inputs.serve_stream(3)
    assert first != inputs.serve_stream(4)


def test_serve_stream_mix():
    for seed in range(3):
        stream = inputs.serve_stream(seed)
        distinct = inputs.distinct(stream)
        assert len(stream) == inputs.SERVE_REQUESTS
        assert len(distinct) == inputs.SERVE_HOT + inputs.SERVE_FRESH
        counts = {}
        for request in stream:
            key = inputs.point_key(request)
            counts[key] = counts.get(key, 0) + 1
        once = [k for k, n in counts.items() if n == 1]
        assert len(once) >= inputs.SERVE_FRESH
        assert max(counts.values()) > 10 * min(
            n for n in counts.values() if n > 1
        )


def test_replay_stream_asks_every_point():
    points = [{"model": m, "config": "gpu", "steps": 3} for m in MODELS]
    stream = inputs.replay_stream(1, points)
    n_fresh = inputs.REPLAY_FRESH
    assert len(stream) == inputs.REPLAY_PER_POINT * len(points) + n_fresh
    assert len(inputs.distinct(stream)) == len(points) + n_fresh
    assert stream == inputs.replay_stream(1, points)
    assert stream != inputs.replay_stream(2, points)


# -- statistics -------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    assert checks.tail_percentile(list(range(999)), 0.99) is None
    samples = list(range(1000))
    p99 = checks.tail_percentile(samples, 0.99)
    assert p99 == 989
    assert sum(1 for s in samples if s > p99) == 10
    assert checks.tail_percentile([], 0.5) is None


# -- checks -----------------------------------------------------------------
def test_check_bodies_catches_a_flipped_byte():
    reference = {"a": b'{"x": 1}\n'}
    assert checks.check_bodies([("a", 200, b'{"x": 1}\n')], reference) == []
    damaged = bytearray(reference["a"])
    damaged[5] ^= 0x01
    assert checks.check_bodies([("a", 200, bytes(damaged))], reference)
    assert checks.check_bodies([("a", 500, reference["a"])], reference)
    assert checks.check_bodies([("b", 200, b"")], reference)
    assert checks.check_bodies([], reference)


def test_check_same_bodies():
    assert checks.check_same_bodies([("a", 200, b"1"), ("a", 200, b"1")]) == []
    assert checks.check_same_bodies([("a", 200, b"1"), ("a", 200, b"2")])
    assert checks.check_same_bodies([])


def test_check_same_output_catches_a_changed_summary():
    cold = "==== Table I ====\n1.00\n"
    assert checks.check_same_output("warm", cold, cold) == []
    assert checks.check_same_output("warm", cold, cold.replace("1.00", "1.01"))
    assert checks.check_same_output("warm", "", "")


@pytest.fixture(scope="module")
def result_dict(tmp_path_factory):
    import os

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    from repro import api

    return api.simulate("word2vec", "gpu", 1).result.to_dict()


def test_check_invariants_catches_a_broken_result(result_dict):
    assert checks.check_invariants([result_dict]) == []
    broken = dict(result_dict)
    broken["makespan_s"] = result_dict["makespan_s"] * 2
    assert checks.check_invariants([broken])
    assert checks.check_invariants([])


def _record(key, ok=True, **extra):
    record = {"key": key, "ok": ok}
    record.update(extra)
    return record


def _sweep_case():
    plan = [
        {"key": "p", "backend": "hmc-hetero", "steps": 3},
        {"key": "f", "backend": "hmc-hetero", "steps": 3,
         "faults": {"seed": 1, "events": 2}},
        {"key": "g", "backend": "gradpim", "steps": 3,
         "faults": {"seed": 2, "events": 2}},
    ]
    cold = [
        _record("p", result={"steps": 3, "faults": None}),
        _record("f", result={"steps": 3, "faults": {"events": [{"kind": "x"}]}}),
        _record("g", ok=False, error="HardwareConfigError",
                message="grid 4x8 != 16 banks"),
    ]
    return plan, cold


def test_check_sweep_accepts_the_known_failure_only():
    plan, cold = _sweep_case()
    assert checks.check_sweep(plan, cold, [dict(r) for r in cold]) == []
    assert checks.failed_count(cold) == 1

    other = [dict(r) for r in cold]
    other[0] = _record("p", ok=False, error="SimulationError", message="boom")
    assert checks.check_sweep(plan, other, other)


def test_check_sweep_catches_a_warm_result_that_differs():
    plan, cold = _sweep_case()
    warm = [dict(r) for r in cold]
    warm[0] = _record("p", result={"steps": 3, "faults": None, "x": 1})
    assert checks.check_sweep(plan, cold, warm)


def test_check_sweep_catches_an_empty_fault_log_and_short_runs():
    plan, cold = _sweep_case()
    cold[1] = _record("f", result={"steps": 3, "faults": {"events": []}})
    assert checks.check_sweep(plan, cold, cold)
    plan, cold = _sweep_case()
    cold[0] = _record("p", result={"steps": 2, "faults": None})
    assert checks.check_sweep(plan, cold, cold)
    assert checks.check_sweep([], [], [])


# -- layers -----------------------------------------------------------------
def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      1000 |       3000 |     numpy",
        "import time:       500 |       4000 |   repro.nn",
        "import time:       200 |       5000 | repro",
        "import time:       300 |       2000 | repro.cli",
    ])
    parsed = layers.parse_importtime(stderr)
    assert parsed == {
        "import.repro_cli_s": pytest.approx(0.007),
        "import.numpy_s": pytest.approx(0.003),
        "import.repro_modules": 3,
    }
    assert layers.parse_importtime("import time: 1 | 1 | site") is None


def test_tracer_reports_self_time_and_folds_reentry():
    tracer = layers.Tracer()

    def inner():
        time.sleep(0.02)

    def outer(depth=0):
        time.sleep(0.01)
        wrapped_inner()
        if depth == 0:
            wrapped_outer(1)

    wrapped_inner = tracer.span(inner, "sim.engine.run")
    wrapped_outer = tracer.span(outer, "api.simulate")
    wrapped_outer()
    snap = tracer.snapshot()
    assert snap["api.simulate.calls"] == 1
    assert snap["sim.engine.run.calls"] == 2
    assert snap["sim.engine.run.s"] >= 0.04
    assert 0.02 <= snap["api.simulate.s"] < 0.04


# -- hostspeed --------------------------------------------------------------
def test_host_clock_adjusts_by_the_calibrations_around_a_sample():
    readings = iter([
        hostspeed.REFERENCE_S,      # before the first sample
        2 * hostspeed.REFERENCE_S,  # after it, before the second
        4 * hostspeed.REFERENCE_S,  # after the second
    ])
    clock = hostspeed.HostClock(measure=lambda: next(readings))
    clock.before()
    t0 = time.perf_counter()
    t1 = time.perf_counter()
    clock.after()
    clock.before()  # the last calibration just ended: reused
    t2 = time.perf_counter()
    t3 = time.perf_counter()
    clock.after()
    assert len(clock.marks) == 3
    # a host half as fast around the first sample: its time counts 2/3
    assert clock.factor(t0, t1) == pytest.approx(1 / 1.5)
    assert clock.factor(t2, t3) == pytest.approx(1 / 3)
    assert clock.median_kernel_s() == pytest.approx(2 * hostspeed.REFERENCE_S)


def test_host_clock_samples_through_a_long_sample():
    clock = hostspeed.HostClock(measure=lambda: hostspeed.REFERENCE_S)
    clock.before()
    t0 = time.perf_counter()
    with clock.sampling(measure=lambda: 3 * hostspeed.REFERENCE_S):
        time.sleep(hostspeed.SAMPLE_EVERY_S * 2.5)
    t1 = time.perf_counter()
    clock.after()
    within = [m for m in clock.marks if t0 <= m[0] and m[1] <= t1]
    assert len(within) == 3
    # ends at reference speed, three samples at a third of it inside
    assert clock.factor(t0, t1) == pytest.approx(5 / 11)


def test_host_clock_needs_a_calibration():
    clock = hostspeed.HostClock(measure=lambda: hostspeed.REFERENCE_S)
    with pytest.raises(ValueError):
        clock.factor(0.0, 1.0)


def test_host_clock_scales_by_its_own_reference():
    clock = hostspeed.HostClock(measure=lambda: 0.02, quick=lambda: 0.04,
                                reference=0.01)
    clock.before()
    t0 = t1 = time.perf_counter()
    clock.tick()
    assert clock.factor(t0, t1) == pytest.approx(0.01 / 0.03)


def test_kernel_does_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel() == 1500
    assert hostspeed.measure(budget_s=0.0) > 0.0
    hostspeed.loopback(rounds=2)
    assert hostspeed.measure_serve() > 0.0
