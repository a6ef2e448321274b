"""Tests of the benchmark's own arithmetic and gates.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, start, end, parent=None, name="x.f", thread=1):
    return tracing.Span(sid, name, thread, start, parent, end=end)


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(0, 4), (1, 2), (3, 6), (7, 7)]) == 6.0


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 5.0, parent=0, thread=2),   # overlaps span 1 on another thread
        span(3, 8.0, 12.0, parent=0, thread=3),  # outlives its parent
        span(4, 1.5, 2.5, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_pool_thread_span_takes_open_main_span_as_parent():
    tracer = tracing.Tracer()
    outer = tracer.open("sim.sweep_epsilon")
    box = {}

    def lane():
        s = tracer.open("sim.integrate_full")
        tracer.close(s)
        box["span"] = s

    worker = threading.Thread(target=lane)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    assert box["span"].parent == outer.sid
    assert box["span"].thread != outer.thread


def test_layer_metrics_count_lanes_and_useful_steps():
    spans = [span(0, 0.0, 4.0, name="sim.sweep_epsilon")]
    for sid, t01 in ((1, 300), (2, None)):
        s = span(sid, 0.0, 2.0, parent=0, name="sim.integrate_full", thread=sid)
        s.cpu = 1.0
        s.attrs.update(kind="full", scheme="rk4", dt=0.1, steps=1000)
        if t01 is not None:
            s.attrs["t01_steps"] = t01
        spans.append(s)
    m = tracing.layer_metrics(spans)
    assert m["sim.lanes"] == 2 and m["sim.lane_threads"] == 2
    assert m["sim.useful_step_frac"] == pytest.approx(1300 / 2000)
    assert m["sim.lane_wait_s"] == pytest.approx(2.0)
    assert m["models.rhs_evals"] == 8000
    assert m["sim.step_us.rk4"] == pytest.approx(1e6 * 2.0 / 2000)
    assert m["sim.self_s"] == pytest.approx(4.0 - 2.0 + 2.0 + 2.0)


def _reduction_doc(extra_coeff):
    entries = [{"k": [1, 0, -1], "re": [0.1, 0.0, -0.1], "im": [0.2, 0.0, -0.2]}]
    if extra_coeff:
        entries.append({"k": [1, -1, 0], "re": [extra_coeff, 0.0, 0.0], "im": [0.0, 0.0, 0.0]})
    return {"omega": [2.0, 3.0, 2.0], "K_nf": 6.0,
            "phase_terms": [{"coeffs": entries}]}


def test_reduce_gates_pass_on_good_result_and_trip_on_doctored_one():
    report = {"A_pipeline": 0.25, "B_pipeline": -0.5, "residual_order_slope": 3.004}
    good = workloads.reduce_gates(report, _reduction_doc(0.0), 2, 0.25, -0.5)
    assert all(ok for _, ok, _ in good)

    doctored = dict(report, A_pipeline=0.25 + 2e-8)
    gates = dict((name, ok) for name, ok, _ in
                 workloads.reduce_gates(doctored, _reduction_doc(1e-9), 2, 0.25, -0.5))
    assert gates == {"slow-law constants": False, "residual order scaling": True,
                     "normal form": False}


def test_sweep_gate_trips_on_unconverged_lane_or_wrong_slope():
    good = {"slope": -1.94, "converged": [True] * 6}
    assert all(ok for _, ok, _ in workloads.sweep_gates(good))
    assert not all(ok for _, ok, _ in workloads.sweep_gates(dict(good, slope=-1.8)))
    assert not all(ok for _, ok, _ in
                   workloads.sweep_gates(dict(good, converged=[True] * 5 + [False])))


def test_seed_zero_is_the_preset_and_other_seeds_jitter_within_bounds():
    from torusred import cli

    assert workloads.preset("set2", "verify", 0)["numerics"] == cli.PRESETS["set2"]["numerics"]
    doc = workloads.preset("set1", "reduce", 7)
    base = cli.PRESETS["set1"]["model"]["chain"]
    for key in ("b", "d"):
        assert doc["model"]["chain"][key] != base[key]
        assert abs(doc["model"]["chain"][key] / base[key] - 1) <= workloads.PARAM_JITTER
    assert workloads.preset("set1", "reduce", 7) == doc

    base_x0 = [complex(*p) for p in cli.PRESETS["set1"]["numerics"]["sweep"]["x0"]]
    x0 = [complex(*p) for p in workloads.preset("set1", "sweep", 7)["numerics"]["sweep"]["x0"]]
    assert x0 != base_x0
    assert x0[0] * x0[2].conjugate() == pytest.approx(base_x0[0] * base_x0[2].conjugate())


def test_install_repoints_imported_names_and_uninstall_restores_them():
    import numpy as np

    import torusred
    import torusred.cli
    from torusred import cli, fourier, reduction

    original = reduction.phase_reduce
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, torusred)
    try:
        assert cli.phase_reduce is reduction.phase_reduce is torusred.phase_reduce
        assert cli.phase_reduce is not original
        grid = fourier.TorusGrid(1, (8,))
        grid.sample(fourier.FourierMap.constant(1, np.ones(2)))
    finally:
        tracing.uninstall(undo)
    assert cli.phase_reduce is original and torusred.phase_reduce is original
    assert [s.name for s in tracer.spans] == ["fourier.TorusGrid.sample"]
    assert tracer.spans[0].attrs["fft_points"] == 16


def test_pass_time_takes_each_op_at_its_low_median():
    assert runner.pass_time({"a": [3.0, 1.0], "b": [2.0, 5.0, 4.0]}) == 1.0 + 4.0


def test_round_robin_samples_each_op_twice_then_fills_the_tail(monkeypatch):
    clock = {"now": 0.0}
    monkeypatch.setattr(runner, "time", type("Clock", (), {
        "perf_counter": staticmethod(lambda: clock["now"])}))
    cost = {"small": 1.0, "big": 5.0}
    order = []

    def take(op):
        order.append(op.name)
        clock["now"] += cost[op.name]
        return cost[op.name]

    ops = [workloads.Op(name, None, None) for name in cost]
    runner.round_robin(ops, take, deadline=14.0)
    assert order == ["small", "big", "small", "big", "small", "small"]


def test_normalise_rescales_cpu_time_to_the_nominal_probe_speed():
    nominal = runner.reference.NOMINAL_S
    assert runner.normalise(3.0, nominal) == pytest.approx(3.0)
    assert runner.normalise(3.0, 2.0 * nominal) == pytest.approx(1.5)


def test_probe_speed_averages_samples_in_the_window_or_takes_the_latest():
    probe = runner.reference.SpeedProbe()
    probe.stop()
    probe.samples = [(1.0, 0.002), (2.0, 0.004), (3.0, 0.009)]
    assert probe.speed(0.5, 2.5) == pytest.approx(0.003)
    assert probe.speed(3.5, 4.0) == pytest.approx(0.009)
