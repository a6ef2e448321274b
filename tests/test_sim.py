import inspect
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lane_oracle import _rk4_step, looped_phase_step, march
from torusred.errors import ConfigError
from torusred.fourier import FourierMap, SmoothMap
from torusred.models import (
    ChainConfig,
    OscillatorModel,
    StuartLandauParams,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    stuart_landau_field,
)
from torusred.reduction import phase_reduce
from torusred import sim
from torusred.sim import (
    IntegratorSpec,
    TrajectoryRecord,
    envelope,
    fit_powerlaw,
    integrate_full,
    integrate_reduced,
    measure_T01,
    phases_from_state,
    sweep_csv,
    sweep_epsilon,
    torus_phases,
    trajectory_csv,
)

SET1 = dict(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0, a=1.0, b=2.0, c=-1.0, d=-1.0)
SET2 = dict(alpha=1.0, beta=0.1, gamma=-1.0, delta=1.0, a=1.0, b=6.0, c=-1.0, d=-1.0)
PRESETS = {"set1": SET1, "set2": SET2}
START = {"set1": np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3]),
         "set2": np.array([1.0, 0.3, 1.0, 0.4, -0.2, 0.9])}


@pytest.fixture(scope="module")
def chain1():
    cfg = ChainConfig(**SET1)
    return cfg, chain_model(cfg)


@pytest.fixture(scope="module")
def reduced1(chain1):
    cfg, model = chain1
    bundle = chain_bundle(cfg, K=8.0)
    return phase_reduce(model, bundle, order=2, K_nf=6.0)


def single_oscillator_model():
    """One Stuart-Landau oscillator wrapped as a model (no coupling)."""
    p = StuartLandauParams(1.0, 1.0, -1.0, 1.0)
    return p, OscillatorModel(dims=[2], F0=stuart_landau_field(p), perturbations=[],
                              omega=np.array([p.frequency]))


# ----------------------------------------------------------------------
# integrator order


def integration_error(model, p, scheme, dt_target):
    T = 2.0 * math.pi / abs(p.frequency)
    n = int(round(T / dt_target))
    spec = IntegratorSpec(scheme, T / n, T, record_stride=n)
    x0 = np.array([p.radius, 0.0])
    rec = integrate_full(model, 0.0, x0, spec)
    return float(np.max(np.abs(rec.states[-1] - x0)))


@pytest.mark.parametrize("scheme,expected,tol", [("rk4", 4.0, 0.3), ("euler", 1.0, 0.2)])
def test_integrator_order(scheme, expected, tol):
    p, model = single_oscillator_model()
    dts = np.array([1e-2, 5e-3, 2.5e-3])
    errs = np.array([integration_error(model, p, scheme, dt) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - expected) <= tol


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_generic_complex_pair_model_runs_like_the_fused_chain(chain1, scheme):
    # The chain without its fast_field goes through the generic array path;
    # its record, pair angle included, matches the scalar lane's to roundoff.
    cfg, model = chain1
    generic = OscillatorModel(dims=model.dims, F0=model.F0, perturbations=model.perturbations,
                              omega=model.omega, pair=(0, 2))
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5])
    spec = IntegratorSpec(scheme, 0.01, 20.0, record_stride=7)
    fused, plain = (integrate_full(m, 0.1, x0, spec) for m in (model, generic))
    assert np.array_equal(fused.t, plain.t)
    assert np.max(np.abs(fused.states - plain.states)) <= 1e-12
    assert np.max(np.abs(fused.phi_hat - plain.phi_hat)) <= 1e-12


def test_full_record_tracks_the_angle_of_the_model_pair():
    # Two uncoupled oscillators on their circles: the angle of z_1 conj(z_2)
    # turns at omega_1 - omega_2 from theta_0, unwrapped across many turns.
    p1, p2 = StuartLandauParams(1.0, 1.0, -1.0, 1.0), StuartLandauParams(1.0, 0.1, -1.0, 1.0)
    f1, f2 = stuart_landau_field(p1), stuart_landau_field(p2)
    F0 = SmoothMap(lambda x: np.concatenate([f1.fun(x[..., :2]), f2.fun(x[..., 2:])], axis=-1))
    model = OscillatorModel(dims=[2, 2], F0=F0, perturbations=[],
                            omega=[p1.frequency, p2.frequency], pair=(0, 1))
    theta1, theta2 = 0.4, -1.1
    x0 = np.array([np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)])
    rec = integrate_full(model, 0.0, x0, IntegratorSpec("rk4", 0.01, 50.0, record_stride=10))
    expected = (p1.frequency - p2.frequency) * rec.t + (theta1 - theta2)
    assert expected[-1] > 40.0
    assert np.max(np.abs(rec.phi_hat - expected)) <= 1e-6  # RK4's phase error: 1.3e-7


def test_uncoupled_chain_preserves_radii(chain1):
    cfg, model = chain1
    bundle = chain_bundle(cfg, K=8.0)
    x0 = bundle.e0.eval(np.array([0.4, -1.1, 2.2]))
    spec = IntegratorSpec("rk4", 1e-3, 2 * np.pi, record_stride=100)
    rec = integrate_full(model, 0.0, x0, spec)
    z = rec.states[:, 0::2] + 1j * rec.states[:, 1::2]
    radii = np.abs(z)
    R = np.array([cfg.outer.radius, cfg.middle.radius, cfg.outer.radius])
    assert np.max(np.abs(radii - R)) <= 1e-6


def test_reduced_linear_flow_is_exact(reduced1):
    phi0 = np.array([0.1, 0.2, 0.3])
    spec = IntegratorSpec("rk4", 0.01, 10.0, record_stride=10)
    rec = integrate_reduced(reduced1, 0.0, phi0, spec, (0, 2))
    expected = phi0[None, :] + rec.t[:, None] * reduced1.omega[None, :]
    assert np.max(np.abs(rec.states - expected)) <= 1e-10


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_gives_partial_record():
    grow = OscillatorModel(
        dims=[2],
        F0=SmoothMap(lambda x: x ** 3),
        perturbations=[],
        omega=np.array([1.0]),
    )
    spec = IntegratorSpec("euler", 0.5, 50.0)
    rec = integrate_full(grow, 0.0, np.array([2.0, 0.0]), spec)
    assert rec.failed
    assert rec.t[-1] < 50.0
    assert np.all(np.isfinite(rec.states))


def test_dt_guard_against_fast_phases(chain1):
    cfg, model = chain1
    with pytest.raises(ConfigError):
        integrate_full(model, 0.0, np.ones(6), IntegratorSpec("euler", 2.0, 10.0))


# ----------------------------------------------------------------------
# synchronisation metrics


def synthetic_record(phi_fun, t_end=30.0, dt=0.01, beat=2 * np.pi):
    t = np.arange(0.0, t_end + dt / 2, dt)
    return TrajectoryRecord(
        t=t, states=None, phi_hat=phi_fun(t), kind="full",
        meta={"beat_period": beat, "dt": dt},
    )


def test_measure_t01_exponential_decay():
    rec = synthetic_record(lambda t: 2.0 * np.exp(-t))
    t01 = measure_T01(rec)
    assert abs(t01 - np.log(10.0)) <= 0.02


def test_measure_t01_never_reached():
    rec = synthetic_record(lambda t: 1.0 + 0.01 * np.sin(t))
    assert np.isnan(measure_T01(rec))


def test_measure_t01_undefined_baseline():
    rec = synthetic_record(lambda t: 1e-9 * np.exp(-t))
    with pytest.raises(ValueError):
        measure_T01(rec)


def test_measure_t01_envelope_ignores_fast_wiggle():
    # A decaying mean with a fast oscillation dipping below threshold early:
    # the envelope must not trigger on the dips.
    def phi(t):
        return np.exp(-0.1 * t) * (1.0 + 0.9 * np.sin(40.0 * t))

    rec = synthetic_record(phi, t_end=60.0, beat=1.0)
    t_env = measure_T01(rec)
    t_raw = measure_T01(rec, use_envelope=False)
    assert t_raw < 1.0  # raw signal dips almost immediately
    assert t_env > 15.0  # envelope follows the slow decay


def test_fit_powerlaw_exact():
    eps = np.geomspace(0.02, 0.1, 10)
    slope, intercept = fit_powerlaw(eps, 7.0 * eps ** -2)
    assert abs(slope + 2.0) <= 1e-6
    assert abs(intercept - np.log(7.0)) <= 1e-6


def test_sweep_requires_monotone_couplings(chain1):
    cfg, model = chain1
    with pytest.raises(ConfigError):
        sweep_epsilon(model, np.ones(6), [0.1, 0.02, 0.05],
                      IntegratorSpec("euler", 0.05, 10.0))


def test_sweep_small_real_chain(chain1):
    # Three-point sweep with scaled horizons; slopes land near -2 even on
    # this small grid.
    cfg, model = chain1
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5])
    spec = IntegratorSpec("euler", 0.05, 1500.0, record_stride=2)
    sw = sweep_epsilon(model, x0, np.array([0.06, 0.08, 0.1]), spec)
    assert np.all(sw.converged)
    assert sw.slope is not None and abs(sw.slope + 2.0) <= 0.3
    # horizons scale like eps^-2, so the smallest coupling still converges
    assert np.all(np.isfinite(sw.t01))


def test_sweep_reduced_flow_slope(chain1, reduced1):
    # The reduced flow realises the slow decay law directly, so its decay
    # times follow the inverse-square power law cleanly.
    cfg, model = chain1
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5])
    eps = np.geomspace(0.04, 0.1, 10)
    spec = IntegratorSpec("euler", 0.05, 2500.0, record_stride=2)
    sw = sweep_epsilon(model, x0, eps, spec, reduction=reduced1)
    assert np.all(sw.converged)
    assert abs(sw.slope + 2.0) <= 0.1


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_stopped_sweep_lanes_match_full_horizon(chain1, reduced1, kind, stride):
    # A sweep lane stops once its T01 is decided.  Its T01 and raw T01 must
    # equal measure_T01 on the same lane stepped to its whole horizon, and
    # the stopped record must be a prefix of the full one, ending wn
    # recorded samples after T01.
    cfg, model = chain1
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5])
    eps = np.array([0.15, 0.2])
    spec = IntegratorSpec("euler", 0.05, 400.0, record_stride=stride)
    reduction = reduced1 if kind == "reduced" else None
    sw = sweep_epsilon(model, x0, eps, spec, reduction=reduction)
    assert np.all(sw.converged)
    doc = sw.to_json_dict()
    assert doc["steps"] == sw.steps.tolist() and doc["t_stop"] == sw.t_stop.tolist()
    for e, t01, t01_raw, steps, t_stop in zip(eps, sw.t01, sw.t01_raw, sw.steps, sw.t_stop):
        lane = replace(spec, t_end=spec.t_end * (float(np.max(eps)) / float(e)) ** 2,
                       record_state=False)
        if reduction is None:
            def run(run_spec):
                return integrate_full(model, float(e), x0, run_spec)
        else:
            def run(run_spec):
                return integrate_reduced(reduction, float(e), phases_from_state(x0), run_spec,
                                         model.pair)
        full, stopped = run(lane), run(replace(lane, until_t01=True))
        assert t01 == measure_T01(full)
        assert t01_raw == measure_T01(full, use_envelope=False)
        assert np.array_equal(stopped.t, full.t[:len(stopped.t)])
        assert np.array_equal(stopped.phi_hat, full.phi_hat[:len(stopped.t)])
        wn = int(np.ceil(full.meta["beat_period"] / (stride * spec.dt)))
        assert len(stopped.t) == np.flatnonzero(full.t == t01)[0] + wn < len(full.t)
        # The report's step count and stop time are the stopped lane's.
        assert steps == stopped.meta["steps"] == round(stopped.t[-1] / spec.dt)
        assert t_stop == stopped.t[-1]


@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_sweep_lanes_keep_no_states(monkeypatch, chain1, reduced1, kind):
    # Both lane kinds run on one spec that records no states.
    cfg, model = chain1
    name = "integrate_full" if kind == "full" else "integrate_reduced"
    integrate, records = getattr(sim, name), []

    def spy(*args, **kwargs):
        records.append(integrate(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(sim, name, spy)
    sw = sweep_epsilon(model, np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5]), [0.15, 0.2],
                       IntegratorSpec("euler", 0.05, 400.0),
                       reduction=reduced1 if kind == "reduced" else None)
    assert np.all(sw.converged) and len(records) == 2
    assert all(rec.states is None for rec in records)


def test_reduced_run_without_states_records_the_same_times_and_angles(reduced1):
    spec = IntegratorSpec("rk4", 0.05, 50.0, record_stride=3)
    phi0 = phases_from_state(START["set1"])
    kept, dropped = (integrate_reduced(reduced1, 0.1, phi0, replace(spec, record_state=keep),
                                       (0, 2)) for keep in (True, False))
    assert kept.states.shape == (len(kept.t), 3) and dropped.states is None
    assert kept.t.tobytes() == dropped.t.tobytes()
    assert kept.phi_hat.tobytes() == dropped.phi_hat.tobytes()


def test_the_run_policy_lives_in_the_spec_alone():
    # What a run records and when it stops is read from IntegratorSpec.
    for name, fn in vars(sim).items():
        if inspect.isfunction(fn) and fn.__module__ == sim.__name__:
            params = inspect.signature(fn).parameters
            assert not {"record_state", "until_t01"} & set(params), name
    assert all(p.default is p.empty for p in inspect.signature(sim._lane).parameters.values())


@pytest.mark.parametrize("stride", [2.5, 0.5, 0, -1, np.nan, np.inf])
def test_integrator_spec_needs_a_whole_record_stride(stride):
    with pytest.raises(ConfigError, match="record_stride must be a whole number"):
        IntegratorSpec("euler", 0.05, 1.0, record_stride=stride)
    assert IntegratorSpec("euler", 0.05, 1.0, record_stride=2.0).record_stride == 2


def sliding_window_maximum(a, wn):
    """Each sample's maximum over its window of the record padded with its last sample."""
    padded = np.concatenate([a, np.full(wn - 1, a[-1])])
    return np.lib.stride_tricks.sliding_window_view(padded, wn).max(axis=-1)


ENVELOPE_CASES = {  # id: (samples, beat window at a spacing of 0.5, the NaN sample)
    "wn=1": (50, 0.5, None), "wn=8": (50, 3.7, None), "wn=len": (50, 100.0, None),
    "one-sample": (1, 3.7, None), "two-samples": (2, 3.7, None),
    "two-samples-wn=1": (2, 0.5, None), "wn=len-1": (50, 24.5, None),
    "wn=len-exact": (50, 25.0, None), "one-nan": (50, 3.7, 20), "nan-first": (50, 3.7, 0),
    "nan-last": (50, 3.7, 49), "nan-wn=126": (400, 63.0, 250),
    **{f"wn={wn}": (400, 0.5 * wn, None) for wn in (2, 3, 4, 5, 7, 9, 16, 17, 126)},
}


@pytest.mark.parametrize("n,window,nan_at", ENVELOPE_CASES.values(), ids=ENVELOPE_CASES)
def test_envelope_matches_a_running_maximum_oracle(n, window, nan_at):
    # Sample i is the maximum over samples [i, i + wn - 1], cut at the end:
    # the bytes of the sliding-window maximum over the record padded with its
    # last sample, a NaN in a window making its maximum NaN.  The record's
    # angles are left as they were.
    phi = np.random.default_rng(3).normal(size=n)
    if nan_at is not None:
        phi[nan_at] = math.nan
    before = phi.copy()
    rec = TrajectoryRecord(0.5 * np.arange(n), None, phi, meta={"beat_period": window})
    a, wn = np.abs(phi), min(math.ceil(window / 0.5), n)
    got = envelope(rec)
    assert exact_bytes(got) == exact_bytes(sliding_window_maximum(a, wn))
    assert exact_bytes(phi) == exact_bytes(before)
    assert np.isnan(got).tolist() == [nan_at is not None and i <= nan_at < i + wn
                                      for i in range(n)]
    if nan_at is None:
        assert got.tolist() == [max(a[i:i + wn].tolist()) for i in range(n)]


def synthetic_lane(signal, stride, stop):
    # The first scalar counts time exactly (dt = 0.25) and the observable,
    # the difference of the other two, is signal(t); the envelope window is
    # 5 time units.
    spec = IntegratorSpec("euler", 0.25, 100.0, record_stride=stride, record_state=False)
    rule = sim._t01_stop(signal(0.0), 5.0, spec) if stop else None
    steps, _, seen, _ = sim._lane(spec, (0.0, signal(0.0), 0.0), ["p0 = p0 + dt", "p1 = signal(p0)"],
                                  {"signal": signal}, (1, 2, signal(0.0), 0.0), rule)
    return TrajectoryRecord(sim._times(steps, spec), None, np.asarray(seen),
                            meta={"beat_period": 5.0})


@pytest.mark.parametrize("stride", [1, 2])
def test_stop_rule_ignores_dips_shorter_than_a_window(stride):
    dt_rec = 0.25 * stride
    wn = int(np.ceil(5.0 / dt_rec))

    def signal(t):
        # wn - 1 samples below the threshold from t = 10, then for good from t = 30
        return 0.05 if 10.0 <= t < 10.0 + (wn - 1) * dt_rec or t >= 30.0 else 1.0

    full, stopped = synthetic_lane(signal, stride, False), synthetic_lane(signal, stride, True)
    assert [measure_T01(r) for r in (stopped, full)] == [30.0, 30.0]
    assert [measure_T01(r, use_envelope=False) for r in (stopped, full)] == [10.0, 10.0]
    assert stopped.t[-1] == 30.0 + (wn - 1) * dt_rec


def test_stop_rule_runs_an_unsettled_lane_to_its_horizon():
    rec = synthetic_lane(lambda t: 1.0 + 0.5 * np.sin(t), 2, True)
    assert rec.t[-1] == 100.0
    assert np.isnan(measure_T01(rec))


@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_sweep_from_in_phase_outer_pair_fails_before_stepping(monkeypatch, chain1, reduced1,
                                                              kind):
    def no_stepping(*args, **kwargs):
        raise AssertionError("a lane with an undefined decay baseline was stepped")

    monkeypatch.setattr(sim, "_lane", no_stepping)
    cfg, model = chain1
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.3])
    with pytest.raises(ConfigError, match="baseline"):
        sweep_epsilon(model, x0, [0.08, 0.1], IntegratorSpec("euler", 0.05, 1500.0),
                      reduction=reduced1 if kind == "reduced" else None)


@pytest.mark.parametrize("paired,size,kind,match", [
    (False, 6, "full", "names no pair"),
    (False, 6, "reduced", "names no pair"),
    (True, 5, "reduced", "initial state must be finite with 6 components"),
    (True, 8, "reduced", "initial state must be finite with 6 components"),
])
def test_sweep_rejects_a_model_without_a_pair_or_a_bad_start_before_stepping(
        monkeypatch, chain1, reduced1, paired, size, kind, match):
    # A reduced sweep reads its start as a state of the model too.
    def no_stepping(*args, **kwargs):
        raise AssertionError("a lane of a rejected sweep was stepped")

    monkeypatch.setattr(sim, "_lane", no_stepping)
    cfg, model = chain1
    if not paired:
        model = OscillatorModel(dims=model.dims, F0=model.F0, perturbations=model.perturbations,
                                omega=model.omega)
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5, 0.2, 0.1])[:size]
    with pytest.raises(ConfigError, match=match):
        sweep_epsilon(model, x0, [0.08, 0.1], IntegratorSpec("euler", 0.05, 1500.0),
                      reduction=reduced1 if kind == "reduced" else None)


def test_integrate_full_until_t01_needs_a_pair_before_stepping(monkeypatch, chain1):
    def no_stepping(*args, **kwargs):
        raise AssertionError("a run without an observable to time was stepped")

    monkeypatch.setattr(sim, "_lane", no_stepping)
    _, model = chain1
    unpaired = OscillatorModel(dims=model.dims, F0=model.F0, perturbations=model.perturbations,
                               omega=model.omega)
    with pytest.raises(ConfigError, match="names the pair"):
        integrate_full(unpaired, 0.1, START["set1"],
                       IntegratorSpec("euler", 0.05, 1500.0, record_state=False, until_t01=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_reduced_rejects_non_finite_phases(reduced1, bad):
    with pytest.raises(ConfigError, match="finite"):
        integrate_reduced(reduced1, 0.1, np.array([bad, 0.2, 0.3]),
                          IntegratorSpec("euler", 0.05, 10.0), (0, 2))


def test_integrate_reduced_needs_the_outer_pair_of_phases():
    # The observable is the angle between the phases of the pair it is given.
    flow = reduced_flow(np.array([1.0, 2.0]), FourierMap.zero(2, (2,), 1.0))
    with pytest.raises(ConfigError, match="2 phases"):
        integrate_reduced(flow, 0.1, np.array([0.1, 0.2]), IntegratorSpec("euler", 0.05, 10.0),
                          (0, 2))


@pytest.mark.parametrize("pair", [(0, 0), (0,), (0, 1, 2), (0, 3)])
def test_integrate_reduced_applies_the_pair_rule_of_models(pair):
    # The rule OscillatorModel applies to its pair: two distinct phases in range.
    flow = reduced_flow(np.array([1.0, 2.0, 3.0]), FourierMap.zero(3, (3,), 1.0))
    with pytest.raises(ConfigError, match="must name two distinct oscillators of the 3 phases"):
        integrate_reduced(flow, 0.1, np.zeros(3), IntegratorSpec("euler", 0.05, 10.0), pair)


def test_a_pair_angle_that_underflows_reads_as_zero():
    # z_1 conj(z_2) = 1e300 - 1e-300 i: its angle underflows, where cmath.phase raises.
    # A written field of zero rates keeps the state through a step.
    still = OscillatorModel(dims=[2, 2], F0=None, perturbations=[], omega=[1.0, 1.0], pair=(0, 1),
                            fast_field=lambda eps: (lambda z, f: [f"{f}0 = {f}1 = 0j"], {}))
    rec = integrate_full(still, 0.0, [0.0, -1.0, 1e-300, -1e300], IntegratorSpec("euler", 0.05, 0.05))
    assert rec.states.tolist() == [[0.0, -1.0, 1e-300, -1e300]] * 2
    assert rec.phi_hat.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("dt,t_end", [(np.inf, 10.0), (0.05, np.inf), (np.nan, 10.0),
                                      (0.05, np.nan)])
def test_integrator_spec_rejects_a_non_finite_step_or_horizon(dt, t_end):
    with pytest.raises(ConfigError, match="positive and finite"):
        IntegratorSpec("euler", dt, t_end)


@pytest.mark.parametrize("dt,t_end", [(1e-300, 1e10), (0.05, 0.01)])
def test_integrator_spec_needs_a_finite_step_count_of_at_least_one(dt, t_end):
    with pytest.raises(ConfigError, match="number of steps"):
        IntegratorSpec("euler", dt, t_end)
    assert IntegratorSpec("euler", 0.05, 0.05).steps() == 1


@pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
def test_reduced_record_tracks_the_phase_difference_of_the_pair(pair):
    flow = reduced_flow(np.array([1.0, 2.5]), FourierMap.zero(2, (2,), 1.0))
    phi0 = np.array([0.3, 0.1])
    rec = integrate_reduced(flow, 0.1, phi0, IntegratorSpec("euler", 0.05, 10.0), pair)
    i, j = pair
    assert np.array_equal(rec.phi_hat, rec.states[:, i] - rec.states[:, j])
    expected = phi0[i] - phi0[j] + (flow.omega[i] - flow.omega[j]) * rec.t
    assert np.max(np.abs(rec.phi_hat - expected)) <= 1e-12


def numpy_phase_step(result, eps, spec):
    """The reduced flow's step on numpy arrays, as ``integrate_reduced`` took it
    before it stepped float tuples: the oracle of the float step."""
    omega, series = result.omega, result.phase_field(eps)
    kmat, cmat = series.keys.astype(float), series.values

    def rhs(p):
        return omega + (np.exp(1j * (kmat @ p)) @ cmat).real

    if spec.scheme == "euler":
        return lambda x: x + spec.dt * rhs(x)
    return lambda x: _rk4_step(rhs, x, spec.dt)


def reduced_flow(omega, series):
    """A stand-in reduction whose phase field is ``series`` at every coupling."""
    return SimpleNamespace(omega=omega, phase_field=lambda eps: series)


@pytest.fixture(scope="module")
def chain_reductions():
    made = {}

    def reduction(params, J):
        if (params, J) not in made:
            cfg = ChainConfig(**PRESETS[params])
            made[params, J] = phase_reduce(chain_model(cfg), chain_bundle(cfg, K=8.0),
                                           order=J, K_nf=6.0)
        return made[params, J]

    return reduction


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("J,n_keys", [(2, 3), (3, 3), (4, 5)])
@pytest.mark.parametrize("params", ["set1", "set2"])
def test_reduced_step_is_bit_identical_to_the_numpy_field(chain_reductions, params, J, n_keys,
                                                          scheme):
    # Oracle for the float step: every state of 10^4 steps from the preset
    # start equals the one stepped on numpy arrays, bit for bit.
    result = chain_reductions(params, J)
    assert len(result.phase_field(0.1).keys) == n_keys
    phi0 = phases_from_state(START[params])
    spec = IntegratorSpec(scheme, 0.05, 500.0)
    for eps in (0.0, 0.02, 0.1):
        rec = integrate_reduced(result, eps, phi0, spec, (0, 2))
        step, phi = numpy_phase_step(result, eps, spec), phi0.copy()
        want = [phi]
        for _ in range(spec.steps()):
            phi = step(phi)
            want.append(phi)
        assert not rec.failed and rec.states.shape == (10_001, 3)
        assert np.array_equal(rec.states, np.asarray(want))


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("m", [2, 4])
def test_reduced_step_matches_the_numpy_field_on_random_fields(m, scheme):
    # One float step against one numpy step on random fields with |k| <= 3.
    # BLAS may sum in another order here, so the two agree to roundoff.
    rng = np.random.default_rng(11)
    spec = IntegratorSpec(scheme, 0.05, 0.05)
    for _ in range(20):
        keys = rng.integers(-3, 4, size=(12, m))
        keys = np.unique(keys[np.linalg.norm(keys, axis=1) <= 3.0], axis=0)
        values = rng.normal(size=(len(keys), m)) + 1j * rng.normal(size=(len(keys), m))
        result = reduced_flow(rng.uniform(-2.0, 2.0, size=m),
                              FourierMap(m, 3.0, (keys, values), (m,)))
        step = written_phase_step(result.omega, result.phase_field(0.0), spec)
        oracle = numpy_phase_step(result, 0.0, spec)
        for phi in rng.uniform(-10.0, 10.0, size=(20, m)):
            want = oracle(phi)
            got = np.asarray(step(tuple(phi.tolist())))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def written_phase_step(omega, series, spec):
    """The reduced flow's written stages (``_phase_rates`` through ``_stages``) as
    one step of a tuple of floats, with the names the lane binds for them."""
    rates, ns = sim._phase_rates(omega, series)
    p = ", ".join(f"p{a}" for a in range(omega.size))
    body = [f"{p}, = p", *sim._stages(spec.scheme, omega.size, rates), f"return ({p},)"]
    ns.update(dt=spec.dt, h=0.5 * spec.dt, w=spec.dt / 6.0)
    exec(compile("def step(p):\n" + "".join(f"    {ln}\n" for ln in body), "<step>", "exec"), ns)
    return ns["step"]


ODD_FLOATS = [-0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]


def exact_bytes(p):
    """The bytes of the floats ``p``, every NaN as the one NaN."""
    p = np.array(p)
    return np.where(np.isnan(p), math.nan, p).tobytes()


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_reduced_step_is_byte_identical_to_the_looped_step(m, scheme):
    # The written-out step against the looped one, compared as bytes after 1
    # and 100 steps, so zero signs and where NaN stands count.  A NaN's sign is
    # not the program's to fix: which NaN operand's bits x + y passes on
    # changes once CPython specialises the addition, so NaNs are compared as
    # one NaN.  The fields are raw key and coefficient arrays in random row
    # order, with 0 to 40 keys (the zero key among them, and one field with
    # none) and coefficients of -0.0, 5e-324, +-1e300, NaN and +-inf; the
    # states hold -0.0 and angles whose products with the keys overflow.
    rng = np.random.default_rng(20 + m)
    spec = IntegratorSpec(scheme, 0.05, 5.0)
    for n_keys in [0, 1, 40, *rng.integers(2, 41, size=9)]:
        keys = np.unique(rng.integers(-3, 4, size=(n_keys, m)), axis=0)
        if n_keys in (1, 40):
            keys[0] = 0
        keys = keys[rng.permutation(len(keys))]
        values = rng.normal(size=(len(keys), m)) + 1j * rng.normal(size=(len(keys), m))
        for n, a in rng.integers(0, [max(len(keys), 1), m], size=(len(keys) // 8, 2)):
            values[n, a] = complex(*rng.choice(ODD_FLOATS, size=2))
        series = SimpleNamespace(keys=keys, values=values)
        omega = np.append(rng.uniform(-2.0, 2.0, size=m - 1), -0.0)
        step = written_phase_step(omega, series, spec)
        oracle = looped_phase_step(omega, series, spec)
        starts = rng.uniform(-10.0, 10.0, size=(4, m))
        starts[1, 0] = starts[2, -1] = -0.0
        starts[3, 0] = 1e308
        for phi in starts:
            got = want = tuple(phi.tolist())
            for i in range(100):
                got, want = step(got), oracle(want)
                if i in (0, 99):
                    assert exact_bytes(got) == exact_bytes(want)


# Two conjugate pairs, one led by +k and one by -k in row order, the zero key
# between them and a key with no mirror.
MIRROR_KEYS = np.array([[1, -1, 0], [0, -2, 1], [0, 0, 0], [-1, 1, 0], [2, 0, 1], [0, 2, -1]])


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("start", ["equal-phases", "signed-zero-phases", "mixed-zero-phases",
                                   "generic", "overflow"])
def test_reduced_step_is_byte_identical_to_the_looped_step_on_mirror_keys(start, scheme):
    # Mirror keys share the lead's cos and sin; the zero key's terms are
    # constants.  The step is held byte-equal to the looped one, as in
    # test_reduced_step_is_byte_identical_to_the_looped_step: where the pair
    # (1, -1, 0) starts at an angle of exactly zero, from -0.0 phases too, on
    # coefficient parts and an omega entry of -0.0, and where the key with no
    # mirror overflows its angle and the stage takes the ValueError path.  At
    # the -0.0 start every angle is +0.0, and each term of phase 1's rate is
    # -0.0 - 0.0 Im c = -0.0, which only the sum from 0.0 makes +0.0.
    rng = np.random.default_rng(31)
    values = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    values[:, 1] = [complex(-0.0, abs(v.imag)) for v in values[:, 1]]
    values[2, 0] = values[3, 2] = values[5, 0] = complex(-0.0, -0.0)
    values[0, 2] = values[2, 2] = complex(0.3, -0.0)
    series = SimpleNamespace(keys=MIRROR_KEYS, values=values)
    omega = np.array([0.3, -0.0, 1.1])
    phi = {"equal-phases": [0.7, 0.7, -1.2], "signed-zero-phases": [-0.0, -0.0, -0.0],
           "mixed-zero-phases": [-0.0, 0.0, 2.5], "generic": [1.3, -2.9, 0.4],
           "overflow": [1e308, 0.3, -0.4]}[start]
    spec = IntegratorSpec(scheme, 0.05, 5.0)
    step = written_phase_step(omega, series, spec)
    oracle = looped_phase_step(omega, series, spec)
    got = want = tuple(phi)
    for i in range(20):
        got, want = step(got), oracle(want)
        assert exact_bytes(got) == exact_bytes(want)
    assert np.all(np.isnan(got)) == (start == "overflow")


@pytest.mark.parametrize("scheme,stages", [("euler", 1), ("rk4", 4)])
def test_each_stage_calls_cos_and_sin_once_per_conjugate_pair(chain_reductions, monkeypatch,
                                                              scheme, stages):
    # The set-1 J = 2 field holds the zero key and one pair +-k: each stage
    # evaluates one cos and one sin, through the functions _phase_rates binds.
    result = chain_reductions("set1", 2)
    rows = sorted(map(tuple, result.phase_field(0.1).keys.tolist()))
    assert len(rows) == 3 and rows[1] == (0, 0, 0) and rows[0] == tuple(-k for k in rows[2])
    calls = {"cos": 0, "sin": 0}

    def counted(name):
        def call(t):
            calls[name] += 1
            return getattr(math, name)(t)
        return call

    monkeypatch.setattr(sim, "math", SimpleNamespace(**{**vars(math), "cos": counted("cos"),
                                                        "sin": counted("sin")}))
    spec = IntegratorSpec(scheme, 0.05, 0.5)
    rec = integrate_reduced(result, 0.1, phases_from_state(START["set1"]), spec, (0, 2))
    assert rec.meta["steps"] == 10
    assert calls == {"cos": 10 * stages, "sin": 10 * stages}


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
def test_reduced_blowup_stops_where_the_numpy_field_does(reduced1, bad, scheme):
    # A NaN or infinite coefficient fails the first step.  Constant terms of
    # +-1e307 push the outer phases apart until their angle overflows, where
    # math.cos raises and numpy's exp gives NaN, and then the phases too.
    # The float step must fail at the same step and time as the numpy one.
    series = reduced1.phase_field(0.1)
    values = series.values.copy()
    if bad == "overflow":
        values[series.keys.tolist().index([0, 0, 0])] += [1e307, 0.0, -1e307]
    else:
        values[0, 2] = float(bad)
    phi0 = np.array([0.1, 0.2, 0.3])
    spec = IntegratorSpec(scheme, 0.05, 50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        result = reduced_flow(reduced1.omega, FourierMap(3, series.K, (series.keys, values), (3,)))
        ts, states, _, failed = march(numpy_phase_step(result, 0.1, spec), phi0, spec, None, None)
    rec = integrate_reduced(result, 0.1, phi0, spec, (0, 2))
    assert rec.failed and failed
    assert (len(rec.t) > 1) == (bad == "overflow")
    assert np.array_equal(rec.t, ts)
    assert np.array_equal(rec.states, np.asarray(states))


def test_sweep_reduced_start_across_branch_cut(chain1, reduced1):
    # A common turn of all oscillators is a symmetry of the chain.  This one
    # carries z1 across arg's branch cut, so the raw phases differ by
    # 0.17 - 2 pi; the reduced record must still start at 0.17 and decay as
    # the unturned start does.
    cfg, model = chain1
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5])
    z = (x0[0::2] + 1j * x0[1::2]) * np.exp(0.38j)
    turned = np.column_stack([z.real, z.imag]).reshape(-1)
    phases = phases_from_state(turned)
    assert phases[0] - phases[2] < -6.0
    eps = np.array([0.08, 0.1])
    spec = IntegratorSpec("euler", 0.05, 1500.0)
    base = sweep_epsilon(model, x0, eps, spec, reduction=reduced1)
    sw = sweep_epsilon(model, turned, eps, spec, reduction=reduced1)
    assert np.all(base.converged) and np.all(sw.converged)
    assert np.max(np.abs(sw.t01 - base.t01)) <= spec.dt


def test_torus_attraction(chain1):
    cfg, model = chain1
    x0 = np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3])
    spec = IntegratorSpec("rk4", 0.01, 20.0, record_stride=10)
    rec = integrate_full(model, 0.1, x0, spec)
    z = rec.states[:, 0::2] + 1j * rec.states[:, 1::2]
    dev = np.abs(np.abs(z) - np.array([1.0, 1.0, 1.0]))
    tail = rec.t >= 10.0
    assert np.max(dev[tail]) <= 0.2


def test_reduced_tracks_full_system(chain1, reduced1):
    # Cross-validation: reduced and full phase differences stay within
    # 0.15 of each other over the first 500 time units at eps = 0.1.
    cfg, model = chain1
    eps = 0.1
    x0 = np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3])
    spec = IntegratorSpec("rk4", 0.01, 500.0, record_stride=10, record_state=False)
    full = integrate_full(model, eps, x0, spec)
    red = integrate_reduced(reduced1, eps, phases_from_state(x0), spec, model.pair)
    assert np.allclose(full.t, red.t)
    gap = np.abs(full.phi_hat - red.phi_hat)
    assert np.max(gap) <= 0.15
    # both decay monotonically in envelope terms
    assert abs(full.phi_hat[-1]) < abs(full.phi_hat[0])


def test_torus_phases_diagnostic(chain1, reduced1):
    # Reported, not asserted against a band: the tail of a converged run
    # has to sit near the expanded torus, far closer than the O(1) torus
    # size itself.
    cfg, model = chain1
    x0 = np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3])
    spec = IntegratorSpec("rk4", 0.01, 60.0, record_stride=50)
    rec = integrate_full(model, 0.1, x0, spec)
    tail = rec.states[rec.t >= 30.0]
    phases, dist = torus_phases(reduced1.embedding(0.1), tail)
    assert phases.shape == (len(tail), 3) and dist.shape == (len(tail),)
    assert np.all(np.isfinite(dist))
    assert np.max(dist) < 0.05


def test_torus_phases_reads_angles_and_radial_offsets_off_the_chain_circles(chain1):
    # On a product of circles the closest point of (R_j + s_j) e^{i phi_j}
    # is R_j e^{i phi_j}: its phases are the states' own, its distance the
    # norm of the radial offsets s.
    cfg, _ = chain1
    e0 = chain_bundle(cfg, K=8.0).e0
    rng = np.random.default_rng(17)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(200, 3))
    offsets = rng.normal(size=(200, 3))
    offsets *= rng.uniform(0.0, 0.01, size=(200, 1)) / np.linalg.norm(offsets, axis=1, keepdims=True)
    z = e0.eval(angles).view(complex)
    states = (z + offsets * z / np.abs(z)).view(float)
    phases, dist = torus_phases(e0, states)
    gap = np.angle(np.exp(1j * (phases - phases_from_state(states))))
    assert np.max(np.abs(gap)) <= 1e-12
    assert np.max(np.abs(dist - np.linalg.norm(offsets, axis=1))) <= 1e-12


@pytest.mark.parametrize("shape", [(3, 5), (6,)])
def test_torus_phases_names_states_it_cannot_read(chain1, shape):
    e0 = chain_bundle(chain1[0], K=8.0).e0
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        torus_phases(e0, np.zeros(shape))


def test_reduced_set2_locks_at_predicted_angle():
    cfg = ChainConfig(**SET2)
    model = chain_model(cfg)
    bundle = chain_bundle(cfg, K=8.0)
    res = phase_reduce(model, bundle, order=2, K_nf=6.0)
    A, B = chain_phase_constants(cfg)
    eps = 0.1
    t_settle = 5.0 / (abs(A) * eps ** 2)
    phi0 = phases_from_state(np.array([1.0, 0.3, 1.0, 0.4, -0.2, 0.9]))
    spec = IntegratorSpec("rk4", 0.05, t_settle, record_stride=100)
    rec = integrate_reduced(res, eps, phi0, spec, model.pair)
    assert abs(rec.phi_hat[-1] - 2.0 * np.arctan(A / B)) <= 0.05


# ----------------------------------------------------------------------
# CSV artifacts


def test_trajectory_csv_format(tmp_path, chain1):
    cfg, model = chain1
    spec = IntegratorSpec("euler", 0.05, 1.0)
    rec = integrate_full(model, 0.1, np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3]), spec)
    path = tmp_path / "traj.csv"
    trajectory_csv(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,re_z3,im_z3,phi_hat"
    assert len(lines) == len(rec.t) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == -1.0
    # 17 significant digits survive a round trip
    assert float(lines[2].split(",")[1]) == rec.states[1][0]


def per_row_csv(record):
    """The data rows of a trajectory CSV, formatted one value at a time."""
    out = ""
    for i in range(len(record.t)):
        row = [record.t[i]]
        if record.states is not None:
            row += list(record.states[i])
        if record.phi_hat is not None:
            row.append(record.phi_hat[i])
        out += ",".join(format(float(x), ".17g") for x in row) + "\n"
    return out


@pytest.mark.parametrize("case,header", [
    ("chain", "t,re_z1,im_z1,re_z2,im_z2,re_z3,im_z3,phi_hat"),
    ("chain without states", "t,phi_hat"),
    ("reduced", "t,phi1,phi2,phi3,phi_hat"),
    ("special values", "t,x1,x2"),
    ("one sample", "t,phi_hat"),
])
def test_trajectory_csv_writes_the_bytes_of_a_per_row_writer(tmp_path, chain1, reduced1, case,
                                                             header):
    _, model = chain1
    spec = IntegratorSpec("euler", 0.05, 1.0)
    record = {
        "chain": lambda: integrate_full(model, 0.1, START["set1"], spec),
        "chain without states": lambda: integrate_full(model, 0.1, START["set1"],
                                                       replace(spec, record_state=False)),
        "reduced": lambda: integrate_reduced(reduced1, 0.1, phases_from_state(START["set1"]),
                                             spec, model.pair),
        "special values": lambda: TrajectoryRecord(
            t=np.array([0.0, 1.0]), states=np.array([[-0.0, 1e-300], [1e300, np.nan]]),
            phi_hat=None),
        "one sample": lambda: TrajectoryRecord(t=np.array([0.0]), states=None,
                                               phi_hat=np.array([0.25])),
    }[case]()
    path = tmp_path / "traj.csv"
    trajectory_csv(record, path)
    assert path.read_bytes() == (header + "\n" + per_row_csv(record)).encode()


def test_sweep_csv_format(tmp_path):
    sw_eps = np.array([0.1, 0.05])
    from torusred.sim import SweepResult

    sw = SweepResult(sw_eps, np.array([10.0, np.nan]), np.array([9.0, np.nan]),
                     np.array([True, False]), np.array([200, 400]), np.array([10.0, 20.0]),
                     None, None)
    path = tmp_path / "sweep.csv"
    sweep_csv(sw, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,T01,converged"
    assert lines[1] == "0.10000000000000001,10,true"
    assert lines[2] == "0.050000000000000003,nan,false"


def test_phi_hat_unwrapping_is_continuous(chain1):
    cfg, model = chain1
    spec = IntegratorSpec("rk4", 0.02, 50.0)
    rec = integrate_full(model, 0.1, np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3]), spec)
    assert np.max(np.abs(np.diff(rec.phi_hat))) < np.pi
