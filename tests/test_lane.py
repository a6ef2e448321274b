"""The written lanes against the loop, hooks and steps they replace (``lane_oracle``).

Every record must be byte-identical to the reference's: its times, states,
pair observable and failure flag.
"""

import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lane_oracle import reduced_reference, reference_full
from test_vdp_pair import vdp_pair_model
from torusred.fourier import FourierMap, SmoothMap
from torusred.models import ChainConfig, OscillatorModel, chain_bundle, chain_model
from torusred import sim
from torusred.cli import PRESETS
from torusred.reduction import phase_reduce
from torusred.sim import IntegratorSpec, integrate_full, integrate_reduced, phases_from_state

SET1 = dict(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0, a=1.0, b=2.0, c=-1.0, d=-1.0)
X0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5])
# 6020 steps: the last stride of 3 is partial.
SPEC = IntegratorSpec("euler", 0.05, 301.0)


@pytest.fixture(scope="module")
def chain():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    return cfg, model, phase_reduce(model, chain_bundle(cfg, K=8.0), order=2, K_nf=6.0)


def assert_same_record(got, want, dt):
    assert got.t.tobytes() == want.t.tobytes()
    for a, b in ((got.states, want.states), (got.phi_hat, want.phi_hat)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.failed == want.failed
    # The lane's own step count: the last record's, or past it on a blow-up.
    assert got.meta["steps"] * dt >= got.t[-1]
    assert (got.meta["steps"] * dt == got.t[-1]) or got.failed


def run_both(kind, chain, eps, x0, spec):
    cfg, model, reduced = chain
    if kind == "chain":
        return integrate_full(model, eps, x0, spec), reference_full(model, eps, x0, spec, cfg)
    phi0 = phases_from_state(x0)
    return (integrate_reduced(reduced, eps, phi0, spec, model.pair),
            reduced_reference(reduced, eps, phi0, spec, model.pair))


@pytest.mark.parametrize("until_t01", [False, True])
@pytest.mark.parametrize("record_state", [True, False])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("kind", ["chain", "reduced"])
def test_written_lane_is_byte_identical_to_the_reference(chain, kind, scheme, stride,
                                                         record_state, until_t01):
    spec = replace(SPEC, scheme=scheme, record_stride=stride, record_state=record_state,
                   until_t01=until_t01)
    lengths = []
    for eps in (0.1, 0.3):
        got, want = run_both(kind, chain, eps, X0, spec)
        assert_same_record(got, want, spec.dt)
        lengths.append(len(got.t))
    # At eps = 0.3 the T01 stop ends the lane early; at eps = 0.1 it runs its horizon.
    assert (lengths[1] < lengths[0]) == until_t01


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_a_lane_that_blows_up_keeps_the_reference_prefix(chain, scheme, stride):
    cfg, model, _ = chain
    # A first oscillator started just past the radius where the scheme's
    # cubic map turns unstable oscillates ever wider for a few strides.
    spec = IntegratorSpec(scheme, 0.05, 50.0, record_stride=stride)
    start = np.array([{"euler": 4.346, "rk4": 5.9887302}[scheme], 0.0, 1.0, 0.4, -1.0, 0.5])
    got, want = integrate_full(model, 0.1, start, spec), reference_full(model, 0.1, start, spec, cfg)
    assert got.failed and len(got.t) > 1 and got.meta["steps"] > stride
    assert_same_record(got, want, spec.dt)
    grow = OscillatorModel(dims=[2], F0=SmoothMap(lambda x: x ** 3), perturbations=[],
                           omega=np.array([1.0]))
    spec = IntegratorSpec("euler", 0.5, 50.0, record_stride=stride)
    got = integrate_full(grow, 0.0, np.array([2.0, 0.0]), spec)
    assert got.failed
    assert_same_record(got, reference_full(grow, 0.0, np.array([2.0, 0.0]), spec, None), spec.dt)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.0", "overflow"])
def test_a_reduced_field_with_odd_coefficients_runs_as_the_reference(chain, bad, scheme, stride):
    # A NaN or infinite coefficient fails the first step; -0.0 coefficients run
    # the horizon; constant terms of +-1e307 overflow the outer angle.
    _, _, reduced = chain
    series = reduced.phase_field(0.1)
    values = series.values.copy()
    if bad == "overflow":
        values[series.keys.tolist().index([0, 0, 0])] += [1e307, 0.0, -1e307]
    else:
        values[0, 2] = float(bad)
        values[1, 0] = values[2, 1] = complex(-0.0, -0.0)
    odd = FourierMap(3, series.K, (series.keys, values), (3,))
    flow = SimpleNamespace(omega=reduced.omega, phase_field=lambda eps: odd)
    spec = IntegratorSpec(scheme, 0.05, 50.0, record_stride=stride)
    phi0 = np.array([0.1, 0.2, 0.3])
    got = integrate_reduced(flow, 0.1, phi0, spec, (0, 2))
    assert got.failed == (bad != "-0.0")
    assert_same_record(got, reduced_reference(flow, 0.1, phi0, spec, (0, 2)), spec.dt)


@pytest.mark.parametrize("record_state", [True, False])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("paired", [True, False])
def test_an_array_model_runs_as_the_reference(paired, scheme, stride, record_state):
    # The van der Pol pair steps arrays over rhs, with and without a pair.
    vdp = vdp_pair_model(np.array([1.0, 1.0]))
    if paired:
        vdp = OscillatorModel(dims=vdp.dims, F0=vdp.F0, perturbations=vdp.perturbations,
                              omega=vdp.omega, pair=(0, 1))
    spec = IntegratorSpec(scheme, 0.05, 20.0, record_stride=stride, record_state=record_state)
    x0 = np.array([2.0, 0.0, 0.5, 1.5])
    got = integrate_full(vdp, 0.025, x0, spec)
    assert (got.phi_hat is not None) == paired
    assert_same_record(got, reference_full(vdp, 0.025, x0, spec, None), spec.dt)
    if paired:  # the T01 stop ends the lane at 888 of its 2000 steps
        stop = replace(spec, t_end=100.0, until_t01=True)
        got = integrate_full(vdp, 0.025, x0, stop)
        assert 0 < got.meta["steps"] < stop.steps() and not got.failed
        assert_same_record(got, reference_full(vdp, 0.025, x0, stop, None), stop.dt)
    # A Roessler oscillator: one block of three real values, not complex pairs.
    rossler = OscillatorModel(dims=[3], F0=SmoothMap(rossler_field), perturbations=[],
                              omega=np.array([1.0]))
    start = np.array([1.0, -0.0, 0.0])
    got = integrate_full(rossler, 0.0, start, spec)
    assert got.phi_hat is None and not got.failed
    assert_same_record(got, reference_full(rossler, 0.0, start, spec, None), spec.dt)


def rossler_field(x):
    u, v, w = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([-v - w, u + 0.2 * v, 0.2 + w * (u - 5.7)], axis=-1)


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_an_array_model_writes_its_stages_as_every_lane(monkeypatch, scheme):
    # The one scheme writer: an array lane's Euler or RK4 stages come from _stages.
    calls = []

    def counted(scheme, m, rates):
        calls.append((scheme, m))
        return stages(scheme, m, rates)

    stages = sim._stages
    monkeypatch.setattr(sim, "_stages", counted)
    vdp = vdp_pair_model(np.array([1.0, 1.0]))
    integrate_full(vdp, 0.025, np.array([2.0, 0.0, 0.5, 1.5]), IntegratorSpec(scheme, 0.05, 1.0))
    assert calls == [(scheme, 1)]


TINY = 5e-324  # the least subnormal
# Chain starts that probe each oscillator's squared modulus: a signed zero in
# each part of the start (every sign of each), every part a signed zero, one
# oscillator at exactly 0j, and subnormal parts beside normal ones.
EDGE_STARTS = {
    "signed-zeros": [np.where(np.arange(6) == k, s, X0) for k in range(6) for s in (0.0, -0.0)]
    + [np.array([-0.0, 0.0, 0.0, -0.0, -0.0, -0.0]), np.array([0.0, -0.0, -0.0, 0.0, 0.0, 0.0])],
    "zero-oscillator": [np.where(np.arange(6) // 2 == n, 0.0, X0) for n in range(3)],
    "subnormal": [np.array([TINY, -0.0, 1.0, 0.4, -1.0, 0.5]),
                  np.array([1e-310, -2.5e-320, -TINY, 3e-309, 1e-315, 0.5]),
                  np.array([-1.0, 4e-320, -3e-310, 0.4, -1.0, 1e-315])],
}


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("case", sorted(EDGE_STARTS))
def test_a_chain_lane_from_an_edge_start_is_byte_identical_to_the_reference(chain, case, scheme,
                                                                            stride):
    cfg, model, _ = chain
    spec = IntegratorSpec(scheme, 0.05, 5.0, record_stride=stride)  # 100 steps
    for x0 in EDGE_STARTS[case]:
        got, want = integrate_full(model, 0.1, x0, spec), reference_full(model, 0.1, x0, spec, cfg)
        assert not got.failed and got.meta["steps"] == spec.steps()
        assert_same_record(got, want, spec.dt)


def squared(z):
    return z.real * z.real + z.imag * z.imag


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_a_squared_modulus_that_overflows_mid_step_stops_as_the_reference(chain, scheme, stride):
    # From these starts the first oscillator's |z|^2 overflows at a finite
    # value: RK4's in the second stage of step 4, from a state whose own |z|^2
    # is finite; Euler's at the state that begins step 13.
    cfg, model, _ = chain
    spec = IntegratorSpec(scheme, 0.05, 50.0, record_stride=stride)
    start = np.array([{"euler": 4.351, "rk4": 5.9937302}[scheme], 0.0, 1.0, 0.4, -1.0, 0.5])
    got, want = integrate_full(model, 0.1, start, spec), reference_full(model, 0.1, start, spec, cfg)
    assert got.failed and got.meta["steps"] == {"euler": 12, "rk4": 3}[scheme]
    assert_same_record(got, want, spec.dt)
    if stride == 1:
        _, ns = model.fast_field(0.1)
        z1, z2, _ = got.states[-1].view(complex).tolist()
        if scheme == "euler":
            assert squared(z1) == math.inf
        else:
            q1 = z1 + 0.5 * spec.dt * (ns["l1"] * z1 + ns["g1"] * squared(z1) * z1 + 0.1 * z2)
            assert squared(z1) < math.inf and cmath.isfinite(q1) and squared(q1) == math.inf


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_the_set2_phase_lock_lane_shortened_is_byte_identical_to_the_reference(scheme):
    # Set 2's chain at its own epsilon, start and phase-lock recording
    # (cli.check_phase_lock), over 4,000 of its 400,000 steps.
    chain_cfg = PRESETS["set2"]["model"]["chain"]
    cfg = ChainConfig(**chain_cfg)
    x0 = np.asarray(PRESETS["set2"]["numerics"]["x0"], dtype=float).reshape(-1)
    spec = IntegratorSpec(scheme, 0.01, 40.0, record_stride=5, record_state=False)
    model, eps = chain_model(cfg), chain_cfg["epsilon"]
    got, want = integrate_full(model, eps, x0, spec), reference_full(model, eps, x0, spec, cfg)
    assert not got.failed and got.states is None and len(got.t) == 801
    assert_same_record(got, want, spec.dt)
