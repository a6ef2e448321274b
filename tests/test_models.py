import cmath
import math
import struct

import numpy as np
import pytest

from lane_oracle import _rk4_step
from torusred.errors import ConfigError
from torusred.models import (
    ChainConfig,
    OscillatorModel,
    StuartLandauParams,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    sl_bundle,
)
from torusred.sim import IntegratorSpec, integrate_full, phases_from_state

SET1 = dict(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0, a=1.0, b=2.0, c=-1.0, d=-1.0)
SET2 = dict(alpha=1.0, beta=0.1, gamma=-1.0, delta=1.0, a=1.0, b=6.0, c=-1.0, d=-1.0)


def test_stuart_landau_derived_quantities():
    p = StuartLandauParams(1.0, 1.0, -1.0, 1.0)
    assert p.radius == pytest.approx(1.0)
    assert p.frequency == pytest.approx(2.0)
    assert p.floquet_exponent == pytest.approx(-2.0)


def test_stuart_landau_second_parameter_set():
    p = StuartLandauParams(1.0, 0.1, -1.0, 1.0)
    assert p.frequency == pytest.approx(1.1)


def test_stuart_landau_rejects_missing_cycle():
    with pytest.raises(ConfigError):
        StuartLandauParams(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("K", [4.0, 8.0, 12.0])
def test_sl_bundle_checks_on_the_circle_floor(sampled_shapes, K):
    # Every grid sample during construction belongs to the bundle check,
    # which must run on at least the 64 nodes validate_bundle keeps for circles.
    b = sl_bundle(StuartLandauParams(1.0, 1.0, -1.0, 1.0), K=K)
    assert sampled_shapes and min(n for (n,) in sampled_shapes) >= 64
    assert b.diagnostics["pde_residual_rel"] <= 1e-10


def test_sl_bundle_closed_forms():
    p = StuartLandauParams(1.0, 1.0, -1.0, 1.0)
    b = sl_bundle(p, K=4.0)
    assert np.allclose(b.e0.eval(np.array([0.0])), [p.radius, 0.0], atol=1e-14)
    assert np.allclose(b.N.eval(np.array([0.0]))[:, 0], [p.gamma, p.delta], atol=1e-14)
    assert b.L[0, 0] == pytest.approx(-2.0)
    assert b.diagnostics["pde_residual_rel"] <= 1e-10


def test_chain_model_frequencies_and_coupling():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    assert np.allclose(model.omega, [2.0, 1.0, 2.0])
    assert model.M == 6 and model.m == 3

    bundle = chain_bundle(cfg, K=8.0)
    rng = np.random.default_rng(1)
    for phi in rng.uniform(0, 2 * np.pi, size=(5, 3)):
        x = bundle.e0.eval(phi)
        coupled = model.perturbations[0].fun(x)
        R1 = cfg.outer.radius
        R2 = cfg.middle.radius
        expected = np.array(
            [
                R2 * np.cos(phi[1]), R2 * np.sin(phi[1]),
                R1 * np.cos(phi[0]), R1 * np.sin(phi[0]),
                R2 * np.cos(phi[1]), R2 * np.sin(phi[1]),
            ]
        )
        assert np.allclose(coupled, expected, atol=1e-12)


def test_chain_observes_its_outer_pair():
    assert chain_model(ChainConfig(**SET1)).pair == (0, 2)


@pytest.mark.parametrize("dims,pair,match", [
    ([2, 2], (0, 0), "two distinct"),
    ([2, 2], (0, 2), "two distinct"),
    ([2, 2], (-1, 0), "two distinct"),
    ([2, 2], (0, 1, 1), "two distinct"),
    ([2, 3], (0, 1), "complex pairs"),
    ([2, 2], (0,), "two distinct"),
])
def test_model_pair_names_two_oscillators_of_complex_pairs(dims, pair, match):
    with pytest.raises(ConfigError, match=match):
        OscillatorModel(dims=dims, F0=None, perturbations=[], omega=np.ones(len(dims)),
                        pair=pair)


def test_a_model_with_a_fast_step_is_made_of_complex_pairs():
    with pytest.raises(ConfigError, match="complex pairs"):
        OscillatorModel(dims=[3], F0=None, perturbations=[], omega=np.ones(1),
                        fast_field=lambda eps: None)


def test_chain_resonance_guard():
    with pytest.raises(ConfigError):
        ChainConfig(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0,
                    a=1.0, b=1.0, c=-1.0, d=1.0)


def test_chain_constants_set1():
    A, B = chain_phase_constants(ChainConfig(**SET1))
    assert A == pytest.approx(0.2, abs=1e-14)
    # Hand evaluation with omega2 - omega1 = -1, d/c = 1, delta/gamma = -1:
    # B = (-1 + 2 - 4) / 5 = -3/5.
    assert B == pytest.approx(-0.6, abs=1e-14)


def test_chain_constants_set2():
    A, _ = chain_phase_constants(ChainConfig(**SET2))
    assert A == pytest.approx(-3.9 / 19.21, abs=1e-12)


@pytest.mark.parametrize("trial", range(8))
def test_chain_constant_simplifies_when_cross_terms_cancel(trial):
    # When c*delta + d*gamma = 0 the constant A collapses to
    # (a + (b - beta)(delta/gamma) + alpha (delta/gamma)^2) / (4a^2 + (w1-w2)^2).
    rng = np.random.default_rng(900 + trial)
    alpha = rng.uniform(0.5, 2.0)
    gamma = -rng.uniform(0.5, 2.0)
    delta = rng.uniform(-1.5, 1.5)
    beta = rng.uniform(-2.0, 2.0)
    a = rng.uniform(0.5, 2.0)
    c = -rng.uniform(0.5, 2.0)
    d = -c * delta / gamma
    b = rng.uniform(-2.0, 2.0)
    try:
        cfg = ChainConfig(alpha, beta, gamma, delta, a, b, c, d)
    except ConfigError:
        return
    A, _ = chain_phase_constants(cfg)
    w1, w2 = cfg.outer.frequency, cfg.middle.frequency
    dg = delta / gamma
    simplified = (a + (b - beta) * dg + alpha * dg ** 2) / (4 * a * a + (w1 - w2) ** 2)
    assert A == pytest.approx(simplified, abs=1e-12, rel=1e-12)


def test_uncoupled_flow_preserves_radii():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    bundle = chain_bundle(cfg, K=8.0)
    phi = np.array([0.3, 1.2, -0.7])
    x = bundle.e0.eval(phi)
    T = 2 * np.pi  # common period of the (2, 1, 2) frequencies
    n = 6300
    dt = T / n
    y = x.copy()
    for _ in range(n):
        y = _rk4_step(lambda s: model.rhs(s, 0.0), y, dt)
    assert np.max(np.abs(y - x)) <= 1e-8


def array_step(rhs, scheme, dt):
    if scheme == "euler":
        return lambda x: x + dt * rhs(x)
    return lambda x: _rk4_step(rhs, x, dt)


def scalar_field(cfg, eps):
    """The chain's field on one real state in scalar complex arithmetic: the
    reference that the written stages must reproduce when stepped by
    ``_rk4_step`` or Euler."""
    p, q = cfg.outer, cfg.middle
    l1, l2 = complex(p.alpha + 1j * p.beta), complex(q.alpha + 1j * q.beta)
    c1, c2 = complex(p.gamma + 1j * p.delta), complex(q.gamma + 1j * q.delta)

    def rhs(x):
        z1 = complex(x[0], x[1])
        z2 = complex(x[2], x[3])
        z3 = complex(x[4], x[5])
        w1 = l1 * z1 + c1 * (z1.real * z1.real + z1.imag * z1.imag) * z1 + eps * z2
        w2 = l2 * z2 + c2 * (z2.real * z2.real + z2.imag * z2.imag) * z2 + eps * z1
        w3 = l1 * z3 + c1 * (z3.real * z3.real + z3.imag * z3.imag) * z3 + eps * z2
        return np.array([w1.real, w1.imag, w2.real, w2.imag, w3.real, w3.imag])

    return rhs


@pytest.mark.parametrize("eps", [0.0, 0.02, 0.1])
@pytest.mark.parametrize("scheme,dt", [("rk4", 0.01), ("euler", 0.05)])
@pytest.mark.parametrize("params,x0", [(SET1, [-1.0, 0.0, 1.0, 0.4, -1.0, 0.3]),
                                       (SET2, [1.0, 0.3, 1.0, 0.4, -0.2, 0.9])],
                         ids=["set1", "set2"])
def test_fast_step_is_bit_identical_to_stepping_the_scalar_field(params, x0, scheme, dt, eps):
    # Oracle for the chain's written stages (its fast_field in the lane): every
    # state of 10^4 steps from the preset start equals the one stepped from the
    # scalar field, bit for bit.
    cfg = ChainConfig(**params)
    rec = integrate_full(chain_model(cfg), eps, x0, IntegratorSpec(scheme, dt, 10_000 * dt))
    oracle = array_step(scalar_field(cfg, eps), scheme, dt)
    x = np.array(x0)
    want = [x]
    for _ in range(10_000):
        x = oracle(x)
        want.append(x)
    assert not rec.failed and rec.states.shape == (10_001, 6)
    assert np.array_equal(rec.states, np.asarray(want))


def complex_bits(w):
    return struct.pack("<dd", w.real, w.imag)


# Parts of z at the edges of the float range: signed zeros, the least and a
# larger subnormal, the least normal, square roots near the overflow of a
# square, the largest finite, infinities and NaN.
EDGE_PARTS = [0.0, 5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308, 1.0, 0.3,
              1.3407807929942596e154, 9.5e153, 1.7976931348623157e308, math.inf, math.nan]
EDGE_PARTS += [-v for v in EDGE_PARTS]


def chain_cubic_coefficients():
    """The ``g`` of the chain's rates on both presets: each oscillator's cubic coefficient."""
    gs = set()
    for params in (SET1, SET2):
        _, ns = chain_model(ChainConfig(**params)).fast_field(0.1)
        gs.update((ns["g1"], ns["g2"]))
    return sorted(gs, key=complex_bits)


@pytest.mark.parametrize("g", chain_cubic_coefficients(), ids=str)
def test_the_squared_modulus_as_one_complex_product_keeps_every_bit(g):
    # The chain's rates write |z|^2 z as (z * z.conjugate()) * z; the lanes'
    # oracle writes (z.real * z.real + z.imag * z.imag) * z.  Wherever one is
    # finite the two are the same bits, and they are non-finite together.
    rng = np.random.default_rng(32)
    raw = rng.integers(0, 2**64, size=(4000, 2), dtype=np.uint64).view(float)  # every exponent
    near = rng.normal(size=(4000, 2)) * 10.0 ** rng.uniform(-160, 160, size=(4000, 1))
    edges = [(a, b) for a in EDGE_PARTS for b in EDGE_PARTS]
    finite = 0
    for a, b in [*edges, *raw.tolist(), *near.tolist()]:
        z = complex(a, b)
        got = g * (z * z.conjugate()) * z
        want = g * (z.real * z.real + z.imag * z.imag) * z
        assert cmath.isfinite(got) == cmath.isfinite(want)
        if cmath.isfinite(got):
            assert complex_bits(got) == complex_bits(want)
            finite += 1
        # The imaginary part of z * conj(z), a * (-b) + b * a, adds two opposite
        # products: +0.0 for finite z unless a * b overflows (inf - inf is NaN,
        # and then |z|^2 overflows too).  With |z|^2 finite, z * conj(z) is
        # exactly complex(|z|^2, +0.0).
        square = z * z.conjugate()
        if cmath.isfinite(z) and math.isfinite(z.real * z.imag):
            assert square.imag == 0.0 and math.copysign(1.0, square.imag) == 1.0
        if math.isfinite(z.real * z.real + z.imag * z.imag):
            assert complex_bits(square) == complex_bits(complex(z.real * z.real + z.imag * z.imag))
    assert finite > 5000


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("params", [SET1, SET2], ids=["set1", "set2"])
def test_fast_step_matches_the_generic_field(params, scheme):
    # One step of the chain's written stages against one step of the generic
    # batched field.
    model = chain_model(ChainConfig(**params))
    assert model.fast_field is not None
    rng = np.random.default_rng(5)
    states = rng.normal(size=(200, 6))
    spec = IntegratorSpec(scheme, 0.01, 0.01)
    for eps in (0.0, 0.02, 0.1):
        generic = array_step(lambda x: model.rhs(x, eps), scheme, 0.01)
        for x in states:
            want = generic(x)
            got = integrate_full(model, eps, x, spec).states[1]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_phases_from_state():
    x = np.array([1.0, 0.0, 0.0, 2.0, -1.0, 0.0])
    assert np.allclose(phases_from_state(x), [0.0, np.pi / 2, np.pi])
