import numpy as np
import pytest

from torusred.bundle import _rk4_step
from torusred.errors import ConfigError
from torusred.models import (
    ChainConfig,
    StuartLandauParams,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    phases_from_state,
    sl_bundle,
)

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
    b = sl_bundle(p)
    assert np.allclose(b.e0.eval(np.array([0.0])), [p.radius, 0.0], atol=1e-14)
    assert np.allclose(b.N.eval(np.array([0.0]))[:, 0], [p.gamma, p.delta], atol=1e-14)
    assert b.L[0, 0] == pytest.approx(-2.0)
    assert b.diagnostics["pde_residual_rel"] <= 1e-10


def test_chain_model_frequencies_and_coupling():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    assert np.allclose(model.omega, [2.0, 1.0, 2.0])
    assert model.M == 6 and model.m == 3

    bundle = chain_bundle(cfg)
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
    bundle = chain_bundle(cfg)
    phi = np.array([0.3, 1.2, -0.7])
    x = bundle.e0.eval(phi)
    T = 2 * np.pi  # common period of the (2, 1, 2) frequencies
    n = 6300
    dt = T / n
    y = x.copy()
    for _ in range(n):
        y = _rk4_step(lambda s: model.rhs(s, 0.0), y, dt)
    assert np.max(np.abs(y - x)) <= 1e-8


@pytest.mark.parametrize("params", [SET1, SET2], ids=["set1", "set2"])
def test_stepper_rhs_matches_the_generic_field(params):
    # Oracle for the chain's scalar fast path, which the integrators step with.
    model = chain_model(ChainConfig(**params))
    assert model.fast_rhs is not None
    rng = np.random.default_rng(5)
    states = rng.normal(size=(200, 6))
    for eps in (0.0, 0.02, 0.1):
        step = model.stepper_rhs(eps)
        for x in states:
            want = model.rhs(x, eps)
            assert np.max(np.abs(step(x) - want)) <= 1e-13 * np.max(np.abs(want))


def test_phases_from_state():
    x = np.array([1.0, 0.0, 0.0, 2.0, -1.0, 0.0])
    assert np.allclose(phases_from_state(x), [0.0, np.pi / 2, np.pi])
