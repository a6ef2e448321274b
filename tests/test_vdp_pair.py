"""A non-harmonic network end to end: the detuned van der Pol pair.

Two mu = 0.3 van der Pol oscillators, coupled at order eps through
``x_i' += x_j - x_i``, with the second one's own field added at order eps
times ``NU`` (a detuning of its time scale).  Their cycles carry odd
harmonics up to |k| = 27, so the inverse of the frame ``[e0' | N]`` is no
trigonometric polynomial and the split runs on the 3/2-rule grid of
K = 32, 97^2 nodes: a path the Stuart-Landau chain never takes.  One
reduction to order 4 serves every order, as the grid is the same at each
and orders J < 4 are its first J terms.
"""

import numpy as np
import pytest

from test_bundle import exponents, vdp_field, vdp_start
from test_fourier import assert_slabs_match_the_sample
from torusred.bundle import cycle_bundle, product_bundle
from torusred.cli import check_normal_form, check_residual_scaling
from torusred.fourier import SmoothMap, TorusGrid, spectral_grid
from torusred.models import OscillatorModel
from torusred.reduction import ReductionResult, phase_difference_field, phase_reduce
from torusred.sim import IntegratorSpec, integrate_full, torus_phases

MU, NU, K, ORDER = 0.3, 0.5, 32.0, 4
EPS = 0.025


def vdp_pair_model(omega):
    one = vdp_field(MU)
    a, b = slice(0, 2), slice(2, 4)

    def both(f):
        return lambda x, *vs: np.concatenate([f(x[..., a], *(v[..., a] for v in vs)),
                                              f(x[..., b], *(v[..., b] for v in vs))], axis=-1)

    def second(f):
        return lambda x, *vs: np.concatenate([np.zeros_like(x[..., a]),
                                              NU * f(x[..., b], *(v[..., b] for v in vs))], axis=-1)

    def jac(x):
        out = np.zeros(np.shape(x)[:-1] + (4, 4))
        out[..., a, a], out[..., b, b] = one.jac(x[..., a]), one.jac(x[..., b])
        return out

    C = np.array([[-1.0, 0, 1, 0], [0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0]])
    own = [second(d) for d in one.derivs]
    F0 = SmoothMap(both(one.fun), derivs=[both(d) for d in one.derivs], jac=jac)
    F1 = SmoothMap(lambda x: x @ C.T + second(one.fun)(x),
                   derivs=[lambda x, v: v @ C.T + own[0](x, v)] + own[1:])
    return OscillatorModel(dims=[2, 2], F0=F0, perturbations=[F1], omega=omega)


def first_orders(result, J):
    """The order-J reduction held in the first J terms of ``result``."""
    return ReductionResult(J, result.bundle, result.phase_terms[:J], result.embedding_terms[:J],
                           result.tangent_terms[:J], result.fibre_terms[:J], result.K,
                           result.K_nf, result.tol_res, result.residuals[:J], result.normal_form)


def stable_zero(result, eps):
    """The zero of the reduced field of ``phi_0 - phi_1`` where it falls through 0."""
    terms = phase_difference_field(result, 0, 1)

    def field(P):
        pts = np.stack([P, np.zeros_like(P)], axis=-1)
        return sum(eps ** l * t.eval(pts) for l, t in enumerate(terms))

    P = np.linspace(-np.pi, np.pi, 2001)
    v = field(P)
    (i,) = np.nonzero((v[:-1] > 0) & (v[1:] <= 0))[0]
    lo, hi = P[i], P[i + 1]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if field(np.array([mid]))[0] > 0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def pair():
    cycle = cycle_bundle(vdp_start(MU), K=K)
    bundle = product_bundle([cycle, cycle])
    model = vdp_pair_model(bundle.omega)
    result = phase_reduce(model, bundle, order=ORDER, K=K)
    assert all(r["grid"] == [97, 97] for r in result.residuals)
    return model, cycle, bundle, [first_orders(result, J) for J in range(1, ORDER + 1)]


def test_cycle_exponent_is_the_orbit_average_of_the_divergence(pair):
    # Liouville: with one exponent zero, the other is the phase average of
    # mu (1 - x^2) along the orbit (measured gap 1.3e-15).
    _, cycle, _, _ = pair
    x = TorusGrid(1, (128,)).sample(cycle.e0)[:, 0]
    assert abs(exponents(cycle)[0] - np.mean(MU * (1 - x ** 2))) <= 1e-12


def test_residual_scales_with_each_order(pair):
    # Two-point slopes of 1.994, 2.995, 3.997 and 4.988.
    model, _, _, orders = pair
    for result in orders:
        _, passed, detail, _ = check_residual_scaling(model, result)
        assert passed, f"J = {result.order}: {detail}"


def test_slab_pass_stacks_to_the_sample_of_the_embedding(pair):
    # The residual check's grid, where the pair's embedding is sampled slab by slab.
    _, _, _, orders = pair
    e = orders[-1].embedding(EPS)
    for fmap in (e, e.jacobian()):
        assert_slabs_match_the_sample(spectral_grid(2, K), fmap)


def test_reduced_field_is_in_normal_form(pair):
    _, _, _, orders = pair
    _, passed, detail, metrics = check_normal_form(orders[-1])
    assert passed, detail
    assert metrics["worst"] == 0.0


def test_lock_angle_of_the_full_run_approaches_the_reduced_one_with_order(pair):
    # The full run starts on the cycles at phases 0 and 1; its tail is read
    # on the same-order embedding.  Measured errors: 4.1e-4, 8.6e-5, 1.5e-5
    # and 1.1e-6 at J = 1..4.
    model, _, bundle, orders = pair
    x0 = bundle.e0.eval(np.array([0.0, 1.0]))
    rec = integrate_full(model, EPS, x0, IntegratorSpec("rk4", 0.05, 1200.0, record_stride=20))
    assert not rec.failed
    tail = rec.states[rec.t >= 900.0]
    errors = []
    for result in orders:
        phases, _ = torus_phases(result.embedding(EPS), tail)
        lock = float(np.mean(np.angle(np.exp(1j * (phases[:, 0] - phases[:, 1])))))
        errors.append(abs(lock - stable_zero(result, EPS)))
    assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors
    assert errors[-1] <= 1e-5, errors
