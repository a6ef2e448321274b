import numpy as np
import pytest

from torusred.bundle import (
    LimitCycle,
    cycle_bundle,
    find_limit_cycle,
    floquet_decompose,
    floquet_matrix_from_monodromy,
    oblique_projection,
    product_bundle,
    tangent_identity_residual,
    validate_bundle,
)
from torusred.cli import PRESETS
from torusred.errors import HyperbolicityError, NumericalError, TransversalityError
from torusred.fourier import FourierMap, SmoothMap, TorusGrid, matmul
from torusred.models import (
    ChainConfig,
    StuartLandauParams,
    chain_bundle,
    chain_model,
    sl_bundle,
    stuart_landau_cycle,
    stuart_landau_field,
)

SET1 = StuartLandauParams(1.0, 1.0, -1.0, 1.0)


# ----------------------------------------------------------------------
# oblique projections


def test_oblique_projection_orthogonal_case():
    A = np.array([[1.0], [0.0]])
    B = np.array([[0.0], [1.0]])
    pi = oblique_projection(A, B)
    assert np.allclose(pi, np.diag([1.0, 0.0]), atol=1e-14)


def test_oblique_projection_stuart_landau_at_zero():
    # Tangent direction i, fibre direction gamma + i*delta; the projection
    # sends x + iy to i(y - (delta/gamma) x).
    g, d = SET1.gamma, SET1.delta
    A = np.array([[0.0], [1.0]])
    B = np.array([[g], [d]])
    pi = oblique_projection(A, B)
    expected = np.array([[0.0, 0.0], [-d / g, 1.0]])
    assert np.allclose(pi, expected, atol=1e-12)


@pytest.mark.parametrize("trial", range(10))
def test_oblique_projection_matches_constraint_solve(trial):
    # Oracle: solve the linear constraint system pi*A = A, pi*B = 0 directly.
    rng = np.random.default_rng(500 + trial)
    M, m = 5, 2
    A = rng.normal(size=(M, m))
    B = rng.normal(size=(M, M - m))
    pi = oblique_projection(A, B)
    basis = np.concatenate([A, B], axis=1)
    target = np.concatenate([A, np.zeros((M, M - m))], axis=1)
    pi_oracle = np.linalg.solve(basis.T, target.T).T
    assert np.max(np.abs(pi - pi_oracle)) <= 1e-9


def test_oblique_projection_degenerate_pair():
    A = np.array([[1.0], [0.0]])
    B = np.array([[1.0], [1e-13]])
    with pytest.raises(TransversalityError) as err:
        oblique_projection(A, B)
    assert err.value.condition > 1e10


# ----------------------------------------------------------------------
# Floquet decomposition


def test_floquet_exponents_stuart_landau():
    cycle = stuart_landau_cycle(SET1)
    mono = floquet_decompose(cycle)
    expos = np.sort(np.linalg.eigvals(mono.floquet_matrix).real)
    assert abs(expos[1]) <= 1e-6
    assert abs(expos[0] - (-2.0 * SET1.alpha)) <= 1e-6


def test_floquet_periodic_factor_starts_at_the_identity_exactly():
    # P(0) = Phi(0) exp(-B 0) = I @ I holds bit for bit, so no check is needed.
    mono = floquet_decompose(stuart_landau_cycle(SET1))
    assert np.array_equal(mono.periodic_samples[0], np.eye(2))


def test_floquet_rejects_double_unit_eigenvalue():
    with pytest.raises(HyperbolicityError):
        floquet_matrix_from_monodromy(np.eye(2), period=2 * np.pi)


def test_floquet_rejects_negative_real_eigenvalue():
    PhiT = np.diag([1.0, -0.5])
    with pytest.raises(NumericalError):
        floquet_matrix_from_monodromy(PhiT, period=1.0)


def vdp_field(mu=1.0):
    def fun(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], mu * (1 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]], axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = -2 * mu * x[..., 0] * x[..., 1] - 1.0
        out[..., 1, 1] = mu * (1 - x[..., 0] ** 2)
        return out

    return SmoothMap(fun, jac=jac)


def test_floquet_exponent_matches_divergence_average():
    # Liouville oracle: the exponent sum equals the time average of div F
    # along the orbit; with one exponent zero, the other is that average.
    mu = 1.0
    field = vdp_field(mu)
    cycle = find_limit_cycle(field, np.array([2.0, 0.0]), t_transient=60.0)
    mono = floquet_decompose(cycle)
    expos = np.linalg.eigvals(mono.floquet_matrix).real
    nontrivial = expos[np.argmax(np.abs(expos))]
    div = mu * (1 - cycle.samples[:-1, 0] ** 2)
    assert abs(nontrivial - div.mean()) <= 1e-4


# ----------------------------------------------------------------------
# cycle bundles


def test_cycle_bundle_matches_analytic_fibres():
    cycle = stuart_landau_cycle(SET1)
    mono = floquet_decompose(cycle)
    bundle = cycle_bundle(cycle, mono, K=4.0)
    assert np.allclose(np.linalg.eigvals(bundle.L).real, [-2.0], atol=1e-6)

    analytic = sl_bundle(SET1, K=4.0)
    grid = TorusGrid(1, (256,))
    Nn = grid.sample(bundle.N)[..., 0]
    Na = grid.sample(analytic.N)[..., 0]
    # Fibre frames may differ by an invertible 1x1 gauge factor; compare
    # the spanned subspaces through principal angles.
    dots = np.abs(np.sum(Nn * Na, axis=-1))
    norms = np.linalg.norm(Nn, axis=-1) * np.linalg.norm(Na, axis=-1)
    angles = np.arccos(np.clip(dots / norms, -1.0, 1.0))
    assert np.max(angles) <= 1e-6


def test_cycle_bundle_pde_residual_on_dense_grid():
    cycle = stuart_landau_cycle(SET1)
    mono = floquet_decompose(cycle)
    bundle = cycle_bundle(cycle, mono, K=4.0)
    diag = validate_bundle(bundle, F0=stuart_landau_field(SET1), grid=TorusGrid(1, (256,)))
    assert diag["pde_residual_rel"] <= 1e-8
    assert diag["spectral_gap"] > 1.9


def test_cycle_bundle_requires_full_fibre_rank():
    cycle = stuart_landau_cycle(SET1)
    mono = floquet_decompose(cycle)
    broken = type(mono).__new__(type(mono))
    broken.__dict__.update(mono.__dict__)
    broken.floquet_matrix = np.zeros((2, 2))
    with pytest.raises(HyperbolicityError):
        cycle_bundle(cycle, broken)


# ----------------------------------------------------------------------
# products and gauge freedom


def test_product_bundle_single_is_identity():
    b = sl_bundle(SET1)
    assert product_bundle([b]) is b


def test_product_bundle_three_oscillators():
    cfg = ChainConfig(1.0, 1.0, -1.0, 1.0, 1.0, 2.0, -1.0, -1.0)
    bundle = chain_bundle(cfg, K=8.0)
    assert np.allclose(bundle.omega, [2.0, 1.0, 2.0])
    assert np.allclose(bundle.L, np.diag([-2.0, -2.0, -2.0]))
    assert bundle.M == 6 and bundle.m == 3


@pytest.mark.parametrize("K", [4.0, 8.0, 12.0])
@pytest.mark.parametrize("preset", ["set1", "set2"])
def test_chain_product_passes_the_strict_bundle_check(preset, K):
    # chain_bundle checks only its circles; the product they form has to
    # pass the full check at the circles' tolerance.
    cfg = ChainConfig(**PRESETS[preset]["model"]["chain"])
    diag = validate_bundle(chain_bundle(cfg, K=K), F0=chain_model(cfg).F0, pde_tol=1e-10)
    assert diag["pde_residual_rel"] <= 1e-10


def test_product_bundle_eigenvalues_union():
    p = StuartLandauParams(1.0, 1.0, -1.0, 1.0)
    q = StuartLandauParams(0.5, 2.0, -2.0, 1.0)
    prod = product_bundle([sl_bundle(p), sl_bundle(q)])
    eigs = np.sort(np.linalg.eigvals(prod.L).real)
    expected = np.sort([p.floquet_exponent, q.floquet_exponent])
    assert np.allclose(eigs, expected, atol=1e-12)


def test_gauge_covariance_of_fibre_frame():
    # Replacing the frame N by N S conjugates L and leaves the projection
    # and the exponent spectrum untouched.
    cfg = ChainConfig(1.0, 1.0, -1.0, 1.0, 1.0, 2.0, -1.0, -1.0)
    bundle = chain_bundle(cfg, K=8.0)
    rng = np.random.default_rng(42)
    S = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    S_map = FourierMap.constant(3, S.astype(complex))
    N2 = matmul(bundle.N, S_map)
    L2 = np.linalg.solve(S, bundle.L @ S)
    from torusred.bundle import TorusBundle

    gauged = TorusBundle(bundle.e0, bundle.omega, N2, L2, bundle.pi)
    diag = validate_bundle(gauged, F0=chain_model(cfg).F0, pde_tol=1e-9)
    assert diag["pde_residual_rel"] <= 1e-9
    assert np.allclose(
        np.sort(np.linalg.eigvals(L2).real), np.sort(np.linalg.eigvals(bundle.L).real),
        atol=1e-9,
    )


def test_tangent_identity_residual():
    cfg = ChainConfig(1.0, 1.0, -1.0, 1.0, 1.0, 2.0, -1.0, -1.0)
    bundle = chain_bundle(cfg, K=8.0)
    res = tangent_identity_residual(bundle, chain_model(cfg).F0)
    assert res <= 1e-8


def test_limit_cycle_closure_guard():
    samples = np.zeros((16, 2))
    samples[:, 0] = np.linspace(0.0, 1.0, 16)
    with pytest.raises(NumericalError):
        LimitCycle(1.0, samples, stuart_landau_field(SET1))


def test_bundle_check_and_cycle_require_their_field():
    with pytest.raises(TypeError):
        validate_bundle(sl_bundle(SET1))
    cycle = stuart_landau_cycle(SET1)
    with pytest.raises(TypeError):
        LimitCycle(cycle.period, cycle.samples)
