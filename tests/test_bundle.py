import tracemalloc
from functools import partial

import numpy as np
import pytest

import torusred.bundle as bundle_module
from torusred.bundle import (
    COND_THRESHOLD,
    LimitCycle,
    TorusBundle,
    _fill,
    _hyperbolic_gap,
    _own_samples,
    _sample_bundle,
    _worst_condition,
    cycle_bundle,
    product_bundle,
    validate_bundle,
)
from torusred.cli import PRESETS
from torusred.errors import (HyperbolicityError, InvarianceError, NumericalError,
                             TransversalityError, TruncationSaturationError)
from torusred.fourier import FourierMap, SmoothMap, TorusGrid, d_omega, matmul, spectral_grid
from torusred.models import (
    ChainConfig,
    OscillatorModel,
    StuartLandauParams,
    chain_bundle,
    chain_model,
    sl_bundle,
    stuart_landau_cycle,
    stuart_landau_field,
)
from torusred.reduction import order_forcing, phase_reduce, solve_normal, split_forcing

SET1 = StuartLandauParams(1.0, 1.0, -1.0, 1.0)


# ----------------------------------------------------------------------
# the split of a forcing in the frame [e0' | N]


def test_oblique_projection_orthogonal_case():
    # With the tangent and fibre along the coordinate axes, the split
    # reads off the two coordinates of the forcing.
    G = np.array([[0.3, -1.7], [2.0, 0.5]])
    E = np.broadcast_to(np.array([[1.0], [0.0]]), (2, 2, 1))
    Nv = np.broadcast_to(np.array([[0.0], [1.0]]), (2, 2, 1))
    U, V = split_forcing(G, (E, Nv))
    assert np.allclose(U[:, 0], G[:, 0], atol=1e-14)
    assert np.allclose(V[:, 0], G[:, 1], atol=1e-14)


def test_split_forcing_stuart_landau_at_zero():
    # Tangent direction i, fibre direction gamma + i*delta: x + iy splits
    # into U = y - (delta/gamma) x along the tangent and V = x/gamma along
    # the fibre.
    g, d = SET1.gamma, SET1.delta
    rng = np.random.default_rng(11)
    G = rng.normal(size=(16, 2))
    E = np.broadcast_to(np.array([[0.0], [1.0]]), (16, 2, 1))
    Nv = np.broadcast_to(np.array([[g], [d]]), (16, 2, 1))
    U, V = split_forcing(G, (E, Nv))
    x, y = G[:, 0], G[:, 1]
    assert np.allclose(U[:, 0], y - (d / g) * x, atol=1e-12)
    assert np.allclose(V[:, 0], x / g, atol=1e-12)


@pytest.mark.parametrize("trial", range(10))
def test_oblique_projection_matches_constraint_solve(trial):
    # Oracle: the oblique projection pi onto span A along span B, solved
    # from the constraints pi*A = A, pi*B = 0; the split must give
    # A U = pi G and B V = (I - pi) G.
    rng = np.random.default_rng(500 + trial)
    M, m = 5, 2
    A = rng.normal(size=(M, m))
    B = rng.normal(size=(M, M - m))
    basis = np.concatenate([A, B], axis=1)
    target = np.concatenate([A, np.zeros((M, M - m))], axis=1)
    pi_oracle = np.linalg.solve(basis.T, target.T).T
    G = rng.normal(size=(8, M))
    U, V = split_forcing(G, (np.broadcast_to(A, (8, M, m)), np.broadcast_to(B, (8, M, M - m))))
    assert np.max(np.abs(U @ A.T - G @ pi_oracle.T)) <= 1e-9
    assert np.max(np.abs(V @ B.T - G @ (np.eye(M) - pi_oracle).T)) <= 1e-9


# ----------------------------------------------------------------------
# Floquet data of cycles solved in collocation


def exponents(bundle):
    """The cycle's Floquet exponents, the neutral one included, in ascending order."""
    return np.sort([bundle.diagnostics["neutral_exponent"], *np.linalg.eigvals(bundle.L).real])


def unit_circle(field, dim, w=1.0):
    """The unit circle in the first two coordinates, run at angular speed ``w``."""
    value = np.zeros(dim, dtype=complex)
    value[:2] = 0.5, -0.5j
    return LimitCycle(FourierMap.harmonic(1, (1,), value), w, field)


def twisted_field(s, j):
    """``theta' = 1``, and ``(r, z)' = (-1.5 I + s S(theta) + j J) (r, z)`` to first order.

    ``r = (x^2 + y^2 - 1) / 2`` measures the distance from the unit circle,
    ``S(theta)`` is the reflection ``[[cos, sin], [sin, -cos]]`` and ``J``
    the quarter turn.  The reflection turns the fibres half a turn per
    period: at ``s = j = 1/2`` the multipliers are ``-e^{-2 pi}`` and
    ``-e^{-4 pi}``, a Mobius band.  At ``s = 0`` the exponents are
    ``-1.5 +- i j``.
    """
    def parts(x):
        X, Y, Z = (np.asarray(x, dtype=float)[..., i] for i in range(3))
        r = 0.5 * (X * X + Y * Y - 1)
        return X, Y, Z, r, (-1.5 + s * X) * r + (s * Y - j) * Z

    def fun(x):
        X, Y, Z, r, a = parts(x)
        return np.stack([-Y + X * a, X + Y * a, (s * Y + j) * r + (-1.5 - s * X) * Z], axis=-1)

    def jac(x):
        X, Y, Z, r, a = parts(x)
        ax, ay, az = s * r + (-1.5 + s * X) * X, (-1.5 + s * X) * Y + s * Z, s * Y - j
        rows = [[a + X * ax, -1 + X * ay, X * az], [1 + Y * ax, a + Y * ay, Y * az],
                [(s * Y + j) * X - s * Z, s * r + (s * Y + j) * Y, -1.5 - s * X]]
        return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=-2)

    return SmoothMap(fun, jac=jac)


def test_twisted_field_jacobian_matches_finite_differences():
    x, h = np.array([0.7, 0.4, 0.2]), 1e-6
    for s, j in ((0.5, 0.5), (0.0, 0.3)):
        field = twisted_field(s, j)
        fd = np.stack([(field.fun(x + h * e) - field.fun(x - h * e)) / (2 * h)
                       for e in np.eye(3)], axis=-1)
        assert np.max(np.abs(fd - field.jac(x))) <= 1e-8


def test_floquet_exponents_stuart_landau():
    expos = exponents(cycle_bundle(stuart_landau_cycle(SET1), K=4.0))
    assert abs(expos[1]) <= 1e-6
    assert abs(expos[0] - (-2.0 * SET1.alpha)) <= 1e-6


def test_cycle_bundle_keeps_the_sign_of_a_clockwise_frequency():
    p = StuartLandauParams(1.0, -3.0, -1.0, 1.0)
    bundle = cycle_bundle(stuart_landau_cycle(p), K=8.0)
    assert p.frequency == -2.0
    assert np.allclose(bundle.omega, [p.frequency], rtol=0.0, atol=1e-12)


def test_floquet_rejects_double_unit_eigenvalue():
    # Every circle of the harmonic oscillator is periodic: its monodromy is
    # the identity, so two exponents vanish.  The start solves the
    # collocation equations already, so the spectrum is read before any
    # (singular) Newton step.
    def jac(x):
        return np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0]]), x.shape + (2,))

    field = SmoothMap(lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1), jac=jac)
    with pytest.raises(HyperbolicityError):
        cycle_bundle(unit_circle(field, 2), K=8.0)


def test_floquet_rejects_negative_real_eigenvalue():
    # The Mobius band has no real fibre frame on a single cover.
    with pytest.raises(NumericalError):
        cycle_bundle(unit_circle(twisted_field(0.5, 0.5), 3), K=8.0)


def test_cycle_bundle_rejects_a_start_far_off_the_cycle():
    # The phase is anchored on the section through the start's first node,
    # orthogonal to the flow there; from a circle of radius 3 that section
    # misses the unit cycle, so Newton cannot converge.
    orbit = FourierMap.harmonic(1, (1,), np.array([1.5, -1.5j]))
    start = LimitCycle(orbit, SET1.frequency, stuart_landau_field(SET1))
    with pytest.raises(NumericalError, match="Newton does not converge"):
        cycle_bundle(start, K=8.0)


def test_cycle_bundle_builds_a_real_frame_from_a_conjugate_pair():
    bundle = cycle_bundle(unit_circle(twisted_field(0.0, 0.3), 3), K=8.0)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(bundle.L)), [-1.5 - 0.3j, -1.5 + 0.3j],
                       atol=1e-12)
    assert abs(bundle.diagnostics["neutral_exponent"]) <= 1e-12
    assert np.allclose(np.linalg.norm(bundle.N.eval(np.zeros(1)), axis=0), 1.0, atol=1e-12)


def vdp_field(mu=1.0):
    """``x' = y, y' = mu (1 - x^2) y - x``, with derivatives to order 4 (``d4`` vanishes)."""
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

    def d1(x, v):
        return (jac(x) @ v[..., None])[..., 0]

    def in_y(s):
        return np.stack([np.zeros_like(s), s], axis=-1)

    def d2(x, u, v):
        return in_y(-2 * mu * (x[..., 1] * u[..., 0] * v[..., 0]
                               + x[..., 0] * (u[..., 0] * v[..., 1] + u[..., 1] * v[..., 0])))

    def d3(x, u, v, w):
        return in_y(-2 * mu * (u[..., 0] * v[..., 0] * w[..., 1] + u[..., 0] * v[..., 1] * w[..., 0]
                               + u[..., 1] * v[..., 0] * w[..., 0]))

    def d4(x, *vs):
        return np.zeros_like(np.asarray(x, dtype=float))

    return SmoothMap(fun, derivs=(d1, d2, d3, d4), jac=jac)


def vdp_start(mu):
    """The harmonic start ``x = 2 cos(phi)``, ``y = x'``, at frequency 1."""
    return LimitCycle(FourierMap.harmonic(1, (1,), np.array([1.0, 1.0j])), 1.0, vdp_field(mu))


@pytest.fixture(scope="module")
def vdp_bundle():
    return cycle_bundle(vdp_start(1.0), K=48.0)


def test_floquet_exponent_matches_divergence_average(vdp_bundle):
    # Liouville oracle: the exponent sum equals the time average of div F
    # along the orbit; with one exponent zero, the other is that average.
    # The phase runs at a constant rate, so the time average is the phase average.
    mu = 1.0
    nontrivial = exponents(vdp_bundle)[0]
    div = mu * (1 - TorusGrid(1, (256,)).sample(vdp_bundle.e0)[:, 0] ** 2)
    assert abs(nontrivial - div.mean()) <= 1e-4


def test_van_der_pol_exponent_matches_the_variational_value(vdp_bundle):
    # -1.0593769948 is the exponent of the RK4 variational (monodromy) route.
    assert abs(exponents(vdp_bundle)[0] - (-1.0593769948)) <= 1e-9
    assert vdp_bundle.diagnostics["nodes"] == 145 and vdp_bundle.diagnostics["tail_mass"] <= 1e-9


def test_undersized_node_count_is_rejected_by_the_tail_check(monkeypatch):
    # At K = 16 the cycle is solved on 49 nodes.  Newton converges there, but
    # 1.5e-6 of the mass sits on the two outermost shells: the residual
    # cannot see truncation, the tail can, and one solve decides.
    solve, nodes = bundle_module._solve_cycle, []

    def spy(field, X, omega):
        nodes.append(len(X))
        return solve(field, X, omega)

    monkeypatch.setattr(bundle_module, "_solve_cycle", spy)
    with pytest.raises(TruncationSaturationError, match="'cycle'.*raise K") as err:
        cycle_bundle(vdp_start(1.0), K=16.0)
    assert nodes == [49]
    assert err.value.K == 16.0 and err.value.shell_mass > bundle_module.SATURATION_TOL


def test_harmonic_start_diverges_on_the_relaxation_cycle():
    with pytest.raises(NumericalError, match="Newton does not converge"):
        cycle_bundle(vdp_start(2.0), K=96.0)


def test_continuation_in_mu_reaches_the_relaxation_cycle():
    # The mu = 1 bundle starts mu = 2, which the harmonic start misses.
    b1 = cycle_bundle(vdp_start(1.0), K=96.0)
    b2 = cycle_bundle(LimitCycle(b1.e0, b1.omega[0], vdp_field(2.0)), K=96.0)
    for mu, b in ((1.0, b1), (2.0, b2)):
        assert b.diagnostics["newton_iterations"] <= bundle_module.NEWTON_STEPS
        assert validate_bundle(b, vdp_field(mu))["pde_residual_rel"] <= 1e-8


def test_continued_start_still_asks_to_raise_K():
    # The relaxation cycle at mu = 2 has more harmonics than K = 64 keeps.
    b1 = cycle_bundle(vdp_start(1.0), K=64.0)
    start = LimitCycle(b1.e0, b1.omega[0], vdp_field(2.0))
    with pytest.raises(TruncationSaturationError, match="'cycle'.*raise K") as err:
        cycle_bundle(start, K=64.0)
    assert err.value.K == 64.0 and err.value.shell_mass > 1e-8


@pytest.mark.parametrize("mu,K", [(1.0, 24.0), (1.0, 32.0), (1.0, 40.0), (0.3, 16.0),
                                  (0.3, 20.0)])
def test_cycle_truncated_below_its_harmonics_asks_to_raise_K(mu, K):
    # The node values solve both invariance equations; the series cut to K
    # does not, and the harmonics it drops are the one cause.
    with pytest.raises(TruncationSaturationError, match="'cycle'.*raise K") as err:
        cycle_bundle(vdp_start(mu), K=K)
    assert err.value.K == K and err.value.shell_mass > 1e-8


@pytest.mark.parametrize("mu,K", [(1.0, 44.0), (0.3, 24.0)])
def test_cycle_truncated_past_its_harmonics_passes(mu, K):
    bundle = cycle_bundle(vdp_start(mu), K=K)
    assert bundle.diagnostics["pde_residual_rel"] <= 1e-8


# ----------------------------------------------------------------------
# cycle bundles


def test_cycle_bundle_matches_analytic_fibres():
    cycle = stuart_landau_cycle(SET1)
    bundle = cycle_bundle(cycle, K=4.0)
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
    bundle = cycle_bundle(cycle, K=4.0)
    diag = validate_bundle(bundle, F0=stuart_landau_field(SET1), grid=TorusGrid(1, (256,)))
    assert diag["pde_residual_rel"] <= 1e-8
    assert diag["spectral_gap"] > 1.9


def test_cycle_bundle_requires_full_fibre_rank():
    # A neutral direction transverse to the cycle leaves the fibres one short.
    sl = stuart_landau_field(SET1)

    def fun(x):
        return np.concatenate([sl.fun(x[..., :2]), np.zeros_like(x[..., 2:])], axis=-1)

    def jac(x):
        out = np.zeros(x.shape + (3,))
        out[..., :2, :2] = sl.jac(x[..., :2])
        return out

    with pytest.raises(HyperbolicityError):
        cycle_bundle(unit_circle(SmoothMap(fun, jac=jac), 3, w=SET1.frequency), K=8.0)


# ----------------------------------------------------------------------
# products and gauge freedom


def test_product_bundle_single_is_identity():
    b = sl_bundle(SET1, K=4.0)
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
    prod = product_bundle([sl_bundle(p, K=4.0), sl_bundle(q, K=4.0)])
    eigs = np.sort(np.linalg.eigvals(prod.L).real)
    expected = np.sort([p.floquet_exponent, q.floquet_exponent])
    assert np.allclose(eigs, expected, atol=1e-12)


# ----------------------------------------------------------------------
# a product's check, read through its factors


def without_factors(p):
    """The product ``p`` rebuilt as a plain bundle: the check's per-node path."""
    return TorusBundle(p.e0, p.omega, p.N, p.L)


def chain_case(preset, K, scale=1.0, shape=None):
    """The preset chain's product at ``K``, its middle ``b`` and ``d`` scaled, a grid and ``F0``."""
    doc = dict(PRESETS[preset]["model"]["chain"])
    doc["b"], doc["d"] = scale * doc["b"], scale * doc["d"]
    grid = spectral_grid(3, K) if shape is None else TorusGrid(3, shape)
    cfg = ChainConfig(**doc)
    return chain_bundle(cfg, K=K), grid, chain_model(cfg).F0


def spectral_case(preset):
    """The preset chain's product of circles solved in collocation at K = 8, its grid and ``F0``."""
    cfg = ChainConfig(**PRESETS[preset]["model"]["chain"])
    outer = cycle_bundle(stuart_landau_cycle(cfg.outer), K=8.0)
    middle = cycle_bundle(stuart_landau_cycle(cfg.middle), K=8.0)
    return product_bundle([outer, middle, outer]), spectral_grid(3, 8.0), chain_model(cfg).F0


def vdp_pair_case():
    """Two mu = 0.3 van der Pol cycles, odd harmonics to |k| = 27, their 97^2 grid and field."""
    cycle = cycle_bundle(vdp_start(0.3), K=32.0)
    field = vdp_field(0.3)
    return product_bundle([cycle, cycle]), spectral_grid(2, 32.0), pair_field(field, field)


PRODUCT_CASES = {
    **{f"{preset}-K{K:g}": partial(chain_case, preset, K)
       for preset in ("set1", "set2") for K in (4.0, 8.0, 12.0)},
    "set1-middle+5%": partial(chain_case, "set1", 8.0, 1.05),
    "set1-middle-5%": partial(chain_case, "set1", 8.0, 0.95),
    "set1-grid-13x15x17": partial(chain_case, "set1", 4.0, shape=(13, 15, 17)),
    "set1-spectral": partial(spectral_case, "set1"),
    "set2-spectral": partial(spectral_case, "set2"),
    "vdp-pair": vdp_pair_case,
}


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_a_product_is_checked_through_its_factors_as_on_its_full_grid(case):
    # Oracle: the product's own series sampled on the full grid, and one SVD
    # of [e0' | N] per node of it.
    p, grid, _ = PRODUCT_CASES[case]()
    samples, frames = _sample_bundle(p, grid)
    series = p.e0, p.e0.jacobian(), p.N, d_omega(p.N, p.omega)
    for got, f in zip(samples, series, strict=True):
        want = grid.sample(f)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # Each factor's frame, and so its SVDs, lies on the factor's own axes only.
    axes = np.split(np.arange(p.m), np.cumsum([b.m for b in p.factors]))
    assert [E.shape + Nv.shape[-1:] for E, Nv in frames] == [
        tuple(np.take(grid.shape, a)) + (b.M, b.m, b.M - b.m) for b, a in zip(p.factors, axes)]
    E, Nv = samples[1], samples[2]
    oracle = float(np.max(np.linalg.cond(np.concatenate([E, Nv], axis=-1))))
    assert abs(_worst_condition(frames) - oracle) <= 1e-12 * oracle
    assert _worst_condition(_sample_bundle(without_factors(p), grid)[1]) == oracle


def test_a_product_reduces_to_the_bits_of_its_rebuild_without_factors():
    cfg = ChainConfig(**PRESETS["set1"]["model"]["chain"])
    model, p = chain_model(cfg), chain_bundle(cfg, K=8.0)
    docs = [phase_reduce(model, b, order=2, K_nf=6.0).to_json_dict()
            for b in (p, without_factors(p))]
    assert docs[0] == docs[1]


def whole_grid_check(bundle, F0, grid):
    """The bundle check with every sample, ``F0``'s Jacobian and the residuals on the whole grid."""
    (X, E, Nv, lhs), frames = _sample_bundle(bundle, grid)
    max_cond = _worst_condition(frames)
    if not np.isfinite(max_cond) or max_cond > COND_THRESHOLD:
        raise TransversalityError("tangent and fibre frames degenerate on the grid", max_cond)
    gap = _hyperbolic_gap(bundle.L)
    n_scale = max(1.0, float(np.max(np.abs(Nv))))
    lhs += Nv @ bundle.L
    J = F0.jac(X)
    pde_rel = float(np.max(np.abs(lhs - J @ Nv))) / n_scale
    F = F0.fun(X)
    torus_rel = float(np.max(np.abs(E @ bundle.omega - F))) / max(1.0, float(np.max(np.abs(F))))
    if not torus_rel <= 1e-8:
        raise InvarianceError("torus", torus_rel)
    if not pde_rel <= 1e-8:
        raise InvarianceError("fibre", pde_rel)
    return {"max_condition": max_cond, "spectral_gap": gap, "pde_residual_rel": pde_rel}


@pytest.mark.parametrize("rebuild", [False, True], ids=["product", "without-factors"])
@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_the_slab_wise_check_equals_the_whole_grid_check(case, rebuild):
    p, grid, F0 = PRODUCT_CASES[case]()
    b = without_factors(p) if rebuild else p
    assert validate_bundle(b, F0, grid) == whole_grid_check(b, F0, grid)


@pytest.mark.parametrize("circle", ["stuart-landau", "van-der-pol"])
def test_the_check_of_a_circle_equals_the_whole_grid_check(circle, vdp_bundle):
    b, F0 = ((sl_bundle(SET1, K=4.0), stuart_landau_field(SET1)) if circle == "stuart-landau"
             else (vdp_bundle, vdp_field(1.0)))
    grid = spectral_grid(1, b.K)
    assert validate_bundle(b, F0, grid) == whole_grid_check(b, F0, grid)


def nan_at(f, x0):
    """``f`` with NaN values at the point ``x0``; ``hits`` counts the points it spoiled."""
    def spoiled(x):
        out = np.array(f(x), dtype=float)
        at = np.all(x == x0, axis=-1)
        out[at] = np.nan
        spoiled.hits += int(np.count_nonzero(at))
        return out

    spoiled.hits = 0
    return spoiled


@pytest.mark.parametrize("rebuild", [False, True], ids=["product", "without-factors"])
@pytest.mark.parametrize("broken,what", [("fun", "torus"), ("jac", "fibre")])
def test_the_check_fails_closed_on_one_nan_node_inside_the_grid(broken, what, rebuild):
    # One node of slab 11 of 25, neither the first slab nor the last: a NaN
    # there has to survive the reduction of the slabs' maxima.
    p, grid, F0 = chain_case("set1", 8.0)
    x0 = grid.sample(p.e0)[11, 4, 17]
    parts = {"fun": F0.fun, "jac": F0.jac}
    parts[broken] = nan_at(parts[broken], x0)
    field = SmoothMap(parts["fun"], F0.derivs, jac=parts["jac"], degree=F0.degree)
    with pytest.raises(InvarianceError, match=f"{what} invariance"):
        validate_bundle(without_factors(p) if rebuild else p, field, grid)
    assert parts[broken].hits == 1


def test_a_wrong_torus_is_named_before_fibres_that_fail_on_the_first_slab():
    # Every circle scaled off its cycle, and every L doubled: the fibre
    # residual fails on slab 0 already, but the torus is wrong on every
    # slab, and the torus is named first.
    cfg = ChainConfig(**PRESETS["set1"]["model"]["chain"])
    F0, grid = chain_model(cfg).F0, spectral_grid(3, 8.0)
    circles = [sl_bundle(q, K=8.0) for q in (cfg.outer, cfg.middle, cfg.outer)]
    doubled = product_bundle([TorusBundle(b.e0, b.omega, b.N, 2.0 * b.L) for b in circles])
    X, _, Nv, dN = _fill(doubled, _own_samples(doubled, grid), slice(0, 1))
    fibre0 = np.max(np.abs(dN + Nv @ doubled.L - F0.jac(X) @ Nv)) / max(1.0, np.max(np.abs(Nv)))
    assert fibre0 > 1e-8
    with pytest.raises(InvarianceError, match="fibre invariance"):
        validate_bundle(doubled, F0, grid)
    both = product_bundle([TorusBundle(b.e0.scale(1.05), b.omega, b.N, 2.0 * b.L)
                           for b in circles])
    with pytest.raises(InvarianceError, match="torus invariance"):
        validate_bundle(both, F0, grid)


def test_the_check_of_a_chain_holds_no_grid_sized_stack():
    # The set-1 chain at K = 12 on its 37^3 check grid: the whole-grid check
    # held four samples, F0's (n^3, 6, 6) Jacobian and two products of it.
    p, grid, F0 = chain_case("set1", 12.0)
    assert grid.shape == (37, 37, 37)
    tracemalloc.start()
    try:
        validate_bundle(p, F0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.size * p.M * p.M * 8  # one float64 (n^3, M, M) stack: 14.6 MB


def scaled_field(field, s):
    """``x -> s F(x / s)``: its cycles and fibres are those of ``F`` times ``s``."""
    return SmoothMap(lambda x: s * field.fun(x / s), jac=lambda x: field.jac(x / s))


def pair_field(f, g):
    """``f`` on the first two coordinates and ``g`` on the last two, uncoupled."""
    def fun(x):
        return np.concatenate([f.fun(x[..., :2]), g.fun(x[..., 2:])], axis=-1)

    def jac(x):
        out = np.zeros(np.shape(x)[:-1] + (4, 4))
        out[..., :2, :2], out[..., 2:, 2:] = f.jac(x[..., :2]), g.jac(x[..., 2:])
        return out

    return SmoothMap(fun, jac=jac)


@pytest.mark.parametrize("rebuild", [False, True], ids=["product", "without-factors"])
def test_a_factor_with_fibres_along_its_tangent_trips_the_transversality_guard(rebuild):
    cfg = ChainConfig(**PRESETS["set1"]["model"]["chain"])
    outer, middle = sl_bundle(cfg.outer, K=8.0), sl_bundle(cfg.middle, K=8.0)
    bad = TorusBundle(middle.e0, middle.omega, middle.e0.jacobian(), middle.L)
    p = product_bundle([outer, bad, outer])
    with pytest.raises(TransversalityError, match="frames degenerate"):
        validate_bundle(without_factors(p) if rebuild else p, chain_model(cfg).F0)


@pytest.mark.parametrize("rebuild", [False, True], ids=["product", "without-factors"])
def test_circles_conditioned_apart_trip_the_transversality_guard(rebuild):
    # Each circle's frame has condition number 2.618 (the golden ratio
    # squared), but one circle is 1e-11 the size of the other: the largest
    # singular value of the one over the smallest of the other reads 2.618e11.
    field, s = stuart_landau_field(SET1), 1e-11
    b = sl_bundle(SET1, K=4.0)
    small = TorusBundle(b.e0.scale(s), b.omega, b.N.scale(s), b.L)
    small_field = scaled_field(field, s)
    assert validate_bundle(b, field)["max_condition"] <= 2.62
    assert validate_bundle(small, small_field)["max_condition"] <= 2.62
    p = product_bundle([b, small])
    with pytest.raises(TransversalityError, match=r"condition number 2\.618e\+11"):
        validate_bundle(without_factors(p) if rebuild else p, pair_field(field, small_field))


@pytest.mark.parametrize("product", [False, True], ids=["circle", "product"])
def test_a_non_finite_frame_trips_the_transversality_guard(product):
    # An SVD of a NaN frame does not converge; the guard names the frame instead.
    field, b = stuart_landau_field(SET1), sl_bundle(SET1, K=4.0)
    values = b.N.values.copy()
    values[0, 0, 0] = np.nan
    bad = TorusBundle(b.e0, b.omega, FourierMap(1, b.N.K, (b.N.keys, values), (2, 1)), b.L)
    if product:
        bad, field = product_bundle([b, bad]), pair_field(field, field)
    with pytest.raises(TransversalityError, match="condition number nan"):
        validate_bundle(bad, field)


def test_gauge_covariance_of_fibre_frame():
    # Replacing the frame N by N S conjugates L, leaves the exponent
    # spectrum and the tangential part of a split untouched, and maps the
    # normal part V to S^{-1} V.
    cfg = ChainConfig(1.0, 1.0, -1.0, 1.0, 1.0, 2.0, -1.0, -1.0)
    model, bundle = chain_model(cfg), chain_bundle(cfg, K=8.0)
    rng = np.random.default_rng(42)
    S = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    N2 = matmul(bundle.N, FourierMap.constant(3, S.astype(complex)), K=8.0)
    L2 = np.linalg.solve(S, bundle.L @ S)
    gauged = TorusBundle(bundle.e0, bundle.omega, N2, L2)
    diag = validate_bundle(gauged, F0=model.F0, pde_tol=1e-9)
    assert diag["pde_residual_rel"] <= 1e-9
    assert np.allclose(
        np.sort(np.linalg.eigvals(L2).real), np.sort(np.linalg.eigvals(bundle.L).real),
        atol=1e-9,
    )
    grid = spectral_grid(3, 8.0)
    Gv = grid.sample(order_forcing(1, model, [bundle.e0], [], 8.0, grid))
    E = grid.sample(bundle.e0.jacobian())
    U, V = split_forcing(Gv, (E, grid.sample(bundle.N)))
    U2, V2 = split_forcing(Gv, (E, grid.sample(N2)))
    assert np.max(np.abs(U2 - U)) <= 1e-13 * np.max(np.abs(U))
    V_gauged = np.linalg.solve(S, V[..., None])[..., 0]
    assert np.max(np.abs(V2 - V_gauged)) <= 1e-13 * np.max(np.abs(V))


def test_torus_bundle_rejects_fibre_data_of_the_wrong_shape():
    # One fibre column short, with L cut to match: the frame [e0' | N] is
    # not square, so no split of the forcing exists.
    b = chain_bundle(ChainConfig(1.0, 1.0, -1.0, 1.0, 1.0, 2.0, -1.0, -1.0), K=8.0)
    short = FourierMap(b.m, b.N.K, (b.N.keys, b.N.values[..., :2]), (6, 2))
    with pytest.raises(ValueError, match="fibre data of shapes"):
        TorusBundle(b.e0, b.omega, short, b.L[:2, :2])
    with pytest.raises(ValueError, match="fibre data of shapes"):
        TorusBundle(b.e0, b.omega, b.N, b.L[:2, :2])


def test_bundle_check_and_cycle_require_their_field():
    with pytest.raises(TypeError):
        validate_bundle(sl_bundle(SET1, K=4.0))
    cycle = stuart_landau_cycle(SET1)
    with pytest.raises(TypeError):
        LimitCycle(cycle.orbit, cycle.omega)
    with pytest.raises(ValueError, match="Jacobian"):
        cycle_bundle(cycle._replace(field=SmoothMap(cycle.field.fun)), K=8.0)
    # A field without a Jacobian is named, by the check and by a reduction it starts.
    bare = SmoothMap(cycle.field.fun, cycle.field.derivs, degree=cycle.field.degree)
    with pytest.raises(ValueError, match="must carry a Jacobian evaluator"):
        validate_bundle(sl_bundle(SET1, K=4.0), bare)
    model = OscillatorModel(dims=[2], F0=bare, perturbations=[], omega=[SET1.frequency])
    with pytest.raises(ValueError, match="must carry a Jacobian evaluator"):
        phase_reduce(model, sl_bundle(SET1, K=4.0), order=1)


@pytest.mark.parametrize("broken,what", [("fun", "torus"), ("jac", "fibre")])
def test_bundle_check_fails_closed_on_a_nan_field(broken, what):
    # A NaN residual compares false against any tolerance; it must still fail.
    field = stuart_landau_field(SET1)
    parts = {"fun": field.fun, "jac": field.jac}
    good = parts[broken]
    parts[broken] = lambda x: np.full_like(good(x), np.nan)
    nan_field = SmoothMap(parts["fun"], field.derivs, jac=parts["jac"], degree=field.degree)
    with pytest.raises(InvarianceError, match=f"{what} invariance"):
        validate_bundle(sl_bundle(SET1, K=4.0), nan_field)


def test_a_nan_floquet_matrix_is_not_hyperbolic():
    b = sl_bundle(SET1, K=4.0)
    nan_L = TorusBundle(b.e0, b.omega, b.N, np.full_like(b.L, np.nan))
    with pytest.raises(HyperbolicityError, match="not hyperbolic"):
        validate_bundle(nan_L, stuart_landau_field(SET1))
    with pytest.raises(HyperbolicityError, match="not hyperbolic"):
        solve_normal(FourierMap.constant(1, np.array([1.0 + 0j])), b.omega, nan_L.L)
