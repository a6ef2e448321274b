import tracemalloc
from functools import partial

import numpy as np
import pytest
import test_vdp_pair as vdp
from test_bundle import vdp_start, without_factors
from test_fourier import dense_sample

from torusred import reduction
from torusred.bundle import (
    TorusBundle,
    cycle_bundle,
    product_bundle,
    validate_bundle,
)
from torusred.cli import check_residual_scaling, check_slow_law
from torusred.errors import (
    AliasingError,
    SmallDivisorError,
    TransversalityError,
    TruncationSaturationError,
)
from torusred.fourier import (
    FourierMap,
    SmoothMap,
    TorusGrid,
    d_omega,
    matmul,
    spectral_grid,
)
from torusred.models import (
    ChainConfig,
    OscillatorModel,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    chain_slow_law,
    stuart_landau_cycle,
)
from torusred.reduction import (
    conjugacy_residual,
    order_forcing,
    phase_difference_field,
    phase_reduce,
    reduction_grid,
    solve_normal,
    solve_tangential,
    split_forcing,
)

SET1 = dict(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0, a=1.0, b=2.0, c=-1.0, d=-1.0)
SET2 = dict(alpha=1.0, beta=0.1, gamma=-1.0, delta=1.0, a=1.0, b=6.0, c=-1.0, d=-1.0)


@pytest.fixture(scope="module")
def chain():
    cfg = ChainConfig(**SET1)
    return cfg, chain_model(cfg), chain_bundle(cfg, K=8.0)


@pytest.fixture(scope="module")
def reduced(chain):
    cfg, model, bundle = chain
    return phase_reduce(model, bundle, order=2, K_nf=6.0)


def first_forcing(model, bundle, K=8.0):
    """The order-1 forcing on the grid of radius ``K``."""
    grid = spectral_grid(bundle.m, K)
    return order_forcing(1, model, [bundle.e0], [], [grid.sample(bundle.e0)], K, grid)


def combo_harmonic(m, k, coeff_sin, coeff_cos, component, p):
    """Map whose `component` is coeff_sin*sin(<k,phi>) + coeff_cos*cos(<k,phi>)."""
    c = np.zeros(p, dtype=complex)
    c[component] = coeff_cos / 2.0 + coeff_sin / 2j
    return FourierMap.harmonic(m, k, c)


# ----------------------------------------------------------------------
# forcing terms


def test_first_order_forcing_is_coupling_on_torus(chain):
    cfg, model, bundle = chain
    G1 = first_forcing(model, bundle)
    R1, R2 = cfg.outer.radius, cfg.middle.radius
    expected = (
        FourierMap.harmonic(3, (0, 1, 0), np.array([R2 / 2, -1j * R2 / 2, 0, 0, 0, 0]))
        + FourierMap.harmonic(3, (1, 0, 0), np.array([0, 0, R1 / 2, -1j * R1 / 2, 0, 0]))
        + FourierMap.harmonic(3, (0, 1, 0), np.array([0, 0, 0, 0, R2 / 2, -1j * R2 / 2]))
    )
    assert (G1 - expected).norm() <= 1e-12


def test_unperturbed_model_reduces_to_zero(chain):
    cfg, model, bundle = chain
    bare = OscillatorModel(dims=model.dims, F0=model.F0, perturbations=[],
                           omega=model.omega)
    res = phase_reduce(bare, bundle, order=2, K_nf=6.0)
    for j in range(2):
        assert res.phase_terms[j].norm() == 0.0
        assert res.embedding_terms[j].norm() == 0.0


def test_second_order_forcing_matches_conjugacy_finite_difference(chain, reduced):
    # Oracle: the forcing at order 2 is minus half the second eps-derivative
    # of the conjugacy defect of the order-1 partial sums.
    cfg, model, bundle = chain
    res = reduced
    grid = spectral_grid(3, 8.0)
    e0v = grid.sample(bundle.e0)
    e1v = grid.sample(res.embedding_terms[0])
    E0 = grid.sample(bundle.e0.jacobian())
    E1 = grid.sample(res.embedding_terms[0].jacobian())
    f1v = grid.sample(res.phase_terms[0])
    wv = np.broadcast_to(bundle.omega, f1v.shape)

    def defect(eps):
        ev = e0v + eps * e1v
        Ev = E0 + eps * E1
        fv = wv + eps * f1v
        return (Ev @ fv[..., None])[..., 0] - model.rhs(ev, eps)

    h = 1e-4
    fd2 = (defect(h) - 2 * defect(0.0) + defect(-h)) / h ** 2
    G2 = order_forcing(2, model, [bundle.e0, res.embedding_terms[0]],
                       [res.phase_terms[0]], [e0v, e1v], 8.0, grid)
    assert np.max(np.abs(grid.sample(G2) + 0.5 * fd2)) <= 1e-5


# ----------------------------------------------------------------------
# splitting


def split(G, bundle, F0):
    grid = spectral_grid(G.m, G.K)
    validate_bundle(bundle, F0, grid=grid)
    frames = grid.sample(bundle.e0.jacobian()), grid.sample(bundle.N)
    U_vals, V_vals = split_forcing(grid.sample(G), frames)
    return grid.project(U_vals, G.K), grid.project(V_vals, G.K)


def test_split_recovers_tangential_input(chain):
    cfg, model, bundle = chain
    u = FourierMap.harmonic(3, (0, 1, -1), np.array([0.3 + 0.1j, 0.0, -0.2j]), K=8.0)
    G = matmul(bundle.e0.jacobian(), u, K=8.0)
    U, V = split(G, bundle, model.F0)
    assert V.norm() <= 1e-12
    assert (U - u).norm() <= 1e-12


def test_split_first_order_closed_forms(chain):
    cfg, model, bundle = chain
    G1 = first_forcing(model, bundle)
    U, V = split(G1, bundle, model.F0)
    R1, R2 = cfg.outer.radius, cfg.middle.radius
    dg = cfg.delta / cfg.gamma
    # Third tangential component: (R2/R3)(sin(phi2-phi3) - (d/g) cos(phi2-phi3))
    expected_u3 = combo_harmonic(3, (0, 1, -1), R2 / R1, -dg * R2 / R1, 2, 3)
    got_u3 = FourierMap(3, U.K, {k: np.atleast_1d(c[2]) for k, c in U.coeffs.items()},
                        (1,))
    assert (got_u3 - FourierMap(3, expected_u3.K,
                                {k: np.atleast_1d(c[2]) for k, c in expected_u3.coeffs.items()},
                                (1,))).norm() <= 1e-12
    # Second normal component: (R1/c) cos(phi1 - phi2)
    expected_v2 = combo_harmonic(3, (1, -1, 0), 0.0, R1 / cfg.c, 1, 3)
    got = V.component(1)
    exp = expected_v2.component(1)
    assert (got - exp).norm() <= 1e-12


def test_fibres_along_the_tangent_trip_the_transversality_guard(chain):
    # N = e0' makes [e0' | N] singular at every node; each block alone is
    # well conditioned, so only the stacked check can see it.
    cfg, model, bundle = chain
    bad = TorusBundle(bundle.e0, bundle.omega, bundle.e0.jacobian(), bundle.L)
    with pytest.raises(TransversalityError):
        phase_reduce(model, bad, order=2, K_nf=6.0)
    G1 = first_forcing(model, bundle)
    with pytest.raises(TransversalityError):
        split(G1, bad, model.F0)


def projection_split(Gv, frames):
    """Oracle: the split by the oblique projection ``pi`` onto ``e0'`` along ``N``.

    ``U = (e0')^+ pi G`` and ``V = N^+ (1 - pi) G`` with Moore-Penrose
    pseudo-inverses, and ``pi = A (A^T Q A)^{-1} A^T Q`` for ``A = e0'``,
    with ``Q`` the orthogonal projection onto the complement of im(N).
    """
    E, Nv = frames
    eye = np.broadcast_to(np.eye(E.shape[-2]), E.shape[:-1] + (E.shape[-2],))
    Nt, Et = np.swapaxes(Nv, -1, -2), np.swapaxes(E, -1, -2)
    Q = eye - Nv @ np.linalg.solve(Nt @ Nv, Nt)
    Pv = E @ np.linalg.solve(Et @ Q @ E, Et @ Q)

    def pinv_apply(A, y):
        At = np.swapaxes(A, -1, -2)
        return np.linalg.solve(At @ A, At @ y[..., None])[..., 0]

    PG = (Pv @ Gv[..., None])[..., 0]
    return pinv_apply(E, PG), pinv_apply(Nv, Gv - PG)


@pytest.mark.parametrize("numeric", [False, True], ids=["analytic", "spectral"])
@pytest.mark.parametrize("params", [SET1, SET2], ids=["set1", "set2"])
def test_frame_split_matches_the_projection_split(monkeypatch, params, numeric):
    # Every order's forcing of a J = 4 reduction, split both ways.
    cfg = ChainConfig(**params)
    bundle = numeric_chain_bundle(cfg, 8.0) if numeric else chain_bundle(cfg, K=8.0)
    split_forcing, calls = reduction.split_forcing, []

    def spy(Gv, frames):
        U, V = split_forcing(Gv, frames)
        calls.append((Gv, frames, U, V))
        return U, V

    monkeypatch.setattr(reduction, "split_forcing", spy)
    phase_reduce(chain_model(cfg), bundle, order=4, K=8.0, K_nf=6.0)
    assert [Gv.shape[:3] for Gv, *_ in calls] == [(15, 15, 15)] * 4
    for Gv, frames, U, V in calls:
        U_old, V_old = projection_split(Gv, frames)
        assert np.max(np.abs(U - U_old)) <= 1e-13 * np.max(np.abs(U_old))
        assert np.max(np.abs(V - V_old)) <= 1e-13 * np.max(np.abs(V_old))


# ----------------------------------------------------------------------
# tangential solves


def test_tangential_constant_is_resonant():
    U = FourierMap.constant(2, np.array([1.0 + 0j, -2.0 + 0j]))
    f, g = solve_tangential(U, [1.0, np.sqrt(2.0)], K_nf=4.0, tol_res=1e-9)
    assert (f - U).norm() == 0.0
    assert g.norm() == 0.0


def test_tangential_single_nonresonant_harmonic():
    u = np.array([0.4 - 0.2j, 1.0 + 0j])
    U = FourierMap.harmonic(2, (2, 1), u, K=4.0)
    f, g = solve_tangential(U, [1.0, 1.0], K_nf=4.0, tol_res=1e-9)
    assert f.norm() == 0.0
    assert np.allclose(g.coeffs[(2, 1)], u / 3j, atol=1e-15)


def test_tangential_identity_holds_every_coefficient():
    rng = np.random.default_rng(77)
    omega = np.array([1.0, np.sqrt(2.0)])
    U = FourierMap.zero(2, (2,), 4.0)
    for _ in range(6):
        k = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        U = U + FourierMap.harmonic(2, k, rng.normal(size=2) + 1j * rng.normal(size=2), K=4.0)
    f, g = solve_tangential(U, omega, K_nf=2.0, tol_res=1e-9)
    keys = set(U.coeffs) | set(f.coeffs) | set(g.coeffs)
    zero = np.zeros(2, dtype=complex)
    for k in keys:
        s = float(np.dot(omega, k))
        lhs = 1j * s * g.coeffs.get(k, zero) + f.coeffs.get(k, zero)
        assert np.allclose(lhs, U.coeffs.get(k, zero), atol=1e-13)


def test_tangential_chain_first_order(chain, reduced):
    cfg, model, bundle = chain
    res = reduced
    assert res.phase_terms[0].norm() == 0.0
    g1 = res.tangent_terms[0]
    R1, R2 = cfg.outer.radius, cfg.middle.radius
    dg, dc = cfg.delta / cfg.gamma, cfg.d / cfg.c
    w1, w2 = 2.0, 1.0
    pref = 1.0 / (w1 - w2)
    expected = (
        combo_harmonic(3, (-1, 1, 0), pref * dg * R2 / R1, pref * R2 / R1, 0, 3)
        + combo_harmonic(3, (1, -1, 0), -pref * dc * R1 / R2, -pref * R1 / R2, 1, 3)
        + combo_harmonic(3, (0, 1, -1), pref * dg * R2 / R1, pref * R2 / R1, 2, 3)
    )
    assert (g1 - expected).norm() <= 1e-12


def test_small_divisor_aborts():
    U = FourierMap.harmonic(2, (1, -1), np.array([1.0 + 0j]), K=2.0)
    with pytest.raises(SmallDivisorError) as err:
        solve_tangential(U, [1.0, 1.0 + 1e-7], K_nf=2.0, tol_res=1e-9)
    assert err.value.k in ((1, -1), (-1, 1))


# ----------------------------------------------------------------------
# normal solves


def test_normal_constant_mode():
    L = np.array([[-2.0, 1.0], [0.0, -1.0]])
    V = FourierMap.constant(2, np.array([1.0 + 0j, 2.0 + 0j]))
    h = solve_normal(V, [1.0, 1.0], L)
    assert np.allclose(h.coeffs[(0, 0)], np.linalg.solve(-L, [1.0, 2.0]), atol=1e-14)


def test_normal_chain_first_order_closed_form(chain, reduced):
    cfg, model, bundle = chain
    h1 = reduced.fibre_terms[0]
    R1 = cfg.outer.radius
    a, c = cfg.a, cfg.c
    w1, w2 = 2.0, 1.0
    denom = 4 * a * a + (w1 - w2) ** 2
    expected = combo_harmonic(
        3, (1, -1, 0), (w1 - w2) * R1 / (c * denom), 2 * a * R1 / (c * denom), 1, 3
    )
    assert (h1.component(1) - expected.component(1)).norm() <= 1e-12


def test_normal_matches_dense_block_solve():
    # Oracle: assemble the coefficient-wise systems into one dense
    # block-diagonal solve over all retained frequencies.
    rng = np.random.default_rng(123)
    r, m, Kcap = 4, 3, 3.0
    Q = rng.normal(size=(r, r))
    L = Q @ np.diag([-1.5, -0.7, 0.9, 2.1]) @ np.linalg.inv(Q)
    omega = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)])
    V = FourierMap.zero(m, (r,), Kcap)
    for _ in range(12):
        k = tuple(int(x) for x in rng.integers(-1, 2, size=m))
        V = V + FourierMap.harmonic(m, k, rng.normal(size=r) + 1j * rng.normal(size=r), K=Kcap)
    h = solve_normal(V, omega, L)
    keys = sorted(V.coeffs)
    n = len(keys)
    big = np.zeros((n * r, n * r), dtype=complex)
    rhs = np.zeros(n * r, dtype=complex)
    for i, k in enumerate(keys):
        s = float(np.dot(omega, k))
        big[i * r:(i + 1) * r, i * r:(i + 1) * r] = 1j * s * np.eye(r) - L
        rhs[i * r:(i + 1) * r] = V.coeffs[k]
    sol = np.linalg.solve(big, rhs)
    for i, k in enumerate(keys):
        assert np.max(np.abs(h.coeffs.get(k, np.zeros(r)) - sol[i * r:(i + 1) * r])) <= 1e-9


# ----------------------------------------------------------------------
# the full iteration


def test_reduce_linear_residuals_are_recorded(reduced):
    for row in reduced.residuals:
        assert row["linear_residual_rel"] <= 1e-8


def test_reduce_second_order_slow_law(chain, reduced):
    cfg, model, bundle = chain
    A, B_harm, B_const = chain_slow_law(reduced)
    A_formula, B_formula = chain_phase_constants(cfg)
    assert abs(A - A_formula) <= 1e-8
    assert abs(B_harm - B_formula) <= 1e-8
    assert abs(B_const - B_formula) <= 1e-8


def test_reduce_normal_form_guarantee(chain, reduced):
    cfg, model, bundle = chain
    w = bundle.omega
    for f in reduced.phase_terms:
        for k, c in f.coeffs.items():
            if abs(float(np.dot(w, k))) > 1e-9 and np.linalg.norm(k) <= reduced.K_nf:
                assert np.max(np.abs(c)) <= 1e-10


def test_reduce_embedding_ansatz_identity(chain, reduced):
    # e_j = e0' g_j + N h_j holds exactly by construction; re-verify.
    cfg, model, bundle = chain
    for j in range(reduced.order):
        rebuilt = matmul(bundle.e0.jacobian(), reduced.tangent_terms[j], K=8.0) + matmul(
            bundle.N, reduced.fibre_terms[j], K=8.0
        )
        assert (rebuilt - reduced.embedding_terms[j]).norm() <= 1e-13


EPS_SUMS = (1e-3, 1e-2, 0.07)


@pytest.mark.parametrize("eps", EPS_SUMS)
def test_eps_sums_match_the_inline_loops_bit_for_bit(chain, eps):
    # The loops each caller of the expansion at one coupling used to hold.
    cfg, model, bundle = chain
    result = phase_reduce(model, bundle, order=3, K_nf=6.0)
    e = bundle.e0
    for l, term in enumerate(result.embedding_terms, start=1):
        e = e + term.scale(eps ** l)
    series = FourierMap.zero(3, (3,), result.K)
    for j, f in enumerate(result.phase_terms, start=1):
        series = series + f.scale(eps ** j)
    for got, ref in ((result.embedding(eps), e), (result.phase_field(eps), series)):
        assert np.array_equal(got.keys, ref.keys) and got.K == ref.K
        assert got.values.tobytes() == ref.values.tobytes()

    grid = spectral_grid(3, max(result.K, bundle.K))
    f_vals = grid.sample(FourierMap.constant(3, bundle.omega.astype(complex)))
    for l, term in enumerate(result.phase_terms, start=1):
        f_vals = f_vals + eps ** l * grid.sample(term)
    lhs = (grid.sample(e.jacobian()) @ f_vals[..., None])[..., 0]
    inline = float(np.max(np.abs(lhs - model.rhs(grid.sample(e), eps))))
    # One call at every coupling gives each one's residual, as a call at that coupling alone.
    assert conjugacy_residual(model, result, EPS_SUMS)[EPS_SUMS.index(eps)] == inline
    assert conjugacy_residual(model, result, [eps]) == [inline]


def test_each_further_coupling_of_a_residual_holds_one_more_sum_of_f(chain):
    # Sampling the embedding's Jacobian is a residual's memory peak.  The sums
    # of f, one per coupling, are held through it; no term's sample and no
    # array of an earlier coupling is.
    cfg, model, bundle = chain
    result = phase_reduce(model, bundle, order=4, K_nf=6.0)
    f_bytes = spectral_grid(3, max(result.K, bundle.K)).size * 3 * 8
    peaks = []
    tracemalloc.start()
    try:
        for couplings in ([1e-2], [1e-2, 1e-3], [1e-2, 1e-3, 1e-4]):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            conjugacy_residual(model, result, couplings)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    for n, peak in enumerate(peaks):
        assert peak - peaks[0] <= n * (f_bytes + 16384), peaks


def test_a_residual_holds_no_grid_sized_sample_of_the_embedding():
    # Sampling e and its 18-component Jacobian on the whole 37^3 check grid
    # peaked at 24.37 MB; slab by slab the call peaks at 9.64 MB.
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    result = phase_reduce(model, chain_bundle(cfg, K=12.0), order=4, K=12.0, K_nf=6.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        conjugacy_residual(model, result, (1e-2, 1e-3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


class NanAtNode:
    """``model`` with its field NaN at one node of the residual's check grid."""

    def __init__(self, model, result, node):
        self.model, self.result, self.node = model, result, node
        self.grid = spectral_grid(3, max(result.K, result.bundle.K))

    def rhs(self, x, eps):
        X = self.grid.sample(self.result.embedding(eps))
        assert np.sum(np.all(X == X[self.node], axis=-1)) == 1  # the node's point is its own
        out = self.model.rhs(x, eps)
        out[np.all(x == X[self.node], axis=-1)] = np.nan
        return out


@pytest.mark.parametrize("last", [0, 12, 24], ids=["first", "middle", "last"])
def test_a_nan_at_one_node_fails_the_residual_check(chain, last):
    # Slabs run along the grid's last axis (25 nodes at K = 8).
    cfg, model, bundle = chain
    result = phase_reduce(model, bundle, order=2, K_nf=6.0)
    nan_model = NanAtNode(model, result, (3, 17, last))
    assert np.all(np.isnan(conjugacy_residual(nan_model, result, (1e-2, 1e-3))))
    _, passed, detail, _ = check_residual_scaling(nan_model, result)
    assert not passed and "nan" in detail


@pytest.mark.parametrize("order,expected_slope", [(1, 2.0), (2, 3.0)])
def test_residual_scaling_slope(chain, order, expected_slope):
    cfg, model, bundle = chain
    res = phase_reduce(model, bundle, order=order, K_nf=6.0)
    eps = np.array([1e-3, 10 ** -2.5, 1e-2, 10 ** -1.5, 1e-1])
    r = np.array(conjugacy_residual(model, res, eps))
    slope = np.polyfit(np.log(eps), np.log(r), 1)[0]
    assert abs(slope - (order + 1)) <= 0.1


def numeric_chain_bundle(cfg, K):
    """The chain's product bundle from circles solved in collocation, not closed forms."""
    outer = cycle_bundle(stuart_landau_cycle(cfg.outer), K=K)
    return product_bundle([outer, cycle_bundle(stuart_landau_cycle(cfg.middle), K=K), outer])


@pytest.mark.parametrize("params,J", [
    (SET1, 2), (SET1, 3), (SET1, 4), (SET2, 2), (SET2, 3),
    pytest.param(SET2, 4, marks=pytest.mark.xfail(strict=True, reason=(
        "slope 4.122: the eps = 1e-3 residual sits on the roundoff floor, as on the analytic "
        "bundle; see the FOUND line on check_residual_scaling in CHANGES.md"))),
], ids=["set1-J2", "set1-J3", "set1-J4", "set2-J2", "set2-J3", "set2-J4"])
def test_numeric_bundle_reduces_end_to_end(params, J):
    # The same checks as verify, on the same grids as the analytic bundle,
    # with a first-order embedding as sparse as the analytic one's 20 terms.
    cfg = ChainConfig(**params)
    model = chain_model(cfg)
    result = phase_reduce(model, numeric_chain_bundle(cfg, 8.0), order=J, K=8.0, K_nf=6.0)
    assert result.residuals[-1]["grid"] == [2 * J + 7] * 3
    assert len(result.embedding_terms[0].keys) <= 20
    for _, passed, detail, _ in (check_slow_law(cfg, result),
                                 check_residual_scaling(model, result)):
        assert passed, detail


def test_reduce_rejects_saturating_truncation(chain):
    cfg, model, bundle = chain
    with pytest.raises(TruncationSaturationError) as err:
        phase_reduce(model, bundle, order=2, K=1.0, K_nf=1.0)
    assert "raise K" in str(err.value)


# ----------------------------------------------------------------------
# the computation grid


def radius_grid(model, bundle, order, K):
    """The grid of every reduction before the support rule: the 3/2-rule grid of K."""
    return spectral_grid(bundle.m, max(K, bundle.K))


@pytest.mark.parametrize("J,K", [(2, 8.0), (3, 8.0), (4, 8.0), (4, 12.0)])
@pytest.mark.parametrize("params", [SET1, SET2], ids=["set1", "set2"])
def test_support_grid_reduction_matches_the_radius_grid(monkeypatch, params, J, K):
    # Oracle: the same reduction on the 3/2-rule grid, sampled by dense ifftn.
    cfg = ChainConfig(**params)
    model, bundle = chain_model(cfg), chain_bundle(cfg, K=K)
    new = phase_reduce(model, bundle, order=J, K=K, K_nf=6.0)
    monkeypatch.setattr(reduction, "reduction_grid", radius_grid)
    monkeypatch.setattr(TorusGrid, "sample", dense_sample)
    old = phase_reduce(model, bundle, order=J, K=K, K_nf=6.0)
    assert [row["grid"] for row in new.residuals] == [[2 * J + 7] * 3] * J
    assert [row["grid"] for row in old.residuals] == [[3 * int(K) + 1] * 3] * J
    for name in ("phase_terms", "embedding_terms", "tangent_terms", "fibre_terms"):
        for a, b in zip(getattr(new, name), getattr(old, name)):
            scale = max(a.norm(), b.norm())
            ca, cb = a.coeffs, b.coeffs
            for k in set(ca) | set(cb):
                if k in ca and k in cb:
                    assert np.max(np.abs(ca[k] - cb[k])) <= 1e-13 * scale, (name, k)
                else:  # noise the projection's 1e-14 relative prune let through
                    c = ca[k] if k in ca else cb[k]
                    assert np.max(np.abs(c)) <= 1e-14 * scale, (name, k)


def test_computation_grid_does_not_grow_with_K():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    shapes = [reduction_grid(model, chain_bundle(cfg, K=K), 4, K).shape for K in (8.0, 12.0)]
    assert shapes == [(15, 15, 15)] * 2


def understated_degree(model):
    """The model with its cubic field declared linear, which undersizes the grid."""
    F0 = model.F0
    return OscillatorModel(dims=model.dims, F0=SmoothMap(F0.fun, F0.derivs, F0.jac, degree=1),
                           perturbations=model.perturbations, omega=model.omega)


def test_undersized_grid_trips_the_alias_guard(chain):
    # Declared degree 1 gives support 2 at order 2, so 7 nodes per axis with
    # the guard shell at |k_i| = 3, where the order-2 forcing has mass.
    cfg, model, bundle = chain
    lying = understated_degree(model)
    assert reduction_grid(lying, bundle, 2, 8.0).shape == (7, 7, 7)
    with pytest.raises(AliasingError, match="'G_2'.*raise the grid") as err:
        phase_reduce(lying, bundle, order=2, K_nf=6.0)
    assert err.value.shape == (7, 7, 7)
    # One order fits: the first-order series stay inside |k_i| <= 2.
    first = phase_reduce(lying, bundle, order=1, K_nf=6.0)
    assert first.residuals[0]["grid"] == [5, 5, 5]


def test_reduction_reports_grid_and_alias_margin(reduced):
    for row in reduced.residuals:
        assert row["grid"] == [11, 11, 11]
        assert 0.0 <= row["alias_margin"] <= reduction.SATURATION_TOL


# Node counts of the parent's check grids: 3 ceil(K) + 1 per axis.
PARENT_CHECK_NODES = {8.0: 25, 12.0: 37}


@pytest.mark.parametrize("K", [8.0, 12.0])
def test_checks_sample_no_fewer_nodes_than_before(sampled_shapes, monkeypatch, K):
    cfg = ChainConfig(**SET1)
    model, bundle = chain_model(cfg), chain_bundle(cfg, K=K)
    shapes = {}

    def bundle_check(*args, **kwargs):  # the product bundle's check inside phase_reduce
        sampled_shapes.clear()
        out = validate_bundle(*args, **kwargs)
        shapes["phase_reduce"] = list(sampled_shapes)
        return out

    monkeypatch.setattr(reduction, "validate_bundle", bundle_check)
    result = phase_reduce(model, bundle, order=2, K=K, K_nf=6.0)
    slabs, passes = TorusGrid._slabs, []

    def slab_pass(grid, fmap):
        passes.append(grid.shape)
        return slabs(grid, fmap)

    monkeypatch.setattr(TorusGrid, "_slabs", slab_pass)
    for name, check in (("validate_bundle", lambda: validate_bundle(bundle, F0=model.F0)),
                        ("conjugacy", lambda: conjugacy_residual(model, result, [1e-2]))):
        sampled_shapes.clear()
        check()
        shapes[name] = list(sampled_shapes)
    assert len(shapes) == 3
    for name, sampled in shapes.items():
        assert sampled and min(min(s) for s in sampled) >= PARENT_CHECK_NODES[K], name
    # The residual's e and its Jacobian, once each through the slab pass.
    assert len(passes) == 2 and min(min(s) for s in passes) >= PARENT_CHECK_NODES[K]


# ----------------------------------------------------------------------
# each series sampled once per grid


# Each case gives a model, a bundle and the arguments of its reduction.
def preset_case(params, J, K):
    cfg = ChainConfig(**params)
    return chain_model(cfg), chain_bundle(cfg, K=K), dict(order=J, K=K, K_nf=6.0)


def spectral_product_case():
    cfg = ChainConfig(**SET1)
    return chain_model(cfg), numeric_chain_bundle(cfg, 8.0), dict(order=4, K=8.0, K_nf=6.0)


def vdp_pair_case():
    cycle = cycle_bundle(vdp_start(vdp.MU), K=vdp.K)
    bundle = product_bundle([cycle, cycle])
    return vdp.vdp_pair_model(bundle.omega), bundle, dict(order=vdp.ORDER, K=vdp.K)


def rebuilt_case():
    model, bundle, args = preset_case(SET1, 4, 8.0)
    return model, without_factors(bundle), args


SAMPLE_CASES = {
    "set1-J4-K12": partial(preset_case, SET1, 4, 12.0),
    "set2-J4-K12": partial(preset_case, SET2, 4, 12.0),
    "set1-spectral": spectral_product_case,
    "vdp-pair": vdp_pair_case,
    "set1-without-factors": rebuilt_case,
}


@pytest.mark.parametrize("case", SAMPLE_CASES)
def test_order_forcing_receives_the_samples_of_its_terms(monkeypatch, case):
    # Oracle: each term sampled on the reduction's grid, as jet_compose did itself.
    model, bundle, args = SAMPLE_CASES[case]()
    forcing, orders = reduction.order_forcing, []

    def checked(j, model, e_terms, f_terms, samples, K, grid):
        for e, got in zip(e_terms, samples, strict=True):
            want = grid.sample(e)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (j, case)
        orders.append(j)
        return forcing(j, model, e_terms, f_terms, samples, K, grid)

    monkeypatch.setattr(reduction, "order_forcing", checked)
    phase_reduce(model, bundle, **args)
    assert orders == list(range(1, args["order"] + 1))


@pytest.mark.parametrize("case", ["set1-J4-K12", "set1-without-factors"])
def test_a_reduction_and_its_residual_check_sample_no_series_twice(monkeypatch, case):
    # Counted per series object and grid shape, on the reduction's torus and on
    # a product's factors' own axes: a factor the product holds twice (the
    # chain's outer circle) is sampled once per grid shape.  The series are
    # kept alive, so no two of them share an id.
    model, bundle, args = SAMPLE_CASES[case]()
    seen, passes = {}, {}

    def counting(method, counts):
        def counted(grid, fmap):
            counts.setdefault((id(fmap), grid.shape), [fmap, 0])[1] += 1
            return method(grid, fmap)
        return counted

    monkeypatch.setattr(TorusGrid, "sample", counting(TorusGrid.sample, seen))
    monkeypatch.setattr(TorusGrid, "_slabs", counting(TorusGrid._slabs, passes))
    result = phase_reduce(model, bundle, **args)
    _, passed, detail, _ = check_residual_scaling(model, result)
    assert passed, detail
    assert not [(shape, n) for (_, shape), (_, n) in seen.items() if n > 1]
    # The check's e and its Jacobian at each of its two couplings, each
    # through the slab pass once and never whole.
    assert len(passes) == 4 and all(n == 1 for _, n in passes.values())
    assert not set(seen) & set(passes)
    # The terms composed into a forcing, e_1 .. e_(J-1), once each on the reduction grid.
    grid = tuple(result.residuals[-1]["grid"])
    composed = {id(e) for e in result.embedding_terms}
    assert sum(i in composed and shape == grid for i, shape in seen) == args["order"] - 1


# ----------------------------------------------------------------------
# phase difference field


def test_phase_difference_same_index_is_zero(reduced):
    diff = phase_difference_field(reduced, 1, 1)
    for t in diff:
        assert t.norm() == 0.0


def test_phase_difference_index_out_of_range(reduced):
    with pytest.raises(IndexError):
        phase_difference_field(reduced, 0, 3)


def test_normal_solve_rejects_nonhyperbolic_matrix():
    from torusred.errors import HyperbolicityError

    L = np.array([[0.0, 1.0], [-1.0, 0.0]])  # purely imaginary spectrum
    V = FourierMap.constant(2, np.array([1.0 + 0j, 0.0 + 0j]))
    with pytest.raises(HyperbolicityError):
        solve_normal(V, [1.0, 1.0], L)


def test_phase_difference_field_set1_coefficients(chain, reduced):
    cfg, model, bundle = chain
    diff = phase_difference_field(reduced, 0, 2)
    assert diff[0].norm() == 0.0  # the outer frequencies coincide
    assert diff[1].norm() <= 1e-12
    term2 = diff[2]
    A, B = chain_phase_constants(cfg)
    # -A sin(Phi) - B cos(Phi) + B with Phi = phi1 - phi3
    c = complex(np.asarray(term2.coeffs[(1, 0, -1)]))
    assert c.imag * 2 == pytest.approx(A, abs=1e-10)
    assert -c.real * 2 == pytest.approx(B, abs=1e-10)
    c0 = complex(np.asarray(term2.coeffs[(0, 0, 0)]))
    assert c0.real == pytest.approx(B, abs=1e-10)
    # order-2 part depends on phi1 - phi3 alone
    for k in term2.coeffs:
        assert k[1] == 0 and k[0] == -k[2]


def test_phase_difference_fixed_points(chain, reduced):
    # Root-finding oracle on the order-2 law: zeros at Phi = 0 and
    # Phi* = 2 atan(A/B).
    cfg, model, bundle = chain
    A, B = chain_phase_constants(cfg)
    term2 = phase_difference_field(reduced, 0, 2)[2]

    def law(Phi):
        return float(term2.eval(np.array([Phi, 0.7, 0.0])))

    assert abs(law(0.0)) <= 1e-12
    phi_star = 2.0 * np.arctan(A / B)
    assert abs(law(phi_star)) <= 1e-12
    # and these are the only zeros: scan for sign changes, on a grid
    # shifted off the roots
    grid = np.linspace(-np.pi, np.pi, 2000) + 7e-4
    vals = np.array([law(p) for p in grid])
    sign_changes = np.sum(np.abs(np.diff(np.sign(vals))) == 2)
    assert sign_changes == 2


# ----------------------------------------------------------------------
# gauge freedom


def test_gauge_freedom_resonant_regauge_preserves_slow_law(chain, reduced):
    # Thm-of-the-trade: the tangential component may be shifted along
    # resonant directions without leaving normal form at order 1; every
    # order-2 coefficient of the slow difference field is unchanged.
    cfg, model, bundle = chain

    def g_rule(j, U):
        if j != 1:
            return None
        _, g = solve_tangential(U, bundle.omega, 6.0, 1e-9)
        bump = FourierMap.harmonic(
            3, (1, 0, -1), np.array([0.2 + 0.1j, -0.05 + 0.3j, 0.15 - 0.2j]), K=g.K
        )
        return g + bump

    alt = phase_reduce(model, bundle, order=2, K_nf=6.0, g_rule=g_rule)
    assert alt.phase_terms[0].norm() == 0.0
    base2 = phase_difference_field(reduced, 0, 2)[2]
    alt2 = phase_difference_field(alt, 0, 2)[2]
    assert (base2 - alt2).norm() <= 1e-8
    # The embeddings themselves do change.
    assert (reduced.embedding_terms[1] - alt.embedding_terms[1]).norm() > 1e-3


def test_gauge_freedom_nonresonant_regauge_preserves_harmonics(chain, reduced):
    # Pushing a nonresonant harmonic of the first-order tangential data
    # into the phase field breaks normal form at order 1; the resonant
    # harmonic (sin/cos) coefficients of the slow law survive, while the
    # constant drift absorbs a second-order averaging correction.
    cfg, model, bundle = chain
    drop = ((-1, 1, 0), (1, -1, 0))

    def g_rule(j, U):
        if j != 1:
            return None
        _, g = solve_tangential(U, bundle.omega, 6.0, 1e-9)
        coeffs = {k: c for k, c in g.coeffs.items() if k not in drop}
        return FourierMap(g.m, g.K, coeffs, g.value_shape)

    alt = phase_reduce(model, bundle, order=2, K_nf=6.0, g_rule=g_rule)
    assert alt.phase_terms[0].norm() > 0.1
    assert not alt.normal_form
    A0, Bh0, _ = chain_slow_law(reduced)
    A1, Bh1, B01 = chain_slow_law(alt)
    assert abs(A1 - A0) <= 1e-10
    assert abs(Bh1 - Bh0) <= 1e-10
    # the expansion still solves the conjugacy equation at third order
    r2, r3 = conjugacy_residual(model, alt, (1e-2, 1e-3))
    assert abs(np.log10(r2 / r3) - 3.0) <= 0.1
