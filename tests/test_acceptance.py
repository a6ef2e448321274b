"""Acceptance battery.

One test per criterion, each at its stated tolerance, printing a
pass line on success (run with ``pytest -s`` to see them).  Criteria 1
and 3-8 call the checks of ``torusred.cli`` that ``torusred verify``
runs, and add the assertions the command does not make.
"""

import time

import numpy as np
import pytest

from torusred.cli import (
    TOL_CONSTANTS,
    TOL_LOCK,
    check_decay_sweep,
    check_floquet,
    check_normal_form,
    check_phase_lock,
    check_residual_scaling,
    check_slow_law,
    check_sync,
)
from torusred.fourier import FourierMap, jet_compose, spectral_grid
from torusred.models import (
    ChainConfig,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    chain_slow_law,
)
from torusred.reduction import (
    phase_difference_field,
    phase_reduce,
    solve_normal,
    solve_tangential,
    split_forcing,
)
from torusred.sim import IntegratorSpec, measure_T01

SET1 = dict(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0, a=1.0, b=2.0, c=-1.0, d=-1.0)
SET2 = dict(alpha=1.0, beta=0.1, gamma=-1.0, delta=1.0, a=1.0, b=6.0, c=-1.0, d=-1.0)


@pytest.fixture(scope="module")
def set1_reduction():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    bundle = chain_bundle(cfg, K=8.0)
    t0 = time.perf_counter()
    result = phase_reduce(model, bundle, order=2, K_nf=6.0, tol_res=1e-9)
    elapsed = time.perf_counter() - t0
    return cfg, model, bundle, result, elapsed


def test_criterion_01_constant_A_set1(set1_reduction):
    cfg, model, bundle, result, elapsed = set1_reduction
    _, passed, detail, m = check_slow_law(cfg, result)
    assert m["A_formula"] == pytest.approx(0.2, abs=1e-14)
    assert m["B_formula"] == pytest.approx(-0.6, abs=1e-14)  # hand-evaluated closed form
    assert passed, detail
    assert abs(m["B_pipeline_const"] - m["B_formula"]) <= TOL_CONSTANTS
    assert elapsed < 10.0
    print(f"\n[acceptance 1] PASS  {detail}, reduce in {elapsed:.2f}s")


def test_criterion_02_constant_A_set2():
    cfg = ChainConfig(**SET2)
    model = chain_model(cfg)
    bundle = chain_bundle(cfg, K=8.0)
    result = phase_reduce(model, bundle, order=2, K_nf=6.0)
    A_pipe, _, _ = chain_slow_law(result)
    expected = -3.9 / 19.21
    assert abs(A_pipe - expected) <= 1e-8
    print(f"\n[acceptance 2] PASS  A={A_pipe:.12f} vs -3.9/19.21={expected:.12f}")


def test_criterion_03_residual_scaling(set1_reduction):
    cfg, model, bundle, result, _ = set1_reduction
    _, passed, detail, m = check_residual_scaling(model, result)
    assert result.order == 2  # expected slope 3
    assert passed, detail
    r = m["conjugacy_residual"]
    print(f"\n[acceptance 3] PASS  residuals {r['0.01']:.3e} @ 1e-2, "
          f"{r['0.001']:.3e} @ 1e-3, {detail}")


def test_criterion_04_normal_form(set1_reduction):
    cfg, model, bundle, result, _ = set1_reduction
    _, passed, detail, m = check_normal_form(result)
    assert passed, detail
    print(f"\n[acceptance 4] PASS  {detail} inside K_nf=6")


def test_criterion_05_floquet_cross_check():
    t0 = time.perf_counter()
    cfg = ChainConfig(**SET1)
    _, passed, detail, m = check_floquet(cfg.outer, K=4.0)
    elapsed = time.perf_counter() - t0
    assert m["target_exponents"].tolist() == [-2.0, 0.0]
    assert passed, detail
    assert elapsed < 5.0
    print(f"\n[acceptance 5] PASS  exponents {np.round(m['exponents'], 8)}, {detail}, "
          f"in {elapsed:.2f}s")


def test_criterion_06_figure_sync_to_zero():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    x0 = np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3])
    _, passed, detail, m = check_sync(model, 0.1, x0)
    assert passed, detail
    t01 = measure_T01(m["record"])
    assert np.isfinite(t01) and t01 < 4000.0
    print(f"\n[acceptance 6] PASS  {detail}, T01 = {t01:.1f}")


def test_criterion_07_figure_phase_lock():
    cfg = ChainConfig(**SET2)
    model = chain_model(cfg)
    x0 = np.array([1.0, 0.3, 1.0, 0.4, -0.2, 0.9])
    A, B = chain_phase_constants(cfg)
    _, passed, detail, m = check_phase_lock(model, 0.1, x0, A, B)
    assert passed, detail
    # the unwrapped angle itself, not only its class mod 2 pi, sits at the prediction
    raw_gap = abs(m["lock"] - 2.0 * np.arctan(A / B))
    assert raw_gap <= TOL_LOCK
    print(f"\n[acceptance 7] PASS  {detail}, |lock - 2*atan(A/B)| = {raw_gap:.3f}")


def test_criterion_08_figure_decay_time_sweep():
    cfg = ChainConfig(**SET1)
    model = chain_model(cfg)
    x0 = np.array([-1.0, 0.3, 1.0, 0.4, -1.0, 0.5])
    eps = np.geomspace(0.02, 0.1, 20)
    _, passed, detail, m = check_decay_sweep(model, x0, eps,
                                             IntegratorSpec("euler", 0.05, 2500.0))
    assert m["converged"] == 20
    assert m["slope"] is not None
    assert passed, detail
    print(f"\n[acceptance 8] PASS  {detail}")


def test_criterion_09a_normal_solver_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        r, m = 4, 3
        Q = rng.normal(size=(r, r)) + 0.5 * np.eye(r)
        signs = rng.choice([-1.0, 1.0], size=r)
        L = Q @ np.diag(signs * rng.uniform(0.3, 2.5, size=r)) @ np.linalg.inv(Q)
        omega = rng.uniform(0.5, 2.0, size=m)
        V = FourierMap.zero(m, (r,), 3.0)
        for _ in range(10):
            k = tuple(int(x) for x in rng.integers(-1, 2, size=m))
            V = V + FourierMap.harmonic(m, k, rng.normal(size=r) + 1j * rng.normal(size=r), K=3.0)
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
            got = h.coeffs.get(k, np.zeros(r, dtype=complex))
            worst = max(worst, float(np.max(np.abs(got - sol[i * r:(i + 1) * r]))))
    assert worst <= 1e-9
    print(f"\n[acceptance 9a] PASS  normal solver vs dense block solve: sup error {worst:.2e}")


def test_criterion_09b_oblique_projection_oracle():
    rng = np.random.default_rng(77)
    M, m = 5, 2
    A, B = [], []
    while len(A) < 100:
        a = rng.normal(size=(M, m))
        b = rng.normal(size=(M, M - m))
        # Full-rank, decently transverse draws: the split and the
        # least-squares oracle lose digits together on nearly degenerate
        # frames, which would test roundoff rather than math.
        if np.linalg.cond(np.concatenate([a, b], axis=1)) > 1e3:
            continue
        A.append(a)
        B.append(b)
    A, B = np.array(A), np.array(B)
    G = rng.normal(size=(len(A), M))
    U, V = split_forcing(G, (A, B))
    worst = 0.0
    for a, b, g, u, v in zip(A, B, G, U, V):
        uv, *_ = np.linalg.lstsq(np.concatenate([a, b], axis=1), g, rcond=None)
        worst = max(worst, float(np.max(np.abs(np.concatenate([u, v]) - uv))))
    assert worst <= 1e-9
    print(f"\n[acceptance 9b] PASS  frame split vs least-squares solve: sup error {worst:.2e}")


def test_criterion_09c_jet_composition_oracle():
    from test_fourier import cubic_polynomial_map, random_real_map

    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        F_list = [cubic_polynomial_map(rng, 2) for _ in range(3)]
        terms = [random_real_map(rng, 1, 2, K=2, n_harmonics=3).scale(0.4) for _ in range(3)]
        grid = spectral_grid(1, 8.0)
        samples = [grid.sample(t) for t in terms]

        def full_eval(eps):
            x = samples[0] + eps * samples[1] + eps ** 2 * samples[2]
            acc = np.zeros_like(x)
            for i, Fi in enumerate(F_list):
                acc = acc + eps ** i * Fi.fun(x)
            return acc

        h = 1e-4
        fd1 = (full_eval(h) - full_eval(-h)) / (2 * h)
        fd2 = (full_eval(h) - 2 * full_eval(0.0) + full_eval(-h)) / h ** 2 / 2.0
        for order, fd in ((1, fd1), (2, fd2)):
            got = grid.sample(jet_compose(F_list, samples, order, 8.0, grid))
            worst = max(worst, float(np.max(np.abs(got - fd))))
    assert worst <= 1e-5
    print(f"\n[acceptance 9c] PASS  jet composition vs eps finite differences: "
          f"sup error {worst:.2e} over 20 trials")


def test_criterion_10_gauge_invariance(set1_reduction):
    cfg, model, bundle, result, _ = set1_reduction

    def g_rule(j, U):
        # A second admissible tangential choice: shift along a resonant
        # combination angle (free by the solvability theory; keeps the
        # first-order phase field in normal form).
        if j != 1:
            return None
        _, g = solve_tangential(U, bundle.omega, 6.0, 1e-9)
        bump = FourierMap.harmonic(
            3, (1, 0, -1), np.array([0.15 - 0.25j, 0.3 + 0.05j, -0.1 + 0.2j]), K=g.K
        )
        return g + bump

    alt = phase_reduce(model, bundle, order=2, K_nf=6.0, g_rule=g_rule)
    assert alt.phase_terms[0].norm() == 0.0
    base2 = phase_difference_field(result, 0, 2)[2]
    alt2 = phase_difference_field(alt, 0, 2)[2]
    keys = set(base2.coeffs) | set(alt2.coeffs)
    worst = 0.0
    for k in keys:
        if abs(float(np.dot(bundle.omega, k))) <= 1e-9:  # resonant coefficients
            a = complex(np.asarray(base2.coeffs.get(k, 0.0 + 0.0j)))
            b = complex(np.asarray(alt2.coeffs.get(k, 0.0 + 0.0j)))
            worst = max(worst, abs(a - b))
    assert worst <= 1e-8
    assert (result.embedding_terms[1] - alt.embedding_terms[1]).norm() > 1e-3
    print(f"\n[acceptance 10] PASS  order-2 resonant coefficients agree to "
          f"{worst:.2e} across gauge choices (embeddings differ)")
