import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torusred import fourier
from torusred.fourier import (
    PROJECT_PRUNE,
    FourierMap,
    SmoothMap,
    TorusGrid,
    d_omega,
    jet_compose,
    matmul,
    multiply,
    spectral_grid,
)
from torusred.errors import NumericalError


def random_real_map(rng, m, p, K, n_harmonics=6):
    """Random real-valued map with a handful of harmonics inside radius K."""
    f = FourierMap.zero(m, (p,), K)
    for _ in range(n_harmonics):
        k = tuple(int(x) for x in rng.integers(-2, 3, size=m))
        if np.linalg.norm(k) > K:
            continue
        c = rng.normal(size=p) + 1j * rng.normal(size=p)
        f = f + FourierMap.harmonic(m, k, c, K=K)
    return f


# ----------------------------------------------------------------------
# d_omega


def test_d_omega_single_harmonic():
    f = FourierMap.harmonic(2, (1, 0), np.asarray(1.0 + 0j), K=2.0)
    df = d_omega(f, [2.0, 1.0])
    assert df.coeffs[(1, 0)] == pytest.approx(2j)
    assert df.m == f.m and df.K == f.K


def test_d_omega_constant_is_zero():
    f = FourierMap.constant(3, [1.0, -2.0, 0.5])
    df = d_omega(f, [1.0, 2.0, 3.0])
    assert df.norm() == 0.0


def test_d_omega_matches_finite_difference():
    # Oracle: centered finite difference of t -> f(phi + t*omega).
    rng = np.random.default_rng(7)
    f = random_real_map(rng, 2, 3, K=4)
    omega = np.array([1.3, -0.7])
    df = d_omega(f, omega)
    h = 1e-5
    for phi in rng.uniform(0, 2 * np.pi, size=(20, 2)):
        fd = (f.eval(phi + h * omega) - f.eval(phi - h * omega)) / (2 * h)
        assert np.allclose(df.eval(phi), fd, atol=1e-6)


def test_d_omega_dimension_mismatch():
    f = FourierMap.constant(2, [1.0])
    with pytest.raises(ValueError):
        d_omega(f, [1.0, 2.0, 3.0])


def test_d_omega_is_a_derivation():
    # d(fg) = df*g + f*dg, checked within a radius that holds the product.
    rng = np.random.default_rng(3)
    f = random_real_map(rng, 2, 1, K=2).component(0)
    g = random_real_map(rng, 2, 1, K=2).component(0)
    omega = [0.9, 1.7]
    K = 8.0
    lhs = d_omega(multiply(f, g, K=K), omega)
    rhs = multiply(d_omega(f, omega), g, K=K) + multiply(f, d_omega(g, omega), K=K)
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


# ----------------------------------------------------------------------
# products


def test_multiply_product_to_sum():
    # cos(phi1) * cos(phi1) = 1/2 + cos(2*phi1)/2
    c = FourierMap.harmonic(1, (1,), np.asarray(0.5 + 0j))
    prod = multiply(c, c, K=2.0)
    assert prod.coeffs[(0,)] == pytest.approx(0.5)
    assert prod.coeffs[(2,)] == pytest.approx(0.25)
    assert prod.coeffs[(-2,)] == pytest.approx(0.25)


def test_multiply_identity():
    rng = np.random.default_rng(11)
    f = random_real_map(rng, 2, 2, K=3)
    one = FourierMap.constant(2, np.asarray(1.0 + 0j))
    g = multiply(one, f, K=3.0)
    assert (g - f).norm() <= 1e-15


def test_multiply_matches_grid_product():
    # Oracle: pointwise multiplication on a grid, then re-projection.
    rng = np.random.default_rng(5)
    f = random_real_map(rng, 2, 1, K=3).component(0)
    g = random_real_map(rng, 2, 2, K=3)
    K = 8.0
    prod = multiply(f, g, K=K)
    grid = spectral_grid(2, K)
    vals = grid.sample(f)[..., None] * grid.sample(g)
    expected = project_by_node_loop(grid, vals, K, prune=0.0)
    diff = (prod - expected).norm()
    assert diff <= 1e-10


def test_multiply_reality_closure_is_exact():
    rng = np.random.default_rng(9)
    f = random_real_map(rng, 2, 1, K=3).component(0)
    g = random_real_map(rng, 2, 2, K=3)
    prod = multiply(f, g, K=4.0)
    for k, c in prod.coeffs.items():
        mk = tuple(-x for x in k)
        assert np.array_equal(prod.coeffs[mk], np.conj(c))


def test_matmul_matrix_vector():
    A = FourierMap.constant(1, np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    x = FourierMap.harmonic(1, (1,), np.array([0.5, -0.5j]))
    y = matmul(A, x, K=1.0)
    expected = FourierMap.harmonic(1, (1,), np.array([-0.5j, -0.5]))
    assert (y - expected).norm() <= 1e-15


# ----------------------------------------------------------------------
# composition: ``jet_compose`` at order 0 is the pseudo-spectral F(e(phi))


def compose(F, e):
    grid = spectral_grid(e.m, e.K)
    return jet_compose([SmoothMap(F)], [grid.sample(e)], 0, e.K, grid)


def test_compose_complex_square():
    # F(z) = z^2 acting on e(phi) = exp(i phi) gives exp(2 i phi) exactly.
    e = FourierMap.harmonic(1, (1,), np.array([0.5, -0.5j]), K=2.0)

    def square(x):
        z = x[..., 0] + 1j * x[..., 1]
        w = z * z
        return np.stack([w.real, w.imag], axis=-1)

    out = compose(square, e)
    expected = FourierMap.harmonic(1, (2,), np.array([0.5, -0.5j]), K=2.0)
    assert (out - expected).norm() <= 1e-13


def test_compose_identity():
    rng = np.random.default_rng(13)
    e = random_real_map(rng, 2, 3, K=3)
    out = compose(lambda x: x, e)
    assert (out - e).norm() <= 1e-12 * max(1.0, e.norm())


def test_compose_stuart_landau_circle():
    # The cubic oscillator field on its circular orbit R*exp(i phi) returns
    # the tangent field i*omega*R*exp(i phi) with omega = beta - alpha*delta/gamma.
    alpha, beta, gamma, delta = 1.0, 1.0, -1.0, 1.0
    R = np.sqrt(-alpha / gamma)
    omega = beta - alpha * delta / gamma

    def field(x):
        z = x[..., 0] + 1j * x[..., 1]
        w = (alpha + 1j * beta) * z + (gamma + 1j * delta) * np.abs(z) ** 2 * z
        return np.stack([w.real, w.imag], axis=-1)

    e = FourierMap.harmonic(1, (1,), np.array([R / 2, -1j * R / 2]), K=4.0)
    out = compose(field, e)
    expected = FourierMap.harmonic(1, (1,), 1j * omega * np.array([R / 2, -1j * R / 2]), K=4.0)
    assert (out - expected).norm() <= 1e-12


def test_compose_rejects_nonfinite():
    e = FourierMap.harmonic(1, (1,), np.array([0.5, -0.5j]), K=2.0)

    def bad(x):
        out = np.array(x)
        out[..., 0] = np.where(np.abs(x[..., 0]) > 0.99, np.inf, x[..., 0])
        return out

    with pytest.raises(NumericalError):
        compose(bad, e)


# ----------------------------------------------------------------------
# jets


def linear_smooth_map(A):
    A = np.asarray(A, dtype=float)
    return SmoothMap(
        fun=lambda x: x @ A.T,
        derivs=(lambda x, v: v @ A.T,),
    )


def test_jet_compose_linear():
    # For linear F0, term 1 of F(e(eps)) is F0*e1 + F1(e0).
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3))
    F0 = linear_smooth_map(A)
    B = rng.normal(size=(3, 3))
    F1 = linear_smooth_map(B)
    e0 = random_real_map(rng, 2, 3, K=2)
    e1 = random_real_map(rng, 2, 3, K=2)
    grid = spectral_grid(2, 5.0)
    term1 = jet_compose([F0, F1], [grid.sample(e0), grid.sample(e1)], 1, 5.0, grid)
    expected = project_by_node_loop(grid, grid.sample(e1) @ A.T + grid.sample(e0) @ B.T, 5.0,
                                    prune=0.0)
    assert (term1 - expected).norm() <= 1e-11


def test_jet_compose_quadratic_second_order_term():
    # With F0(x) quadratic and a jet stopping at order 1, the order-2 term
    # is exactly (1/2) F0''(e0)(e1, e1).
    def fun(x):
        return np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)

    def d1(x, v):
        return np.stack(
            [2 * x[..., 0] * v[..., 0], x[..., 0] * v[..., 1] + x[..., 1] * v[..., 0]],
            axis=-1,
        )

    def d2(x, u, v):
        return np.stack(
            [2 * u[..., 0] * v[..., 0], u[..., 0] * v[..., 1] + u[..., 1] * v[..., 0]],
            axis=-1,
        )

    F0 = SmoothMap(fun, derivs=(d1, d2))
    rng = np.random.default_rng(21)
    e0 = random_real_map(rng, 1, 2, K=1)
    e1 = random_real_map(rng, 1, 2, K=1)
    grid = spectral_grid(1, 4.0)
    term2 = jet_compose([F0], [grid.sample(e0), grid.sample(e1)], 2, 4.0, grid)
    expected = project_by_node_loop(grid, 0.5 * d2(None, grid.sample(e1), grid.sample(e1)), 4.0,
                                    prune=0.0)
    assert (term2 - expected).norm() <= 1e-12


def cubic_polynomial_map(rng, p):
    """Random map whose components are cubic polynomials of the input."""
    c1 = rng.uniform(-0.5, 0.5, size=(p, p))
    c2 = rng.uniform(-0.5, 0.5, size=(p, p, p))
    c3 = rng.uniform(-0.5, 0.5, size=(p, p, p, p))
    # Symmetrise so the derivatives below are honest symmetric forms.
    c2 = 0.5 * (c2 + c2.transpose(0, 2, 1))
    perms = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)]
    c3 = sum(c3.transpose(p) for p in perms) / 6.0

    def fun(x):
        return (
            np.einsum("ab,...b->...a", c1, x)
            + np.einsum("abc,...b,...c->...a", c2, x, x)
            + np.einsum("abcd,...b,...c,...d->...a", c3, x, x, x)
        )

    def d1(x, v):
        return (
            np.einsum("ab,...b->...a", c1, v)
            + 2 * np.einsum("abc,...b,...c->...a", c2, x, v)
            + 3 * np.einsum("abcd,...b,...c,...d->...a", c3, x, x, v)
        )

    def d2(x, u, v):
        return 2 * np.einsum("abc,...b,...c->...a", c2, u, v) + 6 * np.einsum(
            "abcd,...b,...c,...d->...a", c3, x, u, v
        )

    def d3(x, u, v, w):
        return 6 * np.einsum("abcd,...b,...c,...d->...a", c3, u, v, w)

    return SmoothMap(fun, derivs=(d1, d2, d3))


@pytest.mark.parametrize("trial", range(4))
def test_jet_compose_matches_eps_finite_difference(trial):
    # Oracle: j-th centered finite difference in eps of the grid-sampled
    # composition, divided by j factorial.
    rng = np.random.default_rng(100 + trial)
    F_list = [cubic_polynomial_map(rng, 2) for _ in range(3)]
    e0 = random_real_map(rng, 1, 2, K=2, n_harmonics=3).scale(0.4)
    e1 = random_real_map(rng, 1, 2, K=2, n_harmonics=3).scale(0.4)
    e2 = random_real_map(rng, 1, 2, K=2, n_harmonics=3).scale(0.4)
    terms = [e0, e1, e2]
    K = 8.0
    grid = spectral_grid(1, K)
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
    got1 = grid.sample(jet_compose(F_list, samples, 1, K, grid))
    got2 = grid.sample(jet_compose(F_list, samples, 2, K, grid))
    assert np.max(np.abs(got1 - fd1)) <= 1e-5
    assert np.max(np.abs(got2 - fd2)) <= 1e-5


def test_jet_compose_order_zero_is_compose():
    rng = np.random.default_rng(17)
    F0 = cubic_polynomial_map(rng, 2)
    e0 = random_real_map(rng, 2, 2, K=2)
    grid = spectral_grid(2, 6.0)
    term0 = jet_compose([F0], [grid.sample(e0)], 0, 6.0, grid)
    direct = grid.project(F0.fun(grid.sample(e0)), 6.0)
    assert (term0 - direct).norm() <= 1e-12


def test_jet_compose_insufficient_derivatives():
    F0 = SmoothMap(lambda x: x ** 2, derivs=())
    e0 = FourierMap.harmonic(1, (1,), np.array([0.5 + 0j]))
    e1 = FourierMap.harmonic(1, (1,), np.array([0.25 + 0j]))
    grid = spectral_grid(1, 3.0)
    with pytest.raises(NumericalError, match="order 1 required"):
        jet_compose([F0], [grid.sample(e0), grid.sample(e1)], 1, 3.0, grid)


# ----------------------------------------------------------------------
# grids and serialisation


def test_grid_round_trip():
    rng = np.random.default_rng(29)
    f = random_real_map(rng, 3, 2, K=3)
    grid = TorusGrid(3, (9, 9, 9))
    vals = grid.sample(f)
    back = grid.project(vals, 3.0)
    vals2 = grid.sample(back)
    assert np.max(np.abs(vals - vals2)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


def project_by_node_loop(grid, values, K, prune=PROJECT_PRUNE):
    """Reference projection: visit every node of the Nyquist box in turn."""
    spec = np.fft.fftn(values, axes=tuple(range(grid.m))) / grid.size
    coeffs = {}
    top = 0.0
    for k in product(*[range(-c, c + 1) for c in grid.max_freq()]):
        if math.sqrt(sum(x * x for x in k)) > K + 1e-12:
            continue
        c = np.asarray(spec[tuple(ki % n for ki, n in zip(k, grid.shape))])
        mag = float(np.max(np.abs(c))) if c.size else 0.0
        if mag > 0.0:
            coeffs[k] = c
            top = max(top, mag)
    if prune > 0 and top > 0:
        coeffs = {k: c for k, c in coeffs.items() if np.max(np.abs(c)) > prune * top}
    return FourierMap(grid.m, K, coeffs, values.shape[grid.m:])


@pytest.mark.parametrize("prune", [0.0, PROJECT_PRUNE], ids=["prune0", "default"])
@pytest.mark.parametrize("value_shape", [(), (3,), (2, 3)], ids=["scalar", "vector", "matrix"])
@pytest.mark.parametrize("m,shape,K", [
    (1, (17,), 5.0), (2, (9, 8), 3.0), (2, (11, 11), 3.7), (3, (7, 7, 7), 2.0),
    (3, (9, 8, 7), 2.5),
], ids=["m1", "m2", "m2_nonint", "m3", "m3_nonint"])
def test_project_matches_node_loop(m, shape, K, value_shape, prune):
    rng = np.random.default_rng(41)
    grid = TorusGrid(m, shape)
    f = random_real_map(rng, m, int(np.prod(value_shape)), K=K, n_harmonics=5)
    smooth = grid.sample(f).reshape(shape + value_shape)
    # Noise puts coefficients on both sides of the default prune level.
    noisy = smooth + 3e-13 * rng.normal(size=smooth.shape)
    # Against the loop pruned as project prunes or not pruned at all, project
    # keeps exactly the loop's coefficients above PROJECT_PRUNE times the largest.
    for values in (smooth, noisy, np.zeros_like(smooth)):
        got = grid.project(values, K)
        ref = project_by_node_loop(grid, values, K, prune=prune)
        top = max((np.max(np.abs(c)) for c in ref.coeffs.values()), default=0.0)
        kept = [k for k, c in ref.coeffs.items() if np.max(np.abs(c)) > PROJECT_PRUNE * top]
        assert list(got.coeffs) == kept
        for k in kept:
            assert np.array_equal(got.coeffs[k], ref.coeffs[k])


def test_reality_enforced_bitwise_on_construction():
    rng = np.random.default_rng(31)
    raw = {(1, 0): rng.normal(size=2) + 1j * rng.normal(size=2)}
    f = FourierMap(2, 2.0, raw, (2,))
    assert np.array_equal(f.coeffs[(-1, 0)], np.conj(f.coeffs[(1, 0)]))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_eval_matches_the_grid_samples_and_the_per_key_sum(m):
    rng = np.random.default_rng(40 + m)
    f = random_real_map(rng, m, 2, K=3.0, n_harmonics=40)
    grid = TorusGrid(m, (7,) * m)
    axes = [2.0 * np.pi * np.arange(n) / n for n in grid.shape]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert np.max(np.abs(f.eval(nodes) - grid.sample(f))) <= 1e-12
    pts = rng.uniform(-10.0, 10.0, size=(50, m))
    by_key = sum(np.exp(1j * (pts @ k))[:, None] * c for k, c in zip(f.keys, f.values))
    assert np.max(np.abs(f.eval(pts) - by_key)) <= 1e-12
    assert np.max(np.abs(by_key.imag)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_eval_returns_a_contiguous_real_array_of_its_own(m):
    # The real part is copied out: no strided view keeps the complex sums alive.
    f = random_real_map(np.random.default_rng(50 + m), m, 2, K=3.0, n_harmonics=40)
    pts = np.random.default_rng(60 + m).uniform(-10.0, 10.0, size=(30, m))
    vals = f.eval(pts)
    assert vals.flags.c_contiguous and vals.flags.owndata and vals.base is None
    phases = np.exp(1j * np.vecdot(pts[..., None, :], f.keys.astype(float)))
    sums = np.einsum("...k,kp->...p", phases, f.values)
    assert np.array_equal(vals, sums.real)
    assert vals.view(complex).shape == (30, 1)
    one = f.eval(pts[0])
    assert one.shape == (2,) and one.flags.c_contiguous and one.flags.owndata


@pytest.mark.parametrize("m,value_shape", [(1, ()), (2, (3,)), (3, (2, 3))])
def test_eval_gives_each_point_the_same_bits_in_any_batch(m, value_shape):
    rng = np.random.default_rng(70 + m)
    coeffs = {tuple(k): rng.normal(size=value_shape) + 1j * rng.normal(size=value_shape)
              for k in rng.integers(-3, 4, size=(12, m)).tolist()}
    f = FourierMap(m, 6.0, coeffs, value_shape)
    pts = rng.uniform(-10.0, 10.0, size=(50, m))
    batch = f.eval(pts)
    assert batch.shape == (50,) + value_shape
    for x, row in zip(pts, batch):
        assert f.eval(x).tobytes() == row.tobytes()
    assert f.eval(pts.reshape(5, 10, m)).tobytes() == batch.tobytes()
    # A map with no stored coefficient evaluates to zeros.
    assert np.array_equal(FourierMap.zero(m, value_shape, 1.0).eval(pts), np.zeros_like(batch))


def test_jacobian_single_harmonic():
    f = FourierMap.harmonic(2, (1, -1), np.array([2.0 + 0j]), K=2.0)
    J = f.jacobian()
    assert J.value_shape == (1, 2)
    assert J.coeffs[(1, -1)][0, 0] == pytest.approx(2j)
    assert J.coeffs[(1, -1)][0, 1] == pytest.approx(-2j)


def test_json_rejects_a_complex_valued_series():
    doc = FourierMap.harmonic(1, (1,), np.asarray(0.5 + 0j)).to_json_dict()
    assert doc["real"] is True
    doc["real"] = False
    with pytest.raises(ValueError, match="real-valued"):
        FourierMap.from_json_dict(doc)


def test_json_round_trip():
    rng = np.random.default_rng(37)
    f = random_real_map(rng, 2, 3, K=3)
    doc = json.loads(json.dumps(f.to_json_dict()))
    g = FourierMap.from_json_dict(doc)
    assert (f - g).norm() <= 1e-15
    ks = [tuple(entry["k"]) for entry in doc["coeffs"]]
    assert ks == sorted(ks)


# ----------------------------------------------------------------------
# property tests: the algebra any coefficient storage has to keep

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
BOX = 2  # |k_i| <= BOX for drawn frequencies

# Values with exact zeros of both signs, so the tests see how zeros are closed.
PARTS = st.sampled_from([0.0, -0.0, 0.5, -0.25, 1.0]) | st.floats(
    -2.0, 2.0, allow_nan=False, allow_subnormal=False)


def complex_value(re, im, shape):
    c = np.empty(len(re), dtype=complex)
    c.real, c.imag = re, im
    return c.reshape(shape)


@st.composite
def coeff_dicts(draw, m, shape):
    """Sparse ``{k: c_k}`` in drawn insertion order, zeros and signed zeros included."""
    keys = draw(st.lists(st.tuples(*[st.integers(-BOX, BOX)] * m), unique=True, max_size=7))
    p = int(np.prod(shape, dtype=int))
    parts = st.lists(PARTS, min_size=p, max_size=p)
    return {k: complex_value(draw(parts), draw(parts), shape) for k in keys}


@st.composite
def real_maps(draw, m, shape):
    return FourierMap(m, BOX * m, draw(coeff_dicts(m, shape)), shape)


def dict_symmetrize(coeffs):
    """Reference closure on a ``{k: c_k}`` dict, one pair at a time."""
    out = {}
    for k in coeffs:
        mk = tuple(-x for x in k)
        if k in out:
            continue
        if mk == k:
            out[k] = 0.5 * (coeffs[k] + np.conj(coeffs[k]))
            continue
        if mk in coeffs:
            c = 0.5 * (coeffs[k] + np.conj(coeffs[mk]))
        else:
            c = 0.5 * coeffs[k]
        out[k] = c
        out[mk] = np.conj(c)
    return out


def dict_close(coeffs):
    """Reference construction from a dict: closure, zero drop, key order."""
    coeffs = dict_symmetrize(coeffs)
    return {k: coeffs[k] for k in sorted(coeffs) if np.any(coeffs[k])}


def dict_convolve(f, g, combine, K):
    """Reference convolution: one key pair at a time, accumulated in a dict."""
    acc = {}
    for k1 in sorted(f.coeffs):
        c1 = f.coeffs[k1]
        for k2 in sorted(g.coeffs):
            k = tuple(a + b for a, b in zip(k1, k2))
            v = combine(c1, g.coeffs[k2])
            if k in acc:
                acc[k] = acc[k] + v
            else:
                acc[k] = v
    kept = {k: v for k, v in acc.items() if math.sqrt(sum(x * x for x in k)) <= K + 1e-12}
    return dict_close(kept)


def dict_binary(f, g, op):
    """Reference sum and difference over the union of the key sets, in key order."""
    zero = np.zeros(f.value_shape, dtype=complex)
    keys = sorted(set(f.coeffs) | set(g.coeffs))
    out = {k: op(f.coeffs.get(k, zero), g.coeffs.get(k, zero)) for k in keys}
    return dict_close(out)


def assert_bitwise(fmap, ref):
    """Equal key sequences and bit-identical coefficients, signed zeros included."""
    assert list(fmap.coeffs) == list(ref)
    for k, c in ref.items():
        got = fmap.coeffs[k]
        assert got.shape == c.shape and got.dtype == c.dtype
        assert got.tobytes() == np.ascontiguousarray(c).tobytes(), k


@PROPERTY_SETTINGS
@given(st.integers(1, 3).flatmap(lambda m: coeff_dicts(m, (2,)).map(lambda d: (m, d))))
def test_property_construction_closes_hermitian_pairs(case):
    m, coeffs = case
    f = FourierMap(m, BOX * m, coeffs, (2,))
    for k, c in f.coeffs.items():
        assert np.array_equal(f.coeffs[tuple(-x for x in k)], np.conj(c))
    assert_bitwise(f, dict_close(coeffs))


@PROPERTY_SETTINGS
@given(real_maps(2, ()), real_maps(2, ()), st.tuples(PARTS, PARTS))
def test_property_d_omega_is_a_derivation(f, g, omega):
    K = 2.0 * BOX * 2
    lhs = d_omega(multiply(f, g, K=K), omega)
    rhs = multiply(d_omega(f, omega), g, K=K) + multiply(f, d_omega(g, omega), K=K)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


@PROPERTY_SETTINGS
@given(real_maps(2, ()), real_maps(2, ()))
def test_property_jacobian_is_a_derivation(f, g):
    K = 2.0 * BOX * 2
    lhs = multiply(f, g, K=K).jacobian()
    rhs = multiply(g, f.jacobian(), K=K) + multiply(f, g.jacobian(), K=K)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


@PROPERTY_SETTINGS
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    real_maps(m, (2,)),
    st.lists(st.integers(2 * BOX + 1, 2 * BOX + 4), min_size=m, max_size=m))))
def test_property_project_inverts_sample_inside_the_nyquist_box(case):
    f, shape = case
    grid = TorusGrid(f.m, shape)
    back = project_by_node_loop(grid, grid.sample(f), f.K, prune=0.0)
    assert (back - f).norm() <= 1e-13 * max(1.0, f.norm())


@PROPERTY_SETTINGS
@given(real_maps(2, ()), real_maps(2, (2,)))
def test_property_multiply_matches_grid_product(f, g):
    K = 2.0 * BOX * 2
    grid = spectral_grid(2, K)
    expected = project_by_node_loop(grid, grid.sample(f)[..., None] * grid.sample(g), K,
                                    prune=0.0)
    assert (multiply(f, g, K=K) - expected).norm() <= 1e-12 * max(1.0, expected.norm())


@PROPERTY_SETTINGS
@given(real_maps(2, (2, 2)), real_maps(2, (2,)), real_maps(2, (2, 2)))
def test_property_matmul_matches_grid_product(A, x, B):
    K = 2.0 * BOX * 2
    grid = spectral_grid(2, K)
    Av = grid.sample(A)
    for g, prod in ((x, (Av @ grid.sample(x)[..., None])[..., 0]), (B, Av @ grid.sample(B))):
        expected = project_by_node_loop(grid, prod, K, prune=0.0)
        assert (matmul(A, g, K=K) - expected).norm() <= 1e-12 * max(1.0, expected.norm())


@PROPERTY_SETTINGS
@given(real_maps(2, ()), real_maps(2, (2,)), real_maps(2, (2, 2)), real_maps(2, (2, 2)),
       st.sampled_from([2.0, 3.0, 8.0]))
def test_property_products_match_the_dict_convolution(s, x, A, B, K):
    assert_bitwise(multiply(s, x, K=K), dict_convolve(s, x, lambda a, b: a * b, K))
    assert_bitwise(matmul(A, x, K=K), dict_convolve(A, x, np.matmul, K))
    assert_bitwise(matmul(A, B, K=K), dict_convolve(A, B, np.matmul, K))


@PROPERTY_SETTINGS
@given(real_maps(3, (3,)), real_maps(3, (3,)))
def test_property_sum_and_difference_match_the_dict_arithmetic(f, g):
    assert_bitwise(f + g, dict_binary(f, g, lambda a, b: a + b))
    assert_bitwise(f - g, dict_binary(f, g, lambda a, b: a - b))


def dense_sample(grid, fmap):
    """Reference sample: zero-fill the whole grid and run ``ifftn`` over every value component."""
    dense = np.zeros(grid.shape + fmap.value_shape, dtype=complex)
    dense[tuple((fmap.keys % grid.shape).T)] = fmap.values
    vals = np.fft.ifftn(dense, axes=tuple(range(grid.m))) * grid.size
    return vals.real


@st.composite
def maps_on_grids(draw, fits=True):
    """A grid of 2 to 9 nodes per axis and a map with keys in its Nyquist box.

    One key sits on the box's edge; with ``fits=False`` that key lies one
    frequency beyond it.
    """
    m = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(2, 9), min_size=m, max_size=m)))
    value_shape = draw(st.sampled_from([(), (2,), (2, 3)]))
    top = [(n - 1) // 2 for n in shape]
    keys = draw(st.lists(st.tuples(*[st.integers(-t, t) for t in top]), max_size=7))
    axis = draw(st.integers(0, m - 1))
    edge = [draw(st.integers(-t, t)) for t in top]
    edge[axis] = draw(st.sampled_from([-1, 1])) * (top[axis] + (0 if fits else 1))
    p = int(np.prod(value_shape, dtype=int))
    parts = st.lists(PARTS, min_size=p, max_size=p)
    coeffs = {k: complex_value(draw(parts), draw(parts), value_shape)
              for k in keys + [tuple(edge)]}
    K = math.sqrt(sum((t + 1) ** 2 for t in top))
    return TorusGrid(m, shape), FourierMap(m, K, coeffs, value_shape)


@PROPERTY_SETTINGS
@given(maps_on_grids())
def test_property_pruned_sample_matches_the_dense_ifftn(case):
    grid, f = case
    got, ref = grid.sample(f), dense_sample(grid, f)
    assert got.shape == ref.shape == grid.shape + f.value_shape
    assert got.dtype == ref.dtype
    scale = max(1.0, float(np.sum(np.abs(f.values))))
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * scale


@PROPERTY_SETTINGS
@given(maps_on_grids(fits=False))
def test_property_sample_rejects_a_key_beyond_the_grid(case):
    grid, f = case
    assume(np.any(np.abs(f.keys) > grid.max_freq()))  # the closure may zero the key
    with pytest.raises(ValueError, match="does not fit on grid"):
        grid.sample(f)


def assert_slabs_match_the_sample(grid, fmap):
    """The slab pass, stacked along the last grid axis, is ``grid.sample`` byte for byte."""
    slabs = list(grid._slabs(fmap))
    assert len(slabs) == grid.shape[-1]
    for slab in slabs:
        assert slab.shape == grid.shape[:-1] + fmap.value_shape and slab.flags.c_contiguous
    got, ref = np.stack(slabs, axis=grid.m - 1), grid.sample(fmap)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def dense_map(rng, shape, value_shape, n_keys=40):
    """A real map with random keys anywhere in the Nyquist box of a grid of ``shape``."""
    top = [(n - 1) // 2 for n in shape]
    keys = np.stack([rng.integers(-t, t + 1, size=n_keys) for t in top], axis=1)
    coeffs = {tuple(k): rng.normal(size=value_shape) + 1j * rng.normal(size=value_shape)
              for k in keys.tolist()}
    return FourierMap(len(shape), math.sqrt(sum(t * t for t in top)), coeffs, value_shape)


@pytest.mark.parametrize("value_shape", [(), (3,), (3, 2)], ids=["scalar", "vector", "matrix"])
@pytest.mark.parametrize("shape", [(64,), (9, 9), (13, 15, 17), (7, 6, 5, 7)],
                         ids=["m1", "m2", "13x15x17", "m4"])
def test_slab_pass_stacks_to_the_sample(shape, value_shape):
    # m = 1 included: one node's contraction could pick another einsum inner loop.
    rng = np.random.default_rng(len(shape) * 10 + len(value_shape))
    grid = TorusGrid(len(shape), shape)
    assert_slabs_match_the_sample(grid, dense_map(rng, shape, value_shape))
    m = len(shape)
    for fmap in (FourierMap.constant(m, np.full(value_shape, 1.5 + 0j)),  # the zero key only
                 FourierMap.zero(m, value_shape, 2.0)):
        assert_slabs_match_the_sample(grid, fmap)


@pytest.mark.parametrize("K", [8.0, 12.0])
def test_slab_pass_stacks_to_the_sample_of_the_chain_torus(K):
    from torusred.models import ChainConfig, chain_bundle

    e0 = chain_bundle(ChainConfig(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0,
                                  a=1.0, b=2.0, c=-1.0, d=-1.0), K=K).e0
    grid = spectral_grid(3, K)
    for fmap in (e0, e0.jacobian()):
        assert_slabs_match_the_sample(grid, fmap)


@PROPERTY_SETTINGS
@given(maps_on_grids())
def test_property_slab_pass_stacks_to_the_sample(case):
    assert_slabs_match_the_sample(*case)


# ----------------------------------------------------------------------
# one integer per key


def find_by_rows(keys, queries):
    """``_find`` through ``np.unique`` on the rows themselves."""
    _, inv = np.unique(np.concatenate([keys, queries]), axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    row = np.full(len(keys) + len(queries), -1)
    row[inv[:len(keys)]] = np.arange(len(keys))
    return row[inv[len(keys):]]


def sum_on_keys_by_rows(keys, values):
    """``_sum_on_keys`` through ``np.unique`` on the rows themselves."""
    _, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    out = values[first]
    rest = np.setdiff1d(np.arange(len(keys)), first)
    np.add.at(out, inv.reshape(-1)[rest], values[rest])
    order = np.argsort(first)
    return keys[first[order]], out[order]


def code_limit(m):
    """The largest ``R`` with ``(2R + 1)^m < 2^62``."""
    R = int(round((2 ** 62) ** (1 / m) / 2))
    while (2 * R + 1) ** m >= 2 ** 62:
        R -= 1
    while (2 * (R + 1) + 1) ** m < 2 ** 62:
        R += 1
    return R


def key_sets(rng, m, R, n=60):
    """Random rows in ``[-R, R]^m`` with duplicates, negated rows and the corners ``+-R``."""
    keys = rng.integers(-R, R + 1, size=(n, m), dtype=np.int64)
    keys[:3] = [[R] * m, [-R] * m, [0] * m]
    keys = np.concatenate([keys, -keys[::3], keys[rng.integers(0, n, size=n // 2)]])
    return keys[rng.permutation(len(keys))]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("R", ["small", "limit", "beyond"])
def test_coded_keys_match_the_row_oracles(m, R):
    rng = np.random.default_rng(m)
    R = {"small": 3, "limit": code_limit(m), "beyond": code_limit(m) + 1}[R]
    keys = key_sets(rng, m, R)
    assert (fourier._codes(keys) is None) == ((2 * R + 1) ** m >= 2 ** 62)
    first, inv = fourier._unique_rows(keys)
    _, ref_first, ref_inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(first, ref_first) and np.array_equal(inv, ref_inv.reshape(-1))

    values = rng.normal(size=(len(keys), 2)) + 1j * rng.normal(size=(len(keys), 2))
    values[::7] = -0.0  # a sum of signed zeros keeps its sign only in row order
    for got, ref in zip(fourier._sum_on_keys(keys, values), sum_on_keys_by_rows(keys, values)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    distinct = keys[np.sort(ref_first)]
    for queries in (keys, -keys, np.zeros((0, m), dtype=np.int64)):
        assert np.array_equal(fourier._find(distinct, queries), find_by_rows(distinct, queries))


def test_codes_fall_back_to_rows_at_the_range_limit():
    for m in (1, 2, 3, 4):
        R = code_limit(m)
        assert fourier._codes(np.array([[R] * m])) is not None
        assert fourier._codes(np.array([[-(R + 1)] + [0] * (m - 1)])) is None


# ----------------------------------------------------------------------
# grid sizing


@pytest.mark.parametrize("K", [0.5, 2.0, 8.0, 20.0, 21.0, 30.0])
def test_spectral_grid_floors_a_circle_only_without_a_support_bound(K):
    n = 3 * math.ceil(K) + 1
    assert spectral_grid(1, K).shape == (max(n, 64),)
    for s in (0, 2, 40):
        assert spectral_grid(1, K, support=s).shape == (min(n, 2 * s + 3),)
    assert spectral_grid(2, K).shape == (n, n)
    assert spectral_grid(3, 8.0).shape == (25, 25, 25)
