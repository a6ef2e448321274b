"""Reducible normally hyperbolic torus data.

A limit cycle of a smooth vector field carries a Floquet decomposition
of its fundamental matrix solution; from it we build a fast fibre map
``N(phi)`` together with a constant hyperbolic matrix ``L`` governing
the linearised dynamics transverse to the cycle, and the oblique
projection ``pi(phi)`` onto the tangent direction along the fibres.
Products of such circles give the torus data for uncoupled oscillator
networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from .errors import HyperbolicityError, NumericalError, TransversalityError
from .fourier import FourierMap, TorusGrid, _sum_on_keys, check_grid, d_omega

__all__ = [
    "LimitCycle",
    "MonodromyData",
    "TorusBundle",
    "oblique_projection",
    "floquet_matrix_from_monodromy",
    "floquet_decompose",
    "cycle_bundle",
    "product_bundle",
    "validate_bundle",
    "tangent_identity_residual",
    "find_limit_cycle",
]

CYCLE_SAMPLES = 2048  # RK4 steps (and stored samples) over one period of a cycle
PHASE_SAMPLES = 256  # phase-grid samples of the periodic Floquet factor
COND_THRESHOLD = 1e10  # largest admissible condition number of a frame
CLOSURE_TOL = 1e-8  # relative |X(T) - X(0)| a stored orbit may show
EXPONENT_GAP = 1e-6  # Floquet exponents closer than this to the axis are neutral
SV_TOL = 1e-8  # relative singular value below which B is rank-deficient
PROJ_TOL = 1e-10  # relative error of the projection identities (scaled by 10 on grids)

# find_limit_cycle: RK4 step, radius around the landing point in which a
# section crossing counts as a return, and the longest period searched.
RETURN_DT = 2e-3
RETURN_RADIUS = 0.5
RETURN_MAX_TIME = 200.0


def _rk4_step(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class LimitCycle:
    """A hyperbolic periodic orbit, sampled on a uniform time grid.

    ``samples[i]`` is the state at ``t_i = i * period / n`` for
    ``i = 0 .. n`` (both endpoints stored) of an orbit of the vector
    field ``field``; closure of the orbit is checked on construction.
    """

    def __init__(self, period, samples, field):
        self.period = float(period)
        self.samples = np.asarray(samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] < 3:
            raise ValueError("expected samples of shape (n+1, M)")
        self.dimension = self.samples.shape[1]
        self.field = field
        scale = max(1.0, float(np.max(np.abs(self.samples))))
        gap = float(np.max(np.abs(self.samples[-1] - self.samples[0])))
        if gap > CLOSURE_TOL * scale:
            raise NumericalError(
                f"orbit does not close up: |X(T) - X(0)| = {gap:.3e} exceeds "
                f"{CLOSURE_TOL:.1e} (relative)"
            )
        if self.period <= 0:
            raise ValueError("period must be positive")

    @classmethod
    def from_flow(cls, field, x0, period):
        """Integrate ``field`` over one period with fixed-step RK4."""
        dt = period / CYCLE_SAMPLES
        x = np.asarray(x0, dtype=float)
        samples = [x]
        for _ in range(CYCLE_SAMPLES):
            x = _rk4_step(field.fun, x, dt)
            samples.append(x)
        return cls(period, np.array(samples), field)

    @classmethod
    def from_function(cls, orbit, period, field):
        """Build from a closed-form orbit ``t -> X(t)``."""
        t = np.linspace(0.0, period, CYCLE_SAMPLES + 1)
        return cls(period, np.array([orbit(ti) for ti in t]), field)


def find_limit_cycle(field, x0, t_transient):
    """Locate a stable limit cycle by settling onto it and timing a return.

    Integrates a transient, drops a Poincare section through the landing
    point orthogonal to the flow, and refines the first same-direction
    return with Newton steps on the crossing time.
    """
    dt = RETURN_DT
    x = np.asarray(x0, dtype=float)
    for _ in range(int(round(t_transient / dt))):
        x = _rk4_step(field.fun, x, dt)
    p = x
    n = field.fun(p)
    n = n / np.linalg.norm(n)

    def section(y):
        return float(np.dot(n, y - p))

    t, x = 0.0, p
    prev = 0.0
    period = None
    while t < RETURN_MAX_TIME:
        x_new = _rk4_step(field.fun, x, dt)
        t_new = t + dt
        cur = section(x_new)
        crossed = prev < 0.0 <= cur and np.linalg.norm(x_new - p) < RETURN_RADIUS
        if crossed and t > dt:
            tau, y = 0.0, x
            for _ in range(8):
                g = section(y)
                dg = float(np.dot(n, field.fun(y)))
                step = -g / dg
                tau += step
                y = _rk4_step(field.fun, x, tau)
                if abs(section(y)) < 1e-13:
                    break
            period = t + tau
            break
        prev, x, t = cur, x_new, t_new
    if period is None:
        raise NumericalError("no return to the section found; not a (stable) cycle?")
    return LimitCycle.from_flow(field, p, period)


@dataclass
class MonodromyData:
    """Floquet factorisation data of a periodic orbit.

    Holds the constant matrix ``B = log(Phi(T)) / T`` (principal real
    logarithm) and samples of the periodic factor
    ``P(t) = Phi(t) exp(-B t)`` together with the orbit itself on a
    uniform phase grid.  ``floquet_decompose`` checks the factorisation.
    """

    period: float
    floquet_matrix: np.ndarray
    periodic_samples: np.ndarray
    orbit_samples: np.ndarray


def floquet_matrix_from_monodromy(PhiT, period):
    """Principal real logarithm of the monodromy matrix, divided by the period.

    Rejects monodromy matrices with eigenvalues on the negative real
    axis (a real logarithm would require passing to a double cover) and
    orbits whose exponent structure is not that of a normally
    hyperbolic cycle: exactly one exponent may sit near the imaginary
    axis, and it has to vanish.
    """
    PhiT = np.asarray(PhiT, dtype=float)
    evals = np.linalg.eigvals(PhiT)
    scale = float(np.max(np.abs(evals)))
    for lam in evals:
        if lam.real < 0 and abs(lam.imag) <= 1e-10 * scale:
            raise NumericalError(
                f"monodromy matrix has a negative real eigenvalue {lam.real:.6e}; "
                "no real logarithm on a single cover"
            )
    B = logm(PhiT)
    if np.max(np.abs(B.imag)) > 1e-10 * max(1.0, np.max(np.abs(B.real))):
        raise NumericalError("matrix logarithm came out non-real")
    B = B.real / period
    exponents = np.linalg.eigvals(B)
    near_axis = [lam for lam in exponents if abs(lam.real) < EXPONENT_GAP]
    if len(near_axis) != 1:
        raise HyperbolicityError(
            f"{len(near_axis)} Floquet exponents within {EXPONENT_GAP:.1e} of the "
            "imaginary axis; the cycle is not normally hyperbolic"
        )
    if abs(near_axis[0]) > 1e-6:
        raise HyperbolicityError(
            f"the near-axis Floquet exponent {near_axis[0]:.3e} does not vanish"
        )
    return B


def floquet_decompose(cycle):
    """Integrate the variational equation and factor the fundamental matrix.

    The cycle's field supplies the vector field and its Jacobian.  RK4
    takes ``CYCLE_SAMPLES`` steps over one period and keeps
    ``PHASE_SAMPLES`` of them for the periodic factor.
    """
    field = cycle.field
    if field.jac is None:
        raise ValueError("the cycle's vector field must carry a Jacobian evaluator")
    M = cycle.dimension
    n_steps, n_phi = CYCLE_SAMPLES, PHASE_SAMPLES
    stride = n_steps // n_phi
    dt = cycle.period / n_steps

    def aug_rhs(state):
        x, Phi = state[:, 0], state[:, 1:]
        return np.column_stack([field.fun(x), field.jac(x) @ Phi])

    state = np.column_stack([cycle.samples[0], np.eye(M)])
    fundamentals = [np.eye(M)]
    orbit = [cycle.samples[0]]
    for i in range(n_steps):
        state = _rk4_step(aug_rhs, state, dt)
        if (i + 1) % stride == 0:
            fundamentals.append(state[:, 1:].copy())
            orbit.append(state[:, 0].copy())
    PhiT = fundamentals[-1]
    B = floquet_matrix_from_monodromy(PhiT, cycle.period)
    times = np.arange(n_phi + 1) * (cycle.period / n_phi)
    P = np.array([fundamentals[i] @ expm(-B * times[i]) for i in range(n_phi + 1)])
    eye = np.eye(M)
    if np.max(np.abs(P[-1] - eye)) > 1e-6:
        raise NumericalError("periodic factor fails to return to the identity")
    err = np.max(np.abs(expm(B * cycle.period) - PhiT))
    if err > 1e-8 * max(1.0, np.max(np.abs(PhiT))):
        raise NumericalError(f"exp(B T) deviates from the monodromy matrix by {err:.3e}")
    return MonodromyData(cycle.period, B, periodic_samples=P[:-1],
                         orbit_samples=np.array(orbit[:-1]))


# ----------------------------------------------------------------------
# projections


def _oblique_projection_batch(A, B):
    """Projection onto im(A) along im(B) for stacked matrices.

    Uses pi = A (A^T Q A)^{-1} A^T Q with Q the orthogonal projection
    onto the complement of im(B).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    M = A.shape[-2]
    eye = np.broadcast_to(np.eye(M), A.shape[:-2] + (M, M))
    BtB = np.swapaxes(B, -1, -2) @ B
    Q = eye - B @ np.linalg.solve(BtB, np.swapaxes(B, -1, -2))
    AtQ = np.swapaxes(A, -1, -2) @ Q
    core = AtQ @ A
    return A @ np.linalg.solve(core, AtQ)


def oblique_projection(A, B):
    """Projection onto the image of ``A`` along the image of ``B``.

    ``A`` (M x m) and ``B`` (M x (M-m)) must be injective with
    complementary images; degeneracy is detected through the condition
    number of the stacked matrix ``[A | B]``.

    Returns the unique M x M matrix with ``pi A = A`` and ``pi B = 0``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    stacked = np.concatenate([A, B], axis=-1)
    cond = float(np.linalg.cond(stacked))
    if not np.isfinite(cond) or cond > COND_THRESHOLD:
        raise TransversalityError("images of A and B are nearly degenerate", cond)
    pi = _oblique_projection_batch(A, B)
    err = max(
        float(np.max(np.abs(pi @ A - A))),
        float(np.max(np.abs(pi @ B))),
        float(np.max(np.abs(pi @ pi - pi))),
    )
    if err > 1e-10 * max(1.0, float(np.max(np.abs(pi)))):
        raise TransversalityError(f"projection identities violated at {err:.3e}", cond)
    return pi


# ----------------------------------------------------------------------
# bundles


class TorusBundle:
    """Embedding plus fast fibre data of a reducible invariant torus.

    Attributes
    ----------
    e0 : FourierMap
        Torus embedding, values in R^M.
    omega : ndarray
        Frequency vector of the (quasi-)periodic flow.
    N : FourierMap
        Fast fibre map, values are M x (M-m) matrices.
    L : ndarray
        Constant hyperbolic Floquet matrix, (M-m) x (M-m).
    pi : FourierMap
        Projection onto the tangent bundle along the fibres, M x M.
    """

    def __init__(self, e0, omega, N, L, pi):
        self.e0 = e0
        self.omega = np.asarray(omega, dtype=float).reshape(-1)
        self.N = N
        self.L = np.asarray(L, dtype=float)
        self.pi = pi
        self.diagnostics = {}
        if e0.m != self.omega.size:
            raise ValueError("frequency vector does not match torus dimension")

    @property
    def m(self):
        return self.e0.m

    @property
    def M(self):
        return self.e0.value_shape[0]

    @property
    def K(self):
        return max(self.e0.K, self.N.K, self.pi.K)

    def sample_frames(self, grid):
        """``(e0', N, pi)`` sampled on ``grid``."""
        return grid.sample(self.e0.jacobian()), grid.sample(self.N), grid.sample(self.pi)

    def spectral_gap(self):
        return float(np.min(np.abs(np.linalg.eigvals(self.L).real)))

    def to_json_dict(self):
        return {
            "omega": self.omega.tolist(),
            "e0": self.e0.to_json_dict(),
            "N": self.N.to_json_dict(),
            "pi": self.pi.to_json_dict(),
            "L": [list(map(float, row)) for row in self.L],
            "diagnostics": self.diagnostics,
        }


def validate_bundle(bundle, F0, grid=None, pde_tol=1e-8):
    """Check the defining properties of a torus bundle on a dense grid.

    Samples ``e0'``, ``N`` and ``pi`` once and verifies transversality of
    ``[e0' | N]`` (condition number below ``COND_THRESHOLD`` at every node,
    which bounds each column block alone too), the invariance equation
    ``d_omega N + N L = (F0' o e0) N`` of the uncoupled field ``F0``,
    hyperbolicity of ``L``, and the algebraic identities of ``pi``.
    Returns a diagnostics dict; raises on violation.
    """
    if grid is None:
        grid = check_grid(bundle.m, bundle.K)
    E, Nv, Pv = bundle.sample_frames(grid)
    stacked = np.concatenate([E, Nv], axis=-1)
    max_cond = float(np.max(np.linalg.cond(stacked.reshape((-1,) + stacked.shape[-2:]))))
    if not np.isfinite(max_cond) or max_cond > COND_THRESHOLD:
        raise TransversalityError("tangent and fibre frames degenerate on the grid", max_cond)

    gap = bundle.spectral_gap()

    n_scale = max(1.0, float(np.max(np.abs(Nv))))
    lhs = grid.sample(d_omega(bundle.N, bundle.omega)) + Nv @ bundle.L
    J = F0.jac(grid.sample(bundle.e0))
    pde_rel = float(np.max(np.abs(lhs - J @ Nv))) / n_scale

    p_scale = max(1.0, float(np.max(np.abs(Pv))))
    idem = float(np.max(np.abs(Pv @ Pv - Pv)))
    keep_tangent = float(np.max(np.abs(Pv @ E - E)))
    kill_fibre = float(np.max(np.abs(Pv @ Nv)))

    diag = {
        "max_condition": max_cond,
        "spectral_gap": gap,
        "pde_residual_rel": pde_rel,
        "pi_idempotent": idem,
        "pi_tangent": keep_tangent,
        "pi_fibre": kill_fibre,
    }
    if gap <= 1e-9:
        raise HyperbolicityError(f"Floquet matrix is not hyperbolic (gap {gap:.3e})")
    if pde_rel > pde_tol:
        raise NumericalError(
            f"fibre invariance equation violated: relative residual {pde_rel:.3e}"
        )
    scale = max(p_scale, n_scale)
    if max(idem, keep_tangent, kill_fibre) > PROJ_TOL * scale * 10:
        raise NumericalError("projection identities violated on the grid")
    return diag


def cycle_bundle(cycle, monodromy, K=8.0):
    """Torus bundle (m = 1) of a hyperbolic limit cycle.

    The fibre frame is ``N(phi) = P(phi / omega) A`` where the columns
    of ``A`` are the left singular vectors of the Floquet matrix ``B``
    belonging to its nonzero part, with a deterministic sign convention
    (first entry of significant size is positive).  ``L`` is ``B``
    restricted to the range of ``A``.  The bundle is validated against
    the cycle's field on the phase grid.
    """
    B = monodromy.floquet_matrix
    M = B.shape[0]
    U, S, _ = np.linalg.svd(B)
    rank = int(np.sum(S > SV_TOL * S[0]))
    if rank != M - 1:
        raise HyperbolicityError(
            f"Floquet matrix has rank {rank}, expected {M - 1}; cannot span the fibres"
        )
    A = U[:, :rank].copy()
    for j in range(rank):
        col = A[:, j]
        lead = col[np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))]
        if lead < 0:
            A[:, j] = -col
    L = A.T @ B @ A
    frame_err = np.max(np.abs(A @ L - B @ A))
    if frame_err > 1e-9 * max(1.0, np.max(np.abs(B))):
        raise NumericalError(f"fibre frame is not invariant under B ({frame_err:.3e})")

    P = monodromy.periodic_samples
    n_phi = P.shape[0]
    grid = TorusGrid(1, (n_phi,))
    N_vals = P @ A
    e0 = grid.project(monodromy.orbit_samples, K)
    N = grid.project(N_vals, K)
    E_vals = grid.sample(e0.jacobian())
    pi_vals = _oblique_projection_batch(E_vals, N_vals)
    pi = grid.project(pi_vals, K)
    omega = np.array([2.0 * math.pi / monodromy.period])
    bundle = TorusBundle(e0, omega, N, L, pi)
    bundle.diagnostics = validate_bundle(bundle, cycle.field, grid=grid)
    return bundle


def product_bundle(bundles):
    """Direct product of torus bundles: block-diagonal fibre data.

    Frequencies concatenate; ``e0``, ``N`` and ``pi`` embed blockwise;
    the Floquet matrix is the block diagonal of the factors, so its
    eigenvalue multiset is the union of theirs.
    """
    bundles = list(bundles)
    if not bundles:
        raise ValueError("need at least one bundle")
    if len(bundles) == 1:
        return bundles[0]
    m = sum(b.m for b in bundles)
    M = sum(b.M for b in bundles)
    r = sum(b.M - b.m for b in bundles)
    K = max(b.K for b in bundles)
    omega = np.concatenate([b.omega for b in bundles])
    L = np.zeros((r, r))

    shapes = {"e0": (M,), "N": (M, r), "pi": (M, M)}
    keys = {name: [] for name in shapes}
    values = {name: [] for name in shapes}
    m_off = M_off = r_off = 0
    for b in bundles:
        bm, bM, br = b.m, b.M, b.M - b.m
        L[r_off:r_off + br, r_off:r_off + br] = b.L
        rows, cols = slice(M_off, M_off + bM), slice(r_off, r_off + br)
        for name, f, block in (("e0", b.e0, (rows,)), ("N", b.N, (rows, cols)),
                               ("pi", b.pi, (rows, rows))):
            k = np.zeros((len(f.keys), m), dtype=np.int64)
            k[:, m_off:m_off + bm] = f.keys
            v = np.zeros((len(f.keys),) + shapes[name], dtype=complex)
            v[(slice(None),) + block] = f.values
            keys[name].append(k)
            values[name].append(v)
        m_off += bm
        M_off += bM
        r_off += br

    # Only k = 0 is shared between factors; its blocks add up in factor order.
    e0, N, pi = (
        FourierMap(m, K, _sum_on_keys(np.concatenate(keys[name]), np.concatenate(values[name])),
                   shape)
        for name, shape in shapes.items()
    )
    return TorusBundle(e0, omega, N, L, pi)


def tangent_identity_residual(bundle, F0):
    """Residual of the differentiated conjugacy identity.

    For a valid embedding, the derivative of ``e0`` along the flow
    satisfies ``d_omega(e0') = (F0' o e0) e0'`` pointwise.
    """
    grid = check_grid(bundle.m, bundle.K)
    E = bundle.e0.jacobian()
    lhs = grid.sample(d_omega(E, bundle.omega))
    J = F0.jac(grid.sample(bundle.e0))
    rhs = J @ grid.sample(E)
    return float(np.max(np.abs(lhs - rhs)))
