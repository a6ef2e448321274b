"""Concrete oscillator systems.

The Stuart-Landau oscillator comes with analytic cycle and bundle data
(its cycle is the single harmonic ``R exp(i phi)`` run at its signed
frequency) and serves as the building block of the three-oscillator
chain whose outer members synchronise through the middle one.  A
generic :class:`OscillatorModel` interface admits user-defined coupled
systems; complex oscillator states are represented as real pairs
throughout, so all bundle matrices stay real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import LimitCycle, TorusBundle, product_bundle, validate_bundle
from .errors import ConfigError
from .fourier import FourierMap, SmoothMap
from .reduction import phase_difference_field
from .sim import _check_pair

__all__ = [
    "StuartLandauParams",
    "ChainConfig",
    "OscillatorModel",
    "stuart_landau_field",
    "stuart_landau_cycle",
    "sl_bundle",
    "chain_model",
    "chain_bundle",
    "chain_phase_constants",
    "chain_slow_law",
]


@dataclass
class StuartLandauParams:
    """Parameters of ``dz/dt = (alpha + i beta) z + (gamma + i delta) |z|^2 z``."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if not self.alpha * self.gamma < 0:
            raise ConfigError(
                "need alpha*gamma < 0 for a nonzero circular orbit "
                f"(got alpha={self.alpha}, gamma={self.gamma})"
            )
        if self.beta * self.gamma - self.alpha * self.delta == 0:
            raise ConfigError("degenerate parameters: the orbit frequency vanishes")

    @property
    def radius(self):
        return math.sqrt(-self.alpha / self.gamma)

    @property
    def frequency(self):
        return self.beta - self.alpha * self.delta / self.gamma

    @property
    def floquet_exponent(self):
        return -2.0 * self.alpha

    @property
    def period(self):
        return 2.0 * math.pi / abs(self.frequency)


def _to_complex(x):
    """The complex values of a state of ``(Re z, Im z)`` pairs, as a view; never written to."""
    return np.ascontiguousarray(x, dtype=float).view(complex)


def _to_real(z):
    return np.ascontiguousarray(z).view(float)


def _vanishing(x, *vs):
    """A derivative that vanishes identically."""
    return np.zeros_like(np.asarray(x, dtype=float))


def _cubic_oscillator_maps(lin, cub):
    """SmoothMap for block-diagonal fields ``z_j -> lin_j z_j + cub_j |z_j|^2 z_j``."""
    lin = np.asarray(lin, dtype=complex)
    cub = np.asarray(cub, dtype=complex)
    n = lin.size

    def fun(x):
        z = _to_complex(x)
        return _to_real(lin * z + cub * np.abs(z) ** 2 * z)

    def d1(x, v):
        z, u = _to_complex(x), _to_complex(v)
        return _to_real(lin * u + cub * (2.0 * np.abs(z) ** 2 * u + z * z * np.conj(u)))

    def d2(x, u_, v_):
        z, u, v = (_to_complex(a) for a in (x, u_, v_))
        return _to_real(2.0 * cub * (np.conj(z) * u * v + z * (u * np.conj(v) + np.conj(u) * v)))

    def d3(x, u_, v_, w_):
        u, v, w = (_to_complex(a) for a in (u_, v_, w_))
        return _to_real(2.0 * cub * (u * v * np.conj(w) + u * np.conj(v) * w + np.conj(u) * v * w))

    def jac(x):
        z = _to_complex(x)
        p = lin + 2.0 * cub * np.abs(z) ** 2
        q = cub * z * z
        out = np.zeros(z.shape[:-1] + (2 * n, 2 * n))
        for j in range(n):
            pj, qj = p[..., j], q[..., j]
            out[..., 2 * j, 2 * j] = (pj + qj).real
            out[..., 2 * j, 2 * j + 1] = -(pj - qj).imag
            out[..., 2 * j + 1, 2 * j] = (pj + qj).imag
            out[..., 2 * j + 1, 2 * j + 1] = (pj - qj).real
        return out

    return SmoothMap(fun, derivs=(d1, d2, d3, _vanishing), jac=jac, degree=3)


def stuart_landau_field(p: StuartLandauParams) -> SmoothMap:
    """The oscillator vector field on R^2, with derivatives to order 4."""
    return _cubic_oscillator_maps([p.alpha + 1j * p.beta], [p.gamma + 1j * p.delta])


def stuart_landau_cycle(p: StuartLandauParams) -> LimitCycle:
    """The circular orbit ``R exp(i phi)``, run at the signed frequency ``omega``."""
    R = p.radius
    orbit = FourierMap.harmonic(1, (1,), np.array([R / 2.0, -1j * R / 2.0]))
    return LimitCycle(orbit, p.frequency, stuart_landau_field(p))


def sl_bundle(p: StuartLandauParams, K) -> TorusBundle:
    """Analytic torus bundle of the Stuart-Landau cycle.

    The embedding is ``R exp(i phi)`` and the fast fibre direction is
    ``exp(i phi) (gamma + i delta)`` with Floquet matrix ``-2 alpha``.
    """
    R = p.radius
    g, d = p.gamma, p.delta
    e0 = FourierMap.harmonic(1, (1,), np.array([R / 2.0, -1j * R / 2.0]), K=K)
    N = FourierMap.harmonic(
        1, (1,), np.array([[(g + 1j * d) / 2.0], [-1j * (g + 1j * d) / 2.0]]), K=K
    )
    L = np.array([[p.floquet_exponent]])
    bundle = TorusBundle(e0, np.array([p.frequency]), N, L)
    bundle.diagnostics = validate_bundle(bundle, stuart_landau_field(p), pde_tol=1e-10)
    return bundle


# ----------------------------------------------------------------------
# generic coupled-oscillator interface


@dataclass
class OscillatorModel:
    """A weakly coupled oscillator network ``dx/dt = F0(x) + sum_i eps^i F_i(x)``.

    ``dims[j]`` is the state dimension of oscillator ``j``; the
    uncoupled field ``F0`` is block-diagonal over the oscillators, and
    ``perturbations[i - 1]`` is the :class:`SmoothMap` ``F_i``.  Evaluators
    must be pure and accept batched states.  ``pair``, when given, names two
    distinct oscillators ``(i, j)``, by the rule ``integrate_reduced`` applies
    to phases; their angle ``arg(z_i conj z_j)`` is the synchronisation
    observable.  ``fast_step``, when given, is ``fast_step(eps, scheme, dt)``:
    one integrator step of ``rhs`` on the tuple of the oscillators' complex
    values, with the arithmetic of stepping ``rhs`` on the real state.  A
    model with either is made of complex pairs, each oscillator's ``(Re z, Im z)``.
    """

    dims: list
    F0: SmoothMap
    perturbations: list
    omega: np.ndarray
    pair: tuple | None = None
    fast_step: object = None

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float).reshape(-1)
        if len(self.dims) != self.omega.size:
            raise ConfigError("one frequency per oscillator required")
        if self.pair is not None:
            self.pair = _check_pair(self.pair, self.m)
        if (self.pair or self.fast_step) and any(d != 2 for d in self.dims):
            raise ConfigError("a model with a pair or a fast_step needs complex pairs (dims of 2)")

    @property
    def m(self):
        return len(self.dims)

    @property
    def M(self):
        return int(sum(self.dims))

    @property
    def F_list(self):
        return [self.F0] + list(self.perturbations)

    def rhs(self, x, eps):
        """Full vector field at coupling strength ``eps``."""
        out = self.F0.fun(x)
        w = 1.0
        for Fi in self.perturbations:
            w *= eps
            out = out + w * Fi.fun(x)
        return out


# ----------------------------------------------------------------------
# the three-oscillator chain

# The chain's outer oscillators, whose phase difference synchronises.
_OUTER = (0, 2)


@dataclass
class ChainConfig:
    """Parameters of the chain 1 <- 2 -> 1-like network of three oscillators.

    Oscillators 1 and 3 share (alpha, beta, gamma, delta); the middle
    oscillator has (a, b, c, d).  The coupling feeds oscillator 2 into
    both ends and oscillator 1 into the middle, each with strength
    ``epsilon``.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    a: float
    b: float
    c: float
    d: float
    epsilon: float = 0.1

    def __post_init__(self):
        self.outer = StuartLandauParams(self.alpha, self.beta, self.gamma, self.delta)
        self.middle = StuartLandauParams(self.a, self.b, self.c, self.d)
        if abs(self.outer.frequency - self.middle.frequency) < 1e-12:
            raise ConfigError(
                "resonance guard: the outer and middle frequencies coincide "
                f"(omega1 = omega2 = {self.outer.frequency}); the first "
                "tangential equation would be unsolvable"
            )


def chain_model(cfg: ChainConfig) -> OscillatorModel:
    """The three-oscillator chain as an :class:`OscillatorModel` (M = 6)."""
    p, q = cfg.outer, cfg.middle
    lin = [p.alpha + 1j * p.beta, q.alpha + 1j * q.beta, p.alpha + 1j * p.beta]
    cub = [p.gamma + 1j * p.delta, q.gamma + 1j * q.delta, p.gamma + 1j * p.delta]
    F0 = _cubic_oscillator_maps(lin, cub)

    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def f1(x):
        return _to_real(_to_complex(x) @ C.T)

    def f1_d1(x, v):
        return f1(v)

    jac1 = np.kron(C, np.eye(2))  # each complex coupling acts on a real pair
    F1 = SmoothMap(f1, derivs=(f1_d1, _vanishing, _vanishing, _vanishing),
                   jac=lambda x: np.broadcast_to(jac1, np.shape(x)[:-1] + (6, 6)), degree=1)

    l1, l2 = complex(lin[0]), complex(lin[1])
    g1, g2 = complex(cub[0]), complex(cub[1])

    def fast_step(eps, scheme, dt):
        # Scalar complex arithmetic in sim._rk4_step's order of operations.
        def field(z1, z2, z3):
            return (l1 * z1 + g1 * (z1.real * z1.real + z1.imag * z1.imag) * z1 + eps * z2,
                    l2 * z2 + g2 * (z2.real * z2.real + z2.imag * z2.imag) * z2 + eps * z1,
                    l1 * z3 + g1 * (z3.real * z3.real + z3.imag * z3.imag) * z3 + eps * z2)

        def euler(z):
            a1, a2, a3 = field(*z)
            return z[0] + dt * a1, z[1] + dt * a2, z[2] + dt * a3

        h, w = 0.5 * dt, dt / 6.0

        def rk4(z):
            z1, z2, z3 = z
            a1, a2, a3 = field(z1, z2, z3)
            b1, b2, b3 = field(z1 + h * a1, z2 + h * a2, z3 + h * a3)
            c1, c2, c3 = field(z1 + h * b1, z2 + h * b2, z3 + h * b3)
            d1, d2, d3 = field(z1 + dt * c1, z2 + dt * c2, z3 + dt * c3)
            return (z1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                    z2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                    z3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3))

        return euler if scheme == "euler" else rk4

    return OscillatorModel(
        dims=[2, 2, 2],
        F0=F0,
        perturbations=[F1],
        omega=[p.frequency, q.frequency, p.frequency],
        pair=_OUTER,
        fast_step=fast_step,
    )


def chain_bundle(cfg: ChainConfig, K) -> TorusBundle:
    """Analytic product bundle of the chain's three circular orbits.

    ``sl_bundle`` checks each circle; a reduction checks the product, whose
    conditioning comes from the circles' singular values, each circle's against the others' too.
    """
    outer = sl_bundle(cfg.outer, K=K)
    return product_bundle([outer, sl_bundle(cfg.middle, K=K), outer])


def chain_phase_constants(cfg: ChainConfig):
    """Closed-form constants (A, B) of the slow phase-difference law.

    The difference ``Phi`` of the outer phases obeys, at second order
    in the coupling, ``dPhi/dt = eps^2 (-A sin Phi + B (1 - cos Phi))``.
    Evaluated independently of the reduction engine so the two can
    cross-validate each other.
    """
    w1 = cfg.outer.frequency
    w2 = cfg.middle.frequency
    dg = cfg.delta / cfg.gamma
    dc = cfg.d / cfg.c
    a = cfg.a
    denom = 4.0 * a * a + (w1 - w2) ** 2
    dw = w2 - w1
    A = (dg * dw + a * (1.0 + dc * dg) + 2.0 * a * a * (dc + dg) / dw) / denom
    B = (dw + a * (dc - dg) + 2.0 * a * a * (1.0 - dc * dg) / dw) / denom
    return A, B


def chain_slow_law(result):
    """Constants (A, B) of the second-order law, read off a chain reduction.

    Reads the order-2 coefficients of the outer phases' difference field,
    assuming the form ``-A sin(Phi) - B cos(Phi) + B`` in ``Phi = phi_1 - phi_3``.
    Returns ``A``, the value of ``B`` read off the harmonic, and the constant
    coefficient (which equals ``B`` when the law has the expected shape).
    """
    if result.order < 2:
        raise ValueError("the slow law lives at order 2")
    term2 = phase_difference_field(result, *_OUTER)[2]
    c = complex(np.asarray(term2.coeffs.get((1, 0, -1), 0.0 + 0.0j)))  # e^{i Phi}
    c0 = complex(np.asarray(term2.coeffs.get((0, 0, 0), 0.0 + 0.0j)))
    return 2.0 * c.imag, -2.0 * c.real, c0.real
