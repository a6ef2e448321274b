"""Reducible normally hyperbolic torus data.

A limit cycle of a smooth vector field is solved for in Fourier
collocation: its values ``X`` at ``n`` equispaced phase nodes and its
frequency ``omega`` satisfy ``omega D X = F(X)``, with ``D`` the spectral
derivative, and Newton's method polishes a start, a Fourier series
traversed at a signed frequency, into that solution.  The spectrum of
``omega D - F'(X)`` is ``-lambda_j + i omega k`` over the Floquet
exponents ``lambda_j``; one representative of each family and its
eigenvector give the fast fibre map ``N(phi)`` and the constant
hyperbolic matrix ``L`` of the linearised dynamics transverse to the
cycle.  The tangent vector ``e0'`` and the fibres ``N`` form the
frame ``[e0' | N]`` in which a reduction splits its forcing.  Products
of such circles give the torus data for uncoupled oscillator networks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (HyperbolicityError, InvarianceError, NumericalError, TransversalityError,
                     TruncationSaturationError)
from .fourier import (SATURATION_TOL, FourierMap, SmoothMap, TorusGrid, _radius_nodes,
                      _sum_on_keys, d_omega, spectral_grid)

__all__ = [
    "LimitCycle",
    "TorusBundle",
    "cycle_bundle",
    "product_bundle",
    "validate_bundle",
]

COND_THRESHOLD = 1e10  # largest admissible condition number of a frame
EXPONENT_GAP = 1e-6  # Floquet exponents closer than this to the axis are neutral
NEWTON_STEPS = 12  # Newton steps a cycle solve may take
NEWTON_TOL = 1e-12  # collocation residual, relative to the field, of a solved cycle


class LimitCycle(NamedTuple):
    """A start for the collocation solve of a limit cycle of ``field``.

    ``orbit`` is a Fourier series on the circle with values in R^M,
    traversed at the signed angular frequency ``omega``: the state at
    time ``t`` is ``orbit(omega t)``.  A solved bundle ``b`` starts the
    cycle of a nearby field: ``LimitCycle(b.e0, b.omega[0], next_field)``.
    """

    orbit: FourierMap
    omega: float
    field: SmoothMap


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
    factors : tuple of TorusBundle
        The bundles of a :func:`product_bundle`, in block order; empty for
        any other bundle.  The bundle checks read a product through them.
    """

    def __init__(self, e0, omega, N, L):
        self.e0 = e0
        self.omega = np.asarray(omega, dtype=float).reshape(-1)
        self.N = N
        self.L = np.asarray(L, dtype=float)
        self.diagnostics = {}
        self.factors = ()
        if e0.m != self.omega.size:
            raise ValueError("frequency vector does not match torus dimension")
        r = self.M - self.m
        if N.value_shape != (self.M, r) or self.L.shape != (r, r):
            raise ValueError(f"fibre data of shapes {N.value_shape} and {self.L.shape} do not "
                             f"span the {r} directions transverse to the torus")

    @property
    def m(self):
        return self.e0.m

    @property
    def M(self):
        return self.e0.value_shape[0]

    @property
    def K(self):
        return max(self.e0.K, self.N.K)

    def to_json_dict(self):
        return {
            "omega": self.omega.tolist(),
            "e0": self.e0.to_json_dict(),
            "N": self.N.to_json_dict(),
            "L": [list(map(float, row)) for row in self.L],
            "diagnostics": self.diagnostics,
        }


def _hyperbolic_gap(L):
    """Smallest ``|Re|`` of the eigenvalues of ``L``; a gap of 1e-9 or less, or NaN, raises."""
    gap = float(np.min(np.abs(np.linalg.eigvals(L).real))) if np.all(np.isfinite(L)) else math.nan
    if not gap > 1e-9:
        raise HyperbolicityError(f"Floquet matrix is not hyperbolic (gap {gap:.3e})")
    return gap


def _blocks(bundles):
    """Each factor of a product of ``bundles`` with its axes, rows and fibre columns, as slices."""
    m = M = r = 0
    for b in bundles:
        yield b, slice(m, m + b.m), slice(M, M + b.M), slice(r, r + b.M - b.m)
        m, M, r = m + b.m, M + b.M, r + b.M - b.m


def _own_samples(bundle, grid):
    """``e0``, ``e0'``, ``N`` and ``d_omega N`` of each factor, on its own axes of ``grid``.

    Any other bundle is its one factor.  A factor held twice (the chain's
    outer circle) on axes of one shape is sampled once.
    """
    own, sampled = [], {}
    for b, axes, _, _ in _blocks(bundle.factors or [bundle]):
        key = id(b), grid.shape[axes]
        if key not in sampled:
            g = TorusGrid(b.m, key[1])
            sampled[key] = tuple(map(g.sample, (b.e0, b.e0.jacobian(), b.N, d_omega(b.N, b.omega))))
        own.append(sampled[key])
    return own


def _fill(bundle, own, first):
    """The bundle's four samples on the grid nodes whose first index lies in the slice ``first``.

    A product's factors fill their blocks with their ``own`` samples: the
    bits of the product's own samples, without their sums over the other
    factors' frequencies.  Any other bundle gives views of its samples.
    """
    own = [[s[first] for s in own[0]], *own[1:]]  # the first factor holds the first axis
    if not bundle.factors:
        return tuple(own[0])
    M, m = bundle.M, bundle.m
    shape = sum((X.shape[:b.m] for b, (X, *_) in zip(bundle.factors, own)), ())
    out = tuple(np.zeros(shape + s) for s in ((M,), (M, m), (M, M - m), (M, M - m)))
    for parts, (b, axes, rows, cols) in zip(own, _blocks(bundle.factors)):
        others = [*range(axes.start), *range(axes.stop, m)]  # the other factors' axes
        for full, part, block in zip(out, parts, [(rows,), (rows, axes)] + 2 * [(rows, cols)]):
            full[(Ellipsis,) + block] = np.expand_dims(part, others)
    return out


def _sample_bundle(bundle, grid):
    """``e0``, ``e0'``, ``N`` and ``d_omega N`` on ``grid``, a product's from its factors."""
    return _fill(bundle, _own_samples(bundle, grid), slice(None))


def _worst_condition(frames):
    """Worst condition number on the grid of the block-diagonal frame of the ``(e0', N)`` pairs.

    The blocks' angles vary independently, so it is the worst of one block's own
    and of one block's largest singular value over another's smallest; NaN if not finite.
    """
    frames = [np.concatenate(pair, axis=-1) for pair in frames]
    if not all(np.all(np.isfinite(F)) for F in frames):
        return math.nan
    s = [np.linalg.svd(F, compute_uv=False) for F in frames]
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = np.array([[np.max(si[..., 0]) / np.min(sj[..., -1]) for sj in s] for si in s])
        np.fill_diagonal(worst, [np.max(si[..., 0] / si[..., -1]) for si in s])
    return float(np.max(worst))


def validate_bundle(bundle, F0, grid=None, pde_tol=1e-8):
    """Check the defining properties of a torus bundle on a dense grid.

    Verifies transversality of ``[e0' | N]``, the matrix a reduction's
    split solves (condition number below ``COND_THRESHOLD`` at every node,
    which bounds each column block alone too), hyperbolicity of ``L``, the
    invariance ``e0' omega = F0 o e0`` of the torus under the uncoupled
    field ``F0`` and the invariance equation ``d_omega N + N L = (F0' o e0) N``
    of its fibres.  A product's samples and condition number come from its
    factors, each on its own axes.  The invariance equations cover every
    node of the grid, one slab of nodes that share their first angle at a
    time (a circle's grid is one slab), so no grid-sized stack is held; the
    maxima over slabs are the maxima over the grid.  Returns a diagnostics
    dict; raises on violation, a non-finite frame or residual included.
    """
    if F0.jac is None:
        raise ValueError("the bundle's vector field must carry a Jacobian evaluator")
    if grid is None:
        grid = spectral_grid(bundle.m, bundle.K)
    own = _own_samples(bundle, grid)
    max_cond = _worst_condition([s[1:3] for s in own])
    if not np.isfinite(max_cond) or max_cond > COND_THRESHOLD:
        raise TransversalityError("tangent and fibre frames degenerate on the grid", max_cond)
    gap = _hyperbolic_gap(bundle.L)

    slabs = [slice(i, i + 1) for i in range(grid.shape[0])] if bundle.m > 1 else [slice(None)]
    peaks = np.empty((len(slabs), 4))  # max |fibre residual|, |N|, |torus residual|, |F0|
    for peak, first in zip(peaks, slabs):
        X, E, Nv, dN = _fill(bundle, own, first)
        F = F0.fun(X)
        peak[:] = (np.max(np.abs(dN + Nv @ bundle.L - F0.jac(X) @ Nv)), np.max(np.abs(Nv)),
                   np.max(np.abs(E @ bundle.omega - F)), np.max(np.abs(F)))
    fibre, n_max, torus, f_max = map(float, np.max(peaks, axis=0))  # NaN if any slab's is
    pde_rel = fibre / max(1.0, n_max)
    torus_rel = torus / max(1.0, f_max)

    if not torus_rel <= pde_tol:
        raise InvarianceError("torus", torus_rel)
    if not pde_rel <= pde_tol:
        raise InvarianceError("fibre", pde_rel)
    return {"max_condition": max_cond, "spectral_gap": gap, "pde_residual_rel": pde_rel}


def _collocation_operator(D, omega, J):
    """``omega D - F'(X)`` on node values stacked node by node; ``J`` holds ``F'`` per node."""
    n, M = J.shape[:2]
    A = omega * np.kron(D, np.eye(M))
    A.reshape(n, M, n, M)[np.arange(n), :, np.arange(n), :] -= J
    return A


def _solve_cycle(field, X, omega):
    """Newton on ``omega D X = F(X)``, anchored to the section through ``X[0]``.

    Returns the node values, ``omega``, the spectral derivative ``D`` and the steps taken.
    """
    n, M = X.shape
    grid = TorusGrid(1, (n,))
    D = grid.sample(grid.project(np.eye(n), n // 2).jacobian())[..., 0]
    anchor, normal = X[0].copy(), field.fun(X[0])
    for steps in range(NEWTON_STEPS + 1):
        F = field.fun(X)
        res = omega * (D @ X) - F
        if np.max(np.abs(res)) <= NEWTON_TOL * max(1.0, float(np.max(np.abs(F)))):
            return X, omega, D, steps
        if steps == NEWTON_STEPS or not np.all(np.isfinite(res)):
            break
        A = np.zeros((n * M + 1, n * M + 1))
        A[:-1, :-1] = _collocation_operator(D, omega, field.jac(X))
        A[:-1, -1], A[-1, :M] = (D @ X).ravel(), normal  # the omega column, the anchor row
        try:
            step = np.linalg.solve(A, np.append(res.ravel(), normal @ (X[0] - anchor)))
        except np.linalg.LinAlgError:
            break
        X, omega = X - step[:-1].reshape(n, M), omega - step[-1]
    raise NumericalError(f"Newton does not converge to a cycle on {n} nodes "
                         f"(collocation residual {np.max(np.abs(res)):.3e})")


def _fibre(A, omega, n, M):
    """Fibre frame on the nodes, ``L`` and the neutral exponent from ``A = omega D - F'(X)``.

    Of each family ``-lambda_j + i omega k`` of eigenvalues of ``A``, the
    representative has its imaginary part in ``(-omega/2, omega/2]``.
    """
    sigma, vecs = np.linalg.eig(A)
    rep = (sigma.imag > -abs(omega) / 2) & (sigma.imag <= abs(omega) / 2)
    sigma, vecs = sigma[rep], vecs[:, rep].T.reshape(-1, n, M)
    if len(sigma) != M:
        raise NumericalError(f"{len(sigma)} representatives of {M} Floquet exponents: a "
                             "negative multiplier, or a spectrum the nodes do not resolve")
    near = np.abs(sigma.real) < EXPONENT_GAP
    if np.count_nonzero(near) != 1:
        raise HyperbolicityError(f"{np.count_nonzero(near)} Floquet exponents within "
                                 f"{EXPONENT_GAP:.1e} of the axis; not normally hyperbolic")
    neutral = -sigma[near][0]
    if abs(neutral) > 1e-6:
        raise HyperbolicityError(f"the near-axis Floquet exponent {neutral:.3e} does not vanish")
    L, cols = np.zeros((M - 1, M - 1)), []
    for s, v in zip(sigma[~near], vecs[~near]):
        i = len(cols)
        if not np.any(sigma == np.conj(s)):
            raise NumericalError(f"Floquet exponent {-s:.6e} has no conjugate: a negative "
                                 "multiplier, no real fibre frame on a single cover")
        if s.imag == 0:
            cols.append(v.real)
            L[i, i] = -s.real
        elif s.imag > 0:  # a conjugate pair spans two real columns
            v = v * np.exp(-0.5j * np.angle(v[0] @ v[0]))  # Re v(0) orthogonal to Im v(0)
            cols += [v.real, v.imag]
            L[i:i + 2, i:i + 2] = [[-s.real, -s.imag], [s.imag, -s.real]]
    frame = np.stack(cols, axis=-1)
    # Unit columns at phase 0, each led by a positive entry; L follows the rescaling.
    at0 = frame[0]
    lead = at0[np.argmax(np.abs(at0) > 1e-12 * np.max(np.abs(at0), axis=0), axis=0), range(M - 1)]
    scale = np.sign(lead) / np.linalg.norm(at0, axis=0)
    return frame * scale, L * scale[None, :] / scale[:, None], float(neutral.real)


def cycle_bundle(cycle, K):
    """Torus bundle (m = 1) of a hyperbolic limit cycle, solved in Fourier collocation.

    Newton polishes the cycle's start, evaluated on the 3/2-rule node
    count of ``K`` and run at its frequency, into a solution of
    ``omega D X = F(X)``.  The residual cannot see truncation, so a
    solution whose outermost shells carry more than ``SATURATION_TOL`` of
    the mass is rejected ("raise K").  ``N`` and ``L``
    come from the spectrum of ``omega D - F'(X)``; the bundle is validated
    against the cycle's field on the check grid.  The node values solve both
    invariance equations, so the bundle fails one only through the harmonics
    between ``K`` and ``n // 2`` that it drops ("raise K").  Where Newton
    diverges from a crude start, continue in a parameter of the field:
    each solved bundle ``b`` starts the next, ``LimitCycle(b.e0, b.omega[0],
    next_field)``.
    """
    field = cycle.field
    if field.jac is None:
        raise ValueError("the cycle's vector field must carry a Jacobian evaluator")
    n = _radius_nodes(K) | 1
    grid = TorusGrid(1, (n,))
    nodes = 2.0 * math.pi * np.arange(n)[:, None] / n
    X, omega, D, steps = _solve_cycle(field, cycle.orbit.eval(nodes), cycle.omega)
    orbit = grid.project(X, n // 2)
    # Two shells: one alone misses a cycle with only odd harmonics.
    tail = orbit.shell_mass(n // 2 - 2) / orbit.norm()
    if tail > SATURATION_TOL:
        raise TruncationSaturationError("cycle", K, tail)
    A = _collocation_operator(D, omega, field.jac(X))
    N_vals, L, neutral = _fibre(A, omega, n, X.shape[1])
    bundle = TorusBundle(grid.project(X, K), [omega], grid.project(N_vals, K), L)
    try:
        bundle.diagnostics = validate_bundle(bundle, field)
    except InvarianceError as exc:
        raise TruncationSaturationError("cycle", K, exc.residual) from None
    bundle.diagnostics.update(neutral_exponent=neutral, newton_iterations=steps, nodes=n,
                              tail_mass=tail)
    return bundle


def product_bundle(bundles):
    """Direct product of torus bundles: block-diagonal fibre data.

    Frequencies concatenate; ``e0`` and ``N`` embed blockwise;
    the Floquet matrix is the block diagonal of the factors, so its
    eigenvalue multiset is the union of theirs.  The product keeps its
    factors, so the bundle checks read it factor by factor.
    """
    bundles = list(bundles)
    if not bundles:
        raise ValueError("need at least one bundle")
    if len(bundles) == 1:
        return bundles[0]
    m, M = sum(b.m for b in bundles), sum(b.M for b in bundles)
    r = M - m
    K = max(b.K for b in bundles)
    omega = np.concatenate([b.omega for b in bundles])
    L = np.zeros((r, r))

    shapes, keys, values = ((M,), (M, r)), ([], []), ([], [])
    for b, axes, rows, cols in _blocks(bundles):
        L[cols, cols] = b.L
        for i, (f, block) in enumerate([(b.e0, (rows,)), (b.N, (rows, cols))]):
            k = np.zeros((len(f.keys), m), dtype=np.int64)
            k[:, axes] = f.keys
            v = np.zeros((len(f.keys),) + shapes[i], dtype=complex)
            v[(slice(None),) + block] = f.values
            keys[i].append(k)
            values[i].append(v)
    # Only k = 0 is shared between factors; its blocks add up in factor order.
    e0, N = (FourierMap(m, K, _sum_on_keys(np.concatenate(k), np.concatenate(v)), shape)
             for k, v, shape in zip(keys, values, shapes))
    product = TorusBundle(e0, omega, N, L)
    product.factors = tuple(bundles)
    return product
