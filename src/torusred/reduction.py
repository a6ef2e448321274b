"""Iterative high-order phase reduction.

Order by order, the conjugacy defect of the current expansion is
computed as a forcing term, split in the frame ``[e0' | N]`` of the
bundle into a tangential and a normal part, and removed by solving the two
homological equations: divisors ``i <omega, k>`` on the tangential
side (with resonant terms passed to the reduced phase field, which
puts it in normal form), and the matrices ``i <omega, k> - L`` on the
normal side.  The corrections assemble into the next term of the torus
embedding.
"""

from __future__ import annotations

import numpy as np

from .bundle import _hyperbolic_gap, _sample_bundle, validate_bundle
from .errors import (
    AliasingError,
    ConfigError,
    NumericalError,
    SmallDivisorError,
    TruncationSaturationError,
)
from .fourier import SATURATION_TOL, FourierMap, d_omega, jet_compose, matmul, spectral_grid

__all__ = [
    "ReductionResult",
    "order_forcing",
    "split_forcing",
    "solve_tangential",
    "solve_normal",
    "phase_reduce",
    "reduction_grid",
    "phase_difference_field",
    "conjugacy_residual",
]

SMALL_DIVISOR_FLOOR = 1e-6  # nonresonant |<omega, k>| below this aborts the run
RECON_TOL = 1e-9  # relative error of the tangent/fibre reconstruction
LINEAR_RESIDUAL_TOL = 1e-8  # relative residual of an order's linearised equation
NORMAL_RESIDUAL_TOL = 1e-10  # relative residual of the normal homological solve


class ReductionResult:
    """Expansion terms of the embedding and the reduced phase field.

    Lists are indexed by order minus one: ``phase_terms[0]`` is the
    first-order part of the reduced field.  ``embedding_terms[j-1]``
    decomposes exactly as ``e0' tangent_terms[j-1] + N fibre_terms[j-1]``.
    """

    def __init__(self, order, bundle, phase_terms, embedding_terms, tangent_terms,
                 fibre_terms, K, K_nf, tol_res, residuals, normal_form):
        self.order = int(order)
        self.bundle = bundle
        self.phase_terms = list(phase_terms)
        self.embedding_terms = list(embedding_terms)
        self.tangent_terms = list(tangent_terms)
        self.fibre_terms = list(fibre_terms)
        self.K = float(K)
        self.K_nf = float(K_nf)
        self.tol_res = float(tol_res)
        self.residuals = list(residuals)
        self.normal_form = bool(normal_form)

    @property
    def omega(self):
        return self.bundle.omega

    def embedding(self, eps):
        """The embedding ``e0 + sum_l eps^l e_l`` at coupling ``eps``."""
        return _eps_sum([self.bundle.e0] + self.embedding_terms, eps, FourierMap.scale)

    def phase_field(self, eps):
        """The phase field ``sum_j eps^j f_j`` at coupling ``eps`` (``omega`` not included)."""
        zero = FourierMap.zero(self.bundle.m, (self.bundle.m,), self.K)
        return _eps_sum([zero] + self.phase_terms, eps, FourierMap.scale)

    def to_json_dict(self):
        return {
            "order": self.order,
            "K": self.K,
            "K_nf": self.K_nf,
            "tol_res": self.tol_res,
            "normal_form": self.normal_form,
            "omega": self.omega.tolist(),
            "phase_terms": [f.to_json_dict() for f in self.phase_terms],
            "embedding_terms": [e.to_json_dict() for e in self.embedding_terms],
            "tangent_terms": [g.to_json_dict() for g in self.tangent_terms],
            "fibre_terms": [h.to_json_dict() for h in self.fibre_terms],
            "residuals": self.residuals,
        }


def _eps_sum(terms, eps, scale):
    """``terms[0] + sum_l eps^l terms[l]`` added in order of ``l``; ``scale(t, s)`` is ``s t``."""
    total = terms[0]
    for l, term in enumerate(terms[1:], start=1):
        total = total + scale(term, eps ** l)
    return total


def order_forcing(j, model, e_terms, f_terms, samples, K, grid):
    """Inhomogeneous forcing of reduction order ``j``.

    Collects the order-j Taylor coefficient of the field composed with the
    expansion so far (``samples[r]`` is ``e_terms[r]`` sampled on ``grid``),
    minus the order-j part of ``e' f`` formed from the known lower-order terms.
    Order 1 is simply the coupling field evaluated on the unperturbed torus.
    """
    if len(e_terms) != j or len(samples) != j or len(f_terms) != j - 1:
        raise ValueError(f"need exactly the terms below order {j}")
    G = jet_compose(model.F_list, samples, j, K, grid)
    for r in range(1, j):
        G = G - matmul(e_terms[r].jacobian(), f_terms[j - r - 1], K=K)
    return G


def split_forcing(Gv, frames):
    """Split a sampled forcing term along the tangent and fibre directions.

    ``Gv`` holds the forcing and ``frames`` the ``(e0', N)``, all sampled
    on one grid.  Pointwise, ``(U, V)`` solves ``[e0' | N] (U, V) = G``;
    the reconstruction ``e0' U + N V = G`` is verified before the samples
    of ``(U, V)`` are returned.

    The split is exact on a grid that holds the support of ``U`` and ``V``
    when ``[e0' | N]^{-1}`` is a trigonometric polynomial, as it is on a
    product of circles whose frames rotate rigidly; otherwise ``U`` and
    ``V`` are not trigonometric polynomials, their projections alias, and
    the guard of ``phase_reduce`` applies.
    """
    E, Nv = frames
    m = E.shape[-1]
    UV = np.linalg.solve(np.concatenate([E, Nv], axis=-1), Gv[..., None])[..., 0]
    U_vals, V_vals = UV[..., :m], UV[..., m:]

    recon = (E @ U_vals[..., None])[..., 0] + (Nv @ V_vals[..., None])[..., 0]
    scale = max(float(np.max(np.abs(Gv))), 1e-300)
    err = float(np.max(np.abs(recon - Gv))) / scale
    if err > RECON_TOL:
        raise NumericalError(f"tangent/fibre split does not reconstruct the forcing ({err:.3e})")

    return U_vals, V_vals


def solve_tangential(U, omega, K_nf, tol_res):
    """Solve ``d_omega g + f = U`` coefficient-wise, in normal form.

    Resonant coefficients (``|<omega, k>| <= tol_res``) pass to the
    phase field ``f``; nonresonant ones inside the normal-form radius
    are absorbed into ``g`` by dividing by ``i <omega, k>``; the
    nonresonant tail beyond ``K_nf`` stays in ``f``.  Divisors between
    ``tol_res`` and the safety floor abort the run.
    """
    s = np.vecdot(U.keys, np.asarray(omega, dtype=float).reshape(-1))
    resonant = np.abs(s) <= tol_res
    small = ~resonant & (np.abs(s) < SMALL_DIVISOR_FLOOR)
    if small.any():
        first = int(np.argmax(small))  # keys are sorted: the first offending k
        raise SmallDivisorError(U.keys[first].tolist(), float(s[first]), SMALL_DIVISOR_FLOOR)
    into_g = ~resonant & (np.linalg.norm(U.keys, axis=1) <= K_nf + 1e-12)
    divisor = (1j * s[into_g]).reshape((-1,) + (1,) * len(U.value_shape))
    f = FourierMap(U.m, U.K, (U.keys[~into_g], U.values[~into_g]), U.value_shape)
    g = FourierMap(U.m, U.K, (U.keys[into_g], U.values[into_g] / divisor), U.value_shape)
    return f, g


def solve_normal(V, omega, L):
    """Solve ``(d_omega - L) h = V`` coefficient-wise.

    Hyperbolicity of ``L`` makes every matrix ``i <omega, k> - L``
    invertible, so the solution is unique; realness of ``L`` gives the
    conjugate-pair symmetry of the result.
    """
    L = np.asarray(L, dtype=float)
    _hyperbolic_gap(L)
    s = np.vecdot(V.keys, np.asarray(omega, dtype=float).reshape(-1))
    A = (1j * s)[:, None, None] * np.eye(L.shape[0]) - L
    c = V.values[..., None]
    h = np.linalg.solve(A, c)
    worst = float(np.max(np.abs(A @ h - c), initial=0.0))
    if worst > NORMAL_RESIDUAL_TOL * max(1.0, V.norm()):
        raise NumericalError(f"normal homological solve residual {worst:.3e}")
    return V._like(h[..., 0], V.value_shape)


def _check_saturation(label, fmap, K):
    shell = fmap.shell_mass(K - 1.0)
    if shell > SATURATION_TOL * max(fmap.norm(), 1e-16):
        raise TruncationSaturationError(label, K, shell)


def _alias_margin(label, fmap, grid):
    """Guard-shell mass of a series over its norm; past ``SATURATION_TOL`` it aborts the run."""
    mass, scale = grid.guard_mass(fmap), max(fmap.norm(), 1e-16)
    if mass > SATURATION_TOL * scale:
        raise AliasingError(label, grid.shape, mass)
    return mass / scale


def reduction_grid(model, bundle, order, K):
    """The one computation grid of a reduction to order ``order``.

    The first-order forcing is the field on the unperturbed torus; a
    polynomial field of degree ``d`` reaches ``d s(e0)`` there, with
    ``s`` the largest ``|k_i|`` of a series.  Each further order is solved
    in the frames, ``e_j = e0' g_j + N h_j``, which widens the support by
    ``max(s(e0), s(N))``.  The grid holds that bound plus a guard shell
    (:func:`spectral_grid`); as the bound rests on the split being exact
    (see :func:`split_forcing`), every order checks its forcing and both
    parts of its split on the guard shell.  A field without a declared
    degree gets the 3/2-rule grid of the truncation radius.
    """
    degrees = [F.degree for F in model.F_list]
    support = None
    if None not in degrees:
        support = (max(degrees) * bundle.e0.support
                   + (order - 1) * max(bundle.e0.support, bundle.N.support))
    return spectral_grid(bundle.m, max(K, bundle.K), support)


def phase_reduce(model, bundle, order, K=None, K_nf=None, tol_res=None, g_rule=None):
    """Compute the reduction to the requested order in the coupling.

    Parameters
    ----------
    model : OscillatorModel
        Supplies the uncoupled field, the coupling terms and their
        derivatives up to the requested order.
    bundle : TorusBundle
        Fast fibre data of the unperturbed torus; checked against the
        model's uncoupled field on the :func:`spectral_grid` of the
        truncation radius before the iteration starts.
    order : int
        Number of expansion orders to solve.
    K : float
        Truncation radius of every computed series; defaults to the
        bundle's radius.  Any series with mass on the outermost shell
        aborts the run with a "raise K" diagnostic.  The computation grid
        does not depend on ``K`` (see :func:`reduction_grid`); mass on its
        guard shell aborts the run with a "raise the grid" diagnostic.
    K_nf : float
        Normal-form radius: nonresonant phase-field coefficients with
        ``|k| <= K_nf`` are removed.  Defaults to the truncation radius.
    tol_res : float
        Resonance detection threshold on ``|<omega, k>|``; defaults to
        ``1e-9 * |omega|``.
    g_rule : callable, optional
        ``g_rule(j, U_j)`` returning the tangential component ``g_j`` to
        use at order ``j`` (or None to keep the default), which fixes
        ``f_j = U_j - d_omega g_j``; exposes the gauge freedom in the
        embedding.  Results produced with a custom rule are not
        guaranteed to be in normal form.

    Returns
    -------
    ReductionResult
    """
    if K is None:
        K = bundle.e0.K
    K = float(K)
    if K_nf is None:
        K_nf = K
    if K_nf > K:
        raise ConfigError(f"truncation radius K={K} must be at least K_nf={K_nf}")
    w = bundle.omega
    if tol_res is None:
        tol_res = 1e-9 * float(np.linalg.norm(w))
    validate_bundle(bundle, F0=model.F0, grid=spectral_grid(bundle.m, max(K, bundle.K)))
    grid = reduction_grid(model, bundle, order, K)
    E_map, L_map = bundle.e0.jacobian(), FourierMap.constant(bundle.m, bundle.L)
    X, E, Nv, _ = _sample_bundle(bundle, grid)  # a product's factor by factor
    e_terms, samples = [bundle.e0], [X]  # samples[r] is e_r on the grid
    f_terms, g_terms, h_terms, residuals = [], [], [], []
    custom_gauge = False

    for j in range(1, order + 1):
        samples += map(grid.sample, e_terms[len(samples):])  # e_{j-1}, first composed at order j
        G = order_forcing(j, model, e_terms, f_terms, samples, K, grid)
        _check_saturation(f"G_{j}", G, K)
        margin = _alias_margin(f"G_{j}", G, grid)
        Gv = grid.sample(G)
        U_vals, V_vals = split_forcing(Gv, (E, Nv))
        U, V = grid.project(U_vals, K), grid.project(V_vals, K)
        _check_saturation(f"U_{j}", U, K)
        _check_saturation(f"V_{j}", V, K)
        margin = max(margin, _alias_margin(f"U_{j}", U, grid), _alias_margin(f"V_{j}", V, grid))
        g_j = g_rule(j, U) if g_rule is not None else None
        if g_j is None:
            f_j, g_j = solve_tangential(U, w, K_nf, tol_res)
        else:
            custom_gauge = True
            f_j = U - d_omega(g_j, w)
        h_j = solve_normal(V, w, bundle.L)
        e_j = matmul(E_map, g_j, K=K) + matmul(bundle.N, h_j, K=K)

        # Linearised-operator identity: applying the expansion operator to
        # (e_j, f_j) has to reproduce the forcing on the grid.
        lhs = matmul(E_map, d_omega(g_j, w) + f_j, K=K) + matmul(
            bundle.N, d_omega(h_j, w) - matmul(L_map, h_j, K=K), K=K
        )
        scale = max(float(np.max(np.abs(Gv))), 1e-300)
        lin_res = float(np.max(np.abs(grid.sample(lhs) - Gv))) / scale
        if lin_res > LINEAR_RESIDUAL_TOL:
            raise NumericalError(
                f"order-{j} homological solution fails the linearised equation "
                f"(relative residual {lin_res:.3e})"
            )

        for label, fm in ((f"f_{j}", f_j), (f"g_{j}", g_j),
                          (f"h_{j}", h_j), (f"e_{j}", e_j)):
            _check_saturation(label, fm, K)

        residuals.append({
            "order": j,
            "forcing_norm": G.norm(),
            "linear_residual_rel": lin_res,
            "shell_mass_e": e_j.shell_mass(K - 1.0),
            "grid": list(grid.shape),
            "alias_margin": margin,
        })
        f_terms.append(f_j)
        g_terms.append(g_j)
        h_terms.append(h_j)
        e_terms.append(e_j)

    return ReductionResult(
        order, bundle,
        phase_terms=f_terms, embedding_terms=e_terms[1:],
        tangent_terms=g_terms, fibre_terms=h_terms,
        K=K, K_nf=K_nf, tol_res=tol_res, residuals=residuals,
        normal_form=not custom_gauge,
    )


def phase_difference_field(result, i, j):
    """Per-order difference of two components of the reduced phase field.

    Returns its Taylor coefficients in the coupling as a list: entry 0
    is the constant frequency difference, entry ``l`` the order-l phase
    field of oscillator ``i`` minus that of oscillator ``j``.  For a
    resonant pair the difference evolves slowly and the leading nonzero
    order carries the synchronisation law.
    """
    m = result.bundle.m
    if not (0 <= i < m and 0 <= j < m):
        raise IndexError(f"oscillator indices out of range for m={m}")
    w = result.omega
    return [FourierMap.constant(m, complex(w[i] - w[j]))] + [
        f.component(i) - f.component(j) for f in result.phase_terms]


def conjugacy_residual(model, result, couplings):
    """Sup-norm defects ``max |e' f - F(e)|`` of the expansion on a grid, one per coupling.

    For an order-J reduction the defect shrinks like ``eps^(J+1)``.
    """
    bundle = result.bundle
    grid = spectral_grid(bundle.m, max(result.K, bundle.K))
    # f is summed from its terms' samples, taken once: the residual's last digits depend on that.
    w = FourierMap.constant(bundle.m, bundle.omega.astype(complex))
    samples = [grid.sample(f) for f in [w] + result.phase_terms]
    f_sums = [_eps_sum(samples, eps, np.multiply) for eps in couplings]
    del samples  # hold only the sums through a Jacobian's sample, the memory peak

    def defect(eps, f_vals):
        e = result.embedding(eps)
        lhs = (grid.sample(e.jacobian()) @ f_vals[..., None])[..., 0]
        return float(np.max(np.abs(lhs - model.rhs(grid.sample(e), eps))))

    return [defect(eps, f_vals) for eps, f_vals in zip(couplings, f_sums)]
