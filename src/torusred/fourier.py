"""Vector-valued truncated Fourier series on the m-torus.

Everything downstream (embeddings, fast fibre maps, homological
right-hand sides, reduced phase fields) is represented as a
:class:`FourierMap`: a sparse collection of coefficients ``c_k`` over
integer frequency vectors ``k`` with Euclidean norm at most a
truncation radius ``K``.  Products are true coefficient convolutions;
composition with nonlinear maps is pseudo-spectral (sample on a
de-aliased grid, apply the map pointwise, project back).  Expansions
in a small parameter are handled by :class:`EpsJet`, a list of maps
acting as Taylor coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = [
    "FourierMap",
    "TorusGrid",
    "EpsJet",
    "SmoothMap",
    "d_omega",
    "multiply",
    "matmul",
    "jet_compose",
    "dealias_grid",
]


def _as_omega(omega, m):
    w = np.asarray(omega, dtype=float).reshape(-1)
    if w.size < 1 or not np.all(np.isfinite(w)):
        raise ValueError("frequency vector must be non-empty and finite")
    if w.size != m:
        raise ValueError(f"dimension mismatch: torus dimension {m}, frequency vector has {w.size}")
    return w


class FourierMap:
    """Truncated Fourier series ``phi -> sum_k c_k exp(i<k, phi>)``.

    Parameters
    ----------
    m : int
        Torus dimension (number of angle variables).
    K : float
        Truncation radius; only frequencies with Euclidean norm
        ``|k| <= K`` are stored.
    coeffs : dict
        Sparse association of integer tuples ``k`` to complex
        coefficient arrays, all of a common shape.
    value_shape : tuple
        Shape of each coefficient: ``()`` for scalar-valued maps,
        ``(p,)`` for vector-valued, ``(p, q)`` for matrix-valued.
    real : bool
        If True the map is real-valued and the Hermitian symmetry
        ``c_{-k} = conj(c_k)`` is enforced exactly on construction.

    Instances are immutable by convention: no method mutates ``coeffs``.
    """

    def __init__(self, m, K, coeffs, value_shape, real=True):
        self.m = int(m)
        self.K = float(K)
        self.value_shape = tuple(value_shape)
        self.real = bool(real)
        if self.m < 1:
            raise ValueError("torus dimension must be >= 1")
        clean = {}
        for k, c in coeffs.items():
            k = tuple(int(x) for x in k)
            if len(k) != self.m:
                raise ValueError(f"frequency {k} does not match torus dimension {self.m}")
            if _knorm(k) > self.K + 1e-12:
                raise ValueError(f"frequency {k} outside truncation radius {self.K}")
            c = np.asarray(c, dtype=complex)
            if c.shape != self.value_shape:
                raise ValueError(f"coefficient at {k} has shape {c.shape}, expected {self.value_shape}")
            clean[k] = c
        if self.real:
            clean = _symmetrize(clean)
        self.coeffs = {k: clean[k] for k in sorted(clean) if np.any(clean[k])}
        self._cache = None

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls, m, value_shape, K):
        return cls(m, K, {}, value_shape)

    @classmethod
    def constant(cls, m, value, real=True):
        value = np.asarray(value, dtype=complex)
        return cls(m, 0.0, {(0,) * m: value}, value.shape, real=real)

    @classmethod
    def harmonic(cls, m, k, value, K=None):
        """Real single harmonic ``value * exp(i<k, phi>)`` plus its conjugate pair."""
        value = np.asarray(value, dtype=complex)
        k = tuple(int(x) for x in k)
        if K is None:
            K = _knorm(k)
        coeffs = {k: value}
        if any(k):
            coeffs[tuple(-x for x in k)] = np.conj(value)
        return cls(m, K, coeffs, value.shape)

    # ------------------------------------------------------------------
    # basic queries
    @property
    def p(self):
        """Total number of (flattened) value components."""
        return int(np.prod(self.value_shape, dtype=int)) if self.value_shape else 1

    def norm(self):
        """l2 norm of the coefficient set (Frobenius over values)."""
        if not self.coeffs:
            return 0.0
        return math.sqrt(sum(float(np.sum(np.abs(c) ** 2)) for c in self.coeffs.values()))

    def shell_mass(self, inner_radius):
        """Coefficient mass carried by frequencies with ``|k| > inner_radius``."""
        s = sum(
            float(np.sum(np.abs(c) ** 2))
            for k, c in self.coeffs.items()
            if _knorm(k) > inner_radius + 1e-12
        )
        return math.sqrt(s)

    def __repr__(self):
        return (
            f"FourierMap(m={self.m}, K={self.K}, value_shape={self.value_shape}, "
            f"n_coeffs={len(self.coeffs)}, real={self.real})"
        )

    # ------------------------------------------------------------------
    # arithmetic
    def _binary(self, other, op):
        if not isinstance(other, FourierMap):
            raise TypeError("expected a FourierMap")
        if (self.m, self.value_shape) != (other.m, other.value_shape):
            raise ValueError("incompatible FourierMaps")
        keys = set(self.coeffs) | set(other.coeffs)
        zero = np.zeros(self.value_shape, dtype=complex)
        out = {k: op(self.coeffs.get(k, zero), other.coeffs.get(k, zero)) for k in keys}
        return FourierMap(self.m, max(self.K, other.K), out, self.value_shape,
                          real=self.real and other.real)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def scale(self, s):
        """Multiply every coefficient by the real scalar ``s``."""
        s = float(s)
        return FourierMap(self.m, self.K, {k: s * c for k, c in self.coeffs.items()},
                          self.value_shape, real=self.real)

    def component(self, idx):
        """Extract one scalar component of a vector-valued map."""
        if len(self.value_shape) != 1:
            raise ValueError("component() expects a vector-valued map")
        return FourierMap(
            self.m, self.K, {k: np.asarray(c[idx]) for k, c in self.coeffs.items()},
            (), real=self.real,
        )

    def jacobian(self):
        """Derivative with respect to the angles.

        Appends one axis of length ``m`` to the value shape; the entry
        ``[..., l]`` is the partial derivative along ``phi_l``.
        """
        out = {}
        for k, c in self.coeffs.items():
            ik = 1j * np.asarray(k, dtype=float)
            out[k] = c[..., None] * ik
        return FourierMap(self.m, self.K, out, self.value_shape + (self.m,), real=self.real)

    # ------------------------------------------------------------------
    # evaluation
    def _eval_arrays(self):
        if self._cache is None:
            keys = sorted(self.coeffs)
            kmat = np.array(keys, dtype=float).reshape(len(keys), self.m)
            cmat = np.stack([self.coeffs[k] for k in keys]) if keys else np.zeros((0,) + self.value_shape)
            self._cache = (kmat, cmat)
        return self._cache

    def eval(self, phi):
        """Evaluate at angles ``phi`` (shape ``(..., m)`` or ``(m,)``).

        Returns a real array for real-flagged maps.
        """
        phi = np.asarray(phi, dtype=float)
        single = phi.ndim == 1
        pts = np.atleast_2d(phi)
        kmat, cmat = self._eval_arrays()
        if kmat.shape[0] == 0:
            vals = np.zeros(pts.shape[:-1] + self.value_shape, dtype=complex)
        else:
            phases = np.exp(1j * pts @ kmat.T)
            vals = np.tensordot(phases, cmat, axes=(-1, 0))
        if self.real:
            vals = vals.real
        return vals[0] if single else vals

    # ------------------------------------------------------------------
    # serialisation
    def to_json_dict(self):
        """JSON document with lexicographically sorted frequencies."""
        entries = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k].reshape(-1)
            entries.append({"k": list(k), "re": c.real.tolist(), "im": c.imag.tolist()})
        return {
            "m": self.m,
            "p": self.p,
            "K": self.K,
            "shape": list(self.value_shape),
            "real": self.real,
            "coeffs": entries,
        }

    @classmethod
    def from_json_dict(cls, doc):
        shape = tuple(doc.get("shape", [doc["p"]]))
        coeffs = {}
        for entry in doc["coeffs"]:
            c = np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)
            coeffs[tuple(entry["k"])] = c.reshape(shape)
        return cls(doc["m"], doc["K"], coeffs, shape, real=doc.get("real", True))


def _knorm(k):
    return math.sqrt(sum(x * x for x in k))


def _symmetrize(coeffs):
    """Enforce c_{-k} = conj(c_k) exactly, averaging stored pairs."""
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


# ----------------------------------------------------------------------
# spectral calculus


def d_omega(f, omega):
    """Directional derivative along the constant angular flow ``omega``.

    The coefficient at ``k`` becomes ``i <omega, k> c_k``; reality is
    preserved because the multiplier is odd in ``k``.
    """
    w = _as_omega(omega, f.m)
    out = {}
    for k, c in f.coeffs.items():
        out[k] = 1j * float(np.dot(w, k)) * c
    return FourierMap(f.m, f.K, out, f.value_shape, real=f.real)


def _convolve(f, g, combine, out_shape, K):
    if f.m != g.m:
        raise ValueError("torus dimensions differ")
    if K is None:
        K = max(f.K, g.K)
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
    kept = {k: v for k, v in acc.items() if _knorm(k) <= K + 1e-12}
    return FourierMap(f.m, K, kept, out_shape, real=f.real and g.real)


def multiply(f, g, K=None):
    """Product of a scalar-valued map with another map.

    Implemented as the convolution of the coefficient sets, truncated
    back to radius ``K`` (default: the larger operand radius).
    """
    if f.value_shape != ():
        raise ValueError("multiply() expects a scalar-valued first factor")
    return _convolve(f, g, lambda a, b: a * b, g.value_shape, K=K)


def matmul(f, g, K=None):
    """Pointwise matrix product of two maps, as a coefficient convolution.

    Value shapes follow ``numpy.matmul``: matrix times vector gives a
    vector, matrix times matrix a matrix.
    """
    out_shape = np.matmul(
        np.zeros(f.value_shape), np.zeros(g.value_shape)
    ).shape
    return _convolve(f, g, np.matmul, out_shape, K=K)


# ----------------------------------------------------------------------
# grids and pseudo-spectral composition


def dealias_grid(m, K):
    """Grid sized by the 3/2 rule so quadratic products do not alias."""
    n = max(3 * int(math.ceil(K)) + 1, 2 * int(math.ceil(K)) + 2)
    return TorusGrid(m, (n,) * m)


class TorusGrid:
    """Regular sampling grid ``phi_i = 2 pi i / n`` on the m-torus.

    Sampling and projection go through dense FFTs; both are exact for
    trigonometric polynomials that fit inside the grid's Nyquist box.
    """

    def __init__(self, m, shape):
        self.m = int(m)
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) != self.m or any(n < 2 for n in self.shape):
            raise ValueError("grid needs at least 2 samples per dimension")

    @property
    def size(self):
        return int(np.prod(self.shape))

    def axes(self):
        return [2.0 * np.pi * np.arange(n) / n for n in self.shape]

    def max_freq(self):
        return tuple((n - 1) // 2 for n in self.shape)

    def sample(self, fmap):
        """Evaluate ``fmap`` on the grid; returns ``(*shape, *value_shape)``."""
        if fmap.m != self.m:
            raise ValueError("torus dimensions differ")
        cap = self.max_freq()
        dense = np.zeros(self.shape + fmap.value_shape, dtype=complex)
        for k, c in fmap.coeffs.items():
            if any(abs(ki) > cap[i] for i, ki in enumerate(k)):
                raise ValueError(f"frequency {k} does not fit on grid {self.shape}")
            idx = tuple(ki % n for ki, n in zip(k, self.shape))
            dense[idx] = c
        vals = np.fft.ifftn(dense, axes=tuple(range(self.m))) * self.size
        return vals.real if fmap.real else vals

    def project(self, values, K, real=True, prune=1e-14):
        """Project grid values onto frequencies with ``|k| <= K``.

        Coefficients smaller than ``prune`` times the largest one are
        dropped to keep the sparse representation honest.
        """
        values = np.asarray(values)
        if values.shape[: self.m] != self.shape:
            raise ValueError("values do not match grid shape")
        value_shape = values.shape[self.m:]
        spec = np.fft.fftn(values, axes=tuple(range(self.m))) / self.size
        # The frequencies of the Nyquist box that lie in the ball |k| <= K.
        box = np.meshgrid(*[np.arange(-c, c + 1) for c in self.max_freq()], indexing="ij")
        ks = np.stack(box, axis=-1).reshape(-1, self.m)
        ks = ks[np.sqrt(np.sum(ks * ks, axis=1)) <= K + 1e-12]
        vals = spec[tuple((ks % self.shape).T)]
        mags = np.abs(vals).max(axis=tuple(range(1, vals.ndim)), initial=0.0)
        keep = mags > prune * mags.max(initial=0.0)
        coeffs = {tuple(k): c for k, c in zip(ks[keep].tolist(), vals[keep])}
        return FourierMap(self.m, K, coeffs, value_shape, real=real)


# ----------------------------------------------------------------------
# jets in the small parameter


class EpsJet:
    """Taylor expansion in the coupling strength: ``sum_j eps^j terms[j]``."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("a jet needs at least the order-0 term")
        m, vs = terms[0].m, terms[0].value_shape
        for t in terms:
            if (t.m, t.value_shape) != (m, vs):
                raise ValueError("jet terms must share torus dimension and value shape")
        self.terms = terms

    @property
    def order(self):
        return len(self.terms) - 1

    @property
    def m(self):
        return self.terms[0].m

    @property
    def value_shape(self):
        return self.terms[0].value_shape

    def __repr__(self):
        return f"EpsJet(order={self.order}, m={self.m}, value_shape={self.value_shape})"


class SmoothMap:
    """A smooth map with caller-supplied directional derivatives.

    Parameters
    ----------
    fun : callable
        Vectorized evaluator, ``(..., p_in) -> (..., p_out)``.
    derivs : sequence of callables
        ``derivs[q-1](x, v_1, ..., v_q)`` evaluates the q-th derivative
        at ``x`` as a symmetric multilinear form on the directions.
    jac : callable, optional
        Full Jacobian evaluator ``(..., p_in) -> (..., p_out, p_in)``;
        used by variational integration.
    """

    def __init__(self, fun, derivs=(), jac=None):
        self.fun = fun
        self.derivs = tuple(derivs)
        self.jac = jac

    def deriv(self, q, x, *vs):
        if q > len(self.derivs):
            raise NumericalError(
                f"map supplies derivatives to order {len(self.derivs)}, order {q} required"
            )
        return self.derivs[q - 1](x, *vs)


def _compositions(total, parts):
    """Ordered tuples of positive integers of length ``parts`` summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def jet_compose(F_list, jet, order, K=None, grid=None):
    """Taylor coefficient of order ``order`` of ``F(e(phi; eps); eps)``.

    ``F_list[i]`` is the coefficient of ``eps^i`` in the map (entries
    may be None); ``jet`` expands the inner map.  The coefficient
    collects, for every ``i <= order``, the order ``order - i`` part of
    ``F_i`` composed with the expansion, assembled from the supplied
    directional derivatives on a de-aliased grid.
    """
    if K is None:
        K = max(t.K for t in jet.terms)
    if grid is None:
        grid = dealias_grid(jet.m, K)
    samples = [grid.sample(t) for t in jet.terms]
    base = samples[0]
    acc = None
    for i, Fi in enumerate(F_list):
        if Fi is None or i > order:
            continue
        s = order - i
        if s == 0:
            term = np.asarray(Fi.fun(base), dtype=float)
        else:
            term = None
            for q in range(1, s + 1):
                for comp in _compositions(s, q):
                    if any(r > jet.order for r in comp):
                        continue
                    contrib = np.asarray(
                        Fi.deriv(q, base, *[samples[r] for r in comp]), dtype=float
                    ) / math.factorial(q)
                    term = contrib if term is None else term + contrib
            if term is None:
                continue
        acc = term if acc is None else acc + term
    if acc is None:
        # An all-zero order: infer the output shape from F_list[0].
        probe = np.asarray(F_list[0].fun(base), dtype=float)
        acc = np.zeros_like(probe)
    if not np.all(np.isfinite(acc)):
        raise NumericalError(f"non-finite value in jet composition at order {order}")
    return grid.project(acc, K)
