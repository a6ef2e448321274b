"""Vector-valued truncated Fourier series on the m-torus.

Everything downstream (embeddings, fast fibre maps, homological
right-hand sides, reduced phase fields) is represented as a
:class:`FourierMap`: coefficients ``c_k`` over integer frequency vectors
``k`` with Euclidean norm at most a truncation radius ``K``, stored as
one sorted ``(n, m)`` integer key array and one ``(n, *value_shape)``
complex value array.  Every coefficient-wise operation is an array
operation on that pair.  Products are true coefficient convolutions,
summed on equal keys by one helper; composition with nonlinear maps is
pseudo-spectral (sample on a grid, apply the map pointwise, project
back).  One rule, :func:`spectral_grid`, sizes every computation and
check grid.  An expansion in a small parameter is the plain list of its
Taylor coefficients, one map per order.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType

import numpy as np

from .errors import NumericalError

__all__ = [
    "FourierMap",
    "TorusGrid",
    "SmoothMap",
    "d_omega",
    "multiply",
    "matmul",
    "jet_compose",
    "spectral_grid",
]


def _as_omega(omega, m):
    w = np.asarray(omega, dtype=float).reshape(-1)
    if w.size < 1 or not np.all(np.isfinite(w)):
        raise ValueError("frequency vector must be non-empty and finite")
    if w.size != m:
        raise ValueError(f"dimension mismatch: torus dimension {m}, frequency vector has {w.size}")
    return w


def _codes(keys):
    """One int64 per key row in the rows' lexicographic order: mixed radix in base ``2R + 1``
    over ``R = max |k_i|``, or None when ``(2R + 1)^m`` would not stay below ``2^62``."""
    R = int(np.max(np.abs(keys), initial=0))
    if (2 * R + 1) ** keys.shape[1] >= 2 ** 62:
        return None
    codes = np.zeros(len(keys), dtype=np.int64)
    for col in keys.T:
        codes = codes * (2 * R + 1) + (col + R)
    return codes


def _unique_rows(keys):
    """``np.unique(keys, axis=0)``'s first index of each distinct row and inverse, by codes."""
    codes = _codes(keys)
    _, first, inv = (np.unique(codes, return_index=True, return_inverse=True) if codes is not None
                     else np.unique(keys, axis=0, return_index=True, return_inverse=True))
    return first, inv.reshape(-1)


def _find(keys, queries):
    """Index of the row of the distinct ``keys`` equal to each query row, or -1."""
    _, inv = _unique_rows(np.concatenate([keys, queries]))
    row = np.full(len(keys) + len(queries), -1)
    row[inv[:len(keys)]] = np.arange(len(keys))
    return row[inv[len(keys):]]


def _sum_on_keys(keys, values):
    """Distinct keys in order of first appearance, each with its values summed.

    Each sum starts from the first value and adds the others in row order,
    as a running accumulation does, so zeros keep their signs.
    """
    first, inv = _unique_rows(keys)
    out = values[first]
    rest = np.setdiff1d(np.arange(len(keys)), first)  # every other row, in row order
    np.add.at(out, inv[rest], values[rest])
    order = np.argsort(first)
    return keys[first[order]], out[order]


def _hermitian_closure(keys, values):
    """Rows with ``c_{-k} = conj(c_k)`` enforced exactly.

    Of each pair ``k, -k`` the earlier row leads: it takes the average
    ``(c_k + conj(c_{-k})) / 2``, or half of ``c_k`` when ``-k`` is
    absent, and its partner the conjugate.  Which row leads decides only
    the signs of zero parts.
    """
    rows = np.arange(len(keys))
    partner = _find(keys, -keys)
    lead = (partner < 0) | (partner >= rows)
    paired = lead & (partner >= 0)
    c = 0.5 * values
    c[paired] = 0.5 * (values[paired] + np.conj(values[partner[paired]]))
    mirror = lead & (partner != rows)
    return (np.concatenate([keys[lead], -keys[mirror]]),
            np.concatenate([c[lead], np.conj(c[mirror])]))


class FourierMap:
    """Truncated Fourier series ``phi -> sum_k c_k exp(i<k, phi>)``.

    Parameters
    ----------
    m : int
        Torus dimension (number of angle variables).
    K : float
        Truncation radius; only frequencies with Euclidean norm
        ``|k| <= K`` are stored.
    coeffs : dict or tuple
        A dict from integer tuples ``k`` to complex coefficient arrays of a
        common shape, or a pair ``(keys, values)`` of arrays laid out as
        the storage below, with distinct key rows.
    value_shape : tuple
        Shape of each coefficient: ``()`` for scalar-valued maps,
        ``(p,)`` for vector-valued, ``(p, q)`` for matrix-valued.

    Every map is real-valued: the Hermitian symmetry ``c_{-k} = conj(c_k)``
    is enforced exactly on construction, led by whichever of ``k, -k``
    comes first in dict or row order.  Storage is one key array ``keys``
    of shape ``(n, m)``, sorted lexicographically, and one complex value
    array ``values`` of shape ``(n, *value_shape)``; zero coefficients are
    not stored.  Both are read-only, and ``coeffs`` is a read-only
    ``{k: c_k}`` view of them.
    """

    def __init__(self, m, K, coeffs, value_shape):
        self.m = int(m)
        self.K = float(K)
        self.value_shape = tuple(value_shape)
        if self.m < 1:
            raise ValueError("torus dimension must be >= 1")
        if isinstance(coeffs, tuple):
            keys, values = coeffs
        else:
            keys = [tuple(int(x) for x in k) for k in coeffs]
            values = [np.asarray(c, dtype=complex) for c in coeffs.values()]
            for k, c in zip(keys, values):
                if len(k) != self.m:
                    raise ValueError(f"frequency {k} does not match torus dimension {self.m}")
                if c.shape != self.value_shape:
                    raise ValueError(f"coefficient at {k} has shape {c.shape}, "
                                     f"expected {self.value_shape}")
        n = len(keys)
        keys = np.asarray(keys, dtype=np.int64).reshape(n, self.m)
        values = np.asarray(values, dtype=complex).reshape((n,) + self.value_shape)
        outside = np.linalg.norm(keys, axis=1) > self.K + 1e-12
        if outside.any():
            k = tuple(keys[outside][0].tolist())
            raise ValueError(f"frequency {k} outside truncation radius {self.K}")
        keys, values = _hermitian_closure(keys, values)
        nonzero = np.any(values.reshape(len(keys), self.p) != 0, axis=1)
        keys, values = keys[nonzero], values[nonzero]
        order = np.lexsort(keys.T[::-1])
        self.keys, self.values = keys[order], values[order]
        self.keys.flags.writeable = False
        self.values.flags.writeable = False

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls, m, value_shape, K):
        return cls(m, K, {}, value_shape)

    @classmethod
    def constant(cls, m, value):
        value = np.asarray(value, dtype=complex)
        return cls(m, 0.0, {(0,) * m: value}, value.shape)

    @classmethod
    def harmonic(cls, m, k, value, K=None):
        """Real single harmonic ``value * exp(i<k, phi>)`` plus its conjugate pair."""
        value = np.asarray(value, dtype=complex)
        k = tuple(int(x) for x in k)
        if K is None:
            K = math.sqrt(sum(x * x for x in k))
        coeffs = {k: value}
        if any(k):
            coeffs[tuple(-x for x in k)] = np.conj(value)
        return cls(m, K, coeffs, value.shape)

    def _like(self, values, value_shape):
        """A map on this map's keys with new values."""
        return FourierMap(self.m, self.K, (self.keys, values), value_shape)

    # ------------------------------------------------------------------
    # basic queries
    @property
    def p(self):
        """Total number of (flattened) value components."""
        return int(np.prod(self.value_shape, dtype=int)) if self.value_shape else 1

    @property
    def support(self):
        """Largest ``|k_i|`` over the stored frequencies; 0 for a constant or empty map."""
        return int(np.max(np.abs(self.keys), initial=0))

    @property
    def coeffs(self):
        """Read-only ``{k: c_k}`` view in key order, built on each access."""
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), self.values)))

    def _at(self, keys):
        """Coefficients at the given key rows, zero where none is stored."""
        row = _find(self.keys, keys)
        out = np.zeros((len(keys),) + self.value_shape, dtype=complex)
        out[row >= 0] = self.values[row[row >= 0]]
        return out

    def norm(self):
        """l2 norm of the coefficient set (Frobenius over values)."""
        return self.shell_mass(-1.0)  # every frequency lies outside radius -1

    def shell_mass(self, inner_radius):
        """Coefficient mass carried by frequencies with ``|k| > inner_radius``."""
        shell = self.values[np.linalg.norm(self.keys, axis=1) > inner_radius + 1e-12]
        masses = np.sum(np.abs(shell.reshape(len(shell), self.p)) ** 2, axis=1)
        # Summed over keys in key order: reported norms keep their last bits.
        return math.sqrt(sum(masses.tolist()))

    def __repr__(self):
        return (
            f"FourierMap(m={self.m}, K={self.K}, value_shape={self.value_shape}, "
            f"n_coeffs={len(self.keys)})"
        )

    # ------------------------------------------------------------------
    # arithmetic
    def _binary(self, other, op):
        if not isinstance(other, FourierMap):
            raise TypeError("expected a FourierMap")
        if (self.m, self.value_shape) != (other.m, other.value_shape):
            raise ValueError("incompatible FourierMaps")
        # The key union in key order, so the smaller key of each conjugate
        # pair leads the closure (that signs zero parts in the artifacts).
        keys = np.concatenate([self.keys, other.keys])
        keys = keys[_unique_rows(keys)[0]]
        values = op(self._at(keys), other._at(keys))
        return FourierMap(self.m, max(self.K, other.K), (keys, values), self.value_shape)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def scale(self, s):
        """Multiply every coefficient by the real scalar ``s``."""
        return self._like(float(s) * self.values, self.value_shape)

    def component(self, idx):
        """Extract one scalar component of a vector-valued map."""
        if len(self.value_shape) != 1:
            raise ValueError("component() expects a vector-valued map")
        return self._like(self.values[:, idx], ())

    def jacobian(self):
        """Derivative with respect to the angles.

        Appends one axis of length ``m`` to the value shape; the entry
        ``[..., l]`` is the partial derivative along ``phi_l``.
        """
        ik = (1j * self.keys.astype(float)).reshape(
            (len(self.keys),) + (1,) * len(self.value_shape) + (self.m,))
        return self._like(self.values[..., None] * ik, self.value_shape + (self.m,))

    # ------------------------------------------------------------------
    # evaluation
    def eval(self, phi):
        """Evaluate at angles ``phi`` (shape ``(..., m)`` or ``(m,)``); returns a real array."""
        phi = np.asarray(phi, dtype=float)
        single = phi.ndim == 1
        pts = np.atleast_2d(phi)
        # Off BLAS, whose rounding varies with the batch: a point's value is one set of bits.
        phases = np.exp(1j * np.vecdot(pts[..., None, :], self.keys.astype(float)))
        vals = np.einsum("...k,kp->...p", phases, self.values.reshape(len(self.keys), self.p))
        vals = vals.real.reshape(pts.shape[:-1] + self.value_shape)
        # A contiguous copy of the real part, so no complex buffer stays alive.
        return (vals[0] if single else vals).copy()

    # ------------------------------------------------------------------
    # serialisation
    def to_json_dict(self):
        """JSON document with lexicographically sorted frequencies; ``"real"`` is always true."""
        flat = self.values.reshape(len(self.keys), self.p)
        entries = [{"k": k, "re": re, "im": im} for k, re, im in
                   zip(self.keys.tolist(), flat.real.tolist(), flat.imag.tolist())]
        return {
            "m": self.m,
            "p": self.p,
            "K": self.K,
            "shape": list(self.value_shape),
            "real": True,
            "coeffs": entries,
        }

    @classmethod
    def from_json_dict(cls, doc):
        if doc.get("real", True) is not True:
            raise ValueError("only real-valued series are supported")
        shape = tuple(doc.get("shape", [doc["p"]]))
        coeffs = {}
        for entry in doc["coeffs"]:
            c = np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)
            coeffs[tuple(entry["k"])] = c.reshape(shape)
        return cls(doc["m"], doc["K"], coeffs, shape)


# ----------------------------------------------------------------------
# spectral calculus


def d_omega(f, omega):
    """Directional derivative along the constant angular flow ``omega``.

    The coefficient at ``k`` becomes ``i <omega, k> c_k``; reality is
    preserved because the multiplier is odd in ``k``.
    """
    w = _as_omega(omega, f.m)
    mult = (1j * np.vecdot(f.keys, w)).reshape((-1,) + (1,) * len(f.value_shape))
    return f._like(mult * f.values, f.value_shape)


def _convolve(f, g, combine, out_shape, K):
    """Coefficient convolution: ``combine`` every key pair, stacked, and sum on equal keys."""
    if f.m != g.m:
        raise ValueError("torus dimensions differ")
    i = np.repeat(np.arange(len(f.keys)), len(g.keys))
    j = np.tile(np.arange(len(g.keys)), len(f.keys))
    keys = f.keys[i] + g.keys[j]
    kept = np.linalg.norm(keys, axis=1) <= K + 1e-12
    i, j, keys = i[kept], j[kept], keys[kept]
    values = combine(f.values[i], g.values[j]).reshape((len(keys),) + tuple(out_shape))
    return FourierMap(f.m, K, _sum_on_keys(keys, values), out_shape)


def multiply(f, g, K):
    """Product of a scalar-valued map with another map.

    Implemented as the convolution of the coefficient sets, truncated
    back to radius ``K``.
    """
    if f.value_shape != ():
        raise ValueError("multiply() expects a scalar-valued first factor")
    return _convolve(f, g, lambda a, b: a.reshape(a.shape + (1,) * (b.ndim - 1)) * b,
                     g.value_shape, K=K)


def matmul(f, g, K):
    """Pointwise matrix product of two maps, as a coefficient convolution.

    Value shapes follow ``numpy.matmul`` for vectors and matrices:
    matrix times vector gives a vector, matrix times matrix a matrix.
    """
    out_shape = np.matmul(
        np.zeros(f.value_shape), np.zeros(g.value_shape)
    ).shape

    def combine(a, b):  # one pair per row; vectors become one-row or one-column matrices
        return np.matmul(a[:, None, :] if a.ndim == 2 else a, b[..., None] if b.ndim == 2 else b)

    return _convolve(f, g, combine, out_shape, K=K)


# ----------------------------------------------------------------------
# grids and pseudo-spectral composition


CIRCLE_CHECK_NODES = 64  # a pointwise check on a circle never runs on fewer nodes
SATURATION_TOL = 1e-9  # relative mass a series may carry on its outermost shell (or guard shell)
PROJECT_PRUNE = 1e-14  # project drops coefficients at most this times the largest


def _radius_nodes(K):
    """Nodes per axis of the 3/2-rule grid of truncation radius ``K``."""
    return max(3 * int(math.ceil(K)) + 1, 2 * int(math.ceil(K)) + 2)


def _dft(n, a, b):
    """``exp(2 pi i x k / n)`` at the nodes ``x`` of ``n`` and the frequencies ``a <= k <= b``."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)  # read from the n-th roots of unity
    return roots[np.outer(np.arange(n), np.arange(a, b + 1)) % n]


def spectral_grid(m, K, support=None):
    """The grid a pseudo-spectral computation runs on.

    Sampling series, combining them pointwise and projecting back is
    exact when the result's frequencies fit the grid: products are
    formed at the nodes, and only the projection can alias.  A result
    whose ``|k_i|`` stay within ``support`` therefore gets ``2 support + 3``
    nodes per axis: the support plus one guard shell, on which any mass
    means the bound was wrong (see :meth:`TorusGrid.guard_mass`).  With no
    bound, or one that needs more nodes, the grid is the 3/2-rule grid of
    the truncation radius ``K``; with no bound, as for a pointwise check,
    a circle gets at least ``CIRCLE_CHECK_NODES``.
    """
    n = _radius_nodes(K)
    if support is not None:
        n = min(n, 2 * int(support) + 3)
    elif m == 1:
        n = max(n, CIRCLE_CHECK_NODES)
    return TorusGrid(m, (n,) * m)


class TorusGrid:
    """Regular sampling grid ``phi_i = 2 pi i / n`` on the m-torus.

    Sampling is an inverse DFT pruned to half the map's frequency box
    (every map is real, so the other half is its conjugate), and
    projection a dense FFT; both are exact for trigonometric polynomials
    that fit inside the grid's Nyquist box.
    """

    def __init__(self, m, shape):
        self.m = int(m)
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) != self.m or any(n < 2 for n in self.shape):
            raise ValueError("grid needs at least 2 samples per dimension")

    @property
    def size(self):
        return int(np.prod(self.shape))

    def max_freq(self):
        return tuple((n - 1) // 2 for n in self.shape)

    def guard_mass(self, fmap):
        """Coefficient mass of ``fmap`` on or beyond the grid's outermost shell.

        On a :func:`spectral_grid` that shell is the guard shell: a result
        that fits its support bound carries no mass there, and mass folded
        back by aliasing lands there first.
        """
        edge = np.any(np.abs(fmap.keys) >= self.max_freq(), axis=1)
        return math.sqrt(float(np.sum(np.abs(fmap.values[edge]) ** 2)))

    def _box(self, fmap):
        """The map's half frequency box with every grid axis but the last contracted, and its DFT.

        The box holds the zero key and, weighted 2, the keys whose last
        nonzero entry is positive: the real part of its inverse DFT is the
        sample, and it spans the last axis' frequencies from 0 only.  It is
        scattered with its frequency axes in reverse order,
        ``(p, k_m, ..., k_1)``, and the inverse DFT runs one axis at a time
        over the box only, each stage a complex ``einsum`` over the last,
        contiguous axis (which stays off multithreaded BLAS) that puts its
        nodes first.  The box comes back as ``(p, x_{m-1}, ..., x_1, k)``
        over the last axis' frequencies ``0 <= k <= max k_m``, with that
        axis' ``(shape[-1], k)`` DFT matrix.  Every key, in either half,
        must fit the grid.
        """
        if fmap.m != self.m:
            raise ValueError("torus dimensions differ")
        over = np.any(np.abs(fmap.keys) > self.max_freq(), axis=1)
        if over.any():
            k = tuple(fmap.keys[over][0].tolist())
            raise ValueError(f"frequency {k} does not fit on grid {self.shape}")
        # c_{-k} = conj(c_k): keep k = 0 and, weighted 2, the keys whose last nonzero entry is
        # positive (the sign of sum_i sign(k_i) 2^i is that entry's sign).
        side = np.sign(fmap.keys) @ (2 ** np.arange(self.m))
        keys, values = fmap.keys[side >= 0], fmap.values.reshape(-1, fmap.p)[side >= 0]
        values = np.where(side[side >= 0, None] > 0, 2, 1) * values
        lo, hi = np.min(keys, axis=0, initial=0), np.max(keys, axis=0, initial=0)
        box = np.zeros((fmap.p,) + tuple(hi - lo + 1)[::-1], dtype=complex)
        box[(slice(None),) + tuple((keys - lo).T[::-1])] = values.T
        for n, a, b in zip(self.shape[:-1], lo, hi):
            box = np.einsum("xk,p...k->px...", _dft(n, a, b), box)
        return box, _dft(self.shape[-1], lo[-1], hi[-1])

    def sample(self, fmap):
        """Evaluate ``fmap`` on the grid; returns a real ``(*shape, *value_shape)`` array.

        The last axis is contracted whole, in complex arithmetic; one
        contiguous copy then takes the real part and puts the nodes in grid
        order, components last, so no complex buffer stays alive.
        """
        box, dft = self._box(fmap)
        out = np.einsum("xk,p...k->p...x", dft, box).real
        axes = (*range(self.m - 1, 0, -1), self.m, 0)
        return np.ascontiguousarray(out.transpose(axes)).reshape(self.shape + fmap.value_shape)

    def _slabs(self, fmap):
        """``sample(fmap)`` at the nodes whose last index is ``x``, for each ``x`` in turn, bit
        for bit, without holding a grid-sized array: the half box contracted with one row
        of the last axis' DFT, then its real part copied into node order."""
        box, dft = self._box(fmap)
        axes, shape = (*range(self.m - 1, 0, -1), 0), self.shape[:-1] + fmap.value_shape
        for row in dft:
            out = np.einsum("k,p...k->p...", row, box).real
            yield np.ascontiguousarray(out.transpose(axes)).reshape(shape)

    def project(self, values, K):
        """Project grid values onto frequencies with ``|k| <= K``.

        Coefficients at most ``PROJECT_PRUNE`` times the largest one are
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
        ks = ks[np.linalg.norm(ks, axis=1) <= K + 1e-12]
        vals = spec[tuple((ks % self.shape).T)]
        mags = np.abs(vals).max(axis=tuple(range(1, vals.ndim)), initial=0.0)
        keep = mags > PROJECT_PRUNE * mags.max(initial=0.0)
        return FourierMap(self.m, K, (ks[keep], vals[keep]), value_shape)


# ----------------------------------------------------------------------
# composition with smooth maps


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
        used by cycle solves and bundle checks.
    degree : int, optional
        Polynomial degree of ``fun`` in its input, when it is a
        polynomial.  It bounds the frequency support of a reduction's
        forcing, and so sizes its grid (:func:`torusred.reduction.reduction_grid`).
    """

    def __init__(self, fun, derivs=(), jac=None, degree=None):
        self.fun = fun
        self.derivs = tuple(derivs)
        self.jac = jac
        self.degree = degree

    def deriv(self, q, x, *vs):
        if q > len(self.derivs):
            raise NumericalError(
                f"map supplies derivatives to order {len(self.derivs)}, order {q} required"
            )
        return self.derivs[q - 1](x, *vs)


def jet_compose(F_list, samples, order, K, grid):
    """Taylor coefficient of order ``order`` of ``F(e(phi; eps); eps)``.

    ``F_list[i]`` is the :class:`SmoothMap` coefficient of ``eps^i`` in the map,
    and ``samples[r]`` that of ``eps^r`` in the inner map ``e``, sampled on ``grid``.
    The coefficient collects, for every ``i <= order``, the order ``order - i``
    part of ``F_i`` composed with the expansion, assembled from the supplied
    directional derivatives on the samples and projected to radius ``K``.
    """
    base = samples[0]
    acc = None
    for i, Fi in enumerate(F_list[:order + 1]):
        s = order - i
        if s == 0:
            term = np.asarray(Fi.fun(base), dtype=float)
        else:
            term = None
            for q in range(1, s + 1):
                # The ordered tuples of q positive orders summing to s, from their cut points.
                for cuts in itertools.combinations(range(1, s), q - 1):
                    comp = [b - a for a, b in zip((0,) + cuts, cuts + (s,))]
                    if any(r >= len(samples) for r in comp):
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
