"""Tour of the truncated Fourier toolbox.

Builds series on the 2-torus, differentiates them along a frequency
vector, multiplies them by coefficient convolution, and composes them
with nonlinear maps pseudo-spectrally through ``jet_compose``.
"""

import numpy as np

from torusred import (
    FourierMap,
    SmoothMap,
    d_omega,
    jet_compose,
    multiply,
    spectral_grid,
)

# A real-valued series: f(phi) = cos(phi1) + 0.5 sin(phi1 - 2 phi2)
f = FourierMap.harmonic(2, (1, 0), np.asarray(0.5 + 0j), K=4.0) + FourierMap.harmonic(
    2, (1, -2), np.asarray(0.25j).reshape(()), K=4.0
).scale(-1.0)

phi = np.array([0.3, 1.1])
print("f(0.3, 1.1) =", f.eval(phi))
print("check       =", np.cos(0.3) + 0.5 * np.sin(0.3 - 2.2))

# Derivative along omega: multiplies each coefficient by i<omega, k>.
omega = np.array([2.0, 1.0])
df = d_omega(f, omega)
h = 1e-6
fd = (f.eval(phi + h * omega) - f.eval(phi - h * omega)) / (2 * h)
print("\nd_omega f at phi:", df.eval(phi), " finite difference:", fd)

# Products convolve coefficient sets and truncate back.
prod = multiply(f, f, K=4.0)
print("\n(f*f) coefficients at k=(2,0):", prod.coeffs.get((2, 0)))

# Pseudo-spectral composition (the order-0 term of a jet composition, whose
# inner expansion is the list of its Taylor coefficients, each sampled on the
# grid): the square of a circle embedding doubles the harmonic exactly.
circle = FourierMap.harmonic(1, (1,), np.array([0.5, -0.5j]), K=2.0)
grid = spectral_grid(1, 2.0)


def complex_square(x):
    z = x[..., 0] + 1j * x[..., 1]
    w = z * z
    return np.stack([w.real, w.imag], axis=-1)


squared = jet_compose([SmoothMap(complex_square)], [grid.sample(circle)], 0, 2.0, grid)
print("\ncompose(z^2, e^{i phi}) store frequencies:", sorted(squared.coeffs))
