"""Fast fibre data of limit cycles.

Solves a Stuart-Landau orbit by Newton in Fourier collocation, reads its
Floquet exponents and fibre frame off the spectrum of the linearised
collocation operator, compares them against the analytic bundle, and
repeats the exercise for the van der Pol cycle, continued in its
parameter from a harmonic start.
"""

import numpy as np

from torusred import (
    FourierMap,
    LimitCycle,
    SmoothMap,
    StuartLandauParams,
    TorusGrid,
    cycle_bundle,
    sl_bundle,
    stuart_landau_cycle,
)
from torusred.cli import fibre_angle

p = StuartLandauParams(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0)
print(f"oscillator: radius {p.radius}, frequency {p.frequency}, "
      f"transverse rate {p.floquet_exponent}")


def exponents(bundle):
    """The neutral Floquet exponent and the exponents of ``L``, ascending."""
    return np.sort([bundle.diagnostics["neutral_exponent"], *np.linalg.eigvals(bundle.L).real])


numeric = cycle_bundle(stuart_landau_cycle(p), K=4.0)
print("Floquet exponents:", exponents(numeric))
analytic = sl_bundle(p, K=4.0)
grid = TorusGrid(1, (128,))
angle = fibre_angle(grid.sample(numeric.N)[..., 0], grid.sample(analytic.N)[..., 0])
print("max fibre subspace angle vs analytic:", angle)
print("bundle diagnostics:", numeric.diagnostics)

# A planar relaxation-type cycle: solve van der Pol at mu = 1 from the
# harmonic start 2 cos(phi), then continue it to mu = 2, where Newton from
# that start diverges: each solved bundle starts the next.  Check the
# nontrivial exponent against the average divergence along the orbit.
# Its harmonics decay slowly, so its bundle needs a wide truncation radius.


def vdp_field(mu):
    def fun(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], mu * (1 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]], axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = -2 * mu * x[..., 0] * x[..., 1] - 1.0
        out[..., 1, 1] = mu * (1 - x[..., 0] ** 2)
        return out

    return SmoothMap(fun, jac=jac)


orbit, omega = FourierMap.harmonic(1, (1,), [1, 1j]), 1.0  # x = 2 cos(phi), y = x'
for mu in (1.0, 2.0):
    vdp = cycle_bundle(LimitCycle(orbit, omega, vdp_field(mu)), K=96.0)
    # The phase runs at a constant rate, so the time average is the phase average.
    div_avg = float(np.mean(mu * (1 - TorusGrid(1, (256,)).sample(vdp.e0)[:, 0] ** 2)))
    print(f"\nrelaxation cycle, mu = {mu}: period {2 * np.pi / abs(vdp.omega[0])}, "
          f"{vdp.diagnostics['newton_iterations']} Newton steps on "
          f"{vdp.diagnostics['nodes']} nodes")
    print("exponents:", exponents(vdp), " orbit-averaged divergence:", div_avg)
    orbit, omega = vdp.e0, vdp.omega[0]  # the next stage starts from this cycle
