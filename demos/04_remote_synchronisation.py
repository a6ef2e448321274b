"""Remote synchronisation of the outer oscillators.

The outer pair never interacts directly, yet for one parameter set
their phase difference decays to zero and for another it locks at a
nonzero angle predicted by the slow law's fixed point.  Horizons here
are shortened for demo runtime; the bundled presets run the full-length
versions.
"""

import numpy as np

from torusred import (
    ChainConfig,
    IntegratorSpec,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    integrate_full,
    integrate_reduced,
    measure_T01,
    phase_reduce,
    phases_from_state,
    torus_phases,
)

# --- parameter set with a stable synchronised state -------------------
cfg = ChainConfig(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0,
                  a=1.0, b=2.0, c=-1.0, d=-1.0, epsilon=0.1)
model = chain_model(cfg)
A, B = chain_phase_constants(cfg)
print(f"set 1: A = {A:+.4f} (> 0, outer phases synchronise)")

x0 = np.array([-1.0, 0.0, 1.0, 0.4, -1.0, 0.3])
rec = integrate_full(model, 0.1, x0, IntegratorSpec("euler", 0.05, 1500.0))
print("  |phase difference| at t=0, 500, 1500:",
      [f"{abs(rec.phi_hat[np.searchsorted(rec.t, t)]):.4f}" for t in (0.0, 500.0, 1499.0)])
print("  decay time to 10%:", measure_T01(rec))

# reduced flow tracks the full system
bundle = chain_bundle(cfg, K=8.0)
result = phase_reduce(model, bundle, order=2, K_nf=6.0)
spec = IntegratorSpec("rk4", 0.01, 300.0, record_stride=10, record_state=False)
full = integrate_full(model, 0.1, x0, spec)
red = integrate_reduced(result, 0.1, phases_from_state(x0), spec, model.pair)
print("  max |full - reduced| phase difference over [0, 300]:",
      float(np.max(np.abs(full.phi_hat - red.phi_hat))))

short = integrate_full(model, 0.1, x0, IntegratorSpec("rk4", 0.01, 60.0, record_stride=50))
_, dist = torus_phases(result.embedding(0.1), short.states[short.t >= 30.0])
print("  distance of trajectory tail from the order-2 torus:", float(np.max(dist)))

# --- parameter set with a stable phase-locked state -------------------
cfg2 = ChainConfig(alpha=1.0, beta=0.1, gamma=-1.0, delta=1.0,
                   a=1.0, b=6.0, c=-1.0, d=-1.0, epsilon=0.1)
model2 = chain_model(cfg2)
A2, B2 = chain_phase_constants(cfg2)
target = 2.0 * np.arctan(A2 / B2)
print(f"\nset 2: A = {A2:+.4f} (< 0, outer phases lock at 2 atan(A/B) = {target:.4f})")

x02 = np.array([1.0, 0.3, 1.0, 0.4, -0.2, 0.9])
rec2 = integrate_full(model2, 0.1, x02,
                      IntegratorSpec("rk4", 0.01, 2000.0, record_stride=10))
tail = rec2.phi_hat[rec2.t >= 1800.0]
print("  mean phase difference on [1800, 2000]:", float(np.mean(tail)),
      " (predicted", f"{target:.4f})")
