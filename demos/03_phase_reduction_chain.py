"""Second-order phase reduction of the three-oscillator chain.

The outer oscillators are identical and only coupled through the
middle one.  The reduction produces a phase field whose order-2 part
carries the slow law for the outer phase difference; its constants are
cross-checked against an independent closed-form evaluation.
"""

import numpy as np

from torusred import (
    ChainConfig,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    chain_slow_law,
    conjugacy_residual,
    phase_difference_field,
    phase_reduce,
)

cfg = ChainConfig(alpha=1.0, beta=1.0, gamma=-1.0, delta=1.0,
                  a=1.0, b=2.0, c=-1.0, d=-1.0, epsilon=0.1)
model = chain_model(cfg)
bundle = chain_bundle(cfg, K=8.0)
print("frequencies:", bundle.omega, " transverse rates:", np.diag(bundle.L))

result = phase_reduce(model, bundle, order=2, K_nf=6.0)
print("\nper-order residual table:")
for row in result.residuals:
    print("  ", row)

print("\nfirst-order phase field norm (vanishes in normal form):",
      result.phase_terms[0].norm())
print("second-order phase field coefficients:")
for k, c in sorted(result.phase_terms[1].coeffs.items()):
    print("  k =", k, " c =", np.round(c, 6))

A_pipe, B_pipe, B_const = chain_slow_law(result)
A_form, B_form = chain_phase_constants(cfg)
print("\nslow law dPhi/dt = eps^2 (-A sin Phi + B (1 - cos Phi)):")
print(f"  A  pipeline {A_pipe:+.12f}   closed form {A_form:+.12f}")
print(f"  B  pipeline {B_pipe:+.12f}   closed form {B_form:+.12f}")
print(f"  constant coefficient check: {B_const:+.12f}")

diff = phase_difference_field(result, 0, 2)
print("\nphase-difference field orders:", [t.norm() for t in diff])

print("\nconjugacy defect vs coupling strength (expect cubic decay):")
couplings = (1e-1, 1e-2, 1e-3)
for eps, r in zip(couplings, conjugacy_residual(model, result, couplings)):
    print(f"  eps = {eps:g}: {r:.3e}")
