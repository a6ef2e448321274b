"""High-order phase reduction for weakly coupled oscillator networks.

The package computes asymptotic expansions of an embedding of the
persisting invariant torus of a weakly perturbed oscillator system,
together with the reduced phase dynamics in normal form, and provides
an ODE harness to validate the reduction against full simulations.

Layout:

- ``fourier``: truncated Fourier series on the m-torus, pseudo-spectral
  composition, expansions in the coupling strength.
- ``bundle``: Floquet decomposition of limit cycles, fast fibre maps,
  oblique projections, product bundles.
- ``models``: Stuart-Landau oscillators, the three-oscillator chain,
  the generic coupled-oscillator interface.
- ``reduction``: the iterative homological-equation solver and the
  slow phase-difference law.
- ``sim``: fixed-step integration of full and reduced dynamics,
  synchronisation metrics, coupling sweeps.
- ``cli``: the ``torusred`` batch command.
"""

from .bundle import (
    LimitCycle,
    MonodromyData,
    TorusBundle,
    cycle_bundle,
    find_limit_cycle,
    floquet_decompose,
    oblique_projection,
    product_bundle,
    validate_bundle,
)
from .errors import (
    AliasingError,
    ConfigError,
    HyperbolicityError,
    NumericalError,
    SmallDivisorError,
    TransversalityError,
    TruncationSaturationError,
)
from .fourier import (
    EpsJet,
    FourierMap,
    SmoothMap,
    TorusGrid,
    check_grid,
    d_omega,
    jet_compose,
    matmul,
    multiply,
    spectral_grid,
)
from .models import (
    ChainConfig,
    OscillatorModel,
    StuartLandauParams,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    phases_from_state,
    sl_bundle,
    stuart_landau_cycle,
    stuart_landau_field,
)
from .reduction import (
    ReductionResult,
    chain_slow_law,
    conjugacy_residual,
    order_forcing,
    phase_difference_field,
    phase_reduce,
    solve_normal,
    solve_tangential,
    split_forcing,
)
from .sim import (
    IntegratorSpec,
    SweepResult,
    TrajectoryRecord,
    embedding_distance,
    envelope,
    fit_powerlaw,
    integrate_full,
    integrate_reduced,
    measure_T01,
    sweep_csv,
    sweep_epsilon,
    trajectory_csv,
)

__all__ = [
    "AliasingError",
    "ChainConfig",
    "ConfigError",
    "EpsJet",
    "FourierMap",
    "HyperbolicityError",
    "IntegratorSpec",
    "LimitCycle",
    "MonodromyData",
    "NumericalError",
    "OscillatorModel",
    "ReductionResult",
    "SmallDivisorError",
    "SmoothMap",
    "StuartLandauParams",
    "SweepResult",
    "TorusBundle",
    "TorusGrid",
    "TrajectoryRecord",
    "TransversalityError",
    "TruncationSaturationError",
    "chain_bundle",
    "chain_model",
    "chain_phase_constants",
    "chain_slow_law",
    "conjugacy_residual",
    "cycle_bundle",
    "check_grid",
    "d_omega",
    "embedding_distance",
    "envelope",
    "find_limit_cycle",
    "fit_powerlaw",
    "floquet_decompose",
    "integrate_full",
    "integrate_reduced",
    "jet_compose",
    "matmul",
    "measure_T01",
    "multiply",
    "oblique_projection",
    "order_forcing",
    "phase_difference_field",
    "phase_reduce",
    "phases_from_state",
    "product_bundle",
    "sl_bundle",
    "spectral_grid",
    "solve_normal",
    "solve_tangential",
    "split_forcing",
    "stuart_landau_cycle",
    "stuart_landau_field",
    "sweep_csv",
    "sweep_epsilon",
    "trajectory_csv",
    "validate_bundle",
]

__version__ = "0.1.0"
