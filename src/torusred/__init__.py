"""High-order phase reduction for weakly coupled oscillator networks.

The package computes asymptotic expansions of an embedding of the
persisting invariant torus of a weakly perturbed oscillator system,
together with the reduced phase dynamics in normal form, and provides
an ODE harness to validate the reduction against full simulations.

Layout:

- ``fourier``: truncated Fourier series on the m-torus, pseudo-spectral
  composition, expansions in the coupling strength.
- ``bundle``: limit cycles solved in collocation, fast fibre maps and
  the frame ``[e0' | N]`` each order's forcing is split in, product
  bundles.
- ``models``: Stuart-Landau oscillators, the three-oscillator chain and
  its slow phase-difference law, the generic coupled-oscillator
  interface, which names the pair of oscillators whose angle is observed.
- ``reduction``: the iterative homological-equation solver.
- ``sim``: fixed-step integration of full and reduced dynamics, the
  angle of a model's pair and its decay, coupling sweeps, the phases of
  full states on an embedded torus.
- ``cli``: the ``torusred`` batch command.
"""

from .bundle import *  # noqa: F403
from .errors import *  # noqa: F403
from .fourier import *  # noqa: F403
from .models import *  # noqa: F403
from .reduction import *  # noqa: F403
from .sim import *  # noqa: F403
from . import bundle, errors, fourier, models, reduction, sim

# Each module's ``__all__`` is the one list of its public names.
__all__ = [name for module in (errors, fourier, bundle, models, reduction, sim)
           for name in module.__all__]

__version__ = "0.1.0"
