"""Exception types shared across the package.

Two broad families matter to callers: configuration problems (bad
parameters, invalid run configs) and numerical failures (lost
hyperbolicity, small divisors, saturated truncation, aliasing).  The CLI maps
them onto distinct exit codes.
"""

__all__ = [
    "ConfigError",
    "NumericalError",
    "TransversalityError",
    "SmallDivisorError",
    "TruncationSaturationError",
    "InvarianceError",
    "AliasingError",
    "HyperbolicityError",
]


class ConfigError(ValueError):
    """A parameter set or run configuration violates its invariants."""


class NumericalError(RuntimeError):
    """A numerical operation failed in a structured, diagnosable way."""


class TransversalityError(NumericalError):
    """Tangent and fibre directions are (nearly) degenerate.

    Carries the offending condition number.
    """

    def __init__(self, message, condition):
        super().__init__(f"{message} (condition number {condition:.3e})")
        self.condition = condition


class SmallDivisorError(NumericalError):
    """A combination frequency sits dangerously close to resonance."""

    def __init__(self, k, value, floor):
        super().__init__(
            f"small divisor at k={tuple(k)}: |<omega,k>| = {abs(value):.3e} "
            f"is below the safety floor {floor:.3e} but not resonant; "
            "raise tol_res or change frequencies"
        )
        self.k = tuple(k)
        self.value = value


class TruncationSaturationError(NumericalError):
    """A computed series carries mass on the outermost retained shell."""

    def __init__(self, label, K, shell_mass):
        super().__init__(
            f"series '{label}' has mass {shell_mass:.3e} on the truncation "
            f"boundary |k| ~ {K}; raise K"
        )
        self.label = label
        self.K = K
        self.shell_mass = shell_mass


class InvarianceError(NumericalError):
    """A torus or its fibres fail their invariance equation; carries the relative residual."""

    def __init__(self, what, residual):
        super().__init__(f"{what} invariance equation violated: relative residual {residual:.3e}")
        self.residual = residual


class AliasingError(NumericalError):
    """A series computed on a grid carries mass on the grid's guard shell."""

    def __init__(self, label, shape, guard_mass):
        super().__init__(
            f"series '{label}' has mass {guard_mass:.3e} on the guard shell of "
            f"grid {shape}, so it may alias; raise the grid"
        )
        self.label = label
        self.shape = shape
        self.guard_mass = guard_mass


class HyperbolicityError(NumericalError):
    """Floquet data is incompatible with a normally hyperbolic circle."""
