"""Exception and warning types shared across the package."""


class StarkitError(Exception):
    """Base class for all starkit errors."""


class NonFiniteError(StarkitError):
    """A coefficient or exponent entry is NaN or infinite."""


class ExponentOverflowError(StarkitError):
    """A Gaussian exponent exceeds the double-precision range (Re > 700)."""


class NonTerminatingError(StarkitError):
    """A polynomial-only operation was given a non-polynomial operand."""


class SingularGaussianError(StarkitError):
    """The matrix inversion behind a closed-form Gaussian image is singular."""


class BranchAmbiguityError(StarkitError):
    """Square-root branch of a Gaussian prefactor left the right half-plane."""


class SingularTimeError(StarkitError):
    """Propagator requested at (or too close to) one of its singular times."""


class DegreeGuardError(StarkitError):
    """Ladder construction requested past the exact-arithmetic degree guard."""


class PositivityError(StarkitError):
    """A decay rate that must be non-negative was negative."""


class NotEigenError(StarkitError):
    """An image expected to be proportional to its input is not."""


class SpecMismatchError(StarkitError):
    """Two phase grids with different lattice specs were combined."""


class ExprSyntaxError(StarkitError):
    """Expression text violates the grammar.  Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDegreeError(StarkitError):
    """exp() argument is not a polynomial of total degree <= 2."""


class ExprPowerError(StarkitError):
    """Negative or fractional power requested in an expression."""


class DivergenceWarning(UserWarning):
    """Truncated star series evaluated outside its convergent regime."""


class CFLWarning(UserWarning):
    """Grid time step violates the advective CFL bound."""
