"""Exception types shared across the package."""


class CuspbcError(Exception):
    """Base class for all library errors."""


class InputError(CuspbcError):
    """Bad user input (files, flags, parameter values outside the contract)."""


class DomainError(InputError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(InputError):
    """Evaluation exactly at a pole (e.g. 1F1 with b a non-positive integer)."""


class ParityError(InputError):
    """Angular momentum parity incompatible with the spin channel."""


class RegimeError(InputError):
    """Parameters outside the bound-state regime (E >= W0)."""


class NumericalError(CuspbcError):
    """A numerical procedure failed to produce a trustworthy result."""


class NoConvergence(NumericalError):
    """Series or iteration exceeded its term/iteration budget."""


class Overflow(NumericalError):
    """Result lies outside the double-precision range."""


class FitError(NumericalError):
    """Polynomial cusp fit is under-determined or degenerate."""


class SingularityError(NumericalError):
    """Evaluation point coincides with a charge position."""


class NoSignChange(NumericalError):
    """The shooting bracket does not hold exactly one state."""


class StiffnessError(NumericalError):
    """Integration overflowed despite rescaling."""


class ConvergenceError(NumericalError):
    """Eigen-iteration or boundary fixed-point loop did not converge."""
