"""Exception types shared across the package."""


class PoleError(ValueError):
    """A per-mode inverse time integration hit its singular frequency."""


class StepTooLarge(ValueError):
    """Requested time step exceeds the resolution or stability bound."""


class GridMismatch(ValueError):
    """Operands live on different grids."""


class NoConvergence(RuntimeError):
    """An iterative solver failed to reach its tolerance within the cap."""


class NonFiniteState(RuntimeError):
    """Time evolution produced NaN or Inf field values."""


class CurrentMismatch(RuntimeError):
    """The cross-product and matrix forms of the probability current disagree."""


class FormatError(ValueError):
    """A snapshot file does not conform to the S1WF format."""
