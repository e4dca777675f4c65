"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """A parameter combination violates a validity constraint."""


class PoleError(DomainError):
    """Evaluation was requested at a pole."""


class ConvergenceError(ArithmeticError):
    """An iterative evaluation ran out of terms; it carries the series
    `params` (a, b, c, x), the number of `terms` summed and the `last_term`."""

    def __init__(self, message: str, *, params=None, terms=None, last_term=None):
        super().__init__(message)
        self.params, self.terms, self.last_term = params, terms, last_term


class StencilError(DomainError):
    """A finite-difference stencil has a step that is not finite and
    positive, or would leave the open unit disk."""


class BoundaryFileError(ValueError):
    """A boundary-data document is malformed."""
