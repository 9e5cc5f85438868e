"""Exception hierarchy shared across the package."""


class CopulabootError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CopulabootError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class FitError(CopulabootError):
    """Quantile fitting failed to converge to the required tolerance.

    Carries the best residual found so callers can report how close the
    fit got; ``best_residual`` is ``None`` when no root bracket exists.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class InvalidCorrelationError(CopulabootError, ValueError):
    """A candidate correlation matrix violates a structural invariant."""


class NonFiniteDrawError(CopulabootError):
    """A combined bootstrap value came out non-finite.

    The first offending draw index and its input values are attached so the
    user can debug the combination function.
    """

    def __init__(self, index, inputs, value):
        super().__init__(
            f"combined value at draw index {index} is non-finite "
            f"({value!r}); inputs: {inputs!r}"
        )
        self.index = index
        self.inputs = inputs
        self.value = value


class UninformativeTestError(CopulabootError):
    """Sensitivity + specificity <= 1 for the inputs or for sampled draws."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class ParseError(CopulabootError, ValueError):
    """Expression text could not be parsed.

    ``position`` is the byte offset of the offending token; ``expected``
    describes what the parser would have accepted there.
    """

    def __init__(self, message, position, expected=None):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
        self.expected = expected or []


class EvalError(CopulabootError):
    """Expression evaluation failed (unbound variable, non-finite result)."""
