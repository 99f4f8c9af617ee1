"""Exception types shared across the toolkit."""


class AtlasError(Exception):
    """Base class for all toolkit errors."""


class ScalarDomainError(AtlasError):
    """Arithmetic attempted between two distinct quadratic extensions."""


class ExtensionRequiredError(AtlasError):
    """A computation needs an algebraic extension beyond one quadratic field."""


class VarSetMismatchError(AtlasError):
    """Operands live over different variable sets."""


class LaurentViolationError(AtlasError):
    """Negative exponent at a non-Laurent position, or zero at a Laurent one."""


class NotPoissonMaximalError(AtlasError):
    """A point-based construction was invoked at a non-Poisson point."""


class LieStructureError(AtlasError):
    """Structure constants violate the Jacobi identity."""


class NotExpressibleError(AtlasError):
    """A bracket escapes the invariant subalgebra up to the degree bound."""


class IncompatibleTableError(AtlasError):
    """An action table does not extend to a Lie representation."""


class ParseError(AtlasError):
    """Presentation file syntax or semantic error, with location."""

    def __init__(self, message, line=None, column=None):
        self.message, self.line, self.column = message, line, column
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)
