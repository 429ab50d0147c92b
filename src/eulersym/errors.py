"""Exception types shared across the package."""


class AlgebraError(ValueError):
    """Base class for mathematical precondition violations."""


class ContextMismatchError(AlgebraError):
    """Operands live over incompatible variable lists."""


class HomogeneityError(AlgebraError):
    """An operation defined gradewise received a non-homogeneous input."""


class InvalidSymbolSystem(AlgebraError):
    """Candidate graded components violate the symbol-system axioms.

    The offending clauses are listed in ``diagnostics``.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class SaturationPreconditionError(AlgebraError):
    """The saturation predicate was asked about a system of order != 1."""


class ImmersionError(AlgebraError):
    """The chart coordinates are degenerate at the base point."""


class DegreeCapExceeded(RuntimeError):
    """A basis completion met an S-pair above `groebner.DEGREE_CAP`."""


class ParseError(ValueError):
    """Input text rejected, with 1-based line and column of the offense."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")
