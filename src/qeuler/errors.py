"""Exception hierarchy shared by all modules.

Two broad families matter to callers (and to the CLI exit-code mapping):
``InputError`` for malformed or inconsistent user input and data files,
``ComputeError`` for arithmetic failures during an otherwise valid
computation.
"""


class QeulerError(Exception):
    """Base class for every package error."""


class InputError(QeulerError):
    """Invalid argument, data file, or precondition violation (CLI exit 2)."""


class ComputeError(QeulerError):
    """Arithmetic failure inside a computation (CLI exit 3)."""


class DivisionByZero(ComputeError, ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


class DegeneratePairing(ComputeError):
    """The pairing matrix f(e_i * e_j) is singular; no dual basis exists."""


class NotAUnit(ComputeError):
    """Attempt to invert an element whose multiplication operator is singular."""


class SingularMatrix(ComputeError):
    """Exact linear solve hit a singular coefficient matrix."""


class UnknownLabel(InputError):
    """A basis label that does not belong to the algebra."""


class InvalidShape(InputError):
    """An argument of the wrong shape or size: Grassmannian parameters outside
    0 < k < n, a bad rank, parabolic, weight or root, or a matrix that is not
    n x n, or a right-hand side without n rows, in ``linalg``."""


class InvalidSpecialClass(InputError):
    """Special-class index outside 1..n-k."""


class ParseError(InputError):
    """Malformed scalar, expression, or data file.

    ``line`` and ``column`` are 1-based when known, else None.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None and column is not None:
            where = f" (line {line}, column {column})"
        elif column is not None:
            where = f" (column {column})"
        super().__init__(message + where)


class CyclicDefinition(InputError):
    """A defining expression refers to a label not yet defined."""


class MissingDefinition(InputError):
    """A non-generator basis label has no defining expression."""


class InconsistentTable(InputError):
    """A completed multiplication table violates the ring axioms.

    ``violations`` lists every failed axiom as ``FrobeniusAlgebra.validate``
    returns it; the message shows the first five.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class UnsupportedType(InputError):
    """Root-system family outside A, B, C, D."""


class NotRegular(InputError):
    """Weight vector fails the regularity required for the construction."""


class TooLarge(InputError):
    """Input exceeds a guard bound for an exhaustive procedure."""
