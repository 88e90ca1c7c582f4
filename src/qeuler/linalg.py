"""Dense exact linear algebra over any field-like elements.

Matrices are lists of row lists.  Entries only need ``+ - * /``, truthiness
(zero is falsy), and multiplication by plain ints, which both ``Fraction``
and ``RationalFunction`` provide.  Plain ``int`` entries work too: an
``int`` pivot is promoted to ``Fraction`` before anything is divided by
it, so no result is ever a float.  ``solve`` and ``det`` share one forward
elimination, ``_forward``, which takes the first nonzero pivot of each
column; over an exact field no pivoting strategy is needed for
correctness.  It works only on the nonzero entries of each pivot row,
which pays on sparse matrices such as gram matrices of Schubert bases.
"""

from fractions import Fraction
from math import prod

from .errors import SingularMatrix


def mat_mul(a, b):
    n, m, p = len(a), len(b[0]), len(b)
    return [
        [sum((a[i][t] * b[t][j] for t in range(p)), 0) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), 0) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), 0)


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def _exact(pivot):
    """``pivot`` as a divisor that divides exactly: ``int / int`` is a float."""
    return Fraction(pivot) if isinstance(pivot, int) else pivot


def _clear(rows, col, row, support):
    """From each of ``rows``, subtract ``row`` times that row's entry in column
    ``col``, over the columns in ``support`` only; column ``col`` is left as is."""
    if not support:
        return
    for other in rows:
        factor = other[col]
        if factor:
            for j in support:
                other[j] = other[j] - factor * row[j]


def _forward(m, n):
    """Reduce the first ``n`` columns of ``m`` in place, top down: each column
    takes the first nonzero pivot at or below the diagonal, divides the pivot
    row's later nonzero entries by it and clears the rows below only.

    Returns the pivots, one per column until a column has none, and the sign
    of the row swaps."""
    pivots, sign = [], 1
    for col in range(n):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            break
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        row = m[col]
        p = _exact(row[col])
        pivots.append(p)
        # zero entries of the pivot row stay zero and change no other row
        support = [j for j in range(col + 1, len(row)) if row[j]]
        for j in support:
            row[j] = row[j] / p
        _clear(m[col + 1:], col, row, support)
    return pivots, sign


def solve(a, b):
    """Solve A X = B for X (``b`` has one column per right-hand side): the
    forward pass on [A | B], then back substitution over the right-hand-side
    columns nonzero in each pivot row.  Raises ``SingularMatrix`` when A is
    not invertible."""
    n = len(a)
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    pivots, _ = _forward(aug, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {len(pivots)}")
    for col in reversed(range(n)):
        row = aug[col]
        _clear(aug[:col], col, row, [j for j in range(n, len(row)) if row[j]])
    return [row[n:] for row in aug]


def det(a):
    """Determinant: the signed product of the forward pass's pivots."""
    n = len(a)
    pivots, sign = _forward([list(row) for row in a], n)
    return prod(pivots, start=sign) if len(pivots) == n else 0 * a[0][0]


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
