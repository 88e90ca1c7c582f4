"""Dense exact linear algebra over any field-like elements.

Matrices are lists of row lists.  Entries only need ``+ - * /``, truthiness
(zero is falsy), and multiplication by plain ints, which both ``Fraction``
and ``RationalFunction`` provide.  Plain ``int`` entries work too: an
``int`` pivot is promoted to ``Fraction`` before anything is divided by
it, so no result is ever a float.  Elimination uses the first nonzero
pivot; over an exact field no pivoting strategy is needed for
correctness.  It works only on the nonzero entries of each pivot row,
which pays on sparse matrices such as gram matrices of Schubert bases.
"""

from fractions import Fraction

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


def solve(a, b):
    """Solve A X = B for X by Gauss-Jordan elimination.

    ``b`` is a matrix (one column per right-hand side).  Raises
    ``SingularMatrix`` when A is not invertible.
    """
    n = len(a)
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    width = len(aug[0])
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        row = aug[col]
        inv = _exact(row[col])
        # column col is not read again, and zero entries of the pivot row
        # stay zero and change no other row
        support = [j for j in range(col + 1, width) if row[j]]
        for j in support:
            row[j] = row[j] / inv
        for r in range(n):
            other = aug[r]
            factor = other[col]
            if r != col and factor:
                for j in support:
                    other[j] = other[j] - factor * row[j]
    return [row[n:] for row in aug]


def det(a):
    """Determinant by fraction-producing Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    result = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0 * m[0][0]
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        row = m[col]
        p = _exact(row[col])
        result = result * p
        support = [j for j in range(col + 1, n) if row[j]]
        for r in range(col + 1, n):
            other = m[r]
            if other[col]:
                factor = other[col] / p
                for j in support:
                    other[j] = other[j] - factor * row[j]
    return sign * result


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
