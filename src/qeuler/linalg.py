"""Dense exact linear algebra over Q and over Q(q).

Matrices are lists of row lists of ``int``, ``Fraction`` or
``RationalFunction`` entries; no result is ever a float.  ``solve`` and
``det`` run one elimination, ``_bareiss``, Bareiss's fraction-free pass
(Math. Comp. 22, 1968), on rows first cleared of their denominators by one
of two routes: where some entry is a ``RationalFunction``, each row is
multiplied by the lcm of its denominators into Q[q]; otherwise by the lcm of
its ``int``/``Fraction`` denominators into Z, and ``det`` of plain ``int``s
needs no clearing at all.  ``solve`` divides its results back by a last
pivot other than 1, ``det`` by the product of the lcms, as
``RationalFunction`` over Q(q) and ``Fraction`` over Q.  The pass takes the
first nonzero pivot of each column and works only on the nonzero entries of
the rows that a pivot reaches.  ``det`` is also the package's one
singularity test over Q(q): ``is_unit`` and ``validate`` ask it whether a
matrix is invertible.
"""

import math
from fractions import Fraction

from .errors import ComputeError, InvalidShape, SingularMatrix


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), 0) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), 0)


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def _order(a):
    """n for an n x n matrix ``a``; ``InvalidShape`` for any other shape."""
    n, widths = len(a), sorted({len(row) for row in a})
    if widths not in ([], [n]):
        raise InvalidShape(f"need an n x n matrix, got {n} rows of length "
                           + "/".join(map(str, widths)))
    return n


def _quotient(x, d):
    """x / d in ``int`` or ``QPolynomial``, where it must be exact."""
    quot, rem = divmod(x, d)
    if rem:
        raise ComputeError(f"fraction-free elimination: {d!r} does not divide {x!r}")
    return quot


def _rescale(row, start, new, old):
    """``row[start:]`` times new / old, exactly; zeros are left as they are."""
    if new != old:
        row[start:] = [_quotient(x * new, old) if x else x for x in row[start:]]


def _bareiss(rows, n):
    """Bareiss's pass over ``int`` or ``QPolynomial``, in place; returns the
    pivots, one per column until a column has none, and the sign of the row
    swaps.  Each row below the pivot p becomes (p * row - factor * pivot
    row) / previous pivot, exactly, so the last pivot is the determinant up
    to sign.  A row with factor 0 would only be rescaled
    by p / previous pivot; the rescalings telescope, so it takes them at
    once when a step next reaches it."""
    one = rows[0][0] ** 0 if rows else 1  # the ring's 1
    pivots, sign, prev = [], 1, one
    scaled = [one] * len(rows)  # the previous pivot as of each row's last step
    for col in range(n):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            break
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            scaled[col], scaled[pivot] = scaled[pivot], scaled[col]
            sign = -sign
        row = rows[col]
        _rescale(row, col, prev, scaled[col])
        p = row[col]
        pivots.append(p)
        scale, divide = p != one, prev != one
        for i in range(col + 1, len(rows)):
            other = rows[i]
            if other[col]:
                _rescale(other, col, prev, scaled[i])
                scaled[i], factor = p, other[col]
                for j in range(col + 1, len(row)):
                    x = p * other[j] if scale and other[j] else other[j]
                    if row[j]:
                        x = x - factor * row[j]
                    elif not x:
                        continue
                    other[j] = _quotient(x, prev) if divide else x
        prev = p
    return pivots, sign


def _cleared(rows):
    """``rows``, each times the lcm of its denominators, with the product of
    the lcms and the type a result is divided back in: ``QPolynomial`` rows
    and ``RationalFunction`` where some entry is a ``RationalFunction``,
    else ``int`` rows and ``Fraction``.  Over Q(q) one walk coerces, takes
    numerators and grows the lcm; a row with a denominator is walked again."""
    cleared, scale = [], 1
    if all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        for row in rows:
            lcm = math.lcm(*(x.denominator for x in row))
            cleared.append([x.numerator * (lcm // x.denominator) for x in row])
            scale *= lcm
        return cleared, scale, Fraction
    from .scalar import RationalFunction, poly_gcd

    for row in rows:
        nums, dens, lcm = [], [], None
        for x in row:
            x = x if isinstance(x, RationalFunction) else RationalFunction(x)
            nums.append(x.num)
            dens.append(x.den)
            if not x.is_polynomial():
                lcm = x.den if lcm is None else lcm * _quotient(x.den, poly_gcd(lcm, x.den))
        if lcm is not None:
            nums = [num * _quotient(lcm, den) if num else num for num, den in zip(nums, dens)]
            scale *= lcm
        cleared.append(nums)
    return cleared, scale, RationalFunction


def solve(a, b):
    """Solve A X = B for X (``b`` has one column per right-hand side).
    With D the last pivot of ``_bareiss`` on the cleared [A | B], D * X is
    an ``int`` or polynomial matrix; back substitution finds it as
    (D * b'_i - sum_{j > i} U_ij * X_j) / U_ii, exactly, over the nonzero
    entries of each pivot row.  Raises ``InvalidShape`` unless A is n x n
    and B has n rows, and ``SingularMatrix`` when A is not invertible."""
    n = _order(a)
    if len(b) != n:
        raise InvalidShape(f"the right-hand side has {len(b)} rows, the matrix is {n}x{n}")
    m, _, field = _cleared([list(a[i]) + list(b[i]) for i in range(n)])
    pivots, _ = _bareiss(m, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {len(pivots)}")
    d, sol = (pivots[-1] if n else 1), [None] * n
    one = d ** 0
    for i in reversed(range(n)):
        row = m[i]
        reach = [j for j in range(i + 1, n) if row[j]]
        sol[i] = values = row[n:] if d == one else [d * rhs for rhs in row[n:]]
        divide = row[i] != one
        for c, acc in enumerate(values):
            for j in reach:
                if sol[j][c]:
                    acc = acc - row[j] * sol[j][c]
            values[c] = _quotient(acc, row[i]) if divide and acc else acc
    d = None if d == one else d  # a last pivot of 1 divides nothing
    return [[field(x, d) for x in values] for values in sol]


def det(a):
    """Determinant: the signed last pivot of ``_bareiss`` over the product of
    the lcms that cleared the rows, an ``int`` for a matrix of ``int``s (no
    clearing), and 0 of the entries' type when A is singular; A must be
    n x n (``InvalidShape`` otherwise)."""
    n = _order(a)
    ints = all(type(x) is int for row in a for x in row)
    rows, scale, field = ([list(row) for row in a], 1, None) if ints else _cleared(a)
    pivots, sign = _bareiss(rows, n)
    if len(pivots) < n:
        return 0 * a[0][0]
    d = sign * pivots[-1] if n else 1
    return field(d, scale) if field else d


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
