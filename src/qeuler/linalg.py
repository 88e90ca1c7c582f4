"""Dense exact linear algebra over Q and over Q(q).

Matrices are lists of row lists of ``int``, ``Fraction`` or
``RationalFunction`` entries; no result is ever a float.  ``solve`` and
``det`` run one elimination, ``_bareiss``, Bareiss's fraction-free pass
(Math. Comp. 22, 1968), on ``int`` rows only: each row is cleared of its
denominators into Z, or over Q(q) into Z[q] and evaluated at q = 2^b
(Kronecker substitution; von zur Gathen and Gerhard, *Modern Computer
Algebra*).  With M the product over the rows of max(1, the row's
coefficient 1-norm), a minor, a signed sum of products of one entry per
row, has coefficients at most M in absolute value, and each value that the
pass and the back substitution test for zero, divide or return is a minor
or a product of two.  So b = 2 bitlen(M) + 2 keeps their coefficients below
2^(b-1), where evaluation at 2^b, a ring map Z[q] -> Z, is one to one: the
pass runs as it would over Z[q], and signed base-2^b digits read results.
``det`` is the package's one exact zero test: a is singular when det(a) =
0, and nilpotent when det(t - a) = t^n at t = 1, ..., n (``is_nilpotent``).
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
    """Bareiss's pass over ``int`` rows, in place; returns the pivots, one
    per column until a column has none, and the sign of the row swaps.
    With p the first nonzero entry of the column, each row below becomes
    (p * row - factor * pivot row) / previous pivot, exactly, where either
    row is nonzero, so the last pivot is the determinant up to sign.  A row
    with factor 0 would only be rescaled by p / previous pivot; the
    rescalings telescope, so it takes them at once when a step reaches it."""
    pivots, sign, prev = [], 1, 1
    scaled = [1] * len(rows)  # the previous pivot as of each row's last step
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
        for i in range(col + 1, len(rows)):
            other = rows[i]
            if other[col]:
                _rescale(other, col, prev, scaled[i])
                scaled[i], factor = p, other[col]
                for j in range(col + 1, len(row)):
                    if row[j] or other[j]:
                        other[j] = _quotient(p * other[j] - factor * row[j], prev)
        prev = p
    return pivots, sign


def _integer_rows(rows):
    """``rows``, each times the lcm of its denominators, as ``int`` rows,
    with the product of the lcms, the field of the results and the map
    from an ``int`` result towards it: ``Fraction`` and ``int`` for rows of
    ``int`` and ``Fraction``, else ``RationalFunction`` and a reader of
    base-2^b digits.  Over Q(q) a row is coerced, its denominators other
    than 1 grow the lcm that multiplies its numerators, the lcm of its
    coefficients' denominators clears it into Z[q], and it is evaluated at
    q = 2^b (see the module docstring)."""
    cleared, scale = [], 1
    if all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        for row in rows:
            lcm = math.lcm(*(x.denominator for x in row))
            cleared.append([x.numerator * (lcm // x.denominator) for x in row])
            scale *= lcm
        return cleared, scale, Fraction, int
    from .scalar import _P_ONE, RationalFunction, _merged, poly_gcd

    norms = []
    for row in rows:
        row, lcm = [x if type(x) is RationalFunction else RationalFunction(x) for x in row], None
        for den in [x.den for x in row if x.den is not _P_ONE]:
            lcm = den if lcm is None else lcm * _quotient(den, poly_gcd(lcm, den))
        row = [x.num * _quotient(lcm, x.den) if lcm and x.num else x.num for x in row]
        scale = scale * lcm if lcm else scale
        coeffs = [c for x in row if x.terms for c in x.terms.values()]
        if type(norm := sum(map(abs, coeffs))) is not int:  # some coefficient is a Fraction
            k = math.lcm(*[c.denominator for c in coeffs])
            row, norm, scale = [x * k for x in row], int(norm * k), scale * k
        cleared.append(row)
        norms.append(norm)
    b = 2 * math.prod(max(1, norm) for norm in norms).bit_length() + 2
    point, half, mask = 1 << b, 1 << b - 1, (1 << b) - 1

    def read(v):
        digits = []
        while v:
            v += half
            digits.append((v & mask) - half)
            v >>= b
        return _merged({}, enumerate(digits))
    cleared = [[x.evaluate(point) if x.terms else 0 for x in row] for row in cleared]
    return cleared, scale, RationalFunction, read


def solve(a, b):
    """Solve A X = B for X (``b`` has one column per right-hand side).
    With D the last pivot of ``_bareiss`` on the cleared [A | B], D * X is
    an ``int`` matrix; back substitution finds it as (D * b'_i - sum_{j > i}
    U_ij * X_j) / U_ii, exactly, over the nonzero entries of each pivot
    row.  Raises ``InvalidShape`` unless A is n x n and B has n rows of one
    length, and ``SingularMatrix`` when A is not invertible."""
    n = _order(a)
    if len(b) != n:
        raise InvalidShape(f"the right-hand side has {len(b)} rows, the matrix is {n}x{n}")
    if len(widths := sorted({len(row) for row in b})) > 1:
        raise InvalidShape("the right-hand side has rows of length " + "/".join(map(str, widths)))
    m, _, field, read = _integer_rows([list(a[i]) + list(b[i]) for i in range(n)])
    pivots, _ = _bareiss(m, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {len(pivots)}")
    d, sol = (pivots[-1] if n else 1), [None] * n
    for i in reversed(range(n)):
        row = m[i]
        reach = [j for j in range(i + 1, n) if row[j]]
        sol[i] = values = [d * rhs for rhs in row[n:]]
        for c, acc in enumerate(values):
            for j in reach:
                acc -= row[j] * sol[j][c]
            values[c] = _quotient(acc, row[i])
    d = None if d == 1 else read(d)  # a last pivot of 1 divides nothing
    return [[field(read(x), d) for x in values] for values in sol]


def det(a):
    """Determinant: the signed last pivot of ``_bareiss`` over the product of
    the lcms that cleared the rows, an ``int`` for a matrix of ``int``s (no
    clearing), and 0 of the entries' type when A is singular; A must be
    n x n (``InvalidShape`` otherwise)."""
    n = _order(a)
    ints = all(type(x) is int for row in a for x in row)
    rows, scale, field, read = (
        ([list(row) for row in a], 1, None, int) if ints else _integer_rows(a))
    pivots, sign = _bareiss(rows, n)
    if len(pivots) < n:
        return 0 * a[0][0]
    d = sign * pivots[-1] if n else 1
    return field(read(d), scale) if field else d


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
