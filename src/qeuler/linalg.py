"""Dense exact linear algebra over any field-like elements.

Matrices are lists of row lists.  Entries only need ``+ - * /``, truthiness
(zero is falsy), and multiplication by plain ints, which both ``Fraction``
and ``RationalFunction`` provide.  Plain ``int`` entries work too: an
``int`` pivot is promoted to ``Fraction`` before anything is divided by
it, so no result is ever a float.  ``solve`` and ``det`` take the first
nonzero pivot of each column, in one of two passes by a fixed rule: where
some entry is a ``RationalFunction`` with more than one term in its
numerator or denominator, each row is cleared to Q[q] by the lcm of its
denominators for ``_bareiss``, Bareiss's fraction-free pass (Math. Comp.
22, 1968), which also takes ``det`` of plain ``int``s; everything else,
Laurent-monomial matrices such as the Schubert and IG(2,6) gram matrices
included, takes the field pass ``_forward``.  A field step reduces each
entry it touches by ``poly_gcd``, except that a quotient of two Laurent
monomials needs none.  Both passes work only on the nonzero entries of the
rows that a pivot reaches.  ``det`` is also the package's one singularity
test over Q(q): ``is_unit`` and ``validate`` ask it whether a matrix is
invertible.
"""

from fractions import Fraction
from math import prod

from .errors import ComputeError, InvalidShape, SingularMatrix


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


def _order(a):
    """n for an n x n matrix ``a``; ``InvalidShape`` for any other shape."""
    n, widths = len(a), sorted({len(row) for row in a})
    if widths not in ([], [n]):
        raise InvalidShape(f"need an n x n matrix, got {n} rows of length "
                           + "/".join(map(str, widths)))
    return n


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
    """Bareiss's pass over ``int`` or ``QPolynomial``, in place; returns
    what ``_forward`` returns.  Each row below the pivot p becomes (p * row
    - factor * pivot row) / previous pivot, exactly, so the last pivot is
    the determinant up to sign.  A row with factor 0 would only be rescaled
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


def _fraction_free(rows):
    """The module's rule.  A loop, not ``any``: twice as fast on a gram
    matrix."""
    for row in rows:
        for x in row:
            if hasattr(x, "num") and len(x.num.terms) + len(x.den.terms) > 2:
                return True
    return False


def _cleared(rows):
    """Q(q) rows, each times the lcm of its denominators, as ``QPolynomial``
    rows, and the product of the lcms."""
    from .scalar import QPolynomial, RationalFunction, poly_gcd

    cleared, scale = [], 1
    for row in rows:
        row = [x if isinstance(x, RationalFunction) else RationalFunction(x) for x in row]
        lcm = QPolynomial.constant(1)
        for x in row:
            if not x.is_polynomial():
                lcm = lcm * _quotient(x.den, poly_gcd(lcm, x.den))
        cleared.append([x.num * _quotient(lcm, x.den) for x in row] if lcm.degree()
                       else [x.num for x in row])
        scale = scale * lcm
    return cleared, scale


def _solve_fraction_free(aug, n):
    """With D the last pivot, D * X is a polynomial matrix; back substitution
    finds it as (D * b'_i - sum_{j > i} U_ij * X_j) / U_ii, exactly."""
    from .scalar import RationalFunction

    m, _ = _cleared(aug)
    pivots, _ = _bareiss(m, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {len(pivots)}")
    d, sol = pivots[-1], [None] * n
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
    return [[RationalFunction(x, d) for x in values] for values in sol]


def solve(a, b):
    """Solve A X = B for X (``b`` has one column per right-hand side): a
    forward pass on [A | B] by the module's rule, then back substitution
    over the right-hand-side columns nonzero in each pivot row.  Raises
    ``InvalidShape`` unless A is n x n and B has n rows, and
    ``SingularMatrix`` when A is not invertible."""
    n = _order(a)
    if len(b) != n:
        raise InvalidShape(f"the right-hand side has {len(b)} rows, the matrix is {n}x{n}")
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    if _fraction_free(aug):
        return _solve_fraction_free(aug, n)
    pivots, _ = _forward(aug, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {len(pivots)}")
    for col in reversed(range(n)):
        row = aug[col]
        _clear(aug[:col], col, row, [j for j in range(n, len(row)) if row[j]])
    return [row[n:] for row in aug]


def det(a):
    """Determinant: the signed last pivot of ``_bareiss`` or the signed
    product of ``_forward``'s pivots, by the module's rule, over the lcms
    that cleared the rows; A must be n x n (``InvalidShape`` otherwise)."""
    n = _order(a)
    rows = [list(row) for row in a]
    if n and all(type(x) is int for row in rows for x in row):
        pivots, sign = _bareiss(rows, n)
        if len(pivots) == n:
            return sign * pivots[-1]
    elif _fraction_free(rows):
        from .scalar import RationalFunction

        rows, scale = _cleared(rows)
        pivots, sign = _bareiss(rows, n)
        if len(pivots) == n:
            return RationalFunction(sign * pivots[-1], scale)
    else:
        pivots, sign = _forward(rows, n)
        if len(pivots) == n:
            return prod(pivots, start=sign)
    return 0 * a[0][0]


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
