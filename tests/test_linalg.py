"""Exact elimination in ``linalg`` against sympy on sparse matrices.

``solve`` and ``det`` skip the zero entries of each pivot row, and the
gram and operator matrices they see are mostly zeros; these properties
check that skipping them changes no value, singular matrices included.
Matrices of plain ``int``s must give the same exact values, never floats.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import linalg
from qeuler.errors import SingularMatrix

INTS = st.integers(-9, 9)
INTEGERS = INTS.map(Fraction)
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def sparse_matrices(draw, values, permuted_diagonal=False):
    """Square matrices up to 8x8 with about 70% zero entries.

    Most of them are singular; with ``permuted_diagonal`` the entries at
    (i, perm[i]) are drawn nonzero too, so most are invertible and need
    row swaps.
    """
    n = draw(st.integers(1, 8))
    zero = 0 * draw(values)
    a = [[draw(values) if draw(st.integers(0, 9)) >= 7 else zero
          for _ in range(n)] for _ in range(n)]
    if permuted_diagonal:
        perm = draw(st.permutations(range(n)))
        for i in range(n):
            a[i][perm[i]] = draw(values.filter(bool))
    return a


def _fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


MATRICES = st.one_of(*(sparse_matrices(values, permuted_diagonal)
                       for values in (INTS, INTEGERS, FRACTIONS)
                       for permuted_diagonal in (False, True)))
SINGULAR = [[Fraction(0)]]
NEEDS_SWAPS = [[Fraction(0), Fraction(0), Fraction(2)],
               [Fraction(0), Fraction(-1), Fraction(0)],
               [Fraction(1, 3), Fraction(0), Fraction(5)]]
REPEATED_ROW = [[Fraction(1), Fraction(0), Fraction(2)],
                [Fraction(0), Fraction(4), Fraction(0)],
                [Fraction(1), Fraction(0), Fraction(2)]]
PLAIN_INTS = [[1, 2], [3, 4]]


def _no_floats(m):
    return not any(isinstance(x, float) for row in m for x in row)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@example(SINGULAR)
@example(NEEDS_SWAPS)
@example(REPEATED_ROW)
@example(PLAIN_INTS)
def test_solve_and_det_match_sympy(a):
    ref = sympy.Matrix(a)
    n = len(a)
    ref_det = ref.det()
    got_det = linalg.det(a)
    assert got_det == _fraction(ref_det) and _no_floats([[got_det]])
    zero = 0 * a[0][0]
    identity = linalg.identity(n, zero + 1, zero)
    if ref_det == 0:
        with pytest.raises(SingularMatrix):
            linalg.solve(a, identity)
        return
    inverse = ref.inv()
    want = [[_fraction(inverse[i, j]) for j in range(n)] for i in range(n)]
    got = linalg.solve(a, identity)
    assert got == want and _no_floats(got)


def test_solve_and_det_leave_their_arguments_alone():
    a = [row[:] for row in NEEDS_SWAPS]
    b = linalg.identity(3, Fraction(1), Fraction(0))
    linalg.solve(a, b)
    linalg.det(a)
    assert a == NEEDS_SWAPS
    assert b == linalg.identity(3, Fraction(1), Fraction(0))
