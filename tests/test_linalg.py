"""Exact elimination in ``linalg`` against sympy on sparse matrices.

``solve`` and ``det`` share one forward pass that skips the zero entries
of each pivot row, and ``solve``'s back substitution skips them too; the
gram and operator matrices they see are mostly zeros.  These properties
check that skipping them changes no value, over Q and over Q(q), singular
matrices and right-hand sides with zero rows and columns included.
Matrices of plain ``int``s must give the same exact values, never floats.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import to_sympy
from qeuler import linalg
from qeuler.errors import SingularMatrix
from qeuler.scalar import ONE, Q, ZERO, parse_scalar

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


@st.composite
def right_hand_sides(draw, n, values):
    """n x 1 or n x 3 matrices, sparse like ``sparse_matrices``, with one
    row and one column zeroed when the draw says so."""
    width = draw(st.sampled_from((1, 3)))
    zero = 0 * draw(values)
    b = [[draw(values) if draw(st.integers(0, 9)) >= 5 else zero
          for _ in range(width)] for _ in range(n)]
    zero_row = draw(st.integers(-1, n - 1))
    zero_column = draw(st.integers(-1, width - 1))
    for i in range(n):
        for j in range(width):
            if zero_row == i or zero_column == j:
                b[i][j] = zero
    return b


@st.composite
def systems(draw):
    values = draw(st.sampled_from((INTS, INTEGERS, FRACTIONS)))
    a = draw(sparse_matrices(values, permuted_diagonal=draw(st.booleans())))
    return a, draw(right_hand_sides(len(a), values))


@settings(max_examples=200, deadline=None)
@given(systems())
@example((NEEDS_SWAPS, [[Fraction(0)], [Fraction(3)], [Fraction(1)]]))
@example((NEEDS_SWAPS, [[Fraction(1), Fraction(0), Fraction(2)],
                        [Fraction(0), Fraction(0), Fraction(0)],
                        [Fraction(4), Fraction(0), Fraction(-1)]]))
def test_solve_matches_sympy_on_right_hand_sides_other_than_the_identity(system):
    a, b = system
    ref = sympy.Matrix(a)
    if ref.det() == 0:
        with pytest.raises(SingularMatrix):
            linalg.solve(a, b)
        return
    want = ref.LUsolve(sympy.Matrix(b))
    got = linalg.solve(a, b)
    assert got == [[_fraction(want[i, j]) for j in range(len(b[0]))]
                   for i in range(len(b))]
    assert _no_floats(got)


# Q(q): polynomials with small coefficients over a few denominators,
# q itself among them, so Laurent entries occur too
DENOMINATORS = [parse_scalar(text) for text in ("1", "q", "q - 1", "q^2 + 1", "q + 2")]


@st.composite
def rational_functions(draw):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    num = sum((c * Q ** e for e, c in enumerate(coeffs)), ZERO)
    return num / draw(st.sampled_from(DENOMINATORS))


@st.composite
def rational_function_matrices(draw):
    """Square matrices up to 4x4 over Q(q), about half zeros.  Drawn with
    a nonzero permuted diagonal (row swaps), or with the last row a Q(q)
    multiple of the first (singular), or neither."""
    n = draw(st.integers(1, 4))
    a = [[draw(rational_functions()) if draw(st.booleans()) else ZERO
          for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("sparse", "permuted", "dependent")))
    if shape == "permuted":
        perm = draw(st.permutations(range(n)))
        for i in range(n):
            a[i][perm[i]] = draw(rational_functions().filter(bool))
    elif shape == "dependent" and n > 1:
        c = draw(rational_functions())
        a[-1] = [c * x for x in a[0]]
    return a


@st.composite
def rational_function_systems(draw):
    a = draw(rational_function_matrices())
    return a, draw(right_hand_sides(len(a), rational_functions()))


@settings(max_examples=100, deadline=None)
@given(rational_function_systems())
@example(([[ZERO, Q], [ONE / (Q - 1), ZERO]], [[ONE], [ZERO]]))
def test_solve_and_det_match_sympy_over_rational_functions(system):
    a, b = system
    ref = to_sympy(a)
    ref_det = ref.det()
    assert to_sympy([[linalg.det(a)]]).to_list() == [[ref_det]]
    if not ref_det:
        with pytest.raises(SingularMatrix):
            linalg.solve(a, b)
        return
    assert to_sympy(linalg.solve(a, b)).to_list() == ref.lu_solve(to_sympy(b)).to_list()
