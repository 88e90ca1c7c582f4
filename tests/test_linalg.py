"""Exact elimination in ``linalg`` against sympy on sparse matrices.

``solve`` and ``det`` clear each row of its denominators, into Z, or over
Q(q) into Z[q] and then into ``int``s by evaluation at q = 2^b, and run
Bareiss's fraction-free pass, ``_bareiss``, which skips the zero entries of
each row; the gram and operator matrices they see are mostly zeros.  These
properties check that neither the clearing, the packing nor the skipping
changes a value, over Q and over Q(q), singular matrices and right-hand
sides with zero rows and columns included, and coefficients large enough
that b must bound every minor; they compare with sympy and, over Q(q), with
a field pass written here.  Results are exact: ``solve`` over Q gives
``Fraction``s, ``det`` of ``int``s an ``int``, never a float.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import to_sympy
from qeuler import linalg
from qeuler.errors import InvalidShape, SingularMatrix
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
@example([[1, 2], [0, 1]])
def test_solve_and_det_match_sympy(a):
    """Also the result types: ``det`` has the entries' type, 0 of it when A
    is singular, and ``solve`` gives ``Fraction``s, also from ``int``
    entries where the last pivot is 1."""
    ref = sympy.Matrix(a)
    n = len(a)
    ref_det = ref.det()
    got_det = linalg.det(a)
    zero = 0 * a[0][0]
    assert got_det == _fraction(ref_det) and type(got_det) is type(zero)
    identity = linalg.identity(n, zero + 1, zero)
    if ref_det == 0:
        with pytest.raises(SingularMatrix):
            linalg.solve(a, identity)
        return
    inverse = ref.inv()
    want = [[_fraction(inverse[i, j]) for j in range(n)] for i in range(n)]
    got = linalg.solve(a, identity)
    assert got == want and all(type(x) is Fraction for row in got for x in row)


def test_solve_and_det_leave_their_arguments_alone():
    a = [row[:] for row in NEEDS_SWAPS]
    b = linalg.identity(3, Fraction(1), Fraction(0))
    linalg.solve(a, b)
    linalg.det(a)
    assert a == NEEDS_SWAPS
    assert b == linalg.identity(3, Fraction(1), Fraction(0))


@pytest.mark.parametrize("a, shape", [
    ([[1, 2, 3], [4, 5, 6]], "2 rows of length 3"),
    ([[1, 2], [3, 4], [5, 6]], "3 rows of length 2"),
    ([[1, 0], [0]], "2 rows of length 1/2"),
])
def test_solve_and_det_reject_a_matrix_that_is_not_square(a, shape):
    """Each of these once gave a value (``det`` of the 2 x 3 one read -3)."""
    with pytest.raises(InvalidShape, match=shape):
        linalg.det(a)
    with pytest.raises(InvalidShape, match=shape):
        linalg.solve(a, [[1] for _ in a])


def test_solve_rejects_a_right_hand_side_without_n_rows():
    for b in ([[1]], [[1], [2], [3]]):
        with pytest.raises(InvalidShape, match=f"has {len(b)} rows, the matrix is 2x2"):
            linalg.solve([[1, 2], [3, 4]], b)
    assert linalg.solve([], []) == [] and linalg.det([]) == 1


@pytest.mark.parametrize("a, b", [
    ([[1, 1], [1, 2]], [[1], [1, 2]]),
    ([[1, 1], [1, 2]], [[1, 2], [1]]),
    ([[ONE, ONE], [ONE, Q]], [[ONE], [ONE, Q]]),
    ([[ONE, ONE], [ONE, Q]], [[ONE, Q], [ONE]]),
], ids=["Q-short-last", "Q-short-first", "Qq-short-last", "Qq-short-first"])
def test_solve_rejects_a_ragged_right_hand_side(a, b):
    """The first of these once gave a ragged answer, the second an
    ``IndexError``."""
    with pytest.raises(InvalidShape, match="right-hand side has rows of length 1/2"):
        linalg.solve(a, b)


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
def rational_function_matrices(draw, entries=rational_functions(), size=4):
    """Square matrices up to ``size`` x ``size`` over Q(q), about half
    zeros.  Drawn with a nonzero permuted diagonal (row swaps), or with the
    last row a Q(q) multiple of the first (singular), or neither."""
    n = draw(st.integers(1, size))
    a = [[draw(entries) if draw(st.booleans()) else ZERO
          for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("sparse", "permuted", "dependent")))
    if shape == "permuted":
        perm = draw(st.permutations(range(n)))
        for i in range(n):
            a[i][perm[i]] = draw(entries.filter(bool))
    elif shape == "dependent" and n > 1:
        c = draw(entries)
        a[-1] = [c * x for x in a[0]]
    return a


@st.composite
def rational_function_systems(draw, entries=rational_functions(), size=4):
    a = draw(rational_function_matrices(entries, size))
    return a, draw(right_hand_sides(len(a), entries))


def _matches_sympy_over_rational_functions(a, b):
    ref = to_sympy(a)
    ref_det = ref.det()
    assert to_sympy([[linalg.det(a)]]).to_list() == [[ref_det]]
    if not ref_det:
        with pytest.raises(SingularMatrix):
            linalg.solve(a, b)
        return
    assert to_sympy(linalg.solve(a, b)).to_list() == ref.lu_solve(to_sympy(b)).to_list()


@settings(max_examples=100, deadline=None)
@given(rational_function_systems())
@example(([[ZERO, Q], [ONE / (Q - 1), ZERO]], [[ONE], [ZERO]]))
def test_solve_and_det_match_sympy_over_rational_functions(system):
    _matches_sympy_over_rational_functions(*system)


# ---------------------------------------------------------------------------
# the fraction-free pass against a field pass and sympy
# ---------------------------------------------------------------------------

def _not_laurent_monomials(rows):
    """Some entry has more than one term in its numerator and denominator
    together, so clearing its row into Q[q] takes a real lcm."""
    return any(len(x.num.terms) + len(x.den.terms) > 2 for row in rows for x in row)


def _field_pass(a, b):
    """det A and, when it is nonzero, the solution of A X = B, by Gaussian
    elimination over Q(q) with division at each step: an independent check
    on the clearing and on ``_bareiss``."""
    n = len(a)
    m = [list(a[i]) + list(b[i]) for i in range(n)]
    d = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return ZERO, None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            d = -d
        p = m[col][col]
        d = d * p
        m[col] = [x / p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    return d, [row[n:] for row in m]


@settings(max_examples=100, deadline=None)
@given(rational_function_systems().filter(
    lambda system: _not_laurent_monomials(system[0] + system[1])))
@example(([[ONE + Q, Q], [ONE, ONE / (Q - 1)]], [[ONE + Q], [ZERO]]))
def test_fraction_free_pass_matches_the_field_pass_and_sympy(system):
    a, b = system
    ref = to_sympy(a)
    want_det, want = _field_pass(a, b)
    got = linalg.det(a)
    assert got == want_det
    assert to_sympy([[got]]).to_list() == [[ref.det()]]
    if not got:
        with pytest.raises(SingularMatrix):
            linalg.solve(a, b)
        return
    got = linalg.solve(a, b)
    assert got == want
    assert to_sympy(got).to_list() == ref.lu_solve(to_sympy(b)).to_list()


# ---------------------------------------------------------------------------
# Bareiss's pass on its edge cases: swaps after a step, late rows, singular input
# ---------------------------------------------------------------------------

DENSE_INTS = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(INTS, min_size=n, max_size=n), min_size=n, max_size=n))
# after the first step the (1, 1) entry is 2 * 2 - 4 * 1 = 0, so the second
# step swaps in the last row
SWAP_AFTER_FIRST_STEP = [[2, 1, 0], [4, 2, 3], [1, 5, 7]]
# rows 2 and 3 have a zero factor for two steps, then are brought up to date
LATE_ROWS = [[3, 0, 1, 0], [1, 5, 0, 2], [0, 0, 4, 1], [0, 0, 2, 7]]
SINGULAR_INTS = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]


@settings(max_examples=200, deadline=None)
@given(st.one_of(DENSE_INTS, sparse_matrices(INTS), sparse_matrices(INTS, True)))
@example(SWAP_AFTER_FIRST_STEP)
@example(LATE_ROWS)
@example(SINGULAR_INTS)
def test_integer_det_matches_sympy_and_stays_an_int(a):
    got = linalg.det(a)
    assert type(got) is int and got == sympy.Matrix(a).det()


@pytest.mark.parametrize("a, zero", [
    (SINGULAR_INTS, 0),
    ([[ONE + Q, Q], [(ONE + Q) * Q, Q * Q]], ZERO),
    ([[ONE / (Q - 1), Q], [Q, Q * Q * (Q - 1)]], ZERO),
], ids=["int", "polynomial", "rational"])
def test_singular_input_on_the_bareiss_paths(a, zero):
    got = linalg.det(a)
    assert got == zero and type(got) is type(zero)
    with pytest.raises(SingularMatrix):
        linalg.solve(a, [[x] for x in a[0]])


def test_the_bareiss_paths_leave_their_arguments_alone():
    for a, b in ((LATE_ROWS, [[1], [0], [2], [3]]),
                 ([[ONE + Q, Q], [ONE, ONE / (Q - 1)]], [[ONE + Q], [Q * Q - 1]])):
        a_copy, b_copy = [row[:] for row in a], [row[:] for row in b]
        rows = list(a)
        linalg.det(a)
        linalg.solve(a, b)
        assert (a, b) == (a_copy, b_copy)
        assert all(x is y for x, y in zip(rows, a))


# ---------------------------------------------------------------------------
# the packing at q = 2^b: coefficients that need all of b
# ---------------------------------------------------------------------------

HUGE = st.integers(-2 ** 70, 2 ** 70)
WIDE_COEFFICIENTS = st.one_of(
    HUGE, st.builds(Fraction, HUGE, st.integers(1, 2 ** 40)), st.integers(-3, 3))


@st.composite
def wide_rational_functions(draw, degree):
    """Numerators up to ``degree`` with coefficients up to 2^70, some of
    them fractions with denominators up to 2^40, over 1 or q."""
    coeffs = draw(st.lists(WIDE_COEFFICIENTS, min_size=1, max_size=degree + 1))
    num = sum((c * Q ** e for e, c in enumerate(coeffs)), ZERO)
    return num / draw(st.sampled_from((ONE, Q)))


@st.composite
def wide_systems(draw):
    """Systems up to 6 x 6 whose numerators have degree up to 6 // size, over
    Laurent denominators: a result is normalised by a Euclidean gcd over Q,
    whose cost grows steeply with the degree of the determinant and the size
    of its coefficients (a 4 x 4 system of degree 6 took 22 s)."""
    size = draw(st.integers(1, 6))
    return draw(rational_function_systems(wide_rational_functions(6 // size), size))


@settings(max_examples=40, deadline=None)
@given(wide_systems())
def test_packed_solve_and_det_match_sympy_on_wide_coefficients(system):
    _matches_sympy_over_rational_functions(*system)


def test_the_packing_reads_a_minor_near_the_bound():
    """Cleared by 2^40 into Z[q], the first row of A is [3^30 q, 1], so for
    ``det`` M = (3^30 + 1) * 7, and the coefficient 7 * 3^30 of the cleared
    determinant is above 2^(bitlen(M) - 1).  With b = bitlen(M), or with M
    taken before the integer clearing, its digits would read wrong."""
    a = [[Fraction(3 ** 30, 2 ** 40) * Q, ONE / 2 ** 40], [ZERO, 7 * Q]]
    assert linalg.det(a) == Fraction(7 * 3 ** 30, 2 ** 40) * Q * Q
    assert linalg.solve(a, [[ONE], [Q]]) == [[(7 * 2 ** 40 - 1) / (7 * 3 ** 30 * Q)],
                                             [ONE / 7]]
