import doctest
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qeuler.scalar
from conftest import same_tree
from qeuler.errors import DivisionByZero, ParseError
from qeuler.presented import (
    MAX_DEPTH,
    BinOp,
    Neg,
    Num,
    QPower,
    Ref,
    _act,
    parse_expression,
)
from qeuler.scalar import (
    ONE,
    Q,
    QPolynomial,
    RationalFunction,
    ZERO,
    parse_scalar,
    poly_gcd,
    render_scalar,
)


def poly(*pairs):
    return QPolynomial(dict(pairs))


def field_arithmetic(a: RationalFunction, b: RationalFunction, op: str) -> RationalFunction:
    """Dispatch one of the four field operations by name."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# canonical forms and examples
# ---------------------------------------------------------------------------

def test_polynomial_cancellation():
    # (q^2 - 1)/(q - 1) -> q + 1
    num = poly((2, 1), (0, -1))
    den = poly((1, 1), (0, -1))
    assert RationalFunction(num, den) == RationalFunction(poly((1, 1), (0, 1)))


def test_monomial_inverse():
    x = ONE / RationalFunction(poly((2, 16)))
    assert render_scalar(x) == "1/16*q^-2"
    assert x * RationalFunction(poly((2, 16))) == ONE


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q / ZERO
    with pytest.raises(DivisionByZero):
        RationalFunction(poly((0, 1)), QPolynomial())


def test_a_number_divided_by_a_rational_function():
    """``RationalFunction.__rtruediv__``: an ``int`` or a ``Fraction`` over
    a multi-term and over a Laurent rational function, and over zero."""
    for x in (Q**2 - 3 * Q + 2, Q + 2 * Q**-1):
        assert 2 / x == RationalFunction(2) / x
    assert render_scalar(Fraction(1, 2) / Q) == "1/2*q^-1"
    with pytest.raises(DivisionByZero):
        1 / ZERO


def test_poly_gcd_examples():
    assert poly_gcd(poly((2, 1), (0, -1)), poly((1, 1), (0, -1))) == poly((1, 1), (0, -1))
    assert poly_gcd(poly((1, 1)), poly((2, 1))) == poly((1, 1))
    assert poly_gcd(QPolynomial(), poly((1, 3))) == poly((1, 1))
    assert poly_gcd(QPolynomial(), QPolynomial()) == QPolynomial()


def test_denominator_is_monic():
    x = RationalFunction(poly((0, 3)), poly((1, 2)))  # 3 / (2q)
    assert x.den == poly((1, 1))
    assert x.num == poly((0, Fraction(3, 2)))


def test_zero_canonical():
    x = RationalFunction(QPolynomial(), poly((3, 7), (1, 2)))
    assert x == ZERO
    assert x.den == QPolynomial.constant(1)
    # the constructor merges the pairs of an exponent and drops zero sums
    merged = QPolynomial([(2, 1), (0, Fraction(1, 2)), (2, -1), (0, Fraction(1, 2))])
    assert merged.terms == {0: 1} and type(merged.terms[0]) is int
    with pytest.raises(TypeError):
        QPolynomial([(0, 0.5), (0, -0.5)])


# ---------------------------------------------------------------------------
# field axioms on randomized triples
# ---------------------------------------------------------------------------

def random_rational_function(rng):
    def random_poly(allow_zero=True):
        terms = {}
        for e in range(rng.randint(0, 3)):
            c = rng.randint(-5, 5)
            if c:
                terms[e] = Fraction(c, rng.randint(1, 3))
        p = QPolynomial(terms)
        if not allow_zero and p.is_zero():
            return QPolynomial.constant(rng.randint(1, 5))
        return p

    return RationalFunction(random_poly(), random_poly(allow_zero=False))


def test_field_axioms_random_triples():
    rng = random.Random(987123)
    for _ in range(1000):
        a = random_rational_function(rng)
        b = random_rational_function(rng)
        c = random_rational_function(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_mul_div_round_trip():
    rng = random.Random(5511)
    for _ in range(300):
        a = random_rational_function(rng)
        b = random_rational_function(rng)
        if b.is_zero():
            continue
        assert field_arithmetic(field_arithmetic(a, b, "mul"), b, "div") == a


def test_canonicalization_idempotent():
    rng = random.Random(40902)
    for _ in range(200):
        a = random_rational_function(rng)
        again = RationalFunction(a.num, a.den)
        assert again.num == a.num and again.den == a.den


def test_field_arithmetic_dispatch():
    assert field_arithmetic(Q, ONE, "add") == Q + 1
    assert field_arithmetic(Q, ONE, "sub") == Q - 1
    assert field_arithmetic(Q, Q, "mul") == Q**2
    assert field_arithmetic(ONE, Q, "div") == Q**-1
    with pytest.raises(ValueError):
        field_arithmetic(Q, Q, "pow")
    with pytest.raises(DivisionByZero):
        field_arithmetic(Q, ZERO, "div")


# ---------------------------------------------------------------------------
# text round trips
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert parse_scalar("3/16*q^-2") == RationalFunction(
        poly((0, 3)), poly((2, 16)))
    assert parse_scalar("q + 1") == Q + 1
    assert parse_scalar("(q^2 - 1)/(q - 1)") == Q + 1
    assert parse_scalar("-2*q^3") == RationalFunction(poly((3, -2)))
    assert parse_scalar("7") == RationalFunction(7)


def test_render_parse_round_trip():
    rng = random.Random(77007)
    for _ in range(300):
        a = random_rational_function(rng)
        assert parse_scalar(render_scalar(a)) == a


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_scalar("q + #")
    assert info.value.column == 5
    with pytest.raises(ParseError):
        parse_scalar("(q + 1")
    with pytest.raises(ParseError):
        parse_scalar("q q")


class ErrorAt(int):
    """Expected outcome: a ParseError at this 1-based column."""


# text, parse_scalar, parse_expression: a rendered value or a tree, a
# ParseError column, or an exception class
PARSER_CONTRACT = [
    ("q + #", ErrorAt(5), ErrorAt(5)),
    ("(q + 1", ErrorAt(7), ErrorAt(7)),
    ("q q", ErrorAt(3), ErrorAt(3)),
    ("", ErrorAt(1), ErrorAt(1)),
    ("(s[1]", ErrorAt(2), ErrorAt(6)),
    ("s[1] ! s[2]", ErrorAt(1), ErrorAt(6)),
    ("s[2,1]", ErrorAt(1), Ref("2,1")),
    # the two old parsers disagreed on the rest
    ("q ^ 2", "q^2", QPower(2)),
    ("q ^ -3", "q^-3", QPower(-3)),
    ("2 / 3", "2/3", Num(Fraction(2, 3))),
    ("s[1]/2", ErrorAt(1), ErrorAt(5)),
    ("q^", ErrorAt(3), ErrorAt(3)),
    ("q^-", ErrorAt(4), ErrorAt(4)),
    ("1/0", DivisionByZero, ErrorAt(2)),
    ("1/-3", "-1/3", ErrorAt(3)),
    ("(1)/3", "1/3", ErrorAt(4)),
    ("-1/3*s[1]", ErrorAt(6), BinOp("*", Neg(Num(Fraction(1, 3))), Ref("1"))),
    ("3/16*q^-2", "3/16*q^-2", BinOp("*", Num(Fraction(3, 16)), QPower(-2))),
    ("2*-q", "-2*q", BinOp("*", Num(2), Neg(QPower(1)))),
    ("(q^2 - 1)/(q - 1)", "q + 1", ErrorAt(10)),
]


@pytest.mark.parametrize("text, scalar, expression", PARSER_CONTRACT)
def test_parser_contract(text, scalar, expression):
    for parse, expected in ((parse_scalar, scalar), (parse_expression, expression)):
        if isinstance(expected, ErrorAt):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.column == expected
        elif isinstance(expected, type):
            with pytest.raises(expected):
                parse(text)
        elif parse is parse_scalar:
            assert render_scalar(parse(text)) == expected
        else:
            assert same_tree(parse(text), expected)


@pytest.mark.parametrize("text, column", [
    ("(" * 3000 + "q" + ")" * 3000, MAX_DEPTH + 1),
    ("-" * 3000 + "q", MAX_DEPTH + 1),
    # the (MAX_DEPTH + 1)-th '(' is the last character of a repetition
    ("q+q*(" * 3000 + "q" + ")" * 3000, 5 * (MAX_DEPTH + 1)),
    ("-(" * 3000 + "q" + ")" * 3000, MAX_DEPTH + 1),
], ids=["3000-parentheses", "3000-minus-signs", "nested-sums", "minus-parentheses"])
def test_depth_bound_is_a_parse_error(text, column):
    for parse in (parse_scalar, parse_expression):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as info:
            parse(text)
        assert info.value.column == column


@pytest.mark.parametrize("open_, close", [("(", ")"), ("-", ""), ("q+q*(", ")"),
                                          ("-(", ")")])
def test_deepest_accepted_trees_evaluate(open_, close):
    """The deepest tree of each shape that parses also evaluates, in both
    grammars, without hitting the recursion limit."""
    n = 1
    while True:
        try:
            parse_expression(open_ * (n + 1) + "s[1]" + close * (n + 1))
        except ParseError:
            break
        n += 1
    assert n == MAX_DEPTH // len(open_.strip("q+*"))
    text = open_ * n + "q" + close * n
    tree = parse_expression(text.replace("q", "s[1]"))
    assert _act(ONE, tree, lambda x, label: x * Q) == parse_scalar(text) != 0


@pytest.mark.parametrize("text, value", [
    ("q" + "*q" * 3000, Q**3001),
    ("q" + " + q" * 3000, 3001 * Q),
    ("1" + " - q" * 3000, 1 - 3000 * Q),
    # the divisions bind to the last term only
    ("q" + " + 2*q^2*q" * 1000 + "/q" * 1000, Q + 1998 * Q**3 + 2 * Q**3 / Q**1000),
], ids=["3000-products", "3000-sums", "3000-differences", "mixed"])
def test_long_flat_chains_parse(text, value):
    """Only nesting is bounded: a sum or product of any length parses in
    both grammars, and its tree walks without recursing along the chain."""
    assert parse_scalar(text) == value
    if "/" not in text:
        tree = parse_expression(text.replace("q", "s[1]"))
        assert _act(ONE, tree, lambda x, label: x * Q) == value


def test_long_polynomials_round_trip():
    rng = random.Random(5150)
    num = QPolynomial({e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                       for e in range(250)})
    for x in (RationalFunction(num), RationalFunction(num, poly((250, 1))),
              RationalFunction(num, poly((1, 1), (0, 3)))):
        assert parse_scalar(render_scalar(x)) == x
    # a 1,000-term Laurent value renders as a flat sum of c*q^-k terms
    num = QPolynomial({e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                       for e in range(1000)})
    laurent = RationalFunction(num, poly((1000, 1)))
    assert render_scalar(laurent).count("q^-") == 1000
    assert parse_scalar(render_scalar(laurent)) == laurent


def test_negative_exponent_power():
    x = parse_scalar("q^-3")
    assert x * Q**3 == ONE


def test_negation_takes_no_gcd(monkeypatch):
    """The negative of a canonical value is canonical, so ``-x`` takes no
    ``poly_gcd`` (one at a time when it went through the constructor) and
    keeps x's denominator; it equals 0 - x, whose sum does take one."""
    x = parse_scalar("(3*q^2 + q + 1)/(q^2 + q + 2)")
    calls, gcd = [], qeuler.scalar.poly_gcd
    monkeypatch.setattr(qeuler.scalar, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    neg = -x
    assert not calls
    assert neg.den is x.den and neg.num == poly((2, -3), (1, -1), (0, -1))
    assert neg == 0 - x and -neg == x and calls
    assert (-ZERO).den == ONE.num and not -ZERO


def test_scalar_doctests_pass():
    # the module examples pin the canonical form, e.g. RationalFunction('3/16*q^-2')
    result = doctest.testmod(qeuler.scalar)
    assert result.attempted >= 4
    assert result.failed == 0


# ---------------------------------------------------------------------------
# properties against a reference canonicaliser that always runs Euclid
# ---------------------------------------------------------------------------

def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_divmod(a, b):
    quot, rem = {}, dict(a)
    top = max(b)
    while rem and max(rem) >= top:
        e = max(rem)
        factor = Fraction(rem[e]) / b[top]
        quot[e - top] = factor
        for e2, c2 in b.items():
            t = e - top + e2
            rem[t] = rem.get(t, 0) - factor * c2
            if not rem[t]:
                del rem[t]
    return quot, rem


def _ref_canonical(num, den):
    """(num, den) coprime with den monic, by the Euclidean algorithm alone."""
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError
    if not num:
        return {}, {0: 1}
    a, b = num, den
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    num, den = _ref_divmod(num, a)[0], _ref_divmod(den, a)[0]
    lead = den[max(den)]
    return ({e: Fraction(c) / lead for e, c in num.items()},
            {e: Fraction(c) / lead for e, c in den.items()})


def _ref_eval(tree):
    if tree[0] == "leaf":
        return _ref_canonical(tree[1], tree[2])
    op, x, y = tree
    (n1, d1), (n2, d2) = _ref_eval(x), _ref_eval(y)
    if op == "*":
        return _ref_canonical(_ref_mul(n1, n2), _ref_mul(d1, d2))
    if op == "/":
        return _ref_canonical(_ref_mul(n1, d2), _ref_mul(d1, n2))
    sign = 1 if op == "+" else -1
    return _ref_canonical(_ref_add(_ref_mul(n1, d2), _ref_mul(n2, d1), sign),
                          _ref_mul(d1, d2))


def _eval(tree):
    if tree[0] == "leaf":
        return RationalFunction(QPolynomial(tree[1]), QPolynomial(tree[2]))
    op, x, y = tree
    a, b = _eval(x), _eval(y)
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return a + b if op == "+" else a - b


_coeffs = st.one_of(st.integers(-4, 4),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
_polys = st.dictionaries(st.integers(0, 3), _coeffs, max_size=3)
_nonzero_polys = _polys.map(lambda p: p if any(p.values()) else {0: 1})


@st.composite
def _leaves(draw):
    # a Laurent shift q^v on top of a ratio of small polynomials, so both
    # the single-term fast path and the general Euclid path are exercised
    num = draw(_polys)
    den = draw(_nonzero_polys)
    v = draw(st.integers(-3, 3))
    num = {e + max(v, 0): c for e, c in num.items()}
    den = {e + max(-v, 0): c for e, c in den.items()}
    return ("leaf", num, den)


def _branches(kids):
    # a named function: hypothesis checks that ``extend`` uses its argument
    # by reading the source, which a lambda inside a call can defeat
    return st.tuples(st.sampled_from("+-*/"), kids, kids)


_trees = st.recursive(_leaves(), _branches, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_canonical_form_matches_euclid_reference(tree):
    try:
        want = _ref_eval(tree)
    except ZeroDivisionError:
        with pytest.raises(DivisionByZero):
            _eval(tree)
        return
    got = _eval(tree)
    assert (got.num.terms, got.den.terms) == want


def _assert_exact_coefficients(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


@settings(max_examples=150, deadline=None)
@given(_trees, _polys, _nonzero_polys)
def test_coefficients_are_int_or_proper_fraction(tree, a, b):
    a, b = QPolynomial(a), QPolynomial(b)
    polys = [a, b, a + b, a - b, a * b, *divmod(a, b), poly_gcd(a, b), a.monic(),
             QPolynomial({0: True, 1: Fraction(4, 2)})]
    try:
        x = _eval(tree)
        polys += [x.num, x.den]
    except DivisionByZero:
        pass
    for p in polys:
        _assert_exact_coefficients(p)
    assert a - b == a + (-b)


# halves and thirds, so that sums such as 1/2 + 1/2 turn integral and sums
# such as 1/2 - 1/2 cancel
_halves = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2, 3])))
_half_polys = st.dictionaries(st.integers(0, 3), _halves, max_size=4).map(QPolynomial)


@settings(max_examples=300, deadline=None)
@given(_half_polys, _half_polys, _halves)
@example(QPolynomial({0: Fraction(1, 2)}), QPolynomial({0: Fraction(1, 2)}), Fraction(2))
@example(QPolynomial({1: Fraction(1, 2), 0: 1}), QPolynomial({1: Fraction(-1, 2)}), 0)
def test_arithmetic_builds_the_constructors_canonical_terms(a, b, k):
    """Arithmetic merges in one pass, without a second trip through the
    constructor: each result of ``+``, ``-``, ``*``, negation, scaling and
    ``divmod`` holds the terms that the constructor would give it, each
    coefficient an ``int`` when integral, and no zero."""
    results = [("+", a + b, _ref_add(a.terms, b.terms)),
               ("-", a - b, _ref_add(a.terms, b.terms, -1)),
               ("*", a * b, _ref_mul(a.terms, b.terms)),
               ("neg", -a, _ref_add({}, a.terms, -1)),
               ("scale", a * k, {e: c * k for e, c in a.terms.items() if c * k})]
    if b:
        results += zip(("quot", "rem"), divmod(a, b), _ref_divmod(a.terms, b.terms))
    for op, result, want in results:
        assert result.terms == QPolynomial(result.terms).terms, op
        assert result.terms == want, op
        for c in result.terms.values():
            assert c and type(c) is (int if Fraction(c).denominator == 1 else Fraction), op


@given(st.integers(0, 3), st.integers(-3, -1),
       st.floats(allow_nan=False, allow_infinity=False, min_value=-8, max_value=8))
def test_constructor_refuses_cancelling_floats_and_negative_exponents(e, neg, x):
    with pytest.raises(TypeError):
        QPolynomial([(e, x), (e, -x)])
    with pytest.raises(ValueError):
        QPolynomial([(neg, 1), (neg, -1)])
    with pytest.raises(ValueError):
        QPolynomial({e: 1, neg: Fraction(1, 2)})
    # an exponent that is not an int, even one equal to an int
    for exponent in (e + 0.5, float(e), Fraction(2 * e + 1, 2), Fraction(e), e == 0):
        with pytest.raises(ValueError):
            QPolynomial({exponent: 1})
    for exponent in (Fraction(2 * e + 1, 2), Fraction(2 * neg + 1, 2), float(neg)):
        with pytest.raises(ValueError):
            RationalFunction.monomial(1, exponent)


def test_equality_with_a_polynomial_or_a_number_is_symmetric_and_hashes_agree():
    p = poly((0, 1), (2, Fraction(1, 2)))
    for scalar, other in ((RationalFunction(p), p), (ONE, 1), (ZERO, 0),
                          (RationalFunction(Fraction(3, 2)), Fraction(3, 2)),
                          (RationalFunction(QPolynomial.constant(2)), QPolynomial.constant(2))):
        assert scalar == other and other == scalar
        assert hash(scalar) == hash(other)
        assert other in {scalar} and scalar in {other}
    assert p != RationalFunction(p, poly((1, 1), (0, 1))) and p != Q
    assert not QPolynomial.constant(2) == 2 and QPolynomial.constant(2) != 2


@given(st.integers(-10**6, 10**6), st.integers(0, 5))
@example(2, 0)
def test_integral_fraction_equals_int(n, e):
    as_fraction, as_int = QPolynomial({e: Fraction(n)}), QPolynomial({e: n})
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)
    assert hash(RationalFunction(as_fraction)) == hash(RationalFunction(as_int))
