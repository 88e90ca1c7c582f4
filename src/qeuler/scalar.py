"""Exact arithmetic in the field Q(q) of rational functions in one variable.

A scalar is a ratio of sparse polynomials in ``q`` with rational
coefficients, stored as ``int`` when integral and as ``Fraction`` only
otherwise.  Values are immutable and kept in a unique canonical form
(numerator and denominator coprime, denominator monic), so ``==`` is value
equality and instances are safe to share between threads.  When the
numerator or the denominator is a single term the gcd is a power of q, so
the common Laurent case needs no Euclidean algorithm.  Polynomial
arithmetic merges terms in one pass of ``_merged`` into a canonical dict;
a sum of scalar products adds raw terms per denominator in ``_accumulate``
and ``_total`` normalises each denominator's sum once.  ``parse_scalar``
reads text with the parser of ``qeuler.presented``.

>>> parse_scalar("(q^2 - 1)/(q - 1)")
RationalFunction('q + 1')
>>> parse_scalar("1/(16*q^2)") * parse_scalar("16*q^2")
RationalFunction('1')
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero


def _coeff(x):
    """An exact coefficient: ``int`` when integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot use {type(x).__name__} as a rational coefficient")


def _div(a, b):
    """Exact quotient of two coefficients; never a float."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _coeff(Fraction(a, b))


def _merged(terms, items):
    """A ``QPolynomial`` that stores ``terms``, a canonical term dict, after
    adding each ``(exponent, coefficient)`` pair of ``items`` into it in
    place.  Only the sums are normalised: an integral ``Fraction`` becomes
    an ``int`` and a zero sum is dropped."""
    for exp, c in items:
        if exp in terms:
            c += terms[exp]
            if not c:
                del terms[exp]
                continue
        if c:
            terms[exp] = c if type(c) is int or c.denominator != 1 else c.numerator
    poly = object.__new__(QPolynomial)
    object.__setattr__(poly, "terms", terms)
    return poly


class QPolynomial:
    """Sparse polynomial in q: finitely supported map exponent -> coefficient.

    Coefficients are ``int`` when integral and ``Fraction`` otherwise.  Zero
    coefficients are never stored; the zero polynomial has an empty term
    map.  Exponents are nonnegative integers.  The constructor is the entry
    point for outside data: it takes a dict or any iterable of ``(exponent,
    coefficient)`` pairs, checks each, then sums them in ``_merged``, which
    arithmetic also uses, and which drops the zero sums.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        pairs = [(exp, _coeff(c))
                 for exp, c in (terms.items() if isinstance(terms, dict) else terms or ())]
        if any(type(exp) is not int or exp < 0 for exp, _ in pairs):
            raise ValueError("polynomial exponents must be ints >= 0")
        # every coefficient goes through _coeff, so a float is refused even
        # when it cancels
        object.__setattr__(self, "terms", _merged({}, pairs).terms)

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, c, exp):
        return cls({exp: c})

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.terms) if self.terms else -1

    def leading_coefficient(self):
        return self.terms[max(self.terms)] if self.terms else 0

    def shift(self, k: int) -> "QPolynomial":
        """Multiply by q**k; every exponent must stay nonnegative."""
        return _merged({e + k: c for e, c in self.terms.items()}, ()) if k else self

    def monic(self) -> "QPolynomial":
        """Scale so the leading coefficient is 1; zero stays zero."""
        if not self.terms:
            return self
        lead = self.leading_coefficient()
        if lead == 1:
            return self
        return _merged({e: _div(c, lead) for e, c in self.terms.items()}, ())

    def evaluate(self, point):
        """The exact value at a rational point: an ``int`` for integer
        coefficients at an integer point, else a ``Fraction``."""
        total = 0
        for e, c in self.terms.items():
            total += c * point**e
        return total

    def __add__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return _merged(dict(self.terms), other.terms.items())

    def __sub__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return _merged(dict(self.terms), ((e, -c) for e, c in other.terms.items()))

    def __neg__(self):
        return _merged({e: -c for e, c in self.terms.items()}, ())

    def __mul__(self, other):
        if isinstance(other, QPolynomial):
            return _merged({}, ((e1 + e2, c1 * c2) for e1, c1 in self.terms.items()
                                for e2, c2 in other.terms.items()))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _merged({}, ((e, k * other) for e, k in self.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use RationalFunction for negative powers")
        result, base = _P_ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Exact polynomial long division: self = q*other + r, deg r < deg other."""
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        quot = {}
        rem = dict(self.terms)
        dlead = other.degree()
        clead = other.leading_coefficient()
        while rem and max(rem) >= dlead:
            e = max(rem)
            factor = _div(rem[e], clead)
            quot[e - dlead] = factor
            _merged(rem, ((e - dlead + e2, -factor * c2) for e2, c2 in other.terms.items()))
        return _merged(quot, ()), _merged(rem, ())

    def __eq__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented  # a RationalFunction compares itself
        return self.terms == other.terms

    def __hash__(self):
        if not any(self.terms):  # no positive exponent: hash as the constant
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"QPolynomial('{render_poly(self)}')"


def poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Monic greatest common divisor; gcd(0, 0) = 0.

    >>> poly_gcd(QPolynomial({2: 1, 0: -1}), QPolynomial({1: 1, 0: -1}))
    QPolynomial('q - 1')
    """
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, r
    return a.monic()


_P_ZERO = QPolynomial()
_P_ONE = QPolynomial.constant(1)


class RationalFunction:
    """Element of Q(q) in canonical form: coprime parts, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, QPolynomial):
            num = QPolynomial.constant(num)
        if den is None:
            den = _P_ONE
        elif not isinstance(den, QPolynomial):
            den = QPolynomial.constant(den)
        if den.is_zero():
            raise DivisionByZero("denominator is the zero polynomial")
        if num.is_zero():
            num, den = _P_ZERO, _P_ONE
        elif den is not _P_ONE:
            if len(num.terms) == 1 or len(den.terms) == 1:
                # the gcd is q^v: one side is a single term
                v = min(min(num.terms), min(den.terms))
                num, den = num.shift(-v), den.shift(-v)
            else:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num, _ = divmod(num, g)
                    den, _ = divmod(den, g)
            lead = den.leading_coefficient()
            if lead != 1:
                num = num * _div(1, lead)
            den = _P_ONE if den.degree() == 0 else den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def monomial(cls, c, exp: int):
        """c * q**exp, with exp allowed to be negative."""
        if exp >= 0:
            return cls(QPolynomial.monomial(c, exp))
        return cls(QPolynomial.constant(c), QPolynomial.monomial(1, -exp))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den is _P_ONE

    def evaluate(self, point):
        """The exact value at a rational point, an ``int`` when integral."""
        d = self.den.evaluate(point)
        if not d:
            raise DivisionByZero(f"pole at q = {point}")
        return _div(self.num.evaluate(point), d)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, QPolynomial)):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        # the negative of a canonical value is canonical: no gcd to take
        neg = object.__new__(RationalFunction)
        object.__setattr__(neg, "num", -self.num)
        object.__setattr__(neg, "den", self.den)
        return neg

    def __mul__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        if self.den is _P_ONE and other.den is _P_ONE:
            return RationalFunction(self.num * other.num)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals its numerator, and a constant its number
        return hash(self.num) if self.den is _P_ONE else hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"RationalFunction('{render_scalar(self)}')"


ZERO = RationalFunction(0)
ONE = RationalFunction(1)
Q = RationalFunction(QPolynomial.monomial(1, 1))


def _accumulate(groups, k, x, y):
    """Add k * x * y, x and y ``RationalFunction``s, into ``groups``, a dict
    {denominator: {exponent: coefficient}}, with plain coefficient sums; the
    denominator is ``_P_ONE`` when both are polynomials."""
    den = y.den if x.den is _P_ONE else x.den if y.den is _P_ONE else x.den * y.den
    terms = groups.setdefault(den, {})
    for e1, c1 in x.num.terms.items():
        c1 *= k
        for e2, c2 in y.num.terms.items():
            terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2


def _total(groups) -> RationalFunction:
    """The sum in ``groups``, one ``RationalFunction`` per denominator."""
    first, *rest = (RationalFunction(_merged({}, t.items()), den) for den, t in groups.items())
    return sum(rest, first)


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------

def _render_term(c: Fraction, exp: int) -> str:
    if exp == 0:
        return str(c)
    qpart = "q" if exp == 1 else f"q^{exp}"
    if c == 1:
        return qpart
    if c == -1:
        return "-" + qpart
    return f"{c}*{qpart}"


def _join_terms(parts):
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def render_poly(p: QPolynomial, shift: int = 0) -> str:
    """Render with exponents descending; ``shift`` offsets every exponent."""
    if p.is_zero():
        return "0"
    parts = [_render_term(p.terms[e], e + shift) for e in sorted(p.terms, reverse=True)]
    return _join_terms(parts)


def render_scalar(x: RationalFunction) -> str:
    """Canonical text form.

    Polynomials render plainly, monomial denominators render as negative
    powers of q (``3/16*q^-2``), anything else as ``(num)/(den)``.
    """
    if x.den is _P_ONE:
        return render_poly(x.num)
    if len(x.den.terms) == 1:
        (exp,) = x.den.terms
        return render_poly(x.num, shift=-exp)
    return f"({render_poly(x.num)})/({render_poly(x.den)})"


def parse_scalar(text: str) -> RationalFunction:
    """Parse and evaluate the scalar grammar of ``qeuler.presented``, the
    module of the parser, which this imports on its first call.

    >>> parse_scalar("3/16*q^-2")
    RationalFunction('3/16*q^-2')
    """
    from .presented import _Parser, _act
    return _act(ONE, _Parser(text, refs=False).parse())
