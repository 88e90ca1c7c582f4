"""Finite-dimensional commutative Frobenius algebras over Q(q).

An algebra is given by an ordered basis of string labels, structure
constants for basis products, a unit element, and the values of a linear
functional on the basis.  The induced pairing eta(x, y) = f(x * y) must be
nondegenerate.  On top of that this module computes dual bases, the Euler
class sum(e_i * e_i^dual), unit and nilpotency tests for elements, the
semisimplicity / field-factor diagnosis, direct sums, an axiom validator
(``qeuler.axioms``), and the bundled algebras, each Q(q)[x]/(x^m - c).

Two yes/no questions first look for a cheap certificate and fall back to
the exact proof only when it cannot decide: ``is_unit`` evaluates the
multiplication operator at one rational point, and ``validate`` checks
associativity against a generating set it finds there (Light's test)
before it scans every basis triple.

Mirror rule: the constructor stores a product and its mirror as one
object when the table gives only one order, and the gram matrix reads f
once for such a pair; a pair whose two orders are two objects is read in
both, so a table that is wrong in one order only keeps its asymmetry.

The Euler class E = sum(e_i * e_i^dual) takes one of two routes.  On an
algebra whose axioms are known to hold (tables from
``GrassmannianRing.to_frobenius``, the bundled constructors, a
``direct_sum`` of two such algebras, a ``change_basis`` of one, and any
table on which ``validate()`` found no violation) it solves G * E = t once,
with G the gram matrix and t_j = tr(L_{e_j}) read off the diagonal of the
table.  That rests on f(E * x) = tr(L_x) (Abrams, Israel J. Math. 117
(2000)), which needs a commutative, associative table.  Every other table
keeps the sum over the dual basis, which sums the structure constants of
e_i * e_b in that order, without building the products e_i * e_i^dual.

Instances are immutable after construction and all operations are pure.
They keep the gram matrix, q0 and the operators at q0, which later calls
read again, and the mark that ``validate()`` sets; none changes a result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import NamedTuple

from . import linalg
from .errors import DegeneratePairing, DivisionByZero, InputError, NotAUnit, UnknownLabel
from .scalar import (ONE, ZERO, QPolynomial, RationalFunction, _join_terms, poly_gcd,
                     render_scalar)


def _as_scalar(c) -> RationalFunction:
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, (int, Fraction)):
        return RationalFunction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class QuantumElement:
    """Finitely supported map from basis labels to nonzero Q(q) scalars.

    The constructor is the one place where terms merge: it takes a dict or
    any iterable of ``(label, coefficient)`` pairs, adds the coefficients
    of each label and drops the zero sums.  Supports addition,
    subtraction, negation, and scalar multiplication.
    Products live on the owning algebra, which knows the structure
    constants.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        tidy = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for label, c in items:
                c = _as_scalar(c)
                if label in tidy:
                    c = c + tidy[label]
                if c:
                    tidy[label] = c
                elif label in tidy:
                    del tidy[label]
        object.__setattr__(self, "coeffs", tidy)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumElement is immutable")

    @classmethod
    def basis(cls, label):
        return cls({label: ONE})

    @classmethod
    def _from_canonical(cls, coeffs: dict):
        """Store ``coeffs`` as is: a dict whose every value is already a
        nonzero ``RationalFunction``, for a caller that built it so."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "coeffs", coeffs)
        return elem

    def coefficient(self, label) -> RationalFunction:
        return self.coeffs.get(label, ZERO)

    def support(self):
        return set(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return self.coeffs.items()

    def __add__(self, other):
        if not isinstance(other, QuantumElement):
            return NotImplemented
        return QuantumElement([*self.coeffs.items(), *other.coeffs.items()])

    def __sub__(self, other):
        if not isinstance(other, QuantumElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QuantumElement({l: -c for l, c in self.coeffs.items()})

    def scale(self, c):
        c = _as_scalar(c)
        if not c:
            return QuantumElement()
        return QuantumElement({l: x * c for l, x in self.coeffs.items()})

    def __mul__(self, c):
        if isinstance(c, (int, Fraction, RationalFunction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, QuantumElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "QuantumElement(0)"
        body = " + ".join(
            f"({render_scalar(c)})*[{l}]" for l, c in sorted(self.coeffs.items())
        )
        return f"QuantumElement({body})"


class Grading(NamedTuple):
    """Real degree per label; q itself carries real degree -2*chern_number."""

    real_degree: dict
    chern_number: int


class DiagnoseReport(NamedTuple):
    rank: int
    euler_class: QuantumElement
    f_of_euler: RationalFunction
    euler_square: QuantumElement
    semisimple: bool
    field_factor: bool


class FrobeniusAlgebra:
    """Commutative Frobenius algebra with explicit structure constants.

    ``structure_constants`` maps ordered label pairs to QuantumElements;
    missing mirror pairs are filled in by symmetry, after which every pair
    of basis labels must have a product, and every product may name only
    basis labels (``UnknownLabel`` otherwise).  ``functional`` maps each
    label to f(e_label).  A ``grading`` gives a degree to every basis label
    and to no other (``UnknownLabel`` otherwise).
    """

    def __init__(self, basis, structure_constants, unit, functional,
                 grading=None, name=None):
        self.basis = list(basis)
        self.index = {label: i for i, label in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            label = next(l for i, l in enumerate(self.basis) if self.index[l] != i)
            raise InputError(f"basis label {label!r} appears more than once")
        self.rank = len(self.basis)
        table = {}
        for (a, b), elem in structure_constants.items():
            for label in (a, b, *elem.coeffs):
                self._check_label(label)
            table[(a, b)] = elem
            if (b, a) not in structure_constants:
                table[(b, a)] = elem
        if len(table) != self.rank ** 2:
            a, b = next((a, b) for a in self.basis for b in self.basis
                        if (a, b) not in table)
            raise UnknownLabel(f"no structure constant for ({a!r}, {b!r})")
        self.structure_constants = table
        self.unit = unit if isinstance(unit, QuantumElement) else QuantumElement.basis(unit)
        for label in (*self.unit.coeffs, *functional):
            self._check_label(label)
        self.functional = {l: _as_scalar(c) for l, c in functional.items()}
        self._support = [(l, c) for l, c in self.functional.items() if c]
        if grading is not None:
            for label in grading.real_degree:
                self._check_label(label)
            if len(grading.real_degree) != self.rank:
                missing = next(l for l in self.basis if l not in grading.real_degree)
                raise UnknownLabel(f"no degree for label {missing!r}")
        self.grading = grading
        self.name = name
        self._gram = None
        self._q0 = None
        self._operators = {}
        # True when the axioms are known to hold, so f(E * x) = tr(L_x)
        # gives the Euler class; set by the constructors and validate()
        self._axioms_hold = False

    def _check_label(self, label):
        if label not in self.index:
            raise UnknownLabel(f"label {label!r} is not in the basis")

    # -- ring operations ----------------------------------------------------

    def multiply(self, x: QuantumElement, y: QuantumElement) -> QuantumElement:
        """Bilinear extension of the structure constants."""
        terms = []
        for a, ca in x.items():
            self._check_label(a)
            for b, cb in y.items():
                self._check_label(b)
                c = ca * cb
                terms += [(l, c * cl) for l, cl in self.structure_constants[(a, b)].items()]
        return QuantumElement(terms)

    def f(self, x: QuantumElement) -> RationalFunction:
        """The Frobenius functional, extended linearly."""
        total = ZERO
        coeffs = x.coeffs
        for l, value in self._support:
            c = coeffs.get(l)
            if c is not None:
                total = total + c * value
        return total

    def eta(self, x: QuantumElement, y: QuantumElement) -> RationalFunction:
        return self.f(self.multiply(x, y))

    def gram_matrix(self):
        """Matrix of eta on the basis: eta[i][j] = f(e_i * e_j).

        Mirror rule: f of the product for (a, b) is reused for (b, a) only
        when the table holds one object for both orders; otherwise f is
        read in both orders, so the matrix equals f applied entry by entry.
        """
        if self._gram is None:
            table, n = self.structure_constants, self.rank
            rows = [[None] * n for _ in range(n)]
            for i, a in enumerate(self.basis):
                for j in range(i, n):
                    b = self.basis[j]
                    ab, ba = table[(a, b)], table[(b, a)]
                    rows[i][j] = value = self.f(ab)
                    rows[j][i] = value if ba is ab else self.f(ba)
            self._gram = rows
        return self._gram

    def dual_basis(self):
        """Basis elements e_j^dual with f(e_i * e_j^dual) = delta_ij."""
        n = self.rank
        try:
            inv = linalg.solve(self.gram_matrix(), linalg.identity(n, ONE, ZERO))
        except linalg.SingularMatrix as exc:
            raise DegeneratePairing("pairing matrix is singular") from exc
        return [QuantumElement([(self.basis[i], inv[i][j]) for i in range(n) if inv[i][j]])
                for j in range(n)]

    def euler_class(self) -> QuantumElement:
        """sum over the basis of e_i * e_i^dual; independent of the basis.

        Where the axioms are known to hold (see the module docstring), E
        is the one solution of G * E = t, t_j = tr(L_{e_j}).  The reason:
        f(e_j * E) = sum_i f(e_i^dual * (e_j * e_i)) = sum_i c_{j,i}^i,
        where the first step reorders and regroups e_j * (e_i * e_i^dual),
        which needs a commutative, associative table.  Only the diagonal
        entries c_{j,b}^b of the table are read for t.

        Any other table gets one sum of dual_i[b] * (e_i * e_b) over i and
        b, read from the table in the order (e_i, e_b) as
        ``multiply(e_i, dual_i)`` reads it, so the value is the same on a
        table that is not commutative.  The gram matrix behind the duals
        follows the mirror rule of ``gram_matrix``.
        """
        table = self.structure_constants
        if not self._axioms_hold:
            return QuantumElement([
                (l, cb * cl) for label, dual in zip(self.basis, self.dual_basis())
                for b, cb in dual.items() for l, cl in table[(label, b)].items()])
        traces = [[sum(filter(None, (table[(a, b)].coeffs.get(b) for b in self.basis)), ZERO)]
                  for a in self.basis]
        try:
            sol = linalg.solve(self.gram_matrix(), traces)
        except linalg.SingularMatrix as exc:
            raise DegeneratePairing("pairing matrix is singular") from exc
        return QuantumElement(zip(self.basis, (row[0] for row in sol)))

    # -- multiplication operators -------------------------------------------

    def operator_matrix(self, x: QuantumElement):
        """Matrix of y -> x * y on the basis (column j = x * e_j)."""
        cols = []
        for b in self.basis:
            cols.append(self.multiply(x, QuantumElement.basis(b)))
        return [
            [col.coefficient(a) for col in cols]
            for a in self.basis
        ]

    def trace_of_multiplication(self, x: QuantumElement) -> RationalFunction:
        return linalg.trace(self.operator_matrix(x))

    def _point(self) -> int:
        """q0: the first positive integer that is no pole of any structure
        constant, where ``is_unit`` and ``validate`` look for certificates."""
        if self._q0 is None:
            dens = [c.den for prod in self.structure_constants.values()
                    for c in prod.coeffs.values() if not c.is_polynomial()]
            self._q0 = next(_regular_points(dens))
        return self._q0

    def _operator_at_point(self, label):
        """The operator of e_label at q0 as columns, each the list of
        nonzero ``(i, value)`` of e_label * e_j there.  Kept on the
        algebra, one label at a time."""
        op = self._operators.get(label)
        if op is None:
            q0 = self._point()
            op = [[(self.index[l], c.evaluate(q0))
                   for l, c in self.structure_constants[(label, b)].items()]
                  for b in self.basis]
            self._operators[label] = op
        return op

    def _vector_at_point(self, x: QuantumElement):
        """Coordinates of x at q0, or None at a pole of x."""
        vec = [0] * self.rank
        for l, c in x.items():
            self._check_label(l)
            try:
                vec[self.index[l]] = c.evaluate(self._point())
            except DivisionByZero:
                return None
        return vec

    def _matrix_at_point(self, x: QuantumElement):
        """The matrix of y -> x * y at q0; None when x has a pole there."""
        vec = self._vector_at_point(x)
        if vec is None:
            return None
        m = [[0] * self.rank for _ in range(self.rank)]
        for label, value in zip(self.basis, vec):
            if value:
                for j, column in enumerate(self._operator_at_point(label)):
                    for i, entry in column:
                        m[i][j] += value * entry
        return m

    def is_unit(self, x: QuantumElement) -> bool:
        """True iff the multiplication operator of x is invertible.

        Certificate first: where neither the structure constants nor x has
        a pole, evaluation is a ring homomorphism, so a nonzero determinant
        at q0 proves a nonzero determinant over Q(q).  A zero there, or a
        pole of x, leaves the decision to the exact test.
        """
        at_point = self._matrix_at_point(x)
        if at_point is not None and linalg.det(at_point):
            return True
        return not _poly_matrix_det_is_zero(self.operator_matrix(x))

    def inverse(self, x: QuantumElement) -> QuantumElement:
        """Solve x * y = unit; raises NotAUnit when x is not invertible."""
        m = self.operator_matrix(x)
        rhs = [[self.unit.coefficient(a)] for a in self.basis]
        try:
            sol = linalg.solve(m, rhs)
        except linalg.SingularMatrix as exc:
            raise NotAUnit("element has a singular multiplication operator") from exc
        return QuantumElement({self.basis[i]: sol[i][0] for i in range(self.rank)})

    def is_nilpotent(self, x: QuantumElement) -> bool:
        """True iff the multiplication operator to the rank-th power vanishes."""
        return _poly_matrix_power_is_zero(self.operator_matrix(x), self.rank)

    # -- diagnosis -----------------------------------------------------------

    def diagnose(self) -> DiagnoseReport:
        e = self.euler_class()
        e_square = self.multiply(e, e)
        return DiagnoseReport(
            rank=self.rank,
            euler_class=e,
            f_of_euler=self.f(e),
            euler_square=e_square,
            semisimple=self.is_unit(e),
            field_factor=not e_square.is_zero(),
        )

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check every algebra axiom; returns a list of ``axioms.Violation``s.

        Once the unit law and commutativity hold, associativity is proved
        by Light's test on a generating set that ``validate`` finds itself
        at q0; when the unit has a pole at q0, or an axiom or that test
        fails, every basis triple is checked, so the violations listed
        never depend on the shortcut.
        """
        from .axioms import validate
        violations = validate(self)
        if not violations:
            self._axioms_hold = True
        return violations

    # -- rendering -----------------------------------------------------------

    def _render_order(self, labels):
        if self.grading is not None:
            deg = self.grading.real_degree
            return sorted(labels, key=lambda l: (deg[l], self.index[l]))
        return sorted(labels, key=lambda l: self.index[l])

    def _unit_label(self):
        """The unit's label when the unit is one basis element with
        coefficient 1, else None (as for a direct sum)."""
        if len(self.unit.coeffs) == 1:
            ((label, c),) = self.unit.items()
            if c == ONE:
                return label
        return None

    def render_element(self, x: QuantumElement) -> str:
        """Deterministic text form: point-degree terms first; the unit bare
        when it is a single basis element."""
        if x.is_zero():
            return "0"
        unit_label = self._unit_label()
        parts = []
        for l in self._render_order(x.support()):
            c = x.coefficient(l)
            scalar = render_scalar(c)
            if l == unit_label:
                parts.append(scalar)
            elif c == ONE:
                parts.append(f"s[{l}]")
            elif c == -ONE:
                parts.append(f"-s[{l}]")
            else:
                if (" + " in scalar) or (" - " in scalar):
                    scalar = f"({scalar})"
                parts.append(f"{scalar}*s[{l}]")
        return _join_terms(parts)

    def render_table(self, fmt: str, unit_cell=None) -> str:
        """The multiplication table as text lines or a markdown grid.

        Classes appear as ``s[label]``; in the markdown grid ``unit_cell``,
        when given, labels the unit's row and column instead, provided the
        unit is a single basis element.
        """
        if fmt == "text":
            return "".join(
                f"s[{a}] * s[{b}] = {self.render_element(self.structure_constants[(a, b)])}\n"
                for a in self.basis for b in self.basis)
        cells = {l: f"s[{l}]" for l in self.basis}
        unit_label = self._unit_label()
        if unit_cell is not None and unit_label is not None:
            cells[unit_label] = unit_cell
        header = ["*"] + [cells[b] for b in self.basis]
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for a in self.basis:
            row = [cells[a]] + [self.render_element(self.structure_constants[(a, b)])
                                for b in self.basis]
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    def element_to_json(self, x: QuantumElement) -> dict:
        return {l: render_scalar(x.coefficient(l)) for l in self._render_order(x.support())}

    def table_to_json(self) -> dict:
        """Every product ``s[a] * s[b]``, keyed ``"a|b"``."""
        return {f"{a}|{b}": self.element_to_json(self.structure_constants[(a, b)])
                for a in self.basis for b in self.basis}

    def report_to_json(self, report: DiagnoseReport) -> dict:
        return {
            "rank": report.rank,
            "euler_class": self.element_to_json(report.euler_class),
            "f_of_euler": render_scalar(report.f_of_euler),
            "euler_square": self.element_to_json(report.euler_square),
            "semisimple": report.semisimple,
            "field_factor": report.field_factor,
        }

    def __repr__(self):
        return f"FrobeniusAlgebra({self.name or ''} rank={self.rank})"


# ---------------------------------------------------------------------------
# exact zero tests for matrices over Q(q)
#
# Both tests decide by evaluating m at enough integer points.  With L the
# lcm of the denominators of m, L*m is a polynomial matrix whose entries
# have degree at most maxdeg = max(deg num + deg L - deg den) over the
# nonzero entries of m.  So a polynomial of degree d in the entries of m,
# times L^d, is a polynomial in q of degree at most d*maxdeg, zero iff it
# vanishes at d*maxdeg + 1 points.  The points skip the roots of L: there
# L^d is a nonzero factor and every entry of m has a value.  This avoids
# symbolic determinant blowup on rank-20 matrices.
# ---------------------------------------------------------------------------

def _regular_points(polys):
    """The positive integers, in increasing order, that are a root of no
    polynomial in ``polys``."""
    return (point for point in count(1) if all(p.evaluate(point) for p in polys))


def _evaluations(m, degree: int):
    """Yield m at enough integer points, none a root of the lcm L of its
    denominators, to decide whether a polynomial of ``degree`` in its
    entries vanishes; nothing when every entry is zero."""
    lcm = QPolynomial.constant(1)
    for row in m:
        for x in row:
            if not x.is_polynomial():
                extra, _ = divmod(x.den, poly_gcd(lcm, x.den))
                lcm = lcm * extra
    maxdeg = max((x.num.degree() + lcm.degree() - x.den.degree()
                  for row in m for x in row if x), default=-1)
    if maxdeg < 0:
        return
    for point in islice(_regular_points([lcm]), degree * maxdeg + 1):
        yield [[x.evaluate(point) for x in row] for row in m]


def _poly_matrix_det_is_zero(m) -> bool:
    return bool(m) and not any(linalg.det(a) for a in _evaluations(m, len(m)))


def _poly_matrix_power_is_zero(m, power: int) -> bool:
    return all(_power_is_zero(a, power) for a in _evaluations(m, power))


def _power_is_zero(a, power: int) -> bool:
    # nilpotency index <= matrix size, so squaring past `power` suffices
    exponent = 1
    while exponent < power and not linalg.is_zero_matrix(a):
        a = linalg.mat_mul(a, a)
        exponent *= 2
    return linalg.is_zero_matrix(a)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _axioms_known(algebra: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Mark an algebra built from a table whose axioms hold by
    construction, so that ``euler_class`` takes the trace route."""
    algebra._axioms_hold = True
    return algebra


def direct_sum(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Orthogonal direct sum: cross products vanish, functionals add.

    Overlapping label sets are told apart by one prefix per summand, ``A.``/``B.``.
    """
    tags = ("A.", "B.") if set(a.basis) & set(b.basis) else ("", "")
    zero = QuantumElement()
    basis, table, unit, functional = [], {}, zero, {}
    for summand, tag in zip((a, b), tags):
        basis += [tag + l for l in summand.basis]
        for (x, y), prod in summand.structure_constants.items():
            table[(tag + x, tag + y)] = QuantumElement({tag + l: c for l, c in prod.items()})
        unit = unit + QuantumElement({tag + l: c for l, c in summand.unit.items()})
        functional.update({tag + l: c for l, c in summand.functional.items()})
    # the mirror of each cross pair is filled in by symmetry
    table.update({(tags[0] + x, tags[1] + y): zero for x in a.basis for y in b.basis})
    name = f"{a.name or 'A'} (+) {b.name or 'B'}"
    out = FrobeniusAlgebra(basis, table, unit, functional, name=name)
    out._axioms_hold = a._axioms_hold and b._axioms_hold
    return out


def change_basis(algebra: FrobeniusAlgebra, p) -> FrobeniusAlgebra:
    """Transport the algebra along an invertible matrix over Q(q).

    Column j of ``p`` holds the old-basis coordinates of the new basis
    vector v_j carrying label ``basis[j]``.  The new table and unit are
    derived from one solve P X = [v_i * v_j ... | unit], all in old
    coordinates, and f(v_j) is read off directly.  The grading is dropped
    since a generic change of basis mixes degrees.
    """
    basis = algebra.basis
    p = [[_as_scalar(x) for x in row] for row in p]
    new = [QuantumElement(zip(basis, column)) for column in zip(*p)]
    # a commutative table needs only j >= i; the constructor mirrors it.  A
    # p of the wrong shape gets as far as linalg.solve, which rejects it
    n = len(new)
    pairs = [(i, j) for i in range(n) for j in range(i if algebra._axioms_hold else 0, n)]
    old = [algebra.multiply(new[i], new[j]) for i, j in pairs] + [algebra.unit]
    x = linalg.solve(p, [[e.coefficient(l) for e in old] for l in basis])
    *products, unit = [QuantumElement(zip(basis, column)) for column in zip(*x)]
    table = {(basis[i], basis[j]): e for (i, j), e in zip(pairs, products)}
    functional = {l: algebra.f(v) for l, v in zip(basis, new)}
    out = FrobeniusAlgebra(basis, table, unit, functional,
                           name=f"{algebra.name or 'algebra'} (new basis)")
    out._axioms_hold = algebra._axioms_hold  # an isomorphic copy
    return out


# ---------------------------------------------------------------------------
# small bundled test algebras, each Q(q)[x]/(x^m - c)
# ---------------------------------------------------------------------------

def _monogenic(labels, c, name) -> FrobeniusAlgebra:
    """Q(q)[x]/(x^m - c) on the basis 1, x, ..., x^(m-1) named by the m
    ``labels``, with f = the coefficient of x^(m-1).  Only the pairs
    i <= j are given; the constructor mirrors them."""
    m = len(labels)
    table = {}
    for i in range(m):
        for j in range(i, m):
            table[(labels[i], labels[j])] = (
                QuantumElement.basis(labels[i + j]) if i + j < m
                else QuantumElement({labels[i + j - m]: c}))
    functional = {l: (ONE if i == m - 1 else ZERO) for i, l in enumerate(labels)}
    return _axioms_known(FrobeniusAlgebra(labels, table, labels[0], functional, name=name))


def dual_numbers() -> FrobeniusAlgebra:
    """K[eps]/(eps^2) with f(a + b*eps) = b; the minimal non-field example."""
    return _monogenic(["1", "e"], ZERO, "K[e]/(e^2)")


def base_field(label="1") -> FrobeniusAlgebra:
    """Q(q) itself as a rank-1 Frobenius algebra with f = identity."""
    return _monogenic([label], ZERO, "Q(q)")


def quadratic_extension(c) -> FrobeniusAlgebra:
    """Q(q)[x]/(x^2 - c) with f(a + b*x) = b; a field when c is a non-square."""
    c = _as_scalar(c)
    return _monogenic(["1", "x"], c, f"Q(q)[x]/(x^2 - {render_scalar(c)})")


def nilpotent_chain(m: int) -> FrobeniusAlgebra:
    """K[e]/(e^m) with f = coefficient of e^(m-1); indecomposable, not a field."""
    return _monogenic([f"e{i}" for i in range(m)], ZERO, f"K[e]/(e^{m})")
