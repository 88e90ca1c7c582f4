"""Finite-dimensional commutative Frobenius algebras over Q(q).

An algebra is given by an ordered basis of string labels, structure
constants for basis products, a unit element, and the values of a linear
functional on the basis.  The induced pairing eta(x, y) = f(x * y) must be
nondegenerate.  On top of that this module computes dual bases, the Euler
class sum(e_i * e_i^dual), unit and nilpotency tests for elements, the
semisimplicity / field-factor diagnosis, direct sums, an axiom validator
(``qeuler.axioms``), and the bundled algebras, each Q(q)[x]/(x^m - c).

Two yes/no questions first look for a cheap certificate and fall back
to the exact proof only when it cannot decide: ``is_unit`` evaluates the
multiplication operator at one rational point before one exact
``linalg.det`` over Q(q), and ``validate`` checks associativity against a
generating set it finds there (Light's test) before it scans every basis
triple.  ``is_nilpotent`` reads det(t - L) at t = 1, ..., n, exactly.

The table is a list of rank^2 entries, e_a * e_b at a * rank + b as
{basis index: scalar}; labels are read where data comes in or text goes
out, and ``GrassmannianRing.to_frobenius`` hands its table over on
indices.  Mirror rule: a product and its mirror are one entry when the
table gives only one order.  The gram matrix reads f once for such a pair,
and a square ``multiply(x, x)`` reads its product once, with weight 2; a
pair whose two orders are two objects is read in both, so a table that
is wrong in one order only keeps its asymmetry.

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

All operations are pure.  Beyond its table, an instance keeps only q0,
found by the constructor, and the mark that ``validate()`` sets, which
changes no result; ``structure_constants``, the gram matrix and the
operators at q0 are built anew on each call, so no caller can change a
later result through them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, filterfalse, product
from typing import NamedTuple

from . import linalg
from .errors import DegeneratePairing, DivisionByZero, InputError, NotAUnit, UnknownLabel
from .scalar import (ONE, ZERO, RationalFunction, _accumulate, _join_terms, _total,
                     render_scalar)


def _as_scalar(c) -> RationalFunction:
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, (int, Fraction)):
        return RationalFunction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class QuantumElement:
    """Finitely supported map from basis labels to nonzero Q(q) scalars.

    The constructor is the entry point for outside data: it takes a dict
    or any iterable of ``(label, coefficient)`` pairs, adds the coefficients
    of each label and drops the zero sums.  ``FrobeniusAlgebra.multiply``
    sums its terms per label and denominator in ``scalar._accumulate`` and
    passes the constructor one total per label.
    Supports addition, subtraction, negation, and scalar multiplication.
    Products live on the owning algebra, which knows the structure
    constants.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        sums = {}
        for label, c in coeffs.items() if isinstance(coeffs, dict) else coeffs or ():
            c = _as_scalar(c)
            sums[label] = sums[label] + c if label in sums else c
        object.__setattr__(self, "coeffs", {l: c for l, c in sums.items() if c})

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
        return self + -other

    def __neg__(self):
        return QuantumElement({l: -c for l, c in self.coeffs.items()})

    def scale(self, c):
        c = _as_scalar(c)
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
        self.index = index = {label: i for i, label in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            label = next(l for i, l in enumerate(self.basis) if self.index[l] != i)
            raise InputError(f"basis label {label!r} appears more than once")
        self.rank = n = len(self.basis)
        self._table, entries = [None] * n ** 2, {}
        for (a, b), elem in structure_constants.items():
            self._check_labels((a, b, *elem.coeffs))
            # one object is one entry, as is a mirror left out; elem is kept, so its id is its own
            entry = entries.setdefault(id(elem), (elem, {index[l]: c for l, c in elem.items()}))[1]
            self._table[index[a] * n + index[b]] = entry
            if (b, a) not in structure_constants:
                self._table[index[b] * n + index[a]] = entry
        if None in self._table:
            a, b = (self.basis[i] for i in divmod(self._table.index(None), n))
            raise UnknownLabel(f"no structure constant for ({a!r}, {b!r})")
        self.unit = unit if isinstance(unit, QuantumElement) else QuantumElement.basis(unit)
        self._check_labels((*self.unit.coeffs, *functional))
        self.functional = {l: _as_scalar(c) for l, c in functional.items()}
        self._support = [(index[l], c) for l, c in self.functional.items() if c]
        if grading is not None:
            self._check_labels(grading.real_degree)
            for missing in filterfalse(grading.real_degree.__contains__, self.basis):
                raise UnknownLabel(f"no degree for label {missing!r}")
        self.grading, self.name = grading, name
        # q0: the first positive integer that is no pole of any structure constant
        dens = [c.den for _, e in entries.values() for c in e.values() if not c.is_polynomial()]
        self._q0 = next(point for point in count(1) if all(d.evaluate(point) for d in dens))
        # True when the axioms are known to hold, so f(E * x) = tr(L_x)
        # gives the Euler class; set by the constructors and validate()
        self._axioms_hold = False

    @classmethod
    def _from_index_table(cls, basis, table, functional, grading, name):
        """The algebra of a table laid out as the constructor keeps it, unit
        basis[0]; nothing is checked: the caller's axioms hold, and q0 = 1."""
        self = cls.__new__(cls)
        self.basis, self.rank, self._table = list(basis), len(basis), table
        self.index = {label: i for i, label in enumerate(basis)}
        self.unit, self.functional = QuantumElement.basis(basis[0]), functional
        self._support = [(self.index[l], c) for l, c in functional.items() if c]
        self.grading, self.name, self._q0, self._axioms_hold = grading, name, 1, True
        return self

    @property
    def structure_constants(self) -> dict:
        """The table as {(label a, label b): e_a * e_b}, built on each call;
        a product and its mirror that are one entry are one element."""
        elems = {id(e): self._element(e) for e in self._table}
        return {pair: elems[id(e)] for pair, e in zip(product(self.basis, repeat=2), self._table)}

    def _element(self, entry: dict) -> QuantumElement:
        """The element of a table entry, on a new dict of labels."""
        return QuantumElement._from_canonical({self.basis[l]: c for l, c in entry.items()})

    def _check_labels(self, labels):
        """``UnknownLabel`` naming the first of ``labels`` outside the basis."""
        for label in filterfalse(self.index.__contains__, labels):
            raise UnknownLabel(f"label {label!r} is not in the basis")

    # -- ring operations ----------------------------------------------------

    def multiply(self, x: QuantumElement, y: QuantumElement) -> QuantumElement:
        """Bilinear extension of the structure constants, summed per output
        label and denominator in ``scalar._accumulate`` and normalised once
        per denominator.  A square (``x is y``) takes each pair a != b once,
        with weight 2 where (a, b) and (b, a) share one object (mirror rule)."""
        table, n, sums = self._table, self.rank, {}
        xs, ys = self._indexed(x), self._indexed(y)
        for i, (a, ca) in enumerate(xs):
            for b, cb in ys[i:] if x is y else ys:
                ab, c = table[a * n + b], ca * cb
                twice = x is y and a != b  # a square reads (b, a) with (a, b)
                ba = table[b * n + a] if twice else ab
                for prod, k in [(ab, 1 + twice)] if ba is ab else [(ab, 1), (ba, 1)]:
                    for l, cl in prod.items():
                        _accumulate(sums.setdefault(l, {}), k, c, cl)
        return QuantumElement((self.basis[l], _total(groups)) for l, groups in sums.items())

    def _indexed(self, x: QuantumElement) -> list:
        """The ``(basis index, coefficient)`` pairs of x, its labels checked."""
        self._check_labels(x.coeffs)
        return [(self.index[l], c) for l, c in x.items()]

    def f(self, x: QuantumElement) -> RationalFunction:
        """The Frobenius functional, extended linearly."""
        return self._f(dict(self._indexed(x)))

    def _f(self, coeffs: dict) -> RationalFunction:
        """``f`` on coefficients keyed by basis index."""
        terms = [coeffs[i] * value for i, value in self._support if i in coeffs]
        return sum(terms[1:], terms[0]) if terms else ZERO

    def eta(self, x: QuantumElement, y: QuantumElement) -> RationalFunction:
        return self.f(self.multiply(x, y))

    def gram_matrix(self):
        """Matrix of eta on the basis: eta[i][j] = f(e_i * e_j), a new list
        on each call; ``_f`` of each table entry, by the mirror rule."""
        table, n = self._table, self.rank
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ab, ba = table[i * n + j], table[j * n + i]
                rows[i][j] = value = self._f(ab)
                rows[j][i] = value if ba is ab else self._f(ba)
        return rows

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
        entries c_{j,b}^b are read for t, each sum normalised per denominator.

        Any other table gets one sum of dual_i[b] * (e_i * e_b) over i and
        b, read from the table in the order (e_i, e_b) as
        ``multiply(e_i, dual_i)`` reads it, so the value is the same on a
        table that is not commutative.  The gram matrix behind the duals
        follows the mirror rule of ``gram_matrix``.
        """
        table, n, basis = self._table, self.rank, self.basis
        if not self._axioms_hold:
            return QuantumElement([
                (basis[l], cb * cl) for i, dual in enumerate(self.dual_basis())
                for b, cb in self._indexed(dual) for l, cl in table[i * n + b].items()])
        traces = [{} for _ in basis]  # t_a = sum_b c_{a,b}^b, as multiply sums
        for a, groups in enumerate(traces):
            for c in filter(None, (table[a * n + b].get(b) for b in range(n))):
                _accumulate(groups, 1, c, ONE)
        try:
            sol = linalg.solve(self.gram_matrix(), [[_total(t) if t else ZERO] for t in traces])
        except linalg.SingularMatrix as exc:
            raise DegeneratePairing("pairing matrix is singular") from exc
        return QuantumElement(zip(self.basis, (row[0] for row in sol)))

    # -- multiplication operators -------------------------------------------

    def operator_matrix(self, x: QuantumElement):
        """Matrix of y -> x * y on the basis (column j = x * e_j)."""
        cols = [self.multiply(x, QuantumElement.basis(b)) for b in self.basis]
        return [[col.coefficient(a) for col in cols] for a in self.basis]

    def trace_of_multiplication(self, x: QuantumElement) -> RationalFunction:
        return linalg.trace(self.operator_matrix(x))

    def _operator_at_point(self, a: int):
        """The operator of the basis element a at q0 as columns, each the
        list of nonzero ``(i, value)`` of e_a * e_j there, evaluated on each
        call."""
        return [[(l, c.evaluate(self._q0)) for l, c in entry.items()]
                for entry in self._table[a * self.rank:(a + 1) * self.rank]]

    def _vector_at_point(self, x: QuantumElement):
        """Coordinates of x at q0, or None at a pole of x."""
        vec = [0] * self.rank
        for i, c in self._indexed(x):
            try:
                vec[i] = c.evaluate(self._q0)
            except DivisionByZero:
                return None
        return vec

    def _matrix_at_point(self, x: QuantumElement):
        """The matrix of y -> x * y at q0; None when x has a pole there."""
        vec = self._vector_at_point(x)
        if vec is None:
            return None
        m = [[0] * self.rank for _ in range(self.rank)]
        for a, value in enumerate(vec):
            if value:
                for j, column in enumerate(self._operator_at_point(a)):
                    for i, entry in column:
                        m[i][j] += value * entry
        return m

    def is_unit(self, x: QuantumElement) -> bool:
        """True iff the multiplication operator of x is invertible.

        Certificate first: where neither the structure constants nor x has
        a pole, evaluation is a ring homomorphism, so a nonzero determinant
        at q0 proves a nonzero determinant over Q(q).  A zero there, or a
        pole of x, leaves the decision to one exact ``linalg.det`` over Q(q).
        """
        at_point = self._matrix_at_point(x)
        if at_point is not None and linalg.det(at_point):
            return True
        return bool(linalg.det(self.operator_matrix(x)))

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
        """True iff the multiplication operator L is nilpotent, that is
        det(t - L) = t^rank at t = 1, ..., rank: exact dets over Q(q)."""
        return _nilpotent(self.operator_matrix(x))

    # -- diagnosis -----------------------------------------------------------

    def diagnose(self) -> DiagnoseReport:
        e = self.euler_class()
        e_square = self.multiply(e, e)
        return DiagnoseReport(rank=self.rank, euler_class=e, f_of_euler=self.f(e),
                              euler_square=e_square, semisimple=self.is_unit(e),
                              field_factor=not e_square.is_zero())

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
        self._check_labels(labels)
        deg = self.grading.real_degree if self.grading is not None else {}
        return sorted(labels, key=lambda l: (deg.get(l, 0), self.index[l]))

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
        for l in self._render_order(x.coeffs):
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
        products = [self.render_element(self._element(entry)) for entry in self._table]
        if fmt == "text":
            return "".join(f"s[{a}] * s[{b}] = {p}\n"
                           for (a, b), p in zip(product(self.basis, repeat=2), products))
        cells = {l: f"s[{l}]" for l in self.basis}
        unit_label = self._unit_label()
        if unit_cell is not None and unit_label is not None:
            cells[unit_label] = unit_cell
        header = ["*"] + [cells[b] for b in self.basis]
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for i, a in enumerate(self.basis):
            row = [cells[a]] + products[i * self.rank:(i + 1) * self.rank]
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    def element_to_json(self, x: QuantumElement) -> dict:
        return {l: render_scalar(x.coefficient(l)) for l in self._render_order(x.coeffs)}

    def table_to_json(self) -> dict:
        """Every product ``s[a] * s[b]``, keyed ``"a|b"``."""
        return {f"{a}|{b}": self.element_to_json(self._element(e))
                for (a, b), e in zip(product(self.basis, repeat=2), self._table)}

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


def _nilpotent(a) -> bool:
    """Whether the n x n matrix a is nilpotent: exactly when det(t - a) =
    t^n (Cayley-Hamilton).  The difference has degree below n in t, so it
    is zero where it vanishes at t = 1, ..., n (Vandermonde)."""
    n = len(a)
    return all(linalg.det([[t * (i == j) - x for j, x in enumerate(row)]
                           for i, row in enumerate(a)]) == t ** n for t in range(1, n + 1))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _axioms_known(algebra: FrobeniusAlgebra, hold=True) -> FrobeniusAlgebra:
    """Mark whether an algebra's axioms hold by construction, so that
    ``euler_class`` takes the trace route where they do."""
    algebra._axioms_hold = hold
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
    return _axioms_known(FrobeniusAlgebra(basis, table, unit, functional, name=name),
                         a._axioms_hold and b._axioms_hold)


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
    return _axioms_known(out, algebra._axioms_hold)  # an isomorphic copy


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
