"""The axiom checks behind ``FrobeniusAlgebra.validate``.

Commutativity, the unit law, associativity, a nondegenerate pairing and,
for graded algebras, term-by-term grading.  Associativity is first proved
by Light's test on a generating set found at one rational point, and
every basis triple is checked only when that proof fails.  The module is
loaded on the first ``validate()``, so a process that never validates
does not compile it.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from . import linalg
from .frobenius import QuantumElement


class Violation(str):
    """One failed axiom found by ``FrobeniusAlgebra.validate``.

    The string is the human-readable message; ``kind`` (``"commutativity"``,
    ``"unit"``, ``"associativity"``, ``"pairing"`` or ``"grading"``) and
    ``labels`` (the basis labels it names) are for programs.  A ``str``
    subclass, so ``"associativity" in v`` still searches the text.
    """

    def __new__(cls, kind: str, labels, text: str):
        self = super().__new__(cls, text)
        self.kind = kind
        self.labels = tuple(labels)
        return self


def validate(algebra):
    """The violations of ``algebra``, in the order the axioms are listed
    above; see ``FrobeniusAlgebra.validate``."""
    out, n, basis, table = [], algebra.rank, algebra.basis, algebra._table
    elems = [QuantumElement.basis(l) for l in basis]
    for i in range(n):
        for j in range(i, n):
            if table[i * n + j] != table[j * n + i]:
                a, b = basis[i], basis[j]
                out.append(Violation("commutativity", (a, b),
                                     f"commutativity fails for pair ({a}, {b})"))
    for i, l in enumerate(basis):
        if algebra.multiply(algebra.unit, elems[i]) != elems[i]:
            out.append(Violation("unit", (l,), f"unit law fails at {l}"))
    if out or not _light_test(algebra, elems):
        out.extend(_associativity_violations(algebra, elems))
    if not linalg.det(algebra.gram_matrix()):
        out.append(Violation("pairing", (), "pairing matrix is degenerate"))
    if algebra.grading is not None:
        out.extend(_grading_violations(algebra))
    return out


def _failing_triples(algebra, elems, middles, after: bool):
    """The triples (x, s, y) of basis labels with s in ``middles`` and
    (x s) y != x (s y), in the order x, s, y; with ``after``, only the y
    that come after x in the basis."""
    basis, n, table, element = algebra.basis, algebra.rank, algebra._table, algebra._element
    rows = {s: [element(e) for e in table[s * n:s * n + n]]  # e_s * e_y, made once
            for s in map(algebra.index.get, middles)}
    for i, x in enumerate(basis):
        for s, row in rows.items():
            xs = element(table[i * n + s])
            for j in range(i + 1 if after else 0, n):
                if algebra.multiply(xs, elems[j]) != algebra.multiply(elems[i], row[j]):
                    yield x, basis[s], basis[j]


def _associativity_violations(algebra, elems):
    """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple."""
    return [Violation("associativity", triple,
                      "associativity fails for triple ({}, {}, {})".format(*triple))
            for triple in _failing_triples(algebra, elems, algebra.basis, after=False)]


def _light_test(algebra, elems) -> bool:
    """True when associativity is proved from a generating set alone.

    Light's test (Clifford and Preston, *The Algebraic Theory of
    Semigroups* I, 1.2): with the unit law, if 1 and S generate the
    algebra and (x s) y = x (s y) for all basis x, y and s in S, the
    algebra is associative, since the elements a with (x a) y = x (a y)
    for all x, y form a subalgebra.  Commutativity must already hold: it
    makes the conditions for (x, y) and (y, x) the same, and it proves
    the one for x = y, as (x s) x = x (x s) = x (s x), so only pairs
    x < y are checked.  False means only "not proved".
    """
    generators = _generating_set(algebra)
    return generators is not None and next(
        _failing_triples(algebra, elems, generators, after=True), None) is None


def _generating_set(algebra):
    """Labels whose left-nested monomials 1, 1 s, (1 s) t, ... span the
    algebra at q0, and hence over Q(q): full rank at one point is full
    rank.  In basis order, a label joins when its basis vector is not in
    the span of the monomials in the labels chosen before it.  None when
    the unit has a pole at q0 or the span falls short."""
    unit = algebra._vector_at_point(algebra.unit)
    if unit is None:
        return None
    n, generators, operators, echelon = algebra.rank, [], [], {}
    _insert_independent(echelon, unit)
    for i, label in enumerate(algebra.basis):
        # an independent basis vector stays only until the span is rebuilt
        if len(echelon) < n and _insert_independent(echelon, [int(j == i) for j in range(n)]):
            generators.append(label)
            # by commutativity, times s is the operator of e_s
            operators.append(algebra._operator_at_point(i))
            # breadth first; a monomial that depends on the ones kept is
            # not extended, as its products depend on theirs
            echelon, queue = {}, deque([unit])
            while queue and len(echelon) < n:
                v = queue.popleft()
                if _insert_independent(echelon, v):
                    queue.extend(_apply(op, v) for op in operators)
    return generators if len(echelon) == n else None


def _apply(op, v):
    """The operator ``op`` (columns of nonzero ``(row, value)`` pairs)
    applied to the vector v."""
    out = [0] * len(v)
    for column, c in zip(op, v):
        if c:
            for i, value in column:
                out[i] += c * value
    return out


def _insert_independent(echelon, v) -> bool:
    """Add v to ``echelon`` (pivot -> row, in the order added) unless it is
    a combination of the rows already there; True when added."""
    w = list(v)
    for pivot, row in echelon.items():
        c = w[pivot]
        if c:
            for j, value in row:
                w[j] -= c * value
    pivot = next((j for j, c in enumerate(w) if c), None)
    if pivot is None:
        return False
    inv = 1 / Fraction(w[pivot])
    echelon[pivot] = [(j, c * inv) for j, c in enumerate(w) if c]
    return True


def _grading_violations(algebra):
    deg = algebra.grading.real_degree
    unit_degrees = {deg[l] for l in algebra.unit.coeffs}
    if len(unit_degrees) != 1:
        # a zero unit, or one that mixes degrees, leaves no degree to check against
        return [Violation("grading", algebra.unit.coeffs,
                          "grading fails at the unit: no single degree")]
    (two_n,) = unit_degrees
    out = []
    twice_chern = 2 * algebra.grading.chern_number
    basis, n = algebra.basis, algebra.rank
    for ab, prod in enumerate(algebra._table):
        a, b = basis[ab // n], basis[ab % n]
        want = deg[a] + deg[b] - two_n
        for l, c in prod.items():
            if not c.is_polynomial():
                out.append(Violation("grading", (a, b),
                                     f"non-polynomial coefficient in {a}*{b}"))
                continue
            for k in c.num.terms:
                if deg[basis[l]] - twice_chern * k != want:
                    out.append(Violation(
                        "grading", (a, b, basis[l]),
                        f"grading fails in {a}*{b}: term q^{k}*{basis[l]}"))
    return out
