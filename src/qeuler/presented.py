"""Algebras presented by generator columns plus defining expressions.

The file format is a JSON object::

    {
      "name": ...,
      "complex_dimension": int,
      "chern_number": int,
      "unit": label, "point": label,
      "basis": [{"label": str, "codim": int}, ...],
      "generators": [label, ...],
      "generator_products": {"g|b": [{"coeff": int|"p/q", "q": int, "label": str}, ...]},
      "definitions": [{"label": str, "expr": str}, ...]
    }

Every non-generator, non-unit label must be defined exactly once, and each
defining expression may reference only generators, q, scalars, and labels
defined earlier; the first bad reference in text order is the one
reported.  Completion then computes the product of every basis pair by
rewriting the right factor through its definition, and hands the result
to the Frobenius validator; a validation failure is reported as
``InconsistentTable`` and means the data file itself is wrong.

The package's one recursive-descent parser is here.  It reads two grammars:
the defining expressions (``parse_expression``, where ``s[...]`` wraps a
label of the data file; ``s[2,1]`` is unambiguous next to rationals) and
scalars (``qeuler.scalar.parse_scalar``)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | int | "q" ("^" ["-"] int)? | "s[" label "]" | "(" expr ")"

In a scalar ``/`` divides and ``s[...]`` is an error.  In an expression
``/`` only joins two integers into one rational (``-1/3*s[1]``).  Spaces may
separate any two tokens, minus signs and parentheses may nest at most
``MAX_DEPTH`` levels deep, and a sum or product may have any number of
terms.  Errors are ``ParseError``s carrying a 1-based column.  The parser
records the labels it reads, and one walker, ``_act``, evaluates the trees.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .errors import (
    CyclicDefinition,
    InconsistentTable,
    MissingDefinition,
    ParseError,
    TooLarge,
    UnknownLabel,
)
from .frobenius import FrobeniusAlgebra, Grading, QuantumElement
from .scalar import ONE, RationalFunction


# -- expressions ----------------------------------------------------------------

# Deepest nesting either grammar may read, counting each minus sign and each
# pair of parentheses as one level.  Only nesting makes the parser recurse, at
# most three frames a level, and ``_act`` loops along operator chains, so this
# keeps both inside Python's limit while a flat sum or product has no bound.
MAX_DEPTH = 100

# Largest q-exponent of a numerator or denominator in a completed table: an
# IG(2,6) table with every exponent near 1,200 validates in 0.4 s, 6,000 in 6 s.
MAX_Q_EXPONENT = 1000


class Num(NamedTuple):
    value: Fraction


class QPower(NamedTuple):
    exponent: int


class Ref(NamedTuple):
    label: str


class Neg(NamedTuple):
    arg: object


class BinOp(NamedTuple):
    op: str  # '+', '-', '*'; '/' only in the scalar grammar
    left: object
    right: object


_INT = re.compile(r"\d+")
_LABEL = re.compile(r"s\[([^\]]*)\]")


class _Parser:
    """Recursive descent over both grammars, reading ``text`` left to right.

    ``refs`` selects the expression grammar: ``s[...]`` is allowed and ``/``
    only joins two integers into one rational.  ``depth`` counts the minus
    signs and open parentheses around the current position.
    """

    def __init__(self, text: str, refs: bool):
        self.text = text
        self.pos = 0
        self.refs = refs
        self.depth = 0
        self.labels = {}  # of each s[...] read, once each, in text order
        # operators of ``expr``, then of ``term``
        self.ranks = (("+", "-"), ("*",) if refs else ("*", "/"))

    def peek(self) -> str:
        """The next character that is not a space; '' at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def error(self, message, pos=None):
        raise ParseError(message, column=(self.pos if pos is None else pos) + 1)

    def parse(self):
        node = self.chain()
        if self.peek():
            self.error("trailing input")
        return node

    def chain(self, rank=0):
        """``expr`` (rank 0) or ``term`` (rank 1): operands of the next rank
        joined by this rank's operators, left to right."""
        if rank == len(self.ranks):
            return self.factor()
        node = self.chain(rank + 1)
        while self.peek() in self.ranks[rank]:
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.chain(rank + 1))
        return node

    def factor(self):
        ch = self.peek()
        label = _LABEL.match(self.text, self.pos)
        if label and self.refs:
            self.pos = label.end()
            self.labels[label.group(1)] = None
            return Ref(label.group(1))
        if ch.isdigit():
            value = Fraction(self.integer())
            if self.refs and self.peek() == "/":
                slash = self.pos
                self.pos += 1
                den = self.integer()
                if not den:
                    self.error("division by zero", slash)
                value /= den
            return Num(value)
        if ch not in ("-", "(", "q"):
            self.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")
        if ch == "q":
            self.pos += 1
            if self.peek() != "^":
                return QPower(1)
            self.pos += 1
            return QPower(self.integer(signed=True))
        if self.depth == MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        self.pos += 1
        self.depth += 1
        if ch == "-":
            node = Neg(self.factor())
        else:
            node = self.chain()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
        self.depth -= 1
        return node

    def integer(self, signed=False) -> int:
        sign = 1
        if signed and self.peek() == "-":
            self.pos += 1
            sign = -1
        self.peek()  # skips spaces
        digits = _INT.match(self.text, self.pos)
        if digits is None:
            self.error("expected an integer")
        self.pos = digits.end()
        return sign * int(digits.group())


def _unchain(node, ops):
    """The leftmost operand of a chain of ``ops`` and the BinOps that apply
    to it, in order: ``a + b*c - d`` gives ``a`` and the nodes of ``+ b*c``
    and ``- d``.  ``_act`` loops over these instead of recursing on
    ``left``, so a long flat sum or product needs no deep recursion."""
    chain = []
    while isinstance(node, BinOp) and node.op in ops:
        chain.append(node)
        node = node.left
    chain.reverse()
    return node, chain


def _act(x, node, ref=None):
    """``x`` times the value of the tree ``node``, ``x`` a scalar or an element
    of a presented algebra; ``ref(x, label)`` is ``x`` times ``s[label]``."""
    if isinstance(node, Num):
        return x * RationalFunction(node.value)
    if isinstance(node, QPower):
        return x * RationalFunction.monomial(1, node.exponent)
    if isinstance(node, Ref):
        return ref(x, node.label)
    if isinstance(node, Neg):
        return -_act(x, node.arg, ref)
    if node.op in "+-":
        # a run of sums and differences only: a quotient such as
        # (q^2 - 1)/(q - 1) is a "/" node above its parenthesised sums
        leftmost, chain = _unchain(node, "+-")
        terms = [_act(x, leftmost, ref)]
        for op in chain:
            term = _act(x, op.right, ref)
            terms.append(term if op.op == "+" else -term)
        # added pairwise, so an n-term sum copies O(n log n) terms, not O(n^2)
        while len(terms) > 1:
            odd = terms[-1:] if len(terms) % 2 else []
            terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + odd
        return terms[0]
    leftmost, chain = _unchain(node, "*/")
    y = _act(x, leftmost, ref)
    for op in chain:
        y = _act(y, op.right, ref) if op.op == "*" else y / _act(ONE, op.right)
    return y


def parse_expression(text: str):
    """Parse the expression grammar into a tree of Num, QPower, Ref, Neg
    and BinOp nodes.

    >>> parse_expression("-1/3*s[2,1]")
    BinOp(op='*', left=Neg(arg=Num(value=Fraction(1, 3))), right=Ref(label='2,1'))
    """
    return _Parser(text, refs=True).parse()


# -- algebra spec ---------------------------------------------------------------

class AlgebraSpec(NamedTuple):
    name: str
    complex_dimension: int
    chern_number: int
    unit_label: str
    point_label: str
    basis: tuple  # of (label, codim)
    generators: tuple
    generator_products: dict  # (generator, label) -> QuantumElement
    definitions: tuple  # of (label, expression AST)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, kind, where: str):
    """``value`` if it has JSON type ``kind``, else a ParseError naming ``where``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _field(obj: dict, key: str, kind, where: str = "", default=None):
    """``obj[key]`` checked to have JSON type ``kind``; ``where`` is obj's path."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        if default is None:
            raise ParseError(f"missing field {path}")
        return default
    return _typed(obj[key], kind, path)


def _coeff_from_json(c, where: str) -> Fraction:
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    # Fraction reads exponents too, and 1e3000000 is too long to compute with
    if isinstance(c, str) and "e" not in c.lower():
        try:
            return Fraction(c)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"{where} must be an integer or a rational string, "
                     f"got {json.dumps(c)}")


def parse_spec(text: str) -> AlgebraSpec:
    """Parse and validate a presented-algebra file.

    Every field is checked for its JSON type; a ParseError names the path
    of the first bad one (``basis[0].label``).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from None
    except (RecursionError, ValueError) as exc:  # too deep; an int past the digit limit
        raise ParseError(f"not valid JSON: {exc}") from None
    _typed(raw, dict, "the top level")
    name = _field(raw, "name", str)
    complex_dimension = _field(raw, "complex_dimension", int)
    chern_number = _field(raw, "chern_number", int)
    unit = _field(raw, "unit", str)
    point = _field(raw, "point", str)
    raw_basis = _field(raw, "basis", list)
    raw_generators = _field(raw, "generators", list)
    raw_products = _field(raw, "generator_products", dict)
    raw_definitions = _field(raw, "definitions", list)

    basis = []
    for i, entry in enumerate(raw_basis):
        where = f"basis[{i}]"
        _typed(entry, dict, where)
        basis.append((_field(entry, "label", str, where),
                      _field(entry, "codim", int, where)))
    labels = [l for l, _ in basis]
    label_set = set(labels)
    if len(label_set) != len(labels):
        raise ParseError("duplicate basis label")
    codim = dict(basis)

    for l in (unit, point):
        if l not in label_set:
            raise UnknownLabel(f"label {l!r} not in the basis")
    if codim[point] != complex_dimension:
        raise ParseError(
            f"point class {point!r} has codimension {codim[point]}, "
            f"expected {complex_dimension}")

    generators = tuple(_typed(g, str, f"generators[{i}]")
                       for i, g in enumerate(raw_generators))
    for g in generators:
        if g not in label_set:
            raise UnknownLabel(f"generator {g!r} not in the basis")

    products = {}
    for key, terms in raw_products.items():
        g, _, b = key.partition("|")
        if g not in generators:
            raise ParseError(f"key {key!r} does not start with a generator")
        if b not in label_set:
            raise UnknownLabel(f"label {b!r} in key {key!r} not in the basis")
        coeffs = []
        at = f"generator_products[{json.dumps(key)}]"
        for i, term in enumerate(_typed(terms, list, at)):
            where = f"{at}[{i}]"
            _typed(term, dict, where)
            label = _field(term, "label", str, where)
            if label not in label_set:
                raise UnknownLabel(
                    f"label {label!r} in product {key!r} not in the basis")
            coeffs.append((label, RationalFunction.monomial(
                _coeff_from_json(term.get("coeff", 1), f"{where}.coeff"),
                _field(term, "q", int, where, default=0))))
        products[(g, b)] = QuantumElement(coeffs)
    for g in generators:
        for b in labels:
            if (g, b) not in products:
                raise MissingDefinition(f"no generator product for {g!r} * {b!r}")

    defined = []
    available = set(generators) | {unit}
    for i, entry in enumerate(raw_definitions):
        where = f"definitions[{i}]"
        _typed(entry, dict, where)
        label = _field(entry, "label", str, where)
        text_expr = _field(entry, "expr", str, where)
        if label not in label_set:
            raise UnknownLabel(f"defined label {label!r} not in the basis")
        if label in available:
            raise ParseError(f"label {label!r} defined more than once")
        parser = _Parser(text_expr, refs=True)
        try:
            expr = parser.parse()
        except ParseError as exc:
            raise ParseError(
                f"in definition of {label!r}: {exc.args[0]}") from None
        for ref in parser.labels:
            if ref not in label_set:
                raise UnknownLabel(
                    f"definition of {label!r} references unknown label {ref!r}")
            if ref not in available:
                raise CyclicDefinition(
                    f"definition of {label!r} references {ref!r}, "
                    "which is not defined yet")
        defined.append((label, expr))
        available.add(label)

    for l in labels:
        if l not in available:
            raise MissingDefinition(f"basis label {l!r} has no definition")

    return AlgebraSpec(
        name=name,
        complex_dimension=complex_dimension,
        chern_number=chern_number,
        unit_label=unit,
        point_label=point,
        basis=tuple(basis),
        generators=generators,
        generator_products=products,
        definitions=tuple(defined),
    )


# -- completion ------------------------------------------------------------------

def complete_table(spec: AlgebraSpec) -> FrobeniusAlgebra:
    """Expand the generator columns into the full multiplication table,
    bound its q-exponents (``TooLarge``), then validate it (``InconsistentTable``).

    Column by column: the unit column is trivial, generator columns come
    from the file, and each defined column is evaluated by applying the
    defining expression to every basis element, using only columns that
    are already complete.
    """
    labels = [l for l, _ in spec.basis]
    columns = {spec.unit_label: {b: QuantumElement.basis(b) for b in labels}}
    for g in spec.generators:
        columns[g] = {b: spec.generator_products[(g, b)] for b in labels}

    def times_column(x: QuantumElement, column_label: str) -> QuantumElement:
        col = columns[column_label]
        return QuantumElement([(l, y * c) for b, c in x.items() for l, y in col[b].items()])

    for label, expr in spec.definitions:
        columns[label] = {
            b: _act(QuantumElement.basis(b), expr, times_column) for b in labels
        }

    for v, column in columns.items():  # the file's columns first
        for u, product in column.items():
            for term, c in product.items():
                if max(c.num.degree(), c.den.degree()) > MAX_Q_EXPONENT:
                    raise TooLarge(f"product {v + '|' + u!r}: its {term!r} term has a "
                                   f"q-exponent past the guard of {MAX_Q_EXPONENT}")
    table = {}
    for u in labels:
        for v in labels:
            table[(u, v)] = columns[v][u]
    codim = dict(spec.basis)
    functional = {l: (1 if l == spec.point_label else 0) for l in labels}
    grading = Grading(
        real_degree={l: 2 * (spec.complex_dimension - codim[l]) for l in labels},
        chern_number=spec.chern_number,
    )
    algebra = FrobeniusAlgebra(labels, table, spec.unit_label, functional,
                               grading=grading, name=spec.name)
    violations = algebra.validate()
    if violations:
        shown = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise InconsistentTable(
            f"completed table for {spec.name!r} is not a Frobenius algebra: "
            f"{shown}{more}", violations)
    return algebra


def load_algebra(path) -> FrobeniusAlgebra:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    return complete_table(parse_spec(text))


def bundled_ig26_path():
    """Path to the shipped isotropic-Grassmannian IG(2,6) table."""
    return resources.files("qeuler").joinpath("data/ig26.json")
