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

Defining expressions follow the expression grammar of ``qeuler.scalar``,
where ``s[...]`` wraps a label of the data file (``s[2,1]`` is unambiguous
next to rationals).
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .errors import (
    CyclicDefinition,
    InconsistentTable,
    MissingDefinition,
    ParseError,
    UnknownLabel,
)
from .frobenius import FrobeniusAlgebra, Grading, QuantumElement
from .scalar import BinOp, Neg, RationalFunction, Ref, _act, parse_expression


def expression_labels(expr):
    """The labels ``expr`` references, each once, in text order (set-like)."""
    labels, stack = {}, [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            labels[node.label] = None
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack += (node.right, node.left)
    return labels.keys()


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
        try:
            expr = parse_expression(text_expr)
        except ParseError as exc:
            raise ParseError(
                f"in definition of {label!r}: {exc.args[0]}") from None
        for ref in expression_labels(expr):
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
    then validate it (``InconsistentTable`` on any violation).

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
