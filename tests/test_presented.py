import doctest
import json
from fractions import Fraction

import pytest

from conftest import element, same_tree, zero_divisor_check
from qeuler.errors import (
    CyclicDefinition,
    InconsistentTable,
    MissingDefinition,
    ParseError,
    TooLarge,
    UnknownLabel,
)
from qeuler.frobenius import QuantumElement
import qeuler.presented
from qeuler.presented import (
    MAX_DEPTH,
    MAX_Q_EXPONENT,
    BinOp,
    Neg,
    Num,
    QPower,
    Ref,
    _Parser,
    bundled_ig26_path,
    complete_table,
    load_algebra,
    parse_expression,
    parse_spec,
)
from qeuler.scalar import Q, RationalFunction


def read_bundled():
    with open(bundled_ig26_path(), encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def test_expression_shapes():
    ast = parse_expression("s[1]*s[2] - s[3]")
    assert isinstance(ast, BinOp) and ast.op == "-"
    assert same_tree(ast.left, BinOp("*", Ref("1"), Ref("2")))
    assert same_tree(ast.right, Ref("3"))

    ast = parse_expression("-1/3*s[1]*(s[3] - 2*s[2,1])")
    assert isinstance(ast, BinOp) and ast.op == "*"

    ast = parse_expression("q^2")
    assert same_tree(ast, QPower(2))
    assert same_tree(parse_expression("q"), QPower(1))
    assert same_tree(parse_expression("-q"), Neg(QPower(1)))
    # the node type counts, not only the fields
    assert not same_tree(parse_expression("1"), QPower(1))
    assert not same_tree(parse_expression("-s[1]"), Neg(Num(Fraction(1))))


def test_parser_doctests_pass():
    # the parser's examples live with it, e.g. the tree of "-1/3*s[2,1]"
    result = doctest.testmod(qeuler.presented)
    assert result.attempted >= 1
    assert result.failed == 0


def test_expression_errors():
    with pytest.raises(ParseError):
        parse_expression("s[1] +")
    with pytest.raises(ParseError):
        parse_expression("s[1] ! s[2]")
    with pytest.raises(ParseError):
        parse_expression("(s[1]")


# ---------------------------------------------------------------------------
# spec-level validation
# ---------------------------------------------------------------------------

def minimal_spec():
    # the projective line: one generator, s1 * s1 = q, chern number 2
    return {
        "name": "toy",
        "complex_dimension": 1,
        "chern_number": 2,
        "unit": "0",
        "point": "1",
        "basis": [{"label": "0", "codim": 0}, {"label": "1", "codim": 1}],
        "generators": ["1"],
        "generator_products": {
            "1|0": [{"coeff": 1, "q": 0, "label": "1"}],
            "1|1": [{"coeff": 1, "q": 1, "label": "0"}],
        },
        "definitions": [],
    }


def test_minimal_spec_completes_to_projective_line():
    algebra = complete_table(parse_spec(json.dumps(minimal_spec())))
    assert algebra.rank == 2
    x = QuantumElement.basis("1")
    assert algebra.multiply(x, x) == element({("0", 1): 1})
    assert algebra.diagnose().semisimple


def test_one_element_spec_is_the_base_field():
    spec = {
        "name": "point",
        "complex_dimension": 0,
        "chern_number": 1,
        "unit": "0",
        "point": "0",
        "basis": [{"label": "0", "codim": 0}],
        "generators": [],
        "generator_products": {},
        "definitions": [],
    }
    algebra = complete_table(parse_spec(json.dumps(spec)))
    assert algebra.rank == 1
    assert algebra.multiply(algebra.unit, algebra.unit) == algebra.unit
    report = algebra.diagnose()
    assert report.semisimple and report.f_of_euler == RationalFunction(1)


def test_cyclic_definitions_rejected():
    raw = minimal_spec()
    raw["basis"] += [{"label": "a", "codim": 1}, {"label": "b", "codim": 1}]
    raw["generator_products"]["1|a"] = [{"coeff": 1, "q": 1, "label": "0"}]
    raw["generator_products"]["1|b"] = [{"coeff": 1, "q": 1, "label": "0"}]
    raw["definitions"] = [
        {"label": "a", "expr": "s[b]"},
        {"label": "b", "expr": "s[a]"},
    ]
    with pytest.raises(CyclicDefinition):
        parse_spec(json.dumps(raw))


def defining(**exprs):
    """The minimal spec with one more basis class per keyword, each defined,
    in keyword order, by its expression."""
    raw = minimal_spec()
    for label, expr in exprs.items():
        raw["basis"].append({"label": label, "codim": 1})
        raw["generator_products"][f"1|{label}"] = [{"coeff": 1, "q": 1, "label": "0"}]
        raw["definitions"].append({"label": label, "expr": expr})
    return json.dumps(raw)


@pytest.mark.parametrize("expr, labels, error, message", [
    ("s[zz]*s[b] + s[zz]", ["zz", "b"], UnknownLabel, "references unknown label 'zz'"),
    ("s[b]*s[zz] + s[b]", ["b", "zz"], CyclicDefinition,
     "references 'b', which is not defined yet"),
], ids=["unknown-first", "not-yet-defined-first"])
def test_first_bad_reference_in_the_text_is_reported(expr, labels, error, message):
    with pytest.raises(error) as info:
        parse_spec(defining(a=expr, b="s[1]"))
    assert type(info.value) is error
    assert str(info.value) == f"definition of 'a' {message}"
    # each label is recorded once, where the text first names it
    parser = _Parser(expr, refs=True)
    parser.parse()
    assert list(parser.labels) == labels


@pytest.mark.parametrize("template", [
    "(" * MAX_DEPTH + "s[{}]" + ")" * MAX_DEPTH,
    "*".join(["s[1]"] * 2999 + ["s[{}]"]),
], ids=["nested-to-max-depth", "3000-references"])
def test_largest_definitions_pass_the_reference_check(template):
    spec = parse_spec(defining(a=template.format("1")))
    assert [label for label, _ in spec.definitions] == ["a"]
    with pytest.raises(UnknownLabel, match="references unknown label 'zz'"):
        parse_spec(defining(a=template.format("zz")))


def test_missing_definition_rejected():
    raw = minimal_spec()
    raw["basis"].append({"label": "a", "codim": 1})
    with pytest.raises(MissingDefinition):
        parse_spec(json.dumps(raw))


def test_missing_generator_product_rejected():
    raw = minimal_spec()
    del raw["generator_products"]["1|1"]
    with pytest.raises(MissingDefinition):
        parse_spec(json.dumps(raw))


def test_unknown_label_rejected():
    raw = minimal_spec()
    raw["generator_products"]["1|1"] = [{"coeff": 1, "q": 0, "label": "zz"}]
    with pytest.raises(UnknownLabel):
        parse_spec(json.dumps(raw))


def test_point_codimension_must_match():
    raw = minimal_spec()
    raw["complex_dimension"] = 5
    with pytest.raises(ParseError):
        parse_spec(json.dumps(raw))


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(chern_number=True), "chern_number must be an integer"),
    (lambda raw: raw.update(unit=["0"]), "unit must be a string"),
    (lambda raw: raw.update(generators="1"), "generators must be a list"),
    (lambda raw: raw["generators"].append(1), "generators[1] must be a string"),
    (lambda raw: raw["generator_products"]["1|1"][0].update(q="1"),
     'generator_products["1|1"][0].q must be an integer'),
    (lambda raw: raw["generator_products"]["1|1"][0].update(coeff=0.5),
     'generator_products["1|1"][0].coeff must be an integer or a rational string'),
    (lambda raw: raw.update(generator_products={"1|0": {}}),
     'generator_products["1|0"] must be a list'),
    (lambda raw: raw.update(definitions=[{"label": "1"}]),
     "missing field definitions[0].expr"),
    (lambda raw: raw.update(definitions=[5]), "definitions[0] must be an object"),
])
def test_schema_errors_name_the_json_path(edit, message):
    raw = minimal_spec()
    edit(raw)
    with pytest.raises(ParseError) as info:
        parse_spec(json.dumps(raw))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("edit, error, message", [
    (lambda raw: raw["basis"].append({"label": "1", "codim": 1}),
     ParseError, "duplicate basis label"),
    (lambda raw: raw.update(unit="u"), UnknownLabel, "label 'u' not in the basis"),
    (lambda raw: raw.update(point="p"), UnknownLabel, "label 'p' not in the basis"),
    (lambda raw: raw["generators"].append("g"), UnknownLabel,
     "generator 'g' not in the basis"),
    (lambda raw: raw["generators"].append("1"), ParseError, "duplicate generator"),
    (lambda raw: raw["generator_products"].update({"0|1": []}), ParseError,
     "key '0|1' does not start with a generator"),
    (lambda raw: raw["generator_products"].update({"1|b": []}), UnknownLabel,
     "label 'b' in key '1|b' not in the basis"),
    (lambda raw: raw.update(definitions=[{"label": "d", "expr": "s[1]"}]), UnknownLabel,
     "defined label 'd' not in the basis"),
    (lambda raw: raw.update(definitions=[{"label": "1", "expr": "s[1]"}]), ParseError,
     "label '1' defined more than once"),
    (lambda raw: (raw["basis"].append({"label": "a", "codim": 1}),
                  raw["generator_products"].update({"1|a": []})),
     MissingDefinition, "basis label 'a' has no definition"),
], ids=["duplicate-label", "unit", "point", "generator", "duplicate-generator", "key-start",
        "key-label", "defined-label", "defined-twice", "no-definition"])
def test_spec_rejections_name_their_cause(edit, error, message):
    raw = minimal_spec()
    edit(raw)
    with pytest.raises(error) as info:
        parse_spec(json.dumps(raw))
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_non_object_file_rejected():
    with pytest.raises(ParseError, match="top level must be an object"):
        parse_spec("[1, 2]")


def test_rational_string_coefficients_accepted():
    raw = minimal_spec()
    raw["generator_products"]["1|1"][0]["coeff"] = "2/2"
    assert parse_spec(json.dumps(raw)) == parse_spec(json.dumps(minimal_spec()))
    for coeff, value in ((3, 3), ("3/2", Fraction(3, 2)), ("-0.25", Fraction(-1, 4))):
        raw["generator_products"]["1|1"][0]["coeff"] = coeff
        spec = parse_spec(json.dumps(raw))
        assert spec.generator_products[("1", "1")] == QuantumElement({"0": value * Q})


@pytest.mark.parametrize("coeff", ["1e3000000", "1E3", "0.5e-1"])
def test_exponent_notation_in_a_coefficient_is_rejected(coeff):
    """``Fraction`` reads exponents, and "1e3000000" is an integer of three
    million digits; parsing stops at it, before any completion."""
    raw = json.loads(read_bundled())
    raw["generator_products"]["1|0"][0]["coeff"] = coeff
    with pytest.raises(ParseError) as info:
        parse_spec(json.dumps(raw))
    assert str(info.value).startswith(
        'generator_products["1|0"][0].coeff must be an integer or a rational string')


def test_bad_json_reports_position():
    with pytest.raises(ParseError) as info:
        parse_spec("{ nope }")
    assert info.value.line == 1


# ---------------------------------------------------------------------------
# the bundled isotropic Grassmannian
# ---------------------------------------------------------------------------

def test_bundled_file_parses_with_12_classes():
    spec = parse_spec(read_bundled())
    assert len(spec.basis) == 12
    assert spec.generators == ("1", "2", "3")
    assert spec.chern_number == 5


def test_ig26_completion_is_valid(ig26):
    # complete_table validated the table inside load_algebra; double-check here
    assert ig26.validate() == []
    assert ig26.rank == 12


def test_ig26_euler_class(ig26):
    assert ig26.euler_class() == element(
        {("4,3", 0): 12, ("2", 1): 8, ("1,1", 1): 2})
    assert ig26.f(ig26.euler_class()) == RationalFunction(12)


def test_ig26_euler_zero_divisor(ig26):
    e = ig26.euler_class()
    witness = QuantumElement({"4,3": 1, "2": -Q, "1,1": Q})
    assert zero_divisor_check(ig26, e, witness)
    assert not ig26.is_unit(e)
    assert not ig26.is_nilpotent(e)


def test_ig26_diagnose(ig26):
    report = ig26.diagnose()
    assert not report.semisimple
    assert report.field_factor
    assert report.rank == 12


def test_ig26_dual_pairs(ig26):
    # the six complementary pairs that make up the euler-class sum
    partner = {
        "0": "4,3", "1": "4,2", "2": "4,1", "1,1": "3,2", "3": "4", "2,1": "3,1",
    }
    partner.update({v: k for k, v in partner.items()})
    duals = ig26.dual_basis()
    for i, label in enumerate(ig26.basis):
        assert duals[i] == QuantumElement.basis(partner[label]), label


def test_ig26_derived_product(ig26):
    x = QuantumElement.basis("2,1")
    assert ig26.multiply(x, x) == element({("4,2", 0): 2, ("1", 1): 1})


def test_ig26_positivity_and_nonvanishing(ig26):
    for a in ig26.basis:
        for b in ig26.basis:
            prod = ig26.structure_constants[(a, b)]
            assert not prod.is_zero(), (a, b)
            for _, c in prod.items():
                assert c.is_polynomial()
                for coeff in c.num.terms.values():
                    assert coeff.denominator == 1 and coeff > 0


def test_ig26_grading():
    spec = parse_spec(read_bundled())
    algebra = complete_table(spec)
    deg = algebra.grading.real_degree
    assert algebra.grading.chern_number == 5
    assert deg["0"] == 14 and deg["4,3"] == 0
    for (a, b), prod in algebra.structure_constants.items():
        want = deg[a] + deg[b] - 14
        for label, c in prod.items():
            for qpow in c.num.terms:
                assert deg[label] - 10 * qpow == want


def test_zero_divisor_check_edge_cases(ig26, g24_algebra):
    zero = QuantumElement()
    x = QuantumElement.basis("1")
    assert not zero_divisor_check(ig26, zero, x)
    e = g24_algebra.euler_class()
    for label in g24_algebra.basis:
        assert not zero_divisor_check(
            g24_algebra, e, QuantumElement.basis(label))


def test_corrupted_table_raises_inconsistent():
    raw = json.loads(read_bundled())
    raw["generator_products"]["1|1"] = [{"coeff": 1, "q": 0, "label": "2"}]
    with pytest.raises(InconsistentTable) as caught:
        complete_table(parse_spec(json.dumps(raw)))
    violations = caught.value.violations
    assert violations and {v.kind for v in violations} <= {
        "commutativity", "unit", "associativity", "pairing", "grading"}
    shown = "; ".join(violations[:5])
    assert str(caught.value) == (
        f"completed table for 'IG(2,6)' is not a Frobenius algebra: {shown}"
        f" (+{len(violations) - 5} more)")


@pytest.mark.parametrize("sign", [1, -1], ids=["numerator", "denominator"])
def test_q_exponent_past_the_guard_is_too_large(sign):
    """Up to the guard, the table is validated (this one is not graded);
    past it, completion stops before validation, naming the product."""
    raw = minimal_spec()
    term = raw["generator_products"]["1|1"][0]
    term["q"] = sign * MAX_Q_EXPONENT
    with pytest.raises(InconsistentTable):
        complete_table(parse_spec(json.dumps(raw)))
    term["q"] = sign * (MAX_Q_EXPONENT + 1)
    with pytest.raises(TooLarge) as info:
        complete_table(parse_spec(json.dumps(raw)))
    assert str(info.value) == (f"product '1|1': its '0' term has a q-exponent "
                               f"past the guard of {MAX_Q_EXPONENT}")


def test_load_algebra_from_path(tmp_path):
    target = tmp_path / "toy.json"
    target.write_text(json.dumps(minimal_spec()), encoding="utf-8")
    algebra = load_algebra(target)
    assert algebra.rank == 2
