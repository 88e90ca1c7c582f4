import os
import random
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (KNOWN_ANSWER_SUMS, element, known_answer_sum, new_basis_to_old,
                      to_sympy, trace_form_semisimple, unimodular)
from qeuler import axioms, linalg, scalar
from qeuler.axioms import Violation
from qeuler.errors import (DegeneratePairing, InputError, InvalidShape, NotAUnit,
                           SingularMatrix, UnknownLabel)
from qeuler.frobenius import (
    FrobeniusAlgebra,
    Grading,
    QuantumElement,
    _nilpotent,
    base_field,
    change_basis,
    direct_sum,
    dual_numbers,
    nilpotent_chain,
    quadratic_extension,
)
from qeuler.grassmannian import GrassmannianRing
from qeuler.presented import bundled_ig26_path, load_algebra
from qeuler.scalar import ONE, Q, RationalFunction, ZERO, parse_scalar, render_scalar

SRC = Path(__file__).parents[1] / "src"


# ---------------------------------------------------------------------------
# the minimal non-field example K[e]/(e^2)
# ---------------------------------------------------------------------------

def test_dual_numbers_multiplication():
    a = dual_numbers()
    eps = QuantumElement.basis("e")
    assert a.multiply(eps, eps).is_zero()
    assert a.multiply(a.unit, eps) == eps


def test_dual_numbers_dual_basis_swaps():
    a = dual_numbers()
    duals = a.dual_basis()
    assert duals[0] == QuantumElement.basis("e")
    assert duals[1] == QuantumElement.basis("1")


def test_an_edit_to_a_returned_gram_matrix_changes_no_later_result():
    """``gram_matrix`` returns a new list on each call, so setting an entry
    of one changes neither the next one, nor the Euler class, nor
    ``validate``: kept on the algebra, f(1 * e) = 2 would make the Euler
    class s[e], and f(1 * e) = 0 the pairing degenerate."""
    a = dual_numbers()
    before = a.gram_matrix()
    for value in (2 * ONE, ZERO):
        a.gram_matrix()[0][1] = value
        assert a.gram_matrix() == before == [[ZERO, ONE], [ONE, ZERO]]
        assert a.euler_class() == element({("e", 0): 2})
        assert a.validate() == []


def test_render_element_signs_and_brackets():
    a = dual_numbers()
    assert a.render_element(QuantumElement({"1": 1, "e": -1})) == "1 - s[e]"
    assert a.render_element(QuantumElement({"e": Q + 1})) == "(q + 1)*s[e]"


def test_elements_are_immutable_and_hash_as_they_compare():
    x = QuantumElement({"1": Q, "e": -1})
    for value in (x, x.coefficient("1"), x.coefficient("1").num):
        with pytest.raises(AttributeError):
            value.coeffs = {}
    y = QuantumElement([("e", -1), ("1", Q + 1), ("1", -1)])
    assert x == y and hash(x) == hash(y) and y in {x}
    assert x.scale(0) == QuantumElement() and x.scale(0).is_zero()
    with pytest.raises(TypeError, match="cannot use float as a coefficient"):
        QuantumElement({"1": 0.5})


def test_dual_numbers_euler_and_diagnosis():
    a = dual_numbers()
    e = a.euler_class()
    assert e == element({("e", 0): 2})
    report = a.diagnose()
    assert report.f_of_euler == RationalFunction(2)
    assert not report.semisimple
    assert not report.field_factor
    assert report.euler_square.is_zero()
    assert a.is_nilpotent(QuantumElement.basis("e"))
    assert a.is_nilpotent(e)


def test_dual_numbers_not_a_unit():
    a = dual_numbers()
    with pytest.raises(NotAUnit):
        a.inverse(QuantumElement.basis("e"))


def test_inverse_of_unit_is_unit():
    a = dual_numbers()
    assert a.inverse(a.unit) == a.unit
    b = base_field()
    assert b.inverse(b.unit) == b.unit


def test_unknown_label_rejected():
    a = dual_numbers()
    with pytest.raises(UnknownLabel):
        a.multiply(QuantumElement.basis("nope"), a.unit)


# every public method that takes an element, called with x in each place
ELEMENT_METHODS = {
    "multiply-left": lambda a, x: a.multiply(x, a.unit),
    "multiply-right": lambda a, x: a.multiply(a.unit, x),
    "square": lambda a, x: a.multiply(x, x),
    "f": lambda a, x: a.f(x),
    "eta": lambda a, x: a.eta(a.unit, x),
    "operator_matrix": lambda a, x: a.operator_matrix(x),
    "trace_of_multiplication": lambda a, x: a.trace_of_multiplication(x),
    "is_unit": lambda a, x: a.is_unit(x),
    "inverse": lambda a, x: a.inverse(x),
    "is_nilpotent": lambda a, x: a.is_nilpotent(x),
    "render_element": lambda a, x: a.render_element(x),
    "element_to_json": lambda a, x: a.element_to_json(x),
    "report_to_json": lambda a, x: a.report_to_json(a.diagnose()._replace(euler_square=x)),
}


@pytest.mark.parametrize("call", ELEMENT_METHODS.values(), ids=ELEMENT_METHODS.keys())
def test_a_label_outside_the_basis_raises_unknown_label_naming_the_first(call):
    with pytest.raises(UnknownLabel, match="'zz'"):
        call(dual_numbers(), QuantumElement({"e": 1, "zz": 1, "yy": 1}))


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def test_direct_sum_of_two_fields():
    k2 = direct_sum(base_field("u"), base_field("v"))
    e = k2.euler_class()
    assert e == element({("u", 0): 1, ("v", 0): 1})
    report = k2.diagnose()
    assert report.semisimple and report.field_factor
    assert report.f_of_euler == RationalFunction(2)


def test_direct_sum_euler_decomposes(g24_algebra):
    # label "1" appears on both sides, so the sum prefixes A./B.
    total = direct_sum(g24_algebra, dual_numbers())
    e = total.euler_class()
    left = element({("A.2,2", 0): 6, ("A.0", 1): 2})
    right = element({("B.e", 0): 2})
    assert e == left + right
    report = total.diagnose()
    assert not report.semisimple
    assert report.field_factor


def test_direct_sum_cross_products_vanish(g24_algebra):
    total = direct_sum(g24_algebra, dual_numbers())
    x = QuantumElement.basis("A.2,1")
    y = QuantumElement.basis("B.e")
    assert total.multiply(x, y).is_zero()


def test_direct_sum_disjointifies_overlap():
    total = direct_sum(base_field("1"), dual_numbers())
    assert set(total.basis) == {"A.1", "B.1", "B.e"}


_RENDER_SUM_UNIT = """
from qeuler.frobenius import direct_sum, dual_numbers
a = direct_sum(dual_numbers(), dual_numbers())
print(a.render_element(a.unit))
print(a.render_table("md", unit_cell="1").splitlines()[0])
"""


def run_python(code: str, hash_seed: str) -> str:
    """stdout of ``python -c code`` in a fresh interpreter with that
    PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_direct_sum_unit_renders_every_label_under_any_hash_seed():
    # a unit of two labels has no bare label, whatever order its set has
    for seed in ("0", "1", "2", "3", "4", "5", "77", "4242"):
        assert run_python(_RENDER_SUM_UNIT, seed) == (
            "s[A.1] + s[B.1]\n| * | s[A.1] | s[A.e] | s[B.1] | s[B.e] |\n"), seed


# every bundled constructor: name, labels, unit, functional and table, as pinned values
@pytest.mark.parametrize("make, name, basis, unit, functional, table", [
    (lambda: base_field("u"), "Q(q)", ["u"], {"u": "1"}, {"u": "1"},
     "s[u] * s[u] = 1\n"),
    (dual_numbers, "K[e]/(e^2)", ["1", "e"], {"1": "1"}, {"1": "0", "e": "1"},
     "s[1] * s[1] = 1\ns[1] * s[e] = s[e]\ns[e] * s[1] = s[e]\ns[e] * s[e] = 0\n"),
    (lambda: quadratic_extension(Q * Q - 1), "Q(q)[x]/(x^2 - q^2 - 1)", ["1", "x"],
     {"1": "1"}, {"1": "0", "x": "1"},
     "s[1] * s[1] = 1\ns[1] * s[x] = s[x]\ns[x] * s[1] = s[x]\ns[x] * s[x] = q^2 - 1\n"),
    (lambda: nilpotent_chain(3), "K[e]/(e^3)", ["e0", "e1", "e2"], {"e0": "1"},
     {"e0": "0", "e1": "0", "e2": "1"},
     "s[e0] * s[e0] = 1\ns[e0] * s[e1] = s[e1]\ns[e0] * s[e2] = s[e2]\n"
     "s[e1] * s[e0] = s[e1]\ns[e1] * s[e1] = s[e2]\ns[e1] * s[e2] = 0\n"
     "s[e2] * s[e0] = s[e2]\ns[e2] * s[e1] = 0\ns[e2] * s[e2] = 0\n"),
], ids=["base_field", "dual_numbers", "quadratic_extension", "nilpotent_chain"])
def test_bundled_algebras_are_pinned(make, name, basis, unit, functional, table):
    algebra = make()
    assert (algebra.name, algebra.basis) == (name, basis)
    assert {l: render_scalar(c) for l, c in algebra.unit.items()} == unit
    assert {l: render_scalar(c) for l, c in algebra.functional.items()} == functional
    assert algebra.render_table("text") == table


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_bundled_is_clean(g24_algebra):
    assert g24_algebra.validate() == []


def test_validate_names_corrupted_triple(g24_algebra):
    table = dict(g24_algebra.structure_constants)
    # corrupt one product symmetrically so only associativity can catch it
    bad = element({("2,2", 0): 1})
    table[("1", "1")] = bad
    table[("1", "1")] = bad
    broken = FrobeniusAlgebra(
        g24_algebra.basis, table, "0", g24_algebra.functional,
        name="corrupted")
    violations = broken.validate()
    assert violations
    assert any("associativity" in v and "1" in v for v in violations)
    assert all(isinstance(v, Violation) for v in violations)
    first = next(v for v in violations if v.kind == "associativity")
    assert first == "associativity fails for triple ({}, {}, {})".format(*first.labels)


_GRADED_UNITS = """
from qeuler.frobenius import FrobeniusAlgebra, Grading, QuantumElement
one, e = QuantumElement.basis("1"), QuantumElement.basis("e")
table = {("1", "1"): one, ("1", "e"): e, ("e", "e"): QuantumElement()}
for unit in (QuantumElement(), one + e):
    algebra = FrobeniusAlgebra(["1", "e"], table, unit, {"1": 0, "e": 1},
                               grading=Grading({"1": 2, "e": 0}, 1))
    print([(v.kind, v.labels, str(v)) for v in algebra.validate() if v.kind == "grading"])
"""


def test_a_unit_without_one_degree_is_one_grading_violation_under_any_hash_seed():
    # a zero unit, and a unit whose labels have two degrees
    for seed in ("0", "2"):
        assert run_python(_GRADED_UNITS, seed) == (
            "[('grading', (), 'grading fails at the unit: no single degree')]\n"
            "[('grading', ('1', 'e'), 'grading fails at the unit: no single degree')]\n"
        ), seed


def graded_projective_line(unit="1", square=Q):
    """QH(P^1) with x*x = ``square``, graded with chern number 2."""
    one, x = QuantumElement.basis("1"), QuantumElement.basis("x")
    table = {("1", "1"): one, ("1", "x"): x, ("x", "x"): QuantumElement({"1": square})}
    return FrobeniusAlgebra(["1", "x"], table, unit, {"1": 0, "x": 1},
                            grading=Grading({"1": 2, "x": 0}, 2))


@pytest.mark.parametrize("unit, square, want", [
    ("1", Q, []),
    (QuantumElement({"1": 1, "x": 1}), Q,
     [(("1", "x"), "grading fails at the unit: no single degree")]),
    ("1", ONE / Q, [(("x", "x"), "non-polynomial coefficient in x*x")]),
], ids=["graded", "mixed-unit", "inverse-q"])
def test_validate_names_each_grading_violation(unit, square, want):
    violations = graded_projective_line(unit, square).validate()
    assert [(v.labels, str(v)) for v in violations if v.kind == "grading"] == want


@pytest.mark.parametrize("value", [ZERO, Q - 1], ids=["zero", "q-1"])
def test_validate_flags_degenerate_pairing(value):
    # f = q - 1 vanishes at q0 = 1 but not over Q(q): a nondegenerate pairing
    one = "1"
    table = {(one, one): QuantumElement.basis(one)}
    algebra = FrobeniusAlgebra([one], table, one, {one: value})
    if value:
        assert algebra.validate() == []
        assert algebra.dual_basis() == [QuantumElement({one: ONE / value})]
        return
    assert algebra.validate() == ["pairing matrix is degenerate"]
    assert [(v.kind, v.labels) for v in algebra.validate()] == [("pairing", ())]
    with pytest.raises(DegeneratePairing):
        algebra.dual_basis()


def rebuilt(algebra, table=None, functional=None):
    """A fresh ``algebra``, with another table or functional if given."""
    return FrobeniusAlgebra(algebra.basis, table or algebra.structure_constants,
                            algebra.unit, functional or algebra.functional,
                            grading=algebra.grading, name=algebra.name)


@pytest.fixture(scope="module")
def perturbable(g24_algebra, ig26):
    return {"G(2,4)": g24_algebra, "G(2,5)": GrassmannianRing(2, 5).to_frobenius(),
            "IG(2,6)": ig26}


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_validate_equals_full_scan(perturbable, data):
    # one entry of the table or of the functional changed, or nothing; a
    # product changed in one order only breaks commutativity too
    algebra = perturbable[data.draw(st.sampled_from(sorted(perturbable)))]
    labels = st.sampled_from(algebra.basis)
    change = data.draw(st.sampled_from(("product", "symmetric", "functional", "none")))
    delta = RationalFunction.monomial(data.draw(st.sampled_from((-2, -1, 1, 2))),
                                      data.draw(st.integers(0, 2)))
    table, functional = dict(algebra.structure_constants), dict(algebra.functional)
    if change == "functional":
        label = data.draw(labels)
        functional[label] = functional[label] + delta
    elif change != "none":
        a, b = data.draw(labels), data.draw(labels)
        table[(a, b)] = table[(a, b)] + QuantumElement({data.draw(labels): delta})
        if change == "symmetric":
            table[(b, a)] = table[(a, b)]
    got = rebuilt(algebra, table, functional).validate()
    # patched in the body: hypothesis refuses function-scoped fixtures
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axioms, "_light_test", lambda algebra, elems: False)
        want = rebuilt(algebra, table, functional).validate()
    assert got == want
    assert [(v.kind, v.labels) for v in got] == [(v.kind, v.labels) for v in want]


def test_light_test_proves_sums_and_new_bases_and_falls_back_when_it_fails(
        g24_algebra, monkeypatch):
    full_scans = []
    scan = axioms._associativity_violations
    monkeypatch.setattr(axioms, "_associativity_violations",
                        lambda algebra, elems: full_scans.append(algebra.name)
                        or scan(algebra, elems))
    # a Grassmannian, a direct sum and a moved basis prove associativity
    # from the generators that validate() finds
    moved, _, _ = known_answer_sum(("quad", "dual"), random.Random(8))
    for algebra in (g24_algebra, direct_sum(g24_algebra, dual_numbers()), moved):
        assert algebra.validate() == [] and full_scans == []
    # K[e]/(e^3) with e2 * e2 = e1: (e1 e1) e2 = e1 but e1 (e1 e2) = 0
    chain = nilpotent_chain(3)
    table = dict(chain.structure_constants)
    table[("e2", "e2")] = QuantumElement.basis("e1")
    total = direct_sum(g24_algebra, rebuilt(chain, table))
    got = total.validate()
    assert full_scans == [total.name]
    with monkeypatch.context() as patch:
        patch.setattr(axioms, "_light_test", lambda algebra, elems: False)
        assert got == rebuilt(total).validate()
    assert got and {v.kind for v in got} == {"associativity"}


def test_validate_scans_every_triple_when_the_unit_has_a_pole_at_q0(monkeypatch):
    """The dual numbers in the basis (q - 1) * 1, e: the unit is 1/(q - 1)
    times the first class, and q0 = 1 is a pole of it, so ``validate`` finds
    no generating set and checks every triple, once."""
    algebra = change_basis(dual_numbers(), [[Q - 1, ZERO], [ZERO, ONE]])
    full_scans = []
    scan = axioms._associativity_violations
    monkeypatch.setattr(axioms, "_associativity_violations",
                        lambda algebra, elems: full_scans.append(algebra.name)
                        or scan(algebra, elems))
    assert algebra._q0 == 1
    assert axioms._generating_set(algebra) is None
    assert algebra.validate() == []
    assert full_scans == [algebra.name]


def test_table_with_a_missing_pair_or_an_unknown_label_is_rejected():
    one, e = QuantumElement.basis("1"), QuantumElement.basis("e")
    with pytest.raises(UnknownLabel, match=r"\('e', 'e'\)"):
        FrobeniusAlgebra(["1", "e"], {("1", "1"): one, ("1", "e"): e}, "1",
                         {"1": 0, "e": 1})
    with pytest.raises(UnknownLabel, match="'x'"):
        FrobeniusAlgebra(["1", "e"], {("1", "1"): one, ("1", "e"): e,
                                      ("e", "e"): QuantumElement.basis("x")},
                         "1", {"1": 0, "e": 1})
    table = {("1", "1"): one, ("1", "e"): e, ("e", "e"): QuantumElement()}
    with pytest.raises(UnknownLabel, match="'x'"):
        FrobeniusAlgebra(["1", "e"], table, "x", {"1": 0, "e": 1})
    with pytest.raises(UnknownLabel, match="'y'"):
        FrobeniusAlgebra(["1", "e"], table, "1", {"1": 0, "e": 1, "y": 2})
    # a grading must give a degree to each basis label, and to no other
    with pytest.raises(UnknownLabel, match="'e'"):
        FrobeniusAlgebra(["1", "e"], table, "1", {"1": 0, "e": 1},
                         grading=Grading({"1": 2}, 1))
    with pytest.raises(UnknownLabel, match="'z'"):
        FrobeniusAlgebra(["1", "e"], table, "1", {"1": 0, "e": 1},
                         grading=Grading({"1": 2, "e": 0, "z": 4}, 1))


def test_a_repeated_basis_label_is_an_input_error():
    one = QuantumElement.basis("1")
    for basis in (["1", "1"], ["1", "e", "e"]):
        with pytest.raises(InputError, match=repr(basis[-1])):
            FrobeniusAlgebra(basis, {("1", "1"): one}, "1", {"1": 1})


# ---------------------------------------------------------------------------
# engine identities
# ---------------------------------------------------------------------------

def random_element(algebra, rng):
    coeffs = {}
    for label in algebra.basis:
        c = rng.randint(-3, 3)
        if c:
            coeffs[label] = RationalFunction(c)
    if rng.random() < 0.5:
        coeffs[rng.choice(algebra.basis)] = Q * rng.randint(1, 2)
    return QuantumElement(coeffs)


def engine_algebras(g24_algebra, ig26):
    return [g24_algebra, ig26, dual_numbers(),
            direct_sum(base_field("u"), base_field("v"))]


def test_trace_identity(g24_algebra, ig26):
    rng = random.Random(1207)
    for algebra in engine_algebras(g24_algebra, ig26):
        e = algebra.euler_class()
        for _ in range(20):
            nu = random_element(algebra, rng)
            assert algebra.trace_of_multiplication(nu) == algebra.f(
                algebra.multiply(e, nu))


def test_f_of_euler_equals_rank(g24_algebra, ig26):
    for algebra in engine_algebras(g24_algebra, ig26):
        assert algebra.f(algebra.euler_class()) == RationalFunction(algebra.rank)


def test_euler_square_zero_iff_nilpotent(g24_algebra, ig26):
    for algebra in engine_algebras(g24_algebra, ig26):
        e = algebra.euler_class()
        assert algebra.multiply(e, e).is_zero() == algebra.is_nilpotent(e)


def random_invertible_matrix(rng, n, with_q=False):
    while True:
        p = [[RationalFunction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            p[i][i] = p[i][i] + rng.randint(1, 3)
        if with_q:
            p[0][n - 1] = p[0][n - 1] + Q
        try:
            from qeuler import linalg
            from qeuler.scalar import ONE, ZERO
            linalg.solve(p, linalg.identity(n, ONE, ZERO))
            return p
        except Exception:
            continue


def test_euler_class_is_basis_independent(g24_algebra):
    rng = random.Random(3344)
    for with_q in (False, True):
        p = random_invertible_matrix(rng, g24_algebra.rank, with_q=with_q)
        moved = change_basis(g24_algebra, p)
        e_moved = moved.euler_class()
        assert new_basis_to_old(g24_algebra, p, e_moved) == g24_algebra.euler_class()


def test_euler_class_basis_independent_dual_numbers():
    rng = random.Random(91)
    a = dual_numbers()
    p = random_invertible_matrix(rng, 2)
    moved = change_basis(a, p)
    assert new_basis_to_old(a, p, moved.euler_class()) == a.euler_class()


def one_order_perturbed(g24_algebra):
    """G(2,4) with s[1] * s[2,1] moved by s[2,2] + s[1] in that order only:
    f reads 2 there and 1 on the mirror, and the pairing stays
    nondegenerate."""
    table = dict(g24_algebra.structure_constants)
    table[("1", "2,1")] = (table[("1", "2,1")] + QuantumElement.basis("2,2")
                           + QuantumElement.basis("1"))
    return rebuilt(g24_algebra, table)


def test_change_basis_multiplies_a_pair_once_only_where_the_axioms_are_known(
        g24_algebra):
    """On a table known to be commutative, (a, b) and (b, a) of the moved
    table are one object; an unchecked table keeps both orders."""
    moved, _, _ = known_answer_sum(("base", "base", "quad"), random.Random(15))
    table = moved.structure_constants
    assert moved._axioms_hold
    assert all(table[(a, b)] is table[(b, a)] for a in moved.basis for b in moved.basis)
    perturbed = one_order_perturbed(g24_algebra)
    same = change_basis(perturbed, linalg.identity(perturbed.rank, ONE, ZERO))
    assert same.structure_constants == perturbed.structure_constants
    assert same.structure_constants[("1", "2,1")] != same.structure_constants[("2,1", "1")]


def test_change_basis_there_and_back_gives_the_algebra_back(g24_algebra):
    """P, then P^-1, on a table that is not commutative, so that every
    ordered pair is moved; in between, the moved unit is the old one."""
    algebra = one_order_perturbed(g24_algebra)
    rng = random.Random(1717)
    # a unimodular matrix over Z[q] with its columns scaled in Q(q)
    scales = [ONE / (Q + 1), Q, -2 * ONE, 3 * ONE, ONE, ONE]
    rng.shuffle(scales)
    p = [[x * c for x, c in zip(row, scales)] for row in unimodular(algebra.rank, rng)]
    p_inv = linalg.solve(p, linalg.identity(algebra.rank, ONE, ZERO))
    moved = change_basis(algebra, p)
    assert not moved._axioms_hold
    assert new_basis_to_old(algebra, p, moved.unit) == algebra.unit
    back = change_basis(moved, p_inv)
    assert back.structure_constants == algebra.structure_constants
    assert back.unit == algebra.unit
    assert back.functional == algebra.functional


def test_change_basis_solves_once_and_never_for_an_inverse(monkeypatch):
    """Work-counting tripwire: the moved table and unit come from one
    ``linalg.solve`` with P on the left, none of it against the identity."""
    calls = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda a, b: calls.append((a, b)) or solve(a, b))
    algebra = direct_sum(base_field(), dual_numbers())
    p = unimodular(algebra.rank, random.Random(8))
    change_basis(algebra, p)
    assert [len(b[0]) for _, b in calls] == [7]  # six pairs j >= i and the unit
    assert calls[0][0] == p


@pytest.mark.parametrize("p", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0]], [[1]]], ids=str)
def test_change_basis_rejects_a_matrix_of_the_wrong_shape(p):
    """The first once gave a wrong table, the second ``SingularMatrix`` and
    the third ``IndexError``."""
    with pytest.raises(InvalidShape):
        change_basis(dual_numbers(), p)


def test_gram_matrix_reads_a_pair_twice_unless_it_is_one_object(g24_algebra, ig26):
    moved = one_order_perturbed(g24_algebra)
    for algebra in (g24_algebra, ig26, moved):
        table = algebra.structure_constants
        assert algebra.gram_matrix() == [[algebra.f(table[(a, b)]) for b in algebra.basis]
                                         for a in algebra.basis]
    i, j = moved.index["1"], moved.index["2,1"]
    assert moved.gram_matrix()[i][j] == 2 and moved.gram_matrix()[j][i] == 1


def test_structure_constants_is_a_new_mapping_on_each_call():
    """``structure_constants`` is built from the table on each call, new
    elements on new dicts included, so that no edit to one, of a key, of an
    element or of an element's coefficients, changes a later product or
    report."""
    algebra = GrassmannianRing(2, 4).to_frobenius()
    before = algebra.structure_constants
    table, report = algebra.table_to_json(), algebra.report_to_json(algebra.diagnose())
    edited = algebra.structure_constants
    assert edited is not before and edited == before
    assert edited[("1", "1")] is not before[("1", "1")]
    edited[("1", "1")] = QuantumElement()
    del edited[("2", "2")]
    edited[("2,1", "2,1")].coeffs.clear()  # an element is immutable, its dict is not
    assert algebra.structure_constants == before
    assert algebra.table_to_json() == table
    assert algebra.report_to_json(algebra.diagnose()) == report
    sigma1 = QuantumElement.basis("1")
    assert algebra.multiply(sigma1, sigma1) == before[("1", "1")] != QuantumElement()


@pytest.mark.parametrize("k, n", [(1, 3), (2, 4), (3, 6), (2, 7)], ids=str)
def test_a_grassmannian_product_and_its_mirror_are_one_element(k, n):
    table = GrassmannianRing(k, n).to_frobenius().structure_constants
    assert len(table) == len(GrassmannianRing(k, n).basis) ** 2
    assert all(table[(a, b)] is table[(b, a)] for a, b in table)


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6), (2, 7)], ids=str)
def test_the_public_constructor_rebuilds_a_grassmannian_table(k, n, monkeypatch):
    """The label constructor, given what ``to_frobenius`` hands over on
    indices, gives the same JSON table and report.  It takes the dual-basis
    route, as the axioms of a table from outside are not known, and keeps
    each mirror pair one element."""
    algebra = GrassmannianRing(k, n).to_frobenius()
    rebuilt = FrobeniusAlgebra(algebra.basis, algebra.structure_constants, "0",
                               algebra.functional, grading=algebra.grading)
    duals = []
    dual_basis = FrobeniusAlgebra.dual_basis
    monkeypatch.setattr(FrobeniusAlgebra, "dual_basis",
                        lambda self: duals.append(self) or dual_basis(self))
    assert rebuilt.table_to_json() == algebra.table_to_json()
    assert rebuilt.report_to_json(rebuilt.diagnose()) == algebra.report_to_json(
        algebra.diagnose())
    assert duals == [rebuilt]
    table = rebuilt.structure_constants
    assert all(table[(a, b)] is table[(b, a)] for a, b in table)


class _FreshProducts(Mapping):
    """A table that makes each product anew on every read, so each one
    is freed before the next is made and may take its id."""

    def __init__(self, table):
        self.table = table

    def __getitem__(self, pair):
        return QuantumElement(dict(self.table[pair].coeffs))

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_products_made_on_each_read_keep_their_own_entries(g24_algebra):
    for algebra in (g24_algebra, GrassmannianRing(2, 5).to_frobenius()):
        fresh = FrobeniusAlgebra(algebra.basis, _FreshProducts(algebra.structure_constants),
                                 "0", algebra.functional, grading=algebra.grading)
        assert fresh.table_to_json() == algebra.table_to_json()


def test_euler_class_is_the_sum_of_the_products_with_the_duals(g24_algebra, ig26):
    algebras = [g24_algebra, ig26, one_order_perturbed(g24_algebra)]
    algebras += [known_answer_sum(kinds, random.Random("+".join(kinds)))[0]
                 for kinds in KNOWN_ANSWER_SUMS]
    algebras.append(change_basis(g24_algebra, random_invertible_matrix(
        random.Random(3344), g24_algebra.rank, with_q=True)))
    for algebra in algebras:
        total = QuantumElement()
        for label, dual in zip(algebra.basis, algebra.dual_basis()):
            total = total + algebra.multiply(QuantumElement.basis(label), dual)
        assert algebra.euler_class() == total, algebra.name


def dual_basis_sum(algebra) -> QuantumElement:
    """sum of e_i * e_i^dual, one ``multiply`` per basis element."""
    total = QuantumElement()
    for label, dual in zip(algebra.basis, algebra.dual_basis()):
        total = total + algebra.multiply(QuantumElement.basis(label), dual)
    return total


def test_trace_route_agrees_with_the_dual_basis_sum(g24_algebra, ig26):
    """Every algebra whose axioms are known takes the trace route, and its
    Euler class is the dual-basis sum."""
    algebras = [GrassmannianRing(k, n).to_frobenius()
                for n in range(2, 10) for k in range(1, n) if k * (n - k) <= 8]
    algebras.append(ig26)
    algebras += [known_answer_sum(kinds, random.Random("+".join(kinds)))[0]
                 for kinds in KNOWN_ANSWER_SUMS]
    algebras.append(change_basis(g24_algebra, random_invertible_matrix(
        random.Random(3344), g24_algebra.rank, with_q=True)))
    for algebra in algebras:
        assert algebra._axioms_hold, algebra.name
        assert algebra.euler_class() == dual_basis_sum(algebra), algebra.name


def test_a_sum_with_an_unchecked_table_keeps_the_dual_basis_sum(g24_algebra):
    """A direct sum takes the trace route only when both summands do: the
    one-order perturbation of G(2,4) is not commutative, and the trace
    identity does not hold on it."""
    pair = direct_sum(base_field(), one_order_perturbed(g24_algebra))
    assert pair.euler_class() == dual_basis_sum(pair)


def test_diagnose_solves_once_for_the_euler_class(monkeypatch):
    """Work-counting tripwire: ``diagnose`` makes one ``linalg.solve`` call,
    with a single right-hand side, and never builds the dual basis."""
    algebras = [GrassmannianRing(3, 6).to_frobenius(), load_algebra(bundled_ig26_path())]
    solves, duals = [], []
    solve, dual_basis = linalg.solve, FrobeniusAlgebra.dual_basis
    monkeypatch.setattr(linalg, "solve", lambda a, b: solves.append(b) or solve(a, b))
    monkeypatch.setattr(FrobeniusAlgebra, "dual_basis",
                        lambda self: duals.append(self) or dual_basis(self))
    for algebra in algebras:
        solves.clear()
        algebra.diagnose()
        assert [[len(row) for row in rhs] for rhs in solves] == [[1] * algebra.rank]
    assert duals == []


def test_diagnose_makes_few_gcds_on_a_known_answer_sum(monkeypatch):
    """Work-counting tripwire: the Euler class solve and the unit test of
    one ``generic`` input make no ``poly_gcd`` call (27 or fewer before the
    solve cleared its denominators; the unit test's certificate is an
    integer determinant).  One normalisation that needs a gcd shows that
    the counter is wired."""
    algebra, _, _ = known_answer_sum(("base", "base", "quad"), random.Random(1507))
    calls = []
    poly_gcd = scalar.poly_gcd
    counting = lambda a, b: calls.append(1) or poly_gcd(a, b)
    monkeypatch.setattr(scalar, "poly_gcd", counting)
    assert algebra.diagnose().semisimple
    assert len(calls) == 0
    assert (Q * Q - 1) / (Q - 1) == Q + 1 and len(calls) == 1


def test_known_answer_sum_makes_no_polynomial_constructor_call(monkeypatch):
    """Work-counting tripwire: polynomial arithmetic stores its canonical
    results through ``scalar._merged``, so ``change_basis`` and ``diagnose``
    of Q(q) + Q(q)[x]/(x^2 - q) make no ``QPolynomial`` constructor call
    (255 when every sum and product went through the constructor again).
    One ``RationalFunction`` of an ``int`` shows that the counter is wired."""
    algebra = direct_sum(base_field(), quadratic_extension(Q))
    p = unimodular(algebra.rank, random.Random(1507))
    calls = []
    init = scalar.QPolynomial.__init__
    monkeypatch.setattr(scalar.QPolynomial, "__init__",
                        lambda self, terms=None: calls.append(1) or init(self, terms))
    report = change_basis(algebra, p).diagnose()
    assert report.semisimple and report.field_factor
    assert len(calls) == 0
    assert RationalFunction(3).num.terms == {0: 3} and len(calls) == 1


def _multiply_by_the_constructor(algebra, x, y):
    """The route ``multiply`` took before: every term of the product in one
    list, merged by the ``QuantumElement`` constructor."""
    return QuantumElement([(l, ca * cb * cl) for a, ca in x.items() for b, cb in y.items()
                           for l, cl in algebra.structure_constants[(a, b)].items()])


_BLOCKS = {"base": base_field, "quad": lambda: quadratic_extension(Q),
           "dual": dual_numbers, "chain2": lambda: nilpotent_chain(2),
           "chain3": lambda: nilpotent_chain(3)}
_COEFFS = [ZERO, ONE, -ONE, 2 * Q, Q - 1, parse_scalar("1/2"), parse_scalar("q^-1"),
           parse_scalar("(1 + q)/(1 - 2*q)")]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(sorted(_BLOCKS)), min_size=1, max_size=3),
       st.booleans(), st.randoms(use_true_random=False))
def test_multiply_matches_the_constructor_merge(kinds, moved, rng):
    """``multiply`` adds each label's terms as it goes and stores the sums
    directly; on the bundled algebras, their direct sums and those sums
    moved by a unimodular change of basis it equals the constructor's merge
    of all the terms, and keeps no zero coefficient."""
    algebra = _BLOCKS[kinds[0]]()
    for kind in kinds[1:]:
        algebra = direct_sum(algebra, _BLOCKS[kind]())
    if moved:
        algebra = change_basis(algebra, unimodular(algebra.rank, rng))
    x, y = (QuantumElement({l: rng.choice(_COEFFS) for l in algebra.basis}) for _ in "xy")
    product = algebra.multiply(x, y)
    assert product == _multiply_by_the_constructor(algebra, x, y)
    assert all(isinstance(c, RationalFunction) and c for c in product.coeffs.values())


def test_multiply_drops_a_label_whose_partial_sums_cancel():
    # (1 + e)(1 - e) = 1 in K[e]/(e^2): the e terms are -1, then +1
    algebra = dual_numbers()
    x, y = QuantumElement({"1": ONE, "e": ONE}), QuantumElement({"1": ONE, "e": -ONE})
    assert _multiply_by_the_constructor(algebra, x, y).coeffs == {"1": ONE}
    assert algebra.multiply(x, y).coeffs == {"1": ONE}
    assert algebra.multiply(x, x).coeffs == {"1": ONE, "e": 2 * ONE}


def _naive_product(algebra, x, y):
    """x * y by the definition: every ordered pair (a, b) of the supports
    read from the table, each term ca * cb * c_l added as a scalar, and the
    zero sums dropped at the end."""
    coeffs = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for l, cl in algebra.structure_constants[(a, b)].items():
                coeffs[l] = coeffs.get(l, ZERO) + ca * cb * cl
    return {l: c for l, c in coeffs.items() if c}


def _random_scalar(rng):
    """Zero one time in five, else (a + b*q + c*q^2) / d with d one of 1,
    q^2, 1 + q, 2 - q^2 and 3 + q + q^2, so that one product sums terms
    over several denominators, not all of them monomials."""
    if not rng.randrange(5):
        return ZERO
    num = sum((rng.randint(-3, 3) * Q**e for e in range(3)), RationalFunction(rng.choice([1, -2])))
    return num / rng.choice([ONE, Q * Q, 1 + Q, 2 - Q * Q, 3 + Q + Q * Q])


def _unequal_mirrors():
    """A three-label table whose (a, b) and (b, a) are two unequal objects
    for every a != b; multiply needs no axiom to hold."""
    basis = ["u", "v", "w"]
    table = {(a, b): QuantumElement({c: (i + 2 * j + 3 * k + 1) * Q**k / (1 + Q * (i + 1))
                                     for k, c in enumerate(basis)})
             for i, a in enumerate(basis) for j, b in enumerate(basis)}
    return FrobeniusAlgebra(basis, table, "u", dict.fromkeys(basis, ONE), name="unequal mirrors")


_MIRROR_TABLES = {
    "G(2,4)": lambda: GrassmannianRing(2, 4).to_frobenius(),
    "moved sum": lambda: change_basis(direct_sum(quadratic_extension(Q), nilpotent_chain(3)),
                                      unimodular(5, random.Random(29))),
    "unequal mirrors": _unequal_mirrors,
}


@pytest.mark.parametrize("name", sorted(_MIRROR_TABLES))
def test_multiply_matches_the_naive_product_over_q_of_q(name):
    """Differential test: ``multiply`` equals the naive bilinear sum on
    random elements with non-monomial denominators, for a square (``x is
    y``), an equal copy, a different factor and the zero element, on two
    tables that share each mirror pair and one whose mirrors differ."""
    algebra = _MIRROR_TABLES[name]()
    table = algebra.structure_constants
    shared = [table[(a, b)] is table[(b, a)] for a in algebra.basis for b in algebra.basis]
    assert all(shared) if name != "unequal mirrors" else shared.count(True) == algebra.rank
    rng = random.Random(name)
    for _ in range(3):
        x, y = (QuantumElement({l: _random_scalar(rng) for l in algebra.basis}) for _ in "xy")
        for left, right in [(x, x), (x, QuantumElement(dict(x.coeffs))), (x, y), (y, x),
                            (x, QuantumElement()), (QuantumElement(), y)]:
            product = algebra.multiply(left, right)
            assert product.coeffs == _naive_product(algebra, left, right), name
            assert all(isinstance(c, RationalFunction) and c for c in product.coeffs.values())


@pytest.mark.parametrize("algebra, x, expected", [
    # (e0 + e1 - 1/2 e2)^2 = e0 + 2 e1 + (1 - 1 + 0) e2: the e2 sum of the
    # pair (e0, e2), read once with weight 2, and the diagonal (e1, e1) is 0
    (nilpotent_chain(3), {"e0": ONE, "e1": ONE, "e2": -ONE / 2}, {"e0": ONE, "e1": 2 * ONE}),
    # (1 + x)^2 = 1 + x^2 + 2x = 2x in Q(q)[x]/(x^2 + 1): two diagonals cancel
    (quadratic_extension(-1), {"1": ONE, "x": ONE}, {"x": 2 * ONE}),
    # (1/(1 + q) + q/(1 + q) x)^2 = 1/(1 + q)^2 (1 + q^2 x^2) + 2q/(1 + q)^2 x
    # in Q(q)[x]/(x^2 + q^-2): the sums over two denominators cancel
    (quadratic_extension(-Q**-2), {"1": 1 / (1 + Q), "x": Q / (1 + Q)},
     {"x": 2 * Q / (1 + Q) ** 2}),
], ids=["mirror-and-diagonal", "diagonals", "two-denominators"])
def test_a_square_drops_the_labels_whose_sums_cancel(algebra, x, expected):
    x = QuantumElement(x)
    assert algebra.multiply(x, x).coeffs == expected == _naive_product(algebra, x, x)


def test_a_square_multiplies_each_mirror_pair_once(monkeypatch):
    """Work-counting tripwire: squaring an element with n nonzero
    coefficients on a table that shares each mirror pair calls
    ``RationalFunction.__mul__`` n(n + 1)/2 times, once per unordered pair
    (n^2, plus one call per structure-constant term, when every ordered
    pair was multiplied out term by term)."""
    algebra = GrassmannianRing(2, 4).to_frobenius()
    x = QuantumElement({l: (i + 1) / (1 + Q) + Q**i for i, l in enumerate(algebra.basis)})
    expected = _naive_product(algebra, x, x)
    calls, mul = [], RationalFunction.__mul__
    monkeypatch.setattr(RationalFunction, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert algebra.multiply(x, x).coeffs == expected
    n = algebra.rank
    assert len(calls) == n * (n + 1) // 2
    calls.clear()
    assert algebra.multiply(x, QuantumElement(dict(x.coeffs))).coeffs == expected
    assert len(calls) == n * n


def test_each_solve_in_diagnose_runs_one_bareiss(monkeypatch, ig26):
    """Tripwire: ``linalg`` has one elimination, so the one ``solve`` in
    ``diagnose()`` of G(2,4), G(3,6), IG(2,6) and of a ``generic``
    known-answer sum runs ``_bareiss`` once, whatever its entries."""
    passes = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m, n: passes.append(1) or bareiss(m, n))
    solve, runs = linalg.solve, []

    def spy(a, b):
        start = len(passes)
        x = solve(a, b)
        runs.append(len(passes) - start)
        return x

    algebras = [GrassmannianRing(2, 4).to_frobenius(), GrassmannianRing(3, 6).to_frobenius(),
                ig26, known_answer_sum(("base", "base", "quad"), random.Random(1507))[0]]
    monkeypatch.setattr(linalg, "solve", spy)
    used = []
    for algebra in algebras:
        runs.clear()
        algebra.diagnose()
        used.append(runs[:])
    assert used == [[1]] * 4


def test_bareiss_sees_only_ints(monkeypatch, ig26):
    """``linalg`` packs every Q(q) system into ``int``s before its one
    elimination: ``diagnose()`` of G(3,6), of a ``generic`` known-answer sum
    (its change of basis included) and of IG(2,6) hands ``_bareiss``
    nothing else."""
    seen = set()
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m, n: seen.update(
        type(x) for row in m for x in row) or bareiss(m, n))
    GrassmannianRing(3, 6).to_frobenius().diagnose()
    known_answer_sum(("base", "base", "quad"), random.Random(1507))[0].diagnose()
    ig26.diagnose()
    assert seen == {int}


# ---------------------------------------------------------------------------
# random small algebras: semisimple implies field factor
# ---------------------------------------------------------------------------

def random_block(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return base_field(f"f{rng.randrange(10**6)}")
    if kind == 1:
        c = rng.choice([RationalFunction(2), RationalFunction(3), Q, Q + 1,
                        Q * Q, RationalFunction(4)])
        return quadratic_extension(c)
    if kind == 2:
        return dual_numbers()
    return nilpotent_chain(rng.randint(2, 4))


def test_semisimple_implies_field_factor_on_random_sums():
    rng = random.Random(2024)
    for _ in range(50):
        algebra = random_block(rng)
        for _ in range(rng.randrange(2)):
            algebra = direct_sum(algebra, random_block(rng))
        report = algebra.diagnose()
        if report.semisimple:
            assert report.field_factor
        e = report.euler_class
        assert report.euler_square.is_zero() == algebra.is_nilpotent(e)
        assert report.f_of_euler == RationalFunction(algebra.rank)


def exact_is_unit(algebra, x) -> bool:
    """Whether x is a unit, decided by sympy's determinant over QQ(q)."""
    return bool(to_sympy(algebra.operator_matrix(x)).det())


@pytest.mark.parametrize("kinds", KNOWN_ANSWER_SUMS, ids="+".join)
def test_is_unit_and_trace_form_agree_on_known_answer_sums(kinds):
    rng = random.Random("+".join(kinds))
    algebra, semisimple, field_factor = known_answer_sum(kinds, rng)
    report = algebra.diagnose()
    assert (report.semisimple, report.field_factor) == (semisimple, field_factor)
    assert trace_form_semisimple(algebra) == semisimple
    elements = [report.euler_class, algebra.unit, algebra.unit.scale(Q - 1)]
    elements += [QuantumElement.basis(l) for l in algebra.basis]
    elements += [random_element(algebra, rng) for _ in range(4)]
    for x in elements:
        assert algebra.is_unit(x) == exact_is_unit(algebra, x), x


SMALL_GRASSMANNIANS = [(k, n) for n in range(2, 10) for k in range(1, n) if k * (n - k) <= 8]


@pytest.mark.parametrize("k,n", SMALL_GRASSMANNIANS,
                         ids=[f"G({k},{n})" for k, n in SMALL_GRASSMANNIANS])
def test_trace_form_agrees_with_diagnose_on_grassmannians(k, n):
    algebra = GrassmannianRing(k, n).to_frobenius()
    assert trace_form_semisimple(algebra) == algebra.diagnose().semisimple is True


def test_trace_form_agrees_with_diagnose_on_ig26(ig26):
    assert trace_form_semisimple(ig26) == ig26.diagnose().semisimple is False


def test_is_unit_never_evaluates_at_a_pole(g24_algebra):
    pole = ONE / (Q - 1)
    # x^2 = 1/(q-1): the structure constants have a pole at q = 1
    field = quadratic_extension(pole)
    x = QuantumElement.basis("x")
    for y in (field.unit, x, x.scale(Q - 1), field.unit + x.scale(pole)):
        assert field.is_unit(y) == exact_is_unit(field, y) is True
    assert trace_form_semisimple(field) == field.diagnose().semisimple is True
    # x^2 = 1/(q-1)^2 splits: (q-1)x - 1 is a zero divisor, but a unit of
    # the algebra that q = 1 gives if the poles are read as ones
    split = quadratic_extension(pole * pole)
    y = x.scale(Q - 1) - split.unit
    assert split.is_unit(y) == exact_is_unit(split, y) is False
    # elements with a pole at q = 1 in rings without one; the last is the
    # zero divisor (sqrt(c) - x)/(q-1) for c = ((q-1)/q)^2
    for y in (QuantumElement({"0": pole}), QuantumElement({"1": pole}),
              QuantumElement({"0": ONE, "2,2": pole})):
        assert g24_algebra.is_unit(y) == exact_is_unit(g24_algebra, y)
    square = quadratic_extension((Q - 1) * (Q - 1) / (Q * Q))
    y = QuantumElement({"1": ONE / Q, "x": -pole})
    assert square.is_unit(y) == exact_is_unit(square, y) is False


def test_the_zero_element_is_nilpotent_and_no_unit(g24_algebra, ig26):
    # the constructor merges the pairs of a label and drops zero sums
    assert QuantumElement([("a", ONE), ("b", Q), ("a", -ONE)]) == QuantumElement({"b": Q})
    # so does subtraction, in the same pass
    assert (QuantumElement({"a": ONE, "b": Q}) - QuantumElement({"a": ONE, "c": Q})
            == QuantumElement({"b": Q, "c": -Q}))
    for algebra in (dual_numbers(), base_field(), nilpotent_chain(3), g24_algebra, ig26):
        assert not algebra.is_unit(QuantumElement()), algebra.name
        assert algebra.is_nilpotent(QuantumElement()), algebra.name


def test_is_nilpotent_decides_over_q_where_q0_cannot():
    # ((q - 1) x)^2 = (q - 1)^2 q is zero at q0 = 1 only, and e / (q - 1)
    # has a pole there, so the exact test over Q(q) decides both
    field, x = quadratic_extension(Q), QuantumElement.basis("x").scale(Q - 1)
    assert _nilpotent(field._matrix_at_point(x))
    assert field.is_nilpotent(x) is False
    dual, e = dual_numbers(), QuantumElement({"e": ONE / (Q - 1)})
    assert dual._matrix_at_point(e) is None
    assert dual.is_nilpotent(e) is True


def test_exact_unit_test_takes_one_det(ig26, monkeypatch):
    """Work-counting tripwire: one ``linalg.det`` over Q(q) for the exact
    test, after the one at q0 where ``is_unit`` looks for a certificate;
    only that one where x has a pole at q0."""
    calls = []
    det = linalg.det
    monkeypatch.setattr(linalg, "det", lambda a: calls.append(a) or det(a))
    ig26.diagnose()
    counts = [len(calls)]
    pole = ONE / (Q - 1)
    x = QuantumElement.basis("x")
    split = quadratic_extension(pole * pole)
    square = quadratic_extension((Q - 1) * (Q - 1) / (Q * Q))
    for algebra, y in ((split, x.scale(Q - 1) - split.unit),
                       (square, QuantumElement({"1": ONE / Q, "x": -pole}))):
        calls.clear()
        assert not algebra.is_unit(y)
        counts.append(len(calls))
    assert counts == [2, 2, 1]


# ---------------------------------------------------------------------------
# the exact zero tests against sympy
# ---------------------------------------------------------------------------

DENOMINATORS = [parse_scalar(text)
                for text in ("q - 1", "q - 2", "q^2 + 1", "q", "(q - 1)*(q - 3)")]


def random_entry(rng):
    x = sum((rng.randint(-3, 3) * Q ** e for e in range(rng.randint(1, 3))), ZERO)
    return x / rng.choice(DENOMINATORS) if rng.random() < 0.5 else x


def random_matrix(rng, n, singular=False):
    """A random n x n matrix over Q(q); when ``singular``, one row is a
    Q(q)-combination of the others."""
    rows = [[random_entry(rng) for _ in range(n)] for _ in range(n - singular)]
    if singular:
        weights = [random_entry(rng) for _ in rows]
        rows.insert(rng.randrange(n), [sum((w * row[j] for w, row in zip(weights, rows)),
                                           ZERO) for j in range(n)])
    return rows


def random_nilpotent(rng, n):
    """P*N*P^-1 with P over Q(q) and N strictly upper triangular, with
    integer entries that are not zero."""
    while True:
        p = random_matrix(rng, n)
        try:
            p_inv = linalg.solve(p, linalg.identity(n, ONE, ZERO))
        except SingularMatrix:
            continue
        nil = [[RationalFunction(rng.choice((-2, -1, 1, 2)) if j > i else 0)
                for j in range(n)] for i in range(n)]
        return linalg.mat_mul(linalg.mat_mul(p, nil), p_inv)


# Nonzero over Q(q), yet zero at the first regular points: det diag(y, z)
# at q = 2..5 and the square of [[0, 1], [x, 0]] at q = 2..6, past a pole
# at q = 1.  A test that read values at a few integer points would call
# them zero.
Y, Z, X = (parse_scalar(text) for text in (
    "(q - 2)*(q - 3)/(q - 1)", "(q - 4)*(q - 5)/(q - 1)",
    "(q - 2)*(q - 3)*(q - 4)*(q - 5)*(q - 6)/((q - 1)*(q - 1)*(q - 1))"))


def test_exact_zero_tests_agree_with_sympy():
    rng = random.Random(1507)
    dets = [random_matrix(rng, n, singular) for n in (2, 3, 4) for singular in (0, 1) * 3]
    powers = [random_matrix(rng, n) for n in (2, 3) for _ in range(3)]
    powers += [random_nilpotent(rng, n) for n in (2, 3) for _ in range(3)]
    dets += powers + [[[Y, ZERO], [ZERO, Z]]]
    powers.append([[ZERO, ONE], [X, ZERO]])
    # det(t - m) = t^n at t = 1, ..., n - 1 but not at t = n
    powers += [[[ZERO, ONE], [ONE, -ONE]], [[ZERO, Q], [ONE, -Q]],
               [[ZERO, ZERO, -2 * ONE], [ONE, ZERO, 3 * ONE], [ZERO, ONE, -ONE]]]
    got = [not linalg.det(m) for m in dets]
    assert got == [not to_sympy(m).det() for m in dets]
    assert set(got) == {True, False}
    got = [_nilpotent(m) for m in powers]
    assert got == [(to_sympy(m) ** len(m)).is_zero_matrix for m in powers]
    assert set(got) == {True, False}


def test_quadratic_extension_is_semisimple():
    for c in (Q, RationalFunction(2), Q + 1):
        report = quadratic_extension(c).diagnose()
        assert report.semisimple and report.field_factor


def test_nilpotent_chain_has_no_field_factor():
    for m in (2, 3, 4):
        report = nilpotent_chain(m).diagnose()
        assert not report.semisimple
        assert not report.field_factor
        assert report.f_of_euler == RationalFunction(m)
