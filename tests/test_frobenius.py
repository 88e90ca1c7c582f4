import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import element, new_basis_to_old
from qeuler.errors import DegeneratePairing, NotAUnit, UnknownLabel
from qeuler.frobenius import (
    FrobeniusAlgebra,
    QuantumElement,
    base_field,
    change_basis,
    direct_sum,
    dual_numbers,
    nilpotent_chain,
    quadratic_extension,
)
from qeuler.scalar import ONE, Q, RationalFunction, ZERO

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


def test_direct_sum_unit_renders_every_label_under_any_hash_seed():
    # a unit of two labels has no bare label, whatever order its set has
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for seed in ("0", "1", "2", "3", "4", "5", "77", "4242"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run([sys.executable, "-c", _RENDER_SUM_UNIT],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (
            "s[A.1] + s[B.1]\n| * | s[A.1] | s[A.e] | s[B.1] | s[B.e] |\n"), seed


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


def test_validate_flags_degenerate_pairing():
    one = "1"
    table = {(one, one): QuantumElement.basis(one)}
    degenerate = FrobeniusAlgebra([one], table, one, {one: ZERO})
    assert any("degenerate" in v for v in degenerate.validate())
    with pytest.raises(DegeneratePairing):
        degenerate.dual_basis()


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
