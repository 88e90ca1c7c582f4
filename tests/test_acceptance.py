"""Acceptance suite.

One test per criterion; each prints a single PASS line when it holds.
All arithmetic is exact, so every comparison is equality, and the stated
runtime budgets are asserted with wall-clock measurements.
"""

import json
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from conftest import element, g24_expected, new_basis_to_old, zero_divisor_check
from qeuler import rootgkm as rg
from qeuler.cli import main as cli_main
from qeuler.frobenius import (
    QuantumElement,
    base_field,
    change_basis,
    direct_sum,
    dual_numbers,
)
from qeuler.grassmannian import GrassmannianRing, parse_partition, partition_label
from qeuler.presented import bundled_ig26_path, load_algebra
from qeuler.scalar import ONE, Q, RationalFunction

GOLDEN = Path(__file__).parent / "golden"


def report(ok: bool, line: str):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


@pytest.fixture(scope="module")
def rings():
    return {key: GrassmannianRing(*key) for key in [(2, 4), (2, 5), (3, 6)]}


@pytest.fixture(scope="module")
def algebras(rings):
    out = {key: ring.to_frobenius() for key, ring in rings.items()}
    out["ig26"] = load_algebra(bundled_ig26_path())
    return out


def test_criterion_1_g24_table(rings):
    start = time.perf_counter()
    ring = rings[(2, 4)]
    labels = [partition_label(p) for p in ring.basis]
    mismatches = [
        (a, b)
        for a in labels
        for b in labels
        if ring.quantum_product(parse_partition(a), parse_partition(b))
        != g24_expected(a, b)
    ]
    elapsed = time.perf_counter() - start
    report(
        not mismatches and elapsed < 1.0,
        f"criterion 1: all 36 G(2,4) products match the published table "
        f"({elapsed:.3f}s < 1s)",
    )


def test_criterion_2_g24_euler_inverse(algebras):
    algebra = algebras[(2, 4)]
    e = algebra.euler_class()
    ok = e == element({("2,2", 0): 6, ("0", 1): 2})
    inverse = algebra.inverse(e)
    expected_inverse = QuantumElement({
        "2,2": RationalFunction(3) / (16 * Q**2),
        "0": -(ONE / (16 * Q)),
    })
    ok = ok and inverse == expected_inverse
    ok = ok and algebra.multiply(e, inverse) == algebra.unit
    ok = ok and algebra.diagnose().semisimple
    report(ok, "criterion 2: G(2,4) euler class, its exact inverse, semisimple")


def test_criterion_3_ig26(algebras):
    algebra = algebras["ig26"]
    ok = algebra.validate() == []
    ok = ok and algebra.euler_class() == element(
        {("4,3", 0): 12, ("2", 1): 8, ("1,1", 1): 2})
    witness = QuantumElement({"4,3": 1, "2": -Q, "1,1": Q})
    ok = ok and zero_divisor_check(algebra, algebra.euler_class(), witness)
    rep = algebra.diagnose()
    ok = ok and (not rep.semisimple) and rep.field_factor
    report(ok, "criterion 3: IG(2,6) validates; euler class, zero divisor, "
               "diagnose {semisimple: false, field_factor: true}")


def test_criterion_4_oracle_equivalence(rings):
    start = time.perf_counter()
    pairs = 0
    ok = True
    for key, expected_pairs in [((2, 4), 36), ((2, 5), 100), ((3, 6), 400)]:
        ring = rings[key]
        count = 0
        for a in ring.basis:
            for b in ring.basis:
                count += 1
                if ring.quantum_product(a, b) != ring.rim_hook_product(a, b):
                    ok = False
        ok = ok and count == expected_pairs
        pairs += count
    elapsed = time.perf_counter() - start
    report(ok and elapsed < 30.0,
           f"criterion 4: Pieri route equals rim-hook oracle on all "
           f"{pairs} pairs ({elapsed:.2f}s < 30s)")


def test_criterion_5_property_suites(rings, algebras):
    rng = random.Random(90210)
    ok = True
    for key, ring in rings.items():
        algebra = algebras[key]
        two_n = 2 * ring.complex_dimension
        elems = [QuantumElement.basis(partition_label(p)) for p in ring.basis]
        for a in ring.basis:
            for b in ring.basis:
                prod = ring.quantum_product(a, b)
                ok = ok and not prod.is_zero()
                ok = ok and prod == ring.quantum_product(b, a)
                for label, c in prod.items():
                    ok = ok and c.is_polynomial()
                    for qpow, coeff in c.num.terms.items():
                        ok = ok and coeff.denominator == 1 and coeff > 0
                        ok = ok and (
                            ring.degree(parse_partition(label))
                            - 2 * qpow * ring.chern_number
                            == ring.degree(a) + ring.degree(b) - two_n)
                dual = ring.dual_partition(b)
                value = algebra.f(ring.quantum_product(a, dual))
                ok = ok and value == (ONE if a == b else RationalFunction(0))
        for _ in range(200):
            x, y, z = (rng.choice(elems) for _ in range(3))
            ok = ok and algebra.multiply(algebra.multiply(x, y), z) == \
                algebra.multiply(x, algebra.multiply(y, z))
    ig = algebras["ig26"]
    ok = ok and ig.validate() == []  # commutative, associative on all 12^3, graded
    for a in ig.basis:
        for b in ig.basis:
            prod = ig.structure_constants[(a, b)]
            ok = ok and not prod.is_zero()
            for _, c in prod.items():
                for coeff in c.num.terms.values():
                    ok = ok and coeff.denominator == 1 and coeff > 0
    report(ok, "criterion 5: positivity, duality delta, grading, commutativity, "
               "associativity, nonvanishing on all bundled algebras")


def test_criterion_6_frobenius_engine(algebras):
    rng = random.Random(777)
    ok = True
    engine = list(algebras.values()) + [dual_numbers()]
    for algebra in engine:
        e = algebra.euler_class()
        ok = ok and algebra.f(e) == RationalFunction(algebra.rank)
        ok = ok and algebra.multiply(e, e).is_zero() == algebra.is_nilpotent(e)
        for _ in range(20):
            coeffs = {}
            for label in algebra.basis:
                c = rng.randint(-3, 3)
                if c:
                    coeffs[label] = RationalFunction(c) + (
                        Q if rng.random() < 0.2 else 0)
            nu = QuantumElement(coeffs)
            ok = ok and algebra.trace_of_multiplication(nu) == algebra.f(
                algebra.multiply(e, nu))

    # basis independence under a random invertible change of basis
    for algebra in [algebras[(2, 4)], algebras["ig26"], dual_numbers()]:
        n = algebra.rank
        p = [[RationalFunction(1 if i == j else 0) for j in range(n)]
             for i in range(n)]
        i, j = rng.sample(range(n), 2)
        p[i][j] = RationalFunction(rng.randint(1, 3))  # random elementary move
        if n <= 6:
            p[0][n - 1] = p[0][n - 1] + Q
        moved = change_basis(algebra, p)
        ok = ok and new_basis_to_old(
            algebra, p, moved.euler_class()) == algebra.euler_class()

    # direct-sum euler decomposition
    left, right = algebras[(2, 4)], dual_numbers()
    total = direct_sum(left, right)
    expected = element({("A.2,2", 0): 6, ("A.0", 1): 2, ("B.e", 0): 2})
    ok = ok and total.euler_class() == expected
    pair = direct_sum(base_field("u"), base_field("v"))
    ok = ok and pair.euler_class() == element({("u", 0): 1, ("v", 0): 1})
    ok = ok and pair.diagnose().semisimple
    report(ok, "criterion 6: trace identity, f(e)=rank, basis independence, "
               "nilpotency shortcut, direct-sum decomposition")


def test_criterion_7_root_data():
    ok = True
    for rank in range(1, 6):
        ok = ok and rg.weyl_order("A", rank) == factorial(rank + 1)
        ok = ok and len(rg.build_root_system("A", rank).positive_roots) == \
            rank * (rank + 1) // 2
    for fam in ("B", "C"):
        for rank in (2, 3):
            ok = ok and rg.weyl_order(fam, rank) == 2**rank * factorial(rank)
            ok = ok and len(rg.build_root_system(fam, rank).positive_roots) == rank**2
    ok = ok and rg.weyl_order("D", 4) == 192
    ok = ok and len(rg.build_root_system("D", 4).positive_roots) == 12
    for fam, rank in [("A", 5), ("B", 3), ("C", 3), ("D", 4)]:
        rs = rg.build_root_system(fam, rank)
        weights = rg.fundamental_weights(rs)
        for a in range(rank):
            for b in range(rank):
                ok = ok and rg.pairing(weights[a], rs.simple_roots[b]) == (
                    1 if a == b else 0)
    for n in range(2, 9):
        for k in range(1, n):
            parabolic = tuple(i for i in range(1, n) if i != k)
            spec = rg.make_orbit_spec(
                "A", n - 1, parabolic, rg.monotone_weight("A", n - 1, parabolic))
            ok = ok and rg.chern_numbers(spec)["N"] == n
    for rank in range(2, 8):
        parabolic = tuple(range(2, rank + 1))
        spec = rg.make_orbit_spec(
            "A", rank, parabolic, rg.monotone_weight("A", rank, parabolic))
        ok = ok and rg.chern_numbers(spec)["N"] == rank + 1
    report(ok, "criterion 7: Weyl orders, root counts, weight duality, "
               "chern numbers N=n (Grassmannians) and N=n+1 (projective spaces)")


def test_criterion_8_capacity_bounds():
    start = time.perf_counter()
    rng = random.Random(31415)
    ok = True
    checked = 0
    for n in range(2, 7):
        for _ in range(25):
            lam = []
            value = Fraction(rng.randint(5, 40), rng.randint(1, 4))
            for _ in range(n):
                lam.append(value)
                value -= Fraction(rng.randint(1, 9), rng.randint(1, 4))
            closed, spec = rg.un_closed_form(lam)
            ok = ok and rg.hz_upper_bound(spec).bound == closed
            if n <= 4:
                ok = ok and rg.brute_force_bound(spec) == closed
            checked += 1
    elapsed = time.perf_counter() - start
    report(ok and checked == 125 and elapsed < 60.0,
           f"criterion 8: Dijkstra equals the closed form on {checked} random "
           f"flags (n=2..6), and brute force for n<=4 ({elapsed:.1f}s < 60s)")


def test_criterion_9_cli_golden_files(capsys):
    code = cli_main(["grassmannian", "-k", "2", "-n", "4", "table",
                     "--format", "md"])
    table_out = capsys.readouterr().out
    ok = code == 0 and table_out == (GOLDEN / "g24_table.md").read_text(
        encoding="utf-8")
    code = cli_main(["algebra", "--file", str(bundled_ig26_path()),
                     "diagnose", "--format", "json"])
    diag_out = capsys.readouterr().out
    ok = ok and code == 0 and diag_out == (GOLDEN / "ig26_diagnose.json").read_text(
        encoding="utf-8")
    ok = ok and json.loads(diag_out)["rank"] == 12
    report(ok, "criterion 9: CLI markdown table and JSON diagnosis are "
               "byte-identical to the golden files")
