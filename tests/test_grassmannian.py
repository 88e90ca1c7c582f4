import hashlib
import itertools
import json
import random

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from conftest import element, g24_expected, sigma1_charpoly
from qeuler import grassmannian
from qeuler.errors import ComputeError, InvalidShape, InvalidSpecialClass, UnknownLabel
from qeuler.frobenius import FrobeniusAlgebra, QuantumElement
from qeuler.grassmannian import (
    GrassmannianRing,
    enumerate_basis,
    parse_partition,
    partition_label,
    rim_hook_reduce,
)
from qeuler.scalar import ONE, RationalFunction


# ---------------------------------------------------------------------------
# basis combinatorics
# ---------------------------------------------------------------------------

def test_enumerate_basis_g24():
    assert enumerate_basis(2, 4) == [
        (), (1,), (1, 1), (2,), (2, 1), (2, 2)]


def test_enumerate_basis_small():
    assert enumerate_basis(1, 2) == [(), (1,)]
    assert len(enumerate_basis(3, 6)) == 20
    # against a filter of every k-tuple of parts in 0..n-k
    for n in range(2, 14):
        for k in range(1, n):
            if k * (n - k) <= 12:
                box = [tuple(x for x in parts if x)
                       for parts in itertools.product(range(n - k + 1), repeat=k)
                       if list(parts) == sorted(parts, reverse=True)]
                assert enumerate_basis(k, n) == sorted(box, key=lambda p: (sum(p), p))


def test_enumerate_basis_rejects_bad_shape():
    with pytest.raises(InvalidShape):
        enumerate_basis(0, 3)
    with pytest.raises(InvalidShape):
        enumerate_basis(4, 4)


def test_dual_partition_examples(g24):
    assert g24.dual_partition((1,)) == (2, 1)
    assert g24.dual_partition((1, 1)) == (1, 1)
    assert g24.dual_partition(()) == (2, 2)


def test_dual_partition_is_involution():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        ring = GrassmannianRing(k, n)
        for p in ring.basis:
            q = ring.dual_partition(p)
            assert ring.dual_partition(q) == p
            assert sum(p) + sum(q) == ring.complex_dimension


def test_partition_labels_round_trip():
    for label in ("0", "1", "2,1", "4,3"):
        assert partition_label(parse_partition(label)) == label
    with pytest.raises(UnknownLabel):
        parse_partition("1,2")
    with pytest.raises(UnknownLabel):
        parse_partition("x")


# ---------------------------------------------------------------------------
# quantum Pieri
# ---------------------------------------------------------------------------

def test_quantum_pieri_examples(g24):
    assert g24.quantum_pieri(1, (1,)) == element({("2", 0): 1, ("1,1", 0): 1})
    assert g24.quantum_pieri(1, (2, 2)) == element({("1", 1): 1})
    assert g24.quantum_pieri(2, (2, 2)) == element({("1,1", 1): 1})


def test_quantum_pieri_rejects_bad_class(g24):
    with pytest.raises(InvalidSpecialClass):
        g24.quantum_pieri(3, (1,))
    with pytest.raises(InvalidSpecialClass):
        g24.quantum_pieri(0, (1,))


# ---------------------------------------------------------------------------
# the full G(2,4) table against the published values
# ---------------------------------------------------------------------------

def test_g24_table_matches_publication(g24):
    labels = [partition_label(p) for p in g24.basis]
    for a in labels:
        for b in labels:
            got = g24.quantum_product(parse_partition(a), parse_partition(b))
            assert got == g24_expected(a, b), (a, b)


def test_g24_specific_products(g24):
    assert g24.quantum_product((2, 1), (2, 1)) == element(
        {("2", 1): 1, ("1,1", 1): 1})
    assert g24.quantum_product((2, 2), (2, 2)) == element({("0", 2): 1})
    assert g24.quantum_product((2,), (2,)) == element({("2,2", 0): 1})
    for p in g24.basis:
        assert g24.quantum_product((), p) == QuantumElement.basis(
            partition_label(p))


# ---------------------------------------------------------------------------
# rim-hook oracle
# ---------------------------------------------------------------------------

def test_rim_hook_examples(g24):
    assert g24.rim_hook_product((2,), (2,)) == element({("2,2", 0): 1})
    assert g24.rim_hook_product((1,), (2, 1)) == element(
        {("2,2", 0): 1, ("0", 1): 1})
    g25 = GrassmannianRing(2, 5)
    assert g25.rim_hook_product((1,), (1,)) == element(
        {("2", 0): 1, ("1,1", 0): 1})


def test_sign_calibration_against_pieri(g24):
    """Pin the border-strip sign convention: (-1)^(k-height) reproduces the
    quantum Pieri products of G(2,4); (-1)^(height-1) does not."""
    from qeuler.classical import _classical_product_rows_capped, _jacobi_trudi_monomials

    def oracle(lam, mu, rule):
        acc = {}
        monomials = _jacobi_trudi_monomials(mu, g24.k)
        for rho, c in _classical_product_rows_capped(lam, monomials, g24.k, {}).items():
            reduced = rim_hook_reduce(rho, g24.k, g24.n)
            if reduced is None:
                continue
            nu, d, sign = reduced
            # per strip, (-1)^(h-1) = (-1)^(k-h) * (-1)^(k-1)
            if rule == "height-minus-one" and (d * (g24.k - 1)) % 2:
                sign = -sign
            t = g24.basis_index[nu]
            acc[t] = acc.get(t, 0) + sign * c
        return g24._collect(sum(lam) + sum(mu), acc)

    match = {"k-minus-height": 0, "height-minus-one": 0}
    for rule in match:
        for lam in g24.basis:
            if oracle((1,), lam, rule) == g24.quantum_pieri(1, lam):
                match[rule] += 1
    assert match["k-minus-height"] == len(g24.basis)
    assert match["height-minus-one"] < len(g24.basis)


def test_oracle_agrees_everywhere():
    # every ordered pair of the first three rings; unordered pairs of the
    # other rings of the benchmark mix
    for k, n in [(2, 4), (2, 5), (3, 6), (3, 5), (2, 6), (4, 6), (2, 7), (3, 7),
                 (5, 7), (2, 8)]:
        ring = GrassmannianRing(k, n)
        ordered = (k, n) in [(2, 4), (2, 5), (3, 6)]
        for i, a in enumerate(ring.basis):
            for b in ring.basis if ordered else ring.basis[i:]:
                assert ring.quantum_product(a, b) == ring.rim_hook_product(a, b), (
                    k, n, a, b)
        # the table fills its columns without quantum_product
        for (a, b), product in ring.to_frobenius().structure_constants.items():
            assert product == ring.rim_hook_product(
                parse_partition(a), parse_partition(b)), (k, n, a, b)


def test_rim_hook_strips_must_match_the_degree(monkeypatch):
    """The oracle keeps its own count of strips: one that disagrees with
    the degree, which the Pieri route reads its q-power off, is an error."""
    reduce = grassmannian.rim_hook_reduce

    def one_strip_more(rho, k, n):
        reduced = reduce(rho, k, n)
        return reduced and (reduced[0], reduced[1] + 1, reduced[2])

    monkeypatch.setattr(grassmannian, "rim_hook_reduce", one_strip_more)
    with pytest.raises(ComputeError):
        GrassmannianRing(2, 4).rim_hook_product((2, 1), (2, 1))


def _jacobi_trudi_by_permutations(mu, k):
    """The determinant expansion over all k! permutations, sign by inversions."""
    mu_p = tuple(mu) + (0,) * (k - len(mu))
    out = []
    for perm in itertools.permutations(range(k)):
        idx = [mu_p[i] + perm[i] - i for i in range(k)]
        if min(idx) < 0:
            continue
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        out.append((-1 if inversions % 2 else 1, tuple(p for p in idx if p)))
    return tuple(out)


def test_jacobi_trudi_expansion_matches_all_permutations():
    from qeuler.classical import _jacobi_trudi_monomials

    for k in range(1, 7):
        for mu in enumerate_basis(k, k + 4):
            assert _jacobi_trudi_monomials(mu, k) == _jacobi_trudi_by_permutations(mu, k), (
                mu, k)
    # row i (0-based) has min(mu_i, i) + 1 choices, none a dead end
    assert len(_jacobi_trudi_monomials((1,) * 12, 12)) == 2 ** 11
    assert len(_jacobi_trudi_monomials((3, 3, 3, 2, 1), 5)) == 1 * 2 * 3 * 3 * 2


def test_pieri_results_cannot_corrupt_the_ring():
    ring = GrassmannianRing(2, 5)
    lam = (2, 1)
    first = ring.quantum_pieri_raw(2, lam)
    expected = list(first)
    with pytest.raises((TypeError, AttributeError)):
        first.append(((3, 3), 0))
    with pytest.raises(TypeError):
        first[0] = ((3, 3), 0)
    assert list(ring.quantum_pieri_raw(2, lam)) == expected
    assert ring.quantum_product((2,), lam) == ring.rim_hook_product((2,), lam)
    assert ring.quantum_pieri(2, lam) == ring.rim_hook_product((2,), lam)


# one skeleton per shape: the basis and the Pieri rows, made once a process

def test_the_skeleton_rows_are_the_public_pieri_rule():
    for k, n in DESK_SCALE:
        ring = GrassmannianRing(k, n)
        for p in range(1, ring.width + 1):
            rows = ring._steps[ring.basis_index[(p,)]][0]
            assert rows == tuple(
                tuple(ring.basis_index[mu] for mu, _ in ring.quantum_pieri_raw(p, lam))
                for lam in ring.basis), (k, n, p)


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_rings_of_one_shape_share_the_rows_and_no_product():
    first, second = GrassmannianRing(3, 7), GrassmannianRing(3, 7)
    assert first._steps[1][0] is second._steps[1][0]
    first.to_frobenius().diagnose()
    # the rule only: partitions, labels and indices, never a scalar or product
    sk = grassmannian._skeleton(3, 7)
    assert {type(x) for x in _leaves(tuple(f for f in sk if f is not sk.index))} == {
        int, str, type(None)}
    assert len({id(first.basis_index), id(second.basis_index), id(sk.index)}) == 3


def test_a_ring_cannot_corrupt_the_next_ring_of_its_shape():
    reference = GrassmannianRing(2, 5)
    table = reference.to_frobenius().table_to_json()
    product = reference.quantum_product((2, 1), (3, 1))
    ring = GrassmannianRing(2, 5)
    ring.basis.append((9, 9))
    ring.basis_index.clear()
    fresh = GrassmannianRing(2, 5)
    assert fresh.to_frobenius().table_to_json() == table
    assert fresh.quantum_product((2, 1), (3, 1)) == product
    assert product == fresh.rim_hook_product((2, 1), (3, 1))


def test_a_bad_shape_raises_every_time_and_is_not_cached():
    before = grassmannian._skeleton.cache_info().currsize
    for _ in range(2):
        for k, n in [(0, 3), (4, 4)]:
            with pytest.raises(InvalidShape):
                GrassmannianRing(k, n)
    assert grassmannian._skeleton.cache_info().currsize == before


# ---------------------------------------------------------------------------
# structural properties of every bundled ring
# ---------------------------------------------------------------------------

BUNDLED = [(2, 4), (2, 5), (3, 6)]


def all_coefficient_polys(elem):
    for _, c in elem.items():
        yield c


def test_positivity_of_structure_constants():
    for k, n in BUNDLED:
        ring = GrassmannianRing(k, n)
        for a in ring.basis:
            for b in ring.basis:
                for c in all_coefficient_polys(ring.quantum_product(a, b)):
                    assert c.is_polynomial()
                    for coeff in c.num.terms.values():
                        assert coeff.denominator == 1 and coeff > 0


# every ring the CLI builds without --allow-large
DESK_SCALE = [(k, n) for n in range(2, 14) for k in range(1, n) if k * (n - k) <= 12]


def _assert_nonzero_with_nonnegative_q_coefficients(product, where):
    assert not product.is_zero(), where
    for label, c in product.items():
        assert c.is_polynomial() and min(c.num.terms) >= 0, (where, label)
        for coeff in c.num.terms.values():
            assert coeff.denominator == 1 and coeff >= 0, (where, label, coeff)


def _assert_one_term_at_its_degree(ring, a, b, product):
    """The ring is graded, |a| + |b| = |nu| + n*d, so the coefficient of
    s_nu in s_a * s_b is one term c * q^d: the fact that lets the Pieri
    recursion key its terms by class alone."""
    for label, c in product.items():
        d, rest = divmod(sum(a) + sum(b) - sum(parse_partition(label)), ring.n)
        assert rest == 0 and list(c.num.terms) == [d], (a, b, label, c)


@pytest.mark.parametrize("k, n", DESK_SCALE, ids=[f"G({k},{n})" for k, n in DESK_SCALE])
def test_schubert_products_are_nonzero_and_positive(k, n):
    """The paper's two facts about quantum products of Schubert classes:
    none vanishes, and each coefficient is a polynomial in q with
    nonnegative integer coefficients; by ``quantum_product`` and in the
    table of ``to_frobenius``, each coefficient is a single term."""
    ring = GrassmannianRing(k, n)
    for i, a in enumerate(ring.basis):
        for b in ring.basis[i:]:
            product = ring.quantum_product(a, b)
            _assert_nonzero_with_nonnegative_q_coefficients(product, (a, b))
            _assert_one_term_at_its_degree(ring, a, b, product)
    for (a, b), product in ring.to_frobenius().structure_constants.items():
        a, b = parse_partition(a), parse_partition(b)
        _assert_nonzero_with_nonnegative_q_coefficients(product, (a, b))
        _assert_one_term_at_its_degree(ring, a, b, product)


def test_ig26_products_are_nonzero_and_positive(ig26):
    for i, a in enumerate(ig26.basis):
        for b in ig26.basis[i:]:
            _assert_nonzero_with_nonnegative_q_coefficients(
                ig26.multiply(QuantumElement.basis(a), QuantumElement.basis(b)), (a, b))


def _sigma1_at(algebra, q):
    """The matrix of sigma_1 * (label "1") at q, checked to hold nonnegative
    ``int``s."""
    m = [[c.evaluate(q) for c in row]
         for row in algebra.operator_matrix(QuantumElement.basis("1"))]
    assert all(type(x) is int and x >= 0 for row in m for x in row), (q, m)
    return m


def _strongly_connected(m):
    """True iff the graph with an arrow j -> i wherever m[i][j] != 0 reaches
    every class from class 0, forward and backward (one breadth-first search
    each way, over the list of classes reached so far)."""
    n = len(m)
    for arrow in (lambda i, j: m[j][i], lambda i, j: m[i][j]):
        reached = [0]
        for i in reached:
            reached += [j for j in range(n) if arrow(i, j) and j not in reached]
        if len(reached) < n:
            return False
    return True


def _check_perron_frobenius_route(algebra):
    """The paper's argument as a second route to ``field_factor``.  At q = 1
    the matrix of sigma_1 * is nonnegative (Gromov-Witten invariants are
    positive) and strongly connected, so by Perron-Frobenius its spectral
    radius is a simple eigenvalue, and the quantum ring at q = 1 has a field
    factor; ``diagnose``, which squares the Euler class, must agree.  At q = 0
    sigma_1 * is the classical cup product, which raises degree, so the
    quantum terms are what make the matrix irreducible."""
    assert _strongly_connected(_sigma1_at(algebra, 1))
    assert not _strongly_connected(_sigma1_at(algebra, 0))
    assert algebra.diagnose().field_factor


@pytest.mark.parametrize("k, n", DESK_SCALE, ids=[f"G({k},{n})" for k, n in DESK_SCALE])
def test_sigma1_is_irreducible_at_q1_as_the_field_factor_says(k, n):
    _check_perron_frobenius_route(GrassmannianRing(k, n).to_frobenius())


def test_ig26_sigma1_is_irreducible_at_q1_as_the_field_factor_says(ig26):
    _check_perron_frobenius_route(ig26)


def test_sigma1_spectrum_is_that_of_the_k_subset_sums_of_the_roots():
    """The characteristic polynomial of sigma_1 * from the table, by sympy
    over ZZ, against the one ``sigma1_charpoly`` builds from the roots of
    x^n = (-1)^(k+1) q alone, at q = 1 and q = 2 on every desk-scale
    Grassmannian."""
    for k, n in DESK_SCALE:
        algebra = GrassmannianRing(k, n).to_frobenius()
        for q in (1, 2):
            m = _sigma1_at(algebra, q)
            got = DomainMatrix([[ZZ(x) for x in row] for row in m], (len(m), len(m)),
                               ZZ).charpoly()
            assert [int(x) for x in got] == sigma1_charpoly(k, n, q), (k, n, q)


def test_the_desk_scale_tables_and_reports_are_pinned():
    """One sha256 over the JSON table, the JSON report and the markdown
    grid of every desk-scale Grassmannian, in the order of DESK_SCALE."""
    digest = hashlib.sha256()
    for k, n in DESK_SCALE:
        algebra = GrassmannianRing(k, n).to_frobenius()
        for text in (json.dumps(algebra.table_to_json()),
                     json.dumps(algebra.report_to_json(algebra.diagnose())),
                     algebra.render_table("md", unit_cell="1")):
            digest.update(text.encode("utf-8"))
    assert len(DESK_SCALE) == 35
    assert digest.hexdigest() == (
        "d5191b44df3b4bdc90cb771234c70d102d96f653942af1ffc836a7f1c384e2ab")


def test_duality_delta_pairs():
    for k, n in BUNDLED:
        ring = GrassmannianRing(k, n)
        algebra = ring.to_frobenius()
        for a in ring.basis:
            for b in ring.basis:
                value = algebra.f(ring.quantum_product(a, ring.dual_partition(b)))
                expected = ONE if a == b else RationalFunction(0)
                assert value == expected, (a, b)


def test_grading_identity_per_term():
    for k, n in BUNDLED:
        ring = GrassmannianRing(k, n)
        two_n = 2 * ring.complex_dimension
        for a in ring.basis:
            for b in ring.basis:
                want = ring.degree(a) + ring.degree(b) - two_n
                for label, c in ring.quantum_product(a, b).items():
                    nu = parse_partition(label)
                    for qpow in c.num.terms:
                        assert ring.degree(nu) - 2 * qpow * ring.chern_number == want


def test_nonvanishing_of_products():
    for k, n in BUNDLED:
        ring = GrassmannianRing(k, n)
        for a in ring.basis:
            for b in ring.basis:
                assert not ring.quantum_product(a, b).is_zero()


def test_commutativity_all_pairs():
    for k, n in BUNDLED:
        ring = GrassmannianRing(k, n)
        for a in ring.basis:
            for b in ring.basis:
                assert ring.quantum_product(a, b) == ring.quantum_product(b, a)


def test_associativity_on_random_triples():
    rng = random.Random(62218)
    for k, n in BUNDLED:
        ring = GrassmannianRing(k, n)
        algebra = ring.to_frobenius()
        elems = [QuantumElement.basis(partition_label(p)) for p in ring.basis]
        for _ in range(200):
            x, y, z = (rng.choice(elems) for _ in range(3))
            left = algebra.multiply(algebra.multiply(x, y), z)
            right = algebra.multiply(x, algebra.multiply(y, z))
            assert left == right


def test_point_coefficient_of_euler_is_rank():
    for k, n in BUNDLED:
        ring = GrassmannianRing(k, n)
        algebra = ring.to_frobenius()
        e = algebra.euler_class()
        point = partition_label((n - k,) * k)
        assert e.coefficient(point) == RationalFunction(len(ring.basis))


# ---------------------------------------------------------------------------
# compilation to the Frobenius engine
# ---------------------------------------------------------------------------

def test_g24_compiles_to_valid_algebra(g24_algebra):
    assert g24_algebra.validate() == []
    assert g24_algebra.rank == 6


def test_g24_euler_class(g24_algebra):
    assert g24_algebra.euler_class() == element({("2,2", 0): 6, ("0", 1): 2})
    assert g24_algebra.diagnose().semisimple


def test_g24_dual_basis_pairs_complements(g24, g24_algebra):
    duals = g24_algebra.dual_basis()
    for i, p in enumerate(g24.basis):
        expected = partition_label(g24.dual_partition(p))
        assert duals[i] == QuantumElement.basis(expected)
    assert duals[1] == QuantumElement.basis("2,1")  # dual of s[1]


def test_projective_line_ring():
    ring = GrassmannianRing(1, 2)
    algebra = ring.to_frobenius()
    assert algebra.rank == 2
    assert ring.quantum_product((1,), (1,)) == element({("0", 1): 1})
    e = algebra.euler_class()
    assert e == element({("1", 0): 2})
    assert algebra.diagnose().semisimple


def test_g36_diagnose_semisimple():
    algebra = GrassmannianRing(3, 6).to_frobenius()
    report = algebra.diagnose()
    assert report.semisimple and report.field_factor
    assert report.f_of_euler == RationalFunction(20)


# ---------------------------------------------------------------------------
# work counted, not timed
# ---------------------------------------------------------------------------

def test_a_table_holds_one_scalar_per_coefficient_value():
    algebra = GrassmannianRing(3, 7).to_frobenius()
    coeffs = [c for prod in algebra.structure_constants.values() for c in prod.coeffs.values()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) == 7


def test_diagnose_multiplies_once_on_a_grassmannian(monkeypatch):
    calls = []
    multiply = FrobeniusAlgebra.multiply
    monkeypatch.setattr(FrobeniusAlgebra, "multiply",
                        lambda self, x, y: calls.append(1) or multiply(self, x, y))
    GrassmannianRing(3, 7).to_frobenius().diagnose()
    assert len(calls) == 1  # E * E


def test_a_second_ring_of_a_shape_enumerates_nothing(monkeypatch):
    calls = []
    for name in ("enumerate_basis", "_pieri_terms"):
        original = getattr(grassmannian, name)
        monkeypatch.setattr(grassmannian, name,
                            lambda *args, f=original, name=name: calls.append(name) or f(*args))
    grassmannian._skeleton.__wrapped__(3, 7)  # the builder, past the cache, counts
    assert calls.count("enumerate_basis") == 1 and calls.count("_pieri_terms") == 35 * 4
    GrassmannianRing(3, 7)
    calls.clear()
    GrassmannianRing(3, 7).to_frobenius().diagnose()
    assert calls == []
