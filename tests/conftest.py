import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from qeuler import linalg
from qeuler.frobenius import (QuantumElement, base_field, change_basis, direct_sum,
                              dual_numbers, nilpotent_chain, quadratic_extension)
from qeuler.grassmannian import GrassmannianRing
from qeuler.presented import bundled_ig26_path, load_algebra
from qeuler.scalar import ONE, Q, ZERO, RationalFunction


def zero_divisor_check(algebra, x: QuantumElement, y: QuantumElement) -> bool:
    """True iff x and y are both nonzero but their product is zero."""
    if x.is_zero() or y.is_zero():
        return False
    return algebra.multiply(x, y).is_zero()


def new_basis_to_old(algebra, p, elem: QuantumElement) -> QuantumElement:
    """Express an element of ``change_basis(algebra, p)`` in the original basis."""
    vec = [elem.coefficient(l) for l in algebra.basis]
    return QuantumElement(dict(zip(algebra.basis, linalg.mat_vec(p, vec))))


def trace_form_semisimple(algebra) -> bool:
    """Semisimplicity without a dual basis or an Euler class.

    In characteristic 0 an algebra is semisimple iff its trace form
    T_ij = tr(L_{e_i e_j}) is nondegenerate (Bourbaki, *Algebra* VIII;
    Abrams, Israel J. Math. 117 (2000)).  T_ij = sum_l c_ij^l tr(L_{e_l}),
    and det T is zero-tested by sympy over QQ(q), not by the engine.
    """
    traces = {l: algebra.trace_of_multiplication(QuantumElement.basis(l))
              for l in algebra.basis}
    form = [[sum((c * traces[l] for l, c in algebra.structure_constants[(a, b)].items()),
                 ZERO)
             for b in algebra.basis] for a in algebra.basis]
    return bool(to_sympy(form).det())


# The direct sums of the benchmark's ``generic`` workload, mirrored here:
# the blocks, whether each is a field, and the block kinds of each sum.
KNOWN_ANSWER_BLOCKS = {
    "base": (base_field, True),
    "quad": (lambda: quadratic_extension(Q), True),
    "dual": (dual_numbers, False),
    "chain2": (lambda: nilpotent_chain(2), False),
    "chain3": (lambda: nilpotent_chain(3), False),
}
KNOWN_ANSWER_SUMS = (("base", "base"), ("base", "dual"), ("base", "quad"),
                     ("base", "base", "base"), ("dual", "chain2"), ("base", "chain3"),
                     ("quad", "dual"), ("base", "base", "quad"))


def known_answer_sum(kinds, rng):
    """``(algebra, semisimple, field_factor)``: the direct sum of the blocks
    moved by P = L*U, with L unit lower and U unit upper bidiagonal whose
    off-diagonal entries are c*q, c in {-2, -1, 1, 2}.  P is unimodular
    over Z[q].  The sum is semisimple iff every block is a field, and has
    a field factor iff some block is one."""
    algebra = KNOWN_ANSWER_BLOCKS[kinds[0]][0]()
    for kind in kinds[1:]:
        algebra = direct_sum(algebra, KNOWN_ANSWER_BLOCKS[kind][0]())
    fields = [KNOWN_ANSWER_BLOCKS[kind][1] for kind in kinds]
    return change_basis(algebra, unimodular(algebra.rank, rng)), all(fields), any(fields)


def unimodular(n, rng):
    """The n x n matrix P = L*U that ``known_answer_sum`` describes."""
    low = linalg.identity(n, ONE, ZERO)
    up = linalg.identity(n, ONE, ZERO)
    for i in range(n - 1):
        low[i + 1][i] = rng.choice((-2, -1, 1, 2)) * Q
        up[i][i + 1] = rng.choice((-2, -1, 1, 2)) * Q
    return linalg.mat_mul(low, up)


def to_sympy(m):
    """m as a sympy matrix over the field QQ(q), whose entries are kept
    cancelled like ``sympy.cancel`` keeps an expression; ``cancel`` on
    expression trees takes minutes for a 3 x 3 cube."""
    q = sympy.Symbol("q")
    field = sympy.QQ.frac_field(q)

    def poly(p):
        return field.from_sympy(sum((sympy.Rational(c.numerator, c.denominator) * q ** e
                                     for e, c in p.terms.items()), sympy.Integer(0)))

    return DomainMatrix([[poly(x.num) / poly(x.den) for x in row] for row in m],
                        (len(m), len(m[0])), field)


def same_tree(a, b) -> bool:
    """``a == b`` with node types compared too.  Expression nodes are
    NamedTuples, so on their own ``Num(Fraction(1)) == QPower(1)`` holds."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_tree(x, y) for x, y in zip(a, b)))
    return a == b


def element(terms: dict) -> QuantumElement:
    """Build an element from {(label, q_power): coeff}."""
    coeffs = {}
    for (label, d), c in terms.items():
        term = RationalFunction.monomial(c, d)
        coeffs[label] = coeffs.get(label, 0 * term) + term
    return QuantumElement(coeffs)


# The 2x2-box multiplication table, transcribed cell by cell from the
# published G(2,4) table.  Keys are unordered pairs of labels; unit rows
# and columns are implied.
G24_TABLE = {
    ("1", "1"): {("2", 0): 1, ("1,1", 0): 1},
    ("1", "2"): {("2,1", 0): 1},
    ("1", "1,1"): {("2,1", 0): 1},
    ("1", "2,1"): {("2,2", 0): 1, ("0", 1): 1},
    ("1", "2,2"): {("1", 1): 1},
    ("2", "2"): {("2,2", 0): 1},
    ("2", "1,1"): {("0", 1): 1},
    ("2", "2,1"): {("1", 1): 1},
    ("2", "2,2"): {("1,1", 1): 1},
    ("1,1", "1,1"): {("2,2", 0): 1},
    ("1,1", "2,1"): {("1", 1): 1},
    ("1,1", "2,2"): {("2", 1): 1},
    ("2,1", "2,1"): {("2", 1): 1, ("1,1", 1): 1},
    ("2,1", "2,2"): {("2,1", 1): 1},
    ("2,2", "2,2"): {("0", 2): 1},
}


def g24_expected(label_a: str, label_b: str) -> QuantumElement:
    if label_a == "0":
        return QuantumElement.basis(label_b)
    if label_b == "0":
        return QuantumElement.basis(label_a)
    key = (label_a, label_b)
    if key not in G24_TABLE:
        key = (label_b, label_a)
    return element(G24_TABLE[key])


@pytest.fixture(scope="session")
def g24():
    return GrassmannianRing(2, 4)


@pytest.fixture(scope="session")
def g24_algebra(g24):
    return g24.to_frobenius()


@pytest.fixture(scope="session")
def ig26():
    return load_algebra(bundled_ig26_path())
