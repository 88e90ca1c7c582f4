import pytest

from qeuler import linalg
from qeuler.frobenius import QuantumElement
from qeuler.grassmannian import GrassmannianRing
from qeuler.presented import bundled_ig26_path, load_algebra
from qeuler.scalar import RationalFunction


def zero_divisor_check(algebra, x: QuantumElement, y: QuantumElement) -> bool:
    """True iff x and y are both nonzero but their product is zero."""
    if x.is_zero() or y.is_zero():
        return False
    return algebra.multiply(x, y).is_zero()


def new_basis_to_old(algebra, p, elem: QuantumElement) -> QuantumElement:
    """Express an element of ``change_basis(algebra, p)`` in the original basis."""
    vec = [elem.coefficient(l) for l in algebra.basis]
    return QuantumElement(dict(zip(algebra.basis, linalg.mat_vec(p, vec))))


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
