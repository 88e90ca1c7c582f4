from fractions import Fraction
from math import comb

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from qeuler import linalg, rootgkm
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


def chevalley_c1_terms(family, rank, parabolic):
    """c_1 * sigma_u in the Schubert basis of QH(G/P), from root data by
    Fulton and Woodward's quantum Chevalley formula (J. Algebraic Geom. 13
    (2004), Thm 10.1), not from ``_coset_skeleton``.  Returns the number of
    cosets and the terms (u, v, coefficient, quantum) at q = 1.

    Cosets are keyed by w(c_1), c_1 the sum of the crossing roots, in search
    order, so u's first element w_u is of minimal length l(u).  For each
    crossing root alpha, v is the coset of w_u . s_alpha and the coefficient
    is <c_1, coroot(alpha)>; the term is classical when l(v) = l(u) + 1 and
    carries a power of q when l(v) = l(u) + 1 - <c_1, coroot(alpha)>."""
    rs = rootgkm.build_root_system(family, rank)
    crossing, total, _ = rootgkm._monotone_sum(rs, parabolic)
    cosets = {}  # w(c_1) -> (index, w_u, l(u))
    for w, word in rootgkm.weyl_elements(family, rank):
        cosets.setdefault(rootgkm.act(w, total), (len(cosets), w, len(word)))
    reflected = [(rootgkm.act(rootgkm._reflection(root), total), rootgkm.pairing(total, root))
                 for root in crossing]
    terms = []
    for u, w, length in cosets.values():
        for s_total, c in reflected:
            v, _, v_length = cosets[rootgkm.act(w, s_total)]
            if v_length == length + 1:
                terms.append((u, v, c, False))
            elif v_length == length + 1 - c:
                terms.append((u, v, c, True))
    return len(cosets), terms


def sigma1_charpoly(k, n, q):
    """The characteristic polynomial of sigma_1 * on QH(G(k, n)) at the
    rational point q, as ``Fraction`` coefficients, highest degree first.

    Its roots are the sums over the k-subsets of the n roots z_i of
    x^n = c, c = (-1)^(k+1) q (Siebert and Tian, Asian J. Math. 1 (1997);
    Bertram, Adv. Math. 128 (1997); Rietsch, Duke Math. J. 110 (2001)), so
    it needs no root of unity: sum_i z_i^m is n c^(m/n) when n divides m,
    else 0.  The subset sums have the exponential generating function
    e_k(exp(t z_1), ..., exp(t z_n)), and the power sums of the exp(t z_i)
    are p_j(t) = sum_m (sum_i z_i^m) (j t)^m / m!.  Newton's identities give
    e_k from p_1, ..., p_k, each series cut after t^N, N = C(n, k), and
    kept as the coefficients of t^m / m!, so the m-th one of e_k is the
    m-th power sum of the roots.  Newton's identities once more give the
    coefficients.  Nothing here shares code with the Pieri rule or with the
    rim-hook oracle.
    """
    size, c = comb(n, k), Fraction((-1) ** (k + 1) * q)
    # p_j has terms only at the multiples of n
    p = [None] + [[(m, n * c ** (m // n) * j ** m) for m in range(0, size + 1, n)]
                  for j in range(1, k + 1)]
    e = [[Fraction(1)] + [0] * size]  # i e_i = sum_j (-1)^(j-1) e_(i-j) p_j
    for i in range(1, k + 1):
        e.append([Fraction(sum((-1) ** (j - 1) * comb(d, m) * x * e[i - j][d - m]
                               for j in range(1, i + 1) for m, x in p[j]
                               if m <= d and e[i - j][d - m]), i)
                  for d in range(size + 1)])
    power = [(i, (-1) ** (i - 1) * x) for i, x in enumerate(e[k]) if i and x]
    elementary = [Fraction(1)]  # m E_m = sum_i (-1)^(i-1) E_(m-i) P_i
    for m in range(1, size + 1):
        elementary.append(Fraction(sum(elementary[m - i] * x for i, x in power if i <= m), m))
    return [(-1) ** m * x for m, x in enumerate(elementary)]


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
