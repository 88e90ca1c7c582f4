"""Quantum homology of the Grassmannian G(k, n) on the Schubert basis.

Classes are indexed by partitions in the k x (n-k) box.  Products are
computed two independent ways:

* ``quantum_product`` and ``to_frobenius`` apply the quantum Pieri rule
  (Bertram, Adv. Math. 128 (1997)) alone, in a recursion on the rows of
  one factor.  s_p * s_lam has two halves, each an interlacing
  enumeration: s_mu for lam_i <= mu_i <= lam_{i-1} (lam_0 = n - k) and
  |mu| = |lam| + p, and, when lam has k rows, q * s_nu for
  lam_{i+1} - 1 <= nu_i <= lam_i - 1 (nu_k >= 0) and |nu| = |lam| + p - n.
  The ring is graded, |lam| + |mu| = |nu| + n*d, so a term is a class
  index and an int, and ``_scalars`` reads the power q^d off the sizes.
  A shape's basis and Pieri rows are made once a process, products per
  call, and ``to_frobenius`` hands its table over on class indices;
* ``rim_hook_product`` computes the classical Littlewood-Richardson
  expansion in at most k rows (``qeuler.classical``) and then reduces
  each term by removing border strips of size n, with a sign per
  removal, and checks that d strips came off.

Their agreement on every basis pair is part of the test suite, not an
assumption.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .errors import ComputeError, InvalidShape, InvalidSpecialClass, UnknownLabel
from .frobenius import FrobeniusAlgebra, Grading, QuantumElement
from .scalar import ONE, ZERO, RationalFunction

Partition = tuple

def parse_partition(label: str) -> Partition:
    """Partition from its label: "2,1" -> (2, 1), "0" or "" -> ()."""
    label = label.strip()
    if label in ("", "0"):
        return ()
    try:
        parts = tuple(int(p) for p in label.split(","))
    except ValueError:
        raise UnknownLabel(f"bad partition label {label!r}") from None
    if any(p < 0 for p in parts) or parts != tuple(sorted(parts, reverse=True)):
        raise UnknownLabel(f"bad partition label {label!r}")
    return tuple(p for p in parts if p > 0)


def partition_label(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else "0"


def _pad(p: Partition, k: int) -> tuple:
    return tuple(p) + (0,) * (k - len(p))


class GrassmannianRing:
    """QH of G(k, n): basis, duality, the Pieri recursion, rim-hook oracle."""

    def __init__(self, k: int, n: int):
        sk = _skeleton(k, n)  # raises InvalidShape unless 0 < k < n
        self.k = k
        self.n = n
        self.width = n - k
        self.chern_number = n
        self.complex_dimension = k * (n - k)
        self.basis = list(sk.basis)  # copies: no caller's edit reaches another ring
        self.basis_index = dict(sk.index)
        self._labels, self._sizes, self._steps = sk.labels, sk.sizes, sk.steps
        self._scalar_cache = {}  # (q_power, coefficient) -> scalar, per ring
        self._classical_cache = {}  # (lam, p) -> classical Pieri step of the oracle

    def check_member(self, p: Partition):
        if p not in self.basis_index:
            raise UnknownLabel(
                f"partition {partition_label(p)} not in the {self.k}x{self.width} box")

    def dual_partition(self, p: Partition) -> Partition:
        """Complement rotated by a half turn; pairs dual Schubert classes."""
        self.check_member(p)
        return tuple(x for x in (self.width - y for y in reversed(_pad(p, self.k))) if x)

    def degree(self, p: Partition) -> int:
        """Real degree of the class: 2*(dim - |p|)."""
        return 2 * (self.complex_dimension - sum(p))

    # -- quantum Pieri route -------------------------------------------------

    def quantum_pieri_raw(self, p: int, lam: Partition):
        """Multiply by the special class s_p: a tuple of (partition, q_power)
        terms, each with coefficient 1 (the rule is multiplicity free)."""
        if not 1 <= p <= self.width:
            raise InvalidSpecialClass(
                f"special class index must be in 1..{self.width}, got {p}")
        self.check_member(lam)
        return tuple(_pieri_terms(p, lam, self.k, self.n))

    def quantum_pieri(self, p: int, lam: Partition) -> QuantumElement:
        return self._collect(sum(lam) + p, {
            self.basis_index[mu]: 1 for mu, _ in self.quantum_pieri_raw(p, lam)})

    def _product_terms(self, m: int, memo: list, steps: tuple) -> dict:
        """Terms {class index: coefficient} of s_lam * s_mu, mu the class m,
        where memo[0] is {index of lam: 1} and memo[i] is s_lam * s_i once
        reached.  With p the last part of mu and nu the rest, s_p * s_nu is
        s_mu plus classes mu'' of the same size that are lexicographically
        larger than mu, and it has no q-term since nu has fewer than k rows;
        so s_lam * s_mu = s_p * (s_lam * s_nu) - sum s_lam * s_mu''.  A
        method: a recursive closure would keep each memo alive until a gc pass.
        """
        terms = memo[m]
        if terms is not None:
            return terms
        rows, nu, others = steps[m]
        terms = {}
        for t, c in self._product_terms(nu, memo, steps).items():
            for t2 in rows[t]:
                terms[t2] = terms.get(t2, 0) + c
        for other in others:
            for t, c in self._product_terms(other, memo, steps).items():
                terms[t] = terms.get(t, 0) - c
        terms = memo[m] = {t: c for t, c in terms.items() if c}
        return terms

    def quantum_product(self, lam: Partition, mu: Partition) -> QuantumElement:
        """Quantum product of two Schubert classes by the Pieri recursion."""
        self.check_member(lam)
        self.check_member(mu)
        # recurse on the class earlier in the basis; both orders run the same steps
        first, last = sorted((self.basis_index[lam], self.basis_index[mu]))
        memo = [{last: 1}] + [None] * (len(self.basis) - 1)
        return self._collect(sum(lam) + sum(mu),
                             self._product_terms(first, memo, self._steps))

    # -- rim-hook oracle route -------------------------------------------------

    def rim_hook_product(self, lam: Partition, mu: Partition) -> QuantumElement:
        """Independent oracle: classical LR expansion, then n-rim-hook reduction."""
        from .classical import _classical_product_rows_capped, _jacobi_trudi_monomials
        self.check_member(lam)
        self.check_member(mu)
        size = sum(lam) + sum(mu)
        acc = {}
        for rho, c in _classical_product_rows_capped(
                lam, _jacobi_trudi_monomials(mu, self.k), self.k,
                self._classical_cache).items():
            reduced = rim_hook_reduce(rho, self.k, self.n)
            if reduced is None:
                continue
            nu, d, sign = reduced
            if size - sum(nu) != self.n * d:  # the q-power _collect reads off
                raise ComputeError(f"rim-hook reduction of {rho} removed {d} strips")
            t = self.basis_index[nu]
            acc[t] = acc.get(t, 0) + sign * c
        return self._collect(size, acc)

    def _collect(self, size: int, terms: dict) -> QuantumElement:
        """Element from the terms {class index: coefficient} of s_lam * s_mu,
        ``size`` = |lam| + |mu|; its scalars are those of ``_scalars``."""
        return QuantumElement._from_canonical(
            {self._labels[t]: c for t, c in self._scalars(size, terms).items()})

    def _scalars(self, size: int, terms: dict) -> dict:
        """{class index: scalar} of the terms of s_lam * s_mu, ``size`` =
        |lam| + |mu|: class nu carries q^d, d = (size - |nu|) / n.  Each
        distinct (d, coefficient) is one canonical, nonzero
        ``RationalFunction`` that every product of the ring shares."""
        out = {}
        for t, c in terms.items():
            if c:
                key = ((size - self._sizes[t]) // self.n, c)
                scalar = self._scalar_cache.get(key)
                if scalar is None:
                    scalar = self._scalar_cache[key] = RationalFunction.monomial(c, key[0])
                out[t] = scalar
        return out

    # -- compilation -----------------------------------------------------------

    def to_frobenius(self) -> FrobeniusAlgebra:
        """Compile to a Frobenius algebra: f = coefficient at the point class.
        The table goes over on class indices, unchecked: the skeleton made
        them, and a product and its mirror are one entry."""
        labels, sizes, steps = self._labels, self._sizes, self._steps
        rank, table = len(labels), [None] * len(labels) ** 2
        for j in range(rank):
            memo = [{j: 1}] + [None] * (rank - 1)  # column j of the table
            for i in range(j + 1):
                table[i * rank + j] = table[j * rank + i] = self._scalars(
                    sizes[i] + sizes[j], self._product_terms(i, memo, steps))
        point = labels[-1]  # the basis runs by size, so the point class is last
        functional = {l: (ONE if l == point else ZERO) for l in labels}
        grading = Grading(
            real_degree={l: self.degree(p) for l, p in zip(labels, self.basis)},
            chern_number=self.chern_number,
        )
        return FrobeniusAlgebra._from_index_table(
            labels, table, functional, grading, f"QH(G({self.k},{self.n}))")

    # -- rendering ---------------------------------------------------------------

    def table_markdown(self) -> str:
        """Full multiplication table as a markdown grid, row/column per class."""
        return self.to_frobenius().render_table("md", unit_cell="1")

    def table_json(self) -> dict:
        return self.to_frobenius().table_to_json()

    def __repr__(self):
        return f"GrassmannianRing(k={self.k}, n={self.n})"


def enumerate_basis(k: int, n: int):
    """All partitions in the k x (n-k) box, sorted by (size, lex): one per
    k-subset s_1 < ... < s_k of range(n), lam_i = s_{k+1-i} - (k - i)."""
    if k <= 0 or k >= n:
        raise InvalidShape(f"need 0 < k < n, got k={k}, n={n}")
    found = [tuple(x for x in (s[i] - i for i in reversed(range(k))) if x)
             for s in combinations(range(n), k)]
    return sorted(found, key=lambda p: (sum(p), p))


def _pieri_terms(p: int, lam: Partition, k: int, n: int) -> list:
    """The (partition, q_power) terms of s_p * s_lam, unchecked.  Each half
    of the rule is the x with lows[i] <= x[i] <= highs[i] and sum(x) =
    total, with the bounds of the module docstring, in lexicographic order,
    each as a partition without its zeros: the bounds keep x weakly
    decreasing.  ``least`` and ``most`` bound what x[i+1:] can sum to, so no
    branch is a dead end."""
    lam_p = _pad(lam, k)
    size = sum(lam) + p
    halves = [(lam_p, (n - k,) + lam_p[:-1], size, 0)]
    if size >= n and lam_p[-1] >= 1:
        halves.append(([x - 1 for x in lam_p[1:]] + [0], [x - 1 for x in lam_p], size - n, 1))
    out = []
    for lows, highs, total, d in halves:
        least, most = sum(lows), sum(highs)
        partial = [((), total)]
        for low, high in zip(lows, highs):
            least -= low
            most -= high
            partial = [(acc + (x,) if x else acc, left - x) for acc, left in partial
                       for x in range(max(low, left - most), min(high, left - least) + 1)]
        out += [(acc, d) for acc, _ in partial]
    return out


_Skeleton = namedtuple("_Skeleton", "basis index labels sizes steps")


@lru_cache(maxsize=None, typed=True)  # typed: (2.0, 4) is no shape
def _skeleton(k: int, n: int) -> _Skeleton:
    """What G(k, n) is made of by k and n alone: the rule, never a product.
    Class mu = nu + (p,), p its last part, has the step (rows of p, index of
    nu, other classes of s_p * s_nu), rows[i] the indices of s_p * s_i."""
    basis = tuple(enumerate_basis(k, n))
    index = {p: i for i, p in enumerate(basis)}
    rows = [tuple(tuple(index[mu] for mu, _ in _pieri_terms(p, lam, k, n)) for lam in basis)
            for p in range(1, n - k + 1)]
    steps = [None]
    for m, mu in enumerate(basis[1:], 1):
        p_rows, nu = rows[mu[-1] - 1], index[mu[:-1]]
        steps.append((p_rows, nu, tuple(t for t in p_rows[nu] if t != m)))
    return _Skeleton(basis, index, tuple(map(partition_label, basis)),
                     tuple(map(sum, basis)), tuple(steps))


def rim_hook_reduce(rho: Partition, k: int, n: int):
    """Reduce a <= k-row partition into the k x (n-k) box by removing
    border strips of size n.

    Returns (partition, strips_removed, sign) or None when the term dies.
    The computation runs on first-column hook lengths: removing a strip
    subtracts n from one of them, and a strip of height h passes h-1
    other hook lengths on the way down.

    The per-strip sign is (-1)**(k - h); the calibration test pins it
    against the quantum Pieri rule.
    """
    if len(rho) > k:
        raise ValueError("partition has more rows than k")
    rho_p = _pad(rho, k)
    beta = [rho_p[i] + (k - 1 - i) for i in range(k)]
    residues = [b % n for b in beta]
    if len(set(residues)) < k:
        return None
    strips = sum((b - r) // n for b, r in zip(beta, residues))
    inversions = sum(r < later for i, r in enumerate(residues) for later in residues[i + 1:])
    # sorting gives (-1)**(h - 1) per strip; (-1)**(k - 1) more makes (-1)**(k - h)
    sign = -1 if (inversions + strips * (k - 1)) % 2 else 1
    ordered = sorted(residues, reverse=True)
    nu = tuple(ordered[i] - (k - 1 - i) for i in range(k))
    if not all(0 <= nu[i] <= n - k for i in range(k)):
        raise ComputeError(f"rim-hook reduction left {nu} outside the {k} x {n - k} box")
    return tuple(x for x in nu if x), strips, sign
