"""Root systems of types A-D and the orbit data that needs no Weyl group:
fundamental weights, flag manifolds, Chern numbers, monotone weights, and
the closed-form oscillation bound of a regular unitary orbit.

Vectors live in the standard coordinate realizations, where every root is
an ``int`` vector and ``Fraction`` enters with a weight: the fundamental
weights (Bourbaki's closed forms) and the pairings are exact ``Fraction``s.
Crossing roots are those pairing nonzero with rho_P, the sum of the
fundamental weights off S_P: a positive coroot has nonnegative coordinates
over the simple coroots.  Their sum is the monotone weight at kappa = 1,
and its pairings with the simple coroots are the Chern numbers.  The Weyl
group, its cosets and the fixed-point graph are in ``qeuler.rootgkm``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import (ComputeError, InputError, InvalidShape, NotRegular, TooLarge,
                     UnsupportedType)

Vector = tuple


def pairing(weight: Vector, root: Vector) -> Fraction:
    """<weight, coroot(root)> = 2 (weight, root) / (root, root) over the root's
    nonzero coordinates, summed in ints over the lcm of their denominators."""
    terms = [(weight[t], x) for t, x in enumerate(root) if x]
    scale = lcm(*(w.denominator for w, _ in terms))
    num = sum(w.numerator * (scale // w.denominator) * x for w, x in terms)
    return Fraction(2 * num, scale * sum(x * x for _, x in terms))


class RootSystem(NamedTuple):
    family: str
    rank: int
    dim: int
    simple_roots: tuple
    positive_roots: tuple

    @property
    def roots(self):
        return self.positive_roots + tuple(
            tuple(-x for x in r) for r in self.positive_roots)

    def __repr__(self):
        return f"RootSystem({self.family}{self.rank})"


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Standard realization of A_r, B_r, C_r, D_r."""
    family = family.upper()
    if family not in ("A", "B", "C", "D"):
        raise UnsupportedType(f"family {family!r} not supported (A-D only)")
    if rank < 1:
        raise InvalidShape("rank must be >= 1")
    if family == "D" and rank < 2:
        raise InvalidShape("type D needs rank >= 2")
    if rank > 200:  # roots are dense: their memory grows as rank^3
        raise TooLarge(f"rank {rank} exceeds the root-system guard of 200")

    dim = rank + 1 if family == "A" else rank
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]

    def vec(*terms):
        """The sum of c * e_i over the (i, c) in ``terms``."""
        v = [0] * dim
        for i, c in terms:
            v[i] += c
        return tuple(v)

    simple = [vec((i, 1), (i + 1, -1)) for i in range(dim - 1)]
    positive = [vec((i, 1), (j, -1)) for i, j in pairs]
    if family != "A":
        positive += [vec((i, 1), (j, 1)) for i, j in pairs]
    if family == "B":
        simple.append(vec((rank - 1, 1)))
        positive += [vec((i, 1)) for i in range(dim)]
    elif family == "C":
        simple.append(vec((rank - 1, 2)))
        positive += [vec((i, 2)) for i in range(dim)]
    elif family == "D":
        simple.append(vec((rank - 2, 1), (rank - 1, 1)))

    expected = {"A": rank * (rank + 1) // 2, "B": rank * rank,
                "C": rank * rank, "D": rank * (rank - 1)}[family]
    if len(positive) != expected:
        raise ComputeError(
            f"{family}{rank}: built {len(positive)} positive roots, "
            f"expected {expected}")
    return RootSystem(family, rank, dim, tuple(simple), tuple(positive))


def fundamental_weights(rs: RootSystem):
    """The w_a with <w_a, b-coroot> = delta, in closed form (Bourbaki, Plates
    I-IV): e_1 + ... + e_a, less a/(r+1) in every coordinate for A_r; halved
    at node r for B_r and D_r, and 1/2 (e_1 + ... + e_{r-1} - e_r) at node r-1 of D_r."""
    shift = Fraction(1, rs.rank + 1) if rs.family == "A" else Fraction(0)
    weights = [[1 - a * shift] * a + [-a * shift] * (rs.dim - a) for a in range(1, rs.rank + 1)]
    if rs.family in "BD":
        weights[-1] = [x / 2 for x in weights[-1]]
    if rs.family == "D":
        weights[-2] = weights[-1][:-1] + [-weights[-1][-1]]
    return tuple(map(tuple, weights))


# ---------------------------------------------------------------------------
# orbit data
# ---------------------------------------------------------------------------

def _parabolic_set(rs: RootSystem, parabolic) -> set:
    """The set of the 1-based simple-root indices in ``parabolic``;
    ``InvalidShape`` unless each is in 1..rank and none repeats."""
    for i in parabolic:
        if not 1 <= i <= rs.rank:
            raise InvalidShape(f"parabolic index {i} out of range 1..{rs.rank}")
    pset = set(parabolic)
    if len(pset) != len(parabolic):
        raise InvalidShape(f"parabolic indices {parabolic} repeat")
    return pset


class _OrbitFields(NamedTuple):
    root_system: RootSystem
    parabolic: tuple
    weight: Vector


class OrbitSpec(_OrbitFields):
    """A flag manifold: root system, parabolic subset, and a regular weight.

    ``parabolic`` holds 1-based indices of the simple roots in S_P.  The
    weight must pair to zero with those roots and strictly positively with
    the rest; every construction checks this, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, root_system: RootSystem, parabolic: tuple, weight: Vector):
        rs = root_system
        pset = _parabolic_set(rs, parabolic)
        if len(weight) != rs.dim:
            raise InvalidShape(
                f"weight has {len(weight)} coordinates, expected {rs.dim}")
        for a in range(rs.rank):
            value = pairing(weight, rs.simple_roots[a])
            if (a + 1) in pset:
                if value != 0:
                    raise NotRegular(
                        f"weight must pair to 0 with simple root {a + 1}, got {value}")
            elif value <= 0:
                raise NotRegular(
                    f"weight must pair positively with simple root {a + 1}, got {value}")
        return super().__new__(cls, root_system, parabolic, weight)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def make_orbit_spec(family: str, rank: int, parabolic, weight) -> OrbitSpec:
    rs = build_root_system(family, rank)
    return OrbitSpec(rs, tuple(sorted(parabolic)), tuple(Fraction(x) for x in weight))


def crossing_roots(rs: RootSystem, parabolic) -> tuple:
    """Positive roots outside R+_P: those pairing nonzero with rho_P, the
    sum of the w_a off S_P (none for S_P = S).  <rho_P, coroot(alpha)> sums
    the coordinates of coroot(alpha) off S_P over the simple coroots, all
    nonnegative for a positive root, so it vanishes exactly on R+_P."""
    weights = [w for a, w in enumerate(fundamental_weights(rs), start=1) if a not in parabolic]
    rho = [sum(w[t] for w in weights) for t in range(rs.dim)]
    return tuple(root for root in rs.positive_roots if pairing(rho, root))


def _monotone_sum(rs: RootSystem, parabolic) -> tuple:
    """The crossing roots, their sum (the monotone weight at kappa = 1, an
    integer vector) and its pairings with the simple roots in order, checked
    to be integers, 0 exactly on S_P and positive off it.  The indices are
    checked as ``OrbitSpec`` checks them."""
    pset = _parabolic_set(rs, parabolic)
    crossing = crossing_roots(rs, parabolic)
    total = tuple(map(sum, zip(*crossing))) or (0,) * rs.dim  # S_P = S: no crossing root
    values = [pairing(total, simple) for simple in rs.simple_roots]
    if any(v.denominator != 1 or (a in pset) != (v == 0) or v < 0
           for a, v in enumerate(values, start=1)):
        raise ComputeError(f"the monotone weight pairs to ({', '.join(map(str, values))}) "
                           "with the simple roots")
    return crossing, total, tuple(v.numerator for v in values)


def chern_numbers(spec: OrbitSpec) -> dict:
    """Pairings of the anticanonical weight with the crossing simple coroots,
    and their gcd N."""
    _, _, values = _monotone_sum(spec.root_system, spec.parabolic)
    numbers = {a: v for a, v in enumerate(values, start=1) if a not in spec.parabolic}
    return {"n": numbers, "N": gcd(*numbers.values())}


def monotone_weight(family: str, rank: int, parabolic, kappa=1) -> Vector:
    """The weight (1/kappa) * sum of crossing positive roots."""
    kappa = Fraction(kappa)
    if kappa <= 0:
        raise InvalidShape("kappa must be positive")
    _, total, _ = _monotone_sum(build_root_system(family, rank), tuple(parabolic))
    return tuple(Fraction(x) / kappa for x in total)


def is_monotone(spec: OrbitSpec):
    """The one value of n_a / <weight, coroot(alpha_a)> over the a off S_P,
    or None when there is none (S_P = S) or more than one."""
    rs = spec.root_system
    ratios = {Fraction(n_a) / pairing(spec.weight, rs.simple_roots[a - 1])
              for a, n_a in chern_numbers(spec)["n"].items()}
    return ratios.pop() if len(ratios) == 1 else None


def _un_value(lam) -> Fraction:
    """Closed-form oscillation bound of the regular unitary-group orbit of lam:
    half the sum of |lam_k - lam_{n-k+1}|, lam checked as for ``un_closed_form``."""
    lam = [Fraction(x) for x in lam]
    n = len(lam)
    if n < 2:
        raise InvalidShape("need at least two eigenvalues")
    for i in range(n - 1):
        if lam[i] == lam[i + 1]:
            raise NotRegular(f"entries {i + 1} and {i + 2} repeat: {lam[i]}")
        if lam[i] < lam[i + 1]:
            raise NotRegular("entries must be strictly decreasing")
    if n > 201:  # the guard that building A_{n-1} would meet
        raise TooLarge(f"rank {n - 1} exceeds the root-system guard of 200")
    return sum(abs(lam[k] - lam[n - 1 - k]) for k in range(n)) / 2


def un_closed_form(lam) -> tuple:
    """(``_un_value(lam)``, the matching full-flag orbit data), lam a sequence."""
    return _un_value(lam), make_orbit_spec("A", len(lam) - 1, (), lam)


# the command line's numbers: only ``orbit`` and ``un-capacity`` read them
def _parse_rational(text: str) -> Fraction:
    try:
        if "e" in text.lower():  # Fraction reads exponents; 1e5000 is too long to print
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse rational number {text!r}") from None


# a blank list is empty, and an empty entry in a list does not parse
def _parse_rationals(text: str):
    return [_parse_rational(part) for part in text.split(",")] if text.strip() else []


def _parse_indices(text: str):
    try:
        return tuple(int(p) for p in text.split(",")) if text.strip() else ()
    except ValueError:
        raise InputError(f"cannot parse index list {text!r}") from None
