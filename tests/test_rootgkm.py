import hashlib
import heapq
import random
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chevalley_c1_terms
from qeuler import rootgkm as rg
from qeuler import roots
from qeuler.cli import main
from qeuler.errors import (ComputeError, InvalidShape, NotRegular, TooLarge,
                           UnsupportedType)
from qeuler.grassmannian import GrassmannianRing
from test_golden_orbits import GROUPS as GOLDEN_GROUPS


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------

def coroot(root):
    """2 root / (root, root), with ``Fraction`` entries."""
    scale = Fraction(2) / rg.dot(root, root)
    return tuple(scale * x for x in root)


def test_positive_root_counts():
    assert len(rg.build_root_system("A", 2).positive_roots) == 3
    assert len(rg.build_root_system("C", 3).positive_roots) == 9
    assert len(rg.build_root_system("D", 4).positive_roots) == 12
    assert len(rg.build_root_system("B", 3).positive_roots) == 9


def test_simple_roots_span_positives():
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs = rg.build_root_system(fam, rank)
        for root in rs.positive_roots:
            coords = rg.simple_root_coordinates(rs, root)
            assert all(c.denominator == 1 and c >= 0 for c in coords)
            rebuilt = tuple(
                sum((coords[a] * rs.simple_roots[a][t] for a in range(rank)),
                    Fraction(0))
                for t in range(rs.dim)
            )
            assert rebuilt == root


ROOT_COORDINATE_TYPES = ([("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 7)]
                         + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(2, 7)])


@pytest.mark.parametrize("fam, rank", ROOT_COORDINATE_TYPES)
def test_root_coordinates_equal_dense_pairings(fam, rank):
    """Every root is a tuple of ``int``s.  Both coordinate tuples of every
    root, against a dense pairing 2 (w, root) / (root, root) with every
    fundamental weight; the coroot rebuilt from the first.  ``pairing``,
    which reads only the root's nonzero coordinates, agrees with the dense
    one, as a ``Fraction`` also on an integer weight."""
    rs = rg.build_root_system(fam, rank)
    weights = rg.fundamental_weights(rs)
    probe = tuple(3 * t - 4 for t in range(rs.dim))
    for root in rs.roots:
        assert type(root) is tuple and {type(x) for x in root} == {int}
        co = tuple(2 * rg.dot(w, root) / rg.dot(root, root) for w in weights)
        assert tuple(rg.pairing(w, root) for w in weights) == co
        value = rg.pairing(probe, root)
        assert type(value) is Fraction and value == 2 * rg.dot(probe, root) / rg.dot(root, root)
        simple = tuple(co[a] * rg.dot(root, root) / rg.dot(s, s)
                       for a, s in enumerate(rs.simple_roots))
        assert rg.coroot_coordinates(rs, root) == co
        assert rg.simple_root_coordinates(rs, root) == simple
        assert tuple(sum((c * x for c, x in zip(co, column)), Fraction(0))
                     for column in zip(*map(coroot, rs.simple_roots))) == coroot(root)

def test_unsupported_families_rejected():
    with pytest.raises(UnsupportedType):
        rg.build_root_system("E", 6)
    with pytest.raises(InvalidShape):
        rg.build_root_system("A", 0)
    with pytest.raises(InvalidShape):
        rg.build_root_system("D", 1)


def test_weyl_orders_match_closed_forms():
    for rank in range(1, 7):
        assert rg.weyl_order("A", rank) == factorial(rank + 1)
    for rank in (2, 3, 4):
        assert rg.weyl_order("B", rank) == 2**rank * factorial(rank)
        assert rg.weyl_order("C", rank) == 2**rank * factorial(rank)
    for rank in (4, 5):
        assert rg.weyl_order("D", rank) == 2**(rank - 1) * factorial(rank)


# Oracle: Weyl group elements as products of exact reflection matrices,
# s_alpha = 1 - alpha (x) coroot(alpha), multiplied along each word.

def reflection_matrix(root, dim):
    co = coroot(root)
    return tuple(
        tuple(Fraction(i == j) - root[i] * co[j] for j in range(dim))
        for i in range(dim))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0))
              for j in range(n))
        for i in range(n))


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def signed_permutation_matrix(w):
    """Column j holds w(e_j) = +-e_p."""
    n = len(w)
    return tuple(
        tuple(Fraction((x > 0) - (x < 0)) if abs(x) == p + 1 else Fraction(0)
              for x in w)
        for p in range(n))


@pytest.mark.parametrize("family,rank", (
    [("A", r) for r in range(1, 6)] + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)] + [("D", 4)]))
def test_signed_permutations_match_reflection_products(family, rank):
    rs = rg.build_root_system(family, rank)
    gens = [reflection_matrix(r, rs.dim) for r in rs.simple_roots]
    identity = tuple(tuple(Fraction(i == j) for j in range(rs.dim))
                     for i in range(rs.dim))
    probe = tuple(Fraction(3 * t + 1, t + 2) for t in range(rs.dim))
    # every word extends a word found earlier, so products build by prefix
    products = {(): identity}
    for w, word in rg.weyl_elements(family, rank):
        if word:
            products[word] = mat_mul(products[word[:-1]], gens[word[-1] - 1])
        assert signed_permutation_matrix(w) == products[word]
        assert rg.act(w, probe) == mat_vec(products[word], probe)


def test_non_signed_permutation_reflection_rejected():
    with pytest.raises(ComputeError):
        rg._reflection((Fraction(1), Fraction(1), Fraction(1)))


def test_root_coordinates_reject_non_roots():
    rs = rg.build_root_system("A", 2)
    with pytest.raises(InvalidShape):
        rg.simple_root_coordinates(rs, (1, 1, 1))


def test_root_coordinates_ask_only_their_own_system(monkeypatch):
    """Tripwire: the coordinates of B3 and of C3 come from the fundamental
    weights of that system alone, not from those of its dual."""
    asked = []
    weights = rg.fundamental_weights
    monkeypatch.setattr(rg, "fundamental_weights",
                        lambda rs: asked.append(rs.family) or weights(rs))
    rg._root_coordinates.cache_clear()
    for fam in ("B", "C"):
        rg._root_coordinates(fam, 3)
        assert asked == [fam]
        asked.clear()


def test_warm_fundamental_weights_lookup_hashes_no_fraction(monkeypatch):
    """Tripwire: a repeated ``fundamental_weights`` call hashes no
    ``Fraction``: the weights are closed forms, read from no cache keyed by
    the root system, which holds none."""
    systems = [rg.build_root_system(fam, rank) for fam, rank in (("A", 20), ("B", 4), ("D", 4))]
    for rs in systems:
        rg.fundamental_weights(rs)
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda self: calls.append(self) or fraction_hash(self))
    hash(rg.fundamental_weights(systems[1]))
    assert len(calls) == 4 * 4  # the counter sees hashes inside a tuple
    calls.clear()
    for rs in systems:
        assert rg.fundamental_weights(rs) == rg.fundamental_weights(rs)
    assert calls == []


def test_fundamental_weights_are_looked_up_by_family_and_rank():
    """Tripwire: a lookup hashes no root system, which would hash each of
    its roots (210 at A20)."""
    hashes = []

    class Counted(rg.RootSystem):
        def __hash__(self):
            hashes.append(self.rank)
            return super().__hash__()

    rs = rg.build_root_system("A", 20)
    assert rg.fundamental_weights(Counted(*rs)) == rg.fundamental_weights(rs)
    assert hashes == []


@pytest.mark.parametrize("fam, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_root_system_hashes_as_the_tuple_it_equals(fam, rank):
    rs = rg.build_root_system(fam, rank)
    assert tuple(rs) == rs
    assert hash(tuple(rs)) == hash(rs)
    assert tuple(rs) in {rs: 1}


def test_fundamental_weight_duality():
    """Every closed form pairs to delta with the simple coroots, and each
    A_r weight has coordinates summing to 0, so lies in the span of the
    simple roots.  Duality and span fix the weights, so this pins the small
    cases A1, B1, C1, D2 and D3 as well."""
    systems = [(fam, rank) for fam in "ABCD" for rank in range(1 + (fam == "D"), 13)]
    for fam, rank in systems + [(fam, 60) for fam in "ABCD"]:
        rs = rg.build_root_system(fam, rank)
        weights = rg.fundamental_weights(rs)
        assert len(weights) == rank and {len(w) for w in weights} == {rs.dim}
        for a in range(rank):
            for b in range(rank):
                value = rg.pairing(weights[a], rs.simple_roots[b])
                assert value == (1 if a == b else 0)
            if fam == "A":
                assert sum(weights[a]) == 0


def test_longest_element_is_unique_and_longest():
    w0, word = rg.longest_element("A", 3)
    assert len(word) == 6  # number of positive roots
    assert w0 == (4, 3, 2, 1)  # reverses the coordinates
    w0, word = rg.longest_element("B", 2)
    assert len(word) == 4
    assert w0 == (-1, -2)  # acts as -1


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------

def test_coset_counts():
    spec = rg.make_orbit_spec("A", 3, (1, 3), rg.monotone_weight("A", 3, (1, 3)))
    assert len(rg.weyl_cosets(spec)) == 6
    spec = rg.make_orbit_spec("A", 2, (), rg.monotone_weight("A", 2, ()))
    assert len(rg.weyl_cosets(spec)) == 6
    spec = rg.make_orbit_spec("B", 2, (), rg.monotone_weight("B", 2, ()))
    assert len(rg.weyl_cosets(spec)) == 8


def test_cosets_include_identity_and_longest():
    spec = rg.make_orbit_spec("A", 3, (1, 3), rg.monotone_weight("A", 3, (1, 3)))
    reps = rg.weyl_cosets(spec)
    assert reps[0][1] == ()
    w0, _ = rg.longest_element("A", 3)
    w0_point = rg.act(w0, spec.weight)
    assert any(rg.act(w, spec.weight) == w0_point for w, _ in reps)


def coset_reps(fam, rank, parabolic):
    """``weyl_cosets`` of the parabolic, at its monotone weight, as a tuple:
    the skeleton keeps the words, and this rebuilds the permutations."""
    weight = rg.monotone_weight(fam, rank, parabolic)
    return tuple(rg.weyl_cosets(rg.make_orbit_spec(fam, rank, parabolic, weight)))


# every group of rank <= 5 but B5 and C5, the golden file's groups among them
COSET_GROUPS = ([("A", r) for r in range(1, 6)] + [(f, r) for f in "BC" for r in (2, 3, 4)]
                + [("D", r) for r in range(2, 6)])


@pytest.mark.parametrize("fam, rank", COSET_GROUPS)
def test_cosets_match_the_fundamental_weight_key(fam, rank):
    """Oracle on every parabolic: the skeleton's representatives are the
    first element of each coset in ``weyl_elements``' order, the cosets
    keyed by w(sum of the fundamental weights off S_P), as
    ``chevalley_c1_terms`` picks them; the last is the coset of w0."""
    rs = rg.build_root_system(fam, rank)
    weights = rg.fundamental_weights(rs)
    w0, _ = rg.longest_element(fam, rank)
    for size in range(rank + 1):
        for parabolic in combinations(range(1, rank + 1), size):
            ref = tuple(sum((weights[a - 1][t] for a in range(1, rank + 1)
                             if a not in parabolic), Fraction(0)) for t in range(rs.dim))
            first = {}
            for w, word in rg.weyl_elements(fam, rank):
                first.setdefault(rg.act(w, ref), (w, word))
            reps = coset_reps(fam, rank, parabolic)
            assert reps == tuple(first.values()), parabolic
            assert reps[-1] == first[rg.act(w0, ref)], parabolic


def right_multiplication_closure(family, rank):
    """Reference for ``weyl_elements``: breadth first over w . s_i, the
    level outside the generators, each element kept with its first word."""
    rs = rg.build_root_system(family, rank)
    gens = [rg._reflection(r) for r in rs.simple_roots]
    start = tuple(range(1, rs.dim + 1))
    seen, order, frontier = {start}, [(start, ())], [(start, ())]
    while frontier:
        new_frontier = []
        for w, word in frontier:
            for i, g in enumerate(gens, start=1):
                # (w . g)(e_j) = w(g(e_j))
                nxt = tuple(w[x - 1] if x > 0 else -w[-x - 1] for x in g)
                if nxt not in seen:
                    seen.add(nxt)
                    new_frontier.append((nxt, word + (i,)))
        order.extend(new_frontier)
        frontier = new_frontier
    return tuple(order)


@pytest.mark.parametrize("fam, rank", [("A", r) for r in range(1, 7)]
                         + [(f, r) for f in "BCD" for r in range(2, 6)])
def test_weyl_elements_match_the_right_multiplication_closure(fam, rank):
    assert rg.weyl_elements(fam, rank) == right_multiplication_closure(fam, rank)


def test_coset_skeleton_does_not_enumerate_the_weyl_group(monkeypatch):
    """P^12 = A12 / P with S_P = {2, ..., 12} has 13 cosets, s_k ... s_1 for
    k = 0..12, found without listing the 13! elements of W."""
    def refuse(*args):
        raise AssertionError("the coset skeleton enumerated W")
    monkeypatch.setattr(rg, "weyl_elements", refuse)
    sk = rg._coset_skeleton.__wrapped__("A", 12, tuple(range(2, 13)))
    assert sk.words == tuple(tuple(range(k, 0, -1)) for k in range(13))
    assert len(sk.crossing) == 12


def test_search_order_is_pinned():
    """sha256 over the repr of ``weyl_elements`` and of every skeleton of
    every parabolic, ranks <= 4: a search that reorders elements, cosets,
    words or germs changes it."""
    digest = hashlib.sha256()
    for fam, rank in [("A", r) for r in range(1, 5)] + [(f, r) for f in "BCD" for r in (2, 3, 4)]:
        digest.update(repr(rg.weyl_elements(fam, rank)).encode())
        for parabolic in every_parabolic(fam, rank):
            sk = rg._coset_skeleton(fam, rank, parabolic)
            digest.update(repr((coset_reps(fam, rank, parabolic), sk.crossing, sk.degrees,
                                bytes(sk.neighbors), bytes(sk.starts))).encode())
    assert digest.hexdigest() == (
        "ca83b8a1120738a434bf89ed61849ace99699cecf79068bcc73486dbdbe48763")


def test_skeleton_rejects_a_reference_that_is_not_regular_for_exactly_p(monkeypatch):
    """A raised check, not an ``assert``: a reference pairing to nonzero on
    S_P, to 0 off it, or negatively with a simple root could have a
    stabilizer other than W_P, and so merge or split cosets.  The reference
    is the sum of the crossing roots, so a one-vector list sets it."""
    build = rg._coset_skeleton.__wrapped__
    for parabolic, weight in (((), (1, 1, -2)), ((1,), (2, 0, -2)), ((2,), (-2, -2, 4)),
                              ((), (-2, 0, 2))):
        monkeypatch.setattr(roots, "crossing_roots", lambda *args, w=weight: (w,))
        with pytest.raises(ComputeError, match="monotone weight pairs to"):
            build("A", 2, parabolic)


# ---------------------------------------------------------------------------
# chern numbers and monotone weights
# ---------------------------------------------------------------------------

def test_chern_numbers_g24_slot():
    spec = rg.make_orbit_spec("A", 3, (1, 3), rg.monotone_weight("A", 3, (1, 3)))
    numbers = rg.chern_numbers(spec)
    assert numbers == {"n": {2: 4}, "N": 4}


def test_chern_numbers_full_flag_a2():
    spec = rg.make_orbit_spec("A", 2, (), rg.monotone_weight("A", 2, ()))
    numbers = rg.chern_numbers(spec)
    assert numbers["n"] == {1: 2, 2: 2}
    assert numbers["N"] == 2


def test_chern_numbers_projective_space():
    # S_P = S minus the first node gives projective (rank)-space, N = rank + 1
    for rank in range(2, 8):
        parabolic = tuple(range(2, rank + 1))
        spec = rg.make_orbit_spec(
            "A", rank, parabolic, rg.monotone_weight("A", rank, parabolic))
        assert rg.chern_numbers(spec)["N"] == rank + 1


def test_chern_numbers_match_grassmannian_rings():
    for n in range(2, 9):
        for k in range(1, n):
            parabolic = tuple(i for i in range(1, n) if i != k)
            spec = rg.make_orbit_spec(
                "A", n - 1, parabolic,
                rg.monotone_weight("A", n - 1, parabolic))
            assert rg.chern_numbers(spec)["N"] == n
    assert GrassmannianRing(2, 4).chern_number == 4
    assert GrassmannianRing(3, 7).chern_number == 7


@pytest.mark.parametrize("fam, ranks", [("A", range(1, 6)), ("B", range(2, 5)),
                                        ("C", range(2, 5)), ("D", range(4, 6))])
def test_crossing_roots_are_the_roots_with_support_off_p(fam, ranks):
    """The rho_P criterion against the definition: a positive root is
    outside R+_P iff its simple-root coordinates are nonzero off S_P, on
    every parabolic subset, S_P = S (no crossing roots) included."""
    for rank in ranks:
        rs = rg.build_root_system(fam, rank)
        for size in range(rank + 1):
            for parabolic in combinations(range(1, rank + 1), size):
                expected = tuple(
                    root for root in rs.positive_roots
                    if any(c and a not in parabolic for a, c in
                           enumerate(rg.simple_root_coordinates(rs, root), start=1)))
                assert rg.crossing_roots(rs, parabolic) == expected, (rank, parabolic)


def test_chern_numbers_at_high_rank_skip_the_coordinate_table():
    """G(k, n) as an A_{n-1} orbit has n_k = N = n, for every third n up to
    61 and k the first, middle and last node, and the full flags of A60,
    B30, C30 and D30 have n_a = N = 2.  Tripwire: neither ``chern_numbers``
    nor ``monotone_weight`` builds the table of coordinates of every root."""
    rg._root_coordinates.cache_clear()
    for n in range(61, 1, -3):
        for k in sorted({1, n // 2, n - 1}):
            # e_1 + ... + e_k pairs to 1 with the k-th simple root, 0 elsewhere
            spec = rg.make_orbit_spec("A", n - 1, [a for a in range(1, n) if a != k],
                                      [1] * k + [0] * (n - k))
            expected = GrassmannianRing(k, n).chern_number if k in (1, n - 1) else n
            assert rg.chern_numbers(spec) == {"n": {k: expected}, "N": expected}, (k, n)
    for fam, rank in (("A", 60), ("B", 30), ("C", 30), ("D", 30)):
        spec = rg.make_orbit_spec(fam, rank, (), rg.monotone_weight(fam, rank, ()))
        assert rg.chern_numbers(spec) == {"n": dict.fromkeys(range(1, rank + 1), 2), "N": 2}
    assert rg._root_coordinates.cache_info().currsize == 0


def test_monotone_weight_examples():
    lam = rg.monotone_weight("A", 3, (1, 3), 1)
    assert lam == (2, 2, -2, -2)
    spec = rg.make_orbit_spec("A", 3, (1, 3), lam)
    assert rg.is_monotone(spec) == 1

    lam = rg.monotone_weight("A", 1, (), 2)
    rs = rg.build_root_system("A", 1)
    assert rg.pairing(lam, rs.simple_roots[0]) == 1
    assert lam == (Fraction(1, 2), Fraction(-1, 2))


@pytest.mark.parametrize("fam, ranks", [("A", range(1, 6)), ("B", range(1, 6)),
                                        ("C", range(1, 6)), ("D", range(2, 6))])
def test_monotone_sum_adds_the_crossing_roots_coordinate_by_coordinate(fam, ranks):
    """The column sums of the crossing roots equal the per-coordinate sums,
    ``int`` for ``int``, on every parabolic; for S_P = S there is no
    crossing root and the sum is the zero vector of the root system."""
    for rank in ranks:
        rs = rg.build_root_system(fam, rank)
        for size in range(rank + 1):
            for parabolic in combinations(range(1, rank + 1), size):
                crossing, total, _ = rg._monotone_sum(rs, parabolic)
                expected = tuple(sum(r[t] for r in crossing) for t in range(rs.dim))
                assert total == expected and all(type(x) is int for x in total), parabolic
    assert rg.monotone_weight("A", 3, (1, 2, 3)) == (0, 0, 0, 0)


def test_is_monotone_detects_non_monotone():
    spec = rg.make_orbit_spec("A", 2, (), (5, 1, 0))
    assert rg.is_monotone(spec) is None
    spec2 = rg.make_orbit_spec("A", 2, (), (2, 0, -2))
    assert rg.is_monotone(spec2) == 1
    # S_P = S: no Chern number, so no kappa
    assert rg.is_monotone(rg.make_orbit_spec("A", 2, (1, 2), (1, 1, 1))) is None


def test_repeated_parabolic_indices_rejected():
    with pytest.raises(InvalidShape):
        rg.make_orbit_spec("A", 2, (1, 1), (1, 1, -2))


@pytest.mark.parametrize("parabolic, message", [
    ((5,), "parabolic index 5 out of range 1..3"),
    ((0, 2), "parabolic index 0 out of range 1..3"),
    ((1, 1), "parabolic indices (1, 1) repeat"),
])
def test_monotone_weight_checks_parabolic_indices_as_orbit_spec_does(parabolic, message):
    """``monotone_weight((5,))`` once gave the full-flag weight (3, 1, -1, -3)
    and ``(1, 1)`` the weight of ``(1,)``."""
    with pytest.raises(InvalidShape) as from_weight:
        rg.monotone_weight("A", 3, parabolic)
    with pytest.raises(InvalidShape) as from_spec:
        rg.OrbitSpec(rg.build_root_system("A", 3), parabolic, (3, 1, -1, -3))
    assert str(from_weight.value) == str(from_spec.value) == message


def test_irregular_weights_rejected():
    with pytest.raises(NotRegular) as info:
        rg.make_orbit_spec("A", 2, (), (1, 1, 0))
    assert "simple root 1" in str(info.value)
    with pytest.raises(NotRegular) as info:
        rg.make_orbit_spec("A", 3, (1,), (1, 0, 2, 0))
    assert "simple root 1" in str(info.value)


# ---------------------------------------------------------------------------
# fixed-point graphs
# ---------------------------------------------------------------------------

def test_gkm_graph_a1():
    spec = rg.make_orbit_spec("A", 1, (), (1, -1))
    graph = rg.gkm_graph(spec)
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1
    assert graph.edges[0].weight == 2


def test_gkm_graph_full_flag_a2():
    spec = rg.make_orbit_spec("A", 2, (), (2, 0, -2))
    graph = rg.gkm_graph(spec)
    assert len(graph.vertices) == 6
    assert graph.vertices[5] == rg.GkmVertex(5, (1, 2, 1))
    assert rg.GkmVertex._fields == ("index", "word")
    assert len(graph.edges) == 9
    assert graph.germs_per_vertex == 3
    assert all(e.weight > 0 for e in graph.edges)


def test_gkm_graphs_are_connected():
    specs = [
        rg.make_orbit_spec("B", 2, (), rg.monotone_weight("B", 2, ())),
        rg.make_orbit_spec("C", 3, (1, 3), rg.monotone_weight("C", 3, (1, 3))),
        rg.make_orbit_spec("D", 4, (2, 3, 4), rg.monotone_weight("D", 4, (2, 3, 4))),
    ]
    for spec in specs:
        graph = rg.gkm_graph(spec)
        assert all(e.weight > 0 for e in graph.edges)
        seen = {0}
        frontier = [0]
        adjacency = {}
        for e in graph.edges:
            adjacency.setdefault(e.source, []).append(e.target)
            adjacency.setdefault(e.target, []).append(e.source)
        while frontier:
            v = frontier.pop()
            for w in adjacency.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen == {v.index for v in graph.vertices}


def test_gkm_graph_johnson(g24_algebra):
    spec = rg.make_orbit_spec("A", 3, (1, 3), (2, 2, -2, -2))
    graph = rg.gkm_graph(spec)
    assert len(graph.vertices) == 6
    assert len(graph.edges) == 12
    assert graph.germs_per_vertex == 4
    assert all(e.weight == 4 for e in graph.edges)
    degrees = {v.index: 0 for v in graph.vertices}
    for e in graph.edges:
        degrees[e.source] += 1
        degrees[e.target] += 1
    assert all(d == 4 for d in degrees.values())


def every_parabolic(fam, rank):
    for size in range(rank + 1):
        yield from combinations(range(1, rank + 1), size)


@pytest.mark.parametrize("fam, rank", GOLDEN_GROUPS)
def test_germ_table_is_symmetric_and_matches_a_rebuild(fam, rank):
    """On every parabolic of the golden file's groups: (v, r) is in row u of
    the germ table iff (u, r) is in row v; each row is sorted; the table
    equals one rebuilt from ``act`` and ``_reflection``, with u . s_r found
    by the fundamental-weight key; and ``gkm_graph``'s edges are that
    rebuild's vertex pairs, each with its cheapest germ, first root among
    equals."""
    rs = rg.build_root_system(fam, rank)
    weights = rg.fundamental_weights(rs)
    for parabolic in every_parabolic(fam, rank):
        sk = rg._coset_skeleton(fam, rank, parabolic)
        rows = [list(rg._germs(sk, u)) for u in range(len(sk.words))]
        assert all(row == sorted(set(row)) for row in rows), parabolic
        table = {(u, v, r) for u, row in enumerate(rows) for v, r in row}
        assert table == {(v, u, r) for u, v, r in table}, parabolic

        ref = tuple(sum((weights[a - 1][t] for a in range(1, rank + 1)
                         if a not in parabolic), Fraction(0)) for t in range(rs.dim))
        reps = coset_reps(fam, rank, parabolic)
        index = {rg.act(w, ref): u for u, (w, _) in enumerate(reps)}
        rebuilt = set()
        for u, (w, _) in enumerate(reps):
            for r, root in enumerate(sk.crossing):
                ws = tuple(w[x - 1] if x > 0 else -w[-x - 1] for x in rg._reflection(root))
                v = index[rg.act(ws, ref)]
                rebuilt |= {(u, v, r), (v, u, r)}
        assert table == rebuilt, parabolic

        weight = rg.monotone_weight(fam, rank, parabolic)
        spec = rg.make_orbit_spec(fam, rank, parabolic, weight)
        cheapest = {}
        for u, v, r in rebuilt:
            if u < v:
                cand = (rg.pairing(weight, sk.crossing[r]), r)
                cheapest[u, v] = min(cheapest.get((u, v), cand), cand)
        assert [(e.source, e.target, e.root, e.weight) for e in rg.gkm_graph(spec).edges] == [
            (u, v, sk.crossing[r], cost) for (u, v), (cost, r) in sorted(cheapest.items())
        ], parabolic


def strongly_connected(n, arrows):
    """True iff the arrows (u, v) among 0..n-1 lead from 0 to every vertex
    and from every vertex to 0 (one search each way)."""
    for pairs in (arrows, [(v, u) for u, v in arrows]):
        out = {}
        for u, v in pairs:
            out.setdefault(u, []).append(v)
        reached, stack = {0}, [0]
        while stack:
            for v in out.get(stack.pop(), ()):
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        if len(reached) < n:
            return False
    return True


def test_first_chern_operator_is_irreducible_at_q1_on_every_parabolic():
    """The paper's Perron-Frobenius certificate from root data: on every
    parabolic with S_P != S of A1-A4, B2-B4, C2-C4 and D4, c_1 * has positive
    integer coefficients and its graph is strongly connected at q = 1, so its
    Perron root is simple; at q = 0 only the classical terms are left, which
    raise the length, and the graph is strongly connected on none."""
    at_q1 = at_q0 = 0
    for fam, rank in ([("A", r) for r in range(1, 5)] + [("B", r) for r in (2, 3, 4)]
                      + [("C", r) for r in (2, 3, 4)] + [("D", 4)]):
        for parabolic in every_parabolic(fam, rank):
            if len(parabolic) == rank:
                continue
            n, terms = chevalley_c1_terms(fam, rank, parabolic)
            assert all(c.denominator == 1 and c > 0 for _, _, c, _ in terms), parabolic
            at_q1 += strongly_connected(n, [(u, v) for u, v, _, _ in terms])
            at_q0 += strongly_connected(n, [(u, v) for u, v, _, quantum in terms if not quantum])
    assert (at_q1, at_q0) == (91, 0)


# ---------------------------------------------------------------------------
# capacity bounds
# ---------------------------------------------------------------------------

def test_bound_single_edge():
    spec = rg.make_orbit_spec("A", 1, (), (1, -1))
    result = rg.hz_upper_bound(spec)
    assert result.bound == 2
    assert len(result.chain) == 1
    assert rg.brute_force_bound(spec) == 2


def test_bound_u3_example():
    value, spec = rg.un_closed_form([3, 1, 0])
    assert value == 3
    result = rg.hz_upper_bound(spec)
    assert result.bound == 3
    assert rg.brute_force_bound(spec) == 3


def test_bound_johnson_graph():
    spec = rg.make_orbit_spec("A", 3, (1, 3), (2, 2, -2, -2))
    result = rg.hz_upper_bound(spec)
    assert result.bound == 8
    assert len(result.chain) == 2
    assert rg.brute_force_bound(spec) == 8


def test_closed_form_examples():
    assert rg.un_closed_form([3, 1, 0])[0] == 3
    assert rg.un_closed_form([1, 0])[0] == 1
    assert rg.un_closed_form([5, 3, 1, -1])[0] == 8
    assert rg.un_closed_form([Fraction(1, 2), 0])[0] == Fraction(1, 2)


def test_closed_form_rejects_irregular():
    with pytest.raises(NotRegular):
        rg.un_closed_form([3, 3, 1])
    with pytest.raises(NotRegular):
        rg.un_closed_form([1, 2, 3])
    with pytest.raises(InvalidShape):
        rg.un_closed_form([5])


def test_full_flag_a3_closed_form_and_brute_force():
    value, spec = rg.un_closed_form([3, 2, 1, 0])
    assert value == 4
    assert rg.hz_upper_bound(spec).bound == 4
    assert rg.brute_force_bound(spec) == 4


def test_brute_force_guard():
    _, spec = rg.un_closed_form([5, 4, 3, 2, 1, 0])
    with pytest.raises(TooLarge):
        rg.brute_force_bound(spec)


def test_brute_force_agrees_on_random_a2():
    rng = random.Random(5150)
    for _ in range(10):
        vals = sorted(rng.sample(range(-9, 10), 3), reverse=True)
        lam = [Fraction(v) for v in vals]
        _, spec = rg.un_closed_form(lam)
        assert rg.brute_force_bound(spec) == rg.hz_upper_bound(spec).bound


def test_bound_invariant_under_translation():
    base = [Fraction(4), Fraction(1), Fraction(-2)]
    shifted = [x + 7 for x in base]
    assert rg.un_closed_form(base)[0] == rg.un_closed_form(shifted)[0]
    b1 = rg.hz_upper_bound(rg.un_closed_form(base)[1]).bound
    b2 = rg.hz_upper_bound(rg.un_closed_form(shifted)[1]).bound
    assert b1 == b2


def test_bound_scales_linearly():
    base = [Fraction(4), Fraction(1), Fraction(-2), Fraction(-5)]
    t = Fraction(3, 2)
    scaled = [x * t for x in base]
    b1 = rg.hz_upper_bound(rg.un_closed_form(base)[1]).bound
    b2 = rg.hz_upper_bound(rg.un_closed_form(scaled)[1]).bound
    assert b2 == t * b1


def test_chain_weights_sum_to_bound():
    _, spec = rg.un_closed_form([9, 4, 2, 0])
    result = rg.hz_upper_bound(spec)
    assert sum((e.weight for e in result.chain), Fraction(0)) == result.bound


def fraction_dijkstra(spec):
    """Reference for ``hz_upper_bound``: Dijkstra in ``Fraction`` arithmetic
    over ``gkm_graph``'s merged edges, with the same tie break (distance,
    fewest edges, earliest parent)."""
    graph = rg.gkm_graph(spec)
    # the coset of w0: the weight is regular for S_P, so its image keys cosets
    w0, _ = rg.longest_element(spec.root_system.family, spec.root_system.rank)
    target = next(u for u, (w, _) in enumerate(rg.weyl_cosets(spec))
                  if rg.act(w, spec.weight) == rg.act(w0, spec.weight))
    adjacency = {}
    for e_idx, e in enumerate(graph.edges):
        adjacency.setdefault(e.source, []).append(e_idx)
        adjacency.setdefault(e.target, []).append(e_idx)
    best = {0: (Fraction(0), 0, None, None)}
    heap = [(Fraction(0), 0, 0)]
    done = set()
    while heap:
        d, n_edges, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == target:
            break
        for e_idx in adjacency.get(u, ()):
            edge = graph.edges[e_idx]
            v = edge.target if edge.source == u else edge.source
            cand = (d + edge.weight, n_edges + 1, u, e_idx)
            if v not in done and (v not in best or cand < best[v]):
                best[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    chain, node = [], target
    while node != 0:
        _, _, node, e_idx = best[node]
        chain.append(graph.edges[e_idx])
    chain.reverse()
    degree = tuple(sum(e.degree[t] for e in chain)
                   for t in range(len(graph.free_simple_indices)))
    return rg.CapacityBound(best[target][0], tuple(chain), degree)


def weight_from_pairings(fam, rank, coeffs):
    """sum_a c_a * omega_a, the weight whose simple-coroot pairings are c."""
    rs = rg.build_root_system(fam, rank)
    omegas = rg.fundamental_weights(rs)
    return tuple(sum((c * w[t] for c, w in zip(coeffs, omegas)), Fraction(0))
                 for t in range(rs.dim))


def assert_bound_matches_reference(fam, rank, parabolic, coeffs):
    spec = rg.make_orbit_spec(fam, rank, parabolic, weight_from_pairings(fam, rank, coeffs))
    result = rg.hz_upper_bound(spec)
    assert tuple(result) == tuple(fraction_dijkstra(spec)), (fam, rank, parabolic, coeffs)
    return result


def non_integral_pairings(rng, rank, parabolic):
    """Seeded c_a, 0 on S_P and a positive non-integer off it, so L > 1."""
    coeffs = []
    for a in range(1, rank + 1):
        den = rng.choice((2, 3, 4, 5))
        coeffs.append(Fraction(0) if a in parabolic
                      else Fraction(rng.randint(0, 4) * den + rng.randint(1, den - 1), den))
    return coeffs


@pytest.mark.parametrize("fam, rank", GOLDEN_GROUPS)
def test_integer_dijkstra_matches_a_fraction_reference(fam, rank):
    """The whole ``CapacityBound``, chain edges included, against the
    reference on every parabolic of the golden file's groups, at seeded
    rational pairings and at the monotone weight, where parallel germs tie."""
    rng = random.Random(1807 + rank + 10 * "ABCD".index(fam))
    for parabolic in every_parabolic(fam, rank):
        assert_bound_matches_reference(fam, rank, parabolic,
                                       non_integral_pairings(rng, rank, parabolic))
        spec = rg.make_orbit_spec(fam, rank, parabolic, rg.monotone_weight(fam, rank, parabolic))
        assert tuple(rg.hz_upper_bound(spec)) == tuple(fraction_dijkstra(spec)), parabolic


@pytest.mark.parametrize("fam, rank", [("A", 5), ("B", 4), ("C", 4), ("D", 4)])
def test_integer_dijkstra_matches_the_reference_past_the_brute_force_guard(fam, rank):
    rng = random.Random(4711 + rank)
    for _ in range(4):
        assert_bound_matches_reference(fam, rank, (), non_integral_pairings(rng, rank, ()))


def test_integer_dijkstra_uses_germs_from_both_ends():
    """A3 modulo s3 at c = (1/3, 5/2, 0): the cheapest chain steps along
    e1 - e3, a germ seen only from the far end of its edge."""
    result = assert_bound_matches_reference(
        "A", 3, (3,), (Fraction(1, 3), Fraction(5, 2), Fraction(0)))
    roots = [tuple(map(int, e.root)) for e in result.chain]
    assert (1, 0, -1, 0) in roots and (1, 0, 0, -1) not in roots


def test_integer_dijkstra_reads_only_the_simple_pairings(monkeypatch):
    """On the B4 full flag ``hz_upper_bound`` builds no ``gkm_graph`` and
    calls ``pairing`` at most rank times."""
    spec = rg.make_orbit_spec("B", 4, (), rg.monotone_weight("B", 4, ()))
    expected = rg.hz_upper_bound(spec)
    calls = {"pairing": 0, "gkm_graph": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(rg, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(rg, name, counted)
    assert rg.hz_upper_bound(spec) == expected
    assert calls["gkm_graph"] == 0
    assert 0 < calls["pairing"] <= 4


def tuple_label_dijkstra(spec):
    """Reference for ``hz_upper_bound``'s loop: the same search on the same
    skeleton and integer weights, with each label the tuple (distance,
    edges, parent, root index) and each heap key (distance, edges, v), whose
    order is the tie break the packed ints must keep."""
    rs = spec.root_system
    sk = rg._coset_skeleton(rs.family, rs.rank, spec.parabolic)
    c = [rg.pairing(spec.weight, rs.simple_roots[a - 1]) for a in sk.free]
    scale = lcm(*(x.denominator for x in c))
    weights = [int(sum(x * scale * d for x, d in zip(c, degree))) for degree in sk.degrees]
    source, target = 0, len(sk.words) - 1
    best = {source: (0, 0, None, None)}
    heap = [(0, 0, source)]
    done = set()
    while heap:
        d, n_edges, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == target:
            break
        for v, r in rg._germs(sk, u):
            if v in done:
                continue
            cand = (d + weights[r], n_edges + 1, u, r)
            if v not in best or cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    chain, node = [], target
    while node != source:
        parent, r = best[node][2:]
        chain.append(rg.GkmEdge(min(parent, node), max(parent, node), sk.crossing[r],
                                Fraction(weights[r], scale), sk.degrees[r]))
        node = parent
    chain.reverse()
    degree = tuple(sum(e.degree[t] for e in chain) for t in range(len(sk.free)))
    return rg.CapacityBound(Fraction(best[target][0], scale), tuple(chain), degree)


# every group of rank <= 4
RANK_4_GROUPS = [(f, r) for f in "ABC" for r in range(1, 5)] + [("D", r) for r in (2, 3, 4)]


@pytest.mark.parametrize("fam, rank", RANK_4_GROUPS)
def test_packed_labels_match_the_tuple_label_reference(fam, rank):
    """The whole ``CapacityBound`` on every parabolic, at the monotone
    weight, where parallel germs and whole chains tie, at small integer
    pairings, which tie often, and at non-integral ones."""
    rng = random.Random(35 + rank + 10 * "ABCD".index(fam))
    for parabolic in every_parabolic(fam, rank):
        integral = [0 if a in parabolic else rng.randint(1, 3) for a in range(1, rank + 1)]
        for weight in (rg.monotone_weight(fam, rank, parabolic),
                       weight_from_pairings(fam, rank, integral),
                       weight_from_pairings(fam, rank,
                                            non_integral_pairings(rng, rank, parabolic))):
            spec = rg.make_orbit_spec(fam, rank, parabolic, weight)
            assert rg.hz_upper_bound(spec) == tuple_label_dijkstra(spec), (parabolic, weight)


@pytest.mark.parametrize("fam, rank, coeffs", [
    ("A", 5, [1] * 5), ("D", 5, [1] * 5), ("A", 5, non_integral_pairings(random.Random(53), 5, ())),
    ("D", 5, non_integral_pairings(random.Random(54), 5, ())),
    ("A", 6, non_integral_pairings(random.Random(55), 6, ())),
])
def test_packed_labels_match_the_tuple_label_reference_on_large_full_flags(fam, rank, coeffs):
    """Full flags of 720 to 5,040 cosets, past the brute-force guard."""
    spec = rg.make_orbit_spec(fam, rank, (), weight_from_pairings(fam, rank, coeffs))
    assert rg.hz_upper_bound(spec) == tuple_label_dijkstra(spec)


def test_bound_is_zero_when_the_parabolic_is_everything(capsys):
    """S_P = S: one coset, no crossing root, so the label radix K is 1."""
    spec = rg.make_orbit_spec("A", 3, (1, 2, 3), (0, 0, 0, 0))
    assert rg.hz_upper_bound(spec) == rg.CapacityBound(0, (), ())
    assert tuple_label_dijkstra(spec) == rg.CapacityBound(0, (), ())
    assert main(["orbit", "--family", "A", "--rank", "3", "--parabolic", "1,2,3",
                 "hz-bound"]) == 0
    assert capsys.readouterr().out == "0\n"


def fraction_sum_pairing(weight, root):
    """Reference for ``pairing``: the sum of ``Fraction`` terms."""
    num, norm = Fraction(0), 0
    for t, x in enumerate(root):
        if x:
            num += weight[t] * x
            norm += x * x
    return 2 * num / norm


FRACTIONS = st.builds(Fraction, st.integers(-1200, 1200), st.integers(1, 30))
COORDINATES = {
    "int": st.integers(-40, 40),
    "Fraction": FRACTIONS,
    "mixed": st.one_of(st.integers(-40, 40), FRACTIONS),
}


PAIRING_GROUPS = [("A", r) for r in range(1, 5)] + [(f, r) for f in "BCD" for r in (2, 3, 4)]


@pytest.mark.parametrize("kind", COORDINATES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pairing_equals_the_fraction_sum_on_every_root(kind, data):
    """Every root of every group, weights of ``int``s, ``Fraction``s or both:
    the value is the term-by-term sum, and always a ``Fraction``, whose
    ``numerator`` and ``denominator`` the skeleton and the monotone sum read."""
    for fam, rank in PAIRING_GROUPS:
        rs = rg.build_root_system(fam, rank)
        weight = tuple(data.draw(st.lists(COORDINATES[kind], min_size=rs.dim,
                                          max_size=rs.dim)))
        for root in rs.roots:
            value = rg.pairing(weight, root)
            assert type(value) is Fraction, (weight, root)
            assert value == fraction_sum_pairing(weight, root), (weight, root)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_dot_export_mentions_words_and_weights():
    spec = rg.make_orbit_spec("A", 2, (), (2, 0, -2))
    text = rg.to_dot(spec)
    assert text.startswith("graph gkm {")
    assert '"e"' in text
    assert '"s1 s2 s1"' in text
    assert "a1+a2 | 4" in text


def test_bound_json_shape():
    spec = rg.make_orbit_spec("A", 2, (), (3, 1, 0))
    result = rg.hz_upper_bound(spec)
    payload = rg.bound_to_json(spec, result)
    assert payload["bound"] == "3"
    assert payload["chain"][0]["from"] == "e"
    assert set(payload["degree"]) == {"a1", "a2"}
