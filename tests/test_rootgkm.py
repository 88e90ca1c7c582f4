import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from qeuler import rootgkm as rg
from qeuler.errors import (ComputeError, InvalidShape, NotRegular, TooLarge,
                           UnsupportedType)
from qeuler.grassmannian import GrassmannianRing
from test_golden_orbits import GROUPS as GOLDEN_GROUPS


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------

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
                         + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)])


@pytest.mark.parametrize("fam, rank", ROOT_COORDINATE_TYPES)
def test_root_coordinates_equal_dense_pairings(fam, rank):
    """Both coordinate tuples of every root, against a dense ``pairing``
    with every fundamental weight; the coroot rebuilt from the first."""
    rs = rg.build_root_system(fam, rank)
    weights = rg.fundamental_weights(rs)
    for root in rs.roots:
        co = tuple(rg.pairing(w, root) for w in weights)
        simple = tuple(co[a] * rg.dot(root, root) / rg.dot(s, s)
                       for a, s in enumerate(rs.simple_roots))
        assert rg.coroot_coordinates(rs, root) == co
        assert rg.simple_root_coordinates(rs, root) == simple
        assert tuple(sum((c * x for c, x in zip(co, column)), Fraction(0))
                     for column in zip(*map(rg.coroot, rs.simple_roots))) == rg.coroot(root)

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
    co = rg.coroot(root)
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


def test_fundamental_weight_duality():
    for fam, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        rs = rg.build_root_system(fam, rank)
        weights = rg.fundamental_weights(rs)
        for a in range(rank):
            for b in range(rank):
                value = rg.pairing(weights[a], rs.simple_roots[b])
                assert value == (1 if a == b else 0)


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


@pytest.mark.parametrize("fam, rank", GOLDEN_GROUPS)
def test_cosets_match_the_fundamental_weight_key(fam, rank):
    """Oracle on every parabolic of the golden file's groups: cosets keyed
    by w(sum of the fundamental weights off S_P), the first element of each
    in search order, and the coset of w0."""
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
            spec = rg.make_orbit_spec(fam, rank, parabolic,
                                      rg.monotone_weight(fam, rank, parabolic))
            reps = rg.weyl_cosets(spec)
            assert reps == list(first.values()), parabolic
            w0_index = rg._coset_skeleton(fam, rank, parabolic).w0_index
            assert reps[w0_index] == first[rg.act(w0, ref)], parabolic


def test_skeleton_rejects_a_reference_that_is_not_regular_for_exactly_p(monkeypatch):
    """A raised check, not an ``assert``: a reference pairing to nonzero on
    S_P, to 0 off it, or negatively with a simple root could have a
    stabilizer other than W_P, and so merge or split cosets."""
    build = rg._coset_skeleton.__wrapped__
    for parabolic, weight in (((), (1, 1, -2)), ((1,), (2, 0, -2)), ((2,), (-2, -2, 4)),
                              ((), (-2, 0, 2))):
        monkeypatch.setattr(rg, "monotone_weight", lambda *args, w=weight: w)
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


def test_monotone_weight_examples():
    lam = rg.monotone_weight("A", 3, (1, 3), 1)
    assert lam == (2, 2, -2, -2)
    spec = rg.make_orbit_spec("A", 3, (1, 3), lam)
    assert rg.is_monotone(spec) == 1

    lam = rg.monotone_weight("A", 1, (), 2)
    rs = rg.build_root_system("A", 1)
    assert rg.pairing(lam, rs.simple_roots[0]) == 1
    assert lam == (Fraction(1, 2), Fraction(-1, 2))


def test_is_monotone_detects_non_monotone():
    spec = rg.make_orbit_spec("A", 2, (), (5, 1, 0))
    assert rg.is_monotone(spec) is None
    spec2 = rg.make_orbit_spec("A", 2, (), (2, 0, -2))
    assert rg.is_monotone(spec2) == 1


def test_repeated_parabolic_indices_rejected():
    with pytest.raises(InvalidShape):
        rg.make_orbit_spec("A", 2, (1, 1), (1, 1, -2))


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
