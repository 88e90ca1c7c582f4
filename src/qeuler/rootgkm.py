"""Weyl groups, parabolic quotients, GKM graphs, and the minimum-area chain
bound for coadjoint orbits, over the root data of ``qeuler.roots``.

Every Weyl group element of a standard realization maps each coordinate
axis to an axis, up to sign, so an element is stored as a signed
permutation: a tuple ``w`` of signed 1-based indices with
``w(e_j) = +-e_p`` for ``w[j-1] = +-p``.  W and W / W_P are listed by one
breadth-first search over the orbit of a weight with stabilizer e or W_P,
lengths coming from the search depth.  Everything that depends only on the
group and the parabolic subset (coset representatives, a symmetric table of
edge germs, crossing roots and their integer coroot degrees) is computed
once and cached.  Coordinates over the simple roots and coroots come from
the fundamental weights, in closed form.  The graph of torus-fixed points
and invariant curves has one vertex per coset of the parabolic subgroup and
one edge germ per crossing positive root; the oscillation bound is a
minimum-weight path between the identity coset and the coset of the longest
element.  An edge's weight is linear in the weight's simple-coroot pairings
c_a, so Dijkstra's algorithm runs over the integers <c * L, degree>, L the
lcm of the denominators of c, each label and heap key one int whose order
is the tie break (fewest edges, then vertex order, then root order); only
the chain and the bound become rationals again.  The root data's names are
re-exported from ``qeuler.roots``: ``rootgkm.OrbitSpec is roots.OrbitSpec``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import ComputeError, InvalidShape, NotRegular, TooLarge
from .roots import (OrbitSpec, RootSystem, Vector, _monotone_sum, build_root_system,
                    fundamental_weights, pairing)
from .roots import (chern_numbers as chern_numbers, crossing_roots as crossing_roots,
                    is_monotone as is_monotone, make_orbit_spec as make_orbit_spec,
                    monotone_weight as monotone_weight, un_closed_form as un_closed_form)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def act(w: tuple, v: Vector) -> Vector:
    """Image of the vector ``v`` under the signed permutation ``w``."""
    out = list(v)
    for x, value in zip(w, v):
        out[abs(x) - 1] = value if x > 0 else -value
    return tuple(out)


@lru_cache(maxsize=None)
def _reflection(root: Vector) -> tuple:
    """The reflection in ``root`` as a signed permutation, in integers:
    |root|^2 s(e_j) = |root|^2 e_j - 2 root_j root must be +-|root|^2 e_p."""
    norm = sum(x * x for x in root)
    w = []
    for j, a in enumerate(root):
        image = [norm * (t == j) - 2 * a * x for t, x in enumerate(root)]
        if sorted(map(abs, image)) != [0] * (len(root) - 1) + [norm]:
            raise ComputeError(f"reflection in {root} is not a signed permutation")
        w.extend(x // norm * (t + 1) for t, x in enumerate(image) if x)
    return tuple(w)


def _orbit(family: str, rank: int, ref: Vector):
    """The Weyl group orbit of the integer vector ``ref``: per point, the
    (signed permutation, word) of the shortest element carrying ``ref``
    there, and the map point -> index, in search order.

    Breadth first over s_i . point, generators outside the level: a new point
    is first reached through the least left descent i of its shortest element,
    as s_i . w with word (i,) + word(w), so words are lexicographically least
    and points come by length, then word.  With W_P fixing ``ref`` these are
    the minimal coset representatives (Bjorner-Brenti, GTM 231, 2.4-2.5)."""
    gens = [_reflection(r) for r in build_root_system(family, rank).simple_roots]
    elements = [(tuple(range(1, len(ref) + 1)), ())]
    index = {ref: 0}
    level = [(ref, *elements[0])]
    while level:
        new_level = []
        for i, g in enumerate(gens, start=1):
            for point, w, word in level:
                # g(point) has +-point[j] at p for g[p] = +-(j + 1), g an involution
                image = tuple(point[x - 1] if x > 0 else -point[-x - 1] for x in g)
                if image not in index:
                    index[image] = len(elements)
                    # (s_i . w)(e_j) = g(w(e_j))
                    elements.append((tuple(g[x - 1] if x > 0 else -g[-x - 1] for x in w),
                                     (i,) + word))
                    new_level.append((image, *elements[-1]))
        level = new_level
    return elements, index


@lru_cache(maxsize=None)
def weyl_elements(family: str, rank: int):
    """All Weyl group elements as (signed permutation, shortest word), by
    length, then word: the orbit of (dim, ..., 1), which only e fixes."""
    dim = build_root_system(family, rank).dim
    return tuple(_orbit(family, rank, tuple(range(dim, 0, -1)))[0])


def weyl_order(family: str, rank: int) -> int:
    return len(weyl_elements(family, rank))


def longest_element(family: str, rank: int):
    """The unique element of maximal length, as (signed permutation, word):
    the last one, since the search lists elements by length."""
    elements = weyl_elements(family, rank)
    if len(elements) > 1 and len(elements[-2][1]) == len(elements[-1][1]):
        raise ComputeError(f"{family}{rank}: the longest element is not unique")
    return elements[-1]


@lru_cache(maxsize=None)
def _root_coordinates(family: str, rank: int) -> dict:
    """root -> (coroot coordinates, simple-root coordinates), for every root:
    its pairings 2 (w_a, root) / (root, root) with the fundamental weights,
    and 2 (w_a, root) / (alpha_a, alpha_a), since root = sum_a of these
    times alpha_a (Humphreys, section 13.1)."""
    rs = build_root_system(family, rank)
    weights = fundamental_weights(rs)
    halves = [dot(s, s) / 2 for s in rs.simple_roots]
    return {root: (tuple(pairing(w, root) for w in weights),
                   tuple(dot(w, root) / h for w, h in zip(weights, halves))) for root in rs.roots}


def _coordinates(rs: RootSystem, root: Vector):
    try:
        return _root_coordinates(rs.family, rs.rank)[tuple(root)]
    except KeyError:
        raise InvalidShape(f"{root} is not a root of {rs!r}") from None


def coroot_coordinates(rs: RootSystem, root: Vector):
    """Coefficients of the coroot of ``root`` over the simple coroots."""
    return _coordinates(rs, root)[0]


def simple_root_coordinates(rs: RootSystem, root: Vector):
    """Coefficients of a root over the simple roots (exact, integral)."""
    return _coordinates(rs, root)[1]


# ---------------------------------------------------------------------------
# cosets and the fixed-point graph
# ---------------------------------------------------------------------------

class _Skeleton(NamedTuple):
    words: tuple           # shortest word of each coset's minimal element, by length
    crossing: tuple        # crossing positive roots
    degrees: tuple         # coroot coordinates of each crossing root on ``free``
    free: tuple            # 1-based indices of S minus S_P
    neighbors: memoryview  # read-only, flat: per coset u in turn, its sorted
                           # germs (v, r) with u . s_r = v or v . s_r = u
    starts: memoryview     # row u of ``neighbors`` is [starts[u], starts[u + 1])


def _germs(sk: _Skeleton, u: int):
    """The (v, r) pairs of row u of the germ table."""
    row = sk.neighbors[sk.starts[u]:sk.starts[u + 1]]
    return zip(row[::2], row[1::2])


def _frozen(items: array) -> memoryview:
    """A read-only view of a copy of ``items``, safe to share from a cache."""
    return memoryview(items.tobytes()).cast(items.typecode)


@lru_cache(maxsize=None)
def _coset_skeleton(family: str, rank: int, parabolic: tuple) -> _Skeleton:
    """Everything about W / W_P that does not depend on the regular weight.

    Representatives are the minimal elements of the cosets, by length, then
    word.  The longest of them is w0 . w0_P, alone of length the number of
    crossing roots: the last one is the coset of w0.  Each germ
    u -> u . s_alpha, one per coset and crossing root, is entered in the
    rows of both of its ends, so the germs joining two cosets are the same
    from either side.  The degrees of a crossing root, its coroot's
    coordinates off S_P, are its pairings with the free w_a."""
    rs = build_root_system(family, rank)
    free = tuple(a for a in range(1, rs.rank + 1) if a not in parabolic)
    # cosets are keyed by w(ref), ref the monotone weight (the sum of the
    # crossing roots): pairing to 0 with S_P and to the Chern numbers off
    # it, its stabilizer is exactly W_P
    crossing, ref, _ = _monotone_sum(rs, parabolic)
    reps, key_to_index = _orbit(family, rank, ref)
    if len(reps[-1][1]) != len(crossing):
        raise ComputeError(f"last coset has length {len(reps[-1][1])}, not {len(crossing)}")

    weights = fundamental_weights(rs)
    degrees = []
    for r in crossing:
        degree = tuple(pairing(weights[a - 1], r) for a in free)
        if any(d.denominator != 1 for d in degree):
            raise ComputeError(f"coroot of {r} is not integral: {degree}")
        degrees.append(tuple(map(int, degree)))

    # u . s_alpha applied to ref is u(s_alpha(ref))
    reflected_refs = [act(_reflection(r), ref) for r in crossing]
    # germ (v, r) is collected as the int v * k + r, which sorts the same
    k = len(crossing)
    rows = [[] for _ in reps]
    for u, (w, _) in enumerate(reps):
        for r_idx, s_ref in enumerate(reflected_refs):
            v = key_to_index[act(w, s_ref)]
            rows[u].append(v * k + r_idx)
            rows[v].append(u * k + r_idx)
    neighbors, starts = array("I"), array("I", [0])
    for row in rows:
        for g in sorted(set(row)):
            neighbors.extend(divmod(g, k))
        starts.append(len(neighbors))

    return _Skeleton(tuple(word for _, word in reps), crossing, tuple(degrees), free,
                     _frozen(neighbors), _frozen(starts))


def weyl_cosets(spec: OrbitSpec):
    """Minimal-length representatives of W / W_P, as (signed permutation, word):
    the skeleton keeps the words, and (i,) + tail is the word of s_i . w(tail)."""
    rs = spec.root_system
    gens = [_reflection(r) for r in rs.simple_roots]
    reps = {(): tuple(range(1, rs.dim + 1))}
    for word in _coset_skeleton(rs.family, rs.rank, spec.parabolic).words[1:]:
        g = gens[word[0] - 1]
        reps[word] = tuple(g[x - 1] if x > 0 else -g[-x - 1] for x in reps[word[1:]])
    return [(w, word) for word, w in reps.items()]


class GkmVertex(NamedTuple):
    index: int
    word: tuple   # shortest word in simple reflections


class GkmEdge(NamedTuple):
    source: int
    target: int
    root: Vector          # crossing positive root alpha with target = source . s_alpha
    weight: Fraction      # <weight, coroot(alpha)>
    degree: tuple         # coroot coordinates of alpha outside S_P


class GkmGraph(NamedTuple):
    vertices: tuple
    edges: tuple
    germs_per_vertex: int
    free_simple_indices: tuple  # 1-based indices of S minus S_P


def gkm_graph(spec: OrbitSpec) -> GkmGraph:
    """Fixed points and invariant curves, with parallel germs merged to the
    cheapest one (the first root among equals).  Edges are sorted by their
    (source, target) vertex pair, source < target."""
    rs = spec.root_system
    sk = _coset_skeleton(rs.family, rs.rank, spec.parabolic)
    weights = [pairing(spec.weight, r) for r in sk.crossing]
    vertices = tuple(GkmVertex(i, word) for i, word in enumerate(sk.words))
    edges = []
    for u in range(len(sk.words)):
        for v, germs in groupby(_germs(sk, u), key=itemgetter(0)):
            if v > u:
                cost, r_idx = min((weights[r], r) for _, r in germs)
                edges.append(GkmEdge(u, v, sk.crossing[r_idx], cost, sk.degrees[r_idx]))
    return GkmGraph(vertices, tuple(edges), len(sk.crossing), sk.free)


class CapacityBound(NamedTuple):
    bound: Fraction
    chain: tuple   # GkmEdges along a realizing path
    degree: tuple  # sum of edge degrees, on S minus S_P


def hz_upper_bound(spec: OrbitSpec) -> CapacityBound:
    """Minimum-weight path between the identity coset and the coset of the
    longest element.  A tree containing both endpoints never beats its own
    endpoint-to-endpoint path because all weights are positive, so shortest
    paths give the minimum over invariant chains.

    A germ along alpha weighs sum_a c_a * d(alpha)_a over the free a, c_a =
    <weight, coroot(alpha_a)> and d the coroot degrees; Dijkstra runs over
    these times L, the lcm of the denominators of c.  Its label (distance d,
    edges e, parent u, root r) is the int ((d * E + e) * N + u) * K + r, for
    N cosets, E = N + 1 and K = max(crossing roots, 1) (none when S_P = S).
    As e <= N, u < N and r < K, int order is the tuple order of the tie
    break, and the heap key (d * E + e) * N + v orders as (d, e, v).
    """
    rs = spec.root_system
    sk = _coset_skeleton(rs.family, rs.rank, spec.parabolic)
    c = [pairing(spec.weight, rs.simple_roots[a - 1]) for a in sk.free]
    scale = lcm(*(x.denominator for x in c))
    scaled = [x.numerator * (scale // x.denominator) for x in c]
    weights = [sum(x * d for x, d in zip(scaled, degree)) for degree in sk.degrees]
    n, k = len(sk.words), max(len(sk.crossing), 1)
    nk = n * k
    step = [w * (n + 1) * nk + r for r, w in enumerate(weights)]
    source, target = 0, n - 1

    best = [None] * n
    best[source] = 0
    heap = [source]
    done = bytearray(n)
    while heap:
        h = heappop(heap)
        u = h % n
        if done[u]:
            continue
        done[u] = 1
        if u == target:
            break
        base = ((h // n + 1) * n + u) * k
        # a done v has distance <= d and every weight is >= 1, so cand loses
        for v, r in _germs(sk, u):
            cand = base + step[r]
            if best[v] is None or cand < best[v]:
                best[v] = cand
                heappush(heap, cand // nk * n + v)
    if best[target] is None:
        raise NotRegular("fixed-point graph is not connected")

    chain, node = [], target
    while node != source:
        parent, r = best[node] // k % n, best[node] % k
        chain.append(GkmEdge(min(parent, node), max(parent, node), sk.crossing[r],
                             Fraction(weights[r], scale), sk.degrees[r]))
        node = parent
    chain.reverse()
    degree = tuple(sum(e.degree[t] for e in chain) for t in range(len(sk.free)))
    return CapacityBound(Fraction(best[target] // ((n + 1) * nk), scale), tuple(chain), degree)


def brute_force_bound(spec: OrbitSpec) -> Fraction:
    """Exhaustive minimum over simple paths; independent check of Dijkstra.

    Guarded to at most 30 cosets.  Prunes a partial path as soon as its
    weight reaches the best complete path found so far, which is sound
    because every edge weight is positive.
    """
    graph = gkm_graph(spec)
    n = len(graph.vertices)
    if n > 30:
        raise TooLarge(f"{n} cosets exceed the brute-force guard of 30")

    adjacency = {}
    for e in graph.edges:
        adjacency.setdefault(e.source, []).append((e.target, e.weight))
        adjacency.setdefault(e.target, []).append((e.source, e.weight))
    for lists in adjacency.values():
        lists.sort(key=lambda t: t[1])

    # depth-first over simple paths, one frame (vertex, weight so far, its
    # untried edges) per vertex on the path; only a path lighter than
    # ``best`` is ever pushed, and since edges are sorted by weight, a frame
    # is done at its first edge that would reach ``best``
    best = None
    visited = [False] * n
    visited[0] = True
    stack = [(0, Fraction(0), iter(adjacency.get(0, ())))]
    while stack:
        u, total, untried = stack[-1]
        step = None
        if u == n - 1:  # the coset of the longest element
            best = total
        else:
            step = next(((v, total + w) for v, w in untried if not visited[v]), None)
        if step is None or (best is not None and step[1] >= best):
            visited[u] = False
            stack.pop()
        else:
            v, nt = step
            visited[v] = True
            stack.append((v, nt, iter(adjacency.get(v, ()))))
    if best is None:
        raise NotRegular("no path to the longest-element coset")
    return best


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def word_text(word) -> str:
    return "e" if not word else " ".join(f"s{i}" for i in word)


def root_text(rs: RootSystem, root: Vector) -> str:
    parts = [f"a{a}" if c == 1 else f"{c}*a{a}"
             for a, c in enumerate(simple_root_coordinates(rs, root), start=1) if c]
    return "+".join(parts) if parts else "0"


def to_dot(spec: OrbitSpec) -> str:
    """Graphviz rendering: vertices named by reduced words, edges annotated
    with the crossing root and the curve area."""
    graph = gkm_graph(spec)
    rs = spec.root_system
    lines = ["graph gkm {"]
    for v in graph.vertices:
        lines.append(f'  v{v.index} [label="{word_text(v.word)}"];')
    for e in graph.edges:
        label = f"{root_text(rs, e.root)} | {e.weight}"
        lines.append(f'  v{e.source} -- v{e.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_to_json(spec: OrbitSpec, words, edge: GkmEdge) -> dict:
    """An edge as JSON, its ends named by ``words[i]``, the word of vertex i."""
    return {
        "from": word_text(words[edge.source]),
        "to": word_text(words[edge.target]),
        "root": root_text(spec.root_system, edge.root),
        "weight": str(edge.weight),
    }


def bound_to_json(spec: OrbitSpec, result: CapacityBound) -> dict:
    rs = spec.root_system
    sk = _coset_skeleton(rs.family, rs.rank, spec.parabolic)
    return {
        "bound": str(result.bound),
        "chain": [edge_to_json(spec, sk.words, e) for e in result.chain],
        "degree": {f"a{a}": d for a, d in zip(sk.free, result.degree)},
    }
