"""Classical products in at most k rows, a Jacobi-Trudi expansion then
classical Pieri steps, for the rim-hook oracle of ``qeuler.grassmannian``,
which imports this module on its first call."""

from __future__ import annotations

from .grassmannian import Partition, _pad


def _classical_pieri_rows_capped(lam: Partition, p: int, k: int):
    """Classical Pieri step: add a horizontal strip of size p, keep <= k rows,
    no bound on the width.  Returns a tuple of partitions.

    Row by row: the first row takes at most p boxes and row i at most
    lam_{i-1} - lam_i, which is the strip condition mu_i <= lam_{i-1} and
    keeps mu decreasing; (mu so far, boxes left) per partial strip.
    """
    lam_p = _pad(lam, k)
    partial = [((), p)]
    for i in range(k):
        room = lam_p[i - 1] - lam_p[i] if i else p
        partial = [(acc + (lam_p[i] + add,), left - add) for acc, left in partial
                   for add in range(min(room, left) + 1)]
    return tuple(tuple(x for x in acc if x) for acc, left in partial if not left)


def _jacobi_trudi_monomials(mu: Partition, k: int):
    """s_mu as a signed sum of products h_{p1} * h_{p2} * ...; no truncation.

    The k x k determinant of h_{mu_i + j - i}, with h_0 = 1 and h_p = 0 for
    p < 0, as a tuple of (sign, factors), one per permutation that picks no
    vanishing entry, in the order of the permutations.  Rows are filled
    from the last: row i may take any free column j >= i - mu_i, and every
    column a later row took is one of those, so no choice is a dead end and
    the walk visits the surviving terms only, not all k! permutations.
    """
    mu_p = _pad(mu, k)
    # (columns of rows i .. k-1, inversions among them)
    partial = [((), 0)]
    for i in reversed(range(k)):
        partial = [((j,) + cols, inv + sum(c < j for c in cols))
                   for cols, inv in partial
                   for j in range(max(i - mu_p[i], 0), k) if j not in cols]
    return tuple(
        (-1 if inv % 2 else 1,
         tuple(mu_p[i] + j - i for i, j in enumerate(cols) if mu_p[i] + j > i))
        for cols, inv in sorted(partial))


def _classical_product_rows_capped(lam: Partition, monomials, k: int,
                                   steps: dict) -> dict:
    """Littlewood-Richardson expansion of s_lam * s_mu kept to <= k rows,
    where ``monomials`` is ``_jacobi_trudi_monomials(mu, k)``.

    ``steps`` keeps the classical Pieri steps, keyed (partition, p), for
    later products with the same k.
    """
    acc = {}
    for sign, factors in monomials:
        terms = {lam: 1}
        for p in factors:
            nxt = {}
            for part, c in terms.items():
                step = steps.get((part, p))
                if step is None:
                    step = steps[(part, p)] = _classical_pieri_rows_capped(part, p, k)
                for part2 in step:
                    nxt[part2] = nxt.get(part2, 0) + c
            terms = nxt
        for part, c in terms.items():
            acc[part] = acc.get(part, 0) + sign * c
    return {p: c for p, c in acc.items() if c}
