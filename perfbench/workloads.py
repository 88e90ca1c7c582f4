"""The four benchmark workloads: seeded inputs, the timed operation, checks.

Inputs are plain data made from the seed alone, so the same seed gives the
same inputs and generating them needs no qeuler import.  A workload is an
endless sequence of rounds.  Every round holds the same fixed mix of
input kinds, in a seeded order and with seeded details; the runner times
whole rounds only, so every run measures the same mix and its medians and
percentiles do not depend on which kinds a seed happened to draw.

In-process workloads call ``prepare`` (untimed: build argument objects),
``run`` (timed: the user-level call) and ``check`` (untimed: compare with
an independent answer).  The ``cli`` workload runs each command as a
subprocess instead; see ``CliWorkload``.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"


class Workload:
    name = ""
    why = ""
    setup_samples = 5  # fresh interpreters timed per run for setup_s

    def round(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        inputs = [self.make_input(kind, rng) for kind in self.MIX]
        rng.shuffle(inputs)
        return inputs

    def kind(self, inp) -> str:
        """Label of the input's kind, for the recorded mix."""
        raise NotImplementedError

    def warmup_steps(self) -> list:
        """Callables that fill qeuler's per-process caches before timing;
        a set-up probe times them one by one."""
        return [self.warmup_one]

    def warmup(self):
        for step in self.warmup_steps():
            step()


# ---------------------------------------------------------------------------
# schubert: GrassmannianRing(k, n).to_frobenius().diagnose()
# ---------------------------------------------------------------------------

class SchubertWorkload(Workload):
    name = "schubert"
    why = ("G(k,n) with k(n-k) <= 12 through to_frobenius and diagnose; "
           "Pieri tables, dual basis and the det loop over Laurent scalars; "
           "sizes repeat")
    # Cheapest to dearest; counts chosen so the median falls in the middle
    # of the G(2,6) block and the 90th percentile in the middle of the
    # G(2,8) block.
    MIX = ((2, 4),) * 4 + ((3, 5),) * 2 + ((2, 5),) * 2 + ((2, 6),) * 4 \
        + ((4, 6),) + ((3, 6),) + ((2, 7),) * 2 + ((5, 7),) \
        + ((2, 8),) * 2 + ((3, 7),)
    CHECKED_PAIRS = 3

    def make_input(self, kn, rng):
        from math import comb

        k, n = kn
        size = comb(n, k)
        pairs = tuple((rng.randrange(size), rng.randrange(size))
                      for _ in range(self.CHECKED_PAIRS))
        return (k, n, pairs)

    def kind(self, inp):
        return f"G({inp[0]},{inp[1]})"

    def warmup_one(self):
        self.run(self.prepare(self.make_input((2, 4), random.Random(0))))

    def prepare(self, inp):
        return inp[0], inp[1]

    def run(self, args):
        from qeuler import grassmannian

        ring = grassmannian.GrassmannianRing(*args)
        return ring, ring.to_frobenius().diagnose()

    def check(self, inp, args, result):
        ring, report = result
        rank = len(ring.basis)
        if not (report.semisimple and report.field_factor
                and report.rank == rank and report.f_of_euler == rank):
            return False
        basis = ring.basis
        return all(ring.quantum_product(basis[i], basis[j])
                   == ring.rim_hook_product(basis[i], basis[j])
                   for i, j in inp[2])


# ---------------------------------------------------------------------------
# generic: known-answer direct sums moved by a unimodular change of basis
# ---------------------------------------------------------------------------

FIELD_SUMMANDS = {"base", "quad"}


class GenericWorkload(Workload):
    name = "generic"
    why = ("known-answer direct sums moved by a unimodular change of basis "
           "over Z[q], then diagnose; general Q(q) scalars, linalg.solve, "
           "useful gcds; no shared work")
    # Ranks 2 to 4, because one operation at rank 5 already costs up to a
    # second.  Per round of 20, cheapest tier first: eight operations, then
    # four dual+chain2 (the median falls inside them), four middle ones,
    # and four base+base+quad (the 90th percentile falls inside them).
    MIX = ((("base", "base"),) * 2 + (("base", "dual"),) * 2
           + (("base", "quad"),) * 2 + (("base", "base", "base"),) * 2
           + (("dual", "chain2"),) * 4
           + (("base", "chain3"),) * 2 + (("quad", "dual"),) * 2
           + (("base", "base", "quad"),) * 4)
    RANK = {"base": 1, "quad": 2, "dual": 2, "chain2": 2, "chain3": 3}

    def make_input(self, kinds, rng):
        kinds = list(kinds)
        rng.shuffle(kinds)
        n = sum(self.RANK[k] for k in kinds)

        def coeff():
            return rng.choice((-2, -1, 1, 2))

        # q-coefficients of the sub- and superdiagonal of the two factors
        return (tuple(kinds), tuple(coeff() for _ in range(n - 1)),
                tuple(coeff() for _ in range(n - 1)))

    def kind(self, inp):
        return "+".join(sorted(inp[0]))

    def _algebra(self, kinds):
        from qeuler import frobenius, scalar

        makers = {"base": frobenius.base_field,
                  "quad": lambda: frobenius.quadratic_extension(scalar.Q),
                  "dual": frobenius.dual_numbers,
                  "chain2": lambda: frobenius.nilpotent_chain(2),
                  "chain3": lambda: frobenius.nilpotent_chain(3)}
        algebra = makers[kinds[0]]()
        for k in kinds[1:]:
            algebra = frobenius.direct_sum(algebra, makers[k]())
        return algebra

    def warmup_one(self):
        self.run(self.prepare(self.make_input(("base", "quad"), random.Random(0))))

    def _matrix(self, sub, sup):
        """L * U with L unit lower and U unit upper bidiagonal, off-diagonal
        entries c*q: unimodular over Z[q], and the same shape on every seed,
        so the seed moves the cost of an operation little."""
        from qeuler import linalg, scalar

        n = len(sub) + 1

        def entry(i, j):
            if i == j:
                return scalar.ONE
            if i == j + 1:
                return sub[j] * scalar.Q
            if j == i + 1:
                return sup[i] * scalar.Q
            return scalar.ZERO

        low = [[entry(i, j) if j <= i else scalar.ZERO for j in range(n)]
               for i in range(n)]
        up = [[entry(i, j) if j >= i else scalar.ZERO for j in range(n)]
              for i in range(n)]
        return linalg.mat_mul(low, up)

    def prepare(self, inp):
        kinds, sub, sup = inp
        return self._algebra(kinds), self._matrix(sub, sup)

    def run(self, args):
        from qeuler import frobenius

        algebra, p = args
        return frobenius.change_basis(algebra, p).diagnose()

    def check(self, inp, args, report):
        kinds = inp[0]
        rank = args[0].rank
        return (report.semisimple == all(k in FIELD_SUMMANDS for k in kinds)
                and report.field_factor == any(k in FIELD_SUMMANDS for k in kinds)
                and report.rank == rank and report.f_of_euler == rank)


# ---------------------------------------------------------------------------
# orbits: make_orbit_spec + hz_upper_bound over Fraction arithmetic
# ---------------------------------------------------------------------------

def _orbit_combos():
    """(family, rank, parabolic) per round: for every group of rank 2 to 4,
    the full flag, each end root alone in the parabolic, the two quotients
    where only one end root is free, and (1, 3)."""
    out = []
    for family in "ABCD":
        for rank in (2, 3, 4):
            pars = {(), (1,), (rank,), tuple(range(1, rank)),
                    tuple(range(2, rank + 1))}
            if rank >= 3:
                pars.add((1, 3))
            out.extend((family, rank, p) for p in sorted(pars))
    return tuple(out)


class OrbitsWorkload(Workload):
    name = "orbits"
    why = ("flag manifolds of types A-D, rank 2-4, with a seeded regular "
           "weight; GKM graph and Dijkstra in Fraction arithmetic; Weyl "
           "groups fill in set-up")
    # B4 and C4 modulo one end root (the tier below the two largest full
    # flags) run twice, so the 90th percentile falls inside that tier.
    # One set-up enumerates every Weyl group and coset skeleton, about 5 s.
    setup_samples = 3
    MIX = _orbit_combos() + tuple(
        (family, 4, parabolic) for family in "BC" for parabolic in ((1,), (4,)))
    BRUTE_FORCE_LIMIT = 30

    def make_input(self, combo, rng):
        family, rank, parabolic = combo
        coeffs = tuple(
            Fraction(0) if a in parabolic
            else Fraction(rng.randint(1, 9), rng.randint(1, 3))
            for a in range(1, rank + 1))
        return (family, rank, parabolic, tuple(str(c) for c in coeffs))

    def kind(self, inp):
        return f"{inp[0]}{inp[1]}"

    @staticmethod
    def weight(family, rank, coeffs):
        """sum_a c_a * omega_a in ambient coordinates."""
        from qeuler import rootgkm

        rs = rootgkm.build_root_system(family, rank)
        omegas = rootgkm.fundamental_weights(rs)
        return tuple(sum((Fraction(c) * w[t] for c, w in zip(coeffs, omegas)),
                         Fraction(0)) for t in range(rs.dim))

    def warmup_steps(self):
        return [partial(self.warmup_one, combo) for combo in sorted(set(self.MIX))]

    def warmup_one(self, combo):
        from qeuler import rootgkm

        family, rank, parabolic = combo
        coeffs = [0 if a in parabolic else 1 for a in range(1, rank + 1)]
        spec = rootgkm.make_orbit_spec(
            family, rank, parabolic, self.weight(family, rank, coeffs))
        rootgkm.hz_upper_bound(spec)

    def prepare(self, inp):
        family, rank, parabolic, coeffs = inp
        return family, rank, parabolic, self.weight(family, rank, coeffs)

    def run(self, args):
        from qeuler import rootgkm

        spec = rootgkm.make_orbit_spec(*args)
        return spec, rootgkm.hz_upper_bound(spec)

    def check(self, inp, args, result):
        from qeuler import rootgkm

        spec, bound = result
        chain = bound.chain
        if sum((e.weight for e in chain), Fraction(0)) != bound.bound:
            return False
        family, rank, parabolic, weight = args
        if family == "A" and not parabolic:
            if rootgkm.un_closed_form(weight)[0] != bound.bound:
                return False
        if len(rootgkm.weyl_cosets(spec)) <= self.BRUTE_FORCE_LIMIT:
            return rootgkm.brute_force_bound(spec) == bound.bound
        return True


# ---------------------------------------------------------------------------
# cli: the README's commands, one subprocess at a time
# ---------------------------------------------------------------------------

IG26 = "src/qeuler/data/ig26.json"


def _decreasing(rng, count):
    value = Fraction(rng.randint(5, 40), rng.randint(1, 4))
    out = []
    for _ in range(count):
        out.append(value)
        value -= Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return ",".join(str(x) for x in out)


def _orbit_args(rng, ranks):
    family = rng.choice("ABCD")
    rank = rng.choice(ranks)
    parabolic = [a for a in range(1, rank + 1) if rng.random() < 0.3]
    if len(parabolic) == rank:
        parabolic.pop()
    args = ["orbit", "--family", family, "--rank", str(rank)]
    if parabolic:
        args += ["--parabolic", ",".join(map(str, parabolic))]
    return args


def _labels(rng, k, n):
    def label():
        rows = sorted((rng.randint(0, n - k) for _ in range(k)), reverse=True)
        return ",".join(str(r) for r in rows if r) or "0"
    return [label(), label()]


class CliWorkload(Workload):
    name = "cli"
    why = ("the README's commands as subprocesses, one at a time; interpreter "
           "start and import with cold caches; the only workload that loads "
           "ig26 through presented")
    # Per round of 20: the heaviest command (ig26) is 5%, the next tier
    # (mid-size diagnose) 10%, so the 90th percentile falls inside that tier.
    # A set-up is one interpreter start, whose time varies much from one
    # process to the next, so take more of them.
    setup_samples = 11
    MIX = (("un-capacity",) * 4 + ("table-golden", "table", "euler", "euler")
           + ("diagnose-mid",) * 2 + ("product",) * 3 + ("ig26",)
           + ("chern", "chern", "monotone-weight", "monotone-weight", "gkm",
              "hz-bound"))

    def make_input(self, kind, rng):
        pick = rng.choice
        if kind == "un-capacity":
            argv = ["un-capacity", "--lambda", _decreasing(rng, rng.randint(3, 6))]
            argv += pick([[], ["--format", "json"]])
        elif kind == "table-golden":
            argv = ["grassmannian", "-k", "2", "-n", "4", "table", "--format", "md"]
        elif kind in ("table", "euler", "product"):
            k, n = pick([(2, 5), (3, 5), (1, 5), (2, 4)])
            argv = ["grassmannian", "-k", str(k), "-n", str(n), kind]
            if kind == "product":
                argv += _labels(rng, k, n)
            else:
                argv += pick([[], ["--format", "json"], ["--format", "md"]]
                             if kind == "table" else [[], ["--format", "json"]])
        elif kind == "diagnose-mid":
            # one size only: the 90th percentile falls in this tier
            argv = ["grassmannian", "-k", "3", "-n", "6", "diagnose"]
            argv += pick([[], ["--format", "json"]])
        elif kind == "ig26":
            argv = ["algebra", "--file", IG26] + pick(
                [["diagnose", "--format", "json"], ["euler"]])
        elif kind in ("chern", "monotone-weight"):
            argv = _orbit_args(rng, (2, 3, 4)) + [kind]
        elif kind == "gkm":
            argv = ["orbit", "--family", "A", "--rank", "2", "--lambda",
                    _decreasing(rng, 3), "gkm"] + pick([[], ["--format", "json"]])
        else:
            argv = _orbit_args(rng, (2, 3)) + ["hz-bound"] + pick(
                [[], ["--format", "json"]])
        return (kind, tuple(argv))

    def kind(self, inp):
        return inp[0]

    def golden(self, argv):
        """Expected stdout from tests/golden, or None when no file applies."""
        if argv == ("grassmannian", "-k", "2", "-n", "4", "table", "--format", "md"):
            return (GOLDEN / "g24_table.md").read_text(encoding="utf-8")
        if argv == ("algebra", "--file", IG26, "diagnose", "--format", "json"):
            return (GOLDEN / "ig26_diagnose.json").read_text(encoding="utf-8")
        return None


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli_subprocess(argv) -> tuple:
    """(exit code, stdout) of ``python -m qeuler argv`` run from the checkout."""
    proc = subprocess.run([sys.executable, "-m", "qeuler", *argv], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout


def cli_in_process(argv) -> tuple:
    """(exit code, stdout) of the same argv through qeuler.cli.main here;
    the working directory must be the checkout's root."""
    from qeuler import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


WORKLOADS = {w.name: w for w in (SchubertWorkload(), GenericWorkload(),
                                 OrbitsWorkload(), CliWorkload())}

