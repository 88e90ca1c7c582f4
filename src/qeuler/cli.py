"""Command-line front end.

Subcommands::

    grassmannian -k K -n N {table,euler,diagnose,product} [labels...]
    algebra --file PATH {table,euler,diagnose,product} [labels...]
    orbit --family F --rank R [--parabolic I,J] [--lambda ...] [--kappa K]
          {chern,monotone-weight,gkm,hz-bound}
    un-capacity --lambda L1,L2,...

Exit codes: 0 success, 1 usage error, 2 invalid input or failed validation,
3 arithmetic failure.  ``--format`` switches the renderer (text, md, json,
dot) and never changes computed values.  Each subcommand imports the
modules it runs (``json`` too), so a process loads only those.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import factorial

from .errors import ComputeError, InputError, TooLarge


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qeuler", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grassmannian", help="quantum ring of G(k, n)")
    g.add_argument("-k", type=int, required=True)
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--allow-large", action="store_true",
                   help="lift the k*(n-k) <= 12 guard")
    a = sub.add_parser("algebra", help="algebra presented by a data file")
    a.add_argument("--file", required=True)
    for sp in (g, a):  # the two ring commands share their actions
        sp.add_argument("action", choices=["table", "euler", "diagnose", "product"])
        sp.add_argument("labels", nargs="*", help="class labels for `product`")
        sp.add_argument("--format", choices=["text", "md", "json"], default="text")

    o = sub.add_parser("orbit", help="flag-manifold orbit data")
    o.add_argument("--family", required=True, choices=list("ABCDabcd"))
    o.add_argument("--rank", type=int, required=True)
    o.add_argument("--parabolic", default="",
                   help="comma-separated 1-based simple-root indices in S_P")
    o.add_argument("--lambda", dest="weight", default=None,
                   help="comma-separated rational coordinates of the weight")
    o.add_argument("--kappa", default="1", help="monotonicity constant")
    o.add_argument("action",
                   choices=["chern", "monotone-weight", "gkm", "hz-bound"])
    o.add_argument("--format", choices=["text", "json", "dot"], default="text")

    u = sub.add_parser("un-capacity",
                       help="closed-form oscillation bound for unitary orbits")
    u.add_argument("--lambda", dest="weight", required=True)
    u.add_argument("--format", choices=["text", "json"], default="text")
    return parser


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


def _json_text(obj) -> str:
    import json
    return json.dumps(obj, indent=2) + "\n"


# -- grassmannian / algebra actions -------------------------------------------

def _algebra_output(algebra, ring, action, labels, fmt):
    if action == "table":
        if fmt == "json":
            return _json_text(algebra.table_to_json())
        # the Grassmannian grid labels the unit 1, as in the literature
        return algebra.render_table(fmt, unit_cell="1" if ring is not None else None)

    if action == "diagnose":
        report = algebra.diagnose()
        payload = algebra.report_to_json(report)
        if fmt == "json":
            return _json_text(payload)
        lines = [
            f"rank: {payload['rank']}",
            f"euler class: {algebra.render_element(report.euler_class)}",
            f"f(euler) = {payload['f_of_euler']}",
            f"euler^2: {algebra.render_element(report.euler_square)}",
            f"semisimple: {str(report.semisimple).lower()}",
            f"field factor: {str(report.field_factor).lower()}",
        ]
        return "\n".join(lines) + "\n"

    if action == "euler":
        result = algebra.euler_class()
    else:
        if len(labels) != 2:
            raise _UsageError("`product` needs exactly two class labels")
        from .frobenius import QuantumElement
        if ring is not None:
            from .grassmannian import parse_partition, partition_label
            parts = [parse_partition(l) for l in labels]
            for p in parts:
                ring.check_member(p)
            labels = [partition_label(p) for p in parts]
        x, y = (QuantumElement.basis(l) for l in labels)
        result = algebra.multiply(x, y)
    if fmt == "json":
        return _json_text(algebra.element_to_json(result))
    return algebra.render_element(result) + "\n"


# -- orbit actions --------------------------------------------------------------

# the largest Weyl group that gkm and hz-bound enumerate: B6 and C6
MAX_WEYL_ORDER = 46_080


def _orbit_output(args) -> str:
    from . import roots
    family = args.family.upper()
    if args.action in ("gkm", "hz-bound") and args.rank >= 1:
        # |W| is (r+1)! for A_r, 2^r r! for B_r and C_r, 2^(r-1) r! for D_r; it grows
        # with r, so past rank 20 the rank-20 order is a lower bound that fails already
        r = min(args.rank, 20)
        order = factorial(r + 1) if family == "A" else factorial(r) << (r - (family == "D"))
        if order > MAX_WEYL_ORDER:
            size = order if r == args.rank else f"more than {order}"
            raise TooLarge(f"the Weyl group of {family}{args.rank} has {size} elements, "
                           f"over the guard of {MAX_WEYL_ORDER} for gkm and hz-bound")
    parabolic = _parse_indices(args.parabolic)
    if args.weight is not None:
        weight = _parse_rationals(args.weight)
    else:
        weight = roots.monotone_weight(family, args.rank, parabolic,
                                       _parse_rational(args.kappa))
    spec = roots.make_orbit_spec(family, args.rank, parabolic, weight)

    if args.action == "chern":
        numbers = roots.chern_numbers(spec)
        if args.format == "json":
            return _json_text({
                "n": {f"a{a}": v for a, v in sorted(numbers["n"].items())},
                "N": numbers["N"],
            })
        parts = [f"n(a{a}) = {v}" for a, v in sorted(numbers["n"].items())]
        return "; ".join([*parts, f"N = {numbers['N']}"]) + "\n"

    if args.action == "monotone-weight":
        lam = weight if args.weight is None else roots.monotone_weight(
            family, args.rank, parabolic, _parse_rational(args.kappa))
        if args.format == "json":
            return _json_text([str(x) for x in lam])
        return ",".join(str(x) for x in lam) + "\n"

    from . import rootgkm
    if args.action == "gkm":
        if args.format == "json":
            graph = rootgkm.gkm_graph(spec)
            words = [v.word for v in graph.vertices]
            return _json_text({
                "vertices": [rootgkm.word_text(w) for w in words],
                "edges": [rootgkm.edge_to_json(spec, words, e) for e in graph.edges],
            })
        return rootgkm.to_dot(spec)

    result = rootgkm.hz_upper_bound(spec)
    if args.format == "json":
        return _json_text(rootgkm.bound_to_json(spec, result))
    return f"{result.bound}\n"


# -- entry point -------------------------------------------------------------------

def run(args) -> str:
    if args.command == "grassmannian":
        if args.k * (args.n - args.k) > 12 and not args.allow_large:
            raise TooLarge(
                f"G({args.k},{args.n}) exceeds the desk-scale guard "
                "(use --allow-large to override)")
        from .grassmannian import GrassmannianRing
        ring = GrassmannianRing(args.k, args.n)
        return _algebra_output(ring.to_frobenius(), ring, args.action,
                               args.labels, args.format)
    if args.command == "algebra":
        from . import presented
        algebra = presented.load_algebra(args.file)
        return _algebra_output(algebra, None, args.action, args.labels,
                               args.format)
    if args.command == "orbit":
        return _orbit_output(args)
    from .roots import _un_value
    value = _un_value(_parse_rationals(args.weight))
    if args.format == "json":
        return _json_text({"bound": str(value)})
    return f"{value}\n"


def main(argv=None) -> int:
    try:
        output = run(_build_parser().parse_args(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
