"""Exact quantum Euler classes, semisimplicity diagnosis, and minimum-area
chain bounds for homogeneous spaces, over the rational-function field Q(q).

``import qeuler`` loads no submodule: each exported name imports its module
on first use (PEP 562), so a process pays only for the modules it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "frobenius": ("DiagnoseReport", "FrobeniusAlgebra", "Grading", "QuantumElement",
                  "change_basis", "direct_sum"),
    "grassmannian": ("GrassmannianRing", "enumerate_basis"),
    "presented": ("bundled_ig26_path", "complete_table", "load_algebra", "parse_spec"),
    "rootgkm": ("gkm_graph", "hz_upper_bound"),
    "roots": ("OrbitSpec", "build_root_system", "make_orbit_spec", "un_closed_form"),
    "scalar": ("QPolynomial", "RationalFunction", "parse_scalar", "poly_gcd",
               "render_scalar"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
