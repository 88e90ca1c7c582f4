"""Layer tracing from outside the program.

``Tracer.installed()`` replaces the public functions and methods of each
qeuler module with wrappers that record spans, and puts the originals back
when the block exits, whatever happens inside it.  Nothing in ``src/``
knows about the tracer.

A span is (request, id, parent id, name, start, end); ``request`` is the
index of the operation that caused it, set by the runner.  Every wrapped call that
crosses into a layer opens a span; a call made from inside a span of the
same layer only bumps its counter, because its time already counts as that
layer's own time.  Functions whose busy time is a named metric always open
a span.  A layer's self time is the time of its spans minus the time their
child spans cover.  Spans in ``HOT`` (scalar arithmetic and element
bookkeeping, up to millions of calls) are aggregated but not kept; all
other spans are kept in memory, up to ``MAX_SPANS``, and written out by
``write_spans`` when the run ends.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer, owner path inside the layer's module, attribute names)
TARGETS = (
    ("scalar", "RationalFunction",
     ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
      "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
      "__eq__", "evaluate")),
    ("scalar", "QPolynomial",
     ("__add__", "__sub__", "__mul__", "__rmul__", "__divmod__", "evaluate")),
    ("scalar", "", ("poly_gcd", "parse_scalar", "render_scalar")),
    ("linalg", "", ("mat_mul", "mat_vec", "transpose", "trace",
                    "is_zero_matrix", "solve", "det", "identity")),
    ("frobenius", "QuantumElement",
     ("__init__", "__add__", "__sub__", "__neg__", "scale", "__mul__",
      "__rmul__", "__eq__")),
    ("frobenius", "FrobeniusAlgebra",
     ("__init__", "multiply", "f", "eta", "gram_matrix", "dual_basis",
      "euler_class", "operator_matrix", "trace_of_multiplication", "is_unit",
      "inverse", "is_nilpotent", "diagnose", "validate", "render_element",
      "element_to_json", "report_to_json")),
    ("frobenius", "", ("direct_sum", "change_basis", "base_field",
                       "quadratic_extension", "dual_numbers",
                       "nilpotent_chain")),
    ("grassmannian", "GrassmannianRing",
     ("__init__", "dual_partition", "quantum_pieri_raw", "quantum_pieri",
      "quantum_product", "rim_hook_product", "to_frobenius",
      "table_markdown", "table_json")),
    ("grassmannian", "", ("enumerate_basis", "parse_partition",
                          "partition_label", "rim_hook_reduce")),
    ("presented", "", ("parse_expression", "parse_spec", "complete_table",
                       "load_algebra")),
    ("rootgkm", "", ("build_root_system", "weyl_elements", "weyl_order",
                     "longest_element", "fundamental_weights",
                     "coroot_coordinates", "simple_root_coordinates",
                     "make_orbit_spec", "crossing_roots", "chern_numbers",
                     "monotone_weight", "is_monotone", "weyl_cosets",
                     "gkm_graph", "hz_upper_bound", "brute_force_bound",
                     "un_closed_form", "to_dot", "bound_to_json")),
    ("cli", "", ("main",)),
)

HOT = ("scalar", "frobenius.QuantumElement")

# Names whose busy time is reported, so they open a span even when called
# from inside their own layer.
TIMED = {
    "scalar.poly_gcd", "linalg.solve", "linalg.det",
    "frobenius.FrobeniusAlgebra.dual_basis", "frobenius.FrobeniusAlgebra.is_unit",
    "frobenius.FrobeniusAlgebra.diagnose", "frobenius.FrobeniusAlgebra.validate",
    "frobenius.change_basis", "grassmannian.GrassmannianRing.to_frobenius",
    "presented.parse_spec", "presented.complete_table",
    "rootgkm.weyl_elements", "rootgkm.gkm_graph", "rootgkm.hz_upper_bound",
    "cli.main",
}

MAX_SPANS = 200_000

# metric name -> unit, in report order
LAYER_METRICS = {
    "scalar.self_s": "s",
    "scalar.poly_gcd.calls": "count",
    "scalar.poly_gcd.busy_s": "s",
    "scalar.poly_gcd.useful_ratio": "ratio",
    "scalar.RationalFunction.created": "count",
    "linalg.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.busy_s": "s",
    "linalg.det.calls": "count",
    "linalg.det.busy_s": "s",
    "linalg.mat_mul.calls": "count",
    "frobenius.self_s": "s",
    "frobenius.multiply.calls": "count",
    "frobenius.dual_basis.busy_s": "s",
    "frobenius.is_unit.busy_s": "s",
    "frobenius.diagnose.busy_s": "s",
    "frobenius.validate.busy_s": "s",
    "frobenius.change_basis.busy_s": "s",
    "grassmannian.self_s": "s",
    "grassmannian.quantum_product.calls": "count",
    "grassmannian.quantum_pieri_raw.calls": "count",
    "grassmannian.to_frobenius.busy_s": "s",
    "presented.self_s": "s",
    "presented.parse_spec.busy_s": "s",
    "presented.complete_table.busy_s": "s",
    "rootgkm.self_s": "s",
    "rootgkm.weyl_elements.busy_s": "s",
    "rootgkm.gkm_graph.busy_s": "s",
    "rootgkm.gkm_graph.vertices": "count",
    "rootgkm.gkm_graph.edges": "count",
    "rootgkm.hz_upper_bound.busy_s": "s",
}


def _gcd_result(raw, result):
    if result.degree() > 0:
        raw["scalar.poly_gcd.useful"] += 1


def _graph_result(raw, result):
    raw["rootgkm.gkm_graph.vertices"] += len(result.vertices)
    raw["rootgkm.gkm_graph.edges"] += len(result.edges)


ON_RESULT = {"scalar.poly_gcd": _gcd_result, "rootgkm.gkm_graph": _graph_result}


class _Frame:
    __slots__ = ("layer", "span_id", "child_s")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self):
        # Summable totals: "<name>.calls", "<name>.busy_s", "<layer>.self_s",
        # the result counters in ON_RESULT, and the time of outermost
        # validate calls made inside complete_table.
        self.raw = defaultdict(float)
        self.request = 0
        self.spans = []
        self.dropped_spans = 0
        self._stack = []
        self._active = defaultdict(int)
        self._ids = itertools.count(1)

    @contextmanager
    def installed(self):
        from qeuler import cli, frobenius, grassmannian, linalg, presented, rootgkm, scalar

        modules = {"scalar": scalar, "linalg": linalg, "frobenius": frobenius,
                   "grassmannian": grassmannian, "presented": presented,
                   "rootgkm": rootgkm, "cli": cli}
        saved = []
        try:
            for layer, owner_name, attrs in TARGETS:
                owner = modules[layer]
                if owner_name:
                    owner = getattr(owner, owner_name)
                prefix = ".".join(p for p in (layer, owner_name) if p)
                hot = any(prefix == h or prefix.startswith(h + ".") for h in HOT)
                for attr in attrs:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(
                        layer, f"{prefix}.{attr}", original, hot))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, layer, name, fn, hot):
        raw, stack, active = self.raw, self._stack, self._active
        calls_key, busy_key, self_key = f"{name}.calls", f"{name}.busy_s", f"{layer}.self_s"
        timed = name in TIMED
        in_completion = name == "frobenius.FrobeniusAlgebra.validate"
        on_result = ON_RESULT.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            raw[calls_key] += 1
            if not timed and stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(raw, result)
                return result
            parent = stack[-1] if stack else None
            span_id = 0 if hot else next(tracer._ids)
            frame = _Frame(layer, span_id or (parent.span_id if parent else 0))
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                raw[self_key] += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                if not active[name]:
                    raw[busy_key] += duration
                    if in_completion and active["presented.complete_table"]:
                        raw["presented.complete_table.validate_s"] += duration
                if span_id:
                    tracer._keep(span_id, parent.span_id if parent else 0,
                                 name, start, end)
            if on_result is not None:
                on_result(raw, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _keep(self, span_id, parent_id, name, start, end):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.request, span_id, parent_id, name, start, end))
        else:
            self.dropped_spans += 1

    def summary(self) -> dict:
        """Summable raw totals."""
        return dict(self.raw)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for request, span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"request": request, "id": span_id,
                                     "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")


def layer_metrics(raw: dict) -> dict:
    """Named per-layer metrics from summed ``Tracer.summary()`` totals."""

    def get(key):
        return raw.get(key, 0.0)

    gcd_calls = get("scalar.poly_gcd.calls")
    values = {
        "scalar.self_s": get("scalar.self_s"),
        "scalar.poly_gcd.calls": gcd_calls,
        "scalar.poly_gcd.busy_s": get("scalar.poly_gcd.busy_s"),
        "scalar.poly_gcd.useful_ratio":
            get("scalar.poly_gcd.useful") / gcd_calls if gcd_calls else 0.0,
        "scalar.RationalFunction.created": get("scalar.RationalFunction.__init__.calls"),
        "linalg.self_s": get("linalg.self_s"),
        "linalg.solve.calls": get("linalg.solve.calls"),
        "linalg.solve.busy_s": get("linalg.solve.busy_s"),
        "linalg.det.calls": get("linalg.det.calls"),
        "linalg.det.busy_s": get("linalg.det.busy_s"),
        "linalg.mat_mul.calls": get("linalg.mat_mul.calls"),
        "frobenius.self_s": get("frobenius.self_s"),
        "frobenius.multiply.calls": get("frobenius.FrobeniusAlgebra.multiply.calls"),
        "grassmannian.self_s": get("grassmannian.self_s"),
        "grassmannian.quantum_product.calls":
            get("grassmannian.GrassmannianRing.quantum_product.calls"),
        "grassmannian.quantum_pieri_raw.calls":
            get("grassmannian.GrassmannianRing.quantum_pieri_raw.calls"),
        "grassmannian.to_frobenius.busy_s":
            get("grassmannian.GrassmannianRing.to_frobenius.busy_s"),
        "presented.self_s": get("presented.self_s"),
        "presented.parse_spec.busy_s": get("presented.parse_spec.busy_s"),
        "presented.complete_table.busy_s":
            get("presented.complete_table.busy_s")
            - get("presented.complete_table.validate_s"),
        "rootgkm.self_s": get("rootgkm.self_s"),
        "rootgkm.weyl_elements.busy_s": get("rootgkm.weyl_elements.busy_s"),
        "rootgkm.gkm_graph.busy_s": get("rootgkm.gkm_graph.busy_s"),
        "rootgkm.gkm_graph.vertices": get("rootgkm.gkm_graph.vertices"),
        "rootgkm.gkm_graph.edges": get("rootgkm.gkm_graph.edges"),
        "rootgkm.hz_upper_bound.busy_s": get("rootgkm.hz_upper_bound.busy_s"),
    }
    for method in ("dual_basis", "is_unit", "diagnose", "validate"):
        values[f"frobenius.{method}.busy_s"] = get(
            f"frobenius.FrobeniusAlgebra.{method}.busy_s")
    values["frobenius.change_basis.busy_s"] = get("frobenius.change_basis.busy_s")
    return {name: values[name] for name in LAYER_METRICS}
