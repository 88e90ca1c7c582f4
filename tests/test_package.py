"""Package-level contracts: lazy exports, what each command imports, and
immutable records."""

import ast
import gc
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qeuler
from qeuler import frobenius, presented, rootgkm, roots, scalar
from qeuler.errors import InvalidShape, NotRegular
from qeuler.grassmannian import GrassmannianRing

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def modules_loaded_by(*argv):
    """Names of the modules ``python -m qeuler argv`` imports once the
    ``qeuler`` package itself is in, read from ``-X importtime``."""
    proc = run_python("-X", "importtime", "-m", "qeuler", *argv)
    assert proc.returncode == 0, proc.stderr
    names = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return set(names[names.index("qeuler"):])


def source_lines(module):
    """The number of lines in the source file of the qeuler ``module``."""
    path = SRC.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return len(path.read_text(encoding="utf-8").splitlines())


# A process compiles the source of every module it imports, so a command's
# start-up grows with these lines; each budget is the count when it was set.
@pytest.mark.parametrize("argv, budget", [
    (("un-capacity", "--lambda", "3,1,0"), 618),
    (("orbit", "--family", "A", "--rank", "3", "--parabolic", "1,3", "chern"), 618),
    (("orbit", "--family", "B", "--rank", "3", "--parabolic", "2", "hz-bound"), 1048),
    (("grassmannian", "-k", "2", "-n", "4", "diagnose"), 1967),
    (("grassmannian", "-k", "2", "-n", "5", "table", "--format", "md"), 1967),
    (("algebra", "--file", str(SRC / "qeuler" / "data" / "ig26.json"), "diagnose"), 2264),
], ids=["un-capacity", "orbit-chern", "orbit-hz-bound", "grassmannian-diagnose",
        "grassmannian-table", "ig26-diagnose"])
def test_each_command_loads_no_more_lines_than_its_budget(argv, budget):
    loaded = modules_loaded_by(*argv)
    assert sum(source_lines(m) for m in loaded if m.partition(".")[0] == "qeuler") <= budget


ROOT_MODULES = {"qeuler", "qeuler.cli", "qeuler.errors", "qeuler.roots"}
GKM_MODULES = ROOT_MODULES | {"qeuler.rootgkm"}


# the fundamental weights are closed forms, so no orbit command loads linalg:
# each loads the CLI, the errors and the root data, and only the commands
# that walk the Weyl group load the GKM code
@pytest.mark.parametrize("argv, modules", [
    (("un-capacity", "--lambda", "3,1,0"), ROOT_MODULES),
    (("orbit", "--family", "A", "--rank", "3", "--parabolic", "1,3", "chern"), ROOT_MODULES),
    (("orbit", "--family", "A", "--rank", "3", "--parabolic", "1,3", "monotone-weight"),
     ROOT_MODULES),
    (("orbit", "--family", "B", "--rank", "3", "--parabolic", "2", "gkm"), GKM_MODULES),
    (("orbit", "--family", "B", "--rank", "3", "--parabolic", "2", "hz-bound"), GKM_MODULES),
], ids=["un-capacity", "orbit-chern", "orbit-monotone-weight", "orbit-gkm", "orbit-hz-bound"])
def test_orbit_commands_load_only_the_orbit_modules(argv, modules):
    loaded = modules_loaded_by(*argv)
    assert {m for m in loaded if m.partition(".")[0] == "qeuler"} == modules
    assert "dataclasses" not in loaded


def test_grassmannian_command_loads_no_presented_or_orbit_module():
    """``presented`` holds the expression parser, so no Grassmannian action
    compiles it."""
    for action in (("table",), ("euler",), ("diagnose",), ("product", "1", "1")):
        loaded = modules_loaded_by("grassmannian", "-k", "2", "-n", "4", *action)
        assert "qeuler.grassmannian" in loaded
        assert not loaded & {"qeuler.presented", "qeuler.roots", "qeuler.rootgkm",
                             "dataclasses"}, action


def test_importing_the_cli_loads_no_json_and_no_command_module():
    proc = run_python("-c", "import sys, qeuler.cli; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "json" not in loaded
    assert {m for m in loaded if m.partition(".")[0] == "qeuler"} == {
        "qeuler", "qeuler.cli", "qeuler.errors"}


def test_exports_load_on_first_use():
    script = """
import sys
from importlib import import_module
import qeuler
assert not [m for m in sys.modules if m.startswith("qeuler.")], sys.modules
assert set(qeuler.__all__) <= set(dir(qeuler))
qeuler.load_algebra
assert "qeuler.presented" in sys.modules and "qeuler.rootgkm" not in sys.modules
try:
    qeuler.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("no AttributeError")
namespace = {}
exec("from qeuler import *", namespace)
for name in qeuler.__all__:
    module = import_module("qeuler." + qeuler._EXPORTS[name])
    assert namespace[name] is getattr(module, name), name
print(len(qeuler.__all__))
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(qeuler.__all__)}\n"


def _records():
    spec = rootgkm.make_orbit_spec("A", 2, (), (2, 1, 0))
    graph = rootgkm.gkm_graph(spec)
    algebra = GrassmannianRing(2, 4).to_frobenius()
    with open(presented.bundled_ig26_path(), encoding="utf-8") as fh:
        algebra_spec = presented.parse_spec(fh.read())
    tree = presented.parse_expression("-s[1]*2 + q")
    return [tree, tree.left, tree.left.left, tree.left.right, tree.right,
            presented.Ref("1"), algebra.grading, algebra.diagnose(), algebra_spec,
            spec.root_system, spec, rootgkm._coset_skeleton("A", 2, ()),
            graph, graph.vertices[0], graph.edges[0], rootgkm.hz_upper_bound(spec)]


def test_every_module_reads_each_of_its_imports():
    """A module-level import that its module never reads is a leftover;
    ``__init__`` is left out, since it binds names for other modules."""
    unread = []
    for path in sorted((SRC / "qeuler").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if (not isinstance(stmt, (ast.Import, ast.ImportFrom))
                    or getattr(stmt, "module", None) == "__future__"):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and alias.asname != alias.name:  # `x as x` re-exports x
                    unread.append(f"{path.name}: {name}")
    assert unread == []


def _module_level_imports(source):
    """The import statements that run when a module is imported: every one
    outside a function body."""
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _every_import(source):
    """Every import statement, those in function bodies included."""
    return (node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)))


def _imports_beyond_stdlib_and_errors(source, imports=_module_level_imports, also=()):
    """The imports in ``source`` of anything but the stdlib, ``errors`` and
    the qeuler modules named in ``also``."""
    found = []
    for node in imports(source):
        if isinstance(node, ast.ImportFrom) and node.level:
            allowed = node.module == "errors" or node.module in also
        else:
            names = [node.module] if isinstance(node, ast.ImportFrom) else \
                [alias.name for alias in node.names]
            allowed = all(name.partition(".")[0] in sys.stdlib_module_names for name in names)
        if not allowed:
            found.append(ast.unparse(node))
    return found


def test_linalg_imports_only_the_stdlib_and_errors():
    """Every ring command imports ``linalg``, and no orbit command does, so
    what it imports at module level the ring processes pay for; the
    fraction-free branch imports ``scalar`` in the function that needs it."""
    source = (SRC / "qeuler" / "linalg.py").read_text(encoding="utf-8")
    assert _imports_beyond_stdlib_and_errors(source) == []
    assert sorted(_imports_beyond_stdlib_and_errors(
        "from . import scalar\nif True:\n    from .scalar import Q\nimport sympy\n"
        "def f():\n    from .scalar import Q\n")) == [
        "from . import scalar", "from .scalar import Q", "import sympy"]


def test_roots_imports_only_the_stdlib_and_errors():
    """Every orbit command imports ``roots``, so no import anywhere in it,
    in a function body or not, reaches past the stdlib and ``errors``: the
    fundamental weights are closed forms, solved for through no ``linalg``."""
    source = (SRC / "qeuler" / "roots.py").read_text(encoding="utf-8")
    assert _imports_beyond_stdlib_and_errors(source, _every_import) == []
    assert _imports_beyond_stdlib_and_errors(
        "import heapq\ndef f():\n    from . import linalg\n", _every_import) == [
        "from . import linalg"]


def test_rootgkm_imports_only_the_stdlib_errors_and_roots():
    """``gkm`` and ``hz-bound`` import ``rootgkm`` over the root data, and
    nothing else of qeuler, anywhere in it."""
    source = (SRC / "qeuler" / "rootgkm.py").read_text(encoding="utf-8")
    assert _imports_beyond_stdlib_and_errors(source, _every_import, also=("roots",)) == []
    assert _imports_beyond_stdlib_and_errors(
        "from .roots import pairing\nfrom .scalar import ONE\n", _every_import,
        also=("roots",)) == ["from .scalar import ONE"]


def test_no_assert_and_no_float_literal_in_the_package():
    """``python -O`` strips asserts, so invariants are real checks; and all
    arithmetic is exact, so no float (or complex) literal appears."""
    found = []
    for path in sorted((SRC / "qeuler").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_no_nested_function_refers_to_itself():
    """A nested function that loads its own name holds itself through its
    closure cell, so every call of the enclosing function leaves a
    reference cycle that only the cyclic collector frees."""
    found = set()
    for path in sorted((SRC / "qeuler").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer
                        and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(node, ast.Name) and node.id == inner.name
                                and isinstance(node.ctx, ast.Load)
                                for node in ast.walk(inner))):
                    found.add(f"{path.name}:{inner.lineno}: {inner.name}")
    assert sorted(found) == []


def test_the_oracles_leave_no_cyclic_garbage():
    """Each call frees everything it made by reference counting alone."""
    spec = rootgkm.make_orbit_spec("A", 3, (), (3, 2, 1, 0))
    ring = GrassmannianRing(2, 5)
    rootgkm.brute_force_bound(spec)
    ring.rim_hook_product((1,), (1,))
    gc.collect()
    # the second product takes Pieri steps that the first did not
    for call in (lambda: rootgkm.brute_force_bound(spec),
                 lambda: ring.rim_hook_product((2, 1), (3, 2))):
        gc.disable()
        try:
            call()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


def test_the_grassmannian_pipeline_leaves_no_cyclic_garbage():
    """Building a ring, its table and its report frees everything by
    reference counting alone: a recursion written as a closure over its
    memo would keep each column alive until the cyclic collector ran."""
    gc.collect()
    gc.disable()
    try:
        for k, n in ((2, 4), (3, 6), (3, 7)):
            GrassmannianRing(k, n).to_frobenius().diagnose()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_every_record_is_immutable():
    records = _records()
    kinds = {type(r) for r in records}
    # every record class of the package is in the sample; OrbitSpec's field
    # base is not a record of its own
    declared = {value for module in (frobenius, presented, rootgkm, roots, scalar)
                for value in vars(module).values()
                if isinstance(value, type) and issubclass(value, tuple)
                and value.__module__ == module.__name__}
    assert declared - {roots._OrbitFields} == kinds
    assert len(kinds) == 15
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def test_orbit_spec_checks_every_construction():
    rs = rootgkm.build_root_system("A", 2)
    weight = (Fraction(2), Fraction(1), Fraction(0))
    with pytest.raises(InvalidShape, match="repeat"):
        rootgkm.OrbitSpec(rs, (1, 1), weight)
    with pytest.raises(InvalidShape, match="out of range"):
        rootgkm.OrbitSpec(rs, (3,), weight)
    with pytest.raises(NotRegular):
        rootgkm.OrbitSpec(rs, (), (0, 0, 0))
    spec = rootgkm.OrbitSpec(rs, (), weight)
    assert spec == rootgkm.make_orbit_spec("A", 2, (), (2, 1, 0))
    with pytest.raises(InvalidShape, match="repeat"):
        spec._replace(parabolic=(1, 1))
    with pytest.raises(InvalidShape, match="coordinates"):
        rootgkm.OrbitSpec._make((rs, (), (1, 0)))


def test_every_traced_name_exists():
    """The benchmark's tracer wraps names by ``owner.__dict__[attr]``; a
    name it lists and the package lost would break only the traced runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, owner_name, attrs in tracer.TARGETS:
        owner = importlib.import_module(f"qeuler.{layer}")
        if owner_name:
            owner = getattr(owner, owner_name)
        missing += [f"{layer}.{owner_name}.{attr}" for attr in attrs
                    if attr not in vars(owner)]
    assert missing == []
