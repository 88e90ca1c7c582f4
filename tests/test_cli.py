import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qeuler.cli import main
from qeuler.presented import MAX_DEPTH, MAX_Q_EXPONENT, bundled_ig26_path

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run_module(*argv, flags=()):
    """Run ``python [flags] -m qeuler argv`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, *flags, "-m", "qeuler", *argv],
        capture_output=True, text=True, env=env, timeout=120)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grassmannian_euler_text(capsys):
    code, out, _ = run_cli(capsys, "grassmannian", "-k", "2", "-n", "4", "euler")
    assert code == 0
    assert out == "6*s[2,2] + 2*q\n"


def test_grassmannian_table_matches_golden(capsys):
    code, out, _ = run_cli(
        capsys, "grassmannian", "-k", "2", "-n", "4", "table", "--format", "md")
    assert code == 0
    assert out == (GOLDEN / "g24_table.md").read_text(encoding="utf-8")


def test_ig26_diagnose_matches_golden(capsys):
    code, out, _ = run_cli(
        capsys, "algebra", "--file", str(bundled_ig26_path()),
        "diagnose", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "ig26_diagnose.json").read_text(encoding="utf-8")
    payload = json.loads(out)
    assert payload["semisimple"] is False
    assert payload["field_factor"] is True


def test_diagnose_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "grassmannian", "-k", "2", "-n", "4", "diagnose",
        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "rank", "euler_class", "f_of_euler", "euler_square",
        "semisimple", "field_factor"}
    assert json.dumps(payload, indent=2) + "\n" == out


def test_grassmannian_product(capsys):
    code, out, _ = run_cli(
        capsys, "grassmannian", "-k", "2", "-n", "4", "product", "2", "1,1")
    assert code == 0
    assert out == "q\n"


def test_table_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "grassmannian", "-k", "2", "-n", "4", "table",
        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["2|1,1"] == {"0": "q"}
    assert len(payload) == 36


def test_un_capacity(capsys):
    code, out, _ = run_cli(capsys, "un-capacity", "--lambda", "3,1,0")
    assert code == 0
    assert out == "3\n"


def test_un_capacity_rational(capsys):
    code, out, _ = run_cli(capsys, "un-capacity", "--lambda", "1/2,0")
    assert code == 0
    assert out == "1/2\n"


def test_un_capacity_builds_no_root_system(capsys, monkeypatch):
    """The bound is a closed form in the entries; no root is needed."""
    from qeuler import roots

    def refuse(*args):
        raise AssertionError(f"un-capacity built the root system {args}")

    monkeypatch.setattr(roots, "build_root_system", refuse)
    assert run_cli(capsys, "un-capacity", "--lambda", "3,1,0")[:2] == (0, "3\n")


@pytest.mark.parametrize("argv", [
    ["un-capacity", "--lambda", "3,,1,0"],
    ["un-capacity", "--lambda", "3,1,0,"],
    ["un-capacity", "--lambda", ", 3,1,0"],
    ["orbit", "--family", "A", "--rank", "2", "--lambda", "3,1,,0", "hz-bound"],
    ["orbit", "--family", "A", "--rank", "3", "--parabolic", "1,,3", "chern"],
    ["orbit", "--family", "A", "--rank", "3", "--parabolic", ",1", "chern"],
    ["orbit", "--family", "A", "--rank", "3", "--parabolic", "1, ", "chern"],
])
def test_empty_list_entries_exit_2(capsys, argv):
    """An empty entry in a list is bad input, not a shorter list."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("InputError:") and err.count("\n") == 1


def test_blank_parabolic_is_the_full_flag(capsys):
    outputs = {run_cli(capsys, "orbit", "--family", "A", "--rank", "3", *extra, "chern")
               for extra in ((), ("--parabolic", ""), ("--parabolic", "  "))}
    assert outputs == {(0, "n(a1) = 2; n(a2) = 2; n(a3) = 2; N = 2\n", "")}


def test_orbit_chern(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--family", "A", "--rank", "3",
        "--parabolic", "1,3", "chern")
    assert code == 0
    assert out == "n(a2) = 4; N = 4\n"
    # a point orbit has no crossing roots: N alone, with no separator before it
    code, out, _ = run_cli(
        capsys, "orbit", "--family", "A", "--rank", "2",
        "--parabolic", "1,2", "chern")
    assert code == 0
    assert out == "N = 0\n"


def test_orbit_chern_of_rank_40_runs_in_seconds():
    """The root coordinates read each root's nonzero entries only; dense
    pairings of every root with every weight made this take tens of seconds."""
    start = time.perf_counter()
    proc = run_module("orbit", "--family", "A", "--rank", "40", "chern")
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 10
    assert proc.stdout.endswith("; N = 2\n")



def test_orbit_monotone_weight(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--family", "A", "--rank", "3",
        "--parabolic", "1,3", "monotone-weight")
    assert code == 0
    assert out == "2,2,-2,-2\n"


def test_monotone_weight_is_derived_once(capsys, monkeypatch):
    """Without ``--lambda`` the weight that the orbit is built from is the
    one printed; with it, the monotone weight is derived for the output."""
    from qeuler import roots
    calls = []
    monotone_weight = roots.monotone_weight
    monkeypatch.setattr(roots, "monotone_weight",
                        lambda *args: calls.append(args) or monotone_weight(*args))
    for extra in ((), ("--lambda", "1,1,-1,-1")):
        calls.clear()
        code, out, _ = run_cli(capsys, "orbit", "--family", "A", "--rank", "3",
                               "--parabolic", "1,3", *extra, "--kappa", "2",
                               "monotone-weight")
        assert (code, out, len(calls)) == (0, "1,1,-1,-1\n", 1)


@pytest.mark.parametrize("argv, want", [
    (("--parabolic", "1,3", "chern"), {"n": {"a2": 4}, "N": 4}),
    (("--parabolic", "1,3", "monotone-weight"), ["2", "2", "-2", "-2"]),
    (("--parabolic", "1,2,3", "chern"), {"n": {}, "N": 0}),
], ids=["chern", "monotone-weight", "point-chern"])
def test_orbit_json_outputs(capsys, argv, want):
    code, out, _ = run_cli(capsys, "orbit", "--family", "A", "--rank", "3", *argv,
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == want


def test_orbit_hz_bound(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--family", "A", "--rank", "2",
        "--lambda", "3,1,0", "hz-bound")
    assert code == 0
    assert out == "3\n"


def test_orbit_hz_bound_json(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--family", "A", "--rank", "3",
        "--parabolic", "1,3", "--lambda", "2,2,-2,-2", "hz-bound",
        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "8"
    assert len(payload["chain"]) == 2


def test_orbit_gkm_dot(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--family", "A", "--rank", "1",
        "--lambda", "1,-1", "gkm")
    assert code == 0
    assert out.startswith("graph gkm {")
    assert "a1 | 2" in out


def test_usage_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "grassmannian", "-k", "2", "euler")
    assert code == 1
    assert "usage error" in err
    code, _, _ = run_cli(capsys, "grassmannian", "-k", "2", "-n", "4",
                         "product", "2")
    assert code == 1


def test_validation_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "grassmannian", "-k", "4", "-n", "8", "euler")
    assert code == 2
    assert "TooLarge" in err
    code, _, err = run_cli(capsys, "un-capacity", "--lambda", "1,1,0")
    assert code == 2
    assert "NotRegular" in err
    code, _, err = run_cli(capsys, "algebra", "--file", "/no/such/file.json",
                           "euler")
    assert code == 2


def test_arithmetic_error_exits_3(capsys, monkeypatch):
    from qeuler import cli
    from qeuler.errors import NotAUnit

    def boom(args):
        raise NotAUnit("synthetic")

    monkeypatch.setattr(cli, "run", boom)
    code, _, err = run_cli(capsys, "un-capacity", "--lambda", "1,0")
    assert code == 3
    assert "NotAUnit" in err


def test_allow_large_lifts_guard(capsys):
    code, out, _ = run_cli(
        capsys, "grassmannian", "-k", "2", "-n", "9", "--allow-large",
        "product", "1", "1")
    assert code == 0
    assert out == "s[1,1] + s[2]\n"


@pytest.mark.parametrize("argv,error", [
    (["orbit", "--family", "A", "--rank", "2", "--kappa", "abc", "hz-bound"],
     "InputError"),
    (["orbit", "--family", "A", "--rank", "2", "--lambda", "1,1/0,0",
      "hz-bound"], "InputError"),
    (["un-capacity", "--lambda", "3,1/0"], "InputError"),
    (["orbit", "--family", "A", "--rank", "2", "--parabolic", "1,1",
      "hz-bound"], "InvalidShape"),
    # Fraction reads exponents, and these values have too many digits to print
    (["un-capacity", "--lambda", "1e5000,0"], "InputError"),
    (["orbit", "--family", "A", "--rank", "1", "--lambda", "1e5000,0", "hz-bound"],
     "InputError"),
    (["orbit", "--family", "A", "--rank", "2", "--kappa", "1e-5000",
      "monotone-weight"], "InputError"),
    # gkm and hz-bound refuse Weyl groups past B6 and C6 before enumerating
    (["orbit", "--family", "A", "--rank", "8", "hz-bound"], "TooLarge"),
    (["orbit", "--family", "D", "--rank", "7", "gkm"], "TooLarge"),
])
def test_bad_orbit_input_exits_2_without_traceback(argv, error):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(error + ":")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("family,rank,action,size", [
    ("B", 7, "gkm", "645120"), ("C", 7, "hz-bound", "645120"),
    ("A", 10**9, "gkm", "more than 51090942171709440000"),
])
def test_weyl_group_guard_names_the_order_from_its_closed_form(
        capsys, family, rank, action, size):
    code, out, err = run_cli(capsys, "orbit", "--family", family, "--rank", str(rank),
                             action)
    assert (code, out) == (2, "")
    assert err == (f"TooLarge: the Weyl group of {family}{rank} has {size} elements, "
                   "over the guard of 46080 for gkm and hz-bound\n")


@pytest.mark.parametrize("argv, rank", [
    (("orbit", "--family", "A", "--rank", "100000", "monotone-weight"), 100000),
    (("orbit", "--family", "B", "--rank", "201", "chern"), 201),
    (("orbit", "--family", "C", "--rank", "201", "--parabolic", "1", "monotone-weight"), 201),
    (("orbit", "--family", "D", "--rank", "201", "chern"), 201),
    (("un-capacity", "--lambda", ",".join(map(str, range(201, -1, -1)))), 201),
], ids=["A100000-monotone-weight", "B201-chern", "C201-monotone-weight", "D201-chern",
        "un-capacity-202"])
def test_root_systems_past_rank_200_are_refused_before_they_are_built(capsys, argv, rank):
    """Roots are dense vectors, so their memory grows as rank^3: the root
    system of any family past rank 200 is refused before it is built."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"TooLarge: rank {rank} exceeds the root-system guard of 200\n"


def test_largest_type_a_group_under_the_guard_still_runs():
    proc = run_module("orbit", "--family", "A", "--rank", "7",
                      "--parabolic", "1,2,3,4,5,6", "hz-bound")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8\n"


def test_largest_guarded_grassmannian_diagnoses_in_seconds():
    """G(12,13) is inside the k(n-k) <= 12 guard; its Jacobi-Trudi
    expansions once took 12! permutations per class."""
    proc = run_module("grassmannian", "-k", "12", "-n", "13", "diagnose", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["rank"] == 13
    assert payload["semisimple"] is True


def test_optimized_interpreter_gives_same_output():
    argv = ("orbit", "--family", "B", "--rank", "3", "hz-bound")
    plain = run_module(*argv)
    optimized = run_module(*argv, flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout != ""


def _set_first_coeff(value):
    return lambda raw: raw["generator_products"]["1|0"][0].update(coeff=value)


@pytest.mark.parametrize("edit, path", [
    (lambda raw: raw["basis"][0].pop("label"), "basis[0].label"),
    (_set_first_coeff("1/0"), 'generator_products["1|0"][0].coeff'),
    (_set_first_coeff("abc"), 'generator_products["1|0"][0].coeff'),
    (_set_first_coeff("1e3000000"), 'generator_products["1|0"][0].coeff'),
    (lambda raw: raw["basis"][0].update(codim="x"), "basis[0].codim"),
    (lambda raw: raw.update(basis=5), "basis"),
], ids=["missing-label", "coeff-1/0", "coeff-abc", "coeff-1e3000000", "codim-x", "basis-5"])
def test_bad_data_file_exits_2_naming_the_json_path(tmp_path, edit, path):
    raw = json.loads(bundled_ig26_path().read_text(encoding="utf-8"))
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    proc = run_module("algebra", "--file", str(bad), "diagnose")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("ParseError:")
    assert path in proc.stderr


@pytest.mark.parametrize("content", [
    b'{"name": "IG(2,6)\xff"}',
    b"[" * 100_000,
    b'{"chern_number": ' + b"7" * 5000 + b"}",
], ids=["not-utf-8", "100000-brackets", "5000-digit-integer"])
def test_unreadable_data_file_exits_2_with_one_parse_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "algebra", "--file", str(bad), "diagnose")
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: not valid ") and err.count("\n") == 1


def _edit_first_definition(prefix="", suffix=""):
    def edit(raw):
        first = raw["definitions"][0]
        first["expr"] = prefix + first["expr"] + suffix
    return edit


def _diagnose_edited(tmp_path, edit):
    raw = json.loads(bundled_ig26_path().read_text(encoding="utf-8"))
    edit(raw)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return run_module("algebra", "--file", str(path), "diagnose")


@pytest.mark.parametrize("edit, message", [
    (_edit_first_definition("1/0*"), "division by zero (column 2)"),
    (_edit_first_definition("-" * 3000),
     f"expression nested deeper than {MAX_DEPTH} levels (column {MAX_DEPTH + 1})"),
], ids=["one-over-zero", "3000-minus-signs"])
def test_bad_definition_exits_2_naming_the_definition(tmp_path, edit, message):
    proc = _diagnose_edited(tmp_path, edit)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"ParseError: in definition of '1,1': {message}\n"


@pytest.mark.parametrize("edit, product", [
    (lambda raw: raw["generator_products"]["1|1"][0].update(q=10**30), "'1|1': its '2'"),
    (lambda raw: raw["definitions"][0].update(expr="q^99999999999*s[1]"),
     "'1,1|0': its '1'"),
], ids=["q-10^30-in-a-product", "q^99999999999-in-a-definition"])
def test_huge_q_exponent_exits_2_within_a_second(tmp_path, edit, product):
    """Validation would evaluate these tables at q = 2^b and never end."""
    start = time.perf_counter()
    proc = _diagnose_edited(tmp_path, edit)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"TooLarge: product {product} term has a q-exponent past "
                           f"the guard of {MAX_Q_EXPONENT}\n")


def test_bad_references_are_reported_in_text_order(tmp_path, monkeypatch):
    # 'zz' comes first in the text; '4,3' is defined later and 'yy' is unknown
    def edit(raw):
        raw["definitions"][0]["expr"] = "s[zz]*s[4,3] + s[yy]"
    for seed in ("0", "1", "5"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _diagnose_edited(tmp_path, edit)
        assert proc.returncode == 2
        assert proc.stderr == (
            "UnknownLabel: definition of '1,1' references unknown label 'zz'\n"), seed


@pytest.mark.parametrize("edit", [
    _edit_first_definition(suffix=" + 0*s[1]" * 1500),
    _edit_first_definition(suffix=" * 1" * 1500),
    _edit_first_definition("-(" * (MAX_DEPTH // 2), ")" * (MAX_DEPTH // 2)),
], ids=["1500-terms", "1500-factors", "deepest-nesting"])
def test_long_or_deep_definition_gives_same_ring(tmp_path, edit):
    """Long chains and nesting up to the bound are accepted and leave the
    completed ring as it was (an even number of minus signs)."""
    proc = _diagnose_edited(tmp_path, edit)
    assert proc.returncode == 0, proc.stderr
    unedited = run_module("algebra", "--file", str(bundled_ig26_path()), "diagnose")
    assert proc.stdout == unedited.stdout != ""


def test_optimized_interpreter_gives_same_diagnose():
    argv = ("grassmannian", "-k", "3", "-n", "6", "diagnose")
    plain = run_module(*argv)
    optimized = run_module(*argv, flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout != ""


# -- fuzzing: random argv and one-field edits of ig26.json, in-process ------------

_INTS = ("-1", "0", "1", "2", "3", "4", "5", "x", "")
_FUZZ_FLAGS = {
    "grassmannian": {"-k": _INTS, "-n": _INTS + ("6",), "--format": ("text", "md", "json")},
    "algebra": {"--format": ("text", "md", "json")},
    "orbit": {"--family": tuple("ABCDEa"), "--rank": ("-1", "0", "1", "2", "3", "4", "x"),
              "--parabolic": ("", "1", "2", "1,3", "0", "9", "1,1", "x", "-1"),
              "--lambda": ("3,1,0", "1,1,0", "1/0,1", "", "a", "5,3/2,-1", "2,1",
                           "4,3,2,1,0", "0", "1e5000,0"),
              "--kappa": ("1", "0", "-1", "1/2", "abc", "1/0", "1e5000"),
              "--format": ("text", "json", "dot")},
    "un-capacity": {"--lambda": ("3,1,0", "1,1,0", "3,1/0", "", "x", "2,1", "5,3/2,-1"),
                    "--format": ("text", "json")},
    "nope": {},
}
_RING_ACTIONS = ("table", "euler", "diagnose", "product")
_FUZZ_ACTIONS = {"grassmannian": _RING_ACTIONS, "algebra": _RING_ACTIONS,
                 "orbit": ("chern", "monotone-weight", "gkm", "hz-bound"),
                 "un-capacity": (), "nope": ()}
_FUZZ_LABELS = ("1", "2", "1,1", "0", "2,1", "x", "", "-1", "9", "1,2", "s[1]")
_FUZZ_VALUES = (None, True, 0, -1, 7, 10**6, 1.5, "", "x", "1/0", "3/2", [], {},
                "s[1]*", "q^-1", "2,1", "0", "s[1]*s[9]", "s[1", "-" * 200)


def _fuzz_argv(rng, files):
    """Documented subcommands and flags (no -h, no --allow-large), each flag
    present with probability 0.9 and valued from a pool that mixes good and
    bad values; orbit ranks stay <= 4."""
    command = rng.choices(list(_FUZZ_FLAGS), (30, 10, 40, 15, 5))[0]
    argv = [command]
    flags = dict(_FUZZ_FLAGS[command])
    if command == "algebra":
        flags["--file"] = files
    for flag, values in flags.items():
        if rng.random() < 0.9:
            argv += [flag, rng.choice(values)]
    if _FUZZ_ACTIONS[command] and rng.random() < 0.95:
        argv.append(rng.choice(_FUZZ_ACTIONS[command]))
    if command in ("grassmannian", "algebra"):
        argv += rng.choices(_FUZZ_LABELS, k=rng.choice((0, 2, 2)))
    return argv


def _json_paths(node, path=()):
    """Every key path below ``node``, to inner nodes and leaves alike."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,)
            yield from _json_paths(child, path + (key,))


def _mutated(raw, rng):
    """A copy of ``raw`` with one field, at any depth, removed or replaced."""
    raw = json.loads(json.dumps(raw))
    *parents, last = rng.choice(list(_json_paths(raw)))
    node = raw
    for key in parents:
        node = node[key]
    if rng.random() < 0.25:
        del node[last]
    else:
        node[last] = rng.choice(_FUZZ_VALUES)
    return raw


def test_fuzzed_argv_and_data_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(1507)
    files = (str(bundled_ig26_path()), str(tmp_path), str(tmp_path / "missing.json"))
    runs = [_fuzz_argv(rng, files) for _ in range(300)]
    raw = json.loads(bundled_ig26_path().read_text(encoding="utf-8"))
    for i in range(20):
        mutant = tmp_path / f"mutant{i}.json"
        mutant.write_text(json.dumps(_mutated(raw, rng)), encoding="utf-8")
        runs.append(["algebra", "--file", str(mutant), *rng.choice(
            (["table"], ["euler"], ["diagnose"], ["product", "1", "2"]))])
    codes = []
    for argv in runs:
        codes.append(main(argv))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1, 2, 3) and err.count("\n") <= 1, (argv, err)
    assert {0, 1, 2} <= set(codes)
