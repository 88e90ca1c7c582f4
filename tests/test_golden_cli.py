"""Golden outputs of the ring commands: every format of ``table``, ``euler``,
``diagnose`` and ``product`` on G(1,3), G(2,4), G(2,5), G(3,5), G(2,6),
G(3,6) and the bundled IG(2,6) file, bad product labels included.

Each record holds the argv, the exit code, the sha256 of stdout and, for a
failing command, its stderr.  A refactor of parsing, rendering or the
product path must leave every record unchanged.

Regenerate (only when the contract is meant to change) with::

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden/cli.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qeuler.cli import main
from qeuler.grassmannian import GrassmannianRing, partition_label

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden" / "cli.json"
IG26 = "src/qeuler/data/ig26.json"
RINGS = [(1, 3), (2, 4), (2, 5), (3, 5), (2, 6), (3, 6)]
FORMATS = ([], ["--format", "md"], ["--format", "json"])


def _grassmannian_products(k, n):
    labels = [partition_label(p) for p in GrassmannianRing(k, n).basis]
    mid = len(labels) // 2
    products = [
        [labels[1], labels[1]],
        [labels[1], labels[-1]],
        [labels[-2], labels[-1]],
        [labels[mid], labels[mid + 1]],
        ["1,0", " 1"],  # labels are normalised
        ["0", labels[-1]],
        [str(n - k + 1), "1"],  # outside the box
        ["1", ",".join(["1"] * (k + 1))],  # too many rows
        ["x", "1"],
        ["1", "1,2"],
        ["1"],
    ]
    # on small rings several picks name the same pair; keep the first
    return [list(p) for p in dict.fromkeys(map(tuple, products))]


IG26_PRODUCTS = [
    ["1", "1"], ["2,1", "2,1"], ["1", "4,3"], ["3", "4,2"], ["0", "1,1"],
    ["5", "1"], ["1", "x"], ["2, 1", "1"], ["2,1"],
]


def _cases():
    targets = [(["grassmannian", "-k", str(k), "-n", str(n)],
                _grassmannian_products(k, n)) for k, n in RINGS]
    targets.append((["algebra", "--file", IG26], IG26_PRODUCTS))
    for prefix, products in targets:
        for fmt in FORMATS:
            for action in ("table", "euler", "diagnose"):
                yield prefix + [action] + fmt
            for labels in products:
                yield prefix + ["product"] + labels + fmt


def _record(argv):
    out, err = io.StringIO(), io.StringIO()
    real = [str(ROOT / a) if a == IG26 else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    record = {
        "argv": argv,
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
    }
    if code:
        record["stderr"] = err.getvalue()
    return record


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert [r["argv"] for r in _golden()] == list(_cases())


@pytest.mark.parametrize("target", [f"G({k},{n})" for k, n in RINGS] + ["IG(2,6)"])
def test_ring_outputs_match_golden(target):
    k_n = {f"G({k},{n})": ["-k", str(k), "-n", str(n)] for k, n in RINGS}
    wanted = (["grassmannian"] + k_n[target] if target in k_n
              else ["algebra", "--file", IG26])
    records = [r for r in _golden() if r["argv"][:len(wanted)] == wanted]
    assert records
    for expected in records:
        assert _record(expected["argv"]) == expected


if __name__ == "__main__":
    print(json.dumps([_record(argv) for argv in _cases()], indent=1))
