"""Golden outputs of the orbit pipeline for every parabolic of A1-A5,
B2-B4, C2-C4 and D4 at the monotone weight with kappa = 1.

Each record holds the text of ``orbit ... hz-bound --format json`` and the
sha256 of ``to_dot``.  The reduced words in these outputs are part of the
contract: a change to Weyl-group enumeration must leave them unchanged.

Regenerate (only when the contract is meant to change) with::

    PYTHONPATH=src python tests/test_golden_orbits.py > tests/golden/orbits.json
"""

import contextlib
import hashlib
import io
import json
from itertools import combinations
from pathlib import Path

import pytest

from qeuler import rootgkm as rg
from qeuler.cli import main

GOLDEN = Path(__file__).parent / "golden" / "orbits.json"
GROUPS = ([("A", r) for r in range(1, 6)] + [("B", r) for r in (2, 3, 4)]
          + [("C", r) for r in (2, 3, 4)] + [("D", 4)])


def _cases():
    for family, rank in GROUPS:
        for size in range(rank + 1):
            for parabolic in combinations(range(1, rank + 1), size):
                yield family, rank, parabolic


def _record(family, rank, parabolic):
    argv = ["orbit", "--family", family, "--rank", str(rank),
            "--parabolic", ",".join(map(str, parabolic)),
            "hz-bound", "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    weight = rg.monotone_weight(family, rank, parabolic, 1)
    spec = rg.make_orbit_spec(family, rank, parabolic, weight)
    dot = rg.to_dot(spec).encode("utf-8")
    return {
        "family": family,
        "rank": rank,
        "parabolic": list(parabolic),
        "exit_code": code,
        "hz_bound_json": out.getvalue(),
        "dot_sha256": hashlib.sha256(dot).hexdigest(),
    }


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_parabolic():
    keys = [(r["family"], r["rank"], tuple(r["parabolic"])) for r in _golden()]
    assert keys == list(_cases())


@pytest.mark.parametrize("family,rank", GROUPS)
def test_orbit_outputs_match_golden(family, rank):
    for expected in _golden():
        if (expected["family"], expected["rank"]) == (family, rank):
            assert _record(family, rank, tuple(expected["parabolic"])) == expected


# sha256 of ``orbit ... gkm --format json``, captured before its edge
# records and those of ``hz-bound`` came to share one renderer
GKM_JSON_SHA256 = {
    ("A", "2", "--lambda", "3,1,0"):
        "d9a8198b38436b0c2796f593e4750e874637e7645dfe1e18d4119a0199d02a4c",
    ("B", "3", "--parabolic", "1"):
        "229049ab4db78a0e822cac24c9767f6da95d60f3cc58ccc9afb27ae7b7486284",
    ("C", "3"):
        "c631e54ad2072fc963927de8b3a8b98e8f3671a6235ed5f52e06c7cb40afe0e1",
    ("D", "4", "--parabolic", "1,3"):
        "40dc81f52e3b8e75bc5bcb039b7f88a7bb51677f1242ac1c3eeced670aded907",
}


@pytest.mark.parametrize("args", GKM_JSON_SHA256, ids=" ".join)
def test_gkm_json_matches_pinned_hash(args):
    family, rank, *rest = args
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["orbit", "--family", family, "--rank", rank, *rest,
                     "gkm", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GKM_JSON_SHA256[args]


if __name__ == "__main__":
    print(json.dumps([_record(*case) for case in _cases()], indent=1))
