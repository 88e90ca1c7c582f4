"""Smoke tests for the benchmark itself, at a tiny size.

    python -m pytest perfbench -q

Each workload runs one round of a two- or three-kind mix, in both modes,
and must emit every named metric with its unit and fail no operation.
"""

import json
import sys

import pytest

import run
import speed
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

TINY_MIX = {
    "schubert": ((2, 4), (3, 5)),
    "generic": (("base", "base"), ("dual", "chain2")),
    "orbits": (("A", 2, ()), ("B", 2, (1,)), ("D", 3, (1, 3))),
    "cli": ("un-capacity", "table-golden", "chern"),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.chdir(run.ROOT)
    for name, mix in TINY_MIX.items():
        monkeypatch.setattr(type(workloads.WORKLOADS[name]), "MIX", mix)
        monkeypatch.setattr(type(workloads.WORKLOADS[name]), "setup_samples", 1)


def run_benchmark(capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    record = json.loads(lines[-2].removeprefix("record: "))
    return record, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY_MIX))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_no_errors(tiny, capsys, name, trace):
    record, result = run_benchmark(capsys, name, trace)
    expected = ({**tracer.LAYER_METRICS, **run.RUN_METRICS} if trace
                else run.END_TO_END)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["seed"] == 5 and record["python"] and record["nproc"]
    assert sum(record["mix"].values()) == len(TINY_MIX[name]) * (
        run.TRACE_ROUNDS if trace else record["rounds"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    def inputs(seed):
        return json.dumps([workload.round(seed, r) for r in range(3)])

    workload = workloads.WORKLOADS[name]
    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_wrappers_are_undone_after_an_error():
    from qeuler import frobenius, rootgkm, scalar

    originals = (scalar.poly_gcd, scalar.RationalFunction.__dict__["__add__"],
                 frobenius.FrobeniusAlgebra.diagnose, rootgkm.weyl_elements)
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer().installed():
            assert scalar.poly_gcd is not originals[0]
            1 / 0
    assert (scalar.poly_gcd, scalar.RationalFunction.__dict__["__add__"],
            frobenius.FrobeniusAlgebra.diagnose, rootgkm.weyl_elements) == originals


def test_setup_probe_runs_in_a_fresh_interpreter():
    wall, out = run.probe("setup", "schubert")
    assert 0 < out["wall_s"] < wall and out["setup_s"] > 0


def test_benchmark_json_names_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        **tracer.LAYER_METRICS, **run.RUN_METRICS}


def test_validate_inside_completion_is_counted_apart():
    from qeuler import presented

    line = {  # the projective line: s1 * s1 = q
        "name": "P1", "complex_dimension": 1, "chern_number": 2,
        "unit": "0", "point": "1",
        "basis": [{"label": "0", "codim": 0}, {"label": "1", "codim": 1}],
        "generators": ["1"],
        "generator_products": {"1|0": [{"coeff": 1, "q": 0, "label": "1"}],
                               "1|1": [{"coeff": 1, "q": 1, "label": "0"}]},
        "definitions": [],
    }
    trace = tracer.Tracer()
    with trace.installed():
        presented.complete_table(presented.parse_spec(json.dumps(line)))
    raw = trace.summary()
    inside = raw["presented.complete_table.validate_s"]
    assert inside == raw["frobenius.FrobeniusAlgebra.validate.busy_s"] > 0
    metrics = tracer.layer_metrics(raw)
    assert metrics["presented.complete_table.busy_s"] == (
        raw["presented.complete_table.busy_s"] - inside)


@pytest.mark.parametrize("kernel", [speed.PYTHON, speed.START])
def test_speed_correction_scales_by_the_kernel(kernel):
    ref = kernel.reference_s
    assert speed.corrected(1.0, ref, ref, kernel) == 1.0
    assert speed.corrected(1.0, 2 * ref, 2 * ref, kernel) == 0.5
    assert kernel.seconds() > 0
