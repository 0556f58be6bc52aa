"""The benchmark's own tests.

    python3 -m pytest -q bench/tests

They run the benchmark on tiny inputs (``--tiny``), so they check its wiring,
not its timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_RESULTS = {}


def _bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                           "--tiny"], cwd=str(cwd), capture_output=True, text=True, timeout=600)
    return proc


def _result(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _RESULTS:
        proc = _bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        _RESULTS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RESULTS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run_passes_and_prints_spec_metrics(workload, trace):
    result = _result(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_workloads_match_spec():
    # fie-max-scalar runs by hand; it is left out of the spec for time
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        set(workloads.WORKLOADS) - {"fie-max-scalar"})


def test_other_seed_changes_inputs_not_metric_set():
    for name in workloads.WORKLOADS:
        a = [e.config_text() for e in workloads.experiments(name, 1)]
        b = [e.config_text() for e in workloads.experiments(name, 2)]
        assert a != b
        assert a == [e.config_text() for e in workloads.experiments(name, 1)]
    first, other = _result("fie-max-scalar", 1, 0), _result("fie-max-scalar", 2, 0)
    assert other["correct"] is True
    assert set(other["metrics"]) == set(first["metrics"])


def _bindings():
    return {(name, key): value for name, mod in list(sys.modules.items())
            if name == "mhestab" or name.startswith("mhestab.")
            for key, value in vars(mod).items()}


def test_tracer_restores_every_wrapped_attribute():
    from mhestab import cli, harness  # noqa: F401  (cli.main is a target too)

    before = _bindings()
    original = harness.resolve
    tracer = Tracer()
    with tracer:
        assert harness.resolve is not original
        harness.resolve(harness.ExperimentConfig(plant="s1", mode="max"))
    assert not tracer.missing, tracer.missing
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s[0] for s in tracer.spans}
    assert {"harness.resolve", "comparison.triangle_constant",
            "certificates.check_compatibility"} <= names
    # children lie inside their parent, so self time is never negative
    assert all(t >= 0 for t in self_times(tracer.spans))
    assert {name for _, _, name, _ in TARGETS} >= names


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ["harness.run_cell", 0.0, 10.0, -1, 0, None],
        ["estimator.drive", 1.0, 7.0, 0, 0, None],
        ["estimator.solve_window", 2.0, 4.0, 1, 0, ["gauss-newton", 5]],
        ["estimator.solve_window", 4.0, 5.0, 1, 0, ["compass", 2]],
        ["estimator.certify", 8.0, 9.0, 0, 0, True],
        ["harness.write", 9.5, 9.75, -1, -1, 120],
    ]
    m = layer_metrics(spans)
    assert m["harness.run_cell.self_s"] == 3.0
    assert m["estimator.drive.self_s"] == 3.0
    assert m["estimator.engine.gauss-newton.s"] == 2.0
    assert m["estimator.engine.gauss-newton.iterations"] == 5
    assert m["estimator.engine.compass.windows"] == 1
    assert m["estimator.certified_share"] == 1.0
    assert m["harness.artifact_bytes"] == 120


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("fie-max-scalar", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
