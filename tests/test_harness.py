"""Experiment harness: config parsing, runs, sweeps, probes, determinism,
and the CLI exit-code contract."""

import importlib.util
import json
import os
import sys

import pytest

from mhestab import harness
from mhestab.cli import main as cli_main
from mhestab.harness import (
    AnalysisError,
    ConfigError,
    ExperimentConfig,
    ScenarioSpec,
    _group_worker,
    analyze,
    deviant_output_probe,
    horizon_sweep,
    load_config,
    resolve,
    run_cell,
    run_experiment,
)

BASE_CONFIG = """
[experiment]
name = demo
plant = s1
certificate = default
mode = max
cost = default
a_factor = 1.05
estimator = {estimator}
horizon = {horizon}
t_final = {t_final}
seeds = 0,1
x0 = 0.5
prior_offset = 1.0
{extra}

[scenario.zero]
kind = zero

[scenario.noise]
kind = bounded_uniform
amplitude = 0.1

[solver]
method = gauss_newton_penalty
use_structured = true

[output]
dir = {out}
"""


def _write_config(tmp_path, **kw):
    text = BASE_CONFIG.format(estimator=kw.get("estimator", "fie"),
                              horizon=kw.get("horizon", 4),
                              t_final=kw.get("t_final", 12),
                              out=str(tmp_path / "out"),
                              extra=kw.get("extra", ""))
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def test_load_config_round_trip(tmp_path):
    path = _write_config(tmp_path, estimator="mhe", horizon=3, t_final=20)
    cfg = load_config(path)
    assert cfg.plant == "s1" and cfg.estimator == "mhe" and cfg.horizon == 3
    assert cfg.seeds == (0, 1)
    assert [s.name for s in cfg.scenarios] == ["zero", "noise"]
    assert cfg.a_factor == 1.05


def test_load_config_seed_ranges(tmp_path):
    path = _write_config(tmp_path, extra="")
    text = open(path).read().replace("seeds = 0,1", "seeds = 3:6")
    open(path, "w").write(text)
    assert load_config(path).seeds == (3, 4, 5)


def test_unknown_plant_rejected():
    cfg = ExperimentConfig(plant="s9")
    with pytest.raises(ConfigError):
        resolve(cfg)


def test_mode_mismatch_is_config_error():
    cfg = ExperimentConfig(mode="median")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_run_experiment_fie_passes(tmp_path):
    cfg = ExperimentConfig(name="fie-s1", plant="s1", mode="max", estimator="fie",
                           t_final=12, seeds=(0, 1), out_dir=str(tmp_path))
    report = run_experiment(cfg)
    assert report.status == "pass"
    data = json.loads(open(report.report_path).read())
    assert data["schema"] == "mhestab-report-v1"
    assert data["violations"] == []
    # defaults echoed for reproducibility
    assert data["config"]["t_max_fie"] == 200
    trace = os.path.join(report.out_dir, "trace_zero-seed0.csv")
    header = open(trace).readline().strip().split(",")
    assert header[:3] == ["t", "xhat0", "x_true0"]
    assert "achieved_cost" in header and "certified_ratio" in header
    assert os.path.exists(os.path.join(report.out_dir, "plots.json"))


def test_mhe_k1_fails_analysis_before_simulation(tmp_path):
    cfg = ExperimentConfig(name="k1", plant="s1", mode="max", estimator="mhe",
                           horizon=1, t_final=10, out_dir=str(tmp_path))
    with pytest.raises(AnalysisError):
        run_experiment(cfg)


def test_run_experiment_mhe_passes(tmp_path):
    for mode in ("max", "sum"):
        cfg = ExperimentConfig(name=f"mhe-{mode}", plant="s1", mode=mode, estimator="mhe",
                               horizon=3, t_final=15, seeds=(0,), out_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert report.status == "pass"
        for cell in report.cells:
            assert cell.certified_steps == cell.total_steps


def test_determinism_byte_identical(tmp_path):
    cfg = ExperimentConfig(name="det", plant="s3", mode="max", estimator="fie",
                           t_final=10, seeds=(0, 1),
                           scenarios=[ScenarioSpec("noise", "bounded_uniform", amplitude=0.1)])
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    for name in ("trace_noise-seed0.csv", "trace_noise-seed1.csv", "report.json", "plots.json"):
        a = open(tmp_path / "a" / "det" / name, "rb").read()
        b = open(tmp_path / "b" / "det" / name, "rb").read()
        assert a == b, name


def test_parallel_jobs_match_serial(tmp_path, monkeypatch):
    import concurrent.futures
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    cfg = ExperimentConfig(name="par", plant="s1", mode="max", estimator="fie",
                           t_final=8, seeds=(0, 1, 2))
    run_experiment(cfg, str(tmp_path / "serial"))
    cfg.jobs = 2
    run_experiment(cfg, str(tmp_path / "parallel"))
    assert pools == [2]
    for seed in (0, 1, 2):
        name = f"trace_zero-seed{seed}.csv"
        a = open(tmp_path / "serial" / "par" / name, "rb").read()
        b = open(tmp_path / "parallel" / "par" / name, "rb").read()
        assert a == b, name
    ra = json.loads(open(tmp_path / "serial" / "par" / "report.json").read())
    rb = json.loads(open(tmp_path / "parallel" / "par" / "report.json").read())
    assert ra["cells"] == rb["cells"]   # echoed jobs differ, results must not

    # the horizon sweep fans its cells out over the same pool
    sweep = ExperimentConfig(name="psweep", plant="s1", mode="max", estimator="mhe",
                             sweep=(2, 3), t_final=8, seeds=(0, 1),
                             scenarios=[ScenarioSpec("zero", "zero"),
                                        ScenarioSpec("noise", "bounded_uniform", amplitude=0.1)])
    horizon_sweep(sweep, str(tmp_path / "serial"))
    sweep.jobs = 2
    horizon_sweep(sweep, str(tmp_path / "parallel"))
    assert pools == [2, 2]
    serial, parallel = tmp_path / "serial" / "psweep", tmp_path / "parallel" / "psweep"
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(parallel))
    traces = [name for name in names if name.startswith("trace_")]
    assert len(traces) == 8
    for name in traces:
        assert open(serial / name, "rb").read() == open(parallel / name, "rb").read(), name
    sa = json.loads(open(serial / "sweep.json").read())
    sb = json.loads(open(parallel / "sweep.json").read())
    assert (sa["config"].pop("jobs"), sb["config"].pop("jobs")) == (1, 2)
    assert sa == sb


def test_analyze_only(tmp_path):
    cfg = ExperimentConfig(name="an", plant="s1", mode="max", estimator="mhe",
                           horizon=2, t_final=10, out_dir=str(tmp_path))
    summary = analyze(cfg)
    assert summary["contractions"]["2"]["passed"]
    assert summary["compat_B"] == 1.0
    assert os.path.exists(tmp_path / "an" / "analysis.json")


def test_horizon_sweep_excludes_failing_k(tmp_path):
    cfg = ExperimentConfig(name="sweep", plant="s1", mode="max", estimator="mhe",
                           sweep=(1, 2, 3, 4), t_final=12, seeds=(0,),
                           out_dir=str(tmp_path))
    summary = horizon_sweep(cfg)
    assert summary["excluded_horizons"] == [1]
    assert summary["minimal_passing_horizon"] == 2
    table = summary["gain_table"]
    # bar bounds are nonincreasing across the swept horizons at each probe
    for row in table:
        vals = [row[f"bar_b_K{k}"] for k in (2, 3, 4)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= row["fie_b"] - 1e-12


def test_fie_sweep_runs_each_cell_once(tmp_path, monkeypatch):
    calls = []
    real = harness.run_cell
    monkeypatch.setattr(harness, "run_cell", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cfg = ExperimentConfig(name="fsweep", plant="s1", mode="max", estimator="fie",
                           sweep=(2, 3, 4), t_final=8, seeds=(0,),
                           scenarios=[ScenarioSpec("noise", "bounded_uniform", amplitude=0.1)],
                           out_dir=str(tmp_path))
    horizon_sweep(cfg)
    assert len(calls) == 1
    traces = sorted(n for n in os.listdir(tmp_path / "fsweep") if n.startswith("trace_"))
    assert traces == ["trace_noise-seed0.csv"]
    # the same full-information cell that `run` writes
    cfg.name = "frun"
    run_experiment(cfg)
    assert (open(tmp_path / "fsweep" / traces[0], "rb").read()
            == open(tmp_path / "frun" / traces[0], "rb").read())


def test_mhe_probe_checks_a_window_holding_the_perturbed_step(tmp_path):
    # step 2 lies before the final window [6, 8): the probe checks the window
    # solved at t = 4, [2, 4), so the size of the perturbation shows
    cfg = ExperimentConfig(name="mprobe", plant="s1", mode="max", estimator="mhe",
                           horizon=2, t_final=8, seeds=(0,), probe_step=2,
                           scenarios=[ScenarioSpec("noise", "bounded_uniform", amplitude=0.1)],
                           out_dir=str(tmp_path))
    margins = []
    for delta in (0.0, 0.5, 5.0):
        cfg.probe_delta = delta
        margins.append(deviant_output_probe(cfg)["probe"]["noise"]["min_margin"])
    # checking only [6, 8) gave 0.0302912 for all three, equal to 8 digits
    assert margins[0] < margins[1] < margins[2], margins
    assert margins[2] - margins[0] > 1.0, margins


def test_deviant_output_probe(tmp_path):
    cfg = ExperimentConfig(name="probe", plant="s2", mode="max", estimator="fie",
                           t_final=10, seeds=(0,), probe_delta=0.4, probe_step=3,
                           scenarios=[ScenarioSpec("noise", "bounded_uniform", amplitude=0.05)],
                           out_dir=str(tmp_path))
    summary = deviant_output_probe(cfg)
    assert summary["status"] == "pass"
    rec = summary["probe"]["noise"]
    assert rec["passed"] and not rec["out_of_range"]
    # zero perturbation reduces to the base pair check
    cfg.probe_delta = 0.0
    assert deviant_output_probe(cfg)["status"] == "pass"
    # perturbation beyond the certified range is stamped
    cfg.probe_delta = 1e6
    rec = deviant_output_probe(cfg)["probe"]["noise"]
    assert rec["out_of_range"]


def test_vector_plant_end_to_end():
    # two-state plant through the generic solver: certified windows must
    # still satisfy the derived bound
    from mhestab.estimator import SolverConfig
    cfg = ExperimentConfig(name="s4", plant="s4", mode="sum", estimator="fie",
                           t_final=8, seeds=(0,), a_factor=1.5,
                           scenarios=[ScenarioSpec("noise", "bounded_uniform",
                                                   amplitude=0.05)])
    cfg.solver = SolverConfig(method="multistart_local", multistart=3, max_iter=150)
    resolved = resolve(cfg)
    cell = run_cell(resolved, cfg.scenarios[0], 0)
    assert cell.certified_steps == cell.total_steps
    assert cell.min_margin >= -1e-9


def test_window_step_margins_recorded(tmp_path):
    cfg = ExperimentConfig(name="win", plant="s1", mode="max", estimator="mhe",
                           horizon=2, t_final=14, seeds=(0,),
                           scenarios=[ScenarioSpec("noise", "bounded_uniform", amplitude=0.1)],
                           out_dir=str(tmp_path))
    report = run_experiment(cfg)
    rows = report.cells[0].rows
    checked = [r for r in rows if r["window_margin"] is not None]
    assert checked, "window-step inequality should be evaluated after the horizon fills"
    assert all(r["window_margin"] >= -1e-9 for r in checked)


@pytest.mark.parametrize("mode", ["max", "sum"])
def test_mhe_cell_run_alone_checks_its_hat_bounds(mode):
    # without hat bounds a moving-horizon cell must not fall back to the
    # full-information bound, nor skip the one-window inequality
    cfg = ExperimentConfig(name="alone", plant="s1", mode=mode, estimator="mhe",
                           horizon=2, t_final=30, seeds=(0,),
                           scenarios=[ScenarioSpec("noise", "bounded_uniform", amplitude=0.1)])
    resolved = resolve(cfg)
    alone = run_cell(resolved, cfg.scenarios[0], 0)
    with_hat = run_cell(resolved, cfg.scenarios[0], 0, harness._cell_hat(resolved, 2))
    assert alone == with_hat
    assert sum(r["window_margin"] is not None for r in alone.rows) == alone.certified_steps - 3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = _write_config(tmp_path, estimator="fie", t_final=8)
    assert cli_main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "run pass" in out

    assert cli_main(["analyze", "--config", path]) == 0

    # MHE with K = 1: analysis failure -> exit 2 before simulation
    bad = _write_config(tmp_path, estimator="mhe", horizon=1, t_final=8)
    assert cli_main(["run", "--config", bad]) == 2

    # unreadable config -> exit 2
    assert cli_main(["run", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_sweep_and_probe(tmp_path):
    path = _write_config(tmp_path, estimator="mhe", horizon=2, t_final=10,
                         extra="sweep = 2,3")
    assert cli_main(["sweep", "--config", path, "--seed", "0"]) == 0
    ppath = _write_config(tmp_path, estimator="fie", t_final=8)
    assert cli_main(["probe", "--config", ppath]) == 0


def test_cli_single_seed_override(tmp_path):
    path = _write_config(tmp_path, estimator="fie", t_final=6)
    out = str(tmp_path / "single")
    assert cli_main(["run", "--config", path, "--seed", "7", "--out", out]) == 0
    files = os.listdir(os.path.join(out, "demo"))
    assert "trace_zero-seed7.csv" in files
    assert "trace_zero-seed0.csv" not in files


# ---------------------------------------------------------------------------
# Config strictness and the exit code of every failure
# ---------------------------------------------------------------------------

def _edit_config(tmp_path, old, new, **kw):
    path = _write_config(tmp_path, **kw)
    text = open(path).read()
    assert old in text
    open(path, "w").write(text.replace(old, new))
    return path


FULL_CONFIG = """
[experiment]
name = full
plant = s1
certificate = default
mode = sum
cost = default
a_factor = 1.1
estimator = mhe
horizon = 3
sweep = 2,3
t_final = 9
seeds = 1:3
x0 = 0.25
prior_offset = 0.5
t_max_fie = 50

[cost]
beta_hat = sepgeo(1.0, 1.0, 0.5)
gamma_hat = sepgeo(2.0, 1.0, 0.5)
delta_hat = sepgeo(2.0, 1.0, 0.5)

[scenario.kick]
kind = impulse
amplitude = 0.0
rate = 0.0
time = 2
magnitude = 0.5

[solver]
method = multistart_local
multistart = 2
max_iter = 30
tol = 1e-8
seed = 3
use_structured = false

[probe]
delta = 0.25
step = 1

[output]
dir = somewhere
"""


def test_every_allowed_config_key_loads(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(FULL_CONFIG)
    cfg = load_config(str(path))
    assert (cfg.sweep, cfg.seeds, cfg.t_max_fie, cfg.cost) == ((2, 3), (1, 2), 50, "explicit")
    assert (cfg.solver.method, cfg.solver.use_structured) == ("multistart_local", False)
    assert (cfg.probe_step, cfg.out_dir, cfg.scenarios[0].time) == (1, "somewhere", 2)


@pytest.mark.parametrize("old,new", [
    ("seeds = 0,1", "seeds = 5:2"),
    ("seeds = 0,1", "seeds ="),
    ("x0 = 0.5", "x0 = 0.5\nsweep = 2,0"),
    ("x0 = 0.5", "x0 = 0.5\nsweep = 2,,4"),
    ("x0 = 0.5", "x0 = 0.5\nsweep ="),
    ("x0 = 0.5", "x0 = 0.5\nhorizn = 3"),
    ("amplitude = 0.1", "amplitude = 0.1\nampltude = 0.2"),
    ("[solver]", "[solvr]"),
    ("t_final = 12", "t_final = twelve"),
    ("seeds = 0,1", "seeds = 1:2:3"),
    ("[solver]", "[grid]\nr_min = 1e-2\n\n[solver]"),
    ("[solver]", "[solver]\nlevel_passes = 2"),
], ids=["empty-seed-range", "no-seeds", "sweep-zero", "sweep-empty-entry", "sweep-empty",
        "unknown-key", "unknown-scenario-key", "unknown-section", "bad-int", "bad-range",
        "grid-section", "level-passes"])
def test_invalid_configs_are_config_errors(tmp_path, capsys, old, new):
    path = _edit_config(tmp_path, old, new)
    with pytest.raises(ConfigError):
        load_config(path)
    assert cli_main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_fie_beyond_its_horizon_cap_is_rejected_before_running(tmp_path, capsys):
    path = _write_config(tmp_path, estimator="fie", t_final=250)
    assert cli_main(["run", "--config", path]) == 2
    assert "t_max_fie = 200" in capsys.readouterr().err


def test_cli_horizon_cap_error_exits_2(tmp_path, capsys, monkeypatch):
    # validate() rejects an FIE t_final beyond t_max_fie up front, so lower the
    # cap inside the run to reach the estimator's own HorizonCapError
    run_fie = harness.run_fie
    monkeypatch.setattr(harness, "run_fie",
                        lambda *args, **kw: run_fie(*args, **{**kw, "t_max": 3}))
    path = _write_config(tmp_path, estimator="fie", t_final=8)
    assert cli_main(["probe", "--config", path]) == 2
    assert "exceeds cap 3" in capsys.readouterr().err


def test_cli_probe_runs_the_configured_estimator(tmp_path, capsys):
    # a moving horizon has no full-information cap; the probe checks its final window
    path = _write_config(tmp_path, estimator="mhe", horizon=2, t_final=8, extra="t_max_fie = 3")
    assert cli_main(["probe", "--config", path]) == 0
    assert "probe pass" in capsys.readouterr().out
    probe = json.loads(open(tmp_path / "out" / "demo" / "probe.json").read())
    assert probe["config"]["estimator"] == "mhe"
    assert all(rec["passed"] for rec in probe["probe"].values())


def test_cli_capability_error_exits_2(tmp_path, capsys):
    # a sum-mode cost gain without an analytic tail bound
    path = _edit_config(tmp_path, "mode = max", "mode = sum", t_final=6)
    with open(path, "a") as fh:
        fh.write("\n[cost]\nbeta_hat = sepgeo(1.0, 1.0, 0.5)\n"
                 "gamma_hat = kliter(power(0.5, 2.0), linear(1.0))\n"
                 "delta_hat = sepgeo(1.0, 1.0, 0.5)\n")
    assert cli_main(["run", "--config", path]) == 2
    assert "tail bound" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cli_divergence_exits_3(tmp_path, capsys):
    # the unstable plant leaves the floats one step after a huge impulse
    path = _edit_config(tmp_path, "plant = s1", "plant = s2", t_final=6)
    text = open(path).read().replace("kind = zero", "kind = impulse\ntime = 0\nmagnitude = 1e308")
    open(path, "w").write(text)
    assert cli_main(["run", "--config", path]) == 3
    assert "non-finite state" in capsys.readouterr().err


def test_benchmark_workload_configs_load(tmp_path, monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(root, "bench", "workloads.py")
    if not os.path.exists(source):
        pytest.skip("no benchmark in this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", source)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for exp in workloads.experiments(name, 0):
            path = tmp_path / f"{exp.name}.ini"
            path.write_text(exp.config_text())
            assert load_config(str(path)).name == exp.name


# ---------------------------------------------------------------------------
# Process-pool cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["max", "sum"])
def test_cell_worker_uses_the_hat_bounds_of_each_horizon(mode):
    # the pool's worker runs one chunk of a horizon group; a worker process
    # runs many chunks, so a K=8 group after a K=2 group must equal a fresh one
    config = ExperimentConfig(name="cache", plant="s1", mode=mode, estimator="mhe",
                              t_final=20, seeds=(0, 1),
                              scenarios=[ScenarioSpec("uniform", "bounded_uniform",
                                                      amplitude=0.1)])
    cells = [(config.scenarios[0], seed) for seed in config.seeds]
    fresh = _group_worker((config, 8, cells))
    _group_worker((config, 2, cells))
    after_k2 = _group_worker((config, 8, cells))
    assert [cell.horizon for cell in after_k2] == [8, 8]
    assert after_k2 == fresh
