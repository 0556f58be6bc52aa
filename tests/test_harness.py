"""Experiment harness: config parsing, runs, sweeps, probes, determinism,
and the CLI exit-code contract."""

import dataclasses
import importlib.util
import json
import os
import sys

import pytest

from mhestab import harness
from mhestab.cli import main as cli_main
from mhestab.certificates import cost_to_text
from mhestab.comparison import parse_klfn
from mhestab.estimator import SolverConfig
from mhestab.harness import (
    CONFIG_KEYS,
    AnalysisError,
    ConfigError,
    ExperimentConfig,
    _group_worker,
    analyze,
    deviant_output_probe,
    horizon_sweep,
    load_config,
    resolve,
    run_cell,
    run_experiment,
)
from mhestab.systems import DisturbanceScenario
from test_comparison import MALFORMED_K_TEXT, MALFORMED_KL_TEXT

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
                           scenarios=[DisturbanceScenario("noise", "bounded_uniform",
                                                          amplitude=0.1)])
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
                             scenarios=[DisturbanceScenario("zero", "zero"),
                                        DisturbanceScenario("noise", "bounded_uniform",
                                                            amplitude=0.1)])
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
    checked = []
    real = harness._check_group
    monkeypatch.setattr(harness, "_check_group",
                        lambda res, cells, *a: checked.extend(cells) or real(res, cells, *a))
    cfg = ExperimentConfig(name="fsweep", plant="s1", mode="max", estimator="fie",
                           sweep=(2, 3, 4), t_final=8, seeds=(0,),
                           scenarios=[DisturbanceScenario("noise", "bounded_uniform",
                                                          amplitude=0.1)],
                           out_dir=str(tmp_path))
    horizon_sweep(cfg)
    assert len(checked) == 1
    traces = sorted(n for n in os.listdir(tmp_path / "fsweep") if n.startswith("trace_"))
    assert traces == ["trace_noise-seed0.csv"]
    # the same full-information cell that `run` writes
    cfg.name = "frun"
    run_experiment(cfg)
    assert (open(tmp_path / "fsweep" / traces[0], "rb").read()
            == open(tmp_path / "frun" / traces[0], "rb").read())


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool by one that maps here and starts no process;
    yields the list of pool sizes asked for."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    from concurrent.futures import ProcessPoolExecutor
    assert ProcessPoolExecutor is InProcessPool     # as run_cells imports it
    yield sizes


def test_jobs_pool_has_no_more_workers_than_chunks(tmp_path, in_process_pool):
    # the fork start method forks every worker up front; an in-process fake
    # pool records the size asked for and starts no process
    cfg = load_config(_write_config(tmp_path, t_final=4))       # 2 scenarios x 2 seeds
    serial = harness.run_cells(resolve(cfg), (cfg.horizon,))
    cfg.jobs = 5000
    pooled = harness.run_cells(resolve(cfg), (cfg.horizon,))
    assert in_process_pool == [4]
    assert [(c.key(), c.rows) for c in pooled] == [(c.key(), c.rows) for c in serial]


def test_a_sweep_simulates_each_cell_once(tmp_path, monkeypatch, in_process_pool):
    stacked = []
    simulate = harness.simulate
    monkeypatch.setattr(harness, "simulate",
                        lambda model, x0, *args: stacked.append(len(x0))
                        or simulate(model, x0, *args))
    # 2 scenarios x 2 seeds at three horizons
    cfg = load_config(_write_config(tmp_path, estimator="mhe", t_final=10, extra="sweep = 2,4,8"))
    horizon_sweep(cfg, str(tmp_path / "serial"))
    assert stacked == [4]
    cfg.jobs = 2
    horizon_sweep(cfg, str(tmp_path / "pooled"))
    assert stacked == [4, 2, 2] and in_process_pool == [2]
    serial, pooled = tmp_path / "serial" / "demo", tmp_path / "pooled" / "demo"
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(pooled)) and len(names) == 13
    for name in names:
        a, b = open(serial / name, "rb").read(), open(pooled / name, "rb").read()
        if name == "sweep.json":            # the config echo names its jobs
            a, b = a.replace(b'"jobs": 1', b'"jobs": 2'), b
        assert a == b, name


def test_mhe_probe_checks_a_window_holding_the_perturbed_step(tmp_path):
    # step 2 lies before the final window [6, 8): the probe checks the window
    # solved at t = 4, [2, 4), so the size of the perturbation shows
    cfg = ExperimentConfig(name="mprobe", plant="s1", mode="max", estimator="mhe",
                           horizon=2, t_final=8, seeds=(0,), probe_step=2,
                           scenarios=[DisturbanceScenario("noise", "bounded_uniform",
                                                          amplitude=0.1)],
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
                           scenarios=[DisturbanceScenario("noise", "bounded_uniform",
                                                          amplitude=0.05)],
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
    cfg = ExperimentConfig(name="s4", plant="s4", mode="sum", estimator="fie",
                           t_final=8, seeds=(0,), a_factor=1.5,
                           scenarios=[DisturbanceScenario("noise", "bounded_uniform",
                                                          amplitude=0.05)])
    cfg.solver = SolverConfig(method="multistart_local", multistart=3, max_iter=150)
    resolved = resolve(cfg)
    cell = run_cell(resolved, cfg.scenarios[0], 0)
    assert cell.certified_steps == cell.total_steps
    assert cell.min_margin >= -1e-9


def test_window_step_margins_recorded(tmp_path):
    cfg = ExperimentConfig(name="win", plant="s1", mode="max", estimator="mhe",
                           horizon=2, t_final=14, seeds=(0,),
                           scenarios=[DisturbanceScenario("noise", "bounded_uniform",
                                                          amplitude=0.1)],
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
                           scenarios=[DisturbanceScenario("noise", "bounded_uniform",
                                                          amplitude=0.1)])
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
cost = explicit
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
    assert (cfg.solver.method, cfg.solver.seed) == ("multistart_local", 3)
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
    ("[solver]", "[solver]\nuse_structured = false"),
    ("[solver]", "[scenario]\nkind = impulse\n\n[solver]"),
    ("[solver]", "[scenario.]\nkind = zero\n\n[solver]"),
    ("seeds = 0,1", "seeds = 0,0"),
    ("a_factor = 1.05", "a_factor = inf"),
    ("a_factor = 1.05", "a_factor = nan"),
    ("x0 = 0.5", "x0 = nan"),
    ("prior_offset = 1.0", "prior_offset = -inf"),
    ("[solver]", "[probe]\ndelta = inf\n\n[solver]"),
    ("amplitude = 0.1", "amplitude = nan"),
    ("amplitude = 0.1", "amplitude = 0.1\nrate = inf"),
    ("kind = zero", "kind = impulse\nmagnitude = inf"),
    ("method = gauss_newton_penalty", "multistart = 0"),
    ("method = gauss_newton_penalty", "multistart = -2"),
    ("method = gauss_newton_penalty", "max_iter = 0"),
    ("method = gauss_newton_penalty", "tol = nan"),
    ("method = gauss_newton_penalty", "tol = inf"),
    ("method = gauss_newton_penalty", "tol = 0"),
    ("method = gauss_newton_penalty", "tol = -1e-10"),
    ("method = gauss_newton_penalty", "seed = -1"),
    ("seeds = 0,1", "seeds = -1,0"),
    ("amplitude = 0.1", "amplitude = -0.1"),
    ("kind = zero", "kind = zer0"),
    ("kind = bounded_uniform", "kind = decaying_geometric\nrate = -0.8"),
    ("kind = bounded_uniform", "kind = decaying_geometric\nrate = 1.5"),
    ("kind = zero", "kind = impulse\ntime = -2\nmagnitude = 1.0"),
], ids=["empty-seed-range", "no-seeds", "sweep-zero", "sweep-empty-entry", "sweep-empty",
        "unknown-key", "unknown-scenario-key", "unknown-section", "bad-int", "bad-range",
        "grid-section", "level-passes", "use-structured", "bare-scenario", "unnamed-scenario",
        "repeated-seeds", "a-factor-inf", "a-factor-nan", "x0-nan", "prior-offset-inf",
        "probe-delta-inf", "amplitude-nan", "rate-inf", "magnitude-inf", "multistart-zero",
        "multistart-negative", "max-iter-zero", "tol-nan", "tol-inf", "tol-zero",
        "tol-negative", "solver-seed-negative", "seed-negative", "amplitude-negative",
        "unknown-scenario-kind", "rate-negative", "rate-above-one", "time-negative"])
def test_invalid_configs_are_config_errors(tmp_path, capsys, monkeypatch, old, new):
    monkeypatch.setattr(harness, "simulate", lambda *args: pytest.fail("simulated"))
    path = _edit_config(tmp_path, old, new)
    with pytest.raises(ConfigError):
        load_config(path)
    for verb in ("run", "analyze"):
        assert cli_main([verb, "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _cost_config(tmp_path, section, **kw):
    """The base config with ``cost = explicit`` and the ``[cost]`` section
    given (its text up to the ``[solver]`` header)."""
    path = _edit_config(tmp_path, "cost = default", "cost = explicit", **kw)
    text = open(path).read()
    open(path, "w").write(text.replace("[solver]", section + "\n[solver]"))
    return path


EXPLICIT_COST = """
[cost]
beta_hat = {beta}
gamma_hat = sepgeo(2.0, 1.0, 0.5)
delta_hat = sepgeo(2.0, 1.0, 0.5)
"""


@pytest.mark.parametrize("mode", ["max", "sum"])
def test_the_default_cost_text_given_as_an_explicit_cost_resolves_alike(tmp_path, capsys,
                                                                        monkeypatch, mode):
    default = resolve(load_config(_edit_config(tmp_path, "mode = max", f"mode = {mode}")))
    text = cost_to_text(default.cost)
    section = "[cost]\n" + "".join(f"{key} = {text[key]}\n"
                                  for key in ("beta_hat", "gamma_hat", "delta_hat"))
    path = _cost_config(tmp_path, section)
    with open(path) as fh:
        config = fh.read()
    with open(path, "w") as fh:
        fh.write(config.replace("mode = max", f"mode = {mode}"))
    parsed = []
    monkeypatch.setattr(harness, "parse_klfn", lambda t: parsed.append(t) or parse_klfn(t))
    explicit = resolve(load_config(path))
    assert parsed == [text["beta_hat"], text["gamma_hat"], text["delta_hat"]]
    assert (explicit.cost.beta_hat, explicit.cost.gamma_hat, explicit.cost.delta_hat) == \
        (default.cost.beta_hat, default.cost.gamma_hat, default.cost.delta_hat)
    assert [getattr(explicit.bounds, k) for k in "bcd"] == [getattr(default.bounds, k) for k in "bcd"]
    assert cli_main(["analyze", "--config", path]) == 0


@pytest.mark.parametrize("beta", MALFORMED_KL_TEXT + [f"kofkl({text}, sepgeo(1.0, 1.0, 0.5))"
                                                      for text in MALFORMED_K_TEXT])
def test_cli_malformed_cost_text_exits_2(tmp_path, capsys, beta):
    path = _cost_config(tmp_path, EXPLICIT_COST.format(beta=beta))
    assert cli_main(["analyze", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key", ["beta_hat", "gamma_hat", "delta_hat"])
def test_cli_partial_cost_section_exits_2(tmp_path, capsys, key):
    path = _cost_config(tmp_path, f"[cost]\n{key} = sepgeo(99.0, 1.0, 0.5)\n")
    assert load_config(path).cost == "explicit"
    assert cli_main(["analyze", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: explicit cost needs beta_hat")


@pytest.mark.parametrize("verb", ["analyze", "run"])
def test_an_unknown_cost_value_is_named(tmp_path, capsys, verb):
    path = _edit_config(tmp_path, "cost = default", "cost = defualt")
    with pytest.raises(ConfigError, match="unknown cost 'defualt'"):
        load_config(path)
    assert cli_main([verb, "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: unknown cost 'defualt'")
    with pytest.raises(ConfigError, match="unknown cost 'explict'"):
        ExperimentConfig(cost="explict").validate()


@pytest.mark.parametrize("text", ["sepgeo(2.0, 2.0, 0.5)", "sepgeo(2.0, 0.5, 0.5)",
                                  "sepgeo(2.0, 1.0, 0.5)"])
def test_an_explicit_sum_gain_summable_in_any_power_of_r_passes(text):
    # sum_s 2 * 0.5^s r^p = 4 r^p; a sigma linear in r, fitted at r = 1,
    # rejected the powers 2 and 0.5
    gain = parse_klfn(text)
    evidence = harness._explicit_summability({"gamma_hat": gain, "delta_hat": gain})
    assert [ev.passed for ev in evidence.values()] == [True, True]


def test_cost_default_next_to_a_cost_section_is_an_error(tmp_path, capsys):
    path = _edit_config(tmp_path, "[solver]", EXPLICIT_COST.format(beta="sepgeo(1.0, 1.0, 0.5)")
                        + "\n[solver]")
    with pytest.raises(ConfigError, match=r"cost = default conflicts with the \[cost\] section"):
        load_config(path)
    assert cli_main(["analyze", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: cost = default conflicts")


def test_a_cost_section_without_a_cost_key_makes_the_cost_explicit(tmp_path):
    path = _cost_config(tmp_path, EXPLICIT_COST.format(beta="sepgeo(1.0, 1.0, 0.5)"))
    text = open(path).read()
    open(path, "w").write(text.replace("cost = explicit\n", ""))
    assert "cost =" not in open(path).read()
    assert load_config(path).cost == "explicit"


@pytest.mark.parametrize("step", ["-5", "12"])
def test_cli_probe_step_outside_the_run_exits_2_before_simulating(tmp_path, capsys,
                                                                  monkeypatch, step):
    monkeypatch.setattr(harness, "simulate", lambda *args: pytest.fail("simulated"))
    path = _edit_config(tmp_path, "[solver]", f"[probe]\nstep = {step}\n\n[solver]")
    assert cli_main(["probe", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: probe step must be in [0, t_final = 12)")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_exits_2_before_simulating(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(harness, "simulate", lambda *args: pytest.fail("simulated"))
    path = _write_config(tmp_path, t_final=6)
    assert cli_main(["run", "--config", path, "--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("error: jobs must be >= 1")


def test_config_keys_name_fields_of_their_dataclasses():
    owners = {"scenario": DisturbanceScenario, "solver": SolverConfig}
    for section, schema in CONFIG_KEYS.items():
        names = {f.name for f in dataclasses.fields(owners.get(section, ExperimentConfig))}
        for key, (target, parse) in schema.items():
            assert target in names, (section, key, target)
            assert callable(parse)


def test_missing_config_keys_keep_their_dataclass_defaults(tmp_path):
    path = tmp_path / "sparse.ini"
    path.write_text("[experiment]\n\n[solver]\n\n[scenario.s]\nkind = impulse\n")
    cfg = load_config(str(path))
    # dataclass equality compares field for field
    assert cfg.solver == SolverConfig()
    assert cfg.scenarios == [DisturbanceScenario("s", "impulse")]
    assert cfg == ExperimentConfig(scenarios=[DisturbanceScenario("s", "impulse")])


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
    path = _cost_config(tmp_path, "[cost]\nbeta_hat = sepgeo(1.0, 1.0, 0.5)\n"
                        "gamma_hat = kliter(power(0.5, 2.0), linear(1.0))\n"
                        "delta_hat = sepgeo(1.0, 1.0, 0.5)\n", t_final=6)
    text = open(path).read()
    open(path, "w").write(text.replace("mode = max", "mode = sum"))
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
    # the pool's worker runs one chunk of cells at its horizons; a worker
    # process runs many chunks, so a K=8 chunk after a K=2 chunk must equal a
    # fresh one
    config = ExperimentConfig(name="cache", plant="s1", mode=mode, estimator="mhe",
                              t_final=20, seeds=(0, 1),
                              scenarios=[DisturbanceScenario("uniform", "bounded_uniform",
                                                      amplitude=0.1)])
    cells = [(config.scenarios[0], seed) for seed in config.seeds]
    fresh = _group_worker((config, (8,), cells))
    _group_worker((config, (2,), cells))
    after_k2 = _group_worker((config, (8,), cells))
    assert [cell.horizon for cell in after_k2] == [8, 8]
    assert after_k2 == fresh
