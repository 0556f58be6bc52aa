"""The CLI's exit-code contract at the lines no other test reaches: the size
rule and the remaining exit-2 failures, exit 4 with its report, and the
``python -m mhestab.cli`` entry point."""

import json
import os
import re
import subprocess
import sys

import pytest

import mhestab as M
from mhestab import harness
from mhestab.cli import main as cli_main
from mhestab.harness import ConfigError, ExperimentConfig, load_config, resolve

from test_harness import _cost_config, _edit_config, _write_config


# ---------------------------------------------------------------------------
# The size rule
# ---------------------------------------------------------------------------

def _s4_sum_fie(tmp_path, multistart):
    """Repro D: ``s4`` sum FIE at t_final = 2 with a ``[solver] multistart``."""
    path = _edit_config(tmp_path, "plant = s1", "plant = s4", t_final=2)
    text = open(path).read().replace("mode = max", "mode = sum").replace(
        "method = gauss_newton_penalty", f"multistart = {multistart}")
    open(path, "w").write(text)
    return path


def _s1_sum_mhe(tmp_path, t_final, extra=""):
    """Repro C: ``s1`` sum MHE at horizon 2 with a ``t_final``."""
    path = _write_config(tmp_path, estimator="mhe", horizon=2, t_final=t_final, extra=extra)
    text = open(path).read().replace("mode = max", "mode = sum")
    open(path, "w").write(text)
    return path


def _seed_range(tmp_path, count, **kw):
    return _edit_config(tmp_path, "seeds = 0,1", f"seeds = 0:{count}", **kw)


SIZE_MESSAGE = "the run needs about [0-9]+ GiB, beyond the size budget of 4 GiB: "


def _refused_before_simulation(path, capsys):
    for verb in ("run", "analyze"):
        assert cli_main([verb, "--config", path]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {SIZE_MESSAGE}.*\n", err), err


@pytest.mark.parametrize("make,sizes", [
    (lambda tmp, v: _s1_sum_mhe(tmp, v), "t_final = {v}, 2 scenarios x 2 seeds, window 2"),
    (lambda tmp, v: _seed_range(tmp, v, t_final=4),
     "t_final = 4, 2 scenarios x {v} seeds, window 4"),
], ids=["t_final", "seeds"])
@pytest.mark.parametrize("value", [10 ** 8, 10 ** 12, 2 ** 128])
def test_an_oversize_config_is_refused_as_it_loads(tmp_path, capsys, monkeypatch, make, sizes,
                                                   value):
    # the rule is checked, not the allocation: nothing may be simulated
    monkeypatch.setattr(harness, "_truths", lambda *args: pytest.fail("simulated"))
    path = make(tmp_path, value)
    with pytest.raises(ConfigError, match=SIZE_MESSAGE + re.escape(sizes.format(v=value)) + "$"):
        load_config(path)
    _refused_before_simulation(path, capsys)


@pytest.mark.parametrize("make", [
    # no key is large alone: their product is
    lambda tmp: _seed_range(tmp, 10_000, estimator="mhe", t_final=10_000),
    lambda tmp: _seed_range(tmp, 100, t_final=2000, extra="t_max_fie = 2000"),
], ids=["mhe", "fie"])
def test_a_config_too_large_only_in_its_product_is_refused(tmp_path, capsys, monkeypatch, make):
    monkeypatch.setattr(harness, "_truths", lambda *args: pytest.fail("simulated"))
    path = make(tmp_path)
    with pytest.raises(ConfigError, match=SIZE_MESSAGE):
        load_config(path)
    _refused_before_simulation(path, capsys)


@pytest.mark.parametrize("value", [10 ** 8, 10 ** 12, 2 ** 128])
def test_oversize_generic_starts_are_refused_as_the_config_resolves(tmp_path, capsys,
                                                                    monkeypatch, value):
    monkeypatch.setattr(harness, "_truths", lambda *args: pytest.fail("simulated"))
    path = _s4_sum_fie(tmp_path, value)
    cfg = load_config(path)         # whether the engine is generic is known once it resolves
    message = re.escape(f"t_final = 2, 2 scenarios x 2 seeds, window 2, [solver] multistart = "
                        f"{value}")
    with pytest.raises(ConfigError, match=SIZE_MESSAGE + message + "$"):
        resolve(cfg)
    _refused_before_simulation(path, capsys)


def test_starts_no_generic_engine_reads_are_not_counted(tmp_path, capsys):
    path = _edit_config(tmp_path, "method = gauss_newton_penalty", "multistart = 100000000",
                        t_final=2)
    assert cli_main(["run", "--config", path]) == 0, capsys.readouterr().err


def test_configs_within_the_budget_load(tmp_path):
    # a long run, a window solved with many starts, many seeds, an unread t_max_fie
    assert load_config(_s1_sum_mhe(tmp_path, 20_000)).t_final == 20_000
    assert load_config(_s1_sum_mhe(tmp_path, 4, extra=f"t_max_fie = {2 ** 128}")).t_max_fie == \
        2 ** 128
    assert load_config(_seed_range(tmp_path, 20_000, t_final=4)).seeds == tuple(range(20_000))
    cfg = load_config(_s4_sum_fie(tmp_path, 2000))
    assert resolve(cfg).config.solver.multistart == 2000


def test_the_budget_admits_a_run_up_to_its_expected_size():
    # one cell of window 1 is expected to need 2048 + 256 + 72 bytes a step
    last = harness.SIZE_BUDGET // (2048 + 256 + 72) - 1
    ExperimentConfig(estimator="mhe", horizon=1, t_final=last).validate()
    with pytest.raises(ConfigError, match=SIZE_MESSAGE + re.escape(
            f"t_final = {last + 1}, 1 scenarios x 1 seeds, window 1") + "$"):
        ExperimentConfig(estimator="mhe", horizon=1, t_final=last + 1).validate()


# ---------------------------------------------------------------------------
# Exit 2
# ---------------------------------------------------------------------------

def _incompatible_cost(tmp_path):
    return _cost_config(tmp_path, "[cost]\nbeta_hat = sepgeo(0.001, 1.0, 0.5)\n"
                        "gamma_hat = sepgeo(0.001, 1.0, 0.5)\n"
                        "delta_hat = sepgeo(0.001, 1.0, 0.5)\n", t_final=6)


@pytest.mark.parametrize("verb,make,message", [
    ("run", lambda tmp: _write_config(tmp, estimator="foo"), "unknown estimator kind 'foo'"),
    ("run", lambda tmp: _write_config(tmp, estimator="mhe", horizon=0),
     "moving-horizon estimator needs horizon >= 1"),
    ("run", lambda tmp: _write_config(tmp, t_final=0), "t_final must be >= 1"),
    ("run", lambda tmp: _edit_config(tmp, "a_factor = 1.05", "a_factor = 0.5"),
     "a_factor must be >= 1"),
    ("analyze", lambda tmp: _edit_config(tmp, "certificate = default", "certificate = nope"),
     "no certificate 'nope' for mode max"),
    ("analyze", _incompatible_cost, "cost is not compatible with certificate (worst ratio"),
    ("analyze", lambda tmp: _write_config(tmp, estimator="mhe", horizon=1),
     "contraction analysis failed at horizons [1]"),
    ("sweep", lambda tmp: _write_config(tmp, estimator="mhe", t_final=6),
     "horizon sweep needs a sweep = K1,K2,... entry"),
    ("sweep", lambda tmp: _write_config(tmp, estimator="mhe", t_final=6, extra="sweep = 1"),
     "no swept horizon admits a contraction"),
], ids=["estimator-foo", "mhe-horizon-0", "t-final-0", "a-factor-half", "certificate-nope",
        "incompatible-cost", "analyze-no-contraction", "sweep-without-sweep",
        "sweep-no-contraction"])
def test_each_failure_before_simulation_exits_2_with_its_message(tmp_path, capsys, monkeypatch,
                                                                 verb, make, message):
    monkeypatch.setattr(harness, "_truths", lambda *args: pytest.fail("simulated"))
    assert cli_main([verb, "--config", make(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


# ---------------------------------------------------------------------------
# Exit 4
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("verb,estimator,extra,report", [
    ("run", "fie", "", "report.json"),
    ("sweep", "mhe", "sweep = 2,3", "sweep.json"),
])
def test_a_violated_bound_exits_4_with_its_worst_step_reported(tmp_path, capsys, monkeypatch,
                                                               verb, estimator, extra, report):
    # no config violates a bound, so every bound trace is shrunk a thousandfold
    bound_trace = harness.bound_trace
    monkeypatch.setattr(harness, "bound_trace", lambda *args: 1e-3 * bound_trace(*args))
    path = _write_config(tmp_path, estimator=estimator, horizon=2, t_final=6, extra=extra)
    assert cli_main([verb, "--config", path]) == 4
    written = json.loads((tmp_path / "out" / "demo" / report).read_text())
    assert written["status"] == "bound-violation"
    worst = min(written["violations"], key=lambda w: w["margin"])
    assert worst["margin"] < 0 and worst["error"] > worst["rhs"]
    assert capsys.readouterr().err == (
        f"bound violation: bound violated at t={worst['t']} ({worst['scenario']}, "
        f"seed {worst['seed']}): margin {worst['margin']:.3e}\n")


# ---------------------------------------------------------------------------
# The module entry point
# ---------------------------------------------------------------------------

def _module_cli(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(M.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "mhestab.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_module_entry_point_keeps_the_exit_codes(tmp_path):
    bad = _module_cli("run", "--config", _write_config(tmp_path, t_final=0))
    assert bad.returncode == 2
    assert bad.stderr == "error: t_final must be >= 1\n"
    good = _module_cli("run", "--config", _write_config(tmp_path, t_final=2), "--seed", "0")
    assert good.returncode == 0, good.stderr
    assert good.stdout.startswith("run pass: demo cells=2 certified=")
