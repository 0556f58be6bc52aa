"""The cell axis of the max-interval engine.

``run_fie``/``run_mhe`` step a stack of cells in lock-step, and the max-mode
engine solves the windows of one step as one group, one row per window.
Every row must be its cell run alone, byte for byte, and every window must
be what the one-window bisection of ``reference_folds.max_interval_window``
gives.  The row-equality facts of numpy that the engine relies on are
pinned at the end, with the row forms of the cost's terms and fold, and
the fitted exponential envelopes.
"""

import math

import numpy as np
import pytest

import mhestab.estimator as E
from mhestab.comparison import (
    IteratedKL,
    LinearK,
    PlusMode,
    PowerK,
    fold_terms,
    gain_terms,
    seq_norms,
)
from mhestab.estimator import (
    BoxBounds,
    EstimationProblem,
    InfeasibleWindowError,
    SolverConfig,
    run_fie,
    run_mhe,
    solve_window,
)
from mhestab.harness import ExperimentConfig, ScenarioSpec, hat_bounds_for, resolve
from mhestab.stability import rges_envelope
from mhestab.systems import PLANT_NAMES, builtin_model, generate_scenario, simulate

from reference_folds import max_interval_window

SCENARIOS = (
    ScenarioSpec("zero", "zero"),
    ScenarioSpec("uniform", "bounded_uniform", amplitude=0.1),
    ScenarioSpec("decay", "decaying_geometric", amplitude=1.0, rate=0.8),
    ScenarioSpec("impulse", "impulse", time=3, magnitude=1.0),
)


def _signature(result):
    return (repr(result.xhat.tolist()), repr(result.what.tolist()), repr(result.vhat.tolist()),
            repr(result.cost), result.iterations, result.status, result.engine)


def _cost(plant):
    return resolve(ExperimentConfig(plant=plant, mode="max")).cost


def _stack(plant, T, seeds=(0, 1)):
    """Measurements (C, T, 1) of every scenario and seed, their truths'
    initial states, and the zero inputs."""
    model = builtin_model(plant)
    x0 = 0.0 if plant == "s2" else 0.5
    ys = []
    for scenario in SCENARIOS:
        for seed in seeds:
            w, v = generate_scenario(scenario.instantiate(seed, T), 1, 1)
            ys.append(simulate(model, [x0], np.zeros((T, 1)), w, v, T).y)
    return np.stack(ys), x0, np.zeros((T, 1))


def _runs(plant, y, prior0, u, K):
    model, cost = builtin_model(plant), _cost(plant)
    if K is None:
        return run_fie(model, cost, prior0, u, y, 1.05, SolverConfig())
    return run_mhe(model, cost, prior0, u, y, K, 1.05, SolverConfig())


# ---------------------------------------------------------------------------
# A group equals each cell run alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [None, 2, 4, 8], ids=["fie", "mhe2", "mhe4", "mhe8"])
@pytest.mark.parametrize("plant", ["s1", "s2", "s3"])
def test_a_group_equals_each_cell_run_alone(plant, K):
    y, x0, u = _stack(plant, 14)
    # the zero scenario's cells start at the truth, so their windows leave
    # the bisection at level 0; the others start one unit off
    prior0 = np.where(np.arange(len(y))[:, None] < 2, x0, x0 + 1.0)
    group = _runs(plant, y, prior0, u, K)
    assert len(group) == len(y)
    for c in range(len(y)):
        alone = _runs(plant, y[c:c + 1], prior0[c], u, K)[0]
        assert [_signature(r) for r in group[c]] == [_signature(r) for r in alone]
    engines = {r.engine for run in group for r in run[1:]}
    assert engines == {"max-interval"}
    levels = {r.iterations for run in group for r in run[1:]}
    assert levels == {0, E.LEVEL_PASSES}        # zero-level exits and bisections


@pytest.mark.parametrize("plant", ["s1", "s2", "s3"])
def test_every_row_is_the_one_window_bisection(plant):
    y, x0, u = _stack(plant, 10)
    model, cost = builtin_model(plant), _cost(plant)
    for K in (1, 3, 7, 10):
        priors = [x0, x0] + [x0 + off for off in np.linspace(-2.0, 2.0, len(y) - 2)]
        problems = [EstimationProblem(model, cost, [p], u[:K], y[c, :K], K, 1.05)
                    for c, p in enumerate(priors)]
        rows = E._solve_max_scalar(problems)
        for problem, row in zip(problems, rows):
            assert _signature(row) == _signature(max_interval_window(problem))


def test_a_group_of_one_is_solve_window():
    y, x0, u = _stack("s3", 6, seeds=(3,))
    model, cost = builtin_model("s3"), _cost("s3")
    for c in range(len(y)):
        problem = EstimationProblem(model, cost, [x0 + 0.7], u, y[c], 6, 1.05)
        one = solve_window(problem, SolverConfig())
        assert _signature(one) == _signature(E._solve_max_scalar([problem])[0])
        assert _signature(one) == _signature(max_interval_window(problem))


# ---------------------------------------------------------------------------
# Per-row branches: boxes, the top-level guard
# ---------------------------------------------------------------------------

def _boxed_problems(plant, bounds, priors, K=4):
    y, _, u = _stack(plant, K, seeds=(5,))
    model, cost = builtin_model(plant), _cost(plant)
    return [EstimationProblem(model, cost, [p], u, y[c % len(y)], K, 1.05, bounds=bounds)
            for c, p in enumerate(priors)]


@pytest.mark.parametrize("plant", ["s1", "s2", "s3"])
def test_boxed_probe_loop_runs_per_row(plant, monkeypatch):
    # the states must stay far from the outputs, so the probes escalate from
    # the unboxed bracket, by different counts for different priors
    bounds = BoxBounds(chi=(np.array([20.0]), np.array([20.5])))
    problems = _boxed_problems(plant, bounds, [20.2, 0.0, -400.0, -9000.0, 3e5, 1.0])
    probes = []
    real = E._max_feasible

    def spy(rows, prep, levels, record=False):
        if levels.shape[1] == 1 and levels.any() and not record:
            probes.append(len(levels))
        return real(rows, prep, levels, record)

    monkeypatch.setattr(E, "_max_feasible", spy)
    rows = E._solve_max_scalar(problems)
    monkeypatch.undo()
    # rows leave the loop after different numbers of escalations
    assert probes[0] == len(problems) and len(set(probes)) >= 3
    for problem, row in zip(problems, rows):
        assert _signature(row) == _signature(E._solve_max_scalar([problem])[0])
        assert _signature(row) == _signature(max_interval_window(problem))
        assert bounds.chi[0][0] <= row.xhat[0, 0] <= bounds.chi[1][0]


def test_a_row_that_no_box_admits_fails_its_group():
    # states in [5, 6] and outputs within 0.1 of them: the outputs 5.5 fit,
    # the outputs 0.5 do not
    model, cost = builtin_model("s1"), _cost("s1")
    bounds = BoxBounds(chi=(np.array([5.0]), np.array([6.0])),
                       nu=(np.array([-0.1]), np.array([0.1])))
    fits, misfits = (EstimationProblem(model, cost, [5.5], np.zeros((3, 1)), np.full((3, 1), y),
                                       3, 1.05, bounds=bounds) for y in (5.5, 0.5))
    assert _signature(E._solve_max_scalar([fits])[0]) == _signature(max_interval_window(fits))
    with pytest.raises(InfeasibleWindowError):
        max_interval_window(misfits)
    with pytest.raises(InfeasibleWindowError):
        E._solve_max_scalar([fits, misfits])


@pytest.mark.parametrize("plant", ["s1", "s3"])
def test_top_level_guard_runs_per_row(plant, monkeypatch):
    # the top level is feasible by construction, so make the first pass of
    # every row with a positive prior report it infeasible
    y, x0, u = _stack(plant, 8)
    model, cost = builtin_model(plant), _cost(plant)
    priors = np.linspace(-1.5, 1.5, len(y))
    problems = [EstimationProblem(model, cost, [p], u, y[c], 8, 1.05)
                for c, p in enumerate(priors)]
    real = E._max_feasible
    guarded = []

    def first_pass_top_dead(rows, prep, levels, record=False):
        alive, intervals = real(rows, prep, levels, record)
        if levels.shape[1] == E.N_LEVELS:
            hit = rows.prior[:, 0] > 0
            alive[hit, -1] = False
            guarded.append(int(hit.sum()))
        return alive, intervals

    monkeypatch.setattr(E, "_max_feasible", first_pass_top_dead)
    group = E._solve_max_scalar(problems)
    alone = [E._solve_max_scalar([p])[0] for p in problems]
    monkeypatch.undo()
    assert guarded[0] == int((priors > 0).sum()) > 0
    assert [_signature(r) for r in group] == [_signature(r) for r in alone]
    assert all(math.isfinite(r.cost) for r in group)


# ---------------------------------------------------------------------------
# Row-equality facts the engine relies on
# ---------------------------------------------------------------------------

def _endpoints(n, seed):
    gen = np.random.default_rng(seed)
    lo = gen.uniform(0.0, 1.0, n) * 10.0 ** gen.uniform(-300, 300, n)
    hi = lo * (1.0 + gen.uniform(0.0, 3.0, n))
    return lo, hi


def test_spacing_with_array_endpoints_equals_the_scalar_calls():
    lo, hi = _endpoints(32000, 0)
    lin = np.linspace(lo, hi, E.N_LEVELS, axis=1)
    assert np.array_equal(lin, [np.linspace(a, b, E.N_LEVELS)
                                for a, b in zip(lo.tolist(), hi.tolist())])
    start = np.maximum(hi * 1e-14, 1e-300)
    geo = np.geomspace(start, hi, E.N_LEVELS, axis=1)
    assert np.array_equal(geo, [np.geomspace(a, b, E.N_LEVELS)
                                for a, b in zip(start.tolist(), hi.tolist())])


def test_spaced_rows_split_numpys_zero_step_branch():
    # equal endpoints take numpy's zero-step branch, and with array endpoints
    # numpy would take it for every row
    lo, hi = _endpoints(400, 1)
    lo[::7], hi[::7] = 1e-300, 1e-300
    hi[3::7] = lo[3::7]
    lin = E._spaced_rows(np.linspace, lo, hi, hi - lo)
    assert np.array_equal(lin, [np.linspace(a, b, E.N_LEVELS) for a, b in zip(lo, hi)])
    assert not np.array_equal(lin, np.linspace(lo, hi, E.N_LEVELS, axis=1))
    geo = E._spaced_rows(np.geomspace, lo, hi, np.log10(hi) - np.log10(lo))
    assert np.array_equal(geo, [np.geomspace(a, b, E.N_LEVELS) for a, b in zip(lo, hi)])


def test_sin_of_a_level_grid_equals_it_row_by_row_and_alone():
    gen = np.random.default_rng(2)
    x = gen.uniform(-60.0, 60.0, (4000, E.N_LEVELS))
    rows = np.array([np.sin(row) for row in x])
    assert np.array_equal(np.sin(x), rows)
    assert np.array_equal(np.sin(x[:, 0]), [float(np.sin(v)) for v in x[:, 0]])
    assert np.array_equal(np.sin(x[:, 0]), [math.sin(v) for v in x[:, 0].tolist()])


@pytest.mark.parametrize("mode", [PlusMode.MAX, PlusMode.SUM])
def test_terms_norms_and_folds_of_rows_equal_each_row_alone(mode):
    gen = np.random.default_rng(4)
    linear = _cost("s1").gamma_hat
    nonlinear = IteratedKL(LinearK(0.5), PowerK(1.0, 1.5))      # one scalar call per term
    for K in (1, 7, 8, 9, 40):
        ages = range(K, 0, -1)
        seqs = gen.normal(0.0, 3.0, (12, K, 2))
        seqs[3, K // 2, 0] = np.nan
        norms = seq_norms(seqs)
        assert np.array_equal(norms, [seq_norms(row) for row in seqs], equal_nan=True)
        assert np.array_equal(seq_norms(seqs[:, :, :1]), [seq_norms(row) for row in seqs[:, :, :1]],
                              equal_nan=True)
        finite = np.where(np.isnan(norms), 1.0, norms)     # a scalar call rejects NaN
        for fn, r in ((linear, norms), (nonlinear, finite)):
            terms = gain_terms(fn, ages, r)
            assert np.array_equal(terms, [gain_terms(fn, ages, row) for row in r], equal_nan=True)
        heads = gen.uniform(0.0, 5.0, 12)
        c_terms, d_terms = gain_terms(linear, ages, norms), gen.uniform(0.0, 5.0, (12, K))
        folded = fold_terms(mode, heads, c_terms, d_terms)
        alone = [fold_terms(mode, h, c, d) for h, c, d in zip(heads, c_terms, d_terms)]
        assert np.array_equal(folded, alone, equal_nan=True)
        assert np.isnan(folded[3]) and not np.isnan(np.delete(folded, 3)).any()


def test_plant_interval_maps_work_elementwise():
    gen = np.random.default_rng(3)
    for plant in ("s1", "s2", "s3"):
        model = builtin_model(plant)
        lo = gen.uniform(-9.0, 9.0, (30, 8))
        hi = lo + gen.uniform(0.0, 7.0, (30, 8))
        img_lo, img_hi = model.f_image(lo, hi, np.zeros(1))
        c = img_lo + gen.uniform(0.0, 1.0, lo.shape) * (img_hi - img_lo)
        x = model.f_solve(c, lo, hi, np.zeros(1))
        for idx in np.ndindex(lo.shape):
            one = model.f_image(lo[idx], hi[idx], np.zeros(1))
            assert (img_lo[idx], img_hi[idx]) == (float(one[0]), float(one[1]))
            assert x[idx] == float(model.f_solve(c[idx], lo[idx], hi[idx], np.zeros(1)))


# ---------------------------------------------------------------------------
# Fitted exponential envelopes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["max", "sum"])
@pytest.mark.parametrize("plant", PLANT_NAMES)
def test_rges_envelope_is_a_float_fit_with_a_bool_verdict(plant, mode):
    K = 16 if plant == "s4" else 4          # s4 contracts from K = 16
    resolved = resolve(ExperimentConfig(plant=plant, mode=mode, estimator="mhe", horizon=K))
    env = rges_envelope(hat_bounds_for(resolved, K, check_grid=False), resolved.bounds)
    assert type(env.C) is float and type(env.worst_margin) is float
    assert bool(env) is True
