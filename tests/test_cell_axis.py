"""The cell axis: the structured engines and the check stage.

``run_fie``/``run_mhe`` step a stack of cells in lock-step, and every engine
solves a group of windows as one, one row per window.  One rule forms the
groups: the growing windows of a run go as ragged groups (each row its own
length), and ``run_mhe`` also stacks the full windows of up to K
consecutive steps that share their inputs, all within the group cap, with
entries past a window's length that no row reads.  The drivers must give what
``reference_folds.drive_step_by_step``, one group per step, gives, byte for
byte, raise what it raises, and make the group calls pinned here.  Every
row must be its cell run alone, byte for byte, and every
window must be what the one-window references give:
``reference_folds.max_interval_window`` for the level bisection and
``reference_folds.sum_pwl_window`` for the dynamic program.  The harness
checks the cells of a horizon group at once; every column, margin and
certified count must be what ``reference_folds.check_cell`` gives for the
cell alone, one row per step.  The row-equality facts of numpy that the
engines rely on are pinned at the end, with the row forms of the cost's
terms and fold, and the fitted exponential envelopes.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import mhestab.estimator as E
import mhestab.harness as H
from mhestab.comparison import (
    DomainError,
    IteratedKL,
    KLFn,
    LinearK,
    PlusMode,
    PowerK,
    SeparableGeometric,
    fold_terms,
    gain_terms,
    seq_norms,
)
from mhestab.certificates import TOL_CERT, CostSpec
from mhestab.estimator import (
    EstimationProblem,
    InfeasibleWindowError,
    SolverConfig,
    run_fie,
    run_mhe,
    solve_window,
)
from mhestab.harness import (
    AnalysisError,
    ExperimentConfig,
    hat_bounds_for,
    resolve,
    run_cell,
)
from mhestab.stability import rges_envelope
from mhestab.systems import (
    PLANT_NAMES,
    DisturbanceScenario,
    SystemModel,
    _linear_scalar,
    builtin_model,
    generate_scenario,
    simulate,
)

from reference_folds import (
    _PWL,
    check_cell,
    drive_step_by_step,
    generic_window,
    max_interval_window,
    sum_pwl_window,
)
from test_generic_engines import Refused, RefusingCube, _cost as _generic_cost, _snapshot

SCENARIOS = (
    DisturbanceScenario("zero", "zero"),
    DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1),
    DisturbanceScenario("decay", "decaying_geometric", amplitude=1.0, rate=0.8),
    DisturbanceScenario("impulse", "impulse", time=3, magnitude=1.0),
)


def _signature(result):
    return (repr(result.xhat.tolist()), repr(result.what.tolist()), repr(result.vhat.tolist()),
            repr(result.cost), result.iterations, result.engine)


def _windows(stack):
    """The one-window results of a stacked result, row by row."""
    return [stack.cell(i) for i in range(len(stack.cost))]


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
            w, v = generate_scenario(scenario, seed, T, 1, 1)
            ys.append(simulate(model, [x0], np.zeros((T, 1)), w, v, T).y)
    return np.stack(ys), x0, np.zeros((T, 1))


def _runs(plant, y, prior0, u, K):
    model, cost = builtin_model(plant), _cost(plant)
    if K is None:
        return run_fie(model, cost, prior0, u, y, SolverConfig())
    return run_mhe(model, cost, prior0, u, y, K, SolverConfig())


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
    assert [len(step.cost) for step in group] == [len(y)] * 15
    for c in range(len(y)):
        alone = _runs(plant, y[c:c + 1], prior0[c], u, K)
        assert [_signature(step.cell(c)) for step in group] == \
            [_signature(step.cell(0)) for step in alone]
    engines = {r.engine for step in group[1:] for r in _windows(step)}
    assert engines == {"max-interval"}
    levels = {r.iterations for step in group[1:] for r in _windows(step)}
    assert levels == {0, E.LEVEL_PASSES}        # zero-level exits and bisections


@pytest.mark.parametrize("plant", ["s1", "s2", "s3"])
def test_every_row_is_the_one_window_bisection(plant):
    y, x0, u = _stack(plant, 10)
    model, cost = builtin_model(plant), _cost(plant)
    for K in (1, 3, 7, 10):
        priors = [x0, x0] + [x0 + off for off in np.linspace(-2.0, 2.0, len(y) - 2)]
        problems = [EstimationProblem(model, cost, [p], u[:K], y[c, :K], K)
                    for c, p in enumerate(priors)]
        rows = E._solve_max_scalar(E._Rows.of(problems))
        for problem, row in zip(problems, _windows(rows)):
            assert _signature(row) == _signature(max_interval_window(problem))


def test_a_group_of_one_is_solve_window():
    y, x0, u = _stack("s3", 6, seeds=(3,))
    model, cost = builtin_model("s3"), _cost("s3")
    for c in range(len(y)):
        problem = EstimationProblem(model, cost, [x0 + 0.7], u, y[c], 6)
        one = solve_window(problem, SolverConfig())
        assert _signature(one) == _signature(E._solve_max_scalar(E._Rows.of([problem])).cell(0))
        assert _signature(one) == _signature(max_interval_window(problem))


@pytest.mark.parametrize("mode", [PlusMode.MAX, PlusMode.SUM], ids=["max", "sum"])
def test_structured_runs_build_no_window_problem(mode, monkeypatch):
    # the drivers hand the engines array groups; a window problem is built
    # only for a window that goes one at a time to a generic engine
    built = []
    real = EstimationProblem.__post_init__
    monkeypatch.setattr(EstimationProblem, "__post_init__",
                        lambda self: built.append(self) or real(self))
    y, x0, u = _stack("s1", 8)
    model = builtin_model("s1")
    cost = resolve(ExperimentConfig(plant="s1", mode=mode.value)).cost
    engine = "max-interval" if mode is PlusMode.MAX else "sum-pwl-dp"
    for runs in (run_fie(model, cost, [x0 + 1.0], u, y, SolverConfig()),
                 run_mhe(model, cost, [x0 + 1.0], u, y, 3, SolverConfig())):
        assert {r.engine for step in runs[1:] for r in _windows(step)} == {engine}
    assert built == []
    EstimationProblem(model, cost, [x0], u, y[0], 8)      # the counter counts
    assert len(built) == 1


@pytest.mark.parametrize("method", SolverConfig.METHODS)
def test_generic_runs_build_no_window_problem(method, monkeypatch):
    built = []
    real = EstimationProblem.__post_init__
    monkeypatch.setattr(EstimationProblem, "__post_init__",
                        lambda self: built.append(self) or real(self))
    model = builtin_model("s4")
    cost = resolve(ExperimentConfig(plant="s4", mode="max")).cost
    y = np.array([[0.1, 0.3, -0.2], [0.4, -0.1, 0.2]])
    solver = SolverConfig(method=method, multistart=2, max_iter=5)
    runs = run_fie(model, cost, [0.2, -0.1], np.zeros(3), y, solver)
    engine = "gauss-newton" if method == "gauss_newton_penalty" else "compass"
    assert [{step.cell(c).engine for step in runs[1:]} for c in range(2)] == [{engine}, {engine}]
    assert built == []


# ---------------------------------------------------------------------------
# The time axis: moving-horizon steps that share their inputs as one group
# ---------------------------------------------------------------------------

def _full_signature(result):
    return _signature(result) + (repr(result.prior.tolist()), result.horizon,
                                 result.starts_used)


def _assert_same_runs(runs, reference):
    assert [[_full_signature(r) for r in _windows(step)] for step in runs] == \
        [[_full_signature(r) for r in _windows(step)] for step in reference]


def _group_sizes(monkeypatch):
    """The row count of every ``_solve_group`` call from now on."""
    sizes = []
    real = E._solve_group
    monkeypatch.setattr(E, "_solve_group", lambda rows, solver: sizes.append(len(rows))
                        or real(rows, solver))
    return sizes


@pytest.mark.parametrize("K", [1, 2, 4, 8])
@pytest.mark.parametrize("mode", ["max", "sum"])
def test_mhe_runs_equal_the_step_by_step_driver(mode, K):
    y, x0, u = _stack("s1", 17)
    model = builtin_model("s1")
    cost = resolve(ExperimentConfig(plant="s1", mode=mode)).cost
    prior0 = np.where(np.arange(len(y))[:, None] < 2, x0, x0 + 1.0)
    for T in (K - 1, K, 2 * K + 1, 13):
        runs = run_mhe(model, cost, prior0, u[:T], y[:, :T], K, SolverConfig())
        _assert_same_runs(runs, drive_step_by_step(model, cost, prior0, u[:T], y[:, :T],
                                                   SolverConfig(), K))
        assert [len(step.cost) for step in runs] == [len(y)] * (T + 1)


@pytest.mark.parametrize("plant,mode,method,K,T", [
    ("s3", "sum", "gauss_newton_penalty", 2, 6), ("s3", "sum", "multistart_local", 3, 7),
    ("s4", "max", "gauss_newton_penalty", 2, 5), ("s4", "max", "multistart_local", 2, 4)],
    ids=["s3-sum-gn", "s3-sum-compass", "s4-max-gn", "s4-max-compass"])
def test_generic_mhe_runs_equal_the_step_by_step_driver(plant, mode, method, K, T,
                                                        monkeypatch):
    config = ExperimentConfig(plant=plant, mode=mode, estimator="mhe", horizon=K, t_final=T)
    resolved = resolve(config)
    model, cost = resolved.model, resolved.cost
    truths = H._truths(config, model, [(scenario, seed) for scenario in CHECK_SCENARIOS[1:3]
                                       for seed in (0, 1)])
    y, u = truths.y[:, :T], truths.u[:T]
    prior0 = H._initial(config, model)[1]
    solver = SolverConfig(method=method, multistart=2, max_iter=15)
    reference = drive_step_by_step(model, cost, prior0, u, y, solver, K)
    sizes = _group_sizes(monkeypatch)
    runs = run_mhe(model, cost, prior0, u, y, K, solver)
    _assert_same_runs(runs, reference)
    assert max(sizes) > len(y)                  # some steps went as one group
    assert sum(sizes) == T * len(y)


ENGINE_RUNS = {
    # engine: (plant, mode, method, T, K < T, K >= T)
    "max-interval-s1": ("s1", "max", "gauss_newton_penalty", 12, 3, 14),
    "max-interval-s3": ("s3", "max", "gauss_newton_penalty", 12, 5, 12),
    "sum-pwl-dp": ("s2", "sum", "gauss_newton_penalty", 12, 4, 13),
    "gauss-newton": ("s4", "sum", "gauss_newton_penalty", 5, 2, 6),
    "compass": ("s3", "sum", "multistart_local", 4, 2, 4),
}


@pytest.mark.parametrize("horizon", ["fie", "short", "long"])
@pytest.mark.parametrize("case", sorted(ENGINE_RUNS))
def test_every_engine_run_equals_the_step_by_step_driver(case, horizon, monkeypatch):
    # the growing windows of a run go as one ragged group, on inputs that
    # differ from step to step
    plant, mode, method, T, short, long = ENGINE_RUNS[case]
    K = {"fie": None, "short": short, "long": long}[horizon]
    config = ExperimentConfig(plant=plant, mode=mode, t_final=T)
    resolved = resolve(config)
    model, cost = resolved.model, resolved.cost
    truths = H._truths(config, model, [(scenario, seed) for scenario in CHECK_SCENARIOS[1:3]
                                       for seed in (0, 1)])
    y = truths.y[:, :T]
    u = 0.3 * np.sin(np.arange(T, dtype=float))[:, None]
    prior0 = H._initial(config, model)[1] + np.linspace(-0.2, 0.2, len(y))[:, None]
    solver = SolverConfig(method=method, multistart=2, max_iter=15)
    reference = drive_step_by_step(model, cost, prior0, u, y, solver, K)
    sizes = _group_sizes(monkeypatch)
    runs = run_fie(model, cost, prior0, u, y, solver) if K is None else \
        run_mhe(model, cost, prior0, u, y, K, solver)
    _assert_same_runs(runs, reference)
    assert {step.engine for step in runs[1:]} == {case.split("-s")[0]}
    grown = T if K is None else min(K, T)
    assert sizes[0] == grown * len(y)                  # every growing window at t = 1
    assert sum(sizes) == T * len(y)


def _nan_padding(monkeypatch):
    """Make ``_step_windows`` fill every entry past a window's length with
    NaN, in the drivers and in the group check."""
    real = E._step_windows

    def gather(seq, stops, lengths):
        out = real(seq, stops, lengths)
        out[np.arange(out.shape[1]) >= np.repeat(lengths, len(seq))[:, None]] = np.nan
        return out

    monkeypatch.setattr(E, "_step_windows", gather)
    monkeypatch.setattr(H, "_step_windows", gather)


@pytest.mark.parametrize("horizon", ["fie", "short"])
@pytest.mark.parametrize("case", sorted(ENGINE_RUNS))
def test_no_row_of_a_run_reads_the_padding_of_its_group(case, horizon, monkeypatch):
    plant, mode, method, T, short, _ = ENGINE_RUNS[case]
    K = short if horizon == "short" else None
    config = ExperimentConfig(plant=plant, mode=mode, t_final=T)
    resolved = resolve(config)
    model, cost = resolved.model, resolved.cost
    truths = H._truths(config, model, [(scenario, seed) for scenario in CHECK_SCENARIOS[1:3]
                                       for seed in (0, 1)])
    y, u = truths.y[:, :T], np.zeros((T, 1))
    prior0 = H._initial(config, model)[1]
    solver = SolverConfig(method=method, multistart=2, max_iter=15)
    reference = drive_step_by_step(model, cost, prior0, u, y, solver, K)
    _nan_padding(monkeypatch)
    runs = run_fie(model, cost, prior0, u, y, solver) if K is None else \
        run_mhe(model, cost, prior0, u, y, K, solver)
    _assert_same_runs(runs, reference)


@pytest.mark.parametrize("mode", ["max", "sum"])
def test_a_group_cut_before_the_horizon_takes_growing_and_full_windows(mode, monkeypatch):
    # a cap of 12 row-steps per cell cuts the growing windows after t = 3;
    # the next group takes the growing window of t = 4 and the full windows
    # of t = 5 and 6, anchored at the prior and at the estimates of t = 1
    # and 2, and so on three steps a group
    y, x0, u = _stack("s1", 12)
    model = builtin_model("s1")
    cost = resolve(ExperimentConfig(plant="s1", mode=mode)).cost
    C, K = len(y), 4
    reference = drive_step_by_step(model, cost, [x0 + 1.0], u, y, SolverConfig(), K)
    monkeypatch.setattr(E, "GROUP_ROW_STEPS", 12 * C)
    sizes = _group_sizes(monkeypatch)
    _assert_same_runs(run_mhe(model, cost, [x0 + 1.0], u, y, K, SolverConfig()), reference)
    assert sizes == [3 * C] * 4


@pytest.mark.parametrize("K", [None, 3], ids=["fie", "mhe3"])
def test_a_ragged_group_whose_gains_are_not_linear_equals_the_step_by_step_driver(K):
    # a slice that is not linear in r gives no slope table, and its widths
    # are per-level inversions at each row's own age
    model, T = builtin_model("s3"), 7
    square, linear = SeparableGeometric(1.0, 2.0, 0.7), SeparableGeometric(2.0, 1.0, 0.8)
    gen = np.random.default_rng(1)
    y = np.stack([simulate(model, [0.3], np.zeros((T, 1)), gen.uniform(-0.1, 0.1, (T, 1)),
                           gen.uniform(-0.1, 0.1, (T, 1)), T).y for _ in range(3)])
    u = np.zeros((T, 1))
    for cost in (CostSpec(PlusMode.MAX, square, linear, square),
                 CostSpec(PlusMode.MAX, linear, square, linear)):
        runs = run_fie(model, cost, [0.5], u, y, SolverConfig()) if K is None else \
            run_mhe(model, cost, [0.5], u, y, K, SolverConfig())
        _assert_same_runs(runs, drive_step_by_step(model, cost, [0.5], u, y, SolverConfig(), K))
        assert runs[-1].engine == "max-interval"


@dataclasses.dataclass(frozen=True)
class _ZeroFromAge(KLFn):
    """``base`` below one age and 0 from it on: every slice linear in r."""

    base: KLFn
    age: int

    def _eval(self, r, s):
        return self.base._eval(r, s) if s < self.age else 0.0 * r

    def _slope(self, s):
        return self.base._slope(s) if s < self.age else 0.0

    def _tail(self, r, start):
        return sum((self.base._eval(r, s) for s in range(start, self.age)), 0.0 * r)


@pytest.mark.parametrize("K", [None, 4], ids=["fie", "mhe4"])
def test_a_ragged_sum_group_with_zero_weight_stages_in_some_rows(K):
    # at a step of a ragged group, the rows of different lengths are at
    # different ages, so the stage weight is 0 in some rows only
    y, x0, u = _stack("s1", 7)
    model, base = builtin_model("s1"), _sum_cost()
    cost = _sum_cost(gamma_hat=_ZeroFromAge(base.gamma_hat, 3))
    runs = run_fie(model, cost, [x0 + 1.0], u, y, SolverConfig()) if K is None else \
        run_mhe(model, cost, [x0 + 1.0], u, y, K, SolverConfig())
    _assert_same_runs(runs, drive_step_by_step(model, cost, [x0 + 1.0], u, y, SolverConfig(), K))
    assert runs[-1].engine == "sum-pwl-dp"


def test_generic_growing_windows_split_at_their_own_cap(monkeypatch):
    # a generic pass holds every row's candidates, so generic groups have a
    # cap of their own: 4 cells of windows up to 3 long (36 row-steps), then
    # of windows 4 and 5 long (40)
    plant, mode, method, T, _, _ = ENGINE_RUNS["gauss-newton"]
    config = ExperimentConfig(plant=plant, mode=mode, t_final=T)
    resolved = resolve(config)
    truths = H._truths(config, resolved.model, [(CHECK_SCENARIOS[1], seed)
                                                for seed in range(4)])
    y, u = truths.y[:, :T], np.zeros((T, 1))
    prior0 = H._initial(config, resolved.model)[1]
    solver = SolverConfig(multistart=2, max_iter=15)
    reference = drive_step_by_step(resolved.model, resolved.cost, prior0, u, y, solver)
    monkeypatch.setattr(E, "GENERIC_GROUP_ROW_STEPS", 40)
    sizes = _group_sizes(monkeypatch)
    _assert_same_runs(run_fie(resolved.model, resolved.cost, prior0, u, y, solver), reference)
    assert sizes == [12, 8]


@pytest.mark.parametrize("mode", ["max", "sum"])
def test_steps_whose_inputs_differ_go_alone(mode, monkeypatch):
    # s1 ignores its input, so only the grouping sees it
    y, x0, u = _stack("s1", 20)
    model = builtin_model("s1")
    cost = resolve(ExperimentConfig(plant="s1", mode=mode)).cost
    C, K = len(y), 4
    varying = np.sin(np.arange(20.0))[:, None]
    switched = np.where(np.arange(20)[:, None] < 10, 0.0, 1.0)
    # the growing windows go as one group; full windows u[s-4:s]: all zero
    # up to s = 10, all one from s = 14
    expected = {"varying": [4 * C] + [C] * 16,
                "switched": [4 * C] + [4 * C, 2 * C, C, C, C, 4 * C, 3 * C]}
    for name, inputs in (("varying", varying), ("switched", switched)):
        reference = drive_step_by_step(model, cost, [x0 + 1.0], inputs, y, SolverConfig(), K)
        sizes = _group_sizes(monkeypatch)
        runs = run_mhe(model, cost, [x0 + 1.0], inputs, y, K, SolverConfig())
        monkeypatch.undo()
        _assert_same_runs(runs, reference)
        assert sizes == expected[name], name


def test_the_group_calls_of_a_run(monkeypatch):
    y, x0, u = _stack("s1", 60, seeds=(0, 1, 2, 3))
    model, cost = builtin_model("s1"), _cost("s1")
    C = len(y)
    assert C == 16
    sizes = _group_sizes(monkeypatch)
    run_mhe(model, cost, [x0 + 1.0], u, y, 4, SolverConfig())
    assert sizes == [64] * 15
    sizes.clear()
    run_mhe(model, cost, [x0 + 1.0], np.sin(np.arange(60.0)), y, 4, SolverConfig())
    assert sizes == [64] + [16] * 56
    sizes.clear()
    run_fie(model, cost, [x0 + 1.0], u[:20], y[:, :20], SolverConfig())
    assert sizes == [16 * 20]
    sizes.clear()
    # growing windows up to t = 45 fit 16 * 45 rows of length 45 into
    # GROUP_ROW_STEPS; the rest of the run goes as a second group
    assert E.GROUP_ROW_STEPS == 1 << 15
    run_fie(model, cost, [x0 + 1.0], u, y, SolverConfig())
    assert sizes == [16 * 45, 16 * 15]


def test_a_run_builds_no_estimate_per_cell(monkeypatch):
    # the engines, the drivers and the group check hold the windows of a
    # step as one stacked result, so the estimates built do not grow with
    # the cell count
    built = []
    real = E.EstimateResult.__init__
    monkeypatch.setattr(E.EstimateResult, "__init__",
                        lambda self, *args, **kw: built.append(self) or real(self, *args, **kw))
    counts = []
    for seeds in ((0,), (0, 1, 2)):
        config = ExperimentConfig(plant="s1", mode="max", estimator="mhe", t_final=12,
                                  seeds=seeds, scenarios=CHECK_SCENARIOS)
        resolved = resolve(config)
        built.clear()
        cells = H.run_cells(resolved, (2, 4))
        assert len(cells) == 2 * len(CHECK_SCENARIOS) * len(seeds)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 2 * 2 * 13       # at most two per step and horizon


def _failing_at_a_later_step(case):
    """(model, cost, y, u, K, solver, s): a run whose windows are fine up to
    step s - 1 and whose window ending at s fails, with s inside a group of
    several steps."""
    if case == "infeasible":
        # an output of 1e308 overflows every candidate's cost to inf
        y, x0, u = _stack("s1", 10)
        y[3, 6] = 1e308
        return builtin_model("s1"), _cost("s1"), y, u, 4, SolverConfig(), 7
    # states below -5 make the edge plant NaN, and a NaN cost term raises
    model, T = _edge_plant(), 9
    u = np.zeros((T, 1))
    y = np.stack([simulate(model, [x0], u, np.full((T, 1), 0.05), np.full((T, 1), -0.05), T).y
                  for x0 in (0.5, -1.0)])
    y[1, 4] = -20.0
    method = "gauss_newton_penalty" if case == "generic-gn" else "multistart_local"
    solver = SolverConfig(method=method, multistart=2, max_iter=10)
    return model, _generic_cost("s1", PlusMode.SUM), y, u, 3, solver, 6


@pytest.mark.parametrize("case", ["infeasible", "generic-gn", "generic-compass"])
def test_a_step_failing_inside_a_group_raises_what_the_step_loop_raises(case, monkeypatch):
    model, cost, y, u, K, solver, s = _failing_at_a_later_step(case)
    C = len(y)
    assert s > K + 1
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        drive_step_by_step(model, cost, [0.5], u[:s - 1], y[:, :s - 1], solver, K)
        with pytest.raises(Exception) as expected:
            drive_step_by_step(model, cost, [0.5], u, y, solver, K)
        sizes = _group_sizes(monkeypatch)
        with pytest.raises(Exception) as raised:
            run_mhe(model, cost, [0.5], u, y, K, solver)
    assert expected.type in (InfeasibleWindowError, DomainError)
    assert (raised.type, str(raised.value)) == (expected.type, str(expected.value))
    # the growing windows went as one group; the group of steps K + 1 .. 2K
    # raised, then its steps went one by one up to the failing one
    assert sizes == [K * C] + [K * C] + [C] * (s - K)


@pytest.mark.parametrize("case", ["infeasible", "generic-gn", "generic-compass"])
def test_a_failing_step_in_a_ragged_group_raises_its_own_error(case, monkeypatch):
    # every full-information window from s on reads the failing output, so
    # the ragged group of all steps raises, and its steps go one by one up
    # to the first failing one
    model, cost, y, u, _, solver, s = _failing_at_a_later_step(case)
    C, T = y.shape[:2]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(Exception) as expected:
            drive_step_by_step(model, cost, [0.5], u, y, solver)
        drive_step_by_step(model, cost, [0.5], u[:s - 1], y[:, :s - 1], solver)
        sizes = _group_sizes(monkeypatch)
        with pytest.raises(Exception) as raised:
            run_fie(model, cost, [0.5], u, y, solver)
    assert expected.type in (InfeasibleWindowError, DomainError)
    assert (raised.type, str(raised.value)) == (expected.type, str(expected.value))
    assert sizes == [T * C] + [C] * s


# ---------------------------------------------------------------------------
# Per-row branches: an infeasible row, the top-level guard
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("plant", ["s1", "s2", "s3"])
def test_a_row_without_a_finite_cost_candidate_fails_its_group(plant):
    # outputs of 1e308 overflow every candidate's cost to inf
    y, x0, u = _stack(plant, 3, seeds=(5,))
    model, cost = builtin_model(plant), _cost(plant)
    finite = EstimationProblem(model, cost, [x0 + 0.5], u, y[1], 3)
    huge = EstimationProblem(model, cost, [x0 + 0.5], u, np.full((3, 1), 1e308), 3)
    assert (_signature(E._solve_max_scalar(E._Rows.of([finite])).cell(0))
            == _signature(max_interval_window(finite)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InfeasibleWindowError, match="no finite-cost candidate trajectory"):
            max_interval_window(huge)
        with pytest.raises(InfeasibleWindowError, match="no finite-cost candidate trajectory"):
            E._solve_max_scalar(E._Rows.of([finite, huge]))


@pytest.mark.parametrize("plant", ["s1", "s3"])
def test_top_level_guard_runs_per_row(plant, monkeypatch):
    # the top level is feasible by construction, so make the first pass of
    # every row with a positive prior report it infeasible
    y, x0, u = _stack(plant, 8)
    model, cost = builtin_model(plant), _cost(plant)
    priors = np.linspace(-1.5, 1.5, len(y))
    problems = [EstimationProblem(model, cost, [p], u, y[c], 8)
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
    group = _windows(E._solve_max_scalar(E._Rows.of(problems)))
    alone = [E._solve_max_scalar(E._Rows.of([p])).cell(0) for p in problems]
    monkeypatch.undo()
    assert guarded[0] == int((priors > 0).sum()) > 0
    assert [_signature(r) for r in group] == [_signature(r) for r in alone]
    assert all(math.isfinite(r.cost) for r in group)


# ---------------------------------------------------------------------------
# The sum-mode dynamic program: every row is the one-window reference
# ---------------------------------------------------------------------------
# The generic engines: every row is its window solved alone
# ---------------------------------------------------------------------------

GENERIC_ENGINES = {"gn": E._solve_gauss_newton, "compass": E._solve_multistart_local}
GENERIC_METHODS = {"gn": "gauss_newton_penalty", "compass": "multistart_local"}


def _generic_windows(plant, mode, K, key, offsets=(0.3, -0.6, 1.2), lengths=None):
    """Windows of one plant and cost that start at step 0 of shared inputs
    and differ in their truths, noise draws, priors (the truth plus an
    offset) and lengths (all K by default)."""
    model = builtin_model(plant)
    cost = _generic_cost(plant, mode)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.uniform(-0.5, 0.5, (K, model.input_dim))
    problems = []
    for offset, L in zip(offsets, lengths or [K] * len(offsets)):
        w = gen.uniform(-0.1, 0.1, (K, model.process_noise_dim))
        v = gen.uniform(-0.1, 0.1, (K, model.meas_noise_dim))
        x0 = gen.uniform(-0.5, 0.5, model.state_dim)
        sol = simulate(model, x0, u, w, v, K)
        problems.append(EstimationProblem(model, cost, x0 + offset, u[:L], sol.y[:L], L))
    return problems


@pytest.mark.parametrize("tag", ["gn", "compass"])
@pytest.mark.parametrize("plant,mode,K", [("s3", PlusMode.SUM, 4), ("s4", PlusMode.MAX, 3),
                                          ("s4", PlusMode.SUM, 3)],
                         ids=["s3-sum", "s4-max", "s4-sum"])
def test_every_generic_row_is_its_window_solved_alone(plant, mode, K, tag, monkeypatch):
    # one ragged group holds windows of lengths K - 2, K - 1 and K
    problems = _generic_windows(plant, mode, K, 7, lengths=(K - 2, K - 1, K))
    solver = SolverConfig(method=GENERIC_METHODS[tag], multistart=3, max_iter=25)
    engine = GENERIC_ENGINES[tag]
    pairs = []
    real = E._lockstep

    def recorded(objective, derive, gens):
        ends = real(objective, derive, gens)
        pairs.append([iters for _, _, iters in ends])
        return ends

    monkeypatch.setattr(E, "_lockstep", recorded)
    # the group's outputs padded with NaN, which no row reads
    y = np.full((len(problems), K, problems[0].model.output_dim), np.nan)
    for i, p in enumerate(problems):
        y[i, :p.horizon] = p.y_win
    lengths = [p.horizon for p in problems]
    stack = E._solve_group(E._Rows(problems[0].model, problems[0].cost, problems[-1].u_win,
                                   np.array([p.prior for p in problems]), y,
                                   np.array(lengths)), solver)
    group = [stack.take(slice(i, i + 1), L).cell(0) for i, L in enumerate(lengths)]
    alone = [engine(E._Rows.of([p]), solver).cell(0) for p in problems]
    monkeypatch.undo()
    # the pairs of the group left it after different iteration counts
    assert len(pairs[0]) == len(problems) * solver.multistart
    assert len(set(pairs[0])) > 1
    assert pairs[0] == [i for run in pairs[1:] for i in run]
    for problem, row, one in zip(problems, group, alone):
        assert _snapshot(row) == _snapshot(one) == _snapshot(generic_window(problem, solver))


def _edge_plant():
    # 0 * log(x + 5) is NaN below x = -5: a candidate state there makes its
    # row NaN, so evaluating it alone raises
    def f_nominal(x, u):
        return 0.5 * x + 0.0 * np.log(x + 5.0)

    return SystemModel("edge", 1, 1, 1, 1, 1, f_nominal, lambda x, u: x)


def _edge_windows():
    """Three windows of the edge plant; the second one's search reaches a
    state below -5, so solving it raises."""
    model, cost = _edge_plant(), _generic_cost("s1", PlusMode.SUM)
    u = np.zeros((3, 1))
    problems = []
    for x0, offset in ((-1.0, 0.5), (-4.9, 1.5), (0.5, -0.3)):
        sol = simulate(model, [x0], u, np.full((3, 1), 0.05), np.full((3, 1), -0.05), 3)
        problems.append(EstimationProblem(model, cost, [x0 + offset], u, sol.y, 3))
    return problems


@pytest.mark.parametrize("tag", ["gn", "compass"])
def test_a_masked_row_that_is_read_fails_its_group(tag, monkeypatch):
    problems = _edge_windows()
    solver = SolverConfig(method=GENERIC_METHODS[tag], multistart=2, max_iter=30)
    engine = GENERIC_ENGINES[tag]
    errors = []
    real = E._Objective.evaluate

    def recorded(objective, Z, owner):
        out = real(objective, Z, owner)
        errors.append(len(out[1]))
        return out

    monkeypatch.setattr(E._Objective, "evaluate", recorded)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fine = [engine(E._Rows.of([p]), solver).cell(0) for p in (problems[0], problems[2])]
        assert sum(errors) == 0
        with pytest.raises(DomainError):
            generic_window(problems[1], solver)
        with pytest.raises(DomainError):
            engine(E._Rows.of([problems[1]]), solver)
        assert sum(errors) > 0
        with pytest.raises(DomainError):
            engine(E._Rows.of(problems), solver)
    for problem, one in zip((problems[0], problems[2]), fine):
        assert _snapshot(one) == _snapshot(generic_window(problem, solver))


@pytest.mark.parametrize("tag", ["gn", "compass"])
def test_reading_a_failing_row_prints_no_warning(tag):
    # the failing row is evaluated alone under the pass's error state, so
    # with warnings as errors the read still raises the row's own error
    solver = SolverConfig(method=GENERIC_METHODS[tag], multistart=2, max_iter=30)
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="KL first argument must be nonnegative, got nan"):
            GENERIC_ENGINES[tag](E._Rows.of([_edge_windows()[1]]), solver)


def test_the_first_window_that_raises_decides_what_its_group_raises():
    # the gain raises Refused on a huge distance, and an edge state makes a
    # NaN term, which raises DomainError
    model = _edge_plant()
    cube = RefusingCube()
    cost = CostSpec(PlusMode.MAX, cube, cube, cube)
    u = np.zeros((2, 1))
    y = np.array([[0.1], [0.05]])
    fine = EstimationProblem(model, cost, [0.2], u, y, 2)
    huge = EstimationProblem(model, cost, [1e150], u, y, 2)
    edge = EstimationProblem(model, cost, [-4.99], u, np.array([[-4.9], [-2.5]]), 2)
    solver = SolverConfig(method="multistart_local", multistart=2, max_iter=30)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for problem, error in ((huge, Refused), (edge, DomainError)):
            with pytest.raises(error):
                generic_window(problem, solver)
        with pytest.raises(Refused):
            E._solve_multistart_local(E._Rows.of([fine, huge, edge]), solver)
        with pytest.raises(DomainError):
            E._solve_multistart_local(E._Rows.of([fine, edge, huge]), solver)


# ---------------------------------------------------------------------------

def _sum_cost(plant="s1", **gains):
    cost = resolve(ExperimentConfig(plant=plant, mode="sum")).cost
    return dataclasses.replace(cost, **gains)


def _sum_rows_equal_the_reference(model, cost, priors, ys):
    K = ys.shape[1]
    u = np.zeros((K, 1))
    problems = [EstimationProblem(model, cost, [p], u, y, K) for p, y in zip(priors, ys)]
    group = E._Rows.of(problems)
    assert E._structured_engine(model, cost, K) is E._solve_sum_pwl
    rows = _windows(E._solve_sum_pwl(group))
    for problem, row in zip(problems, rows):
        assert _signature(row) == _signature(sum_pwl_window(problem))
    return rows


@pytest.mark.parametrize("K", range(1, 9))
@pytest.mark.parametrize("plant", ["s1", "s2"])
def test_every_sum_row_is_the_one_window_program(plant, K):
    gen = np.random.default_rng(K)
    model, cost = builtin_model(plant), _sum_cost(plant)
    for scale in (1.0, 1e-300):      # tiny costs, where 1e-300 moves a comparison
        ys = gen.normal(0.0, 1.0, (24, K, 1)) * scale
        priors = gen.normal(0.0, 1.0, 24) * scale
        _sum_rows_equal_the_reference(model, cost, priors, ys)


@pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
def test_sum_rows_with_tied_minima(K):
    # integer data: flat minima, breakpoints that coincide, kinks on breakpoints
    gen = np.random.default_rng(10 + K)
    model, cost = builtin_model("s1"), _sum_cost()
    ys = gen.integers(-2, 3, (30, K, 1)).astype(float)
    ys[:4] = 0.0
    ys[4:8] = -0.0
    priors = gen.integers(-2, 3, 30).astype(float)
    priors[:2] = 0.0
    priors[2:4] = -0.0
    _sum_rows_equal_the_reference(model, cost, priors, ys)


@pytest.mark.parametrize("K", [2, 4, 7])
def test_sum_rows_with_zero_weight_stages(K):
    gen = np.random.default_rng(20 + K)
    model = builtin_model("s1")
    free = SeparableGeometric(1.0, 1.0, 0.0)        # slope 0 at every age >= 1
    for gains in ({"gamma_hat": free}, {"delta_hat": free}, {"gamma_hat": free,
                                                               "delta_hat": free}):
        cost = _sum_cost(**gains)
        ys = gen.normal(0.0, 1.0, (12, K, 1))
        _sum_rows_equal_the_reference(model, cost, gen.normal(0.0, 1.0, 12), ys)


@pytest.mark.parametrize("amplitude", [1e17, 1e20, 1e100])
def test_sum_rows_at_large_states_are_exact(amplitude):
    # one unit left of a breakpoint this large is that breakpoint, so the
    # slope of a left arm is read off the slopes, not probed there
    gen = np.random.default_rng(40)
    model, cost = builtin_model("s1"), _sum_cost()
    _sum_rows_equal_the_reference(model, cost, gen.normal(0.0, amplitude, 12),
                                  gen.normal(0.0, amplitude, (12, 4, 1)))
    scenario = DisturbanceScenario("uniform", "bounded_uniform", amplitude=amplitude)
    config = ExperimentConfig(plant="s1", mode="sum", t_final=8, scenarios=(scenario,))
    with np.errstate(all="ignore"):
        cell = run_cell(resolve(config), scenario, 0)
    assert cell.certified.tolist() == [True] * 9


@pytest.mark.parametrize("a", [-0.7, -1.3, 0.4])
def test_sum_rows_on_a_custom_plant(a):
    gen = np.random.default_rng(30)
    model = _linear_scalar("custom", a)
    cost = _sum_cost()
    for K in (1, 2, 5, 8):
        ys = np.round(gen.normal(0.0, 1.0, (16, K, 1)), 1)
        _sum_rows_equal_the_reference(model, cost, np.round(gen.normal(0.0, 1.0, 16), 1), ys)


def _same_functions(rows, functions):
    for r, fn in enumerate(functions):
        n = int(rows.n[r])
        assert [repr(float(x)) for x in rows.xs[r, :n]] == [repr(float(x)) for x in fn.xs]
        assert ([repr(float(v)) for v in rows.slopes[r, :n + 1]]
                == [repr(float(v)) for v in fn.slopes])
        assert repr(float(rows.y0[r])) == repr(fn.y0)


@pytest.mark.parametrize("a", [0.5, -0.7])
def test_every_operation_on_rows_is_the_scalar_operation(a):
    # every value function of the forward pass, breakpoints, slopes and
    # value at the first breakpoint, with the signs of zeros
    gen = np.random.default_rng(40)
    R = 60
    weights = [0.0, 0.3, 1.0, 2.5, 0.7 / 3.0, 1.9 / 7.0]
    centers = gen.normal(0.0, 1.0, (12, R))
    centers[:, :30] = np.round(centers[:, :30], 1)
    centers[:, :5] = 0.0
    centers[:, 5:10] = -0.0
    rows = E._PWLRows.abs_terms(centers[0], 1.5).add_abs(centers[1], 0.8)
    fns = [_PWL.abs_term(c0, 1.5).add(_PWL.abs_term(c1, 0.8))
           for c0, c1 in zip(centers[0], centers[1])]
    _same_functions(rows, fns)
    for j in range(2, 12):
        off, w = float(gen.normal()), weights[j % len(weights)]
        rows = rows.scale_shift_arg(a, off)
        fns = [fn.scale_shift_arg(a, off) for fn in fns]
        _same_functions(rows, fns)
        vmin, lo, hi = rows.min()
        assert [repr(v) for v in zip(vmin.tolist(), lo.tolist(), hi.tolist())] == \
            [repr(tuple(map(float, fn.min()))) for fn in fns]
        rows, fns = rows.infconv_abs(w), [fn.infconv_abs(w) for fn in fns]
        _same_functions(rows, fns)
        x = np.concatenate([rows.xs[:, :1] - 1.0, centers[j - 2:j].T], axis=1)
        assert rows.value(x).tolist() == [[fn.value(v) for v in xr] for fn, xr in zip(fns, x)]
        d = 0.0 if j == 5 else 1.1 / j
        rows = rows.add_abs(centers[j], d)
        fns = [fn.add(_PWL.abs_term(c, d)) for fn, c in zip(fns, centers[j])]
        _same_functions(rows, fns)


@pytest.mark.parametrize("K", [None, 2, 5])
def test_a_sum_group_equals_each_cell_run_alone(K):
    y, x0, u = _stack("s1", 12)
    model, cost = builtin_model("s1"), _sum_cost()
    prior0 = np.where(np.arange(len(y))[:, None] < 2, x0, x0 + 1.0)
    run = (lambda yy, p: run_fie(model, cost, p, u, yy, SolverConfig())) if K is None else \
        (lambda yy, p: run_mhe(model, cost, p, u, yy, K, SolverConfig()))
    group = run(y, prior0)
    for c in range(len(y)):
        alone = run(y[c:c + 1], prior0[c])
        assert [_signature(step.cell(c)) for step in group] == \
            [_signature(step.cell(0)) for step in alone]
    assert {r.engine for step in group[1:] for r in _windows(step)} == {"sum-pwl-dp"}


# ---------------------------------------------------------------------------
# The group check: every cell is the one-cell loop
# ---------------------------------------------------------------------------

CHECK_SCENARIOS = [
    DisturbanceScenario("zero", "zero"),
    DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1),
    DisturbanceScenario("decay", "decaying_geometric", amplitude=1.0, rate=0.8),
    DisturbanceScenario("impulse", "impulse", time=3, magnitude=1.0),
]


def _columns(cell):
    """A cell's columns under the field names of the reference's rows, with
    a window margin of None where no window was checked."""
    return {"t": list(range(cell.total_steps)), "xhat": cell.xhat.tolist(),
            "x_true": cell.x_true.tolist(), "error": cell.error.tolist(),
            "rhs": cell.rhs.tolist(), "margin": cell.margin.tolist(),
            "window_margin": [m if checked else None for m, checked in
                              zip(cell.window_margin.tolist(), cell.window_mask.tolist())],
            "achieved_cost": cell.achieved_cost.tolist(),
            "certified_ratio": cell.certified_ratio.tolist(),
            "certified": cell.certified.tolist()}


def _check_against_the_loop(resolved, K, patch=lambda runs: None):
    """The group check of the configured cells at horizon K, after ``patch``
    edits their estimator results, each cell held to the one-cell loop by
    repr, column by column."""
    config = resolved.config
    hat = H._cell_hat(resolved, K)
    cells = [(scenario, seed) for scenario in config.scenarios for seed in config.seeds]
    T = config.t_final
    truths = H._truths(config, resolved.model, cells)
    runs = H._estimate(resolved, truths.u[:T], truths.y[:, :T], K)
    patch(runs)
    group = H._check_group(resolved, cells, hat, K, truths, runs)
    for c, ((scenario, seed), cell) in enumerate(zip(cells, group)):
        run = [step.cell(c) for step in runs]
        rows, min_margin, certified, worst = check_cell(resolved, scenario, seed, hat, K,
                                                        (truths.cell(c), run))
        assert {name: repr(column) for name, column in _columns(cell).items()} == \
            {name: repr([row[name] for row in rows]) for name in rows[0]}
        assert (repr(cell.min_margin), cell.certified_steps, repr(cell.worst)) == \
            (repr(min_margin), certified, repr(worst))
    return group


@pytest.mark.parametrize("mode", ["max", "sum"])
@pytest.mark.parametrize("K", [None, 4], ids=["fie", "mhe4"])
def test_the_group_check_reads_no_padding(K, mode, monkeypatch):
    # the reference windows are gathered as the drivers gather theirs
    _nan_padding(monkeypatch)
    config = ExperimentConfig(plant="s1", mode=mode, estimator="fie" if K is None else "mhe",
                              horizon=K or 4, t_final=12, scenarios=CHECK_SCENARIOS)
    group = _check_against_the_loop(resolve(config), K or 4)
    assert sum(cell.certified_steps for cell in group) > 0


@pytest.mark.parametrize("mode", ["max", "sum"])
@pytest.mark.parametrize("K", [None, 2, 4, 8], ids=["fie", "mhe2", "mhe4", "mhe8"])
@pytest.mark.parametrize("plant", PLANT_NAMES)
def test_the_group_check_equals_the_one_cell_loop(plant, K, mode):
    structured = plant in ("s1", "s2") or (plant == "s3" and mode == "max")
    T = 20 if structured else 4            # the generic engines are slow
    config = ExperimentConfig(plant=plant, mode=mode, estimator="fie" if K is None else "mhe",
                              horizon=K or 4, t_final=T, seeds=(0, 1) if structured else (0,),
                              scenarios=CHECK_SCENARIOS if structured else CHECK_SCENARIOS[1:3])
    try:
        group = _check_against_the_loop(resolve(config), K or 4)
    except AnalysisError:
        assert plant == "s4" and K is not None          # s4 contracts from K = 16
        return
    assert sum(cell.certified_steps for cell in group) > 0


def _noise_free_from_the_true_state(K, T):
    """An s1 cell with zero disturbances whose prior is its true state."""
    return resolve(ExperimentConfig(plant="s1", mode="max",
                                    estimator="fie" if K is None else "mhe", horizon=K or 4,
                                    t_final=T, prior_offset=0.0, scenarios=CHECK_SCENARIOS[:1]))


@pytest.mark.parametrize("K", [None, 2], ids=["fie", "mhe2"])
def test_a_noise_free_cell_from_the_true_state_is_exact_to_the_bit(K):
    T = 12
    cell, = _check_against_the_loop(_noise_free_from_the_true_state(K, T), K or 4)
    # every cost is 0, so a ratio of 1.0 is the zero-reference rule's, and
    # every margin is exactly 0.0
    assert cell.achieved_cost.tolist() == [0.0] * (T + 1)
    assert cell.certified_ratio.tolist() == [1.0] * (T + 1)
    assert cell.certified.all()
    margins = np.concatenate([cell.margin, cell.window_margin[cell.window_mask]])
    assert [repr(m) for m in margins.tolist()] == ["0.0"] * margins.size
    assert cell.window_mask.sum() == (0 if K is None else T - K)
    # the least margin ties at every step: the first one is the worst
    assert (cell.min_margin, cell.worst["t"]) == (0.0, 0)


@pytest.mark.parametrize("K", [None, 2], ids=["fie", "mhe2"])
def test_a_cost_above_a_zero_reference_is_uncertified(K):
    T, bad = 12, 5

    def overpriced_step(runs):
        runs[bad].cost[0] = 2 * TOL_CERT

    cell, = _check_against_the_loop(_noise_free_from_the_true_state(K, T), K or 4,
                                    overpriced_step)
    # the ratio to a zero reference is inf, written as -1.0
    assert cell.certified_ratio.tolist() == [1.0] * bad + [-1.0] + [1.0] * (T - bad)
    if K is None:
        assert cell.certified.tolist() == [True] * bad + [False] + [True] * (T - bad)
    else:                               # the chain is broken from that step on
        assert cell.certified.tolist() == [True] * bad + [False] * (T + 1 - bad)
        assert cell.window_mask.sum() == bad - K - 1


@dataclasses.dataclass(frozen=True)
class _BadAtAge(KLFn):
    """``base`` with every value at one age replaced by ``bad``."""

    base: KLFn
    age: int
    bad: float

    def __call__(self, r, s):
        out = self.base(r, s)
        return out * 0.0 + self.bad if s == self.age else out


def _mhe_with_a_bad_window_term(bad, monkeypatch, break_chain):
    config = ExperimentConfig(plant="s1", mode="max", estimator="mhe", horizon=2, t_final=8)
    resolved = resolve(config)
    hat = H._cell_hat(resolved, 2)                     # from the unpatched bounds
    bounds = dataclasses.replace(resolved.bounds, c=_BadAtAge(resolved.bounds.c, 2, bad))
    if break_chain:
        real = H.run_mhe

        def failing_first_step(*args):
            runs = real(*args)
            runs[1].cost[:] = 1e300                 # fails its certification
            return runs

        monkeypatch.setattr(H, "run_mhe", failing_first_step)
    scenario = DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1)
    return run_cell(dataclasses.replace(resolved, bounds=bounds), scenario, 0, hat, 2)


@pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "negative"])
def test_a_bad_window_term_at_a_certified_step_is_an_error(bad, monkeypatch):
    with pytest.raises(DomainError, match=f"nonnegative values, got {bad}"):
        _mhe_with_a_bad_window_term(bad, monkeypatch, break_chain=False)


@pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "negative"])
def test_a_bad_window_term_after_the_chain_breaks_is_not_read(bad, monkeypatch):
    cell = _mhe_with_a_bad_window_term(bad, monkeypatch, break_chain=True)
    assert cell.certified_steps == 1                   # t = 0 only
    assert not cell.window_mask.any()


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
        # without a slope table: one array call per age, each element its
        # scalar call bit for bit, and the first bad element in row-major
        # order raises
        scalar = [[nonlinear(x, age) for x, age in zip(row, ages)] for row in finite.tolist()]
        assert gain_terms(nonlinear, ages, finite).tobytes() == np.array(scalar).tobytes()
        bad = finite.copy()
        bad[3, -1], bad[5, 0] = np.nan, -2.0
        with pytest.raises(DomainError, match="KL first argument must be nonnegative, got nan"):
            gain_terms(nonlinear, ages, bad)
        heads = gen.uniform(0.0, 5.0, 12)
        c_terms, d_terms = gain_terms(linear, ages, norms), gen.uniform(0.0, 5.0, (12, K))
        for seqs in ((c_terms, d_terms), (c_terms, d_terms, d_terms[:, ::-1], c_terms)):
            folded = fold_terms(mode, heads, *seqs)
            alone = [fold_terms(mode, h, *row) for h, *row in zip(heads, *seqs)]
            assert np.array_equal(folded, alone, equal_nan=True)
            assert np.isnan(folded[3]) and not np.isnan(np.delete(folded, 3)).any()


def test_cumsum_along_rows_is_the_python_left_fold():
    gen = np.random.default_rng(5)
    for width in (1, 2, 7, 8, 9, 40, 200):
        x = gen.normal(0.0, 1.0, (300, width)) * 10.0 ** gen.uniform(-8, 8, (300, width))
        x[::7] = np.round(x[::7], 1)
        folds = []
        for row in x.tolist():
            total, out = 0.0, []
            for i, v in enumerate(row):
                total = v if i == 0 else total + v
                out.append(total)
            folds.append(out)
        assert np.cumsum(x, axis=1).tolist() == folds
        # v - a - b is v + (-a) + (-b), bit for bit
        v = gen.normal(0.0, 1.0, 300)
        walked = v.tolist()
        for col in x.T.tolist():
            walked = [w - a for w, a in zip(walked, col)]
        cat = np.concatenate([v[:, None], -x], axis=1)
        assert np.cumsum(cat, axis=1)[:, -1].tolist() == walked


def test_stable_sort_keeps_the_first_of_equal_entries_as_a_set_union_does():
    gen = np.random.default_rng(6)
    for _ in range(200):
        xs = sorted(gen.choice([-1.0, -0.0, 0.0, 0.5, 2.0], gen.integers(1, 6)).tolist())
        extra = float(gen.choice([-0.0, 0.0, 0.5, 3.0]))
        srt = np.sort(np.array(xs + [extra]), kind="stable")
        first = np.concatenate([[True], srt[1:] != srt[:-1]])
        union = sorted(set(xs) | {extra})
        assert [repr(v) for v in srt[first].tolist()] == [repr(v) for v in union]


def test_argmin_takes_the_first_least_entry():
    gen = np.random.default_rng(7)
    x = gen.integers(0, 3, (500, 9)).astype(float)
    x[x == 1.0] = np.inf
    assert np.argmin(x, axis=1).tolist() == [row.index(min(row)) for row in x.tolist()]


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
