"""Window solves, the growing- and moving-horizon drivers, and certification."""

import math

import numpy as np
import pytest

import mhestab as M
import mhestab.estimator as E
from mhestab.comparison import (
    DomainError,
    N_ONE,
    N_TWO,
    PlusMode,
    SeparableGeometric,
)
from mhestab.certificates import (
    builtin_certificate,
    check_compatibility,
    default_cost_from_certificate,
)
from mhestab.estimator import (
    EstimationProblem,
    HorizonCapError,
    InfeasibleWindowError,
    SolverConfig,
    certify_suboptimality,
    run_fie,
    run_mhe,
    solve_window,
)
from mhestab.systems import builtin_model, simulate, verify_solution


def _cost(plant, mode):
    cert = builtin_certificate(plant, mode)
    n = N_TWO if mode is PlusMode.MAX else N_ONE
    return default_cost_from_certificate(cert, n)


def _max_cost_shared():
    # beta_hat = 2 * 0.5^s r from the shared-gain fixture
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    return default_cost_from_certificate(cert, N_TWO)


# ---------------------------------------------------------------------------
# Window cost
# ---------------------------------------------------------------------------

def one_window_cost(cost, prior, chi0, omega, nu):
    """The cost of one window: a one-row ``_window_costs`` call."""
    return float(E._window_costs(cost, np.array([prior], dtype=float),
                                 np.array([chi0], dtype=float), omega[None], nu[None])[0])


def test_eval_cost_examples():
    cost = _max_cost_shared()
    K = 2
    zero = np.zeros((K, 1))
    # chi0 = prior, no disturbances
    assert one_window_cost(cost, [1.0], [1.0], zero, zero) == 0.0
    # prior mismatch 1 discounted by K = 2: beta_hat = 2 * 0.25 * 1
    assert one_window_cost(cost, [0.0], [1.0], zero, zero) == pytest.approx(0.5)

    sum_cost = M.CostSpec(PlusMode.SUM, SeparableGeometric(1.0, 1.0, 0.5),
                          SeparableGeometric(1.0, 1.0, 0.5),
                          SeparableGeometric(1.0, 1.0, 0.5))
    omega = np.array([[1.0], [1.0]])   # ages 2 and 1
    val = one_window_cost(sum_cost, [0.0], [0.0], omega, zero)
    assert val == pytest.approx(0.25 + 0.5)


def test_eval_cost_length_mismatch():
    # a reference window, the one a cost is certified on, cannot pair
    # disturbance and noise sequences of unequal length
    K2, K3 = np.zeros((2, 1)), np.zeros((3, 1))
    with pytest.raises(DomainError):
        M.SolutionTuple(K2, K2, K2, K3, K2)


def test_eval_cost_zero_lower_bound():
    cost = _cost("s1", PlusMode.SUM)
    gen = np.random.Generator(np.random.Philox(key=1))
    for _ in range(50):
        omega = gen.uniform(-1, 1, (3, 1))
        nu = gen.uniform(-1, 1, (3, 1))
        chi0 = gen.uniform(-1, 1, 1)
        val = one_window_cost(cost, [0.2], chi0, omega, nu)
        assert val >= 0.0
        zero = val == 0.0
        expect_zero = (chi0[0] == 0.2) and not omega.any() and not nu.any()
        assert zero == expect_zero


# ---------------------------------------------------------------------------
# solve_window: structured engines against oracles
# ---------------------------------------------------------------------------

def _scan_oracle(model, cost, prior, y0, grid):
    best = math.inf
    for chi0 in grid:
        val = one_window_cost(cost, prior, [chi0], np.zeros((1, 1)), np.array([[y0 - chi0]]))
        best = min(best, val)
    return best


@pytest.mark.parametrize("mode", [PlusMode.MAX, PlusMode.SUM])
def test_k1_window_matches_grid_scan(mode):
    model = builtin_model("s1")
    cost = _cost("s1", mode)
    problem = EstimationProblem(model, cost, np.array([0.0]), np.zeros((1, 1)),
                                np.array([[1.0]]), 1)
    result = solve_window(problem, SolverConfig())
    oracle = _scan_oracle(model, cost, [0.0], 1.0, np.arange(-2.0, 2.0 + 1e-12, 1e-4))
    assert abs(result.cost - oracle) <= 1e-3
    assert result.cost <= oracle + 1e-9      # solver at least as good as the scan


def test_zero_noise_exact_recovery():
    for plant in ("s1", "s2", "s3"):
        model = builtin_model(plant)
        for mode in (PlusMode.MAX, PlusMode.SUM):
            cost = _cost(plant, mode)
            T = 6
            u = np.zeros((T, 1))
            sol = simulate(model, [0.7], u, np.zeros((T, 1)), np.zeros((T, 1)), T)
            problem = EstimationProblem(model, cost, np.array([0.7]), u, sol.y, T)
            result = solve_window(problem, SolverConfig())
            assert result.cost == pytest.approx(0.0, abs=1e-12)
            truth_end = model.f(sol.x[-1], u[-1], np.zeros(1))
            assert result.published[0] == pytest.approx(truth_end[0], abs=1e-9)


def test_s1_noise_free_v_recovers_disturbances():
    # v = 0 data with an output-dominant cost: the optimum zeroes the
    # measurement residuals, so the transitions pin every in-window w exactly
    # (the last w feeds only the endpoint and stays 0).  With the default
    # discounted cost the optimizer may instead trade one cheap old output
    # residual against an expensive old disturbance; both are certified.
    model = builtin_model("s1")
    heavy = SeparableGeometric(100.0, 1.0, 0.9)
    cost = M.CostSpec(PlusMode.SUM, SeparableGeometric(1.0, 1.0, 0.5),
                      SeparableGeometric(2.0, 1.0, 0.5), heavy)
    gen = np.random.Generator(np.random.Philox(key=3))
    T = 5
    w = gen.uniform(-0.2, 0.2, (T, 1))
    u = np.zeros((T, 1))
    sol = simulate(model, [0.5], u, w, np.zeros((T, 1)), T)
    problem = EstimationProblem(model, cost, np.array([0.5]), u, sol.y, T)
    result = solve_window(problem, SolverConfig())
    assert np.allclose(result.what[:-1], w[:-1], atol=1e-7)
    # the window reproduces the measured outputs through its own noise
    assert np.allclose(result.as_solution(model, u).y, sol.y, rtol=0.0, atol=1e-9)


def test_results_satisfy_window_dynamics():
    gen = np.random.Generator(np.random.Philox(key=9))
    for plant in ("s1", "s2", "s3"):
        model = builtin_model(plant)
        for mode in (PlusMode.MAX, PlusMode.SUM):
            cost = _cost(plant, mode)
            K = 5
            w = gen.uniform(-0.1, 0.1, (K, 1))
            v = gen.uniform(-0.1, 0.1, (K, 1))
            u = np.zeros((K, 1))
            sol = simulate(model, [0.2], u, w, v, K)
            problem = EstimationProblem(model, cost, np.array([0.1]), u, sol.y, K)
            result = solve_window(problem, SolverConfig())
            est_sol = result.as_solution(model, u)
            rep = verify_solution(model, est_sol, tol_dyn=1e-9)
            assert rep.passed, (plant, mode, rep.worst_residual)
            assert np.allclose(est_sol.y, sol.y, atol=1e-12)


def test_structured_vs_generic_engines_agree():
    gen = np.random.Generator(np.random.Philox(key=4))
    model = builtin_model("s1")
    for mode in (PlusMode.MAX, PlusMode.SUM):
        cost = _cost("s1", mode)
        K = 4
        w = gen.uniform(-0.1, 0.1, (K, 1))
        v = gen.uniform(-0.1, 0.1, (K, 1))
        u = np.zeros((K, 1))
        sol = simulate(model, [0.3], u, w, v, K)
        problem = EstimationProblem(model, cost, np.array([0.6]), u, sol.y, K)
        exact = solve_window(problem, SolverConfig())
        rows = E._Rows.of([problem])
        compass = E._solve_multistart_local(rows, SolverConfig(
            method="multistart_local", multistart=6, max_iter=400)).cell(0)
        gnp = E._solve_gauss_newton(rows, SolverConfig(
            method="gauss_newton_penalty", multistart=4, max_iter=40)).cell(0)
        # the level engine is exact up to its bisection resolution
        assert exact.cost <= compass.cost * (1 + 1e-4) + 1e-12
        assert exact.cost <= gnp.cost * (1 + 1e-4) + 1e-12
        assert compass.cost <= exact.cost * 1.05 + 1e-9


def test_multistart_monotone_refinement():
    model = builtin_model("s4")
    cost = _cost("s4", PlusMode.SUM)
    gen = np.random.Generator(np.random.Philox(key=6))
    K = 3
    w = gen.uniform(-0.05, 0.05, (K, 2))
    v = gen.uniform(-0.05, 0.05, (K, 1))
    u = np.zeros((K, 1))
    sol = simulate(model, [0.2, -0.1], u, w, v, K)
    problem = EstimationProblem(model, cost, np.array([0.4, 0.0]), u, sol.y, K)
    prev = math.inf
    for count in (1, 2, 4, 6):
        res = solve_window(problem, SolverConfig(method="multistart_local",
                                                 multistart=count, max_iter=150, seed=0))
        assert res.cost <= prev + 1e-12
        prev = res.cost


def test_s4_window_certifiable():
    model = builtin_model("s4")
    gen = np.random.Generator(np.random.Philox(key=11))
    cost = _cost("s4", PlusMode.SUM)
    K = 4
    w = gen.uniform(-0.05, 0.05, (K, 2))
    v = gen.uniform(-0.05, 0.05, (K, 1))
    u = gen.uniform(-0.5, 0.5, (K, 1))
    sol = simulate(model, [0.3, -0.2], u, w, v, K)
    problem = EstimationProblem(model, cost, np.array([0.3, -0.2]), u, sol.y, K)
    res = solve_window(problem, SolverConfig(method="multistart_local",
                                             multistart=4, max_iter=250))
    record = certify_suboptimality(res, sol, cost, 1.5, model=model)
    assert record.passed, record.ratio


@pytest.mark.parametrize("plant", ["s1", "s2", "s3"])
def test_max_window_without_a_finite_cost_candidate_is_infeasible(plant):
    # outputs of 1e308 overflow every candidate's cost to inf, so the
    # bisection has no upper bracket
    model = builtin_model(plant)
    problem = EstimationProblem(model, _cost(plant, PlusMode.MAX), [0.5], np.zeros((3, 1)),
                                np.full((3, 1), 1e308), 3)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InfeasibleWindowError, match="no finite-cost candidate trajectory"):
        solve_window(problem, SolverConfig())


@pytest.mark.parametrize("plant, mode, prior, u, y", [
    ("s1", PlusMode.SUM, [0.5, 0.5], np.zeros((3, 1)), np.zeros((3, 1))),
    ("s1", PlusMode.MAX, [0.5, 0.5], np.zeros((3, 1)), np.zeros((3, 1))),
    ("s4", PlusMode.SUM, [0.5, 0.5, 0.5], np.zeros((3, 1)), np.zeros((3, 1))),
    ("s4", PlusMode.MAX, [0.5], np.zeros((3, 1)), np.zeros((3, 1))),
    ("s1", PlusMode.MAX, [0.5], np.zeros((3, 2)), np.zeros((3, 1))),
    ("s1", PlusMode.MAX, [0.5], np.zeros((3, 1)), np.zeros((3, 2))),
    ("s4", PlusMode.SUM, [0.5, 0.5], np.zeros((3, 1)), np.zeros((3, 2))),
], ids=["s1-sum-prior", "s1-max-prior", "s4-sum-prior", "s4-max-prior", "s1-inputs",
        "s1-outputs", "s4-outputs"])
def test_window_of_the_wrong_width_is_a_domain_error(plant, mode, prior, u, y):
    with pytest.raises(DomainError, match="do not fit plant"):
        EstimationProblem(builtin_model(plant), _cost(plant, mode), prior, u, y, 3)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def test_only_finite_costs_certify():
    inf, nan = math.inf, math.nan
    j_res = np.array([1.0, inf, inf, 1.0, nan, 0.0])
    j_ref = np.array([1.0, inf, 1.0, inf, 1.0, 0.0])
    record = E.certification_record(j_res, j_ref, 2.0)
    assert record.passed.tolist() == [True, False, False, False, False, True]


def test_run_fie_zero_disturbance_tracking():
    model = builtin_model("s1")
    cost = _cost("s1", PlusMode.MAX)
    T = 10
    u = np.zeros((T + 1, 1))
    sol = simulate(model, [0.8], u, np.zeros((T + 1, 1)), np.zeros((T + 1, 1)), T + 1)
    results = [step.cell(0) for step in run_fie(model, cost, [0.8], u[:T], sol.y[None, :T],
                                                SolverConfig())]
    assert len(results) == T + 1
    assert results[0].published[0] == 0.8
    for t in range(T + 1):
        assert results[t].published[0] == pytest.approx(sol.x[t, 0], abs=1e-10)
        assert results[t].cost <= 1e-12


def test_run_fie_prior_offset_decay_bound():
    from mhestab.certificates import bound_trace, derive_bcd
    model = builtin_model("s1")
    cert = builtin_certificate("s1", PlusMode.MAX)
    cost = default_cost_from_certificate(cert, N_TWO)
    witness = check_compatibility(cert, cost, N_TWO)
    bounds = derive_bcd(cert, cost, witness, 1.0)
    T = 12
    u = np.zeros((T + 1, 1))
    sol = simulate(model, [0.5], u, np.zeros((T + 1, 1)), np.zeros((T + 1, 1)), T + 1)
    results = run_fie(model, cost, [1.5], u[:T], sol.y[None, :T], SolverConfig())
    d0 = abs(sol.x[0, 0] - 1.5)
    rhs = bound_trace(bounds.mode, bounds.b, d0, (bounds.c, np.abs(sol.w[:T, 0])),
                      (bounds.d, np.abs(sol.v[:T, 0])))
    for t in range(T + 1):
        err = abs(sol.x[t, 0] - results[t].cell(0).published[0])
        assert err <= rhs[t] + 1e-9


def test_run_fie_horizon_cap():
    model = builtin_model("s1")
    cost = _cost("s1", PlusMode.MAX)
    y = np.zeros((1, 300, 1))
    with pytest.raises(HorizonCapError):
        run_fie(model, cost, [0.0], np.zeros((300, 1)), y, SolverConfig(), t_max=200)


def test_run_mhe_equals_fie_for_long_horizon():
    model = builtin_model("s1")
    cost = _cost("s1", PlusMode.MAX)
    gen = np.random.Generator(np.random.Philox(key=13))
    T = 6
    w = gen.uniform(-0.1, 0.1, (T, 1))
    v = gen.uniform(-0.1, 0.1, (T, 1))
    u = np.zeros((T, 1))
    sol = simulate(model, [0.4], u, w, v, T)
    fie = run_fie(model, cost, [0.9], u, sol.y[None], SolverConfig())
    mhe = run_mhe(model, cost, [0.9], u, sol.y[None], T + 2, SolverConfig())
    for a, b in zip(fie, mhe):
        assert a.cell(0).published[0] == b.cell(0).published[0]


def test_run_mhe_uses_filtering_prior():
    model = builtin_model("s1")
    cost = _cost("s1", PlusMode.MAX)
    gen = np.random.Generator(np.random.Philox(key=14))
    T, K = 8, 2
    w = gen.uniform(-0.05, 0.05, (T, 1))
    v = gen.uniform(-0.05, 0.05, (T, 1))
    u = np.zeros((T, 1))
    sol = simulate(model, [0.4], u, w, v, T)
    results = run_mhe(model, cost, [0.9], u, sol.y[None], K, SolverConfig())
    for t in range(K + 1, T + 1):
        assert results[t].cell(0).prior[0] == results[t - K].cell(0).published[0]
        assert results[t].horizon == K


def _two_cells(T=4):
    model, cost = builtin_model("s1"), _cost("s1", PlusMode.MAX)
    return model, cost, np.zeros((T, 1)), np.linspace(-0.2, 0.2, 2 * T).reshape(2, T)


@pytest.mark.parametrize("horizon", [None, 2], ids=["fie", "mhe"])
@pytest.mark.parametrize("prior, u", [
    ([1.0, 2.0], np.zeros((4, 1))),
    (np.zeros((3, 1)), np.zeros((4, 1))),
    (np.zeros((2, 2)), np.zeros((4, 1))),
    ([0.5], np.zeros((4, 2))),
    ([0.5], np.zeros((3, 1))),
    ([0.5], np.zeros((4, 1, 1))),
], ids=["flat-prior-per-cell", "prior-3x1", "prior-too-wide", "inputs-too-wide",
        "inputs-too-short", "inputs-3d"])
def test_driver_inputs_of_the_wrong_shape_are_domain_errors(horizon, prior, u):
    # two cells of the one-state plant: priors must be (1,) or (2, 1), and
    # the inputs must cover the 4 steps of one input
    model, cost, _, y = _two_cells()
    with pytest.raises(DomainError):
        if horizon is None:
            run_fie(model, cost, prior, u, y, SolverConfig())
        else:
            run_mhe(model, cost, prior, u, y, horizon, SolverConfig())


@pytest.mark.parametrize("horizon", [2.5, 0])
def test_a_moving_horizon_that_is_not_a_positive_integer_is_a_domain_error(horizon):
    model, cost = builtin_model("s1"), _cost("s1", PlusMode.MAX)
    with pytest.raises(DomainError, match="moving horizon must be"):
        run_mhe(model, cost, [0.5], np.zeros((6, 1)), np.zeros((1, 6)), horizon, SolverConfig())


@pytest.mark.parametrize("horizon", [None, 2], ids=["fie", "mhe"])
def test_a_stack_of_no_cell_is_a_domain_error(horizon):
    # a run of no cell would pass every check vacuously
    model, cost, u, _ = _two_cells()
    with pytest.raises(DomainError, match="with C >= 1 cells"):
        if horizon is None:
            run_fie(model, cost, [0.5], u, np.zeros((0, 4)), SolverConfig())
        else:
            run_mhe(model, cost, [0.5], u, np.zeros((0, 4)), horizon, SolverConfig())


def test_driver_takes_a_0d_prior_and_flat_inputs_on_a_one_state_plant():
    model, cost, u, y = _two_cells()
    shared = run_fie(model, cost, [0.5], u, y, SolverConfig())
    for prior in (0.5, np.full((2, 1), 0.5)):
        runs = run_fie(model, cost, prior, u[:, 0], y, SolverConfig())
        assert [step.published.tolist() for step in runs] == \
            [step.published.tolist() for step in shared]


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def test_certify_examples():
    model = builtin_model("s1")
    cost = _cost("s1", PlusMode.MAX)
    T = 4
    gen = np.random.Generator(np.random.Philox(key=15))
    w = gen.uniform(-0.1, 0.1, (T, 1))
    v = gen.uniform(-0.1, 0.1, (T, 1))
    u = np.zeros((T, 1))
    sol = simulate(model, [0.5], u, w, v, T)
    problem = EstimationProblem(model, cost, np.array([0.7]), u, sol.y, T)
    result = solve_window(problem, SolverConfig())
    record = certify_suboptimality(result, sol, cost, 1.05, model=model)
    assert record.passed and record.ratio <= 1.05

    # result with cost equal to the reference passes with ratio 1
    j_ref = one_window_cost(cost, result.prior, sol.x[0], sol.w, sol.v)
    result.cost = j_ref
    assert certify_suboptimality(result, sol, cost, 1.05).ratio == pytest.approx(1.0)

    # deliberately inflated cost fails at A = 1.2
    result.cost = 1.5 * j_ref
    assert not certify_suboptimality(result, sol, cost, 1.2).passed


def test_certify_rejects_infeasible_reference():
    model = builtin_model("s1")
    cost = _cost("s1", PlusMode.MAX)
    T = 3
    u = np.zeros((T, 1))
    sol = simulate(model, [0.5], u, np.zeros((T, 1)), np.zeros((T, 1)), T)
    problem = EstimationProblem(model, cost, np.array([0.5]), u, sol.y, T)
    result = solve_window(problem, SolverConfig())
    x_bad = sol.x.copy()
    x_bad[1, 0] += 0.5
    bad = M.SolutionTuple(x_bad, sol.u, sol.w, sol.v, sol.y)
    with pytest.raises(DomainError):
        certify_suboptimality(result, bad, cost, 1.05, model=model)
    with pytest.raises(DomainError, match="at least one step"):
        certify_suboptimality(result, sol.window(0, 0), cost, 1.05)


@pytest.mark.parametrize("plant,mode,estimator,T", [("s1", "max", "mhe", 20),
                                                     ("s4", "max", "fie", 6)])
def test_single_window_certification_is_what_a_run_records(plant, mode, estimator, T):
    # the run prices its reference windows as stacked rows; one window alone,
    # through certify_suboptimality, must give each step's recorded ratio
    from mhestab import harness as H
    config = M.ExperimentConfig(plant=plant, mode=mode, estimator=estimator, horizon=4,
                                t_final=T, seeds=(0,),
                                scenarios=[M.DisturbanceScenario("uniform", "bounded_uniform",
                                                                 amplitude=0.1)])
    resolved = H.resolve(config)
    cells = [(config.scenarios[0], 0)]
    truths = H._truths(config, resolved.model, cells)
    runs = H._estimate(resolved, truths.u[:T], truths.y[:, :T], 4)
    cell = H._check_group(resolved, cells, H._cell_hat(resolved, 4), 4, truths, runs)[0]
    assert cell.certified[1:].any()
    for t in range(1, T + 1):
        res = runs[t].cell(0)
        record = certify_suboptimality(res, truths.cell(0).window(t - res.horizon, t),
                                       resolved.cost, config.a_factor)
        assert (record.ratio if math.isfinite(record.ratio) else -1.0) == \
            cell.certified_ratio[t], t
