"""Plant simulation, solution verification, and disturbance scenarios."""

import math
import warnings

import numpy as np
import pytest

from mhestab.comparison import DomainError
from mhestab.systems import (
    DisturbanceScenario,
    DivergenceError,
    SolutionTuple,
    builtin_model,
    generate_scenario,
    row_distances,
    simulate,
    verify_solution,
)
from reference_folds import sin_half_solve_one


def test_simulate_s1_geometric_decay():
    model = builtin_model("s1")
    T = 3
    sol = simulate(model, [1.0], np.zeros((T, 1)), np.zeros((T, 1)), np.zeros((T, 1)), T)
    assert sol.x[:, 0].tolist() == [1.0, 0.5, 0.25]
    assert sol.y[:, 0].tolist() == [1.0, 0.5, 0.25]


def test_simulate_equilibrium():
    model = builtin_model("s1")
    sol = simulate(model, [0.0], np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)), 4)
    assert np.all(sol.x == 0.0) and np.all(sol.y == 0.0)


def test_simulate_s2_doubling():
    model = builtin_model("s2")
    sol = simulate(model, [1.0], np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)), 4)
    assert sol.x[:, 0].tolist() == [1.0, 2.0, 4.0, 8.0]


def test_simulate_divergence_reports_index():
    model = builtin_model("s2")
    w = np.full((2000, 1), 1.0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        simulate(model, [1.0], np.zeros((2000, 1)), w, np.zeros((2000, 1)), 2000)


SCENARIO_KINDS = [
    DisturbanceScenario("zero"),
    DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.2),
    DisturbanceScenario("decay", "decaying_geometric", amplitude=1.0, rate=0.8),
    DisturbanceScenario("impulse", "impulse", time=3, magnitude=1.5),
]


@pytest.mark.parametrize("plant", ["s1", "s2", "s3", "s4"])
def test_a_stacked_simulation_is_each_cell_alone(plant):
    model = builtin_model(plant)
    T = 25
    gen = np.random.Generator(np.random.Philox(key=3))
    cells = [(scenario, seed) for scenario in SCENARIO_KINDS for seed in (0, 1)]
    draws = [generate_scenario(scenario, seed, T, model.process_noise_dim, model.meas_noise_dim)
             for scenario, seed in cells]
    x0 = gen.uniform(-1.0, 1.0, (len(cells), model.state_dim))
    u = gen.uniform(-1.0, 1.0, (T, model.input_dim))
    stack = simulate(model, x0, u, np.stack([w for w, _ in draws]),
                     np.stack([v for _, v in draws]), T)
    assert stack.length == T and stack.x.shape == (len(cells), T, model.state_dim)
    for c, (w, v) in enumerate(draws):
        alone = simulate(model, x0[c], u, w, v, T)
        cell = stack.cell(c)
        for name in ("x", "u", "w", "v", "y"):
            assert getattr(cell, name).tobytes() == getattr(alone, name).tobytes(), (c, name)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_diverging_stack_raises_at_its_first_diverging_cell():
    # s2 doubles its state: an impulse of 1e308 at time k is inf at t = k + 1
    model = builtin_model("s2")
    T = 12
    impulses = [None, 6, 1, None]
    w = np.zeros((len(impulses), T, 1))
    for c, k in enumerate(impulses):
        if k is not None:
            w[c, k, 0] = 1e308
    x0, u, v = np.zeros((len(impulses), 1)), np.zeros((T, 1)), np.zeros((len(impulses), T, 1))
    for c in (1, 2):
        with pytest.raises(DivergenceError) as alone:
            simulate(model, x0[c], u, w[c], v[c], T)
        assert alone.value.t == impulses[c] + 1
    with pytest.raises(DivergenceError) as stacked:
        simulate(model, x0, u, w, v, T)
    assert stacked.value.t == impulses[1] + 1       # cell 1, though cell 2 diverges first
    with pytest.raises(DivergenceError) as swapped:
        simulate(model, x0[::-1], u, w[::-1], v[::-1], T)
    assert swapped.value.t == impulses[2] + 1


def test_a_diverged_cell_is_not_stepped_on():
    # s3 takes the sine of its state: sin(inf) would warn, which the cell
    # alone never computes, since it raises first
    model = builtin_model("s3")
    T = 6
    w = np.zeros((2, T, 1))
    w[1, 2, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as stacked:
            simulate(model, np.zeros((2, 1)), np.zeros((T, 1)), w, np.zeros((2, T, 1)), T)
    assert stacked.value.t == 2


@pytest.mark.parametrize("x0", [[1.0, 2.0], np.zeros((2, 3, 1))], ids=["too-wide", "3-d"])
def test_simulate_rejects_an_initial_state_of_the_wrong_shape(x0):
    model = builtin_model("s1")
    with pytest.raises(DomainError, match="initial state"):
        simulate(model, x0, np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)), 4)


def test_verify_solution_round_trip_all_plants():
    for name in ("s1", "s2", "s3", "s4"):
        model = builtin_model(name)
        gen = np.random.Generator(np.random.Philox(key=1))
        T = 50
        w = gen.uniform(-0.05, 0.05, (T, model.process_noise_dim))
        v = gen.uniform(-0.05, 0.05, (T, model.meas_noise_dim))
        u = gen.uniform(-1.0, 1.0, (T, model.input_dim))
        sol = simulate(model, np.zeros(model.state_dim), u, w, v, T)
        rep = verify_solution(model, sol, tol_dyn=1e-12)
        assert rep.passed, (name, rep.worst_residual)


def test_verify_solution_detects_injected_defect():
    model = builtin_model("s1")
    sol = simulate(model, [1.0], np.zeros((5, 1)), np.zeros((5, 1)), np.zeros((5, 1)), 5)
    x = sol.x.copy()
    x[1, 0] += 1e-3
    bad = SolutionTuple(x, sol.u, sol.w, sol.v, sol.y)
    rep = verify_solution(model, bad, tol_dyn=1e-9)
    assert not rep.passed
    assert rep.worst_residual == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("channel,t", [("y", 0), ("x", 2)])
def test_verify_solution_fails_a_nan_residual_at_its_first_step(channel, t):
    model = builtin_model("s1")
    sol = simulate(model, [1.0], np.zeros((5, 1)), np.zeros((5, 1)), np.zeros((5, 1)), 5)
    parts = {name: getattr(sol, name).copy() for name in ("x", "u", "w", "v", "y")}
    parts[channel][3 if channel == "x" else slice(None)] = np.nan
    rep = verify_solution(model, SolutionTuple(**parts))
    assert not rep.passed
    assert np.isnan(rep.worst_residual) and rep.worst_t == t


def test_verify_empty_is_vacuous():
    model = builtin_model("s1")
    empty = SolutionTuple(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)),
                          np.zeros((0, 1)), np.zeros((0, 1)))
    assert verify_solution(model, empty).passed


def test_scenarios_contracts():
    zero = DisturbanceScenario("zero", "zero")
    w, v = generate_scenario(zero, 0, 5, 1, 1)
    assert np.all(w == 0.0) and np.all(v == 0.0)

    uni = DisturbanceScenario("uni", "bounded_uniform", amplitude=0.1)
    w, v = generate_scenario(uni, 3, 64, 2, 1)
    assert np.all(np.linalg.norm(w, axis=1) <= 0.1 + 1e-15)
    assert np.all(np.abs(v) <= 0.1 + 1e-15)

    dec = DisturbanceScenario("dec", "decaying_geometric", amplitude=1.0, rate=0.5)
    w, v = generate_scenario(dec, 5, 32, 1, 1)
    caps = 1.0 * 0.5 ** np.arange(32)
    assert np.all(np.abs(w[:, 0]) <= caps + 1e-15)
    assert np.all(np.abs(v[:, 0]) <= caps + 1e-15)

    imp = DisturbanceScenario("imp", "impulse", time=4, magnitude=2.0)
    w, v = generate_scenario(imp, 0, 10, 1, 1)
    assert w[4, 0] == 2.0 and np.count_nonzero(w) == 1 and np.all(v == 0.0)


@pytest.mark.parametrize("kw", [
    {"kind": "zer0"}, {"amplitude": -0.1}, {"amplitude": float("nan")}, {"rate": -0.8},
    {"rate": 1.5}, {"rate": float("inf")}, {"magnitude": float("-inf")}, {"time": -2},
    {"time": 1.5}], ids=repr)
def test_scenario_rules_are_checked_when_built(kw):
    with pytest.raises(DomainError, match="scenario s "):
        DisturbanceScenario("s", **{"kind": "decaying_geometric", **kw})


def test_scenario_negative_horizon_is_a_domain_error():
    with pytest.raises(DomainError):
        generate_scenario(DisturbanceScenario("zero"), 0, -1, 1, 1)


def test_scenario_determinism():
    spec = DisturbanceScenario("uni", "bounded_uniform", amplitude=0.3)
    w1, v1 = generate_scenario(spec, 11, 20, 1, 1)
    w2, v2 = generate_scenario(spec, 11, 20, 1, 1)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_simulation_determinism_bit_identical():
    model = builtin_model("s3")
    spec = DisturbanceScenario("uni", "bounded_uniform", amplitude=0.1)
    w, v = generate_scenario(spec, 2, 100, 1, 1)
    u = np.zeros((100, 1))
    a = simulate(model, [0.4], u, w, v, 100)
    b = simulate(model, [0.4], u, w, v, 100)
    assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_long_horizon_round_trip():
    model = builtin_model("s1")
    T = 10_000
    spec = DisturbanceScenario("uni", "bounded_uniform", amplitude=0.1)
    w, v = generate_scenario(spec, 9, T, 1, 1)
    sol = simulate(model, [0.2], np.zeros((T, 1)), w, v, T)
    assert verify_solution(model, sol, tol_dyn=1e-12).passed


def test_metric_properties_spot_checks():
    gen = np.random.Generator(np.random.Philox(key=4))
    for _ in range(50):
        a, b, c = gen.normal(size=(3, 2))
        assert row_distances(a, b) == row_distances(b, a) == np.linalg.norm(a - b)
        assert row_distances(a, a) == 0.0
        assert row_distances(a, c) <= row_distances(a, b) + row_distances(b, c) + 1e-12


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_row_distances_of_a_stack_are_the_norms_of_each_row(dim):
    gen = np.random.Generator(np.random.Philox(key=dim))
    a, b = gen.normal(size=(2, 3, 7, dim))
    got = row_distances(a, b)
    assert got.shape == (3, 7)
    assert got.tolist() == [[np.linalg.norm(p - q) for p, q in zip(*rows)] for rows in zip(a, b)]
    assert row_distances(a, b[0, 0]).tolist() == [[np.linalg.norm(p - b[0, 0]) for p in row]
                                                  for row in a]


def test_sin_interval_image_exact():
    model = builtin_model("s3")
    gen = np.random.Generator(np.random.Philox(key=8))
    for _ in range(200):
        lo = gen.uniform(-12, 12)
        hi = lo + gen.uniform(0, 10)
        il, ih = model.f_image(lo, hi, np.zeros(1))
        xs = np.linspace(lo, hi, 2001)
        vals = 0.5 * np.sin(xs)
        assert il <= vals.min() + 1e-12
        assert ih >= vals.max() - 1e-12
        # tightness: endpoints of the image are attained up to sampling error
        assert il >= vals.min() - 2e-5
        assert ih <= vals.max() + 2e-5


def test_sin_solve_finds_root():
    model = builtin_model("s3")
    gen = np.random.Generator(np.random.Philox(key=12))
    for _ in range(200):
        lo = gen.uniform(-12, 12)
        hi = lo + gen.uniform(0.1, 10)
        il, ih = model.f_image(lo, hi, np.zeros(1))
        c = gen.uniform(il, ih)
        x = model.f_solve(c, lo, hi, np.zeros(1))
        assert lo - 1e-9 <= x <= hi + 1e-9
        assert 0.5 * np.sin(x) == pytest.approx(c, abs=1e-9)


def _edge_triples():
    """(c, lo, hi) triples on the edges of the s3 solve: lo == hi, an
    unreachable |2c| > 1, both branches in reach (the first wins a tie),
    neither in reach (lo wins a tie), and signed zeros."""
    rng = np.random.default_rng(5)
    c = rng.uniform(-0.5, 0.5, 2000)
    both = [(x, -math.pi, 3 * math.pi) for x in c.tolist()]
    flat = [(x, lo, lo) for x, lo in zip(c.tolist(), rng.uniform(-9, 9, 2000).tolist())]
    return both + flat + [
        (0.7, -1.0, 2.0), (-0.7, -1.0, 2.0), (0.5, 0.0, 7.0), (-0.5, -7.0, 0.0),
        (0.3, 0.0, 0.1), (-0.3, 2.0, 2.5), (0.0, -0.0, 0.0), (-0.0, -0.0, 0.0),
        (-0.0, -1.0, 1.0), (0.0, 0.0, 0.0), (0.3, -0.0, 0.0),
        (0.25, 0.5235987755982988, 0.5235987755982988),
    ]


def test_sin_solve_is_the_one_element_solve_bit_for_bit():
    rng = np.random.default_rng(11)
    lo = rng.uniform(-20, 20, 20000)
    hi = lo + rng.uniform(0, 10, 20000)
    triples = list(zip(rng.uniform(-0.6, 0.6, 20000).tolist(), lo.tolist(), hi.tolist()))
    triples += _edge_triples()
    c, lo, hi = (np.array(col) for col in zip(*triples))
    got = builtin_model("s3").f_solve(c, lo, hi, np.zeros(1))
    want = np.array([sin_half_solve_one(*t) for t in triples])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    # the ties of the first edge set are common: the first branch takes them
    base = np.array([math.asin(2.0 * x) for x in c[20000:22000].tolist()])
    errs = [np.abs(0.5 * np.sin(b) - c[20000:22000]) for b in (base, math.pi - base)]
    assert (errs[0] == errs[1]).sum() > 100
