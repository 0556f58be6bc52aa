"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run pytest with -s to see them inline).  The
heavy sweeps (criteria 1 and 3) parallelize over the available cores; all
cells remain deterministic in (scenario, seed).
"""

import math
import os

import numpy as np

import mhestab as M
from mhestab.comparison import (
    LinearK,
    N_ONE,
    N_TWO,
    PlusMode,
    PowerK,
    check_triangle,
    log_grid,
    triangle_constant,
)
from mhestab.certificates import (
    builtin_certificate,
    check_compatibility,
    default_cost_from_certificate,
    derive_bcd,
)
from mhestab.estimator import EstimationProblem, SolverConfig, _window_costs, solve_window
from mhestab.harness import (
    ExperimentConfig,
    contraction_for,
    resolve,
    run_cell,
    run_cells,
    run_experiment,
)
from mhestab.stability import (
    build_bar_bounds,
    build_hat_bounds,
    check_sum_to_max_lemma,
    equality_threshold,
    find_contraction_max,
    find_contraction_sum,
)
from mhestab.systems import DisturbanceScenario, builtin_model

MARGIN_TOL = 1e-9
A_FACTOR = 1.05
SEEDS = tuple(range(50))
JOBS = min(2, os.cpu_count() or 1)

SCENARIOS = [
    DisturbanceScenario("zero", "zero"),
    DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1),
    DisturbanceScenario("decay", "decaying_geometric", amplitude=1.0, rate=0.8),
    DisturbanceScenario("impulse", "impulse", time=5, magnitude=1.0),
]


def _report(criterion: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


# ---------------------------------------------------------------------------
# Criterion 1: growing-window estimator error bound
# ---------------------------------------------------------------------------

def test_criterion_1_fie_bound():
    worst = math.inf
    certified = total = 0
    for plant in ("s1", "s2", "s3"):
        config = ExperimentConfig(name="acc1", plant=plant, mode="max", estimator="fie",
                                  a_factor=A_FACTOR, t_final=60, seeds=SEEDS,
                                  scenarios=SCENARIOS, jobs=JOBS)
        cells = run_cells(resolve(config), (config.horizon,))
        for cell in cells:
            certified += cell.certified_steps
            total += cell.total_steps
            if cell.certified_steps:
                worst = min(worst, cell.min_margin)
    passed = worst >= -MARGIN_TOL and certified >= 0.97 * total
    _report("1 (FIE bound, S1-S3, 4 scenarios x 50 seeds, T=60)", passed,
            f"min certified margin {worst:.3e}, certified {certified}/{total} steps")


# ---------------------------------------------------------------------------
# Criterion 2: window solve against brute-force scan
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    model = builtin_model("s1")
    grid = np.arange(-2.0, 2.0 + 1e-12, 1e-4)
    worst = 0.0
    gen = np.random.Generator(np.random.Philox(key=21))
    for mode in (PlusMode.MAX, PlusMode.SUM):
        cert = builtin_certificate("s1", mode)
        n = triangle_constant(cert.beta, mode)
        cost = default_cost_from_certificate(cert, n)
        cases = [(0.0, 1.0)] + [(gen.uniform(-1, 1), gen.uniform(-1.5, 1.5))
                                for _ in range(8)]
        for prior, y0 in cases:
            problem = EstimationProblem(model, cost, np.array([prior]),
                                        np.zeros((1, 1)), np.array([[y0]]), 1)
            result = solve_window(problem, SolverConfig())
            # eval_cost of every grid point, one row each
            scan = min(_window_costs(cost, np.full((len(grid), 1), prior), grid[:, None],
                                     np.zeros((len(grid), 1, 1)), (y0 - grid)[:, None, None]))
            worst = max(worst, abs(result.cost - scan))
    _report("2 (K=1 oracle equivalence, both modes)", worst <= 1e-3,
            f"max |solver - scan| = {worst:.3e}")


# ---------------------------------------------------------------------------
# Criterion 3: moving-horizon error bound
# ---------------------------------------------------------------------------

def test_criterion_3_mhe_bound():
    worst = math.inf
    certified = total = 0
    for mode in ("max", "sum"):
        config = ExperimentConfig(name="acc3", plant="s1", mode=mode, estimator="mhe",
                                  a_factor=A_FACTOR, t_final=60, seeds=SEEDS,
                                  scenarios=SCENARIOS, jobs=JOBS)
        cells = run_cells(resolve(config), (2, 4, 8))
        for cell in cells:
            certified += cell.certified_steps
            total += cell.total_steps
            if cell.certified_steps:
                worst = min(worst, cell.min_margin)
    passed = worst >= -MARGIN_TOL and certified >= 0.97 * total
    _report("3 (MHE bound, S1, K in {2,4,8}, both modes)", passed,
            f"min certified margin {worst:.3e}, certified {certified}/{total} steps")


# ---------------------------------------------------------------------------
# Criterion 4: contraction thresholds by hand algebra
# ---------------------------------------------------------------------------

def test_criterion_4_contraction_thresholds():
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    cost = default_cost_from_certificate(cert, N_TWO)
    witness = check_compatibility(cert, cost, N_TWO)
    bounds = derive_bcd(cert, cost, witness, 1.0)
    ok = not find_contraction_max(bounds, cert.alpha, 1).passed
    details = ["K=1 fails" if ok else "K=1 unexpectedly passed"]
    for K in range(2, 9):
        analysis = find_contraction_max(bounds, cert.alpha, K)
        exact = analysis.passed and analysis.is_linear \
            and analysis.linear_rate == 2.0 ** (1 - K)
        ok = ok and exact
    details.append("kappa_K = 2^(1-K) r exactly, Linear class, for K = 2..8")
    _report("4 (contraction thresholds)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 5: hat-bound formula fidelity against an independent evaluator
# ---------------------------------------------------------------------------

def _iter_lin(eta, n, x):
    for _ in range(n):
        x = eta * x
    return x


def test_criterion_5_hat_formula_fidelity():
    gen = np.random.Generator(np.random.Philox(key=55))
    worst = 0.0

    # max formulation on the shared-gain fixture
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    cost = default_cost_from_certificate(cert, N_TWO)
    bounds = derive_bcd(cert, cost, check_compatibility(cert, cost, N_TWO), 1.0)
    for K in (2, 3, 5):
        analysis = find_contraction_max(bounds, cert.alpha, K)
        hat = build_hat_bounds(analysis, bounds)
        eta = analysis.linear_rate
        for _ in range(334):
            r = 10.0 ** gen.uniform(-6, 3)
            t = int(gen.integers(0, 60))
            n, m = t // K, t % K
            for theta, theta_hat in ((bounds.b, hat.b_hat), (bounds.c, hat.c_hat),
                                     (bounds.d, hat.d_hat)):
                direct = max(_iter_lin(eta, n, theta(r, m)),
                             _iter_lin(eta, n + 1, theta(r, 0)))
                got = theta_hat(r, t)
                worst = max(worst, abs(got - direct) / max(direct, 1e-300))

    # sum formulation
    cert_s = builtin_certificate("s1", PlusMode.SUM)
    cost_s = default_cost_from_certificate(cert_s, N_ONE)
    bounds_s = derive_bcd(cert_s, cost_s, check_compatibility(cert_s, cost_s, N_ONE), 1.0)
    for K in (2, 4):
        analysis = find_contraction_sum(bounds_s, cert_s.alpha, K)
        hat = build_hat_bounds(analysis, bounds_s)
        kap, zeta = analysis.kappa, analysis.zeta
        for _ in range(500):
            r = 10.0 ** gen.uniform(-6, 3)
            t = int(gen.integers(0, 60))
            n, m = t // K, t % K
            direct_b = max(_iter_lin(kap.c, n, 2 * bounds_s.b(r, m)),
                           _iter_lin(kap.c, n + 1, 2 * bounds_s.b(r, 0)))
            worst = max(worst, abs(hat.b_hat(r, t) - direct_b) / max(direct_b, 1e-300))
            csum = sum(bounds_s.c(r, tau) for tau in range(1, K + 1))
            direct_c = _iter_lin(kap.c, n, zeta.c * 2 * csum)
            worst = max(worst, abs(hat.c_hat(r, t) - direct_c) / max(direct_c, 1e-300))
            dsum = sum(bounds_s.d(r, tau) for tau in range(1, K + 1))
            direct_d = _iter_lin(kap.c, n, zeta.c * 2 * dsum)
            worst = max(worst, abs(hat.d_hat(r, t) - direct_d) / max(direct_d, 1e-300))
    _report("5 (hat-bound formula fidelity, 1000+ probes)", worst <= 1e-12,
            f"max relative deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# Criterion 6: improving gains along the horizon sweep
# ---------------------------------------------------------------------------

def test_criterion_6_improving_gains():
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    cost = default_cost_from_certificate(cert, N_TWO)
    bounds = derive_bcd(cert, cost, check_compatibility(cert, cost, N_TWO), 1.0)
    ks = range(2, 11)
    family = {K: build_hat_bounds(find_contraction_max(bounds, cert.alpha, K), bounds,
                                  check_grid=False)
              for K in ks}
    bars = build_bar_bounds(family, 2, 10, bounds)
    r_grid = log_grid(1e-4, 1e2, 4)
    violations = 0
    for r in r_grid:
        for t in range(0, 9):
            prev = None
            for K in ks:
                cur = bars.b_bar(K, float(r), t)
                if prev is not None and cur > prev * (1 + 1e-12):
                    violations += 1
                prev = cur
    equal_ok = True
    for r in r_grid:
        for t in range(0, 4):
            thr = equality_threshold(family, bounds, float(r), t)
            assert thr is not None
            for K in range(thr, 11):
                if not math.isclose(bars.b_bar(K, float(r), t), bounds.b(float(r), t),
                                    rel_tol=1e-12):
                    equal_ok = False
    _report("6 (bar bounds: monotone in K, equality past threshold)",
            violations == 0 and equal_ok,
            f"{violations} monotonicity violations; equality holds from the "
            f"computed threshold for all t <= 3")


# ---------------------------------------------------------------------------
# Criterion 7: sum-to-max conversion lemma
# ---------------------------------------------------------------------------

def test_criterion_7_sum_to_max_lemma():
    cert = builtin_certificate("s1", PlusMode.SUM)
    cost = default_cost_from_certificate(cert, N_ONE)
    bounds = derive_bcd(cert, cost, check_compatibility(cert, cost, N_ONE), A_FACTOR)
    analysis = find_contraction_sum(bounds, cert.alpha, 2)
    report = check_sum_to_max_lemma(analysis.kappa, analysis.rho, analysis.zeta,
                                    n_samples=100_000, n_sequences=1000, seed=7,
                                    tol=1e-12)
    _report("7 (sum-to-max lemma, 1e5 samples + 1e3 sequences)", report.passed,
            f"worst margin {report.worst_margin:.3e} over {report.samples} checks")


# ---------------------------------------------------------------------------
# Criterion 8: convergence under decaying disturbances
# ---------------------------------------------------------------------------

def test_criterion_8_convergence_under_decay():
    T = 120
    decay = [DisturbanceScenario("decay", "decaying_geometric", amplitude=1.0, rate=0.8)]
    ok = True
    details = []
    for estimator, horizon in (("fie", 4), ("mhe", 4)):
        config = ExperimentConfig(name="acc8", plant="s1", mode="max",
                                  estimator=estimator, horizon=horizon,
                                  a_factor=A_FACTOR, t_final=T, seeds=tuple(range(5)),
                                  scenarios=decay)
        resolved = resolve(config)
        hat = None
        if estimator == "mhe":
            hat = build_hat_bounds(contraction_for(resolved, horizon), resolved.bounds)
        q = 3 * T // 4
        worst_ratio = 0.0
        for seed in config.seeds:
            cell = run_cell(resolved, decay[0], seed, hat)
            assert cell.certified_steps == cell.total_steps
            errors, rhs = cell.error, cell.rhs
            if errors[q:].max() > rhs[q] + MARGIN_TOL:
                ok = False
            worst_ratio = max(worst_ratio, rhs[T] / rhs[0])
        if worst_ratio > 1e-2:
            ok = False
        details.append(f"{estimator}: final/initial bound <= {worst_ratio:.2e}")
    _report("8 (decaying disturbances: trace below bound, bound -> 0)", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 9: comparison-algebra invariant suite
# ---------------------------------------------------------------------------

def test_criterion_9_comparison_invariants():
    gen = np.random.Generator(np.random.Philox(key=99))
    violations = 0

    # monotonicity of every KL gain in the fixture catalog on default grids
    from mhestab.comparison import check_kl_on_grid
    grid = log_grid(1e-9, 1e3, 8)
    for name in ("s1", "s2", "s3", "s4", "s1-shared"):
        for mode in PlusMode:
            try:
                cert = builtin_certificate(name, mode)
            except M.DomainError:
                continue
            for fn in cert.gains().values():
                if not check_kl_on_grid(fn, grid, s_max=48).passed:
                    violations += 1

    # exact max distributivity
    for kappa in (LinearK(0.5), PowerK(1.0, 2.0), PowerK(2.0, 0.5)):
        for _ in range(2000):
            a, b = 10.0 ** gen.uniform(-9, 3, 2)
            if kappa(max(a, b)) != max(kappa(a), kappa(b)):
                violations += 1

    # sum-to-max distribution chain with N = list length
    for kappa in (LinearK(1.5), PowerK(1.0, 2.0), PowerK(2.0, 0.5)):
        for _ in range(2000):
            vals = 10.0 ** gen.uniform(-6, 2, int(gen.integers(1, 9)))
            n = len(vals)
            lhs = kappa(float(vals.sum()))
            mid = max(kappa(n * v) for v in vals)
            rhs = sum(kappa(n * v) for v in vals)
            if lhs > mid * (1 + 1e-12) or mid > rhs * (1 + 1e-12):
                violations += 1

    # summability evidence of every sum-mode fixture
    for name in ("s1", "s2", "s3", "s4"):
        cert = builtin_certificate(name, PlusMode.SUM)
        for record in cert.summability.values():
            if not record.passed:
                violations += 1

    # triangle growth: searched N validates, and N = 2 always validates
    for name, mode in (("s1", PlusMode.SUM), ("s1", PlusMode.MAX), ("s2", PlusMode.MAX)):
        cert = builtin_certificate(name, mode)
        n = triangle_constant(cert.beta, mode, s_max=12)
        if not check_triangle(cert.beta, n, mode, s_max=12).passed:
            violations += 1
        if not check_triangle(cert.beta, N_TWO, mode, s_max=12).passed:
            violations += 1

    _report("9 (comparison-algebra invariants)", violations == 0,
            f"{violations} violations on default grids")


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical artifacts
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    config = ExperimentConfig(
        name="acc10", plant="s1", mode="sum", estimator="mhe", horizon=3,
        a_factor=A_FACTOR, t_final=25, seeds=(0, 1, 2),
        scenarios=[DisturbanceScenario("uniform", "bounded_uniform", amplitude=0.1),
                   DisturbanceScenario("decay", "decaying_geometric", amplitude=1.0, rate=0.8)])
    run_experiment(config, str(tmp_path / "a"))
    run_experiment(config, str(tmp_path / "b"))
    identical = True
    names = sorted(os.listdir(tmp_path / "a" / "acc10"))
    for name in names:
        a = open(tmp_path / "a" / "acc10" / name, "rb").read()
        b = open(tmp_path / "b" / "acc10" / name, "rb").read()
        if a != b:
            identical = False
    _report("10 (byte-identical artifacts)", identical and len(names) >= 7,
            f"{len(names)} artifacts compared byte-for-byte")
