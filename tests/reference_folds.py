"""Scalar reference folds of the grid checks.

Each function here evaluates the comparison functions one grid point at a
time, in the loop order the library's checks define, exactly as the checks
did before they were rewritten to make one array call per age.  The
differential tests in ``test_array_eval.py`` assert that the library's array
versions return the same evidence, field for field, with ``==``.

``check_kl_two_loops`` is the array KL check as it ran before it took
each slice f(grid, s) once: the strided slices on the grid, then every
slice again on the probe subgrid; ``test_array_eval.py`` holds
``check_kl_on_grid`` to it.

Partial sums are folded with explicit ``partial = partial + term`` loops, the
plain left-to-right addition the array versions use.

``generic_objective`` is the window objective of the generic engines, one
candidate at a time, as the engines evaluated it before they batched their
candidates; ``test_generic_engines.py`` pins the batched rows to it.
``generic_window`` is the Gauss-Newton or compass solve of one window on
that objective, each start after the other, as the engines ran before they
took a group's windows and starts in lock-step; ``test_cell_axis.py`` pins
every row of a group to it.

``rgas_rhs``, ``mhe_bound`` and ``window_cost`` are the scalar folds of the
full-information bound, the moving-horizon bound and the window cost: one
gain call per term, folded with ``plus_reduce``.  ``test_bound_path.py``
holds ``bound_trace`` and ``_window_costs`` to them.  ``ioss_pair_margins`` is
the same fold of the certificate inequality on one pair of solutions, as
``check_ioss_on_pair`` evaluated it before it went through
``bound_trace``, and ``falsify_pair_by_pair`` the falsifier that checks its
pairs one at a time; ``test_certificates.py`` holds the pair check and the
falsifier to them.  Distances here are ``np.linalg.norm`` of one row.

``max_interval_window`` is the max-mode level bisection of one window, as
the engine solved it before it took a group of windows at once, and
``sum_pwl_window`` the sum-mode dynamic program of one window on Python
lists, as the engine solved it before it held a group of value functions
as arrays; ``test_cell_axis.py`` pins every row of a group to them.
``check_cell`` is the certification and bound check of one cell, one step
at a time, as the harness ran it before it checked a horizon group at
once; ``test_cell_axis.py`` pins the group check to it.
``drive_step_by_step`` is the driver of ``run_fie``/``run_mhe`` with one
window group per step, as it ran before the moving-horizon steps that
share their inputs went as one group; ``test_cell_axis.py`` pins the
drivers to it.
"""

import math

import numpy as np

from mhestab.comparison import (
    GridEvidence,
    LinearK,
    PlusMode,
    SummabilityEvidence,
    TriangleGrowth,
    first_max,
    log_grid,
    plus_reduce,
)
from mhestab import estimator as E
from mhestab.certificates import CompatibilityWitness
from mhestab.stability import (
    ANALYSIS_R_MAX,
    ANALYSIS_R_MIN,
    BoundAlphaInvK,
    ContractionAnalysis,
    GapSlackK,
    PlusSlackK,
    ZetaK,
    _linear_coefficient,
    analysis_grid,
)


def _plus2(mode, a, b):
    return plus_reduce(mode, (a, b))


def check_kl_on_grid(f, r_grid=None, s_max=64, rel_tol=1e-9):
    grid = log_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    worst = math.inf
    worst_pt = (0.0, 0)
    terminal = 0.0
    for s in range(0, s_max + 1, max(1, s_max // 16)):
        vals = np.array([f(r, s) for r in grid])
        diffs = np.diff(vals)
        if len(diffs):
            m = float(diffs.min())
            if m < worst:
                worst = m
                worst_pt = (float(grid[int(np.argmin(diffs))]), s)
            if m <= 0.0:
                return GridEvidence(False, m, worst_pt, f"slice s={s} not strictly increasing in r")
    for r in grid[:: max(1, len(grid) // 16)]:
        prev = f(r, 0)
        for s in range(1, s_max + 1):
            cur = f(r, s)
            if cur > prev * (1 + rel_tol) + 1e-300:
                return GridEvidence(False, prev - cur, (float(r), s), "not nonincreasing in s")
            prev = cur
        base = f(r, 0)
        if base > 0:
            terminal = max(terminal, f(r, s_max) / base)
    return GridEvidence(True, worst, worst_pt,
                        f"KL grid checks passed; terminal decay ratio {terminal:.3e}")


def check_kl_two_loops(f, r_grid=None, s_max=64, rel_tol=1e-9):
    """The array check of KL membership as two loops: the strided slices
    f(grid, s) first, then f(probe, s) for every s, each a call of its own."""
    grid = log_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    worst = math.inf
    worst_pt = (0.0, 0)
    for s in range(0, s_max + 1, max(1, s_max // 16)):
        vals = f(grid, s)
        diffs = np.diff(vals)
        if len(diffs):
            m = float(diffs.min())
            if m < worst:
                worst = m
                worst_pt = (float(grid[int(np.argmin(diffs))]), s)
            if m <= 0.0:
                return GridEvidence(False, m, worst_pt, f"slice s={s} not strictly increasing in r")
    probe = grid[:: max(1, len(grid) // 16)]
    base = prev = f(probe, 0)
    first_s = np.zeros(len(probe), dtype=int)     # 0: no violation yet
    first_margin = np.zeros(len(probe))
    for s in range(1, s_max + 1):
        cur = f(probe, s)
        new = (cur > prev * (1 + rel_tol) + 1e-300) & (first_s == 0)
        first_s[new] = s
        first_margin[new] = (prev - cur)[new]
        prev = cur
    hit = np.flatnonzero(first_s)
    if len(hit):
        i = hit[0]
        return GridEvidence(False, float(first_margin[i]), (float(probe[i]), int(first_s[i])),
                            "not nonincreasing in s")
    positive = base > 0
    terminal = max(0.0, first_max(prev[positive] / base[positive])[1])
    return GridEvidence(True, worst, worst_pt,
                        f"KL grid checks passed; terminal decay ratio {terminal:.3e}")


def check_summable(f, sigma, r_grid=None, tail_horizon=256):
    grid = log_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    worst = math.inf
    worst_r = float(grid[0])
    for r in grid:
        partial = 0.0
        for tau in range(tail_horizon + 1):
            partial = partial + f(r, tau)
        total = partial + f.sum_tail(r, tail_horizon + 1)
        margin = sigma(r) - total
        if margin < worst:
            worst = margin
            worst_r = float(r)
    tol = 1e-9 * max(1.0, abs(sigma(worst_r)))
    return SummabilityEvidence(worst >= -tol, worst, worst_r, tail_horizon, sigma,
                               (float(grid[0]), float(grid[-1])))


def triangle_constant(beta, mode, s_max=32, a_grid=None, candidates=(1.0, 2.0), rel_tol=1e-9):
    grid = np.geomspace(1e-6, 1e3, 40) if a_grid is None else np.asarray(a_grid, dtype=float)
    cands = sorted(set(float(c) for c in candidates) | {2.0})
    chosen = []
    for s in range(s_max + 1):
        pick = 2.0
        for cand in cands:
            ok = True
            for a1 in grid:
                for a2 in grid:
                    lhs = beta(a1 + a2, s)
                    rhs = _plus2(mode, beta(cand * a1, s), beta(cand * a2, s))
                    if lhs > rhs * (1 + rel_tol) + 1e-300:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                pick = cand
                break
        chosen.append(pick)
    for s in range(s_max - 1, -1, -1):
        chosen[s] = max(chosen[s], chosen[s + 1])
    if len(set(chosen)) == 1:
        return TriangleGrowth((chosen[0],))
    return TriangleGrowth(tuple(chosen))


def check_triangle(beta, n, mode, s_max=32, a_grid=None, rel_tol=1e-9):
    grid = np.geomspace(1e-6, 1e3, 40) if a_grid is None else np.asarray(a_grid, dtype=float)
    worst = math.inf
    worst_pt = (0.0, 0.0, 0)
    for s in range(s_max + 1):
        for a1 in grid:
            for a2 in grid:
                lhs = beta(a1 + a2, s)
                rhs = _plus2(mode, beta(n(s) * a1, s), beta(n(s) * a2, s))
                margin = rhs - lhs
                scale = max(1.0, abs(rhs))
                if margin / scale < worst:
                    worst = margin / scale
                    worst_pt = (float(a1), float(a2), s)
    return GridEvidence(worst >= -rel_tol, worst, worst_pt, "triangle-growth inequality",
                        (float(grid[0]), float(grid[-1])))


def check_compatibility(cert, cost, n, r_grid=None, s_max=32,
                        b_candidates=(1.0, 2.0, 4.0, 8.0), rel_tol=1e-9):
    grid = log_grid(per_decade=8) if r_grid is None else np.asarray(r_grid, dtype=float)
    pairs = (
        ("beta", cert.beta, cost.beta_hat),
        ("gamma", cert.gamma, cost.gamma_hat),
        ("delta", cert.delta, cost.delta_hat),
    )
    worst_ratio = 0.0
    evidence = []
    for name, base, hat in pairs:
        ratio = 0.0
        worst_pt = (float(grid[0]), 0)
        for s in range(s_max + 1):
            for r in grid:
                num = base(n(s) * r, s)
                den = hat(r, s)
                if num == 0.0:
                    continue
                if den == 0.0:
                    ratio = math.inf
                    worst_pt = (float(r), s)
                    break
                q = num / den
                if q > ratio:
                    ratio = q
                    worst_pt = (float(r), s)
            if ratio == math.inf:
                break
        worst_ratio = max(worst_ratio, ratio)
        evidence.append(GridEvidence(True, ratio, worst_pt, f"{name} ratio",
                                     (float(grid[0]), float(grid[-1]))))
    for b_cand in sorted(b_candidates):
        if worst_ratio <= b_cand * (1 + rel_tol):
            return CompatibilityWitness(True, float(b_cand), n, worst_ratio, tuple(evidence))
    return CompatibilityWitness(False, None, n, worst_ratio, tuple(evidence))


def find_contraction_max(bounds, alpha, K, r_grid=None):
    grid = analysis_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    eta = _linear_coefficient(bounds.b, K, alpha)
    kappa = LinearK(eta) if eta is not None else BoundAlphaInvK(bounds.b, alpha, K)
    margins = np.array([(r - kappa(r)) / r for r in grid])
    worst = float(margins.min())
    passed = worst > 0.0
    worst_r = None if passed else float(grid[margins <= 0.0][0])
    linear_rate = eta if (eta is not None and 0.0 < eta < 1.0 and passed) else None
    return ContractionAnalysis(PlusMode.MAX, K, passed, kappa, None, None,
                               linear_rate, worst, worst_r,
                               (float(grid[0]), float(grid[-1])),
                               notes="kappa taken as the one-window error map")


def find_contraction_sum(bounds, alpha, K, r_grid=None, thetas=(0.25, 0.5)):
    grid = analysis_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    eta = _linear_coefficient(bounds.b, K, alpha)
    g = LinearK(eta) if eta is not None else BoundAlphaInvK(bounds.b, alpha, K)
    g_margins = np.array([(r - g(r)) / r for r in grid])
    if float(g_margins.min()) <= 0.0:
        viol = grid[g_margins <= 0.0]
        return ContractionAnalysis(PlusMode.SUM, K, False, None, None, None, None,
                                   float(g_margins.min()), float(viol[0]),
                                   (float(grid[0]), float(grid[-1])),
                                   notes="window error map is not a strict contraction")
    for theta in thetas:
        if eta is not None:
            rho = LinearK(theta * (1.0 - eta))
            kappa = LinearK(eta + theta * (1.0 - eta))
            zeta = LinearK(1.0 + kappa.c / rho.c)
            linear_rate = kappa.c
        else:
            rho = GapSlackK(theta, g)
            kappa = PlusSlackK(g, rho)
            zeta = ZetaK(kappa, rho)
            linear_rate = None
        margins = np.array([(r - kappa(r)) / r for r in grid])
        cond = np.array([(kappa(r) - g(r) - rho(r)) / r for r in grid])
        if float(margins.min()) > 0.0 and float(cond.min()) >= -1e-12:
            zeta_ratio = min(zeta(r) / r for r in grid[:: max(1, len(grid) // 16)])
            note = f"theta={theta}; min zeta(r)/r = {zeta_ratio:.6f} (> 2 expected)"
            rate = linear_rate if (linear_rate is not None and 0 < linear_rate < 1) else None
            return ContractionAnalysis(PlusMode.SUM, K, True, kappa, rho, zeta, rate,
                                       float(margins.min()), None,
                                       (float(grid[0]), float(grid[-1])), notes=note)
    worst = float(g_margins.min())
    return ContractionAnalysis(PlusMode.SUM, K, False, None, None, None, None, worst,
                               float(grid[int(np.argmin(g_margins))]),
                               (float(grid[0]), float(grid[-1])),
                               notes="no slack candidate left strict contraction room")


def bar_bound_checks(hat_family, K0, K_max, bounds, r_grid=None, t_max=12):
    """``(convergence_gap, monotone_evidence, kl_evidence)`` of
    ``build_bar_bounds``; raises ``ValueError`` where it raises."""
    grid = log_grid(ANALYSIS_R_MIN, ANALYSIS_R_MAX, 4) if r_grid is None else np.asarray(r_grid)

    def bar(name, K, r, t):
        return max(getattr(hat_family[k], name)(r, t) for k in range(max(K, K0), K_max + 1))

    for k in range(K0, K_max):
        ka, kb = hat_family[k].kappa, hat_family[k + 1].kappa
        for r in grid:
            if kb(r) > ka(r) * (1 + 1e-12):
                raise ValueError(f"kappa family not pointwise decreasing at K={k}, r={r}")
    worst_mono = math.inf
    worst_pt = (float(grid[0]), 0)
    gap = 0.0
    for r in grid:
        for t in range(t_max + 1):
            prev = None
            for k in range(K0, K_max + 1):
                cur = bar("b_hat", k, r, t)
                if prev is not None:
                    margin = prev - cur
                    if margin < worst_mono:
                        worst_mono, worst_pt = margin, (float(r), t)
                prev = cur
            gap = max(gap, abs(bar("b_hat", K_max, r, t) - bounds.b(r, t))
                      / max(1e-300, bounds.b(r, t)))
    mono = GridEvidence(worst_mono >= -1e-12, worst_mono, worst_pt,
                        "bar-bound monotonicity in K")
    kl_ev = tuple(check_kl_on_grid(lambda r, s, name=name: bar(name, K0, r, s),
                                   log_grid(1e-3, 1e2, 3), s_max=t_max)
                  for name in ("b_hat", "c_hat", "d_hat"))
    return gap, mono, kl_ev



def generic_objective(problem, z):
    """The cost terms of one decision vector z = (chi0, omega):
    [beta_hat(|chi0 - prior|, K), gamma_hat(|omega_0|, K), delta_hat(|nu_0|,
    K), gamma_hat(|omega_1|, K - 1), ...], with nu read off the outputs."""
    model, cost, K = problem.model, problem.cost, problem.horizon
    n, q = model.state_dim, model.process_noise_dim
    chi0 = z[:n]
    omega = z[n:n + K * q].reshape(K, q)
    xs = np.empty((K, n))
    x = chi0
    for j in range(K):             # one candidate rolled forward alone
        xs[j] = x
        x = np.atleast_1d(model.f(x, problem.u_win[j], omega[j]))
    nu = np.array([problem.y_win[j] - np.atleast_1d(model.h_nominal(xs[j], problem.u_win[j]))
                   for j in range(K)])
    terms = [cost.beta_hat(float(np.linalg.norm(chi0 - problem.prior)), K)]
    for j in range(K):
        age = K - j
        terms.append(cost.gamma_hat(float(np.linalg.norm(omega[j])), age))
        terms.append(cost.delta_hat(float(np.linalg.norm(nu[j])), age))
    terms = np.array(terms)
    plus_reduce(cost.mode, terms)      # raises on NaN terms, as the engines did
    return terms


def _generic_value(problem, z):
    return plus_reduce(problem.cost.mode, generic_objective(problem, z))


def _generic_residual(problem, z, power):
    return np.sqrt(np.power(generic_objective(problem, z) + 1e-12, power))


def _gauss_newton_one(problem, z, powers, cfg):
    dim, iters = len(z), 0
    for power in powers:
        for _ in range(cfg.max_iter):
            r = _generic_residual(problem, z, power)
            f0 = float(r @ r)
            h = 1e-6 * np.maximum(1.0, np.abs(z))
            jac = np.empty((len(r), dim))
            for i in range(dim):
                probe = z.copy()
                probe[i] += h[i]
                jac[:, i] = (_generic_residual(problem, probe, power) - r) / h[i]
            try:
                step = np.linalg.lstsq(jac, -r, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            alpha, accepted = 1.0, None
            for _ in range(25):
                cand = z + alpha * step
                rc = _generic_residual(problem, cand, power)
                if float(rc @ rc) < f0 - 1e-300:
                    accepted = cand
                    break
                alpha *= 0.5
            iters += 1
            if accepted is None:
                break
            z = accepted
            if float(np.linalg.norm(alpha * step)) < cfg.tol:
                break
    return z, iters


def _compass_one(problem, z, cfg):
    best = _generic_value(problem, z)
    step = np.maximum(0.25, 0.1 * np.abs(z))
    iters = 0
    for _ in range(cfg.max_iter):
        improved = False
        for i in range(len(z)):
            for sign in (1.0, -1.0):
                cand = z.copy()
                cand[i] += sign * step[i]
                val = _generic_value(problem, cand)
                iters += 1
                if val < best - 1e-300:
                    z, best = cand, val
                    step[i] *= 1.6
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if float(np.max(step)) < cfg.tol:
                break
    return z, iters


def generic_window(problem, cfg):
    """The configured generic method on one window, one candidate at a time
    through :func:`generic_objective`: every start solved in turn, the
    first of the least end costs kept.  Returns the EstimateResult the
    engine gives that window."""
    model, cost, K = problem.model, problem.cost, problem.horizon
    n, q = model.state_dim, model.process_noise_dim
    dim = n + K * q
    starts = [np.concatenate([problem.prior, np.zeros(dim - n)])]
    if model.is_scalar:
        y = problem.y_win
        omega = [y[j + 1] - np.atleast_1d(model.f_nominal(y[j], problem.u_win[j]))
                 for j in range(K - 1)] + [np.zeros(1)]
        starts.append(np.concatenate([y[0]] + omega))
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    spread = max(1.0, float(np.max(np.abs(problem.y_win))), float(np.max(np.abs(problem.prior))))
    while len(starts) < cfg.multistart:
        starts.append(starts[0] + gen.normal(0.0, 0.3 * spread, dim))
    powers = (1.0,) if cost.mode is PlusMode.SUM else (2.0, 8.0)
    best = None
    for idx, z in enumerate(starts[:cfg.multistart]):
        if cfg.method == "gauss_newton_penalty":
            engine = "gauss-newton"
            z, iters = _gauss_newton_one(problem, z, powers, cfg)
        else:
            engine = "compass"
            z, iters = _compass_one(problem, z, cfg)
        key = (_generic_value(problem, z), idx)
        if best is None or key < best[0]:
            best = (key, z, iters)
    (_, idx), z, iters = best
    chi0, omega = z[:n], z[n:].reshape(K, q)
    res = E._results_from_decisions(E._Rows.of([problem]), chi0[None], omega[None],
                                    engine).cell(0)
    res.iterations, res.starts_used = iters, idx + 1
    return res


def rgas_rhs(bounds, init_dist, w_seq, v_seq, t):
    """The full-information bound at time t; w_seq/v_seq are (t', d), t' >= t."""
    terms = [bounds.b(init_dist, t)]
    w = np.asarray(w_seq, dtype=float)
    v = np.asarray(v_seq, dtype=float)
    for tau in range(1, t + 1):
        j = t - tau
        terms.append(plus_reduce(bounds.mode, (
            bounds.c(float(np.linalg.norm(w[j])), tau),
            bounds.d(float(np.linalg.norm(v[j])), tau),
        )))
    return plus_reduce(bounds.mode, terms)


def mhe_bound(hat, init_dist, w_seq, v_seq, t):
    """The moving-horizon bound at time t, folded with max in both modes."""
    w = np.asarray(w_seq, dtype=float)
    v = np.asarray(v_seq, dtype=float)
    terms = [hat.b_hat(init_dist, t)]
    for tau in range(1, t + 1):
        j = t - tau
        terms.append(hat.c_hat(float(np.linalg.norm(w[j])), tau))
        terms.append(hat.d_hat(float(np.linalg.norm(v[j])), tau))
    return plus_reduce(PlusMode.MAX, terms)


def _dist(a, b):
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def ioss_pair_margins(cert, sol1, sol2):
    """The margins rhs - alpha(|x(t), chi(t)|) of the certificate inequality
    for t = 0..T-1: one gain call per term, the four discrepancy terms of an
    age folded first, then the terms of all ages after the initial one."""
    T = sol1.length
    d = {key: [_dist(getattr(sol1, key)[t], getattr(sol2, key)[t]) for t in range(T)]
         for key in "xwvuy"}
    margins = np.empty(T)
    for t in range(T):
        terms = [cert.beta(d["x"][0], t)]
        for tau in range(1, t + 1):
            j = t - tau
            terms.append(plus_reduce(cert.mode, (
                cert.gamma(d["w"][j], tau),
                cert.delta(d["v"][j], tau),
                cert.epsilon(d["u"][j], tau),
                cert.phi(d["y"][j], tau),
            )))
        margins[t] = plus_reduce(cert.mode, terms) - cert.alpha(d["x"][t])
    return margins


def falsify_pair_by_pair(cert, model, n_pairs, horizon, seed, scale=2.0):
    """``falsify_certificate``'s draws, each pair checked alone by
    ``check_ioss_on_pair`` as soon as it is drawn, the worst pair kept by a
    strict ``<`` scan.  Returns the report's fields as a tuple."""
    from mhestab.certificates import TOL_CERT, check_ioss_on_pair
    from mhestab.systems import simulate

    gen = np.random.Generator(np.random.Philox(key=seed))
    worst, worst_seed, worst_t = math.inf, -1, -1
    for k in range(n_pairs):
        amp_w = scale * 0.1 * gen.uniform(0, 1)
        amp_v = scale * 0.1 * gen.uniform(0, 1)
        sols = []
        for _ in range(2):
            x0 = gen.uniform(-scale, scale, model.state_dim)
            u = gen.uniform(-1.0, 1.0, (horizon, model.input_dim))
            w = gen.uniform(-amp_w, amp_w, (horizon, model.process_noise_dim))
            v = gen.uniform(-amp_v, amp_v, (horizon, model.meas_noise_dim))
            if gen.uniform() < 0.25:
                w[gen.integers(0, horizon), 0] += gen.uniform(-scale, scale)
            sols.append(simulate(model, x0, u, w, v, horizon))
        margin = check_ioss_on_pair(cert, model, sols[0], sols[1])
        if margin.min_margin < worst:
            worst, worst_seed, worst_t = margin.min_margin, k, margin.worst_t
    return (worst >= -TOL_CERT, n_pairs, worst, worst_seed, worst_t)


def window_cost(cost, prior, chi0, omega, nu):
    """The window cost of (chi0, omega, nu) against the prior; omega/nu are
    (K, d) in time order, entry j at age K - j."""
    K = len(omega)
    terms = [cost.beta_hat(float(np.linalg.norm(np.asarray(chi0) - prior)), K)]
    for j in range(K):
        age = K - j
        terms.append(cost.gamma_hat(float(np.linalg.norm(omega[j])), age))
        terms.append(cost.delta_hat(float(np.linalg.norm(nu[j])), age))
    return plus_reduce(cost.mode, terms)


# ---------------------------------------------------------------------------
# The max-mode level bisection, one window at a time
# ---------------------------------------------------------------------------

def _rollout_one(problem, chi0, omega):
    model, K = problem.model, problem.horizon
    xs = np.empty((K, model.state_dim))
    x = np.atleast_1d(chi0).astype(float)
    for j in range(K):
        xs[j] = x
        x = np.atleast_1d(model.f(x, problem.u_win[j], omega[j]))
    nu = np.array([problem.y_win[j] - np.atleast_1d(model.h_nominal(xs[j], problem.u_win[j]))
                   for j in range(K)])
    return xs, x, nu


def _widths(table, K, levels, prior=False):
    """The halfwidths (K, L) of the levels (L,) at the window's ages K .. 1,
    or (L,) at the prior's age K, of a width table of one window."""
    out = np.array([table.widths(levels[None, :], np.array([age]), np.array([K]))[0]
                    for age in ([K] if prior else range(K, 0, -1))])
    return out[0] if prior else out


def _feasible_one(problem, prep, levels, record=False):
    K, y, prior = problem.horizon, problem.y_win[:, 0], float(problem.prior[0])
    pw, dw, gw = (_widths(prep[0], K, levels, prior=True), _widths(prep[1], K, levels),
                  _widths(prep[2], K, levels))
    ylo, yhi = y[:, None] - dw, y[:, None] + dw
    lo, hi = prior - pw, prior + pw
    alive = np.ones(len(levels), dtype=bool)
    intervals = []
    for j in range(K):
        lo, hi = np.maximum(lo, ylo[j]), np.minimum(hi, yhi[j])
        alive &= lo <= hi
        if record:
            lo, hi = np.where(alive, lo, 0.0), np.where(alive, hi, 0.0)
            intervals.append((lo, hi))
        if j < K - 1:
            img_lo, img_hi = problem.model.f_image(lo, hi, problem.u_win[j])
            lo, hi = img_lo - gw[j], img_hi + gw[j]
    return alive, intervals


def _cost(problem, chi0, omega, nu):
    """The cost of one window of the problem: a one-row ``_window_costs`` call."""
    return float(E._window_costs(problem.cost, problem.prior[None], chi0[None], omega[None],
                                 nu[None])[0])


def _reconstruct_one(problem, prep, level):
    model, K = problem.model, problem.horizon
    alive, intervals = _feasible_one(problem, prep, np.array([level]), record=True)
    if not alive[0]:
        return None
    gw = _widths(prep[2], K, np.array([level]))[:, 0]
    chis = np.empty(K)
    chis[K - 1] = 0.5 * (intervals[K - 1][0][0] + intervals[K - 1][1][0])
    for j in range(K - 2, -1, -1):
        lo_j, hi_j = intervals[j][0][0], intervals[j][1][0]
        img_lo, img_hi = model.f_image(lo_j, hi_j, problem.u_win[j])
        target = min(max(chis[j + 1], img_lo - gw[j]), img_hi + gw[j])
        chis[j] = model.f_solve(min(max(target, img_lo), img_hi), lo_j, hi_j, problem.u_win[j])
    omega = np.zeros((K, 1))
    for j in range(K - 1):
        pred = float(np.atleast_1d(model.f_nominal(np.array([chis[j]]), problem.u_win[j]))[0])
        omega[j, 0] = chis[j + 1] - pred
    xs, endpoint, nu = _rollout_one(problem, chis[:1], omega)
    return E.EstimateResult(np.vstack([xs, endpoint[None, :]]), omega, nu,
                            _cost(problem, xs[0], omega, nu),
                            "max-interval", problem.prior.copy(), K)


def max_interval_window(problem):
    """The max-mode level bisection of one scalar window, one level grid and
    one scalar reconstruction at a time: the engine's algorithm without the
    row axis.  Returns the EstimateResult the engine gives that window."""
    model, K = problem.model, problem.horizon
    prep = (E._WidthTable(problem.cost.beta_hat, np.array([K]), True),
            E._WidthTable(problem.cost.delta_hat, np.array([K]), False),
            E._WidthTable(problem.cost.gamma_hat, np.array([K]), False))
    y = problem.y_win[:, 0]
    starts = [(problem.prior.copy(), np.zeros((K, 1)))]
    omega = np.zeros((K, 1))
    for j in range(K - 1):
        pred = float(np.atleast_1d(model.f_nominal(np.array([y[j]]), problem.u_win[j]))[0])
        omega[j, 0] = y[j + 1] - pred
    starts.append((np.array([y[0]]), omega))
    s_hi = math.inf
    for chi0, omega in starts:
        _, _, nu = _rollout_one(problem, chi0, omega)
        val = _cost(problem, chi0, omega, nu)
        if math.isfinite(val):
            s_hi = min(s_hi, val)
    if not math.isfinite(s_hi):
        raise E.InfeasibleWindowError("no finite-cost candidate trajectory")
    if s_hi == 0.0 or _feasible_one(problem, prep, np.array([0.0]))[0][0]:
        result = _reconstruct_one(problem, prep, 0.0)
        if result is not None:
            return result
    lo, hi = 0.0, max(s_hi, 1e-300)
    levels = np.geomspace(max(hi * 1e-14, 1e-300), hi, 48)
    for _ in range(E.LEVEL_PASSES):
        mask, _ = _feasible_one(problem, prep, levels)
        if not mask[-1]:
            hi = hi * (1 + 1e-9) + 1e-300
        else:
            first = int(np.argmax(mask))
            hi, lo = float(levels[first]), float(levels[first - 1]) if first > 0 else lo
        levels = np.linspace(lo, hi, 48)[1:]
    bump = hi
    for _ in range(6):
        result = _reconstruct_one(problem, prep, bump)
        if result is not None:
            result.iterations = E.LEVEL_PASSES
            return result
        bump = bump * (1 + 1e-9) + 1e-300
    raise E.InfeasibleWindowError("level reconstruction failed")


# ---------------------------------------------------------------------------
# The check stage of one cell, one step at a time
# ---------------------------------------------------------------------------

def check_cell(resolved, scenario, seed, hat, K, estimated):
    """Certification and bounds of one cell from its truth and estimator
    results, one step and one scalar gain call at a time, as the harness
    checked a cell before it took a horizon group at once.  Returns the
    cell's (rows, min_margin, certified_steps, worst)."""
    from mhestab.certificates import bound_trace
    from mhestab.comparison import seq_norms
    from mhestab.harness import _initial

    config = resolved.config
    model, cert, cost, bounds = resolved.model, resolved.cert, resolved.cost, resolved.bounds
    T = config.t_final
    sol, results = estimated
    is_mhe = config.estimator == "mhe"
    d0 = _dist(sol.x[0], _initial(config, model)[1])
    w_norms = seq_norms(sol.w)
    v_norms = seq_norms(sol.v)
    if is_mhe:
        rhs_trace = bound_trace(PlusMode.MAX, hat.b_hat, d0, (hat.c_hat, w_norms[:T]),
                                (hat.d_hat, v_norms[:T]))
    else:
        rhs_trace = bound_trace(bounds.mode, bounds.b, d0, (bounds.c, w_norms[:T]),
                                (bounds.d, v_norms[:T]))
    if np.isnan(rhs_trace).any():
        raise E.DomainError(f"error bound is NaN at t = {int(np.argmax(np.isnan(rhs_trace)))}")
    rows = []
    chain_certified = True
    certified_steps = 0
    min_margin = math.inf
    worst = {}
    errors = []
    for t in range(T + 1):
        res = results[t]
        err = cert.alpha(_dist(sol.x[t], res.published))
        errors.append(err)
        if t == 0:
            record = E.CertificationRecord(True, 1.0, 0.0, 0.0)
        else:
            # the driver's window rule, restated: an oracle imports no copy of it
            start = t - K if is_mhe and t > K else 0
            reference = sol.window(start, t)
            record = E.certify_suboptimality(res, reference, cost, config.a_factor)
        if is_mhe:
            chain_certified = chain_certified and record.passed
            certified = chain_certified
        else:
            certified = record.passed
        rhs = float(rhs_trace[t])
        margin = rhs - err
        window_margin = None
        if is_mhe and t > K and certified:
            prev_err = errors[t - K]
            terms = [hat.analysis.kappa(prev_err)]
            for tau in range(1, K + 1):
                j = t - tau
                terms.append(bounds.c(float(w_norms[j]), tau))
                terms.append(bounds.d(float(v_norms[j]), tau))
            window_margin = plus_reduce(bounds.mode, terms) - err
        if certified:
            certified_steps += 1
            eff = margin if window_margin is None else min(margin, window_margin)
            if eff < min_margin:
                min_margin = eff
                worst = {"t": t, "scenario": scenario.name, "seed": seed,
                         "margin": eff, "error": err, "rhs": rhs}
        rows.append({
            "t": t,
            "xhat": list(map(float, res.published)),
            "x_true": list(map(float, sol.x[t])),
            "error": err,
            "rhs": rhs,
            "margin": margin,
            "window_margin": window_margin,
            "achieved_cost": res.cost,
            "certified_ratio": record.ratio if math.isfinite(record.ratio) else -1.0,
            "certified": certified,
        })
    return rows, min_margin if certified_steps else math.inf, certified_steps, worst


# ---------------------------------------------------------------------------
# The sum-mode dynamic program, one window at a time
# ---------------------------------------------------------------------------

class _PWL:
    """Convex piecewise-linear function.

    ``xs`` are breakpoints (ascending), ``slopes`` the segment slopes with one
    extra leading entry for the left arm, ``y0`` the value at xs[0].  Slopes
    are nondecreasing; the minimum is attained because every function built
    here includes at least one coercive absolute-value term.
    """

    __slots__ = ("xs", "slopes", "y0")

    def __init__(self, xs, slopes, y0):
        self.xs = list(xs)
        self.slopes = list(slopes)
        self.y0 = float(y0)

    @staticmethod
    def abs_term(center, weight):
        return _PWL([center], [-weight, weight], 0.0)

    def value(self, x: float) -> float:
        if x <= self.xs[0]:
            return self.y0 - self.slopes[0] * (self.xs[0] - x)
        v = self.y0
        prev = self.xs[0]
        for i in range(1, len(self.xs)):
            if x <= self.xs[i]:
                return v + self.slopes[i] * (x - prev)
            v += self.slopes[i] * (self.xs[i] - prev)
            prev = self.xs[i]
        return v + self.slopes[-1] * (x - prev)

    def add(self, other: "_PWL") -> "_PWL":
        xs = sorted(set(self.xs) | set(other.xs))
        slopes = [self.slopes[0] + other.slopes[0]]        # the left arms
        for x in xs:
            slopes.append(self._slope_right(x) + other._slope_right(x))
        y0 = self.value(xs[0]) + other.value(xs[0])
        return _PWL(xs, slopes, y0)._pruned()

    def _slope_right(self, x: float) -> float:
        # slope of the segment containing points just right of x
        idx = 0
        for i, bp in enumerate(self.xs):
            if x >= bp:
                idx = i + 1
            else:
                break
        return self.slopes[idx]

    def scale_shift_arg(self, a: float, off: float) -> "_PWL":
        """W(z) = V((z - off) / a) for a != 0."""
        if a == 0.0:
            raise E.DomainError("argument scaling needs a nonzero coefficient")
        xs = [a * x + off for x in self.xs]
        slopes = [s / a for s in self.slopes]
        if a > 0:
            return _PWL(xs, slopes, self.value(self.xs[0]))
        xs = xs[::-1]
        slopes = slopes[::-1]
        return _PWL(xs, slopes, self.value(self.xs[-1]))

    def min(self):
        """(vmin, arg_lo, arg_hi) over the breakpoints; assumes the function
        is coercive, i.e. slopes[0] <= 0 <= slopes[-1]."""
        vals = [self.y0]
        v = self.y0
        for i in range(1, len(self.xs)):
            v += self.slopes[i] * (self.xs[i] - self.xs[i - 1])
            vals.append(v)
        best = min(vals)
        attain = [x for x, val in zip(self.xs, vals) if val == best]
        return best, attain[0], attain[-1]

    def infconv_abs(self, w: float) -> "_PWL":
        """Infimal convolution with w * |.| == slope clipping to [-w, w],
        anchored so values in the unclipped region are preserved."""
        vmin, arg_lo, _ = self.min()
        if w <= 0.0:
            # zero-weight stage: the stage variable is free, leaving a constant
            return _PWL([arg_lo], [0.0, 0.0], vmin)
        slopes = [min(max(s, -w), w) for s in self.slopes]
        y0 = self.value_with(slopes, arg_lo, vmin, self.xs[0])
        return _PWL(self.xs, slopes, y0)._pruned()

    def value_with(self, slopes, anchor_x: float, anchor_v: float, x: float) -> float:
        """Value at x of the function with these slopes anchored at anchor."""
        if x == anchor_x:
            return anchor_v
        v = anchor_v
        if x < anchor_x:
            cur = anchor_x
            for i in range(len(self.xs) - 1, -1, -1):
                bp = self.xs[i]
                if bp >= cur:
                    continue
                lo = max(bp, x)
                v -= slopes[i + 1] * (cur - lo)
                cur = lo
                if cur <= x:
                    return v
            return v - slopes[0] * (cur - x)
        cur = anchor_x
        for i in range(len(self.xs)):
            bp = self.xs[i]
            if bp <= cur:
                continue
            hi = min(bp, x)
            v += slopes[i] * (hi - cur)
            cur = hi
            if cur >= x:
                return v
        return v + slopes[-1] * (x - cur)

    def _pruned(self) -> "_PWL":
        xs, slopes = self.xs, self.slopes
        new_xs = []
        new_slopes = [slopes[0]]
        for i, bp in enumerate(xs):
            if slopes[i + 1] != new_slopes[-1]:
                new_xs.append(bp)
                new_slopes.append(slopes[i + 1])
        if not new_xs:
            new_xs = [xs[0]]
            new_slopes = [slopes[0], slopes[0]]
        return _PWL(new_xs, new_slopes, self.value(new_xs[0]))


def sum_pwl_window(problem):
    """The sum-mode dynamic program of one scalar window, one Python
    piecewise-linear function at a time: the engine's algorithm without the
    row axis.  Returns the EstimateResult the engine gives that window."""
    model, K = problem.model, problem.horizon
    a = float(model.linear_a)
    y = problem.y_win[:, 0]
    p_t, g_t, d_t = E._sum_weights(problem.cost, K)
    p_w = float(p_t[K])
    g_w, d_w = ([float(table[age]) for age in range(K, 0, -1)] for table in (g_t, d_t))
    offs = [float(np.atleast_1d(model.f_nominal(np.zeros(1), problem.u_win[j]))[0])
            for j in range(K)]
    stages = []
    V = _PWL.abs_term(float(problem.prior[0]), p_w).add(_PWL.abs_term(y[0], d_w[0]))
    for j in range(K - 1):
        stages.append(V)
        V = V.scale_shift_arg(a, offs[j]).infconv_abs(g_w[j])
        V = V.add(_PWL.abs_term(y[j + 1], d_w[j + 1]))
    _, arg_lo, arg_hi = V.min()
    chis = np.empty(K)
    chis[K - 1] = 0.5 * (arg_lo + arg_hi) if math.isfinite(arg_lo) else arg_hi
    for j in range(K - 2, -1, -1):
        Vj = stages[j]
        kink = (chis[j + 1] - offs[j]) / a
        cands = sorted(set(Vj.xs) | {kink})
        best_x, best_v = cands[0], math.inf
        for x in cands:
            val = Vj.value(x) + g_w[j] * abs(chis[j + 1] - a * x - offs[j])
            if val < best_v - 1e-300 or (val == best_v and x < best_x):
                best_v, best_x = val, x
        chis[j] = best_x
    omega = np.zeros((K, 1))
    for j in range(K - 1):
        omega[j, 0] = chis[j + 1] - (a * chis[j] + offs[j])
    return E._results_from_decisions(E._Rows.of([problem]), chis[None, :1], omega[None],
                                     "sum-pwl-dp").cell(0)


# ---------------------------------------------------------------------------
# The drivers, one window group per step
# ---------------------------------------------------------------------------

def drive_step_by_step(model, cost, prior0, u_seq, y_seq, solver, horizon=None):
    """The results of ``run_mhe`` (or of ``run_fie`` without a horizon) on
    a (C, T) or (C, T, p) measurement stack, solving the C windows that end
    at t as one group for t = 1, 2, ..., T in turn: one stacked result of C
    rows per step t = 0..T, as the drivers return them."""
    y = np.asarray(y_seq, dtype=float)
    y = y[:, :, None] if y.ndim == 2 else y
    u = np.asarray(u_seq, dtype=float)
    u = u[:, None] if u.ndim == 1 else u
    C, T = y.shape[:2]
    priors = np.broadcast_to(np.atleast_1d(np.asarray(prior0, dtype=float)),
                             (C, model.state_dim))
    steps = [E.EstimateResult(priors[:, None, :].copy(), np.zeros((C, 0, model.process_noise_dim)),
                              np.zeros((C, 0, model.meas_noise_dim)), np.zeros(C), "init",
                              priors.copy(), 0, np.zeros(C, dtype=int), np.ones(C, dtype=int))]
    for t in range(1, T + 1):
        start = 0 if horizon is None else max(0, t - horizon)
        anchors = np.array([steps[start].cell(c).published for c in range(C)]) if start \
            else priors
        steps.append(E._solve_group(E._Rows(model, cost, u[start:t], anchors, y[:, start:t]),
                                    solver))
    return steps
