"""Scalar reference folds of the grid checks.

Each function here evaluates the comparison functions one grid point at a
time, in the loop order the library's checks define, exactly as the checks
did before they were rewritten to make one array call per age.  The
differential tests in ``test_array_eval.py`` assert that the library's array
versions return the same evidence, field for field, with ``==``.

Partial sums are folded with explicit ``partial = partial + term`` loops, the
plain left-to-right addition the array versions use.

``generic_objective`` is the window objective of the generic engines, one
candidate at a time, as the engines evaluated it before they batched their
candidates; ``test_generic_engines.py`` pins the batched rows to it.

``rgas_rhs``, ``mhe_bound`` and ``window_cost`` are the scalar folds of the
full-information bound, the moving-horizon bound and the window cost: one
gain call per term, folded with ``plus_reduce``.  ``test_bound_path.py``
holds ``bound_trace`` and ``eval_cost`` to them.

``max_interval_window`` is the max-mode level bisection of one window, as
the engine solved it before it took a group of windows at once;
``test_cell_axis.py`` pins every row of a group to it.
"""

import math

import numpy as np

from mhestab.comparison import (
    GridEvidence,
    LinearK,
    PlusMode,
    SummabilityEvidence,
    TriangleGrowth,
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


def check_k_on_grid(f, r_grid=None, probe_unbounded=False):
    grid = log_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    if f(0.0) != 0.0:
        return GridEvidence(False, -abs(f(0.0)), (0.0,), "f(0) != 0")
    vals = np.array([f(r) for r in grid])
    diffs = np.diff(vals)
    worst = float(diffs.min()) if len(diffs) else 0.0
    if worst <= 0.0:
        idx = int(np.argmin(diffs))
        return GridEvidence(False, worst, (float(grid[idx]),), "not strictly increasing")
    if probe_unbounded:
        probe = f(1e12)
        if probe <= vals[-1]:
            return GridEvidence(False, probe - vals[-1], (1e12,), "unboundedness probe failed")
    return GridEvidence(True, worst, (float(grid[int(np.argmin(diffs))]),), "K grid checks passed")


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
    """``(terms, penalty)`` of one decision vector z = (chi0, omega[, nu]):
    the cost terms [beta_hat(|chi0 - prior|, K), gamma_hat(|omega_0|, K),
    delta_hat(|nu_0|, K), gamma_hat(|omega_1|, K - 1), ...] and the squared
    output residual summed over the window (0.0 when nu is eliminated)."""
    model, cost, K = problem.model, problem.cost, problem.horizon
    n, q, m = model.state_dim, model.process_noise_dim, model.meas_noise_dim
    chi0 = z[:n]
    omega = z[n:n + K * q].reshape(K, q)
    xs = np.empty((K, n))
    x = chi0
    for j in range(K):             # one candidate rolled forward alone
        xs[j] = x
        x = np.atleast_1d(model.f(x, problem.u_win[j], omega[j]))
    pen = 0.0
    if model.additive_v:
        nu = np.array([problem.y_win[j] - np.atleast_1d(model.h_nominal(xs[j], problem.u_win[j]))
                       for j in range(K)])
    else:
        nu = z[n + K * q:].reshape(K, m)
        for j in range(K):
            res = problem.y_win[j] - np.atleast_1d(model.h(xs[j], problem.u_win[j], nu[j]))
            pen += float(res @ res)
    terms = [cost.beta_hat(float(np.linalg.norm(chi0 - problem.prior)), K)]
    for j in range(K):
        age = K - j
        terms.append(cost.gamma_hat(float(np.linalg.norm(omega[j])), age))
        terms.append(cost.delta_hat(float(np.linalg.norm(nu[j])), age))
    terms = np.array(terms)
    plus_reduce(cost.mode, terms)      # raises on NaN terms, as the engines did
    return terms, pen


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


def _feasible_one(problem, prep, levels, record=False):
    K, y, prior = problem.horizon, problem.y_win[:, 0], float(problem.prior[0])
    pw, dw, gw = prep[0].widths(levels)[0], prep[1].widths(levels), prep[2].widths(levels)
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


def _reconstruct_one(problem, prep, level):
    model, K = problem.model, problem.horizon
    alive, intervals = _feasible_one(problem, prep, np.array([level]), record=True)
    if not alive[0]:
        return None
    gw = prep[2].widths(np.array([level]))[:, 0]
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
                            E.eval_cost(problem.cost, problem.prior, xs[0], omega, nu),
                            "ok", "max-interval", problem.prior.copy(), K)


def max_interval_window(problem):
    """The max-mode level bisection of one scalar window, one level grid and
    one scalar reconstruction at a time: the engine's algorithm without the
    row axis.  Returns the EstimateResult the engine gives that window."""
    model, K = problem.model, problem.horizon
    ages = list(range(K, 0, -1))
    prep = (E._WidthTable(problem.cost.beta_hat, [K]), E._WidthTable(problem.cost.delta_hat, ages),
            E._WidthTable(problem.cost.gamma_hat, ages))
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
        val = E.eval_cost(problem.cost, problem.prior, chi0, omega, nu)
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
