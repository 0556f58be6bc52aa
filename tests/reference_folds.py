"""Scalar reference folds of the grid checks.

Each function here evaluates the comparison functions one grid point at a
time, in the loop order the library's checks define, exactly as the checks
did before they were rewritten to make one array call per age.  The
differential tests in ``test_array_eval.py`` assert that the library's array
versions return the same evidence, field for field, with ``==``.

Partial sums are folded with explicit ``partial = partial + term`` loops, the
plain left-to-right addition the array versions use.
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

