"""Moving-horizon stability machinery: contraction maps, iterated (hat)
bounds, horizon-envelope (bar) bounds, the sum-to-max conversion check, and
the exponential envelope of a linear contraction.

The logic follows one storyline.  Evaluating the full-information error bound
over one window of length K produces a map r -> b(alpha^{-1}(r), K); when
that map is a strict contraction (max formulation), or leaves room for a
proportional slack below a strict contraction (sum formulation), iterating it
across windows yields KL bounds for the moving-horizon estimator.  Sweeping
the horizon and taking envelopes shows the gains improve monotonically toward
the full-information ones.  When the contraction is linear, the hat bound
b_hat(r, t) is also fitted by an explicit rate C lam^t r (``rges_envelope``).

All conditions are verified on finite logarithmic grids; every artifact
carries the grid range it was checked on, and nothing beyond that range is
claimed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .comparison import (
    DomainError,
    GridEvidence,
    IteratedKL,
    KFn,
    KLFn,
    LinearK,
    PlusMode,
    ScaledShiftKL,
    SeparableGeometric,
    check_kl_on_grid,
    check_kl_slices,
    first_max,
    first_min,
    gain_terms,
    iterate_k,
    log_grid,
)
from .certificates import DerivedBounds

ANALYSIS_R_MIN = 1e-6
ANALYSIS_R_MAX = 1e3
ANALYSIS_POINTS_PER_DECADE = 48


def analysis_grid() -> np.ndarray:
    return log_grid(ANALYSIS_R_MIN, ANALYSIS_R_MAX, ANALYSIS_POINTS_PER_DECADE)


# ---------------------------------------------------------------------------
# Contraction maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundAlphaInvK(KFn):
    """kappa(r) = b(alpha^{-1}(r), K): the one-window error map."""

    b: KLFn
    alpha: KFn
    K: int

    def _eval(self, r):
        return self.b(self.alpha.inverse(r), self.K)

    @property
    def is_unbounded(self):
        return True


@dataclass(frozen=True)
class GapSlackK(KFn):
    """rho(r) = theta * (r - g(r)) for a strict contraction g."""

    theta: float
    g: KFn

    def _eval(self, r):
        return self.theta * (r - self.g._eval(r))

    @property
    def is_unbounded(self):
        return True


@dataclass(frozen=True)
class PlusSlackK(KFn):
    """kappa(r) = g(r) + rho(r): the tightened sum-mode contraction."""

    g: KFn
    rho: KFn

    def _eval(self, r):
        return self.g._eval(r) + self.rho._eval(r)

    @property
    def is_unbounded(self):
        return True


@dataclass(frozen=True)
class ZetaK(KFn):
    """zeta(r) = r + kappa(rho^{-1}(r)), the sum-to-max conversion gain."""

    kappa: KFn
    rho: KFn

    def _eval(self, r):
        return r + self.kappa(self.rho.inverse(r))

    @property
    def is_unbounded(self):
        return True


def _linear_coefficient(fn: KLFn, s: int, alpha: KFn) -> Optional[float]:
    slope = fn.r_slope(s)
    if slope is not None and isinstance(alpha, LinearK):
        return slope / alpha.c
    return None


@dataclass(frozen=True)
class ContractionAnalysis:
    """A passing (or failing) window contraction with its grid evidence."""

    mode: PlusMode
    K: int
    passed: bool
    kappa: Optional[KFn]
    rho: Optional[KFn]
    zeta: Optional[KFn]
    linear_rate: Optional[float]     # eta with kappa(r) = eta r, when linear
    worst_margin: float              # min over grid of (r - kappa(r)) / r
    worst_r: Optional[float]
    r_range: Tuple[float, float]
    notes: str = ""

    def __bool__(self):
        return self.passed

    @property
    def is_linear(self) -> bool:
        return self.linear_rate is not None


def find_contraction_max(bounds: DerivedBounds, alpha: KFn, K: int) -> ContractionAnalysis:
    """Max-mode contraction: kappa(r) = b(alpha^{-1}(r), K), checked strictly
    below the identity on the grid.

    This is the canonical choice; the relaxed distributivity inequality holds
    with equality for every K-function under maximization, so only strict
    contraction needs evidence.  On failure the smallest violating grid point
    is reported.
    """
    if bounds.mode is not PlusMode.MAX:
        raise DomainError("find_contraction_max requires max-mode bounds")
    grid = analysis_grid()
    eta = _linear_coefficient(bounds.b, K, alpha)
    kappa: KFn = LinearK(eta) if eta is not None else BoundAlphaInvK(bounds.b, alpha, K)
    margins = (grid - kappa(grid)) / grid
    worst = float(margins.min())
    passed = worst > 0.0
    worst_r = None if passed else float(grid[margins <= 0.0][0])
    linear_rate = eta if (eta is not None and 0.0 < eta < 1.0 and passed) else None
    return ContractionAnalysis(PlusMode.MAX, K, passed, kappa, None, None,
                               linear_rate, worst, worst_r,
                               (float(grid[0]), float(grid[-1])),
                               notes="kappa taken as the one-window error map")


def find_contraction_sum(bounds: DerivedBounds, alpha: KFn, K: int,
                         thetas: Sequence[float] = (0.25, 0.5)) -> ContractionAnalysis:
    """Sum-mode contraction with proportional slack.

    The slack family is rho(r) = theta * (r - g(r)) with g the one-window
    error map; the first theta whose kappa = g + rho stays strictly below the
    identity on the grid wins.  The conversion gain zeta(r) = r + kappa(rho
    ^{-1}(r)) is recorded together with the spot-check that zeta(r) > 2r.
    """
    if bounds.mode is not PlusMode.SUM:
        raise DomainError("find_contraction_sum requires sum-mode bounds")
    grid = analysis_grid()
    eta = _linear_coefficient(bounds.b, K, alpha)
    g: KFn = LinearK(eta) if eta is not None else BoundAlphaInvK(bounds.b, alpha, K)
    g_values = g(grid)
    g_margins = (grid - g_values) / grid
    if float(g_margins.min()) <= 0.0:
        viol = grid[g_margins <= 0.0]
        return ContractionAnalysis(PlusMode.SUM, K, False, None, None, None, None,
                                   float(g_margins.min()), float(viol[0]),
                                   (float(grid[0]), float(grid[-1])),
                                   notes="window error map is not a strict contraction")
    for theta in thetas:
        if eta is not None:
            rho: KFn = LinearK(theta * (1.0 - eta))
            kappa: KFn = LinearK(eta + theta * (1.0 - eta))
            zeta: KFn = LinearK(1.0 + kappa.c / rho.c)
            linear_rate = kappa.c
        else:
            rho = GapSlackK(theta, g)
            kappa = PlusSlackK(g, rho)
            zeta = ZetaK(kappa, rho)
            linear_rate = None
        kappa_values = kappa(grid)
        margins = (grid - kappa_values) / grid
        cond = (kappa_values - g_values - rho(grid)) / grid
        if float(margins.min()) > 0.0 and float(cond.min()) >= -1e-12:
            probe = grid[:: max(1, len(grid) // 16)]
            zeta_ratio = min((zeta(probe) / probe).tolist())
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


# ---------------------------------------------------------------------------
# Hat bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _MaxHatKL(KLFn):
    """Iterated window bound of the max formulation, and of the initial
    error of the sum formulation with theta = 2 b (the factor-2 split).

    value(r, t) = max( kappa^{floor(t/K)}(theta(r, t mod K)),
                       kappa^{floor(t/K)+1}(theta(r, 0)) );
    the second term only enforces monotonicity in t across window edges.
    """

    theta: KLFn
    kappa: KFn
    K: int

    def _eval(self, r, t):
        n, m = divmod(t, self.K)
        a = iterate_k(self.kappa, n, self.theta._eval(r, m))
        b = iterate_k(self.kappa, n + 1, self.theta._eval(r, 0))
        return max(a, b) if type(r) is float else np.maximum(a, b)

    def _slope(self, t):
        if not isinstance(self.kappa, LinearK):
            return None
        n, m = divmod(t, self.K)
        s_m, s_0 = self.theta._slope(m), self.theta._slope(0)
        if s_m is None or s_0 is None:
            return None
        return max(self.kappa.c ** n * s_m, self.kappa.c ** (n + 1) * s_0)


@dataclass(frozen=True)
class _SumHatGainKL(KLFn):
    """Disturbance gain of the sum formulation.

    value(r, t) = kappa^{floor(t/K)}( zeta( 2 * sum_{tau=1..K} base(r, tau) ) );
    the inner discounting is sacrificed, decay comes from the iteration.
    """

    base: KLFn
    kappa: KFn
    zeta: KFn
    K: int

    def _eval(self, r, t):
        window_sum = sum(self.base._eval(r, tau) for tau in range(1, self.K + 1))
        return iterate_k(self.kappa, t // self.K, self.zeta(2.0 * window_sum))

    def _slope(self, t):
        if not (isinstance(self.kappa, LinearK) and isinstance(self.zeta, LinearK)):
            return None
        slopes = [self.base._slope(tau) for tau in range(1, self.K + 1)]
        if any(s is None for s in slopes):
            return None
        n = t // self.K
        return self.kappa.c ** n * self.zeta.c * 2.0 * sum(slopes)


@dataclass(frozen=True)
class HatBounds:
    """The moving-horizon KL bound triple for one horizon K."""

    mode: PlusMode
    K: int
    b_hat: KLFn
    c_hat: KLFn
    d_hat: KLFn
    kappa: KFn
    analysis: ContractionAnalysis
    kl_evidence: Tuple[GridEvidence, ...]


def build_hat_bounds(analysis: ContractionAnalysis, bounds: DerivedBounds,
                     check_grid: bool = True) -> HatBounds:
    """Assemble the iterated bounds from a passing contraction analysis."""
    if not analysis.passed:
        raise DomainError("cannot build hat bounds from a failing analysis")
    if analysis.mode is not bounds.mode:
        raise DomainError("analysis and bounds must share one plus mode")
    K = analysis.K
    if analysis.mode is PlusMode.MAX:
        b_hat = _MaxHatKL(bounds.b, analysis.kappa, K)
        c_hat = _MaxHatKL(bounds.c, analysis.kappa, K)
        d_hat = _MaxHatKL(bounds.d, analysis.kappa, K)
    else:
        b_hat = _MaxHatKL(ScaledShiftKL(bounds.b, out_scale=2.0), analysis.kappa, K)
        c_hat = _SumHatGainKL(bounds.c, analysis.kappa, analysis.zeta, K)
        d_hat = _SumHatGainKL(bounds.d, analysis.kappa, analysis.zeta, K)
    evidence = ()
    if check_grid:
        grid = log_grid(ANALYSIS_R_MIN, ANALYSIS_R_MAX, 6)
        evidence = tuple(check_kl_on_grid(fn, grid, s_max=10 * K)
                         for fn in (b_hat, c_hat, d_hat))
        bad = [ev for ev in evidence if not ev.passed]
        if bad:
            raise DomainError(f"hat bound failed KL grid check: {bad[0].description}")
    return HatBounds(analysis.mode, K, b_hat, c_hat, d_hat, analysis.kappa, analysis, evidence)


# ---------------------------------------------------------------------------
# Bar bounds (horizon envelopes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarBounds:
    """Envelopes over the horizon sweep: theta_bar_K = sup over k >= K of the
    hat bounds, truncated at the largest swept horizon (recorded).  ``b_bar``
    evaluates the envelope of b_hat; ``kl_evidence`` holds the grid checks of
    all three envelopes, in (b, c, d) order."""

    K0: int
    K_max: int
    hat_family: Dict[int, HatBounds]
    convergence_gap: float
    monotone_evidence: GridEvidence
    kl_evidence: Tuple[GridEvidence, ...]

    def b_bar(self, K: int, r: float, t: int) -> float:
        values = (self.hat_family[k].b_hat(r, t) for k in range(max(K, self.K0), self.K_max + 1))
        if isinstance(r, np.ndarray):
            return functools.reduce(np.maximum, values)
        return max(values)


def build_bar_bounds(hat_family: Dict[int, HatBounds], K0: int, K_max: int,
                     bounds: DerivedBounds, t_max: int = 12) -> BarBounds:
    """Construct the envelopes and verify their contract on a grid.

    Requires a hat bound for every horizon in [K0, K_max] and a kappa family
    that decreases pointwise in K; reports (a) the convergence gap to the
    window-free bound at the largest horizon, (b) monotonicity in K, and (c)
    KL grid invariants of the envelopes.
    """
    for k in range(K0, K_max + 1):
        if k not in hat_family:
            raise DomainError(f"hat family must cover horizons {K0}..{K_max}; missing {k}")
    grid = log_grid(ANALYSIS_R_MIN, ANALYSIS_R_MAX, 4)
    for k in range(K0, K_max):
        ka, kb = hat_family[k].kappa, hat_family[k + 1].kappa
        rising = kb(grid) > ka(grid) * (1 + 1e-12)
        if rising.any():
            r = grid[int(np.argmax(rising))]
            raise DomainError(f"kappa family not pointwise decreasing at K={k}, r={r}")
    # The worst monotonicity margin is the first in (r, t, K) order: keep the
    # first minimum over (t, K) per grid point, then the first grid point.
    worst_per_r = np.full(len(grid), math.inf)
    worst_t = np.zeros(len(grid), dtype=int)
    gap = 0.0
    b_bars = _envelope_table(hat_family, "b_hat", K0, K_max, grid, t_max)
    for t in range(t_max + 1):
        prev = None
        for cur in b_bars[t]:
            if prev is not None:
                margin = prev - cur
                lower = margin < worst_per_r
                worst_per_r = np.where(lower, margin, worst_per_r)
                worst_t[lower] = t
            prev = cur
        b = bounds.b(grid, t)
        gap = max(gap, first_max(np.abs(prev - b) / np.where(b > 1e-300, b, 1e-300))[1])
    i, worst_mono = first_min(worst_per_r)
    worst_pt = (float(grid[0]), 0) if i is None else (float(grid[i]), int(worst_t[i]))
    mono = GridEvidence(worst_mono >= -1e-12, worst_mono, worst_pt,
                        "bar-bound monotonicity in K")
    if not mono.passed:
        raise DomainError("bar bounds are not monotone in the horizon")
    kl_grid = log_grid(1e-3, 1e2, 3)
    kl_ev = [check_kl_slices(kl_grid, _envelope_table(hat_family, name, K0, K_max, kl_grid,
                                                      t_max)[:, 0], t_max)
             for name in ("b_hat", "c_hat", "d_hat")]
    return BarBounds(K0, K_max, dict(hat_family), gap, mono, tuple(kl_ev))


def _envelope_table(hat_family: Dict[int, HatBounds], name: str, K0: int, K_max: int,
                    grid: np.ndarray, t_max: int) -> np.ndarray:
    """The envelopes of the hat bound ``name`` on the grid: entry [t, K - K0]
    is what :class:`BarBounds` gives at (K, grid, t) for t = 0..t_max and
    K = K0..K_max.  Each hat is evaluated once per t, and the envelopes are
    a running maximum from K_max down; the maximum is exact, so each entry
    is the envelope's own value."""
    table = np.empty((t_max + 1, K_max - K0 + 1, len(grid)))
    for t in range(t_max + 1):
        env = None
        for k in range(K_max, K0 - 1, -1):
            val = getattr(hat_family[k], name)(grid, t)
            env = val if env is None else np.maximum(val, env)
            table[t, k - K0] = env
    return table


def equality_threshold(hat_family: Dict[int, HatBounds], bounds: DerivedBounds,
                       r: float, t: int) -> Optional[int]:
    """Smallest swept horizon from which the hat bound equals the window-free
    bound at (r, t): needs floor(t/K) = 0 and the extra monotonicity term
    kappa_K(theta(r,0)) to have decayed below theta(r, t)."""
    for k in sorted(hat_family):
        if k <= t:
            continue
        if hat_family[k].kappa(bounds.b(r, 0)) < bounds.b(r, t):
            return k
    return None


# ---------------------------------------------------------------------------
# Sum-to-max conversion checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    passed: bool
    samples: int
    worst_margin: float
    detail: str

    def __bool__(self):
        return self.passed


def check_sum_to_max_lemma(kappa: KFn, rho: KFn, zeta: KFn, n_samples: int = 100_000,
                           n_sequences: int = 1000, seed: int = 0,
                           tol: float = 1e-12) -> LemmaReport:
    """Verify the two inequalities behind the sum-to-max conversion.

    (a) For random (e, D): kappa(e) - rho(e) + D <= max(kappa(e), zeta(D)).
    (b) For random nonnegative sequences and summable KL functions:
        sum_tau f(r_tau, tau) <= max_tau sum_s f(r_tau, s).
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    e_vals = 10.0 ** gen.uniform(-8, 3, n_samples)
    d_vals = 10.0 ** gen.uniform(-8, 3, n_samples)
    lhs = kappa(e_vals) - rho(e_vals) + d_vals
    rhs = np.maximum(kappa(e_vals), zeta(d_vals))
    worst = float(((rhs - lhs) / np.maximum(1.0, rhs)).min())
    if worst < -tol:
        return LemmaReport(False, n_samples, worst, "case-split inequality violated")
    # representative summable gains: geometric and iterated-composition
    kls = (SeparableGeometric(1.0, 1.0, 0.5),
           SeparableGeometric(2.0, 1.0, 0.75),
           IteratedKL(LinearK(0.5), LinearK(1.0)))
    worst_seq = math.inf
    for _ in range(n_sequences):
        T = int(gen.integers(1, 40))
        seq = 10.0 ** gen.uniform(-6, 2, T)
        ages = range(1, T + 1)
        for fn in kls:
            lhs = float(np.sum(gain_terms(fn, ages, seq)))
            rhs = float(np.max(sum(fn(seq, s) for s in ages)))
            worst_seq = min(worst_seq, (rhs - lhs) / max(1.0, rhs))
    passed = worst_seq >= -tol
    return LemmaReport(passed, n_samples + n_sequences,
                       min(worst, worst_seq),
                       "both conversion inequalities held" if passed
                       else "conservative sum bound violated")


# ---------------------------------------------------------------------------
# Exponential envelope for linear contractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialEnvelope:
    C: float
    lam: float
    worst_margin: float
    r_range: Tuple[float, float]

    def __bool__(self):
        return bool(self.C >= 1.0 and 0.0 < self.lam < 1.0 and self.worst_margin >= -1e-9)


def rges_envelope(hat: HatBounds, bounds: DerivedBounds, t_max: int = 60) -> ExponentialEnvelope:
    """For a linear contraction, fit C, lam with b_hat(r, t) <= C lam^t r.

    lam combines the per-window contraction rate with the within-window decay
    of b; C is then measured on the grid.
    """
    analysis = hat.analysis
    if analysis.linear_rate is None:
        raise DomainError("exponential envelope requires a linear contraction")
    K = hat.K
    grid = log_grid(ANALYSIS_R_MIN, ANALYSIS_R_MAX, 4)
    probes = grid[:: max(1, len(grid) // 8)].tolist()      # Python floats: C is a float
    eta = analysis.linear_rate
    decay = 0.0
    for r in probes:
        for m in range(K):
            num, den = bounds.b(r, m + 1), bounds.b(r, m)
            if den > 0:
                decay = max(decay, num / den)
    lam = max(eta ** (1.0 / K), decay)
    if lam >= 1.0:
        lam = 1.0 - 1e-12
    C = 1.0
    for r in probes:
        for t in range(t_max + 1):
            val = hat.b_hat(r, t)
            C = max(C, val / (lam ** t * r))
    worst = math.inf
    for r in probes:
        for t in range(t_max + 1):
            worst = min(worst, C * lam ** t * r - hat.b_hat(r, t))
    return ExponentialEnvelope(C, lam, worst, (float(grid[0]), float(grid[-1])))
