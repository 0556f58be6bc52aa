"""Window estimators: cost evaluation, the window solve, and the full- and
moving-horizon drivers.

The optimization problem is always the same shape: pick an initial window
state and a process-disturbance sequence, roll the dynamics forward, read the
measurement residuals off the output equations, and score everything with the
discounted stage cost.  Measurement-noise variables are eliminated exactly
whenever the output map is additive in the noise (all built-in plants), so
window solutions satisfy the solution-set constraint to rounding error.
Nothing else constrains a window, and no engine reads the suboptimality
factor A: ``certify_suboptimality`` applies it to each solved window.

Three engines back ``solve_window``:

* max-mode costs on scalar plants are solved by bisection on the achievable
  cost level; the feasible set at a level is an interval propagated through
  exact interval images of the transition map, so the solve is exact up to
  the bisection resolution,
* sum-mode costs with stage terms linear in the residual magnitude on scalar
  affine plants reduce to a chain of infimal convolutions of convex
  piecewise-linear value functions, which is solved exactly,
* everything else goes through the configured iterative method: a damped
  Gauss-Newton on smoothed residuals with escalating output penalties, or a
  deterministic multistart compass search.

The structured engines are fast paths used by both configured methods; they
exist because the acceptance sweeps solve tens of thousands of windows.

The drivers ``run_fie``/``run_mhe`` step a stack of cells in lock-step: at
each t the windows of all cells share the plant, cost, inputs and length
and differ in their outputs and priors.  The max-mode engine solves them as
one group, one row per window, with levels of shape (C, 48); its per-window
branches are masks over the rows, and every row uses exactly the arithmetic
of its window solved alone; a failing row raises ``InfeasibleWindowError``
for its whole group.  ``solve_window`` is a group of one.  The sum-mode and
generic engines take the windows one at a time.

The iterative methods evaluate their candidates in batches: one array pass
rolls the plant forward for every candidate and calls each cost gain once
per age.  Gauss-Newton evaluates step length 1 with its Jacobian points and
the step's halvings in one batch, and compass evaluates the rest of a sweep
in one batch.  The iterates are those of evaluating one candidate at a
time, bit for bit; a candidate that algorithm would not have evaluated can
neither raise nor change the result.  This needs plant maps that accept a
leading batch axis (see :mod:`mhestab.systems`).

``eval_cost``, the cost that is reported and certified, follows the rule of
the error bounds in :mod:`mhestab.certificates`: ``gain_terms`` evaluates
each gain over the window's ages (a slope product when every slice is
linear in r, otherwise one call per term), and ``fold_terms`` combines
them.  The engines' objective stays separate: it calls each gain once per
age on a column of candidates and folds left to right like ``plus_reduce``,
and moving it onto the slope products would move the iterates pinned by
``tests/golden_generic.json``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .comparison import (
    CapabilityError,
    DomainError,
    PlusMode,
    fold_terms,
    gain_terms,
    plus_reduce,
    seq_norms,
    slope_table,
)
from .certificates import CostSpec
from .systems import SolutionTuple, SystemModel, clamp, verify_solution

WIDTH_CAP = 1e18
LEVEL_PASSES = 4          # level-grid refinements of the max-mode bisection


class HorizonCapError(RuntimeError):
    """Requested full-information horizon exceeds the configured cap."""


class InfeasibleWindowError(RuntimeError):
    """No finite-cost candidate trajectory, or a failed level reconstruction."""


@dataclass(frozen=True, eq=False)
class EstimationProblem:
    model: SystemModel
    cost: CostSpec
    prior: np.ndarray
    u_win: np.ndarray
    y_win: np.ndarray
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "prior", np.atleast_1d(np.asarray(self.prior, dtype=float)))
        u = np.asarray(self.u_win, dtype=float)
        y = np.asarray(self.y_win, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if y.ndim == 1:
            y = y[:, None]
        object.__setattr__(self, "u_win", u)
        object.__setattr__(self, "y_win", y)
        if self.horizon < 1:
            raise DomainError("window horizon must be >= 1")
        if len(u) != self.horizon or len(y) != self.horizon:
            raise DomainError("window sequences must have length equal to the horizon")
        m = self.model
        if (self.prior.shape, u.shape[1:], y.shape[1:]) != ((m.state_dim,), (m.input_dim,),
                                                             (m.output_dim,)):
            raise DomainError(f"window prior {self.prior.shape}, inputs {u.shape} and outputs "
                              f"{y.shape} do not fit plant {m.name!r}")


@dataclass(eq=False)
class EstimateResult:
    xhat: np.ndarray      # (K+1, n) window states including the published endpoint
    what: np.ndarray      # (K, q)
    vhat: np.ndarray      # (K, m)
    cost: float
    status: str
    engine: str
    prior: np.ndarray
    horizon: int
    iterations: int = 0
    residual: float = 0.0
    starts_used: int = 1

    @property
    def published(self) -> np.ndarray:
        return self.xhat[-1]

    def as_solution(self, model: SystemModel, u_win: np.ndarray) -> SolutionTuple:
        """The window part of the estimate as a solution tuple (reproduces the
        measured outputs through the estimated measurement noise)."""
        ys = np.array([np.atleast_1d(model.h(self.xhat[j], u_win[j], self.vhat[j]))
                       for j in range(self.horizon)])
        return SolutionTuple(self.xhat[:-1], u_win, self.what, self.vhat, ys)


@dataclass(frozen=True)
class SolverConfig:
    """Deterministic solver settings.

    ``use_structured`` lets both methods take the exact scalar engines when
    the window has the right shape; switching it off forces the generic
    iteration, which the tests use to cross-check the fast paths.
    """

    method: str = "gauss_newton_penalty"
    multistart: int = 4
    max_iter: int = 60
    penalty_schedule: Tuple[float, ...] = (1e2, 1e4, 1e6, 1e8)
    tol: float = 1e-10
    seed: int = 0
    use_structured: bool = True

    METHODS = ("gauss_newton_penalty", "multistart_local")

    def __post_init__(self):
        if self.method not in self.METHODS:
            raise DomainError(f"unknown solver method {self.method!r}")


@dataclass(frozen=True)
class CertificationRecord:
    passed: bool
    ratio: float
    achieved: float
    reference: float

    def __bool__(self):
        return self.passed


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------

def eval_cost(cost: CostSpec, prior, chi0, omega_seq, nu_seq) -> float:
    """Discounted window cost of a candidate (initial state, disturbances).

    Window sequences are in time order: entry j of ``omega_seq`` acts at age
    K - j, the prior mismatch is discounted by the full window length K.
    """
    prior = np.atleast_1d(np.asarray(prior, dtype=float))
    chi0 = np.atleast_1d(np.asarray(chi0, dtype=float))
    omega = np.asarray(omega_seq, dtype=float)
    nu = np.asarray(nu_seq, dtype=float)
    if omega.ndim == 1:
        omega = omega[:, None]
    if nu.ndim == 1:
        nu = nu[:, None]
    if len(omega) != len(nu):
        raise DomainError("omega and nu sequences must share the window length")
    if len(omega) < 1:
        raise DomainError("window must contain at least one step")
    return _window_costs(cost, prior[None], chi0[None], omega[None], nu[None])[0]


def _window_costs(cost: CostSpec, prior: np.ndarray, chi0: np.ndarray, omega: np.ndarray,
                  nu: np.ndarray) -> List[float]:
    """:func:`eval_cost` of C windows of one length: prior and chi0 (C, n),
    omega (C, K, q), nu (C, K, m).  Each gain and the fold take one array
    call, and each row's cost is its window's alone."""
    K = omega.shape[1]
    ages = range(K, 0, -1)             # entry j acts at age K - j
    dist = np.sqrt(_row_sqnorms(chi0 - prior))        # np.linalg.norm of each row
    heads = gain_terms(cost.beta_hat, range(K, K + 1), dist[:, None])[:, 0]
    c_terms = gain_terms(cost.gamma_hat, ages, seq_norms(omega))
    d_terms = gain_terms(cost.delta_hat, ages, seq_norms(nu))
    return fold_terms(cost.mode, heads, c_terms, d_terms).tolist()


# ---------------------------------------------------------------------------
# Window groups and shared helpers
# ---------------------------------------------------------------------------

class _Rows:
    """A group of windows, one row each, that share the plant, cost,
    horizon and inputs and differ in their priors (R, n) and outputs
    (R, K, p).  Every helper below works elementwise along the rows, so a
    row's numbers are those of its window solved alone."""

    def __init__(self, problems: Sequence[EstimationProblem]):
        first = problems[0]
        self.problems = list(problems)
        self.model, self.cost, self.K = first.model, first.cost, first.horizon
        self.u_win = first.u_win
        self.prior = np.array([p.prior for p in problems])
        self.y = np.array([p.y_win for p in problems])

    def __len__(self) -> int:
        return len(self.problems)

    def take(self, idx) -> "_Rows":
        return _Rows([self.problems[i] for i in idx])


def _rollout(rows: _Rows, chi0: np.ndarray, omega: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """States (R, K, n) from chi0 (R, n) under omega (R, K, q), plus the
    one-step endpoints (R, n)."""
    model, K = rows.model, rows.K
    xs = np.empty((len(rows), K, model.state_dim))
    x = chi0
    for j in range(K):
        xs[:, j] = x
        x = model.f(x, rows.u_win[j], omega[:, j])
    return xs, x


def _eliminated_nu(rows: _Rows, xs: np.ndarray) -> np.ndarray:
    model, K = rows.model, rows.K
    nu = np.empty((len(rows), K, model.meas_noise_dim))
    for j in range(K):
        nu[:, j] = rows.y[:, j] - model.h_nominal(xs[:, j], rows.u_win[j])
    return nu


def _candidate_starts(rows: _Rows) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Deterministic initializations (chi0 (R, n), omega (R, K, q)): prior
    rollout, then an output-informed start when the plant is scalar with
    additive measurement noise."""
    model, K = rows.model, rows.K
    starts = [(rows.prior.copy(), np.zeros((len(rows), K, model.process_noise_dim)))]
    if model.is_scalar and model.additive_v and model.additive_w:
        y = rows.y
        omega = np.zeros((len(rows), K, 1))
        for j in range(K - 1):
            omega[:, j] = y[:, j + 1] - model.f_nominal(y[:, j], rows.u_win[j])
        starts.append((y[:, 0].copy(), omega))
    return starts


def _results_from_decisions(rows: _Rows, chi0: np.ndarray, omega: np.ndarray, engine: str,
                            iterations: int = 0, starts_used: int = 1) -> List[EstimateResult]:
    # dynamics hold exactly by construction (states rolled forward, noise read
    # off the transitions); the residual field records output mismatch only,
    # which elimination makes zero
    xs, endpoint = _rollout(rows, chi0, omega)
    nu = _eliminated_nu(rows, xs)
    costs = _window_costs(rows.cost, rows.prior, xs[:, 0], omega, nu)
    xhat = np.concatenate([xs, endpoint[:, None]], axis=1)
    return [EstimateResult(xhat[i], omega[i], nu[i], costs[i], "ok", engine,
                           problem.prior.copy(), rows.K,
                           iterations=iterations, starts_used=starts_used)
            for i, problem in enumerate(rows.problems)]


# ---------------------------------------------------------------------------
# Engine A: max-mode level bisection on scalar plants
# ---------------------------------------------------------------------------

N_LEVELS = 48             # levels per bisection pass


class _WidthTable:
    """Per-age halfwidth evaluator fn(., age)^{-1}(level), slope-cached.

    Linear slices use a vectorized inverse-slope product; general slices fall
    back to per-level inversion.  Widths are capped: a deeply discounted term
    is effectively unconstrained at any respectable level.
    """

    def __init__(self, fn, ages: Sequence[int]):
        self.fn = fn
        self.ages = list(ages)
        table = slope_table(fn, max(ages))
        if table is not None and np.all(table[list(ages)] > 0):
            self.inv = 1.0 / table[list(ages)]
        else:
            self.inv = None

    def widths(self, levels: np.ndarray) -> np.ndarray:
        """Halfwidths (ages, *levels.shape)."""
        if self.inv is not None:
            return np.minimum(self.inv.reshape((-1,) + (1,) * levels.ndim) * levels, WIDTH_CAP)
        out = np.empty((len(self.ages),) + levels.shape)
        for i, age in enumerate(self.ages):
            for idx, lev in np.ndenumerate(levels):
                if lev <= 0.0:
                    out[(i,) + idx] = 0.0
                    continue
                try:
                    out[(i,) + idx] = min(self.fn.r_inverse(lev, age), WIDTH_CAP)
                except CapabilityError:
                    out[(i,) + idx] = WIDTH_CAP
        return out


def _max_prepare(rows: _Rows):
    ages = list(range(rows.K, 0, -1))
    return (_WidthTable(rows.cost.beta_hat, [rows.K]),
            _WidthTable(rows.cost.delta_hat, ages),
            _WidthTable(rows.cost.gamma_hat, ages))


def _max_feasible(rows: _Rows, prep, levels: np.ndarray, record: bool = False):
    """Interval-propagation feasibility of `max cost <= level` per row and
    level; ``levels`` is (R, L), one row of levels per window.

    Once an interval goes empty its level stays dead through the latched
    ``alive`` mask; the interval values themselves keep propagating (they stay
    finite because widths are capped) and are ignored.
    """
    model, K = rows.model, rows.K
    y = rows.y[:, :, 0].T[:, :, None]          # (K, R, 1)
    pw = prep[0].widths(levels)[0]
    dw = prep[1].widths(levels)
    gw = prep[2].widths(levels)
    lo = rows.prior - pw
    hi = rows.prior + pw
    alive = np.ones(levels.shape, dtype=bool)
    intervals = []
    for j in range(K):
        lo = np.maximum(lo, y[j] - dw[j])
        hi = np.minimum(hi, y[j] + dw[j])
        alive &= lo <= hi
        if record:
            lo, hi = np.where(alive, lo, 0.0), np.where(alive, hi, 0.0)
            intervals.append((lo, hi))
        if j < K - 1:
            img_lo, img_hi = model.f_image(lo, hi, rows.u_win[j])
            lo = img_lo - gw[j]
            hi = img_hi + gw[j]
    return (alive, intervals) if record else (alive, None)


def _max_reconstruct(rows: _Rows, prep, levels: np.ndarray) -> List[Optional[EstimateResult]]:
    """A feasible trajectory per row at its cost level (R,), or None for a
    row whose level is infeasible."""
    model, K = rows.model, rows.K
    alive, intervals = _max_feasible(rows, prep, levels[:, None], record=True)
    ok = np.flatnonzero(alive[:, 0])
    out: List[Optional[EstimateResult]] = [None] * len(rows)
    if not len(ok):
        return out
    ivs = [(lo[ok, 0], hi[ok, 0]) for lo, hi in intervals]
    gw = prep[2].widths(levels[ok])
    chis = np.empty((len(ok), K))
    chis[:, K - 1] = 0.5 * (ivs[K - 1][0] + ivs[K - 1][1])
    for j in range(K - 2, -1, -1):
        lo_j, hi_j = ivs[j]
        img_lo, img_hi = model.f_image(lo_j, hi_j, rows.u_win[j])
        target = clamp(chis[:, j + 1], img_lo - gw[j], img_hi + gw[j])
        chis[:, j] = model.f_solve(clamp(target, img_lo, img_hi), lo_j, hi_j, rows.u_win[j])
    omega = np.zeros((len(ok), K, 1))
    for j in range(K - 1):
        omega[:, j, 0] = chis[:, j + 1] - model.f_nominal(chis[:, j, None], rows.u_win[j])[:, 0]
    for i, res in zip(ok, _results_from_decisions(rows.take(ok), chis[:, :1], omega,
                                                  "max-interval")):
        out[i] = res
    return out


def _spaced_rows(space, lo: np.ndarray, hi: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """``space(lo[i], hi[i], N_LEVELS)`` for every row i, as (R, N_LEVELS).

    With array endpoints numpy applies its zero-step branch (``spans`` / (N
    - 1) == 0, as for equal endpoints) to the whole array when one row needs
    it; rows with and without a zero step are therefore spaced apart.
    """
    zero = spans / (N_LEVELS - 1) == 0
    if not zero.any() or zero.all():
        return space(lo, hi, N_LEVELS, axis=1)
    out = np.empty((len(lo), N_LEVELS))
    for part in (zero, ~zero):
        out[part] = space(lo[part], hi[part], N_LEVELS, axis=1)
    return out


def _solve_max_scalar(problems: Sequence[EstimationProblem]) -> List[EstimateResult]:
    """Max-mode level bisection for a group of windows (see :class:`_Rows`).

    The per-row branches -- the zero-level exit, the top-level guard and
    the bump loop -- are masks over the rows, and every row ends with the
    result of its window solved alone.  A row without a finite-cost
    candidate, or whose reconstruction fails, raises for the whole group.
    """
    rows = _Rows(problems)
    prep = _max_prepare(rows)
    # guaranteed-feasible upper bracket from candidate trajectories
    s_hi = np.full(len(rows), math.inf)
    for chi0, omega in _candidate_starts(rows):
        xs, _ = _rollout(rows, chi0, omega)
        val = np.array(_window_costs(rows.cost, rows.prior, chi0, omega,
                                     _eliminated_nu(rows, xs)))
        s_hi = np.where(np.isfinite(val) & (val < s_hi), val, s_hi)
    if not np.isfinite(s_hi).all():
        raise InfeasibleWindowError("no finite-cost candidate trajectory")
    results: List[Optional[EstimateResult]] = [None] * len(rows)
    zero = np.flatnonzero((s_hi == 0.0)
                          | _max_feasible(rows, prep, np.zeros((len(rows), 1)))[0][:, 0])
    if len(zero):
        for i, res in zip(zero, _max_reconstruct(rows.take(zero), prep, np.zeros(len(zero)))):
            results[i] = res
    todo = np.array([i for i, res in enumerate(results) if res is None], dtype=int)
    if not len(todo):
        return results
    sub = rows.take(todo)
    at = np.arange(len(todo))
    lo = np.zeros(len(todo))
    hi = np.maximum(s_hi[todo], 1e-300)
    start = np.maximum(hi * 1e-14, 1e-300)
    levels = _spaced_rows(np.geomspace, start, hi, np.log10(hi) - np.log10(start))
    for _ in range(LEVEL_PASSES):
        mask, _ = _max_feasible(sub, prep, levels)
        top = mask[:, -1]
        first = np.argmax(mask, axis=1)
        # numeric guard: the top level should be feasible by construction
        lo = np.where(top & (first > 0), levels[at, first - 1], lo)
        hi = np.where(top, levels[at, first], hi * (1 + 1e-9) + 1e-300)
        levels = _spaced_rows(np.linspace, lo, hi, hi - lo)[:, 1:]
    bump = hi
    pending = at
    for _ in range(6):
        solved = _max_reconstruct(sub.take(pending), prep, bump[pending])
        for i, res in zip(pending, solved):
            results[todo[i]] = res
        pending = pending[[res is None for res in solved]]
        if not len(pending):
            break
        bump[pending] = bump[pending] * (1 + 1e-9) + 1e-300
    if len(pending):
        raise InfeasibleWindowError("level reconstruction failed")
    for i in todo:
        results[i].iterations = LEVEL_PASSES
    return results


# ---------------------------------------------------------------------------
# Engine B: sum-mode L1 dynamic programming on scalar affine plants
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
    def abs_term(center: float, weight: float) -> "_PWL":
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
        slopes = []
        for i in range(len(xs) + 1):
            probe_left = xs[0] - 1.0 if i == 0 else xs[i - 1]
            slopes.append(self._slope_right(probe_left) + other._slope_right(probe_left))
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
            raise DomainError("argument scaling needs a nonzero coefficient")
        xs = [a * x + off for x in self.xs]
        slopes = [s / a for s in self.slopes]
        if a > 0:
            return _PWL(xs, slopes, self.value(self.xs[0]))
        xs = xs[::-1]
        slopes = slopes[::-1]
        return _PWL(xs, slopes, self.value(self.xs[-1]))

    def min(self) -> Tuple[float, float, float]:
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


def _sum_weights(problem: EstimationProblem):
    cost, K = problem.cost, problem.horizon
    b_table = slope_table(cost.beta_hat, K)
    g_table = slope_table(cost.gamma_hat, K)
    d_table = slope_table(cost.delta_hat, K)
    if b_table is None or g_table is None or d_table is None:
        return None
    ages = list(range(K, 0, -1))
    return float(b_table[K]), [float(g_table[a]) for a in ages], [float(d_table[a]) for a in ages]


def _solve_sum_scalar(problem: EstimationProblem, cfg: SolverConfig) -> EstimateResult:
    model, K = problem.model, problem.horizon
    a = float(model.linear_a)
    y = problem.y_win[:, 0]
    p_w, g_w, d_w = _sum_weights(problem)
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
    return _results_from_decisions(_Rows([problem]), chis[None, :1], omega[None],
                                   "sum-pwl-dp")[0]


# ---------------------------------------------------------------------------
# Engine C: generic iterative solvers
# ---------------------------------------------------------------------------

_EPS = 1e-12

# the Gauss-Newton step lengths tried after 1: 1/2, 1/4, ..., 2**-24
_HALVINGS = np.ldexp(1.0, -np.arange(1, 25))


def _row_sqnorms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis, rounded as numpy rounds
    the dot product of one row (``np.linalg.norm``, ``@``): a product for one
    column, else a stacked ``matmul``, which takes the same BLAS dot per row.
    ``einsum`` and ``(a * a).sum(-1)`` round differently."""
    if a.shape[-1] == 1:
        return a[..., 0] * a[..., 0]
    a = np.ascontiguousarray(a)
    return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


class _Objective:
    """The window objective of the generic engines, over a batch of candidates.

    A candidate z stacks the initial state chi0 (n), the disturbances omega
    (K x q) and, when the output map is not additive in the noise, the
    measurement noise nu (K x m); otherwise nu is read off the outputs.
    :meth:`evaluate` maps candidates Z (B, dim) to their cost terms
    (B, 2K+1), ordered beta_hat, then gamma_hat and delta_hat of each window
    step in time order; their output penalties (B,); and the mask of rows
    whose evaluation alone raises (a NaN distance, a NaN or negative term).
    Each gain is called once per age on the whole column, and every row is
    computed by exactly the arithmetic of evaluating that candidate alone,
    so batching moves no iterate.  A masked row raises only when an engine
    reads it: :class:`_Batch` then recomputes it alone through
    :meth:`strict`.  A row that is never read can neither raise nor change
    the result.
    """

    def __init__(self, problem: EstimationProblem):
        model = problem.model
        self.problem = problem
        self.eliminate = model.additive_v
        self.n, self.q, self.m = model.state_dim, model.process_noise_dim, model.meas_noise_dim
        self.n_omega = problem.horizon * self.q
        self.dim = self.n + self.n_omega + (0 if self.eliminate else problem.horizon * self.m)

    def unpack(self, z: np.ndarray):
        K, n, end = self.problem.horizon, self.n, self.n + self.n_omega
        nu = None if self.eliminate else z[end:].reshape(K, self.m)
        return z[:n], z[n:end].reshape(K, self.q), nu

    def evaluate(self, Z: np.ndarray):
        """``(terms, penalties, masked)`` of the candidate rows Z."""
        try:
            with np.errstate(all="ignore"):
                return self._evaluate(Z, strict=False)
        except Exception:
            # a plant map or gain failed on some row, which need not be one
            # the engine reads: mask every row, so each read recomputes its
            # row alone and the failing one raises there
            B = len(Z)
            return (np.full((B, 2 * self.problem.horizon + 1), np.nan), np.full(B, np.nan),
                    np.ones(B, dtype=bool))

    def strict(self, z: np.ndarray):
        """``(terms, penalties)`` of the one candidate z, as one-row arrays;
        raises what evaluating z alone raises."""
        terms, pen, _ = self._evaluate(z[None, :], strict=True)
        plus_reduce(self.problem.cost.mode, terms[0])      # NaN or negative terms
        return terms, pen

    def _evaluate(self, Z: np.ndarray, strict: bool):
        problem = self.problem
        model, cost, K = problem.model, problem.cost, problem.horizon
        B, n, end = len(Z), self.n, self.n + self.n_omega
        chi0 = Z[:, :n]
        omega = Z[:, n:end].reshape(B, K, self.q)
        xs = np.empty((B, K, n))
        x = chi0
        for j in range(K):
            xs[:, j] = x
            if j < K - 1:           # the endpoint is not scored
                x = model.f(x, problem.u_win[j], omega[:, j])
        pen = np.zeros(B)
        if self.eliminate:
            nu = np.empty((B, K, self.m))
            for j in range(K):
                nu[:, j] = problem.y_win[j] - model.h_nominal(xs[:, j], problem.u_win[j])
        else:
            nu = Z[:, end:].reshape(B, K, self.m)
            for j in range(K):
                res = problem.y_win[j] - model.h(xs[:, j], problem.u_win[j], nu[:, j])
                pen = pen + _row_sqnorms(res)
        dist = np.sqrt(_row_sqnorms(chi0 - problem.prior))
        wn = np.sqrt(_row_sqnorms(omega))
        vn = np.sqrt(_row_sqnorms(nu))
        masked = np.isnan(dist) | np.isnan(wn).any(axis=1) | np.isnan(vn).any(axis=1)
        if not strict and masked.any():
            dist, wn, vn = (np.where(np.isnan(a), 0.0, a) for a in (dist, wn, vn))
        terms = np.empty((B, 2 * K + 1))
        terms[:, 0] = cost.beta_hat(dist, K)
        for j in range(K):
            terms[:, 1 + 2 * j] = cost.gamma_hat(wn[:, j], K - j)
            terms[:, 2 + 2 * j] = cost.delta_hat(vn[:, j], K - j)
        masked |= ~(terms >= 0.0).all(axis=1)
        return terms, pen, masked

    def values(self, terms: np.ndarray, pen: np.ndarray, mu: float) -> np.ndarray:
        """``plus_reduce`` of each row of terms plus mu times its penalty,
        folded one column at a time from 0.0 as ``plus_reduce`` folds."""
        total = np.zeros(len(terms))
        if self.problem.cost.mode is PlusMode.SUM:
            for col in terms.T:
                total = total + col
        else:
            for col in terms.T:
                total = np.where(col > total, col, total)
        return total + mu * pen

    def residual_rows(self, terms: np.ndarray, pen: np.ndarray, power: float,
                      mu: float) -> np.ndarray:
        """The Gauss-Newton residual vectors: sqrt((term + eps)**power) per
        term, then sqrt(mu * penalty + eps) when nu is a decision variable."""
        rows = np.sqrt(np.power(terms + _EPS, power))
        if self.eliminate:
            return rows
        return np.concatenate([rows, np.sqrt(mu * pen + _EPS)[:, None]], axis=1)


class _Batch:
    """Candidate rows Z and what an engine reads of them, ``derive(terms,
    penalties)`` row by row.  ``row(k)`` reads row k; a masked row is
    recomputed alone there, raising what evaluating it alone raises.  Rows
    must be read in the order the one-candidate algorithm evaluates them."""

    def __init__(self, objective: _Objective, Z: np.ndarray, derive):
        self.objective, self.Z, self.derive = objective, Z, derive
        terms, pen, self.masked = objective.evaluate(Z)
        with np.errstate(all="ignore"):
            self.rows = derive(terms, pen)

    def row(self, k: int):
        if self.masked[k]:
            self.rows[k] = self.derive(*self.objective.strict(self.Z[k]))[0]
            self.masked[k] = False
        return self.rows[k]


def _generic_starts(problem: EstimationProblem, cfg: SolverConfig, dim: int) -> List[np.ndarray]:
    model, K = problem.model, problem.horizon
    n, q = model.state_dim, model.process_noise_dim
    base = []
    for chi0, omega in _candidate_starts(_Rows([problem])):
        z = np.zeros(dim)
        z[:n] = chi0[0]
        z[n:n + K * q] = omega[0].ravel()
        base.append(z)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    spread = max(1.0, float(np.max(np.abs(problem.y_win))), float(np.max(np.abs(problem.prior))))
    while len(base) < max(1, cfg.multistart):
        z = base[0] + gen.normal(0.0, 0.3 * spread, dim)
        base.append(z)
    return base[: max(1, cfg.multistart)]


def _compass_search(objective: _Objective, z0: np.ndarray, mu: float, max_iter: int,
                      tol: float) -> Tuple[np.ndarray, int]:
    """Compass search on the objective plus mu times the output penalty.

    Each sweep tries every coordinate in turn, a step up and then a step
    down, and moves to the first candidate that improves, growing that
    coordinate's step; a sweep without a move halves every step.  The rest
    of a sweep is evaluated from the current point in one batch and read in
    order; after a move the batch is dropped and a new one starts at the
    next coordinate.
    """
    dim = len(z0)
    z = z0.copy()
    derive = lambda terms, pen: objective.values(terms, pen, mu)
    best = _Batch(objective, z[None, :], derive).row(0)
    step = np.maximum(0.25, 0.1 * np.abs(z))
    signs = np.tile([1.0, -1.0], dim)
    iters = 0
    for _ in range(max_iter):
        improved = False
        i = 0
        while i < dim:
            coords = np.repeat(np.arange(i, dim), 2)
            rows = np.arange(len(coords))
            cands = np.repeat(z[None, :], len(coords), axis=0)
            cands[rows, coords] += signs[2 * i:] * step[coords]
            batch = _Batch(objective, cands, derive)
            i = dim
            for k in rows:
                val = batch.row(k)
                iters += 1
                if val < best - 1e-300:
                    z, best = cands[k], val
                    step[coords[k]] *= 1.6
                    improved = True
                    i = coords[k] + 1
                    break
        if not improved:
            step *= 0.5
            if float(np.max(step)) < tol:
                break
    return z, iters


def _solve_multistart_local(problem: EstimationProblem, cfg: SolverConfig) -> EstimateResult:
    objective = _Objective(problem)
    schedule = (0.0,) if objective.eliminate else cfg.penalty_schedule

    best = None
    for idx, z0 in enumerate(_generic_starts(problem, cfg, objective.dim)):
        z = z0
        iters = 0
        for mu in schedule:
            z, it = _compass_search(objective, z, mu, cfg.max_iter, cfg.tol)
            iters += it
        key = (plus_reduce(problem.cost.mode, objective.strict(z)[0][0]), idx)
        if best is None or key < best[0]:
            best = (key, z, iters, idx)
    _, z, iters, idx = best
    return _generic_result(objective, z, "compass", iters, idx + 1)


def _generic_result(objective: _Objective, z: np.ndarray, engine: str, iters: int,
                    starts: int) -> EstimateResult:
    problem = objective.problem
    rows = _Rows([problem])
    chi0, omega, nu = objective.unpack(z)
    if objective.eliminate:
        return _results_from_decisions(rows, chi0[None], omega[None], engine, iters, starts)[0]
    model, K = problem.model, problem.horizon
    xs, endpoint = _rollout(rows, chi0[None], omega[None])
    xs = xs[0]
    j_val = plus_reduce(problem.cost.mode, objective.strict(z)[0][0])
    xhat = np.vstack([xs, endpoint])
    res = EstimateResult(xhat, np.asarray(omega, float), np.asarray(nu, float), j_val,
                         "ok", engine, problem.prior.copy(), K,
                         iterations=iters, starts_used=starts)
    worst = 0.0
    for j in range(K):
        out = np.atleast_1d(model.h(xs[j], problem.u_win[j], nu[j]))
        worst = max(worst, float(np.linalg.norm(problem.y_win[j] - out)))
    res.residual = worst
    if worst > 1e-6:
        res.status = "penalty-residual"
    return res


def _fd_steps(z: np.ndarray) -> np.ndarray:
    return 1e-6 * np.maximum(1.0, np.abs(z))


def _with_probes(z: np.ndarray) -> np.ndarray:
    """The rows z, z + h_0 e_0, ..., z + h_{dim-1} e_{dim-1}: a point and the
    points of its forward-difference Jacobian."""
    dim = len(z)
    Z = np.repeat(z[None, :], dim + 1, axis=0)
    Z[np.arange(1, dim + 1), np.arange(dim)] += _fd_steps(z)
    return Z


def _line_search(objective: _Objective, z: np.ndarray, step: np.ndarray, f0: float,
                 derive):
    """``(alpha, batch, k)`` for the first alpha of 1, 1/2, ..., 2**-24 whose
    candidate z + alpha step, row k of the batch, has a squared residual
    below f0; None if there is none.

    One batch holds z + step and its Jacobian points (rows 0..dim), which
    the next iteration reads when step length 1 is accepted, then the 24
    halvings.  Rows are read in the order the candidates are tried, so rows
    after the accepted one are never read.
    """
    probes = _with_probes(z + step)
    batch = _Batch(objective, np.vstack([probes, z + _HALVINGS[:, None] * step]), derive)
    tries = [(0, 1.0)] + [(len(probes) + k, float(a)) for k, a in enumerate(_HALVINGS)]
    for k, alpha in tries:
        rc = batch.row(k)
        if float(rc @ rc) < f0 - 1e-300:
            return alpha, batch, k
    return None


def _solve_gauss_newton(problem: EstimationProblem, cfg: SolverConfig) -> EstimateResult:
    """Damped Gauss-Newton on smoothed residuals.

    Sum-mode costs are minimized directly via sqrt-term residuals (so the
    squared residual norm is the cost); max-mode costs go through escalating
    power-mean surrogates, which squeeze the iterate toward the minimax point,
    with the true max cost reported.  Output equations enter as escalating
    quadratic penalties when measurement noise cannot be eliminated.  The
    finite-difference Jacobian is taken from one batch of dim + 1 points,
    which the line search evaluates ahead for step length 1.
    """
    objective = _Objective(problem)
    dim = objective.dim
    powers = (1.0,) if problem.cost.mode is PlusMode.SUM else (2.0, 8.0)

    best = None
    schedule = (0.0,) if objective.eliminate else cfg.penalty_schedule
    for idx, z0 in enumerate(_generic_starts(problem, cfg, dim)):
        z = z0.astype(float)
        iters = 0
        for mu in schedule:
            for power in powers:
                derive = functools.partial(objective.residual_rows, power=power, mu=mu)
                batch = None
                for _ in range(cfg.max_iter):
                    if batch is None:
                        batch = _Batch(objective, _with_probes(z), derive)
                    for i in np.flatnonzero(batch.masked[:dim + 1]):
                        batch.row(i)     # in order: z, then each Jacobian point
                    r = batch.rows[0]
                    f0 = float(r @ r)
                    jac = ((batch.rows[1:dim + 1] - r) / _fd_steps(z)[:, None]).T
                    try:
                        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
                    except np.linalg.LinAlgError:
                        break
                    found = _line_search(objective, z, step, f0, derive)
                    iters += 1
                    if found is None:
                        break
                    alpha, batch, k = found
                    z = batch.Z[k]
                    if k:       # a halving: its Jacobian points are not in the batch
                        batch = None
                    if float(np.linalg.norm(alpha * step)) < cfg.tol:
                        break
        key = (plus_reduce(problem.cost.mode, objective.strict(z)[0][0]), idx)
        if best is None or key < best[0]:
            best = (key, z, iters, idx)
    _, z, iters, idx = best
    return _generic_result(objective, z, "gauss-newton", iters, idx + 1)


# ---------------------------------------------------------------------------
# Dispatch and drivers
# ---------------------------------------------------------------------------

def _structured_applicable(problem: EstimationProblem) -> Optional[str]:
    model = problem.model
    if not (model.is_scalar and model.additive_v and model.additive_w):
        return None
    if problem.cost.mode is PlusMode.MAX:
        if model.f_image is not None and model.f_solve is not None:
            return "max"
        return None
    if model.linear_a is not None and _sum_weights(problem) is not None:
        return "sum"
    return None


def solve_window(problem: EstimationProblem, solver: SolverConfig) -> EstimateResult:
    """Solve one estimation window.

    The returned trajectory always satisfies the window dynamics exactly (the
    disturbances are read off the transitions); the achieved cost is the
    certified upper envelope over the attempted starts.
    """
    if solver.use_structured:
        kind = _structured_applicable(problem)
        if kind == "max":
            return _solve_max_scalar([problem])[0]
        if kind == "sum":
            return _solve_sum_scalar(problem, solver)
    if solver.method == "gauss_newton_penalty":
        return _solve_gauss_newton(problem, solver)
    return _solve_multistart_local(problem, solver)


def _solve_group(problems: List[EstimationProblem], solver: SolverConfig) -> List[EstimateResult]:
    """Solve windows that share everything but their priors and outputs: the
    max-mode engine takes them as one group, every other engine one window
    at a time through :func:`solve_window`."""
    if solver.use_structured and _structured_applicable(problems[0]) == "max":
        return _solve_max_scalar(problems)
    return [solve_window(problem, solver) for problem in problems]


def _initial_result(prior0: np.ndarray, model: SystemModel) -> EstimateResult:
    prior0 = np.atleast_1d(np.asarray(prior0, dtype=float))
    return EstimateResult(prior0[None, :].copy(), np.zeros((0, model.process_noise_dim)),
                          np.zeros((0, model.meas_noise_dim)), 0.0, "ok", "init",
                          prior0.copy(), 0)


def _drive(model: SystemModel, cost: CostSpec, prior0, u_seq, y_seq, solver: SolverConfig,
           horizon: Optional[int]) -> List[List[EstimateResult]]:
    """Step every cell of the stack in lock-step over t; the window ending at
    t starts at max(0, t - horizon), or at 0 without a horizon, and is
    anchored at the cell's prior0 or at its own estimate from its start."""
    u_seq = np.asarray(u_seq, dtype=float)
    y = np.asarray(y_seq, dtype=float)
    if y.ndim == 2:
        y = y[:, :, None]
    if y.ndim != 3 or y.shape[2] != model.output_dim:
        raise DomainError(f"measurement stack of shape {np.shape(y_seq)} is not (C, T) "
                          f"or (C, T, {model.output_dim})")
    priors = np.broadcast_to(np.asarray(prior0, dtype=float).reshape(-1, model.state_dim),
                             (len(y), model.state_dim))
    runs = [[_initial_result(prior, model)] for prior in priors]
    for t in range(1, y.shape[1] + 1 if runs else 0):
        start = 0 if horizon is None else max(0, t - horizon)
        u_win = u_seq[start:t]
        problems = [EstimationProblem(model, cost, run[start].published if start else prior,
                                      u_win, y[c, start:t], t - start)
                    for c, (run, prior) in enumerate(zip(runs, priors))]
        for run, result in zip(runs, _solve_group(problems, solver)):
            run.append(result)
    return runs


def run_fie(model: SystemModel, cost: CostSpec, prior0, u_seq, y_seq,
            solver: SolverConfig, t_max: int = 200) -> List[List[EstimateResult]]:
    """Full-information estimates for t = 0..T of a stack of C cells.

    ``y_seq`` is the (C, T) measurement stack, or (C, T, p) for p outputs;
    the cells share the inputs ``u_seq`` (T, du) and the initial prior
    ``prior0`` (n,), or each has its own, (C, n).  Returns one list of T + 1
    results per cell, each what that cell run alone gives.  The window grows
    with t and the prior stays anchored at the initial estimate; beyond
    ``t_max`` the run refuses rather than silently switching to a moving
    horizon.
    """
    T = np.shape(y_seq)[1] if np.ndim(y_seq) > 1 else 0
    if T > t_max:
        raise HorizonCapError(f"full-information horizon {T} exceeds cap {t_max}")
    return _drive(model, cost, prior0, u_seq, y_seq, solver, None)


def run_mhe(model: SystemModel, cost: CostSpec, prior0, u_seq, y_seq, horizon: int,
            solver: SolverConfig) -> List[List[EstimateResult]]:
    """Moving-horizon estimates for t = 0..T of a stack of C cells, with the
    filtering prior.

    Takes the stacks of :func:`run_fie` and returns one result list per cell.
    For t <= K this is exactly the growing-window scheme; afterwards each
    cell's window is anchored at that cell's own published estimate from K
    steps earlier.
    """
    if horizon < 1:
        raise DomainError("moving horizon must be >= 1")
    return _drive(model, cost, prior0, u_seq, y_seq, solver, horizon)


def certify_suboptimality(result: EstimateResult, reference: SolutionTuple, cost: CostSpec,
                          a_factor: float, tol_cert: float = 1e-9,
                          model: Optional[SystemModel] = None) -> CertificationRecord:
    """Check the suboptimality hypothesis against a feasible reference window.

    This inequality (achieved cost at most A times the reference cost) is the
    exact hypothesis under which the error bounds are asserted downstream; a
    failed certification excludes the step from bound checks rather than
    weakening them.
    """
    if model is not None:
        rep = verify_solution(model, reference, tol_dyn=1e-6)
        if not rep.passed:
            raise DomainError(f"reference window infeasible (residual {rep.worst_residual:.3e})")
    j_ref = eval_cost(cost, result.prior, reference.x[0], reference.w, reference.v)
    j_res = result.cost
    passed = j_res <= a_factor * j_ref + tol_cert
    if j_ref > 0:
        ratio = j_res / j_ref
    else:
        ratio = 1.0 if j_res <= tol_cert else math.inf
    return CertificationRecord(passed, ratio, j_res, j_ref)
