"""Window estimators: cost evaluation, the window solve, and the full- and
moving-horizon drivers.

The optimization problem is always the same shape: pick an initial window
state and a process-disturbance sequence, roll the dynamics forward, read the
measurement residuals off the output equations, and score everything with the
discounted stage cost.  Measurement-noise variables are eliminated exactly
whenever the output map is additive in the noise (all built-in plants), so
window solutions satisfy the solution-set constraint to rounding error.
Nothing else constrains a window, and no engine reads the suboptimality
factor A: a run applies it to each solved window in ``harness._check_group``,
through ``certification_record``.

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

A window whose shape fits a structured engine always goes there, whatever
the configured method; they exist because the acceptance sweeps solve tens
of thousands of windows.

The drivers ``run_fie``/``run_mhe`` step a stack of cells in lock-step: at
each t the windows of all cells share the plant, cost, inputs and length
and differ in their outputs and priors.  The drivers check their stacks
once and hand the engines window groups (:class:`_Rows`), cut from the
stacks and the published anchors: a growing window goes one group per
step, and the full moving windows of up to K consecutive steps that share
their inputs go as one group, since each is anchored at an estimate
published K steps before it.  Every engine solves a group as one, one row
per window, and every row uses exactly the arithmetic of its window solved
alone.  The max-mode engine bisects levels of shape (C, 48);
its per-window branches are masks over the rows, and a failing row raises
``InfeasibleWindowError`` for its whole group.  The sum-mode engine holds
the C value functions as padded (C, M) breakpoint and slope arrays with a
count per row.  The generic engines run every (window, start) pair of the
group in lock-step (:func:`_lockstep`): each pair is the one-candidate
algorithm of one start on one window, and each tick evaluates the
candidates that all live pairs read next in one objective pass.
Gauss-Newton asks for its Jacobian points, then for step length 1 with its
Jacobian points and the step's halvings; compass asks for the rest of a
sweep.  A pair leaves the group when it converges, breaks or runs out of
iterations.  ``solve_window`` is a group of one.

A pair reads the rows of a pass in the order its algorithm evaluates
candidates, and only those, so the iterates are those of evaluating one
candidate at a time on one window, bit for bit; a candidate that algorithm
would not have evaluated can neither raise nor change the result.  This
needs plant maps that accept a leading batch axis (see
:mod:`mhestab.systems`).

``_window_costs``, the cost that is reported and certified, prices a stack
of windows of one length by the rule of the error bounds in
:mod:`mhestab.certificates`: ``gain_terms`` evaluates each gain over the
windows' ages (a slope product when every slice is linear in r, otherwise
one call per term), and ``fold_terms`` combines them.  A solved window's
cost and the reference cost of :func:`certify_suboptimality` are rows of
it.  The engines' objective shares the rollout and the noise elimination
but keeps its own fold: it calls each gain once per age on a column of
candidates and folds left to right like ``plus_reduce``, and moving it onto
the slope products would move the iterates pinned by
``tests/golden_generic.json``.
"""

from __future__ import annotations

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
    plus_fold,
    plus_reduce,
    seq_norms,
    slope_table,
)
from .certificates import TOL_CERT, CostSpec
from .systems import (
    SolutionTuple,
    SystemModel,
    _row_sqnorms,
    clamp,
    row_distances,
    verify_solution,
)

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
    """Deterministic settings of the generic methods.

    They apply to windows no structured engine takes: a scalar window with
    the right shape always goes to an exact scalar engine.
    """

    method: str = "gauss_newton_penalty"
    multistart: int = 4
    max_iter: int = 60
    penalty_schedule: Tuple[float, ...] = (1e2, 1e4, 1e6, 1e8)
    tol: float = 1e-10
    seed: int = 0

    METHODS = ("gauss_newton_penalty", "multistart_local")

    def __post_init__(self):
        if self.method not in self.METHODS:
            raise DomainError(f"unknown solver method {self.method!r}")
        if self.multistart < 1:
            raise DomainError(f"solver multistart must be >= 1, got {self.multistart}")
        if self.max_iter < 1:
            raise DomainError(f"solver max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"solver tol must be finite and positive, got {self.tol}")
        if not self.penalty_schedule:
            raise DomainError("solver penalty_schedule must not be empty")
        if not 0 <= self.seed < 2 ** 128:
            raise DomainError(f"solver seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class CertificationRecord:
    """Verdicts of :func:`certification_record`: arrays, or one step's scalars."""

    passed: bool
    ratio: float
    achieved: float
    reference: float

    def __bool__(self):
        return self.passed


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------

def _window_costs(cost: CostSpec, prior: np.ndarray, chi0: np.ndarray, omega: np.ndarray,
                  nu: np.ndarray) -> List[float]:
    """The discounted costs of C candidate windows of one length K: prior
    and chi0 (C, n), omega (C, K, q), nu (C, K, m), in time order.  Entry j
    of a window's omega and nu acts at age K - j, and the prior mismatch is
    discounted by the full length K.  Each gain and the fold take one array
    call, and each row's cost is its window's alone."""
    K = omega.shape[1]
    ages = range(K, 0, -1)             # entry j acts at age K - j
    dist = row_distances(chi0, prior)
    heads = gain_terms(cost.beta_hat, range(K, K + 1), dist[:, None])[:, 0]
    c_terms = gain_terms(cost.gamma_hat, ages, seq_norms(omega))
    d_terms = gain_terms(cost.delta_hat, ages, seq_norms(nu))
    return fold_terms(cost.mode, heads, c_terms, d_terms).tolist()


# ---------------------------------------------------------------------------
# Window groups and shared helpers
# ---------------------------------------------------------------------------

class _Rows:
    """A group of windows, one row each, that share the plant, cost and
    inputs u_win (K, du) and differ in their priors (R, n) and outputs
    (R, K, p).  Every helper below works elementwise along the rows, so a
    row's numbers are those of its window solved alone.  The drivers cut
    the groups from their stacks, the C windows of one step or of several
    consecutive moving-horizon steps that share their inputs (stacked
    step-major), and :meth:`of` groups windows given one at a time."""

    def __init__(self, model: SystemModel, cost: CostSpec, u_win: np.ndarray,
                 prior: np.ndarray, y: np.ndarray):
        self.model, self.cost, self.u_win, self.prior, self.y = model, cost, u_win, prior, y
        self.K = len(u_win)

    @classmethod
    def of(cls, problems: Sequence[EstimationProblem]) -> "_Rows":
        first = problems[0]
        return cls(first.model, first.cost, first.u_win, np.array([p.prior for p in problems]),
                   np.array([p.y_win for p in problems]))

    def __len__(self) -> int:
        return len(self.prior)

    def take(self, idx) -> "_Rows":
        return _Rows(self.model, self.cost, self.u_win, self.prior[idx], self.y[idx])


def _rollout(rows: _Rows, chi0: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The K scored states (B, K, n) from chi0 (B, n) under omega (B, K, q):
    B rows of the group, or B candidates of a group of one."""
    model, K = rows.model, rows.K
    xs = np.empty((len(chi0), K, model.state_dim))
    x = chi0
    for j in range(K):
        xs[:, j] = x
        if j < K - 1:           # the endpoint is not scored
            x = model.f(x, rows.u_win[j], omega[:, j])
    return xs


def _with_endpoint(rows: _Rows, xs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The states xs (B, K, n) and the published endpoint, one transition
    past the last of them: (B, K + 1, n)."""
    end = rows.model.f(xs[:, -1], rows.u_win[-1], omega[:, -1])
    return np.concatenate([xs, end[:, None]], axis=1)


def _eliminated_nu(rows: _Rows, xs: np.ndarray) -> np.ndarray:
    model, K = rows.model, rows.K
    nu = np.empty((len(xs), K, model.meas_noise_dim))
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
    xs = _rollout(rows, chi0, omega)
    nu = _eliminated_nu(rows, xs)
    costs = _window_costs(rows.cost, rows.prior, xs[:, 0], omega, nu)
    xhat = _with_endpoint(rows, xs, omega)
    return [EstimateResult(xhat[i], omega[i], nu[i], costs[i], "ok", engine,
                           rows.prior[i].copy(), rows.K,
                           iterations=iterations, starts_used=starts_used)
            for i in range(len(rows))]


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


def _solve_max_scalar(rows: _Rows) -> List[EstimateResult]:
    """Max-mode level bisection for a group of windows.

    The per-row branches -- the zero-level exit, the top-level guard and
    the bump loop -- are masks over the rows, and every row ends with the
    result of its window solved alone.  A row without a finite-cost
    candidate, or whose reconstruction fails, raises for the whole group.
    """
    prep = _max_prepare(rows)
    # guaranteed-feasible upper bracket from candidate trajectories
    s_hi = np.full(len(rows), math.inf)
    for chi0, omega in _candidate_starts(rows):
        val = np.array(_window_costs(rows.cost, rows.prior, chi0, omega,
                                     _eliminated_nu(rows, _rollout(rows, chi0, omega))))
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

def _compact(keep: np.ndarray, fill: float, *arrays: np.ndarray):
    """The kept entries of each row of each array moved to the front of the
    row, in order, the rest of the row ``fill``; then the count kept per
    row."""
    counts = keep.sum(axis=1)
    r, c = np.nonzero(keep)
    pos = (np.cumsum(keep, axis=1) - 1)[r, c]
    out = []
    for values in arrays:
        packed = np.full((len(values), max(int(counts.max()), 1)), fill)
        packed[r, pos] = values[r, c]
        out.append(packed)
    return (*out, counts)


class _PWLRows:
    """Convex piecewise-linear functions, one per row.

    Row r has ``n[r]`` ascending breakpoints ``xs[r, :n[r]]``, the ``n[r] +
    1`` segment slopes ``slopes[r, :n[r] + 1]`` with a leading entry for the
    left arm, and the value ``y0[r]`` at its first breakpoint.  Entries past
    a row's count are padding (breakpoints +inf) and are never read.  Every
    operation takes each row through the arithmetic of one function alone:
    the values at the breakpoints are the left fold of slope times gap (a
    row-wise ``np.cumsum``), and a breakpoint set with one point added is the
    sorted union that keeps the first of equal entries, the function's own
    before the new point.  Slopes are nondecreasing; the minimum is attained
    because every function built here includes a coercive absolute-value
    term.
    """

    def __init__(self, xs: np.ndarray, slopes: np.ndarray, y0: np.ndarray, n: np.ndarray):
        self.xs, self.slopes, self.y0, self.n = xs, slopes, y0, n
        self.rows = np.arange(len(xs))[:, None]
        self._knot_values = None

    @staticmethod
    def abs_terms(centers: np.ndarray, weight: float) -> "_PWLRows":
        """weight * |x - centers[r]| per row."""
        R = len(centers)
        return _PWLRows(centers[:, None].astype(float), np.tile([-weight, weight], (R, 1)),
                        np.zeros(R), np.ones(R, dtype=int))

    def _knots(self) -> np.ndarray:
        """Values at the breakpoints (R, M)."""
        if self._knot_values is None:
            xs = self.xs
            with np.errstate(invalid="ignore"):         # padding: inf - inf
                gaps = self.slopes[:, 1:xs.shape[1]] * (xs[:, 1:] - xs[:, :-1])
            self._knot_values = np.cumsum(np.concatenate([self.y0[:, None], gaps], axis=1),
                                          axis=1)
        return self._knot_values

    def _arm(self, x: np.ndarray) -> np.ndarray:
        """Values at points x (R,) no greater than the first breakpoint."""
        return self.y0 - self.slopes[:, 0] * (self.xs[:, 0] - x)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Values at the points x (R, P): the left arm up to the first
        breakpoint, else the segment that ends at the first breakpoint >= x
        continued from the value at its left end."""
        xs, s, rows = self.xs, self.slopes, self.rows
        k = (xs[:, None, :] < x[:, :, None]).sum(axis=2)
        left = np.maximum(k - 1, 0)
        inner = self._knots()[rows, left] + s[rows, k] * (x - xs[rows, left])
        return np.where(k == 0, self.y0[:, None] - s[:, :1] * (xs[:, :1] - x), inner)

    def with_point(self, extra: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted union of each row's breakpoints with extra[r], without
        repeats, and its count per row."""
        R, M = self.xs.shape
        cat = np.full((R, M + 1), np.inf)
        cat[:, :M] = self.xs
        cat[np.arange(R), self.n] = extra
        srt = np.sort(cat, axis=1, kind="stable")
        first = np.ones(srt.shape, dtype=bool)
        first[:, 1:] = srt[:, 1:] != srt[:, :-1]
        n = self.n + 1
        keep = first & (np.arange(M + 1) < n[:, None])
        if np.array_equal(keep.sum(axis=1), n):        # no repeats
            return srt, n
        return _compact(keep, np.inf, srt)

    def add_abs(self, centers: np.ndarray, weight: float) -> "_PWLRows":
        """The sum with weight * |x - centers[r]| per row."""
        xs, n = self.with_point(centers)
        # slope right of each probe: left of the first breakpoint, then at each
        probes = np.concatenate([xs[:, :1] - 1.0, xs], axis=1)
        idx = (self.xs[:, None, :] <= probes[:, :, None]).sum(axis=2)
        slopes = (self.slopes[self.rows, idx]
                  + np.where(centers[:, None] <= probes, weight, -weight))
        x0, c = xs[:, 0], centers
        term = np.where(x0 <= c, 0.0 - (-weight) * (c - x0), 0.0 + weight * (x0 - c))
        return _PWLRows(xs, slopes, self._arm(x0) + term, n)._pruned()

    def scale_shift_arg(self, a: float, off: float) -> "_PWLRows":
        """W(z) = V((z - off) / a) for a != 0."""
        if a == 0.0:
            raise DomainError("argument scaling needs a nonzero coefficient")
        xs = a * self.xs + off
        slopes = self.slopes / a
        if a > 0:
            return _PWLRows(xs, slopes, self._arm(self.xs[:, 0]), self.n)
        M, n, rows = self.xs.shape[1], self.n[:, None], self.rows
        rev_xs = np.where(np.arange(M) < n, xs[rows, (n - 1 - np.arange(M)) % M], np.inf)
        rev_slopes = slopes[rows, (n - np.arange(M + 1)) % (M + 1)]
        last = self.xs[rows, n - 1]
        return _PWLRows(rev_xs, rev_slopes, self.value(last)[:, 0], self.n)

    def min(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vmin, arg_lo, arg_hi) per row over the breakpoints: the least
        value and its first and last breakpoint."""
        M, rows = self.xs.shape[1], self.rows[:, 0]
        valid = np.arange(M) < self.n[:, None]
        knots = np.where(valid, self._knots(), np.inf)
        best = knots.min(axis=1)
        at = (knots == best[:, None]) & valid
        return (best, self.xs[rows, np.argmax(at, axis=1)],
                self.xs[rows, M - 1 - np.argmax(at[:, ::-1], axis=1)])

    def infconv_abs(self, w: float) -> "_PWLRows":
        """Infimal convolution with w * |.| == slope clipping to [-w, w],
        anchored so values in the unclipped region are preserved."""
        vmin, arg_lo, _ = self.min()
        R = len(vmin)
        if w <= 0.0:
            # zero-weight stage: the stage variable is free, leaving a constant
            return _PWLRows(arg_lo[:, None], np.zeros((R, 2)), vmin, np.ones(R, dtype=int))
        s = np.where(-w > self.slopes, -w, self.slopes)
        s = np.where(w < s, w, s)
        return _PWLRows(self.xs, s, self._anchored(s, arg_lo, vmin), self.n)._pruned()

    def _anchored(self, slopes: np.ndarray, anchor_x: np.ndarray,
                  anchor_v: np.ndarray) -> np.ndarray:
        """Value at the first breakpoint of the function with these slopes
        that takes anchor_v at the breakpoint anchor_x: walked down from the
        anchor one distinct breakpoint at a time, subtracting slope times
        gap; a run of equal breakpoints takes the slope right of its last."""
        xs = self.xs
        anchor = anchor_x[:, None]
        above = np.concatenate([xs[:, 1:], np.full((len(xs), 1), np.inf)], axis=1)
        walked = (xs < anchor) & (above != xs)
        cur = np.where(above < anchor, above, anchor)
        with np.errstate(invalid="ignore"):             # padding: inf - inf
            steps = np.where(walked, slopes[:, 1:] * (cur - xs), 0.0)
        return np.cumsum(np.concatenate([anchor_v[:, None], -steps[:, ::-1]], axis=1),
                         axis=1)[:, -1]

    def _pruned(self) -> "_PWLRows":
        """Without the breakpoints where the slope does not change."""
        xs, s, n = self.xs, self.slopes, self.n
        keep = (s[:, 1:] != s[:, :-1]) & (np.arange(xs.shape[1]) < n[:, None])
        if np.array_equal(keep.sum(axis=1), n):        # every slope changes
            return _PWLRows(xs, s, self._arm(xs[:, 0]), n)
        new_xs, tail, counts = _compact(keep, np.inf, xs, s[:, 1:])
        new_s = np.concatenate([s[:, :1], tail], axis=1)
        flat = counts == 0              # one linear piece: keep the first breakpoint
        new_xs[flat, 0] = xs[flat, 0]
        new_s[flat, 1] = s[flat, 0]
        return _PWLRows(new_xs, new_s, self.value(new_xs[:, :1])[:, 0], np.maximum(counts, 1))


def _sum_weights(cost: CostSpec, K: int):
    b_table = slope_table(cost.beta_hat, K)
    g_table = slope_table(cost.gamma_hat, K)
    d_table = slope_table(cost.delta_hat, K)
    if b_table is None or g_table is None or d_table is None:
        return None
    ages = list(range(K, 0, -1))
    return float(b_table[K]), [float(g_table[a]) for a in ages], [float(d_table[a]) for a in ages]


def _first_best(cands: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per row, the candidate taken by a scan in order that starts at the
    first and moves to a candidate whose value is below the best so far less
    1e-300.  NaN values must be +inf.  Unless a value is nonzero and within
    1e-280 of zero, where subtracting 1e-300 changes a float, that is the
    first least value."""
    rows = np.arange(len(cands))
    if not ((vals != 0.0) & (np.abs(vals) < 1e-280)).any():
        return cands[rows, np.argmin(vals, axis=1)]
    best_x, best_v = cands[:, 0], np.full(len(cands), math.inf)
    for x, val in zip(cands.T, vals.T):
        take = val < best_v - 1e-300
        best_x, best_v = np.where(take, x, best_x), np.where(take, val, best_v)
    return best_x


def _solve_sum_pwl(rows: _Rows) -> List[EstimateResult]:
    """Sum-mode dynamic programming for a group of windows, one row per
    window.

    The forward pass builds each step's value function as a convex
    piecewise-linear function of the state; the backward pass picks, from
    the last step's midpoint of minimizers back, the smallest state among
    the breakpoints and the kink that minimizes stage value plus transition
    cost.  Every row ends with the result of its window solved alone.
    """
    model, K, R = rows.model, rows.K, len(rows)
    a = float(model.linear_a)
    y = rows.y[:, :, 0]
    p_w, g_w, d_w = _sum_weights(rows.cost, K)
    offs = [float(np.atleast_1d(model.f_nominal(np.zeros(1), rows.u_win[j]))[0])
            for j in range(K)]
    with np.errstate(invalid="ignore", over="ignore"):    # as Python floats, silently
        stages = []
        V = _PWLRows.abs_terms(rows.prior[:, 0], p_w).add_abs(y[:, 0], d_w[0])
        for j in range(K - 1):
            stages.append(V)
            V = V.scale_shift_arg(a, offs[j]).infconv_abs(g_w[j]).add_abs(y[:, j + 1], d_w[j + 1])
        _, arg_lo, arg_hi = V.min()
        chis = np.empty((R, K))
        chis[:, K - 1] = np.where(np.isfinite(arg_lo), 0.5 * (arg_lo + arg_hi), arg_hi)
        for j in range(K - 2, -1, -1):
            Vj, nxt = stages[j], chis[:, j + 1]
            cands, counts = Vj.with_point((nxt - offs[j]) / a)
            vals = Vj.value(cands) + g_w[j] * np.abs(nxt[:, None] - a * cands - offs[j])
            vals[(np.arange(cands.shape[1]) >= counts[:, None]) | np.isnan(vals)] = math.inf
            chis[:, j] = _first_best(cands, vals)
    omega = np.zeros((R, K, 1))
    for j in range(K - 1):
        omega[:, j, 0] = chis[:, j + 1] - (a * chis[:, j] + offs[j])
    return _results_from_decisions(rows, chis[:, :1], omega, "sum-pwl-dp")


# ---------------------------------------------------------------------------
# Engine C: generic iterative solvers
# ---------------------------------------------------------------------------

_EPS = 1e-12

# the Gauss-Newton step lengths tried after 1: 1/2, 1/4, ..., 2**-24
_HALVINGS = np.ldexp(1.0, -np.arange(1, 25))


class _Objective:
    """The window objective of the generic engines, over candidates of a
    window group.

    A candidate z stacks the initial state chi0 (n), the disturbances omega
    (K x q) and, when the output map is not additive in the noise, the
    measurement noise nu (K x m); otherwise nu is read off the outputs.
    :meth:`evaluate` maps candidates Z (B, dim) of the windows ``owner``
    (B,) of the group to their cost terms (B, 2K+1), ordered beta_hat, then
    gamma_hat and delta_hat of each window step in time order; their output
    penalties (B,); and the mask of rows whose evaluation alone raises (a
    NaN distance, a NaN or negative term).  Each row reads its own window's
    prior and outputs, each gain is called once per age on the whole
    column, and every row is computed by exactly the arithmetic of
    evaluating that candidate alone on its window, so neither batching nor
    grouping moves an iterate.  A masked row raises only when an engine
    reads it: :class:`_Batch` then recomputes it alone through
    :meth:`strict`.  A row that is never read can neither raise nor change
    the result.
    """

    def __init__(self, rows: _Rows):
        model = rows.model
        self.rows = rows
        self.eliminate = model.additive_v
        self.n, self.q, self.m = model.state_dim, model.process_noise_dim, model.meas_noise_dim
        self.n_omega = rows.K * self.q
        self.dim = self.n + self.n_omega + (0 if self.eliminate else rows.K * self.m)

    def unpack(self, z: np.ndarray):
        K, n, end = self.rows.K, self.n, self.n + self.n_omega
        nu = None if self.eliminate else z[end:].reshape(K, self.m)
        return z[:n], z[n:end].reshape(K, self.q), nu

    def evaluate(self, Z: np.ndarray, owner: np.ndarray):
        """``(terms, penalties, masked)`` of the candidate rows Z, row b a
        candidate of window ``owner[b]``."""
        try:
            with np.errstate(all="ignore"):
                return self._evaluate(Z, owner, strict=False)
        except Exception:
            # a plant map or gain failed on some row, which need not be one
            # the engine reads: mask every row, so each read recomputes its
            # row alone and the failing one raises there
            B = len(Z)
            return (np.full((B, 2 * self.rows.K + 1), np.nan), np.full(B, np.nan),
                    np.ones(B, dtype=bool))

    def strict(self, z: np.ndarray, window: int):
        """``(terms, penalties)`` of the one candidate z of a window, as
        one-row arrays; raises what evaluating z alone raises."""
        terms, pen, _ = self._evaluate(z[None, :], np.array([window]), strict=True)
        plus_reduce(self.rows.cost.mode, terms[0])      # NaN or negative terms
        return terms, pen

    def _evaluate(self, Z: np.ndarray, owner: np.ndarray, strict: bool):
        rows = self.rows.take(owner)            # each candidate's own window
        model, cost, K = rows.model, rows.cost, rows.K
        B, n, end = len(Z), self.n, self.n + self.n_omega
        chi0 = Z[:, :n]
        omega = Z[:, n:end].reshape(B, K, self.q)
        xs = _rollout(rows, chi0, omega)
        pen = np.zeros(B)
        if self.eliminate:
            nu = _eliminated_nu(rows, xs)
        else:
            nu = Z[:, end:].reshape(B, K, self.m)
            for j in range(K):
                res = rows.y[:, j] - model.h(xs[:, j], rows.u_win[j], nu[:, j])
                pen = pen + _row_sqnorms(res)
        dist = row_distances(chi0, rows.prior)
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
        folded one column at a time (:func:`plus_fold`)."""
        return plus_fold(self.rows.cost.mode, terms.T) + mu * pen

    def residual_rows(self, terms: np.ndarray, pen: np.ndarray, power: float,
                      mu: float) -> np.ndarray:
        """The Gauss-Newton residual vectors: sqrt((term + eps)**power) per
        term, then sqrt(mu * penalty + eps) when nu is a decision variable."""
        rows = np.sqrt(np.power(terms + _EPS, power))
        if self.eliminate:
            return rows
        return np.concatenate([rows, np.sqrt(mu * pen + _EPS)[:, None]], axis=1)


class _Batch:
    """The candidate rows Z that one pair asked for in a pass, and what its
    engine reads of them: their cost ``terms``, the derived ``rows`` and
    their ``scores``, from ``derive(objective, terms, penalties, stage)``.
    ``row(k)`` reads row k; a masked row is recomputed alone there, raising
    what evaluating it alone raises.  Rows must be read in the order the
    one-candidate algorithm evaluates them.  The arrays are views of the
    pass."""

    def __init__(self, objective: _Objective, derive, window: int, stage, Z: np.ndarray,
                 terms: np.ndarray, rows: np.ndarray, scores: np.ndarray, masked: np.ndarray):
        self.objective, self.derive, self.window, self.stage = objective, derive, window, stage
        self.Z, self.terms, self.rows, self.scores, self.masked = Z, terms, rows, scores, masked

    def row(self, k: int):
        if self.masked[k]:
            terms, pen = self.objective.strict(self.Z[k], self.window)
            rows, scores = self.derive(self.objective, terms, pen, self.stage)
            self.terms[k], self.rows[k], self.scores[k] = terms[0], rows[0], scores[0]
            self.masked[k] = False
        return self.rows[k]

    def first_below(self, order: np.ndarray, bound: float) -> Optional[int]:
        """The first j whose row ``order[j]`` scores below bound when the
        rows are read in that order, or None; rows after it are not read."""
        j = 0
        while True:
            ks = order[j:]
            hit = self.masked[ks] | (self.scores[ks] < bound)
            if not hit.any():
                return None
            j += int(np.argmax(hit))
            if not self.masked[order[j]]:
                return j
            self.row(order[j])


def _evaluate_pass(objective: _Objective, derive, asks) -> List[_Batch]:
    """One objective pass over the candidate rows that pairs ask for, each
    ask ``(Z, window, stage)``; the rows of each stage are derived in one
    call.  Returns one :class:`_Batch` per ask."""
    sizes = [len(Z) for Z, _, _ in asks]
    Z = np.concatenate([Z for Z, _, _ in asks])
    terms, pen, masked = objective.evaluate(Z, np.repeat([w for _, w, _ in asks], sizes))
    stages = list(dict.fromkeys(stage for _, _, stage in asks))
    stage_of = np.repeat([stages.index(stage) for _, _, stage in asks], sizes)
    rows, scores = None, np.empty(len(Z))
    with np.errstate(all="ignore"):
        for s, stage in enumerate(stages):
            sel = np.flatnonzero(stage_of == s) if len(stages) > 1 else slice(None)
            derived, scores[sel] = derive(objective, terms[sel], pen[sel], stage)
            if rows is None:
                rows = np.empty((len(Z),) + derived.shape[1:])
            rows[sel] = derived
    spans = [slice(end - size, end) for end, size in zip(np.cumsum(sizes), sizes)]
    return [_Batch(objective, derive, window, stage, Z[span], terms[span], rows[span],
                   scores[span], masked[span])
            for span, (_, window, stage) in zip(spans, asks)]


def _lockstep(objective: _Objective, derive, pairs) -> list:
    """Run the (window, start) pairs of a group together; returns what each
    pair returns.

    A pair is a generator: it yields the candidate rows it reads next as
    ``(Z, window, stage)`` and is sent them back as a :class:`_Batch`.
    Each tick evaluates the rows of every live pair in one objective pass
    (:func:`_evaluate_pass`).  A pair leaves when it returns, or when a read
    raises; once every pair has left, the first pair in the order given
    that raised makes the whole group raise, which is what solving the
    pairs one after another would have raised.
    """
    out, errors = [None] * len(pairs), {}
    sent = dict.fromkeys(range(len(pairs)))
    while sent:
        asks = {}
        for p, batch in sent.items():
            try:
                asks[p] = pairs[p].send(batch)
            except StopIteration as stop:
                out[p] = stop.value
            except Exception as exc:
                errors[p] = exc
        if not asks:
            break
        sent = dict(zip(asks, _evaluate_pass(objective, derive, list(asks.values()))))
    if errors:
        raise errors[min(errors)]
    return out


def _generic_starts(objective: _Objective, cfg: SolverConfig) -> List[List[np.ndarray]]:
    """The ``cfg.multistart`` starts of each window of the group: the
    deterministic initializations, then perturbations of the first, drawn
    for each window from its own generator keyed ``cfg.seed`` and scaled by
    that window's spread."""
    rows, n, dim = objective.rows, objective.n, objective.dim
    base = _candidate_starts(rows)
    out = []
    for i in range(len(rows)):
        starts = []
        for chi0, omega in base:
            z = np.zeros(dim)
            z[:n] = chi0[i]
            z[n:n + objective.n_omega] = omega[i].ravel()
            starts.append(z)
        gen = np.random.Generator(np.random.Philox(key=cfg.seed))
        spread = max(1.0, float(np.max(np.abs(rows.y[i]))), float(np.max(np.abs(rows.prior[i]))))
        while len(starts) < cfg.multistart:
            starts.append(starts[0] + gen.normal(0.0, 0.3 * spread, dim))
        out.append(starts[:cfg.multistart])
    return out


def _solve_pairs(objective: _Objective, cfg: SolverConfig, pair, derive, stages,
                 engine: str) -> List[EstimateResult]:
    """Run ``pair(objective, window, z0, stages, cfg)`` from every start of
    every window of the group in :func:`_lockstep` and keep, per window,
    the start whose end point costs least (the first of equal costs).  A
    pair returns its end point's cost, the end point and its iterations."""
    starts = _generic_starts(objective, cfg)
    keys = [(i, idx) for i, zs in enumerate(starts) for idx in range(len(zs))]
    ends = _lockstep(objective, derive, [pair(objective, i, starts[i][idx], stages, cfg)
                                         for i, idx in keys])
    best = {}
    for (i, idx), (cost, z, iters) in zip(keys, ends):
        if i not in best or cost < best[i][0]:
            best[i] = (cost, z, iters, idx)
    return _generic_results(objective, [best[i] for i in range(len(starts))], engine)


def _generic_results(objective: _Objective, picks, engine: str) -> List[EstimateResult]:
    """The results of the group from each window's ``(cost, z, iterations,
    start index)``."""
    rows = objective.rows
    chi0, omega, nu = zip(*(objective.unpack(z) for _, z, _, _ in picks))
    chi0, omega = np.array(chi0), np.array(omega)
    if objective.eliminate:
        results = _results_from_decisions(rows, chi0, omega, "")
    else:
        model, K = rows.model, rows.K
        xs = _rollout(rows, chi0, omega)
        xhat = _with_endpoint(rows, xs, omega)
        results = []
        for i, (cost, *_) in enumerate(picks):
            res = EstimateResult(xhat[i], np.asarray(omega[i], float), np.asarray(nu[i], float),
                                 cost, "ok", "", rows.prior[i].copy(), K)
            worst = 0.0
            for j in range(K):
                out = np.atleast_1d(model.h(xs[i, j], rows.u_win[j], nu[i][j]))
                worst = max(worst, float(np.linalg.norm(rows.y[i, j] - out)))
            res.residual = worst
            if worst > 1e-6:
                res.status = "penalty-residual"
            results.append(res)
    for res, (_, _, iters, idx) in zip(results, picks):
        res.engine, res.iterations, res.starts_used = engine, iters, idx + 1
    return results


def _compass_pair(objective: _Objective, window: int, z0: np.ndarray, schedule,
                  cfg: SolverConfig):
    """Compass search from z0 on one window, on the objective plus mu times
    the output penalty for each mu of the schedule in turn, as a
    :func:`_lockstep` pair.

    Each sweep tries every coordinate in turn, a step up and then a step
    down, and moves to the first candidate that improves, growing that
    coordinate's step; a sweep without a move halves every step.  The rest
    of a sweep is asked for from the current point in one batch and read in
    order; after a move the batch is dropped and a new one starts at the
    next coordinate.
    """
    dim = objective.dim
    signs = np.tile([1.0, -1.0], dim)
    z, iters = z0.copy(), 0
    for mu in schedule:
        batch = yield z[None, :], window, mu
        best, at = batch.row(0), batch.terms[0]
        step = np.maximum(0.25, 0.1 * np.abs(z))
        for _ in range(cfg.max_iter):
            improved = False
            i = 0
            while i < dim:
                coords = np.repeat(np.arange(i, dim), 2)
                cands = np.repeat(z[None, :], len(coords), axis=0)
                cands[np.arange(len(coords)), coords] += signs[2 * i:] * step[coords]
                batch = yield cands, window, mu
                k = batch.first_below(np.arange(len(coords)), best - 1e-300)
                if k is None:
                    iters += len(coords)
                    break
                iters += k + 1
                z, best, at = cands[k], batch.scores[k], batch.terms[k]
                step[coords[k]] *= 1.6
                improved = True
                i = coords[k] + 1
            if not improved:
                step *= 0.5
                if float(np.max(step)) < cfg.tol:
                    break
    return plus_reduce(objective.rows.cost.mode, at), z, iters


def _compass_derive(objective: _Objective, terms: np.ndarray, pen: np.ndarray, mu: float):
    """The rows a compass search reads at penalty weight mu, and their
    scores: both the objective values."""
    values = objective.values(terms, pen, mu)
    return values, values


def _solve_multistart_local(rows: _Rows, cfg: SolverConfig) -> List[EstimateResult]:
    """Deterministic multistart compass search for a group of windows."""
    objective = _Objective(rows)
    schedule = (0.0,) if objective.eliminate else cfg.penalty_schedule
    return _solve_pairs(objective, cfg, _compass_pair, _compass_derive, schedule, "compass")


def _fd_steps(z: np.ndarray) -> np.ndarray:
    return 1e-6 * np.maximum(1.0, np.abs(z))


def _with_probes(z: np.ndarray, extra: int = 0) -> np.ndarray:
    """The rows z, z + h_0 e_0, ..., z + h_{dim-1} e_{dim-1}: a point and the
    points of its forward-difference Jacobian; then ``extra`` rows left for
    the caller to fill."""
    dim = len(z)
    Z = np.empty((dim + 1 + extra, dim))
    Z[:dim + 1] = z
    Z[1:dim + 1].reshape(-1)[::dim + 1] += _fd_steps(z)       # the diagonal
    return Z


def _line_search_rows(z: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The candidates of a line search from z along step: z + step and its
    Jacobian points (rows 0..dim), which the next iteration reads when step
    length 1 is accepted, then z + alpha step for the 24 halvings alpha =
    1/2, ..., 2**-24 (rows dim + 1..dim + 24)."""
    Z = _with_probes(z + step, len(_HALVINGS))
    Z[len(z) + 1:] = z + _HALVINGS[:, None] * step
    return Z


def _line_search_order(dim: int) -> np.ndarray:
    """The rows of :func:`_line_search_rows` in the order the step lengths
    1, 1/2, ..., 2**-24 are tried."""
    return np.concatenate([[0], np.arange(dim + 1, dim + 25)])


def _gauss_newton_derive(objective: _Objective, terms: np.ndarray, pen: np.ndarray, stage):
    """The rows Gauss-Newton reads at stage (mu, power), the residual
    vectors, and their scores, the squared residual norms."""
    mu, power = stage
    residuals = objective.residual_rows(terms, pen, power, mu)
    return residuals, _row_sqnorms(residuals)


def _gauss_newton_pair(objective: _Objective, window: int, z: np.ndarray, stages,
                       cfg: SolverConfig):
    """Damped Gauss-Newton from z on one window, through the
    ``(mu, power)`` stages in turn, as a :func:`_lockstep` pair.

    The finite-difference Jacobian is taken from dim + 1 rows, which the
    line search asks for ahead for step length 1.  The first step length of
    1, 1/2, ..., 2**-24 whose squared residual is below the current one is
    accepted; a stage ends when none is, when ``lstsq`` fails, when the
    accepted step is shorter than ``cfg.tol`` or after ``cfg.max_iter``
    iterations.
    """
    dim = objective.dim
    order = _line_search_order(dim)
    alphas = np.concatenate([[1.0], _HALVINGS])
    iters = 0
    for stage in stages:
        batch = None
        for _ in range(cfg.max_iter):
            if batch is None:
                batch = yield _with_probes(z), window, stage
            for k in np.flatnonzero(batch.masked[:dim + 1]):
                batch.row(k)     # in order: z, then each Jacobian point
            r, f0, at = batch.rows[0], batch.scores[0], batch.terms[0]
            jac = ((batch.rows[1:dim + 1] - r) / _fd_steps(z)[:, None]).T
            try:
                step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            except np.linalg.LinAlgError:
                break
            batch = yield _line_search_rows(z, step), window, stage
            j = batch.first_below(order, f0 - 1e-300)
            iters += 1
            if j is None:
                break
            k = order[j]
            z, at = batch.Z[k], batch.terms[k]
            if k:       # a halving: its Jacobian points are not in the batch
                batch = None
            if float(np.linalg.norm(alphas[j] * step)) < cfg.tol:
                break
    return plus_reduce(objective.rows.cost.mode, at), z, iters


def _solve_gauss_newton(rows: _Rows, cfg: SolverConfig) -> List[EstimateResult]:
    """Damped Gauss-Newton on smoothed residuals for a group of windows.

    Sum-mode costs are minimized directly via sqrt-term residuals (so the
    squared residual norm is the cost); max-mode costs go through escalating
    power-mean surrogates, which squeeze the iterate toward the minimax point,
    with the true max cost reported.  Output equations enter as escalating
    quadratic penalties when measurement noise cannot be eliminated.
    """
    objective = _Objective(rows)
    powers = (1.0,) if rows.cost.mode is PlusMode.SUM else (2.0, 8.0)
    schedule = (0.0,) if objective.eliminate else cfg.penalty_schedule
    stages = [(mu, power) for mu in schedule for power in powers]
    return _solve_pairs(objective, cfg, _gauss_newton_pair, _gauss_newton_derive, stages,
                        "gauss-newton")


# ---------------------------------------------------------------------------
# Dispatch and drivers
# ---------------------------------------------------------------------------

def _structured_engine(rows: _Rows):
    """The exact engine for the group's windows, :func:`_solve_max_scalar`
    or :func:`_solve_sum_pwl`, or None when only a generic method fits."""
    model = rows.model
    if not (model.is_scalar and model.additive_v and model.additive_w):
        return None
    if rows.cost.mode is PlusMode.MAX:
        if model.f_image is not None and model.f_solve is not None:
            return _solve_max_scalar
        return None
    if model.linear_a is not None and _sum_weights(rows.cost, rows.K) is not None:
        return _solve_sum_pwl
    return None


def solve_window(problem: EstimationProblem, solver: SolverConfig) -> EstimateResult:
    """Solve one estimation window: :func:`_solve_group` on a group of one.

    The returned trajectory always satisfies the window dynamics exactly (the
    disturbances are read off the transitions); the achieved cost is the
    certified upper envelope over the attempted starts.
    """
    return _solve_group(_Rows.of([problem]), solver)[0]


def _solve_group(rows: _Rows, solver: SolverConfig) -> List[EstimateResult]:
    """Solve a group of windows as one: a structured engine when one fits,
    else the configured generic method."""
    engine = _structured_engine(rows)
    if engine is not None:
        return engine(rows)
    if solver.method == "gauss_newton_penalty":
        return _solve_gauss_newton(rows, solver)
    return _solve_multistart_local(rows, solver)


def _drive(model: SystemModel, cost: CostSpec, prior0, u_seq, y_seq, solver: SolverConfig,
           horizon: Optional[int]) -> List[List[EstimateResult]]:
    """Step every cell of the stack in lock-step over t; the window ending
    at t starts at max(0, t - horizon), or at 0 without a horizon, and is
    anchored at the cell's prior0 or at its own estimate from its start.

    Growing windows (every full-information step, and the moving-horizon
    steps t <= K) differ in length and go one group per step.  A full
    moving window ending at t reads estimates published at t - K and
    before, so the windows ending at t .. t + K - 1 (up to T) are known at t
    and go as one group of C rows per step (:func:`_solve_steps`), as long
    as their inputs u[s - K:s] equal those of the window ending at t; the
    group stops before the first step whose inputs differ."""
    y = np.asarray(y_seq, dtype=float)
    if y.ndim == 2:
        y = y[:, :, None]
    if y.ndim != 3 or y.shape[2] != model.output_dim:
        raise DomainError(f"measurement stack of shape {np.shape(y_seq)} is not (C, T) "
                          f"or (C, T, {model.output_dim})")
    (C, T), n = y.shape[:2], model.state_dim
    u = np.asarray(u_seq, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != model.input_dim or len(u) < T:
        raise DomainError(f"input sequence of shape {np.shape(u_seq)} does not cover {T} "
                          f"steps of {model.input_dim} inputs")
    priors = np.atleast_1d(np.asarray(prior0, dtype=float))
    if priors.shape == (n,):
        priors = np.broadcast_to(priors, (C, n))
    elif priors.shape != (C, n):
        raise DomainError(f"prior of shape {np.shape(prior0)} is neither ({n},) nor ({C}, {n})")
    runs = [[EstimateResult(prior[None, :].copy(), np.zeros((0, model.process_noise_dim)),
                            np.zeros((0, model.meas_noise_dim)), 0.0, "ok", "init",
                            prior.copy(), 0)] for prior in priors]

    def window(s: int) -> _Rows:
        start = 0 if horizon is None else max(0, s - horizon)
        anchors = np.array([run[start].published for run in runs]) if start else priors
        return _Rows(model, cost, u[start:s], anchors, y[:, start:s])

    t = 1
    while runs and t <= T:
        group = [window(t)]
        if horizon is not None and t > horizon:
            # the windows ending at t + 1 .. t + K - 1 are anchored at
            # estimates published before t: they join while their inputs match
            for s in range(t + 1, min(T, t + horizon - 1) + 1):
                later = window(s)
                if not np.array_equal(later.u_win, group[0].u_win):
                    break
                group.append(later)
        for results in _solve_steps(group, solver):
            for run, result in zip(runs, results):
                run.append(result)
        t += len(group)
    return runs


def _solve_steps(groups: List[_Rows], solver: SolverConfig) -> List[List[EstimateResult]]:
    """The results of the window groups of consecutive steps, which share
    their inputs and length, solved as one group stacked step-major.  When
    that raises, the steps are solved one group each, in order, so the first
    failing step raises what it raises alone."""
    if len(groups) == 1:
        return [_solve_group(groups[0], solver)]
    first, C = groups[0], len(groups[0])
    stacked = _Rows(first.model, first.cost, first.u_win,
                    np.concatenate([g.prior for g in groups]),
                    np.concatenate([g.y for g in groups]))
    try:
        results = _solve_group(stacked, solver)
    except Exception:
        return [_solve_group(g, solver) for g in groups]
    return [results[i * C:(i + 1) * C] for i in range(len(groups))]


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
    steps earlier, so the windows of up to K consecutive steps whose inputs
    match are solved as one group (see :func:`_drive`).  Every result, and
    every error raised, is that of solving the steps one after another.
    """
    if horizon < 1:
        raise DomainError("moving horizon must be >= 1")
    return _drive(model, cost, prior0, u_seq, y_seq, solver, horizon)


def certify_suboptimality(result: EstimateResult, reference: SolutionTuple, cost: CostSpec,
                          a_factor: float,
                          model: Optional[SystemModel] = None) -> CertificationRecord:
    """Check the suboptimality hypothesis against a feasible reference window.

    This inequality (achieved cost at most A times the reference cost) is the
    exact hypothesis under which the error bounds are asserted downstream; a
    failed certification excludes the step from bound checks rather than
    weakening them.  The reference is priced by a one-row
    :func:`_window_costs` call and judged by element 0 of
    :func:`certification_record`, which judges the reference costs of all
    the (cell, step) rows of a harness group in one call.
    """
    if model is not None:
        rep = verify_solution(model, reference, tol_dyn=1e-6)
        if not rep.passed:
            raise DomainError(f"reference window infeasible (residual {rep.worst_residual:.3e})")
    if reference.length < 1:
        raise DomainError("reference window must contain at least one step")
    j_ref = _window_costs(cost, result.prior[None], reference.x[:1], reference.w[None],
                          reference.v[None])[0]
    record = certification_record(np.array([result.cost]), np.array([j_ref]), a_factor)
    return CertificationRecord(bool(record.passed[0]), float(record.ratio[0]), result.cost, j_ref)


def certification_record(j_res: np.ndarray, j_ref: np.ndarray,
                         a_factor: float) -> CertificationRecord:
    """The verdicts on the achieved costs j_res against the reference costs
    j_ref, elementwise over arrays of one shape: passed where j_res <= A j_ref
    + TOL_CERT; the ratio j_res / j_ref where j_ref > 0, and elsewhere 1.0 if
    j_res <= TOL_CERT and inf if not."""
    passed = j_res <= a_factor * j_ref + TOL_CERT
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(j_ref > 0, j_res / j_ref, np.where(j_res <= TOL_CERT, 1.0, math.inf))
    return CertificationRecord(passed, ratio, j_res, j_ref)
