"""Window estimators: cost evaluation, the window solve, and the full- and
moving-horizon drivers.

The optimization problem is always the same shape: pick an initial window
state and a process-disturbance sequence, roll the dynamics forward, read the
measurement noise off the output equations, and score everything with the
discounted stage cost.  Every plant is additive in its disturbances (see
:mod:`mhestab.systems`), so the noise read off the outputs is exact, and
every window returned is a solution of the plant to rounding error: its
decision variables are the initial state and the process disturbances only.
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
  Gauss-Newton on smoothed residuals, or a deterministic multistart compass
  search.

A window whose shape fits a structured engine always goes there, whatever
the configured method; they exist because the acceptance sweeps solve tens
of thousands of windows.

The drivers ``run_fie``/``run_mhe`` step a stack of cells in lock-step: at
each t the windows of all cells share the plant, cost, inputs and length
and differ in their outputs and priors.  The window ending at s is
[start(s), s) with start(s) = max(0, s - K) (0 for full information),
anchored at the prior when it starts at 0 and otherwise at the estimate
published at its start.  So the drivers hand the engines groups of the
windows of consecutive steps (:class:`_Rows`), gathered step-major from the
stacks by :func:`_step_windows`, under one rule (:func:`_drive`): a group
opened at t takes each next step whose anchor was published before t,
whose inputs start the group's, whose length picks the group's engine, and
that keeps the group within ``GROUP_ROW_STEPS``.  The rows of a group may
differ in length, each its own k <= K, and in start; each reads its inputs
from step 0 of the group's.  Every engine solves a group as one, one row
per window, into one stacked :class:`EstimateResult` padded to the longest
window, which :func:`_drive` cuts once per step.  Every row uses exactly
the arithmetic of its window solved alone: a step j of an engine's loop
runs on the rows longer than j, a gain is taken at each row's own age, and
a sum over a row's terms, whose rounding depends on its length, is taken
over the rows of each length apart.  The max-mode engine bisects levels of
shape (R, 48); its per-window branches are masks over the rows, and a
failing row raises ``InfeasibleWindowError`` for its whole group.  The
sum-mode engine holds the R value functions as padded (R, M) breakpoint and
slope arrays with a count per row.  The generic engines run every (window,
start) pair of the group in lock-step (:func:`_lockstep`): each pair is the
one-candidate algorithm of one start on one window, and each tick
evaluates the candidates that all live pairs read next in one objective
pass, laid out as candidates of the longest window.  Gauss-Newton asks for
a point and its Jacobian points, then for step length 1 with its Jacobian
points, and only when step length 1 fails, for the step's 24 halvings;
compass asks for the rest of a sweep.  A pair leaves the group when it
converges, breaks or runs out of iterations.  ``solve_window`` is a group
of one.

A pair reads the rows of a pass in the order its algorithm evaluates
candidates, and only those, so the iterates are those of evaluating one
candidate at a time on one window, bit for bit.  A row's numbers do not
depend on the rows that share its pass: a row the batch cannot take is
evaluated alone in the pass, and one that fails there raises its own error
only when a pair reads it, so a candidate that algorithm would not have
evaluated can neither raise nor change the result.  This needs plant maps
that accept a leading batch axis (see :mod:`mhestab.systems`).

``_window_costs``, the cost that is reported and certified, prices a stack
of windows, each of its own length, by the rule of the error bounds in
:mod:`mhestab.certificates`: ``gain_terms`` evaluates each gain over the
windows' ages (a slope product when every slice is linear in r, otherwise
one array call per age), and ``fold_terms`` combines them.  A solved window's
cost and the reference cost of :func:`certify_suboptimality` are rows of
it.  The engines' objective shares the rollout and the noise read off the
outputs but keeps its own fold: it calls each gain once per age on a column
of candidates and folds left to right like ``plus_reduce``, and moving it
onto the slope products would move the iterates pinned by
``tests/golden_generic.json``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
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
# rows times window length of one group of growing windows: for the structured
# engines, and for the generic ones, whose passes hold some dim + 1 or 24
# candidates of dim entries for each start of each row
GROUP_ROW_STEPS = 1 << 15
GENERIC_GROUP_ROW_STEPS = 1 << 9


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
    """The estimate of one window, or the stack of the R windows of a group:
    a leading row axis on xhat, what, vhat and prior, (R,) arrays of cost,
    iterations and starts_used, and the one engine and horizon.
    :meth:`cell` gives window i of a stack.  Every window of a stack has its
    length; an engine's stack of a group of several lengths is padded to the
    longest, and :func:`_drive` cuts it once per step (:meth:`take`) before
    it leaves this module."""

    xhat: np.ndarray      # (K+1, n) window states including the published endpoint
    what: np.ndarray      # (K, q)
    vhat: np.ndarray      # (K, m)
    cost: float
    engine: str
    prior: np.ndarray
    horizon: int
    iterations: int = 0
    starts_used: int = 1

    @property
    def published(self) -> np.ndarray:
        return self.xhat[..., -1, :]

    def cell(self, i: int) -> "EstimateResult":
        """Window i of a stack, as that window solved alone gives it."""
        return EstimateResult(self.xhat[i], self.what[i], self.vhat[i], float(self.cost[i]),
                              self.engine, self.prior[i], self.horizon, int(self.iterations[i]),
                              int(self.starts_used[i]))

    def take(self, rows: slice, horizon: Optional[int] = None) -> "EstimateResult":
        """The stack of a slice of the rows of a stack; with a ``horizon``,
        rows of windows of that length cut from an engine's padded stack."""
        out = replace(self, **{name: getattr(self, name)[rows] for name in (
            "xhat", "what", "vhat", "cost", "prior", "iterations", "starts_used")})
        if horizon is not None and horizon != self.horizon:
            out.xhat, out.what, out.vhat = (out.xhat[:, :horizon + 1], out.what[:, :horizon],
                                            out.vhat[:, :horizon])
            out.horizon = horizon
        return out

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
                  nu: np.ndarray, k: Optional[np.ndarray] = None) -> np.ndarray:
    """The discounted costs (C,) of C candidate windows: prior and chi0
    (C, n), omega (C, K, q), nu (C, K, m), in time order.  Row c is a window
    of length k[c] <= K (all K without ``k``), and entries past it are not
    read.  Entry j of a window's omega and nu acts at age k - j, and the
    prior mismatch is discounted by the full length.  The rows of each
    length take one array call per gain and one fold, so each row's cost is
    its window's alone."""
    k = np.full(len(prior), omega.shape[1]) if k is None else k
    out = np.empty(len(k))
    for L, run in _length_runs(k):
        ages = range(L, 0, -1)             # entry j acts at age L - j
        dist = row_distances(chi0[run], prior[run])
        heads = gain_terms(cost.beta_hat, range(L, L + 1), dist[:, None])[:, 0]
        wn, vn = (seq_norms(np.ascontiguousarray(seq[run, :L])) for seq in (omega, nu))
        c_terms = gain_terms(cost.gamma_hat, ages, wn)
        d_terms = gain_terms(cost.delta_hat, ages, vn)
        out[run] = fold_terms(cost.mode, heads, c_terms, d_terms)
    return out


def _length_runs(k: np.ndarray) -> List[Tuple[int, slice]]:
    """``(L, slice)`` of each run of equal window lengths L in k, in order."""
    cuts = ((k[1:] != k[:-1]).nonzero()[0] + 1).tolist()
    return [(int(k[a]), slice(a, b)) for a, b in zip([0] + cuts, cuts + [len(k)])]


# ---------------------------------------------------------------------------
# Window groups and shared helpers
# ---------------------------------------------------------------------------

def _step_windows(seq: np.ndarray, stops: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The windows [stop - L, stop) of the (C, T, ...) stack seq, for each
    step's stop and length L, stacked step-major: (S * C, max L, ...).  The
    entries past a window's length repeat clipped entries of seq, and no
    row reads them."""
    at = np.minimum((stops - lengths)[:, None] + np.arange(lengths.max()), seq.shape[1] - 1)
    out = seq[np.arange(len(seq))[:, None], at[:, None]]        # (S, C, max L, ...)
    return out.reshape((-1,) + out.shape[2:])


class _Rows:
    """A group of windows, one row each, that share the plant and cost and
    differ in their priors (R, n), outputs (R, K, p) and lengths k (R,) <=
    K, in nondecreasing order.  Every window reads its inputs from step 0 of
    the shared inputs u_win (K, du), so row r reads u_win[:k[r]] and y[r,
    :k[r]], and the entries past its length are padding that no row's
    numbers read.  Every helper below works elementwise along the rows, so a
    row's numbers are those of its window solved alone.  The drivers gather
    the groups from their stacks, the windows of consecutive steps stacked
    step-major (:func:`_step_windows`), and :meth:`of` groups windows of one
    length given one at a time.

    ``live[j]`` is the first row longer than j - 1: the rows with a state j,
    the published endpoint counted, are ``[live[j]:]``, and those with an
    entry j of their outputs and disturbances are ``[live[j + 1]:]``."""

    def __init__(self, model: SystemModel, cost: CostSpec, u_win: np.ndarray,
                 prior: np.ndarray, y: np.ndarray, k: Optional[np.ndarray] = None):
        self.model, self.cost, self.u_win, self.prior, self.y = model, cost, u_win, prior, y
        self.K, R = y.shape[1], len(prior)
        self.k = np.full(R, self.K) if k is None else k
        self.live = np.searchsorted(self.k, np.arange(self.K + 2)).tolist()

    @classmethod
    def of(cls, problems: Sequence[EstimationProblem]) -> "_Rows":
        first = problems[0]
        return cls(first.model, first.cost, first.u_win, np.array([p.prior for p in problems]),
                   np.array([p.y_win for p in problems]))

    def __len__(self) -> int:
        return len(self.prior)

    def take(self, idx) -> "_Rows":
        """The rows idx, in nondecreasing length, cut to the longest."""
        k = self.k[idx]
        K = int(k[-1])
        return _Rows(self.model, self.cost, self.u_win[:K], self.prior[idx], self.y[idx, :K], k)


def _rollout(rows: _Rows, chi0: np.ndarray, omega: np.ndarray,
             endpoint: bool = False) -> np.ndarray:
    """The scored states (B, K, n) of each row's window from chi0 (B, n)
    under omega (B, K, q), then, with ``endpoint``, the published endpoint,
    one transition past the last of them: (B, K + 1, n).  B rows of the
    group, or B candidates of rows of it; padding states are 0."""
    model, K, live = rows.model, rows.K, rows.live
    xs = np.zeros((len(chi0), K + endpoint, model.state_dim))
    xs[:, 0] = x = chi0
    at = 0
    for j in range(K - 1 + endpoint):
        nxt = live[j + 2 - endpoint]            # the rows that take transition j
        x = model.f(x[nxt - at:], rows.u_win[j], omega[nxt:, j])
        xs[nxt:, j + 1] = x
        at = nxt
    return xs


def _eliminated_nu(rows: _Rows, xs: np.ndarray) -> np.ndarray:
    model, K, live = rows.model, rows.K, rows.live
    nu = np.zeros((len(xs), K, model.meas_noise_dim))
    for j in range(K):
        a = live[j + 1]
        nu[a:, j] = rows.y[a:, j] - model.h_nominal(xs[a:, j], rows.u_win[j])
    return nu


def _candidate_starts(rows: _Rows) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Deterministic initializations (chi0 (R, n), omega (R, K, q)): prior
    rollout, then an output-informed start when the plant is scalar."""
    model, K = rows.model, rows.K
    starts = [(rows.prior.copy(), np.zeros((len(rows), K, model.process_noise_dim)))]
    if model.is_scalar:
        y = rows.y
        omega = np.zeros((len(rows), K, 1))
        for j in range(K - 1):
            a = rows.live[j + 2]
            omega[a:, j] = y[a:, j + 1] - model.f_nominal(y[a:, j], rows.u_win[j])
        starts.append((y[:, 0].copy(), omega))
    return starts


def _stacked(rows: _Rows, xhat: np.ndarray, omega: np.ndarray, nu: np.ndarray,
             cost: np.ndarray, engine: str) -> EstimateResult:
    """The group's result, every row with 0 iterations and 1 start."""
    R = len(rows)
    return EstimateResult(xhat, omega, nu, cost, engine, rows.prior.copy(), rows.K,
                          np.zeros(R, dtype=int), np.ones(R, dtype=int))


def _results_from_decisions(rows: _Rows, chi0: np.ndarray, omega: np.ndarray,
                            engine: str) -> EstimateResult:
    # the window is a solution of the plant: states rolled forward, the
    # measurement noise read off the outputs
    xhat = _rollout(rows, chi0, omega, endpoint=True)
    nu = _eliminated_nu(rows, xhat)
    cost = _window_costs(rows.cost, rows.prior, chi0, omega, nu, rows.k)
    return _stacked(rows, xhat, omega, nu, cost, engine)


# ---------------------------------------------------------------------------
# Engine A: max-mode level bisection on scalar plants
# ---------------------------------------------------------------------------

N_LEVELS = 48             # levels per bisection pass


class _WidthTable:
    """Per-age halfwidth evaluator fn(., age)^{-1}(level), slope-cached, for
    the windows of a group: the prior's at the age of the window length, or
    the stages' at ages 1 .. length.

    A window length whose slices at those ages are linear with positive
    slopes takes a vectorized inverse-slope product, as its window alone
    does; any other falls back to per-level inversion.  Widths are capped: a
    deeply discounted term is effectively unconstrained at any respectable
    level.
    """

    def __init__(self, fn, lengths: np.ndarray, prior: bool):
        self.fn = fn
        distinct = sorted(set(lengths.tolist()))
        self.linear = np.zeros(distinct[-1] + 1, dtype=bool)
        self.inv = np.full(distinct[-1] + 1, math.nan)      # 1 / slope per age
        for L in distinct:
            table = slope_table(fn, L)
            ages = [L] if prior else slice(1, L + 1)
            if table is not None and np.all(table[ages] > 0):
                self.linear[L] = True
                with np.errstate(divide="ignore"):
                    self.inv[:L + 1] = 1.0 / table      # the tables of fn are prefixes
        self.by_level = not self.linear[distinct].all()     # some length is not linear

    def widths(self, levels: np.ndarray, ages: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Halfwidths (R, L) at the levels (R, L) of rows of window lengths
        k (R,), at the age (R,) >= 1 of each row: the inverse-slope product
        for every row, then per-level inversion for the rows whose length
        is not linear."""
        out = np.minimum(self.inv[ages][:, None] * levels, WIDTH_CAP)
        if not self.by_level:
            return out
        for r in np.nonzero(~self.linear[k])[0].tolist():
            for i, lev in enumerate(levels[r]):
                if lev <= 0.0:
                    out[r, i] = 0.0
                    continue
                try:
                    out[r, i] = min(self.fn.r_inverse(lev, int(ages[r])), WIDTH_CAP)
                except CapabilityError:
                    out[r, i] = WIDTH_CAP
        return out


def _max_prepare(rows: _Rows):
    return (_WidthTable(rows.cost.beta_hat, rows.k, True),
            _WidthTable(rows.cost.delta_hat, rows.k, False),
            _WidthTable(rows.cost.gamma_hat, rows.k, False))


def _max_feasible(rows: _Rows, prep, levels: np.ndarray, record: bool = False):
    """Interval-propagation feasibility of `max cost <= level` per row and
    level; ``levels`` is (R, L), one row of levels per window.  Step j
    intersects the rows that have an entry j and images the rows that have
    a state j + 1, so a row stops at its own length; with ``record``, the
    intervals of step j are those of the rows ``[rows.live[j + 1]:]``.

    Once an interval goes empty its level stays dead through the latched
    ``alive`` mask; the interval values themselves keep propagating (they stay
    finite because widths are capped) and are ignored.
    """
    model, K, k, live = rows.model, rows.K, rows.k, rows.live
    y = rows.y[:, :, 0].T[:, :, None]          # (K, R, 1)
    ages = k - np.arange(K)[:, None]           # entry j of row r acts at age k[r] - j
    pw = prep[0].widths(levels, k, k)
    lo = rows.prior - pw
    hi = rows.prior + pw
    alive = np.ones(levels.shape, dtype=bool)
    intervals = []
    for j in range(K):
        a = live[j + 1]                          # lo and hi hold the rows [a:]
        dw_j = prep[1].widths(levels[a:], ages[j, a:], k[a:])
        lo = np.maximum(lo, y[j, a:] - dw_j)
        hi = np.minimum(hi, y[j, a:] + dw_j)
        alive[a:] &= lo <= hi
        if record:
            lo, hi = np.where(alive[a:], lo, 0.0), np.where(alive[a:], hi, 0.0)
            intervals.append((lo, hi))
        if j < K - 1:
            b = live[j + 2]
            gw_j = prep[2].widths(levels[b:], ages[j, b:], k[b:])
            img_lo, img_hi = model.f_image(lo[b - a:], hi[b - a:], rows.u_win[j])
            lo = img_lo - gw_j
            hi = img_hi + gw_j
    return (alive, intervals) if record else (alive, None)


def _max_reconstruct(rows: _Rows, prep, levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, whether its cost level (R,) is feasible, and the states
    (R, K) of a feasible trajectory at that level, NaN where it is not or
    past the row's length.  Each row starts at the middle of its last
    interval and walks back through its own steps."""
    model, K = rows.model, rows.K
    alive, intervals = _max_feasible(rows, prep, levels[:, None], record=True)
    feasible = alive[:, 0]
    chis = np.full((len(rows), K), math.nan)
    ok = np.flatnonzero(feasible)
    if not len(ok):
        return feasible, chis
    k, live = rows.k[ok], rows.take(ok).live
    for j in range(k[-1] - 1, -1, -1):
        a, b = live[j + 1], live[j + 2]          # the rows with an entry j, j + 1
        at = ok[a:]
        lo_j, hi_j = (iv[at - rows.live[j + 1], 0] for iv in intervals[j])
        if b > a:                                # the rows ending at j
            chis[at[:b - a], j] = 0.5 * (lo_j[:b - a] + hi_j[:b - a])
        if b < len(ok):
            lo_j, hi_j, nxt = lo_j[b - a:], hi_j[b - a:], chis[ok[b:], j + 1]
            gw = prep[2].widths(levels[ok[b:], None], k[b:] - j, k[b:])[:, 0]
            img_lo, img_hi = model.f_image(lo_j, hi_j, rows.u_win[j])
            target = clamp(nxt, img_lo - gw, img_hi + gw)
            chis[ok[b:], j] = model.f_solve(clamp(target, img_lo, img_hi), lo_j, hi_j,
                                            rows.u_win[j])
    return feasible, chis


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


def _solve_max_scalar(rows: _Rows) -> EstimateResult:
    """Max-mode level bisection for a group of windows.

    The per-row branches -- the zero-level exit, the top-level guard and
    the bump loop -- are masks over the rows, and every row ends with the
    result of its window solved alone.  A row without a finite-cost
    candidate, or whose reconstruction fails, raises for the whole group.
    """
    model, K = rows.model, rows.K
    prep = _max_prepare(rows)
    # guaranteed-feasible upper bracket from candidate trajectories
    s_hi = np.full(len(rows), math.inf)
    for chi0, omega in _candidate_starts(rows):
        val = _window_costs(rows.cost, rows.prior, chi0, omega,
                            _eliminated_nu(rows, _rollout(rows, chi0, omega)), rows.k)
        s_hi = np.where(np.isfinite(val) & (val < s_hi), val, s_hi)
    if not np.isfinite(s_hi).all():
        raise InfeasibleWindowError("no finite-cost candidate trajectory")
    chis = np.empty((len(rows), K))
    bisected = np.ones(len(rows), dtype=bool)
    zero = np.flatnonzero((s_hi == 0.0)
                          | _max_feasible(rows, prep, np.zeros((len(rows), 1)))[0][:, 0])
    if len(zero):
        solved, found = _max_reconstruct(rows.take(zero), prep, np.zeros(len(zero)))
        chis[zero, :found.shape[1]] = found
        bisected[zero] = ~solved
    todo = np.flatnonzero(bisected)
    if len(todo):
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
            ok, solved = _max_reconstruct(sub.take(pending), prep, bump[pending])
            chis[todo[pending[ok]], :solved.shape[1]] = solved[ok]
            pending = pending[~ok]
            if not len(pending):
                break
            bump[pending] = bump[pending] * (1 + 1e-9) + 1e-300
        if len(pending):
            raise InfeasibleWindowError("level reconstruction failed")
    omega = np.zeros((len(rows), K, 1))
    for j in range(K - 1):
        a = rows.live[j + 2]
        omega[a:, j, 0] = chis[a:, j + 1] - model.f_nominal(chis[a:, j, None],
                                                            rows.u_win[j])[:, 0]
    result = _results_from_decisions(rows, chis[:, :1], omega, "max-interval")
    result.iterations = np.where(bisected, LEVEL_PASSES, 0)
    return result


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
    def abs_terms(centers: np.ndarray, weight) -> "_PWLRows":
        """weight[r] * |x - centers[r]| per row (one weight, or one per row)."""
        R = len(centers)
        weight = np.broadcast_to(weight, (R,))
        return _PWLRows(centers[:, None].astype(float), np.stack([-weight, weight], axis=1),
                        np.zeros(R), np.ones(R, dtype=int))

    def cut(self, rows: slice) -> "_PWLRows":
        """The functions of a slice of the rows."""
        out = _PWLRows(self.xs[rows], self.slopes[rows], self.y0[rows], self.n[rows])
        if self._knot_values is not None:
            out._knot_values = self._knot_values[rows]
        return out

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

    def add_abs(self, centers: np.ndarray, weight) -> "_PWLRows":
        """The sum with weight[r] * |x - centers[r]| per row."""
        weight = np.broadcast_to(weight, centers.shape)
        xs, n = self.with_point(centers)
        # the left arm lies left of every breakpoint and of the center; then
        # the slope right of each breakpoint
        idx = (self.xs[:, None, :] <= xs[:, :, None]).sum(axis=2)
        slopes = np.concatenate([self.slopes[:, :1] - weight[:, None], self.slopes[self.rows, idx]
                                 + np.where(centers[:, None] <= xs, weight[:, None],
                                            -weight[:, None])], axis=1)
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

    def infconv_abs(self, w) -> "_PWLRows":
        """Infimal convolution with w[r] * |.| == slope clipping to [-w[r],
        w[r]], anchored so values in the unclipped region are preserved."""
        vmin, arg_lo, _ = self.min()
        R = len(vmin)
        w = np.broadcast_to(w, (R,))
        # zero-weight stage: the stage variable is free, leaving a constant
        free = w <= 0.0
        w = w[:, None]
        s = np.where(-w > self.slopes, -w, self.slopes)
        s = np.where(w < s, w, s)
        out = _PWLRows(self.xs, s, self._anchored(s, arg_lo, vmin), self.n)._pruned()
        xs = np.where(free[:, None], np.inf, out.xs)
        xs[free, 0] = arg_lo[free]
        return _PWLRows(xs, np.where(free[:, None], 0.0, out.slopes), np.where(free, vmin, out.y0),
                        np.where(free, 1, out.n))

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
    """The slope tables of beta_hat, gamma_hat and delta_hat up to age K, or
    None when a slice is not linear."""
    tables = [slope_table(fn, K) for fn in (cost.beta_hat, cost.gamma_hat, cost.delta_hat)]
    return None if any(table is None for table in tables) else tables


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


def _solve_sum_pwl(rows: _Rows) -> EstimateResult:
    """Sum-mode dynamic programming for a group of windows, one row per
    window.

    The forward pass builds each step's value function as a convex
    piecewise-linear function of the state, weighted by each row's ages; a
    row stops at its own length.  The backward pass picks, from the midpoint
    of the minimizers at a row's last step back, the smallest state among
    the breakpoints and the kink that minimizes stage value plus transition
    cost.  Every row ends with the result of its window solved alone.
    """
    model, K, R, k, live = rows.model, rows.K, len(rows), rows.k, rows.live
    a = float(model.linear_a)
    y = rows.y[:, :, 0]
    p_t, g_t, d_t = _sum_weights(rows.cost, K)
    offs = [float(np.atleast_1d(model.f_nominal(np.zeros(1), rows.u_win[j]))[0])
            for j in range(K)]
    chis = np.empty((R, K))
    with np.errstate(invalid="ignore", over="ignore"):    # as Python floats, silently
        stages = []                 # step j's functions, of the rows [live[j + 1]:]
        V = _PWLRows.abs_terms(rows.prior[:, 0], p_t[k]).add_abs(y[:, 0], d_t[k])
        for j in range(K):
            lo, hi = live[j + 1], live[j + 2]    # the rows [lo:hi] end at step j
            if hi > lo:
                _, arg_lo, arg_hi = V.cut(slice(0, hi - lo)).min()
                chis[lo:hi, j] = np.where(np.isfinite(arg_lo), 0.5 * (arg_lo + arg_hi), arg_hi)
            if hi < R:
                stages.append(V)
                V = V.cut(slice(hi - lo, None)).scale_shift_arg(a, offs[j]).infconv_abs(
                    g_t[k[hi:] - j]).add_abs(y[hi:, j + 1], d_t[k[hi:] - j - 1])
        for j in range(K - 2, -1, -1):
            lo, hi = live[j + 1], live[j + 2]    # the rows [hi:] go on past step j
            Vj, nxt = stages[j].cut(slice(hi - lo, None)), chis[hi:, j + 1]
            cands, counts = Vj.with_point((nxt - offs[j]) / a)
            vals = Vj.value(cands) + g_t[k[hi:] - j][:, None] * np.abs(
                nxt[:, None] - a * cands - offs[j])
            vals[(np.arange(cands.shape[1]) >= counts[:, None]) | np.isnan(vals)] = math.inf
            chis[hi:, j] = _first_best(cands, vals)
    omega = np.zeros((R, K, 1))
    for j in range(K - 1):
        hi = live[j + 2]
        omega[hi:, j, 0] = chis[hi:, j + 1] - (a * chis[hi:, j] + offs[j])
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

    A candidate z of a window of length L stacks the initial state chi0 (n)
    and the disturbances omega (L x q); the measurement noise nu is read off
    the outputs.  It has :meth:`dim_of` (L) entries, and a pass lays it out
    as the first entries of a candidate of its longest window, with zero
    disturbance past L.  :meth:`evaluate` maps such candidates Z (B, dim)
    of the windows ``owner`` (B,) of the group, in nondecreasing length, to
    their cost terms (B, 2K+1), ordered beta_hat, then gamma_hat and
    delta_hat of each window step in time order and 0 past a row's own
    2L+1; and the errors of the rows whose evaluation alone raises.  Each
    row reads its own window's prior, outputs and length, each gain is
    evaluated once per age on the rows that have a term at that age, and
    every row is computed by exactly the arithmetic of evaluating that
    candidate alone on its window, so neither batching nor grouping moves
    an iterate.  A row the batch cannot take -- a NaN distance or norm,
    zeroed for the batch, a NaN or negative term, or every row when the
    batch raises -- is evaluated alone in the pass; a failing one keeps NaN
    terms and its error, which :class:`_Batch` raises only when an engine
    reads that row.
    """

    def __init__(self, rows: _Rows):
        self.rows, self.n, self.q = rows, rows.model.state_dim, rows.model.process_noise_dim
        self.dim = self.dim_of(rows.K)

    def dim_of(self, L: int) -> int:
        return self.n + L * self.q

    def unpack(self, Z: np.ndarray):
        """chi0 (B, n) and omega (B, K, q) of the candidates Z (B, dim) of
        windows of length K."""
        B, n = len(Z), self.n
        return Z[:, :n], Z[:, n:].reshape(B, (Z.shape[1] - n) // self.q, self.q)

    def evaluate(self, Z: np.ndarray, owner: np.ndarray):
        """``(terms, errors)`` of the candidate rows Z, row b a candidate of
        window ``owner[b]``; ``errors`` maps each failing row, in order, to
        what evaluating it alone raises."""
        B, K = len(Z), (Z.shape[1] - self.n) // self.q
        errors = {}
        with np.errstate(all="ignore"):
            try:
                terms, alone = self._evaluate(Z, owner, strict=False)
            except Exception:
                # a plant map or gain failed on some row, which need not be
                # one the engine reads
                terms, alone = np.zeros((B, 2 * K + 1)), np.ones(B, dtype=bool)
            for b in np.flatnonzero(alone).tolist():
                L = int(self.rows.k[owner[b]])
                try:
                    one, _ = self._evaluate(Z[b:b + 1, :self.dim_of(L)], owner[b:b + 1], True)
                    plus_reduce(self.rows.cost.mode, one[0])    # NaN or negative terms
                    terms[b, :2 * L + 1] = one[0]
                except Exception as exc:
                    terms[b], errors[b] = np.nan, exc
        return terms, errors

    def _evaluate(self, Z: np.ndarray, owner: np.ndarray, strict: bool):
        rows = self.rows.take(owner)            # each candidate's own window
        cost, K, k, live = rows.cost, rows.K, rows.k, rows.live
        B = len(Z)
        chi0, omega = self.unpack(Z)
        nu = _eliminated_nu(rows, _rollout(rows, chi0, omega))
        dist = row_distances(chi0, rows.prior)
        wn = np.sqrt(_row_sqnorms(omega))
        vn = np.sqrt(_row_sqnorms(nu))
        alone = np.isnan(dist) | np.isnan(wn).any(axis=1) | np.isnan(vn).any(axis=1)
        if not strict and alone.any():
            dist, wn, vn = (np.where(np.isnan(a), 0.0, a) for a in (dist, wn, vn))
        terms = np.zeros((B, 2 * K + 1))
        runs = _length_runs(k)
        # each row's norms right-aligned, so that column c holds age K - c,
        # then replaced by their terms, one gain call per age
        w_age, v_age = np.zeros((B, K)), np.zeros((B, K))
        for L, run in runs:
            terms[run, 0] = cost.beta_hat(dist[run], L)
            w_age[run, K - L:], v_age[run, K - L:] = wn[run, :L], vn[run, :L]
        for c in range(K):
            a = live[K - c]                     # the rows with a term at age K - c
            w_age[a:, c] = cost.gamma_hat(w_age[a:, c], K - c)
            v_age[a:, c] = cost.delta_hat(v_age[a:, c], K - c)
        for L, run in runs:                     # back in time order, 0 past a row's own
            terms[run, 1:2 * L:2] = w_age[run, K - L:]
            terms[run, 2:2 * L + 1:2] = v_age[run, K - L:]
        alone |= ~(terms >= 0.0).all(axis=1)
        return terms, alone


class _Batch:
    """The candidate rows Z that one pair asked for in a pass, and what its
    engine reads of them: their cost ``terms``, the derived ``rows`` and
    their ``scores``, from ``derive(objective, terms, lengths, stage)``, and
    the ``errors`` of the rows whose evaluation alone raises.  A pair reads
    its rows in the order the one-candidate algorithm evaluates them, and
    reading a failing row raises its error.  The arrays are views of the
    pass."""

    def __init__(self, Z: np.ndarray, terms: np.ndarray, rows: np.ndarray, scores: np.ndarray,
                 errors: dict):
        self.Z, self.terms, self.rows, self.scores, self.errors = Z, terms, rows, scores, errors

    def read(self, n: int):
        """Reads rows 0..n-1: raises the error of the first failing one."""
        first = min(self.errors, default=n)
        if first < n:
            raise self.errors[first]

    def first_below(self, bound: float) -> Optional[int]:
        """The first row that scores below bound, or None; the rows up to it
        are read, and the rows after it are not."""
        hit = self.scores < bound
        j = int(np.argmax(hit))
        found = bool(hit[j])
        self.read(j + 1 if found else len(hit))
        return j if found else None


def _evaluate_pass(objective: _Objective, derive, asks) -> List[_Batch]:
    """One objective pass over the candidate rows that pairs ask for, each
    ask ``(Z, window, stage)`` with Z of the window's own width, laid out
    as candidates of the longest window asked for; the asks come in window
    order.  The rows of each stage are derived in one call.  Returns one
    :class:`_Batch` per ask, its arrays cut to its window's own 2L + 1
    terms."""
    k = objective.rows.k
    lengths = k[[window for _, window, _ in asks]].tolist()
    K = lengths[-1]
    sizes = [len(Z) for Z, _, _ in asks]
    ends = list(itertools.accumulate(sizes))
    spans = [slice(end - size, end) for end, size in zip(ends, sizes)]
    Z = np.zeros((ends[-1], objective.dim_of(K)))
    for L, run in _length_runs(np.array(lengths)):
        Z[spans[run.start].start:spans[run.stop - 1].stop, :objective.dim_of(L)] = \
            np.concatenate([z for z, _, _ in asks[run]])
    terms, errors = objective.evaluate(Z, np.repeat([w for _, w, _ in asks], sizes))
    lens = np.repeat(lengths, sizes)
    stages = list(dict.fromkeys(stage for _, _, stage in asks))
    stage_of = np.repeat([stages.index(stage) for _, _, stage in asks], sizes)
    rows, scores = np.empty(terms.shape), np.empty(len(Z))
    with np.errstate(all="ignore"):
        for s, stage in enumerate(stages):
            sel = np.flatnonzero(stage_of == s) if len(stages) > 1 else slice(None)
            rows[sel], scores[sel] = derive(objective, terms[sel], lens[sel], stage)
    return [_Batch(z, terms[span, :2 * L + 1], rows[span, :2 * L + 1], scores[span],
                   {b - span.start: e for b, e in errors.items() if span.start <= b < span.stop})
            for span, L, (z, _, _) in zip(spans, lengths, asks)]


def _lockstep(objective: _Objective, derive, pairs) -> list:
    """Run the (window, start) pairs of a group together; returns what each
    pair returns.

    A pair is a generator: it yields the candidate rows it reads next as
    ``(Z, window, stage)`` -- a Gauss-Newton point with its Jacobian
    points, or a line search's halvings, or the rest of a compass sweep --
    and is sent them back as a :class:`_Batch`.  Each tick evaluates the
    rows of every live pair in one objective pass (:func:`_evaluate_pass`).
    A pair leaves when it returns, or when a read raises the error that a
    row's evaluation alone raised in the pass; once every pair has left,
    the first pair in the order given that raised makes the whole group
    raise, which is what solving the pairs one after another would have
    raised.
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
    rows, R = objective.rows, len(objective.rows)
    base = [np.concatenate([chi0, omega.reshape(R, -1)], axis=1)
            for chi0, omega in _candidate_starts(rows)]
    out = []
    for i, L in enumerate(rows.k.tolist()):
        starts = [z[i, :objective.dim_of(L)] for z in base]
        gen = np.random.Generator(np.random.Philox(key=cfg.seed))
        spread = max(1.0, float(np.max(np.abs(rows.y[i, :L]))),
                     float(np.max(np.abs(rows.prior[i]))))
        while len(starts) < cfg.multistart:
            starts.append(starts[0] + gen.normal(0.0, 0.3 * spread, objective.dim_of(L)))
        out.append(starts[:cfg.multistart])
    return out


def _solve_pairs(objective: _Objective, cfg: SolverConfig, pair, derive,
                 engine: str) -> EstimateResult:
    """Run ``pair(objective, window, z0, cfg)`` from every start of every
    window of the group in :func:`_lockstep` and keep, per window, the
    start whose end point costs least (the first of equal costs).  A pair
    returns its end point's cost, the end point and its iterations."""
    rows, starts = objective.rows, _generic_starts(objective, cfg)
    keys = [(i, idx) for i, zs in enumerate(starts) for idx in range(len(zs))]
    ends = _lockstep(objective, derive, [pair(objective, i, starts[i][idx], cfg)
                                         for i, idx in keys])
    best = {}
    for (i, idx), (cost, z, iters) in zip(keys, ends):
        if i not in best or cost < best[i][0]:
            best[i] = (cost, z, iters, idx)
    _, z, iterations, start = zip(*(best[i] for i in range(len(starts))))
    Z = np.zeros((len(z), objective.dim))
    for i, L in enumerate(rows.k.tolist()):
        Z[i, :objective.dim_of(L)] = z[i]
    result = _results_from_decisions(rows, *objective.unpack(Z), engine)
    result.iterations, result.starts_used = np.array(iterations), np.array(start) + 1
    return result


def _compass_pair(objective: _Objective, window: int, z0: np.ndarray, cfg: SolverConfig):
    """Compass search from z0 on one window, as a :func:`_lockstep` pair.

    Each sweep tries every coordinate in turn, a step up and then a step
    down, and moves to the first candidate that improves, growing that
    coordinate's step; a sweep without a move halves every step.  The rest
    of a sweep is asked for from the current point in one batch and read in
    order; after a move the batch is dropped and a new one starts at the
    next coordinate.
    """
    dim = objective.dim_of(int(objective.rows.k[window]))
    signs = np.tile([1.0, -1.0], dim)
    z, iters = z0.copy(), 0
    batch = yield z[None, :], window, None
    batch.read(1)
    best = batch.scores[0]
    step = np.maximum(0.25, 0.1 * np.abs(z))
    for _ in range(cfg.max_iter):
        improved = False
        i = 0
        while i < dim:
            coords = np.repeat(np.arange(i, dim), 2)
            cands = np.repeat(z[None, :], len(coords), axis=0)
            cands[np.arange(len(coords)), coords] += signs[2 * i:] * step[coords]
            batch = yield cands, window, None
            k = batch.first_below(best - 1e-300)
            if k is None:
                iters += len(coords)
                break
            iters += k + 1
            z, best = cands[k], batch.scores[k]
            step[coords[k]] *= 1.6
            improved = True
            i = coords[k] + 1
        if not improved:
            step *= 0.5
            if float(np.max(step)) < cfg.tol:
                break
    return best, z, iters


def _compass_derive(objective: _Objective, terms: np.ndarray, lens: np.ndarray, stage):
    """The rows a compass search reads, the terms, and their scores, the
    objective values: ``plus_reduce`` of each row's terms and the zeros
    past them, folded left to right (:func:`plus_fold`), which the zeros
    do not change.  Compass has one stage, None."""
    return terms, plus_fold(objective.rows.cost.mode, terms.T)


def _solve_multistart_local(rows: _Rows, cfg: SolverConfig) -> EstimateResult:
    """Deterministic multistart compass search for a group of windows."""
    return _solve_pairs(_Objective(rows), cfg, _compass_pair, _compass_derive, "compass")


def _fd_steps(z: np.ndarray) -> np.ndarray:
    return 1e-6 * np.maximum(1.0, np.abs(z))


def _with_probes(z: np.ndarray) -> np.ndarray:
    """The rows z, z + h_0 e_0, ..., z + h_{dim-1} e_{dim-1}: a point and the
    points of its forward-difference Jacobian."""
    dim = len(z)
    Z = np.empty((dim + 1, dim))
    Z[:] = z
    Z[1:].reshape(-1)[::dim + 1] += _fd_steps(z)       # the diagonal
    return Z


def _gauss_newton_derive(objective: _Objective, terms: np.ndarray, lens: np.ndarray,
                         power: float):
    """The rows Gauss-Newton reads at the surrogate power, the residual
    vectors sqrt((term + eps)**power), and their scores, the squared
    residual norms, taken over the rows of each window length apart (one
    dot product per row of its own 2L + 1 entries)."""
    residuals = np.sqrt(np.power(terms + _EPS, power))
    scores = np.empty(len(residuals))
    for L, run in _length_runs(lens):
        scores[run] = _row_sqnorms(residuals[run, :2 * L + 1])
    return residuals, scores


def _gauss_newton_pair(objective: _Objective, window: int, z: np.ndarray, cfg: SolverConfig):
    """Damped Gauss-Newton from z on one window, through its surrogate
    powers in turn (see :func:`_solve_gauss_newton`), as a
    :func:`_lockstep` pair.

    The finite-difference Jacobian is taken from dim + 1 rows.  A line
    search asks for step length 1 with its Jacobian points, which the next
    iteration reads when that step is accepted, and only when it is not,
    for the 24 halvings 1/2, ..., 2**-24.  The first step length whose
    squared residual is below the current one is accepted; a stage ends
    when none is, when ``lstsq`` fails, when the accepted step is shorter
    than ``cfg.tol`` or after ``cfg.max_iter`` iterations.
    """
    dim = objective.dim_of(int(objective.rows.k[window]))
    iters = 0
    for power in (1.0,) if objective.rows.cost.mode is PlusMode.SUM else (2.0, 8.0):
        batch = None
        for _ in range(cfg.max_iter):
            if batch is None:
                batch = yield _with_probes(z), window, power
            batch.read(dim + 1)     # z, then each Jacobian point
            r, f0, at = batch.rows[0], batch.scores[0], batch.terms[0]
            jac = ((batch.rows[1:] - r) / _fd_steps(z)[:, None]).T
            try:
                step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            except np.linalg.LinAlgError:
                break
            iters += 1
            batch = yield _with_probes(z + step), window, power
            batch.read(1)
            if batch.scores[0] < f0 - 1e-300:
                z, at, alpha = batch.Z[0], batch.terms[0], 1.0
            else:       # the halvings, without Jacobian points
                batch = yield z + _HALVINGS[:, None] * step, window, power
                j = batch.first_below(f0 - 1e-300)
                if j is None:
                    break
                z, at, alpha, batch = batch.Z[j], batch.terms[j], _HALVINGS[j], None
            if float(np.linalg.norm(alpha * step)) < cfg.tol:
                break
    return plus_reduce(objective.rows.cost.mode, at), z, iters


def _solve_gauss_newton(rows: _Rows, cfg: SolverConfig) -> EstimateResult:
    """Damped Gauss-Newton on smoothed residuals for a group of windows.

    Sum-mode costs are minimized directly via sqrt-term residuals (so the
    squared residual norm is the cost); max-mode costs go through escalating
    power-mean surrogates, powers 2 and then 8, which squeeze the iterate
    toward the minimax point, with the true max cost reported.
    """
    return _solve_pairs(_Objective(rows), cfg, _gauss_newton_pair, _gauss_newton_derive,
                        "gauss-newton")


# ---------------------------------------------------------------------------
# Dispatch and drivers
# ---------------------------------------------------------------------------

def _structured_engine(model: SystemModel, cost: CostSpec, K: int):
    """The exact engine for windows of length up to K, :func:`_solve_max_scalar`
    or :func:`_solve_sum_pwl`, or None when only a generic method fits."""
    if not model.is_scalar:
        return None
    if cost.mode is PlusMode.MAX:
        if model.f_image is not None and model.f_solve is not None:
            return _solve_max_scalar
        return None
    if model.linear_a is not None and _sum_weights(cost, K) is not None:
        return _solve_sum_pwl
    return None


def solve_window(problem: EstimationProblem, solver: SolverConfig) -> EstimateResult:
    """Solve one estimation window: :func:`_solve_group` on a group of one.

    The returned trajectory always satisfies the window dynamics exactly (the
    disturbances are read off the transitions); the achieved cost is the
    certified upper envelope over the attempted starts.
    """
    return _solve_group(_Rows.of([problem]), solver).cell(0)


def _solve_group(rows: _Rows, solver: SolverConfig) -> EstimateResult:
    """Solve a group of windows as one: a structured engine when one fits,
    else the configured generic method.  The stacked result holds every row
    padded to the longest window; :meth:`EstimateResult.take` cuts a row to
    its own length."""
    engine = _structured_engine(rows.model, rows.cost, rows.K)
    if engine is not None:
        return engine(rows)
    if solver.method == "gauss_newton_penalty":
        return _solve_gauss_newton(rows, solver)
    return _solve_multistart_local(rows, solver)


def _drive(model: SystemModel, cost: CostSpec, prior0, u_seq, y_seq, solver: SolverConfig,
           horizon: Optional[int]) -> List[EstimateResult]:
    """Step every cell of the stack in lock-step over t; the window ending
    at s is [start(s), s), start(s) = max(0, s - horizon) or 0 without a
    horizon, and is anchored at the cell's prior0 when it starts at 0, else
    at the cell's own estimate published at start(s).

    A group opened at t takes the steps s = t, t + 1, ... while the anchor
    of s was published before t (start(s) < t), its inputs u[start(s):s]
    are the first entries of the group's u[start(t):], its length picks
    the engine of the window ending at t, and the group's steps times C
    times its longest length stay within ``GROUP_ROW_STEPS``
    (``GENERIC_GROUP_ROW_STEPS`` for a generic engine).  So the growing
    windows (every full-information step, and the moving-horizon steps t <=
    K) go as ragged groups cut only by the cap, and the full moving windows
    of up to K consecutive steps that share their inputs go together.  A
    group's outputs are gathered by :func:`_step_windows`, its stacked
    result is cut once per step, and when a group of several steps raises,
    its steps are solved one group each, in order, so the first failing
    step raises what it does alone."""
    y = np.asarray(y_seq, dtype=float)
    if y.ndim == 2:
        y = y[:, :, None]
    if y.ndim != 3 or y.shape[2] != model.output_dim or not len(y):
        raise DomainError(f"measurement stack of shape {np.shape(y_seq)} is not (C, T) "
                          f"or (C, T, {model.output_dim}) with C >= 1 cells")
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
    steps = [_stacked(_Rows(model, cost, u[:0], priors, y[:, :0]), priors[:, None, :].copy(),
                      np.zeros((C, 0, model.process_noise_dim)),
                      np.zeros((C, 0, model.meas_noise_dim)), np.zeros(C), "init")]
    starts = [0 if horizon is None else max(0, s - horizon) for s in range(T + 1)]
    engines = {L: _structured_engine(model, cost, L)
               for L in {s - starts[s] for s in range(1, T + 1)}}
    t = 1
    while t <= T:
        a = starts[t]
        engine = engines[t - a]
        cap = GENERIC_GROUP_ROW_STEPS if engine is None else GROUP_ROW_STEPS
        s = t + 1
        while s <= T and starts[s] < t and (s - t + 1) * C * (s - starts[s]) <= cap \
                and engines[s - starts[s]] is engine \
                and np.array_equal(u[starts[s]:s], u[a:a + s - starts[s]]):
            s += 1
        stops = np.arange(t, s)
        lengths = stops - starts[t:s]
        rows = _Rows(model, cost, u[a:a + lengths[-1]],
                     np.concatenate([steps[b].published if b else priors for b in starts[t:s]]),
                     _step_windows(y, stops, lengths), np.repeat(lengths, C))
        parts = [slice(i * C, (i + 1) * C) for i in range(s - t)]
        try:
            result = _solve_group(rows, solver)
            steps += [result.take(part, L) for part, L in zip(parts, lengths.tolist())]
        except Exception:
            if s == t + 1:
                raise
            steps += [_solve_group(rows.take(part), solver) for part in parts]
        t = s
    return steps


def run_fie(model: SystemModel, cost: CostSpec, prior0, u_seq, y_seq,
            solver: SolverConfig, t_max: int = 200) -> List[EstimateResult]:
    """Full-information estimates for t = 0..T of a stack of C >= 1 cells.

    ``y_seq`` is the (C, T) measurement stack, or (C, T, p) for p outputs;
    the cells share the inputs ``u_seq`` (T, du) and the initial prior
    ``prior0`` (n,), or each has its own, (C, n).  Returns one stacked
    result per step, whose row c is what cell c run alone gives.  The window
    grows with t and every window is anchored at the prior, so all of them
    are known at t = 1 and go as ragged groups of consecutive steps, cut
    only by the group cap and a change of engine (see :func:`_drive`);
    every result, and every error raised, is that of solving the steps one
    after another.  Beyond ``t_max`` the run refuses rather than switching
    to a moving horizon.
    """
    T = np.shape(y_seq)[1] if np.ndim(y_seq) > 1 else 0
    if T > t_max:
        raise HorizonCapError(f"full-information horizon {T} exceeds cap {t_max}")
    return _drive(model, cost, prior0, u_seq, y_seq, solver, None)


def run_mhe(model: SystemModel, cost: CostSpec, prior0, u_seq, y_seq, horizon: int,
            solver: SolverConfig) -> List[EstimateResult]:
    """Moving-horizon estimates of the stacks of :func:`run_fie`, returned as
    it returns them, with the filtering prior.

    For t <= K this is exactly the growing-window scheme; afterwards each
    cell's window is anchored at that cell's own estimate published K steps
    earlier.  A group opened at t therefore takes the steps up to t + K - 1
    whose inputs start its own, growing windows and full ones alike (see
    :func:`_drive`).  Every result, and every error raised, is that of
    solving the steps one after another.
    """
    if not (float(horizon).is_integer() and horizon >= 1):
        raise DomainError(f"moving horizon must be an integer >= 1, got {horizon}")
    return _drive(model, cost, prior0, u_seq, y_seq, solver, int(horizon))


def certify_suboptimality(result: EstimateResult, reference: SolutionTuple, cost: CostSpec,
                          a_factor: float,
                          model: Optional[SystemModel] = None) -> CertificationRecord:
    """Check the suboptimality hypothesis against a feasible reference window.

    This inequality (achieved cost at most A times the reference cost) is the
    exact hypothesis under which the error bounds are asserted downstream; a
    failed certification excludes the step from bound checks rather than
    weakening them.  The reference is priced by a one-row
    :func:`_window_costs` call and judged by :func:`certification_record`.
    """
    if model is not None:
        rep = verify_solution(model, reference, tol_dyn=1e-6)
        if not rep.passed:
            raise DomainError(f"reference window infeasible (residual {rep.worst_residual:.3e})")
    if reference.length < 1:
        raise DomainError("reference window must contain at least one step")
    j_ref = float(_window_costs(cost, result.prior[None], reference.x[:1], reference.w[None],
                                reference.v[None])[0])
    record = certification_record(np.array([result.cost]), np.array([j_ref]), a_factor)
    return CertificationRecord(bool(record.passed[0]), float(record.ratio[0]), result.cost, j_ref)


def certification_record(j_res: np.ndarray, j_ref: np.ndarray,
                         a_factor: float) -> CertificationRecord:
    """The verdicts on the achieved costs j_res against the reference costs
    j_ref, elementwise over arrays of one shape: passed where both are finite
    and j_res <= A j_ref + TOL_CERT; the ratio j_res / j_ref where j_ref > 0,
    and elsewhere 1.0 if j_res <= TOL_CERT and inf if not."""
    passed = np.isfinite(j_res) & np.isfinite(j_ref) & (j_res <= a_factor * j_ref + TOL_CERT)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(j_ref > 0, j_res / j_ref, np.where(j_res <= TOL_CERT, 1.0, math.inf))
    return CertificationRecord(passed, ratio, j_res, j_ref)
