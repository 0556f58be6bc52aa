"""Discrete-time plant models, simulation, and disturbance scenarios.

A plant is a pair of maps x+ = f(x, u, w), y = h(x, u, v) over real vector
spaces with the Euclidean distance, which :func:`row_distances` gives for
every caller.  Every plant is additive in its disturbances: it declares the
noise-free maps f_nominal and h_nominal, and f(x, u, w) = f_nominal(x, u) +
w and h(x, u, v) = h_nominal(x, u) + v, so q = n and m = p.  The estimators
rely on that: they read a window's measurement noise off its outputs.
Solutions are stored as fixed-length tuples {x, u, w, v, y}; the simulator
constructs them by forward iteration so they satisfy the dynamics to
rounding error, and ``verify_solution`` re-checks membership with the worst
residual reported.

Four test plants ship with the package:

* ``s1`` -- scalar contractive: x+ = 0.5 x + w, y = x + v
* ``s2`` -- scalar unstable but detectable: x+ = 2 x + w, y = x + v
* ``s3`` -- scalar Lipschitz nonlinear: x+ = 0.5 sin(x) + w, y = x + v
* ``s4`` -- two-state nonlinear reactor-style model, scalar output

The scalar plants expose exact interval images and preimages of their noise-
free transition maps; the window solvers use those for structured solves.

A :class:`DisturbanceScenario` is a named recipe for the process and
measurement disturbances, checked when built; :func:`generate_scenario`
draws its sequences for a seed and horizon.

Plant maps accept a leading batch axis: ``f_nominal(X, u)`` with X (B, n)
returns the (B, n) stack of ``f_nominal(X[b], u)``, bit for bit, and
``h_nominal`` does the same, so ``f`` and ``h`` do too; u is the one input
of the step.  ``f_image(lo, hi, u)`` and ``f_solve(c, lo, hi, u)`` take
arrays of one shape and work elementwise, each element bit for bit what the
call on that element alone returns.  The generic window solvers evaluate
their candidates that way, the max-mode engine solves a group of windows,
one row per window, that way, and :func:`simulate` steps a stack of cells,
one row per cell, that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .comparison import DomainError

TOL_DYN = 1e-9


class DivergenceError(RuntimeError):
    """Simulation produced a non-finite state; carries the failing time index."""

    def __init__(self, t: int):
        super().__init__(f"non-finite state at t={t}")
        self.t = t


def _row_sqnorms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis, rounded as numpy rounds
    the dot product of one row (``np.linalg.norm``, ``@``): a product for one
    column, else a stacked ``matmul``, which takes the same BLAS dot per row.
    ``einsum`` and ``(a * a).sum(-1)`` round differently."""
    if a.shape[-1] == 1:
        return a[..., 0] * a[..., 0]
    a = np.ascontiguousarray(a)
    return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


def row_distances(a, b) -> np.ndarray:
    """Euclidean distances between the rows of a (..., n) and those of b,
    broadcast against each other: each what ``np.linalg.norm(a_row - b_row)``
    gives."""
    return np.sqrt(_row_sqnorms(np.subtract(a, b, dtype=float)))


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Immutable plant description.

    ``f_nominal``/``h_nominal`` are the noise-free maps, and the plant is
    additive in its disturbances: :meth:`f` and :meth:`h` add w and v to
    them.  So the noise sizes are derived, not declared:
    ``process_noise_dim`` is ``state_dim`` and ``meas_noise_dim`` is
    ``output_dim``.  ``f_image`` and ``f_solve`` (scalar plants only) give
    the exact interval image of f_nominal and a point solving f_nominal(x)
    = c on an interval, elementwise over arrays.
    """

    name: str
    state_dim: int
    input_dim: int
    output_dim: int
    f_nominal: Callable
    h_nominal: Callable
    f_image: Optional[Callable] = None
    f_solve: Optional[Callable] = None
    linear_a: Optional[float] = None

    def f(self, x, u, w):
        return self.f_nominal(x, u) + np.asarray(w, dtype=float)

    def h(self, x, u, v):
        return self.h_nominal(x, u) + np.asarray(v, dtype=float)

    @property
    def process_noise_dim(self) -> int:
        return self.state_dim

    @property
    def meas_noise_dim(self) -> int:
        return self.output_dim

    @property
    def is_scalar(self) -> bool:
        return self.state_dim == 1 and self.output_dim == 1


@dataclass(frozen=True, eq=False)
class SolutionTuple:
    """A length-K solution {x, u, w, v, y} of a plant, or a stack of C such
    solutions that share their inputs.

    ``x[t+1] = f(x[t], u[t], w[t])`` holds for t < K-1 and
    ``y[t] = h(x[t], u[t], v[t])`` for all t; the final w maps the last stored
    state one step past the tuple and is kept because estimator windows
    penalize it.  A stack holds x (C, K, n), w (C, K, q), v (C, K, m) and
    y (C, K, p) with the one u (K, du); :meth:`cell` gives its solution c.
    """

    x: np.ndarray  # (K, n) or (C, K, n)
    u: np.ndarray  # (K, du)
    w: np.ndarray  # (K, q) or (C, K, q)
    v: np.ndarray  # (K, m) or (C, K, m)
    y: np.ndarray  # (K, p) or (C, K, p)

    def __post_init__(self):
        for name in ("x", "u", "w", "v", "y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            object.__setattr__(self, name, arr)
        k = self.length
        if any(getattr(self, name).shape[-2] != k for name in ("u", "w", "v", "y")):
            raise DomainError("solution sequences must share one length")

    @property
    def length(self) -> int:
        return self.x.shape[-2]

    def window(self, start: int, stop: int) -> "SolutionTuple":
        return SolutionTuple(self.x[..., start:stop, :], self.u[start:stop],
                             self.w[..., start:stop, :], self.v[..., start:stop, :],
                             self.y[..., start:stop, :])

    def cell(self, c: int) -> "SolutionTuple":
        """Solution c of a stack."""
        return SolutionTuple(self.x[c], self.u, self.w[c], self.v[c], self.y[c])


def simulate(model: SystemModel, x0, u_seq, w_seq, v_seq, T: int) -> SolutionTuple:
    """Run the plant forward for T steps and return the solution tuple.

    Sequences must have length T; the tuple stores states x(0..T-1) and the
    outputs they generate.  A non-finite intermediate state raises
    :class:`DivergenceError` with the failing time index.

    With a leading cell axis, x0 (C, n), w_seq (C, T, q) and v_seq (C, T, m)
    with the one u_seq (T, du), every step maps the C states at once and
    the result is the stack of the C solutions, each bit for bit what its
    cell gives alone (see the plant maps' batch contract).  A diverging
    stack raises the :class:`DivergenceError` of its first diverging cell.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim > 2 or x0.shape[-1] != model.state_dim:
        raise DomainError(f"initial state shape {x0.shape} is not ({model.state_dim},) "
                          f"or (C, {model.state_dim})")
    lead = x0.shape[:-1]
    u_seq = _as_seq(u_seq, (), T, model.input_dim)
    w_seq = _as_seq(w_seq, lead, T, model.process_noise_dim)
    v_seq = _as_seq(v_seq, lead, T, model.meas_noise_dim)
    # one cell goes as a stack of one
    x = x0.reshape(-1, model.state_dim)
    C = len(x)
    w_rows = w_seq.reshape(C, T, model.process_noise_dim)
    v_rows = v_seq.reshape(C, T, model.meas_noise_dim)
    xs = np.empty((C, T, model.state_dim))
    ys = np.empty((C, T, model.output_dim))
    diverged = np.full(C, T)             # each cell's first non-finite t; T: none
    for t in range(T):
        xs[:, t] = x
        ys[:, t] = model.h(x, u_seq[t], v_rows[:, t])
        x = model.f(x, u_seq[t], w_rows[:, t])
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            diverged[bad] = np.minimum(diverged[bad], t)
            # a diverged cell raises at its first t; its later states are not read
            x = np.where(bad[:, None], 0.0, x)
    if (diverged < T).any():
        raise DivergenceError(int(diverged[np.argmax(diverged < T)]))
    return SolutionTuple(xs.reshape(*lead, T, model.state_dim), u_seq, w_seq, v_seq,
                         ys.reshape(*lead, T, model.output_dim))


def _as_seq(seq, lead: tuple, T: int, dim: int) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim == len(lead) + 1:
        arr = arr[..., None]
    if arr.shape != (*lead, T, dim):
        raise DomainError(f"sequence shape {arr.shape} does not match {(*lead, T, dim)}")
    return arr


@dataclass(frozen=True)
class ResidualReport:
    passed: bool
    worst_residual: float
    worst_t: int

    def __bool__(self):
        return self.passed


def verify_solution(model: SystemModel, sol: SolutionTuple, tol_dyn: float = TOL_DYN) -> ResidualReport:
    """Check tuple membership in the solution set, reporting the worst
    residual: the first largest, dynamics before outputs.  A NaN residual
    fails, reported as the worst at the first step that has one."""
    residuals = []
    for t in range(sol.length - 1):
        pred = np.atleast_1d(model.f(sol.x[t], sol.u[t], sol.w[t]))
        residuals.append((t, float(row_distances(sol.x[t + 1], pred))))
    for t in range(sol.length):
        pred = np.atleast_1d(model.h(sol.x[t], sol.u[t], sol.v[t]))
        residuals.append((t, float(row_distances(sol.y[t], pred))))
    nan_steps = [t for t, res in residuals if math.isnan(res)]
    if nan_steps:
        return ResidualReport(False, math.nan, min(nan_steps))
    worst = 0.0
    worst_t = -1
    for t, res in residuals:
        if res > worst:
            worst, worst_t = res, t
    return ResidualReport(worst <= tol_dyn, worst, worst_t)


# ---------------------------------------------------------------------------
# Disturbance scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisturbanceScenario:
    """A named deterministic disturbance recipe, checked when built.

    kinds: ``zero``; ``bounded_uniform`` (amplitude); ``decaying_geometric``
    (amplitude, rate); ``impulse`` (time, magnitude -- applied to the process
    channel only).  amplitude, rate and magnitude must be finite, amplitude
    nonnegative, rate in [0, 1] and time a nonnegative integer, whatever the
    kind; a violation raises :class:`DomainError`.  :func:`generate_scenario`
    draws the sequences for a seed and horizon.
    """

    name: str
    kind: str = "zero"
    amplitude: float = 0.0
    rate: float = 0.0
    time: int = 0
    magnitude: float = 0.0

    KINDS = ("zero", "bounded_uniform", "decaying_geometric", "impulse")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"scenario {self.name} has unknown kind {self.kind!r}; "
                              f"choose one of {', '.join(self.KINDS)}")
        for key in ("amplitude", "rate", "magnitude"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise DomainError(f"scenario {self.name} {key} must be finite, got {value}")
        if self.amplitude < 0.0:
            raise DomainError(f"scenario {self.name} amplitude must be >= 0, got {self.amplitude}")
        if not 0.0 <= self.rate <= 1.0:
            raise DomainError(f"scenario {self.name} rate must be in [0, 1], got {self.rate}")
        if not (isinstance(self.time, int) and self.time >= 0):
            raise DomainError(f"scenario {self.name} time must be a nonnegative integer, "
                              f"got {self.time!r}")


def _clip_norm(rows: np.ndarray, caps) -> np.ndarray:
    """The rows scaled down to Euclidean norm caps where they exceed it; a
    row whose norm overflows is a :class:`DomainError`."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    if not np.isfinite(norms).all():
        t = int(np.argmax(~np.isfinite(norms)))
        raise DomainError(f"disturbance draw {t} has a norm that is not finite "
                          f"({rows[t].tolist()}); lower the scenario amplitude")
    caps = np.broadcast_to(np.asarray(caps, dtype=float), norms.shape)
    scale = np.ones_like(norms)
    over = norms > caps
    scale[over] = caps[over] / norms[over]
    return rows * scale[:, None]


def generate_scenario(scenario: DisturbanceScenario, seed: int, horizon: int,
                      process_dim: int, meas_dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Produce (w_seq, v_seq) of shape (horizon, q) and (horizon, m) for the
    scenario.  The draws are keyed by a counter-based generator, so the same
    (scenario, seed, horizon) always reproduces the same sequences."""
    if horizon < 0:
        raise DomainError("scenario horizon must be nonnegative")
    T = horizon
    gen = np.random.Generator(np.random.Philox(key=seed))
    if scenario.kind == "zero":
        return np.zeros((T, process_dim)), np.zeros((T, meas_dim))
    if scenario.kind == "bounded_uniform":
        amp = scenario.amplitude
        if not math.isfinite(2.0 * amp):
            raise DomainError(f"bounded_uniform amplitude {amp!r} overflows the draw range "
                              f"[-{amp!r}, {amp!r}]")
        w = _clip_norm(gen.uniform(-amp, amp, (T, process_dim)), amp)
        v = _clip_norm(gen.uniform(-amp, amp, (T, meas_dim)), amp)
        return w, v
    if scenario.kind == "decaying_geometric":
        caps = scenario.amplitude * scenario.rate ** np.arange(T)
        w = _clip_norm(gen.uniform(-1.0, 1.0, (T, process_dim)) * caps[:, None], caps)
        v = _clip_norm(gen.uniform(-1.0, 1.0, (T, meas_dim)) * caps[:, None], caps)
        return w, v
    # impulse
    w = np.zeros((T, process_dim))
    if scenario.time < T:
        w[scenario.time, 0] = scenario.magnitude
    return w, np.zeros((T, meas_dim))


# ---------------------------------------------------------------------------
# Built-in plants
# ---------------------------------------------------------------------------

def _linear_scalar(name: str, a: float) -> SystemModel:
    def f_nominal(x, u):
        return a * x

    def h_nominal(x, u):
        return x

    def f_image(lo, hi, u):
        lo2, hi2 = a * lo, a * hi
        if a >= 0:
            return lo2, hi2
        return hi2, lo2

    def f_solve(c, lo, hi, u):
        return clamp(c / a, lo, hi)

    return SystemModel(name, 1, 1, 1, f_nominal, h_nominal, f_image=f_image,
                       f_solve=f_solve, linear_a=a)


def clamp(x, lo, hi):
    """``min(max(x, lo), hi)`` of Python floats, elementwise over arrays: the
    same picks for NaN and signed zeros, where ``np.clip`` may differ."""
    m = np.where(lo > x, lo, x)
    return np.where(hi < m, hi, m)


_TWO_PI = 2.0 * math.pi


def _sin_half_image(lo, hi, u):
    """Exact interval image of x -> 0.5 sin(x) over [lo, hi]."""
    s_lo, s_hi = np.sin(lo), np.sin(hi)
    base_lo = np.minimum(s_lo, s_hi)
    base_hi = np.maximum(s_lo, s_hi)
    # peak at pi/2 + 2k pi inside [lo, hi] forces the max to 1
    k_hi = np.floor((hi - math.pi / 2) / _TWO_PI)
    has_peak = math.pi / 2 + k_hi * _TWO_PI >= lo
    # trough at -pi/2 + 2k pi forces the min to -1
    k_lo = np.floor((hi + math.pi / 2) / _TWO_PI)
    has_trough = -math.pi / 2 + k_lo * _TWO_PI >= lo
    img_hi = np.where(has_peak, 1.0, base_hi)
    img_lo = np.where(has_trough, -1.0, base_lo)
    return 0.5 * img_lo, 0.5 * img_hi


def _sin_half_solve(c, lo, hi, u):
    """Points x in [lo, hi] with 0.5 sin(x) = c, elementwise, assuming one
    exists.

    Each solution branch repeats with period 2 pi, so only the first period
    at or above lo needs checking per branch.  Of the branches in reach, the
    one whose point solves better wins, the first on a tie; with neither in
    reach, the endpoint that solves better, lo on a tie (callers only ask for
    reachable c).  asin is libm's, one element at a time: ``np.arcsin``
    differs from it in the last bit.
    """
    c, lo, hi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (c, lo, hi)))
    t = np.clip(2.0 * c, -1.0, 1.0)
    base = np.array([math.asin(v) for v in t.ravel().tolist()]).reshape(t.shape)
    cands, reach, errs = [], [], []
    for branch in (base, math.pi - base):
        k = np.ceil((lo - 1e-12 - branch) / _TWO_PI) + 0.0     # an integer k is never -0.0
        cand = branch + k * _TWO_PI
        reach.append(cand <= hi + 1e-12)
        cands.append(clamp(cand, lo, hi))
        errs.append(np.abs(0.5 * np.sin(cands[-1]) - c))
    second = reach[1] & (~reach[0] | (errs[1] < errs[0]))
    nearer = np.where(np.abs(0.5 * np.sin(lo) - c) <= np.abs(0.5 * np.sin(hi) - c), lo, hi)
    return np.where(reach[0] | reach[1], np.where(second, cands[1], cands[0]), nearer)


def _make_s3() -> SystemModel:
    def f_nominal(x, u):
        return 0.5 * np.sin(x)

    def h_nominal(x, u):
        return x

    return SystemModel("s3", 1, 1, 1, f_nominal, h_nominal, f_image=_sin_half_image,
                       f_solve=_sin_half_solve)


def _make_s4() -> SystemModel:
    def f_nominal(x, u):
        x = np.asarray(x, dtype=float)
        u0 = float(np.atleast_1d(u)[0])
        return np.stack([
            0.8 * x[..., 0] - 0.1 * np.tanh(x[..., 1]) + 0.05 * u0,
            0.1 * np.sin(x[..., 0]) + 0.7 * x[..., 1],
        ], axis=-1)

    def h_nominal(x, u):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0] + 0.5 * x[..., 1]], axis=-1)

    return SystemModel("s4", 2, 1, 1, f_nominal, h_nominal)


def builtin_model(name: str) -> SystemModel:
    try:
        return _PLANTS[name]
    except KeyError:
        raise DomainError(f"unknown plant {name!r}; available: {sorted(_PLANTS)}") from None


_PLANTS = {
    "s1": _linear_scalar("s1", 0.5),
    "s2": _linear_scalar("s2", 2.0),
    "s3": _make_s3(),
    "s4": _make_s4(),
}

PLANT_NAMES = tuple(sorted(_PLANTS))
