"""Calculus for comparison functions.

This module holds the K / K-infinity / KL function families that everything
else is phrased in: detectability certificates, estimator stage costs, and the
stability bounds are all combinations of these objects.  It also provides the
global max-or-sum fold (``PlusMode``) that has to be fixed once per analysis
run, and the triangle-growth constants N(s) used to split arguments of the
form a1 + a2.

Functions are closed parametric families rather than opaque callables.  That
choice is deliberate: inverses, summability tails, and serialization all have
to be *checkable*, so the admissible shapes are enumerated and each family
carries the analytic structure it needs (closed-form inverse where available,
bisection otherwise, geometric tail bounds for summability evidence).  Every
family defined here has a text form (:data:`TEXT_FORMS`), which is how a
config names a gain.  A K-function is inverted by its own ``inverse``,
which raises :class:`CapabilityError` for one that is not K-infinity.

All objects are immutable after construction, but for the slope table a KL
function grows (:func:`slope_table`), and safe to share between workers.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

TOL_INV = 1e-12           # relative tolerance for bisection inverses
MAX_BISECT = 200          # iteration cap for bisection
GRID_REL_TOL = 1e-9       # relative slack of the grid inequality checks
GRID_R_MIN = 1e-9
GRID_R_MAX = 1e3
GRID_POINTS_PER_DECADE = 64

# Comparison functions take a Python float or an array, and runs pass arrays (a
# column of windows or candidates per age) far more often; the argument checks
# test ``type(r) is float`` first and use this binding, not ``np.ndarray``.
_ndarray = np.ndarray


class DomainError(ValueError):
    """Raised when an argument is outside a function's declared domain."""


class CapabilityError(RuntimeError):
    """Raised when a family cannot provide a requested analytic operation."""


# ---------------------------------------------------------------------------
# PlusMode and folds
# ---------------------------------------------------------------------------

class PlusMode(Enum):
    """The global choice between summation and maximization.

    A single mode is fixed per analysis run and threaded through all derived
    artifacts; mixing modes inside one derivation chain is rejected by the
    consuming constructors.
    """

    MAX = "max"
    SUM = "sum"


def plus_reduce(mode: PlusMode, values: Sequence[float]) -> float:
    """Fold nonnegative values with the run's plus operation.

    The empty fold is 0 in both modes.  Negative inputs are a domain error:
    every quantity folded here is a distance or a comparison-function value.
    """
    total_max = 0.0
    total_sum = 0.0
    for v in values:
        v = float(v)
        if v < 0.0 or math.isnan(v):
            raise DomainError(f"plus_reduce requires nonnegative values, got {v}")
        total_sum += v
        if v > total_max:
            total_max = v
    return total_sum if mode is PlusMode.SUM else total_max


def plus_fold(mode: PlusMode, terms) -> np.ndarray:
    """:func:`plus_reduce` elementwise over a sequence of arrays of one
    shape, folded from 0.0 in the order given exactly as it folds: left to
    right in sum mode, by ``>`` in max mode.  Terms are not checked."""
    total = np.zeros(np.shape(terms[0]))
    for term in terms:
        total = total + term if mode is PlusMode.SUM else np.where(term > total, term, total)
    return total


def _plus_outer(mode: PlusMode, values: np.ndarray) -> np.ndarray:
    """The matrix of ``plus_reduce(mode, (values[i], values[j]))``, folded
    exactly as :func:`plus_reduce` folds the pair."""
    _check_array(values, "plus_reduce values")
    a, b = values[:, None], values[None, :]
    if mode is PlusMode.SUM:
        return 0.0 + a + b
    first = np.where(a > 0.0, a, 0.0)
    return np.where(b > first, b, first)


def log_grid(lo: float = GRID_R_MIN, hi: float = GRID_R_MAX,
             per_decade: int = GRID_POINTS_PER_DECADE) -> np.ndarray:
    """Logarithmic grid used by the default monotonicity/contraction checks."""
    if not (0 < lo < hi):
        raise DomainError("log_grid needs 0 < lo < hi")
    decades = math.log10(hi / lo)
    n = max(2, int(round(decades * per_decade)) + 1)
    return np.geomspace(lo, hi, n)


def _check_array(x, what: str) -> np.ndarray:
    """An argument array as floats, rejecting negative or NaN entries like
    the scalar checks do."""
    x = np.asarray(x, dtype=float)
    if x.size and not x.min() >= 0:      # the minimum is NaN if any entry is
        bad = x[~(x >= 0)].flat[0]
        raise DomainError(f"{what} must be nonnegative, got {bad}")
    return x


def _check_arg(r, what: str):
    """A comparison-function argument as a Python float, or an array as
    floats, rejecting a negative or NaN value."""
    if type(r) is float or not isinstance(r, _ndarray):
        r = float(r)
        if not r >= 0:          # negative or NaN
            raise DomainError(f"{what} must be nonnegative, got {r}")
        return r
    return _check_array(r, what)


def _check_age(s, what: str) -> int:
    """An age as a Python int, rejecting a negative or non-integral one
    rather than truncating it."""
    if type(s) is not int and float(s).is_integer():
        s = int(s)
    if type(s) is not int or s < 0:
        raise DomainError(f"{what} must be a nonnegative integer, got {s}")
    return s


def _check_target(y):
    """Reject negative inverse targets, scalar or array."""
    if isinstance(y, _ndarray):
        if np.any(y < 0):
            raise DomainError("inverse target must be nonnegative")
    elif y < 0:
        raise DomainError("inverse target must be nonnegative")
    return y


def _fpow(x: float, p: float) -> float:
    """``x ** p`` of floats x >= 0, inf where it overflows, as libm's ``pow``
    gives it: Python's float power raises ``OverflowError`` there instead."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _pow(x, p: float):
    """``x ** p`` with the rounding of the scalar call, elementwise for arrays,
    and inf where it overflows (:func:`_fpow`).

    numpy's vector ``power`` does not round like libm's ``pow`` (they differ
    in the last bit for some arguments), so array elements go through Python
    floats.  p = 1 is exact either way and skips the power.
    """
    if p == 1.0:
        return x
    if isinstance(x, _ndarray):
        values = x.ravel().tolist()
        try:
            out = [v ** p for v in values]
        except OverflowError:           # the rare case: element by element
            out = [_fpow(v, p) for v in values]
        return np.array(out, dtype=float).reshape(x.shape)
    return _fpow(x, p)


def _elementwise(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """Apply a scalar-only operation to each element: the fallback of the
    bisection inverses, which have no array form."""
    x = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def first_min(values: np.ndarray):
    """``(index, value)`` of the first entry a scan keeping ``v < worst`` from
    worst = +inf would end on; ``(None, inf)`` when no entry is below +inf.
    NaN entries never win, as in the scan."""
    values = np.where(np.isnan(values), math.inf, values)
    if values.size == 0:
        return None, math.inf
    i = int(np.argmin(values))
    v = float(values.flat[i])
    return (i, v) if v < math.inf else (None, math.inf)


def first_max(values: np.ndarray):
    """``(index, value)`` of the first largest entry, NaN entries skipped;
    ``(None, -inf)`` when there is none."""
    values = np.where(np.isnan(values), -math.inf, values)
    if values.size == 0:
        return None, -math.inf
    i = int(np.argmax(values))
    return i, float(values.flat[i])


def _bisect_inverse(f: Callable[[float], float], y: float) -> float:
    """Solve f(x) = y for increasing f with f(0) = 0 by bracketed bisection."""
    if y < 0:
        raise DomainError("inverse target must be nonnegative")
    if y == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(300):
        if f(hi) >= y:
            break
        hi *= 2.0
        if not math.isfinite(hi):
            raise CapabilityError("could not bracket inverse; function appears bounded")
    else:
        raise CapabilityError("could not bracket inverse; function appears bounded")
    lo = 0.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= TOL_INV * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# K-functions
# ---------------------------------------------------------------------------

class KFn:
    """A scalar comparison function: continuous, strictly increasing, f(0)=0.

    Subclasses are frozen dataclasses.  ``is_unbounded`` marks membership in
    K-infinity; ``inverse`` uses a closed form where the family has one and
    bracketed bisection otherwise.

    Every family also takes a numpy array ``r`` of any shape and returns the
    elementwise array, each element computed by the arithmetic of the scalar
    call; a scalar argument returns a Python float.  ``inverse`` follows the
    same contract.

    ``__call__`` checks the argument once and passes it, as a float or a
    float array, to the family's ``_eval``, which is all a family implements.
    A composite calls a part's ``_eval`` only with its own checked argument,
    unchanged or scaled by a constant checked positive at construction; a
    value another part computed goes through the part's checked call.
    """

    def __call__(self, r: float) -> float:
        return self._eval(self._check_domain(r))

    def _eval(self, r):
        """The value at a checked argument.  By default the checked call, so
        a subclass that defines only ``__call__`` still composes."""
        return self(r)

    @property
    def is_unbounded(self) -> bool:
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        if not self.is_unbounded:
            raise CapabilityError(f"{self!r} is not K-infinity; inverse not total")
        if isinstance(y, _ndarray):
            return _elementwise(self.inverse, y)
        return _bisect_inverse(self.__call__, y)

    def _check_domain(self, r: float) -> float:
        return _check_arg(r, "K-function argument")


@dataclass(frozen=True)
class LinearK(KFn):
    """f(r) = c * r with c > 0."""

    c: float

    def __post_init__(self):
        if not (self.c > 0):
            raise DomainError("LinearK needs c > 0")

    def _eval(self, r):
        return self.c * r

    @property
    def is_unbounded(self):
        return True

    def inverse(self, y):
        return _check_target(y) / self.c


@dataclass(frozen=True)
class PowerK(KFn):
    """f(r) = c * r**p with c > 0, p > 0."""

    c: float
    p: float

    def __post_init__(self):
        if not (self.c > 0 and self.p > 0):
            raise DomainError("PowerK needs c > 0 and p > 0")

    def _eval(self, r):
        return self.c * _pow(r, self.p)

    @property
    def is_unbounded(self):
        return True

    def inverse(self, y):
        return _pow(_check_target(y) / self.c, 1.0 / self.p)


def _pwl_interior(xs: Sequence[float], ys: Sequence[float], x: np.ndarray) -> np.ndarray:
    """Interpolate the polyline (xs, ys) at each x, on the first segment whose
    right end is >= x (the last segment for x beyond the last knot), with the
    arithmetic of the scalar segment loop."""
    xa, ya = np.asarray(xs), np.asarray(ys)
    i = np.minimum(np.searchsorted(xa[1:], x, side="left"), len(xa) - 2)
    t = (x - xa[i]) / (xa[i + 1] - xa[i])
    return ya[i] + t * (ya[i + 1] - ya[i])


@dataclass(frozen=True)
class PiecewiseLinearK(KFn):
    """Piecewise-linear K-function through (0,0) and the given knots.

    Knots are (x, y) pairs with strictly increasing x and y; beyond the last
    knot the final segment slope is extended, so the function is K-infinity
    whenever that slope is positive.
    """

    knots: tuple

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple((float(x), float(y)) for x, y in self.knots))
        xs, ys = self._segments()
        if not self.knots or any(b <= a for v in (xs, ys) for a, b in zip(v, v[1:])):
            raise DomainError("PiecewiseLinearK needs knots, strictly increasing in x and y")

    def _segments(self):
        return [0.0] + [x for x, _ in self.knots], [0.0] + [y for _, y in self.knots]

    def _eval(self, r):
        xs, ys = self._segments()
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        if type(r) is not float:
            return np.where(r > xs[-1], ys[-1] + slope * (r - xs[-1]), _pwl_interior(xs, ys, r))
        for i in range(len(xs) - 1):
            if r <= xs[i + 1]:
                t = (r - xs[i]) / (xs[i + 1] - xs[i])
                return ys[i] + t * (ys[i + 1] - ys[i])
        return ys[-1] + slope * (r - xs[-1])

    @property
    def is_unbounded(self):
        xs, ys = self._segments()
        return (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]) > 0

    def inverse(self, y):
        _check_target(y)
        xs, ys = self._segments()
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        if isinstance(y, _ndarray):
            beyond = y > ys[-1]
            if slope <= 0 and beyond.any():
                raise CapabilityError("bounded piecewise-linear function has no total inverse")
            return np.where(beyond, xs[-1] + (y - ys[-1]) / slope, _pwl_interior(ys, xs, y))
        for i in range(len(xs) - 1):
            if y <= ys[i + 1]:
                t = (y - ys[i]) / (ys[i + 1] - ys[i])
                return xs[i] + t * (xs[i + 1] - xs[i])
        if slope <= 0:
            raise CapabilityError("bounded piecewise-linear function has no total inverse")
        return xs[-1] + (y - ys[-1]) / slope


@dataclass(frozen=True)
class ComposedK(KFn):
    """f = parts[0] o parts[1] o ... (outermost first)."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 1:
            raise DomainError("ComposedK needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def _eval(self, r):
        v = self.parts[-1]._eval(r)
        for f in reversed(self.parts[:-1]):
            v = f(v)
        return v

    @property
    def is_unbounded(self):
        return all(f.is_unbounded for f in self.parts)

    def inverse(self, y):
        v = y
        for f in self.parts:
            v = f.inverse(v)
        return v


@dataclass(frozen=True)
class SumK(KFn):
    """f(r) = sum of the parts.  Used for assembled gain maps."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 1:
            raise DomainError("SumK needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def _eval(self, r):
        return sum(f._eval(r) for f in self.parts)

    @property
    def is_unbounded(self):
        return any(f.is_unbounded for f in self.parts)


@dataclass(frozen=True)
class IterK(KFn):
    """f(r) = kappa^n(r), the n-fold composition of a K-function."""

    kappa: KFn
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("IterK needs n >= 0")

    def _eval(self, r):
        return iterate_k(self.kappa, self.n, r)

    @property
    def is_unbounded(self):
        return self.n == 0 or self.kappa.is_unbounded

    def inverse(self, y):
        v = _check_target(y)
        for _ in range(self.n):
            v = self.kappa.inverse(v)
        return v


def iterate_k(kappa: KFn, n: int, r: float) -> float:
    """Apply ``kappa`` n times to r (a scalar or an array); n = 0 returns r
    unchanged."""
    if n < 0:
        raise DomainError("iteration count must be nonnegative")
    v = r if type(r) is float or isinstance(r, _ndarray) else float(r)
    if isinstance(kappa, LinearK):
        return _fpow(kappa.c, n) * v
    for _ in range(n):
        v = kappa(v)
    return v


# ---------------------------------------------------------------------------
# Triangle growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleGrowth:
    """Nonincreasing map s -> N(s) in [1, 2] splitting beta(a1 + a2, s).

    ``values[s]`` holds N(s) for s below the stored range; the final entry is
    used for all later s.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DomainError("TriangleGrowth needs at least one value")
        if any(not (1.0 <= v <= 2.0) for v in vals):
            raise DomainError("TriangleGrowth values must lie in [1, 2]")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise DomainError("TriangleGrowth must be nonincreasing")
        object.__setattr__(self, "values", vals)

    def __call__(self, s: int) -> float:
        return self.values[min(_check_age(s, "TriangleGrowth index"), len(self.values) - 1)]


N_ONE = TriangleGrowth((1.0,))
N_TWO = TriangleGrowth((2.0,))


# ---------------------------------------------------------------------------
# KL functions
# ---------------------------------------------------------------------------

class KLFn:
    """A two-argument comparison function: K in r for fixed s, L in s for fixed r.

    Families additionally expose, where they can:

    * ``r_slope(s)`` -- the coefficient of r if the s-slice is exactly linear,
      else None.  The structured solvers key off this.
    * ``r_inverse(y, s)`` -- inverse of the s-slice.
    * ``sum_tail(r, start)`` -- an analytic upper bound on the tail
      sum_{tau >= start} f(r, tau); raises :class:`CapabilityError` when the
      family has no analytic tail.

    ``r`` (and the ``y`` of ``r_inverse``, the ``r`` of ``sum_tail``) may be a
    numpy array of any shape, with ``s`` still one Python int: the result is
    the elementwise array, each element computed by the arithmetic of the
    scalar call.  A scalar ``r`` returns a Python float.

    As for :class:`KFn`, ``__call__`` and ``sum_tail`` check their arguments
    once, and ``r_slope`` and ``r_inverse`` their age (a negative or
    non-integral age is rejected); they call the family's ``_eval``,
    ``_tail``, ``_slope`` and ``_inverse``, which are all a family implements.
    """

    def __call__(self, r: float, s: int) -> float:
        return self._eval(*self._check_args(r, s))

    def _eval(self, r, s):
        return self(r, s)      # as KFn._eval

    def r_slope(self, s: int) -> Optional[float]:
        return self._slope(_check_age(s, "KL slice age"))

    def _slope(self, s):
        return None

    def r_inverse(self, y: float, s: int) -> float:
        return self._inverse(y, _check_age(s, "KL second argument"))

    def _inverse(self, y, s):
        if isinstance(y, _ndarray):
            return _elementwise(lambda v: self._inverse(v, s), y)
        return _bisect_inverse(lambda r: self(r, s), y)

    def sum_tail(self, r: float, start: int) -> float:
        return self._tail(*self._check_args(r, start))

    def _tail(self, r, start):
        raise CapabilityError(f"{type(self).__name__} has no analytic tail bound")

    def _check_args(self, r: float, s: int):
        return _check_arg(r, "KL first argument"), _check_age(s, "KL second argument")


@dataclass(frozen=True)
class SeparableGeometric(KLFn):
    """f(r, s) = c * lam**s * r**p with c >= 0, p > 0, 0 <= lam < 1."""

    c: float
    p: float
    lam: float

    def __post_init__(self):
        if self.c < 0 or not (self.p > 0) or not (0.0 <= self.lam < 1.0):
            raise DomainError("SeparableGeometric needs c >= 0, p > 0, 0 <= lam < 1")

    def _eval(self, r, s):
        return self.c * self.lam ** s * (r if self.p == 1.0 else _pow(r, self.p))

    def _slope(self, s):
        if self.p == 1.0:
            return self.c * self.lam ** s
        return None

    def _inverse(self, y, s):
        _check_target(y)
        coef = self.c * self.lam ** s
        if coef == 0.0:
            raise CapabilityError("zero slice has no inverse")
        return _pow(y / coef, 1.0 / self.p)

    def _tail(self, r, start):
        # sum_{tau >= start} c lam^tau r^p = c r^p lam^start / (1 - lam)
        return self.c * _pow(r, self.p) * self.lam ** start / (1.0 - self.lam)


@dataclass(frozen=True)
class ScaledShiftKL(KLFn):
    """f(r, s) = out_scale * base(scale(s) * r, s + s_shift).

    ``r_scale`` is either a constant or a :class:`TriangleGrowth`; the latter
    is what cost functions built from a certificate use, since the triangle
    constant may vary with s.
    """

    base: KLFn
    r_scale: Union[float, TriangleGrowth] = 1.0
    s_shift: int = 0
    out_scale: float = 1.0

    def __post_init__(self):
        if self.s_shift < 0:
            raise DomainError("s_shift must be nonnegative")
        if self.out_scale < 0:
            raise DomainError("out_scale must be nonnegative")
        if isinstance(self.r_scale, (int, float)) and not (0 < self.r_scale < math.inf):
            raise DomainError("r_scale must be positive and finite")

    def scale_at(self, s: int) -> float:
        if isinstance(self.r_scale, TriangleGrowth):
            return self.r_scale(s)
        return float(self.r_scale)

    def _eval(self, r, s):
        return self.out_scale * self.base._eval(self.scale_at(s) * r, s + self.s_shift)

    def _slope(self, s):
        inner = self.base._slope(s + self.s_shift)
        if inner is None:
            return None
        return self.out_scale * self.scale_at(s) * inner

    def _inverse(self, y, s):
        if self.out_scale == 0.0:
            raise CapabilityError("zero slice has no inverse")
        return self.base._inverse(y / self.out_scale, s + self.s_shift) / self.scale_at(s)

    def _tail(self, r, start):
        # r_scale is nonincreasing in s, so scaling by its value at the tail
        # start bounds every later term.
        return self.out_scale * self.base._tail(self.scale_at(start) * r, start + self.s_shift)


@dataclass(frozen=True)
class PointwiseMaxKL(KLFn):
    """f = max of the parts, pointwise."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 1:
            raise DomainError("PointwiseMaxKL needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def _eval(self, r, s):
        values = (f._eval(r, s) for f in self.parts)
        if type(r) is float:
            return max(values)
        return functools.reduce(np.maximum, values)

    def _slope(self, s):
        slopes = [f._slope(s) for f in self.parts]
        if any(sl is None for sl in slopes):
            return None
        return max(slopes)

    def _inverse(self, y, s):
        # (max f_i)^{-1} = min f_i^{-1} for increasing slices
        values = (f._inverse(y, s) for f in self.parts)
        if isinstance(y, _ndarray):
            return functools.reduce(np.minimum, values)
        return min(values)

    def _tail(self, r, start):
        return sum(f._tail(r, start) for f in self.parts)


@dataclass(frozen=True)
class PointwiseSumKL(KLFn):
    """f = sum of the parts, pointwise."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 1:
            raise DomainError("PointwiseSumKL needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def _eval(self, r, s):
        return sum(f._eval(r, s) for f in self.parts)

    def _slope(self, s):
        slopes = [f._slope(s) for f in self.parts]
        if any(sl is None for sl in slopes):
            return None
        return sum(slopes)

    def _tail(self, r, start):
        return sum(f._tail(r, start) for f in self.parts)


@dataclass(frozen=True)
class IteratedKL(KLFn):
    """f(r, s) = kappa^s(sigma(r)) for K-functions kappa, sigma.

    Valid as a KL-function when kappa is a contraction on the relevant range;
    the grid checks verify that rather than trusting the constructor.
    """

    kappa: KFn
    sigma: KFn

    def _eval(self, r, s):
        return iterate_k(self.kappa, s, self.sigma._eval(r))

    def _slope(self, s):
        if isinstance(self.kappa, LinearK) and isinstance(self.sigma, LinearK):
            return _fpow(self.kappa.c, s) * self.sigma.c
        return None

    def _inverse(self, y, s):
        v = y
        for _ in range(s):
            v = self.kappa.inverse(v)
        return self.sigma.inverse(v)

    def _tail(self, r, start):
        if isinstance(self.kappa, LinearK) and self.kappa.c < 1.0:
            return self.sigma._eval(r) * _fpow(self.kappa.c, start) / (1.0 - self.kappa.c)
        raise CapabilityError("IteratedKL tail bound needs a linear contraction")


@dataclass(frozen=True)
class KOfKL(KLFn):
    """f(r, s) = outer(inner(r, s)) for a K-function outer."""

    outer: KFn
    inner: KLFn

    def _eval(self, r, s):
        return self.outer(self.inner._eval(r, s))

    def _slope(self, s):
        if isinstance(self.outer, LinearK):
            inner = self.inner._slope(s)
            if inner is not None:
                return self.outer.c * inner
        return None

    def _inverse(self, y, s):
        return self.inner._inverse(self.outer.inverse(y), s)

    def _tail(self, r, start):
        if isinstance(self.outer, LinearK):
            return self.outer.c * self.inner._tail(r, start)
        raise CapabilityError("KOfKL tail bound needs a linear outer function")


@dataclass(frozen=True)
class SFloorKL(KLFn):
    """f(r, s) = base(r, s // divisor): slows the decay by an integer factor."""

    base: KLFn
    divisor: int

    def __post_init__(self):
        if self.divisor < 1:
            raise DomainError("divisor must be >= 1")

    def _eval(self, r, s):
        return self.base._eval(r, s // self.divisor)

    def _slope(self, s):
        return self.base._slope(s // self.divisor)

    def _inverse(self, y, s):
        return self.base._inverse(y, s // self.divisor)

    def _tail(self, r, start):
        m = start // self.divisor
        return self.divisor * (self.base._eval(r, m) + self.base._tail(r, m + 1))


# ---------------------------------------------------------------------------
# Gain terms: the discounted window sequences of costs and bounds
# ---------------------------------------------------------------------------

def slope_table(fn: KLFn, s_max: int) -> Optional[np.ndarray]:
    """Slopes of the linear-in-r slices fn(., s) for s = 0..s_max, or None if
    any slice is not exactly linear.

    fn keeps one read-only table of its slopes, grown to the longest age
    asked for, never past it, and ended at the first slice that is not
    linear; so ``r_slope`` is asked once per age.  The result is a prefix
    view of that table.
    """
    table, ended = getattr(fn, "_slopes", (np.empty(0), False))
    if not ended and len(table) <= s_max:
        grown = []
        for slope in map(fn.r_slope, range(len(table), s_max + 1)):
            if slope is None:
                break
            grown.append(slope)
        ended = len(table) + len(grown) <= s_max
        table = np.concatenate([table, np.asarray(grown, dtype=float)])
        table.flags.writeable = False
        object.__setattr__(fn, "_slopes", (table, ended))
    return table[:s_max + 1] if len(table) > s_max else None


def seq_norms(arr: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (K, d) array; for a (C, K, d) stack,
    the (C, K) norms of each window, each as that window alone gives them."""
    if arr.shape[-1] == 1:
        return np.abs(arr[..., 0])
    return np.sqrt(np.einsum("...j,...j->...", arr, arr))


def gain_terms(fn: KLFn, ages: range, r, s_max: Optional[int] = None) -> np.ndarray:
    """The terms fn(r[i], ages[i]) of a window, for a contiguous range of ages.

    When every slice of fn up to ``s_max`` (default: the largest age) is
    linear in r, the terms are one product of a slice of the slope table with
    r; otherwise one array call per age, after one check of r.  ``r`` may
    carry a leading axis of windows, (C, len(ages)); each row gets the terms
    of its window alone.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1] != len(ages):
        raise DomainError(f"{len(ages)} ages but {r.shape[-1]} arguments")
    if not ages:
        return np.empty(r.shape)
    table = slope_table(fn, max(ages[0], ages[-1]) if s_max is None else s_max)
    if table is None:
        rows = _check_array(r, "KL first argument").reshape(-1, len(ages))
        return np.stack([fn(col, age) for col, age in zip(rows.T, ages)], axis=-1).reshape(r.shape)
    stop = ages.stop if ages.stop >= 0 else None
    with np.errstate(invalid="ignore", over="ignore"):     # an inf slope times r = 0 is NaN
        return table[ages.start:stop:ages.step] * r


def fold_terms(mode: PlusMode, head, *terms: np.ndarray):
    """``head`` combined with one or more nonempty term sequences by the
    mode's plus: ``head + (sum c + sum d + ...)``, the sequence sums added
    left to right, or ``max(head, max c, max d, ...)``.  A NaN term makes
    the result NaN in both modes.  With a leading row axis, head (C,) and
    terms (C, K), each row is folded alone."""
    if mode is PlusMode.SUM:
        return head + functools.reduce(np.add, [t.sum(axis=-1) for t in terms])
    return np.maximum(head, functools.reduce(np.maximum, [t.max(axis=-1) for t in terms]))


# ---------------------------------------------------------------------------
# Grid evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridEvidence:
    """Outcome of a grid-based inequality check, with the worst point kept so
    failures are reproducible."""

    passed: bool
    worst_margin: float
    worst_point: tuple
    description: str
    r_range: tuple = (GRID_R_MIN, GRID_R_MAX)

    def __bool__(self):
        return self.passed


def check_kl_on_grid(f: KLFn, r_grid: Optional[np.ndarray] = None,
                     s_max: int = 64) -> GridEvidence:
    """Verify KL membership on a grid: K in r per slice, nonincreasing in s.

    The limit-to-zero requirement is testable only up to the horizon bound;
    the terminal ratio f(r, s_max) / f(r, 0) is folded into the description.
    A violation of the s-monotonicity is reported at the first r of the
    probe subgrid that has one, and at its first s.  Each slice is one
    array call f(grid, s) (see :func:`check_kl_slices`).
    """
    grid = log_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    return check_kl_slices(grid, (f(grid, s) for s in range(s_max + 1)), s_max)


def check_kl_slices(grid: np.ndarray, slices, s_max: int) -> GridEvidence:
    """:func:`check_kl_on_grid` of the slices f(grid, s), s = 0..s_max,
    given in order.  Every 1/16th slice must increase strictly in r; the
    values on every 1/16th grid point, the probe subgrid, must not increase
    in s.  The probe values are slices of the grid values, which the
    :class:`KLFn` array contract makes each what a call on the probe gives.
    The first slice that is not increasing in r fails the check before any
    later slice is read.  ``s_max`` below 0 is a :class:`DomainError`."""
    if s_max < 0:
        raise DomainError(f"KL grid check needs s_max >= 0, got {s_max}")
    worst = math.inf
    worst_pt = (0.0, 0)
    step, stride = max(1, s_max // 16), max(1, len(grid) // 16)
    probe = grid[::stride]
    first_s = np.zeros(len(probe), dtype=int)     # 0: no violation yet
    first_margin = np.zeros(len(probe))
    for s, vals in enumerate(slices):
        if s % step == 0:
            diffs = np.diff(vals)
            if len(diffs):
                m = float(diffs.min())
                if m < worst:
                    worst = m
                    worst_pt = (float(grid[int(np.argmin(diffs))]), s)
                if m <= 0.0:
                    tiny = np.abs(vals).min() < np.finfo(float).tiny
                    return GridEvidence(False, m, worst_pt, f"slice s={s} not strictly increasing "
                                        f"in r{' (its values underflowed)' if tiny else ''}")
        cur = vals[::stride]
        if s == 0:
            base = prev = cur
            continue
        new = (cur > prev * (1 + GRID_REL_TOL) + 1e-300) & (first_s == 0)
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


@dataclass(frozen=True)
class SummabilityEvidence:
    """Record that sum_tau f(r, tau) <= sigma(r) held on a grid, with tails."""

    passed: bool
    worst_margin: float
    worst_r: float
    tail_horizon: int
    sigma: KFn
    r_range: tuple

    def __bool__(self):
        return self.passed


def check_summable(f: KLFn, sigma: KFn, r_grid: Optional[np.ndarray] = None,
                   tail_horizon: int = 256) -> SummabilityEvidence:
    """Check the summability bound sum_{tau>=0} f(r, tau) <= sigma(r).

    The partial sum to ``tail_horizon`` plus the family's analytic tail bound
    must stay below sigma on every grid point.  Families without an analytic
    tail (e.g. the hat bounds of :mod:`mhestab.stability`) raise
    :class:`CapabilityError`.
    """
    grid = log_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    tail = f.sum_tail(grid, tail_horizon + 1)      # first: a family without one raises
    # one array call per age, accumulated in age order
    partial = 0.0
    for tau in range(tail_horizon + 1):
        partial = partial + f(grid, tau)
    total = partial + tail
    i, worst = first_min(sigma(grid) - total)
    worst_r = float(grid[0 if i is None else i])
    tol = 1e-9 * max(1.0, abs(sigma(worst_r)))
    return SummabilityEvidence(worst >= -tol, worst, worst_r, tail_horizon, sigma,
                               (float(grid[0]), float(grid[-1])))


def triangle_constant(beta: KLFn, mode: PlusMode, s_max: int = 32,
                      a_grid: Optional[np.ndarray] = None) -> TriangleGrowth:
    """Find the smallest triangle-growth map N(s) with values in {1, 2}.

    For every s, N = 1 is kept where

        beta(a1 + a2, s) <= beta(N a1, s) (+) beta(N a2, s)

    holds on the probe grid, and N = 2 elsewhere; the map is then repaired
    to be nonincreasing (larger N is always admissible).  N = 2 needs no
    check: a1 + a2 <= 2 max(a1, a2) and beta is increasing in r, so there is
    no failure path.
    """
    grid = np.geomspace(1e-6, 1e3, 40) if a_grid is None else np.asarray(a_grid, dtype=float)
    pair_sums = np.add.outer(grid, grid)
    chosen = []
    for s in range(s_max + 1):
        rhs = _plus_outer(mode, beta(grid, s))
        split = not np.any(beta(pair_sums, s) > rhs * (1 + GRID_REL_TOL) + 1e-300)
        chosen.append(1.0 if split else 2.0)
    # repair to nonincreasing: a larger N only weakens the split
    for s in range(s_max - 1, -1, -1):
        chosen[s] = max(chosen[s], chosen[s + 1])
    if len(set(chosen)) == 1:
        return TriangleGrowth((chosen[0],))
    return TriangleGrowth(tuple(chosen))


def check_triangle(beta: KLFn, n: TriangleGrowth, mode: PlusMode, s_max: int = 32,
                   a_grid: Optional[np.ndarray] = None) -> GridEvidence:
    """Grid evidence for the triangle-growth inequality with a given N."""
    grid = np.geomspace(1e-6, 1e3, 40) if a_grid is None else np.asarray(a_grid, dtype=float)
    pair_sums = np.add.outer(grid, grid)     # [i, j] = a1 + a2 for a1 = grid[i], a2 = grid[j]
    worst = math.inf
    worst_pt = (0.0, 0.0, 0)
    for s in range(s_max + 1):
        lhs = beta(pair_sums, s)
        rhs = _plus_outer(mode, beta(n(s) * grid, s))
        scale = np.abs(rhs)
        scale = np.where(scale > 1.0, scale, 1.0)
        i, m = first_min((rhs - lhs) / scale)
        if m < worst:
            worst = m
            worst_pt = (float(grid[i // len(grid)]), float(grid[i % len(grid)]), s)
    return GridEvidence(worst >= -GRID_REL_TOL, worst, worst_pt, "triangle-growth inequality",
                        (float(grid[0]), float(grid[-1])))


# ---------------------------------------------------------------------------
# Text forms: the declarative syntax of config files and reports
# ---------------------------------------------------------------------------

#: Each argument kind: what it reads, and the class that a form given for it
#: must build (None: no form).  A starred kind (``"K*"``) reads the remaining
#: arguments, one or more, into the field's tuple.
_KINDS = {
    "number": ("a finite number", None),
    "integer": ("an integer", None),
    "knot": ("an x:y knot", None),
    "K": ("a K-function form", KFn),
    "KL": ("a KL-function form", KLFn),
    "scale": ("a number or a tria form", TriangleGrowth),
}

#: Every text form: its name, the class it builds and the kind of each
#: constructor argument, in dataclass field order.  The formatter and the
#: parser are both driven from this table.
TEXT_FORMS = {
    "linear": (LinearK, ("number",)),
    "power": (PowerK, ("number", "number")),
    "pwl": (PiecewiseLinearK, ("knot*",)),
    "comp": (ComposedK, ("K*",)),
    "ksum": (SumK, ("K*",)),
    "kiter": (IterK, ("K", "integer")),
    "tria": (TriangleGrowth, ("number*",)),
    "sepgeo": (SeparableGeometric, ("number", "number", "number")),
    "scaled": (ScaledShiftKL, ("KL", "scale", "integer", "number")),
    "klmax": (PointwiseMaxKL, ("KL*",)),
    "klsum": (PointwiseSumKL, ("KL*",)),
    "kliter": (IteratedKL, ("K", "K")),
    "kofkl": (KOfKL, ("K", "KL")),
    "sfloor": (SFloorKL, ("KL", "integer")),
}

_FORM_NAMES = {cls: name for name, (cls, _) in TEXT_FORMS.items()}


def _format_arg(value, kind: str) -> str:
    if kind.endswith("*"):
        return ", ".join(_format_arg(v, kind[:-1]) for v in value)
    base = _KINDS[kind][1]
    if base is not None and isinstance(value, base) and type(value) in _FORM_NAMES:
        name = _FORM_NAMES[type(value)]
        args = (_format_arg(getattr(value, f.name), k)
                for f, k in zip(fields(value), TEXT_FORMS[name][1]))
        return f"{name}({', '.join(args)})"
    if kind in ("number", "scale"):
        return repr(value)
    if kind == "integer":
        return str(value)
    if kind == "knot":
        return f"{value[0]!r}:{value[1]!r}"
    raise CapabilityError(f"no text form for {type(value).__name__}")


def format_kfn(f: KFn) -> str:
    """The text form of a K-function (see :data:`TEXT_FORMS`)."""
    return _format_arg(f, "K")


def format_klfn(f: KLFn) -> str:
    """The text form of a KL function (see :data:`TEXT_FORMS`)."""
    return _format_arg(f, "KL")


_NUMBER = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
#: One token per match, as groups: a number and the y of a knot; a form's name
#: with its ``(`` and a ``)`` if it has no arguments; ``,`` or ``)``; else.
_TOKEN = re.compile(rf"\s*(?:({_NUMBER})(?:\s*:\s*({_NUMBER}))?"
                    rf"|([A-Za-z_]\w*)\s*\((\s*\))?|([,)])|([A-Za-z_]\w*|\S))")


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise DomainError(f"numbers must be finite, got {text}")
    return value


def _read(tokens: list, i: int):
    """The node at ``tokens[i]`` and the index after it: ``("number", v)``,
    ``("knot", (x, y))`` or ``("form", (name, nodes))``."""
    if i == len(tokens):
        raise DomainError("comparison-function text ends where an argument should be")
    x, y, name, empty, sep, other = tokens[i].groups()
    if x is not None:
        return (("number", _number(x)) if y is None else ("knot", (_number(x), _number(y)))), i + 1
    if name is None:
        raise DomainError(f"expected an argument, got {sep or other!r}")
    nodes, i, closed = [], i + 1, empty is not None
    while not closed:
        node, i = _read(tokens, i)
        nodes.append(node)
        if i == len(tokens) or tokens[i].group(5) is None:
            raise DomainError(f"expected ',' or ')' after argument {len(nodes)} of {name}")
        closed, i = tokens[i].group(5) == ")", i + 1
    return ("form", (name.lower(), nodes)), i


def _value(node, kind: str, where: str):
    """The value of a parsed node given as an argument of this kind."""
    tag, value = node
    what, base = _KINDS[kind]
    if tag == "form" and base is not None:
        if value[0] not in TEXT_FORMS:
            raise DomainError(f"unknown comparison-function family {value[0]!r}")
        if issubclass(TEXT_FORMS[value[0]][0], base):
            return _construct(*value)
    elif tag == "number" and kind == "integer":
        if not value.is_integer():
            raise DomainError(f"{where} must be an integer, got {value!r}")
        return int(value)
    elif tag == kind or (tag, kind) == ("number", "scale"):
        return value
    got = f"{value[0]}(...)" if tag == "form" else f"a {tag}"
    raise DomainError(f"{where} must be {what}, got {got}")


def _construct(name: str, nodes: list):
    """Build a form from the table, checking the count and kind of its
    arguments."""
    cls, kinds = TEXT_FORMS[name]
    fixed, starred = len(kinds) - 1, kinds[-1].endswith("*")
    if starred:
        least, most, count = len(kinds), math.inf, f"at least {len(kinds)}"
        kinds = kinds[:fixed] + (kinds[-1][:-1],) * (len(nodes) - fixed)
    else:
        least, most = sum(f.default is MISSING for f in fields(cls)), len(kinds)
        count = most if least == most else f"{least} to {most}"
    if not least <= len(nodes) <= most:
        raise DomainError(f"{name} takes {count} argument(s), got {len(nodes)}")
    args = [_value(n, k, f"argument {i} of {name}") for i, (n, k) in enumerate(zip(nodes, kinds), 1)]
    return cls(*args[:fixed], tuple(args[fixed:])) if starred else cls(*args)


def _parse(text: str, kind: str):
    tokens = list(_TOKEN.finditer(text))
    node, i = _read(tokens, 0)
    if i < len(tokens):
        raise DomainError("unexpected text after the comparison function: "
                          f"{text[tokens[i].start():].strip()!r}")
    return _value(node, kind, "comparison-function text")


def parse_kfn(text: str) -> KFn:
    """Parse the text form of a K-function (see :data:`TEXT_FORMS`)."""
    return _parse(text, "K")


def parse_klfn(text: str) -> KLFn:
    """Parse the text form of a KL function (see :data:`TEXT_FORMS`)."""
    return _parse(text, "KL")
