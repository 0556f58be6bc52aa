"""Detectability certificates, cost compatibility, and the derived bounds.

A certificate packages the comparison functions of a time-discounted
incremental input/output-to-state stability statement: a K-infinity alpha on
the left and KL gains (beta, gamma, delta, epsilon, phi) on the right, under
one global plus mode.  Certificates are checked, not trusted: any pair of
solutions can be tested against the inequality, and candidate certificates
without a derivation are validated by falsification sampling only.

From a certificate and a compatible cost the module derives the bound triple
(b, c, d) that drives every stability statement downstream.

Every discounted inequality goes through :func:`bound_trace`, for every t
of a run at once: the full-information bound, the moving-horizon bound and
the right side of the certificate inequality, which the pair check and the
falsifier evaluate over stacks of pairs.

A sum-mode certificate or cost derives its own summability evidence when it
is built, by one rule, the tail rule: each discounted gain f must pass
:func:`~mhestab.comparison.check_summable` against sigma(r) = 2 (f(r, 0) +
f.sum_tail(r, 1)).  A failing record is a :class:`DomainError`, and a gain
without an analytic tail bound a :class:`CapabilityError`.  No evidence is
taken from outside, so none can describe some other gain.

Shipped fixtures
----------------
:func:`builtin_certificate` builds each fixture, with its summability
evidence, on its first request and keeps it; importing the module builds
none.  Per plant and mode the catalog records how the certificate was
obtained:

* ``s1`` / ``s3`` sum mode: closed-form error recursion (proven);
  x-difference obeys e+ = 0.5 e + dw, so beta(r,s) = 0.5^s r and
  gamma(r,s) = 2 * 0.5^s r bound the summed tail exactly.
* ``s1`` / ``s3`` max mode: proven via the split a+b <= max{1.5a, 3b} and the
  geometric-tail-to-max bound with rate 0.75, which inflates the gains.
* ``s2`` both modes: one-step output injection e(t) = 2 dy - 2 dv + dw gives
  age-one gains (3r, 6r, 6r); geometric extensions keep them KL (proven).
* ``s1-shared``: the shared sum-mode gains re-tagged max.  This is an
  analysis fixture for contraction-threshold algebra; it is *not* a proven
  max-mode certificate and is excluded from falsification claims.
* ``s4``: candidate constants from a Lipschitz estimate, validated only by
  falsification sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .comparison import (
    GRID_REL_TOL,
    DomainError,
    GridEvidence,
    KFn,
    KLFn,
    LinearK,
    PlusMode,
    PointwiseMaxKL,
    PointwiseSumKL,
    ScaledShiftKL,
    SeparableGeometric,
    SummabilityEvidence,
    TriangleGrowth,
    check_summable,
    first_max,
    first_min,
    fold_terms,
    format_kfn,
    format_klfn,
    gain_terms,
    log_grid,
)
from .systems import SolutionTuple, SystemModel, row_distances, simulate

TOL_CERT = 1e-9

#: the compatibility constants B that :func:`check_compatibility` tries, in order
B_CANDIDATES = (1.0, 2.0, 4.0, 8.0)

#: how a certificate's validity was established
VALIDITY_TAGS = ("proven", "sampled", "declared")


@dataclass(frozen=True)
class _TailSigma(KFn):
    """r -> 2 (f(r, 0) + f.sum_tail(r, 1)): the summability bound of a
    sum-mode gain f, which scales in r as f does, with headroom 2 over f's
    own tail bound.  A gain without an analytic tail raises
    :class:`CapabilityError`."""

    fn: KLFn

    def _eval(self, r):
        return 2.0 * (self.fn(r, 0) + self.fn.sum_tail(r, 1))


def _tail_evidence(owner, keys: Sequence[str]) -> Optional[Dict[str, SummabilityEvidence]]:
    """The tail-rule evidence of the gains ``keys`` of a sum-mode certificate
    or cost; None in max mode.  A failing record is a :class:`DomainError`."""
    if owner.mode is not PlusMode.SUM:
        return None
    out = {}
    for key in keys:
        fn = getattr(owner, key)
        out[key] = record = check_summable(fn, _TailSigma(fn))
        if not record.passed:
            raise DomainError(f"sum-mode {key} fails its summability check: its sum exceeds "
                              f"2 (f(r, 0) + f.sum_tail(r, 1)) by {-record.worst_margin:.3g} "
                              f"at r = {record.worst_r:.3g}")
    return out


@dataclass(frozen=True)
class IossCertificate:
    """Detectability data: alpha K-infinity, five KL gains, one plus mode; in
    sum mode the tail-rule ``summability`` of its four discounted gains."""

    name: str
    mode: PlusMode
    alpha: KFn
    beta: KLFn
    gamma: KLFn
    delta: KLFn
    epsilon: KLFn
    phi: KLFn
    validity: str = "declared"
    r_range: Tuple[float, float] = (1e-9, 1e3)
    summability: Optional[Dict[str, SummabilityEvidence]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.validity not in VALIDITY_TAGS:
            raise DomainError(f"unknown validity tag {self.validity!r}")
        if not self.alpha.is_unbounded:
            raise DomainError("certificate alpha must be K-infinity")
        object.__setattr__(self, "summability",
                           _tail_evidence(self, ("gamma", "delta", "epsilon", "phi")))

    def gains(self) -> Dict[str, KLFn]:
        return {"beta": self.beta, "gamma": self.gamma, "delta": self.delta,
                "epsilon": self.epsilon, "phi": self.phi}


@dataclass(frozen=True)
class CostSpec:
    """Stage-cost comparison functions, matched in mode to a certificate; in
    sum mode the tail-rule ``summability`` of its two discounted gains."""

    mode: PlusMode
    beta_hat: KLFn
    gamma_hat: KLFn
    delta_hat: KLFn
    name: str = "cost"
    summability: Optional[Dict[str, SummabilityEvidence]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "summability",
                           _tail_evidence(self, ("gamma_hat", "delta_hat")))


@dataclass(frozen=True)
class CompatibilityWitness:
    """Constant B and triangle map N under which cost dominates certificate."""

    passed: bool
    B: Optional[float]
    N: TriangleGrowth
    worst_ratio: float
    evidence: Tuple[GridEvidence, ...]

    def __bool__(self):
        return self.passed


@dataclass(frozen=True)
class DerivedBounds:
    """The bound triple (b, c, d) of the suboptimality-to-error estimate."""

    mode: PlusMode
    b: KLFn
    c: KLFn
    d: KLFn
    a_factor: float
    B: float
    provenance: Tuple[str, str]

    def __post_init__(self):
        if self.a_factor < 1.0:
            raise DomainError("suboptimality factor must be >= 1")


@dataclass(frozen=True)
class PairMargin:
    """Worst slack of the trajectory-pair inequality over a horizon."""

    passed: bool
    min_margin: float
    worst_t: int
    margins: np.ndarray

    def __bool__(self):
        return self.passed


def check_ioss_on_pair(cert: IossCertificate, model: SystemModel,
                       sol1: SolutionTuple, sol2: SolutionTuple) -> PairMargin:
    """Test the certificate inequality on a concrete pair of solutions.

    For every t the left side alpha(|x(t), chi(t)|) is compared against the
    right side, entry t of one :func:`bound_trace` over the four discrepancy
    sequences; the minimum margin over t is returned, at its first t, and
    the check passes when it stays above -TOL_CERT.  The input and output
    discrepancy terms are evaluated exactly like the disturbance ones, so
    pairs with deviant inputs or outputs exercise the full inequality.
    """
    if sol1.length != sol2.length:
        raise DomainError("paired solutions must have equal length")
    if sol1.x.shape[1] != model.state_dim:
        raise DomainError("solution does not match model dimensions")
    margins = _pair_margins(cert, [sol1], [sol2])[0]
    worst_t = int(np.argmin(margins))
    return PairMargin(bool(margins[worst_t] >= -TOL_CERT), float(margins[worst_t]),
                      worst_t, margins)


def _pair_margins(cert: IossCertificate, firsts: Sequence[SolutionTuple],
                  seconds: Sequence[SolutionTuple]) -> np.ndarray:
    """The (P, T) margins rhs - alpha(|x(t), chi(t)|) of P pairs of solutions
    of one length T, from one :func:`bound_trace` call: the discrepancy at
    time j enters at t > j with age t - j."""
    dist = {key: row_distances(np.stack([getattr(sol, key) for sol in firsts]),
                               np.stack([getattr(sol, key) for sol in seconds]))
            for key in "xwvuy"}
    discounted = ((cert.gamma, "w"), (cert.delta, "v"), (cert.epsilon, "u"), (cert.phi, "y"))
    rhs = bound_trace(cert.mode, cert.beta, dist["x"][:, 0],
                      *((gain, dist[key][:, :-1]) for gain, key in discounted))
    return rhs - cert.alpha(dist["x"])


def default_cost_from_certificate(cert: IossCertificate, n: TriangleGrowth) -> CostSpec:
    """The canonical cost: beta_hat(r,s) = beta(N(s) r, s) and likewise for
    the disturbance gains, which meets the compatibility condition with B = 1
    and equality on the grid.  In sum mode the cost derives its own
    summability evidence."""
    return CostSpec(cert.mode, ScaledShiftKL(cert.beta, n), ScaledShiftKL(cert.gamma, n),
                    ScaledShiftKL(cert.delta, n), name=f"default({cert.name})")


def check_compatibility(cert: IossCertificate, cost: CostSpec,
                        n: TriangleGrowth) -> CompatibilityWitness:
    """Find the smallest B of ``B_CANDIDATES`` dominating all three gain
    inequalities on the (r, s) grid, s = 0..32; report the worst ratio
    otherwise.

    The worst point of each ratio is the first one in (s, r) order, and a
    zero cost gain under a nonzero certificate gain ends that gain's scan
    with an infinite ratio.
    """
    if cert.mode is not cost.mode:
        raise DomainError("certificate and cost must share one plus mode")
    grid = log_grid(per_decade=8)
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
        for s in range(33):
            num = base(n(s) * grid, s)
            den = hat(grid, s)
            active = num != 0.0
            unbounded = active & (den == 0.0)
            if unbounded.any():
                ratio = math.inf
                worst_pt = (float(grid[int(np.argmax(unbounded))]), s)
                break
            q = np.full(len(grid), -math.inf)
            np.divide(num, den, out=q, where=active)
            i, top = first_max(q)
            if top > ratio:
                ratio = top
                worst_pt = (float(grid[i]), s)
            if ratio == math.inf:
                break
        worst_ratio = max(worst_ratio, ratio)
        evidence.append(GridEvidence(True, ratio, worst_pt, f"{name} ratio",
                                     (float(grid[0]), float(grid[-1]))))
    for b_cand in B_CANDIDATES:
        if worst_ratio <= b_cand * (1 + GRID_REL_TOL):
            return CompatibilityWitness(True, b_cand, n, worst_ratio, tuple(evidence))
    return CompatibilityWitness(False, None, n, worst_ratio, tuple(evidence))


def derive_bcd(cert: IossCertificate, cost: CostSpec, witness: CompatibilityWitness,
               a_factor: float) -> DerivedBounds:
    """Assemble b, c, d: the certificate gain at triangle-scaled argument
    combined (mode plus) with the A*B-scaled cost gain."""
    if not witness.passed:
        raise DomainError("compatibility witness does not pass")
    if cert.mode is not cost.mode:
        raise DomainError("certificate and cost must share one plus mode")
    if a_factor < 1.0:
        raise DomainError("suboptimality factor must be >= 1")
    combine = PointwiseMaxKL if cert.mode is PlusMode.MAX else PointwiseSumKL
    ab = a_factor * witness.B

    def make(base: KLFn, hat: KLFn) -> KLFn:
        return combine((ScaledShiftKL(base, witness.N), ScaledShiftKL(hat, 1.0, 0, ab)))

    return DerivedBounds(cert.mode,
                         make(cert.beta, cost.beta_hat),
                         make(cert.gamma, cost.gamma_hat),
                         make(cert.delta, cost.delta_hat),
                         a_factor, witness.B, (cert.name, cost.name))


def bound_trace(mode: PlusMode, head: KLFn, init_dist, *terms) -> np.ndarray:
    """The bound head(init_dist, t) (+) g(|r(t - tau)|, tau) over tau = 1..t
    and every ``(g, r)`` of ``terms``, for t = 0..T, from T norms per
    sequence at times 0..T-1: :func:`gain_terms` with slope tables up to age
    T, folded by :func:`fold_terms`.

    With the bound triple, ``bound_trace(mode, b, d0, (c, |w|), (d, |v|))``
    is the full-information error bound, and with the hat bounds and max the
    moving-horizon one; with a certificate's five gains it is the right side
    of the certificate inequality (:func:`check_ioss_on_pair`).  For C runs
    at once, ``init_dist`` is (C,) and the norms are (C, T): the result is
    (C, T + 1), one head call per t and one row-wise term and fold pass, and
    each row is the trace of its run alone.
    """
    reversed_seqs = [(gain, np.asarray(norms, dtype=float)[..., ::-1]) for gain, norms in terms]
    if len({r.shape for _, r in reversed_seqs}) != 1:
        raise DomainError("the norm sequences of a bound must share one shape")
    T = reversed_seqs[0][1].shape[-1]
    out = np.empty(np.shape(init_dist) + (T + 1,))
    out[..., 0] = head(init_dist, 0)
    for t in range(1, T + 1):
        ages = range(1, t + 1)         # the entry at time t - tau has age tau
        out[..., t] = fold_terms(mode, head(init_dist, t),
                                 *(gain_terms(gain, ages, r[..., T - t:], T)
                                   for gain, r in reversed_seqs))
    return out


# ---------------------------------------------------------------------------
# Falsification sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FalsificationReport:
    passed: bool
    pairs: int
    worst_margin: float
    worst_pair_seed: int
    worst_t: int

    def __bool__(self):
        return self.passed

    def to_csv(self) -> str:
        lines = ["pairs,worst_pair_seed,worst_t,worst_margin,passed"]
        lines.append(f"{self.pairs},{self.worst_pair_seed},{self.worst_t},"
                     f"{self.worst_margin!r},{int(self.passed)}")
        return "\n".join(lines) + "\n"


def falsify_certificate(cert: IossCertificate, model: SystemModel, n_pairs: int = 1000,
                        horizon: int = 24, seed: int = 0,
                        scale: float = 2.0) -> FalsificationReport:
    """Search for trajectory pairs violating the certificate inequality.

    Pairs draw independent initial states and disturbance sequences (uniform
    with random per-pair amplitude, plus occasional impulses), so deviant
    inputs and outputs are exercised as well.  All pairs are drawn first and
    then checked in one :func:`bound_trace` pass; the worst pair is the first
    one whose minimum margin is the smallest, and within it the first t.
    Used to validate candidate certificates that have no closed-form
    derivation.  ``n_pairs`` and ``horizon`` must be at least 1: no pair, or
    pairs of no step, are no evidence.
    """
    if n_pairs < 1:
        raise DomainError(f"falsification needs n_pairs >= 1, got {n_pairs}")
    if horizon < 1:
        raise DomainError(f"falsification needs horizon >= 1, got {horizon}")
    gen = np.random.Generator(np.random.Philox(key=seed))
    pairs = []
    for _ in range(n_pairs):
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
        pairs.append(sols)
    worst_seed, worst_t = -1, -1
    margins = _pair_margins(cert, [a for a, _ in pairs], [b for _, b in pairs])
    worst_ts = np.argmin(margins, axis=1)
    k, worst = first_min(margins[np.arange(n_pairs), worst_ts])
    if k is not None:
        worst_seed, worst_t = k, int(worst_ts[k])
    return FalsificationReport(worst >= -TOL_CERT, n_pairs, worst, worst_seed, worst_t)


# ---------------------------------------------------------------------------
# Built-in certificate catalog
# ---------------------------------------------------------------------------

def _geom(c: float, lam: float) -> SeparableGeometric:
    return SeparableGeometric(c, 1.0, lam)


def _make_cert(name, mode, beta, gamma, delta, epsilon, phi, validity):
    return IossCertificate(name, mode, LinearK(1.0), beta, gamma, delta, epsilon, phi,
                           validity=validity)


def _recipes() -> Dict[Tuple[str, PlusMode], tuple]:
    """The :func:`_make_cert` arguments of every fixture but an alias."""
    cat = {}
    # shared contractive gains: e+ = 0.5 e + dw (s1 exactly, s3 by Lipschitz 0.5)
    for plant in ("s1", "s3"):
        cat[(plant, PlusMode.SUM)] = (
            plant, PlusMode.SUM,
            _geom(1.0, 0.5), _geom(2.0, 0.5), _geom(2.0, 0.5),
            _geom(1.0, 0.5), _geom(1.0, 0.5), "proven")
        # max mode pays the sum-to-max conversion: split 1.5/3, tail rate 0.75
        cat[(plant, PlusMode.MAX)] = (
            plant, PlusMode.MAX,
            _geom(1.5, 0.5), _geom(12.0, 0.75), _geom(12.0, 0.75),
            _geom(1.0, 0.75), _geom(1.0, 0.75), "proven")
    # s2: one-step output injection, valid verbatim in both modes
    for mode in (PlusMode.MAX, PlusMode.SUM):
        cat[("s2", mode)] = (
            "s2", mode,
            _geom(1.0, 0.5), _geom(6.0, 0.5), _geom(12.0, 0.5),
            _geom(1.0, 0.5), _geom(12.0, 0.5), "proven")
    # analysis fixture: shared gains tagged max; not a proven max certificate
    cat[("s1-shared", PlusMode.MAX)] = (
        "s1-shared", PlusMode.MAX,
        _geom(1.0, 0.5), _geom(2.0, 0.5), _geom(2.0, 0.5),
        _geom(1.0, 0.5), _geom(1.0, 0.5), "declared")
    # s4 candidates: Lipschitz estimate 0.87 with sum-to-max headroom; sampled only
    for mode in (PlusMode.MAX, PlusMode.SUM):
        cat[("s4", mode)] = (
            "s4", mode,
            _geom(3.0, 0.87), _geom(45.0, 0.93), _geom(1.0, 0.9),
            _geom(3.0, 0.93), _geom(1.0, 0.9), "sampled")
    return cat


_RECIPES = _recipes()
#: fixtures that are another fixture: ``s1-shared`` sum mode is ``s1``'s
_ALIASES = {("s1-shared", PlusMode.SUM): ("s1", PlusMode.SUM)}
#: the fixtures built so far, each on its first request
_CERTS: Dict[Tuple[str, PlusMode], IossCertificate] = {}

CERTIFICATE_NAMES = tuple(sorted({name for name, _ in (*_RECIPES, *_ALIASES)}))


def _catalog() -> Dict[Tuple[str, PlusMode], IossCertificate]:
    """Every fixture, built now: what :func:`builtin_certificate` gives."""
    cat = {key: _make_cert(*recipe) for key, recipe in _RECIPES.items()}
    cat.update((alias, cat[key]) for alias, key in _ALIASES.items())
    return cat


def builtin_certificate(name: str, mode: PlusMode) -> IossCertificate:
    """The catalog fixture (name, mode), built with its summability evidence
    on its first request and kept."""
    key = _ALIASES.get((name, mode), (name, mode))
    if key not in _CERTS:
        if key not in _RECIPES:
            raise DomainError(f"no certificate {name!r} for mode {mode.value}; available: "
                              f"{list(CERTIFICATE_NAMES)}")
        _CERTS[key] = _make_cert(*_RECIPES[key])
    return _CERTS[key]


def certificate_to_text(cert: IossCertificate) -> Dict[str, str]:
    """Declarative text form of a certificate (embeddable in config files)."""
    return {"name": cert.name, "mode": cert.mode.value, "validity": cert.validity,
            "alpha": format_kfn(cert.alpha),
            **{key: format_klfn(fn) for key, fn in cert.gains().items()}}


def cost_to_text(cost: CostSpec) -> Dict[str, str]:
    """Declarative text form of a cost specification, as a ``[cost]``
    section takes it."""
    return {"name": cost.name, "mode": cost.mode.value,
            **{key: format_klfn(getattr(cost, key)) for key in ("beta_hat", "gamma_hat", "delta_hat")}}
