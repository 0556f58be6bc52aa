"""Array evaluation of comparison functions and the grid checks built on it.

Every K and KL family evaluates a numpy array elementwise with the arithmetic
of its scalar call.  The grid checks make one array call per age and are
pinned against the scalar reference folds in ``reference_folds.py``: every
evidence field must be equal with ``==``, on the shipped catalog, on
nonlinear families and on failing inputs, where the worst point reported must
match too.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_folds as ref
from mhestab import certificates, comparison
from mhestab.comparison import (
    CapabilityError,
    ComposedK,
    DomainError,
    IterK,
    IteratedKL,
    KFn,
    KLFn,
    KOfKL,
    LinearK,
    N_ONE,
    PiecewiseLinearK,
    PlusMode,
    PointwiseMaxKL,
    PointwiseSumKL,
    PowerK,
    ScaledShiftKL,
    SeparableGeometric,
    SFloorKL,
    SumK,
    TabulatedKL,
    TriangleGrowth,
    check_kl_on_grid,
    check_summable,
    check_triangle,
    iterate_k,
    log_grid,
    triangle_constant,
)
from mhestab.certificates import (
    CostSpec,
    DerivedBounds,
    check_compatibility,
    default_cost_from_certificate,
    derive_bcd,
)
from mhestab.harness import ExperimentConfig, hat_bounds_for, resolve
from mhestab.stability import (
    ANALYSIS_R_MAX,
    ANALYSIS_R_MIN,
    BoundAlphaInvK,
    GapSlackK,
    PlusSlackK,
    ZetaK,
    build_bar_bounds,
    build_hat_bounds,
    find_contraction_max,
    find_contraction_sum,
)

A_FACTOR = 1.05


def _catalog_pairs():
    """One certificate per distinct (mode, gains) of the shipped catalog:
    ``s3`` repeats the gains of ``s1`` and ``s1-shared`` sum mode is ``s1``."""
    seen, out = set(), []
    for plant, mode in sorted(((plant, mode) for plant in certificates.CERTIFICATE_NAMES
                               for mode in PlusMode), key=lambda pm: (pm[0], pm[1].value)):
        cert = certificates.builtin_certificate(plant, mode)
        key = (mode, tuple(repr(g) for g in cert.gains().values()))
        if key not in seen:
            seen.add(key)
            out.append((f"{plant}-{mode.value}", cert))
    return out


CATALOG = _catalog_pairs()
CATALOG_IDS = [name for name, _ in CATALOG]


def _chain(cert):
    n = triangle_constant(cert.beta, cert.mode)
    cost = default_cost_from_certificate(cert, n)
    witness = check_compatibility(cert, cost, n)
    return n, cost, witness, derive_bcd(cert, cost, witness, A_FACTOR)


def _find_contraction(bounds, alpha, K):
    if bounds.mode is PlusMode.MAX:
        return find_contraction_max(bounds, alpha, K), ref.find_contraction_max(bounds, alpha, K)
    return find_contraction_sum(bounds, alpha, K), ref.find_contraction_sum(bounds, alpha, K)


def _concave_bounds(mode):
    """Bounds whose window map is a nonlinear contraction, so the contraction
    goes through BoundAlphaInvK, GapSlackK, PlusSlackK and ZetaK."""
    knee = PiecewiseLinearK(((1.0, 1.0), (2.0, 1.5)))
    b = KOfKL(knee, SeparableGeometric(1.0, 1.0, 0.5))
    c = KOfKL(knee, SeparableGeometric(2.0, 1.0, 0.5))
    return DerivedBounds(mode, b, c, c, 1.0, 1.0, ("concave", "concave"))


# ---------------------------------------------------------------------------
# The shipped catalog: every plant x mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,cert", CATALOG, ids=CATALOG_IDS)
def test_summability_matches_reference_on_catalog(name, cert):
    records = dict(cert.summability or {})
    if cert.mode is PlusMode.SUM:
        _, cost, _, _ = _chain(cert)
        records.update({k: (getattr(cost, k), ev) for k, ev in cost.summability.items()})
    for key, record in records.items():
        fn, ev = record if isinstance(record, tuple) else (getattr(cert, key), record)
        assert ev == ref.check_summable(fn, ev.sigma), (name, key)


@pytest.mark.parametrize("name,cert", CATALOG, ids=CATALOG_IDS)
def test_triangle_matches_reference_on_catalog(name, cert):
    n = triangle_constant(cert.beta, cert.mode)
    assert n == ref.triangle_constant(cert.beta, cert.mode)
    assert check_triangle(cert.beta, n, cert.mode) == ref.check_triangle(cert.beta, n, cert.mode)
    # N = 1 fails in max mode, so this also pins the reported worst point
    assert (check_triangle(cert.beta, N_ONE, cert.mode)
            == ref.check_triangle(cert.beta, N_ONE, cert.mode))


@pytest.mark.parametrize("name,cert", CATALOG, ids=CATALOG_IDS)
def test_compatibility_and_contraction_match_reference_on_catalog(name, cert):
    n, cost, witness, bounds = _chain(cert)
    assert witness == ref.check_compatibility(cert, cost, n)
    assert check_compatibility(cert, cost, N_ONE) == ref.check_compatibility(cert, cost, N_ONE)
    for K in range(1, 9):
        new, old = _find_contraction(bounds, cert.alpha, K)
        assert new == old, (name, K)


@pytest.mark.parametrize("name,cert", CATALOG, ids=CATALOG_IDS)
def test_hat_and_bar_bounds_match_reference_on_catalog(name, cert):
    _, _, _, bounds = _chain(cert)
    hats = {}
    for K in range(1, 9):
        analysis, _ = _find_contraction(bounds, cert.alpha, K)
        if not analysis.passed:
            continue
        hat = build_hat_bounds(analysis, bounds)
        grid = log_grid(ANALYSIS_R_MIN, ANALYSIS_R_MAX, 6)
        assert hat.kl_evidence == tuple(ref.check_kl_on_grid(fn, grid, s_max=10 * K)
                                        for fn in (hat.b_hat, hat.c_hat, hat.d_hat))
        hats[K] = hat
    if len(hats) < 2:
        return
    K0, K_max = min(hats), max(hats)
    bar = build_bar_bounds(hats, K0, K_max, bounds)
    gap, mono, kl_ev = ref.bar_bound_checks(hats, K0, K_max, bounds)
    assert (bar.convergence_gap, bar.monotone_evidence, bar.kl_evidence) == (gap, mono, kl_ev)


@pytest.mark.parametrize("name,cert", CATALOG, ids=CATALOG_IDS)
def test_kl_grid_check_matches_the_two_loop_version(name, cert):
    # the catalog gains, then the hat bounds at s_max = 10 K on a grid of
    # more than 31 points, where the probe is strided, then the envelopes
    for key, fn in cert.gains().items():
        assert check_kl_on_grid(fn) == ref.check_kl_two_loops(fn), key
    _, _, _, bounds = _chain(cert)
    find = find_contraction_max if cert.mode is PlusMode.MAX else find_contraction_sum
    grid = log_grid(ANALYSIS_R_MIN, ANALYSIS_R_MAX, 6)
    assert len(grid) > 31
    hats = {}
    for K in range(1, 9):
        analysis = find(bounds, cert.alpha, K)
        if not analysis.passed:
            continue
        hats[K] = hat = build_hat_bounds(analysis, bounds, check_grid=False)
        for fn in (hat.b_hat, hat.c_hat, hat.d_hat):
            assert (check_kl_on_grid(fn, grid, s_max=10 * K)
                    == ref.check_kl_two_loops(fn, grid, s_max=10 * K)), K
    if len(hats) < 2:
        return
    K0, K_max = min(hats), max(hats)
    bar = build_bar_bounds(hats, K0, K_max, bounds)
    kl_grid = log_grid(1e-3, 1e2, 3)
    assert bar.kl_evidence == tuple(
        ref.check_kl_two_loops(functools.partial(envelope, K0), kl_grid, s_max=12)
        for envelope in (bar.b_bar, bar.c_bar, bar.d_bar))
    for envelope in (bar.b_bar, bar.c_bar, bar.d_bar):
        f = functools.partial(envelope, K0)
        assert check_kl_on_grid(f, kl_grid, s_max=12) == ref.check_kl_two_loops(f, kl_grid,
                                                                               s_max=12)


# ---------------------------------------------------------------------------
# Nonlinear families
# ---------------------------------------------------------------------------

SMALL_GRID = log_grid(1e-3, 1e3, 8)
A_GRID = np.geomspace(1e-4, 1e2, 12)

NONLINEAR_KL = {
    "sepgeo-p2": SeparableGeometric(1.0, 2.0, 0.5),
    "iterated-power": IteratedKL(LinearK(0.5), PowerK(1.0, 2.0)),
    "iterated-pwl": IteratedKL(LinearK(0.6), PiecewiseLinearK(((1.0, 2.0), (3.0, 3.0)))),
    "sfloor": SFloorKL(SeparableGeometric(1.0, 2.0, 0.5), 3),
    "kofkl-pwl": KOfKL(PiecewiseLinearK(((1.0, 2.0), (3.0, 3.0))),
                       SeparableGeometric(1.0, 1.0, 0.6)),
    "max": PointwiseMaxKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(0.5, 2.0, 0.8))),
    "sum": PointwiseSumKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(0.5, 2.0, 0.8))),
    "scaled": ScaledShiftKL(SeparableGeometric(1.0, 2.0, 0.5), TriangleGrowth((2.0, 1.5, 1.0)),
                            1, 3.0),
}
SIGMAS = (LinearK(4.0), PowerK(3.0, 2.0), PiecewiseLinearK(((1.0, 5.0), (10.0, 20.0))))


@pytest.mark.parametrize("name", sorted(NONLINEAR_KL))
def test_grid_checks_match_reference_on_nonlinear_families(name):
    f = NONLINEAR_KL[name]
    assert check_kl_on_grid(f, SMALL_GRID, s_max=24) == ref.check_kl_on_grid(f, SMALL_GRID,
                                                                             s_max=24)
    for sigma in SIGMAS:     # k-of-kl with a nonlinear outer has no tail bound: both raise
        assert (_outcome(check_summable, f, sigma, SMALL_GRID, 48)
                == _outcome(ref.check_summable, f, sigma, SMALL_GRID, 48)), sigma
    for mode in PlusMode:
        n = triangle_constant(f, mode, s_max=6, a_grid=A_GRID)
        assert n == ref.triangle_constant(f, mode, s_max=6, a_grid=A_GRID)
        for growth in (n, N_ONE):
            assert (check_triangle(f, growth, mode, s_max=6, a_grid=A_GRID)
                    == ref.check_triangle(f, growth, mode, s_max=6, a_grid=A_GRID))


@pytest.mark.parametrize("mode", list(PlusMode), ids=lambda m: m.value)
def test_nonlinear_contraction_hat_and_bar_match_reference(mode):
    bounds = _concave_bounds(mode)
    alpha = LinearK(1.0)
    hats = {}
    for K in (1, 2, 3):
        new, old = _find_contraction(bounds, alpha, K)
        assert new == old, K
        assert new.passed and not new.is_linear
        hat = build_hat_bounds(new, bounds, check_grid=False)
        assert (tuple(check_kl_on_grid(fn, SMALL_GRID, s_max=4 * K)
                      for fn in (hat.b_hat, hat.c_hat, hat.d_hat))
                == tuple(ref.check_kl_on_grid(fn, SMALL_GRID, s_max=4 * K)
                         for fn in (hat.b_hat, hat.c_hat, hat.d_hat)))
        hats[K] = hat
    if mode is PlusMode.MAX:
        bar = build_bar_bounds(hats, 1, 3, bounds, t_max=6)
        gap, mono, kl_ev = ref.bar_bound_checks(hats, 1, 3, bounds, t_max=6)
        assert (bar.convergence_gap, bar.monotone_evidence, bar.kl_evidence) == (gap, mono, kl_ev)


# ---------------------------------------------------------------------------
# Failing inputs: the same worst point as the scalar scan
# ---------------------------------------------------------------------------

class _RisingThenDecaying(KLFn):
    """Grows in s up to s = 4 on r > 1 only, so the s-scan fails first at the
    first probe point above 1."""

    def __call__(self, r, s):
        r, s = self._check_args(r, s)
        return r * (1.0 + 0.01 * s * (r > 1.0)) if s < 5 else r * 0.5 ** s


class _FlatAboveOne(KLFn):
    """Constant in r above r = 1, so a slice fails the r check."""

    def __call__(self, r, s):
        r, s = self._check_args(r, s)
        return np.minimum(r, 1.0) * 0.5 ** s


@pytest.mark.parametrize("fn", [_RisingThenDecaying(), _FlatAboveOne()],
                         ids=["rising-in-s", "flat-in-r"])
def test_failing_kl_checks_match_the_two_loop_version(fn):
    ev = check_kl_on_grid(fn)
    assert not ev.passed and ev == ref.check_kl_two_loops(fn)


def test_kl_grid_check_without_a_slice_is_a_domain_error():
    with pytest.raises(DomainError, match="s_max >= 0"):
        check_kl_on_grid(SeparableGeometric(1.0, 1.0, 0.5), SMALL_GRID, s_max=-1)


def test_failing_checks_report_the_reference_worst_point():
    bad_s = _RisingThenDecaying()
    ev = check_kl_on_grid(bad_s)
    assert not ev.passed and ev == ref.check_kl_on_grid(bad_s)
    assert ev.worst_point[0] > 1.0 and ev.worst_point[1] == 1

    gain = SeparableGeometric(2.0, 1.0, 0.5)          # sums to 4 r
    ev = check_summable(gain, PowerK(3.0, 1.5))       # 3 r^1.5 < 4 r below r = 16/9
    assert not ev.passed and ev == ref.check_summable(gain, PowerK(3.0, 1.5))
    ev = check_summable(gain, LinearK(3.0))
    assert not ev.passed and ev == ref.check_summable(gain, LinearK(3.0))

    cert = certificates.builtin_certificate("s1", PlusMode.MAX)
    ev = check_triangle(cert.beta, N_ONE, PlusMode.MAX)
    assert not ev.passed and ev == ref.check_triangle(cert.beta, N_ONE, PlusMode.MAX)

    # a cost ratio above every B candidate, and a zero cost gain
    n = triangle_constant(cert.beta, cert.mode)
    for gamma_hat in (ScaledShiftKL(cert.gamma, n, 0, 1.0 / 16.0), SeparableGeometric(0.0, 1.0, 0.5)):
        cost = CostSpec(PlusMode.MAX, ScaledShiftKL(cert.beta, n), gamma_hat,
                        ScaledShiftKL(cert.delta, n))
        witness = check_compatibility(cert, cost, n)
        assert not witness.passed and witness == ref.check_compatibility(cert, cost, n)

    shared = certificates.builtin_certificate("s1-shared", PlusMode.MAX)
    _, _, _, bounds = _chain(shared)
    new, old = _find_contraction(bounds, shared.alpha, 1)
    assert not new.passed and new == old


def test_rising_kappa_family_reports_the_reference_point():
    _, _, _, bounds = _chain(certificates.builtin_certificate("s1", PlusMode.MAX))
    hats = {K: build_hat_bounds(find_contraction_max(bounds, LinearK(1.0), K), bounds,
                                check_grid=False) for K in (3, 4)}
    hats = {3: hats[4], 4: hats[3]}                  # kappa now rises with K
    with pytest.raises(DomainError) as new:
        build_bar_bounds(hats, 3, 4, bounds)
    with pytest.raises(ValueError) as old:
        ref.bar_bound_checks(hats, 3, 4, bounds)
    assert str(new.value) == str(old.value)


def test_tabulated_gain_has_no_summability_evidence():
    r_grid = np.geomspace(1e-3, 1e3, 7)
    tab = TabulatedKL(r_grid, np.arange(6.0), np.outer(r_grid, 0.5 ** np.arange(6.0)))
    with pytest.raises(CapabilityError):
        check_summable(tab, LinearK(2.0))
    with pytest.raises(CapabilityError):
        ref.check_summable(tab, LinearK(2.0), SMALL_GRID, tail_horizon=8)
    grid = np.geomspace(1e-3, 2e3, 50)
    assert check_kl_on_grid(tab, grid, s_max=8) == ref.check_kl_on_grid(tab, grid, s_max=8)


# ---------------------------------------------------------------------------
# Elementwise identity: f(array)[i] == f(float(array[i])) for every family
# ---------------------------------------------------------------------------

def _hat_family():
    out = {}
    for mode in PlusMode:
        _, _, _, bounds = _chain(certificates.builtin_certificate("s1", mode))
        find = find_contraction_max if mode is PlusMode.MAX else find_contraction_sum
        hats = {K: build_hat_bounds(find(bounds, LinearK(1.0), K), bounds, check_grid=False)
                for K in (2, 3)}
        out[mode] = (bounds, hats)
    return out


_HATS = _hat_family()
_CONCAVE_MAX = find_contraction_max(_concave_bounds(PlusMode.MAX), LinearK(1.0), 2)
_CONCAVE_SUM = find_contraction_sum(_concave_bounds(PlusMode.SUM), LinearK(1.0), 2)
_BAR = build_bar_bounds(_HATS[PlusMode.MAX][1], 2, 3, _HATS[PlusMode.MAX][0])
_R_GRID = np.geomspace(1e-3, 1e3, 7)

K_FAMILIES = {
    "linear": LinearK(2.5),
    "power-p2": PowerK(1.5, 2.0),
    "power-p0.5": PowerK(2.0, 0.5),
    "pwl": PiecewiseLinearK(((1.0, 2.0), (3.0, 3.0))),
    "composed": ComposedK((PowerK(1.0, 2.0), LinearK(0.5))),
    "sum": SumK((LinearK(1.0), PowerK(2.0, 0.5))),
    "iter-linear": IterK(LinearK(0.5), 3),
    "iter-power": IterK(PowerK(0.9, 1.1), 3),
    "bound-alpha-inv": BoundAlphaInvK(_concave_bounds(PlusMode.MAX).b, PowerK(2.0, 2.0), 2),
    "gap-slack": _CONCAVE_SUM.rho,
    "plus-slack": _CONCAVE_SUM.kappa,
    "zeta": _CONCAVE_SUM.zeta,
}
assert isinstance(K_FAMILIES["gap-slack"], GapSlackK)
assert isinstance(K_FAMILIES["plus-slack"], PlusSlackK)
assert isinstance(K_FAMILIES["zeta"], ZetaK)

KL_FAMILIES = {
    "sepgeo": SeparableGeometric(2.0, 1.0, 0.5),
    "sepgeo-p2": SeparableGeometric(1.0, 2.0, 0.7),
    "scaled": ScaledShiftKL(SeparableGeometric(1.0, 1.0, 0.5), 2.0, 1, 3.0),
    "scaled-triangle": ScaledShiftKL(SeparableGeometric(1.0, 2.0, 0.5),
                                     TriangleGrowth((2.0, 1.5, 1.0))),
    "max": PointwiseMaxKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(0.5, 2.0, 0.8))),
    "sum": PointwiseSumKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(0.5, 2.0, 0.8))),
    "iterated": IteratedKL(LinearK(0.5), PowerK(1.0, 2.0)),
    "iterated-nonlinear": IteratedKL(PowerK(0.5, 0.8), LinearK(2.0)),
    "k-of-kl": KOfKL(PiecewiseLinearK(((1.0, 2.0), (3.0, 3.0))), SeparableGeometric(1.0, 1.0, 0.6)),
    "sfloor": SFloorKL(SeparableGeometric(1.0, 2.0, 0.5), 3),
    "tabulated": TabulatedKL(_R_GRID, np.arange(6.0), np.outer(_R_GRID, 0.5 ** np.arange(6.0))),
    "max-hat": _HATS[PlusMode.MAX][1][2].b_hat,
    "max-hat-nonlinear": build_hat_bounds(_CONCAVE_MAX, _concave_bounds(PlusMode.MAX),
                                          check_grid=False).c_hat,
    "sum-hat-b": _HATS[PlusMode.SUM][1][2].b_hat,
    "sum-hat-gain": _HATS[PlusMode.SUM][1][3].c_hat,
    "sum-hat-gain-nonlinear": build_hat_bounds(_CONCAVE_SUM, _concave_bounds(PlusMode.SUM),
                                               check_grid=False).d_hat,
}
ENVELOPES = {"b_bar": _BAR.b_bar, "c_bar": _BAR.c_bar, "d_bar": _BAR.d_bar}

_arrays = st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1,
                   max_size=6).map(np.array)


def _same_elementwise(array_result, scalar_fn, values):
    assert isinstance(array_result, np.ndarray) and array_result.shape == values.shape
    for i, v in enumerate(values):
        expected = scalar_fn(float(v))
        assert type(expected) is float
        assert array_result[i] == expected, (i, v)


def _outcome(fn, *args):
    """The result, or the type of the error the call raised."""
    try:
        return fn(*args)
    except (CapabilityError, DomainError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(K_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(r=_arrays)
def test_k_family_evaluates_arrays_elementwise(name, r):
    f = K_FAMILIES[name]
    _same_elementwise(f(r), f, r)
    _same_elementwise(iterate_k(f, 2, r), lambda v: iterate_k(f, 2, v), r)
    if f.is_unbounded:
        inv = _outcome(f.inverse, r)
        if isinstance(inv, np.ndarray):
            _same_elementwise(inv, f.inverse, r)
        else:
            assert inv in {_outcome(f.inverse, float(v)) for v in r}


@pytest.mark.parametrize("name", sorted(KL_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(r=_arrays, s=st.integers(min_value=0, max_value=40))
def test_kl_family_evaluates_arrays_elementwise(name, r, s):
    f = KL_FAMILIES[name]
    _same_elementwise(f(r, s), lambda v: f(v, s), r)
    for method in (f.sum_tail, f.r_inverse):
        out = _outcome(method, r, s)
        if isinstance(out, np.ndarray):
            _same_elementwise(out, lambda v: method(v, s), r)
        else:
            assert out in {_outcome(method, float(v), s) for v in r}


@pytest.mark.parametrize("name", sorted(ENVELOPES))
@settings(max_examples=25, deadline=None)
@given(r=_arrays, K=st.integers(min_value=1, max_value=3), t=st.integers(min_value=0, max_value=30))
def test_bar_envelopes_evaluate_arrays_elementwise(name, r, K, t):
    envelope = ENVELOPES[name]
    _same_elementwise(envelope(K, r, t), lambda v: envelope(K, v, t), r)


def test_arrays_keep_their_shape_and_are_checked():
    f = KL_FAMILIES["max"]
    grid = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
    assert f(grid, 2).shape == (3, 4)
    assert np.asarray(f(np.array(1.5), 2)).shape == ()
    for bad in (np.array([1.0, -1.0]), np.array([np.nan, 1.0])):
        with pytest.raises(DomainError):
            f(bad, 0)
        with pytest.raises(DomainError):
            LinearK(1.0)(bad)
    with pytest.raises(DomainError):
        LinearK(1.0).inverse(np.array([-1.0]))


# ---------------------------------------------------------------------------
# Call-count guards: no scalar grid loop comes back unnoticed
# ---------------------------------------------------------------------------

class _Counting(KLFn):
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, r, s):
        self.calls += 1
        return self.f(r, s)

    def sum_tail(self, r, start):
        return self.f.sum_tail(r, start)


@pytest.mark.parametrize("grid", [np.geomspace(1e-2, 1e2, 3), SMALL_GRID, None],
                         ids=["3-points", "small", "default"])
@pytest.mark.parametrize("tail_horizon", [0, 16, 256])
def test_check_summable_makes_one_call_per_age(grid, tail_horizon):
    f = _Counting(SeparableGeometric(2.0, 1.0, 0.5))
    assert check_summable(f, LinearK(4.0), grid, tail_horizon=tail_horizon).passed
    assert f.calls == tail_horizon + 1


@pytest.mark.parametrize("mode", ["max", "sum"])
def test_each_public_call_checks_its_argument_once(mode, monkeypatch):
    """A composite skips the re-check of its own checked argument: one array
    check per call, plus one for the computed zeta argument of a sum-mode
    disturbance hat gain."""
    resolved = resolve(ExperimentConfig(plant="s1", mode=mode, estimator="mhe", horizon=4))
    hat = hat_bounds_for(resolved, 4)
    checks, check_array = [], comparison._check_array

    def counting(x, what):
        checks.append(what)
        return check_array(x, what)

    monkeypatch.setattr(comparison, "_check_array", counting)
    gains = {"gamma_hat": resolved.cost.gamma_hat, "b": resolved.bounds.b,
             "b_hat": hat.b_hat, "c_hat": hat.c_hat}
    for name, fn in gains.items():
        checks.clear()
        fn(np.geomspace(1e-3, 1e3, 7), 5)
        assert len(checks) == (2 if (mode, name) == ("sum", "c_hat") else 1), name


class _NegativeK(KFn):
    def __call__(self, r):
        return -1.0 - r


class _NegativeKL(KLFn):
    def __call__(self, r, s):
        return -1.0 - r


@pytest.mark.parametrize("fn", [KOfKL(LinearK(1.0), _NegativeKL()),
                                ComposedK((LinearK(1.0), _NegativeK()))],
                         ids=["k-of-kl", "composed"])
@pytest.mark.parametrize("r", [1.0, np.array([0.0, 1.0])], ids=["scalar", "array"])
def test_a_computed_argument_is_still_checked(fn, r):
    with pytest.raises(DomainError):
        fn(r, 0) if isinstance(fn, KLFn) else fn(r)


def test_catalog_build_calls_check_summable_sixteen_times(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return check_summable(*args, **kwargs)

    monkeypatch.setattr(certificates, "check_summable", counting)
    certificates._catalog()
    assert len(calls) == 16
