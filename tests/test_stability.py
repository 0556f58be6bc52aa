"""Contraction analysis, hat/bar bounds, and the sum-to-max machinery."""

import math
import numpy as np
import pytest

import mhestab as M
from mhestab.comparison import (
    DomainError,
    LinearK,
    N_TWO,
    PlusMode,
    PowerK,
    SeparableGeometric,
    log_grid,
)
from mhestab.certificates import (
    DerivedBounds,
    bound_trace,
    builtin_certificate,
    check_compatibility,
    default_cost_from_certificate,
    derive_bcd,
)
from mhestab.stability import (
    build_bar_bounds,
    build_hat_bounds,
    check_sum_to_max_lemma,
    equality_threshold,
    find_contraction_max,
    find_contraction_sum,
    rges_envelope,
)

ALPHA = LinearK(1.0)


def _direct_bounds(mode, c=2.0, lam=0.5):
    fn = SeparableGeometric(c, 1.0, lam)
    return DerivedBounds(mode, fn, fn, fn, 1.0, 1.0, ("direct", "direct"))


def _s1_bounds(a_factor=1.0):
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    cost = default_cost_from_certificate(cert, N_TWO)
    witness = check_compatibility(cert, cost, N_TWO)
    return derive_bcd(cert, cost, witness, a_factor)


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------

def test_contraction_thresholds_match_hand_algebra():
    bounds = _s1_bounds()          # b(r, s) = 2 * 0.5^s r
    a1 = find_contraction_max(bounds, ALPHA, 1)
    assert not a1.passed           # kappa_1(r) = r is not strict
    for K in range(2, 9):
        a = find_contraction_max(bounds, ALPHA, K)
        assert a.passed
        assert a.is_linear
        assert a.linear_rate == 2.0 ** (1 - K)
    # kappa decreases pointwise with K
    assert find_contraction_max(bounds, ALPHA, 4).kappa(1.0) == 0.125


def test_contraction_max_requires_max_mode():
    bounds = _direct_bounds(PlusMode.SUM)
    with pytest.raises(DomainError):
        find_contraction_max(bounds, ALPHA, 2)


def test_contraction_max_failure_reports_smallest_r():
    bounds = _direct_bounds(PlusMode.MAX, c=2.0, lam=0.5)
    a = find_contraction_max(bounds, ALPHA, 1)
    assert not a.passed
    grid = np.asarray(M.log_grid(1e-6, 1e3, 48))
    assert a.worst_r == pytest.approx(float(grid[0]))


def test_contraction_sum_linear_algebra():
    # b(alpha^{-1}(r), K) = 0.5 r with theta = 0.5: rho = 0.25 r, kappa = 0.75 r,
    # zeta(r) = r + 0.75 * (r / 0.25) = 4 r
    bounds = _direct_bounds(PlusMode.SUM, c=1.0, lam=0.5)
    a = find_contraction_sum(bounds, ALPHA, 1, thetas=(0.5,))
    assert a.passed
    assert a.kappa(1.0) == pytest.approx(0.75)
    assert a.rho(1.0) == pytest.approx(0.25)
    assert a.zeta(1.0) == pytest.approx(4.0)
    assert a.zeta(1.0) > 2.0

    # b(alpha^{-1}(r), K) = 0.25 r with theta = 0.25: rho = 0.1875 r, kappa = 0.4375 r
    bounds2 = _direct_bounds(PlusMode.SUM, c=1.0, lam=0.25)
    a2 = find_contraction_sum(bounds2, ALPHA, 1, thetas=(0.25,))
    assert a2.kappa(1.0) == pytest.approx(0.4375)
    assert a2.rho(1.0) == pytest.approx(0.1875)


def test_contraction_sum_no_room_fails():
    bounds = _direct_bounds(PlusMode.SUM, c=1.0, lam=1.0 - 1e-12)
    # b(alpha^{-1}(r), 0) == r leaves no strict slack at K = 0-like rates
    a = find_contraction_sum(bounds, ALPHA, 0)
    assert not a.passed


def test_subdistributivity_exact_for_max():
    gen = np.random.Generator(np.random.Philox(key=0))
    for kappa in (LinearK(0.5), PowerK(1.0, 2.0), PowerK(2.0, 0.5)):
        for _ in range(200):
            r, rbar = 10.0 ** gen.uniform(-6, 3, 2)
            assert kappa(max(r, rbar)) == max(kappa(r), kappa(rbar))


# ---------------------------------------------------------------------------
# Hat bounds
# ---------------------------------------------------------------------------

def test_hat_bound_max_hand_value():
    # kappa = 0.5 r, b(r, s) = 2^{1-s} r, K = 2 at (r=1, t=3):
    # max(kappa^1(b(1, 1)), kappa^2(b(1, 0))) = max(0.5, 0.5) = 0.5
    bounds = _direct_bounds(PlusMode.MAX, c=2.0, lam=0.5)
    analysis = find_contraction_max(bounds, ALPHA, 2)
    hat = build_hat_bounds(analysis, bounds)
    assert hat.b_hat(1.0, 3) == pytest.approx(0.5)
    # t = 0 collapses to theta(r, 0)
    for r in (0.2, 1.0, 5.0):
        assert hat.b_hat(r, 0) == bounds.b(r, 0)
        assert hat.c_hat(r, 0) == bounds.c(r, 0)


def test_hat_bound_sum_hand_value():
    # c(r, tau) = 0.5^tau r, K = 2: window sum = 0.75 r, c_hat(r, 0) = zeta(1.5 r)
    fn_b = SeparableGeometric(1.0, 1.0, 0.25)
    fn_cd = SeparableGeometric(1.0, 1.0, 0.5)
    bounds = DerivedBounds(PlusMode.SUM, fn_b, fn_cd, fn_cd, 1.0, 1.0, ("d", "d"))
    analysis = find_contraction_sum(bounds, ALPHA, 2, thetas=(0.5,))
    assert analysis.passed
    hat = build_hat_bounds(analysis, bounds)
    zeta = analysis.zeta
    assert hat.c_hat(1.0, 0) == pytest.approx(zeta(1.5))
    assert hat.c_hat(1.0, 1) == pytest.approx(zeta(1.5))        # same window count
    assert hat.c_hat(1.0, 2) == pytest.approx(analysis.kappa(zeta(1.5)))
    # b_hat carries the factor-2 split
    assert hat.b_hat(1.0, 1) == pytest.approx(
        max(2 * fn_b(1.0, 1), analysis.kappa(2 * fn_b(1.0, 0))))


def test_build_hat_requires_passing_analysis():
    bounds = _s1_bounds()
    failing = find_contraction_max(bounds, ALPHA, 1)
    with pytest.raises(DomainError):
        build_hat_bounds(failing, bounds)


def test_eval_mhe_bound_examples():
    bounds = _s1_bounds()
    hat = build_hat_bounds(find_contraction_max(bounds, ALPHA, 2), bounds)

    def mhe_bound(w_norms, v_norms):
        return bound_trace(PlusMode.MAX, hat.b_hat, 1.0, (hat.c_hat, w_norms),
                           (hat.d_hat, v_norms))

    zeros = np.zeros(4)
    # zero disturbances leave the initial-error term
    assert mhe_bound(zeros, zeros)[4] == hat.b_hat(1.0, 4)
    # t = 0 in max mode equals b(r, 0)
    assert mhe_bound(zeros, zeros)[0] == bounds.b(1.0, 0)
    # a single impulse at t = 1 contributes its c_hat term at t = 2
    val = mhe_bound(np.array([0.0, 1.0]), np.zeros(2))[2]
    assert val == pytest.approx(max(hat.b_hat(1.0, 2), hat.c_hat(1.0, 1)))


def test_hat_bounds_are_kl():
    from mhestab.comparison import check_kl_on_grid
    for mode, make in ((PlusMode.MAX, find_contraction_max),
                       (PlusMode.SUM, find_contraction_sum)):
        fn = SeparableGeometric(1.0, 1.0, 0.5)
        bounds = DerivedBounds(mode, fn, fn, fn, 1.0, 1.0, ("d", "d"))
        analysis = make(bounds, ALPHA, 3)
        hat = build_hat_bounds(analysis, bounds)
        grid = log_grid(1e-4, 1e2, 4)
        for f in (hat.b_hat, hat.c_hat, hat.d_hat):
            assert check_kl_on_grid(f, grid, s_max=30).passed


def test_hat_slope_fast_path_matches_eval():
    bounds = _s1_bounds()
    hat = build_hat_bounds(find_contraction_max(bounds, ALPHA, 3), bounds)
    for t in range(0, 12):
        slope = hat.c_hat.r_slope(t)
        assert slope is not None
        for r in (0.3, 2.0):
            assert hat.c_hat(r, t) == pytest.approx(slope * r)


# ---------------------------------------------------------------------------
# Bar bounds
# ---------------------------------------------------------------------------

def _hat_family(bounds, ks):
    return {K: build_hat_bounds(find_contraction_max(bounds, ALPHA, K), bounds,
                                check_grid=False)
            for K in ks}


def test_bar_bounds_singleton_family():
    bounds = _s1_bounds()
    family = _hat_family(bounds, range(2, 3))
    bars = build_bar_bounds(family, 2, 2, bounds)
    for r in (0.5, 2.0):
        for t in range(6):
            assert bars.b_bar(2, r, t) == family[2].b_hat(r, t)


def test_bar_bounds_threshold_and_monotonicity():
    bounds = _s1_bounds()          # b = 2 * 0.5^s r, kappa_K = 2^{1-K} r
    family = _hat_family(bounds, range(2, 11))
    bars = build_bar_bounds(family, 2, 10, bounds)
    # equality threshold at (r=1, t=1): kappa_K(b(1,0)) < b(1,1) iff K >= 3
    assert equality_threshold(family, bounds, 1.0, 1) == 3
    for K in range(3, 11):
        assert bars.b_bar(K, 1.0, 1) == pytest.approx(bounds.b(1.0, 1))
    assert bars.b_bar(3, 1.0, 1) >= bars.b_bar(4, 1.0, 1)
    # sandwich: hat <= bar and bar >= window-free bound
    for K in range(2, 11):
        for r in (0.3, 1.0):
            for t in range(8):
                assert bars.b_bar(K, r, t) >= family[K].b_hat(r, t) - 1e-15
                assert bars.b_bar(K, r, t) >= bounds.b(r, t) - 1e-15


def test_bar_bounds_require_contiguous_family():
    bounds = _s1_bounds()
    family = _hat_family(bounds, [2, 4])
    with pytest.raises(DomainError):
        build_bar_bounds(family, 2, 4, bounds)


def test_bar_bounds_reject_nonmonotone_kappa():
    bounds = _s1_bounds()
    family = _hat_family(bounds, range(2, 5))
    family[3] = family[4]    # kappa_3 now smaller than kappa_2... swap to break order
    family = {2: family[4], 3: family[2], 4: family[3]}
    with pytest.raises(DomainError):
        build_bar_bounds(family, 2, 4, bounds)


# ---------------------------------------------------------------------------
# Sum-to-max lemma and inner discounting
# ---------------------------------------------------------------------------

def test_sum_to_max_lemma_cases():
    kappa, rho, zeta = LinearK(0.75), LinearK(0.25), LinearK(4.0)
    report = check_sum_to_max_lemma(kappa, rho, zeta, n_samples=20_000, n_sequences=200)
    assert report.passed, report.detail
    # explicit case split
    e, d = 2.0, 0.3
    assert kappa(e) - rho(e) + d <= max(kappa(e), zeta(d)) + 1e-15   # d <= rho(e)
    e, d = 0.1, 5.0
    assert kappa(e) - rho(e) + d <= max(kappa(e), zeta(d)) + 1e-15   # d > rho(e)


def test_conservative_sum_bound_equality_case():
    # constant sequences make both sides equal
    fn = SeparableGeometric(1.0, 1.0, 0.5)
    T = 10
    r = 0.7
    lhs = sum(fn(r, tau) for tau in range(1, T + 1))
    rhs = max(sum(fn(r, s) for s in range(1, T + 1)) for tau in range(1, T + 1))
    assert lhs == pytest.approx(rhs)


# ---------------------------------------------------------------------------
# Exponential envelopes (linear contractions)
# ---------------------------------------------------------------------------

def test_rges_envelope_for_linear_contraction():
    bounds = _s1_bounds()
    for K in (2, 4):
        analysis = find_contraction_max(bounds, ALPHA, K)
        hat = build_hat_bounds(analysis, bounds)
        env = rges_envelope(hat, bounds, t_max=40)
        assert env.C >= 1.0
        assert 0.0 < env.lam < 1.0
        assert env.worst_margin >= -1e-9
        # envelope really dominates on a probe grid
        for r in (0.1, 1.0, 10.0):
            for t in range(0, 40, 3):
                assert hat.b_hat(r, t) <= env.C * env.lam ** t * r * (1 + 1e-9)
