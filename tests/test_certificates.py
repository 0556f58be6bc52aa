"""Certificate checks, cost compatibility, and the derived bound triple."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import mhestab as M
from mhestab import certificates
from mhestab.comparison import (
    CapabilityError,
    DomainError,
    KLFn,
    LinearK,
    N_ONE,
    N_TWO,
    PlusMode,
    SeparableGeometric,
    seq_norms,
)
from mhestab.certificates import (
    CERTIFICATE_NAMES,
    IossCertificate,
    bound_trace,
    builtin_certificate,
    check_compatibility,
    check_ioss_on_pair,
    default_cost_from_certificate,
    derive_bcd,
    falsify_certificate,
)
from mhestab.systems import builtin_model, row_distances, simulate

from reference_folds import falsify_pair_by_pair, ioss_pair_margins

FIXTURES = [(name, mode) for name in CERTIFICATE_NAMES for mode in PlusMode]


def _pair(model, x0a, x0b, wa, wb, va, vb, T, u=None):
    u = np.zeros((T, model.input_dim)) if u is None else u
    return (simulate(model, x0a, u, wa, va, T), simulate(model, x0b, u, wb, vb, T))


def _geom(c, lam):
    return SeparableGeometric(c, 1.0, lam)


def test_identical_tuples_pass():
    model = builtin_model("s1")
    cert = builtin_certificate("s1", PlusMode.SUM)
    T = 12
    gen = np.random.Generator(np.random.Philox(key=0))
    w = gen.uniform(-0.1, 0.1, (T, 1))
    v = gen.uniform(-0.1, 0.1, (T, 1))
    sol, _ = _pair(model, [0.4], [0.4], w, w, v, v, T)
    margin = check_ioss_on_pair(cert, model, sol, sol)
    assert margin.passed
    assert margin.min_margin >= 0.0


def test_s1_sum_certificate_on_random_pairs_closed_form():
    # the closed-form recursion e(t) = 0.5^t dx0 + sum 0.5^{tau-1} dw(t-tau)
    # guarantees the summed bound; check both the recursion and the pair margin
    model = builtin_model("s1")
    cert = builtin_certificate("s1", PlusMode.SUM)
    gen = np.random.Generator(np.random.Philox(key=2))
    T = 16
    for _ in range(20):
        wa = gen.uniform(-0.2, 0.2, (T, 1))
        wb = gen.uniform(-0.2, 0.2, (T, 1))
        va = gen.uniform(-0.2, 0.2, (T, 1))
        vb = gen.uniform(-0.2, 0.2, (T, 1))
        a, b = _pair(model, [gen.uniform(-1, 1)], [gen.uniform(-1, 1)], wa, wb, va, vb, T)
        for t in range(T):
            dw = np.abs(wa - wb)[:, 0]
            closed = 0.5 ** t * abs(a.x[0, 0] - b.x[0, 0]) + sum(
                0.5 ** (tau - 1) * dw[t - tau] for tau in range(1, t + 1))
            assert abs(a.x[t, 0] - b.x[t, 0]) <= closed + 1e-12
        assert check_ioss_on_pair(cert, model, a, b).passed


def test_shrunk_gamma_fails_on_impulse_pair():
    model = builtin_model("s1")
    base = builtin_certificate("s1", PlusMode.SUM)
    shrunk = IossCertificate(
        "s1-shrunk", PlusMode.SUM, base.alpha, base.beta,
        _geom(0.05, 0.5),    # gamma(r, s) = 0.1 * 0.5^{s} * 0.5 r scale: far too small
        base.delta, base.epsilon, base.phi,
        validity="declared")
    T = 4
    w_imp = np.zeros((T, 1))
    w_imp[0, 0] = 1.0
    a, b = _pair(model, [0.0], [0.0], w_imp, np.zeros((T, 1)),
                 np.zeros((T, 1)), np.zeros((T, 1)), T)
    margin = check_ioss_on_pair(shrunk, model, a, b)
    assert not margin.passed
    assert margin.worst_t == 1


def test_pair_check_rejects_mismatched_lengths():
    model = builtin_model("s1")
    cert = builtin_certificate("s1", PlusMode.SUM)
    a, _ = _pair(model, [0.1], [0.1], np.zeros((4, 1)), np.zeros((4, 1)),
                 np.zeros((4, 1)), np.zeros((4, 1)), 4)
    b, _ = _pair(model, [0.1], [0.1], np.zeros((5, 1)), np.zeros((5, 1)),
                 np.zeros((5, 1)), np.zeros((5, 1)), 5)
    with pytest.raises(DomainError):
        check_ioss_on_pair(cert, model, a, b)


def _random_pairs(model, T, key, count):
    """Pairs of solutions with independent initial states, inputs and
    disturbances, so that every discrepancy term of the inequality is live."""
    gen = np.random.Generator(np.random.Philox(key=key))
    pairs = []
    for _ in range(count):
        pairs.append([simulate(model, gen.uniform(-2.0, 2.0, model.state_dim),
                               gen.uniform(-1.0, 1.0, (T, model.input_dim)),
                               gen.uniform(-0.3, 0.3, (T, model.process_noise_dim)),
                               gen.uniform(-0.3, 0.3, (T, model.meas_noise_dim)), T)
                      for _ in range(2)])
    return pairs


@pytest.mark.parametrize("T", [1, 2, 24])
@pytest.mark.parametrize("name,mode", FIXTURES)
def test_pair_check_matches_the_scalar_fold(name, mode, T):
    cert = builtin_certificate(name, mode)
    model = builtin_model("s1" if name == "s1-shared" else name)
    for a, b in _random_pairs(model, T, key=T, count=12):
        margin = check_ioss_on_pair(cert, model, a, b)
        ref = ioss_pair_margins(cert, a, b)
        assert np.abs(a.u - b.u).max() > 0 and np.abs(a.y - b.y).max() > 0
        if mode is PlusMode.MAX:
            assert margin.margins.tobytes() == ref.tobytes()
        else:
            rhs = ref + cert.alpha(row_distances(a.x, b.x))
            assert np.all(np.abs(margin.margins - ref) <= 1e-14 * rhs), (margin.margins, ref)
        assert margin.worst_t == int(np.argmin(ref))
        assert margin.min_margin == margin.margins[margin.worst_t]


@pytest.mark.parametrize("scale", [2.0, 0.0])      # 0.0: every pair's minimum is 0 at t = 0
@pytest.mark.parametrize("name,mode", FIXTURES)
def test_falsifier_matches_the_pair_by_pair_loop(name, mode, scale):
    cert = builtin_certificate(name, mode)
    model = builtin_model("s1" if name == "s1-shared" else name)
    rep = falsify_certificate(cert, model, n_pairs=60, horizon=12, seed=5, scale=scale)
    got = (rep.passed, rep.pairs, rep.worst_margin, rep.worst_pair_seed, rep.worst_t)
    assert got == falsify_pair_by_pair(cert, model, 60, 12, seed=5, scale=scale)


@pytest.mark.parametrize("n_pairs", [0, -1])
def test_falsifier_without_a_pair_is_a_domain_error(n_pairs):
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    with pytest.raises(DomainError, match="n_pairs"):
        falsify_certificate(cert, builtin_model("s1"), n_pairs=n_pairs)


def test_importing_the_package_builds_no_certificate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(M.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import mhestab; from mhestab import certificates; print(len(certificates._CERTS))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.split() == ["0"]


def test_every_fixture_is_what_the_eager_catalog_builds():
    eager = certificates._catalog()
    assert sorted(eager, key=lambda key: (key[0], key[1].value)) == sorted(
        FIXTURES, key=lambda key: (key[0], key[1].value))
    for (name, mode), cert in eager.items():
        assert builtin_certificate(name, mode) == cert, (name, mode)
        assert builtin_certificate(name, mode) is builtin_certificate(name, mode)
    assert builtin_certificate("s1-shared", PlusMode.SUM) is builtin_certificate("s1", PlusMode.SUM)
    with pytest.raises(DomainError, match="available: \\['s1', 's1-shared', 's2', 's3', 's4'\\]"):
        builtin_certificate("s5", PlusMode.MAX)


@pytest.mark.parametrize("horizon", [0, -3])
def test_falsifier_over_no_step_is_a_domain_error(horizon):
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    with pytest.raises(DomainError, match="horizon"):
        falsify_certificate(cert, builtin_model("s1"), n_pairs=3, horizon=horizon)


# ---------------------------------------------------------------------------
# Default cost, compatibility, derived bounds
# ---------------------------------------------------------------------------

def test_default_cost_substitution_examples():
    cert = builtin_certificate("s1-shared", PlusMode.MAX)   # beta = 0.5^s r
    cost = default_cost_from_certificate(cert, N_TWO)
    for s in range(5):
        for r in (0.3, 1.0, 4.0):
            assert cost.beta_hat(r, s) == pytest.approx(2 * 0.5 ** s * r)
            assert cost.gamma_hat(r, s) == pytest.approx(cert.gamma(2 * r, s))
    cert_sum = builtin_certificate("s1", PlusMode.SUM)
    cost_sum = default_cost_from_certificate(cert_sum, N_ONE)
    for s in range(5):
        assert cost_sum.beta_hat(1.0, s) == cert_sum.beta(1.0, s)


def test_compatibility_b_one_with_equality():
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    cost = default_cost_from_certificate(cert, N_TWO)
    witness = check_compatibility(cert, cost, N_TWO)
    assert witness.passed and witness.B == 1.0
    assert witness.worst_ratio == pytest.approx(1.0)


def test_compatibility_doubled_and_halved_cost():
    from mhestab.comparison import ScaledShiftKL
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    base = default_cost_from_certificate(cert, N_TWO)
    doubled = M.CostSpec(PlusMode.MAX, ScaledShiftKL(base.beta_hat, 1.0, 0, 2.0),
                         base.gamma_hat, base.delta_hat)
    assert check_compatibility(cert, doubled, N_TWO).B == 1.0
    halved = M.CostSpec(PlusMode.MAX, ScaledShiftKL(base.beta_hat, 1.0, 0, 0.5),
                        base.gamma_hat, base.delta_hat)
    witness = check_compatibility(cert, halved, N_TWO)
    assert witness.B == 2.0


def test_derive_bcd_examples():
    cert = builtin_certificate("s1-shared", PlusMode.MAX)   # beta = lam^s r
    cost = default_cost_from_certificate(cert, N_TWO)
    witness = check_compatibility(cert, cost, N_TWO)
    bounds = derive_bcd(cert, cost, witness, 1.0)
    for s in range(6):
        for r in (0.1, 1.0, 7.0):
            assert bounds.b(r, s) == pytest.approx(2 * 0.5 ** s * r)
    # A = 2: b = max(beta(2r, s), 2 beta_hat(r, s)) = 4 lam^s r
    bounds2 = derive_bcd(cert, cost, witness, 2.0)
    for s in range(4):
        assert bounds2.b(1.0, s) == pytest.approx(max(2 * 0.5 ** s, 2 * 2 * 0.5 ** s))

    cert_sum = builtin_certificate("s1", PlusMode.SUM)
    cost_sum = default_cost_from_certificate(cert_sum, N_ONE)
    witness_sum = check_compatibility(cert_sum, cost_sum, N_ONE)
    bounds_sum = derive_bcd(cert_sum, cost_sum, witness_sum, 1.0)
    for s in range(6):
        # sum mode with N = 1 and linear beta: b = beta + beta = 2 beta
        assert bounds_sum.b(1.0, s) == pytest.approx(2 * cert_sum.beta(1.0, s))


def test_remark_bounds_dominate():
    # b <= (1 (+) A) B beta_hat, and likewise for c, d
    for mode, n in ((PlusMode.MAX, N_TWO), (PlusMode.SUM, N_ONE)):
        cert = builtin_certificate("s1", mode)
        cost = default_cost_from_certificate(cert, n)
        witness = check_compatibility(cert, cost, n)
        a_factor = 1.5
        bounds = derive_bcd(cert, cost, witness, a_factor)
        cap = (max(1.0, a_factor) if mode is PlusMode.MAX else 1.0 + a_factor) * witness.B
        for s in range(8):
            for r in np.geomspace(1e-3, 10, 7):
                assert bounds.b(r, s) <= cap * cost.beta_hat(r, s) * (1 + 1e-12)
                assert bounds.c(r, s) <= cap * cost.gamma_hat(r, s) * (1 + 1e-12)
                assert bounds.d(r, s) <= cap * cost.delta_hat(r, s) * (1 + 1e-12)


def test_mode_coherence_rejected():
    cert = builtin_certificate("s1", PlusMode.MAX)
    cost_sum = default_cost_from_certificate(builtin_certificate("s1", PlusMode.SUM), N_ONE)
    with pytest.raises(DomainError):
        check_compatibility(cert, cost_sum, N_TWO)


def test_bcd_are_kl_on_grid():
    from mhestab.comparison import check_kl_on_grid, log_grid
    for mode, n in ((PlusMode.MAX, N_TWO), (PlusMode.SUM, N_ONE)):
        cert = builtin_certificate("s2", mode)
        cost = default_cost_from_certificate(cert, n)
        witness = check_compatibility(cert, cost, n)
        bounds = derive_bcd(cert, cost, witness, 1.05)
        grid = log_grid(1e-6, 1e3, 6)
        for fn in (bounds.b, bounds.c, bounds.d):
            assert check_kl_on_grid(fn, grid, s_max=32).passed


# ---------------------------------------------------------------------------
# RGAS right side
# ---------------------------------------------------------------------------

def _shared_bounds():
    # b = c = d = 2 * 0.5^s r, constructed directly
    fn = _geom(2.0, 0.5)
    return M.DerivedBounds(PlusMode.MAX, fn, fn, fn, 1.0, 1.0, ("direct", "direct"))


def _fie_bound(bounds, init_dist, w, v):
    """The full-information bound at t = 0..len(w), from (t, d) sequences."""
    return bound_trace(bounds.mode, bounds.b, init_dist, (bounds.c, seq_norms(np.asarray(w))),
                       (bounds.d, seq_norms(np.asarray(v))))


def test_eval_rgas_rhs_examples():
    bounds = _shared_bounds()   # b = c = d = 2 * 0.5^s r
    zeros = np.zeros((3, 1))
    assert list(_fie_bound(bounds, 1.0, zeros, zeros)) == pytest.approx([2.0, 1.0, 0.5, 0.25])
    w = np.zeros((2, 1))
    w[1, 0] = 1.0   # impulse at t-1 for t = 2
    assert _fie_bound(bounds, 1.0, w, np.zeros((2, 1)))[2] == pytest.approx(max(0.5, 1.0))


# ---------------------------------------------------------------------------
# Falsification and fixtures
# ---------------------------------------------------------------------------

def test_builtin_fixtures_survive_falsification():
    for plant in ("s1", "s2", "s3"):
        model = builtin_model(plant)
        for mode in PlusMode:
            cert = builtin_certificate(plant, mode)
            assert cert.validity == "proven"
            rep = falsify_certificate(cert, model, n_pairs=200, horizon=20, seed=3)
            assert rep.passed, (plant, mode, rep.worst_margin)


def test_s4_candidate_survives_sampling():
    model = builtin_model("s4")
    for mode in PlusMode:
        cert = builtin_certificate("s4", mode)
        assert cert.validity == "sampled"
        rep = falsify_certificate(cert, model, n_pairs=400, horizon=16, seed=7)
        assert rep.passed, rep.worst_margin


def test_shared_gain_fixture_is_declared_and_max_falsifiable():
    # the shared-gain fixture exists for contraction-threshold algebra; its
    # max-mode inequality is genuinely violated by summed disturbances
    cert = builtin_certificate("s1-shared", PlusMode.MAX)
    assert cert.validity == "declared"
    model = builtin_model("s1")
    rep = falsify_certificate(cert, model, n_pairs=200, horizon=20, seed=3)
    assert not rep.passed


def test_sum_certificates_carry_summability():
    for name in ("s1", "s2", "s3", "s4"):
        cert = builtin_certificate(name, PlusMode.SUM)
        assert cert.summability is not None
        for key in ("gamma", "delta", "epsilon", "phi"):
            assert cert.summability[key].passed


class _ShortTail(KLFn):
    """1.0 * 0.99^s r, whose declared tail from age 1 on is 0: the partial
    sum, about 100 r, is far above the rule's 2 (r + 0)."""

    def _eval(self, r, s):
        return 0.99 ** s * r

    def _tail(self, r, start):
        return 0.0 * r


class _NoTail(KLFn):
    def _eval(self, r, s):
        return 0.5 ** s * r


def test_summability_is_derived_from_the_gains_it_describes():
    cost = default_cost_from_certificate(builtin_certificate("s1", PlusMode.SUM), N_ONE)
    gain = SeparableGeometric(3.0, 1.0, 0.5)
    swapped = dataclasses.replace(cost, gamma_hat=gain)
    assert swapped.summability["gamma_hat"].sigma.fn is gain
    assert swapped.summability["gamma_hat"].passed
    assert swapped.summability["delta_hat"] == cost.summability["delta_hat"]
    with pytest.raises(TypeError, match="summability"):
        M.CostSpec(PlusMode.SUM, gain, gain, gain, summability={})
    with pytest.raises(TypeError, match="summability"):
        IossCertificate("c", PlusMode.SUM, LinearK(1.0), gain, gain, gain, gain, gain,
                        summability={})
    assert M.CostSpec(PlusMode.MAX, gain, _NoTail(), _NoTail()).summability is None


@pytest.mark.parametrize("owner,key", [("certificate", "delta"), ("cost", "delta_hat")])
def test_a_gain_failing_the_tail_rule_is_refused(owner, key):
    base = builtin_certificate("s1", PlusMode.SUM)
    if owner == "cost":
        base = default_cost_from_certificate(base, N_ONE)
    with pytest.raises(DomainError, match=f"sum-mode {key} fails its summability check"):
        dataclasses.replace(base, **{key: _ShortTail()})
    with pytest.raises(CapabilityError, match="no analytic tail bound"):
        dataclasses.replace(base, **{key: _NoTail()})


def test_certificate_text_round_trip():
    from mhestab.certificates import certificate_to_text, cost_to_text
    from mhestab.comparison import parse_klfn
    cert = builtin_certificate("s2", PlusMode.MAX)
    text = certificate_to_text(cert)
    assert text["mode"] == "max" and text["validity"] == "proven"
    for key, fn in cert.gains().items():
        parsed = parse_klfn(text[key])
        for r in (0.3, 2.0):
            for s in (0, 3):
                assert parsed(r, s) == fn(r, s)
    cost = default_cost_from_certificate(cert, N_TWO)
    ctext = cost_to_text(cost)
    parsed = parse_klfn(ctext["beta_hat"])
    assert parsed(1.0, 2) == cost.beta_hat(1.0, 2)


def test_falsification_csv_export():
    model = builtin_model("s1")
    cert = builtin_certificate("s1", PlusMode.SUM)
    rep = falsify_certificate(cert, model, n_pairs=20, horizon=8, seed=0)
    text = rep.to_csv()
    assert text.splitlines()[0] == "pairs,worst_pair_seed,worst_t,worst_margin,passed"


# ---------------------------------------------------------------------------
# Suboptimality-to-error estimate, end to end
# ---------------------------------------------------------------------------

def test_prop_decrease_end_to_end():
    """Windows whose achieved cost is certified A-suboptimal against the truth
    satisfy the derived (b, c, d) estimate anchored at the prior distance."""
    from mhestab.comparison import triangle_constant
    from mhestab.estimator import (EstimationProblem, SolverConfig, certify_suboptimality,
                                   solve_window)
    gen = np.random.Generator(np.random.Philox(key=5))
    a_factor = 1.05
    for plant in ("s1", "s2", "s3"):
        model = builtin_model(plant)
        for mode in (PlusMode.MAX, PlusMode.SUM):
            cert = builtin_certificate(plant, mode)
            n = triangle_constant(cert.beta, mode)
            cost = default_cost_from_certificate(cert, n)
            witness = check_compatibility(cert, cost, n)
            bounds = derive_bcd(cert, cost, witness, a_factor)
            for trial in range(6):
                K = int(gen.integers(1, 7))
                w = gen.uniform(-0.1, 0.1, (K, 1))
                v = gen.uniform(-0.1, 0.1, (K, 1))
                u = np.zeros((K, 1))
                x0 = gen.uniform(-0.5, 0.5, 1)
                sol = simulate(model, x0, u, w, v, K)
                prior = x0 + gen.uniform(-1.0, 1.0, 1)
                problem = EstimationProblem(model, cost, prior, u, sol.y, K)
                result = solve_window(problem, SolverConfig())
                record = certify_suboptimality(result, sol, cost, a_factor)
                if not record.passed:
                    continue
                x_true_end = model.f(sol.x[-1], u[-1], w[-1])
                err = cert.alpha(row_distances(x_true_end, result.published))
                rhs = _fie_bound(bounds, row_distances(sol.x[0], prior), w, v)[K]
                assert err <= rhs + 1e-9, (plant, mode, trial, err, rhs)
